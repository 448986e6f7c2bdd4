//! The assembled NFV server node.
//!
//! [`HighwayNode`] wires together every component of Figure 1(b)/Figure 2:
//! the vSwitch, the shared-memory registry, the statistics region, the
//! compute agent, the orchestrator — and, when enabled, the highway
//! (detector + manager + stats bridge). The same node with
//! `highway_enabled = false` *is* the paper's vanilla OVS-DPDK baseline:
//! identical VMs, identical rules, no bypass.

use crate::events::EventJournal;
use crate::manager::{HighwayManager, SetupRecord};
use crate::stats::HighwayStatsAugmenter;
use openflow::{framed_link, Connection, SwitchLink};
use ovs_dp::{VSwitchd, VSwitchdConfig};
use shmem_sim::{ChannelEnd, ShmRegistry, StatsRegion};
use std::sync::Arc;
use std::time::Duration;
use vm_host::{ComputeAgent, LatencyModel, Orchestrator};

/// Node configuration.
pub struct HighwayNodeConfig {
    /// Enable the transparent highway (false = vanilla baseline).
    pub highway_enabled: bool,
    /// Hypervisor latency model for the compute agent.
    pub latency: LatencyModel,
    /// Switch daemon configuration.
    pub switch: VSwitchdConfig,
}

impl Default for HighwayNodeConfig {
    fn default() -> Self {
        HighwayNodeConfig {
            highway_enabled: true,
            latency: LatencyModel::zero(),
            switch: VSwitchdConfig::default(),
        }
    }
}

impl HighwayNodeConfig {
    /// The vanilla OVS-DPDK baseline (no highway).
    pub fn vanilla() -> HighwayNodeConfig {
        HighwayNodeConfig {
            highway_enabled: false,
            ..HighwayNodeConfig::default()
        }
    }

    /// Highway enabled with the paper-calibrated control latencies.
    pub fn paper_latencies() -> HighwayNodeConfig {
        HighwayNodeConfig {
            latency: LatencyModel::paper(),
            ..HighwayNodeConfig::default()
        }
    }
}

/// One NFV server: switch + agent + orchestrator (+ highway).
pub struct HighwayNode {
    switch: Arc<VSwitchd>,
    registry: ShmRegistry,
    stats: StatsRegion,
    agent: Arc<ComputeAgent>,
    orchestrator: Orchestrator,
    manager: Option<Arc<HighwayManager>>,
}

impl HighwayNode {
    /// Builds the node (switch not yet started).
    pub fn new(config: HighwayNodeConfig) -> HighwayNode {
        let switch = Arc::new(VSwitchd::new(config.switch));
        let registry = ShmRegistry::new();
        let stats = StatsRegion::new();
        let agent = Arc::new(ComputeAgent::new(registry.clone(), config.latency));
        let orchestrator = Orchestrator::with_agent(
            Arc::clone(&switch),
            registry.clone(),
            stats.clone(),
            Arc::clone(&agent),
        );
        let manager = if config.highway_enabled {
            let manager = HighwayManager::with_stats(Arc::clone(&agent), stats.clone());
            switch.register_observer(Arc::clone(&manager) as Arc<dyn ovs_dp::FlowTableObserver>);
            switch.set_stats_augmenter(Arc::new(HighwayStatsAugmenter::new(stats.clone())));
            // Links deferred because an endpoint VM had not registered yet
            // are re-evaluated the moment it does. Weak: the agent must
            // not keep the manager (and its worker) alive.
            let weak = Arc::downgrade(&manager);
            agent.on_registration(move || {
                if let Some(manager) = weak.upgrade() {
                    manager.refresh();
                }
            });
            Some(manager)
        } else {
            None
        };
        HighwayNode {
            switch,
            registry,
            stats,
            agent,
            orchestrator,
            manager,
        }
    }

    /// The switch daemon.
    pub fn switch(&self) -> &Arc<VSwitchd> {
        &self.switch
    }

    /// The host segment registry.
    pub fn registry(&self) -> &ShmRegistry {
        &self.registry
    }

    /// The shared statistics region.
    pub fn stats(&self) -> &StatsRegion {
        &self.stats
    }

    /// The compute agent.
    pub fn agent(&self) -> &Arc<ComputeAgent> {
        &self.agent
    }

    /// The orchestrator.
    pub fn orchestrator(&self) -> &Orchestrator {
        &self.orchestrator
    }

    /// True when the highway is enabled.
    pub fn highway_enabled(&self) -> bool {
        self.manager.is_some()
    }

    /// Starts the switch threads.
    pub fn start(&self) {
        self.switch.start();
    }

    /// Stops everything (switch threads and highway worker).
    pub fn stop(&self) {
        self.switch.stop();
        if let Some(m) = &self.manager {
            m.shutdown();
        }
    }

    /// Creates a controller connection over an in-process framed byte
    /// stream, attaches the switch end and returns the controller end.
    /// The OF 1.0 handshake is in flight when this returns; the switch
    /// answers it on its housekeeping loop.
    pub fn connect_controller(&self) -> Connection {
        let (conn, link) = framed_link();
        self.switch.attach_controller(link);
        conn
    }

    /// Opens a loopback TCP listener for controllers; every accepted
    /// connection is attached to the switch as its control channel (a new
    /// connection replaces the old link — how a standby controller takes
    /// over after failover). Returns the bound address.
    pub fn listen_controller(&self) -> std::io::Result<std::net::SocketAddr> {
        self.switch.listen_controller()
    }

    /// Re-attaches a controller connection after its transport died (a
    /// controller restart): a fresh in-process stream replaces the dead
    /// one on both sides, the connection re-handshakes and replays any
    /// flow mods a barrier never acknowledged.
    pub fn reconnect_controller(&self, conn: &Connection) {
        let (c_end, s_end) = openflow::loopback();
        self.switch
            .attach_controller(SwitchLink::new(Box::new(s_end)));
        conn.reconnect(Box::new(c_end));
    }

    /// Adds an edge dpdkr port named `label` (a traffic generator, a sink
    /// or a NIC) at the shared ring depth; returns its number and the
    /// outside end of its channel. See [`Orchestrator::add_edge_port`].
    pub fn add_edge_port(&self, label: &str) -> (u32, ChannelEnd) {
        self.orchestrator.add_edge_port(label)
    }

    /// Currently active bypass links `(src, dst)`.
    pub fn active_links(&self) -> Vec<(u32, u32)> {
        self.manager
            .as_ref()
            .map(|m| m.active_links().iter().map(|l| (l.src, l.dst)).collect())
            .unwrap_or_default()
    }

    /// Waits until the control plane is quiescent *and* the highway has
    /// reconciled every detected link. Always true on a vanilla node.
    ///
    /// The control-idle condition matters: a controller's `add_flow` is
    /// asynchronous, so without it this could report "converged" against
    /// the flow table from before a still-queued flow_mod.
    ///
    /// It polls every 1 ms instead of parking on the manager's `Event`:
    /// no manager event signals `Ofproto::control_idle()`, and the poll
    /// paces the benchmark's `bypass_setup`, whose per-cycle vectors and
    /// setup log grow with the cycle rate (a parking version pushed its
    /// `peak_rss_mb` past the bound). It parks once that growth is bounded.
    pub fn wait_highway_converged(&self, timeout: Duration) -> bool {
        let Some(manager) = &self.manager else {
            return true;
        };
        let deadline = std::time::Instant::now() + timeout;
        loop {
            if self.switch.control_idle() && manager.is_converged() {
                return true;
            }
            if std::time::Instant::now() > deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The bypass setup log (empty on a vanilla node).
    pub fn setup_log(&self) -> Vec<SetupRecord> {
        self.manager
            .as_ref()
            .map(|m| m.setup_log())
            .unwrap_or_default()
    }

    /// Highway failures (empty on a vanilla node).
    pub fn highway_failures(&self) -> Vec<String> {
        self.manager
            .as_ref()
            .map(|m| m.failures())
            .unwrap_or_default()
    }

    /// The bypass lifecycle journal (`None` on a vanilla node).
    pub fn journal(&self) -> Option<&Arc<EventJournal>> {
        self.manager.as_ref().map(|m| m.journal())
    }

    /// An `ovs-appctl`-style status report: flow table, ports (with admin
    /// state), active bypass links and highway health. The operator view
    /// the examples print.
    pub fn status_report(&self) -> String {
        let dp = self.switch.datapath();
        let mut out = String::new();
        // Flow counters through the stats path (augmented with bypassed
        // traffic), exactly what `ovs-ofctl dump-flows` would show.
        out.push_str("=== flows (controller view) ===\n");
        let mut entries = self.switch.ofproto().flow_stats_snapshot();
        entries.sort_by(|a, b| b.priority.cmp(&a.priority).then(a.cookie.cmp(&b.cookie)));
        for e in entries {
            out.push_str(&format!(
                " cookie={:#x}, n_packets={}, n_bytes={}, priority={}, actions={:?}\n",
                e.cookie, e.packet_count, e.byte_count, e.priority, e.actions
            ));
        }
        // Raw switch-side port counters (no augmentation) — the view that
        // *reveals* the bypass: ports carried by a highway show zero here
        // while their flow counters above keep counting.
        out.push_str("=== ports (switch-side raw) ===\n");
        out.push_str(&ovs_dp::dump::dump_ports(&dp));
        // The cache hierarchy's view of the same traffic: which tier (EMC,
        // megaflow, classifier) resolved the packets the switch did carry,
        // plus the live megaflow aggregates per PMD (`dpctl dump-flows`).
        out.push_str("=== datapath caches ===\n");
        out.push_str(&ovs_dp::dump::dump_datapath_stats(&dp));
        out.push_str(&ovs_dp::dump::dump_megaflows(&dp));
        out.push_str("=== highway ===\n");
        match &self.manager {
            None => out.push_str("  disabled (vanilla mode)\n"),
            Some(m) => {
                let links = m.snapshot_links();
                if links.is_empty() {
                    out.push_str("  no p-2-p links detected\n");
                }
                for (link, state) in links {
                    out.push_str(&format!(
                        "  link {} -> {} (cookie {:#x}): {state:?}\n",
                        link.src, link.dst, link.cookie
                    ));
                }
                out.push_str(&format!(
                    "  segments={} setups={} failures={} journal_events={}\n",
                    self.registry
                        .live_of_kind(shmem_sim::SegmentKind::Bypass)
                        .len(),
                    m.setup_log().len(),
                    m.failures().len(),
                    m.journal().len(),
                ));
            }
        }
        out
    }

    /// A structured [`telemetry::TelemetrySnapshot`] of the node's
    /// datapath: per-PMD perf blocks, stage/tier latency histograms,
    /// and coverage counters. Serialise with `.to_json()`.
    pub fn telemetry_snapshot(&self) -> telemetry::TelemetrySnapshot {
        self.switch.telemetry_snapshot()
    }

    /// `ovs-appctl`-style introspection against a fresh snapshot; commands
    /// mirror OVS (`pmd-stats-show`, `pmd-perf-show`, `coverage/show`,
    /// `histograms/show`, `telemetry/json`, `telemetry/prometheus`).
    pub fn appctl(&self, command: &str) -> String {
        self.switch.appctl(command)
    }

    /// The node's metrics in Prometheus text exposition format.
    pub fn prometheus_text(&self) -> String {
        telemetry::appctl::prometheus_text(&self.telemetry_snapshot())
    }

    /// The highway manager itself (`None` on a vanilla node).
    pub fn manager(&self) -> Option<&Arc<HighwayManager>> {
        self.manager.as_ref()
    }
}

impl Drop for HighwayNode {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpdk_sim::Mbuf;
    use openflow::PortNo;
    use packet_wire::PacketBuilder;
    use shmem_sim::SegmentKind;
    use std::time::Instant;
    use vm_host::VnfSpec;

    /// Node + a 2-VM chain with edge dpdkr ports; returns edge channel ends.
    fn chain_node(
        highway: bool,
    ) -> (
        HighwayNode,
        ChannelEnd,
        ChannelEnd,
        vm_host::ChainDeployment,
    ) {
        let node = HighwayNode::new(if highway {
            HighwayNodeConfig::default()
        } else {
            HighwayNodeConfig::vanilla()
        });
        let (entry_no, entry_end) = node.add_edge_port("entry");
        let (exit_no, exit_end) = node.add_edge_port("exit");
        let dep = node.orchestrator().deploy_chain(2, entry_no, exit_no, |i| {
            VnfSpec::forwarder(format!("vm{i}"))
        });
        node.start();
        (node, entry_end, exit_end, dep)
    }

    fn pump_until(end: &mut ChannelEnd, timeout: Duration) -> Option<Mbuf> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(m) = end.recv() {
                return Some(m);
            }
            if Instant::now() > deadline {
                return None;
            }
            std::thread::yield_now();
        }
    }

    #[test]
    fn highway_node_bypasses_inner_seams() {
        let (node, mut entry, mut exit, dep) = chain_node(true);
        // All seams are p-2-p: entry→vm0, vm0→vm1, vm1→exit, both ways.
        // Only VM-to-VM seams can be bypassed (edge ports have no VM), so
        // the highway must activate exactly 2 links (one per direction of
        // the middle seam) and log 2+4 failures... no: edge links involve
        // unknown ports and are logged as failures.
        assert!(node.wait_highway_converged(Duration::from_secs(10)));
        let links = node.active_links();
        let mid_fwd = (dep.vm_ports[0].1, dep.vm_ports[1].0);
        let mid_rev = (dep.vm_ports[1].0, dep.vm_ports[0].1);
        assert!(links.contains(&mid_fwd), "forward middle seam bypassed");
        assert!(links.contains(&mid_rev), "reverse middle seam bypassed");
        assert_eq!(node.registry().live_of_kind(SegmentKind::Bypass).len(), 1);

        // Traffic still flows end to end.
        entry
            .send(Mbuf::from_slice(&PacketBuilder::udp_probe(64).build()))
            .unwrap();
        assert!(pump_until(&mut exit, Duration::from_secs(10)).is_some());
        node.stop();
        for vm in &dep.vms {
            vm.shutdown();
        }
    }

    /// What one add → bypass active → delete cycle leaves behind in a node
    /// that runs for days: its `SetupRecord`, and nothing else. The journal
    /// sits at its cap, the statistics region holds a cell only while the
    /// rule that owns it is installed, and both stay there for 1 000 cycles
    /// of distinct cookies.
    #[test]
    fn add_remove_cycles_retain_only_their_setup_record() {
        use crate::events::JOURNAL_CAPACITY;
        use openflow::{Action, FlowMatch};
        const CYCLES: u64 = 1_000;
        let timeout = Duration::from_secs(10);

        let node = HighwayNode::new(HighwayNodeConfig::default());
        let vm_a = node.orchestrator().create_vm(VnfSpec::forwarder("vm-a"), 2);
        let vm_b = node.orchestrator().create_vm(VnfSpec::forwarder("vm-b"), 2);
        let (src, dst) = (vm_a.of_ports()[1] as u16, vm_b.of_ports()[0] as u16);
        node.start();
        let ctrl = node.connect_controller();
        ctrl.handshake(timeout).unwrap();
        // The helper under test elsewhere polls at 1 ms; 2 000 waits of it
        // would be most of this test's run time.
        let converge = || {
            let deadline = Instant::now() + timeout;
            let manager = node.manager().unwrap();
            while !(node.switch().control_idle() && manager.is_converged()) {
                assert!(Instant::now() < deadline, "highway did not converge");
                std::thread::yield_now();
            }
        };

        let fmatch = FlowMatch::in_port(PortNo(src));
        for cycle in 0..CYCLES {
            ctrl.add_flow(
                fmatch,
                100,
                vec![Action::Output(PortNo(dst))],
                0xbe00 + cycle,
            )
            .unwrap();
            ctrl.barrier(timeout).unwrap();
            converge();
            assert_eq!(node.active_links().len(), 1, "cycle {cycle}");
            assert_eq!(
                node.stats().rule_count(),
                1,
                "cycle {cycle}: the live rule's cell"
            );

            ctrl.del_flow_strict(fmatch, 100).unwrap();
            ctrl.barrier(timeout).unwrap();
            converge();
            assert!(node.active_links().is_empty(), "cycle {cycle}");
            assert_eq!(
                node.stats().rule_count(),
                0,
                "cycle {cycle}: cell not retired"
            );
            while ctrl.try_recv().is_some() {} // the FlowRemoved notice
        }

        assert_eq!(node.setup_log().len(), CYCLES as usize);
        assert!(node.highway_failures().is_empty());
        // Six events a cycle went through the journal; it kept its window.
        assert_eq!(node.journal().unwrap().len(), JOURNAL_CAPACITY);
        node.stop();
        vm_a.shutdown();
        vm_b.shutdown();
    }

    /// A rule deleted while its bypass set-up is in flight leaves no
    /// statistics cell behind. The switch retires the cookie's cell at the
    /// delete, the guest's `EnableTx` then creates it again, and the
    /// teardown that follows is what must retire it.
    #[test]
    fn a_rule_deleted_during_its_setup_leaves_no_stats_cell() {
        use crate::events::BypassEventKind;
        use openflow::{Action, FlowMatch};
        let timeout = Duration::from_secs(10);
        let node = HighwayNode::new(HighwayNodeConfig::paper_latencies());
        let vm_a = node.orchestrator().create_vm(VnfSpec::forwarder("vm-a"), 2);
        let vm_b = node.orchestrator().create_vm(VnfSpec::forwarder("vm-b"), 2);
        let (src, dst) = (vm_a.of_ports()[1], vm_b.of_ports()[0]);
        node.start();
        let ctrl = node.connect_controller();
        ctrl.handshake(timeout).unwrap();

        let fmatch = FlowMatch::in_port(PortNo(src as u16));
        let out = vec![Action::Output(PortNo(dst as u16))];
        ctrl.add_flow(fmatch, 100, out, 0xd00d).unwrap();
        let journal = node.journal().unwrap();
        assert!(journal.wait_for(BypassEventKind::SetupStarted, src, dst, timeout));
        ctrl.del_flow_strict(fmatch, 100).unwrap();
        ctrl.barrier(timeout).unwrap();
        assert!(node.wait_highway_converged(timeout));

        assert_eq!(journal.of_kind(BypassEventKind::Active).len(), 1);
        assert!(node.active_links().is_empty());
        assert_eq!(node.stats().rule_count(), 0, "the deleted rule's cell");
        node.stop();
        vm_a.shutdown();
        vm_b.shutdown();
    }

    #[test]
    fn status_report_reflects_the_node() {
        let (node, _entry, _exit, dep) = chain_node(true);
        assert!(node.wait_highway_converged(Duration::from_secs(10)));
        let report = node.status_report();
        assert!(report.contains("=== flows (controller view) ==="));
        assert!(report.contains("=== highway ==="));
        assert!(report.contains(": Active"));
        assert!(report.contains("segments=1"));
        // Down a port and check the flag appears.
        node.switch()
            .set_port_down(PortNo(dep.vm_ports[0].1 as u16), true);
        let report = node.status_report();
        assert!(report.contains("[PORT_DOWN]"));
        node.stop();
        for vm in &dep.vms {
            vm.shutdown();
        }

        let vanilla = HighwayNode::new(HighwayNodeConfig::vanilla());
        assert!(vanilla.status_report().contains("disabled (vanilla mode)"));
    }

    #[test]
    fn vanilla_node_never_creates_bypasses() {
        let (node, mut entry, mut exit, dep) = chain_node(false);
        entry
            .send(Mbuf::from_slice(&PacketBuilder::udp_probe(64).build()))
            .unwrap();
        assert!(pump_until(&mut exit, Duration::from_secs(10)).is_some());
        assert!(node.active_links().is_empty());
        assert_eq!(node.registry().live_of_kind(SegmentKind::Bypass).len(), 0);
        assert!(node.setup_log().is_empty());
        node.stop();
        for vm in &dep.vms {
            vm.shutdown();
        }
    }
}
