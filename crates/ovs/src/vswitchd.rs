//! The switch daemon: assembles the datapath, the OpenFlow agent and the
//! PMD stepper(s) into a runnable vSwitch.

use crate::ofproto::{FlowTableObserver, Ofproto, StatsAugmenter};
use crate::pmd::{Datapath, PmdThread};
use crate::port::OvsPort;
use dpdk_sim::lcore::{self, Placement};
use openflow::messages::FlowMod;
use openflow::{PortNo, SwitchLink};
use shmem_sim::ChannelEnd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often `ovs-main` sweeps rule timeouts — the one timer that bounds
/// how long it parks.
const SWEEP_INTERVAL: Duration = Duration::from_millis(100);

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct VSwitchdConfig {
    /// Datapath id reported in features replies.
    pub datapath_id: u64,
    /// Punt table misses to the controller (OF 1.0 default) or drop them.
    pub miss_to_controller: bool,
    /// PMD steppers polling the ports. One (the default) mirrors a
    /// single-core OVS-DPDK deployment; the paper's testbed dedicates
    /// several cores. Ports are partitioned round-robin across PMDs
    /// (OVS's `roundrobin` rxq assignment); each PMD runs every packet it
    /// polls to completion against its own caches. Each PMD is placed on
    /// an lcore worker ([`dpdk_sim::lcore`]): on as many CPUs as PMDs, a
    /// worker each; on fewer, they share.
    pub pmd_threads: usize,
    /// Collect cycle-denominated telemetry (stage/tier latency histograms,
    /// busy/idle cycle accounting). Counters tick regardless; this only
    /// gates the cycle reads on the hot path.
    pub telemetry: bool,
}

impl Default for VSwitchdConfig {
    fn default() -> Self {
        VSwitchdConfig {
            datapath_id: 0x00_c0ffee,
            miss_to_controller: false,
            // `HIGHWAY_PMDS` overrides the default PMD count so the whole
            // test suite can be re-run under a sharded datapath (CI does
            // this with HIGHWAY_PMDS=4).
            pmd_threads: std::env::var("HIGHWAY_PMDS")
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&n| n >= 1)
                .unwrap_or(1),
            telemetry: true,
        }
    }
}

/// A running (or stopped) vSwitch instance.
pub struct VSwitchd {
    dp: Arc<Datapath>,
    ofproto: Arc<Ofproto>,
    stop: Arc<AtomicBool>,
    /// `ovs-main`, the one thread `start` spawns.
    threads: parking_lot::Mutex<Vec<JoinHandle<()>>>,
    /// The PMDs placed on lcore workers by `start`.
    pmds: parking_lot::Mutex<Vec<Placement>>,
    /// Control-port acceptor threads (see `listen_controller`) with the
    /// address each blocks in `accept` on, joined on `stop` — kept apart
    /// from `threads` so a listener can be opened before or after `start`.
    listeners: parking_lot::Mutex<Vec<(std::net::SocketAddr, JoinHandle<()>)>>,
    pmd_threads: usize,
}

impl VSwitchd {
    /// Builds a stopped switch with no ports.
    pub fn new(config: VSwitchdConfig) -> VSwitchd {
        let dp = Datapath::new(config.miss_to_controller);
        dp.set_telemetry_enabled(config.telemetry);
        let ofproto = Arc::new(Ofproto::new(Arc::clone(&dp), config.datapath_id));
        VSwitchd {
            dp,
            ofproto,
            stop: Arc::new(AtomicBool::new(false)),
            threads: parking_lot::Mutex::new(Vec::new()),
            pmds: parking_lot::Mutex::new(Vec::new()),
            listeners: parking_lot::Mutex::new(Vec::new()),
            pmd_threads: config.pmd_threads.max(1),
        }
    }

    /// The shared datapath (ports + table).
    pub fn datapath(&self) -> Arc<Datapath> {
        Arc::clone(&self.dp)
    }

    /// The OpenFlow agent.
    pub fn ofproto(&self) -> Arc<Ofproto> {
        Arc::clone(&self.ofproto)
    }

    /// A structured snapshot of every telemetry surface: per-PMD perf
    /// blocks, datapath totals and coverage counters.
    pub fn telemetry_snapshot(&self) -> telemetry::TelemetrySnapshot {
        self.dp.telemetry_snapshot()
    }

    /// `ovs-appctl`-style introspection: renders `pmd-stats-show`,
    /// `pmd-perf-show`, `coverage/show`, `histograms/show`,
    /// `telemetry/json` or `telemetry/prometheus` from a fresh snapshot.
    pub fn appctl(&self, command: &str) -> String {
        telemetry::appctl::dispatch(&self.telemetry_snapshot(), command)
    }

    /// Adds a dpdkr port backed by the switch side of a shared channel; the
    /// peer is a VM's PMD, or a generator or sink at a NIC's wire end.
    /// Announces the port to the controller (`PortStatus` Add).
    pub fn add_dpdkr_port(
        &self,
        no: PortNo,
        name: impl Into<String>,
        end: ChannelEnd,
    ) -> Arc<OvsPort> {
        let port = self.dp.add_port(OvsPort::dpdkr(no, name, end));
        self.ofproto
            .announce_port(no, &port.name, openflow::PortStatusReason::Add);
        port
    }

    /// Removes a port, announcing the deletion.
    pub fn remove_port(&self, no: PortNo) -> Option<Arc<OvsPort>> {
        let removed = self.dp.remove_port(no);
        if let Some(port) = &removed {
            self.ofproto
                .announce_port(no, &port.name, openflow::PortStatusReason::Delete);
        }
        removed
    }

    /// Administratively enables/disables a port (the `port_mod` path used
    /// by tests and orchestrators that bypass the wire).
    pub fn set_port_down(&self, no: PortNo, down: bool) {
        self.ofproto
            .apply_port_mod(&openflow::PortMod { port_no: no, down });
    }

    /// Attaches the controller link.
    pub fn attach_controller(&self, link: SwitchLink) {
        self.ofproto.attach_controller(link);
    }

    /// Opens a TCP control port on an ephemeral loopback address and
    /// returns it. An acceptor thread attaches each accepted connection
    /// as the controller link — a newly dialling controller (initial
    /// connect, restart, or a standby taking over) simply replaces the
    /// previous link, exactly like `attach_controller`.
    pub fn listen_controller(&self) -> std::io::Result<std::net::SocketAddr> {
        let (listener, addr) = openflow::loopback_listener()?;
        let ofproto = Arc::clone(&self.ofproto);
        let stop = Arc::clone(&self.stop);
        let acceptor = std::thread::Builder::new()
            .name(format!("ovs-of-listen-{}", addr.port()))
            .spawn(move || {
                // Blocks in accept(2); `stop` ends the block by dialling in.
                while let Ok((stream, _peer)) = listener.accept() {
                    if stop.load(Ordering::Acquire) {
                        return;
                    }
                    if let Ok(t) = openflow::TcpTransport::from_stream(stream) {
                        ofproto.attach_controller(SwitchLink::new(Box::new(t)));
                    }
                }
            })
            .expect("spawn control-port acceptor");
        self.listeners.lock().push((addr, acceptor));
        Ok(addr)
    }

    /// Registers a flow-table observer (the p-2-p detector hook).
    pub fn register_observer(&self, obs: Arc<dyn FlowTableObserver>) {
        self.ofproto.register_observer(obs);
    }

    /// Installs the statistics augmenter (the bypass stats hook).
    pub fn set_stats_augmenter(&self, aug: Arc<dyn StatsAugmenter>) {
        self.ofproto.set_stats_augmenter(aug);
    }

    /// Applies a flow_mod without a controller (orchestrator/test path);
    /// observers and FlowRemoved generation behave exactly as via the wire.
    pub fn inject_flow_mod(&self, fm: &FlowMod) {
        self.ofproto.apply_flow_mod(fm);
    }

    /// True when no controller message is queued or mid-application — all
    /// control traffic sent before this call has reached the flow table.
    pub fn control_idle(&self) -> bool {
        self.ofproto.control_idle()
    }

    /// Places the PMD(s) on lcore workers of the calling thread's CPUs
    /// and starts the control thread (`ovs-main`).
    pub fn start(&self) {
        let mut threads = self.threads.lock();
        assert!(threads.is_empty(), "vswitchd already started");
        self.stop.store(false, Ordering::Release);

        // Every PMD (and so its perf block) is registered with the
        // datapath before any is placed: a snapshot taken once `start`
        // returns shows all of them, whether or not they own a port.
        let pmds: Vec<PmdThread> = (0..self.pmd_threads)
            .map(|i| {
                PmdThread::with_share(
                    Arc::clone(&self.dp),
                    Arc::clone(&self.stop),
                    i,
                    self.pmd_threads,
                )
            })
            .collect();
        self.pmds.lock().extend(
            (pmds.into_iter().enumerate())
                .map(|(i, pmd)| lcore::place(format!("ovs-pmd-{i}"), Box::new(pmd))),
        );

        let ofproto = Arc::clone(&self.ofproto);
        let stop = Arc::clone(&self.stop);
        let wake = Arc::clone(&self.dp.control_wake);
        threads.push(
            std::thread::Builder::new()
                .name("ovs-main".into())
                .spawn(move || {
                    let mut next_sweep = Instant::now() + SWEEP_INTERVAL;
                    loop {
                        // Registered before looking: controller bytes, a
                        // replaced link, a punt or `stop` that land after
                        // this end the park below at once.
                        let waiter = wake.prepare();
                        if stop.load(Ordering::Acquire) {
                            return;
                        }
                        let (_handled, backlog) = ofproto.poll_round();
                        if Instant::now() >= next_sweep {
                            ofproto.sweep_timeouts();
                            next_sweep = Instant::now() + SWEEP_INTERVAL;
                        }
                        // Packet-ins the round left queued were announced
                        // before `prepare`: no notify would end a park
                        // taken with them waiting, only the sweep timer.
                        if !backlog {
                            waiter.park_until(next_sweep);
                        }
                    }
                })
                .expect("spawn main"),
        );
    }

    /// Stops all threads and returns once every PMD has been dropped
    /// (idempotent).
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Release);
        self.dp.control_wake.notify();
        for pmd in self.pmds.lock().drain(..) {
            pmd.join();
        }
        for t in self.threads.lock().drain(..) {
            let _ = t.join();
        }
        for (addr, t) in self.listeners.lock().drain(..) {
            // The acceptor blocks in accept(2): dial it so it looks at
            // `stop`. A dial that fails against a live acceptor (out of
            // descriptors, say) leaves it blocked; better detached than a
            // `stop` that never returns.
            if std::net::TcpStream::connect(addr).is_ok() || t.is_finished() {
                let _ = t.join();
            }
        }
    }

    /// True while the daemon runs.
    pub fn is_running(&self) -> bool {
        !self.threads.lock().is_empty()
    }
}

impl Drop for VSwitchd {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpdk_sim::Mbuf;
    use openflow::{framed_link, Action, FlowMatch};
    use packet_wire::PacketBuilder;
    use shmem_sim::channel;

    #[test]
    fn end_to_end_via_controller_wire() {
        let sw = VSwitchd::new(VSwitchdConfig::default());
        let (sw1, mut vm1) = channel("dpdkr1", 64);
        let (sw2, mut vm2) = channel("dpdkr2", 64);
        sw.add_dpdkr_port(PortNo(1), "dpdkr1", sw1);
        sw.add_dpdkr_port(PortNo(2), "dpdkr2", sw2);

        let (ctrl, link) = framed_link();
        sw.attach_controller(link);
        sw.start();

        ctrl.add_flow(
            FlowMatch::in_port(PortNo(1)),
            10,
            vec![Action::Output(PortNo(2))],
            0xc0de,
        )
        .unwrap();
        ctrl.barrier(Duration::from_secs(2)).unwrap();

        let pkt = PacketBuilder::udp_probe(64).build();
        vm1.send(dpdk_sim::Mbuf::from_slice(&pkt)).unwrap();

        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let got = loop {
            if let Some(m) = vm2.recv() {
                break Some(m);
            }
            if std::time::Instant::now() > deadline {
                break None;
            }
            std::thread::yield_now();
        };
        assert_eq!(got.expect("packet crossed the switch").len(), 64);

        // Flow stats over the wire reflect the hit.
        let stats = ctrl.flow_stats(Duration::from_secs(2)).unwrap();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].cookie, 0xc0de);
        assert_eq!(stats[0].packet_count, 1);
        assert_eq!(stats[0].byte_count, 64);

        // Port stats too.
        let pstats = ctrl.port_stats(Duration::from_secs(2)).unwrap();
        let p1 = pstats.iter().find(|p| p.port_no == 1).unwrap();
        let p2 = pstats.iter().find(|p| p.port_no == 2).unwrap();
        assert_eq!(p1.rx_packets, 1);
        assert_eq!(p2.tx_packets, 1);

        sw.stop();
    }

    #[test]
    fn multi_pmd_deployment_forwards_across_thread_shares() {
        // 4 ports, 2 PMDs: ports 1,3 belong to PMD 0 and 2,4 to
        // PMD 1 (round-robin by position), so both rules below cross PMD
        // ownership boundaries — delivery must be thread-safe.
        let sw = VSwitchd::new(VSwitchdConfig {
            pmd_threads: 2,
            ..VSwitchdConfig::default()
        });
        let (sw1, mut vm1) = channel("dpdkr1", 256);
        let (sw2, mut vm2) = channel("dpdkr2", 256);
        let (sw3, mut vm3) = channel("dpdkr3", 256);
        let (sw4, mut vm4) = channel("dpdkr4", 256);
        sw.add_dpdkr_port(PortNo(1), "dpdkr1", sw1);
        sw.add_dpdkr_port(PortNo(2), "dpdkr2", sw2);
        sw.add_dpdkr_port(PortNo(3), "dpdkr3", sw3);
        sw.add_dpdkr_port(PortNo(4), "dpdkr4", sw4);
        sw.inject_flow_mod(&FlowMod::add(
            FlowMatch::in_port(PortNo(1)),
            10,
            vec![Action::Output(PortNo(2))],
        ));
        sw.inject_flow_mod(&FlowMod::add(
            FlowMatch::in_port(PortNo(4)),
            10,
            vec![Action::Output(PortNo(3))],
        ));
        sw.start();

        const N: u64 = 200;
        for i in 0..N {
            let mut m = Mbuf::from_slice(&PacketBuilder::udp_probe(64).build());
            m.set_udata(i);
            while vm1.send(m).is_err() {
                m = Mbuf::from_slice(&PacketBuilder::udp_probe(64).build());
                m.set_udata(i);
                std::thread::yield_now();
            }
            let mut m = Mbuf::from_slice(&PacketBuilder::udp_probe(64).build());
            m.set_udata(i);
            while vm4.send(m).is_err() {
                m = Mbuf::from_slice(&PacketBuilder::udp_probe(64).build());
                m.set_udata(i);
                std::thread::yield_now();
            }
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let (mut got2, mut got3) = (0u64, 0u64);
        while (got2 < N || got3 < N) && std::time::Instant::now() < deadline {
            if vm2.recv().is_some() {
                got2 += 1;
            }
            if vm3.recv().is_some() {
                got3 += 1;
            }
            std::thread::yield_now();
        }
        assert_eq!((got2, got3), (N, N), "both PMD shares forwarded everything");
        sw.stop();
    }

    /// Four PMDs over four in-ports: round-robin ownership gives each PMD
    /// one in-port, and it runs that port's 64 flows to completion. Every
    /// packet is delivered, each flow in order, every PMD carries traffic
    /// and no packet passes between PMDs.
    #[test]
    fn four_pmds_each_own_an_in_port_and_deliver_every_flow_in_order() {
        const PORTS: u16 = 4;
        const FLOWS: u64 = 64;
        const PER_PORT: u64 = 256;
        let sw = VSwitchd::new(VSwitchdConfig {
            pmd_threads: 4,
            ..VSwitchdConfig::default()
        });
        // In-ports 1..=4 and out-ports 11..=14: by position, PMD i polls
        // in-port i + 1 and out-port i + 11.
        let (mut ins, mut outs) = (Vec::new(), Vec::new());
        for k in 1..=PORTS {
            let (sw_in, vm_in) = channel(format!("in{k}"), 512);
            let (sw_out, vm_out) = channel(format!("out{k}"), 512);
            sw.add_dpdkr_port(PortNo(k), format!("in{k}"), sw_in);
            sw.add_dpdkr_port(PortNo(10 + k), format!("out{k}"), sw_out);
            sw.inject_flow_mod(&FlowMod::add(
                FlowMatch::in_port(PortNo(k)),
                10,
                vec![Action::Output(PortNo(10 + k))],
            ));
            ins.push(vm_in);
            outs.push(vm_out);
        }
        sw.start();

        for i in 0..PER_PORT {
            for vm in &mut ins {
                let frame = PacketBuilder::udp_probe(64)
                    .ports(1000 + (i % FLOWS) as u16, 80)
                    .build();
                let mut m = Mbuf::from_slice(&frame);
                m.set_udata(i);
                assert!(vm.send(m).is_ok(), "in-port ring has room");
            }
        }
        let total = u64::from(PORTS) * PER_PORT;
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let mut got = 0u64;
        let mut last_per_flow = std::collections::BTreeMap::new();
        while got < total {
            assert!(
                std::time::Instant::now() < deadline,
                "delivered {got}/{total}"
            );
            let mut idle = true;
            for (port, vm) in outs.iter_mut().enumerate() {
                while let Some(m) = vm.recv() {
                    idle = false;
                    // Per-flow order: udata is monotonic within each flow.
                    let flow = (port, m.udata() % FLOWS);
                    if let Some(prev) = last_per_flow.insert(flow, m.udata()) {
                        assert!(prev < m.udata(), "flow {flow:?} reordered");
                    }
                    got += 1;
                }
            }
            if idle {
                std::thread::yield_now();
            }
        }
        let snap = sw.telemetry_snapshot();
        sw.stop();

        assert_eq!(last_per_flow.len(), usize::from(PORTS) * FLOWS as usize);
        assert_eq!(snap.pmds.len(), 4);
        for p in &snap.pmds {
            assert!(p.rx_packets > 0, "pmd {} polled nothing", p.pmd);
            assert_eq!(p.fanout_sent, 0, "pmd {} handed packets off", p.pmd);
        }
        assert_eq!(sw.datapath().fanout_drops.load(Ordering::Relaxed), 0);
        let s = sw.datapath().cache_stats();
        assert_eq!((s.lookups, s.matched), (total, total));
    }

    #[test]
    fn packet_out_reaches_port() {
        let sw = VSwitchd::new(VSwitchdConfig::default());
        let (sw1, mut vm1) = channel("dpdkr1", 8);
        sw.add_dpdkr_port(PortNo(1), "dpdkr1", sw1);
        let (ctrl, link) = framed_link();
        sw.attach_controller(link);
        sw.start();

        ctrl.packet_out(
            PacketBuilder::udp_probe(64).build(),
            vec![Action::Output(PortNo(1))],
        )
        .unwrap();
        ctrl.barrier(Duration::from_secs(2)).unwrap();

        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let mut got = false;
        while std::time::Instant::now() < deadline {
            if vm1.recv().is_some() {
                got = true;
                break;
            }
            std::thread::yield_now();
        }
        assert!(got, "packet-out delivered to dpdkr port");
        sw.stop();
    }

    #[test]
    fn an_oversize_packet_out_is_refused_and_the_switch_runs_on() {
        let sw = VSwitchd::new(VSwitchdConfig::default());
        let (sw1, mut vm1) = channel("dpdkr1", 8);
        sw.add_dpdkr_port(PortNo(1), "dpdkr1", sw1);
        let (ctrl, link) = framed_link();
        sw.attach_controller(link);
        sw.start();

        let out = vec![Action::Output(PortNo(1))];
        let oversize = vec![0xee; dpdk_sim::mbuf::MBUF_MAX_LEN + 1];
        let xid = ctrl.packet_out(oversize, out.clone()).unwrap();
        match ctrl.wait_reply(xid, Duration::from_secs(5)).unwrap() {
            openflow::OfpMessage::Error { err_type, code } => {
                assert_eq!((err_type, code), (1, 6), "OFPET_BAD_REQUEST/OFPBRC_BAD_LEN")
            }
            other => panic!("unexpected {other:?}"),
        }
        ctrl.packet_out(PacketBuilder::udp_probe(64).build(), out)
            .unwrap();
        ctrl.barrier(Duration::from_secs(2)).unwrap();

        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let got = loop {
            if let Some(m) = vm1.recv() {
                break m;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "the 64-byte packet-out never arrived"
            );
            std::thread::yield_now();
        };
        assert_eq!(got.len(), 64, "the oversize data was not sent");
        assert!(vm1.recv().is_none());
        sw.stop();
    }

    #[test]
    fn echo_and_features() {
        let sw = VSwitchd::new(VSwitchdConfig::default());
        let (sw1, _vm1) = channel("dpdkr1", 8);
        sw.add_dpdkr_port(PortNo(1), "dpdkr1", sw1);
        let (ctrl, link) = framed_link();
        sw.attach_controller(link);
        sw.start();

        let xid = ctrl
            .send(&openflow::OfpMessage::EchoRequest(vec![9, 9]))
            .unwrap();
        match ctrl.wait_reply(xid, Duration::from_secs(2)).unwrap() {
            openflow::OfpMessage::EchoReply(d) => assert_eq!(d, vec![9, 9]),
            other => panic!("unexpected {other:?}"),
        }

        let xid = ctrl.send(&openflow::OfpMessage::FeaturesRequest).unwrap();
        match ctrl.wait_reply(xid, Duration::from_secs(2)).unwrap() {
            openflow::OfpMessage::FeaturesReply { datapath_id, ports } => {
                assert_eq!(datapath_id, 0x00_c0ffee);
                assert_eq!(ports, vec![1]);
            }
            other => panic!("unexpected {other:?}"),
        }
        sw.stop();
    }

    #[test]
    fn port_mod_disables_forwarding_and_announces() {
        let sw = VSwitchd::new(VSwitchdConfig::default());
        let (sw1, mut vm1) = channel("dpdkr1", 64);
        let (sw2, mut vm2) = channel("dpdkr2", 64);
        let (ctrl, link) = framed_link();
        sw.attach_controller(link);
        sw.add_dpdkr_port(PortNo(1), "dpdkr1", sw1);
        sw.add_dpdkr_port(PortNo(2), "dpdkr2", sw2);
        sw.inject_flow_mod(&FlowMod::add(
            FlowMatch::in_port(PortNo(1)),
            10,
            vec![Action::Output(PortNo(2))],
        ));
        sw.start();

        // Port-status Adds were announced for both ports.
        let wait_status = |n: usize| {
            let deadline = std::time::Instant::now() + Duration::from_secs(2);
            let mut seen = Vec::new();
            while seen.len() < n && std::time::Instant::now() < deadline {
                seen.extend(ctrl.drain_port_status());
                std::thread::yield_now();
            }
            seen
        };
        let added = wait_status(2);
        assert_eq!(added.len(), 2);
        assert!(added
            .iter()
            .all(|s| s.reason == openflow::PortStatusReason::Add && !s.down));

        // Bring the egress port down over the wire.
        ctrl.set_port_down(PortNo(2), true).unwrap();
        ctrl.barrier(Duration::from_secs(2)).unwrap();
        let modified = wait_status(1);
        assert_eq!(modified.len(), 1);
        assert_eq!(modified[0].port_no, 2);
        assert!(modified[0].down);

        // Traffic to the down port is dropped (counted), not delivered.
        vm1.send(dpdk_sim::Mbuf::from_slice(
            &PacketBuilder::udp_probe(64).build(),
        ))
        .unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while sw.datapath().port(PortNo(2)).unwrap().stats().odropped == 0
            && std::time::Instant::now() < deadline
        {
            std::thread::yield_now();
        }
        assert_eq!(sw.datapath().port(PortNo(2)).unwrap().stats().odropped, 1);
        assert!(vm2.recv().is_none());

        // Bring it back up: traffic flows again.
        ctrl.set_port_down(PortNo(2), false).unwrap();
        ctrl.barrier(Duration::from_secs(2)).unwrap();
        vm1.send(dpdk_sim::Mbuf::from_slice(
            &PacketBuilder::udp_probe(64).build(),
        ))
        .unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let mut got = false;
        while std::time::Instant::now() < deadline {
            if vm2.recv().is_some() {
                got = true;
                break;
            }
            std::thread::yield_now();
        }
        assert!(got, "traffic resumes after port re-enable");
        sw.stop();
    }

    #[test]
    fn aggregate_table_desc_stats_over_the_wire() {
        let sw = VSwitchd::new(VSwitchdConfig::default());
        let (sw1, mut vm1) = channel("dpdkr1", 64);
        let (sw2, _vm2) = channel("dpdkr2", 64);
        sw.add_dpdkr_port(PortNo(1), "dpdkr1", sw1);
        sw.add_dpdkr_port(PortNo(2), "dpdkr2", sw2);
        let (ctrl, link) = framed_link();
        sw.attach_controller(link);
        sw.start();

        ctrl.add_flow(
            FlowMatch::in_port(PortNo(1)),
            10,
            vec![Action::Output(PortNo(2))],
            1,
        )
        .unwrap();
        ctrl.add_flow(
            FlowMatch::in_port(PortNo(2)),
            10,
            vec![Action::Output(PortNo(1))],
            2,
        )
        .unwrap();
        ctrl.barrier(Duration::from_secs(2)).unwrap();

        vm1.send(dpdk_sim::Mbuf::from_slice(
            &PacketBuilder::udp_probe(64).build(),
        ))
        .unwrap();
        // Wait until the datapath processed it.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while std::time::Instant::now() < deadline {
            let agg = ctrl
                .aggregate_stats(FlowMatch::any(), Duration::from_secs(2))
                .unwrap();
            if agg.packet_count == 1 {
                break;
            }
            std::thread::yield_now();
        }

        let agg = ctrl
            .aggregate_stats(FlowMatch::any(), Duration::from_secs(2))
            .unwrap();
        assert_eq!(agg.flow_count, 2);
        assert_eq!(agg.packet_count, 1);
        assert_eq!(agg.byte_count, 64);

        // Filtered aggregate: only the port-1 rule.
        let agg1 = ctrl
            .aggregate_stats(FlowMatch::in_port(PortNo(1)), Duration::from_secs(2))
            .unwrap();
        assert_eq!(agg1.flow_count, 1);
        assert_eq!(agg1.packet_count, 1);

        let tables = ctrl.table_stats(Duration::from_secs(2)).unwrap();
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].active_count, 2);
        assert_eq!(tables[0].lookup_count, 1);
        assert_eq!(tables[0].matched_count, 1);

        let desc = ctrl.desc_stats(Duration::from_secs(2)).unwrap();
        assert!(desc.manufacturer.contains("vnf-highway"));
        sw.stop();
    }

    /// A table far past what one OF 1.0 frame can describe (~680 rules)
    /// comes back whole from one `flow_stats` call: the switch splits the
    /// reply into `OFPSF_REPLY_MORE` parts, the connection joins them.
    #[test]
    fn flow_stats_reads_back_4096_rules_in_one_call() {
        const RULES: u64 = 4096;
        let sw = VSwitchd::new(VSwitchdConfig::default());
        let (ctrl, link) = framed_link();
        sw.attach_controller(link);
        sw.start();
        let mods: Vec<FlowMod> = (0..RULES)
            .map(|i| {
                let mut m = FlowMatch::in_port(PortNo(1 + (i % 16) as u16));
                m.l4_dst = Some((i / 16) as u16);
                FlowMod::add(m, 100, vec![Action::Output(PortNo(100))]).with_cookie(i + 1)
            })
            .collect();
        for batch in mods.chunks(64) {
            ctrl.send_flow_mods(batch).unwrap();
        }
        ctrl.barrier(Duration::from_secs(60)).unwrap();

        let stats = ctrl.flow_stats(Duration::from_secs(10)).unwrap();
        let mut cookies: Vec<u64> = stats.iter().map(|e| e.cookie).collect();
        cookies.sort_unstable();
        assert_eq!(cookies, (1..=RULES).collect::<Vec<u64>>());
        // Nothing of the series is left behind for the next request.
        assert!(ctrl.try_recv().is_none());
        ctrl.barrier(Duration::from_secs(2)).unwrap();
        sw.stop();
    }

    /// A table miss punted by a PMD reaches a learning-switch controller
    /// because the punt wakes `ovs-main`, not because its sweep timer
    /// happened to expire: the median of many trials sits far below the
    /// timer's period (timer-paced delivery would centre on half of it).
    #[test]
    fn punted_packet_in_reaches_the_controller_without_a_timer() {
        use openflow::{FabricRuntime, LearningSwitch};
        use packet_wire::MacAddr;
        let sw = VSwitchd::new(VSwitchdConfig {
            miss_to_controller: true,
            ..VSwitchdConfig::default()
        });
        let (sw1, mut vm1) = channel("dpdkr1", 64);
        sw.add_dpdkr_port(PortNo(1), "dpdkr1", sw1);
        let (ctrl, link) = framed_link();
        sw.attach_controller(link);
        sw.start();
        let mut rt = FabricRuntime::new(LearningSwitch::new());
        rt.add_switch(ctrl);
        rt.run_until_ready(Duration::from_secs(5)).unwrap();
        let dpid = VSwitchdConfig::default().datapath_id;

        let mut waits = Vec::new();
        for host in 1..=21u8 {
            let src = MacAddr::local(host);
            let frame = PacketBuilder::udp_probe(64)
                .eth(src, MacAddr::local(200))
                .build();
            let sent = Instant::now();
            vm1.send(Mbuf::from_slice(&frame)).unwrap();
            let learned = |rt: &FabricRuntime<LearningSwitch>| {
                rt.app()
                    .known_hosts(dpid)
                    .is_some_and(|t| t.contains_key(&src))
            };
            assert!(
                rt.run_until(learned, sent + Duration::from_secs(5)),
                "packet-in lost"
            );
            waits.push(sent.elapsed());
            while vm1.recv().is_some() {} // the flood comes back out of port 1
        }
        waits.sort_unstable();
        let median = waits[waits.len() / 2];
        assert!(
            median < SWEEP_INTERVAL / 5,
            "median packet-in wait {median:?}: ovs-main is waking on its timer, not on the punt"
        );
        sw.stop();
    }

    /// A burst of punts larger than one `poll` batch is forwarded round
    /// after round, not one batch per sweep tick: the misses are all
    /// queued before `ovs-main` first looks, so no punt notification is
    /// left to end a park taken with packet-ins still queued.
    #[test]
    fn punt_burst_past_one_poll_batch_drains_without_the_timer() {
        const BURST: usize = 200;
        let sw = VSwitchd::new(VSwitchdConfig {
            miss_to_controller: true,
            ..VSwitchdConfig::default()
        });
        let (sw1, mut vm1) = channel("dpdkr1", 256);
        sw.add_dpdkr_port(PortNo(1), "dpdkr1", sw1);
        let (ctrl, link) = framed_link();
        sw.attach_controller(link);
        for _ in 0..BURST {
            vm1.send(Mbuf::from_slice(&PacketBuilder::udp_probe(64).build()))
                .unwrap();
        }
        while sw.datapath().cache_stats().misses < BURST as u64 {
            crate::pmd::pump_once(&sw.datapath(), None);
        }

        let started = Instant::now();
        sw.start();
        let mut packet_ins = 0;
        while packet_ins < BURST {
            assert!(
                started.elapsed() < Duration::from_secs(5),
                "packet-ins lost"
            );
            match ctrl.try_recv() {
                Some(Ok((openflow::OfpMessage::PacketIn(_), _))) => packet_ins += 1,
                Some(_) => {}
                None => std::thread::yield_now(),
            }
        }
        let took = started.elapsed();
        assert!(
            took < SWEEP_INTERVAL / 2,
            "{BURST} queued packet-ins took {took:?}: drained one batch per sweep tick"
        );
        sw.stop();
    }

    /// `stop` wakes a parked `ovs-main` (and a blocked control-port
    /// acceptor) itself; it does not wait for the sweep timer to do it.
    #[test]
    fn stop_returns_promptly_while_ovs_main_is_parked() {
        let mut stops = Vec::new();
        for _ in 0..9 {
            let sw = VSwitchd::new(VSwitchdConfig::default());
            sw.listen_controller().unwrap();
            sw.start();
            // Long enough for ovs-main to park, short against its timer.
            std::thread::sleep(Duration::from_millis(5));
            let t = Instant::now();
            sw.stop();
            stops.push(t.elapsed());
            assert!(!sw.is_running());
        }
        stops.sort_unstable();
        let median = stops[stops.len() / 2];
        assert!(
            median < SWEEP_INTERVAL / 4,
            "median stop {median:?}: a parked thread was left to its timer"
        );
    }

    #[test]
    fn observers_fire_on_flow_mods() {
        use std::sync::atomic::AtomicUsize;
        struct Counter(AtomicUsize);
        impl FlowTableObserver for Counter {
            fn table_changed(&self, rules: &[crate::ofproto::RuleSnapshot]) {
                self.0.store(rules.len(), Ordering::SeqCst);
            }
        }
        let sw = VSwitchd::new(VSwitchdConfig::default());
        let counter = Arc::new(Counter(AtomicUsize::new(usize::MAX)));
        sw.register_observer(counter.clone());
        sw.inject_flow_mod(&FlowMod::add(
            FlowMatch::in_port(PortNo(1)),
            1,
            vec![Action::Output(PortNo(2))],
        ));
        assert_eq!(counter.0.load(Ordering::SeqCst), 1);
        sw.inject_flow_mod(&FlowMod::delete(FlowMatch::any()));
        assert_eq!(counter.0.load(Ordering::SeqCst), 0);
    }
}
