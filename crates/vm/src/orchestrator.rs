//! The orchestrator: deploys service graphs onto one server.
//!
//! Mirrors Figure 1(b) of the paper: it receives a graph of VNFs, creates a
//! VM per VNF with dpdkr ports on the vSwitch, launches the guest
//! applications, and issues the traffic-steering flow_mods. Chains — the
//! evaluation workload — get a dedicated helper.

use crate::agent::ComputeAgent;
use crate::vm::Vm;
use openflow::messages::FlowMod;
use openflow::{Action, FlowMatch, PortNo};
use ovs_dp::VSwitchd;
use shmem_sim::{ChannelEnd, SegmentKind, ShmRegistry, StatsRegion, DEFAULT_RING_DEPTH};
use std::sync::Arc;
use vnf_apps::{Firewall, FirewallRule, L2Forwarder, NetworkMonitor, VnfApp, WebCache};

/// Which application a VNF runs.
pub enum AppKind {
    /// The paper's evaluation app: move packets between the two ports.
    Forwarder,
    /// Stateless firewall with the given ruleset.
    Firewall(Vec<FirewallRule>),
    /// Per-flow byte/packet accounting.
    Monitor,
    /// Toy web cache.
    WebCache,
    /// Any custom application.
    Custom(Box<dyn VnfApp>),
}

impl AppKind {
    fn build(self) -> Box<dyn VnfApp> {
        match self {
            AppKind::Forwarder => Box::new(L2Forwarder::new()),
            AppKind::Firewall(rules) => Box::new(Firewall::new(rules)),
            AppKind::Monitor => Box::new(NetworkMonitor::new()),
            AppKind::WebCache => Box::new(WebCache::new()),
            AppKind::Custom(app) => app,
        }
    }
}

/// One VNF in a graph.
pub struct VnfSpec {
    pub name: String,
    pub app: AppKind,
}

impl VnfSpec {
    /// A forwarder VNF (the evaluation workload).
    pub fn forwarder(name: impl Into<String>) -> VnfSpec {
        VnfSpec {
            name: name.into(),
            app: AppKind::Forwarder,
        }
    }
}

/// One endpoint of a service-graph edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphPort {
    /// A port that already exists on the switch (NIC, edge dpdkr).
    External(u32),
    /// Port `port` (index) of VNF node `node` (index into [`GraphSpec`]).
    Vnf { node: usize, port: usize },
}

/// A logical edge: traffic entering `from` is steered to `to`.
#[derive(Debug, Clone)]
pub struct GraphEdgeSpec {
    pub from: GraphPort,
    pub to: GraphPort,
    /// `None` steers *all* of `from`'s traffic (the p-2-p rule shape the
    /// highway accelerates). `Some((template, priority))` steers only the
    /// matching subset — the template's `in_port` is overwritten — which
    /// makes the source port non-p-2-p, exactly like the web/non-web split
    /// in the paper's Figure 1.
    pub refine: Option<(FlowMatch, u16)>,
}

impl GraphEdgeSpec {
    /// An all-traffic (p-2-p shaped) edge.
    pub fn all(from: GraphPort, to: GraphPort) -> GraphEdgeSpec {
        GraphEdgeSpec {
            from,
            to,
            refine: None,
        }
    }

    /// A refined (match-limited) edge at the given priority.
    pub fn matching(
        from: GraphPort,
        to: GraphPort,
        template: FlowMatch,
        priority: u16,
    ) -> GraphEdgeSpec {
        GraphEdgeSpec {
            from,
            to,
            refine: Some((template, priority)),
        }
    }
}

/// An arbitrary service graph: VNF nodes plus steering edges
/// (Figure 1(a) of the paper is the canonical instance).
pub struct GraphSpec {
    /// `(spec, n_ports)` per VNF node.
    pub vnfs: Vec<(VnfSpec, usize)>,
    pub edges: Vec<GraphEdgeSpec>,
}

/// A deployed service graph.
pub struct GraphDeployment {
    pub vms: Vec<Arc<Vm>>,
    /// Switch port numbers per VNF node, indexed `[node][port]`.
    pub vnf_ports: Vec<Vec<u32>>,
    /// Rule cookie per edge, in [`GraphSpec::edges`] order.
    pub cookies: Vec<u64>,
}

impl GraphDeployment {
    /// Resolves a [`GraphPort`] to its switch port number.
    pub fn resolve(&self, p: GraphPort) -> u32 {
        match p {
            GraphPort::External(no) => no,
            GraphPort::Vnf { node, port } => self.vnf_ports[node][port],
        }
    }
}

/// A deployed chain: VM handles plus the port numbers at each seam.
pub struct ChainDeployment {
    pub vms: Vec<Arc<Vm>>,
    /// `(ingress, egress)` OpenFlow ports of each VM, chain order.
    pub vm_ports: Vec<(u32, u32)>,
    /// Switch-side ingress into the first VM.
    pub entry_port: u32,
    /// Switch-side egress out of the last VM.
    pub exit_port: u32,
    /// Cookies of the forward-direction p-2-p rules, seam order.
    pub forward_cookies: Vec<u64>,
    /// Cookies of the reverse-direction p-2-p rules, seam order.
    pub reverse_cookies: Vec<u64>,
}

/// The orchestrator bound to one switch.
pub struct Orchestrator {
    switch: Arc<VSwitchd>,
    registry: ShmRegistry,
    stats: StatsRegion,
    /// When present, every VM is registered here at creation — *before*
    /// any steering rule that mentions its ports is installed. Without
    /// this ordering the highway manager races VM registration and logs
    /// spurious `UnknownPort` setup failures for seams that are about to
    /// become perfectly serviceable.
    agent: Option<Arc<ComputeAgent>>,
    next_port: std::sync::atomic::AtomicU32,
    next_cookie: std::sync::atomic::AtomicU64,
}

impl Orchestrator {
    /// Creates an orchestrator allocating ports from 1 upwards.
    pub fn new(switch: Arc<VSwitchd>, registry: ShmRegistry, stats: StatsRegion) -> Orchestrator {
        Orchestrator {
            switch,
            registry,
            stats,
            agent: None,
            next_port: std::sync::atomic::AtomicU32::new(1),
            next_cookie: std::sync::atomic::AtomicU64::new(0x1000),
        }
    }

    /// Like [`Orchestrator::new`], but VMs are registered with `agent` as
    /// part of [`Orchestrator::create_vm`], so the port→VM mapping exists
    /// before any deploy helper installs steering rules.
    pub fn with_agent(
        switch: Arc<VSwitchd>,
        registry: ShmRegistry,
        stats: StatsRegion,
        agent: Arc<ComputeAgent>,
    ) -> Orchestrator {
        Orchestrator {
            agent: Some(agent),
            ..Orchestrator::new(switch, registry, stats)
        }
    }

    /// Allocates the next OpenFlow port number.
    pub fn alloc_port(&self) -> u32 {
        self.next_port
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    }

    /// Allocates a rule cookie.
    pub fn alloc_cookie(&self) -> u64 {
        self.next_cookie
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    }

    /// Adds an edge port — a traffic generator's, a sink's or a NIC's — to
    /// the switch: a dpdkr port named `label` over a fresh `dpdkr<no>`
    /// segment of [`DEFAULT_RING_DEPTH`]. Returns the port number and the
    /// outside end of the channel.
    pub fn add_edge_port(&self, label: &str) -> (u32, ChannelEnd) {
        let no = self.alloc_port();
        let (end, sw_end) = self.registry.create_channel(
            format!("dpdkr{no}"),
            SegmentKind::DpdkrNormal,
            DEFAULT_RING_DEPTH,
        );
        self.switch.add_dpdkr_port(PortNo(no as u16), label, sw_end);
        (no, end)
    }

    /// Creates a VM with `n_ports` dpdkr ports attached to the switch and
    /// boots it with the given application.
    pub fn create_vm(&self, spec: VnfSpec, n_ports: usize) -> Arc<Vm> {
        let mut guest_ports = Vec::with_capacity(n_ports);
        for _ in 0..n_ports {
            let no = self.alloc_port();
            let seg = format!("dpdkr{no}");
            let (vm_end, sw_end) =
                self.registry
                    .create_channel(&seg, SegmentKind::DpdkrNormal, DEFAULT_RING_DEPTH);
            self.switch.add_dpdkr_port(PortNo(no as u16), &seg, sw_end);
            guest_ports.push((no, vm_end));
        }
        let vm = Vm::launch(spec.name, guest_ports, spec.app.build(), self.stats.clone());
        if let Some(agent) = &self.agent {
            agent.register_vm(Arc::clone(&vm));
        }
        vm
    }

    /// Installs the p-2-p steering rule `in_port=from → output:to` and
    /// returns its cookie. This is exactly the flow_mod shape the detector
    /// recognises.
    pub fn link_p2p(&self, from: u32, to: u32) -> u64 {
        let cookie = self.alloc_cookie();
        self.switch.inject_flow_mod(
            &FlowMod::add(
                FlowMatch::in_port(PortNo(from as u16)),
                100,
                vec![Action::Output(PortNo(to as u16))],
            )
            .with_cookie(cookie),
        );
        cookie
    }

    /// Installs a refined steering rule (`template` with `in_port`
    /// overwritten) and returns its cookie. Refined rules deliberately
    /// break the p-2-p property of their ingress port.
    pub fn link_matching(&self, from: u32, to: u32, template: FlowMatch, priority: u16) -> u64 {
        let cookie = self.alloc_cookie();
        let mut fmatch = template;
        fmatch.in_port = Some(PortNo(from as u16));
        self.switch.inject_flow_mod(
            &FlowMod::add(fmatch, priority, vec![Action::Output(PortNo(to as u16))])
                .with_cookie(cookie),
        );
        cookie
    }

    /// Deploys an arbitrary service graph: creates one VM per node, then
    /// installs every edge's steering rule. Edges whose ingress port ends
    /// up with exactly one all-traffic rule are p-2-p and will be
    /// accelerated on a highway node; refined edges (and the all-traffic
    /// edges sharing their ingress port) stay on the switch path.
    pub fn deploy_graph(&self, spec: GraphSpec) -> GraphDeployment {
        let mut vms = Vec::with_capacity(spec.vnfs.len());
        let mut vnf_ports = Vec::with_capacity(spec.vnfs.len());
        for (vnf, n_ports) in spec.vnfs {
            let vm = self.create_vm(vnf, n_ports);
            vnf_ports.push(vm.of_ports().to_vec());
            vms.push(vm);
        }
        let mut dep = GraphDeployment {
            vms,
            vnf_ports,
            cookies: Vec::with_capacity(spec.edges.len()),
        };
        for edge in &spec.edges {
            let from = dep.resolve(edge.from);
            let to = dep.resolve(edge.to);
            let cookie = match &edge.refine {
                None => self.link_p2p(from, to),
                Some((template, priority)) => self.link_matching(from, to, *template, *priority),
            };
            dep.cookies.push(cookie);
        }
        dep
    }

    /// Deploys the paper's evaluation topology: a chain of `n` two-port
    /// VMs, with entry/exit dpdkr ports (or NIC ports added by the caller)
    /// on the outside, and bidirectional p-2-p rules along every seam.
    ///
    /// `entry_port`/`exit_port` must already exist on the switch.
    pub fn deploy_chain(
        &self,
        n: usize,
        entry_port: u32,
        exit_port: u32,
        spec_for: impl Fn(usize) -> VnfSpec,
    ) -> ChainDeployment {
        assert!(n >= 1, "chain needs at least one VM");
        let mut vms = Vec::with_capacity(n);
        let mut vm_ports = Vec::with_capacity(n);
        for i in 0..n {
            let vm = self.create_vm(spec_for(i), 2);
            let ports = (vm.of_ports()[0], vm.of_ports()[1]);
            vm_ports.push(ports);
            vms.push(vm);
        }
        // Seams: entry → vm0.in, vm_i.out → vm_{i+1}.in, vm_last.out → exit;
        // plus everything mirrored for the reverse direction.
        let mut forward_cookies = Vec::new();
        let mut reverse_cookies = Vec::new();
        let mut hops: Vec<(u32, u32)> = Vec::new();
        hops.push((entry_port, vm_ports[0].0));
        for i in 0..n - 1 {
            hops.push((vm_ports[i].1, vm_ports[i + 1].0));
        }
        hops.push((vm_ports[n - 1].1, exit_port));
        for (from, to) in &hops {
            forward_cookies.push(self.link_p2p(*from, *to));
        }
        for (from, to) in hops.iter().rev() {
            reverse_cookies.push(self.link_p2p(*to, *from));
        }
        ChainDeployment {
            vms,
            vm_ports,
            entry_port,
            exit_port,
            forward_cookies,
            reverse_cookies,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpdk_sim::Mbuf;
    use ovs_dp::VSwitchdConfig;
    use packet_wire::PacketBuilder;
    use std::time::{Duration, Instant};

    struct Edge {
        entry: ChannelEnd,
        exit: ChannelEnd,
    }

    /// A bare switch and orchestrator with the entry and exit edge ports
    /// (port numbers 1 and 2).
    fn switch_with_edges() -> (Arc<VSwitchd>, Orchestrator, Edge) {
        let switch = Arc::new(VSwitchd::new(VSwitchdConfig::default()));
        let orch = Orchestrator::new(Arc::clone(&switch), ShmRegistry::new(), StatsRegion::new());
        let (_, entry) = orch.add_edge_port("entry");
        let (_, exit) = orch.add_edge_port("exit");
        (switch, orch, Edge { entry, exit })
    }

    #[test]
    fn chain_of_three_carries_traffic_both_ways() {
        let (switch, orch, mut edge) = switch_with_edges();
        let dep = orch.deploy_chain(3, 1, 2, |i| VnfSpec::forwarder(format!("vm{i}")));
        switch.start();

        // Forward direction: entry → … → exit.
        edge.entry
            .send(Mbuf::from_slice(&PacketBuilder::udp_probe(64).build()))
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut got_fwd = false;
        while Instant::now() < deadline {
            if edge.exit.recv().is_some() {
                got_fwd = true;
                break;
            }
            std::thread::yield_now();
        }
        assert!(got_fwd, "forward traversal");

        // Reverse direction: exit → … → entry.
        edge.exit
            .send(Mbuf::from_slice(&PacketBuilder::udp_probe(64).build()))
            .unwrap();
        let mut got_rev = false;
        while Instant::now() < deadline {
            if edge.entry.recv().is_some() {
                got_rev = true;
                break;
            }
            std::thread::yield_now();
        }
        assert!(got_rev, "reverse traversal");

        assert_eq!(dep.vms.len(), 3);
        assert_eq!(dep.forward_cookies.len(), 4); // n+1 seams
        assert_eq!(dep.reverse_cookies.len(), 4);
        switch.stop();
        for vm in &dep.vms {
            vm.shutdown();
        }
    }

    #[test]
    fn figure1_graph_splits_web_from_nonweb() {
        // The paper's motivating graph: firewall → monitor, then web
        // traffic detours through the cache while the rest exits directly.
        let (switch, orch, mut edge) = switch_with_edges();
        let mut web = FlowMatch::any();
        web.ip_proto = Some(17);
        web.l4_dst = Some(80);
        let fw = GraphPort::Vnf { node: 0, port: 0 };
        let fw_out = GraphPort::Vnf { node: 0, port: 1 };
        let mon = GraphPort::Vnf { node: 1, port: 0 };
        let mon_out = GraphPort::Vnf { node: 1, port: 1 };
        let cache = GraphPort::Vnf { node: 2, port: 0 };
        let cache_out = GraphPort::Vnf { node: 2, port: 1 };
        let dep = orch.deploy_graph(GraphSpec {
            vnfs: vec![
                (VnfSpec::forwarder("fw"), 2),
                (VnfSpec::forwarder("mon"), 2),
                (VnfSpec::forwarder("cache"), 2),
            ],
            edges: vec![
                GraphEdgeSpec::all(GraphPort::External(1), fw),
                GraphEdgeSpec::all(fw_out, mon),
                // The split: web traffic to the cache at high priority…
                GraphEdgeSpec::matching(mon_out, cache, web, 200),
                // …the rest straight to the exit.
                GraphEdgeSpec::all(mon_out, GraphPort::External(2)),
                GraphEdgeSpec::all(cache_out, GraphPort::External(2)),
            ],
        });
        switch.start();
        assert_eq!(dep.cookies.len(), 5);

        let recv_one = |end: &mut ChannelEnd| {
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                if let Some(m) = end.recv() {
                    return m;
                }
                assert!(Instant::now() < deadline, "timed out");
                std::thread::yield_now();
            }
        };

        // Non-web traffic skips the cache.
        edge.entry
            .send(Mbuf::from_slice(
                &PacketBuilder::udp_probe(64).ports(5000, 53).build(),
            ))
            .unwrap();
        recv_one(&mut edge.exit);
        assert_eq!(
            dep.vms[2]
                .counters()
                .forwarded
                .load(std::sync::atomic::Ordering::Relaxed),
            0,
            "cache untouched by DNS traffic"
        );

        // Web traffic detours through the cache.
        edge.entry
            .send(Mbuf::from_slice(
                &PacketBuilder::udp_probe(64).ports(5000, 80).build(),
            ))
            .unwrap();
        recv_one(&mut edge.exit);
        assert_eq!(
            dep.vms[2]
                .counters()
                .forwarded
                .load(std::sync::atomic::Ordering::Relaxed),
            1,
            "cache saw the web packet"
        );

        switch.stop();
        for vm in &dep.vms {
            vm.shutdown();
        }
    }

    #[test]
    fn port_and_cookie_allocation_is_unique() {
        let (_switch, orch, _edge) = switch_with_edges();
        let a = orch.alloc_port();
        let b = orch.alloc_port();
        assert_ne!(a, b);
        let c1 = orch.alloc_cookie();
        let c2 = orch.alloc_cookie();
        assert_ne!(c1, c2);
    }
}
