//! A multi-host fabric: N [`HighwayNode`]s wired together by trunk ports.
//!
//! The paper evaluates a single server, but its control plane is ordinary
//! OpenFlow — one controller can just as well drive several highway nodes.
//! [`Fabric`] assembles that topology: each node is an independent server
//! (own switch, registry, agent, orchestrator, highway manager) with a
//! unique datapath id, and [`Fabric::trunk`] splices a simulated
//! inter-host link between two switches by handing each one end of a raw
//! shared-memory channel (standing in for the NIC-to-NIC wire).
//!
//! [`Fabric::place_chain`] then places a VNF chain *across* hosts: VMs go
//! to the node their span names, consecutive VMs on the same node are
//! joined by an ordinary intra-host seam (a highway-bypass candidate),
//! and consecutive VMs on different nodes are joined through a fresh
//! trunk. The resulting per-switch seam lists feed
//! [`crate::apps::FabricChainSteering`], which installs them over the
//! wire through one [`openflow::FabricRuntime`] — so the switches' p-2-p
//! detectors see exactly what a real controller would send.

use crate::apps::Seam;
use crate::node::{HighwayNode, HighwayNodeConfig};
use openflow::PortNo;
use shmem_sim::SegmentKind;
use std::collections::HashMap;
use std::sync::Arc;
use vm_host::{Vm, VnfSpec};

/// Ring depth for edge and trunk channels (matches the node tests).
const EDGE_RING_DEPTH: usize = 1024;

/// N highway nodes with unique datapath ids, plus the trunks between them.
pub struct Fabric {
    nodes: Vec<HighwayNode>,
    dpids: Vec<u64>,
    trunks: std::sync::atomic::AtomicUsize,
}

/// One trunk between two nodes: the local port number on each switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trunk {
    /// Port on the first node passed to [`Fabric::trunk`].
    pub port_a: u32,
    /// Port on the second node passed to [`Fabric::trunk`].
    pub port_b: u32,
}

/// A chain placed across the fabric by [`Fabric::place_chain`].
pub struct FabricChain {
    /// Traffic-generator end of the entry edge port.
    pub entry: shmem_sim::ChannelEnd,
    /// Sink end of the exit edge port.
    pub exit: shmem_sim::ChannelEnd,
    /// Entry port number (on the first span's node).
    pub entry_port: u32,
    /// Exit port number (on the last span's node).
    pub exit_port: u32,
    /// The chain's VMs with the node index hosting each.
    pub vms: Vec<(usize, Arc<Vm>)>,
    /// `(in, out)` switch ports of each VM, chain order.
    pub vm_ports: Vec<(u32, u32)>,
    /// Trunks created for inter-host hops, chain order.
    pub trunks: Vec<Trunk>,
    /// Forward steering seams per datapath id — feed these to
    /// [`crate::apps::FabricChainSteering`].
    pub seams: HashMap<u64, Vec<Seam>>,
}

impl FabricChain {
    /// All seam cookies, ascending.
    pub fn cookies(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .seams
            .values()
            .flat_map(|v| v.iter().map(|s| s.cookie))
            .collect();
        out.sort_unstable();
        out
    }

    /// Shuts down every VM of the chain.
    pub fn shutdown_vms(&self) {
        for (_, vm) in &self.vms {
            vm.shutdown();
        }
    }
}

impl Fabric {
    /// Builds one node per datapath id. `config_for` customises each node;
    /// the datapath id it returns is overwritten with the fabric's.
    pub fn new(dpids: &[u64], config_for: impl Fn(usize) -> HighwayNodeConfig) -> Fabric {
        assert!(!dpids.is_empty(), "fabric needs at least one node");
        let nodes = dpids
            .iter()
            .enumerate()
            .map(|(i, &dpid)| {
                let mut cfg = config_for(i);
                cfg.switch.datapath_id = dpid;
                HighwayNode::new(cfg)
            })
            .collect();
        Fabric {
            nodes,
            dpids: dpids.to_vec(),
            trunks: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    /// A fabric of default highway nodes.
    pub fn with_defaults(dpids: &[u64]) -> Fabric {
        Fabric::new(dpids, |_| HighwayNodeConfig::default())
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the fabric has no nodes (never: `new` asserts).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node at `index`.
    pub fn node(&self, index: usize) -> &HighwayNode {
        &self.nodes[index]
    }

    /// Datapath ids, node order.
    pub fn dpids(&self) -> &[u64] {
        &self.dpids
    }

    /// Starts every node's switch threads.
    pub fn start(&self) {
        for n in &self.nodes {
            n.start();
        }
    }

    /// Stops every node.
    pub fn stop(&self) {
        for n in &self.nodes {
            n.stop();
        }
    }

    /// Opens a TCP controller listener on every node; returns
    /// `(dpid, addr)` pairs, node order.
    pub fn listen_all(&self) -> std::io::Result<Vec<(u64, std::net::SocketAddr)>> {
        self.dpids
            .iter()
            .zip(&self.nodes)
            .map(|(&dpid, n)| Ok((dpid, n.listen_controller()?)))
            .collect()
    }

    /// Splices a simulated inter-host wire between nodes `a` and `b`:
    /// each switch gets a fresh port backed by one end of a raw
    /// shared-memory channel, so a packet output on `port_a` arrives as
    /// an rx on `port_b` (and vice versa) — the fabric's stand-in for a
    /// NIC-to-NIC cable.
    pub fn trunk(&self, a: usize, b: usize) -> Trunk {
        assert_ne!(a, b, "a trunk joins two distinct nodes");
        let no = self
            .trunks
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let port_a = self.nodes[a].orchestrator().alloc_port();
        let port_b = self.nodes[b].orchestrator().alloc_port();
        let name = format!("trunk{no}");
        let (end_a, end_b) = shmem_sim::channel(&name, EDGE_RING_DEPTH);
        self.nodes[a]
            .switch()
            .add_dpdkr_port(PortNo(port_a as u16), &name, end_a);
        self.nodes[b]
            .switch()
            .add_dpdkr_port(PortNo(port_b as u16), &name, end_b);
        Trunk { port_a, port_b }
    }

    /// Places a forward VNF chain across the fabric. `spans[i]` names the
    /// node hosting VM `i`; entry sits on the first span's node, exit on
    /// the last's, and every hop between nodes gets its own trunk.
    ///
    /// No rules are installed here — the returned per-switch seam lists
    /// are meant for a [`crate::apps::FabricChainSteering`] app driving
    /// the switches over the control channel, so the installs arrive the
    /// way a real controller's would (and the p-2-p detector fires on
    /// them). Seam cookies are globally unique (`0x100 + k`, hop order).
    pub fn place_chain(&self, spans: &[usize], spec_for: impl Fn(usize) -> VnfSpec) -> FabricChain {
        assert!(!spans.is_empty(), "chain needs at least one VM");
        let first = spans[0];
        let last = *spans.last().unwrap();

        let (entry, entry_port) = self.edge_port(first, "fabric-entry");
        let (exit, exit_port) = self.edge_port(last, "fabric-exit");

        let mut vms = Vec::with_capacity(spans.len());
        let mut vm_ports = Vec::with_capacity(spans.len());
        for (i, &span) in spans.iter().enumerate() {
            let vm = self.nodes[span].orchestrator().create_vm(spec_for(i), 2);
            vm_ports.push((vm.of_ports()[0], vm.of_ports()[1]));
            vms.push((span, vm));
        }

        // Walk the hops, assigning each seam to the switch that owns its
        // ingress port and splicing a trunk wherever the chain changes
        // hosts.
        let mut seams: HashMap<u64, Vec<Seam>> = HashMap::new();
        let mut trunks = Vec::new();
        let mut cookie = 0;
        let mut push = |node: usize, from: u32, to: u32, k: &mut usize| {
            seams.entry(self.dpids[node]).or_default().push(Seam::new(
                *k,
                PortNo(from as u16),
                PortNo(to as u16),
            ));
            *k += 1;
        };
        push(first, entry_port, vm_ports[0].0, &mut cookie);
        for i in 0..spans.len() - 1 {
            let (here, next) = (spans[i], spans[i + 1]);
            if here == next {
                push(here, vm_ports[i].1, vm_ports[i + 1].0, &mut cookie);
            } else {
                let trunk = self.trunk(here, next);
                push(here, vm_ports[i].1, trunk.port_a, &mut cookie);
                push(next, trunk.port_b, vm_ports[i + 1].0, &mut cookie);
                trunks.push(trunk);
            }
        }
        push(last, vm_ports[spans.len() - 1].1, exit_port, &mut cookie);

        FabricChain {
            entry,
            exit,
            entry_port,
            exit_port,
            vms,
            vm_ports,
            trunks,
            seams,
        }
    }

    /// Creates an edge (traffic generator / sink) dpdkr port on `node`;
    /// returns the host-side channel end and the port number.
    fn edge_port(&self, node: usize, label: &str) -> (shmem_sim::ChannelEnd, u32) {
        let n = &self.nodes[node];
        let no = n.orchestrator().alloc_port();
        let (host_end, sw_end) = n.registry().create_channel(
            format!("dpdkr{no}"),
            SegmentKind::DpdkrNormal,
            EDGE_RING_DEPTH,
        );
        n.switch().add_dpdkr_port(PortNo(no as u16), label, sw_end);
        (host_end, no)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::FabricChainSteering;
    use dpdk_sim::Mbuf;
    use openflow::FabricRuntime;
    use packet_wire::PacketBuilder;
    use std::time::{Duration, Instant};

    fn pump_until(end: &mut shmem_sim::ChannelEnd, timeout: Duration) -> Option<Mbuf> {
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
    fn cross_host_chain_converges_and_forwards() {
        let fabric = Fabric::with_defaults(&[0xa1, 0xb2]);
        fabric.start();
        // 3 VNFs: two on node 0 (one intra-host seam — the bypass
        // candidate), one on node 1 across a trunk.
        let mut chain = fabric.place_chain(&[0, 0, 1], |i| VnfSpec::forwarder(format!("vnf{i}")));
        assert_eq!(chain.trunks.len(), 1);
        assert_eq!(chain.cookies(), vec![0x100, 0x101, 0x102, 0x103, 0x104]);

        // Drive both switches from one runtime over in-process links.
        let mut rt = FabricRuntime::new(FabricChainSteering::new(chain.seams.clone()));
        rt.add_switch(fabric.node(0).connect_controller());
        rt.add_switch(fabric.node(1).connect_controller());
        rt.run_until_ready(Duration::from_secs(5)).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        assert!(
            rt.run_until(|rt| rt.app().settled(), deadline),
            "some switch never settled its seams"
        );
        assert!(fabric
            .node(0)
            .wait_highway_converged(Duration::from_secs(10)));
        assert!(fabric
            .node(1)
            .wait_highway_converged(Duration::from_secs(10)));

        // The intra-host seam (vnf0.out -> vnf1.in) is bypassed on node 0.
        let links = fabric.node(0).active_links();
        assert!(
            links.contains(&(chain.vm_ports[0].1, chain.vm_ports[1].0)),
            "intra-host seam not bypassed: {links:?}"
        );

        // Traffic crosses both hosts.
        for _ in 0..4 {
            chain
                .entry
                .send(Mbuf::from_slice(&PacketBuilder::udp_probe(64).build()))
                .unwrap();
        }
        for _ in 0..4 {
            assert!(
                pump_until(&mut chain.exit, Duration::from_secs(10)).is_some(),
                "packet lost across the trunk"
            );
        }
        assert_eq!(rt.app().packet_ins(), 0);
        fabric.stop();
        chain.shutdown_vms();
    }
}
