//! The paper's workload, built one way: a chain of N forwarder VMs between
//! two edge ports on one [`HighwayNode`].
//!
//! In Zhang et al.'s vocabulary (*Performance Benchmarking of
//! State-of-the-Art Software Switches for NFV*) the entry and exit seams
//! are p2v and v2p hops, and the N − 1 inner seams are v2v hops — the ones
//! the highway bypasses. A vanilla chain crosses the switch N + 1 times
//! per packet; a highway chain crosses it twice.
//!
//! [`Chain::build`] deploys and starts the chain and waits for the highway
//! to converge; [`Chain::deploy`] stops short of starting it, for a test
//! that edits the flow table first. The node's configuration picks the
//! mode, the hypervisor latency model and the PMD count. Probes go in with
//! [`Chain::send_probes`], come out with [`Chain::drain`], and
//! [`Chain::stop`] tears down in the one order that lets every arena slot
//! come home — and asserts that it did.
//!
//! A world that is not a chain (a service graph, a NIC-paced edge) builds
//! its edges with [`HighwayNode::add_edge_port`] and reaches the
//! orchestrator through [`Chain::node`].

use crate::highway::{HighwayNode, HighwayNodeConfig};
use crate::packet::{PacketBuilder, ProbeHeader};
use crate::shmem::ChannelEnd;
use crate::vm::{ChainDeployment, VnfSpec};
use std::time::{Duration, Instant};

/// How long [`Chain::build`] waits for the highway to converge.
const CONVERGE_TIMEOUT: Duration = Duration::from_secs(15);

/// How long one probe may wait for a free arena slot and for room in the
/// entry ring before [`Chain::send_probes`] gives up.
const SEND_TIMEOUT: Duration = Duration::from_secs(10);

/// Frame length of every probe.
const PROBE_LEN: usize = 64;

/// Entry edge → N forwarder VMs → exit edge, with bidirectional p-2-p
/// steering rules on every seam.
///
/// ```
/// use std::time::Duration;
/// use vnf_highway::prelude::*;
/// use vnf_highway::testbed::Chain;
///
/// let mut chain = Chain::build(HighwayNodeConfig::default(), 3);
/// // Two inner seams, each bypassed in both directions.
/// assert_eq!(chain.node.active_links().len(), 4);
/// chain.send_probes(0..100);
/// let seqs = chain.drain(100, Duration::from_secs(10));
/// assert_eq!(seqs, (0..100).collect::<Vec<u64>>());
/// chain.stop();
/// ```
pub struct Chain {
    /// The server the chain runs on.
    pub node: HighwayNode,
    /// The generator's end of the entry edge port.
    pub entry: ChannelEnd,
    /// The sink's end of the exit edge port.
    pub exit: ChannelEnd,
    /// The VMs, their ports and the steering rules' cookies.
    pub dep: ChainDeployment,
}

impl Chain {
    /// A node built from `config` with an `n`-VM chain deployed on it; the
    /// switch is not started yet.
    pub fn deploy(config: HighwayNodeConfig, n: usize) -> Chain {
        let node = HighwayNode::new(config);
        let (entry_no, entry) = node.add_edge_port("entry");
        let (exit_no, exit) = node.add_edge_port("exit");
        let dep = node.orchestrator().deploy_chain(n, entry_no, exit_no, |i| {
            VnfSpec::forwarder(format!("vm{i}"))
        });
        Chain {
            node,
            entry,
            exit,
            dep,
        }
    }

    /// [`Chain::deploy`], then starts the node and waits until the highway
    /// has converged.
    ///
    /// # Panics
    ///
    /// When the highway does not converge within 15 s.
    pub fn build(config: HighwayNodeConfig, n: usize) -> Chain {
        let chain = Chain::deploy(config, n);
        chain.node.start();
        assert!(
            chain.node.wait_highway_converged(CONVERGE_TIMEOUT),
            "the highway did not converge; failures: {:?}",
            chain.node.highway_failures()
        );
        chain
    }

    /// Sends one 64-byte UDP probe per sequence number into the entry port,
    /// each in a slot of the node's hugepage arena. A full ring or arena is
    /// waited out by yielding.
    ///
    /// # Panics
    ///
    /// When a probe finds no slot or no ring room for 10 s.
    pub fn send_probes(&mut self, seqs: impl IntoIterator<Item = u64>) {
        let arena = self.node.registry().hugepage_arena();
        for seq in seqs {
            let frame = PacketBuilder::udp_probe(PROBE_LEN).seq(seq).build();
            let deadline = Instant::now() + SEND_TIMEOUT;
            let mut m = loop {
                if let Some(m) = arena.alloc_from(&frame) {
                    break m;
                }
                assert!(Instant::now() < deadline, "probe {seq}: arena exhausted");
                std::thread::yield_now();
            };
            while let Err(back) = self.entry.send(m) {
                assert!(Instant::now() < deadline, "probe {seq}: entry ring full");
                m = back;
                std::thread::yield_now();
            }
        }
    }

    /// Receives up to `n` probes from the exit port within `timeout` and
    /// returns their sequence numbers in arrival order; fewer on timeout.
    ///
    /// # Panics
    ///
    /// When a frame arrives that is not an intact 64-byte probe.
    pub fn drain(&mut self, n: usize, timeout: Duration) -> Vec<u64> {
        let deadline = Instant::now() + timeout;
        let mut seqs = Vec::with_capacity(n);
        while seqs.len() < n && Instant::now() < deadline {
            match self.exit.recv() {
                Some(m) => {
                    assert_eq!(m.len(), PROBE_LEN, "probe length changed in flight");
                    let probe = ProbeHeader::from_frame(m.data()).expect("intact probe");
                    seqs.push(probe.seq);
                }
                None => std::thread::yield_now(),
            }
        }
        seqs
    }

    /// Tears the chain down: drops the edge ends, stops the node, shuts
    /// the VMs down and drops the node.
    ///
    /// # Panics
    ///
    /// When the node's hugepage arena is not census-clean afterwards: a
    /// slot was leaked or freed into the wrong arena.
    pub fn stop(self) {
        let Chain {
            node,
            entry,
            exit,
            dep,
        } = self;
        let arena = node.registry().hugepage_arena();
        drop((entry, exit));
        node.stop();
        for vm in &dep.vms {
            vm.shutdown();
        }
        drop(dep);
        drop(node);
        assert!(
            arena.census_clean(),
            "arena census after teardown: {:?}",
            arena.stats()
        );
    }
}
