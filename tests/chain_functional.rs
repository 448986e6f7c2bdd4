//! Functional twins of the throughput experiments (E1/E2): the same chain
//! deployments, verified for *correctness* rather than speed — every packet
//! arrives exactly once, intact and in order, in both modes; and in highway
//! mode the switch genuinely stops seeing the inner seams' traffic.

use std::collections::HashSet;
use std::time::{Duration, Instant};
use vnf_highway::prelude::*;
use vnf_highway::shmem::{ChannelEnd, SegmentKind};

struct World {
    node: HighwayNode,
    entry: ChannelEnd,
    exit: ChannelEnd,
    dep: vnf_highway::vm::ChainDeployment,
}

fn deploy(n_vms: usize, highway: bool) -> World {
    let node = HighwayNode::new(if highway {
        HighwayNodeConfig::default()
    } else {
        HighwayNodeConfig::vanilla()
    });
    let entry_no = node.orchestrator().alloc_port();
    let (entry, sw_end) =
        node.registry()
            .create_channel(format!("dpdkr{entry_no}"), SegmentKind::DpdkrNormal, 2048);
    node.switch()
        .add_dpdkr_port(PortNo(entry_no as u16), "entry", sw_end);
    let exit_no = node.orchestrator().alloc_port();
    let (exit, sw_end) =
        node.registry()
            .create_channel(format!("dpdkr{exit_no}"), SegmentKind::DpdkrNormal, 2048);
    node.switch()
        .add_dpdkr_port(PortNo(exit_no as u16), "exit", sw_end);
    let dep = node
        .orchestrator()
        .deploy_chain(n_vms, entry_no, exit_no, |i| {
            VnfSpec::forwarder(format!("vm{i}"))
        });
    for vm in &dep.vms {
        node.register_vm(vm.clone());
    }
    node.start();
    assert!(node.wait_highway_converged(Duration::from_secs(15)));
    World {
        node,
        entry,
        exit,
        dep,
    }
}

fn push(entry: &mut ChannelEnd, count: u64, base_seq: u64) {
    for seq in 0..count {
        let pkt = PacketBuilder::udp_probe(64).seq(base_seq + seq).build();
        let mut m = Mbuf::from_slice(&pkt);
        loop {
            match entry.send(m) {
                Ok(()) => break,
                Err(ret) => {
                    m = ret;
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// Receives `count` probes, checking integrity; returns their sequences.
fn collect(exit: &mut ChannelEnd, count: u64, timeout: Duration) -> Vec<u64> {
    let mut seqs = Vec::new();
    let deadline = Instant::now() + timeout;
    while (seqs.len() as u64) < count && Instant::now() < deadline {
        match exit.recv() {
            Some(m) => {
                assert_eq!(m.len(), 64, "frame length preserved");
                let probe = ProbeHeader::from_frame(m.data()).expect("intact probe");
                seqs.push(probe.seq);
            }
            None => std::thread::yield_now(),
        }
    }
    seqs
}

fn run_chain(n_vms: usize, highway: bool) {
    const N: u64 = 400;
    let mut w = deploy(n_vms, highway);
    push(&mut w.entry, N, 0);
    let seqs = collect(&mut w.exit, N, Duration::from_secs(20));
    assert_eq!(
        seqs.len() as u64,
        N,
        "no loss (n={n_vms}, highway={highway})"
    );
    let unique: HashSet<_> = seqs.iter().collect();
    assert_eq!(unique.len() as u64, N, "no duplication");
    let mut sorted = seqs.clone();
    sorted.sort_unstable();
    assert_eq!(seqs, sorted, "single-path chain preserves order");

    if highway {
        // Inner seams must have been bypassed: the switch-side port of every
        // inner VM egress saw (almost) nothing. "Almost": packets forwarded
        // before the bypass activated — here zero, since we waited for
        // convergence before sending.
        for i in 0..n_vms - 1 {
            let inner_egress = w.dep.vm_ports[i].1;
            let port = w
                .node
                .switch()
                .datapath()
                .port(PortNo(inner_egress as u16))
                .expect("port exists");
            assert_eq!(
                port.stats().ipackets,
                0,
                "switch must not see bypassed seam {inner_egress}"
            );
        }
    }
    w.node.stop();
    for vm in &w.dep.vms {
        vm.shutdown();
    }
}

#[test]
fn vanilla_chain_of_2_delivers_everything() {
    run_chain(2, false);
}

#[test]
fn vanilla_chain_of_3_delivers_everything() {
    run_chain(3, false);
}

#[test]
fn highway_chain_of_2_delivers_everything_and_bypasses() {
    run_chain(2, true);
}

#[test]
fn highway_chain_of_3_delivers_everything_and_bypasses() {
    run_chain(3, true);
}

#[test]
fn bidirectional_traffic_both_modes() {
    for highway in [false, true] {
        let mut w = deploy(2, highway);
        const N: u64 = 150;
        // Forward direction.
        push(&mut w.entry, N, 0);
        let fwd = collect(&mut w.exit, N, Duration::from_secs(15));
        assert_eq!(fwd.len() as u64, N, "forward, highway={highway}");
        // Reverse direction (the chains carry rules both ways).
        push(&mut w.exit, N, 1000);
        let rev = collect(&mut w.entry, N, Duration::from_secs(15));
        assert_eq!(rev.len() as u64, N, "reverse, highway={highway}");
        assert!(rev.iter().all(|s| *s >= 1000), "no cross-direction leak");
        w.node.stop();
        for vm in &w.dep.vms {
            vm.shutdown();
        }
    }
}

#[test]
fn highway_chain_is_zero_copy_end_to_end() {
    // The arena census proves the tentpole property: across an N-hop
    // highway chain the payload bytes are written exactly once (the
    // generator's ingress copy) — every hop after that moves descriptors.
    const N: u64 = 300;
    let mut w = deploy(3, true);
    let arena = w.node.registry().hugepage_arena();
    let base = arena.stats();
    let base_in_use = arena.in_use();

    for seq in 0..N {
        let pkt = PacketBuilder::udp_probe(64).seq(seq).build();
        let mut m = Mbuf::from_arena(arena.alloc_from(&pkt).expect("arena sized for the test"));
        loop {
            match w.entry.send(m) {
                Ok(()) => break,
                Err(ret) => {
                    m = ret;
                    std::thread::yield_now();
                }
            }
        }
    }
    let seqs = collect(&mut w.exit, N, Duration::from_secs(20));
    assert_eq!(seqs.len() as u64, N, "no loss across the arena chain");
    let unique: HashSet<_> = seqs.iter().collect();
    assert_eq!(unique.len() as u64, N, "no duplication");

    let stats = arena.stats();
    assert_eq!(stats.allocs - base.allocs, N);
    assert_eq!(
        stats.slab_writes - base.slab_writes,
        N,
        "a hop wrote payload bytes: the chain is not zero-copy"
    );
    assert_eq!(stats.foreign_frees, 0, "every free went to its home arena");

    // Teardown releases every slot the chain ever held.
    let node = w.node;
    drop(w.entry);
    drop(w.exit);
    node.stop();
    for vm in &w.dep.vms {
        vm.shutdown();
    }
    drop(w.dep);
    drop(node);
    assert_eq!(arena.in_use(), base_in_use, "arena slots leaked");
}

#[test]
fn highway_bypass_segments_match_inner_seams() {
    let w = deploy(4, true);
    // 3 inner seams, one shared segment each (both directions).
    assert_eq!(w.node.registry().live_of_kind(SegmentKind::Bypass).len(), 3);
    assert_eq!(w.node.active_links().len(), 6); // 3 seams × 2 directions
    w.node.stop();
    for vm in &w.dep.vms {
        vm.shutdown();
    }
}
