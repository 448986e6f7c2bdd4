//! Functional twins of the throughput experiments (E1/E2): the same chain
//! deployments, verified for *correctness* rather than speed — every packet
//! arrives exactly once, intact and in order, in both modes; and in highway
//! mode the switch genuinely stops seeing the inner seams' traffic.

use std::collections::HashSet;
use std::time::Duration;
use vnf_highway::prelude::*;
use vnf_highway::shmem::SegmentKind;
use vnf_highway::testbed::Chain;

fn config(highway: bool) -> HighwayNodeConfig {
    if highway {
        HighwayNodeConfig::default()
    } else {
        HighwayNodeConfig::vanilla()
    }
}

fn run_chain(n_vms: usize, highway: bool) {
    const N: u64 = 400;
    let mut chain = Chain::build(config(highway), n_vms);
    chain.send_probes(0..N);
    let seqs = chain.drain(N as usize, Duration::from_secs(20));
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
            let inner_egress = chain.dep.vm_ports[i].1;
            let port = chain
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
    chain.stop();
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
        let mut chain = Chain::build(config(highway), 2);
        const N: u64 = 150;
        // Forward direction.
        chain.send_probes(0..N);
        let fwd = chain.drain(N as usize, Duration::from_secs(15));
        assert_eq!(fwd.len() as u64, N, "forward, highway={highway}");
        // Reverse direction (the chains carry rules both ways): the exit
        // end sends and the entry end drains.
        std::mem::swap(&mut chain.entry, &mut chain.exit);
        chain.send_probes(1000..1000 + N);
        let rev = chain.drain(N as usize, Duration::from_secs(15));
        assert_eq!(rev.len() as u64, N, "reverse, highway={highway}");
        assert!(rev.iter().all(|s| *s >= 1000), "no cross-direction leak");
        chain.stop();
    }
}

#[test]
fn highway_chain_is_zero_copy_end_to_end() {
    // The arena census proves the tentpole property: across an N-hop
    // highway chain the payload bytes are written exactly once (the
    // generator's ingress copy) — every hop after that moves descriptors.
    const N: u64 = 300;
    let mut chain = Chain::build(HighwayNodeConfig::default(), 3);
    let arena = chain.node.registry().hugepage_arena();
    let base = arena.stats();

    chain.send_probes(0..N);
    let seqs = chain.drain(N as usize, Duration::from_secs(20));
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

    // Teardown releases every slot the chain ever held: `stop` checks
    // the census.
    chain.stop();
}

#[test]
fn highway_bypass_segments_match_inner_seams() {
    let chain = Chain::build(HighwayNodeConfig::default(), 4);
    // 3 inner seams, one shared segment each (both directions).
    assert_eq!(
        chain
            .node
            .registry()
            .live_of_kind(SegmentKind::Bypass)
            .len(),
        3
    );
    assert_eq!(chain.node.active_links().len(), 6); // 3 seams × 2 directions
    chain.stop();
}
