//! Dynamicity (§1/§2): bypass setup and teardown happen *under traffic*,
//! losslessly. Packets sent while the control plane is mid-transition may
//! take either path, but every one of them arrives exactly once.

use std::collections::HashSet;
use std::time::Duration;
use vnf_highway::openflow::Connection;
use vnf_highway::prelude::*;
use vnf_highway::shmem::SegmentKind;
use vnf_highway::testbed::Chain;

/// A converged 2-VM highway chain, a controller attached to its node, and
/// the middle seam `(a_out, b_in)`.
fn deploy() -> (Chain, Connection, u32, u32) {
    let chain = Chain::build(HighwayNodeConfig::default(), 2);
    let ctrl = chain.node.connect_controller();
    let (a_out, b_in) = (chain.dep.vm_ports[0].1, chain.dep.vm_ports[1].0);
    (chain, ctrl, a_out, b_in)
}

/// The "veto" rule that turns the middle seam non-p-2-p.
fn veto_match(a_out: u32) -> FlowMatch {
    let mut web = FlowMatch::in_port(PortNo(a_out as u16));
    web.eth_type = Some(0x0800);
    web.ip_proto = Some(17);
    web.l4_dst = Some(4242); // matches none of the test traffic
    web
}

#[test]
fn transitions_under_traffic_lose_nothing() {
    let (mut chain, ctrl, a_out, b_in) = deploy();
    let mut seqs: Vec<u64> = Vec::new();

    // Phase 1: bypass active.
    assert_eq!(chain.node.active_links().len(), 2); // middle seam, both ways
    chain.send_probes(0..200);
    seqs.extend(chain.drain(200, Duration::from_secs(15)));

    // Phase 2: add the veto rule *while traffic is in flight*. It covers
    // in_port = a_out only, so precisely the forward direction of the
    // middle seam loses its p-2-p property; the reverse direction is its
    // own link (per §2) and stays accelerated.
    chain.send_probes(200..300);
    ctrl.add_flow(
        veto_match(a_out),
        200,
        vec![Action::Output(PortNo(b_in as u16))],
        0x777,
    )
    .unwrap();
    chain.send_probes(300..400);
    seqs.extend(chain.drain(200, Duration::from_secs(15)));
    assert!(chain.node.wait_highway_converged(Duration::from_secs(15)));
    assert_eq!(
        chain.node.active_links(),
        vec![(b_in, a_out)],
        "forward bypass torn down; reverse stays"
    );

    // Phase 3: normal path carries traffic.
    chain.send_probes(400..500);
    seqs.extend(chain.drain(100, Duration::from_secs(15)));

    // Phase 4: remove the veto while traffic flows; bypass returns.
    chain.send_probes(500..600);
    ctrl.del_flow_strict(veto_match(a_out), 200).unwrap();
    chain.send_probes(600..700);
    seqs.extend(chain.drain(200, Duration::from_secs(15)));
    assert!(chain.node.wait_highway_converged(Duration::from_secs(15)));
    assert_eq!(chain.node.active_links().len(), 2, "bypass re-established");

    // Phase 5: and still carries traffic.
    chain.send_probes(700..800);
    seqs.extend(chain.drain(100, Duration::from_secs(15)));

    // Exactly-once delivery across all transitions.
    assert_eq!(seqs.len(), 800, "every packet arrived");
    let unique: HashSet<_> = seqs.iter().copied().collect();
    assert_eq!(unique.len(), 800, "no duplicates");
    assert_eq!(unique.iter().max(), Some(&799));

    // The setup log recorded the two initial activations plus the forward
    // re-activation after the veto was lifted.
    assert!(chain.node.setup_log().len() >= 3);

    chain.stop();
}

#[test]
fn repeated_flapping_is_stable() {
    let (mut chain, ctrl, a_out, b_in) = deploy();
    let mut seqs = Vec::new();
    let mut base = 0u64;
    for round in 0..3 {
        ctrl.add_flow(
            veto_match(a_out),
            200,
            vec![Action::Output(PortNo(b_in as u16))],
            0x800 + round,
        )
        .unwrap();
        chain.send_probes(base..base + 50);
        base += 50;
        ctrl.del_flow_strict(veto_match(a_out), 200).unwrap();
        chain.send_probes(base..base + 50);
        base += 50;
        seqs.extend(chain.drain(100, Duration::from_secs(15)));
    }
    assert!(chain.node.wait_highway_converged(Duration::from_secs(15)));
    assert_eq!(seqs.len() as u64, base);
    assert_eq!(
        seqs.iter().collect::<HashSet<_>>().len() as u64,
        base,
        "no duplicates across flaps"
    );
    assert_eq!(chain.node.active_links().len(), 2);
    // No leaked segments: exactly one bypass pair remains.
    assert_eq!(
        chain
            .node
            .registry()
            .live_of_kind(SegmentKind::Bypass)
            .len(),
        1
    );

    chain.stop();
}
