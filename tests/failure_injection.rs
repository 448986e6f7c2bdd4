//! Control-plane failure injection, end to end: QEMU hot-plugs and
//! virtio-serial round-trips fail on demand while the full node (switch +
//! detector + manager + agent + guests) is running. The properties under
//! test are the ones §2's choreography implies but the paper never had
//! room to demonstrate:
//!
//! 1. a failed bypass setup leaves the *data path intact* — traffic keeps
//!    flowing through the switch as if the highway did not exist;
//! 2. failures leave no half-plugged devices or leaked segments;
//! 3. the highway recovers on the next table change, without operator
//!    intervention.

use std::time::{Duration, Instant};
use vnf_highway::highway::BypassEventKind;
use vnf_highway::openflow::{Connection, FlowMod};
use vnf_highway::prelude::*;
use vnf_highway::shmem::{SegmentKind, DEFAULT_RING_DEPTH};
use vnf_highway::testbed::Chain;
use vnf_highway::vm::FaultOp;

/// How long a probe that must arrive is waited for.
const DELIVERED: Duration = Duration::from_secs(10);

/// A converged 2-VM highway chain whose middle-seam rules are NOT yet
/// installed — each test decides when to trigger detection (and under
/// which faults) — with a controller attached to its node. Returns the
/// middle seam too.
fn deploy_without_middle_rules() -> (Chain, Connection, (u32, u32)) {
    let chain = Chain::deploy(HighwayNodeConfig::default(), 2);
    let mid = (chain.dep.vm_ports[0].1, chain.dep.vm_ports[1].0);
    // Remove the middle-seam rules deploy_chain installed (both ways).
    for port in [mid.0, mid.1] {
        chain
            .node
            .switch()
            .inject_flow_mod(&FlowMod::delete(FlowMatch::in_port(PortNo(port as u16))));
    }
    chain.node.start();
    let ctrl = chain.node.connect_controller();
    assert!(chain.node.wait_highway_converged(Duration::from_secs(15)));
    (chain, ctrl, mid)
}

fn install_middle_rule(ctrl: &Connection, mid: (u32, u32), cookie: u64) {
    ctrl.add_flow(
        FlowMatch::in_port(PortNo(mid.0 as u16)),
        100,
        vec![Action::Output(PortNo(mid.1 as u16))],
        cookie,
    )
    .unwrap();
    ctrl.barrier(Duration::from_secs(3)).unwrap();
}

fn remove_middle_rule(ctrl: &Connection, mid: (u32, u32)) {
    ctrl.del_flow_strict(FlowMatch::in_port(PortNo(mid.0 as u16)), 100)
        .unwrap();
    ctrl.barrier(Duration::from_secs(3)).unwrap();
}

#[test]
fn failed_setup_leaves_data_path_intact_and_recovers() {
    let (mut chain, ctrl, mid) = deploy_without_middle_rules();
    let journal = chain.node.journal().unwrap().clone();

    // Arm a hot-plug failure, then let the detector find the link.
    chain.node.agent().faults().arm(FaultOp::Plug, 1);
    install_middle_rule(&ctrl, mid, 0xf001);

    assert!(
        journal.wait_for(
            BypassEventKind::SetupFailed,
            mid.0,
            mid.1,
            Duration::from_secs(10)
        ),
        "setup failure recorded"
    );
    assert!(chain.node.active_links().is_empty());
    assert!(!chain.node.highway_failures().is_empty());
    // Atomicity: nothing leaked.
    assert_eq!(
        chain
            .node
            .registry()
            .live_of_kind(SegmentKind::Bypass)
            .len(),
        0
    );
    for vm in &chain.dep.vms {
        assert!(vm.plugged_devices().is_empty());
    }

    // The property that matters to tenants: traffic flows regardless,
    // through the normal path.
    chain.send_probes([1]);
    assert_eq!(
        chain.drain(1, DELIVERED),
        [1],
        "switch path unaffected by the failure"
    );

    // Recovery: the next table change re-arms the desire; no faults now.
    remove_middle_rule(&ctrl, mid);
    install_middle_rule(&ctrl, mid, 0xf002);
    assert!(chain.node.wait_highway_converged(Duration::from_secs(15)));
    assert_eq!(chain.node.active_links(), vec![(mid.0, mid.1)]);
    chain.send_probes([2]);
    assert_eq!(chain.drain(1, DELIVERED), [2], "now over the bypass");
    chain.stop();
}

#[test]
fn failed_guest_reconfiguration_rolls_back_cleanly() {
    let (mut chain, ctrl, mid) = deploy_without_middle_rules();
    let journal = chain.node.journal().unwrap().clone();

    // Fail the last serial step (enable-tx) of the fresh-pair setup:
    // map, map, enable-rx succeed; enable-tx fails.
    chain.node.agent().faults().arm_after(FaultOp::Serial, 3, 1);
    install_middle_rule(&ctrl, mid, 0xf003);
    assert!(journal.wait_for(
        BypassEventKind::SetupFailed,
        mid.0,
        mid.1,
        Duration::from_secs(10)
    ));
    // Rollback reached the guests: devices unplugged, segment released.
    assert_eq!(
        chain
            .node
            .registry()
            .live_of_kind(SegmentKind::Bypass)
            .len(),
        0
    );
    for vm in &chain.dep.vms {
        assert!(vm.plugged_devices().is_empty());
    }
    chain.send_probes([1]);
    assert_eq!(chain.drain(1, DELIVERED), [1]);

    // A retry after the rollback works — the guests' PMDs are pristine.
    remove_middle_rule(&ctrl, mid);
    install_middle_rule(&ctrl, mid, 0xf004);
    assert!(chain.node.wait_highway_converged(Duration::from_secs(15)));
    chain.send_probes([2]);
    assert_eq!(chain.drain(1, DELIVERED), [2]);
    chain.stop();
}

#[test]
fn failed_teardown_is_best_effort_and_recoverable() {
    let (mut chain, ctrl, mid) = deploy_without_middle_rules();
    let journal = chain.node.journal().unwrap().clone();

    install_middle_rule(&ctrl, mid, 0xf005);
    assert!(chain.node.wait_highway_converged(Duration::from_secs(15)));
    chain.send_probes([1]);
    assert_eq!(chain.drain(1, DELIVERED), [1]);

    // Fail the first teardown step (disable-tx), then revoke the link.
    chain.node.agent().faults().arm(FaultOp::Serial, 1);
    remove_middle_rule(&ctrl, mid);
    assert!(journal.wait_for(
        BypassEventKind::TeardownFailed,
        mid.0,
        mid.1,
        Duration::from_secs(10)
    ));
    assert!(chain.node.wait_highway_converged(Duration::from_secs(15)));
    // Best-effort teardown still cleaned the host side.
    assert!(chain.node.active_links().is_empty());
    assert_eq!(
        chain
            .node
            .registry()
            .live_of_kind(SegmentKind::Bypass)
            .len(),
        0
    );
    for vm in &chain.dep.vms {
        assert!(vm.plugged_devices().is_empty());
    }

    // And a later bypass on the same seam works from scratch.
    install_middle_rule(&ctrl, mid, 0xf006);
    assert!(chain.node.wait_highway_converged(Duration::from_secs(15)));
    assert_eq!(chain.node.active_links().len(), 1);
    chain.send_probes([2]);
    assert_eq!(chain.drain(1, DELIVERED), [2]);
    chain.stop();
}

#[test]
fn rolling_reconfiguration_leaks_no_arena_slots() {
    // Arena leak census under churn: arena-backed traffic is in flight
    // while the bypass link is repeatedly torn down (sometimes under an
    // injected fault, like a rolling VNF upgrade gone wrong) and rebuilt.
    // Whatever path each packet ends on — delivered, drained through the
    // app at teardown, or dropped in a dying ring — its slot must come
    // home to the arena.
    let (mut chain, ctrl, mid) = deploy_without_middle_rules();
    install_middle_rule(&ctrl, mid, 0x9000);
    assert!(chain.node.wait_highway_converged(Duration::from_secs(15)));

    let mut seq = 0u64;
    for round in 0..3u64 {
        // Load: a burst of arena-backed probes racing the reconfiguration.
        chain.send_probes(seq..seq + 50);
        seq += 50;
        // Odd rounds: the teardown's first serial step fails mid-flight.
        if round % 2 == 1 {
            chain.node.agent().faults().arm(FaultOp::Serial, 1);
        }
        remove_middle_rule(&ctrl, mid);
        assert!(chain.node.wait_highway_converged(Duration::from_secs(15)));
        install_middle_rule(&ctrl, mid, 0x9100 + round);
        assert!(chain.node.wait_highway_converged(Duration::from_secs(15)));
    }

    // One more burst over the link the last round left standing. The
    // racing bursts above may be lost to the last packet — a rule removed
    // over an event-driven control channel is gone within microseconds,
    // before a descheduled PMD has moved anything — and the census below
    // must also cover slots that came home by being delivered.
    let settled_from = seq;
    assert!(
        chain.entry.pending_tx() + 50 <= DEFAULT_RING_DEPTH,
        "entry ring drained by now"
    );
    chain.send_probes(seq..seq + 50);
    seq += 50;

    // Drain whatever made it through (loss across an unmap is allowed;
    // leaks are not) — but nothing sent over the settled link may be lost.
    let seqs = chain.drain(seq as usize, Duration::from_secs(3));
    let settled = seqs.iter().filter(|&&s| s >= settled_from).count();
    assert_eq!(
        settled,
        50,
        "the settled link lost traffic ({} of {seq} delivered overall)",
        seqs.len()
    );

    // Census: `stop` stops the node and drops every ring, then checks
    // that all slots came home with no foreign frees.
    drop(ctrl);
    chain.stop();
}

#[test]
fn repeated_failures_never_wedge_the_manager() {
    let (mut chain, ctrl, mid) = deploy_without_middle_rules();

    // Ten consecutive failed setups (alternating plug and serial faults).
    for round in 0..10u64 {
        if round % 2 == 0 {
            chain.node.agent().faults().arm(FaultOp::Plug, 1);
        } else {
            chain.node.agent().faults().arm(FaultOp::Serial, 1);
        }
        install_middle_rule(&ctrl, mid, 0x1000 + round);
        let deadline = Instant::now() + Duration::from_secs(10);
        while (chain.node.highway_failures().len() as u64) <= round && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        remove_middle_rule(&ctrl, mid);
    }
    assert!(chain.node.highway_failures().len() >= 10);
    assert_eq!(
        chain
            .node
            .registry()
            .live_of_kind(SegmentKind::Bypass)
            .len(),
        0
    );

    // After the storm: a clean setup still works first try.
    install_middle_rule(&ctrl, mid, 0x2000);
    assert!(chain.node.wait_highway_converged(Duration::from_secs(15)));
    assert_eq!(chain.node.active_links().len(), 1);
    chain.send_probes([99]);
    assert_eq!(chain.drain(1, DELIVERED), [99]);
    chain.stop();
}
