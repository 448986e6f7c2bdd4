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
use vnf_highway::prelude::*;
use vnf_highway::shmem::{ChannelEnd, SegmentKind};
use vnf_highway::vm::FaultOp;

struct World {
    node: HighwayNode,
    ctrl: vnf_highway::openflow::Connection,
    entry: ChannelEnd,
    exit: ChannelEnd,
    dep: vnf_highway::vm::ChainDeployment,
    mid: (u32, u32),
}

/// A 2-VM highway chain whose middle-seam rules are NOT yet installed —
/// each test decides when to trigger detection (and under which faults).
fn deploy_without_middle_rules() -> World {
    let node = HighwayNode::new(HighwayNodeConfig::default());
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
    let dep = node.orchestrator().deploy_chain(2, entry_no, exit_no, |i| {
        VnfSpec::forwarder(format!("vm{i}"))
    });
    for vm in &dep.vms {
        node.register_vm(vm.clone());
    }
    let mid = (dep.vm_ports[0].1, dep.vm_ports[1].0);
    // Remove the middle-seam rules deploy_chain installed (both ways).
    node.switch()
        .inject_flow_mod(&vnf_highway::openflow::FlowMod::delete(FlowMatch::in_port(
            PortNo(mid.0 as u16),
        )));
    node.switch()
        .inject_flow_mod(&vnf_highway::openflow::FlowMod::delete(FlowMatch::in_port(
            PortNo(mid.1 as u16),
        )));
    node.start();
    let ctrl = node.connect_controller();
    assert!(node.wait_highway_converged(Duration::from_secs(15)));
    World {
        node,
        ctrl,
        entry,
        exit,
        dep,
        mid,
    }
}

fn install_middle_rule(w: &World, cookie: u64) {
    w.ctrl
        .add_flow(
            FlowMatch::in_port(PortNo(w.mid.0 as u16)),
            100,
            vec![Action::Output(PortNo(w.mid.1 as u16))],
            cookie,
        )
        .unwrap();
    w.ctrl.barrier(Duration::from_secs(3)).unwrap();
}

fn remove_middle_rule(w: &World) {
    w.ctrl
        .del_flow_strict(FlowMatch::in_port(PortNo(w.mid.0 as u16)), 100)
        .unwrap();
    w.ctrl.barrier(Duration::from_secs(3)).unwrap();
}

fn traffic_flows(w: &mut World, seq: u64) -> bool {
    let m = Mbuf::from_slice(&PacketBuilder::udp_probe(64).seq(seq).build());
    w.entry.send(m).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        if let Some(m) = w.exit.recv() {
            assert_eq!(ProbeHeader::from_frame(m.data()).unwrap().seq, seq);
            return true;
        }
        std::thread::yield_now();
    }
    false
}

fn teardown(w: World) {
    w.node.stop();
    for vm in &w.dep.vms {
        vm.shutdown();
    }
}

#[test]
fn failed_setup_leaves_data_path_intact_and_recovers() {
    let mut w = deploy_without_middle_rules();
    let journal = w.node.journal().unwrap().clone();

    // Arm a hot-plug failure, then let the detector find the link.
    w.node.agent().faults().arm(FaultOp::Plug, 1);
    install_middle_rule(&w, 0xf001);

    assert!(
        journal.wait_for(
            BypassEventKind::SetupFailed,
            w.mid.0,
            w.mid.1,
            Duration::from_secs(10)
        ),
        "setup failure recorded"
    );
    assert!(w.node.active_links().is_empty());
    assert!(!w.node.highway_failures().is_empty());
    // Atomicity: nothing leaked.
    assert_eq!(w.node.registry().live_of_kind(SegmentKind::Bypass).len(), 0);
    for vm in &w.dep.vms {
        assert!(vm.plugged_devices().is_empty());
    }

    // The property that matters to tenants: traffic flows regardless,
    // through the normal path.
    assert!(
        traffic_flows(&mut w, 1),
        "switch path unaffected by the failure"
    );

    // Recovery: the next table change re-arms the desire; no faults now.
    remove_middle_rule(&w);
    install_middle_rule(&w, 0xf002);
    assert!(w.node.wait_highway_converged(Duration::from_secs(15)));
    assert_eq!(w.node.active_links(), vec![(w.mid.0, w.mid.1)]);
    assert!(traffic_flows(&mut w, 2), "now over the bypass");
    teardown(w);
}

#[test]
fn failed_guest_reconfiguration_rolls_back_cleanly() {
    let mut w = deploy_without_middle_rules();
    let journal = w.node.journal().unwrap().clone();

    // Fail the last serial step (enable-tx) of the fresh-pair setup:
    // map, map, enable-rx succeed; enable-tx fails.
    w.node.agent().faults().arm_after(FaultOp::Serial, 3, 1);
    install_middle_rule(&w, 0xf003);
    assert!(journal.wait_for(
        BypassEventKind::SetupFailed,
        w.mid.0,
        w.mid.1,
        Duration::from_secs(10)
    ));
    // Rollback reached the guests: devices unplugged, segment released.
    assert_eq!(w.node.registry().live_of_kind(SegmentKind::Bypass).len(), 0);
    for vm in &w.dep.vms {
        assert!(vm.plugged_devices().is_empty());
    }
    assert!(traffic_flows(&mut w, 1));

    // A retry after the rollback works — the guests' PMDs are pristine.
    remove_middle_rule(&w);
    install_middle_rule(&w, 0xf004);
    assert!(w.node.wait_highway_converged(Duration::from_secs(15)));
    assert!(traffic_flows(&mut w, 2));
    teardown(w);
}

#[test]
fn failed_teardown_is_best_effort_and_recoverable() {
    let mut w = deploy_without_middle_rules();
    let journal = w.node.journal().unwrap().clone();

    install_middle_rule(&w, 0xf005);
    assert!(w.node.wait_highway_converged(Duration::from_secs(15)));
    assert!(traffic_flows(&mut w, 1));

    // Fail the first teardown step (disable-tx), then revoke the link.
    w.node.agent().faults().arm(FaultOp::Serial, 1);
    remove_middle_rule(&w);
    assert!(journal.wait_for(
        BypassEventKind::TeardownFailed,
        w.mid.0,
        w.mid.1,
        Duration::from_secs(10)
    ));
    assert!(w.node.wait_highway_converged(Duration::from_secs(15)));
    // Best-effort teardown still cleaned the host side.
    assert!(w.node.active_links().is_empty());
    assert_eq!(w.node.registry().live_of_kind(SegmentKind::Bypass).len(), 0);
    for vm in &w.dep.vms {
        assert!(vm.plugged_devices().is_empty());
    }

    // And a later bypass on the same seam works from scratch.
    install_middle_rule(&w, 0xf006);
    assert!(w.node.wait_highway_converged(Duration::from_secs(15)));
    assert_eq!(w.node.active_links().len(), 1);
    assert!(traffic_flows(&mut w, 2));
    teardown(w);
}

#[test]
fn rolling_reconfiguration_leaks_no_arena_slots() {
    // Arena leak census under churn: arena-backed traffic is in flight
    // while the bypass link is repeatedly torn down (sometimes under an
    // injected fault, like a rolling VNF upgrade gone wrong) and rebuilt.
    // Whatever path each packet ends on — delivered, drained through the
    // app at teardown, or dropped in a dying ring — its slot must come
    // home to the arena.
    let mut w = deploy_without_middle_rules();
    let arena = w.node.registry().hugepage_arena();
    install_middle_rule(&w, 0x9000);
    assert!(w.node.wait_highway_converged(Duration::from_secs(15)));

    let mut seq = 0u64;
    for round in 0..3u64 {
        // Load: a burst of arena-backed probes racing the reconfiguration.
        for _ in 0..50 {
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
            seq += 1;
        }
        // Odd rounds: the teardown's first serial step fails mid-flight.
        if round % 2 == 1 {
            w.node.agent().faults().arm(FaultOp::Serial, 1);
        }
        remove_middle_rule(&w);
        assert!(w.node.wait_highway_converged(Duration::from_secs(15)));
        install_middle_rule(&w, 0x9100 + round);
        assert!(w.node.wait_highway_converged(Duration::from_secs(15)));
    }

    // One more burst over the link the last round left standing. The
    // racing bursts above may be lost to the last packet — a rule removed
    // over an event-driven control channel is gone within microseconds,
    // before a descheduled PMD has moved anything — and the census below
    // must also cover slots that came home by being delivered.
    let settled_from = seq;
    for _ in 0..50 {
        let pkt = PacketBuilder::udp_probe(64).seq(seq).build();
        let m = Mbuf::from_arena(arena.alloc_from(&pkt).expect("arena sized for the test"));
        w.entry.send(m).expect("entry ring drained by now");
        seq += 1;
    }

    // Drain whatever made it through (loss across an unmap is allowed;
    // leaks are not) — but nothing sent over the settled link may be lost.
    let quiet = Instant::now() + Duration::from_secs(3);
    let (mut delivered, mut settled) = (0u64, 0u64);
    while Instant::now() < quiet {
        match w.exit.recv() {
            Some(m) => {
                delivered += 1;
                if ProbeHeader::from_frame(m.data()).unwrap().seq >= settled_from {
                    settled += 1;
                }
            }
            None => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    assert_eq!(
        settled, 50,
        "the settled link lost traffic ({delivered} of {seq} delivered overall)"
    );

    // Census: stop the node, drop every ring — all slots home, no foreign
    // frees.
    let node = w.node;
    drop(w.entry);
    drop(w.exit);
    node.stop();
    for vm in &w.dep.vms {
        vm.shutdown();
    }
    drop(w.dep);
    drop(w.ctrl);
    drop(node);
    assert_eq!(arena.in_use(), 0, "arena slots leaked: {:?}", arena.stats());
    assert_eq!(arena.stats().foreign_frees, 0);
}

#[test]
fn repeated_failures_never_wedge_the_manager() {
    let mut w = deploy_without_middle_rules();

    // Ten consecutive failed setups (alternating plug and serial faults).
    for round in 0..10u64 {
        if round % 2 == 0 {
            w.node.agent().faults().arm(FaultOp::Plug, 1);
        } else {
            w.node.agent().faults().arm(FaultOp::Serial, 1);
        }
        install_middle_rule(&w, 0x1000 + round);
        let deadline = Instant::now() + Duration::from_secs(10);
        while (w.node.highway_failures().len() as u64) <= round && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        remove_middle_rule(&w);
    }
    assert!(w.node.highway_failures().len() >= 10);
    assert_eq!(w.node.registry().live_of_kind(SegmentKind::Bypass).len(), 0);

    // After the storm: a clean setup still works first try.
    install_middle_rule(&w, 0x2000);
    assert!(w.node.wait_highway_converged(Duration::from_secs(15)));
    assert_eq!(w.node.active_links().len(), 1);
    assert!(traffic_flows(&mut w, 99));
    teardown(w);
}
