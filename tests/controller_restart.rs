//! Controller kill and restart in the middle of a flow-mod storm, end to
//! end: the connection's replay log re-installs every unacknowledged rule
//! over the fresh transport, the switch applies the duplicates
//! idempotently (an OpenFlow 1.0 `Add` replaces — it must NOT emit
//! `FlowRemoved`), and the highway converges as if the controller had
//! never died.

use std::collections::HashMap;
use std::time::{Duration, Instant};
use vnf_highway::openflow::{
    faulty_pair, Connection, FaultConfig, FlowMod, OfpMessage, SwitchLink,
};
use vnf_highway::prelude::*;
use vnf_highway::testbed::Chain;

/// A 2-VM chain whose middle-seam rules are stripped, so the test's own
/// controller decides when the bypass-triggering rule appears. Returns the
/// started chain and its middle seam.
fn deploy() -> (Chain, (u32, u32)) {
    let chain = Chain::deploy(HighwayNodeConfig::default(), 2);
    let mid = (chain.dep.vm_ports[0].1, chain.dep.vm_ports[1].0);
    for port in [mid.0, mid.1] {
        chain
            .node
            .switch()
            .inject_flow_mod(&FlowMod::delete(FlowMatch::in_port(PortNo(port as u16))));
    }
    chain.node.start();
    (chain, mid)
}

/// Drains the controller's async inbox, tallying `FlowRemoved` per cookie.
fn drain_flow_removed(ctrl: &Connection, into: &mut HashMap<u64, usize>) {
    while let Some(Ok((msg, _xid))) = ctrl.try_recv() {
        if let OfpMessage::FlowRemoved(fr) = msg {
            *into.entry(fr.cookie).or_insert(0) += 1;
        }
    }
}

/// Storm cookies: the bypass-triggering middle rule plus a page of
/// bystander rules on otherwise-unused ports.
const MID_COOKIE: u64 = 0xaa;
const STORM: usize = 30;

fn storm_cookie(i: usize) -> u64 {
    0x9000 + i as u64
}

#[test]
fn restart_mid_storm_replays_and_converges() {
    let (mut chain, mid) = deploy();

    // The controller speaks over a cuttable transport; the switch side is
    // attached exactly like `connect_controller` would.
    let (c_end, s_end, ctl) = faulty_pair(FaultConfig::default());
    chain
        .node
        .switch()
        .attach_controller(SwitchLink::new(Box::new(s_end)));
    let ctrl = Connection::new(Box::new(c_end));
    ctrl.handshake(Duration::from_secs(5)).expect("handshake");
    assert!(chain.node.wait_highway_converged(Duration::from_secs(15)));

    // Flow-mod storm: the middle-seam rule early on, then bystanders.
    // The transport is cut midway — a controller crash mid-storm.
    let mut failed_sends = 0usize;
    for i in 0..STORM {
        if i == STORM / 2 {
            ctl.cut();
        }
        let (fmatch, actions, cookie) = if i == 2 {
            (
                FlowMatch::in_port(PortNo(mid.0 as u16)),
                vec![Action::Output(PortNo(mid.1 as u16))],
                MID_COOKIE,
            )
        } else {
            (
                FlowMatch::in_port(PortNo(500 + i as u16)),
                vec![Action::Output(PortNo(600 + i as u16))],
                storm_cookie(i),
            )
        };
        if ctrl.add_flow(fmatch, 100, actions, cookie).is_err() {
            failed_sends += 1;
        }
    }
    assert!(failed_sends > 0, "the cut must interrupt the storm");
    assert_eq!(
        ctrl.unacked_flow_mods(),
        STORM,
        "nothing was barrier-acknowledged before the crash"
    );

    // Controller restart: fresh transport on both sides, replay of every
    // unacknowledged flow mod, fenced by an internal barrier.
    chain.node.reconnect_controller(&ctrl);
    ctrl.barrier(Duration::from_secs(5))
        .expect("post-replay barrier");
    assert_eq!(ctrl.unacked_flow_mods(), 0, "replay log retired");

    // Replayed Adds replace their earlier copies; none may surface as a
    // FlowRemoved to the controller.
    let mut removed = HashMap::new();
    drain_flow_removed(&ctrl, &mut removed);
    assert!(
        removed.is_empty(),
        "replay produced spurious FlowRemoved: {removed:?}"
    );

    // Every storm rule is installed exactly once, with the actions of its
    // one true version — no stale or duplicated state.
    let stats = ctrl.flow_stats(Duration::from_secs(5)).expect("stats");
    for i in 0..STORM {
        let (cookie, want_out) = if i == 2 {
            (MID_COOKIE, mid.1 as u16)
        } else {
            (storm_cookie(i), 600 + i as u16)
        };
        let matching: Vec<_> = stats.iter().filter(|e| e.cookie == cookie).collect();
        assert_eq!(matching.len(), 1, "cookie {cookie:#x} must appear once");
        assert_eq!(
            matching[0].actions,
            vec![Action::Output(PortNo(want_out))],
            "stale actions for cookie {cookie:#x}"
        );
    }

    // The highway saw the replayed middle rule and spliced the bypass.
    assert!(chain.node.wait_highway_converged(Duration::from_secs(15)));
    assert_eq!(chain.node.active_links(), vec![mid]);
    chain.send_probes([1]);
    assert_eq!(
        chain.drain(1, Duration::from_secs(10)),
        [1],
        "traffic over the replayed chain"
    );

    // Deleting everything yields exactly one FlowRemoved per cookie: the
    // replay really did not leave hidden duplicates behind.
    ctrl.send(&OfpMessage::FlowMod(FlowMod::delete_strict(
        FlowMatch::in_port(PortNo(mid.0 as u16)),
        100,
    )))
    .unwrap();
    for i in (0..STORM).filter(|&i| i != 2) {
        ctrl.send(&OfpMessage::FlowMod(FlowMod::delete_strict(
            FlowMatch::in_port(PortNo(500 + i as u16)),
            100,
        )))
        .unwrap();
    }
    ctrl.barrier(Duration::from_secs(5))
        .expect("delete barrier");
    let mut removed = HashMap::new();
    let deadline = Instant::now() + Duration::from_secs(5);
    while removed.len() < STORM && Instant::now() < deadline {
        drain_flow_removed(&ctrl, &mut removed);
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(removed.len(), STORM, "one FlowRemoved per deleted cookie");
    for (cookie, n) in &removed {
        assert_eq!(*n, 1, "cookie {cookie:#x} removed {n} times");
    }

    chain.stop();
}

/// A second, sharper angle on the same property: two crashes in a row
/// (the replay itself is interrupted) still converge — the log survives
/// until a barrier retires it.
#[test]
fn replay_survives_a_second_crash() {
    let (chain, _) = deploy();

    let (c_end, s_end, ctl) = faulty_pair(FaultConfig::default());
    chain
        .node
        .switch()
        .attach_controller(SwitchLink::new(Box::new(s_end)));
    let ctrl = Connection::new(Box::new(c_end));
    ctrl.handshake(Duration::from_secs(5)).expect("handshake");

    for i in 0..4 {
        let _ = ctrl.add_flow(
            FlowMatch::in_port(PortNo(700 + i as u16)),
            90,
            vec![Action::Output(PortNo(800 + i as u16))],
            0xb000 + i as u64,
        );
    }
    ctl.cut();

    // First restart over another cuttable link, cut again immediately:
    // the replayed mods go into the void (or partially arrive).
    let (c2, s2, ctl2) = faulty_pair(FaultConfig::default());
    chain
        .node
        .switch()
        .attach_controller(SwitchLink::new(Box::new(s2)));
    ctrl.reconnect(Box::new(c2));
    ctl2.cut();
    assert_eq!(ctrl.unacked_flow_mods(), 4, "log intact after second cut");

    // Second restart over a healthy link finally lands everything.
    chain.node.reconnect_controller(&ctrl);
    ctrl.barrier(Duration::from_secs(5)).expect("final barrier");
    assert_eq!(ctrl.unacked_flow_mods(), 0);
    let stats = ctrl.flow_stats(Duration::from_secs(5)).expect("stats");
    for i in 0..4u64 {
        assert_eq!(
            stats.iter().filter(|e| e.cookie == 0xb000 + i).count(),
            1,
            "cookie {:#x} must appear exactly once",
            0xb000 + i
        );
    }

    chain.stop();
}
