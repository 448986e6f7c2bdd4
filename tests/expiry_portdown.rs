//! Dynamicity beyond explicit flow_mods: the flow table also changes when
//! rules *expire* and when the controller flips a port's admin state. In
//! both cases the highway must notice and revert to the normal path —
//! otherwise a bypass would keep delivering traffic the switch would have
//! stopped, silently breaking the forwarding semantics the controller
//! believes it installed.

use std::time::{Duration, Instant};
use vnf_highway::highway::BypassEventKind;
use vnf_highway::openflow::messages::{FlowMod, OfpMessage};
use vnf_highway::openflow::Connection;
use vnf_highway::prelude::*;
use vnf_highway::shmem::SegmentKind;
use vnf_highway::testbed::Chain;

/// A converged 2-VM highway chain and a controller attached to its node.
fn deploy() -> (Chain, Connection) {
    let chain = Chain::build(HighwayNodeConfig::default(), 2);
    let ctrl = chain.node.connect_controller();
    (chain, ctrl)
}

/// How long a probe that must not arrive is waited for.
const NOT_DELIVERED: Duration = Duration::from_millis(300);
/// How long a probe that must arrive is waited for.
const DELIVERED: Duration = Duration::from_secs(10);

#[test]
fn hard_timeout_expiry_tears_down_the_bypass() {
    let (mut chain, ctrl) = deploy();
    let (mid_src, mid_dst) = (chain.dep.vm_ports[0].1, chain.dep.vm_ports[1].0);
    assert!(chain.node.active_links().contains(&(mid_src, mid_dst)));

    // Replace the middle forward rule with one that expires in 2 s. (The
    // replace itself churns the bypass; wait for re-convergence.)
    let mut fm = FlowMod::add(
        FlowMatch::in_port(PortNo(mid_src as u16)),
        100,
        vec![Action::Output(PortNo(mid_dst as u16))],
    )
    .with_cookie(0xdead);
    fm.hard_timeout = 2;
    ctrl.send(&OfpMessage::FlowMod(fm)).unwrap();
    ctrl.barrier(Duration::from_secs(3)).unwrap();
    assert!(chain.node.wait_highway_converged(Duration::from_secs(15)));
    chain.send_probes([1]);
    assert_eq!(chain.drain(1, DELIVERED), [1], "traffic flows pre-expiry");

    // Wait out the timeout (the vswitchd housekeeping loop sweeps every
    // 100 ms). The rule vanishes ⇒ the detector revokes the link ⇒ the
    // bypass is dismantled without any controller involvement.
    let deadline = Instant::now() + Duration::from_secs(10);
    while chain.node.active_links().contains(&(mid_src, mid_dst)) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        !chain.node.active_links().contains(&(mid_src, mid_dst)),
        "bypass must die with its rule"
    );
    assert!(chain.node.journal().unwrap().wait_for(
        BypassEventKind::Removed,
        mid_src,
        mid_dst,
        Duration::from_secs(10)
    ));

    // The FlowRemoved for the expired rule reached the controller with
    // the bypassed packet counted.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut removed = None;
    while removed.is_none() && Instant::now() < deadline {
        match ctrl.try_recv() {
            Some(Ok((OfpMessage::FlowRemoved(fr), _))) if fr.cookie == 0xdead => removed = Some(fr),
            Some(_) => {}
            None => std::thread::yield_now(),
        }
    }
    let fr = removed.expect("FlowRemoved for the expired rule");
    assert_eq!(fr.packet_count, 1, "the bypassed packet is in the count");

    // With no middle rule, forward traffic is dropped at the switch — by
    // the *normal* path, proving the bypass is really gone.
    chain.send_probes([2]);
    assert!(chain.drain(1, NOT_DELIVERED).is_empty());
    chain.stop();
}

#[test]
fn bypassed_traffic_defeats_idle_expiry() {
    // A fully bypassed rule generates no switch-side hits. If the idle
    // sweep only watched switch counters it would expire the rule while
    // traffic is flowing — tearing down the fast path and then
    // blackholing the flow. The sweep must read the shared stats region.
    let (mut chain, ctrl) = deploy();
    let (mid_src, mid_dst) = (chain.dep.vm_ports[0].1, chain.dep.vm_ports[1].0);

    // Replace the middle rule with one that idles out after 1 s.
    let mut fm = FlowMod::add(
        FlowMatch::in_port(PortNo(mid_src as u16)),
        100,
        vec![Action::Output(PortNo(mid_dst as u16))],
    )
    .with_cookie(0x1d1e);
    fm.idle_timeout = 1;
    ctrl.send(&OfpMessage::FlowMod(fm)).unwrap();
    ctrl.barrier(Duration::from_secs(3)).unwrap();
    assert!(chain.node.wait_highway_converged(Duration::from_secs(15)));
    assert!(chain.node.active_links().contains(&(mid_src, mid_dst)));

    // Keep traffic flowing over the bypass for 2.5 s — well past the
    // idle timeout. Every packet crosses the bypass, none the switch.
    let start = Instant::now();
    let mut seq = 0u64;
    while start.elapsed() < Duration::from_millis(2_500) {
        chain.send_probes([seq]);
        assert_eq!(
            chain.drain(1, DELIVERED),
            [seq],
            "flow must stay alive at t={:?}",
            start.elapsed()
        );
        seq += 1;
        std::thread::sleep(Duration::from_millis(100));
    }
    // The rule survived (and so did the bypass).
    assert!(
        chain.node.active_links().contains(&(mid_src, mid_dst)),
        "busy bypassed rule must not idle out"
    );

    // Now actually go idle: the rule expires and the bypass follows.
    let deadline = Instant::now() + Duration::from_secs(10);
    while chain.node.active_links().contains(&(mid_src, mid_dst)) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(
        !chain.node.active_links().contains(&(mid_src, mid_dst)),
        "idle rule expires once traffic really stops"
    );
    chain.stop();
}

#[test]
fn port_down_reverts_to_normal_path_and_up_restores() {
    let (mut chain, ctrl) = deploy();
    let mid_dst = chain.dep.vm_ports[1].0;
    assert_eq!(chain.node.active_links().len(), 2, "both middle directions");
    assert_eq!(
        chain
            .node
            .registry()
            .live_of_kind(SegmentKind::Bypass)
            .len(),
        1
    );

    // The controller disables the second VM's ingress port. Both bypass
    // directions touch it, so both must be dismantled — even though every
    // steering rule is still installed.
    ctrl.set_port_down(PortNo(mid_dst as u16), true).unwrap();
    ctrl.barrier(Duration::from_secs(3)).unwrap();
    assert!(chain.node.wait_highway_converged(Duration::from_secs(15)));
    assert!(
        chain.node.active_links().is_empty(),
        "links vetoed by port state"
    );
    assert_eq!(
        chain
            .node
            .registry()
            .live_of_kind(SegmentKind::Bypass)
            .len(),
        0,
        "segment released"
    );

    // Traffic now takes the normal path and dies at the down port,
    // exactly as the controller intended.
    let drops_before = chain
        .node
        .switch()
        .datapath()
        .port(PortNo(mid_dst as u16))
        .unwrap()
        .stats()
        .odropped;
    chain.send_probes([10]);
    assert!(chain.drain(1, NOT_DELIVERED).is_empty());
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let drops = chain
            .node
            .switch()
            .datapath()
            .port(PortNo(mid_dst as u16))
            .unwrap()
            .stats()
            .odropped;
        if drops > drops_before {
            break;
        }
        assert!(Instant::now() < deadline, "switch never dropped the packet");
        std::thread::yield_now();
    }

    // Port back up: the link is re-detected from the cached flow table
    // (no flow_mod needed) and traffic resumes end to end.
    ctrl.set_port_down(PortNo(mid_dst as u16), false).unwrap();
    ctrl.barrier(Duration::from_secs(3)).unwrap();
    assert!(chain.node.wait_highway_converged(Duration::from_secs(15)));
    assert_eq!(chain.node.active_links().len(), 2);
    chain.send_probes([11]);
    assert_eq!(chain.drain(1, DELIVERED), [11]);

    // The controller observed both transitions as PortStatus messages.
    let statuses = ctrl.drain_port_status();
    let downs = statuses.iter().filter(|s| s.down).count();
    let ups = statuses
        .iter()
        .filter(|s| !s.down && s.port_no == mid_dst as u16)
        .count();
    assert!(downs >= 1, "down transition announced");
    assert!(ups >= 1, "up transition announced");
    chain.stop();
}
