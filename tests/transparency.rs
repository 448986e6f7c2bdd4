//! The paper's transparency invariants (§1, §2), verified over the real
//! OpenFlow wire:
//!
//! 1. flow statistics are identical with the highway on or off;
//! 2. port statistics are identical with the highway on or off;
//! 3. `FlowRemoved` reports full counters even for bypassed rules;
//! 4. `packet-out` reaches a port whose data path is bypassed.

use std::time::{Duration, Instant};
use vnf_highway::openflow::messages::OfpMessage;
use vnf_highway::openflow::Connection;
use vnf_highway::prelude::*;
use vnf_highway::testbed::Chain;

/// A converged 2-VM chain and a controller attached to its node.
fn deploy(highway: bool) -> (Chain, Connection) {
    let chain = Chain::build(
        if highway {
            HighwayNodeConfig::default()
        } else {
            HighwayNodeConfig::vanilla()
        },
        2,
    );
    let ctrl = chain.node.connect_controller();
    (chain, ctrl)
}

/// Sends `n` probes through the chain and waits until all arrived.
fn run_traffic(chain: &mut Chain, n: u64) {
    chain.send_probes(0..n);
    assert_eq!(
        chain.drain(n as usize, Duration::from_secs(20)).len() as u64,
        n
    );
}

#[test]
fn flow_and_port_stats_are_mode_invariant() {
    const N: u64 = 300;
    let observe = |highway: bool| {
        let (mut chain, ctrl) = deploy(highway);
        run_traffic(&mut chain, N);
        let mut flows = ctrl.flow_stats(Duration::from_secs(3)).unwrap();
        flows.sort_by_key(|e| e.cookie);
        let mut ports = ctrl.port_stats(Duration::from_secs(3)).unwrap();
        ports.sort_by_key(|e| e.port_no);
        chain.stop();
        (flows, ports)
    };
    let (vf, vp) = observe(false);
    let (hf, hp) = observe(true);

    assert_eq!(vf.len(), hf.len());
    for (v, h) in vf.iter().zip(&hf) {
        assert_eq!(v.cookie, h.cookie);
        assert_eq!(
            (v.packet_count, v.byte_count),
            (h.packet_count, h.byte_count),
            "flow {:#x} differs between modes",
            v.cookie
        );
    }
    assert_eq!(vp.len(), hp.len());
    for (v, h) in vp.iter().zip(&hp) {
        assert_eq!(v.port_no, h.port_no);
        assert_eq!(
            (v.rx_packets, v.tx_packets, v.rx_bytes, v.tx_bytes),
            (h.rx_packets, h.tx_packets, h.rx_bytes, h.tx_bytes),
            "port {} differs between modes",
            v.port_no
        );
    }
}

#[test]
fn bypassed_flow_counters_are_exact() {
    const N: u64 = 250;
    let (mut chain, ctrl) = deploy(true);
    run_traffic(&mut chain, N);
    let flows = ctrl.flow_stats(Duration::from_secs(3)).unwrap();
    // The middle seam rule (vm0.out → vm1.in) was fully bypassed, yet its
    // counters are exact.
    let middle_cookie = chain.dep.forward_cookies[1];
    let middle = flows
        .iter()
        .find(|e| e.cookie == middle_cookie)
        .expect("middle rule present");
    assert_eq!(middle.packet_count, N);
    assert_eq!(middle.byte_count, N * 64);
    chain.stop();
}

#[test]
fn flow_removed_includes_bypassed_counters() {
    const N: u64 = 120;
    let (mut chain, ctrl) = deploy(true);
    run_traffic(&mut chain, N);

    // Strict-delete the bypassed middle rule.
    let (from, _to) = (chain.dep.vm_ports[0].1, chain.dep.vm_ports[1].0);
    ctrl.del_flow_strict(FlowMatch::in_port(PortNo(from as u16)), 100)
        .unwrap();
    ctrl.barrier(Duration::from_secs(3)).unwrap();

    // The FlowRemoved notification must carry the full (bypassed) count.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut found = None;
    while found.is_none() && Instant::now() < deadline {
        match ctrl.try_recv() {
            Some(Ok((OfpMessage::FlowRemoved(fr), _xid))) => found = Some(fr),
            Some(_) => {}
            None => std::thread::yield_now(),
        }
    }
    let fr = found.expect("FlowRemoved received");
    assert_eq!(fr.packet_count, N);
    assert_eq!(fr.byte_count, N * 64);
    chain.stop();
}

#[test]
fn packet_out_reaches_bypassed_port() {
    let (mut chain, ctrl) = deploy(true);
    assert!(!chain.node.active_links().is_empty(), "bypass is up");

    // Packet-out into the first VM: travels the chain to the exit port
    // even though that VM's egress is served by a bypass channel.
    let vm0_in = chain.dep.vm_ports[0].0;
    ctrl.packet_out(
        PacketBuilder::udp_probe(64).seq(42).build(),
        vec![Action::Output(PortNo(vm0_in as u16))],
    )
    .unwrap();
    ctrl.barrier(Duration::from_secs(3)).unwrap();

    assert_eq!(
        chain.drain(1, Duration::from_secs(10)),
        [42],
        "packet-out crossed the (bypassed) chain"
    );
    chain.stop();
}

#[test]
fn features_reply_hides_the_highway() {
    // The port list the controller sees is identical in both modes.
    let view = |highway: bool| {
        let (chain, ctrl) = deploy(highway);
        let xid = ctrl.send(&OfpMessage::FeaturesRequest).unwrap();
        let reply = ctrl.wait_reply(xid, Duration::from_secs(3)).unwrap();
        chain.stop();
        match reply {
            OfpMessage::FeaturesReply { ports, .. } => ports,
            other => panic!("unexpected {other:?}"),
        }
    };
    assert_eq!(view(false), view(true));
}
