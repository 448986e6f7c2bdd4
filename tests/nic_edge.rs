//! Functional twin of Figure 3(b)'s topology: a chain fed and drained
//! through two 10 G NIC ports, with a rate-limited traffic generator and
//! a measuring sink — the full E2 data path exercised end to end in both
//! modes (correctness, not throughput: `benchmark/README.md` covers the
//! measured runs).
//!
//! A NIC port is a dpdkr channel like a VM's: the chain's entry and exit
//! edge ports are its two NIC ports. The generator and the sink hold their
//! outside ends and pace them with a `WirePacer` each, at 10 G line rate.

use std::time::{Duration, Instant};
use vnf_highway::nic::{LineRate, TrafficGen, TrafficSink, WirePacer};
use vnf_highway::prelude::*;
use vnf_highway::testbed::Chain;

fn run(n_vms: usize, highway: bool) -> TrafficSink {
    const N: u64 = 500;
    let mut chain = Chain::build(
        if highway {
            HighwayNodeConfig::default()
        } else {
            HighwayNodeConfig::vanilla()
        },
        n_vms,
    );
    let mut pace_in = WirePacer::new(LineRate::TEN_G, None);
    let mut pace_out = WirePacer::new(LineRate::TEN_G, None);
    // Paced generation: far below line rate so nothing is dropped and the
    // functional check is exact.
    let mut gen = TrafficGen::new(64, 4).with_rate(200_000.0);
    let mut sink = TrafficSink::new();
    let mut burst = Vec::with_capacity(32);
    // Frames off the switch; the egress pacer lets a prefix onto the wire
    // and the rest waits here, in order.
    let mut egress = Vec::with_capacity(64);
    let mut wire_drops = 0u64;
    let deadline = Instant::now() + Duration::from_secs(30);
    while sink.received < N && Instant::now() < deadline {
        if gen.generated < N {
            burst.clear();
            let want = ((N - gen.generated) as usize).min(32);
            let generated = gen.gen_burst(&mut burst, want);
            // Beyond line rate, or into a full ring, a frame is lost.
            let admitted = pace_in.admit(&burst);
            burst.truncate(admitted);
            let sent = chain.entry.send_burst(&mut burst);
            wire_drops += (generated - sent) as u64;
        }
        chain.exit.recv_burst(&mut egress, 32);
        let n = pace_out.admit(&egress);
        let mut onto_wire: Vec<Mbuf> = egress.drain(..n).collect();
        sink.consume(&mut onto_wire);
        std::thread::yield_now();
    }
    assert_eq!(
        sink.received, N,
        "all generated frames must cross the chain (n={n_vms}, highway={highway})"
    );
    assert_eq!(sink.lost(), 0);
    assert_eq!(wire_drops, 0, "the wire side counted no drop at this rate");
    if highway && n_vms >= 2 {
        // Inner seams bypassed: the switch saw only the NIC-edge seams.
        let inner_egress = chain.dep.vm_ports[0].1;
        let port = chain
            .node
            .switch()
            .datapath()
            .port(PortNo(inner_egress as u16))
            .unwrap();
        assert_eq!(port.stats().ipackets, 0);
    }
    chain.stop();
    sink
}

#[test]
fn nic_edged_chain_of_1_both_modes() {
    run(1, false);
    run(1, true);
}

#[test]
fn nic_edged_chain_of_2_both_modes() {
    run(2, false);
    run(2, true);
}

#[test]
fn nic_edged_chain_of_3_highway() {
    let sink = run(3, true);
    // Latency probes were stamped at the generator and measured at the
    // sink; the histogram must hold every delivered packet.
    assert_eq!(sink.latency().count(), 500);
    assert!(sink.latency().mean() > 0);
}
