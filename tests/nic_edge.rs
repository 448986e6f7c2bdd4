//! Functional twin of Figure 3(b)'s topology: a chain fed and drained
//! through two 10 G NIC ports, with a rate-limited traffic generator and
//! a measuring sink — the full E2 data path exercised end to end in both
//! modes (correctness, not throughput: `benchmark/README.md` covers the
//! measured runs).
//!
//! A NIC port is a dpdkr channel like a VM's. The generator and the sink
//! hold its wire end and pace it with a `WirePacer` at 10 G line rate.

use std::time::{Duration, Instant};
use vnf_highway::nic::{LineRate, TrafficGen, TrafficSink, WirePacer};
use vnf_highway::prelude::*;
use vnf_highway::shmem::{channel, ChannelEnd, DEFAULT_RING_DEPTH};

/// The wire end of a NIC port.
struct Wire {
    end: ChannelEnd,
    pacer: WirePacer,
}

/// Adds a 10 G NIC port to the switch; returns its number and wire end.
fn nic_port(node: &HighwayNode, name: &str) -> (u32, Wire) {
    let no = node.orchestrator().alloc_port();
    let (sw_end, end) = channel(name, DEFAULT_RING_DEPTH);
    node.switch()
        .add_dpdkr_port(PortNo(no as u16), name, sw_end);
    let pacer = WirePacer::new(LineRate::TEN_G, None);
    (no, Wire { end, pacer })
}

struct World {
    node: HighwayNode,
    wire_in: Wire,
    wire_out: Wire,
    dep: vnf_highway::vm::ChainDeployment,
}

fn deploy(n_vms: usize, highway: bool) -> World {
    let node = HighwayNode::new(if highway {
        HighwayNodeConfig::default()
    } else {
        HighwayNodeConfig::vanilla()
    });

    let (in_no, wire_in) = nic_port(&node, "nic-in");
    let (out_no, wire_out) = nic_port(&node, "nic-out");
    let dep = node.orchestrator().deploy_chain(n_vms, in_no, out_no, |i| {
        VnfSpec::forwarder(format!("vm{i}"))
    });
    for vm in &dep.vms {
        node.register_vm(vm.clone());
    }
    node.start();
    assert!(node.wait_highway_converged(Duration::from_secs(15)));
    World {
        node,
        wire_in,
        wire_out,
        dep,
    }
}

fn run(n_vms: usize, highway: bool) -> TrafficSink {
    const N: u64 = 500;
    let mut w = deploy(n_vms, highway);
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
            let admitted = w.wire_in.pacer.admit(&burst);
            burst.truncate(admitted);
            let sent = w.wire_in.end.send_burst(&mut burst);
            wire_drops += (generated - sent) as u64;
        }
        w.wire_out.end.recv_burst(&mut egress, 32);
        let n = w.wire_out.pacer.admit(&egress);
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
        let inner_egress = w.dep.vm_ports[0].1;
        let port = w
            .node
            .switch()
            .datapath()
            .port(PortNo(inner_egress as u16))
            .unwrap();
        assert_eq!(port.stats().ipackets, 0);
    }
    w.node.stop();
    for vm in &w.dep.vms {
        vm.shutdown();
    }
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
