//! Quickstart: two VMs, one point-to-point rule, one transparent bypass.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Builds a highway-enabled node, boots two forwarder VMs, installs the
//! p-2-p steering rule through a real OpenFlow control channel, waits for
//! the bypass to come up, pushes traffic through it and shows that the
//! controller-visible statistics still count every packet.

use std::time::{Duration, Instant};
use vnf_highway::prelude::*;

fn main() {
    // A server node with the highway enabled (zero hypervisor latency so
    // the example is instant; use `HighwayNodeConfig::paper_latencies()`
    // to see the ~100 ms setup of the paper).
    let node = HighwayNode::new(HighwayNodeConfig::default());

    // Two edge dpdkr ports stand in for the traffic generator and sink.
    let (entry_no, mut entry) = node.add_edge_port("entry");
    let (exit_no, mut exit) = node.add_edge_port("exit");

    // Two VMs running the paper's forwarder application; the orchestrator
    // registers each with the compute agent as it boots it.
    let vm_a = node.orchestrator().create_vm(VnfSpec::forwarder("vm-a"), 2);
    let vm_b = node.orchestrator().create_vm(VnfSpec::forwarder("vm-b"), 2);
    node.start();

    // An ordinary OpenFlow controller installs the steering rules:
    // entry → vm-a → vm-b → exit. It has no idea the highway exists.
    let ctrl = node.connect_controller();
    let seams = [
        (entry_no, vm_a.of_ports()[0]),
        (vm_a.of_ports()[1], vm_b.of_ports()[0]),
        (vm_b.of_ports()[1], exit_no),
    ];
    for (i, (from, to)) in seams.iter().enumerate() {
        ctrl.add_flow(
            FlowMatch::in_port(PortNo(*from as u16)),
            100,
            vec![Action::Output(PortNo(*to as u16))],
            0x100 + i as u64,
        )
        .expect("flow_mod");
    }
    ctrl.barrier(Duration::from_secs(2)).expect("barrier");

    // The detector recognises the vm-a → vm-b seam as point-to-point and
    // the compute agent splices a bypass channel underneath it.
    assert!(node.wait_highway_converged(Duration::from_secs(10)));
    println!("active bypass links: {:?}", node.active_links());
    assert_eq!(node.active_links().len(), 1);

    // Push 1000 probes through the chain.
    for seq in 0..1000u64 {
        let pkt = PacketBuilder::udp_probe(64).seq(seq).build();
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
    let mut received = 0u64;
    let deadline = Instant::now() + Duration::from_secs(10);
    while received < 1000 && Instant::now() < deadline {
        match exit.recv() {
            Some(_) => received += 1,
            None => std::thread::yield_now(),
        }
    }
    println!("delivered end-to-end: {received}/1000");
    assert_eq!(received, 1000);

    // Transparency: the controller's flow statistics count the bypassed
    // packets even though the switch never forwarded them.
    let stats = ctrl.flow_stats(Duration::from_secs(2)).expect("stats");
    let middle = stats
        .iter()
        .find(|e| e.cookie == 0x101)
        .expect("middle rule");
    println!(
        "middle (bypassed) rule counters: {} packets / {} bytes",
        middle.packet_count, middle.byte_count
    );
    assert_eq!(middle.packet_count, 1000);

    // The operator view: flows, ports, and the highway's link states.
    println!("\n{}", node.status_report());

    node.stop();
    vm_a.shutdown();
    vm_b.shutdown();
    println!("quickstart OK");
}
