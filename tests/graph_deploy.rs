//! The paper's motivating service graph (Figure 1a) on a highway node:
//! firewall → monitor, with web traffic detouring through a cache. Only
//! the seams that are *pure* point-to-point links may be accelerated — the
//! monitor's egress carries a web/non-web split and must stay on the
//! switch. This is the scenario that separates the detector from a naive
//! "bypass everything" design.

use std::net::Ipv4Addr;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};
use vnf_highway::prelude::*;
use vnf_highway::shmem::{ChannelEnd, SegmentKind};
use vnf_highway::vm::{AppKind, GraphDeployment, GraphEdgeSpec, GraphPort, GraphSpec};
use vnf_highway::vnf::{Nat44, Verdict, VnfApp};

struct World {
    node: HighwayNode,
    entry: ChannelEnd,
    exit: ChannelEnd,
    dep: GraphDeployment,
}

fn deploy_figure1(highway: bool) -> World {
    // External ports are not VM-backed: the manager defers the edge seams
    // and never tries them.
    let node = HighwayNode::new(HighwayNodeConfig {
        highway_enabled: highway,
        ..HighwayNodeConfig::default()
    });
    let (entry_no, entry) = node.add_edge_port("entry");
    let (exit_no, exit) = node.add_edge_port("exit");

    let mut web = FlowMatch::any();
    web.ip_proto = Some(17);
    web.l4_dst = Some(80);

    let fw_in = GraphPort::Vnf { node: 0, port: 0 };
    let fw_out = GraphPort::Vnf { node: 0, port: 1 };
    let mon_in = GraphPort::Vnf { node: 1, port: 0 };
    let mon_out = GraphPort::Vnf { node: 1, port: 1 };
    let cache_in = GraphPort::Vnf { node: 2, port: 0 };
    let cache_out = GraphPort::Vnf { node: 2, port: 1 };

    let dep = node.orchestrator().deploy_graph(GraphSpec {
        vnfs: vec![
            (
                VnfSpec {
                    name: "firewall".into(),
                    app: AppKind::Firewall(vec![
                        FirewallRule::deny_dst_port(23), // telnet stays dead
                        FirewallRule::any(true),
                    ]),
                },
                2,
            ),
            (
                VnfSpec {
                    name: "monitor".into(),
                    app: AppKind::Monitor,
                },
                2,
            ),
            (
                VnfSpec {
                    name: "cache".into(),
                    app: AppKind::WebCache,
                },
                2,
            ),
        ],
        edges: vec![
            GraphEdgeSpec::all(GraphPort::External(entry_no), fw_in),
            GraphEdgeSpec::all(fw_out, mon_in),
            GraphEdgeSpec::matching(mon_out, cache_in, web, 200),
            GraphEdgeSpec::all(mon_out, GraphPort::External(exit_no)),
            GraphEdgeSpec::all(cache_out, GraphPort::External(exit_no)),
        ],
    });
    node.start();
    assert!(node.wait_highway_converged(Duration::from_secs(15)));
    World {
        node,
        entry,
        exit,
        dep,
    }
}

fn push_and_pull(w: &mut World, dst_port: u16, expect: bool) -> bool {
    let m = Mbuf::from_slice(&PacketBuilder::udp_probe(64).ports(40_000, dst_port).build());
    w.entry.send(m).unwrap();
    let deadline = Instant::now()
        + if expect {
            Duration::from_secs(10)
        } else {
            Duration::from_millis(300)
        };
    while Instant::now() < deadline {
        if w.exit.recv().is_some() {
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
fn only_pure_p2p_seams_are_accelerated() {
    let w = deploy_figure1(true);
    // Acceleratable seams: firewall.out → monitor.in and
    // cache.out → exit… but exit is an external (excluded) port, so
    // exactly ONE link must be active.
    let fw_out = w.dep.vnf_ports[0][1];
    let mon_in = w.dep.vnf_ports[1][0];
    assert_eq!(
        w.node.active_links(),
        vec![(fw_out, mon_in)],
        "the firewall→monitor seam is the only pure p-2-p VM seam"
    );
    // No failures: the excluded external ports were never attempted.
    assert!(w.node.highway_failures().is_empty());
    // Exactly one bypass segment exists.
    assert_eq!(w.node.registry().live_of_kind(SegmentKind::Bypass).len(), 1);
    teardown(w);
}

#[test]
fn traffic_splits_correctly_with_the_highway_on() {
    let mut w = deploy_figure1(true);

    // DNS passes, avoiding the cache.
    assert!(push_and_pull(&mut w, 53, true));
    // Web passes, through the cache.
    assert!(push_and_pull(&mut w, 80, true));
    // Telnet dies at the firewall (over the bypassed seam it never even
    // reaches the monitor).
    assert!(!push_and_pull(&mut w, 23, false));

    let cache_seen = w.dep.vms[2].counters().forwarded.load(Ordering::Relaxed);
    assert_eq!(cache_seen, 1, "cache saw exactly the web packet");
    let monitor_seen = w.dep.vms[1].counters().forwarded.load(Ordering::Relaxed);
    assert_eq!(monitor_seen, 2, "monitor saw DNS + web, not telnet");
    teardown(w);
}

#[test]
fn split_behaviour_is_mode_invariant() {
    // The same graph, vanilla vs highway: identical per-VNF observations.
    let observe = |highway: bool| {
        let mut w = deploy_figure1(highway);
        assert!(push_and_pull(&mut w, 53, true));
        assert!(push_and_pull(&mut w, 80, true));
        assert!(!push_and_pull(&mut w, 23, false));
        let fw = w.dep.vms[0].counters().forwarded.load(Ordering::Relaxed);
        let dropped = w.dep.vms[0].counters().dropped.load(Ordering::Relaxed);
        let mon = w.dep.vms[1].counters().forwarded.load(Ordering::Relaxed);
        let cache = w.dep.vms[2].counters().forwarded.load(Ordering::Relaxed);
        teardown(w);
        (fw, dropped, mon, cache)
    };
    assert_eq!(observe(false), observe(true));
}

/// Sends every packet back out the port it arrived on: the hairpin an
/// ICMP echo responder makes, without the ICMP.
struct Reflector;

impl VnfApp for Reflector {
    fn name(&self) -> &str {
        "reflector"
    }

    fn process(&mut self, _pkt: &mut Mbuf, _in_port_idx: usize) -> Verdict {
        Verdict::Reflect
    }
}

#[test]
fn icmp_reply_rides_the_reverse_bypass() {
    // entry → forwarder ⇄ reflector. The request crosses the bypassed
    // middle seam; the reflector sends it back, so the reply rides the
    // *reverse* bypass and must emerge back at the entry port.
    let node = HighwayNode::new(HighwayNodeConfig::default());
    let (entry_no, mut entry) = node.add_edge_port("entry");

    let dep = node.orchestrator().deploy_graph(GraphSpec {
        vnfs: vec![
            (VnfSpec::forwarder("fwd"), 2),
            (
                VnfSpec {
                    name: "reflector".into(),
                    app: AppKind::Custom(Box::new(Reflector)),
                },
                2,
            ),
        ],
        edges: vec![
            GraphEdgeSpec::all(
                GraphPort::External(entry_no),
                GraphPort::Vnf { node: 0, port: 0 },
            ),
            // Bidirectional p-2-p middle seam (bypassed both ways).
            GraphEdgeSpec::all(
                GraphPort::Vnf { node: 0, port: 1 },
                GraphPort::Vnf { node: 1, port: 0 },
            ),
            GraphEdgeSpec::all(
                GraphPort::Vnf { node: 1, port: 0 },
                GraphPort::Vnf { node: 0, port: 1 },
            ),
            // Reverse path from the forwarder back to the entry.
            GraphEdgeSpec::all(
                GraphPort::Vnf { node: 0, port: 0 },
                GraphPort::External(entry_no),
            ),
        ],
    });
    node.start();
    assert!(node.wait_highway_converged(Duration::from_secs(15)));
    assert_eq!(
        node.active_links().len(),
        2,
        "middle seam bypassed both ways"
    );

    let request = PacketBuilder::udp_probe(64)
        .ip(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 200))
        .build();
    entry.send(Mbuf::from_slice(&request)).unwrap();

    let deadline = Instant::now() + Duration::from_secs(10);
    let reply = loop {
        if let Some(m) = entry.recv() {
            break m;
        }
        assert!(Instant::now() < deadline, "no reply");
        std::thread::yield_now();
    };
    assert_eq!(reply.data(), &request[..], "reflected byte for byte");

    // Both directions of the middle seam carried exactly one packet,
    // without the switch seeing either. The reflector's counters tick
    // just after its send, so let them land before comparing.
    let (there, back) = (dep.cookies[1], dep.cookies[2]);
    let carried = || {
        (
            node.stats().rule_totals(there).0,
            node.stats().rule_totals(back).0,
            dep.vms[1].counters().reflected.load(Ordering::Relaxed),
        )
    };
    let deadline = Instant::now() + Duration::from_secs(5);
    while carried() != (1, 1, 1) && Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert_eq!(carried(), (1, 1, 1), "(there, back, reflected)");
    for port in [dep.vnf_ports[0][1], dep.vnf_ports[1][0]] {
        let seen = node
            .switch()
            .datapath()
            .port(PortNo(port as u16))
            .expect("port exists")
            .stats()
            .ipackets;
        assert_eq!(seen, 0, "switch must not see bypassed seam port {port}");
    }

    node.stop();
    for vm in &dep.vms {
        vm.shutdown();
    }
}

#[test]
fn nat_chain_rewrites_over_the_bypass() {
    // A NAT VNF in a 2-VM chain: translation must be byte-identical no
    // matter which channel carries the packet.
    let node = HighwayNode::new(HighwayNodeConfig::default());
    let (entry_no, mut entry) = node.add_edge_port("entry");
    let (exit_no, mut exit) = node.add_edge_port("exit");

    let public = Ipv4Addr::new(203, 0, 113, 7);
    let dep = node.orchestrator().deploy_graph(GraphSpec {
        vnfs: vec![
            (
                VnfSpec {
                    name: "nat".into(),
                    app: AppKind::Custom(Box::new(Nat44::new(public))),
                },
                2,
            ),
            (VnfSpec::forwarder("fwd"), 2),
        ],
        edges: vec![
            GraphEdgeSpec::all(
                GraphPort::External(entry_no),
                GraphPort::Vnf { node: 0, port: 0 },
            ),
            GraphEdgeSpec::all(
                GraphPort::Vnf { node: 0, port: 1 },
                GraphPort::Vnf { node: 1, port: 0 },
            ),
            GraphEdgeSpec::all(
                GraphPort::Vnf { node: 1, port: 1 },
                GraphPort::External(exit_no),
            ),
        ],
    });
    node.start();
    assert!(node.wait_highway_converged(Duration::from_secs(15)));
    assert_eq!(node.active_links().len(), 1, "nat→fwd seam bypassed");

    entry
        .send(Mbuf::from_slice(
            &PacketBuilder::udp_probe(64)
                .ip(Ipv4Addr::new(10, 0, 0, 9), Ipv4Addr::new(8, 8, 8, 8))
                .ports(1234, 53)
                .build(),
        ))
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    let out = loop {
        if let Some(m) = exit.recv() {
            break m;
        }
        assert!(Instant::now() < deadline);
        std::thread::yield_now();
    };
    let key = FlowKey::extract(out.data());
    assert_eq!(key.ipv4_src, public, "source translated by the NAT");
    assert_eq!(key.l4_src, 40_000);
    assert_eq!(key.ipv4_dst, Ipv4Addr::new(8, 8, 8, 8));

    node.stop();
    for vm in &dep.vms {
        vm.shutdown();
    }
}
