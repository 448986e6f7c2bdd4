//! Workspace-manifest smoke test.
//!
//! The umbrella crate's value is its re-export surface: `src/lib.rs`
//! forwards ten member crates and a prelude. A manifest regression (a
//! dropped dependency, a renamed crate, a broken re-export) should fail
//! *here*, in seconds, rather than deep inside an integration test. Every
//! assertion below touches one re-exported crate through the umbrella
//! path only.

use vnf_highway::prelude::*;

/// Forces the type to resolve through the prelude without constructing it.
fn resolves<T: ?Sized>() -> &'static str {
    std::any::type_name::<T>()
}

#[test]
fn prelude_types_resolve() {
    // One line per prelude export; a missing manifest dependency turns
    // any of these into a compile error.
    assert!(resolves::<Mbuf>().contains("dpdk_sim"));
    assert!(resolves::<Arena>().contains("dpdk_sim"));
    assert!(resolves::<HighwayNode>().contains("highway_core"));
    assert!(resolves::<HighwayNodeConfig>().contains("highway_core"));
    assert!(resolves::<Action>().contains("openflow"));
    assert!(resolves::<FlowMatch>().contains("openflow"));
    assert!(resolves::<OfpMessage>().contains("openflow"));
    assert!(resolves::<PortNo>().contains("openflow"));
    assert!(resolves::<VSwitchd>().contains("ovs_dp"));
    assert!(resolves::<VSwitchdConfig>().contains("ovs_dp"));
    assert!(resolves::<FlowKey>().contains("packet_wire"));
    assert!(resolves::<MacAddr>().contains("packet_wire"));
    assert!(resolves::<PacketBuilder>().contains("packet_wire"));
    assert!(resolves::<ProbeHeader>().contains("packet_wire"));
    assert!(resolves::<SegmentKind>().contains("shmem_sim"));
    assert!(resolves::<StatsRegion>().contains("shmem_sim"));
    assert!(resolves::<AppKind>().contains("vm_host"));
    assert!(resolves::<ComputeAgent>().contains("vm_host"));
    assert!(resolves::<LatencyModel>().contains("vm_host"));
    assert!(resolves::<Orchestrator>().contains("vm_host"));
    assert!(resolves::<Vm>().contains("vm_host"));
    assert!(resolves::<VnfSpec>().contains("vm_host"));
    assert!(resolves::<Firewall>().contains("vnf_apps"));
    assert!(resolves::<FirewallRule>().contains("vnf_apps"));
    assert!(resolves::<L2Forwarder>().contains("vnf_apps"));
    assert!(resolves::<NetworkMonitor>().contains("vnf_apps"));
    assert!(resolves::<WebCache>().contains("vnf_apps"));
}

#[test]
fn prelude_types_construct() {
    let node = HighwayNode::new(HighwayNodeConfig::default());
    assert!(node.highway_enabled());
    assert!(node.active_links().is_empty());

    let m = FlowMatch::in_port(PortNo(1));
    assert_eq!(m.only_in_port(), Some(PortNo(1)));

    let pkt = PacketBuilder::udp_probe(64)
        .eth(MacAddr::local(1), MacAddr::local(2))
        .build();
    assert_eq!(pkt.len(), 64);
    let key = FlowKey::extract(&pkt);
    assert_eq!(key.ip_proto, 17);

    let region = StatsRegion::new();
    region.rule_cell(7).add(3, 192);
    assert_eq!(region.rule_totals(7), (3, 192));
}

#[test]
fn module_reexports_reach_every_member_crate() {
    // dpdk
    let (mut p, mut c) = vnf_highway::dpdk::spsc_ring::<u32>(4);
    p.enqueue(11).unwrap();
    assert_eq!(c.dequeue(), Some(11));

    // highway (detector over an ovs snapshot type)
    let snapshot = vec![vnf_highway::ovs::RuleSnapshot {
        id: 0,
        fmatch: FlowMatch::in_port(PortNo(3)),
        priority: 100,
        actions: vec![Action::Output(PortNo(4))],
        cookie: 0xbeef,
    }];
    let links = vnf_highway::highway::detect_p2p_links(&snapshot);
    assert_eq!(links.len(), 1);
    assert_eq!(links[&3].dst, 4);

    // openflow codec round-trip
    let msg = OfpMessage::Hello;
    let bytes = vnf_highway::openflow::codec::encode(&msg, 42);
    let (decoded, xid) = vnf_highway::openflow::codec::decode(&bytes).unwrap();
    assert_eq!(xid, 42);
    assert_eq!(decoded, msg);

    // shmem
    let (mut a, mut b) = vnf_highway::shmem::channel("smoke", 8);
    a.send(Mbuf::from_slice(&[0u8; 60])).unwrap();
    assert!(b.recv().is_some());

    // model (simnet): analytic solver produces a positive rate
    let cost = vnf_highway::model::CostModel::paper_testbed();
    let spec = vnf_highway::model::ChainSpec::memory(2, vnf_highway::model::Mode::Highway);
    assert!(vnf_highway::model::solve(&spec, &cost).aggregate_mpps > 0.0);

    // nic: histogram type constructs
    let mut hist = vnf_highway::nic::LatencyHistogram::new();
    hist.record(1_000);
    assert_eq!(hist.count(), 1);

    // vnf: an app constructs behind its trait object
    let _fw: Box<dyn vnf_highway::vnf::VnfApp> = Box::new(Firewall::new(Vec::new()));
}
