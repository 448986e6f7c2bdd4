//! Telemetry-layer smoke test (the CI gate for the observability PR).
//!
//! Drives a live multi-PMD datapath, then checks every introspection
//! surface against the same run: the structured snapshot's internal
//! accounting identities, the JSON rendering (parsed back with the
//! dependency-free parser), the appctl text commands and the Prometheus
//! exporter. The invariants are the ones an operator implicitly trusts
//! when reading `pmd-stats-show`: every lookup is attributed to exactly
//! one tier, and the stage histograms account for exactly the packets
//! the datapath processed.

use openflow::messages::FlowMod;
use openflow::{Action, FlowMatch, PortNo};
use std::time::{Duration, Instant};
use vnf_highway::highway::{HighwayNode, HighwayNodeConfig};
use vnf_highway::ovs::{VSwitchd, VSwitchdConfig};
use vnf_highway::packet::PacketBuilder;
use vnf_highway::shmem::channel;
use vnf_highway::telemetry;

const MATCHED: u64 = 512;
const MISSED: u64 = 128;

/// Builds a 4-PMD switch, pushes a mixed matched/missed workload through
/// it and returns the live-taken snapshot (PMD perf blocks deregister on
/// thread exit, so the snapshot must be taken before `stop()`).
fn run_workload() -> telemetry::TelemetrySnapshot {
    let sw = VSwitchd::new(VSwitchdConfig {
        pmd_threads: 4,
        telemetry: true,
        ..VSwitchdConfig::default()
    });
    let (in1, mut tx1) = channel("in1", 1024);
    let (in2, mut tx2) = channel("in2", 1024);
    let (out1, mut rx1) = channel("out1", 1024);
    sw.add_dpdkr_port(PortNo(1), "in1", in1);
    sw.add_dpdkr_port(PortNo(2), "in2", in2);
    sw.add_dpdkr_port(PortNo(101), "out1", out1);
    // Port 1 forwards; port 2 has no rule, so its packets are misses.
    sw.inject_flow_mod(&FlowMod::add(
        FlowMatch::in_port(PortNo(1)),
        100,
        vec![Action::Output(PortNo(101))],
    ));
    for i in 0..MATCHED {
        // 64 distinct flows, all polled and classified by the one PMD
        // that owns port 1.
        let frame = PacketBuilder::udp_probe(64)
            .ports(1000 + (i % 64) as u16, 80)
            .build();
        tx1.send(vnf_highway::dpdk::Mbuf::from_slice(&frame))
            .expect("preload in1");
    }
    for i in 0..MISSED {
        let frame = PacketBuilder::udp_probe(64)
            .ports(2000 + (i % 16) as u16, 443)
            .build();
        tx2.send(vnf_highway::dpdk::Mbuf::from_slice(&frame))
            .expect("preload in2");
    }
    sw.start();

    let deadline = Instant::now() + Duration::from_secs(30);
    let mut got = 0u64;
    while got < MATCHED {
        if rx1.recv().is_some() {
            got += 1;
        } else {
            assert!(Instant::now() < deadline, "delivered {got}/{MATCHED}");
            std::thread::yield_now();
        }
    }
    // The missed packets carry no delivery signal; wait on the counters.
    while sw.datapath().cache_stats().lookups < MATCHED + MISSED {
        assert!(Instant::now() < deadline, "lookup counters never converged");
        std::thread::yield_now();
    }
    let snap = sw.telemetry_snapshot();
    sw.stop();
    snap
}

#[test]
fn snapshot_invariants_hold_on_a_live_multi_pmd_datapath() {
    let snap = run_workload();
    assert!(snap.enabled);
    assert_eq!(snap.pmds.len(), 4, "one perf block per PMD");

    // Tier attribution is a partition: every lookup hit exactly one tier
    // or missed — per PMD and in the datapath-wide totals.
    for p in &snap.pmds {
        assert_eq!(
            p.lookups,
            p.matched() + p.misses,
            "pmd {} lookup partition",
            p.pmd
        );
    }
    let agg = snap.aggregate();
    assert_eq!(agg.lookups, MATCHED + MISSED);
    assert_eq!(
        agg.lookups, snap.totals.lookups,
        "per-PMD == shared atomics"
    );
    assert_eq!(agg.misses, MISSED);
    assert_eq!(snap.totals.misses, MISSED);
    assert_eq!(agg.tx_packets, MATCHED, "only matched packets reach tx");

    // Stage histograms account for exactly the processed packets: every
    // packet is classified once and executed once.
    assert_eq!(
        snap.stage_summary(telemetry::Stage::Classify).count,
        agg.lookups
    );
    assert_eq!(
        snap.stage_summary(telemetry::Stage::Execute).count,
        agg.lookups
    );
    assert_eq!(snap.stage_summary(telemetry::Stage::TxFlush).count, MATCHED);
    assert_eq!(
        snap.stage_summary(telemetry::Stage::RxBurst).count,
        MATCHED + MISSED
    );

    // Tier histograms count sampled resolutions (per flow group in a
    // cycle-stamped burst), not packets.
    let tier_resolutions: u64 = telemetry::Tier::ALL
        .iter()
        .map(|&t| snap.tier_summary(t).count)
        .sum();
    assert!(tier_resolutions > 0, "first burst is always cycle-stamped");
    assert!(
        tier_resolutions <= agg.lookups,
        "≤ one resolution per packet"
    );

    // Coverage counters from the cache layer fired during the run.
    assert!(*snap.coverage.get("emc_insert").unwrap_or(&0) > 0);
    assert!(*snap.coverage.get("upcall_miss").unwrap_or(&0) > 0);
}

#[test]
fn snapshot_json_parses_and_matches_the_struct() {
    let snap = run_workload();
    let text = snap.to_json();
    let v = telemetry::json::parse(&text).expect("snapshot JSON must parse");

    let totals = v.get("totals").expect("totals object");
    assert_eq!(
        totals.get("lookups").and_then(|x| x.as_u64()),
        Some(snap.totals.lookups)
    );
    assert_eq!(
        totals.get("misses").and_then(|x| x.as_u64()),
        Some(snap.totals.misses)
    );
    let pmds = v
        .get("pmds")
        .and_then(|p| p.as_array())
        .expect("pmds array");
    assert_eq!(pmds.len(), snap.pmds.len());
    let json_lookups: u64 = pmds
        .iter()
        .map(|p| p.get("lookups").and_then(|x| x.as_u64()).unwrap())
        .sum();
    assert_eq!(json_lookups, snap.aggregate().lookups);
    let classify = v
        .get("stage_totals")
        .and_then(|s| s.get("classify"))
        .expect("classify stage summary");
    assert_eq!(
        classify.get("count").and_then(|x| x.as_u64()),
        Some(snap.stage_summary(telemetry::Stage::Classify).count)
    );
    assert!(v.get("coverage").is_some());
}

#[test]
fn appctl_surfaces_render_from_a_live_node() {
    // The node-level surface: a multi-PMD HighwayNode delegating appctl
    // to the switch, plus the drop classes in the status report.
    let mut cfg = HighwayNodeConfig::default();
    cfg.switch.pmd_threads = 2;
    cfg.switch.telemetry = true;
    let node = HighwayNode::new(cfg);
    node.start();

    // Every PMD's perf block is registered by the time `start` returns.
    assert_eq!(node.telemetry_snapshot().pmds.len(), 2);

    let stats = node.appctl("dpif-netdev/pmd-stats-show");
    assert!(stats.contains("pmd thread numa_id 0 core_id 0:"));
    assert!(stats.contains("pmd thread numa_id 0 core_id 1:"));
    assert!(stats.contains("emc hits:"));

    let perf = node.appctl("pmd-perf-show");
    assert!(perf.contains("iterations:"));

    let hist = node.appctl("histograms/show");
    assert!(hist.contains("classify"));

    let prom = node.prometheus_text();
    assert!(prom.contains("highway_datapath_lookups_total"));
    assert!(prom.contains("highway_datapath_hits_total{tier=\"emc\"}"));

    let unknown = node.appctl("no-such-command");
    assert!(unknown.contains("unknown command"));

    // Satellite: the dpctl-style stats block surfaces the drop classes.
    let report = node.status_report();
    assert!(report.contains("lookups: hit:"));
    assert!(report.contains("drops: miss:"));
    assert!(report.contains("tx_no_port:"));
    assert!(report.contains("packet_in:"));
    assert!(
        !report.contains("fanout"),
        "no fan-out drop class:\n{report}"
    );

    node.stop();
}
