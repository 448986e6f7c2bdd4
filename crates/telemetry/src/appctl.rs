//! appctl-style text renderings of a [`TelemetrySnapshot`], modeled on
//! `ovs-appctl dpif-netdev/pmd-stats-show`, `pmd-perf-show` and
//! `coverage/show`, plus a Prometheus text-format exporter.
//!
//! The renderers take a snapshot (not live state) so every surface —
//! vswitchd appctl, HighwayNode appctl, the benchmark — prints from the same
//! consistent copy.

use crate::pmd_perf::{PmdPerf, Stage, Tier};
use crate::snapshot::{HistSummary, TelemetrySnapshot};
use dpdk_sim::cycles;

/// `dpif-netdev/pmd-stats-show`: per-PMD counters, OVS-flavored.
pub fn pmd_stats_show(snap: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    for p in &snap.pmds {
        out.push_str(&format!("pmd thread numa_id 0 core_id {}:\n", p.pmd));
        out.push_str(&format!("  packets received: {}\n", p.rx_packets));
        out.push_str(&format!("  emc hits: {}\n", p.emc_hits));
        out.push_str(&format!("  megaflow hits: {}\n", p.megaflow_hits));
        out.push_str(&format!("  classifier hits: {}\n", p.classifier_hits));
        out.push_str(&format!("  miss: {}\n", p.misses));
        out.push_str(&format!("  packets transmitted: {}\n", p.tx_packets));
        let per_pkt = p.busy_cycles.checked_div(p.lookups).unwrap_or(0);
        out.push_str(&format!(
            "  idle cycles: {} ({:.2}%)\n",
            p.idle_cycles,
            100.0 * (1.0 - p.useful_cycle_ratio()),
        ));
        out.push_str(&format!(
            "  processing cycles: {} ({:.2}%)\n",
            p.busy_cycles,
            100.0 * p.useful_cycle_ratio(),
        ));
        out.push_str(&format!("  avg processing cycles per packet: {per_pkt}\n"));
    }
    if snap.pmds.is_empty() {
        out.push_str("no pmd threads registered\n");
    }
    for p in &snap.pools {
        out.push_str(&format!("arena \"{}\":\n", p.name));
        out.push_str(&format!(
            "  capacity: {}  available: {}  in use: {}  high water: {}\n",
            p.capacity, p.available, p.in_use, p.high_water
        ));
        out.push_str(&format!(
            "  allocs: {}  alloc failures: {}  frees: {}  foreign frees: {}\n",
            p.allocs, p.alloc_failures, p.frees, p.foreign_frees
        ));
        out.push_str(&format!(
            "  credit returns: {}  credits reclaimed: {}  slab writes: {}\n",
            p.credit_returns, p.credits_reclaimed, p.slab_writes
        ));
    }
    out
}

/// `dpif-netdev/pmd-perf-show`: per-PMD iteration stats plus the stage and
/// tier latency breakdown (p50/p99/p999 in cycles).
pub fn pmd_perf_show(snap: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    if !snap.enabled {
        out.push_str("telemetry histograms disabled (counters only)\n");
    }
    for p in &snap.pmds {
        out.push_str(&format!("pmd thread core_id {}:\n", p.pmd));
        out.push_str(&format!(
            "  iterations: {} ({} idle, {:.2}% busy iterations)\n",
            p.iterations,
            p.idle_iterations,
            if p.iterations == 0 {
                0.0
            } else {
                100.0 * (p.iterations - p.idle_iterations) as f64 / p.iterations as f64
            },
        ));
        out.push_str(&format!(
            "  rx batches: {}  rx packets: {}  avg batch: {:.1}\n",
            p.rx_batches,
            p.rx_packets,
            if p.rx_batches == 0 {
                0.0
            } else {
                p.rx_packets as f64 / p.rx_batches as f64
            },
        ));
        out.push_str(&render_hist_table(p));
    }
    if snap.pmds.is_empty() {
        out.push_str("no pmd threads registered\n");
    }
    out
}

fn render_hist_table(p: &PmdPerf) -> String {
    let mut out = String::new();
    out.push_str("  stage latencies (cycles/packet-burst):\n");
    out.push_str(&format!(
        "    {:<10} {:>10} {:>8} {:>8} {:>8} {:>8}\n",
        "stage", "samples", "mean", "p50", "p99", "p999"
    ));
    for s in Stage::ALL {
        let h = HistSummary::of(p.stage(s));
        out.push_str(&format!(
            "    {:<10} {:>10} {:>8} {:>8} {:>8} {:>8}\n",
            s.name(),
            h.count,
            h.mean,
            h.p50,
            h.p99,
            h.p999
        ));
    }
    out.push_str("  tier resolution cost (cycles/group):\n");
    for t in Tier::ALL {
        let h = HistSummary::of(p.tier(t));
        out.push_str(&format!(
            "    {:<10} {:>10} {:>8} {:>8} {:>8} {:>8}\n",
            t.name(),
            h.count,
            h.mean,
            h.p50,
            h.p99,
            h.p999
        ));
    }
    out
}

/// `coverage/show`: nonzero coverage counters, sorted by name.
pub fn coverage_show(snap: &TelemetrySnapshot) -> String {
    let mut out = String::from("Event coverage, hash=counters:\n");
    let mut any = false;
    for (name, total) in &snap.coverage {
        if *total > 0 {
            out.push_str(&format!("{name:<28} total: {total}\n"));
            any = true;
        }
    }
    if !any {
        out.push_str("(no events)\n");
    }
    out
}

/// `histograms/show`: the cross-PMD stage/tier aggregate with wall-clock
/// translations of the cycle quantiles.
pub fn histograms_show(snap: &TelemetrySnapshot) -> String {
    let agg = snap.aggregate();
    let mut out = format!(
        "latency histograms, {} pmds merged (cycles @ {} Hz nominal):\n",
        snap.pmds.len(),
        cycles::CPU_HZ,
    );
    out.push_str(&format!(
        "  {:<10} {:>10} {:>8} {:>8} {:>8} {:>8}  {:>12}\n",
        "stage", "samples", "mean", "p50", "p99", "p999", "p99 wallclk"
    ));
    for s in Stage::ALL {
        let h = HistSummary::of(agg.stage(s));
        out.push_str(&format!(
            "  {:<10} {:>10} {:>8} {:>8} {:>8} {:>8}  {:>12}\n",
            s.name(),
            h.count,
            h.mean,
            h.p50,
            h.p99,
            h.p999,
            human_cycles(h.p99),
        ));
    }
    for t in Tier::ALL {
        let h = HistSummary::of(agg.tier(t));
        out.push_str(&format!(
            "  {:<10} {:>10} {:>8} {:>8} {:>8} {:>8}  {:>12}\n",
            t.name(),
            h.count,
            h.mean,
            h.p50,
            h.p99,
            h.p999,
            human_cycles(h.p99),
        ));
    }
    out
}

fn human_cycles(c: u64) -> String {
    let ns = cycles::to_duration(c).as_nanos();
    if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2} us", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// Prometheus text exposition of the snapshot (counters and summary
/// quantiles; `highway_` prefix throughout).
pub fn prometheus_text(snap: &TelemetrySnapshot) -> String {
    let mut out = String::with_capacity(4096);
    let t = &snap.totals;
    out.push_str("# TYPE highway_datapath_lookups_total counter\n");
    out.push_str(&format!("highway_datapath_lookups_total {}\n", t.lookups));
    out.push_str("# TYPE highway_datapath_hits_total counter\n");
    for (tier, v) in [
        ("emc", t.emc_hits),
        ("megaflow", t.megaflow_hits),
        ("classifier", t.classifier_hits),
    ] {
        out.push_str(&format!(
            "highway_datapath_hits_total{{tier=\"{tier}\"}} {v}\n"
        ));
    }
    out.push_str("# TYPE highway_datapath_misses_total counter\n");
    out.push_str(&format!("highway_datapath_misses_total {}\n", t.misses));
    out.push_str("# TYPE highway_datapath_drops_total counter\n");
    for (reason, v) in [
        ("miss", t.miss_drops),
        ("tx_no_port", t.tx_no_port_drops),
        ("packet_in", t.packet_in_drops),
    ] {
        out.push_str(&format!(
            "highway_datapath_drops_total{{reason=\"{reason}\"}} {v}\n"
        ));
    }

    out.push_str("# TYPE highway_pmd_rx_packets_total counter\n");
    out.push_str("# TYPE highway_pmd_tx_packets_total counter\n");
    out.push_str("# TYPE highway_pmd_busy_cycles_total counter\n");
    for p in &snap.pmds {
        out.push_str(&format!(
            "highway_pmd_rx_packets_total{{pmd=\"{}\"}} {}\n",
            p.pmd, p.rx_packets
        ));
        out.push_str(&format!(
            "highway_pmd_tx_packets_total{{pmd=\"{}\"}} {}\n",
            p.pmd, p.tx_packets
        ));
        out.push_str(&format!(
            "highway_pmd_busy_cycles_total{{pmd=\"{}\"}} {}\n",
            p.pmd, p.busy_cycles
        ));
    }

    let agg = snap.aggregate();
    out.push_str("# TYPE highway_stage_cycles summary\n");
    for s in Stage::ALL {
        let h = HistSummary::of(agg.stage(s));
        for (q, v) in [("0.5", h.p50), ("0.99", h.p99), ("0.999", h.p999)] {
            out.push_str(&format!(
                "highway_stage_cycles{{stage=\"{}\",quantile=\"{q}\"}} {v}\n",
                s.name()
            ));
        }
        out.push_str(&format!(
            "highway_stage_cycles_count{{stage=\"{}\"}} {}\n",
            s.name(),
            h.count
        ));
    }

    out.push_str("# TYPE highway_coverage_total counter\n");
    for (name, v) in &snap.coverage {
        out.push_str(&format!("highway_coverage_total{{event=\"{name}\"}} {v}\n"));
    }

    if !snap.pools.is_empty() {
        out.push_str("# TYPE highway_pool_in_use gauge\n");
        out.push_str("# TYPE highway_pool_high_water gauge\n");
        out.push_str("# TYPE highway_pool_alloc_failures_total counter\n");
        out.push_str("# TYPE highway_pool_foreign_frees_total counter\n");
        out.push_str("# TYPE highway_pool_slab_writes_total counter\n");
        for p in &snap.pools {
            let labels = format!("pool=\"{}\"", p.name);
            out.push_str(&format!("highway_pool_in_use{{{labels}}} {}\n", p.in_use));
            out.push_str(&format!(
                "highway_pool_high_water{{{labels}}} {}\n",
                p.high_water
            ));
            out.push_str(&format!(
                "highway_pool_alloc_failures_total{{{labels}}} {}\n",
                p.alloc_failures
            ));
            out.push_str(&format!(
                "highway_pool_foreign_frees_total{{{labels}}} {}\n",
                p.foreign_frees
            ));
            out.push_str(&format!(
                "highway_pool_slab_writes_total{{{labels}}} {}\n",
                p.slab_writes
            ));
        }
    }
    out
}

/// Dispatches an appctl-style command name to its renderer. Unknown
/// commands list what is available (like `ovs-appctl list-commands`).
pub fn dispatch(snap: &TelemetrySnapshot, command: &str) -> String {
    match command {
        "pmd-stats-show" | "dpif-netdev/pmd-stats-show" => pmd_stats_show(snap),
        "pmd-perf-show" | "dpif-netdev/pmd-perf-show" => pmd_perf_show(snap),
        "coverage/show" => coverage_show(snap),
        "histograms/show" => histograms_show(snap),
        "telemetry/json" => snap.to_json(),
        "telemetry/prometheus" => prometheus_text(snap),
        other => format!(
            "unknown command {other:?}; available: pmd-stats-show, pmd-perf-show, \
             coverage/show, histograms/show, telemetry/json, telemetry/prometheus\n"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::DatapathTotals;
    use std::collections::BTreeMap;

    fn snap() -> TelemetrySnapshot {
        let mut p = PmdPerf::new(1);
        p.record_lookup(Some(Tier::Emc), 64, 32);
        p.record_lookup(None, 1200, 1);
        p.record_stage(Stage::Classify, 64, 33);
        p.rx_packets = 33;
        p.tx_packets = 32;
        p.busy_cycles = 5000;
        p.idle_cycles = 5000;
        p.iterations = 10;
        let mut coverage = BTreeMap::new();
        coverage.insert("emc_insert", 3u64);
        coverage.insert("never", 0u64);
        TelemetrySnapshot {
            enabled: true,
            taken_at_cycles: 1,
            pmds: vec![p],
            totals: DatapathTotals {
                lookups: 33,
                emc_hits: 32,
                misses: 1,
                tx_no_port_drops: 2,
                ..Default::default()
            },
            coverage,
            pools: vec![crate::pools::PoolStats {
                name: "hw-arena".into(),
                capacity: 32,
                available: 30,
                in_use: 2,
                high_water: 7,
                allocs: 40,
                alloc_failures: 1,
                frees: 20,
                foreign_frees: 0,
                credit_returns: 18,
                credits_reclaimed: 16,
                slab_writes: 41,
            }],
            doorbells: Default::default(),
        }
    }

    #[test]
    fn stats_show_has_ovs_vocabulary() {
        let s = pmd_stats_show(&snap());
        assert!(s.contains("pmd thread numa_id 0 core_id 1:"));
        assert!(s.contains("emc hits: 32"));
        assert!(s.contains("miss: 1"));
        assert!(s.contains("processing cycles: 5000 (50.00%)"));
    }

    #[test]
    fn stats_show_includes_the_pool_section() {
        let s = pmd_stats_show(&snap());
        assert!(s.contains("arena \"hw-arena\":"), "missing arena row:\n{s}");
        assert!(s.contains("high water: 7"));
        assert!(s.contains("foreign frees: 0"));
        assert!(s.contains("credit returns: 18  credits reclaimed: 16  slab writes: 41\n"));
        assert!(!s.contains("doorbells"), "no doorbell line:\n{s}");
    }

    #[test]
    fn perf_show_lists_every_stage() {
        let s = pmd_perf_show(&snap());
        for name in ["rx_burst", "classify", "execute", "tx_flush"] {
            assert!(s.contains(name), "{name} missing from:\n{s}");
        }
        assert!(s.contains("iterations: 10"));
        assert!(!s.contains("fanout"), "no fan-out stage or counter:\n{s}");
    }

    #[test]
    fn coverage_show_hides_zeroes() {
        let s = coverage_show(&snap());
        assert!(s.contains("emc_insert"));
        assert!(!s.contains("never"));
    }

    #[test]
    fn prometheus_text_is_well_formed() {
        let s = prometheus_text(&snap());
        assert!(s.contains("highway_datapath_lookups_total 33"));
        assert!(s.contains("highway_datapath_hits_total{tier=\"emc\"} 32"));
        assert!(s.contains("highway_datapath_drops_total{reason=\"tx_no_port\"} 2"));
        assert!(s.contains("highway_stage_cycles{stage=\"classify\",quantile=\"0.99\"}"));
        assert!(s.contains("highway_coverage_total{event=\"emc_insert\"} 3"));
        assert!(s.contains("highway_pool_high_water{pool=\"hw-arena\"} 7"));
        assert!(s.contains("highway_pool_alloc_failures_total{pool=\"hw-arena\"} 1"));
        assert!(s.contains("highway_pool_slab_writes_total{pool=\"hw-arena\"} 41"));
        assert!(!s.contains("kind="), "pool rows carry only the pool label");
        assert!(!s.contains("highway_doorbell"), "no doorbell series");
        // Every non-comment line is "name{labels} value" or "name value".
        for line in s.lines().filter(|l| !l.starts_with('#')) {
            let parts: Vec<&str> = line.rsplitn(2, ' ').collect();
            assert_eq!(parts.len(), 2, "bad exposition line: {line}");
            assert!(parts[0].parse::<f64>().is_ok(), "bad value in: {line}");
        }
    }

    #[test]
    fn dispatch_routes_and_reports_unknowns() {
        let sn = snap();
        assert!(dispatch(&sn, "pmd-stats-show").contains("emc hits"));
        assert!(dispatch(&sn, "dpif-netdev/pmd-perf-show").contains("tier resolution"));
        assert!(dispatch(&sn, "histograms/show").contains("pmds merged"));
        assert!(dispatch(&sn, "telemetry/json").starts_with('{'));
        assert!(dispatch(&sn, "nope").contains("unknown command"));
    }
}
