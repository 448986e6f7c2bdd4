//! Structured telemetry snapshots.
//!
//! [`TelemetrySnapshot`] is the single structured view of everything the
//! telemetry layer knows — per-PMD perf blocks, datapath-wide totals,
//! coverage counters and arena pools — consumed by the
//! appctl renderers, the Prometheus exporter, the repo benchmark and the
//! CI smoke test. [`TelemetrySnapshot::to_json`] emits dependency-free
//! JSON that [`crate::json::parse`] round-trips.

use crate::hist::LatencyHistogram;
use crate::pmd_perf::{PmdPerf, Stage, Tier};
use crate::pools::PoolStats;
use std::collections::BTreeMap;

/// Percentile summary of one histogram.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistSummary {
    pub count: u64,
    pub mean: u64,
    pub min: u64,
    pub max: u64,
    pub p50: u64,
    pub p99: u64,
    pub p999: u64,
}

impl HistSummary {
    /// Summarizes a histogram (all-zero when empty).
    pub fn of(h: &LatencyHistogram) -> HistSummary {
        HistSummary {
            count: h.count(),
            mean: h.mean(),
            min: h.min(),
            max: h.max(),
            p50: h.quantile(0.50),
            p99: h.quantile(0.99),
            p999: h.quantile(0.999),
        }
    }

    fn to_json(self) -> String {
        format!(
            "{{\"count\":{},\"mean\":{},\"min\":{},\"max\":{},\"p50\":{},\"p99\":{},\"p999\":{}}}",
            self.count, self.mean, self.min, self.max, self.p50, self.p99, self.p999
        )
    }
}

/// Datapath-wide counter totals (the shared atomics, not per-PMD).
#[derive(Debug, Clone, Copy, Default)]
pub struct DatapathTotals {
    pub lookups: u64,
    pub matched: u64,
    pub emc_hits: u64,
    pub megaflow_hits: u64,
    pub classifier_hits: u64,
    pub misses: u64,
    pub miss_drops: u64,
    pub tx_no_port_drops: u64,
    pub packet_in_drops: u64,
}

/// A point-in-time copy of the whole telemetry registry.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySnapshot {
    /// Whether cycle stamping was enabled when the snapshot was taken
    /// (counters tick regardless; histograms stay empty when disabled).
    pub enabled: bool,
    /// Cycle timestamp of the snapshot.
    pub taken_at_cycles: u64,
    /// One perf block per registered PMD, in registration order.
    pub pmds: Vec<PmdPerf>,
    /// Datapath-wide totals.
    pub totals: DatapathTotals,
    /// Coverage counter totals at snapshot time.
    pub coverage: BTreeMap<&'static str, u64>,
    /// One row per registered arena (see [`crate::pools`]).
    pub pools: Vec<PoolStats>,
    /// Always zero: the channels ring no doorbell (a poll-mode data plane
    /// has no interrupt to suppress). Kept only because the repo
    /// benchmark's harness still reads it.
    pub doorbells: DoorbellTotals,
}

/// Retired doorbell counters: see [`TelemetrySnapshot::doorbells`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DoorbellTotals {
    pub rings: u64,
    pub suppressed: u64,
}

impl TelemetrySnapshot {
    /// All PMD blocks folded into one (histograms merge exactly).
    pub fn aggregate(&self) -> PmdPerf {
        let mut agg = PmdPerf::new(0);
        for pmd in &self.pmds {
            agg.merge(pmd);
        }
        agg
    }

    /// Stage summary of the cross-PMD aggregate.
    pub fn stage_summary(&self, stage: Stage) -> HistSummary {
        HistSummary::of(self.aggregate().stage(stage))
    }

    /// Tier summary of the cross-PMD aggregate.
    pub fn tier_summary(&self, tier: Tier) -> HistSummary {
        HistSummary::of(self.aggregate().tier(tier))
    }

    /// Renders the snapshot as a JSON object (no external dependencies;
    /// [`crate::json::parse`] accepts the output).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push('{');
        out.push_str(&format!("\"enabled\":{},", self.enabled));
        out.push_str(&format!("\"taken_at_cycles\":{},", self.taken_at_cycles));

        let t = &self.totals;
        out.push_str(&format!(
            "\"totals\":{{\"lookups\":{},\"matched\":{},\"emc_hits\":{},\"megaflow_hits\":{},\
             \"classifier_hits\":{},\"misses\":{},\"miss_drops\":{},\"tx_no_port_drops\":{},\
             \"packet_in_drops\":{}}},",
            t.lookups,
            t.matched,
            t.emc_hits,
            t.megaflow_hits,
            t.classifier_hits,
            t.misses,
            t.miss_drops,
            t.tx_no_port_drops,
            t.packet_in_drops,
        ));

        out.push_str("\"pmds\":[");
        for (i, p) in self.pmds.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&pmd_json(p));
        }
        out.push_str("],");

        let agg = self.aggregate();
        out.push_str("\"stage_totals\":");
        out.push_str(&hist_map_json(
            Stage::ALL
                .iter()
                .map(|s| (s.name(), HistSummary::of(agg.stage(*s)))),
        ));
        out.push(',');
        out.push_str("\"tier_totals\":");
        out.push_str(&hist_map_json(
            Tier::ALL
                .iter()
                .map(|t| (t.name(), HistSummary::of(agg.tier(*t)))),
        ));
        out.push(',');

        out.push_str("\"coverage\":{");
        for (i, (name, v)) in self.coverage.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\":{v}"));
        }
        out.push_str("},");

        out.push_str("\"pools\":[");
        for (i, p) in self.pools.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"capacity\":{},\"available\":{},\
                 \"in_use\":{},\"high_water\":{},\"allocs\":{},\"alloc_failures\":{},\
                 \"frees\":{},\"foreign_frees\":{},\"credit_returns\":{},\
                 \"credits_reclaimed\":{},\"slab_writes\":{}}}",
                p.name,
                p.capacity,
                p.available,
                p.in_use,
                p.high_water,
                p.allocs,
                p.alloc_failures,
                p.frees,
                p.foreign_frees,
                p.credit_returns,
                p.credits_reclaimed,
                p.slab_writes,
            ));
        }
        out.push_str("]}");
        out
    }
}

fn hist_map_json<'a>(entries: impl Iterator<Item = (&'a str, HistSummary)>) -> String {
    let mut out = String::from("{");
    for (i, (name, s)) in entries.enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{name}\":{}", s.to_json()));
    }
    out.push('}');
    out
}

fn pmd_json(p: &PmdPerf) -> String {
    let mut out = String::from("{");
    out.push_str(&format!(
        "\"pmd\":{},\"iterations\":{},\"idle_iterations\":{},\"rx_packets\":{},\
         \"rx_batches\":{},\"tx_packets\":{},\
         \"lookups\":{},\"emc_hits\":{},\"megaflow_hits\":{},\"classifier_hits\":{},\
         \"misses\":{},\"busy_cycles\":{},\"idle_cycles\":{},\"useful_cycle_ratio\":{:.6},",
        p.pmd,
        p.iterations,
        p.idle_iterations,
        p.rx_packets,
        p.rx_batches,
        p.tx_packets,
        p.lookups,
        p.emc_hits,
        p.megaflow_hits,
        p.classifier_hits,
        p.misses,
        p.busy_cycles,
        p.idle_cycles,
        p.useful_cycle_ratio(),
    ));
    out.push_str("\"stages\":");
    out.push_str(&hist_map_json(
        Stage::ALL
            .iter()
            .map(|s| (s.name(), HistSummary::of(p.stage(*s)))),
    ));
    out.push_str(",\"tiers\":");
    out.push_str(&hist_map_json(
        Tier::ALL
            .iter()
            .map(|t| (t.name(), HistSummary::of(p.tier(*t)))),
    ));
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn sample_snapshot() -> TelemetrySnapshot {
        let mut p0 = PmdPerf::new(0);
        p0.record_lookup(Some(Tier::Emc), 60, 8);
        p0.record_stage(Stage::Classify, 60, 8);
        let mut p1 = PmdPerf::new(1);
        p1.record_lookup(None, 800, 2);
        p1.record_stage(Stage::Classify, 800, 2);
        let mut coverage = BTreeMap::new();
        coverage.insert("emc_insert", 5u64);
        TelemetrySnapshot {
            enabled: true,
            taken_at_cycles: 42,
            pmds: vec![p0, p1],
            totals: DatapathTotals {
                lookups: 10,
                matched: 8,
                emc_hits: 8,
                misses: 2,
                ..Default::default()
            },
            coverage,
            pools: vec![PoolStats {
                name: "hw-arena".into(),
                capacity: 64,
                available: 60,
                in_use: 4,
                high_water: 9,
                allocs: 100,
                alloc_failures: 1,
                frees: 50,
                foreign_frees: 0,
                credit_returns: 46,
                credits_reclaimed: 40,
                slab_writes: 102,
            }],
            doorbells: DoorbellTotals::default(),
        }
    }

    #[test]
    fn aggregate_merges_pmds() {
        let snap = sample_snapshot();
        let agg = snap.aggregate();
        assert_eq!(agg.lookups, 10);
        assert_eq!(agg.misses, 2);
        assert_eq!(snap.stage_summary(Stage::Classify).count, 10);
        assert_eq!(snap.tier_summary(Tier::Emc).count, 1);
    }

    #[test]
    fn json_roundtrips_through_the_parser() {
        let snap = sample_snapshot();
        let text = snap.to_json();
        let v = json::parse(&text).expect("snapshot JSON must parse");
        assert_eq!(
            v.get("totals")
                .and_then(|t| t.get("lookups"))
                .and_then(|x| x.as_u64()),
            Some(10)
        );
        let pmds = v.get("pmds").and_then(|p| p.as_array()).unwrap();
        assert_eq!(pmds.len(), 2);
        assert_eq!(pmds[1].get("misses").and_then(|x| x.as_u64()), Some(2));
        let classify = v
            .get("stage_totals")
            .and_then(|s| s.get("classify"))
            .unwrap();
        assert_eq!(classify.get("count").and_then(|x| x.as_u64()), Some(10));
        assert_eq!(
            v.get("coverage")
                .and_then(|c| c.get("emc_insert"))
                .and_then(|x| x.as_u64()),
            Some(5)
        );
        let pools = v.get("pools").and_then(|p| p.as_array()).unwrap();
        assert_eq!(pools.len(), 1);
        let row = |key: &str| pools[0].get(key).and_then(|x| x.as_u64());
        assert_eq!(row("high_water"), Some(9));
        assert_eq!(row("credit_returns"), Some(46));
        assert_eq!(row("slab_writes"), Some(102));
        for gone in ["kind", "cow_copies"] {
            assert!(pools[0].get(gone).is_none(), "{gone} still rendered");
        }
        assert!(v.get("doorbells").is_none(), "doorbells still rendered");
    }
}
