//! Per-PMD performance blocks, modeled on OVS's `pmd-perf` machinery.
//!
//! Each PMD thread owns one [`PmdPerf`]: plain counters plus one
//! cycle-denominated [`LatencyHistogram`] per pipeline stage and per cache
//! tier. The block lives inside the PMD's own per-thread state (in the
//! reproduction: inside `PmdCaches`, behind the PMD's uncontended mutex),
//! so the hot path never shares a cache line with another PMD; operator
//! reads clone the block into a [`crate::snapshot::TelemetrySnapshot`].
//!
//! The stage decomposition mirrors Sattar & Matrawy's empirical OVS delay
//! model (rx → classification tier → actions → tx).

use crate::hist::LatencyHistogram;

/// Pipeline stages of one PMD iteration, in packet order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Polling a port's rx ring into a burst.
    RxBurst,
    /// Always empty: a PMD hands no packet to another. Not in
    /// [`Stage::ALL`], so no surface renders it; kept because the benchmark
    /// harness reads it, until the benchmark-side change (ROADMAP item 10)
    /// retires it.
    Fanout,
    /// Flow-key group resolution through EMC/megaflow/classifier.
    Classify,
    /// Action execution + output staging (including miss handling).
    Execute,
    /// Flushing staged packets to their destination ports.
    TxFlush,
}

impl Stage {
    /// Every stage a PMD iteration runs, in pipeline order.
    pub const ALL: [Stage; 4] = [
        Stage::RxBurst,
        Stage::Classify,
        Stage::Execute,
        Stage::TxFlush,
    ];

    /// Stable lowercase name used in snapshots, appctl output and metrics.
    pub fn name(self) -> &'static str {
        match self {
            Stage::RxBurst => "rx_burst",
            Stage::Fanout => "fanout",
            Stage::Classify => "classify",
            Stage::Execute => "execute",
            Stage::TxFlush => "tx_flush",
        }
    }
}

/// The cache tier that resolved a lookup group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    Emc,
    Megaflow,
    Classifier,
}

impl Tier {
    /// Every tier, cheapest first.
    pub const ALL: [Tier; 3] = [Tier::Emc, Tier::Megaflow, Tier::Classifier];

    /// Stable lowercase name used in snapshots, appctl output and metrics.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Emc => "emc",
            Tier::Megaflow => "megaflow",
            Tier::Classifier => "classifier",
        }
    }
}

/// One PMD's counters and histograms. All plain fields: the owning thread
/// mutates them behind its own (uncontended) lock; readers clone.
#[derive(Debug, Clone)]
pub struct PmdPerf {
    /// Index of the owning PMD thread.
    pub pmd: usize,
    /// Poll-loop iterations (idle or not).
    pub iterations: u64,
    /// Iterations that moved no packet at all.
    pub idle_iterations: u64,
    /// Packets polled off this PMD's ports.
    pub rx_packets: u64,
    /// Non-empty rx bursts polled.
    pub rx_batches: u64,
    /// Always 0: a PMD hands no packet to another. Kept because the
    /// benchmark harness reads it, until the benchmark-side change
    /// (ROADMAP item 10) retires it with [`Stage::Fanout`].
    pub fanout_sent: u64,
    /// Always 0, like [`PmdPerf::fanout_sent`].
    pub fanout_recv: u64,
    /// Packets flushed to destination ports by this PMD.
    pub tx_packets: u64,
    /// Lookups performed by this PMD (every processed packet is one).
    pub lookups: u64,
    /// Lookups resolved by the EMC.
    pub emc_hits: u64,
    /// Lookups resolved by the megaflow cache.
    pub megaflow_hits: u64,
    /// Lookups resolved by a full classifier walk.
    pub classifier_hits: u64,
    /// Lookups that matched no rule.
    pub misses: u64,
    /// Cycles spent in iterations that moved at least one packet.
    pub busy_cycles: u64,
    /// Cycles spent in iterations that moved nothing.
    pub idle_cycles: u64,
    /// Per-stage cycle histograms; counts are in *packets* (a stage
    /// measured once for an n-packet burst records n samples of the same
    /// burst-level cost via [`LatencyHistogram::record_n`]). Indexed by
    /// the stage's discriminant; the [`Stage::Fanout`] slot stays empty.
    stage_hist: [LatencyHistogram; Stage::TxFlush as usize + 1],
    /// Per-tier resolution-cost histograms; counts are in *sampled
    /// resolutions* — one per flow-key group (the unit burst-batched
    /// classification actually pays for) in the bursts the caller
    /// cycle-stamped. Callers that sample stamping (the PMD stamps 1-in-N
    /// bursts) populate these sparsely while keeping the counter fields
    /// exact via [`count_lookup`](Self::count_lookup).
    tier_hist: [LatencyHistogram; Tier::ALL.len()],
}

impl Default for PmdPerf {
    fn default() -> Self {
        Self::new(0)
    }
}

impl PmdPerf {
    /// An empty block for PMD `pmd`.
    pub fn new(pmd: usize) -> PmdPerf {
        PmdPerf {
            pmd,
            iterations: 0,
            idle_iterations: 0,
            rx_packets: 0,
            rx_batches: 0,
            fanout_sent: 0,
            fanout_recv: 0,
            tx_packets: 0,
            lookups: 0,
            emc_hits: 0,
            megaflow_hits: 0,
            classifier_hits: 0,
            misses: 0,
            busy_cycles: 0,
            idle_cycles: 0,
            stage_hist: std::array::from_fn(|_| LatencyHistogram::new()),
            tier_hist: std::array::from_fn(|_| LatencyHistogram::new()),
        }
    }

    fn tier_slot(tier: Tier) -> usize {
        Tier::ALL.iter().position(|t| *t == tier).expect("tier")
    }

    /// Records `cycles` spent in `stage` on behalf of `packets` packets.
    pub fn record_stage(&mut self, stage: Stage, cycles: u64, packets: u64) {
        self.stage_hist[stage as usize].record_n(cycles, packets);
    }

    /// Records one group resolution of `cycles` attributed to `tier`, and
    /// the per-PMD lookup counters for the `packets` the group stood for.
    /// `tier` is `None` on a miss.
    pub fn record_lookup(&mut self, tier: Option<Tier>, cycles: u64, packets: u64) {
        self.count_lookup(tier, packets);
        match tier {
            Some(t) => self.tier_hist[Self::tier_slot(t)].record(cycles),
            // A miss walked the whole hierarchy: classifier-tier cost.
            None => self.tier_hist[Self::tier_slot(Tier::Classifier)].record(cycles),
        }
    }

    /// The counter half of [`record_lookup`](Self::record_lookup), for
    /// deployments running with histograms disabled: lookup attribution
    /// stays exact while no cycle is ever read.
    pub fn count_lookup(&mut self, tier: Option<Tier>, packets: u64) {
        self.lookups += packets;
        match tier {
            Some(Tier::Emc) => self.emc_hits += packets,
            Some(Tier::Megaflow) => self.megaflow_hits += packets,
            Some(Tier::Classifier) => self.classifier_hits += packets,
            None => self.misses += packets,
        }
    }

    /// The histogram of one pipeline stage.
    pub fn stage(&self, stage: Stage) -> &LatencyHistogram {
        &self.stage_hist[stage as usize]
    }

    /// The resolution-cost histogram of one cache tier.
    pub fn tier(&self, tier: Tier) -> &LatencyHistogram {
        &self.tier_hist[Self::tier_slot(tier)]
    }

    /// Lookups that hit any tier.
    pub fn matched(&self) -> u64 {
        self.emc_hits + self.megaflow_hits + self.classifier_hits
    }

    /// Fraction of attributed cycles spent busy (0.0 when nothing ran).
    pub fn useful_cycle_ratio(&self) -> f64 {
        let total = self.busy_cycles + self.idle_cycles;
        if total == 0 {
            0.0
        } else {
            self.busy_cycles as f64 / total as f64
        }
    }

    /// Folds another PMD's block into this one (histograms merge exactly;
    /// `pmd` keeps this block's index). Used for "all PMDs" aggregates.
    pub fn merge(&mut self, other: &PmdPerf) {
        self.iterations += other.iterations;
        self.idle_iterations += other.idle_iterations;
        self.rx_packets += other.rx_packets;
        self.rx_batches += other.rx_batches;
        self.tx_packets += other.tx_packets;
        self.lookups += other.lookups;
        self.emc_hits += other.emc_hits;
        self.megaflow_hits += other.megaflow_hits;
        self.classifier_hits += other.classifier_hits;
        self.misses += other.misses;
        self.busy_cycles += other.busy_cycles;
        self.idle_cycles += other.idle_cycles;
        for (a, b) in self.stage_hist.iter_mut().zip(&other.stage_hist) {
            a.merge(b);
        }
        for (a, b) in self.tier_hist.iter_mut().zip(&other.tier_hist) {
            a.merge(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_attribution_keeps_the_identities() {
        let mut p = PmdPerf::new(3);
        p.record_lookup(Some(Tier::Emc), 50, 10);
        p.record_lookup(Some(Tier::Megaflow), 200, 4);
        p.record_lookup(Some(Tier::Classifier), 900, 2);
        p.record_lookup(None, 950, 1);
        assert_eq!(p.lookups, 17);
        assert_eq!(p.matched(), 16);
        assert_eq!(p.misses, 1);
        assert_eq!(p.lookups, p.matched() + p.misses);
        // One resolution per group, whatever the group size.
        assert_eq!(p.tier(Tier::Emc).count(), 1);
        assert_eq!(p.tier(Tier::Megaflow).count(), 1);
        assert_eq!(p.tier(Tier::Classifier).count(), 2, "miss counts here");
    }

    #[test]
    fn stage_counts_are_in_packets() {
        let mut p = PmdPerf::new(0);
        p.record_stage(Stage::Classify, 640, 32);
        p.record_stage(Stage::Classify, 100, 1);
        assert_eq!(p.stage(Stage::Classify).count(), 33);
        assert_eq!(p.stage(Stage::TxFlush).count(), 0);
        // The fan-out stage stays readable, always empty, and unlisted.
        assert_eq!(p.stage(Stage::Fanout).count(), 0);
        assert!(!Stage::ALL.contains(&Stage::Fanout));
    }

    #[test]
    fn merge_folds_counters_and_histograms() {
        let mut a = PmdPerf::new(0);
        let mut b = PmdPerf::new(1);
        a.record_lookup(Some(Tier::Emc), 10, 5);
        b.record_lookup(None, 700, 3);
        a.record_stage(Stage::RxBurst, 120, 5);
        b.record_stage(Stage::RxBurst, 90, 3);
        a.busy_cycles = 300;
        b.idle_cycles = 100;
        a.merge(&b);
        assert_eq!(a.pmd, 0);
        assert_eq!(a.lookups, 8);
        assert_eq!(a.misses, 3);
        assert_eq!(a.stage(Stage::RxBurst).count(), 8);
        assert!((a.useful_cycle_ratio() - 0.75).abs() < 1e-9);
    }
}
