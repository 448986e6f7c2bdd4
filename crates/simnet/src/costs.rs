//! Per-packet cycle costs.
//!
//! Quoted at the testbed's nominal 3 GHz. Derived from two sources, in this
//! order of authority:
//!
//! 1. the per-layer costs `benchmark/run --trace 1` measures on *this
//!    repository's* real code (`shmem.hop_desc_ns`, `ovs.classify_*_ns`,
//!    `ovs.traversal_ns`);
//! 2. the OVS-DPDK performance literature for the absolute anchors the
//!    simulation cannot reproduce (≈ 250–300 cycles per EMC-hit switch
//!    traversal ⇒ 10–12 Mpps per PMD core; single-core l2fwd VMs around
//!    8–17 Mpps), which the paper's testbed class is known for.

/// Cycle costs of path components (per packet, burst-amortised).
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// CPU frequency the costs are quoted against.
    pub cpu_hz: f64,
    /// PMD cores the vSwitch runs (the paper's server dedicates cores to
    /// OvS; two 10 G ports ⇒ two PMD cores is the customary sizing).
    pub ovs_pmd_cores: f64,
    /// Enqueue one packet on an SPSC ring (burst-amortised).
    pub ring_enqueue: f64,
    /// Dequeue one packet from an SPSC ring (burst-amortised).
    pub ring_dequeue: f64,
    /// Flow-key extraction + EMC hit inside the switch.
    pub emc_hit: f64,
    /// Extra cycles when the EMC misses but the megaflow (wildcard) cache
    /// hits: one hash probe per cached mask instead of a classifier walk.
    pub megaflow_extra: f64,
    /// Extra cycles when both caches miss into the tuple-space classifier
    /// (quoted *beyond* the EMC probe, like `megaflow_extra`).
    pub classifier_extra: f64,
    /// EMC hit probability in steady state (chains: stable flows ⇒ ~1.0).
    pub emc_hit_rate: f64,
    /// Megaflow hit probability *among EMC misses*. At the default 0.0
    /// every EMC miss still pays the megaflow *probe* (`megaflow_extra`)
    /// before the classifier walk — the datapath always consults the tier
    /// — so EMC-miss costs are `megaflow_extra` higher than the
    /// pre-megaflow two-tier model. The published-figure
    /// calibrations are unaffected: they run at the steady state
    /// `emc_hit_rate = 1.0`, where neither term contributes.
    pub megaflow_hit_rate: f64,
    /// Executing the matched output action (batched).
    pub ovs_action: f64,
    /// NIC driver rx+tx overhead per packet on a physical port.
    pub nic_driver: f64,
    /// The guest application's per-packet work (paper's forwarder).
    pub vnf_app: f64,
    /// Cost of polling one empty port (discovery latency term).
    pub empty_poll: f64,
    /// Source VM per-packet generation cost.
    pub gen_cost: f64,
    /// Sink VM per-packet accounting cost.
    pub sink_cost: f64,
}

impl CostModel {
    /// Overrides the number of PMD cores dedicated to the vSwitch.
    ///
    /// OVS-DPDK sizes its PMD set to the ports it must poll: the memory-only
    /// experiment (no physical ports) runs the default single PMD core,
    /// while the NIC experiment dedicates cores to the two physical ports
    /// plus the dpdkr rings (three in our calibration).
    pub fn with_pmd_cores(mut self, cores: f64) -> CostModel {
        self.ovs_pmd_cores = cores;
        self
    }

    /// Calibration for the paper's testbed (E5-2690 v2 @ 3 GHz).
    ///
    /// The ring and tier costs are anchored to measurements of this
    /// repository's real datapath: a descriptor ring hop measured
    /// ≈ 98 cycles (⇒ 50/50 enqueue/dequeue), and the classifier walk past
    /// decoy subtables ≈ 7.5× the warm-cache extra — far steeper than the
    /// pre-measurement guess — scaled here to the literature's absolute
    /// EMC-hit anchor (≈ 10–12 Mpps/core).
    pub fn paper_testbed() -> CostModel {
        CostModel {
            cpu_hz: 3.0e9,
            ovs_pmd_cores: 2.0,
            ring_enqueue: 50.0,
            ring_dequeue: 50.0,
            emc_hit: 120.0,
            megaflow_extra: 190.0,
            classifier_extra: 1400.0,
            emc_hit_rate: 1.0,
            megaflow_hit_rate: 0.0,
            ovs_action: 60.0,
            nic_driver: 70.0,
            vnf_app: 100.0,
            empty_poll: 55.0,
            gen_cost: 90.0,
            sink_cost: 60.0,
        }
    }

    /// Switch-side cost of carrying one packet across one seam
    /// (dequeue from source port, classify, act, enqueue to destination).
    /// Classification walks the tier hierarchy: an EMC miss costs
    /// `megaflow_extra` if the megaflow catches it, `megaflow_extra +
    /// classifier_extra` if it falls through to the tuple-space walk.
    pub fn ovs_crossing(&self) -> f64 {
        let emc_miss = 1.0 - self.emc_hit_rate;
        self.ring_dequeue
            + self.emc_hit
            + emc_miss
                * (self.megaflow_extra + (1.0 - self.megaflow_hit_rate) * self.classifier_extra)
            + self.ovs_action
            + self.ring_enqueue
    }

    /// Switch-side cost of a seam whose endpoint is a physical NIC.
    pub fn ovs_nic_crossing(&self) -> f64 {
        self.ovs_crossing() + self.nic_driver
    }

    /// A forwarding VM's per-packet cost (receive, process, send).
    pub fn vm_forward(&self) -> f64 {
        self.ring_dequeue + self.vnf_app + self.ring_enqueue
    }

    /// Total switch capacity in cycles/second.
    pub fn ovs_capacity_cycles(&self) -> f64 {
        self.ovs_pmd_cores * self.cpu_hz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_matches_known_anchors() {
        let c = CostModel::paper_testbed();
        let per_core = c.cpu_hz / c.ovs_crossing() / 1e6;
        assert!(
            (9.0..=13.0).contains(&per_core),
            "OVS-DPDK per-core rate {per_core:.1} Mpps out of the known 10-12 band"
        );
        let vm_mpps = c.cpu_hz / c.vm_forward() / 1e6;
        assert!(
            (10.0..=20.0).contains(&vm_mpps),
            "single-core forwarder {vm_mpps:.1} Mpps out of the plausible band"
        );
    }

    #[test]
    fn emc_misses_are_more_expensive() {
        let mut c = CostModel::paper_testbed();
        let hit = c.ovs_crossing();
        c.emc_hit_rate = 0.0;
        assert!(c.ovs_crossing() > hit + 400.0);
    }

    #[test]
    fn megaflow_tier_sits_between_emc_and_classifier() {
        let tiers = |emc_hit_rate, megaflow_hit_rate| CostModel {
            emc_hit_rate,
            megaflow_hit_rate,
            ..CostModel::paper_testbed()
        };
        let emc_only = tiers(1.0, 0.0);
        let megaflow = tiers(0.0, 1.0);
        let classifier = tiers(0.0, 0.0);
        assert!(emc_only.ovs_crossing() < megaflow.ovs_crossing());
        assert!(megaflow.ovs_crossing() < classifier.ovs_crossing());
        // A megaflow hit dodges the whole classifier walk.
        assert!(
            classifier.ovs_crossing() - megaflow.ovs_crossing()
                >= classifier.classifier_extra - f64::EPSILON
        );
        // At the evaluation's steady state (EMC hit rate 1.0 — every
        // published figure) the megaflow terms contribute nothing, so the
        // default crossing cost is exactly the pre-megaflow calibration.
        assert_eq!(
            CostModel::paper_testbed().ovs_crossing(),
            emc_only.ovs_crossing()
        );
    }

    #[test]
    fn nic_crossing_includes_driver() {
        let c = CostModel::paper_testbed();
        assert!(c.ovs_nic_crossing() > c.ovs_crossing());
    }
}
