//! The closed-chain bottleneck solver.
//!
//! Poll-mode dataplanes are deterministic pipelines: every packet costs a
//! fixed number of cycles on every resource it touches, so a chain's
//! sustained throughput is set by the single most-loaded resource. For a
//! symmetric bidirectional load at rate `x` packets/second *per direction*:
//!
//! ```text
//!     x · demand_r (cycles/pkt, both directions)  ≤  capacity_r
//!     x* = min_r capacity_r / demand_r
//! ```
//!
//! and the figures report the aggregate `2·x*`.

use crate::costs::CostModel;
use crate::topology::{ChainSpec, EdgeKind, Mode};

/// A solved chain.
#[derive(Debug, Clone)]
pub struct Solution {
    /// Aggregate bidirectional rate (Mpps) — the figures' y-axis.
    pub aggregate_mpps: f64,
    /// Name of the binding resource.
    pub bottleneck: String,
}

/// Builds the per-resource demand table for a chain.
/// `demand_per_pair` counts BOTH directions (one packet each way).
fn demands(spec: &ChainSpec, cost: &CostModel) -> Vec<(String, f64, f64)> {
    let mut out: Vec<(String, f64, f64)> = Vec::new();

    // --- the vSwitch PMD pool ---
    let per_dir_vm_seams = match spec.mode {
        Mode::Vanilla => spec.vm_seams() as f64,
        Mode::Highway => 0.0,
    };
    let per_dir_nic_seams = spec.nic_seams() as f64;
    let ovs_cycles_per_pair = 2.0
        * (per_dir_vm_seams * cost.ovs_crossing() + per_dir_nic_seams * cost.ovs_nic_crossing());
    if ovs_cycles_per_pair > 0.0 {
        out.push((
            "ovs-pmd".into(),
            ovs_cycles_per_pair,
            cost.ovs_capacity_cycles(),
        ));
    }

    // --- the VMs ---
    match spec.edge {
        EdgeKind::Memory => {
            // Each endpoint VM generates one direction's packet and sinks
            // the other's: one gen+enqueue plus one dequeue+sink per pair.
            // Both endpoints carry identical demand; model one (symmetric).
            let endpoint =
                (cost.gen_cost + cost.ring_enqueue) + (cost.ring_dequeue + cost.sink_cost);
            out.push(("vm-endpoint".into(), endpoint, cost.cpu_hz));
            if spec.forwarding_vms() > 0 {
                // Every forwarding VM carries both directions.
                out.push(("vm-forwarder".into(), 2.0 * cost.vm_forward(), cost.cpu_hz));
            }
        }
        EdgeKind::Nic { .. } => {
            if spec.forwarding_vms() > 0 {
                out.push(("vm-forwarder".into(), 2.0 * cost.vm_forward(), cost.cpu_hz));
            }
        }
    }

    // --- the NICs ---
    if let EdgeKind::Nic { gbps, frame_len } = spec.edge {
        // Each NIC port carries one packet per direction per pair
        // (one direction enters it, the other leaves it).
        let line_pps = nic_sim_line_rate(gbps, frame_len);
        out.push(("nic-port".into(), 2.0, 2.0 * line_pps));
    }

    out
}

/// 10 GbE framing economics (duplicated from `nic-sim` to keep `simnet`
/// dependency-free; cross-checked by a test against the known constants).
fn nic_sim_line_rate(gbps: f64, frame_len: usize) -> f64 {
    gbps * 1e9 / (((frame_len + 20) * 8) as f64)
}

/// Solves a chain for its sustained bidirectional throughput.
pub fn solve(spec: &ChainSpec, cost: &CostModel) -> Solution {
    let (x, bottleneck) = demands(spec, cost)
        .into_iter()
        .filter(|(_, demand, _)| *demand > 0.0)
        .map(|(name, demand, capacity)| (capacity / demand, name))
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .expect("chain has at least one resource");
    Solution {
        aggregate_mpps: 2.0 * x / 1e6,
        bottleneck,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Memory-only experiments run the default single-PMD switch.
    fn mem_cost() -> CostModel {
        CostModel::paper_testbed().with_pmd_cores(1.0)
    }

    /// NIC experiments dedicate PMD cores to the physical ports.
    fn nic_cost() -> CostModel {
        CostModel::paper_testbed().with_pmd_cores(3.0)
    }

    #[test]
    fn vanilla_memory_chain_is_switch_bound_and_declines() {
        let cost = mem_cost();
        let s2 = solve(&ChainSpec::memory(2, Mode::Vanilla), &cost);
        let s8 = solve(&ChainSpec::memory(8, Mode::Vanilla), &cost);
        assert!(s8.aggregate_mpps < s2.aggregate_mpps / 4.0);
        assert_eq!(s8.bottleneck, "ovs-pmd");
        // 1/(N-1) shape: throughput ratio ≈ seam ratio.
        let ratio = s2.aggregate_mpps / s8.aggregate_mpps;
        assert!((6.0..=8.0).contains(&ratio), "ratio {ratio:.2} not ≈ 7");
    }

    #[test]
    fn highway_memory_chain_is_vm_bound_with_flat_tail() {
        let cost = mem_cost();
        let s2 = solve(&ChainSpec::memory(2, Mode::Highway), &cost);
        let s3 = solve(&ChainSpec::memory(3, Mode::Highway), &cost);
        let s8 = solve(&ChainSpec::memory(8, Mode::Highway), &cost);
        // N=2 has no forwarding VM (endpoints only); from N=3 on the
        // forwarder core binds and throughput is flat.
        assert!(s2.aggregate_mpps >= s3.aggregate_mpps);
        assert!((s8.aggregate_mpps - s3.aggregate_mpps).abs() < 1e-6);
        assert!(s8.bottleneck.starts_with("vm"));
    }

    #[test]
    fn highway_beats_vanilla_everywhere_and_gap_grows() {
        let cost = mem_cost();
        let mut last_gap = 0.0;
        for n in 2..=8 {
            let v = solve(&ChainSpec::memory(n, Mode::Vanilla), &cost).aggregate_mpps;
            let h = solve(&ChainSpec::memory(n, Mode::Highway), &cost).aggregate_mpps;
            assert!(h >= v, "highway slower at n={n}: {h:.2} vs {v:.2}");
            let gap = h / v;
            assert!(gap >= last_gap * 0.99, "gap shrank at n={n}");
            last_gap = gap;
        }
        assert!(last_gap > 4.0, "gap at n=8 only {last_gap:.1}×");
    }

    #[test]
    fn nic_chain_matches_figure_3b_shape() {
        let cost = nic_cost();
        // N=1: both modes identical (no VM seam to bypass).
        let v1 = solve(&ChainSpec::nic(1, Mode::Vanilla), &cost).aggregate_mpps;
        let h1 = solve(&ChainSpec::nic(1, Mode::Highway), &cost).aggregate_mpps;
        assert!((v1 - h1).abs() < 1e-6);
        // The y-axis of Fig. 3(b) spans 4..20 Mpps; N=1 sits in the teens.
        assert!((10.0..=20.0).contains(&v1), "N=1 at {v1:.1} Mpps");
        // Vanilla declines with N; highway stays flat.
        let v8 = solve(&ChainSpec::nic(8, Mode::Vanilla), &cost).aggregate_mpps;
        let h8 = solve(&ChainSpec::nic(8, Mode::Highway), &cost).aggregate_mpps;
        assert!((3.0..=7.0).contains(&v8), "N=8 vanilla at {v8:.1} Mpps");
        assert!(
            (h8 - h1).abs() < 0.1 * h1,
            "highway not flat: {h1:.1}→{h8:.1}"
        );
    }

    #[test]
    fn nic_line_rate_constant() {
        let pps = nic_sim_line_rate(10.0, 64);
        assert!((pps / 1e6 - 14.88).abs() < 0.01);
    }
}
