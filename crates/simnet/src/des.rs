//! A packet-level discrete-event cross-check of the bottleneck solver.
//!
//! The prediction comes from the closed-form solver in [`crate::solver`];
//! this module re-derives the same numbers the slow way — individual
//! packets visiting FIFO stations in virtual time — so the reproduction
//! does not rest on one analytic shortcut. The two models share only the
//! [`CostModel`] inputs; agreement (within a few percent at saturation) is
//! asserted by the tests below and by `tests/properties.rs` over random
//! cost models.

use crate::costs::CostModel;
use crate::topology::{ChainSpec, EdgeKind, Mode};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One shared FIFO resource with one timeline per server (a PMD *pool*
/// has one per core — modelling it as a single faster server would create
/// a false serialisation point and starve balanced pipelines).
#[derive(Debug, Clone)]
struct Station {
    /// When each server next becomes free (cycles).
    free_at: Vec<u64>,
}

impl Station {
    /// Admits one packet at time `t`: earliest-free server takes it.
    fn admit(&mut self, t: u64, service: u64) -> u64 {
        let idx = (0..self.free_at.len())
            .min_by_key(|i| self.free_at[*i])
            .expect("station has servers");
        let start = t.max(self.free_at[idx]);
        let done = start + service;
        self.free_at[idx] = done;
        done
    }
}

/// A packet's itinerary: `(station index, service cycles)` per hop.
type Route = Vec<(usize, u64)>;

/// The simulated chain: stations plus one route per direction.
pub struct ChainSim {
    stations: Vec<Station>,
    forward: Route,
    reverse: Route,
    cpu_hz: f64,
}

/// Outcome of a run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Delivered aggregate throughput (Mpps, both directions).
    pub aggregate_mpps: f64,
    /// Packets delivered.
    pub delivered: u64,
}

impl ChainSim {
    /// Builds the event-level twin of a [`ChainSpec`] under a [`CostModel`].
    ///
    /// Station granularity matches the solver's resources: the vSwitch PMD
    /// pool is one station whose service time is divided by its core count;
    /// each VM is a station serving both directions; each NIC port is a
    /// station at its line rate.
    pub fn new(spec: &ChainSpec, cost: &CostModel) -> ChainSim {
        let mut stations = Vec::new();
        let mut add = |servers: usize| {
            stations.push(Station {
                free_at: vec![0; servers.max(1)],
            });
            stations.len() - 1
        };

        let cyc = |cycles: f64| cycles.max(1.0).round() as u64;
        // The PMD pool: one server per core, full per-packet service.
        let ovs = add(cost.ovs_pmd_cores.round() as usize);
        let ovs_service = cyc(cost.ovs_crossing());
        let ovs_nic_service = cyc(cost.ovs_nic_crossing());

        let mut forward: Route = Vec::new();
        let mut reverse: Route = Vec::new();

        match spec.edge {
            EdgeKind::Memory => {
                let src = add(1);
                let mut mids = Vec::new();
                for _ in 0..spec.forwarding_vms() {
                    mids.push(add(1));
                }
                let dst = add(1);

                let gen = cyc(cost.gen_cost + cost.ring_enqueue);
                let sink = cyc(cost.ring_dequeue + cost.sink_cost);
                let fwd = cyc(cost.vm_forward());
                let crossing = match spec.mode {
                    Mode::Vanilla => Some(ovs_service),
                    Mode::Highway => None,
                };

                // Forward: endpoint A generates, every seam optionally
                // crosses the switch, forwarders relay, endpoint B sinks.
                forward.push((src, gen));
                for mid in &mids {
                    if let Some(s) = crossing {
                        forward.push((ovs, s));
                    }
                    forward.push((*mid, fwd));
                }
                if let Some(s) = crossing {
                    forward.push((ovs, s));
                }
                forward.push((dst, sink));

                // Reverse: mirrored.
                reverse.push((dst, gen));
                for mid in mids.iter().rev() {
                    if let Some(s) = crossing {
                        reverse.push((ovs, s));
                    }
                    reverse.push((*mid, fwd));
                }
                if let Some(s) = crossing {
                    reverse.push((ovs, s));
                }
                reverse.push((src, sink));
            }
            EdgeKind::Nic { gbps, frame_len } => {
                let nic_a = add(1);
                let nic_b = add(1);
                let line_pps = gbps * 1e9 / (((frame_len + 20) * 8) as f64);
                let nic_service = cyc(cost.cpu_hz / line_pps);
                let mut vms = Vec::new();
                for _ in 0..spec.n_vms {
                    vms.push(add(1));
                }
                let fwd = cyc(cost.vm_forward());
                let inner = match spec.mode {
                    Mode::Vanilla => Some(ovs_service),
                    Mode::Highway => None,
                };

                forward.push((nic_a, nic_service));
                forward.push((ovs, ovs_nic_service));
                for (i, vm) in vms.iter().enumerate() {
                    if i > 0 {
                        if let Some(s) = inner {
                            forward.push((ovs, s));
                        }
                    }
                    forward.push((*vm, fwd));
                }
                forward.push((ovs, ovs_nic_service));
                forward.push((nic_b, nic_service));

                reverse.push((nic_b, nic_service));
                reverse.push((ovs, ovs_nic_service));
                for (i, vm) in vms.iter().rev().enumerate() {
                    if i > 0 {
                        if let Some(s) = inner {
                            reverse.push((ovs, s));
                        }
                    }
                    reverse.push((*vm, fwd));
                }
                reverse.push((ovs, ovs_nic_service));
                reverse.push((nic_a, nic_service));
            }
        }

        ChainSim {
            stations,
            forward,
            reverse,
            cpu_hz: cost.cpu_hz,
        }
    }

    /// Saturation throughput, measured closed-loop: a fixed window of
    /// packets circulates per direction (each completion immediately
    /// injects a successor), so every station stays fed and the two
    /// directions remain interleaved — the steady state the solver
    /// describes. (An *open* overload batch would serialise the
    /// directions at the endpoint stations: all of direction A's backlog
    /// arrives before direction B's first packets, and FIFO order then
    /// processes them sequentially — measuring a drain wave, not the
    /// sustainable rate.)
    pub fn saturate(&mut self, packets_per_direction: u64) -> SimResult {
        self.run_closed(packets_per_direction, 64)
    }

    /// Closed-loop run: `window` packets in flight per direction; each
    /// completion injects the next until `packets_per_direction` have been
    /// delivered per direction. Throughput is measured over the second
    /// half of completions (steady state).
    fn run_closed(&mut self, packets_per_direction: u64, window: u64) -> SimResult {
        #[derive(PartialEq, Eq, PartialOrd, Ord)]
        struct Ev {
            time: u64,
            seq: u64,
            dir: bool,
            stage: usize,
        }
        for s in &mut self.stations {
            s.free_at.fill(0);
        }
        let mut heap: BinaryHeap<Reverse<Ev>> = BinaryHeap::new();
        let window = window.min(packets_per_direction).max(1);
        // Stagger the initial windows so the first burst interleaves.
        for seq in 0..window {
            heap.push(Reverse(Ev {
                time: seq,
                seq,
                dir: false,
                stage: 0,
            }));
            heap.push(Reverse(Ev {
                time: seq,
                seq,
                dir: true,
                stage: 0,
            }));
        }
        let mut injected = [window, window];
        let mut delivered = 0u64;
        let mut last_done = 0u64;
        let measure_after = packets_per_direction; // half of 2N completions
        let mut measure_start = 0u64;
        let mut measured = 0u64;
        while let Some(Reverse(ev)) = heap.pop() {
            let route: &Route = if ev.dir { &self.reverse } else { &self.forward };
            let (station, service) = route[ev.stage];
            let done = self.stations[station].admit(ev.time, service);
            if ev.stage + 1 < route.len() {
                heap.push(Reverse(Ev {
                    time: done,
                    seq: ev.seq,
                    dir: ev.dir,
                    stage: ev.stage + 1,
                }));
            } else {
                delivered += 1;
                last_done = last_done.max(done);
                if delivered == measure_after {
                    measure_start = done;
                } else if delivered > measure_after {
                    measured += 1;
                }
                // Closed loop: this completion admits a successor.
                let dir_idx = usize::from(ev.dir);
                if injected[dir_idx] < packets_per_direction {
                    let seq = injected[dir_idx];
                    injected[dir_idx] += 1;
                    heap.push(Reverse(Ev {
                        time: done,
                        seq,
                        dir: ev.dir,
                        stage: 0,
                    }));
                }
            }
        }
        let span_s = last_done.saturating_sub(measure_start) as f64 / self.cpu_hz;
        SimResult {
            aggregate_mpps: if span_s > 0.0 {
                measured as f64 / span_s / 1e6
            } else {
                0.0
            },
            delivered,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::solve;

    fn mem_cost() -> CostModel {
        CostModel::paper_testbed().with_pmd_cores(1.0)
    }

    fn nic_cost() -> CostModel {
        CostModel::paper_testbed().with_pmd_cores(3.0)
    }

    /// DES saturation agrees with the closed-form solver within 10 %.
    fn assert_agreement(spec: ChainSpec, cost: &CostModel) {
        let analytic = solve(&spec, cost).aggregate_mpps;
        let mut sim = ChainSim::new(&spec, cost);
        let des = sim.saturate(20_000).aggregate_mpps;
        let err = (des - analytic).abs() / analytic;
        assert!(
            err < 0.10,
            "{spec:?}: DES {des:.2} vs analytic {analytic:.2} Mpps ({:.1}% off)",
            err * 100.0
        );
    }

    #[test]
    fn des_matches_solver_memory_vanilla() {
        for n in [2usize, 4, 8] {
            assert_agreement(ChainSpec::memory(n, Mode::Vanilla), &mem_cost());
        }
    }

    #[test]
    fn des_matches_solver_memory_highway() {
        for n in [2usize, 4, 8] {
            assert_agreement(ChainSpec::memory(n, Mode::Highway), &mem_cost());
        }
    }

    #[test]
    fn des_matches_solver_nic_both_modes() {
        for n in [1usize, 4, 8] {
            assert_agreement(ChainSpec::nic(n, Mode::Vanilla), &nic_cost());
            assert_agreement(ChainSpec::nic(n, Mode::Highway), &nic_cost());
        }
    }

    #[test]
    fn des_reproduces_figure_3a_shape() {
        // The full published shape, from the packet-level model alone.
        let cost = mem_cost();
        let mut prev_gap = 0.0;
        for n in [2usize, 4, 6, 8] {
            let v = ChainSim::new(&ChainSpec::memory(n, Mode::Vanilla), &cost)
                .saturate(10_000)
                .aggregate_mpps;
            let h = ChainSim::new(&ChainSpec::memory(n, Mode::Highway), &cost)
                .saturate(10_000)
                .aggregate_mpps;
            assert!(h > v, "highway wins at n={n}");
            let gap = h / v;
            assert!(gap >= prev_gap * 0.95, "gap does not collapse with n");
            prev_gap = gap;
        }
        assert!(prev_gap > 4.0, "n=8 gap {prev_gap:.1}x");
    }

    #[test]
    fn packets_and_station_visits_are_conserved() {
        let cost = mem_cost();
        let mut sim = ChainSim::new(&ChainSpec::memory(3, Mode::Vanilla), &cost);
        assert_eq!(sim.saturate(1_000).delivered, 2_000);
        // Either direction crosses the switch (station 0) at both seams
        // and visits the single forwarder once.
        for route in [&sim.forward, &sim.reverse] {
            assert_eq!(route.iter().filter(|(s, _)| *s == 0).count(), 2);
            assert_eq!(route.len(), 5, "source, switch, forwarder, switch, sink");
        }
    }
}
