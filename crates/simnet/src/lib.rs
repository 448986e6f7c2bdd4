//! # simnet
//!
//! The calibrated performance model the benchmark checks its measured
//! chain speed-up against (`simnet.pred_speedup_chain4` beside
//! `simnet.measured_speedup_chain4`).
//!
//! The *functional* reproduction (crates `ovs-dp`, `vnf-apps`,
//! `highway-core`) really moves packets between threads; its measured
//! per-layer costs calibrate this model. The model predicts what those
//! costs imply on the paper's 10-core testbed:
//!
//! * [`costs`] — per-packet cycle costs of every component on the path
//!   (ring ops, EMC hit, classifier miss, action execution, VNF work, NIC
//!   driver overhead), quoted against the testbed's 3 GHz clock.
//! * [`topology`] — chain topologies: N VMs, memory-only or NIC-edged,
//!   vanilla or highway mode — the four configurations of Figure 3.
//! * [`solver`] — a closed-chain bottleneck solver: per-resource cycle
//!   demand × symmetric bidirectional rate ≤ capacity; the binding
//!   resource sets the throughput (how one reasons about poll-mode
//!   dataplanes, cf. the OVS-DPDK performance literature).
//! * [`des`] — a packet-level discrete-event twin of the solver: same
//!   inputs, independent mechanics; tests assert the two agree, so the
//!   prediction does not rest on one analytic shortcut.

pub mod costs;
pub mod des;
pub mod solver;
pub mod topology;

pub use costs::CostModel;
pub use des::{ChainSim, SimResult};
pub use solver::{solve, Solution};
pub use topology::{ChainSpec, EdgeKind, Mode};
