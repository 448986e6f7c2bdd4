//! Unified observability layer for the vnf-highway reproduction, modeled
//! on Open vSwitch's coverage and PMD-perf machinery.
//!
//! Four pieces, each usable on its own:
//!
//! - [`coverage`](mod@coverage) — named event counters bumpable from any
//!   crate via the [`coverage!`] macro, sharded per-thread so PMDs never
//!   contend,
//!   aggregated on read (`coverage/show`).
//! - [`PmdPerf`] — one per-PMD block of counters plus cycle-denominated
//!   [`LatencyHistogram`]s per pipeline [`Stage`] and cache [`Tier`],
//!   merged exactly across PMDs for whole-datapath views.
//! - [`pools`] — weak-registered arena rows (exhaustion, high
//!   water, foreign frees, slab writes).
//! - [`TelemetrySnapshot`] — the structured point-in-time view behind the
//!   [`appctl`] text renderings, the Prometheus exporter and the JSON
//!   consumed by the benchmark and the CI smoke test (parseable with
//!   [`json`]).

pub mod appctl;
pub mod coverage;
pub mod hist;
pub mod json;
pub mod pmd_perf;
pub mod pools;
pub mod snapshot;

pub use hist::LatencyHistogram;
pub use pmd_perf::{PmdPerf, Stage, Tier};
pub use pools::PoolStats;
pub use snapshot::{DatapathTotals, DoorbellTotals, HistSummary, TelemetrySnapshot};
