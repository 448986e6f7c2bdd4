//! # ovs-dp
//!
//! An Open vSwitch-with-DPDK-style software switch: the substrate the paper
//! modifies. The moving parts mirror the real architecture closely enough
//! that the paper's patch points exist here too:
//!
//! * [`port`] — switch ports: every one a `dpdkr` shared-memory channel,
//!   whether a VM's PMD or a NIC's wire end holds the peer.
//! * [`table`] — the OpenFlow flow table with add/modify/delete (strict and
//!   loose) semantics, priorities, cookies, timeouts and per-rule counters.
//! * [`classifier`] — tuple-space search: one hash subtable per wildcard
//!   mask, exactly OVS's `dpcls`.
//! * [`emc`] — the exact-match cache in front of the classifier, keyed by
//!   `(in_port, flow key)`, invalidated by table generation.
//! * [`megaflow`] — the wildcard-mask cache between the EMC and the
//!   classifier: one entry per *traffic aggregate* under the staged
//!   unwildcarding mask the classifier accumulated, invalidated by the
//!   same table generation.
//! * [`actions`] — action execution: header rewrites and output.
//! * [`pmd`] — the poll-mode datapath: N PMD steppers, each owning private
//!   caches and a share of the ports, running every packet it polls to
//!   completion against the one flow table, which a cache hit validates
//!   without locking.
//! * [`ofproto`] — the OpenFlow agent: decodes controller messages, applies
//!   flow_mods, answers statistics (optionally *augmented* by an external
//!   provider — the hook the paper's shared-memory stats use), and emits
//!   packet-ins.
//! * [`vswitchd`] — glues the above into a runnable switch daemon.
//!
//! Two extension hooks exist specifically for the highway (they are no-ops
//! on a vanilla switch, which is how the reproduction runs its baseline):
//!
//! 1. [`ofproto::FlowTableObserver`] — called with a rule snapshot after
//!    every table change; the p-2-p link detector lives behind it.
//! 2. [`ofproto::StatsAugmenter`] — consulted when building flow/port stats
//!    replies; the bypass stats region lives behind it.

pub mod actions;
pub mod classifier;
pub mod dump;
pub mod emc;
pub mod megaflow;
pub mod ofproto;
pub mod pmd;
pub mod port;
pub mod table;
pub mod vswitchd;

pub use dump::{dump_datapath_stats, dump_flows, dump_megaflows, dump_ports};
pub use megaflow::{Megaflow, MegaflowRow};
pub use ofproto::{FlowTableObserver, Ofproto, RuleSnapshot, StatsAugmenter};
pub use pmd::{rss_owner, CacheTier, CacheTierStats, PmdCaches, PmdThread};
pub use port::{OvsPort, PortCounters, PortStats};
pub use table::{FlowTable, RuleEntry, TableChange};
pub use vswitchd::{VSwitchd, VSwitchdConfig};
