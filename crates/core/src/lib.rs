//! # highway-core
//!
//! The paper's contribution: a *transparent highway* for inter-VNF
//! communication. Given an unmodified controller, unmodified VNF
//! applications and the OVS-DPDK-style substrate in `ovs-dp`, this crate
//! adds the three pieces §2 of the paper describes:
//!
//! * [`detector`] — the **p-2-p link detector**: hooks flow-table changes
//!   (every flow_mod) and recognises when the rules express a pure
//!   point-to-point connection between two dpdkr ports, or when such a
//!   connection disappears.
//! * [`manager`] — the reconciliation engine: turns detector output into
//!   compute-agent operations (create/destroy bypass channels), serially
//!   and asynchronously from the switch's control loop, keeping a log of
//!   setup latencies (the paper's ~100 ms claim is measured from here).
//! * [`stats`] — the statistics bridge: implements the switch's
//!   [`ovs_dp::StatsAugmenter`] hook over the shared-memory
//!   [`shmem_sim::StatsRegion`] the guest PMDs write, so flow and port
//!   statistics remain exact even for traffic the switch never sees.
//! * [`node`] — [`node::HighwayNode`], the assembled server: switch +
//!   registry + compute agent + orchestrator + highway, with a single
//!   switch to run the same deployment in *vanilla* mode (the evaluation
//!   baseline) or *highway* mode.
//! * [`fabric`] — [`fabric::Fabric`], N highway nodes with unique
//!   datapath ids wired by simulated inter-host trunks, plus cross-host
//!   chain placement; one [`openflow::FabricRuntime`] controller drives
//!   them all over the framed control channel.
//! * [`apps`] — [`apps::FabricChainSteering`], the ordinary OpenFlow
//!   controller the paper assumes: it installs each switch's service-chain
//!   steering rules through one [`openflow::FabricRuntime`], whether the
//!   fabric is one switch or many, and knows nothing of the highway.
//! * [`policy`] — the [`policy::AccelerationPolicy`]: which detected links
//!   may be accelerated (port exclusions).
//! * [`events`] — the [`events::EventJournal`]: a timestamped record of
//!   every bypass lifecycle step, with live subscriptions; the setup-time
//!   experiment and the failure-injection tests read it.

pub mod apps;
pub mod detector;
pub mod events;
pub mod fabric;
pub mod manager;
pub mod node;
pub mod policy;
pub mod stats;

pub use apps::{FabricChainSteering, Seam};
pub use detector::{detect_p2p_links, P2pLink};
pub use events::{BypassEvent, BypassEventKind, EventJournal};
pub use fabric::{Fabric, FabricChain, Trunk};
pub use manager::{HighwayManager, LinkState, SetupRecord};
pub use node::{HighwayNode, HighwayNodeConfig};
pub use policy::AccelerationPolicy;
pub use stats::HighwayStatsAugmenter;
