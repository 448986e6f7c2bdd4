//! # vnf-highway
//!
//! A full reproduction of *"A Transparent Highway for inter-Virtual Network
//! Function Communication with Open vSwitch"* (SIGCOMM 2016): an
//! OVS-DPDK-style software switch whose point-to-point traffic-steering
//! rules are transparently accelerated by direct shared-memory channels
//! between the VMs they connect.
//!
//! This umbrella crate re-exports the workspace's public API:
//!
//! * [`highway`] — the paper's contribution (detector, manager, node);
//! * [`ovs`] — the vSwitch substrate;
//! * [`openflow`] — the OpenFlow 1.0 subset + wire codec;
//! * [`vnf`] — guest-side PMD and VNF applications;
//! * [`vm`] — VM/QEMU host model, compute agent, orchestrator;
//! * [`dpdk`] — rings, mbufs, the shared arena, and the lcore workers on
//!   which every PMD and guest vCPU runs as a stepper;
//! * [`shmem`] — shared-memory channels, virtio-serial, stats region;
//! * [`packet`] — wire formats;
//! * [`nic`] — simulated 10 G NICs and traffic generation;
//! * [`model`] — the calibrated performance model behind the figures;
//! * [`telemetry`] — coverage counters, per-PMD perf blocks, latency
//!   histograms and the appctl/Prometheus introspection surface;
//! * [`testbed`] — [`testbed::Chain`], the paper's chain of N VNFs built,
//!   driven with probes and torn down (with an arena census) in one place;
//!   the integration tests build their worlds on it.
//!
//! Start with [`highway::HighwayNode`] — see `examples/quickstart.rs`,
//! and `docs/architecture.md` in the repository for the full layer map.
//!
//! # Quickstart
//!
//! A highway node is a whole server: vSwitch, shared-memory registry,
//! compute agent and the highway manager. Boot one, attach an ordinary
//! OpenFlow controller over the framed control channel, and install a
//! rule — the switch end is real `ofproto`, so barriers fence and flow
//! stats answer:
//!
//! ```
//! use std::time::Duration;
//! use vnf_highway::prelude::*;
//!
//! let node = HighwayNode::new(HighwayNodeConfig::default());
//! node.start();
//!
//! // `connect_controller()` hands back the controller end of a framed
//! // OpenFlow 1.0 byte stream (use `listen_controller()` for real TCP).
//! let ctrl = node.connect_controller();
//! ctrl.add_flow(
//!     FlowMatch::in_port(PortNo(1)),
//!     100,
//!     vec![Action::Output(PortNo(2))],
//!     0xc0ffee,
//! )
//! .expect("flow mod accepted");
//! ctrl.barrier(Duration::from_secs(5)).expect("switch committed");
//!
//! let stats = ctrl.flow_stats(Duration::from_secs(5)).expect("stats");
//! assert_eq!(stats.len(), 1);
//! assert_eq!(stats[0].cookie, 0xc0ffee);
//! node.stop();
//! ```
//!
//! # Writing a controller app
//!
//! Policy plugs in behind [`openflow::FabricApp`]; a
//! [`openflow::FabricRuntime`] owns the connections — one per switch, and
//! one switch is the common case — drives each handshake and redelivers
//! `on_switch_ready` after every reconnect, so an idempotent install there
//! survives controller restarts for free:
//!
//! ```
//! use std::time::Duration;
//! use vnf_highway::openflow::{
//!     Connection, FabricApp, FabricRuntime, OfpMessage, SwitchFeatures,
//! };
//! use vnf_highway::prelude::*;
//!
//! /// Mirrors port 1 to port 2, re-asserting the rule on every
//! /// (re)connect — OpenFlow 1.0 `Add` replaces, so this is idempotent.
//! struct PortMirror {
//!     installs: u32,
//! }
//!
//! impl FabricApp for PortMirror {
//!     fn on_switch_ready(&mut self, dpid: u64, conn: &Connection, features: &SwitchFeatures) {
//!         assert_eq!(features.datapath_id, dpid, "switch identified itself");
//!         conn.add_flow(
//!             FlowMatch::in_port(PortNo(1)),
//!             50,
//!             vec![Action::Output(PortNo(2))],
//!             0xbeef,
//!         )
//!         .expect("install");
//!         conn.barrier(Duration::from_secs(5)).expect("fence");
//!         self.installs += 1;
//!     }
//!
//!     fn on_switch_message(&mut self, _dpid: u64, _conn: &Connection, _msg: OfpMessage, _xid: u32) {
//!         // packet-ins, port-status, flow-removed arrive here
//!     }
//! }
//!
//! let node = HighwayNode::new(HighwayNodeConfig::default());
//! node.start();
//!
//! let mut rt = FabricRuntime::new(PortMirror { installs: 0 });
//! rt.add_switch(node.connect_controller());
//! rt.run_until_ready(Duration::from_secs(5)).expect("handshake");
//! assert_eq!(rt.app().installs, 1);
//! node.stop();
//! ```

pub use dpdk_sim as dpdk;
pub use highway_core as highway;
pub use nic_sim as nic;
pub use openflow;
pub use ovs_dp as ovs;
pub use packet_wire as packet;
pub use shmem_sim as shmem;
pub use simnet as model;
pub use telemetry;
pub use vm_host as vm;
pub use vnf_apps as vnf;

pub mod testbed;

/// Convenience prelude for examples and downstream users.
pub mod prelude {
    pub use dpdk_sim::{Arena, Mbuf};
    pub use highway_core::{HighwayNode, HighwayNodeConfig};
    pub use openflow::{Action, FlowMatch, OfpMessage, PortNo};
    pub use ovs_dp::{VSwitchd, VSwitchdConfig};
    pub use packet_wire::{FlowKey, MacAddr, PacketBuilder, ProbeHeader};
    pub use shmem_sim::{SegmentKind, StatsRegion};
    pub use vm_host::{AppKind, ComputeAgent, LatencyModel, Orchestrator, Vm, VnfSpec};
    pub use vnf_apps::{Firewall, FirewallRule, L2Forwarder, NetworkMonitor, WebCache};
}
