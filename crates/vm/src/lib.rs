//! # vm-host
//!
//! The host-side machinery around the VMs:
//!
//! * [`vm`] — a KVM/QEMU-style VM: a device board for hot-plugged ivshmem
//!   devices, a virtio-serial control channel, and a vCPU stepper, the
//!   guest [`vnf_apps::VnfRunner`], placed on an lcore worker.
//! * [`latency`] — the latency model for QEMU device hot-plug and
//!   virtio-serial round-trips. The paper reports ≈100 ms from p-2-p rule
//!   detection to an active bypass; essentially all of it is these control
//!   operations, so they carry calibrated constant delays that the
//!   setup-time experiment measures end-to-end.
//! * [`agent`] — the **modified compute agent**: receives bypass requests
//!   from the vSwitch side, creates the shared segment, hot-plugs it into
//!   both VMs, reconfigures both PMDs over virtio-serial, and reverses all
//!   of it on teardown.
//! * [`orchestrator`] — deploys service graphs: creates VMs with dpdkr
//!   ports on a switch, launches guest applications and installs the
//!   traffic-steering rules.

pub mod agent;
pub mod faults;
pub mod latency;
pub mod orchestrator;
pub mod vm;

pub use agent::{AgentError, ComputeAgent, SetupReport, TeardownReport};
pub use faults::{FaultOp, FaultPlan};
pub use latency::LatencyModel;
pub use orchestrator::{
    AppKind, ChainDeployment, GraphDeployment, GraphEdgeSpec, GraphPort, GraphSpec, Orchestrator,
    VnfSpec,
};
pub use vm::Vm;
