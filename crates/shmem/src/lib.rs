//! # shmem-sim
//!
//! Process-local model of the host shared-memory machinery the paper's
//! prototype uses to wire VMs to Open vSwitch and to each other:
//!
//! * [`mod@channel`] — a bidirectional pair of SPSC packet rings. One channel
//!   is what a `dpdkr` port exposes (the *normal* channel to the vSwitch) and
//!   what a bypass connection creates between two VMs. Every packet is an
//!   arena slot and rides the rings as its 8-byte offset descriptor (the
//!   zero-copy hop).
//! * [`registry`] — the host's table of named shared-memory segments, so
//!   tests and the compute agent can observe segment lifecycle (created on
//!   bypass setup, released on teardown) exactly as hugepage segments are in
//!   the prototype.
//! * [`ivshmem`] — the QEMU device model through which a segment is exposed
//!   to a guest; hot-pluggable.
//! * [`serial`] — the virtio-serial control channel used by the compute
//!   agent to reconfigure the guest PMD.
//! * [`stats`] — the shared statistics region the modified PMD writes and
//!   OVS reads when exporting per-rule / per-port counters for bypassed
//!   traffic.

pub mod channel;
pub mod ivshmem;
pub mod registry;
pub mod serial;
pub mod stats;

pub use channel::{channel, ChannelEnd, ChannelEndStats};
pub use ivshmem::DeviceBoard;
pub use ivshmem::IvshmemDevice;
pub use registry::{SegmentKind, SegmentRecord, ShmRegistry, DEFAULT_ARENA_SLOTS};
pub use serial::{serial_pair, SerialError, SerialPort};
pub use stats::{CounterCell, PortDir, StatsRegion};

/// Default ring depth of a channel direction, matching the prototype's
/// dpdkr ring size.
pub const DEFAULT_RING_DEPTH: usize = 1024;
