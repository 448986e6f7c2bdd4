//! # packet-wire
//!
//! Zero-copy packet wire formats for the `vnf-highway` dataplane.
//!
//! The design follows the smoltcp idiom: every protocol has a *view* type
//! (`EthernetFrame`, `Ipv4Packet`, …) parameterised over any `AsRef<[u8]>`
//! buffer. Views validate lazily (`check_len`) and expose typed accessors for
//! every header field; mutable views (`AsMut<[u8]>`) expose setters. No view
//! ever allocates.
//!
//! On top of the views, the crate provides:
//!
//! * [`flow::FlowKey`] — the 5-tuple-plus-L2 key used by the vSwitch
//!   exact-match cache and the OpenFlow classifier;
//! * [`builder`] — infallible builders for the synthetic test/benchmark
//!   traffic used throughout the reproduction (64 B UDP probes with embedded
//!   sequence numbers and timestamps, matching the paper's workload);
//! * [`checksum`] — Internet checksum helpers shared by IPv4/UDP/TCP.

pub mod builder;
pub mod checksum;
pub mod ethernet;
pub mod flow;
pub mod ipv4;
pub mod tcp;
pub mod udp;

pub use builder::{PacketBuilder, ProbeHeader, PROBE_WIRE_LEN};
pub use ethernet::{EtherType, EthernetFrame, MacAddr, ETHERNET_HEADER_LEN};
pub use flow::FlowKey;
pub use ipv4::{IpProtocol, Ipv4Packet, IPV4_HEADER_LEN};
pub use tcp::TcpSegment;
pub use udp::{UdpDatagram, UDP_HEADER_LEN};

/// Minimum legal Ethernet frame length (without FCS), i.e. the 64 B frames
/// used in the paper's evaluation minus the 4 B FCS the NIC strips.
pub const MIN_FRAME_LEN: usize = 60;

/// Errors produced when parsing wire formats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer is shorter than the fixed header of the protocol.
    Truncated,
    /// A length field inside the packet is inconsistent with the buffer.
    BadLength,
    /// A checksum failed verification.
    BadChecksum,
    /// A version or type field holds an unsupported value.
    Unsupported,
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "buffer too short for header"),
            WireError::BadLength => write!(f, "inconsistent length field"),
            WireError::BadChecksum => write!(f, "checksum mismatch"),
            WireError::Unsupported => write!(f, "unsupported version or type"),
        }
    }
}

impl std::error::Error for WireError {}

/// Crate-wide result alias.
pub type Result<T> = core::result::Result<T, WireError>;
