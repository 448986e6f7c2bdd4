//! # openflow
//!
//! The slice of OpenFlow 1.0 the reproduction needs — which is everything the
//! paper's control plane touches:
//!
//! * the 12-tuple [`FlowMatch`] with per-field wildcards and CIDR prefixes,
//! * [`Action`]s (output, field rewrites, flood, controller),
//! * [`FlowMod`] with add/modify/delete (strict and loose) semantics,
//! * flow/port statistics requests and replies,
//! * `packet-out` / `packet-in`, barrier, echo and features exchanges,
//! * a byte-level wire [`codec`] for all of the above, faithful to the
//!   OF 1.0 framing (8-byte header, 40-byte `ofp_match`, TLV action list) —
//!   the controller and the switch genuinely exchange encoded bytes, which
//!   is what makes the paper's *transparency to the controller* claim
//!   testable rather than assumed,
//! * a [`controller`] handle pairing a channel transport with xid tracking.
//!
//! The crate layers bottom-up, and each layer is swappable:
//!
//! * [`transport`] moves raw bytes with socket semantics (partial I/O,
//!   would-block, disconnects) — in-memory [`loopback`], fault-injecting
//!   [`faulty_pair`], scripted replay, and a real TCP socket
//!   ([`tcp::TcpTransport`], loopback-bound in tests);
//! * [`event`] is the one readiness primitive every blocking wait parks
//!   on: transports notify it when bytes arrive or the peer goes away, so
//!   nothing on the wire path sleeps and polls;
//! * [`framer`] recovers OF 1.0 frame boundaries from the stream and
//!   poisons itself permanently on desync (a framing error loses the
//!   stream position — there is no resynchronising OF 1.0);
//! * [`connection`] is the controller-side session state machine:
//!   handshake, xid pairing, echo keepalive, flow-mod batching, and a
//!   barrier-fenced replay log that survives reconnects;
//! * [`app`] splits policy from event loop: a [`ControllerApp`] drives
//!   one switch via [`ControllerRuntime`]; a [`app::FabricApp`] drives a
//!   whole fabric of N switches via [`app::FabricRuntime`], with a
//!   datapath-id registry and fair per-switch polling;
//! * [`failover`] is the active/standby role protocol: the active
//!   controller replicates every replay-log transition to a standby,
//!   which takes over on dead-peer detection and replays idempotently.
//!
//! A minimal controller against an in-process switch endpoint:
//!
//! ```
//! use openflow::{framed_link, Action, FlowMatch, OfpMessage, PortNo};
//!
//! // `framed_link` wires a controller Connection to a switch-side
//! // SwitchLink over an in-process byte stream.
//! let (conn, sw) = framed_link();
//!
//! // Play the switch's half of the handshake (normally ovs-dp does this).
//! let (msg, xid) = sw.try_recv().unwrap().unwrap();
//! assert_eq!(msg, OfpMessage::Hello);
//! sw.send(&OfpMessage::Hello, xid).unwrap();
//! let (_features_req, xid) = sw.try_recv().unwrap().unwrap();
//! sw.send(
//!     &OfpMessage::FeaturesReply { datapath_id: 0xd1, ports: vec![1, 2] },
//!     xid,
//! )
//! .unwrap();
//!
//! let features = conn.handshake(std::time::Duration::from_secs(1)).unwrap();
//! assert_eq!(features.datapath_id, 0xd1);
//!
//! // Steer port 1 → port 2; the switch receives real encoded bytes.
//! conn.add_flow(
//!     FlowMatch::in_port(PortNo(1)),
//!     100,
//!     vec![Action::Output(PortNo(2))],
//!     0x77,
//! )
//! .unwrap();
//! let (msg, _xid) = sw.try_recv().unwrap().unwrap();
//! assert!(matches!(msg, OfpMessage::FlowMod(fm) if fm.cookie == 0x77));
//! ```

pub mod action;
pub mod app;
pub mod codec;
pub mod connection;
pub mod controller;
pub mod event;
pub mod failover;
pub mod fmatch;
pub mod framer;
pub mod messages;
pub mod tcp;
pub mod transport;
pub mod types;
pub mod wire;

pub use action::Action;
pub use app::{ControllerApp, ControllerRuntime, FabricApp, FabricRuntime, LearningSwitch};
pub use connection::{Connection, ConnectionState, ReplayObserver, SwitchFeatures};
pub use controller::{framed_link, SwitchLink};
pub use event::Event;
pub use failover::{ActivePeer, StandbyController};
pub use fmatch::FlowMatch;
pub use framer::Framer;
pub use messages::{
    AggregateStats, AggregateStatsRequest, DescStats, FlowMod, FlowModCommand, FlowRemoved,
    FlowStatsEntry, FlowStatsRequest, OfpMessage, PacketIn, PacketInReason, PacketOut, PortMod,
    PortStatsEntry, PortStatsRequest, PortStatus, PortStatusReason, TableStatsEntry,
};
pub use tcp::{loopback_listener, tcp_pair, TcpTransport};
pub use transport::{
    faulty_pair, loopback, FaultConfig, FaultControl, LoopbackEnd, ScriptedTransport, Transport,
};
pub use types::PortNo;
pub use wire::{OfpHeader, OfpMarshal, OFP_VERSION};

/// Errors produced by codec or transport operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OfError {
    /// Buffer ended before the message did.
    Truncated,
    /// An inner length field disagrees with the payload.
    BadLength,
    /// The header's version byte is not OpenFlow 1.0.
    BadVersion(u8),
    /// A frame claims a length above the framer's configured maximum.
    Oversized { len: usize, max: usize },
    /// Unknown message type, action type or enum discriminant.
    Unknown(String),
    /// The peer hung up.
    Disconnected,
}

impl std::fmt::Display for OfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OfError::Truncated => write!(f, "message truncated"),
            OfError::BadLength => write!(f, "inconsistent length field"),
            OfError::BadVersion(v) => write!(f, "unsupported OpenFlow version 0x{v:02x}"),
            OfError::Oversized { len, max } => {
                write!(f, "frame length {len} exceeds maximum {max}")
            }
            OfError::Unknown(what) => write!(f, "unknown value: {what}"),
            OfError::Disconnected => write!(f, "control channel disconnected"),
        }
    }
}

impl std::error::Error for OfError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, OfError>;
