//! OpenFlow 1.0 protocol messages (the subset the reproduction exercises).

use crate::action::Action;
use crate::fmatch::FlowMatch;
use crate::types::PortNo;

/// `ofp_flow_mod` commands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowModCommand {
    /// Insert a new rule (or overwrite an identical one).
    Add,
    /// Modify actions of all matching rules (loose match).
    Modify,
    /// Modify actions of the rule with identical match and priority.
    ModifyStrict,
    /// Delete all matching rules (loose match).
    Delete,
    /// Delete the rule with identical match and priority.
    DeleteStrict,
}

/// A flow table modification.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowMod {
    pub command: FlowModCommand,
    pub fmatch: FlowMatch,
    pub priority: u16,
    pub actions: Vec<Action>,
    pub cookie: u64,
    pub idle_timeout: u16,
    pub hard_timeout: u16,
    /// For `Delete`/`DeleteStrict`: restrict to rules that output to this
    /// port (`PortNo::NONE` disables the filter).
    pub out_port: PortNo,
}

impl FlowMod {
    /// An `Add` with sensible defaults (no timeouts, cookie 0).
    pub fn add(fmatch: FlowMatch, priority: u16, actions: Vec<Action>) -> FlowMod {
        FlowMod {
            command: FlowModCommand::Add,
            fmatch,
            priority,
            actions,
            cookie: 0,
            idle_timeout: 0,
            hard_timeout: 0,
            out_port: PortNo::NONE,
        }
    }

    /// Sets the cookie (builder style).
    pub fn with_cookie(mut self, cookie: u64) -> FlowMod {
        self.cookie = cookie;
        self
    }

    /// A strict delete of a specific rule.
    pub fn delete_strict(fmatch: FlowMatch, priority: u16) -> FlowMod {
        FlowMod {
            command: FlowModCommand::DeleteStrict,
            fmatch,
            priority,
            actions: Vec::new(),
            cookie: 0,
            idle_timeout: 0,
            hard_timeout: 0,
            out_port: PortNo::NONE,
        }
    }

    /// A loose delete of everything covered by `fmatch`.
    pub fn delete(fmatch: FlowMatch) -> FlowMod {
        FlowMod {
            command: FlowModCommand::Delete,
            fmatch,
            priority: 0,
            actions: Vec::new(),
            cookie: 0,
            idle_timeout: 0,
            hard_timeout: 0,
            out_port: PortNo::NONE,
        }
    }
}

/// Why a packet was punted to the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketInReason {
    /// No rule matched.
    NoMatch,
    /// An explicit `Output(CONTROLLER)` action fired.
    Action,
}

/// A packet punted to the controller.
#[derive(Debug, Clone, PartialEq)]
pub struct PacketIn {
    pub in_port: PortNo,
    pub reason: PacketInReason,
    pub data: Vec<u8>,
}

/// A packet injected by the controller.
#[derive(Debug, Clone, PartialEq)]
pub struct PacketOut {
    /// Nominal ingress port for `Output(IN_PORT)`/`TABLE` processing.
    pub in_port: PortNo,
    pub actions: Vec<Action>,
    pub data: Vec<u8>,
}

/// Notification that a rule was evicted (timeout or delete).
#[derive(Debug, Clone, PartialEq)]
pub struct FlowRemoved {
    pub fmatch: FlowMatch,
    pub priority: u16,
    pub cookie: u64,
    pub packet_count: u64,
    pub byte_count: u64,
}

/// A flow statistics request (loose match filter).
#[derive(Debug, Clone, PartialEq)]
pub struct FlowStatsRequest {
    pub fmatch: FlowMatch,
    /// Restrict to rules outputting to this port; `NONE` disables.
    pub out_port: PortNo,
}

/// One rule's statistics in a reply.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowStatsEntry {
    pub fmatch: FlowMatch,
    pub priority: u16,
    pub cookie: u64,
    pub duration_sec: u32,
    pub idle_timeout: u16,
    pub hard_timeout: u16,
    pub packet_count: u64,
    pub byte_count: u64,
    pub actions: Vec<Action>,
}

/// A port statistics request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortStatsRequest {
    /// `PortNo::NONE` requests all ports.
    pub port_no: PortNo,
}

/// A port configuration change (`ofp_port_mod`). The reproduction models
/// the one bit the paper's transparency story needs: `OFPPC_PORT_DOWN`,
/// i.e. administratively disabling a port ("turn them on/off" in §2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortMod {
    pub port_no: PortNo,
    /// Set (true) or clear (false) `OFPPC_PORT_DOWN`.
    pub down: bool,
}

/// Why a [`PortStatus`] was emitted (`ofp_port_reason`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortStatusReason {
    /// The port was added.
    Add,
    /// The port was removed.
    Delete,
    /// Some attribute (e.g. admin state) changed.
    Modify,
}

/// Asynchronous notification of a port change (`OFPT_PORT_STATUS`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortStatus {
    pub reason: PortStatusReason,
    pub port_no: u16,
    pub name: String,
    /// `OFPPC_PORT_DOWN` state after the change.
    pub down: bool,
}

/// An aggregate statistics request (`OFPST_AGGREGATE`): one total over all
/// rules passing the loose filter.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateStatsRequest {
    pub fmatch: FlowMatch,
    /// Restrict to rules outputting to this port; `NONE` disables.
    pub out_port: PortNo,
}

/// The aggregate statistics reply body.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AggregateStats {
    pub packet_count: u64,
    pub byte_count: u64,
    pub flow_count: u32,
}

/// One table's statistics (`OFPST_TABLE` reply entry). The reproduction has
/// a single table (id 0), like OF 1.0 OVS in its default profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableStatsEntry {
    pub table_id: u8,
    pub name: String,
    pub max_entries: u32,
    pub active_count: u32,
    /// Packets looked up in the table.
    pub lookup_count: u64,
    /// Packets that hit a rule.
    pub matched_count: u64,
}

/// Switch description (`OFPST_DESC` reply).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DescStats {
    pub manufacturer: String,
    pub hardware: String,
    pub software: String,
    pub serial: String,
    pub datapath: String,
}

/// One port's statistics in a reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PortStatsEntry {
    pub port_no: u16,
    pub rx_packets: u64,
    pub tx_packets: u64,
    pub rx_bytes: u64,
    pub tx_bytes: u64,
    pub rx_dropped: u64,
    pub tx_dropped: u64,
}

/// Every OpenFlow message the control channel carries.
#[derive(Debug, Clone, PartialEq)]
pub enum OfpMessage {
    Hello,
    EchoRequest(Vec<u8>),
    EchoReply(Vec<u8>),
    FeaturesRequest,
    /// Datapath id + port numbers present on the switch.
    FeaturesReply {
        datapath_id: u64,
        ports: Vec<u16>,
    },
    FlowMod(FlowMod),
    PacketIn(PacketIn),
    PacketOut(PacketOut),
    FlowRemoved(FlowRemoved),
    FlowStatsRequest(FlowStatsRequest),
    /// The last (usually only) part of a flow-stats reply.
    FlowStatsReply(Vec<FlowStatsEntry>),
    /// A part of a flow-stats reply with `OFPSF_REPLY_MORE` set: the table
    /// did not fit one 64 KiB frame, and further parts follow under the
    /// same xid until a [`OfpMessage::FlowStatsReply`] closes the series.
    FlowStatsReplyMore(Vec<FlowStatsEntry>),
    PortStatsRequest(PortStatsRequest),
    PortStatsReply(Vec<PortStatsEntry>),
    PortMod(PortMod),
    PortStatus(PortStatus),
    AggregateStatsRequest(AggregateStatsRequest),
    AggregateStatsReply(AggregateStats),
    TableStatsRequest,
    TableStatsReply(Vec<TableStatsEntry>),
    DescStatsRequest,
    DescStatsReply(DescStats),
    BarrierRequest,
    BarrierReply,
    /// An error with the raw (type, code) pair of OF 1.0.
    Error {
        err_type: u16,
        code: u16,
    },
}

impl OfpMessage {
    /// The OF 1.0 message-type discriminant for the header.
    pub fn type_id(&self) -> u8 {
        match self {
            OfpMessage::Hello => 0,
            OfpMessage::Error { .. } => 1,
            OfpMessage::EchoRequest(_) => 2,
            OfpMessage::EchoReply(_) => 3,
            OfpMessage::FeaturesRequest => 5,
            OfpMessage::FeaturesReply { .. } => 6,
            OfpMessage::PacketIn(_) => 10,
            OfpMessage::FlowRemoved(_) => 11,
            OfpMessage::PortStatus(_) => 12,
            OfpMessage::PacketOut(_) => 13,
            OfpMessage::FlowMod(_) => 14,
            OfpMessage::PortMod(_) => 15,
            OfpMessage::FlowStatsRequest(_)
            | OfpMessage::PortStatsRequest(_)
            | OfpMessage::AggregateStatsRequest(_)
            | OfpMessage::TableStatsRequest
            | OfpMessage::DescStatsRequest => 16,
            OfpMessage::FlowStatsReply(_)
            | OfpMessage::FlowStatsReplyMore(_)
            | OfpMessage::PortStatsReply(_)
            | OfpMessage::AggregateStatsReply(_)
            | OfpMessage::TableStatsReply(_)
            | OfpMessage::DescStatsReply(_) => 17,
            OfpMessage::BarrierRequest => 18,
            OfpMessage::BarrierReply => 19,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_mod_builders() {
        let add = FlowMod::add(
            FlowMatch::in_port(PortNo(1)),
            100,
            vec![Action::Output(PortNo(2))],
        )
        .with_cookie(7);
        assert_eq!(add.command, FlowModCommand::Add);
        assert_eq!(add.cookie, 7);
        assert_eq!(add.out_port, PortNo::NONE);

        let del = FlowMod::delete_strict(FlowMatch::in_port(PortNo(1)), 100);
        assert_eq!(del.command, FlowModCommand::DeleteStrict);
        assert!(del.actions.is_empty());
    }

    #[test]
    fn type_ids_match_of10() {
        assert_eq!(OfpMessage::Hello.type_id(), 0);
        assert_eq!(OfpMessage::BarrierRequest.type_id(), 18);
        assert_eq!(
            OfpMessage::FlowMod(FlowMod::delete(FlowMatch::any())).type_id(),
            14
        );
    }
}
