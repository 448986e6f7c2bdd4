//! OpenFlow 1.0 actions.

use crate::types::PortNo;
use packet_wire::MacAddr;
use std::net::Ipv4Addr;

/// An OpenFlow 1.0 action. An empty action list means "drop".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Action {
    /// Forward out a port (physical or reserved like FLOOD/CONTROLLER).
    Output(PortNo),
    /// Set the 802.1Q VLAN ID (adds a tag if absent).
    SetVlanId(u16),
    /// Strip the 802.1Q tag.
    StripVlan,
    /// Rewrite the Ethernet source address.
    SetEthSrc(MacAddr),
    /// Rewrite the Ethernet destination address.
    SetEthDst(MacAddr),
    /// Rewrite the IPv4 source address.
    SetIpv4Src(Ipv4Addr),
    /// Rewrite the IPv4 destination address.
    SetIpv4Dst(Ipv4Addr),
    /// Rewrite the IPv4 TOS byte.
    SetIpTos(u8),
    /// Rewrite the TCP/UDP source port.
    SetL4Src(u16),
    /// Rewrite the TCP/UDP destination port.
    SetL4Dst(u16),
}

impl Action {
    /// If this is a plain output to a physical port, returns it.
    pub fn output_port(&self) -> Option<PortNo> {
        match self {
            Action::Output(p) if p.is_physical() => Some(*p),
            _ => None,
        }
    }
}

/// Helpers over whole action lists.
pub trait ActionListExt {
    /// `Some(port)` iff the list is exactly `[Output(port)]` with `port`
    /// physical — the action shape of a p-2-p steering rule.
    fn single_physical_output(&self) -> Option<PortNo>;
    /// Every physical port the list outputs to, in order.
    fn output_ports(&self) -> Vec<PortNo>;
}

impl ActionListExt for [Action] {
    fn single_physical_output(&self) -> Option<PortNo> {
        match self {
            [only] => only.output_port(),
            _ => None,
        }
    }

    fn output_ports(&self) -> Vec<PortNo> {
        self.iter().filter_map(|a| a.output_port()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_output_detection() {
        assert_eq!(
            [Action::Output(PortNo(4))].single_physical_output(),
            Some(PortNo(4))
        );
        assert_eq!(
            [Action::Output(PortNo::FLOOD)].single_physical_output(),
            None
        );
        assert_eq!(
            [Action::SetIpTos(1), Action::Output(PortNo(4))].single_physical_output(),
            None
        );
        let empty: [Action; 0] = [];
        assert_eq!(empty.single_physical_output(), None);
    }

    #[test]
    fn output_ports_skips_reserved() {
        let list = [
            Action::Output(PortNo(1)),
            Action::Output(PortNo::CONTROLLER),
            Action::Output(PortNo(2)),
        ];
        assert_eq!(list.output_ports(), vec![PortNo(1), PortNo(2)]);
    }
}
