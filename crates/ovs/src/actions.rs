//! Action execution: applying OpenFlow actions to packet bytes.
//!
//! Field rewrites edit the frame in place through the `packet-wire` views
//! (and refresh checksums); output actions are resolved by the caller, which
//! owns the port table. VLAN push/strip restructure the frame using the
//! mbuf headroom.

use dpdk_sim::Mbuf;
use openflow::{Action, PortNo};
use packet_wire::{
    EtherType, EthernetFrame, IpProtocol, Ipv4Packet, TcpSegment, UdpDatagram, ETHERNET_HEADER_LEN,
};

/// Where a packet must go after action execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputTarget {
    /// Deliver to this physical port.
    Port(PortNo),
    /// Flood: all ports except the ingress one.
    Flood,
    /// Punt to the controller.
    Controller,
    /// Send back out the ingress port.
    InPort,
}

/// Applies every non-output action to the frame in place and collects the
/// output targets in order. An empty result means drop. The datapath runs
/// the [`OutputPlan`] a rule compiled at install instead; this is for
/// one-off action lists (ofproto's packet-out).
pub fn execute(pkt: &mut Mbuf, actions: &[Action]) -> Vec<OutputTarget> {
    let plan = OutputPlan::compile(actions);
    plan.rewrite(pkt);
    plan.outputs
}

/// An action list compiled once: the frame rewrites in order, then the
/// resolved outputs. Running every rewrite before any output is what the
/// action list means here, because a packet is staged only after its
/// whole list ran.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OutputPlan {
    rewrites: Vec<Action>,
    outputs: Vec<OutputTarget>,
}

impl OutputPlan {
    /// Splits `actions` into rewrites and output targets. Outputs to the
    /// reserved ports the datapath does not implement (TABLE, NORMAL,
    /// LOCAL) are ignored.
    pub fn compile(actions: &[Action]) -> OutputPlan {
        let mut plan = OutputPlan::default();
        for action in actions {
            let target = match *action {
                Action::Output(PortNo::FLOOD | PortNo::ALL) => OutputTarget::Flood,
                Action::Output(PortNo::CONTROLLER) => OutputTarget::Controller,
                Action::Output(PortNo::IN_PORT) => OutputTarget::InPort,
                Action::Output(p) if p.is_physical() => OutputTarget::Port(p),
                Action::Output(_) => continue,
                rewrite => {
                    plan.rewrites.push(rewrite);
                    continue;
                }
            };
            plan.outputs.push(target);
        }
        plan
    }

    /// Applies the rewrites to one packet (nothing for a pure forwarder).
    pub fn rewrite(&self, pkt: &mut Mbuf) {
        for action in &self.rewrites {
            match *action {
                Action::Output(_) => {} // compiled into `outputs`
                Action::SetEthSrc(mac) => {
                    if pkt.len() >= ETHERNET_HEADER_LEN {
                        EthernetFrame::new_unchecked(pkt.data_mut()).set_src_addr(mac);
                    }
                }
                Action::SetEthDst(mac) => {
                    if pkt.len() >= ETHERNET_HEADER_LEN {
                        EthernetFrame::new_unchecked(pkt.data_mut()).set_dst_addr(mac);
                    }
                }
                Action::SetIpv4Src(a) => rewrite_ipv4(pkt, |ip| ip.set_src_addr(a)),
                Action::SetIpv4Dst(a) => rewrite_ipv4(pkt, |ip| ip.set_dst_addr(a)),
                Action::SetIpTos(t) => rewrite_ipv4(pkt, |ip| ip.set_tos(t)),
                Action::SetL4Src(p) => rewrite_l4(pkt, p, true),
                Action::SetL4Dst(p) => rewrite_l4(pkt, p, false),
                Action::SetVlanId(vid) => set_vlan(pkt, vid),
                Action::StripVlan => strip_vlan(pkt),
            }
        }
    }

    /// The output targets, in action order; empty means drop.
    pub fn outputs(&self) -> &[OutputTarget] {
        &self.outputs
    }

    /// The one port every packet goes to, when the outputs are exactly one
    /// physical port or `IN_PORT`: such a packet is staged as it is, with
    /// no duplicate and no flood expansion.
    pub fn single_port(&self, in_port: PortNo) -> Option<PortNo> {
        match self.outputs[..] {
            [OutputTarget::Port(p)] => Some(p),
            [OutputTarget::InPort] => Some(in_port),
            _ => None,
        }
    }
}

fn ipv4_offset(pkt: &Mbuf) -> Option<usize> {
    let eth = EthernetFrame::new_checked(pkt.data()).ok()?;
    match eth.ethertype() {
        EtherType::Ipv4 => Some(ETHERNET_HEADER_LEN),
        EtherType::Vlan => {
            let p = eth.payload();
            if p.len() >= 4 && u16::from_be_bytes([p[2], p[3]]) == 0x0800 {
                Some(ETHERNET_HEADER_LEN + 4)
            } else {
                None
            }
        }
        _ => None,
    }
}

fn rewrite_ipv4(pkt: &mut Mbuf, f: impl FnOnce(&mut Ipv4Packet<&mut [u8]>)) {
    let Some(off) = ipv4_offset(pkt) else { return };
    let data = pkt.data_mut();
    let Ok(_) = Ipv4Packet::new_checked(&data[off..]) else {
        return;
    };
    let mut ip = Ipv4Packet::new_unchecked(&mut data[off..]);
    f(&mut ip);
    ip.fill_checksum();
    refresh_l4_checksum(pkt, off);
}

fn rewrite_l4(pkt: &mut Mbuf, port: u16, src: bool) {
    let Some(off) = ipv4_offset(pkt) else { return };
    let data = pkt.data_mut();
    let Ok(ip) = Ipv4Packet::new_checked(&data[off..]) else {
        return;
    };
    let proto = ip.protocol();
    let l4_off = off + ip.header_len();
    match proto {
        IpProtocol::Udp => {
            if UdpDatagram::new_checked(&data[l4_off..]).is_ok() {
                let mut udp = UdpDatagram::new_unchecked(&mut data[l4_off..]);
                if src {
                    udp.set_src_port(port);
                } else {
                    udp.set_dst_port(port);
                }
            }
        }
        IpProtocol::Tcp => {
            if TcpSegment::new_checked(&data[l4_off..]).is_ok() {
                let mut tcp = TcpSegment::new_unchecked(&mut data[l4_off..]);
                if src {
                    tcp.set_src_port(port);
                } else {
                    tcp.set_dst_port(port);
                }
            }
        }
        _ => return,
    }
    refresh_l4_checksum(pkt, off);
}

/// Recomputes the UDP/TCP checksum after any rewrite that affects it.
fn refresh_l4_checksum(pkt: &mut Mbuf, ip_off: usize) {
    let data = pkt.data_mut();
    let Ok(ip) = Ipv4Packet::new_checked(&data[ip_off..]) else {
        return;
    };
    let (src, dst, proto, hl) = (ip.src_addr(), ip.dst_addr(), ip.protocol(), ip.header_len());
    let l4 = &mut data[ip_off + hl..];
    match proto {
        IpProtocol::Udp if UdpDatagram::new_checked(&*l4).is_ok() => {
            let mut udp = UdpDatagram::new_unchecked(l4);
            if udp.checksum_field() != 0 {
                udp.fill_checksum(src, dst);
            }
        }
        IpProtocol::Tcp if TcpSegment::new_checked(&*l4).is_ok() => {
            TcpSegment::new_unchecked(l4).fill_checksum(src, dst);
        }
        _ => {}
    }
}

/// Sets (or inserts) an 802.1Q tag with the given VID.
fn set_vlan(pkt: &mut Mbuf, vid: u16) {
    if pkt.len() < ETHERNET_HEADER_LEN {
        return;
    }
    let already_tagged = {
        let eth = EthernetFrame::new_unchecked(pkt.data());
        eth.ethertype() == EtherType::Vlan
    };
    if already_tagged {
        let data = pkt.data_mut();
        let tci = (u16::from_be_bytes([data[14], data[15]]) & !0x0fff) | (vid & 0x0fff);
        data[14..16].copy_from_slice(&tci.to_be_bytes());
        return;
    }
    if pkt.headroom() < 4 {
        return; // cannot grow; leave untagged (counted nowhere, like OVS)
    }
    pkt.prepend(4);
    let data = pkt.data_mut();
    // Shift the two MAC addresses forward by 4 bytes.
    data.copy_within(4..16, 0);
    data[12..14].copy_from_slice(&0x8100u16.to_be_bytes());
    data[14..16].copy_from_slice(&(vid & 0x0fff).to_be_bytes());
}

/// Removes an 802.1Q tag if present.
fn strip_vlan(pkt: &mut Mbuf) {
    if pkt.len() < ETHERNET_HEADER_LEN + 4 {
        return;
    }
    let tagged = EthernetFrame::new_unchecked(pkt.data()).ethertype() == EtherType::Vlan;
    if !tagged {
        return;
    }
    let data = pkt.data_mut();
    // Shift MACs back over the tag.
    data.copy_within(0..12, 4);
    pkt.adj(4);
}

#[cfg(test)]
mod tests {
    use super::*;
    use packet_wire::{FlowKey, MacAddr, PacketBuilder};
    use std::net::Ipv4Addr;

    fn probe() -> Mbuf {
        Mbuf::from_slice(&PacketBuilder::udp_probe(64).build())
    }

    #[test]
    fn output_actions_collect_targets() {
        let mut pkt = probe();
        let outs = execute(
            &mut pkt,
            &[
                Action::Output(PortNo(3)),
                Action::Output(PortNo::FLOOD),
                Action::Output(PortNo::CONTROLLER),
                Action::Output(PortNo::IN_PORT),
            ],
        );
        assert_eq!(
            outs,
            vec![
                OutputTarget::Port(PortNo(3)),
                OutputTarget::Flood,
                OutputTarget::Controller,
                OutputTarget::InPort,
            ]
        );
    }

    #[test]
    fn single_port_plans() {
        let plan = |actions: &[Action]| OutputPlan::compile(actions).single_port(PortNo(5));
        assert_eq!(plan(&[Action::Output(PortNo(3))]), Some(PortNo(3)));
        let hairpin = [Action::SetL4Src(1), Action::Output(PortNo::IN_PORT)];
        assert_eq!(plan(&hairpin), Some(PortNo(5)));
        let ignored = [Action::Output(PortNo::NORMAL), Action::Output(PortNo(3))];
        assert_eq!(plan(&ignored), Some(PortNo(3)));
        assert_eq!(plan(&[]), None, "drop");
        assert_eq!(plan(&[Action::Output(PortNo::FLOOD)]), None);
        assert_eq!(plan(&[Action::Output(PortNo::CONTROLLER)]), None);
        let two = [Action::Output(PortNo(3)), Action::Output(PortNo(4))];
        assert_eq!(plan(&two), None);
    }

    #[test]
    fn empty_actions_mean_drop() {
        let mut pkt = probe();
        assert!(execute(&mut pkt, &[]).is_empty());
    }

    #[test]
    fn eth_rewrite() {
        let mut pkt = probe();
        execute(&mut pkt, &[Action::SetEthSrc(MacAddr::local(9))]);
        let key = FlowKey::extract(pkt.data());
        assert_eq!(key.eth_src, MacAddr::local(9));
    }

    #[test]
    fn ipv4_rewrite_keeps_checksums_valid() {
        let mut pkt = probe();
        execute(&mut pkt, &[Action::SetIpv4Dst(Ipv4Addr::new(9, 9, 9, 9))]);
        let eth = EthernetFrame::new_checked(pkt.data()).unwrap();
        let ip = Ipv4Packet::new_checked(eth.payload()).unwrap();
        assert_eq!(ip.dst_addr(), Ipv4Addr::new(9, 9, 9, 9));
        assert!(ip.verify_checksum());
        let udp = UdpDatagram::new_checked(ip.payload()).unwrap();
        assert!(udp.verify_checksum(ip.src_addr(), ip.dst_addr()));
    }

    #[test]
    fn l4_rewrite_updates_ports_and_checksum() {
        let mut pkt = probe();
        execute(&mut pkt, &[Action::SetL4Dst(8080), Action::SetL4Src(4242)]);
        let key = FlowKey::extract(pkt.data());
        assert_eq!(key.l4_dst, 8080);
        assert_eq!(key.l4_src, 4242);
        let eth = EthernetFrame::new_checked(pkt.data()).unwrap();
        let ip = Ipv4Packet::new_checked(eth.payload()).unwrap();
        let udp = UdpDatagram::new_checked(ip.payload()).unwrap();
        assert!(udp.verify_checksum(ip.src_addr(), ip.dst_addr()));
    }

    #[test]
    fn vlan_set_and_strip_roundtrip() {
        let mut pkt = probe();
        let before = pkt.to_vec();
        execute(&mut pkt, &[Action::SetVlanId(100)]);
        let key = FlowKey::extract(pkt.data());
        assert_eq!(key.vlan_id, 100);
        assert_eq!(pkt.len(), before.len() + 4);

        // Retag in place (no second header).
        execute(&mut pkt, &[Action::SetVlanId(200)]);
        assert_eq!(FlowKey::extract(pkt.data()).vlan_id, 200);
        assert_eq!(pkt.len(), before.len() + 4);

        execute(&mut pkt, &[Action::StripVlan]);
        assert_eq!(pkt.to_vec(), before);
    }

    #[test]
    fn tos_rewrite() {
        let mut pkt = probe();
        execute(&mut pkt, &[Action::SetIpTos(0x2e)]);
        assert_eq!(FlowKey::extract(pkt.data()).ip_tos, 0x2e);
        let eth = EthernetFrame::new_checked(pkt.data()).unwrap();
        assert!(Ipv4Packet::new_checked(eth.payload())
            .unwrap()
            .verify_checksum());
    }
}
