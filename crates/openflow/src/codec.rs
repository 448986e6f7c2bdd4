//! Byte-level OpenFlow 1.0 codec.
//!
//! Encodes/decodes the message subset in [`crate::messages`] with the real
//! OF 1.0 framing: 8-byte header (`version=0x01, type, length, xid`),
//! 40-byte `ofp_match` with the wildcard bitfield, and TLV action lists.
//! The controller and switch exchange these bytes over the control link, so
//! an unmodified controller implementation genuinely cannot tell the
//! highway-enabled switch apart — the transparency property under test.

use crate::action::Action;
use crate::fmatch::FlowMatch;
use crate::messages::*;
use crate::types::PortNo;
use crate::wire::{OfpHeader, OfpMarshal};
use crate::{OfError, Result};
use bytes::{Buf, BufMut};
use packet_wire::MacAddr;
use std::net::Ipv4Addr;

pub use crate::wire::OFP_VERSION;
/// Size of the common header.
pub const HEADER_LEN: usize = OfpHeader::SIZE;
/// Size of the OF 1.0 `ofp_match`.
pub const MATCH_LEN: usize = 40;

// ofp_flow_wildcards bits.
const OFPFW_IN_PORT: u32 = 1 << 0;
const OFPFW_DL_VLAN: u32 = 1 << 1;
const OFPFW_DL_SRC: u32 = 1 << 2;
const OFPFW_DL_DST: u32 = 1 << 3;
const OFPFW_DL_TYPE: u32 = 1 << 4;
const OFPFW_NW_PROTO: u32 = 1 << 5;
const OFPFW_TP_SRC: u32 = 1 << 6;
const OFPFW_TP_DST: u32 = 1 << 7;
const OFPFW_NW_SRC_SHIFT: u32 = 8;
const OFPFW_NW_DST_SHIFT: u32 = 14;
const OFPFW_DL_VLAN_PCP: u32 = 1 << 20;
const OFPFW_NW_TOS: u32 = 1 << 21;

fn put_match(buf: &mut Vec<u8>, m: &FlowMatch) {
    let mut wildcards: u32 = OFPFW_DL_VLAN_PCP; // we never match PCP
    if m.in_port.is_none() {
        wildcards |= OFPFW_IN_PORT;
    }
    if m.vlan_id.is_none() {
        wildcards |= OFPFW_DL_VLAN;
    }
    if m.eth_src.is_none() {
        wildcards |= OFPFW_DL_SRC;
    }
    if m.eth_dst.is_none() {
        wildcards |= OFPFW_DL_DST;
    }
    if m.eth_type.is_none() {
        wildcards |= OFPFW_DL_TYPE;
    }
    if m.ip_proto.is_none() {
        wildcards |= OFPFW_NW_PROTO;
    }
    if m.l4_src.is_none() {
        wildcards |= OFPFW_TP_SRC;
    }
    if m.l4_dst.is_none() {
        wildcards |= OFPFW_TP_DST;
    }
    if m.ip_tos.is_none() {
        wildcards |= OFPFW_NW_TOS;
    }
    let src_wild = 32 - u32::from(m.ipv4_src.map(|(_, l)| l).unwrap_or(0));
    let dst_wild = 32 - u32::from(m.ipv4_dst.map(|(_, l)| l).unwrap_or(0));
    wildcards |= src_wild << OFPFW_NW_SRC_SHIFT;
    wildcards |= dst_wild << OFPFW_NW_DST_SHIFT;

    buf.put_u32(wildcards);
    buf.put_u16(m.in_port.map(|p| p.0).unwrap_or(0));
    buf.put_slice(&m.eth_src.unwrap_or(MacAddr::ZERO).0);
    buf.put_slice(&m.eth_dst.unwrap_or(MacAddr::ZERO).0);
    buf.put_u16(m.vlan_id.unwrap_or(0));
    buf.put_u8(0); // dl_vlan_pcp
    buf.put_u8(0); // pad
    buf.put_u16(m.eth_type.unwrap_or(0));
    buf.put_u8(m.ip_tos.unwrap_or(0));
    buf.put_u8(m.ip_proto.unwrap_or(0));
    buf.put_slice(&[0, 0]); // pad
    buf.put_u32(m.ipv4_src.map(|(a, _)| u32::from(a)).unwrap_or(0));
    buf.put_u32(m.ipv4_dst.map(|(a, _)| u32::from(a)).unwrap_or(0));
    buf.put_u16(m.l4_src.unwrap_or(0));
    buf.put_u16(m.l4_dst.unwrap_or(0));
}

fn get_match(buf: &mut &[u8]) -> Result<FlowMatch> {
    if buf.remaining() < MATCH_LEN {
        return Err(OfError::Truncated);
    }
    let wildcards = buf.get_u32();
    let in_port = buf.get_u16();
    let mut eth_src = [0u8; 6];
    buf.copy_to_slice(&mut eth_src);
    let mut eth_dst = [0u8; 6];
    buf.copy_to_slice(&mut eth_dst);
    let vlan = buf.get_u16();
    let _pcp = buf.get_u8();
    let _pad = buf.get_u8();
    let eth_type = buf.get_u16();
    let tos = buf.get_u8();
    let proto = buf.get_u8();
    buf.advance(2);
    let nw_src = buf.get_u32();
    let nw_dst = buf.get_u32();
    let tp_src = buf.get_u16();
    let tp_dst = buf.get_u16();

    let src_wild = ((wildcards >> OFPFW_NW_SRC_SHIFT) & 0x3f).min(32) as u8;
    let dst_wild = ((wildcards >> OFPFW_NW_DST_SHIFT) & 0x3f).min(32) as u8;

    Ok(FlowMatch {
        in_port: (wildcards & OFPFW_IN_PORT == 0).then_some(PortNo(in_port)),
        eth_src: (wildcards & OFPFW_DL_SRC == 0).then_some(MacAddr(eth_src)),
        eth_dst: (wildcards & OFPFW_DL_DST == 0).then_some(MacAddr(eth_dst)),
        vlan_id: (wildcards & OFPFW_DL_VLAN == 0).then_some(vlan),
        eth_type: (wildcards & OFPFW_DL_TYPE == 0).then_some(eth_type),
        ip_tos: (wildcards & OFPFW_NW_TOS == 0).then_some(tos),
        ip_proto: (wildcards & OFPFW_NW_PROTO == 0).then_some(proto),
        ipv4_src: (src_wild < 32).then_some((Ipv4Addr::from(nw_src), 32 - src_wild)),
        ipv4_dst: (dst_wild < 32).then_some((Ipv4Addr::from(nw_dst), 32 - dst_wild)),
        l4_src: (wildcards & OFPFW_TP_SRC == 0).then_some(tp_src),
        l4_dst: (wildcards & OFPFW_TP_DST == 0).then_some(tp_dst),
    }
    .canonicalise())
}

fn put_actions(buf: &mut Vec<u8>, actions: &[Action]) {
    for a in actions {
        match a {
            Action::Output(p) => {
                buf.put_u16(0);
                buf.put_u16(8);
                buf.put_u16(p.0);
                buf.put_u16(0xffff); // max_len (to controller)
            }
            Action::SetVlanId(v) => {
                buf.put_u16(1);
                buf.put_u16(8);
                buf.put_u16(*v);
                buf.put_slice(&[0, 0]);
            }
            Action::StripVlan => {
                buf.put_u16(3);
                buf.put_u16(8);
                buf.put_slice(&[0; 4]);
            }
            Action::SetEthSrc(m) => {
                buf.put_u16(4);
                buf.put_u16(16);
                buf.put_slice(&m.0);
                buf.put_slice(&[0; 6]);
            }
            Action::SetEthDst(m) => {
                buf.put_u16(5);
                buf.put_u16(16);
                buf.put_slice(&m.0);
                buf.put_slice(&[0; 6]);
            }
            Action::SetIpv4Src(a) => {
                buf.put_u16(6);
                buf.put_u16(8);
                buf.put_u32(u32::from(*a));
            }
            Action::SetIpv4Dst(a) => {
                buf.put_u16(7);
                buf.put_u16(8);
                buf.put_u32(u32::from(*a));
            }
            Action::SetIpTos(t) => {
                buf.put_u16(8);
                buf.put_u16(8);
                buf.put_u8(*t);
                buf.put_slice(&[0; 3]);
            }
            Action::SetL4Src(p) => {
                buf.put_u16(9);
                buf.put_u16(8);
                buf.put_u16(*p);
                buf.put_slice(&[0, 0]);
            }
            Action::SetL4Dst(p) => {
                buf.put_u16(10);
                buf.put_u16(8);
                buf.put_u16(*p);
                buf.put_slice(&[0, 0]);
            }
        }
    }
}

fn get_actions(buf: &mut &[u8], mut len: usize) -> Result<Vec<Action>> {
    let mut actions = Vec::new();
    while len > 0 {
        if buf.remaining() < 4 || len < 4 {
            return Err(OfError::Truncated);
        }
        let ty = buf.get_u16();
        let alen = usize::from(buf.get_u16());
        if alen < 4 || alen > len || buf.remaining() < alen - 4 {
            return Err(OfError::BadLength);
        }
        let body_len = alen - 4;
        match ty {
            0 => {
                if body_len != 4 {
                    return Err(OfError::BadLength);
                }
                let port = buf.get_u16();
                let _max_len = buf.get_u16();
                actions.push(Action::Output(PortNo(port)));
            }
            1 => {
                if body_len < 2 {
                    return Err(OfError::BadLength);
                }
                let v = buf.get_u16();
                buf.advance(body_len - 2);
                actions.push(Action::SetVlanId(v));
            }
            3 => {
                buf.advance(body_len);
                actions.push(Action::StripVlan);
            }
            4 | 5 => {
                if body_len < 6 {
                    return Err(OfError::BadLength);
                }
                let mut mac = [0u8; 6];
                buf.copy_to_slice(&mut mac);
                buf.advance(body_len - 6);
                actions.push(if ty == 4 {
                    Action::SetEthSrc(MacAddr(mac))
                } else {
                    Action::SetEthDst(MacAddr(mac))
                });
            }
            6 | 7 => {
                if body_len < 4 {
                    return Err(OfError::BadLength);
                }
                let a = Ipv4Addr::from(buf.get_u32());
                buf.advance(body_len - 4);
                actions.push(if ty == 6 {
                    Action::SetIpv4Src(a)
                } else {
                    Action::SetIpv4Dst(a)
                });
            }
            8 => {
                if body_len < 1 {
                    return Err(OfError::BadLength);
                }
                let t = buf.get_u8();
                buf.advance(body_len - 1);
                actions.push(Action::SetIpTos(t));
            }
            9 | 10 => {
                if body_len < 2 {
                    return Err(OfError::BadLength);
                }
                let p = buf.get_u16();
                buf.advance(body_len - 2);
                actions.push(if ty == 9 {
                    Action::SetL4Src(p)
                } else {
                    Action::SetL4Dst(p)
                });
            }
            other => return Err(OfError::Unknown(format!("action type {other}"))),
        }
        len -= alen;
    }
    Ok(actions)
}

/// Narrows a length field *inside* a message body. Every such field
/// measures a part of the message, and [`OfpMarshal::marshal`] has checked
/// the whole against the 16-bit frame length before the body is written.
fn inner_len(len: usize) -> u16 {
    u16::try_from(len).expect("a part of a message that fits a frame fits 16 bits")
}

/// Bytes of an `ofp_flow_stats` entry up to its action list.
const FLOW_STATS_FIXED: usize = 88;

fn flow_stats_entry_len(e: &FlowStatsEntry) -> usize {
    FLOW_STATS_FIXED + actions_wire_len(&e.actions)
}

/// `OFPSF_REPLY_MORE`: further parts of this stats reply follow.
const OFPSF_REPLY_MORE: u16 = 1 << 0;

/// Splits a flow-stats reply into as few messages as will each fit one
/// OF 1.0 frame: every part but the last is a
/// [`OfpMessage::FlowStatsReplyMore`], the last (for a small or empty
/// table, the only one) a [`OfpMessage::FlowStatsReply`].
pub fn flow_stats_parts(entries: Vec<FlowStatsEntry>) -> Vec<OfpMessage> {
    const ROOM: usize = u16::MAX as usize - HEADER_LEN - 4;
    let mut parts = Vec::new();
    let mut part = Vec::new();
    let mut used = 0;
    for e in entries {
        let len = flow_stats_entry_len(&e);
        if used + len > ROOM && !part.is_empty() {
            parts.push(OfpMessage::FlowStatsReplyMore(std::mem::take(&mut part)));
            used = 0;
        }
        used += len;
        part.push(e);
    }
    parts.push(OfpMessage::FlowStatsReply(part));
    parts
}

fn actions_wire_len(actions: &[Action]) -> usize {
    actions
        .iter()
        .map(|a| match a {
            Action::SetEthSrc(_) | Action::SetEthDst(_) => 16,
            _ => 8,
        })
        .sum()
}

/// Writes `s` into a fixed-width NUL-padded field, truncating if needed.
fn put_fixed_str(body: &mut Vec<u8>, s: &str, width: usize) {
    let bytes = s.as_bytes();
    let n = bytes.len().min(width);
    body.extend_from_slice(&bytes[..n]);
    body.extend(std::iter::repeat(0u8).take(width - n));
}

/// Reads a fixed-width NUL-padded string field.
fn get_fixed_str(buf: &mut &[u8], width: usize) -> Result<String> {
    if buf.remaining() < width {
        return Err(OfError::Truncated);
    }
    let raw = &buf[..width];
    let end = raw.iter().position(|&b| b == 0).unwrap_or(width);
    let s = String::from_utf8_lossy(&raw[..end]).into_owned();
    buf.advance(width);
    Ok(s)
}

/// `OFPPC_PORT_DOWN`, the only port-config bit the reproduction models.
const OFPPC_PORT_DOWN: u32 = 1 << 0;

/// Writes an `ofp_phy_port` (48 bytes).
fn put_phy_port(body: &mut Vec<u8>, port_no: u16, name: &str, down: bool) {
    body.put_u16(port_no);
    body.put_slice(&[0; 6]); // hw_addr
    put_fixed_str(body, name, 16);
    body.put_u32(if down { OFPPC_PORT_DOWN } else { 0 }); // config
    body.put_u32(0); // state
    body.put_u32(0); // curr
    body.put_u32(0); // advertised
    body.put_u32(0); // supported
    body.put_u32(0); // peer
}

/// Encodes a message with the given transaction id into OF 1.0 bytes.
///
/// For messages known to fit a frame (fixed-size ones, or ones that
/// arrived in a frame). Anything a caller can make arbitrarily large goes
/// through [`try_encode`].
///
/// # Panics
///
/// If the message exceeds the 65 535-byte OF 1.0 frame.
pub fn encode(msg: &OfpMessage, xid: u32) -> Vec<u8> {
    try_encode(msg, xid).expect("message exceeds the OpenFlow 1.0 frame; use try_encode")
}

/// Encodes a message, or reports [`OfError::Oversized`] when it cannot fit
/// one OF 1.0 frame — never a frame whose length field lies.
pub fn try_encode(msg: &OfpMessage, xid: u32) -> Result<Vec<u8>> {
    msg.marshal(xid)
}

/// Appends the message body (the bytes after the common header).
fn encode_body(msg: &OfpMessage, body: &mut Vec<u8>) {
    match msg {
        OfpMessage::Hello
        | OfpMessage::FeaturesRequest
        | OfpMessage::BarrierRequest
        | OfpMessage::BarrierReply => {}
        OfpMessage::EchoRequest(d) | OfpMessage::EchoReply(d) => body.put_slice(d),
        OfpMessage::Error { err_type, code } => {
            body.put_u16(*err_type);
            body.put_u16(*code);
        }
        OfpMessage::FeaturesReply { datapath_id, ports } => {
            body.put_u64(*datapath_id);
            body.put_u32(256); // n_buffers
            body.put_u8(1); // n_tables
            body.put_slice(&[0; 3]);
            body.put_u32(0); // capabilities
            body.put_u32(0); // actions
            for p in ports {
                body.put_u16(*p);
                body.put_slice(&[0; 6]); // hw_addr
                let mut name = [0u8; 16];
                let s = format!("dpdkr{p}");
                name[..s.len().min(16)].copy_from_slice(&s.as_bytes()[..s.len().min(16)]);
                body.put_slice(&name);
                body.put_u32(0); // config
                body.put_u32(0); // state
                body.put_u32(0); // curr
                body.put_u32(0); // advertised
                body.put_u32(0); // supported
                body.put_u32(0); // peer
            }
        }
        OfpMessage::FlowMod(fm) => {
            put_match(body, &fm.fmatch);
            body.put_u64(fm.cookie);
            body.put_u16(match fm.command {
                FlowModCommand::Add => 0,
                FlowModCommand::Modify => 1,
                FlowModCommand::ModifyStrict => 2,
                FlowModCommand::Delete => 3,
                FlowModCommand::DeleteStrict => 4,
            });
            body.put_u16(fm.idle_timeout);
            body.put_u16(fm.hard_timeout);
            body.put_u16(fm.priority);
            body.put_u32(0xffff_ffff); // buffer_id: none
            body.put_u16(fm.out_port.0);
            body.put_u16(1); // flags: SEND_FLOW_REM
            put_actions(body, &fm.actions);
        }
        OfpMessage::PacketIn(pi) => {
            body.put_u32(0xffff_ffff); // buffer_id: unbuffered
            body.put_u16(inner_len(pi.data.len()));
            body.put_u16(pi.in_port.0);
            body.put_u8(match pi.reason {
                PacketInReason::NoMatch => 0,
                PacketInReason::Action => 1,
            });
            body.put_u8(0);
            body.put_slice(&pi.data);
        }
        OfpMessage::PacketOut(po) => {
            body.put_u32(0xffff_ffff); // buffer_id: data attached
            body.put_u16(po.in_port.0);
            body.put_u16(inner_len(actions_wire_len(&po.actions)));
            put_actions(body, &po.actions);
            body.put_slice(&po.data);
        }
        OfpMessage::FlowRemoved(fr) => {
            put_match(body, &fr.fmatch);
            body.put_u64(fr.cookie);
            body.put_u16(fr.priority);
            body.put_u8(2); // reason: delete
            body.put_u8(0);
            body.put_u32(0); // duration_sec
            body.put_u32(0); // duration_nsec
            body.put_u16(0); // idle_timeout
            body.put_slice(&[0, 0]);
            body.put_u64(fr.packet_count);
            body.put_u64(fr.byte_count);
        }
        OfpMessage::FlowStatsRequest(req) => {
            body.put_u16(1); // OFPST_FLOW
            body.put_u16(0); // flags
            put_match(body, &req.fmatch);
            body.put_u8(0xff); // table_id: all
            body.put_u8(0);
            body.put_u16(req.out_port.0);
        }
        OfpMessage::FlowStatsReply(entries) | OfpMessage::FlowStatsReplyMore(entries) => {
            body.put_u16(1);
            body.put_u16(match msg {
                OfpMessage::FlowStatsReplyMore(_) => OFPSF_REPLY_MORE,
                _ => 0,
            });
            for e in entries {
                body.put_u16(inner_len(flow_stats_entry_len(e)));
                body.put_u8(0); // table_id
                body.put_u8(0);
                put_match(body, &e.fmatch);
                body.put_u32(e.duration_sec);
                body.put_u32(0); // duration_nsec
                body.put_u16(e.priority);
                body.put_u16(e.idle_timeout);
                body.put_u16(e.hard_timeout);
                body.put_slice(&[0; 6]);
                body.put_u64(e.cookie);
                body.put_u64(e.packet_count);
                body.put_u64(e.byte_count);
                put_actions(body, &e.actions);
            }
        }
        OfpMessage::PortStatsRequest(req) => {
            body.put_u16(4); // OFPST_PORT
            body.put_u16(0);
            body.put_u16(req.port_no.0);
            body.put_slice(&[0; 6]);
        }
        OfpMessage::PortStatsReply(entries) => {
            body.put_u16(4);
            body.put_u16(0);
            for e in entries {
                body.put_u16(e.port_no);
                body.put_slice(&[0; 6]);
                body.put_u64(e.rx_packets);
                body.put_u64(e.tx_packets);
                body.put_u64(e.rx_bytes);
                body.put_u64(e.tx_bytes);
                body.put_u64(e.rx_dropped);
                body.put_u64(e.tx_dropped);
                // rx/tx errors and the 4 detailed error counters: zero.
                for _ in 0..6 {
                    body.put_u64(0);
                }
            }
        }
        OfpMessage::PortMod(pm) => {
            body.put_u16(pm.port_no.0);
            body.put_slice(&[0; 6]); // hw_addr (ignored by the reproduction)
            body.put_u32(if pm.down { OFPPC_PORT_DOWN } else { 0 }); // config
            body.put_u32(OFPPC_PORT_DOWN); // mask: only PORT_DOWN changes
            body.put_u32(0); // advertise
            body.put_u32(0); // pad
        }
        OfpMessage::PortStatus(ps) => {
            body.put_u8(match ps.reason {
                PortStatusReason::Add => 0,
                PortStatusReason::Delete => 1,
                PortStatusReason::Modify => 2,
            });
            body.put_slice(&[0; 7]);
            put_phy_port(body, ps.port_no, &ps.name, ps.down);
        }
        OfpMessage::AggregateStatsRequest(req) => {
            body.put_u16(2); // OFPST_AGGREGATE
            body.put_u16(0);
            put_match(body, &req.fmatch);
            body.put_u8(0xff); // table_id: all
            body.put_u8(0);
            body.put_u16(req.out_port.0);
        }
        OfpMessage::AggregateStatsReply(agg) => {
            body.put_u16(2);
            body.put_u16(0);
            body.put_u64(agg.packet_count);
            body.put_u64(agg.byte_count);
            body.put_u32(agg.flow_count);
            body.put_u32(0); // pad
        }
        OfpMessage::TableStatsRequest => {
            body.put_u16(3); // OFPST_TABLE
            body.put_u16(0);
        }
        OfpMessage::TableStatsReply(entries) => {
            body.put_u16(3);
            body.put_u16(0);
            for e in entries {
                body.put_u8(e.table_id);
                body.put_slice(&[0; 3]);
                put_fixed_str(body, &e.name, 32);
                body.put_u32(0x003f_ffff); // wildcards: everything maskable
                body.put_u32(e.max_entries);
                body.put_u32(e.active_count);
                body.put_u64(e.lookup_count);
                body.put_u64(e.matched_count);
            }
        }
        OfpMessage::DescStatsRequest => {
            body.put_u16(0); // OFPST_DESC
            body.put_u16(0);
        }
        OfpMessage::DescStatsReply(d) => {
            body.put_u16(0);
            body.put_u16(0);
            put_fixed_str(body, &d.manufacturer, 256);
            put_fixed_str(body, &d.hardware, 256);
            put_fixed_str(body, &d.software, 256);
            put_fixed_str(body, &d.serial, 32);
            put_fixed_str(body, &d.datapath, 256);
        }
    }
}

impl OfpMarshal for OfpMessage {
    /// Analytic wire size — must agree byte-for-byte with [`OfpMarshal::marshal`]
    /// (the generated round-trip tests enforce this per message type).
    fn size_of(&self) -> usize {
        let body = match self {
            OfpMessage::Hello
            | OfpMessage::FeaturesRequest
            | OfpMessage::BarrierRequest
            | OfpMessage::BarrierReply => 0,
            OfpMessage::EchoRequest(d) | OfpMessage::EchoReply(d) => d.len(),
            OfpMessage::Error { .. } => 4,
            OfpMessage::FeaturesReply { ports, .. } => 24 + 48 * ports.len(),
            OfpMessage::FlowMod(fm) => MATCH_LEN + 24 + actions_wire_len(&fm.actions),
            OfpMessage::PacketIn(pi) => 10 + pi.data.len(),
            OfpMessage::PacketOut(po) => 8 + actions_wire_len(&po.actions) + po.data.len(),
            OfpMessage::FlowRemoved(_) => MATCH_LEN + 40,
            OfpMessage::FlowStatsRequest(_) => 4 + MATCH_LEN + 4,
            OfpMessage::FlowStatsReply(entries) | OfpMessage::FlowStatsReplyMore(entries) => {
                4 + entries.iter().map(flow_stats_entry_len).sum::<usize>()
            }
            OfpMessage::PortStatsRequest(_) => 12,
            OfpMessage::PortStatsReply(entries) => 4 + 104 * entries.len(),
            OfpMessage::PortMod(_) => 24,
            OfpMessage::PortStatus(_) => 56,
            OfpMessage::AggregateStatsRequest(_) => 4 + MATCH_LEN + 4,
            OfpMessage::AggregateStatsReply(_) => 28,
            OfpMessage::TableStatsRequest => 4,
            OfpMessage::TableStatsReply(entries) => 4 + 64 * entries.len(),
            OfpMessage::DescStatsRequest => 4,
            OfpMessage::DescStatsReply(_) => 4 + 256 * 4 + 32,
        };
        HEADER_LEN + body
    }

    fn header_of(&self, xid: u32) -> Result<OfpHeader> {
        OfpHeader::for_message(self.type_id(), self.size_of(), xid)
    }

    fn marshal(&self, xid: u32) -> Result<Vec<u8>> {
        let header = self.header_of(xid)?;
        let mut out = Vec::with_capacity(header.length());
        header.marshal(&mut out);
        encode_body(self, &mut out);
        assert_eq!(out.len(), header.length(), "size_of disagrees with marshal");
        Ok(out)
    }

    fn parse(header: &OfpHeader, body: &[u8]) -> Result<(OfpMessage, u32)> {
        if header.version != OFP_VERSION {
            return Err(OfError::BadVersion(header.version));
        }
        if header.length() != HEADER_LEN + body.len() {
            return Err(OfError::BadLength);
        }
        let msg = parse_body(header.typ, body)?;
        Ok((msg, header.xid))
    }
}

/// Decodes one OF 1.0 message; returns it with its transaction id.
///
/// Thin wrapper over [`OfpMarshal::parse`] for a single complete frame;
/// the byte-stream path cuts frames with [`crate::framer::Framer`] first.
pub fn decode(data: &[u8]) -> Result<(OfpMessage, u32)> {
    let header = OfpHeader::parse(data)?;
    if header.version != OFP_VERSION {
        return Err(OfError::BadVersion(header.version));
    }
    if header.length() != data.len() {
        return Err(OfError::BadLength);
    }
    OfpMessage::parse(&header, &data[HEADER_LEN..])
}

/// Parses a message body given its already-framed header type.
fn parse_body(ty: u8, body: &[u8]) -> Result<OfpMessage> {
    let mut buf = body;
    let body_len = body.len();

    let msg = match ty {
        0 => OfpMessage::Hello,
        1 => {
            if buf.remaining() < 4 {
                return Err(OfError::Truncated);
            }
            OfpMessage::Error {
                err_type: buf.get_u16(),
                code: buf.get_u16(),
            }
        }
        2 => OfpMessage::EchoRequest(buf.to_vec()),
        3 => OfpMessage::EchoReply(buf.to_vec()),
        5 => OfpMessage::FeaturesRequest,
        6 => {
            if buf.remaining() < 24 {
                return Err(OfError::Truncated);
            }
            let datapath_id = buf.get_u64();
            buf.advance(12); // n_buffers, n_tables, pad, capabilities — skip actions next
            buf.advance(4);
            let mut ports = Vec::new();
            while buf.remaining() >= 48 {
                ports.push(buf.get_u16());
                buf.advance(46);
            }
            OfpMessage::FeaturesReply { datapath_id, ports }
        }
        10 => {
            if buf.remaining() < 10 {
                return Err(OfError::Truncated);
            }
            let _buffer_id = buf.get_u32();
            let _total_len = buf.get_u16();
            let in_port = PortNo(buf.get_u16());
            let reason = match buf.get_u8() {
                0 => PacketInReason::NoMatch,
                1 => PacketInReason::Action,
                other => return Err(OfError::Unknown(format!("packet-in reason {other}"))),
            };
            buf.advance(1);
            OfpMessage::PacketIn(PacketIn {
                in_port,
                reason,
                data: buf.to_vec(),
            })
        }
        11 => {
            let fmatch = get_match(&mut buf)?;
            if buf.remaining() < 40 {
                return Err(OfError::Truncated);
            }
            let cookie = buf.get_u64();
            let priority = buf.get_u16();
            buf.advance(2 + 4 + 4 + 2 + 2);
            let packet_count = buf.get_u64();
            let byte_count = buf.get_u64();
            OfpMessage::FlowRemoved(FlowRemoved {
                fmatch,
                priority,
                cookie,
                packet_count,
                byte_count,
            })
        }
        13 => {
            if buf.remaining() < 8 {
                return Err(OfError::Truncated);
            }
            let _buffer_id = buf.get_u32();
            let in_port = PortNo(buf.get_u16());
            let actions_len = usize::from(buf.get_u16());
            let actions = get_actions(&mut buf, actions_len)?;
            OfpMessage::PacketOut(PacketOut {
                in_port,
                actions,
                data: buf.to_vec(),
            })
        }
        14 => {
            let fmatch = get_match(&mut buf)?;
            if buf.remaining() < 24 {
                return Err(OfError::Truncated);
            }
            let cookie = buf.get_u64();
            let command = match buf.get_u16() {
                0 => FlowModCommand::Add,
                1 => FlowModCommand::Modify,
                2 => FlowModCommand::ModifyStrict,
                3 => FlowModCommand::Delete,
                4 => FlowModCommand::DeleteStrict,
                other => return Err(OfError::Unknown(format!("flow_mod command {other}"))),
            };
            let idle_timeout = buf.get_u16();
            let hard_timeout = buf.get_u16();
            let priority = buf.get_u16();
            let _buffer_id = buf.get_u32();
            let out_port = PortNo(buf.get_u16());
            let _flags = buf.get_u16();
            let actions = get_actions(&mut buf, body_len - MATCH_LEN - 24)?;
            OfpMessage::FlowMod(FlowMod {
                command,
                fmatch,
                priority,
                actions,
                cookie,
                idle_timeout,
                hard_timeout,
                out_port,
            })
        }
        12 => {
            if buf.remaining() < 8 {
                return Err(OfError::Truncated);
            }
            let reason = match buf.get_u8() {
                0 => PortStatusReason::Add,
                1 => PortStatusReason::Delete,
                2 => PortStatusReason::Modify,
                other => return Err(OfError::Unknown(format!("port-status reason {other}"))),
            };
            buf.advance(7);
            if buf.remaining() < 48 {
                return Err(OfError::Truncated);
            }
            let port_no = buf.get_u16();
            buf.advance(6); // hw_addr
            let name = get_fixed_str(&mut buf, 16)?;
            let config = buf.get_u32();
            buf.advance(20); // state + curr/advertised/supported/peer
            OfpMessage::PortStatus(PortStatus {
                reason,
                port_no,
                name,
                down: config & OFPPC_PORT_DOWN != 0,
            })
        }
        15 => {
            if buf.remaining() < 24 {
                return Err(OfError::Truncated);
            }
            let port_no = PortNo(buf.get_u16());
            buf.advance(6); // hw_addr
            let config = buf.get_u32();
            let mask = buf.get_u32();
            buf.advance(8); // advertise + pad
            if mask & OFPPC_PORT_DOWN == 0 {
                return Err(OfError::Unknown(
                    "port_mod without PORT_DOWN in mask".into(),
                ));
            }
            OfpMessage::PortMod(PortMod {
                port_no,
                down: config & OFPPC_PORT_DOWN != 0,
            })
        }
        16 => {
            if buf.remaining() < 4 {
                return Err(OfError::Truncated);
            }
            match buf.get_u16() {
                0 => {
                    buf.advance(2);
                    OfpMessage::DescStatsRequest
                }
                1 => {
                    buf.advance(2); // flags
                    let fmatch = get_match(&mut buf)?;
                    if buf.remaining() < 4 {
                        return Err(OfError::Truncated);
                    }
                    buf.advance(2); // table_id + pad
                    let out_port = PortNo(buf.get_u16());
                    OfpMessage::FlowStatsRequest(FlowStatsRequest { fmatch, out_port })
                }
                2 => {
                    buf.advance(2);
                    let fmatch = get_match(&mut buf)?;
                    if buf.remaining() < 4 {
                        return Err(OfError::Truncated);
                    }
                    buf.advance(2);
                    let out_port = PortNo(buf.get_u16());
                    OfpMessage::AggregateStatsRequest(AggregateStatsRequest { fmatch, out_port })
                }
                3 => {
                    buf.advance(2);
                    OfpMessage::TableStatsRequest
                }
                4 => {
                    buf.advance(2);
                    if buf.remaining() < 8 {
                        return Err(OfError::Truncated);
                    }
                    let port_no = PortNo(buf.get_u16());
                    OfpMessage::PortStatsRequest(PortStatsRequest { port_no })
                }
                other => return Err(OfError::Unknown(format!("stats type {other}"))),
            }
        }
        17 => {
            if buf.remaining() < 4 {
                return Err(OfError::Truncated);
            }
            match buf.get_u16() {
                0 => {
                    buf.advance(2);
                    let manufacturer = get_fixed_str(&mut buf, 256)?;
                    let hardware = get_fixed_str(&mut buf, 256)?;
                    let software = get_fixed_str(&mut buf, 256)?;
                    let serial = get_fixed_str(&mut buf, 32)?;
                    let datapath = get_fixed_str(&mut buf, 256)?;
                    OfpMessage::DescStatsReply(DescStats {
                        manufacturer,
                        hardware,
                        software,
                        serial,
                        datapath,
                    })
                }
                2 => {
                    buf.advance(2);
                    if buf.remaining() < 24 {
                        return Err(OfError::Truncated);
                    }
                    let packet_count = buf.get_u64();
                    let byte_count = buf.get_u64();
                    let flow_count = buf.get_u32();
                    buf.advance(4);
                    OfpMessage::AggregateStatsReply(AggregateStats {
                        packet_count,
                        byte_count,
                        flow_count,
                    })
                }
                3 => {
                    buf.advance(2);
                    let mut entries = Vec::new();
                    while buf.remaining() >= 64 {
                        let table_id = buf.get_u8();
                        buf.advance(3);
                        let name = get_fixed_str(&mut buf, 32)?;
                        let _wildcards = buf.get_u32();
                        let max_entries = buf.get_u32();
                        let active_count = buf.get_u32();
                        let lookup_count = buf.get_u64();
                        let matched_count = buf.get_u64();
                        entries.push(TableStatsEntry {
                            table_id,
                            name,
                            max_entries,
                            active_count,
                            lookup_count,
                            matched_count,
                        });
                    }
                    OfpMessage::TableStatsReply(entries)
                }
                1 => {
                    let more = buf.get_u16() & OFPSF_REPLY_MORE != 0;
                    let mut entries = Vec::new();
                    while buf.has_remaining() {
                        if buf.remaining() < 2 {
                            return Err(OfError::Truncated);
                        }
                        let entry_len = usize::from(buf.get_u16());
                        if entry_len < FLOW_STATS_FIXED || buf.remaining() < entry_len - 2 {
                            return Err(OfError::BadLength);
                        }
                        buf.advance(2); // table_id + pad
                        let fmatch = get_match(&mut buf)?;
                        let duration_sec = buf.get_u32();
                        let _nsec = buf.get_u32();
                        let priority = buf.get_u16();
                        let idle_timeout = buf.get_u16();
                        let hard_timeout = buf.get_u16();
                        buf.advance(6);
                        let cookie = buf.get_u64();
                        let packet_count = buf.get_u64();
                        let byte_count = buf.get_u64();
                        let actions = get_actions(&mut buf, entry_len - FLOW_STATS_FIXED)?;
                        entries.push(FlowStatsEntry {
                            fmatch,
                            priority,
                            cookie,
                            duration_sec,
                            idle_timeout,
                            hard_timeout,
                            packet_count,
                            byte_count,
                            actions,
                        });
                    }
                    if more {
                        OfpMessage::FlowStatsReplyMore(entries)
                    } else {
                        OfpMessage::FlowStatsReply(entries)
                    }
                }
                4 => {
                    buf.advance(2);
                    let mut entries = Vec::new();
                    while buf.remaining() >= 104 {
                        let port_no = buf.get_u16();
                        buf.advance(6);
                        let rx_packets = buf.get_u64();
                        let tx_packets = buf.get_u64();
                        let rx_bytes = buf.get_u64();
                        let tx_bytes = buf.get_u64();
                        let rx_dropped = buf.get_u64();
                        let tx_dropped = buf.get_u64();
                        buf.advance(48);
                        entries.push(PortStatsEntry {
                            port_no,
                            rx_packets,
                            tx_packets,
                            rx_bytes,
                            tx_bytes,
                            rx_dropped,
                            tx_dropped,
                        });
                    }
                    OfpMessage::PortStatsReply(entries)
                }
                other => return Err(OfError::Unknown(format!("stats type {other}"))),
            }
        }
        18 => OfpMessage::BarrierRequest,
        19 => OfpMessage::BarrierReply,
        other => return Err(OfError::Unknown(format!("message type {other}"))),
    };
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: OfpMessage) {
        let bytes = encode(&msg, 0x1234_5678);
        // Header sanity.
        assert_eq!(bytes[0], OFP_VERSION);
        assert_eq!(bytes[1], msg.type_id());
        assert_eq!(
            u16::from_be_bytes([bytes[2], bytes[3]]) as usize,
            bytes.len()
        );
        let (decoded, xid) = decode(&bytes).expect("decode");
        assert_eq!(xid, 0x1234_5678);
        assert_eq!(decoded, msg);
    }

    #[test]
    fn roundtrip_simple_messages() {
        roundtrip(OfpMessage::Hello);
        roundtrip(OfpMessage::EchoRequest(vec![1, 2, 3]));
        roundtrip(OfpMessage::EchoReply(vec![]));
        roundtrip(OfpMessage::FeaturesRequest);
        roundtrip(OfpMessage::BarrierRequest);
        roundtrip(OfpMessage::BarrierReply);
        roundtrip(OfpMessage::Error {
            err_type: 3,
            code: 2,
        });
    }

    #[test]
    fn roundtrip_features_reply() {
        roundtrip(OfpMessage::FeaturesReply {
            datapath_id: 0xabcdef,
            ports: vec![1, 2, 3, 4],
        });
    }

    #[test]
    fn roundtrip_flow_mod_with_all_action_kinds() {
        let mut fmatch = FlowMatch::in_port(PortNo(7));
        fmatch.eth_type = Some(0x0800);
        fmatch.ipv4_dst = Some((Ipv4Addr::new(10, 0, 0, 0), 24));
        fmatch.l4_dst = Some(80);
        let fm = FlowMod {
            command: FlowModCommand::Add,
            fmatch,
            priority: 1000,
            actions: vec![
                Action::SetEthSrc(MacAddr::local(9)),
                Action::SetEthDst(MacAddr::local(8)),
                Action::SetIpv4Src(Ipv4Addr::new(1, 2, 3, 4)),
                Action::SetIpv4Dst(Ipv4Addr::new(4, 3, 2, 1)),
                Action::SetIpTos(0x2e),
                Action::SetL4Src(1),
                Action::SetL4Dst(2),
                Action::SetVlanId(5),
                Action::StripVlan,
                Action::Output(PortNo(3)),
            ],
            cookie: 0xdead_beef_cafe,
            idle_timeout: 30,
            hard_timeout: 300,
            out_port: PortNo::NONE,
        };
        roundtrip(OfpMessage::FlowMod(fm));
    }

    #[test]
    fn roundtrip_packet_in_out() {
        roundtrip(OfpMessage::PacketIn(PacketIn {
            in_port: PortNo(2),
            reason: PacketInReason::NoMatch,
            data: vec![0xaa; 64],
        }));
        roundtrip(OfpMessage::PacketOut(PacketOut {
            in_port: PortNo::NONE,
            actions: vec![Action::Output(PortNo(5))],
            data: vec![0x55; 60],
        }));
    }

    #[test]
    fn roundtrip_stats() {
        roundtrip(OfpMessage::FlowStatsRequest(FlowStatsRequest {
            fmatch: FlowMatch::any(),
            out_port: PortNo::NONE,
        }));
        roundtrip(OfpMessage::FlowStatsReply(vec![FlowStatsEntry {
            fmatch: FlowMatch::in_port(PortNo(1)),
            priority: 10,
            cookie: 99,
            duration_sec: 5,
            idle_timeout: 0,
            hard_timeout: 0,
            packet_count: 12345,
            byte_count: 790080,
            actions: vec![Action::Output(PortNo(2))],
        }]));
        roundtrip(OfpMessage::PortStatsRequest(PortStatsRequest {
            port_no: PortNo::NONE,
        }));
        roundtrip(OfpMessage::PortStatsReply(vec![
            PortStatsEntry {
                port_no: 1,
                rx_packets: 1,
                tx_packets: 2,
                rx_bytes: 64,
                tx_bytes: 128,
                rx_dropped: 0,
                tx_dropped: 3,
            },
            PortStatsEntry::default(),
        ]));
    }

    #[test]
    fn roundtrip_flow_removed() {
        roundtrip(OfpMessage::FlowRemoved(FlowRemoved {
            fmatch: FlowMatch::in_port(PortNo(4)),
            priority: 7,
            cookie: 1,
            packet_count: 10,
            byte_count: 640,
        }));
    }

    #[test]
    fn roundtrip_port_mod_and_status() {
        roundtrip(OfpMessage::PortMod(PortMod {
            port_no: PortNo(3),
            down: true,
        }));
        roundtrip(OfpMessage::PortMod(PortMod {
            port_no: PortNo(3),
            down: false,
        }));
        for reason in [
            PortStatusReason::Add,
            PortStatusReason::Delete,
            PortStatusReason::Modify,
        ] {
            roundtrip(OfpMessage::PortStatus(PortStatus {
                reason,
                port_no: 9,
                name: "dpdkr9".into(),
                down: reason == PortStatusReason::Modify,
            }));
        }
    }

    #[test]
    fn roundtrip_aggregate_table_desc_stats() {
        let mut fmatch = FlowMatch::in_port(PortNo(1));
        fmatch.l4_dst = Some(80);
        roundtrip(OfpMessage::AggregateStatsRequest(AggregateStatsRequest {
            fmatch,
            out_port: PortNo(2),
        }));
        roundtrip(OfpMessage::AggregateStatsReply(AggregateStats {
            packet_count: 1_000_000,
            byte_count: 64_000_000,
            flow_count: 12,
        }));
        roundtrip(OfpMessage::TableStatsRequest);
        roundtrip(OfpMessage::TableStatsReply(vec![TableStatsEntry {
            table_id: 0,
            name: "classifier".into(),
            max_entries: 1_000_000,
            active_count: 42,
            lookup_count: 777,
            matched_count: 700,
        }]));
        roundtrip(OfpMessage::DescStatsRequest);
        roundtrip(OfpMessage::DescStatsReply(DescStats {
            manufacturer: "vnf-highway".into(),
            hardware: "simulated".into(),
            software: "ovs-dp 0.1".into(),
            serial: "None".into(),
            datapath: "highway datapath".into(),
        }));
    }

    #[test]
    fn fixed_str_truncates_and_trims() {
        let mut body = Vec::new();
        put_fixed_str(&mut body, "a-name-way-longer-than-the-field", 8);
        assert_eq!(body.len(), 8);
        let mut slice = &body[..];
        assert_eq!(get_fixed_str(&mut slice, 8).unwrap(), "a-name-w");

        let mut body = Vec::new();
        put_fixed_str(&mut body, "ok", 8);
        let mut slice = &body[..];
        assert_eq!(get_fixed_str(&mut slice, 8).unwrap(), "ok");
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(decode(&[]).unwrap_err(), OfError::Truncated);
        assert_eq!(
            decode(&[0x04, 0, 0, 8, 0, 0, 0, 0]).unwrap_err(),
            OfError::BadVersion(0x04)
        );
        // Length field disagreeing with the buffer.
        let mut bytes = encode(&OfpMessage::Hello, 1);
        bytes.push(0);
        assert_eq!(decode(&bytes).unwrap_err(), OfError::BadLength);
    }

    #[test]
    fn truncated_action_bodies_error_instead_of_panicking() {
        // A FlowMod whose action list ends in a TLV that claims alen=4 for
        // a type that needs a body (SetVlanId) — previously a panic.
        for (ty, alen) in [(1u16, 4u16), (8, 4), (9, 4), (10, 4), (1, 5)] {
            let mut bytes = encode(
                &OfpMessage::FlowMod(FlowMod::add(FlowMatch::any(), 1, vec![])),
                1,
            );
            bytes.extend_from_slice(&ty.to_be_bytes());
            bytes.extend_from_slice(&alen.to_be_bytes());
            bytes.extend(std::iter::repeat(0u8).take(usize::from(alen) - 4));
            let total = bytes.len() as u16;
            bytes[2..4].copy_from_slice(&total.to_be_bytes());
            assert!(decode(&bytes).is_err(), "type {ty} alen {alen}");
        }
    }

    /// Generates one `OfpMarshal` round-trip test per message type:
    /// `size_of` must agree with `marshal`'s byte count, `header_of` with the
    /// marshalled header, and `parse` must return the original message.
    macro_rules! marshal_roundtrip {
        ($($name:ident => $msg:expr;)+) => {
            $(
                #[test]
                fn $name() {
                    let msg: OfpMessage = $msg;
                    let xid = 0x0f00_0000 + line!();
                    let bytes = msg.marshal(xid).unwrap();
                    assert_eq!(msg.size_of(), bytes.len(), "size_of vs marshal");
                    let header = msg.header_of(xid).unwrap();
                    assert_eq!(header.typ, msg.type_id());
                    assert_eq!(header.length(), bytes.len());
                    assert_eq!(header.xid, xid);
                    let parsed = OfpHeader::parse(&bytes).unwrap();
                    assert_eq!(parsed, header);
                    let (decoded, got_xid) =
                        OfpMessage::parse(&parsed, &bytes[HEADER_LEN..]).unwrap();
                    assert_eq!(got_xid, xid);
                    assert_eq!(decoded, msg);
                }
            )+
        };
    }

    marshal_roundtrip! {
        marshal_hello => OfpMessage::Hello;
        marshal_error => OfpMessage::Error { err_type: 1, code: 2 };
        marshal_echo_request => OfpMessage::EchoRequest(vec![9, 8, 7]);
        marshal_echo_reply => OfpMessage::EchoReply(vec![]);
        marshal_features_request => OfpMessage::FeaturesRequest;
        marshal_features_reply => OfpMessage::FeaturesReply {
            datapath_id: 0x42,
            ports: vec![1, 2, 7],
        };
        marshal_packet_in => OfpMessage::PacketIn(PacketIn {
            in_port: PortNo(3),
            reason: PacketInReason::Action,
            data: vec![0xab; 33],
        });
        marshal_flow_removed => OfpMessage::FlowRemoved(FlowRemoved {
            fmatch: FlowMatch::in_port(PortNo(1)),
            priority: 5,
            cookie: 77,
            packet_count: 4,
            byte_count: 256,
        });
        marshal_port_status => OfpMessage::PortStatus(PortStatus {
            reason: PortStatusReason::Modify,
            port_no: 4,
            name: "dpdkr4".into(),
            down: true,
        });
        marshal_packet_out => OfpMessage::PacketOut(PacketOut {
            in_port: PortNo(1),
            actions: vec![Action::Output(PortNo(2)), Action::SetVlanId(9)],
            data: vec![0x11; 60],
        });
        marshal_flow_mod => OfpMessage::FlowMod(
            FlowMod::add(
                FlowMatch::in_port(PortNo(9)),
                500,
                vec![
                    Action::SetEthDst(MacAddr::local(3)),
                    Action::Output(PortNo(10)),
                ],
            )
            .with_cookie(0xc0de),
        );
        marshal_port_mod => OfpMessage::PortMod(PortMod {
            port_no: PortNo(6),
            down: false,
        });
        marshal_flow_stats_request => OfpMessage::FlowStatsRequest(FlowStatsRequest {
            fmatch: FlowMatch::any(),
            out_port: PortNo::NONE,
        });
        marshal_flow_stats_reply => OfpMessage::FlowStatsReply(vec![FlowStatsEntry {
            fmatch: FlowMatch::in_port(PortNo(2)),
            priority: 9,
            cookie: 3,
            duration_sec: 1,
            idle_timeout: 0,
            hard_timeout: 60,
            packet_count: 5,
            byte_count: 320,
            actions: vec![Action::StripVlan, Action::Output(PortNo(4))],
        }]);
        marshal_flow_stats_reply_more => OfpMessage::FlowStatsReplyMore(vec![FlowStatsEntry {
            fmatch: FlowMatch::in_port(PortNo(2)),
            priority: 9,
            cookie: 3,
            duration_sec: 1,
            idle_timeout: 0,
            hard_timeout: 60,
            packet_count: 5,
            byte_count: 320,
            actions: vec![Action::Output(PortNo(4))],
        }]);
        marshal_port_stats_request => OfpMessage::PortStatsRequest(PortStatsRequest {
            port_no: PortNo(2),
        });
        marshal_port_stats_reply => OfpMessage::PortStatsReply(vec![
            PortStatsEntry::default(),
            PortStatsEntry {
                port_no: 8,
                rx_packets: 10,
                tx_packets: 20,
                rx_bytes: 640,
                tx_bytes: 1280,
                rx_dropped: 1,
                tx_dropped: 2,
            },
        ]);
        marshal_aggregate_stats_request =>
            OfpMessage::AggregateStatsRequest(AggregateStatsRequest {
                fmatch: FlowMatch::in_port(PortNo(3)),
                out_port: PortNo::NONE,
            });
        marshal_aggregate_stats_reply => OfpMessage::AggregateStatsReply(AggregateStats {
            packet_count: 100,
            byte_count: 6400,
            flow_count: 3,
        });
        marshal_table_stats_request => OfpMessage::TableStatsRequest;
        marshal_table_stats_reply => OfpMessage::TableStatsReply(vec![TableStatsEntry {
            table_id: 0,
            name: "classifier".into(),
            max_entries: 4096,
            active_count: 7,
            lookup_count: 1000,
            matched_count: 900,
        }]);
        marshal_desc_stats_request => OfpMessage::DescStatsRequest;
        marshal_desc_stats_reply => OfpMessage::DescStatsReply(DescStats {
            manufacturer: "m".into(),
            hardware: "h".into(),
            software: "s".into(),
            serial: "sn".into(),
            datapath: "dp".into(),
        });
        marshal_barrier_request => OfpMessage::BarrierRequest;
        marshal_barrier_reply => OfpMessage::BarrierReply;
    }

    #[test]
    fn match_wildcard_roundtrip_edge_cases() {
        // Fully wildcarded.
        let mut body = Vec::new();
        put_match(&mut body, &FlowMatch::any());
        let mut slice = &body[..];
        assert_eq!(get_match(&mut slice).unwrap(), FlowMatch::any());

        // Exact /32 prefixes.
        let mut m = FlowMatch::any();
        m.ipv4_src = Some((Ipv4Addr::new(1, 1, 1, 1), 32));
        m.ipv4_dst = Some((Ipv4Addr::new(2, 2, 2, 2), 32));
        let mut body = Vec::new();
        put_match(&mut body, &m);
        let mut slice = &body[..];
        assert_eq!(get_match(&mut slice).unwrap(), m);
    }
}
