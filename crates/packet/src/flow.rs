//! Flow key extraction — the parsed header tuple that drives the vSwitch
//! exact-match cache and the OpenFlow classifier.

use crate::ethernet::{EtherType, EthernetFrame, MacAddr, ETHERNET_HEADER_LEN};
use crate::ipv4::{IpProtocol, Ipv4Packet};
use crate::tcp::TcpSegment;
use crate::udp::UdpDatagram;
use std::hash::{Hash, Hasher};
use std::net::Ipv4Addr;

/// The parsed L2–L4 header tuple of one packet.
///
/// This mirrors the fields of an OpenFlow 1.0 12-tuple match *minus* the
/// ingress port, which the switch supplies separately (the same packet bytes
/// can arrive on different ports). Fields that do not apply to the packet
/// (e.g. L4 ports of a non-TCP/UDP packet) are zeroed — exactly as OVS
/// canonicalises its miniflows, so the key is well-defined and hashable.
///
/// It hashes as its [`PackedKey`] (four word writes), not field by field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowKey {
    pub eth_src: MacAddr,
    pub eth_dst: MacAddr,
    /// Raw EtherType of the innermost payload (after the VLAN tag, if any).
    pub eth_type: u16,
    /// VLAN ID (12 bits) or 0 when untagged.
    pub vlan_id: u16,
    pub ipv4_src: Ipv4Addr,
    pub ipv4_dst: Ipv4Addr,
    pub ip_proto: u8,
    pub ip_tos: u8,
    pub l4_src: u16,
    pub l4_dst: u16,
}

impl Default for FlowKey {
    fn default() -> Self {
        FlowKey {
            eth_src: MacAddr::ZERO,
            eth_dst: MacAddr::ZERO,
            eth_type: 0,
            vlan_id: 0,
            ipv4_src: Ipv4Addr::UNSPECIFIED,
            ipv4_dst: Ipv4Addr::UNSPECIFIED,
            ip_proto: 0,
            ip_tos: 0,
            l4_src: 0,
            l4_dst: 0,
        }
    }
}

impl Hash for FlowKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.pack(0).hash(state);
    }
}

/// A [`FlowKey`] and an ingress port packed into four words, the form the
/// datapath's caches key and hash on: one word write per word instead of
/// one write per field. The packing is injective, so two packed keys are
/// equal exactly when their keys and ports are.
///
/// | word | bits 0..48 | bits 48..64 |
/// |---|---|---|
/// | 0 | `eth_src` | `eth_type` |
/// | 1 | `eth_dst` | `vlan_id` |
/// | 2 | `ipv4_src` (0..32), `ipv4_dst` (32..64) | |
/// | 3 | `ip_proto` (0..8), `ip_tos` (8..16), `l4_src` (16..32), `l4_dst` (32..48) | in-port |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PackedKey(pub [u64; 4]);

impl Hash for PackedKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for w in self.0 {
            state.write_u64(w);
        }
    }
}

impl PackedKey {
    /// Keeps the bits `mask` has set: a wildcard mask packed the same way
    /// (all-ones in the fields it pins) projects a key onto it.
    pub fn masked(&self, mask: &PackedKey) -> PackedKey {
        let [a, b, c, d] = self.0;
        let [ma, mb, mc, md] = mask.0;
        PackedKey([a & ma, b & mb, c & mc, d & md])
    }

    /// The ingress port and key this was packed from.
    pub fn unpack(&self) -> (u16, FlowKey) {
        let [w0, w1, w2, w3] = self.0;
        let mac = |w: u64| {
            let b = w.to_be_bytes();
            MacAddr([b[2], b[3], b[4], b[5], b[6], b[7]])
        };
        let key = FlowKey {
            eth_src: mac(w0),
            eth_dst: mac(w1),
            eth_type: (w0 >> 48) as u16,
            vlan_id: (w1 >> 48) as u16,
            ipv4_src: Ipv4Addr::from(w2 as u32),
            ipv4_dst: Ipv4Addr::from((w2 >> 32) as u32),
            ip_proto: w3 as u8,
            ip_tos: (w3 >> 8) as u8,
            l4_src: (w3 >> 16) as u16,
            l4_dst: (w3 >> 32) as u16,
        };
        ((w3 >> 48) as u16, key)
    }
}

impl FlowKey {
    /// Packs the key with its ingress port (see [`PackedKey`]).
    pub fn pack(&self, in_port: u16) -> PackedKey {
        let mac = |m: MacAddr| {
            let [a, b, c, d, e, f] = m.0;
            u64::from_be_bytes([0, 0, a, b, c, d, e, f])
        };
        PackedKey([
            mac(self.eth_src) | u64::from(self.eth_type) << 48,
            mac(self.eth_dst) | u64::from(self.vlan_id) << 48,
            u64::from(u32::from(self.ipv4_src)) | u64::from(u32::from(self.ipv4_dst)) << 32,
            u64::from(self.ip_proto)
                | u64::from(self.ip_tos) << 8
                | u64::from(self.l4_src) << 16
                | u64::from(self.l4_dst) << 32
                | u64::from(in_port) << 48,
        ])
    }

    /// Parses the headers of a raw Ethernet frame into a key.
    ///
    /// Malformed inner layers degrade gracefully: the key keeps the fields
    /// that parsed and zeroes the rest, mirroring how a real switch still
    /// forwards packets it cannot fully classify.
    pub fn extract(frame: &[u8]) -> FlowKey {
        let mut key = FlowKey::default();
        let Ok(eth) = EthernetFrame::new_checked(frame) else {
            return key;
        };
        key.eth_src = eth.src_addr();
        key.eth_dst = eth.dst_addr();
        let mut ethertype = eth.ethertype();
        let mut l3 = eth.payload();

        if ethertype == EtherType::Vlan && l3.len() >= 4 {
            key.vlan_id = u16::from_be_bytes([l3[0], l3[1]]) & 0x0fff;
            ethertype = EtherType::from_u16(u16::from_be_bytes([l3[2], l3[3]]));
            l3 = &l3[4..];
        }
        key.eth_type = ethertype.to_u16();

        if ethertype != EtherType::Ipv4 {
            return key;
        }
        let Ok(ip) = Ipv4Packet::new_checked(l3) else {
            return key;
        };
        key.ipv4_src = ip.src_addr();
        key.ipv4_dst = ip.dst_addr();
        key.ip_proto = ip.protocol().to_u8();
        key.ip_tos = ip.tos();

        match ip.protocol() {
            IpProtocol::Udp => {
                if let Ok(udp) = UdpDatagram::new_checked(ip.payload()) {
                    key.l4_src = udp.src_port();
                    key.l4_dst = udp.dst_port();
                }
            }
            IpProtocol::Tcp => {
                if let Ok(tcp) = TcpSegment::new_checked(ip.payload()) {
                    key.l4_src = tcp.src_port();
                    key.l4_dst = tcp.dst_port();
                }
            }
            _ => {}
        }
        key
    }

    /// Byte offset of the IPv4 header inside the frame this key was parsed
    /// from (accounts for the VLAN tag). Only meaningful when
    /// `eth_type == 0x0800`.
    pub fn l3_offset(&self) -> usize {
        if self.vlan_id != 0 {
            ETHERNET_HEADER_LEN + 4
        } else {
            ETHERNET_HEADER_LEN
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PacketBuilder;

    #[test]
    fn extracts_udp_five_tuple() {
        let pkt = PacketBuilder::udp_probe(64)
            .eth(MacAddr::local(1), MacAddr::local(2))
            .ip(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
            .ports(1111, 2222)
            .build();
        let key = FlowKey::extract(&pkt);
        assert_eq!(key.eth_src, MacAddr::local(1));
        assert_eq!(key.eth_dst, MacAddr::local(2));
        assert_eq!(key.eth_type, 0x0800);
        assert_eq!(key.ipv4_src, Ipv4Addr::new(10, 0, 0, 1));
        assert_eq!(key.ipv4_dst, Ipv4Addr::new(10, 0, 0, 2));
        assert_eq!(key.ip_proto, 17);
        assert_eq!(key.l4_src, 1111);
        assert_eq!(key.l4_dst, 2222);
        assert_eq!(key.vlan_id, 0);
    }

    #[test]
    fn non_ip_frame_zeroes_l3_and_l4() {
        let mut frame = vec![0u8; 60];
        let mut eth = EthernetFrame::new_unchecked(&mut frame[..]);
        eth.set_src_addr(MacAddr::local(3));
        eth.set_dst_addr(MacAddr::local(4));
        eth.set_ethertype(EtherType::Other(0x88cc)); // LLDP
        let key = FlowKey::extract(&frame);
        assert_eq!(key.eth_type, 0x88cc);
        assert_eq!(key.ipv4_src, Ipv4Addr::UNSPECIFIED);
        assert_eq!(key.l4_src, 0);
    }

    #[test]
    fn identical_packets_have_identical_keys() {
        let a = PacketBuilder::udp_probe(64).build();
        let b = PacketBuilder::udp_probe(64).build();
        assert_eq!(FlowKey::extract(&a), FlowKey::extract(&b));
    }

    #[test]
    fn truncated_frame_yields_default_key() {
        assert_eq!(FlowKey::extract(&[0u8; 5]), FlowKey::default());
    }

    #[test]
    fn vlan_tag_is_unwrapped() {
        // Hand-build an 802.1Q tagged UDP packet.
        let inner = PacketBuilder::udp_probe(64).ports(7, 8).build();
        let mut tagged = Vec::new();
        tagged.extend_from_slice(&inner[0..12]); // MACs
        tagged.extend_from_slice(&0x8100u16.to_be_bytes());
        tagged.extend_from_slice(&100u16.to_be_bytes()); // VID 100
        tagged.extend_from_slice(&inner[12..]); // original ethertype + rest
        let key = FlowKey::extract(&tagged);
        assert_eq!(key.vlan_id, 100);
        assert_eq!(key.eth_type, 0x0800);
        assert_eq!(key.l4_src, 7);
        assert_eq!(key.l4_dst, 8);
        assert_eq!(key.l3_offset(), 18);
    }

    fn sample_key() -> FlowKey {
        FlowKey {
            eth_src: MacAddr([0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc]),
            eth_dst: MacAddr([0xde, 0xf0, 0x11, 0x22, 0x33, 0x44]),
            eth_type: 0x0800,
            vlan_id: 0x0abc,
            ipv4_src: Ipv4Addr::new(10, 1, 2, 3),
            ipv4_dst: Ipv4Addr::new(192, 168, 7, 9),
            ip_proto: 17,
            ip_tos: 0x2e,
            l4_src: 40000,
            l4_dst: 443,
        }
    }

    /// Every field (and the port), altered alone at its lowest and its
    /// highest bit, gives a different packed key; and unpacking restores
    /// the key and port exactly, which makes the packing injective.
    #[test]
    fn packing_is_injective() {
        let base = sample_key();
        type Edit = fn(&mut FlowKey, bool);
        let edits: [(&str, Edit); 10] = [
            ("eth_src", |k, hi| {
                k.eth_src.0[if hi { 0 } else { 5 }] ^= if hi { 0x80 } else { 1 }
            }),
            ("eth_dst", |k, hi| {
                k.eth_dst.0[if hi { 0 } else { 5 }] ^= if hi { 0x80 } else { 1 }
            }),
            ("eth_type", |k, hi| {
                k.eth_type ^= if hi { 0x8000 } else { 1 }
            }),
            ("vlan_id", |k, hi| k.vlan_id ^= if hi { 0x8000 } else { 1 }),
            ("ipv4_src", |k, hi| {
                k.ipv4_src = Ipv4Addr::from(u32::from(k.ipv4_src) ^ if hi { 1 << 31 } else { 1 })
            }),
            ("ipv4_dst", |k, hi| {
                k.ipv4_dst = Ipv4Addr::from(u32::from(k.ipv4_dst) ^ if hi { 1 << 31 } else { 1 })
            }),
            ("ip_proto", |k, hi| k.ip_proto ^= if hi { 0x80 } else { 1 }),
            ("ip_tos", |k, hi| k.ip_tos ^= if hi { 0x80 } else { 1 }),
            ("l4_src", |k, hi| k.l4_src ^= if hi { 0x8000 } else { 1 }),
            ("l4_dst", |k, hi| k.l4_dst ^= if hi { 0x8000 } else { 1 }),
        ];
        let mut seen = vec![base.pack(7)];
        for (name, edit) in edits {
            for hi in [false, true] {
                let mut k = base;
                edit(&mut k, hi);
                assert_ne!(k, base, "{name}");
                let packed = k.pack(7);
                assert!(!seen.contains(&packed), "{name} (hi: {hi}) collides");
                assert_eq!(packed.unpack(), (7, k), "{name}");
                seen.push(packed);
            }
        }
        for port in [0u16, 1, 0x8000] {
            let packed = base.pack(7 ^ port);
            assert!(port == 0 || !seen.contains(&packed), "port {port}");
            assert_eq!(packed.unpack(), (7 ^ port, base));
        }
        assert_eq!(FlowKey::default().pack(0), PackedKey([0; 4]));
    }

    /// Keys equal under `Eq` hash equally, under any hasher; keys that
    /// differ in one field hash apart under a fixed-key SipHash.
    #[test]
    fn hash_is_consistent_with_eq() {
        use std::collections::hash_map::{DefaultHasher, RandomState};
        use std::hash::BuildHasher;
        let a = FlowKey {
            vlan_id: 0,
            ..sample_key()
        };
        let b = FlowKey::extract(
            &PacketBuilder::udp_probe(64)
                .eth(a.eth_src, a.eth_dst)
                .ip(a.ipv4_src, a.ipv4_dst)
                .tos(a.ip_tos)
                .ports(a.l4_src, a.l4_dst)
                .build(),
        );
        assert_eq!(a, b);
        let state = RandomState::new();
        assert_eq!(state.hash_one(a), state.hash_one(b));
        assert_eq!(state.hash_one(a.pack(3)), state.hash_one(b.pack(3)));
        let fixed = |k: &FlowKey| {
            let mut h = DefaultHasher::new();
            k.hash(&mut h);
            h.finish()
        };
        assert_eq!(fixed(&a), fixed(&b));
        let c = FlowKey {
            l4_dst: a.l4_dst + 1,
            ..a
        };
        assert_ne!(a, c);
        assert_ne!(fixed(&a), fixed(&c));
    }
}
