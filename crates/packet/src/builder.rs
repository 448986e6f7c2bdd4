//! Builders for the synthetic traffic used across tests, examples and
//! benchmarks — primarily the 64 B UDP probes of the paper's evaluation,
//! which embed a sequence number and a transmit timestamp so sinks can
//! measure loss, reordering and latency.

use crate::ethernet::{EtherType, EthernetFrame, MacAddr, ETHERNET_HEADER_LEN};
use crate::ipv4::{IpProtocol, Ipv4Packet, IPV4_HEADER_LEN};
use crate::udp::{UdpDatagram, UDP_HEADER_LEN};
use std::net::Ipv4Addr;

/// Probe payload header carried in every generated UDP packet:
/// 8 B sequence number + 8 B transmit timestamp (cycles), big-endian.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeHeader {
    pub seq: u64,
    pub tx_cycles: u64,
}

/// Bytes of probe metadata inside the UDP payload.
pub const PROBE_WIRE_LEN: usize = 16;

/// Smallest frame that can carry a probe:
/// 14 (eth) + 20 (ipv4) + 8 (udp) + 16 (probe) = 58 < 60, so 60 B and the
/// paper's 64 B frames both fit.
pub const MIN_PROBE_FRAME: usize =
    ETHERNET_HEADER_LEN + IPV4_HEADER_LEN + UDP_HEADER_LEN + PROBE_WIRE_LEN;

impl ProbeHeader {
    /// Reads a probe header from the front of a UDP payload.
    pub fn read(payload: &[u8]) -> Option<ProbeHeader> {
        if payload.len() < PROBE_WIRE_LEN {
            return None;
        }
        let seq = u64::from_be_bytes(payload[0..8].try_into().unwrap());
        let tx_cycles = u64::from_be_bytes(payload[8..16].try_into().unwrap());
        Some(ProbeHeader { seq, tx_cycles })
    }

    /// Writes this header to the front of a UDP payload.
    pub fn write(&self, payload: &mut [u8]) {
        payload[0..8].copy_from_slice(&self.seq.to_be_bytes());
        payload[8..16].copy_from_slice(&self.tx_cycles.to_be_bytes());
    }

    /// Convenience: parses the probe out of a full Ethernet frame built by
    /// [`PacketBuilder::udp_probe`].
    pub fn from_frame(frame: &[u8]) -> Option<ProbeHeader> {
        let eth = EthernetFrame::new_checked(frame).ok()?;
        let ip = Ipv4Packet::new_checked(eth.payload()).ok()?;
        let udp = UdpDatagram::new_checked(ip.payload()).ok()?;
        ProbeHeader::read(udp.payload())
    }

    /// Convenience: rewrites the tx timestamp inside a built probe frame.
    pub fn stamp_frame(frame: &mut [u8], seq: u64, tx_cycles: u64) {
        let off = ETHERNET_HEADER_LEN + IPV4_HEADER_LEN + UDP_HEADER_LEN;
        if frame.len() >= off + PROBE_WIRE_LEN {
            ProbeHeader { seq, tx_cycles }.write(&mut frame[off..]);
        }
    }
}

/// Fluent builder producing complete Ethernet/IPv4/UDP frames.
#[derive(Debug, Clone)]
pub struct PacketBuilder {
    frame_len: usize,
    eth_src: MacAddr,
    eth_dst: MacAddr,
    ip_src: Ipv4Addr,
    ip_dst: Ipv4Addr,
    tos: u8,
    ttl: u8,
    src_port: u16,
    dst_port: u16,
    probe: ProbeHeader,
    checksums: bool,
}

impl PacketBuilder {
    /// Starts a UDP probe of the given total frame length (≥ [`MIN_PROBE_FRAME`]).
    /// The paper's workload is `udp_probe(64)`.
    pub fn udp_probe(frame_len: usize) -> PacketBuilder {
        PacketBuilder {
            frame_len: frame_len.max(MIN_PROBE_FRAME),
            eth_src: MacAddr::local(1),
            eth_dst: MacAddr::local(2),
            ip_src: Ipv4Addr::new(10, 0, 0, 1),
            ip_dst: Ipv4Addr::new(10, 0, 0, 2),
            tos: 0,
            ttl: 64,
            src_port: 1000,
            dst_port: 2000,
            probe: ProbeHeader {
                seq: 0,
                tx_cycles: 0,
            },
            checksums: true,
        }
    }

    /// Sets the Ethernet addresses.
    pub fn eth(mut self, src: MacAddr, dst: MacAddr) -> Self {
        self.eth_src = src;
        self.eth_dst = dst;
        self
    }

    /// Sets the IPv4 addresses.
    pub fn ip(mut self, src: Ipv4Addr, dst: Ipv4Addr) -> Self {
        self.ip_src = src;
        self.ip_dst = dst;
        self
    }

    /// Sets the IPv4 TOS byte.
    pub fn tos(mut self, tos: u8) -> Self {
        self.tos = tos;
        self
    }

    /// Sets the UDP ports.
    pub fn ports(mut self, src: u16, dst: u16) -> Self {
        self.src_port = src;
        self.dst_port = dst;
        self
    }

    /// Sets the probe sequence number.
    pub fn seq(mut self, seq: u64) -> Self {
        self.probe.seq = seq;
        self
    }

    /// Sets the probe transmit timestamp.
    pub fn tx_cycles(mut self, cycles: u64) -> Self {
        self.probe.tx_cycles = cycles;
        self
    }

    /// Disables checksum computation (generator fast path; the paper's
    /// traffic generators do the same and NICs offload it anyway).
    pub fn no_checksums(mut self) -> Self {
        self.checksums = false;
        self
    }

    /// Produces the finished frame bytes.
    pub fn build(&self) -> Vec<u8> {
        let mut buf = vec![0u8; self.frame_len];
        self.build_into(&mut buf);
        buf
    }

    /// Writes the frame into an existing buffer (must be ≥ the frame length);
    /// returns the number of bytes written. Lets buffer owners avoid realloc.
    pub fn build_into(&self, buf: &mut [u8]) -> usize {
        assert!(buf.len() >= self.frame_len);
        let buf = &mut buf[..self.frame_len];

        let mut eth = EthernetFrame::new_unchecked(&mut *buf);
        eth.set_src_addr(self.eth_src);
        eth.set_dst_addr(self.eth_dst);
        eth.set_ethertype(EtherType::Ipv4);

        let ip_total = (self.frame_len - ETHERNET_HEADER_LEN) as u16;
        let udp_len = ip_total - IPV4_HEADER_LEN as u16;
        {
            let mut ip = Ipv4Packet::new_unchecked(&mut buf[ETHERNET_HEADER_LEN..]);
            ip.set_version_and_header_len(IPV4_HEADER_LEN);
            ip.set_tos(self.tos);
            ip.set_total_len(ip_total);
            ip.set_ident(0);
            ip.set_flags_frag(0x4000); // DF
            ip.set_ttl(self.ttl);
            ip.set_protocol(IpProtocol::Udp);
            ip.set_src_addr(self.ip_src);
            ip.set_dst_addr(self.ip_dst);
            if self.checksums {
                ip.fill_checksum();
            }
        }
        {
            let l4_off = ETHERNET_HEADER_LEN + IPV4_HEADER_LEN;
            let mut udp = UdpDatagram::new_unchecked(&mut buf[l4_off..]);
            udp.set_src_port(self.src_port);
            udp.set_dst_port(self.dst_port);
            udp.set_len_field(udp_len);
            self.probe.write(udp.payload_mut());
            if self.checksums {
                udp.fill_checksum(self.ip_src, self.ip_dst);
            }
        }
        self.frame_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowKey;

    #[test]
    fn default_probe_is_valid_and_64b_capable() {
        const { assert!(MIN_PROBE_FRAME <= 64) };
        let pkt = PacketBuilder::udp_probe(64).seq(42).tx_cycles(1234).build();
        assert_eq!(pkt.len(), 64);
        let eth = EthernetFrame::new_checked(&pkt[..]).unwrap();
        let ip = Ipv4Packet::new_checked(eth.payload()).unwrap();
        assert!(ip.verify_checksum());
        let udp = UdpDatagram::new_checked(ip.payload()).unwrap();
        assert!(udp.verify_checksum(ip.src_addr(), ip.dst_addr()));
        let probe = ProbeHeader::read(udp.payload()).unwrap();
        assert_eq!(probe.seq, 42);
        assert_eq!(probe.tx_cycles, 1234);
    }

    #[test]
    fn from_frame_matches_read() {
        let pkt = PacketBuilder::udp_probe(128).seq(7).build();
        assert_eq!(
            ProbeHeader::from_frame(&pkt).unwrap(),
            ProbeHeader {
                seq: 7,
                tx_cycles: 0
            }
        );
    }

    #[test]
    fn stamp_frame_rewrites_in_place() {
        let mut pkt = PacketBuilder::udp_probe(64).build();
        ProbeHeader::stamp_frame(&mut pkt, 99, 555);
        let p = ProbeHeader::from_frame(&pkt).unwrap();
        assert_eq!(p.seq, 99);
        assert_eq!(p.tx_cycles, 555);
    }

    #[test]
    fn tiny_request_is_clamped_to_min() {
        let pkt = PacketBuilder::udp_probe(10).build();
        assert_eq!(pkt.len(), MIN_PROBE_FRAME);
    }

    #[test]
    fn key_reflects_builder_fields() {
        let pkt = PacketBuilder::udp_probe(64)
            .ip(Ipv4Addr::new(1, 2, 3, 4), Ipv4Addr::new(5, 6, 7, 8))
            .ports(10, 20)
            .tos(0x2e)
            .build();
        let key = FlowKey::extract(&pkt);
        assert_eq!(key.ipv4_src, Ipv4Addr::new(1, 2, 3, 4));
        assert_eq!(key.l4_dst, 20);
        assert_eq!(key.ip_tos, 0x2e);
    }

    #[test]
    fn build_into_accepts_oversized_buffer() {
        let mut buf = vec![0xffu8; 2048];
        let n = PacketBuilder::udp_probe(64).build_into(&mut buf);
        assert_eq!(n, 64);
        assert_eq!(FlowKey::extract(&buf[..n]).eth_type, 0x0800);
    }
}
