//! IPv4 packet view (no options support beyond skipping them, like the
//! fast path of a real vSwitch).

use crate::checksum;
use crate::{Result, WireError};
use std::net::Ipv4Addr;

/// Length of an IPv4 header without options.
pub const IPV4_HEADER_LEN: usize = 20;

/// IP protocol numbers the dataplane cares about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IpProtocol {
    Icmp,
    Tcp,
    Udp,
    Other(u8),
}

impl IpProtocol {
    /// Raw protocol number.
    pub fn to_u8(self) -> u8 {
        match self {
            IpProtocol::Icmp => 1,
            IpProtocol::Tcp => 6,
            IpProtocol::Udp => 17,
            IpProtocol::Other(v) => v,
        }
    }

    /// Parses the raw protocol number.
    pub fn from_u8(v: u8) -> IpProtocol {
        match v {
            1 => IpProtocol::Icmp,
            6 => IpProtocol::Tcp,
            17 => IpProtocol::Udp,
            other => IpProtocol::Other(other),
        }
    }
}

/// A view over an IPv4 packet.
#[derive(Debug, Clone)]
pub struct Ipv4Packet<T: AsRef<[u8]>> {
    buffer: T,
}

mod field {
    use core::ops::Range;
    pub const VER_IHL: usize = 0;
    pub const DSCP_ECN: usize = 1;
    pub const LENGTH: Range<usize> = 2..4;
    pub const IDENT: Range<usize> = 4..6;
    pub const FLAGS_FRAG: Range<usize> = 6..8;
    pub const TTL: usize = 8;
    pub const PROTOCOL: usize = 9;
    pub const CHECKSUM: Range<usize> = 10..12;
    pub const SRC: Range<usize> = 12..16;
    pub const DST: Range<usize> = 16..20;
}

impl<T: AsRef<[u8]>> Ipv4Packet<T> {
    /// Wraps a buffer without validation.
    pub const fn new_unchecked(buffer: T) -> Ipv4Packet<T> {
        Ipv4Packet { buffer }
    }

    /// Wraps a buffer, validating version, header length and total length.
    pub fn new_checked(buffer: T) -> Result<Ipv4Packet<T>> {
        let packet = Self::new_unchecked(buffer);
        packet.check_len()?;
        Ok(packet)
    }

    /// Validates structural invariants.
    pub fn check_len(&self) -> Result<()> {
        let data = self.buffer.as_ref();
        if data.len() < IPV4_HEADER_LEN {
            return Err(WireError::Truncated);
        }
        if data[field::VER_IHL] >> 4 != 4 {
            return Err(WireError::Unsupported);
        }
        let ihl = usize::from(data[field::VER_IHL] & 0x0f) * 4;
        if ihl < IPV4_HEADER_LEN || data.len() < ihl {
            return Err(WireError::BadLength);
        }
        let total = usize::from(self.total_len());
        if total < ihl || data.len() < total {
            return Err(WireError::BadLength);
        }
        Ok(())
    }

    /// Consumes the view, returning the underlying buffer.
    pub fn into_inner(self) -> T {
        self.buffer
    }

    /// Header length in bytes (IHL × 4).
    pub fn header_len(&self) -> usize {
        usize::from(self.buffer.as_ref()[field::VER_IHL] & 0x0f) * 4
    }

    /// DSCP+ECN byte (the OpenFlow `nw_tos` field).
    pub fn tos(&self) -> u8 {
        self.buffer.as_ref()[field::DSCP_ECN]
    }

    /// Total packet length from the header.
    pub fn total_len(&self) -> u16 {
        let d = self.buffer.as_ref();
        u16::from_be_bytes([d[field::LENGTH.start], d[field::LENGTH.start + 1]])
    }

    /// Time-to-live.
    pub fn ttl(&self) -> u8 {
        self.buffer.as_ref()[field::TTL]
    }

    /// Transport protocol.
    pub fn protocol(&self) -> IpProtocol {
        IpProtocol::from_u8(self.buffer.as_ref()[field::PROTOCOL])
    }

    /// Source address.
    pub fn src_addr(&self) -> Ipv4Addr {
        let d = self.buffer.as_ref();
        Ipv4Addr::new(d[12], d[13], d[14], d[15])
    }

    /// Destination address.
    pub fn dst_addr(&self) -> Ipv4Addr {
        let d = self.buffer.as_ref();
        Ipv4Addr::new(d[16], d[17], d[18], d[19])
    }

    /// Verifies the header checksum.
    pub fn verify_checksum(&self) -> bool {
        let hl = self.header_len();
        checksum::fold(checksum::raw_sum(&self.buffer.as_ref()[..hl])) == 0xffff
    }

    /// Payload after the header, bounded by `total_len`.
    pub fn payload(&self) -> &[u8] {
        let hl = self.header_len();
        let total = usize::from(self.total_len()).min(self.buffer.as_ref().len());
        &self.buffer.as_ref()[hl..total]
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Ipv4Packet<T> {
    /// Writes version=4 and the given header length (must be a multiple of 4).
    pub fn set_version_and_header_len(&mut self, header_len: usize) {
        debug_assert!(header_len % 4 == 0 && header_len >= IPV4_HEADER_LEN);
        self.buffer.as_mut()[field::VER_IHL] = 0x40 | (header_len / 4) as u8;
    }

    /// Sets the DSCP+ECN byte.
    pub fn set_tos(&mut self, tos: u8) {
        self.buffer.as_mut()[field::DSCP_ECN] = tos;
    }

    /// Sets the total length field.
    pub fn set_total_len(&mut self, len: u16) {
        self.buffer.as_mut()[field::LENGTH].copy_from_slice(&len.to_be_bytes());
    }

    /// Sets the identification field.
    pub fn set_ident(&mut self, id: u16) {
        self.buffer.as_mut()[field::IDENT].copy_from_slice(&id.to_be_bytes());
    }

    /// Sets flags+fragment offset (we always emit DF, offset 0 in builders).
    pub fn set_flags_frag(&mut self, v: u16) {
        self.buffer.as_mut()[field::FLAGS_FRAG].copy_from_slice(&v.to_be_bytes());
    }

    /// Sets the TTL.
    pub fn set_ttl(&mut self, ttl: u8) {
        self.buffer.as_mut()[field::TTL] = ttl;
    }

    /// Sets the transport protocol.
    pub fn set_protocol(&mut self, proto: IpProtocol) {
        self.buffer.as_mut()[field::PROTOCOL] = proto.to_u8();
    }

    /// Sets the source address.
    pub fn set_src_addr(&mut self, addr: Ipv4Addr) {
        self.buffer.as_mut()[field::SRC].copy_from_slice(&addr.octets());
    }

    /// Sets the destination address.
    pub fn set_dst_addr(&mut self, addr: Ipv4Addr) {
        self.buffer.as_mut()[field::DST].copy_from_slice(&addr.octets());
    }

    /// Recomputes and writes the header checksum.
    pub fn fill_checksum(&mut self) {
        self.buffer.as_mut()[field::CHECKSUM].copy_from_slice(&[0, 0]);
        let hl = self.header_len();
        let sum = checksum::checksum(&self.buffer.as_ref()[..hl]);
        self.buffer.as_mut()[field::CHECKSUM].copy_from_slice(&sum.to_be_bytes());
    }

    /// Mutable payload after the header.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        let hl = self.header_len();
        let total = usize::from(self.total_len()).min(self.buffer.as_ref().len());
        &mut self.buffer.as_mut()[hl..total]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(total_len: u16) -> Vec<u8> {
        let mut buf = vec![0u8; usize::from(total_len)];
        let mut p = Ipv4Packet::new_unchecked(&mut buf[..]);
        p.set_version_and_header_len(IPV4_HEADER_LEN);
        p.set_tos(0);
        p.set_total_len(total_len);
        p.set_ident(7);
        p.set_flags_frag(0x4000);
        p.set_ttl(64);
        p.set_protocol(IpProtocol::Udp);
        p.set_src_addr(Ipv4Addr::new(10, 0, 0, 1));
        p.set_dst_addr(Ipv4Addr::new(10, 0, 0, 2));
        p.fill_checksum();
        buf
    }

    #[test]
    fn roundtrip_and_checksum() {
        let buf = sample(46);
        let p = Ipv4Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(p.header_len(), 20);
        assert_eq!(p.total_len(), 46);
        assert_eq!(p.ttl(), 64);
        assert_eq!(p.protocol(), IpProtocol::Udp);
        assert_eq!(p.src_addr(), Ipv4Addr::new(10, 0, 0, 1));
        assert_eq!(p.dst_addr(), Ipv4Addr::new(10, 0, 0, 2));
        assert!(p.verify_checksum());
        assert_eq!(p.payload().len(), 26);
    }

    #[test]
    fn corrupting_any_header_byte_breaks_checksum() {
        let buf = sample(46);
        for i in 0..IPV4_HEADER_LEN {
            let mut bad = buf.clone();
            bad[i] ^= 0x5a;
            let p = Ipv4Packet::new_unchecked(&bad[..]);
            // Some corruptions also make the packet structurally invalid;
            // only checksum-verify structurally valid ones.
            if p.check_len().is_ok() {
                assert!(!p.verify_checksum(), "byte {i} corruption undetected");
            }
        }
    }

    #[test]
    fn rejects_wrong_version() {
        let mut buf = sample(46);
        buf[0] = 0x65; // version 6
        assert_eq!(
            Ipv4Packet::new_checked(&buf[..]).unwrap_err(),
            WireError::Unsupported
        );
    }

    #[test]
    fn rejects_total_len_beyond_buffer() {
        let mut buf = sample(46);
        buf.truncate(40);
        assert_eq!(
            Ipv4Packet::new_checked(&buf[..]).unwrap_err(),
            WireError::BadLength
        );
    }

    #[test]
    fn rejects_short_ihl() {
        let mut buf = sample(46);
        buf[0] = 0x44; // IHL = 16 bytes < 20
        assert_eq!(
            Ipv4Packet::new_checked(&buf[..]).unwrap_err(),
            WireError::BadLength
        );
    }
}
