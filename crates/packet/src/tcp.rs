//! TCP segment view — enough of RFC 793 for classification, firewalling and
//! the web-cache VNF (ports, flags, seq/ack); not a full stack.

use crate::checksum;
use crate::{Result, WireError};
use std::net::Ipv4Addr;

/// Minimum TCP header length (no options).
pub const TCP_HEADER_LEN: usize = 20;

/// TCP flag bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpFlags(pub u8);

impl TcpFlags {
    pub const FIN: u8 = 0x01;
    pub const SYN: u8 = 0x02;
    pub const RST: u8 = 0x04;
    pub const PSH: u8 = 0x08;
    pub const ACK: u8 = 0x10;

    pub fn syn(&self) -> bool {
        self.0 & Self::SYN != 0
    }
    pub fn ack(&self) -> bool {
        self.0 & Self::ACK != 0
    }
    pub fn fin(&self) -> bool {
        self.0 & Self::FIN != 0
    }
}

/// A view over a TCP segment.
#[derive(Debug, Clone)]
pub struct TcpSegment<T: AsRef<[u8]>> {
    buffer: T,
}

mod field {
    use core::ops::Range;
    pub const SRC_PORT: Range<usize> = 0..2;
    pub const DST_PORT: Range<usize> = 2..4;
    pub const SEQ: Range<usize> = 4..8;
    pub const ACK: Range<usize> = 8..12;
    pub const DATA_OFF: usize = 12;
    pub const FLAGS: usize = 13;
    pub const WINDOW: Range<usize> = 14..16;
    pub const CHECKSUM: Range<usize> = 16..18;
}

impl<T: AsRef<[u8]>> TcpSegment<T> {
    /// Wraps a buffer without validation.
    pub const fn new_unchecked(buffer: T) -> TcpSegment<T> {
        TcpSegment { buffer }
    }

    /// Wraps a buffer, validating header bounds.
    pub fn new_checked(buffer: T) -> Result<TcpSegment<T>> {
        let seg = Self::new_unchecked(buffer);
        seg.check_len()?;
        Ok(seg)
    }

    /// Validates structural invariants.
    pub fn check_len(&self) -> Result<()> {
        let data = self.buffer.as_ref();
        if data.len() < TCP_HEADER_LEN {
            return Err(WireError::Truncated);
        }
        let off = self.header_len();
        if off < TCP_HEADER_LEN || data.len() < off {
            return Err(WireError::BadLength);
        }
        Ok(())
    }

    /// Source port.
    pub fn src_port(&self) -> u16 {
        let d = self.buffer.as_ref();
        u16::from_be_bytes([d[0], d[1]])
    }

    /// Destination port.
    pub fn dst_port(&self) -> u16 {
        let d = self.buffer.as_ref();
        u16::from_be_bytes([d[2], d[3]])
    }

    /// Sequence number.
    pub fn seq(&self) -> u32 {
        let d = self.buffer.as_ref();
        u32::from_be_bytes([d[4], d[5], d[6], d[7]])
    }

    /// Acknowledgement number.
    pub fn ack(&self) -> u32 {
        let d = self.buffer.as_ref();
        u32::from_be_bytes([d[8], d[9], d[10], d[11]])
    }

    /// Header length in bytes (data offset × 4).
    pub fn header_len(&self) -> usize {
        usize::from(self.buffer.as_ref()[field::DATA_OFF] >> 4) * 4
    }

    /// Flag byte.
    pub fn flags(&self) -> TcpFlags {
        TcpFlags(self.buffer.as_ref()[field::FLAGS])
    }

    /// Receive window.
    pub fn window(&self) -> u16 {
        let d = self.buffer.as_ref();
        u16::from_be_bytes([d[14], d[15]])
    }

    /// Verifies the checksum against the IPv4 pseudo header.
    pub fn verify_checksum(&self, src: Ipv4Addr, dst: Ipv4Addr) -> bool {
        let seg = self.buffer.as_ref();
        let sum =
            checksum::pseudo_header_sum(src, dst, 6, seg.len() as u16) + checksum::raw_sum(seg);
        checksum::fold(sum) == 0xffff
    }

    /// Payload after header+options.
    pub fn payload(&self) -> &[u8] {
        &self.buffer.as_ref()[self.header_len()..]
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> TcpSegment<T> {
    /// Sets the source port.
    pub fn set_src_port(&mut self, port: u16) {
        self.buffer.as_mut()[field::SRC_PORT].copy_from_slice(&port.to_be_bytes());
    }

    /// Sets the destination port.
    pub fn set_dst_port(&mut self, port: u16) {
        self.buffer.as_mut()[field::DST_PORT].copy_from_slice(&port.to_be_bytes());
    }

    /// Sets the sequence number.
    pub fn set_seq(&mut self, seq: u32) {
        self.buffer.as_mut()[field::SEQ].copy_from_slice(&seq.to_be_bytes());
    }

    /// Sets the acknowledgement number.
    pub fn set_ack(&mut self, ack: u32) {
        self.buffer.as_mut()[field::ACK].copy_from_slice(&ack.to_be_bytes());
    }

    /// Sets the header length in bytes.
    pub fn set_header_len(&mut self, len: usize) {
        debug_assert!(len % 4 == 0 && len >= TCP_HEADER_LEN);
        self.buffer.as_mut()[field::DATA_OFF] = ((len / 4) as u8) << 4;
    }

    /// Sets the flag byte.
    pub fn set_flags(&mut self, flags: TcpFlags) {
        self.buffer.as_mut()[field::FLAGS] = flags.0;
    }

    /// Sets the receive window.
    pub fn set_window(&mut self, win: u16) {
        self.buffer.as_mut()[field::WINDOW].copy_from_slice(&win.to_be_bytes());
    }

    /// Computes and writes the checksum for the given pseudo header.
    pub fn fill_checksum(&mut self, src: Ipv4Addr, dst: Ipv4Addr) {
        self.buffer.as_mut()[field::CHECKSUM].copy_from_slice(&[0, 0]);
        let sum = checksum::transport_checksum(src, dst, 6, self.buffer.as_ref());
        self.buffer.as_mut()[field::CHECKSUM].copy_from_slice(&sum.to_be_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 1);
    const DST: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 2);

    fn sample() -> Vec<u8> {
        let mut buf = vec![0u8; 28];
        let mut s = TcpSegment::new_unchecked(&mut buf[..]);
        s.set_src_port(49152);
        s.set_dst_port(80);
        s.set_seq(0x01020304);
        s.set_ack(0x0a0b0c0d);
        s.set_header_len(20);
        s.set_flags(TcpFlags(TcpFlags::SYN | TcpFlags::ACK));
        s.set_window(65535);
        s.fill_checksum(SRC, DST);
        buf
    }

    #[test]
    fn roundtrip_and_checksum() {
        let buf = sample();
        let s = TcpSegment::new_checked(&buf[..]).unwrap();
        assert_eq!(s.src_port(), 49152);
        assert_eq!(s.dst_port(), 80);
        assert_eq!(s.seq(), 0x01020304);
        assert_eq!(s.ack(), 0x0a0b0c0d);
        assert!(s.flags().syn() && s.flags().ack());
        assert!(!s.flags().fin());
        assert_eq!(s.window(), 65535);
        assert_eq!(s.payload().len(), 8);
        assert!(s.verify_checksum(SRC, DST));
    }

    #[test]
    fn corrupt_payload_fails_checksum() {
        let mut buf = sample();
        buf[25] ^= 0xff;
        let s = TcpSegment::new_checked(&buf[..]).unwrap();
        assert!(!s.verify_checksum(SRC, DST));
    }

    #[test]
    fn rejects_bad_data_offset() {
        let mut buf = sample();
        buf[12] = 0x20; // header length 8 < 20
        assert_eq!(
            TcpSegment::new_checked(&buf[..]).unwrap_err(),
            WireError::BadLength
        );
    }
}
