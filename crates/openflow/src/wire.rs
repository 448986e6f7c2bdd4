//! The OFP 1.0 common header and the message marshalling trait.
//!
//! Every OpenFlow message starts with the same 8 bytes — `version`, `type`,
//! `length`, `xid` — and the `length` field is what lets a byte-stream
//! receiver cut frames out of a TCP-like transport (see [`crate::framer`]).
//! [`OfpHeader`] models exactly that header; [`OfpMarshal`] is the
//! message-level API (`size_of` / `marshal` / `parse`) the codec implements
//! for [`crate::OfpMessage`], mirroring `rust_ofp`'s `OfpMessage` trait.

use crate::{OfError, Result};

/// Protocol version byte for OpenFlow 1.0.
pub const OFP_VERSION: u8 = 0x01;

/// The first fields of every OpenFlow message, no matter the version.
///
/// Parsed first to determine version and length of the remaining message,
/// so the byte stream can be framed before any body is interpreted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OfpHeader {
    pub version: u8,
    pub typ: u8,
    /// Total message length in bytes, *including* this header.
    pub length: u16,
    /// Transaction id; replies carry the request's xid to allow pairing.
    pub xid: u32,
}

impl OfpHeader {
    /// The byte-size of the common header.
    pub const SIZE: usize = 8;

    /// Creates a header from its fields.
    pub fn new(version: u8, typ: u8, length: u16, xid: u32) -> OfpHeader {
        OfpHeader {
            version,
            typ,
            length,
            xid,
        }
    }

    /// The header of an OF 1.0 message `len` bytes long, header included —
    /// the one place a message length is narrowed to the wire's 16 bits.
    /// A message that does not fit is refused here, before a byte of it is
    /// written: a truncated length would desync the peer's framer.
    pub fn for_message(typ: u8, len: usize, xid: u32) -> Result<OfpHeader> {
        let length = u16::try_from(len).map_err(|_| OfError::Oversized {
            len,
            max: usize::from(u16::MAX),
        })?;
        Ok(OfpHeader::new(OFP_VERSION, typ, length, xid))
    }

    /// Appends the 8 header bytes (big-endian) to `bytes`.
    pub fn marshal(&self, bytes: &mut Vec<u8>) {
        bytes.push(self.version);
        bytes.push(self.typ);
        bytes.extend_from_slice(&self.length.to_be_bytes());
        bytes.extend_from_slice(&self.xid.to_be_bytes());
    }

    /// Parses a header from the first [`OfpHeader::SIZE`] bytes of `buf`.
    ///
    /// Only the buffer length is checked here; use [`OfpHeader::validate`]
    /// to enforce version/length sanity.
    pub fn parse(buf: &[u8]) -> Result<OfpHeader> {
        if buf.len() < Self::SIZE {
            return Err(OfError::Truncated);
        }
        Ok(OfpHeader {
            version: buf[0],
            typ: buf[1],
            length: u16::from_be_bytes([buf[2], buf[3]]),
            xid: u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]),
        })
    }

    /// Checks the fields a receiver must reject before trusting `length`:
    /// the version byte and the self-consistency of the length field.
    pub fn validate(&self, max_frame: usize) -> Result<()> {
        if self.version != OFP_VERSION {
            return Err(OfError::BadVersion(self.version));
        }
        let len = usize::from(self.length);
        if len < Self::SIZE {
            return Err(OfError::BadLength);
        }
        if len > max_frame {
            return Err(OfError::Oversized {
                len,
                max: max_frame,
            });
        }
        Ok(())
    }

    /// Total message length as a usize.
    pub fn length(&self) -> usize {
        usize::from(self.length)
    }
}

/// Byte-buffer marshalling API for OpenFlow messages, in the shape of
/// `rust_ofp`'s `OfpMessage` trait: a message knows its wire size, can
/// produce its header, marshal itself (header included) and parse itself
/// back from a header + body pair.
///
/// [`crate::codec::encode`] and [`crate::codec::decode`] are thin wrappers
/// over these methods, kept for call-site convenience.
pub trait OfpMarshal: Sized {
    /// The total wire size (header + body) this message marshals to.
    fn size_of(&self) -> usize;

    /// The header that fronts this message for transaction id `xid`;
    /// [`OfError::Oversized`] when the message cannot fit one frame.
    fn header_of(&self, xid: u32) -> Result<OfpHeader>;

    /// Marshals the full message (header + body) for `xid`;
    /// [`OfError::Oversized`] when it cannot fit one frame.
    fn marshal(&self, xid: u32) -> Result<Vec<u8>>;

    /// Parses a message from an already-validated `header` and its `body`
    /// (the bytes after the header, exactly `header.length() - 8` long).
    /// Returns the message with the header's transaction id.
    fn parse(header: &OfpHeader, body: &[u8]) -> Result<(Self, u32)>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let h = OfpHeader::new(OFP_VERSION, 14, 72, 0xdead_beef);
        let mut bytes = Vec::new();
        h.marshal(&mut bytes);
        assert_eq!(bytes.len(), OfpHeader::SIZE);
        let parsed = OfpHeader::parse(&bytes).unwrap();
        assert_eq!(parsed, h);
        assert!(parsed.validate(65535).is_ok());
    }

    #[test]
    fn for_message_refuses_what_sixteen_bits_cannot_say() {
        let h = OfpHeader::for_message(14, 65_535, 9).unwrap();
        assert_eq!(
            (h.version, h.typ, h.length, h.xid),
            (OFP_VERSION, 14, 65_535, 9)
        );
        assert_eq!(
            OfpHeader::for_message(17, 65_536, 9).unwrap_err(),
            OfError::Oversized {
                len: 65_536,
                max: 65_535
            }
        );
    }

    #[test]
    fn parse_needs_eight_bytes() {
        assert_eq!(
            OfpHeader::parse(&[1, 2, 3]).unwrap_err(),
            OfError::Truncated
        );
    }

    #[test]
    fn validate_rejects_bad_fields() {
        let bad_version = OfpHeader::new(0x04, 0, 8, 0);
        assert_eq!(
            bad_version.validate(65535).unwrap_err(),
            OfError::BadVersion(0x04)
        );
        let short = OfpHeader::new(OFP_VERSION, 0, 4, 0);
        assert_eq!(short.validate(65535).unwrap_err(), OfError::BadLength);
        let big = OfpHeader::new(OFP_VERSION, 0, 4096, 0);
        assert_eq!(
            big.validate(128).unwrap_err(),
            OfError::Oversized {
                len: 4096,
                max: 128
            }
        );
    }
}
