//! The `rte_mbuf` API of a packet: headroom for header prepends, tailroom
//! for appends, and the metadata words the dataplane carries alongside
//! packet bytes.
//!
//! Every [`Mbuf`] is the handle of one slot of an [`Arena`] segment (the
//! type and its slab accessors live in [`crate::arena`]). It owns its slot
//! exclusively and moves from holder to holder; nothing shares a buffer, so
//! writes never need a copy-on-write check. The layout (`data_off`, `len`)
//! and the metadata words (`port`, `udata`, `timestamp`) are the slot's
//! [`SlotHeader`], beside the bytes, so turning the mbuf into a ring
//! descriptor and back copies none of it. The metadata words are read and
//! written through accessors ([`Mbuf::port`], [`Mbuf::set_port`] and so
//! on). A packet made where no shared arena is mapped ([`Mbuf::from_slice`],
//! [`Mbuf::duplicate`]) takes a slot of the private segment,
//! [`Arena::private`].

use crate::arena::{Arena, Mbuf, SlotHeader};

/// Headroom reserved at the front of every buffer, like
/// `RTE_PKTMBUF_HEADROOM`. It lies inside the slot.
pub const MBUF_HEADROOM: usize = 128;

/// The longest packet a [`crate::DEFAULT_BUF_SIZE`] slot holds behind its
/// headroom: 1920 bytes.
pub const MBUF_MAX_LEN: usize = crate::DEFAULT_BUF_SIZE - MBUF_HEADROOM;

impl Mbuf {
    /// Copies `data` into a slot of the private segment, behind the
    /// standard headroom; the rest of the slot is tailroom.
    ///
    /// # Panics
    ///
    /// When `data` is longer than [`MBUF_MAX_LEN`] (1920 bytes) or the
    /// private segment is full. Tests and harnesses call it; the product
    /// allocates through [`Arena::alloc_from`] and drops the packet on
    /// `None`.
    pub fn from_slice(data: &[u8]) -> Mbuf {
        assert!(
            data.len() <= MBUF_MAX_LEN,
            "Mbuf::from_slice: {} bytes exceed the {MBUF_MAX_LEN} a slot holds",
            data.len()
        );
        Arena::private()
            .alloc_from(data)
            .expect("Mbuf::from_slice: the private segment is full")
    }

    /// The identity: every mbuf is already an arena slot.
    #[inline]
    pub fn from_arena(m: Mbuf) -> Mbuf {
        m
    }

    /// Rewrites the header through `edit` (no byte of the packet changes).
    fn edit(&mut self, edit: impl FnOnce(&mut SlotHeader)) {
        let mut header = self.header();
        edit(&mut header);
        self.set_header(header);
    }

    /// Current packet length.
    pub fn len(&self) -> usize {
        self.header().len as usize
    }

    /// True when the mbuf carries no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes available in front of the packet (for header prepends).
    pub fn headroom(&self) -> usize {
        self.header().data_off as usize
    }

    /// Bytes available after the packet (for appends).
    pub fn tailroom(&self) -> usize {
        self.room() - self.headroom() - self.len()
    }

    /// Resizes the packet in place (must fit in the slot). New bytes are
    /// whatever the buffer previously held — callers overwrite them.
    pub fn set_len(&mut self, len: usize) {
        assert!(
            self.headroom() + len <= self.room(),
            "mbuf set_len {len} exceeds its slot"
        );
        self.edit(|h| h.len = len as u32);
    }

    /// Extends the packet by `n` bytes at the tail (like `rte_pktmbuf_append`)
    /// and returns the newly exposed region.
    pub fn append(&mut self, n: usize) -> &mut [u8] {
        assert!(n <= self.tailroom(), "mbuf append {n} exceeds tailroom");
        let start = self.headroom() + self.len();
        self.edit(|h| h.len += n as u32);
        &mut self.slot_bytes_mut()[start..start + n]
    }

    /// Prepends `n` bytes at the head (like `rte_pktmbuf_prepend`) and
    /// returns the newly exposed region.
    pub fn prepend(&mut self, n: usize) -> &mut [u8] {
        let off = self.headroom();
        assert!(n <= off, "mbuf prepend {n} exceeds headroom");
        self.edit(|h| {
            h.data_off -= n as u32;
            h.len += n as u32;
        });
        &mut self.slot_bytes_mut()[off - n..off]
    }

    /// Removes `n` bytes from the head (like `rte_pktmbuf_adj`).
    pub fn adj(&mut self, n: usize) {
        assert!(n <= self.len(), "mbuf adj {n} exceeds length");
        self.edit(|h| {
            h.data_off += n as u32;
            h.len -= n as u32;
        });
    }

    /// Removes `n` bytes from the tail (like `rte_pktmbuf_trim`).
    pub fn trim(&mut self, n: usize) {
        assert!(n <= self.len(), "mbuf trim {n} exceeds length");
        self.edit(|h| h.len -= n as u32);
    }

    /// Ingress port as understood by whoever received the packet.
    pub fn port(&self) -> u32 {
        self.header().port
    }

    /// Stamps the ingress port.
    pub fn set_port(&mut self, port: u32) {
        self.edit(|h| h.port = port);
    }

    /// Free-use scratch word (DPDK's `udata64`). The traffic generator keeps
    /// the probe sequence number here for O(1) access.
    pub fn udata(&self) -> u64 {
        self.header().udata
    }

    /// Sets the scratch word.
    pub fn set_udata(&mut self, udata: u64) {
        self.edit(|h| h.udata = udata);
    }

    /// Cycle timestamp, stamped by generators/NICs for latency probes.
    pub fn timestamp(&self) -> u64 {
        self.header().timestamp
    }

    /// Sets the cycle timestamp.
    pub fn set_timestamp(&mut self, timestamp: u64) {
        self.edit(|h| h.timestamp = timestamp);
    }

    /// Copies the packet bytes into a fresh `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.data().to_vec()
    }

    /// Copies the packet for multi-output actions (flood), preserving
    /// metadata, into a slot of the private segment: a buffer has one
    /// owner, so the original keeps its slot and each extra output pays
    /// for its own bytes — flood is the rare path. `None` (the packet is
    /// not copied) when the private segment is full or the packet does not
    /// fit one of its slots.
    pub fn duplicate(&self) -> Option<Mbuf> {
        let mut copy = Arena::private().alloc_from(self.data())?;
        let from = self.header();
        copy.edit(|h| {
            h.port = from.port;
            h.udata = from.udata;
            h.timestamp = from.timestamp;
        });
        Some(copy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::MbufDesc;

    #[test]
    fn a_slice_mbuf_has_headroom_and_appends() {
        let mut m = Mbuf::from_slice(&[]);
        assert_eq!(m.headroom(), MBUF_HEADROOM);
        assert_eq!(m.tailroom(), MBUF_MAX_LEN);
        assert_eq!(m.len(), 0);
        m.append(64).fill(0xAA);
        assert_eq!(m.len(), 64);
        assert_eq!(m.data()[0], 0xAA);
    }

    #[test]
    fn prepend_and_adj_are_inverses() {
        let mut m = Mbuf::from_slice(&[1, 2, 3, 4]);
        m.prepend(2).copy_from_slice(&[9, 9]);
        assert_eq!(m.data(), &[9, 9, 1, 2, 3, 4]);
        m.adj(2);
        assert_eq!(m.data(), &[1, 2, 3, 4]);
    }

    #[test]
    fn trim_shortens_tail() {
        let mut m = Mbuf::from_slice(&[1, 2, 3, 4]);
        m.trim(3);
        assert_eq!(m.data(), &[1]);
        assert!(!m.is_empty());
    }

    #[test]
    #[should_panic(expected = "exceeds headroom")]
    fn prepend_beyond_headroom_panics() {
        let mut m = Mbuf::from_slice(&[0u8; 4]);
        m.prepend(MBUF_HEADROOM + 1);
    }

    #[test]
    #[should_panic(expected = "exceeds tailroom")]
    fn append_beyond_tailroom_panics() {
        let mut m = Mbuf::from_slice(&[1]);
        m.append(m.tailroom() + 1);
    }

    #[test]
    fn metadata_fields_travel_with_the_buffer() {
        let mut m = Mbuf::from_slice(&[0; 8]);
        m.set_port(7);
        m.set_udata(0xdead_beef);
        m.set_timestamp(42);
        assert_eq!((m.port(), m.udata(), m.timestamp()), (7, 0xdead_beef, 42));
        let copy = m.duplicate().expect("a private slot");
        assert_eq!(
            (copy.port(), copy.udata(), copy.timestamp()),
            (7, 0xdead_beef, 42)
        );
    }

    #[test]
    fn desc_roundtrip_preserves_edits_and_metadata() {
        let arena = crate::Arena::new("t", 2, 512);
        let mut m = arena.alloc_from(&[1, 2, 3, 4]).unwrap();
        m.adj(1); // trims head: layout must survive the descriptor hop
        m.set_port(9);
        m.set_udata(0xabc);
        m.set_timestamp(11);
        let back = crate::arena::adopt(m.into_desc()).unwrap();
        assert_eq!(back.data(), &[2, 3, 4]);
        assert_eq!(
            (back.port(), back.udata(), back.timestamp()),
            (9, 0xabc, 11)
        );
    }

    #[test]
    fn a_hop_moves_one_word() {
        assert!(std::mem::size_of::<Mbuf>() <= 16);
        assert_eq!(std::mem::size_of::<MbufDesc>(), 8);
        assert_eq!(SlotHeader::SIZE, 32);
    }
}
