//! Packet buffer handles with `rte_mbuf` semantics: headroom for header
//! prepends, tailroom for appends, and the metadata words the dataplane
//! carries alongside packet bytes.
//!
//! An [`Mbuf`] owns its bytes exclusively — a private heap buffer or one
//! slot of a shared [`crate::Arena`] — and moves from holder to holder;
//! nothing shares a buffer, so writes never need a copy-on-write check.
//!
//! An `Mbuf` is 16 bytes: the arena slot's 16-byte handle, or a box holding
//! a heap buffer. The layout (`data_off`, `len`) and the metadata words
//! (`port`, `udata`, `timestamp`) are one [`SlotHeader`]: an arena packet's
//! lives in its slot, beside the bytes, so turning the mbuf into a ring
//! descriptor and back copies none of it; a heap packet's lives in its box.
//! The metadata words are read and written through accessors
//! ([`Mbuf::port`], [`Mbuf::set_port`] and so on).

use crate::arena::{ArenaMbuf, MbufDesc, SlotHeader};

/// Headroom reserved at the front of every buffer, like
/// `RTE_PKTMBUF_HEADROOM`.
pub const MBUF_HEADROOM: usize = 128;

/// Tailroom reserved after the packet in heap mbufs, so consumers can
/// append trailers the way `rte_pktmbuf_append` users expect. (Arena slots
/// get whatever their slot size leaves; real DPDK buffers are a fixed
/// 2 KiB regardless of packet length, so spare tailroom is the norm.)
pub const MBUF_TAILROOM: usize = 128;

/// A process-private packet buffer and its header.
struct HeapBuf {
    header: SlotHeader,
    buf: Box<[u8]>,
}

/// Backing storage of an [`Mbuf`]: a process-private heap buffer, or a
/// slot in a shared [`crate::Arena`] segment.
enum Storage {
    Heap(Box<HeapBuf>),
    Arena(ArenaMbuf),
}

/// A packet buffer handle.
///
/// Owns a byte buffer; when dropped, a heap mbuf frees its memory and an
/// arena-backed mbuf returns its slot to the [`crate::Arena`] (freelist or
/// credit stack).
pub struct Mbuf(Storage);

impl Mbuf {
    fn heap(buf: Box<[u8]>, data_off: usize, len: usize) -> Mbuf {
        let header = SlotHeader {
            data_off: data_off as u32,
            len: len as u32,
            ..SlotHeader::default()
        };
        Mbuf(Storage::Heap(Box::new(HeapBuf { header, buf })))
    }

    /// Creates a heap mbuf owning `data`, with no headroom.
    pub fn from_vec(data: Vec<u8>) -> Mbuf {
        let len = data.len();
        Mbuf::heap(data.into_boxed_slice(), 0, len)
    }

    /// Creates a heap mbuf copying `data`, with standard headroom so
    /// headers can still be prepended and tailroom so trailers can be
    /// appended.
    pub fn from_slice(data: &[u8]) -> Mbuf {
        let mut buf = vec![0u8; MBUF_HEADROOM + data.len() + MBUF_TAILROOM];
        buf[MBUF_HEADROOM..MBUF_HEADROOM + data.len()].copy_from_slice(data);
        Mbuf::heap(buf.into_boxed_slice(), MBUF_HEADROOM, data.len())
    }

    /// Wraps an arena slot in the generic mbuf API. The layout and metadata
    /// stay in the slot's header.
    #[inline]
    pub fn from_arena(am: ArenaMbuf) -> Mbuf {
        Mbuf(Storage::Arena(am))
    }

    /// True when the payload lives in a shared arena segment (descriptor-
    /// only enqueue applies).
    pub fn is_arena(&self) -> bool {
        matches!(self.0, Storage::Arena(_))
    }

    /// Segment id of arena-backed payload (diagnostics / census tests).
    pub fn arena_segment_id(&self) -> Option<u64> {
        match &self.0 {
            Storage::Arena(am) => Some(am.segment_id()),
            Storage::Heap(_) => None,
        }
    }

    /// Converts an arena-backed mbuf into its ring descriptor (the
    /// zero-copy enqueue). Heap mbufs come back unchanged in `Err` so the
    /// caller can enqueue them by value.
    #[inline]
    pub fn try_into_desc(self) -> Result<MbufDesc, Mbuf> {
        match self.0 {
            Storage::Arena(am) => Ok(am.into_desc()),
            heap => Err(Mbuf(heap)),
        }
    }

    /// The packet's layout and metadata.
    fn header(&self) -> SlotHeader {
        match &self.0 {
            Storage::Heap(heap) => heap.header,
            Storage::Arena(am) => am.header(),
        }
    }

    /// Rewrites the header through `edit` (no byte of the packet changes).
    fn edit(&mut self, edit: impl FnOnce(&mut SlotHeader)) {
        match &mut self.0 {
            Storage::Heap(heap) => edit(&mut heap.header),
            Storage::Arena(am) => {
                let mut header = am.header();
                edit(&mut header);
                am.set_header(header);
            }
        }
    }

    fn raw_mut(&mut self) -> &mut [u8] {
        match &mut self.0 {
            Storage::Heap(heap) => &mut heap.buf,
            Storage::Arena(am) => am.slot_bytes_mut(),
        }
    }

    /// Bytes in the buffer: headroom, packet and tailroom.
    fn room(&self) -> usize {
        match &self.0 {
            Storage::Heap(heap) => heap.buf.len(),
            Storage::Arena(am) => am.slot_bytes().len(),
        }
    }

    /// Packet bytes.
    pub fn data(&self) -> &[u8] {
        match &self.0 {
            Storage::Heap(heap) => {
                let h = heap.header;
                &heap.buf[h.data_off as usize..][..h.len as usize]
            }
            Storage::Arena(am) => am.data(),
        }
    }

    /// Mutable packet bytes.
    pub fn data_mut(&mut self) -> &mut [u8] {
        match &mut self.0 {
            Storage::Heap(heap) => {
                let h = heap.header;
                &mut heap.buf[h.data_off as usize..][..h.len as usize]
            }
            Storage::Arena(am) => am.data_mut(),
        }
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

    /// Resizes the packet in place (must fit in the tailroom). New bytes are
    /// whatever the buffer previously held — callers overwrite them.
    pub fn set_len(&mut self, len: usize) {
        assert!(
            self.headroom() + len <= self.room(),
            "mbuf set_len {len} exceeds buffer"
        );
        self.edit(|h| h.len = len as u32);
    }

    /// Extends the packet by `n` bytes at the tail (like `rte_pktmbuf_append`)
    /// and returns the newly exposed region.
    pub fn append(&mut self, n: usize) -> &mut [u8] {
        assert!(n <= self.tailroom(), "mbuf append {n} exceeds tailroom");
        let start = self.headroom() + self.len();
        self.edit(|h| h.len += n as u32);
        &mut self.raw_mut()[start..start + n]
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
        &mut self.raw_mut()[off - n..off]
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
    /// metadata. The copy is always a heap mbuf: a buffer has one owner, so
    /// an arena packet keeps its slot and each extra output pays for its
    /// own bytes — flood is the rare path.
    pub fn duplicate(&self) -> Mbuf {
        let from = self.header();
        let mut copy = Mbuf::from_slice(self.data());
        copy.edit(|h| {
            h.port = from.port;
            h.udata = from.udata;
            h.timestamp = from.timestamp;
        });
        copy
    }
}

impl std::fmt::Debug for Mbuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let backend = match &self.0 {
            Storage::Heap(_) => "heap",
            Storage::Arena(_) => "arena",
        };
        let h = self.header();
        f.debug_struct("Mbuf")
            .field("len", &h.len)
            .field("port", &h.port)
            .field("udata", &h.udata)
            .field("backend", &backend)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heap_mbuf_has_headroom_and_appends() {
        let mut m = Mbuf::from_slice(&[]);
        assert_eq!(m.headroom(), MBUF_HEADROOM);
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
        let mut m = Mbuf::from_vec(vec![1, 2, 3, 4]);
        m.trim(3);
        assert_eq!(m.data(), &[1]);
        assert!(!m.is_empty());
    }

    #[test]
    #[should_panic(expected = "exceeds headroom")]
    fn prepend_beyond_headroom_panics() {
        let mut m = Mbuf::from_vec(vec![0u8; 4]); // from_vec has no headroom
        m.prepend(1);
    }

    #[test]
    #[should_panic(expected = "exceeds tailroom")]
    fn append_beyond_tailroom_panics() {
        let mut m = Mbuf::from_slice(&[1]);
        m.append(MBUF_TAILROOM + 1);
    }

    #[test]
    fn metadata_fields_travel_with_the_buffer() {
        let mut m = Mbuf::from_slice(&[0; 8]);
        m.set_port(7);
        m.set_udata(0xdead_beef);
        m.set_timestamp(42);
        assert_eq!((m.port(), m.udata(), m.timestamp()), (7, 0xdead_beef, 42));
        let copy = m.duplicate();
        assert_eq!(
            (copy.port(), copy.udata(), copy.timestamp()),
            (7, 0xdead_beef, 42)
        );
    }

    #[test]
    fn desc_roundtrip_preserves_edits_and_metadata() {
        let arena = crate::Arena::new("t", 2, 512);
        let mut m = Mbuf::from_arena(arena.alloc_from(&[1, 2, 3, 4]).unwrap());
        m.adj(1); // trims head: layout must survive the descriptor hop
        m.set_port(9);
        m.set_udata(0xabc);
        m.set_timestamp(11);
        let desc = m.try_into_desc().expect("arena-backed");
        let back = Mbuf::from_arena(crate::arena::adopt(desc).unwrap());
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

    #[test]
    fn boxed_mbuf_refuses_desc_conversion() {
        let m = Mbuf::from_slice(&[1]);
        let m = m.try_into_desc().unwrap_err();
        assert_eq!(m.data(), &[1], "handed back intact");
    }
}
