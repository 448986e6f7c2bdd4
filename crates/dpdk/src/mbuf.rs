//! Packet buffer handles with `rte_mbuf` semantics: headroom for header
//! prepends, tailroom for appends, and the metadata words the dataplane
//! carries alongside packet bytes.
//!
//! An [`Mbuf`] owns its bytes exclusively — a private heap buffer or one
//! slot of a shared [`crate::Arena`] — and moves from holder to holder;
//! nothing shares a buffer, so writes never need a copy-on-write check.

use crate::arena::{ArenaMbuf, MbufDesc};

/// Headroom reserved at the front of every buffer, like
/// `RTE_PKTMBUF_HEADROOM`.
pub const MBUF_HEADROOM: usize = 128;

/// Tailroom reserved after the packet in heap mbufs, so consumers can
/// append trailers the way `rte_pktmbuf_append` users expect. (Arena slots
/// get whatever their slot size leaves; real DPDK buffers are a fixed
/// 2 KiB regardless of packet length, so spare tailroom is the norm.)
pub const MBUF_TAILROOM: usize = 128;

/// Backing storage of an [`Mbuf`]: a process-private heap buffer, or a
/// slot in a shared [`crate::Arena`] segment.
enum Storage {
    Heap(Box<[u8]>),
    Arena(ArenaMbuf),
}

/// A packet buffer handle.
///
/// Owns a byte buffer; when dropped, a heap mbuf frees its memory and an
/// arena-backed mbuf returns its slot to the [`crate::Arena`] (freelist or
/// credit stack).
pub struct Mbuf {
    storage: Storage,
    data_off: usize,
    data_len: usize,
    /// Ingress port as understood by whoever received the packet.
    pub port: u32,
    /// Free-use scratch word (DPDK's `udata64`). The traffic generator keeps
    /// the probe sequence number here for O(1) access.
    pub udata: u64,
    /// Cycle timestamp, stamped by generators/NICs for latency probes.
    pub timestamp: u64,
}

impl Mbuf {
    /// Creates a heap mbuf owning `data`, with no headroom.
    pub fn from_vec(data: Vec<u8>) -> Mbuf {
        let data_len = data.len();
        Mbuf {
            storage: Storage::Heap(data.into_boxed_slice()),
            data_off: 0,
            data_len,
            port: 0,
            udata: 0,
            timestamp: 0,
        }
    }

    /// Creates a heap mbuf copying `data`, with standard headroom so
    /// headers can still be prepended and tailroom so trailers can be
    /// appended.
    pub fn from_slice(data: &[u8]) -> Mbuf {
        let mut buf = vec![0u8; MBUF_HEADROOM + data.len() + MBUF_TAILROOM];
        buf[MBUF_HEADROOM..MBUF_HEADROOM + data.len()].copy_from_slice(data);
        Mbuf {
            storage: Storage::Heap(buf.into_boxed_slice()),
            data_off: MBUF_HEADROOM,
            data_len: data.len(),
            port: 0,
            udata: 0,
            timestamp: 0,
        }
    }

    /// Wraps an arena slot in the generic mbuf API. The mbuf addresses the
    /// slot with its own offsets; layout is written back into the handle on
    /// [`Mbuf::try_into_desc`].
    pub fn from_arena(am: ArenaMbuf) -> Mbuf {
        Mbuf {
            data_off: am.data_off(),
            data_len: am.len(),
            port: am.port,
            udata: am.udata,
            timestamp: am.timestamp,
            storage: Storage::Arena(am),
        }
    }

    /// True when the payload lives in a shared arena segment (descriptor-
    /// only enqueue applies).
    pub fn is_arena(&self) -> bool {
        matches!(self.storage, Storage::Arena(_))
    }

    /// Segment id of arena-backed payload (diagnostics / census tests).
    pub fn arena_segment_id(&self) -> Option<u64> {
        match &self.storage {
            Storage::Arena(am) => Some(am.segment_id()),
            Storage::Heap(_) => None,
        }
    }

    /// Converts an arena-backed mbuf into its ring descriptor (the
    /// zero-copy enqueue). Heap mbufs come back unchanged in `Err` so the
    /// caller can enqueue them by value.
    pub fn try_into_desc(self) -> Result<MbufDesc, Mbuf> {
        match self {
            Mbuf {
                storage: Storage::Arena(mut am),
                data_off,
                data_len,
                port,
                udata,
                timestamp,
            } => {
                am.set_layout(data_off, data_len);
                am.port = port;
                am.udata = udata;
                am.timestamp = timestamp;
                Ok(am.into_desc())
            }
            heap => Err(heap),
        }
    }

    fn raw(&self) -> &[u8] {
        match &self.storage {
            Storage::Heap(buf) => buf,
            Storage::Arena(am) => am.slot_bytes(),
        }
    }

    fn raw_mut(&mut self) -> &mut [u8] {
        match &mut self.storage {
            Storage::Heap(buf) => buf,
            Storage::Arena(am) => am.slot_bytes_mut(),
        }
    }

    /// Packet bytes.
    pub fn data(&self) -> &[u8] {
        &self.raw()[self.data_off..self.data_off + self.data_len]
    }

    /// Mutable packet bytes.
    pub fn data_mut(&mut self) -> &mut [u8] {
        let (off, len) = (self.data_off, self.data_len);
        &mut self.raw_mut()[off..off + len]
    }

    /// Current packet length.
    pub fn len(&self) -> usize {
        self.data_len
    }

    /// True when the mbuf carries no bytes.
    pub fn is_empty(&self) -> bool {
        self.data_len == 0
    }

    /// Bytes available in front of the packet (for header prepends).
    pub fn headroom(&self) -> usize {
        self.data_off
    }

    /// Bytes available after the packet (for appends).
    pub fn tailroom(&self) -> usize {
        self.raw().len() - self.data_off - self.data_len
    }

    /// Resizes the packet in place (must fit in the tailroom). New bytes are
    /// whatever the buffer previously held — callers overwrite them.
    pub fn set_len(&mut self, len: usize) {
        assert!(
            self.data_off + len <= self.raw().len(),
            "mbuf set_len {len} exceeds buffer"
        );
        self.data_len = len;
    }

    /// Extends the packet by `n` bytes at the tail (like `rte_pktmbuf_append`)
    /// and returns the newly exposed region.
    pub fn append(&mut self, n: usize) -> &mut [u8] {
        assert!(n <= self.tailroom(), "mbuf append {n} exceeds tailroom");
        let start = self.data_off + self.data_len;
        self.data_len += n;
        &mut self.raw_mut()[start..start + n]
    }

    /// Prepends `n` bytes at the head (like `rte_pktmbuf_prepend`) and
    /// returns the newly exposed region.
    pub fn prepend(&mut self, n: usize) -> &mut [u8] {
        assert!(n <= self.data_off, "mbuf prepend {n} exceeds headroom");
        self.data_off -= n;
        self.data_len += n;
        let off = self.data_off;
        &mut self.raw_mut()[off..off + n]
    }

    /// Removes `n` bytes from the head (like `rte_pktmbuf_adj`).
    pub fn adj(&mut self, n: usize) {
        assert!(n <= self.data_len, "mbuf adj {n} exceeds length");
        self.data_off += n;
        self.data_len -= n;
    }

    /// Removes `n` bytes from the tail (like `rte_pktmbuf_trim`).
    pub fn trim(&mut self, n: usize) {
        assert!(n <= self.data_len, "mbuf trim {n} exceeds length");
        self.data_len -= n;
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
        Mbuf {
            port: self.port,
            udata: self.udata,
            timestamp: self.timestamp,
            ..Mbuf::from_slice(self.data())
        }
    }
}

impl std::fmt::Debug for Mbuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let backend = match &self.storage {
            Storage::Heap(_) => "heap",
            Storage::Arena(_) => "arena",
        };
        f.debug_struct("Mbuf")
            .field("len", &self.data_len)
            .field("port", &self.port)
            .field("udata", &self.udata)
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
        m.port = 7;
        m.udata = 0xdead_beef;
        m.timestamp = 42;
        assert_eq!((m.port, m.udata, m.timestamp), (7, 0xdead_beef, 42));
    }

    #[test]
    fn desc_roundtrip_preserves_edits_and_metadata() {
        let arena = crate::Arena::new("t", 2, 512);
        let mut m = Mbuf::from_arena(arena.alloc_from(&[1, 2, 3, 4]).unwrap());
        m.adj(1); // trims head: layout must survive the descriptor hop
        m.port = 9;
        m.udata = 0xabc;
        m.timestamp = 11;
        let desc = m.try_into_desc().expect("arena-backed");
        let back = Mbuf::from_arena(crate::arena::adopt(desc).unwrap());
        assert_eq!(back.data(), &[2, 3, 4]);
        assert_eq!((back.port, back.udata, back.timestamp), (9, 0xabc, 11));
    }

    #[test]
    fn boxed_mbuf_refuses_desc_conversion() {
        let m = Mbuf::from_slice(&[1]);
        let m = m.try_into_desc().unwrap_err();
        assert_eq!(m.data(), &[1], "handed back intact");
    }
}
