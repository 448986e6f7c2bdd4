//! Packet buffer handles with `rte_mbuf` semantics: headroom for header
//! prepends, pool recycling on drop, and the metadata words the dataplane
//! carries alongside packet bytes.

use crate::arena::{ArenaMbuf, MbufDesc};
use crate::events;
use crate::mempool::MempoolInner;
use std::sync::Arc;

/// Headroom reserved at the front of every pooled buffer, like
/// `RTE_PKTMBUF_HEADROOM`.
pub const MBUF_HEADROOM: usize = 128;

/// Tailroom reserved after the packet in detached mbufs, so consumers can
/// append trailers the way `rte_pktmbuf_append` users expect. (Pooled mbufs
/// get whatever their pool's buffer size leaves; real DPDK buffers are a
/// fixed 2 KiB regardless of packet length, so spare tailroom is the norm.)
pub const MBUF_TAILROOM: usize = 128;

/// Backing storage of an [`Mbuf`]: a process-private heap buffer
/// (pooled or detached), or a slot in a shared [`crate::Arena`] segment.
enum Storage {
    Boxed {
        buf: Option<Box<[u8]>>,
        pool: Option<Arc<MempoolInner>>,
    },
    Arena(ArenaMbuf),
}

/// A packet buffer handle.
///
/// Owns a byte buffer; when dropped, a pooled mbuf returns its buffer to
/// the originating [`crate::Mempool`], an arena-backed mbuf releases its
/// slot reference back to the [`crate::Arena`] (freelist or credit stack).
/// Detached mbufs (created via [`Mbuf::from_vec`]) simply free their
/// memory — convenient for tests.
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
    pub(crate) fn from_pool(buf: Box<[u8]>, pool: Arc<MempoolInner>) -> Mbuf {
        // Small pools (tests) cap the headroom at half the buffer so there
        // is always usable data room.
        let data_off = MBUF_HEADROOM.min(buf.len() / 2);
        Mbuf {
            storage: Storage::Boxed {
                buf: Some(buf),
                pool: Some(pool),
            },
            data_off,
            data_len: 0,
            port: 0,
            udata: 0,
            timestamp: 0,
        }
    }

    /// Creates a detached (pool-less) mbuf owning `data`, with no headroom.
    pub fn from_vec(data: Vec<u8>) -> Mbuf {
        let data_len = data.len();
        Mbuf {
            storage: Storage::Boxed {
                buf: Some(data.into_boxed_slice()),
                pool: None,
            },
            data_off: 0,
            data_len,
            port: 0,
            udata: 0,
            timestamp: 0,
        }
    }

    /// Creates a detached mbuf copying `data`, with standard headroom so
    /// headers can still be prepended and tailroom so trailers can be
    /// appended.
    pub fn from_slice(data: &[u8]) -> Mbuf {
        let mut buf = vec![0u8; MBUF_HEADROOM + data.len() + MBUF_TAILROOM];
        buf[MBUF_HEADROOM..MBUF_HEADROOM + data.len()].copy_from_slice(data);
        Mbuf {
            storage: Storage::Boxed {
                buf: Some(buf.into_boxed_slice()),
                pool: None,
            },
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
            Storage::Boxed { .. } => None,
        }
    }

    /// Converts an arena-backed mbuf into its ring descriptor (the
    /// zero-copy enqueue). Boxed mbufs come back unchanged in `Err` so the
    /// caller can enqueue them by value.
    pub fn try_into_desc(mut self) -> Result<MbufDesc, Mbuf> {
        if !self.is_arena() {
            return Err(self);
        }
        let empty = Storage::Boxed {
            buf: None,
            pool: None,
        };
        let Storage::Arena(mut am) = std::mem::replace(&mut self.storage, empty) else {
            unreachable!("checked is_arena above")
        };
        am.set_layout(self.data_off, self.data_len);
        am.port = self.port;
        am.udata = self.udata;
        am.timestamp = self.timestamp;
        Ok(am.into_desc())
    }

    fn raw(&self) -> &[u8] {
        match &self.storage {
            Storage::Boxed { buf, .. } => buf.as_deref().expect("mbuf buffer present until drop"),
            Storage::Arena(am) => am.slot_bytes(),
        }
    }

    /// Ensures exclusive ownership of the underlying bytes before handing
    /// out `&mut`. Boxed storage is always exclusive. A shared arena slot
    /// first tries copy-on-write inside the arena; if the arena is
    /// exhausted it detaches to a private heap copy of the slot (counted as
    /// `arena_cow_detach` — the packet leaves the zero-copy domain but
    /// correctness is preserved).
    fn make_writable(&mut self) {
        if let Storage::Arena(am) = &mut self.storage {
            if !am.is_unique() && !am.make_unique() {
                let buf = am.slot_bytes().to_vec().into_boxed_slice();
                events::emit("arena_cow_detach", 1);
                self.storage = Storage::Boxed {
                    buf: Some(buf),
                    pool: None,
                };
            }
        }
    }

    fn raw_mut(&mut self) -> &mut [u8] {
        self.make_writable();
        match &mut self.storage {
            Storage::Boxed { buf, .. } => {
                buf.as_deref_mut().expect("mbuf buffer present until drop")
            }
            Storage::Arena(am) => am.slot_bytes_mut(),
        }
    }

    /// Packet bytes.
    pub fn data(&self) -> &[u8] {
        &self.raw()[self.data_off..self.data_off + self.data_len]
    }

    /// Mutable packet bytes. On a shared arena slot this copies-on-write
    /// first (see `Mbuf::raw_mut`'s helper), so writers never alias
    /// readers.
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

    /// Clones the packet for multi-output actions (flood), preserving
    /// metadata. An arena-backed mbuf clones by reference — both handles
    /// share the slot read-only and copy-on-write protects any later
    /// mutation — so a flood of an arena packet touches no payload bytes.
    /// Boxed mbufs deep-copy into a detached buffer, as before.
    pub fn duplicate(&self) -> Mbuf {
        let mut copy = match &self.storage {
            Storage::Arena(am) => Mbuf {
                storage: Storage::Arena(am.clone_ref()),
                data_off: self.data_off,
                data_len: self.data_len,
                port: 0,
                udata: 0,
                timestamp: 0,
            },
            Storage::Boxed { .. } => Mbuf::from_slice(self.data()),
        };
        copy.port = self.port;
        copy.udata = self.udata;
        copy.timestamp = self.timestamp;
        copy
    }
}

impl Drop for Mbuf {
    fn drop(&mut self) {
        if let Storage::Boxed { buf, pool } = &mut self.storage {
            if let (Some(buf), Some(pool)) = (buf.take(), pool.take()) {
                pool.put_back(buf);
            }
        }
        // Arena storage: ArenaMbuf's own Drop releases the slot reference.
    }
}

impl std::fmt::Debug for Mbuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let backend = match &self.storage {
            Storage::Boxed { pool: Some(_), .. } => "pooled",
            Storage::Boxed { pool: None, .. } => "detached",
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
    use crate::Mempool;

    #[test]
    fn pooled_mbuf_has_headroom_and_recycles() {
        let pool = Mempool::new("t", 1, 2048);
        let mut m = pool.alloc().unwrap();
        assert_eq!(m.headroom(), MBUF_HEADROOM);
        assert_eq!(m.len(), 0);
        m.append(64).fill(0xAA);
        assert_eq!(m.len(), 64);
        assert_eq!(m.data()[0], 0xAA);
        drop(m);
        assert_eq!(pool.available(), 1);
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
        let pool = Mempool::new("t", 1, 130);
        let mut m = pool.alloc().unwrap();
        m.append(1024);
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
    fn detached_mbuf_does_not_touch_any_pool() {
        let pool = Mempool::new("t", 1, 64);
        let before = pool.stats();
        let m = Mbuf::from_slice(&[1, 2, 3]);
        drop(m);
        assert_eq!(pool.stats(), before);
    }

    #[test]
    fn arena_backed_duplicate_shares_the_slot() {
        let arena = crate::Arena::new("t", 4, 512);
        let m = Mbuf::from_arena(arena.alloc_from(&[1, 2, 3]).unwrap());
        let writes_after_ingress = arena.stats().slab_writes;
        let copy = m.duplicate();
        assert_eq!(copy.data(), &[1, 2, 3]);
        assert!(copy.is_arena());
        assert_eq!(
            arena.stats().slab_writes,
            writes_after_ingress,
            "flood clone must not touch the slab"
        );
        assert_eq!(arena.in_use(), 1, "one slot, two references");
        drop((m, copy));
        assert!(arena.census_clean());
    }

    #[test]
    fn shared_arena_mbuf_copies_on_write() {
        let arena = crate::Arena::new("t", 4, 512);
        let mut m = Mbuf::from_arena(arena.alloc_from(&[7, 7, 7]).unwrap());
        let reader = m.duplicate();
        m.data_mut()[0] = 1;
        assert_eq!(reader.data(), &[7, 7, 7], "reader unaffected by COW");
        assert_eq!(m.data(), &[1, 7, 7]);
        assert_eq!(arena.stats().cow_copies, 1);
        drop((m, reader));
        assert!(arena.census_clean());
    }

    #[test]
    fn shared_arena_mbuf_detaches_when_arena_exhausted() {
        let arena = crate::Arena::new("t", 1, 512);
        let mut m = Mbuf::from_arena(arena.alloc_from(&[5, 5]).unwrap());
        let reader = m.duplicate();
        m.data_mut()[0] = 9; // no free slot for COW: detaches to heap
        assert!(!m.is_arena());
        assert_eq!(m.data(), &[9, 5]);
        assert_eq!(reader.data(), &[5, 5]);
        drop((m, reader));
        assert!(arena.census_clean());
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
