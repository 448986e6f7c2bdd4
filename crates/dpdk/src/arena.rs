//! Shared-arena mbuf allocator with offset-based handles.
//!
//! A real ivshmem highway cannot move `Box<[u8]>` pointers between
//! processes: a guest maps the hugepage segment at its own virtual address,
//! so the only representation of a packet that survives the BAR crossing is
//! `(segment_id, slot)`. This module models exactly that, and every packet
//! in the system is one of its slots:
//!
//! * `ArenaSegment` (internal) — one contiguous slab carved into
//!   fixed-size slots, followed by one [`SlotHeader`] per slot; one `held`
//!   flag per slot (the double-free guard), and one lock-free LIFO stack
//!   of free slot indices linked through a `next[]` array. Every release,
//!   through whichever mapping or handle, pushes onto it, the way every
//!   process that maps a DPDK mempool shares its one free ring. Slots never
//!   issued yet sit behind a `fresh` watermark, so a new segment pushes
//!   nothing, and LIFO reuse keeps the slots in use — and the pages
//!   faulted in — at the in-flight high water.
//! * [`SlotHeader`] — a packet's metadata (`data_off`, `len`, `port`,
//!   `udata`, `timestamp`), kept in the slab beside its bytes the way an
//!   `rte_mbuf` header sits in its buffer. The headers are one region after
//!   the slots, in the slab's own zero-filled allocation, so a new segment
//!   writes none of them and a header page faults in with first use. The
//!   slot's one holder reads and writes its header; a header write is not
//!   counted as a slab write.
//! * [`Arena`] — a process-local *mapping* of a segment; a clone is another
//!   mapping of it (a guest's, say). A packet made where no shared arena is
//!   mapped takes a slot of the process-wide [`Arena::private`] segment,
//!   which is never unmapped.
//! * [`Mbuf`] — the packet: a 16-byte RAII handle over one slot (its
//!   segment and the slot index), the slot's only
//!   owner, and convertible to/from the move-only 8-byte [`MbufDesc`] token
//!   that rides rings between mappings (the zero-copy hop). A hop moves the
//!   token and copies no metadata: the header stays in the slot. Ownership
//!   moves with the handle or the token; it is never shared, so a packet
//!   sent to several ports is copied (see `Mbuf::duplicate`). This module
//!   holds the slab accessors; [`crate::mbuf`] builds the `rte_mbuf` API
//!   on them.
//! * [`Resolver`] — a receiver's table of the segments it has mapped: the
//!   first descriptor from a segment resolves its id through the
//!   process-wide segment table behind [`adopt`]; every later one adopts
//!   with a short scan and no shared write.
//!
//! **How long a segment lives.** A handle and an in-flight descriptor each
//! own one reference to their segment, and a hop *moves* it:
//! [`Mbuf::into_desc`] keeps the handle's reference in the descriptor
//! and [`Resolver::adopt`] takes it back, so a hop writes no reference
//! count that every thread on the chain shares. The segment — slab and
//! segment-table entry — lives while a mapping, a handle or an in-flight
//! descriptor names it. *Mapped* is counted apart, in `mappings`: the live
//! [`Arena`]s. Once the last one is gone, [`WeakArena::upgrade`] returns
//! `None` and adopt refuses every descriptor still in flight (it frees the
//! slot and drops the reference), the packet-loss mode a real
//! unmap-under-traffic has; the last of them frees the segment.
//!
//! The slab counts every mutable access to packet bytes in `slab_writes`,
//! which is the instrument behind the zero-copy acceptance test: across an
//! N-hop chain, slab writes happen only at generator ingress (and at VNFs
//! that legitimately mutate payload), never per hop.

use crate::mbuf::MBUF_HEADROOM;
use crate::DEFAULT_BUF_SIZE;
use crossbeam::utils::CachePadded;
use std::cell::UnsafeCell;
use std::collections::HashMap;
use std::mem::{offset_of, ManuallyDrop};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, Weak};

/// A packet descriptor: the only representation that crosses a ring
/// between two mappings of the same segment. One `u64` token, the segment
/// id above the slot index, never a pointer; the packet's layout and
/// metadata stay in the slot's [`SlotHeader`].
///
/// A descriptor is a move-only token. It owns its slot and the segment
/// reference of the handle it was made from: only [`Mbuf::into_desc`]
/// makes one, and [`adopt`] or [`Resolver::adopt`] consumes it. It can be
/// neither copied nor cloned, so no slot is ever adopted twice:
///
/// ```compile_fail
/// fn twice(d: dpdk_sim::MbufDesc) -> (dpdk_sim::MbufDesc, dpdk_sim::MbufDesc) {
///     (d, d)
/// }
/// ```
///
/// ```compile_fail
/// fn twice(d: &dpdk_sim::MbufDesc) -> dpdk_sim::MbufDesc {
///     <dpdk_sim::MbufDesc as Clone>::clone(d)
/// }
/// ```
///
/// A descriptor dropped without being adopted (a ring torn down with it
/// queued) is adopted and freed through the process-wide segment table, so
/// neither its slot nor its segment leaks.
#[derive(Debug)]
pub struct MbufDesc(u64);

impl MbufDesc {
    /// Which segment the slot lives in (global, process-unique id).
    pub fn segment_id(&self) -> u64 {
        self.0 >> 32
    }

    /// Slot index within the segment's slab.
    pub fn slot(&self) -> u32 {
        self.0 as u32
    }
}

impl Drop for MbufDesc {
    fn drop(&mut self) {
        // Nobody adopted it: take it home like a dropped handle. Cold (ring
        // teardown), so the global segment table is fine here.
        drop(claim(lookup_segment(self.segment_id()).as_ref(), self));
    }
}

/// A packet's metadata, one per slot in the segment's header region: where
/// the packet starts in its slot, its length, and the `rte_mbuf` words the
/// dataplane carries with it. `repr(C)` fixes the layout every mapping of
/// the segment agrees on: 32 bytes, the `u64` words 8-aligned.
#[repr(C)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlotHeader {
    /// Offset of the first packet byte from the start of the slot.
    pub data_off: u32,
    /// Packet length in bytes.
    pub len: u32,
    /// Ingress port as understood by whoever received the packet.
    pub port: u32,
    /// Free-use scratch word (DPDK's `udata64`).
    pub udata: u64,
    /// Cycle timestamp, stamped by generators and NICs for latency probes.
    pub timestamp: u64,
}

impl SlotHeader {
    /// Bytes one header takes in the slab.
    pub const SIZE: usize = std::mem::size_of::<SlotHeader>();

    /// True when the packet it describes lies inside a slot of `slot_size`.
    fn fits(&self, slot_size: usize) -> bool {
        self.data_off as usize + self.len as usize <= slot_size
    }

    fn load(b: &[u8; SlotHeader::SIZE]) -> SlotHeader {
        let u32_at = |at: usize| u32::from_ne_bytes(b[at..at + 4].try_into().unwrap());
        let u64_at = |at: usize| u64::from_ne_bytes(b[at..at + 8].try_into().unwrap());
        SlotHeader {
            data_off: u32_at(offset_of!(SlotHeader, data_off)),
            len: u32_at(offset_of!(SlotHeader, len)),
            port: u32_at(offset_of!(SlotHeader, port)),
            udata: u64_at(offset_of!(SlotHeader, udata)),
            timestamp: u64_at(offset_of!(SlotHeader, timestamp)),
        }
    }

    fn store(&self, b: &mut [u8; SlotHeader::SIZE]) {
        let mut put = |at: usize, bytes: &[u8]| b[at..at + bytes.len()].copy_from_slice(bytes);
        put(
            offset_of!(SlotHeader, data_off),
            &self.data_off.to_ne_bytes(),
        );
        put(offset_of!(SlotHeader, len), &self.len.to_ne_bytes());
        put(offset_of!(SlotHeader, port), &self.port.to_ne_bytes());
        put(offset_of!(SlotHeader, udata), &self.udata.to_ne_bytes());
        put(
            offset_of!(SlotHeader, timestamp),
            &self.timestamp.to_ne_bytes(),
        );
    }
}

/// The slab: interior-mutable so multiple handles can address disjoint
/// slots concurrently. Each issued slot has exactly one owner — the
/// [`Mbuf`] (or the in-flight descriptor) that holds it — so no byte is
/// ever aliased mutably. The slots come first, then one [`SlotHeader`] per
/// slot.
struct Slab(Box<[UnsafeCell<u8>]>);

// SAFETY: all access goes through Mbuf, and through `claim` reading
// the header of the slot its descriptor holds. An issued slot has exactly
// one holder, and the types keep it so: neither `Mbuf` nor `MbufDesc`
// is `Clone` or `Copy`, a descriptor is made only by consuming the handle
// (`into_desc`), and a handle only by consuming the descriptor (`adopt`,
// `Resolver::adopt`). A slot's bytes and its header's bytes belong to the
// slot: they are reachable only through that one holder, mutably only
// through `&mut` to the handle, and a slot is reissued only after its
// holder released it (the `held` swap in `release`).
unsafe impl Sync for Slab {}

impl Slab {
    fn new(len: usize) -> Slab {
        // `UnsafeCell<u8>` is `repr(transparent)` over `u8`, so a zeroed
        // byte slab can be reinterpreted wholesale — element-by-element
        // construction is quadratically slower in debug builds for the
        // multi-megabyte slabs the host arena uses.
        let bytes: Box<[u8]> = vec![0u8; len].into_boxed_slice();
        let raw = Box::into_raw(bytes);
        Slab(unsafe { Box::from_raw(raw as *mut [UnsafeCell<u8>]) })
    }

    /// SAFETY: caller must guarantee no concurrent `&mut` to this range.
    unsafe fn slice(&self, start: usize, len: usize) -> &[u8] {
        std::slice::from_raw_parts(self.0[start].get() as *const u8, len)
    }

    /// SAFETY: caller must guarantee exclusive access to this range.
    #[allow(clippy::mut_from_ref)]
    unsafe fn slice_mut(&self, start: usize, len: usize) -> &mut [u8] {
        std::slice::from_raw_parts_mut(self.0[start].get(), len)
    }
}

/// Empty-stack marker, in a stack head and in the bottom slot's `next`.
const NIL: u32 = u32::MAX;

fn pack(tag: u32, top: u32) -> u64 {
    (u64::from(tag) << 32) | u64::from(top)
}

fn unpack(head: u64) -> (u32, u32) {
    ((head >> 32) as u32, head as u32)
}

/// A lock-free LIFO of slot indices (a Treiber stack). The links live in
/// the segment's `next[]` array, one per slot. The head packs a 32-bit ABA
/// tag, bumped by every successful CAS, above the top slot index, so a pop
/// that read a stale `next` cannot succeed.
///
/// Ordering: a push stores its `next` link, then publishes with a
/// `Release` CAS on the head; pops read the head with `Acquire` (every
/// later head CAS is an RMW, so it carries the release on), so whoever
/// takes a slot sees the link written before its push. `len` pairs the
/// same way, so a reader that sees a slot counted also sees the `fresh`
/// watermark that issued it.
struct SlotStack {
    head: AtomicU64,
    /// Slots on the stack. Raised before a push publishes and lowered only
    /// after a pop succeeds, so a concurrent reader may count an in-flight
    /// push early but never sees the count go below zero.
    len: AtomicUsize,
}

impl SlotStack {
    fn new() -> SlotStack {
        SlotStack {
            head: AtomicU64::new(pack(0, NIL)),
            len: AtomicUsize::new(0),
        }
    }

    fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    fn push(&self, next: &[AtomicU32], slot: u32) {
        self.len.fetch_add(1, Ordering::Release);
        let mut cur = self.head.load(Ordering::Relaxed);
        loop {
            let (tag, top) = unpack(cur);
            next[slot as usize].store(top, Ordering::Relaxed);
            let new = pack(tag.wrapping_add(1), slot);
            match self
                .head
                .compare_exchange_weak(cur, new, Ordering::Release, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(now) => cur = now,
            }
        }
    }

    fn pop(&self, next: &[AtomicU32]) -> Option<u32> {
        let mut cur = self.head.load(Ordering::Acquire);
        loop {
            let (tag, top) = unpack(cur);
            if top == NIL {
                return None;
            }
            // Stale if `top` was popped meanwhile; the tag then fails the CAS.
            let below = next[top as usize].load(Ordering::Relaxed);
            let new = pack(tag.wrapping_add(1), below);
            match self
                .head
                .compare_exchange_weak(cur, new, Ordering::Acquire, Ordering::Acquire)
            {
                Ok(_) => {
                    self.len.fetch_sub(1, Ordering::Relaxed);
                    return Some(top);
                }
                Err(now) => cur = now,
            }
        }
    }
}

/// One shared-memory arena segment (the thing a hugepage backs).
///
/// `repr(C)` keeps the declared order: the fields every hop reads and
/// almost nothing writes fill the first two cache lines, and the counters
/// the allocating thread bumps per packet sit behind the padded stack, so
/// an adopt on another CPU never pulls a line the allocator writes. The
/// 128-byte alignment keeps those lines apart from the `Arc` counts in
/// front of the segment, which every allocation and last free write.
#[repr(C, align(128))]
pub(crate) struct ArenaSegment {
    id: u64,
    slab: Slab,
    slot_size: usize,
    capacity: usize,
    /// Live [`Arena`] mappings. Adopt refuses a descriptor once this is 0.
    /// `Relaxed` throughout: it publishes no data, it only says whether a
    /// packet is still wanted (the segment's memory is kept alive by the
    /// `Arc` count, not by this).
    mappings: AtomicUsize,
    /// Per-slot ownership: set while a handle or descriptor holds the
    /// slot; clear when it is on the stack or never issued.
    held: Box<[AtomicBool]>,
    /// Stack links: the slot below each slot on the free stack.
    next: Box<[AtomicU32]>,
    name: String,
    /// The free stack: every release pushes here.
    free: CachePadded<SlotStack>,
    /// Slots `fresh..capacity` have never been issued.
    fresh: AtomicUsize,
    // ---- counters ----
    allocs: AtomicU64,
    alloc_failures: AtomicU64,
    frees: AtomicU64,
    /// Releases of a slot nobody held or this segment never issued.
    foreign_frees: AtomicU64,
    /// Mutable-byte accesses to the slab (the zero-copy census probe).
    slab_writes: AtomicU64,
}

impl ArenaSegment {
    /// Slab offset of `slot`'s header: the headers follow the slots.
    fn header_at(&self, slot: u32) -> usize {
        self.capacity * self.slot_size + slot as usize * SlotHeader::SIZE
    }

    /// Issues the next never-used slot, if any remain.
    fn issue_fresh(&self) -> Option<u32> {
        self.fresh
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |f| {
                (f < self.capacity).then_some(f + 1)
            })
            .ok()
            .map(|f| f as u32)
    }

    /// Free stack plus never-issued slots. The stack is read first: a
    /// slot counted there was issued before the watermark read, so the sum
    /// never exceeds capacity.
    fn available(&self) -> usize {
        let free = self.free.len();
        free + (self.capacity - self.fresh.load(Ordering::Acquire))
    }

    fn take_slot(&self) -> Option<u32> {
        // A recycled slot before a fresh one, so a never-touched slot is
        // issued only when every issued slot is held.
        let Some(slot) = self.free.pop(&self.next).or_else(|| self.issue_fresh()) else {
            self.alloc_failures.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        self.allocs.fetch_add(1, Ordering::Relaxed);
        self.held[slot as usize].store(true, Ordering::Release);
        Some(slot)
    }
}

impl Drop for ArenaSegment {
    fn drop(&mut self) {
        segment_table().remove(&self.id);
    }
}

/// Counter snapshot of one arena segment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    pub capacity: usize,
    pub slot_size: usize,
    /// Slots allocatable: on the free stack or never issued.
    pub available: usize,
    /// Slots in flight: `allocs - frees`.
    pub in_use: usize,
    /// Slots ever issued. A never-used slot is issued only when the free
    /// stack is empty, so this is the most slots ever held at once (give
    /// or take a free racing that empty pop).
    pub high_water: usize,
    pub allocs: u64,
    pub alloc_failures: u64,
    pub frees: u64,
    /// Releases of a slot nobody held or this segment never issued (a
    /// double free through a stale or duplicated descriptor, cross-segment
    /// confusion) — must stay 0 in a healthy system.
    pub foreign_frees: u64,
    /// Always 0: slots are never shared, so nothing copies on write. Kept
    /// for readers that still report it.
    pub cow_copies: u64,
    /// Mutable-byte accesses to the slab since creation.
    pub slab_writes: u64,
}

/// A process-local mapping of an arena segment.
///
/// Clone is cheap; clones share the segment and each counts as a mapping.
/// Every mapping allocates from and frees to the segment's one free stack.
pub struct Arena {
    seg: Arc<ArenaSegment>,
}

impl Clone for Arena {
    fn clone(&self) -> Arena {
        self.seg.mappings.fetch_add(1, Ordering::Relaxed);
        Arena {
            seg: Arc::clone(&self.seg),
        }
    }
}

impl Drop for Arena {
    fn drop(&mut self) {
        self.seg.mappings.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Non-owning arena reference for registries (telemetry) that must not
/// keep a dead segment alive.
#[derive(Clone)]
pub struct WeakArena {
    seg: Weak<ArenaSegment>,
}

impl WeakArena {
    /// Upgrades to a live mapping, if the segment is still mapped: `None`
    /// once its last mapping is gone, even while handles or descriptors in
    /// flight keep the segment itself alive.
    pub fn upgrade(&self) -> Option<Arena> {
        let seg = self.seg.upgrade()?;
        seg.mappings
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n > 0).then_some(n + 1)
            })
            .ok()?;
        Some(Arena { seg })
    }
}

/// The process-wide segment table, locked. Every update is one insert or
/// one remove, so the map is whole even if a holder panicked; recovering
/// the guard keeps the drops that reach it (a segment's, an unadopted
/// descriptor's) from panicking in turn.
fn segment_table() -> MutexGuard<'static, HashMap<u64, Weak<ArenaSegment>>> {
    static TABLE: OnceLock<Mutex<HashMap<u64, Weak<ArenaSegment>>>> = OnceLock::new();
    TABLE
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// A process-unique segment id. It fills the upper half of a descriptor
/// token, so it must fit in 32 bits.
fn next_segment_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    let id = NEXT.fetch_add(1, Ordering::Relaxed);
    assert!(id <= u64::from(u32::MAX), "arena segment ids exhausted");
    id
}

/// The table's entry for `segment_id`. A descriptor's own reference keeps
/// its segment, and so this entry, alive.
fn lookup_segment(segment_id: u64) -> Option<Weak<ArenaSegment>> {
    segment_table().get(&segment_id).cloned()
}

/// Takes back the segment reference `desc` owns and rebinds the slot into
/// a handle — or refuses the descriptor, which the caller counts (a
/// channel in its `unmapped_drops`). The caller consumes `desc`: it is
/// forgotten or being dropped.
///
/// * The segment is no longer mapped: the slot is freed, the reference
///   dropped, the packet lost.
/// * The token's slot lies past the slab, or the slot's header puts the
///   packet outside the slot: the reference is dropped but the slot is not
///   released. A corrupt descriptor cannot be trusted, so the slot it names
///   (if any) stays held and shows up in the census instead of being freed
///   on a guess.
#[inline]
fn claim(seg: Option<&Weak<ArenaSegment>>, desc: &MbufDesc) -> Option<Mbuf> {
    let seg = seg?;
    // SAFETY: `desc` came from `into_desc`, which kept its handle's strong
    // reference instead of dropping it, so the allocation behind `seg` (the
    // `Weak` for `desc`'s segment id; ids are never reused) is live and this
    // takes that one reference back. It is taken once: a descriptor is
    // neither `Copy` nor `Clone`, and the caller consumes it.
    let seg = unsafe { Arc::from_raw(seg.as_ptr()) };
    let slot = desc.slot();
    let fits = (slot as usize) < seg.capacity && {
        // SAFETY: `desc` holds the slot, so no handle can be writing its
        // header.
        let header = unsafe { seg.slab.slice(seg.header_at(slot), SlotHeader::SIZE) };
        SlotHeader::load(header.try_into().unwrap()).fits(seg.slot_size)
    };
    if fits && seg.mappings.load(Ordering::Relaxed) > 0 {
        return Some(Mbuf { seg, slot });
    }
    if fits {
        release(&seg, slot);
    }
    None
}

/// Resolves a descriptor received from a ring into a live handle.
///
/// This is what a consumer does after dequeuing: look the segment up in the
/// process-wide segment table and rebind the offsets. Returns `None` when
/// the segment is no longer mapped, the packet-loss mode a real
/// unmap-under-traffic has, or when
/// the descriptor's slot and layout do not fit the segment.
///
/// Adopting consumes the descriptor, so its slot and segment reference
/// move into the one handle this returns.
///
/// The table sits behind a process-wide mutex; per-packet receivers adopt
/// through a [`Resolver`] instead, which consults it once per segment.
pub fn adopt(desc: MbufDesc) -> Option<Mbuf> {
    let desc = ManuallyDrop::new(desc);
    claim(lookup_segment(desc.segment_id()).as_ref(), &desc)
}

/// A receiver's own mapping table, the in-process form of a guest mapping
/// an ivshmem BAR once and then only doing offset arithmetic.
///
/// [`Resolver::adopt`] behaves exactly like [`adopt`], but resolves each
/// segment id through the global table only the first time it is seen;
/// after that a descriptor costs a scan of this table and no shared write:
/// the descriptor's own segment reference becomes the handle's. The table
/// holds `Weak`s so it never keeps a segment alive, and segment ids are
/// never reused, so a dead entry means that segment is gone for good.
#[derive(Default)]
pub struct Resolver {
    mapped: Vec<(u64, Weak<ArenaSegment>)>,
}

impl Resolver {
    /// [`adopt`] through this table.
    #[inline]
    pub fn adopt(&mut self, desc: MbufDesc) -> Option<Mbuf> {
        let desc = ManuallyDrop::new(desc);
        let id = desc.segment_id();
        if let Some((_, seg)) = self.mapped.iter().find(|(mapped, _)| *mapped == id) {
            return claim(Some(seg), &desc);
        }
        // Cold path: a segment this receiver has not mapped yet. Forget any
        // that have since been freed while here.
        self.mapped.retain(|(_, seg)| seg.strong_count() > 0);
        let seg = lookup_segment(id);
        if let Some(seg) = &seg {
            self.mapped.push((id, Weak::clone(seg)));
        }
        claim(seg.as_ref(), &desc)
    }
}

impl Arena {
    /// Creates a new segment of `capacity` slots of `slot_size` bytes and
    /// returns its first mapping. No slot or header is touched: all start
    /// behind the never-issued watermark, in one zero-filled allocation.
    pub fn new(name: impl Into<String>, capacity: usize, slot_size: usize) -> Arena {
        assert!(capacity > 0, "arena capacity must be positive");
        assert!(capacity < NIL as usize, "arena capacity exceeds slot index");
        assert!(slot_size > 0, "arena slot size must be positive");
        let seg = Arc::new(ArenaSegment {
            id: next_segment_id(),
            slab: Slab::new(capacity * (slot_size + SlotHeader::SIZE)),
            slot_size,
            capacity,
            mappings: AtomicUsize::new(1),
            held: (0..capacity).map(|_| AtomicBool::new(false)).collect(),
            next: (0..capacity).map(|_| AtomicU32::new(NIL)).collect(),
            name: name.into(),
            free: CachePadded::new(SlotStack::new()),
            fresh: AtomicUsize::new(0),
            allocs: AtomicU64::new(0),
            alloc_failures: AtomicU64::new(0),
            frees: AtomicU64::new(0),
            foreign_frees: AtomicU64::new(0),
            slab_writes: AtomicU64::new(0),
        });
        segment_table().insert(seg.id, Arc::downgrade(&seg));
        Arena { seg }
    }

    /// Non-owning reference for registries.
    pub fn weak(&self) -> WeakArena {
        WeakArena {
            seg: Arc::downgrade(&self.seg),
        }
    }

    /// The process-wide private segment: [`DEFAULT_BUF_SIZE`] slots of
    /// `DEFAULT_BUF_SIZE` bytes, where a packet is made when no shared arena
    /// is mapped (`Mbuf::from_slice`, a flood copy, a packet-out, the NIC
    /// generator). Created on first use and never unmapped, so its
    /// descriptors always adopt; no pool registry lists it.
    pub fn private() -> &'static Arena {
        static PRIVATE: OnceLock<Arena> = OnceLock::new();
        PRIVATE.get_or_init(|| Arena::new("private", DEFAULT_BUF_SIZE, DEFAULT_BUF_SIZE))
    }

    /// Allocates one empty mbuf with standard headroom, or `None` when the
    /// segment is exhausted.
    pub fn alloc(&self) -> Option<Mbuf> {
        self.alloc_len(0)
    }

    /// Allocates and copies `data` into the slot — the single legitimate
    /// slab write of a packet's life on a zero-copy chain (generator
    /// ingress / NIC rx). `None` when the segment is exhausted or `data`
    /// does not fit behind a slot's headroom.
    pub fn alloc_from(&self, data: &[u8]) -> Option<Mbuf> {
        let mut m = self.alloc_len(data.len())?;
        m.data_mut().copy_from_slice(data);
        Some(m)
    }

    /// A slot holding a `len`-byte packet behind the standard headroom
    /// (capped for tiny test slots); a packet that cannot fit takes none.
    fn alloc_len(&self, len: usize) -> Option<Mbuf> {
        let header = SlotHeader {
            data_off: MBUF_HEADROOM.min(self.seg.slot_size / 2) as u32,
            len: u32::try_from(len).ok()?,
            ..SlotHeader::default()
        };
        if !header.fits(self.seg.slot_size) {
            return None;
        }
        let mut m = Mbuf {
            seg: Arc::clone(&self.seg),
            slot: self.seg.take_slot()?,
        };
        m.set_header(header);
        Some(m)
    }

    /// Segment name.
    pub fn name(&self) -> &str {
        &self.seg.name
    }

    /// Globally unique segment id (what descriptors carry).
    pub fn segment_id(&self) -> u64 {
        self.seg.id
    }

    /// Total slots.
    pub fn capacity(&self) -> usize {
        self.seg.capacity
    }

    /// Bytes per slot.
    pub fn slot_size(&self) -> usize {
        self.seg.slot_size
    }

    /// Slots allocatable: on the free stack or never issued.
    pub fn available(&self) -> usize {
        self.seg.available()
    }

    /// Always 0: every free lands on the one free stack, so no slot waits
    /// to be reclaimed. Kept for readers that still report it (ROADMAP
    /// item 10).
    pub fn credit_pending(&self) -> usize {
        0
    }

    /// Slots currently in flight: `allocs - frees`.
    pub fn in_use(&self) -> usize {
        self.stats().in_use
    }

    /// Counter snapshot. `frees` is read before `allocs`, and `in_use` is
    /// their saturating difference, so a free racing the reads cannot
    /// make it negative.
    pub fn stats(&self) -> ArenaStats {
        let s = &self.seg;
        let frees = s.frees.load(Ordering::Relaxed);
        let allocs = s.allocs.load(Ordering::Relaxed);
        ArenaStats {
            capacity: s.capacity,
            slot_size: s.slot_size,
            available: s.available(),
            in_use: allocs.saturating_sub(frees) as usize,
            high_water: s.fresh.load(Ordering::Relaxed),
            allocs,
            alloc_failures: s.alloc_failures.load(Ordering::Relaxed),
            frees,
            foreign_frees: s.foreign_frees.load(Ordering::Relaxed),
            cow_copies: 0,
            slab_writes: s.slab_writes.load(Ordering::Relaxed),
        }
    }

    /// Zero-leak census, from two independent sources that must agree:
    /// the counters (`allocs == frees`, no foreign free) and the free
    /// stack (every slot on it or never issued).
    pub fn census_clean(&self) -> bool {
        let s = self.stats();
        s.in_use == 0 && s.foreign_frees == 0 && s.available == s.capacity
    }
}

impl std::fmt::Debug for Arena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Arena")
            .field("name", &self.seg.name)
            .field("id", &self.seg.id)
            .field("capacity", &self.seg.capacity)
            .field("available", &self.available())
            .finish()
    }
}

/// A packet: the handle of the one arena slot it lives in — its segment
/// and the slot index, 16 bytes. The packet's
/// layout and metadata live in the slot's [`SlotHeader`]. It moves; it is
/// never cloned, so the slot has exactly one holder until the handle is
/// dropped, which returns the slot like `rte_pktmbuf_free`. This is the
/// slab side of the type; [`crate::mbuf`] holds its `rte_mbuf` API.
pub struct Mbuf {
    seg: Arc<ArenaSegment>,
    slot: u32,
}

impl Mbuf {
    fn slot_base(&self) -> usize {
        self.slot as usize * self.seg.slot_size
    }

    /// Slab bytes `start..start + len`, inside this slot or its header.
    fn bytes(&self, start: usize, len: usize) -> &[u8] {
        // SAFETY: this handle is the slot's only owner, so the only `&mut`
        // to these bytes would need `&mut self`, which `&self` excludes.
        unsafe { self.seg.slab.slice(start, len) }
    }

    /// Mutable slab bytes `start..start + len`, inside this slot or its
    /// header. Not counted: callers that write packet bytes count.
    fn bytes_mut(&mut self, start: usize, len: usize) -> &mut [u8] {
        // SAFETY: the slot's only owner, held through `&mut` — exclusive.
        unsafe { self.seg.slab.slice_mut(start, len) }
    }

    /// Converts the handle into its ring descriptor *without* releasing the
    /// slot: ownership moves into the token, to be resurrected by [`adopt`]
    /// on the other side. This is the descriptor-only enqueue; the header
    /// stays in the slot, so nothing else is copied.
    ///
    /// The handle's segment reference moves too: the handle is forgotten,
    /// not dropped, so its `Arc` count stays with the descriptor and
    /// adopt takes it back — no reference count is written per hop.
    #[inline]
    pub fn into_desc(self) -> MbufDesc {
        let this = ManuallyDrop::new(self);
        MbufDesc(this.seg.id << 32 | u64::from(this.slot))
    }

    /// The slot's header: the packet's layout and metadata.
    pub fn header(&self) -> SlotHeader {
        let at = self.seg.header_at(self.slot);
        SlotHeader::load(self.bytes(at, SlotHeader::SIZE).try_into().unwrap())
    }

    /// Rewrites the slot's header. The packet must lie inside the slot. A
    /// header write is not a slab write: it changes no packet byte.
    pub fn set_header(&mut self, header: SlotHeader) {
        assert!(
            header.fits(self.seg.slot_size),
            "mbuf layout {}+{} exceeds its {}-byte slot",
            header.data_off,
            header.len,
            self.seg.slot_size
        );
        let at = self.seg.header_at(self.slot);
        header.store(self.bytes_mut(at, SlotHeader::SIZE).try_into().unwrap());
    }

    /// Packet bytes.
    pub fn data(&self) -> &[u8] {
        let h = self.header();
        self.bytes(self.slot_base() + h.data_off as usize, h.len as usize)
    }

    /// Mutable packet bytes. Counted as a slab write.
    pub fn data_mut(&mut self) -> &mut [u8] {
        self.seg.slab_writes.fetch_add(1, Ordering::Relaxed);
        let h = self.header();
        self.bytes_mut(self.slot_base() + h.data_off as usize, h.len as usize)
    }

    /// The whole slot as mutable bytes. Counted as a slab write.
    pub(crate) fn slot_bytes_mut(&mut self) -> &mut [u8] {
        self.seg.slab_writes.fetch_add(1, Ordering::Relaxed);
        self.bytes_mut(self.slot_base(), self.seg.slot_size)
    }

    /// Bytes in the slot: headroom, packet and tailroom.
    pub(crate) fn room(&self) -> usize {
        self.seg.slot_size
    }

    /// Segment id (what the descriptor would carry).
    pub fn segment_id(&self) -> u64 {
        self.seg.id
    }

    /// Slot index (diagnostics).
    pub fn slot(&self) -> u32 {
        self.slot
    }
}

/// Returns `slot` to the free stack, clearing its `held` flag.
///
/// Releasing a slot nobody holds, or a slot past the segment's end, is
/// counted as a foreign free and leaves the stack alone: pushing it again
/// would link the slot into a cycle. In-process the types rule it out (a
/// descriptor is move-only); the guard stays for descriptors that a type
/// cannot guard, such as ones read out of shared memory. The `AcqRel` swap
/// pairs with the `Release` store that issued the slot, so the holder's
/// writes to the bytes happen before the slot can be issued again (the
/// stack's CASes publish them too).
fn release(seg: &ArenaSegment, slot: u32) {
    match seg.held.get(slot as usize) {
        Some(held) if held.swap(false, Ordering::AcqRel) => {
            seg.free.push(&seg.next, slot);
            seg.frees.fetch_add(1, Ordering::Relaxed);
        }
        _ => {
            seg.foreign_frees.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl Drop for Mbuf {
    fn drop(&mut self) {
        release(&self.seg, self.slot);
    }
}

impl std::fmt::Debug for Mbuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let h = self.header();
        f.debug_struct("Mbuf")
            .field("segment", &self.seg.id)
            .field("slot", &self.slot)
            .field("len", &h.len)
            .field("port", &h.port)
            .field("udata", &h.udata)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arena(cap: usize) -> Arena {
        Arena::new("t", cap, 512)
    }

    /// Writes a layout into `m`'s header without the fit check, the way a
    /// corrupt writer of shared memory could.
    fn corrupt_layout(m: &mut Mbuf, data_off: u32, len: u32) {
        let header = SlotHeader {
            data_off,
            len,
            ..m.header()
        };
        let at = m.seg.header_at(m.slot);
        header.store(m.bytes_mut(at, SlotHeader::SIZE).try_into().unwrap());
    }

    #[test]
    fn alloc_until_exhausted_then_free_recovers() {
        let a = arena(4);
        let bufs: Vec<_> = (0..4).map(|_| a.alloc().unwrap()).collect();
        assert_eq!(a.available(), 0);
        assert_eq!(a.in_use(), 4);
        assert!(a.alloc().is_none());
        assert_eq!(a.stats().alloc_failures, 1);
        drop(bufs);
        assert_eq!(a.available(), 4);
        assert!(a.census_clean());
        assert_eq!(a.stats().high_water, 4);
    }

    #[test]
    fn a_slot_freed_through_any_mapping_is_the_next_one_issued() {
        let a = arena(4);
        let guest = a.weak().upgrade().expect("mapped"); // a second mapping
        let (x, y) = (a.alloc().unwrap(), a.alloc().unwrap());
        let (sx, sy) = (x.slot(), y.slot());
        drop(y);
        drop(adopt(x.into_desc()).unwrap()); // freed through an adopted handle
        let m = a.alloc().unwrap();
        assert_eq!(m.slot(), sx, "the adopted handle's free went elsewhere");
        drop(guest.alloc().unwrap()); // slot `sy`, freed through the guest
        assert_eq!(a.alloc().unwrap().slot(), sy);
        let s = a.stats();
        assert_eq!((s.allocs, s.frees, s.in_use, s.high_water), (5, 4, 1, 2));
        drop(m);
        assert!(a.census_clean(), "census: {:?}", a.stats());
    }

    #[test]
    fn descriptor_roundtrip_preserves_bytes_and_metadata() {
        let a = arena(2);
        let mut m = a.alloc_from(&[7, 8, 9]).unwrap();
        let header = SlotHeader {
            port: 5,
            udata: 0xfeed,
            timestamp: 77,
            ..m.header()
        };
        m.set_header(header);
        let desc = m.into_desc();
        assert_eq!((desc.segment_id(), desc.slot()), (a.segment_id(), 0));
        let got = adopt(desc).unwrap();
        assert_eq!(got.data(), &[7, 8, 9]);
        assert_eq!(got.header(), header);
        assert_eq!(a.in_use(), 1, "descriptor held the slot");
        // The slot comes back with a fresh header, not the last holder's.
        drop(got);
        let again = a.alloc().unwrap();
        assert_eq!(again.slot(), 0);
        let fresh = SlotHeader {
            data_off: MBUF_HEADROOM as u32,
            ..SlotHeader::default()
        };
        assert_eq!(again.header(), fresh);
    }

    #[test]
    fn adopt_after_segment_teardown_fails_cleanly() {
        let a = arena(2);
        let desc = a.alloc().unwrap().into_desc();
        drop(a); // segment gone: Weak in the table dies
        assert!(adopt(desc).is_none());
    }

    #[test]
    fn a_descriptor_outside_its_segment_does_not_adopt() {
        // 64 B slots: a header with data_off 32 and len 72 would read into
        // the next slot; a token naming slot 8 of an 8-slot segment would
        // read past the slab. Each corrupt descriptor is a genuine one with
        // its header or token rewritten, so it still owns its segment
        // reference.
        let a = Arena::new("bounds", 8, 64);
        let mut resolver = Resolver::default();
        let genuine = || a.alloc_from(&[1; 16]).unwrap();
        let past_slot = || {
            let mut m = genuine();
            corrupt_layout(&mut m, 32, 72);
            m.into_desc()
        };
        let past_slab = || {
            let mut d = genuine().into_desc();
            d.0 = d.0 & !u64::from(u32::MAX) | 8;
            d
        };
        assert!(adopt(past_slot()).is_none());
        assert!(resolver.adopt(past_slot()).is_none());
        assert!(adopt(past_slab()).is_none());
        assert!(resolver.adopt(past_slab()).is_none());
        // A token naming a segment never made holds no reference: refused,
        // and nothing else moves.
        let unknown = || MbufDesc(u64::from(u32::MAX) << 32);
        assert!(adopt(unknown()).is_none());
        assert!(resolver.adopt(unknown()).is_none());
        let mut edge = genuine();
        corrupt_layout(&mut edge, 32, 32);
        assert_eq!(
            resolver
                .adopt(edge.into_desc())
                .expect("fits exactly")
                .len(),
            32
        );
        // Each refusal left its slot held but gave its reference back.
        let s = a.stats();
        assert_eq!((s.foreign_frees, s.in_use), (0, 4), "census: {s:?}");
        assert_eq!(
            Arc::strong_count(&a.seg),
            1,
            "a refused descriptor leaked its reference"
        );
    }

    #[test]
    fn a_rejected_descriptor_leaves_its_slot_held() {
        let a = arena(2);
        let mut m = a.alloc_from(&[1]).unwrap();
        corrupt_layout(&mut m, 0, 1024);
        let desc = m.into_desc();
        let slot = desc.slot();
        assert!(adopt(desc).is_none());
        assert_eq!(a.in_use(), 1, "nothing released on a corrupt descriptor");
        assert_eq!(Arc::strong_count(&a.seg), 1, "its reference is dropped");
        assert!(!a.census_clean());
        // Still held, so releasing it now is no foreign free.
        release(&a.seg, slot);
        assert!(a.census_clean());
    }

    #[test]
    fn a_hop_moves_the_reference_it_does_not_count_it() {
        let a = arena(4);
        let mut r = Resolver::default();
        let mut m = a.alloc_from(&[5]).unwrap();
        let strong = Arc::strong_count(&a.seg); // the owner mapping + the handle
        assert_eq!(strong, 2);
        m = r.adopt(m.into_desc()).unwrap(); // the cold path maps the segment
        let weak = Arc::weak_count(&a.seg);
        for _ in 0..3 {
            let desc = m.into_desc();
            assert_eq!(Arc::strong_count(&a.seg), strong, "the descriptor holds it");
            m = r.adopt(desc).unwrap();
            assert_eq!(Arc::strong_count(&a.seg), strong);
            assert_eq!(Arc::weak_count(&a.seg), weak, "a warm hop maps nothing");
        }
        assert_eq!(m.data(), &[5]);
        drop(m);
        assert_eq!(Arc::strong_count(&a.seg), 1);
        assert!(a.census_clean());
    }

    #[test]
    fn an_unmapped_segment_lives_until_its_last_descriptor_is_gone() {
        let a = arena(8);
        let (id, weak, seg) = (a.segment_id(), a.weak(), Arc::downgrade(&a.seg));
        let (mut tx, mut rx) = crate::spsc_ring::<MbufDesc>(8);
        for i in 0u8..3 {
            tx.enqueue(a.alloc_from(&[i]).unwrap().into_desc()).unwrap();
        }
        let mut r = Resolver::default();
        drop(a); // the owner mapping goes with three descriptors queued
        assert!(weak.upgrade().is_none(), "no mapping is left");
        assert_eq!(seg.strong_count(), 3, "the descriptors keep the segment");
        // A receiver refuses what it dequeues, freeing each slot.
        let mut unmapped_drops = 0;
        for _ in 0..2 {
            unmapped_drops += u32::from(r.adopt(rx.dequeue().unwrap()).is_none());
        }
        assert_eq!(unmapped_drops, 2);
        let live = seg.upgrade().unwrap();
        let (allocs, frees) = (
            live.allocs.load(Ordering::Relaxed),
            live.frees.load(Ordering::Relaxed),
        );
        assert_eq!((allocs - frees, frees), (1, 2), "(in use, frees)");
        drop(live);
        // The ring dies with the last descriptor still queued.
        drop((tx, rx));
        assert_eq!(seg.strong_count(), 0, "freed with its last descriptor");
        assert!(
            !segment_table().contains_key(&id),
            "the segment table still names it"
        );
    }

    #[test]
    fn slab_writes_count_only_mutable_access() {
        let a = arena(2);
        let m = a.alloc_from(&[1, 2, 3]).unwrap(); // 1 write (ingress copy)
        assert_eq!(a.stats().slab_writes, 1);
        let _ = (m.data(), m.header()); // reads are free
        assert_eq!(a.stats().slab_writes, 1);
    }

    #[test]
    fn cross_thread_descriptor_handoff() {
        let a = arena(64);
        let (tx, rx) = std::sync::mpsc::channel::<MbufDesc>();
        let t = std::thread::spawn(move || {
            let mut sum = 0u64;
            for desc in rx {
                let m = adopt(desc).unwrap();
                sum += m.data()[0] as u64;
            }
            sum
        });
        for i in 0..1000u64 {
            let m = loop {
                match a.alloc_from(&[(i % 251) as u8]) {
                    Some(m) => break m,
                    None => std::thread::yield_now(),
                }
            };
            tx.send(m.into_desc()).unwrap();
        }
        drop(tx);
        let sum = t.join().unwrap();
        assert_eq!(sum, (0..1000u64).map(|i| i % 251).sum::<u64>());
        assert!(a.census_clean());
    }

    #[test]
    fn a_second_release_of_one_slot_is_a_foreign_free() {
        // A descriptor cannot be duplicated any more; the guard stays for
        // descriptors no type can guard. Release one slot twice, and one
        // past the end.
        let a = arena(4);
        let slot = a.seg.take_slot().unwrap();
        release(&a.seg, slot);
        release(&a.seg, slot);
        release(&a.seg, 4);
        let s = a.stats();
        assert_eq!(s.foreign_frees, 2);
        assert_eq!(s.in_use, 0);
        assert_eq!(s.available, 4, "slot returned once");
        let live: Vec<_> = (0..4).map(|_| a.alloc().expect("no slot lost")).collect();
        let mut slots: Vec<u32> = live.iter().map(Mbuf::slot).collect();
        slots.sort_unstable();
        slots.dedup();
        assert_eq!(slots.len(), 4, "a slot was issued twice: {slots:?}");
        assert!(a.alloc().is_none());
    }

    #[test]
    fn a_new_arena_issues_nothing_and_is_census_clean() {
        let a = Arena::new("lazy", 16_384, 256);
        assert_eq!(a.available(), a.capacity());
        assert!(a.census_clean());
        assert_eq!(a.stats().allocs, 0);
    }

    #[test]
    fn lifo_recycling_keeps_the_working_set_small() {
        let a = Arena::new("lifo", 16_384, 256);
        let mut consumer = Resolver::default();
        let mut issued = std::collections::HashSet::new();
        let mut burst = Vec::with_capacity(32);
        for _ in 0..10_000 {
            burst.extend((0..32).map(|_| a.alloc().unwrap().into_desc()));
            for desc in burst.drain(..) {
                issued.insert(desc.slot());
                drop(consumer.adopt(desc).unwrap()); // an adopted handle's free
            }
        }
        assert_eq!(issued.len(), 32, "distinct slots for 32 in flight");
        let s = a.stats();
        assert_eq!((s.allocs, s.frees, s.high_water), (320_000, 320_000, 32));
        assert!(a.census_clean(), "census: {s:?}");
    }

    #[test]
    fn resolver_maps_each_segment_once_and_holds_none_alive() {
        let (x, y) = (arena(4), arena(4));
        let mut r = Resolver::default();
        for from in [&x, &y, &x, &y] {
            let m = r.adopt(from.alloc_from(&[7]).unwrap().into_desc()).unwrap();
            assert_eq!((m.segment_id(), m.data()), (from.segment_id(), &[7][..]));
        }
        assert_eq!(r.mapped.len(), 2);
        let (weak_x, desc) = (x.weak(), x.alloc().unwrap().into_desc());
        drop(x);
        assert!(weak_x.upgrade().is_none(), "the resolver kept x alive");
        assert!(r.adopt(desc).is_none(), "a dead segment adopts to None");
        assert!(y.census_clean());
    }
}
