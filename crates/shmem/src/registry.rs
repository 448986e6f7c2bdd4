//! Host-side table of named shared-memory segments.
//!
//! The prototype backs dpdkr rings and bypass channels with hugepage
//! segments that QEMU maps into guests. This registry models the host's
//! bookkeeping of those segments so the compute agent, tests and examples
//! can observe lifecycle: a bypass setup *creates* a segment, a teardown
//! *releases* it, and leaks are detectable.

use crate::channel::{channel, ChannelEnd};
use dpdk_sim::Arena;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What a segment backs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentKind {
    /// The normal channel of a dpdkr port (VM ↔ vSwitch).
    DpdkrNormal,
    /// A bypass channel between two VMs.
    Bypass,
    /// The shared statistics region.
    Stats,
    /// The hugepage mbuf arena packets are allocated from.
    Arena,
}

/// Registry record describing one live segment.
#[derive(Debug, Clone)]
pub struct SegmentRecord {
    pub name: String,
    pub kind: SegmentKind,
    /// Ring depth per direction.
    pub depth: usize,
    /// Monotonic creation stamp (for ordering in tests/diagnostics).
    pub created_seq: u64,
}

#[derive(Default)]
struct RegistryInner {
    segments: HashMap<String, SegmentRecord>,
    created: u64,
    released: u64,
    /// Lazily created host-wide packet arena (see
    /// [`ShmRegistry::hugepage_arena`]).
    arena: Option<Arena>,
}

/// Slots in the host-wide hugepage arena. Sized well above the sum of all
/// ring depths a test topology creates, so the packets queued on its rings
/// never starve generators.
pub const DEFAULT_ARENA_SLOTS: usize = 16384;

/// The host's shared-memory segment registry. Clone is cheap and shares
/// state.
#[derive(Clone, Default)]
pub struct ShmRegistry {
    inner: Arc<Mutex<RegistryInner>>,
    seq: Arc<AtomicU64>,
}

impl ShmRegistry {
    /// Creates an empty registry.
    pub fn new() -> ShmRegistry {
        ShmRegistry::default()
    }

    /// Allocates a named segment backing a packet channel and returns its
    /// two endpoints. Panics if the name is already live (names are chosen
    /// by the single compute agent, so a collision is a logic error).
    pub fn create_channel(
        &self,
        name: impl Into<String>,
        kind: SegmentKind,
        depth: usize,
    ) -> (ChannelEnd, ChannelEnd) {
        let name = name.into();
        let mut inner = self.inner.lock();
        assert!(
            !inner.segments.contains_key(&name),
            "segment name collision: {name}"
        );
        let record = SegmentRecord {
            name: name.clone(),
            kind,
            depth,
            created_seq: self.seq.fetch_add(1, Ordering::Relaxed),
        };
        inner.segments.insert(name.clone(), record);
        inner.created += 1;
        channel(name, depth)
    }

    /// Releases a named segment. Returns `true` if it was live.
    ///
    /// Releasing only removes the bookkeeping entry; the rings themselves
    /// are freed when the last [`ChannelEnd`] drops, mirroring how a real
    /// hugepage segment outlives its unlink until unmapped.
    pub fn release(&self, name: &str) -> bool {
        let mut inner = self.inner.lock();
        let was = inner.segments.remove(name).is_some();
        if was {
            inner.released += 1;
        }
        was
    }

    /// Record for a live segment, if any.
    pub fn get(&self, name: &str) -> Option<SegmentRecord> {
        self.inner.lock().segments.get(name).cloned()
    }

    /// All live segments of a given kind.
    pub fn live_of_kind(&self, kind: SegmentKind) -> Vec<SegmentRecord> {
        let mut v: Vec<_> = self
            .inner
            .lock()
            .segments
            .values()
            .filter(|r| r.kind == kind)
            .cloned()
            .collect();
        v.sort_by_key(|r| r.created_seq);
        v
    }

    /// The host-wide packet arena, created lazily on first use: one
    /// hugepage segment every VM's ivshmem device maps, so descriptors are
    /// valid end to end. Registered as a [`SegmentKind::Arena`] segment and
    /// with the telemetry pool registry. Returns a mapping of it; a guest's
    /// mapping is another clone (`DeviceBoard::set_arena`).
    pub fn hugepage_arena(&self) -> Arena {
        let mut inner = self.inner.lock();
        if let Some(arena) = &inner.arena {
            return arena.clone();
        }
        let name = "hugepage-arena";
        let arena = Arena::new(name, DEFAULT_ARENA_SLOTS, dpdk_sim::DEFAULT_BUF_SIZE);
        telemetry::pools::register_arena(&arena);
        let record = SegmentRecord {
            name: name.to_string(),
            kind: SegmentKind::Arena,
            depth: DEFAULT_ARENA_SLOTS,
            created_seq: self.seq.fetch_add(1, Ordering::Relaxed),
        };
        inner.segments.insert(name.to_string(), record);
        inner.created += 1;
        inner.arena = Some(arena.clone());
        arena
    }

    /// Number of live segments.
    pub fn live_count(&self) -> usize {
        self.inner.lock().segments.len()
    }

    /// Total segments ever created / released.
    pub fn totals(&self) -> (u64, u64) {
        let inner = self.inner.lock();
        (inner.created, inner.released)
    }
}

impl std::fmt::Debug for ShmRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("ShmRegistry")
            .field("live", &inner.segments.len())
            .field("created", &inner.created)
            .field("released", &inner.released)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpdk_sim::Mbuf;

    #[test]
    fn create_use_release() {
        let reg = ShmRegistry::new();
        let (mut a, mut b) = reg.create_channel("bypass-1-2", SegmentKind::Bypass, 8);
        assert_eq!(reg.live_count(), 1);
        a.send(Mbuf::from_slice(&[7])).unwrap();
        assert_eq!(b.recv().unwrap().data(), &[7]);
        assert!(reg.release("bypass-1-2"));
        assert!(!reg.release("bypass-1-2"));
        assert_eq!(reg.live_count(), 0);
        assert_eq!(reg.totals(), (1, 1));
        // Endpoints keep working until dropped, like an unlinked mapping.
        a.send(Mbuf::from_slice(&[8])).unwrap();
        assert_eq!(b.recv().unwrap().data(), &[8]);
    }

    #[test]
    #[should_panic(expected = "name collision")]
    fn duplicate_name_panics() {
        let reg = ShmRegistry::new();
        let _ab = reg.create_channel("x", SegmentKind::DpdkrNormal, 4);
        let _cd = reg.create_channel("x", SegmentKind::Bypass, 4);
    }

    #[test]
    fn kind_filtering_and_ordering() {
        let reg = ShmRegistry::new();
        let _a = reg.create_channel("n0", SegmentKind::DpdkrNormal, 4);
        let _b = reg.create_channel("by0", SegmentKind::Bypass, 4);
        let _c = reg.create_channel("by1", SegmentKind::Bypass, 4);
        let bypass = reg.live_of_kind(SegmentKind::Bypass);
        assert_eq!(bypass.len(), 2);
        assert_eq!(bypass[0].name, "by0");
        assert_eq!(bypass[1].name, "by1");
        assert_eq!(reg.live_of_kind(SegmentKind::Stats).len(), 0);
    }

    #[test]
    fn hugepage_arena_is_created_once_and_registered() {
        let reg = ShmRegistry::new();
        let a1 = reg.hugepage_arena();
        let a2 = reg.hugepage_arena();
        assert_eq!(a1.segment_id(), a2.segment_id(), "one segment per host");
        assert_eq!(reg.live_of_kind(SegmentKind::Arena).len(), 1);
        // Descriptors allocated through one clone adopt through the other.
        let m = a1.alloc_from(&[3, 4]).unwrap();
        let got = dpdk_sim::arena::adopt(m.into_desc()).unwrap();
        assert_eq!(got.data(), &[3, 4]);
    }
}
