//! Buffer-pool and doorbell telemetry.
//!
//! Arenas register weakly here ([`register_arena`]); [`snapshot_pools`]
//! walks the registry, prunes dead arenas, and returns one [`PoolStats`]
//! row per live one — the data behind the `pmd-stats-show` arena section
//! and the `highway_pool_*` Prometheus series. Doorbells (batched ring
//! notifications in `shmem`) report their ring/suppress counts into
//! process-wide totals ([`note_doorbell_ring`] /
//! [`note_doorbell_suppressed`]), from which the coalescing ratio —
//! packets-per-notification — is derived.
//!
//! [`install_event_bridge`] closes the layering gap downward: `dpdk-sim`
//! sits below this crate, so its exceptional-path events (alloc failures,
//! foreign frees, rejected descriptors) are emitted through
//! `dpdk_sim::events` and forwarded here into
//! [`crate::coverage`](mod@crate::coverage) counters.

use dpdk_sim::{Arena, WeakArena};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Point-in-time counters of one registered arena.
#[derive(Debug, Clone)]
pub struct PoolStats {
    pub name: String,
    pub capacity: usize,
    /// Slots immediately allocatable: freelist plus never-issued slots
    /// (excludes unreclaimed credits).
    pub available: usize,
    pub in_use: usize,
    /// Highest `in_use` ever observed.
    pub high_water: usize,
    pub allocs: u64,
    pub alloc_failures: u64,
    pub frees: u64,
    pub foreign_frees: u64,
    /// Frees routed through the credit-return stack.
    pub credit_returns: u64,
    /// Credits the owner folded back into the freelist.
    pub credits_reclaimed: u64,
    /// Mutable-byte accesses to the slab.
    pub slab_writes: u64,
}

fn registry() -> &'static Mutex<Vec<WeakArena>> {
    static REG: OnceLock<Mutex<Vec<WeakArena>>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(Vec::new()))
}

/// Registers an arena for inclusion in [`snapshot_pools`]. The registry
/// holds only a weak reference; dropped arenas are pruned on snapshot.
pub fn register_arena(arena: &Arena) {
    registry().lock().push(arena.weak());
}

/// Snapshots every live registered arena, pruning dead entries.
pub fn snapshot_pools() -> Vec<PoolStats> {
    let mut reg = registry().lock();
    let mut out = Vec::with_capacity(reg.len());
    reg.retain(|w| match w.upgrade() {
        Some(arena) => {
            let s = arena.stats();
            out.push(PoolStats {
                name: arena.name().to_string(),
                capacity: s.capacity,
                available: s.available,
                in_use: s.in_use,
                high_water: s.high_water,
                allocs: s.allocs,
                alloc_failures: s.alloc_failures,
                frees: s.frees,
                foreign_frees: s.foreign_frees,
                credit_returns: s.credit_returns,
                credits_reclaimed: s.credits_reclaimed,
                slab_writes: s.slab_writes,
            });
            true
        }
        None => false,
    });
    out
}

// ---- doorbell totals -------------------------------------------------------

static DOORBELL_RINGS: AtomicU64 = AtomicU64::new(0);
static DOORBELL_NOTIFIED_PKTS: AtomicU64 = AtomicU64::new(0);
static DOORBELL_SUPPRESSED: AtomicU64 = AtomicU64::new(0);

/// Process-wide doorbell counters (all channels merged).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DoorbellTotals {
    /// Actual notifications delivered.
    pub rings: u64,
    /// Packets covered by those notifications.
    pub notified_pkts: u64,
    /// Per-packet notifications elided by batching.
    pub suppressed: u64,
}

impl DoorbellTotals {
    /// Packets per delivered notification (the batching win); 0 when no
    /// doorbell has rung yet.
    pub fn coalescing_ratio(&self) -> f64 {
        if self.rings == 0 {
            0.0
        } else {
            self.notified_pkts as f64 / self.rings as f64
        }
    }
}

/// Records one delivered doorbell covering `pkts` packets.
pub fn note_doorbell_ring(pkts: u64) {
    DOORBELL_RINGS.fetch_add(1, Ordering::Relaxed);
    DOORBELL_NOTIFIED_PKTS.fetch_add(pkts, Ordering::Relaxed);
}

/// Records `n` per-packet notifications elided by batching.
pub fn note_doorbell_suppressed(n: u64) {
    DOORBELL_SUPPRESSED.fetch_add(n, Ordering::Relaxed);
}

/// Current process-wide doorbell totals.
pub fn doorbell_totals() -> DoorbellTotals {
    DoorbellTotals {
        rings: DOORBELL_RINGS.load(Ordering::Relaxed),
        notified_pkts: DOORBELL_NOTIFIED_PKTS.load(Ordering::Relaxed),
        suppressed: DOORBELL_SUPPRESSED.load(Ordering::Relaxed),
    }
}

// ---- dpdk event bridge -----------------------------------------------------

fn event_bridge(name: &'static str, n: u64) {
    crate::coverage::add(name, n);
}

/// Installs the `dpdk_sim::events` → [`crate::coverage`](mod@crate::coverage)
/// bridge, so
/// exceptional pool events ("arena_alloc_failure", "arena_foreign_free",
/// "arena_adopt_failure") show up as coverage counters. Idempotent —
/// the hook is first-set-wins and this always offers the same function.
pub fn install_event_bridge() {
    dpdk_sim::events::set_event_hook(event_bridge);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_snapshots_live_pools_and_prunes_dead() {
        let arena = Arena::new("arena-snap-live", 8, 512);
        register_arena(&arena);
        let _held = arena.alloc().unwrap();

        let rows = snapshot_pools();
        let a = rows.iter().find(|r| r.name == "arena-snap-live").unwrap();
        assert_eq!((a.capacity, a.available, a.in_use), (8, 7, 1));
        assert_eq!((a.high_water, a.allocs, a.slab_writes), (1, 1, 0));

        drop((arena, _held));
        let rows = snapshot_pools();
        assert!(rows.iter().all(|r| r.name != "arena-snap-live"));
    }

    #[test]
    fn doorbell_totals_accumulate_and_derive_ratio() {
        let before = doorbell_totals();
        note_doorbell_ring(32);
        note_doorbell_ring(16);
        note_doorbell_suppressed(46);
        let after = doorbell_totals();
        assert_eq!(after.rings, before.rings + 2);
        assert_eq!(after.notified_pkts, before.notified_pkts + 48);
        assert_eq!(after.suppressed, before.suppressed + 46);
        assert!(after.coalescing_ratio() > 0.0);
    }

    #[test]
    fn event_bridge_forwards_dpdk_events_to_coverage() {
        install_event_bridge();
        let before = crate::coverage::total("arena_alloc_failure");
        // Exhaust a 1-slot arena: the failure emits through the hook.
        let arena = Arena::new("bridge-test", 1, 64);
        let _held = arena.alloc().unwrap();
        assert!(arena.alloc().is_none());
        assert_eq!(crate::coverage::total("arena_alloc_failure"), before + 1);
    }
}
