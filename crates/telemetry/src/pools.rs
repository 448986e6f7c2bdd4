//! Buffer-pool telemetry.
//!
//! Arenas register weakly here ([`register_arena`]); [`snapshot_pools`]
//! walks the registry, prunes dead arenas, and returns one [`PoolStats`]
//! row per live one — the data behind the `pmd-stats-show` arena section
//! and the `highway_pool_*` Prometheus series. An arena's exceptional
//! events are its own counters (`alloc_failures`, `foreign_frees`); a
//! descriptor that does not adopt is counted by the channel that dropped
//! it (`unmapped_drops`).

use dpdk_sim::{Arena, WeakArena};
use parking_lot::Mutex;
use std::sync::OnceLock;

/// Point-in-time counters of one registered arena.
#[derive(Debug, Clone)]
pub struct PoolStats {
    pub name: String,
    pub capacity: usize,
    /// Slots immediately allocatable: on the free stack or never issued.
    pub available: usize,
    /// `allocs - frees`.
    pub in_use: usize,
    /// Slots ever issued: the most held at once.
    pub high_water: usize,
    pub allocs: u64,
    pub alloc_failures: u64,
    pub frees: u64,
    pub foreign_frees: u64,
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
                slab_writes: s.slab_writes,
            });
            true
        }
        None => false,
    });
    out
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
}
