//! Exact-match cache (EMC).
//!
//! The first-level lookup of the OVS-DPDK datapath: a small per-PMD hash
//! table from `(in_port, full flow key)`, packed into four words (see
//! [`PackedKey`]), to the rule that handled the last packet of that flow.
//! Entries are validated against the flow table generation, so any table
//! change invalidates the whole cache at zero cost.

use crate::table::RuleEntry;
use packet_wire::PackedKey;
use std::collections::HashMap;
use std::sync::Arc;

/// Default EMC capacity, matching OVS's `EM_FLOW_HASH_ENTRIES` (8192).
pub const DEFAULT_EMC_ENTRIES: usize = 8192;

struct EmcEntry {
    generation: u64,
    rule: Arc<RuleEntry>,
}

/// A per-PMD exact-match cache.
pub struct Emc {
    map: HashMap<PackedKey, EmcEntry>,
    capacity: usize,
    hits: u64,
    misses: u64,
}

impl Emc {
    /// Creates a cache bounded to `capacity` flows.
    pub fn new(capacity: usize) -> Emc {
        Emc {
            map: HashMap::with_capacity(capacity.min(1024)),
            capacity,
            hits: 0,
            misses: 0,
        }
    }

    /// Looks up a flow (its key packed with its in-port); only entries
    /// from `generation` are valid.
    pub fn lookup(&mut self, key: &PackedKey, generation: u64) -> Option<Arc<RuleEntry>> {
        match self.map.get(key) {
            Some(e) if e.generation == generation => {
                self.hits += 1;
                Some(Arc::clone(&e.rule))
            }
            _ => {
                self.misses += 1;
                None
            }
        }
    }

    /// Installs a flow → rule binding for `generation`. A capacity of 0
    /// disables the tier entirely (inserts are no-ops, lookups miss).
    pub fn insert(&mut self, key: PackedKey, rule: Arc<RuleEntry>, generation: u64) {
        if self.capacity == 0 {
            return;
        }
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            // Cheap eviction: drop stale entries; if none are stale, clear.
            // (Real OVS probabilistically replaces; the effect — bounded
            // memory, occasional re-classification — is the same.)
            telemetry::coverage!("emc_evict");
            self.map.retain(|_, e| e.generation == generation);
            if self.map.len() >= self.capacity {
                self.map.clear();
            }
        }
        telemetry::coverage!("emc_insert");
        self.map.insert(key, EmcEntry { generation, rule });
    }

    /// `(hits, misses)` since creation.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Entries currently cached (including stale ones awaiting reuse).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openflow::{Action, FlowMatch, PortNo};
    use packet_wire::FlowKey;
    use std::sync::atomic::AtomicU64;

    fn rule(id: u64) -> Arc<RuleEntry> {
        Arc::new(RuleEntry {
            id,
            fmatch: FlowMatch::any(),
            priority: 1,
            plan: crate::actions::OutputPlan::compile(&[Action::Output(PortNo(2))]),
            actions: vec![Action::Output(PortNo(2))],
            cookie: 0,
            idle_timeout: 0,
            hard_timeout: 0,
            added_at: 0,
            last_used: AtomicU64::new(0),
            n_packets: AtomicU64::new(0),
            n_bytes: AtomicU64::new(0),
        })
    }

    #[test]
    fn hit_after_insert_same_generation() {
        let mut emc = Emc::new(16);
        let key = FlowKey::default().pack(1);
        assert!(emc.lookup(&key, 0).is_none());
        emc.insert(key, rule(1), 0);
        assert_eq!(emc.lookup(&key, 0).unwrap().id, 1);
        assert_eq!(emc.stats(), (1, 1));
    }

    #[test]
    fn generation_change_invalidates() {
        let mut emc = Emc::new(16);
        let key = FlowKey::default().pack(1);
        emc.insert(key, rule(1), 0);
        assert!(emc.lookup(&key, 1).is_none());
        // Reinsert under the new generation works.
        emc.insert(key, rule(2), 1);
        assert_eq!(emc.lookup(&key, 1).unwrap().id, 2);
    }

    #[test]
    fn different_ports_are_different_flows() {
        let mut emc = Emc::new(16);
        let key = FlowKey::default().pack(1);
        emc.insert(key, rule(1), 0);
        assert!(emc.lookup(&FlowKey::default().pack(2), 0).is_none());
    }

    #[test]
    fn capacity_zero_disables_the_tier() {
        let mut emc = Emc::new(0);
        let key = FlowKey::default().pack(1);
        emc.insert(key, rule(1), 0);
        assert!(emc.is_empty());
        assert!(emc.lookup(&key, 0).is_none());
    }

    #[test]
    fn capacity_is_bounded() {
        let mut emc = Emc::new(4);
        for i in 0..100u16 {
            let key = FlowKey {
                l4_dst: i,
                ..FlowKey::default()
            }
            .pack(1);
            emc.insert(key, rule(u64::from(i)), 0);
        }
        assert!(emc.len() <= 5);
    }
}
