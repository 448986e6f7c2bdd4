//! Megaflow (wildcard-mask) cache.
//!
//! The second-level lookup of the datapath, slotted between the exact-match
//! cache and the tuple-space classifier. Where the EMC memoises one *flow*
//! per entry, a megaflow entry memoises one *traffic aggregate*: the packet
//! projected onto the staged-unwildcarding mask the classifier accumulated
//! while resolving it (see [`crate::classifier::Classifier::lookup_staged`]).
//! Every packet agreeing on the masked fields — any source port, any
//! un-consulted header — resolves through one hash probe per cached mask
//! instead of a full classifier walk. An entry is keyed by the packet's
//! [`PackedKey`] with every bit its group's mask leaves wild zeroed: four
//! words to hash, and the mask is stored once per group, not per entry.
//!
//! Invalidation mirrors the EMC's scheme: entries are stamped with the flow
//! table generation and the whole cache flushes the moment a lookup or
//! insert observes a newer generation, so no table change can ever be
//! served stale (the same invariant `crate::table::FlowTable::apply`
//! guarantees the EMC via its generation bump).

use crate::table::RuleEntry;
use openflow::fmatch::{FlowMatch, MatchMask, ProjectedKey};
use openflow::{Action, PortNo};
use packet_wire::{FlowKey, MacAddr, PackedKey};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Default megaflow capacity. Real OVS's dpcls is unbounded; we bound it
/// like the EMC so a pathological flow mix cannot grow memory without limit.
pub const DEFAULT_MEGAFLOW_ENTRIES: usize = 65536;

struct MegaflowEntry {
    rule: Arc<RuleEntry>,
    /// Packets resolved *by this tier* through this entry (for the
    /// dpctl-style dump). Packets the EMC short-circuits in front of the
    /// megaflow are not re-attributed here — unlike real `ovs-dpctl`,
    /// where EMC entries feed their backing megaflow's counters — so for
    /// EMC-resident elephant flows these counters undercount; the
    /// authoritative per-rule totals live on [`RuleEntry`].
    n_packets: u64,
    /// Bytes resolved by this tier through this entry.
    n_bytes: u64,
}

/// Entries sharing one wildcard mask (one hash probe per group at lookup).
struct MaskGroup {
    mask: MatchMask,
    /// `mask` in packed form: all-ones in every bit it pins.
    bits: PackedKey,
    entries: HashMap<PackedKey, MegaflowEntry>,
}

impl MaskGroup {
    fn new(mask: MatchMask) -> MaskGroup {
        let prefix = |len: u8| match len {
            0 => Ipv4Addr::UNSPECIFIED,
            len => Ipv4Addr::from(u32::MAX << (32 - u32::from(len.min(32)))),
        };
        let mac = |on: bool| {
            if on {
                MacAddr::BROADCAST
            } else {
                MacAddr::ZERO
            }
        };
        let ones = |on: bool| if on { u16::MAX } else { 0 };
        let pinned = FlowKey {
            eth_src: mac(mask.eth_src),
            eth_dst: mac(mask.eth_dst),
            eth_type: ones(mask.eth_type),
            vlan_id: ones(mask.vlan_id),
            ipv4_src: prefix(mask.ipv4_src_len),
            ipv4_dst: prefix(mask.ipv4_dst_len),
            ip_proto: ones(mask.ip_proto) as u8,
            ip_tos: ones(mask.ip_tos) as u8,
            l4_src: ones(mask.l4_src),
            l4_dst: ones(mask.l4_dst),
        };
        MaskGroup {
            mask,
            bits: pinned.pack(ones(mask.in_port)),
            entries: HashMap::new(),
        }
    }
}

/// One row of a megaflow dump: the masked key, its traffic counters and the
/// actions of the rule it resolves to.
#[derive(Debug, Clone)]
pub struct MegaflowRow {
    pub mask: MatchMask,
    pub key: ProjectedKey,
    pub n_packets: u64,
    pub n_bytes: u64,
    pub rule_id: u64,
    pub actions: Vec<Action>,
}

/// A per-PMD megaflow cache.
pub struct Megaflow {
    groups: Vec<MaskGroup>,
    /// Flow-table generation the current contents were resolved against.
    generation: u64,
    capacity: usize,
    len: usize,
    hits: u64,
    misses: u64,
    flushes: u64,
}

impl Megaflow {
    /// Creates a cache bounded to `capacity` aggregates. A capacity of 0
    /// disables the tier entirely (every lookup misses, inserts are no-ops)
    /// — an EMC-only configuration.
    pub fn new(capacity: usize) -> Megaflow {
        Megaflow {
            groups: Vec::new(),
            generation: 0,
            capacity,
            len: 0,
            hits: 0,
            misses: 0,
            flushes: 0,
        }
    }

    fn revalidate(&mut self, generation: u64) {
        if generation != self.generation {
            if self.len > 0 {
                self.flushes += 1;
            }
            self.clear();
            self.generation = generation;
        }
    }

    /// Empties the cache. A group keeps its table's allocation for the
    /// next fill: under churn the cache empties and refills many times a
    /// second, and growing a fresh table through every doubling each time
    /// left the allocator holding the freed ones. A group that gained no
    /// entry since the last clear is dropped, so unused masks do not
    /// accumulate.
    fn clear(&mut self) {
        self.groups.retain_mut(|g| {
            let used = !g.entries.is_empty();
            g.entries.clear();
            used
        });
        self.len = 0;
    }

    /// Looks up a packet (its key packed with its in-port), validating the
    /// cache against `generation` first. `pkts`/`bytes` are the burst share
    /// this resolution stands for, folded into the hit entry's dump
    /// counters (burst-batched classification resolves once per flow
    /// group, not once per packet).
    pub fn lookup(
        &mut self,
        key: &PackedKey,
        generation: u64,
        pkts: u64,
        bytes: u64,
    ) -> Option<Arc<RuleEntry>> {
        self.revalidate(generation);
        for group in &mut self.groups {
            if let Some(entry) = group.entries.get_mut(&key.masked(&group.bits)) {
                entry.n_packets += pkts;
                entry.n_bytes += bytes;
                self.hits += 1;
                return Some(Arc::clone(&entry.rule));
            }
        }
        self.misses += 1;
        None
    }

    /// Installs the aggregate `(packet projected under mask) → rule` for
    /// `generation`, seeding the dump counters with the resolving burst
    /// share (`pkts`/`bytes`). The mask must be the staged-unwildcarding
    /// mask the classifier returned for this very resolution — anything
    /// narrower wastes coverage, anything wider is unsound.
    pub fn insert(
        &mut self,
        key: &PackedKey,
        mask: MatchMask,
        rule: Arc<RuleEntry>,
        generation: u64,
        pkts: u64,
        bytes: u64,
    ) {
        if self.capacity == 0 {
            return;
        }
        self.revalidate(generation);
        if self.len >= self.capacity {
            // Same cheap bound as the EMC's last resort: flush and refill.
            self.clear();
            self.flushes += 1;
            telemetry::coverage!("megaflow_flush");
        }
        telemetry::coverage!("megaflow_insert");
        let group = match self.groups.iter_mut().position(|g| g.mask == mask) {
            Some(i) => &mut self.groups[i],
            None => {
                self.groups.push(MaskGroup::new(mask));
                self.groups.last_mut().expect("just pushed")
            }
        };
        if group
            .entries
            .insert(
                key.masked(&group.bits),
                MegaflowEntry {
                    rule,
                    n_packets: pkts,
                    n_bytes: bytes,
                },
            )
            .is_none()
        {
            self.len += 1;
        }
    }

    /// `(hits, misses)` since creation.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Whole-cache flushes performed (generation changes + capacity resets).
    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    /// Distinct wildcard masks currently cached.
    pub fn mask_count(&self) -> usize {
        self.groups.iter().filter(|g| !g.entries.is_empty()).count()
    }

    /// Aggregates currently cached.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Snapshot of every cached aggregate, for `dpctl dump-flows`-style
    /// rendering (see [`crate::dump::dump_megaflows`]). Each row's key is
    /// rebuilt from the packed entry key.
    pub fn rows(&self) -> Vec<MegaflowRow> {
        let mut out = Vec::with_capacity(self.len);
        for group in &self.groups {
            for (key, entry) in &group.entries {
                let (port, key) = key.unpack();
                out.push(MegaflowRow {
                    mask: group.mask,
                    key: FlowMatch::project(&group.mask, PortNo(port), &key),
                    n_packets: entry.n_packets,
                    n_bytes: entry.n_bytes,
                    rule_id: entry.rule.id,
                    actions: entry.rule.actions.clone(),
                });
            }
        }
        // Busiest aggregates first; ties by rule id, then by a fixed-seed
        // hash of the masked key so the order is stable across runs even
        // though the entries live in a HashMap.
        fn key_hash(row: &MegaflowRow) -> u64 {
            use std::hash::{Hash, Hasher};
            // std's DefaultHasher is SipHash with fixed keys: process- and
            // run-independent, unlike HashMap's per-instance seed.
            let mut h = std::collections::hash_map::DefaultHasher::new();
            row.mask.hash(&mut h);
            row.key.hash(&mut h);
            h.finish()
        }
        out.sort_by(|a, b| {
            b.n_packets
                .cmp(&a.n_packets)
                .then(a.rule_id.cmp(&b.rule_id))
                .then(key_hash(a).cmp(&key_hash(b)))
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openflow::FlowMatch;
    use packet_wire::PacketBuilder;
    use std::sync::atomic::AtomicU64;

    fn rule(id: u64, fmatch: FlowMatch) -> Arc<RuleEntry> {
        Arc::new(RuleEntry {
            id,
            fmatch: fmatch.canonicalise(),
            priority: 10,
            plan: crate::actions::OutputPlan::compile(&[Action::Output(PortNo(2))]),
            actions: vec![Action::Output(PortNo(2))],
            cookie: id,
            idle_timeout: 0,
            hard_timeout: 0,
            added_at: 0,
            last_used: AtomicU64::new(0),
            n_packets: AtomicU64::new(0),
            n_bytes: AtomicU64::new(0),
        })
    }

    fn key_to(dst: u16) -> FlowKey {
        FlowKey::extract(&PacketBuilder::udp_probe(64).ports(1000, dst).build())
    }

    #[test]
    fn wildcard_entry_covers_the_aggregate() {
        let mut mf = Megaflow::new(1024);
        let mut m = FlowMatch::any();
        m.l4_dst = Some(80);
        let r = rule(1, m);
        // Install under a mask that pins only l4_dst.
        mf.insert(
            &key_to(80).pack(1),
            r.fmatch.mask(),
            Arc::clone(&r),
            0,
            0,
            0,
        );
        // Any port, any source port: still a hit — the aggregate, not the flow.
        let mut other = key_to(80);
        other.l4_src = 9999;
        assert_eq!(mf.lookup(&other.pack(7), 0, 1, 64).unwrap().id, 1);
        // A packet differing in a masked field misses.
        assert!(mf.lookup(&key_to(81).pack(7), 0, 1, 64).is_none());
        assert_eq!(mf.stats(), (1, 1));
    }

    #[test]
    fn generation_change_flushes_everything() {
        let mut mf = Megaflow::new(1024);
        let r = rule(1, FlowMatch::any());
        mf.insert(&key_to(80).pack(1), MatchMask::empty(), r, 0, 0, 0);
        assert_eq!(mf.len(), 1);
        assert!(mf.lookup(&key_to(80).pack(1), 1, 1, 64).is_none());
        assert!(mf.is_empty());
        assert_eq!(mf.mask_count(), 0);
        assert_eq!(mf.flushes(), 1);
    }

    #[test]
    fn capacity_zero_disables_the_tier() {
        let mut mf = Megaflow::new(0);
        let r = rule(1, FlowMatch::any());
        mf.insert(&key_to(80).pack(1), MatchMask::empty(), r, 0, 0, 0);
        assert!(mf.is_empty());
        assert!(mf.lookup(&key_to(80).pack(1), 0, 1, 64).is_none());
    }

    #[test]
    fn capacity_is_bounded() {
        let mut mf = Megaflow::new(4);
        for i in 0..100u16 {
            let mut m = FlowMatch::any();
            m.l4_dst = Some(i);
            let r = rule(u64::from(i), m);
            let mask = r.fmatch.mask();
            mf.insert(&key_to(i).pack(1), mask, r, 0, 0, 0);
        }
        assert!(mf.len() <= 4);
    }

    #[test]
    fn rows_report_masked_traffic() {
        let mut mf = Megaflow::new(1024);
        let mut m = FlowMatch::any();
        m.l4_dst = Some(80);
        let r = rule(7, m);
        mf.insert(&key_to(80).pack(1), r.fmatch.mask(), r, 0, 0, 0);
        mf.lookup(&key_to(80).pack(1), 0, 3, 192);
        let rows = mf.rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].n_packets, 3);
        assert_eq!(rows[0].n_bytes, 192);
        assert_eq!(rows[0].rule_id, 7);
        assert!(rows[0].mask.l4_dst && !rows[0].mask.in_port);
    }
}
