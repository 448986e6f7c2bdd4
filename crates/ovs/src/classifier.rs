//! Tuple-space classifier (OVS `dpcls`).
//!
//! Rules are grouped into *subtables* by wildcard mask; within a subtable a
//! packet projected onto the mask is an exact hash key. A lookup probes
//! subtables in descending order of their best rule priority, keeping the
//! best-priority hit and stopping as soon as no remaining subtable can beat
//! it — O(#masks consulted) instead of O(#rules), which is why real service
//! graphs with thousands of rules but a handful of distinct masks classify
//! quickly.
//!
//! Lookups also support *staged unwildcarding*: [`Classifier::lookup_staged`]
//! returns the fold of the masks of every subtable it consulted. Any packet
//! that agrees with the looked-up packet on the folded fields walks the same
//! subtables, sees the same candidates and exits at the same point — so the
//! folded mask is a sound wildcard for a megaflow cache entry covering the
//! widest-safe traffic aggregate.

use crate::table::RuleEntry;
use openflow::fmatch::{FlowMatch, MatchMask, ProjectedKey};
use openflow::PortNo;
use packet_wire::FlowKey;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

struct Subtable {
    mask: MatchMask,
    /// Projected rule key → rules with that projection, best priority first.
    /// One bucket holds one match at distinct priorities.
    entries: HashMap<ProjectedKey, Vec<Arc<RuleEntry>>>,
    /// Priority → rules at it, so the ceiling survives a removal without a
    /// pass over the buckets.
    priorities: BTreeMap<u16, usize>,
    /// Best priority of any rule in this subtable (probe-order sort key;
    /// lookups stop once the running best beats every remaining subtable).
    max_priority: u16,
}

impl Subtable {
    /// Drops `rule` from its bucket; true when that left no rule at the
    /// subtable's ceiling priority.
    fn unindex(&mut self, rule: &RuleEntry) -> bool {
        let Entry::Occupied(mut bucket) = self.entries.entry(rule.fmatch.own_projection()) else {
            return false;
        };
        let Some(pos) = bucket.get().iter().position(|r| r.id == rule.id) else {
            return false;
        };
        bucket.get_mut().remove(pos);
        if bucket.get().is_empty() {
            bucket.remove();
        }
        let left = self
            .priorities
            .get_mut(&rule.priority)
            .expect("every indexed rule is counted");
        *left -= 1;
        if *left > 0 {
            return false;
        }
        self.priorities.remove(&rule.priority);
        rule.priority == self.max_priority
    }
}

/// The classifier index over a flow table's rules. One writer updates it in
/// place; what serialises that against lookups is the table lock in
/// `crate::pmd::Datapath`.
pub struct Classifier {
    subtables: Vec<Subtable>,
}

impl Default for Classifier {
    fn default() -> Self {
        Self::new()
    }
}

impl Classifier {
    /// Creates an empty classifier.
    pub fn new() -> Classifier {
        Classifier {
            subtables: Vec::new(),
        }
    }

    /// Number of distinct masks (subtables).
    pub fn subtable_count(&self) -> usize {
        self.subtables.len()
    }

    /// Indexes a rule.
    pub fn insert(&mut self, rule: &Arc<RuleEntry>) {
        let mask = rule.fmatch.mask();
        let (sub, is_new) = match self.subtables.iter_mut().position(|s| s.mask == mask) {
            Some(i) => (&mut self.subtables[i], false),
            None => {
                self.subtables.push(Subtable {
                    mask,
                    entries: HashMap::new(),
                    priorities: BTreeMap::new(),
                    max_priority: 0,
                });
                (self.subtables.last_mut().expect("just pushed"), true)
            }
        };
        let bucket = sub.entries.entry(rule.fmatch.own_projection()).or_default();
        // Keep best priority first; stable for equal priorities (insertion
        // order ⇒ lower id first because ids are monotonic).
        let pos = bucket
            .iter()
            .position(|r| r.priority < rule.priority)
            .unwrap_or(bucket.len());
        bucket.insert(pos, Arc::clone(rule));
        *sub.priorities.entry(rule.priority).or_default() += 1;
        // Probe order only changes when a subtable appears or its best
        // priority rises; skip the resort for the common case (another
        // rule at or below the subtable's existing ceiling).
        let raised = rule.priority > sub.max_priority;
        sub.max_priority = sub.max_priority.max(rule.priority);
        if is_new || raised {
            self.resort();
        }
    }

    /// The rule with exactly this (canonical) match and priority — the
    /// probe behind `Add`-replace and the strict commands: one hash lookup
    /// in the match's own `(mask, projection)` bucket, not a table scan.
    pub fn find_exact(&self, fmatch: &FlowMatch, priority: u16) -> Option<&Arc<RuleEntry>> {
        let mask = fmatch.mask();
        let sub = self.subtables.iter().find(|s| s.mask == mask)?;
        let bucket = sub.entries.get(&fmatch.own_projection())?;
        bucket
            .iter()
            .find(|r| r.priority == priority && r.fmatch == *fmatch)
    }

    /// Swaps an indexed rule for its modified self (same id, match and
    /// priority, so no ceiling and no probe order moves).
    pub fn replace(&mut self, rule: &Arc<RuleEntry>) {
        let mask = rule.fmatch.mask();
        let slot = self
            .subtables
            .iter_mut()
            .find(|s| s.mask == mask)
            .and_then(|s| s.entries.get_mut(&rule.fmatch.own_projection()))
            .and_then(|bucket| bucket.iter_mut().find(|r| r.id == rule.id));
        if let Some(slot) = slot {
            *slot = Arc::clone(rule);
        }
    }

    /// Unindexes a rule (by id).
    pub fn remove(&mut self, rule: &Arc<RuleEntry>) {
        self.remove_all(std::slice::from_ref(rule));
    }

    /// Unindexes rules (by id). Ceilings and the probe order are put right
    /// once, after the last rule has left: per rule, emptying a table was
    /// quadratic, and it now happens with every reader locked out.
    pub fn remove_all(&mut self, rules: &[Arc<RuleEntry>]) {
        let mut ceiling_moved = false;
        for rule in rules {
            let mask = rule.fmatch.mask();
            if let Some(sub) = self.subtables.iter_mut().find(|s| s.mask == mask) {
                ceiling_moved |= sub.unindex(rule);
            }
        }
        if ceiling_moved {
            self.subtables.retain_mut(|sub| {
                sub.max_priority = sub.priorities.keys().next_back().copied().unwrap_or(0);
                !sub.entries.is_empty()
            });
            self.resort();
        }
    }

    /// Restores the probe-order invariant: subtables sorted by descending
    /// `max_priority`. Stable, so the order (and therefore the staged mask
    /// of any lookup) is deterministic between table mutations.
    fn resort(&mut self) {
        self.subtables
            .sort_by_key(|s| std::cmp::Reverse(s.max_priority));
    }

    /// Best-priority rule matching `(port, key)`; ties broken by lowest id.
    pub fn lookup(&self, port: PortNo, key: &FlowKey) -> Option<Arc<RuleEntry>> {
        self.lookup_staged(port, key).0
    }

    /// Like [`Classifier::lookup`], but also returns the fold of the masks
    /// of every subtable consulted — the *staged unwildcarding* mask. A
    /// megaflow entry installed under this mask is sound: every packet
    /// projecting equal under it resolves to the same rule (or the same
    /// miss) as a cold classifier walk.
    pub fn lookup_staged(
        &self,
        port: PortNo,
        key: &FlowKey,
    ) -> (Option<Arc<RuleEntry>>, MatchMask) {
        let mut best: Option<&Arc<RuleEntry>> = None;
        let mut staged = MatchMask::empty();
        for sub in &self.subtables {
            if let Some(b) = best {
                // Probe order is descending max_priority: once the running
                // best strictly beats a subtable's ceiling it beats all that
                // follow. Equal ceilings must still be probed — a same-
                // priority candidate with a lower id wins the tie.
                if b.priority > sub.max_priority {
                    break;
                }
            }
            staged.fold(&sub.mask);
            let proj = FlowMatch::project(&sub.mask, port, key);
            if let Some(bucket) = sub.entries.get(&proj) {
                if let Some(candidate) = bucket.first() {
                    let better = match best {
                        None => true,
                        Some(b) => {
                            candidate.priority > b.priority
                                || (candidate.priority == b.priority && candidate.id < b.id)
                        }
                    };
                    if better {
                        best = Some(candidate);
                    }
                }
            }
        }
        (best.cloned(), staged)
    }
}

impl std::fmt::Debug for Classifier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Classifier")
            .field("subtables", &self.subtables.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openflow::Action;
    use packet_wire::PacketBuilder;
    use std::sync::atomic::AtomicU64;

    fn rule(id: u64, fmatch: FlowMatch, priority: u16, out: u16) -> Arc<RuleEntry> {
        Arc::new(RuleEntry {
            id,
            fmatch: fmatch.canonicalise(),
            priority,
            actions: vec![Action::Output(PortNo(out))],
            plan: crate::actions::OutputPlan::compile(&[Action::Output(PortNo(out))]),
            cookie: 0,
            idle_timeout: 0,
            hard_timeout: 0,
            added_at: 0,
            last_used: AtomicU64::new(0),
            n_packets: AtomicU64::new(0),
            n_bytes: AtomicU64::new(0),
        })
    }

    fn key() -> FlowKey {
        FlowKey::extract(&PacketBuilder::udp_probe(64).ports(5, 80).build())
    }

    #[test]
    fn same_mask_rules_share_a_subtable() {
        let mut c = Classifier::new();
        c.insert(&rule(1, FlowMatch::in_port(PortNo(1)), 10, 2));
        c.insert(&rule(2, FlowMatch::in_port(PortNo(2)), 10, 3));
        assert_eq!(c.subtable_count(), 1);
        let mut m = FlowMatch::in_port(PortNo(1));
        m.l4_dst = Some(80);
        c.insert(&rule(3, m, 20, 4));
        assert_eq!(c.subtable_count(), 2);
    }

    #[test]
    fn priority_wins_across_subtables() {
        let mut c = Classifier::new();
        c.insert(&rule(1, FlowMatch::any(), 1, 9));
        let mut m = FlowMatch::any();
        m.l4_dst = Some(80);
        c.insert(&rule(2, m, 50, 2));
        let hit = c.lookup(PortNo(7), &key()).unwrap();
        assert_eq!(hit.id, 2);

        let mut other = key();
        other.l4_dst = 81;
        let hit = c.lookup(PortNo(7), &other).unwrap();
        assert_eq!(hit.id, 1);
    }

    #[test]
    fn equal_priority_breaks_ties_by_id() {
        let mut c = Classifier::new();
        c.insert(&rule(5, FlowMatch::any(), 10, 1));
        c.insert(&rule(3, FlowMatch::in_port(PortNo(1)), 10, 2));
        let hit = c.lookup(PortNo(1), &key()).unwrap();
        assert_eq!(hit.id, 3);
    }

    #[test]
    fn remove_cleans_empty_subtables() {
        let mut c = Classifier::new();
        let r = rule(1, FlowMatch::in_port(PortNo(1)), 10, 2);
        c.insert(&r);
        assert_eq!(c.subtable_count(), 1);
        c.remove(&r);
        assert_eq!(c.subtable_count(), 0);
        assert!(c.lookup(PortNo(1), &key()).is_none());
    }

    #[test]
    fn miss_returns_none() {
        let mut c = Classifier::new();
        c.insert(&rule(1, FlowMatch::in_port(PortNo(3)), 10, 2));
        assert!(c.lookup(PortNo(4), &key()).is_none());
    }
}
