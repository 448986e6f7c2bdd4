//! The OpenFlow flow table.
//!
//! Stores [`RuleEntry`]s with OF 1.0 add/modify/delete semantics and keeps
//! the tuple-space [`crate::classifier::Classifier`] in sync. Every mutation
//! bumps a generation counter that invalidates exact-match caches, and
//! returns a [`TableChange`] describing what happened so the ofproto layer
//! can notify observers (the p-2-p detector) and emit `FlowRemoved`s.

use crate::actions::OutputPlan;
use crate::classifier::Classifier;
use dpdk_sim::cycles;
use openflow::messages::{FlowMod, FlowModCommand};
use openflow::{Action, FlowMatch, PortNo};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One installed rule. Shared (`Arc`) between the table, the classifier and
/// EMC entries, so counters written by the datapath are immediately visible
/// to statistics readers.
#[derive(Debug)]
pub struct RuleEntry {
    /// Unique id (never reused within a table's lifetime).
    pub id: u64,
    pub fmatch: FlowMatch,
    pub priority: u16,
    pub actions: Vec<Action>,
    /// `actions` compiled at install: what the datapath executes.
    pub plan: OutputPlan,
    pub cookie: u64,
    pub idle_timeout: u16,
    pub hard_timeout: u16,
    /// Cycle stamp at installation (for duration / hard timeout).
    pub added_at: u64,
    /// Cycle stamp of the last hit (for idle timeout).
    pub last_used: AtomicU64,
    /// Packets handled via the switch datapath (bypass packets are counted
    /// separately in the shared stats region and merged at reply time).
    pub n_packets: AtomicU64,
    /// Bytes handled via the switch datapath.
    pub n_bytes: AtomicU64,
}

impl RuleEntry {
    /// Records `packets` datapath hits totalling `bytes` at cycle time
    /// `now`: the datapath calls it once per burst run of the rule.
    pub fn hit_n(&self, packets: u64, bytes: u64, now: u64) {
        self.n_packets.fetch_add(packets, Ordering::Relaxed);
        self.n_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.last_used.store(now, Ordering::Relaxed);
    }

    /// Refreshes the idle-timeout clock without touching counters. Used
    /// when activity is observed out-of-band (bypassed traffic counted in
    /// the shared stats region): the rule is demonstrably not idle even
    /// though the switch never saw its packets.
    pub fn touch(&self, now: u64) {
        self.last_used.store(now, Ordering::Relaxed);
    }

    /// Switch-side counters `(packets, bytes)`.
    pub fn counters(&self) -> (u64, u64) {
        (
            self.n_packets.load(Ordering::Relaxed),
            self.n_bytes.load(Ordering::Relaxed),
        )
    }
}

/// Loose-filter semantics shared by flow stats requests and loose
/// modify/delete: the filter hits a rule when it subsumes the rule's match.
pub fn loose_filter_matches(filter: &FlowMatch, rule: &FlowMatch) -> bool {
    subsumes(&filter.canonicalise(), rule)
}

/// `self` subsumes `other` when every packet matching `other` also matches
/// `self` — the relation OF 1.0 loose modify/delete uses.
fn subsumes(general: &FlowMatch, specific: &FlowMatch) -> bool {
    fn field_ok<T: PartialEq + Copy>(g: Option<T>, s: Option<T>) -> bool {
        match (g, s) {
            (None, _) => true,
            (Some(_), None) => false,
            (Some(a), Some(b)) => a == b,
        }
    }
    fn prefix_ok(g: Option<(std::net::Ipv4Addr, u8)>, s: Option<(std::net::Ipv4Addr, u8)>) -> bool {
        match (g, s) {
            (None, _) => true,
            (Some(_), None) => false,
            (Some((ga, gl)), Some((sa, sl))) => {
                if gl > sl {
                    return false;
                }
                let mask = if gl == 0 { 0 } else { u32::MAX << (32 - gl) };
                u32::from(ga) & mask == u32::from(sa) & mask
            }
        }
    }
    field_ok(general.in_port, specific.in_port)
        && field_ok(general.eth_src, specific.eth_src)
        && field_ok(general.eth_dst, specific.eth_dst)
        && field_ok(general.vlan_id, specific.vlan_id)
        && field_ok(general.eth_type, specific.eth_type)
        && field_ok(general.ip_tos, specific.ip_tos)
        && field_ok(general.ip_proto, specific.ip_proto)
        && prefix_ok(general.ipv4_src, specific.ipv4_src)
        && prefix_ok(general.ipv4_dst, specific.ipv4_dst)
        && field_ok(general.l4_src, specific.l4_src)
        && field_ok(general.l4_dst, specific.l4_dst)
}

/// The outcome of applying a flow_mod (or a timeout sweep).
#[derive(Debug, Default)]
pub struct TableChange {
    /// Rules inserted.
    pub added: Vec<Arc<RuleEntry>>,
    /// Rules whose actions changed in place (modify).
    pub modified: Vec<Arc<RuleEntry>>,
    /// Rules removed, with their final counters (for `FlowRemoved`).
    pub removed: Vec<Arc<RuleEntry>>,
    /// Rules displaced by an `Add` with the same match and priority. In
    /// OF 1.0 this replacement does *not* produce a `FlowRemoved`, which
    /// is also what makes replaying an `Add` after a controller reconnect
    /// idempotent on the wire.
    pub replaced: Vec<Arc<RuleEntry>>,
}

impl TableChange {
    /// True when nothing happened.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty()
            && self.modified.is_empty()
            && self.removed.is_empty()
            && self.replaced.is_empty()
    }
}

/// The flow table plus its classifier index. There is one instance per
/// datapath and it is changed in place, each change costing what it
/// touches; `crate::pmd::Datapath` keeps it behind a reader/writer lock.
pub struct FlowTable {
    rules: Vec<Arc<RuleEntry>>,
    /// Rule id → position in `rules`, so a rule leaves without a scan.
    position: HashMap<u64, usize>,
    classifier: Classifier,
    next_id: u64,
    generation: Arc<AtomicU64>,
}

impl Default for FlowTable {
    fn default() -> Self {
        Self::new()
    }
}

impl FlowTable {
    /// Creates an empty table.
    pub fn new() -> FlowTable {
        FlowTable {
            rules: Vec::new(),
            position: HashMap::new(),
            classifier: Classifier::new(),
            next_id: 1,
            generation: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Shared handle to the generation counter: what the datapath's cache
    /// tiers validate against without touching the table.
    pub fn generation_handle(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.generation)
    }

    /// Current generation; moves once per mutation that changed anything,
    /// after the change is complete.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Number of installed rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True when no rules are installed.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// All rules (unspecified order).
    pub fn rules(&self) -> &[Arc<RuleEntry>] {
        &self.rules
    }

    /// Highest-priority rule matching `(port, key)`; ties broken by lowest
    /// rule id (OF leaves it undefined; we make it deterministic).
    pub fn lookup(&self, port: PortNo, key: &packet_wire::FlowKey) -> Option<Arc<RuleEntry>> {
        self.classifier.lookup(port, key)
    }

    /// Like [`FlowTable::lookup`], but also returns the staged-unwildcarding
    /// mask accumulated by the classifier — the widest-safe wildcard under
    /// which a megaflow entry for this resolution may be installed.
    pub fn lookup_staged(
        &self,
        port: PortNo,
        key: &packet_wire::FlowKey,
    ) -> (Option<Arc<RuleEntry>>, openflow::fmatch::MatchMask) {
        self.classifier.lookup_staged(port, key)
    }

    /// The rules a modify or delete addresses: strict names one rule by
    /// exact match and priority (an index probe), loose every rule the
    /// match subsumes (a scan — the command is about the whole table).
    fn select(&self, fmatch: &FlowMatch, priority: u16, strict: bool) -> Vec<Arc<RuleEntry>> {
        if strict {
            let hit = self.classifier.find_exact(fmatch, priority);
            return hit.into_iter().cloned().collect();
        }
        let hits = self.rules.iter().filter(|r| subsumes(fmatch, &r.fmatch));
        hits.cloned().collect()
    }

    /// Takes `victims` out of the rule list and the index. Any order is
    /// correct; last first is cheaper, because a scan lists victims in
    /// `rules` order and from the back `swap_remove` rarely has to move
    /// (and re-index) a rule into the hole.
    fn unlink(&mut self, victims: &[Arc<RuleEntry>]) {
        for victim in victims.iter().rev() {
            let pos = self
                .position
                .remove(&victim.id)
                .expect("victim is installed");
            self.rules.swap_remove(pos);
            if let Some(moved) = self.rules.get(pos) {
                self.position.insert(moved.id, pos);
            }
        }
        self.classifier.remove_all(victims);
    }

    fn add(&mut self, fmatch: FlowMatch, fm: &FlowMod, change: &mut TableChange) {
        // Identical match+priority ⇒ replace (counters reset).
        change.replaced = self.select(&fmatch, fm.priority, true);
        self.unlink(&change.replaced);
        let rule = Arc::new(RuleEntry {
            id: self.next_id,
            fmatch,
            priority: fm.priority,
            actions: fm.actions.clone(),
            plan: OutputPlan::compile(&fm.actions),
            cookie: fm.cookie,
            idle_timeout: fm.idle_timeout,
            hard_timeout: fm.hard_timeout,
            added_at: cycles::now(),
            last_used: AtomicU64::new(cycles::now()),
            n_packets: AtomicU64::new(0),
            n_bytes: AtomicU64::new(0),
        });
        self.next_id += 1;
        self.classifier.insert(&rule);
        self.position.insert(rule.id, self.rules.len());
        self.rules.push(Arc::clone(&rule));
        change.added.push(rule);
    }

    /// Applies a flow_mod, returning what changed.
    pub fn apply(&mut self, fm: &FlowMod) -> TableChange {
        let fmatch = fm.fmatch.canonicalise();
        let mut change = TableChange::default();
        match fm.command {
            FlowModCommand::Add => self.add(fmatch, fm, &mut change),
            FlowModCommand::Modify | FlowModCommand::ModifyStrict => {
                let strict = fm.command == FlowModCommand::ModifyStrict;
                for rule in self.select(&fmatch, fm.priority, strict) {
                    // Actions are immutable in the Arc; rebuild the entry
                    // keeping id and counters (OF modify preserves them).
                    let replacement = Arc::new(RuleEntry {
                        id: rule.id,
                        fmatch: rule.fmatch,
                        priority: rule.priority,
                        actions: fm.actions.clone(),
                        plan: OutputPlan::compile(&fm.actions),
                        cookie: if fm.cookie != 0 {
                            fm.cookie
                        } else {
                            rule.cookie
                        },
                        idle_timeout: rule.idle_timeout,
                        hard_timeout: rule.hard_timeout,
                        added_at: rule.added_at,
                        last_used: AtomicU64::new(rule.last_used.load(Ordering::Relaxed)),
                        n_packets: AtomicU64::new(rule.n_packets.load(Ordering::Relaxed)),
                        n_bytes: AtomicU64::new(rule.n_bytes.load(Ordering::Relaxed)),
                    });
                    self.classifier.replace(&replacement);
                    self.rules[self.position[&rule.id]] = Arc::clone(&replacement);
                    change.modified.push(replacement);
                }
                // OF 1.0: a modify that matches nothing behaves like an add.
                if change.modified.is_empty() {
                    self.add(fmatch, fm, &mut change);
                }
            }
            FlowModCommand::Delete | FlowModCommand::DeleteStrict => {
                let strict = fm.command == FlowModCommand::DeleteStrict;
                change.removed = self.select(&fmatch, fm.priority, strict);
                if fm.out_port != PortNo::NONE {
                    let out = Action::Output(fm.out_port);
                    change.removed.retain(|r| r.actions.contains(&out));
                }
                self.unlink(&change.removed);
            }
        }
        if !change.is_empty() {
            self.generation.fetch_add(1, Ordering::Release);
        }
        change
    }

    /// Evicts rules whose idle or hard timeout has expired at cycle `now`.
    pub fn sweep_timeouts(&mut self, now: u64) -> TableChange {
        let expired = |rule: &&Arc<RuleEntry>| {
            let hard_hit = rule.hard_timeout > 0
                && now.saturating_sub(rule.added_at)
                    >= u64::from(rule.hard_timeout) * cycles::CPU_HZ;
            let idle_hit = rule.idle_timeout > 0
                && now.saturating_sub(rule.last_used.load(Ordering::Relaxed))
                    >= u64::from(rule.idle_timeout) * cycles::CPU_HZ;
            hard_hit || idle_hit
        };
        let change = TableChange {
            removed: self.rules.iter().filter(expired).cloned().collect(),
            ..TableChange::default()
        };
        if !change.is_empty() {
            self.unlink(&change.removed);
            self.generation.fetch_add(1, Ordering::Release);
        }
        change
    }
}

impl std::fmt::Debug for FlowTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlowTable")
            .field("rules", &self.rules.len())
            .field("generation", &self.generation())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use packet_wire::{FlowKey, PacketBuilder};
    use std::net::Ipv4Addr;

    fn key_to(dst_port: u16) -> FlowKey {
        FlowKey::extract(&PacketBuilder::udp_probe(64).ports(1000, dst_port).build())
    }

    fn out(p: u16) -> Vec<Action> {
        vec![Action::Output(PortNo(p))]
    }

    #[test]
    fn add_and_lookup_by_priority() {
        let mut t = FlowTable::new();
        t.apply(&FlowMod::add(FlowMatch::any(), 1, out(9)));
        let mut narrow = FlowMatch::any();
        narrow.l4_dst = Some(80);
        t.apply(&FlowMod::add(narrow, 100, out(2)));

        let hit = t.lookup(PortNo(1), &key_to(80)).unwrap();
        assert_eq!(hit.actions, out(2));
        let miss = t.lookup(PortNo(1), &key_to(81)).unwrap();
        assert_eq!(miss.actions, out(9));
    }

    #[test]
    fn add_identical_replaces_and_resets_counters() {
        let mut t = FlowTable::new();
        t.apply(&FlowMod::add(FlowMatch::in_port(PortNo(1)), 5, out(2)));
        let rule = t.lookup(PortNo(1), &key_to(1)).unwrap();
        rule.hit_n(1, 64, cycles::now());
        assert_eq!(rule.counters().0, 1);

        let change = t.apply(&FlowMod::add(FlowMatch::in_port(PortNo(1)), 5, out(3)));
        assert_eq!(change.added.len(), 1);
        // The displaced rule is a replacement, not a removal: OF 1.0 sends
        // no FlowRemoved for it (and replayed Adds stay idempotent).
        assert_eq!(change.replaced.len(), 1);
        assert!(change.removed.is_empty());
        let rule = t.lookup(PortNo(1), &key_to(1)).unwrap();
        assert_eq!(rule.actions, out(3));
        assert_eq!(rule.counters().0, 0);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn strict_delete_requires_exact_match_and_priority() {
        let mut t = FlowTable::new();
        t.apply(&FlowMod::add(FlowMatch::in_port(PortNo(1)), 5, out(2)));
        let miss = t.apply(&FlowMod::delete_strict(FlowMatch::in_port(PortNo(1)), 6));
        assert!(miss.is_empty());
        assert_eq!(t.len(), 1);
        let hit = t.apply(&FlowMod::delete_strict(FlowMatch::in_port(PortNo(1)), 5));
        assert_eq!(hit.removed.len(), 1);
        assert!(t.is_empty());
    }

    #[test]
    fn loose_delete_uses_subsumption() {
        let mut t = FlowTable::new();
        let mut narrow = FlowMatch::in_port(PortNo(1));
        narrow.l4_dst = Some(80);
        t.apply(&FlowMod::add(narrow, 10, out(2)));
        t.apply(&FlowMod::add(FlowMatch::in_port(PortNo(2)), 10, out(3)));

        // Deleting "everything from port 1" removes only the first.
        let change = t.apply(&FlowMod::delete(FlowMatch::in_port(PortNo(1))));
        assert_eq!(change.removed.len(), 1);
        assert_eq!(t.len(), 1);

        // Deleting with an any-match removes the rest.
        let change = t.apply(&FlowMod::delete(FlowMatch::any()));
        assert_eq!(change.removed.len(), 1);
        assert!(t.is_empty());
    }

    #[test]
    fn loose_delete_with_out_port_filter() {
        let mut t = FlowTable::new();
        t.apply(&FlowMod::add(FlowMatch::in_port(PortNo(1)), 5, out(2)));
        t.apply(&FlowMod::add(FlowMatch::in_port(PortNo(2)), 5, out(3)));
        let mut del = FlowMod::delete(FlowMatch::any());
        del.out_port = PortNo(3);
        let change = t.apply(&del);
        assert_eq!(change.removed.len(), 1);
        assert_eq!(change.removed[0].actions, out(3));
    }

    #[test]
    fn modify_preserves_counters_and_id() {
        let mut t = FlowTable::new();
        t.apply(&FlowMod::add(FlowMatch::in_port(PortNo(1)), 5, out(2)));
        let before = t.lookup(PortNo(1), &key_to(1)).unwrap();
        before.hit_n(1, 64, cycles::now());
        let old_id = before.id;

        let mut fm = FlowMod::add(FlowMatch::in_port(PortNo(1)), 5, out(7));
        fm.command = FlowModCommand::ModifyStrict;
        let change = t.apply(&fm);
        assert_eq!(change.modified.len(), 1);
        let after = t.lookup(PortNo(1), &key_to(1)).unwrap();
        assert_eq!(after.id, old_id);
        assert_eq!(after.actions, out(7));
        assert_eq!(after.counters(), (1, 64));
    }

    #[test]
    fn modify_of_nothing_behaves_like_add() {
        let mut t = FlowTable::new();
        let mut fm = FlowMod::add(FlowMatch::in_port(PortNo(9)), 5, out(1));
        fm.command = FlowModCommand::Modify;
        let change = t.apply(&fm);
        assert_eq!(change.added.len(), 1);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn generation_bumps_only_on_real_changes() {
        let mut t = FlowTable::new();
        let g0 = t.generation();
        t.apply(&FlowMod::delete(FlowMatch::any())); // no-op
        assert_eq!(t.generation(), g0);
        t.apply(&FlowMod::add(FlowMatch::any(), 1, out(1)));
        assert!(t.generation() > g0);
    }

    #[test]
    fn subsumption_on_prefixes() {
        let mut gen = FlowMatch::any();
        gen.ipv4_dst = Some((Ipv4Addr::new(10, 0, 0, 0), 8));
        let mut spec = FlowMatch::any();
        spec.ipv4_dst = Some((Ipv4Addr::new(10, 1, 0, 0), 16));
        assert!(subsumes(&gen, &spec));
        assert!(!subsumes(&spec, &gen));
        assert!(subsumes(&gen, &gen));
        let mut other = FlowMatch::any();
        other.ipv4_dst = Some((Ipv4Addr::new(11, 0, 0, 0), 8));
        assert!(!subsumes(&gen, &other));
    }

    #[test]
    fn hard_timeout_sweep() {
        let mut t = FlowTable::new();
        let mut fm = FlowMod::add(FlowMatch::any(), 1, out(1));
        fm.hard_timeout = 1; // 1 second
        t.apply(&fm);
        assert!(t.sweep_timeouts(cycles::now()).is_empty());
        // Jump 2 simulated seconds ahead.
        let later = cycles::now() + 2 * cycles::CPU_HZ;
        let change = t.sweep_timeouts(later);
        assert_eq!(change.removed.len(), 1);
        assert!(t.is_empty());
    }

    #[test]
    fn idle_timeout_resets_on_hit() {
        let mut t = FlowTable::new();
        let mut fm = FlowMod::add(FlowMatch::any(), 1, out(1));
        fm.idle_timeout = 1;
        t.apply(&fm);
        let rule = t.lookup(PortNo(1), &key_to(1)).unwrap();
        let later = cycles::now() + 2 * cycles::CPU_HZ;
        rule.hit_n(1, 64, later); // activity just before the sweep
        assert!(t.sweep_timeouts(later).is_empty());
        let much_later = later + 2 * cycles::CPU_HZ;
        assert_eq!(t.sweep_timeouts(much_later).removed.len(), 1);
    }
}
