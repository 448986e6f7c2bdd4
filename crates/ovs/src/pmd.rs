//! The poll-mode datapath: shared state ([`Datapath`]) plus the PMD loop
//! that services every port, classifies packets through the three-tier
//! cache hierarchy (EMC → megaflow → classifier) and executes actions.
//!
//! A received burst runs in three stages over fixed, stack-held arrays
//! ([`Datapath::process_burst`]): each packet's key is extracted, packed
//! and grouped once; each distinct key resolves through the cache
//! hierarchy once, so a 32-packet burst of one flow costs one lookup, not
//! thirty-two; then every packet, in burst order, runs the output plan its
//! rule compiled at install. The hot path allocates nothing, and the
//! datapath's lookup counters move once per burst.
//!
//! The datapath shards across N PMD threads (see `docs/datapath.md`):
//! every port is polled by exactly one PMD, which runs each packet it
//! polls to completion against its own caches, so a flow (whose key
//! includes its in-port) has one home cache and keeps its order. The one
//! shared [`FlowTable`] is updated in place behind a reader/writer lock: a
//! flow_mod takes the write side for the rules it touches, a cache hit
//! validates against one atomic load of the table generation and takes no
//! lock, and only a cache miss takes the read side.

use crate::actions::OutputTarget;
use crate::emc::{Emc, DEFAULT_EMC_ENTRIES};
use crate::megaflow::{Megaflow, MegaflowRow, DEFAULT_MEGAFLOW_ENTRIES};
use crate::port::OvsPort;
use crate::table::{FlowTable, RuleEntry, TableChange};
use crossbeam::channel::{Receiver, Sender, TrySendError};
use dpdk_sim::{cycles, Mbuf, DEFAULT_BURST};
use openflow::messages::{FlowMod, PacketIn, PacketInReason};
use openflow::PortNo;
use packet_wire::PackedKey;
use parking_lot::{Mutex, RwLock, RwLockReadGuard};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use telemetry::{coverage, DatapathTotals, PmdPerf, Stage, TelemetrySnapshot, Tier};

/// Megaflow hits promote their exact flow into the EMC once per this many
/// hits (OVS's `emc-insert-inv-prob` idea): frequent flows converge into
/// the EMC while a mouse-heavy working set larger than the EMC cannot
/// continuously wipe it.
pub const EMC_PROMOTION_INTERVAL: u64 = 8;

/// 1-in-N bursts get per-group cycle stamps for the classify/execute
/// histograms and tier resolution costs. A TSC read costs tens of
/// nanoseconds — comparable to an EMC hit — so stamping every flow group
/// of every burst would dominate the classify fast path; sampled bursts
/// keep the histograms honest while the unstamped majority pays only a
/// counter add.
pub const STAGE_SAMPLE_INTERVAL: u32 = 8;

/// The per-PMD lookup caches in front of the shared classifier: the
/// exact-match cache (tier 1) and the megaflow cache (tier 2).
pub struct PmdCaches {
    pub emc: Emc,
    pub megaflow: Megaflow,
    /// This PMD's perf block: counters plus per-stage/per-tier cycle
    /// histograms. Lives behind the same (uncontended) per-PMD mutex as
    /// the caches, so hot-path attribution happens while the guard for the
    /// lookup group is already held; operator snapshots clone it.
    pub perf: PmdPerf,
    /// Rolling megaflow-hit counter driving 1-in-[`EMC_PROMOTION_INTERVAL`]
    /// EMC promotion.
    emc_promotion_tick: u64,
    /// Rolling burst counter driving 1-in-[`STAGE_SAMPLE_INTERVAL`]
    /// cycle-stamped bursts (a TSC read per flow group is too expensive to
    /// pay on every burst; see [`Datapath::process_burst`]).
    stage_sample_tick: u32,
    /// Packets processed in unstamped bursts since the last stamped one.
    /// Flushed into the classify/execute histograms at the representative
    /// costs below, so stage counts always equal packets processed.
    carry_pkts: u64,
    /// Mean per-group classify cost of the last stamped burst.
    last_classify_cyc: u64,
    /// Burst-level execute cost of the last stamped burst.
    last_exec_cyc: u64,
    /// Table generation of this PMD's latest resolution.
    resolved_at: Option<u64>,
}

impl Default for PmdCaches {
    fn default() -> Self {
        Self::new()
    }
}

impl PmdCaches {
    /// Default-sized caches (8 Ki exact flows, 64 Ki aggregates).
    pub fn new() -> PmdCaches {
        PmdCaches::with_capacity(DEFAULT_EMC_ENTRIES, DEFAULT_MEGAFLOW_ENTRIES)
    }

    /// Caches bounded to the given entry counts; a capacity of 0 disables
    /// the corresponding tier.
    pub fn with_capacity(emc_entries: usize, megaflow_entries: usize) -> PmdCaches {
        PmdCaches {
            emc: Emc::new(emc_entries),
            megaflow: Megaflow::new(megaflow_entries),
            perf: PmdPerf::new(0),
            emc_promotion_tick: 0,
            stage_sample_tick: 0,
            carry_pkts: 0,
            last_classify_cyc: 0,
            last_exec_cyc: 0,
            resolved_at: None,
        }
    }

    /// Folds packets carried from unstamped bursts into the classify and
    /// execute histograms at the last stamped burst's representative
    /// costs, restoring the "stage counts == packets processed" identity.
    /// Called at the end of every stamped burst and before snapshotting.
    fn flush_stage_carry(&mut self) {
        if self.carry_pkts > 0 {
            let (carry, lc, le) = (self.carry_pkts, self.last_classify_cyc, self.last_exec_cyc);
            self.carry_pkts = 0;
            self.perf.record_stage(Stage::Classify, lc, carry);
            self.perf.record_stage(Stage::Execute, le, carry);
        }
    }

    /// The table generation this PMD last resolved against (`None` before
    /// the first classification): what its cache entries must carry to be
    /// served. The multi-PMD coherence tests assert this catches up with
    /// the live generation after `flow_mod` churn.
    pub fn snapshot_generation(&self) -> Option<u64> {
        self.resolved_at
    }
}

/// Which tier of the lookup hierarchy resolved a packet group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheTier {
    /// Tier 1: exact-match cache.
    Emc,
    /// Tier 2: megaflow (wildcard) cache.
    Megaflow,
    /// Tier 3: full tuple-space classifier walk (also the miss tier).
    Classifier,
}

/// A point-in-time copy of the datapath's lookup counters, split by the
/// tier that resolved each packet. The invariants these satisfy are pinned
/// by `stats_split_by_tier_is_consistent` (and reported via `OFPST_TABLE`):
///
/// * `lookups == matched + misses`  — every processed packet is one lookup;
/// * `matched == emc_hits + megaflow_hits + classifier_hits` — every
///   matched packet is attributed to exactly one tier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheTierStats {
    pub lookups: u64,
    pub matched: u64,
    pub emc_hits: u64,
    pub megaflow_hits: u64,
    pub classifier_hits: u64,
    /// Packets that matched no rule (dropped or punted, per miss policy).
    pub misses: u64,
    /// Packets dropped at transmit because their destination port vanished
    /// between classification and flush. Post-match, so it does not perturb
    /// the `lookups`/`matched` identities above.
    pub tx_no_port_drops: u64,
}

/// Shared datapath state: the port table and the flow table.
pub struct Datapath {
    pub ports: RwLock<BTreeMap<PortNo, Arc<OvsPort>>>,
    /// The flow table. [`Datapath::table_apply`]/[`Datapath::table_sweep`]
    /// take the write side, for the rules they touch; [`Datapath::table`]
    /// and a classify that missed both caches take the read side.
    table: RwLock<FlowTable>,
    /// The table's generation counter (the cell the table itself bumps,
    /// inside the write section, once a change is complete). Cache hits
    /// validate against it without touching the lock.
    table_generation: Arc<AtomicU64>,
    /// Bumped whenever the port set changes (PMD refreshes its snapshot).
    pub ports_generation: AtomicU64,
    /// Table lookups performed: every processed packet counts exactly one,
    /// whichever tier resolves it — `OFPST_TABLE` lookup semantics. Always
    /// equals `matched + (miss_drops + punted misses)`.
    pub lookups: AtomicU64,
    /// Lookups that hit a rule, in any tier. Always equals
    /// `emc_hits + megaflow_hits + classifier_hits`.
    pub matched: AtomicU64,
    /// Packets resolved by the exact-match cache (tier 1).
    pub emc_hits: AtomicU64,
    /// Packets resolved by the megaflow cache (tier 2).
    pub megaflow_hits: AtomicU64,
    /// Packets resolved by a full classifier walk (tier 3).
    pub classifier_hits: AtomicU64,
    /// Packets dropped because no rule matched (miss policy = drop).
    pub miss_drops: AtomicU64,
    /// Packets dropped at transmit because the staged destination port had
    /// been removed by the time [`Datapath::flush_staged`] ran.
    pub tx_no_port_drops: AtomicU64,
    /// Always 0: no packet passes between PMDs, so none is dropped there.
    /// Kept because the benchmark harness reads it; the benchmark-side
    /// change (ROADMAP item 10) retires it.
    pub fanout_drops: AtomicU64,
    /// Punt misses to the controller instead of dropping.
    pub miss_to_controller: bool,
    packet_in_tx: Sender<PacketIn>,
    packet_in_rx: Receiver<PacketIn>,
    /// What the control thread (`ovs-main`) parks on. Notified here when a
    /// punt makes the packet-in queue non-empty; by the controller link
    /// and the daemon for everything else that thread must react to.
    pub(crate) control_wake: Arc<openflow::Event>,
    /// Packet-ins dropped because the controller queue was full.
    pub packet_in_drops: AtomicU64,
    /// Cache handles of the live PMD threads, in PMD order, so operator
    /// paths (`dump_megaflows`, snapshots) can observe the per-PMD caches.
    pmd_caches: RwLock<Vec<Arc<Mutex<PmdCaches>>>>,
    /// When false, the hot path skips every cycle read and histogram
    /// update (packet/tier counters still tick — they are plain adds on
    /// state already held). Flippable at runtime.
    telemetry_enabled: AtomicBool,
}

impl Datapath {
    /// Creates an empty datapath. `miss_to_controller` selects the miss
    /// policy (OF 1.0 defaults to punting; benchmarks install full tables
    /// so either way no misses occur there).
    pub fn new(miss_to_controller: bool) -> Arc<Datapath> {
        let (tx, rx) = crossbeam::channel::bounded(1024);
        let table = FlowTable::new();
        Arc::new(Datapath {
            ports: RwLock::new(BTreeMap::new()),
            table_generation: table.generation_handle(),
            table: RwLock::new(table),
            ports_generation: AtomicU64::new(0),
            lookups: AtomicU64::new(0),
            matched: AtomicU64::new(0),
            emc_hits: AtomicU64::new(0),
            megaflow_hits: AtomicU64::new(0),
            classifier_hits: AtomicU64::new(0),
            miss_drops: AtomicU64::new(0),
            tx_no_port_drops: AtomicU64::new(0),
            fanout_drops: AtomicU64::new(0),
            miss_to_controller,
            packet_in_tx: tx,
            packet_in_rx: rx,
            control_wake: Arc::new(openflow::Event::new()),
            packet_in_drops: AtomicU64::new(0),
            pmd_caches: RwLock::new(Vec::new()),
            telemetry_enabled: AtomicBool::new(true),
        })
    }

    /// Whether cycle-stamped telemetry (histograms) is on.
    pub fn telemetry_enabled(&self) -> bool {
        self.telemetry_enabled.load(Ordering::Relaxed)
    }

    /// Enables or disables cycle-stamped telemetry at runtime. Counters
    /// keep ticking either way; only histogram stamping is gated.
    pub fn set_telemetry_enabled(&self, enabled: bool) {
        self.telemetry_enabled.store(enabled, Ordering::Relaxed);
    }

    /// The flow table, read-locked while the guard lives. Hold the guard
    /// for one statement or one block of reads, and never across
    /// [`Datapath::table_apply`]/[`Datapath::table_sweep`], a second
    /// `table()` or a call-out (observer, stats augmenter) on the same
    /// thread: the lock is not re-entrant, and a reader queued behind a
    /// waiting writer that is itself waiting for this guard never wakes.
    pub fn table(&self) -> RwLockReadGuard<'_, FlowTable> {
        self.table.read()
    }

    /// The live table generation: one atomic load, no lock. It moves
    /// inside the write section, so whoever reads it *under a read guard*
    /// has the generation of exactly the contents that guard shows.
    pub fn table_generation(&self) -> u64 {
        self.table_generation.load(Ordering::Acquire)
    }

    /// Applies a flow_mod in place, at the cost of the rules it touches.
    /// The change (and its generation bump) is complete when this returns,
    /// so a caller that mutates and then classifies observes its own change.
    pub fn table_apply(&self, fm: &FlowMod) -> TableChange {
        self.table.write().apply(fm)
    }

    /// Sweeps rule timeouts at cycle `now`.
    pub fn table_sweep(&self, now: u64) -> TableChange {
        self.table.write().sweep_timeouts(now)
    }

    /// Registers a PMD thread's caches for operator observation
    /// (megaflow dumps).
    pub fn register_pmd_caches(&self, caches: &Arc<Mutex<PmdCaches>>) {
        self.pmd_caches.write().push(Arc::clone(caches));
    }

    /// Drops a stopped PMD thread's cache registration.
    pub fn deregister_pmd_caches(&self, caches: &Arc<Mutex<PmdCaches>>) {
        self.pmd_caches.write().retain(|c| !Arc::ptr_eq(c, caches));
    }

    /// Per-PMD snapshots of every cached megaflow aggregate (one vec per
    /// registered PMD, in registration order).
    pub fn megaflow_rows(&self) -> Vec<Vec<MegaflowRow>> {
        self.pmd_caches
            .read()
            .iter()
            .map(|c| c.lock().megaflow.rows())
            .collect()
    }

    /// Point-in-time copy of the tier-split lookup counters.
    pub fn cache_stats(&self) -> CacheTierStats {
        let lookups = self.lookups.load(Ordering::Relaxed);
        let matched = self.matched.load(Ordering::Relaxed);
        CacheTierStats {
            lookups,
            matched,
            emc_hits: self.emc_hits.load(Ordering::Relaxed),
            megaflow_hits: self.megaflow_hits.load(Ordering::Relaxed),
            classifier_hits: self.classifier_hits.load(Ordering::Relaxed),
            misses: lookups.saturating_sub(matched),
            tx_no_port_drops: self.tx_no_port_drops.load(Ordering::Relaxed),
        }
    }

    /// Builds the full structured telemetry view: datapath-wide totals,
    /// one cloned perf block per registered PMD (registration order),
    /// and the process-wide coverage counters. This is the single source
    /// every rendering surface (appctl text, JSON, Prometheus) formats
    /// from.
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        let s = self.cache_stats();
        let pmds: Vec<PmdPerf> = self
            .pmd_caches
            .read()
            .iter()
            .map(|c| {
                let mut guard = c.lock();
                // Settle packets from bursts the sampler skipped, so the
                // snapshot honours "stage counts == packets processed".
                guard.flush_stage_carry();
                guard.perf.clone()
            })
            .collect();
        TelemetrySnapshot {
            enabled: self.telemetry_enabled(),
            taken_at_cycles: cycles::now(),
            pmds,
            totals: DatapathTotals {
                lookups: s.lookups,
                matched: s.matched,
                emc_hits: s.emc_hits,
                megaflow_hits: s.megaflow_hits,
                classifier_hits: s.classifier_hits,
                misses: s.misses,
                miss_drops: self.miss_drops.load(Ordering::Relaxed),
                tx_no_port_drops: s.tx_no_port_drops,
                packet_in_drops: self.packet_in_drops.load(Ordering::Relaxed),
            },
            coverage: coverage::snapshot(),
            pools: telemetry::pools::snapshot_pools(),
            doorbells: telemetry::DoorbellTotals::default(),
        }
    }

    /// Adds a port; panics on duplicate numbers (compute-agent logic error).
    pub fn add_port(&self, port: OvsPort) -> Arc<OvsPort> {
        let no = port.no;
        let port = Arc::new(port);
        let prev = self.ports.write().insert(no, Arc::clone(&port));
        assert!(prev.is_none(), "duplicate port number {no}");
        self.ports_generation.fetch_add(1, Ordering::Release);
        port
    }

    /// Removes a port, returning it if present.
    pub fn remove_port(&self, no: PortNo) -> Option<Arc<OvsPort>> {
        let removed = self.ports.write().remove(&no);
        if removed.is_some() {
            self.ports_generation.fetch_add(1, Ordering::Release);
        }
        removed
    }

    /// Port by number.
    pub fn port(&self, no: PortNo) -> Option<Arc<OvsPort>> {
        self.ports.read().get(&no).cloned()
    }

    /// Numbers of all ports, ascending.
    pub fn port_numbers(&self) -> Vec<PortNo> {
        self.ports.read().keys().copied().collect()
    }

    /// Queued packet-ins for the control plane to forward.
    pub fn drain_packet_ins(&self, max: usize) -> Vec<PacketIn> {
        let mut out = Vec::new();
        while out.len() < max {
            match self.packet_in_rx.try_recv() {
                Ok(pi) => out.push(pi),
                Err(_) => break,
            }
        }
        out
    }

    fn punt(&self, pkt: &Mbuf, in_port: PortNo, reason: PacketInReason) {
        let pi = PacketIn {
            in_port,
            reason,
            data: pkt.to_vec(),
        };
        match self.packet_in_tx.try_send(pi) {
            Ok(()) => self.control_wake.notify(),
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                self.packet_in_drops.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Queues one (already rewritten) packet on the staging queue of every
    /// port `targets` resolves to: a duplicate for each destination but
    /// the last, which takes the original. Controller targets punt a copy
    /// first. Builds no list: the destinations are counted, then staged.
    pub fn stage_outputs(
        &self,
        pkt: Mbuf,
        in_port: PortNo,
        targets: &[OutputTarget],
        staged: &mut BTreeMap<PortNo, Vec<Mbuf>>,
        port_snapshot: &[Arc<OvsPort>],
    ) {
        let flood = || port_snapshot.iter().filter(|p| p.no != in_port);
        let mut left = 0usize;
        for t in targets {
            match t {
                OutputTarget::Port(_) | OutputTarget::InPort => left += 1,
                OutputTarget::Flood => left += flood().count(),
                OutputTarget::Controller => self.punt(&pkt, in_port, PacketInReason::Action),
            }
        }
        let mut pkt = Some(pkt);
        let mut stage = |dest: PortNo| {
            left -= 1;
            let m = match left {
                0 => pkt.take(),
                _ => pkt.as_ref().map(Mbuf::duplicate),
            };
            staged.entry(dest).or_default().extend(m);
        };
        for t in targets {
            match *t {
                OutputTarget::Port(p) => stage(p),
                OutputTarget::InPort => stage(in_port),
                OutputTarget::Flood => flood().for_each(|p| stage(p.no)),
                OutputTarget::Controller => {}
            }
        }
    }

    /// Resolves one flow key through the lookup hierarchy: EMC, then
    /// megaflow, then a staged classifier walk whose result primes both
    /// caches. Returns the rule (if any) and the tier that resolved it.
    /// `pkts`/`bytes` are the burst share this resolution stands for
    /// (megaflow dump counters); counter attribution on the datapath
    /// itself is the caller's job.
    pub fn classify(
        &self,
        in_port: PortNo,
        key: &packet_wire::FlowKey,
        caches: Option<&mut PmdCaches>,
        pkts: u64,
        bytes: u64,
    ) -> (Option<Arc<RuleEntry>>, CacheTier) {
        self.resolve(in_port, &key.pack(in_port.0), caches, pkts, bytes)
    }

    /// [`Datapath::classify`] for a key already packed with its in-port.
    fn resolve(
        &self,
        in_port: PortNo,
        key: &PackedKey,
        caches: Option<&mut PmdCaches>,
        pkts: u64,
        bytes: u64,
    ) -> (Option<Arc<RuleEntry>>, CacheTier) {
        let Some(caches) = caches else {
            let (_, key) = key.unpack();
            return (self.table().lookup(in_port, &key), CacheTier::Classifier);
        };
        // A hit takes no lock: an entry is served only if it was stamped
        // with the generation this one atomic load returns.
        let generation = self.table_generation();
        caches.resolved_at = Some(generation);
        if let Some(rule) = caches.emc.lookup(key, generation) {
            return (Some(rule), CacheTier::Emc);
        }
        if let Some(rule) = caches.megaflow.lookup(key, generation, pkts, bytes) {
            // A megaflow hit promotes the exact flow into the EMC only
            // 1-in-N, like OVS's probabilistic EMC insertion on the dpcls
            // path: when the working set exceeds the EMC, unconditional
            // promotion would keep clearing the hot flows it just cached.
            caches.emc_promotion_tick = caches.emc_promotion_tick.wrapping_add(1);
            if caches.emc_promotion_tick % EMC_PROMOTION_INTERVAL == 1 {
                caches.emc.insert(*key, Arc::clone(&rule), generation);
            }
            return (Some(rule), CacheTier::Megaflow);
        }
        // Both caches missed: the one place the data path locks the table.
        // Stamp under the guard — what this walk primes must carry the
        // generation read while the guard that showed it the rules is
        // held. The earlier load would at worst prime an entry dead on
        // arrival; a load after the guard is gone could pair old rules
        // with a new stamp, which is the stale-action bug.
        let (found, staged_mask, generation) = {
            let table = self.table();
            let (found, staged_mask) = table.lookup_staged(in_port, &key.unpack().1);
            (found, staged_mask, table.generation())
        };
        caches.resolved_at = Some(generation);
        if let Some(rule) = &found {
            caches
                .megaflow
                .insert(key, staged_mask, Arc::clone(rule), generation, pkts, bytes);
            caches.emc.insert(*key, Arc::clone(rule), generation);
        }
        (found, CacheTier::Classifier)
    }

    /// Runs one received burst through the three-stage pipeline (see
    /// `docs/datapath.md`, "Burst pipeline"), in chunks of at most
    /// [`DEFAULT_BURST`] packets:
    ///
    /// 1. **group** — extract and pack every packet's key once, and group
    ///    equal keys through a small in-burst hash table;
    /// 2. **resolve** — resolve each distinct key once through
    ///    [`Datapath::classify`], and count each rule's hits once per run
    ///    of groups that share it;
    /// 3. **stage** — in burst order, run each packet's rule plan (its
    ///    [`OutputPlan`](crate::actions::OutputPlan), compiled at install)
    ///    and queue it on `staged`.
    ///
    /// Per-flow order is kept and the burst drains completely. The lookup
    /// counters are added to the datapath once per call. `caches` is
    /// locked once for the whole burst: in the threaded datapath each PMD
    /// owns its caches, so the lock is uncontended except by an operator
    /// snapshot, which waits for at most one burst.
    pub fn process_burst(
        &self,
        burst: &mut Vec<Mbuf>,
        in_port: PortNo,
        caches: Option<&Mutex<PmdCaches>>,
        staged: &mut BTreeMap<PortNo, Vec<Mbuf>>,
        port_snapshot: &[Arc<OvsPort>],
        now: u64,
    ) {
        let mut guard = caches.map(|m| m.lock());
        let telemetry = self.telemetry_enabled();
        // Cycle stamping is *burst-sampled* (1-in-STAGE_SAMPLE_INTERVAL):
        // a stamped burst reads the clock once per flow group (classify)
        // plus twice per chunk (execute), an unstamped burst never.
        let sampled = match guard.as_deref_mut() {
            Some(c) if telemetry => {
                let tick = c.stage_sample_tick;
                c.stage_sample_tick = tick.wrapping_add(1);
                tick % STAGE_SAMPLE_INTERVAL == 0
            }
            _ => false,
        };
        let mut chunk = Chunk::new();
        let mut counts = BurstCounts::default();
        let (mut classify_cycles, mut exec_cycles, mut groups) = (0u64, 0u64, 0u64);
        while !burst.is_empty() {
            let len = burst.len().min(DEFAULT_BURST);
            chunk.group(&burst[..len], in_port);
            let mut cursor = if sampled { cycles::now() } else { 0 };
            for g in 0..chunk.groups {
                let (n, bytes) = (chunk.packets[g], chunk.bytes[g]);
                let (rule, tier) =
                    self.resolve(in_port, &chunk.keys[g], guard.as_deref_mut(), n, bytes);
                let resolved = rule.as_ref().map(|_| tier);
                if let Some(c) = guard.as_deref_mut() {
                    // Misses are attributed with `None`: they walked the
                    // whole hierarchy but hit no tier.
                    let tier = resolved.map(|t| match t {
                        CacheTier::Emc => Tier::Emc,
                        CacheTier::Megaflow => Tier::Megaflow,
                        CacheTier::Classifier => Tier::Classifier,
                    });
                    if sampled {
                        let t = cycles::now();
                        let cyc = t.saturating_sub(cursor);
                        cursor = t;
                        classify_cycles += cyc;
                        c.perf.record_lookup(tier, cyc, n);
                        c.perf.record_stage(Stage::Classify, cyc, n);
                    } else {
                        c.perf.count_lookup(tier, n);
                        if telemetry {
                            c.carry_pkts += n;
                        }
                    }
                }
                if rule.is_none() {
                    coverage!("upcall_miss");
                }
                counts.add(resolved, n);
                chunk.rules[g] = rule;
            }
            groups += chunk.groups as u64;
            chunk.count_rule_hits(now);
            self.stage_chunk(
                &chunk,
                burst.drain(..len),
                in_port,
                staged,
                port_snapshot,
                &mut counts,
            );
            if sampled {
                exec_cycles += cycles::now().saturating_sub(cursor);
            }
        }
        counts.publish(self);
        if sampled && counts.lookups > 0 {
            if let Some(c) = guard.as_deref_mut() {
                c.perf
                    .record_stage(Stage::Execute, exec_cycles, counts.lookups);
                // Remember this burst's costs as the representative value
                // for packets carried from the unstamped bursts around it.
                c.last_classify_cyc = classify_cycles / groups.max(1);
                c.last_exec_cyc = exec_cycles;
                c.flush_stage_carry();
            }
        }
    }

    /// Stage 3 of [`Datapath::process_burst`] for one chunk: every packet,
    /// in burst order, runs its rule's plan. A miss is punted or dropped.
    /// A run of packets bound for one port without duplication shares one
    /// `staged` lookup; anything else goes through
    /// [`Datapath::stage_outputs`].
    fn stage_chunk(
        &self,
        chunk: &Chunk,
        pkts: impl Iterator<Item = Mbuf>,
        in_port: PortNo,
        staged: &mut BTreeMap<PortNo, Vec<Mbuf>>,
        port_snapshot: &[Arc<OvsPort>],
        counts: &mut BurstCounts,
    ) {
        let plan_of = |i: usize| {
            chunk.rules[usize::from(chunk.group_of[i])]
                .as_deref()
                .map(|r| &r.plan)
        };
        let mut pkts = pkts.enumerate().peekable();
        while let Some((i, mut pkt)) = pkts.next() {
            let Some(plan) = plan_of(i) else {
                if self.miss_to_controller {
                    self.punt(&pkt, in_port, PacketInReason::NoMatch);
                } else {
                    counts.miss_drops += 1;
                }
                continue;
            };
            plan.rewrite(&mut pkt);
            let Some(dest) = plan.single_port(in_port) else {
                self.stage_outputs(pkt, in_port, plan.outputs(), staged, port_snapshot);
                continue;
            };
            let queue = staged.entry(dest).or_default();
            queue.push(pkt);
            let same_dest = |(j, _): &(usize, Mbuf)| {
                plan_of(*j).and_then(|p| p.single_port(in_port)) == Some(dest)
            };
            while let Some((j, mut pkt)) = pkts.next_if(same_dest) {
                if let Some(plan) = plan_of(j) {
                    plan.rewrite(&mut pkt);
                }
                queue.push(pkt);
            }
        }
    }

    /// Runs one packet through lookup + action execution, staging the
    /// results — a burst of one. Shared by packet-out handling and tests.
    pub fn process_packet(
        &self,
        pkt: Mbuf,
        in_port: PortNo,
        caches: Option<&Mutex<PmdCaches>>,
        staged: &mut BTreeMap<PortNo, Vec<Mbuf>>,
        port_snapshot: &[Arc<OvsPort>],
        now: u64,
    ) {
        let mut burst = vec![pkt];
        self.process_burst(&mut burst, in_port, caches, staged, port_snapshot, now);
    }

    /// Flushes staged packets to their ports (dropping on full rings).
    /// Packets staged for a port that vanished since classification are
    /// counted in [`Datapath::tx_no_port_drops`] and their key is removed
    /// from `staged` — dead ports must not pin map entries forever across
    /// PMD iterations. With nothing staged it takes no lock at all.
    pub fn flush_staged(&self, staged: &mut BTreeMap<PortNo, Vec<Mbuf>>) {
        if staged.values().all(Vec::is_empty) {
            return;
        }
        let ports = self.ports.read();
        staged.retain(|dest, pkts| match ports.get(dest) {
            Some(port) => {
                if !pkts.is_empty() {
                    port.tx_burst_or_drop(pkts);
                }
                true
            }
            None => {
                self.tx_no_port_drops
                    .fetch_add(pkts.len() as u64, Ordering::Relaxed);
                false
            }
        });
    }
}

/// Slots of the in-burst grouping table: a power of two, twice the burst,
/// so probe sequences stay short.
const GROUP_SLOTS: usize = 2 * DEFAULT_BURST;

/// One chunk (at most [`DEFAULT_BURST`] packets) of a burst between the
/// stages of [`Datapath::process_burst`]; fixed arrays, held on the stack.
struct Chunk {
    /// Group of each packet, in burst order.
    group_of: [u8; DEFAULT_BURST],
    /// Distinct keys in the chunk; the arrays below hold one entry per
    /// group, in order of first appearance.
    groups: usize,
    keys: [PackedKey; DEFAULT_BURST],
    packets: [u64; DEFAULT_BURST],
    bytes: [u64; DEFAULT_BURST],
    rules: [Option<Arc<RuleEntry>>; DEFAULT_BURST],
}

impl Chunk {
    fn new() -> Chunk {
        Chunk {
            group_of: [0; DEFAULT_BURST],
            groups: 0,
            keys: [PackedKey::default(); DEFAULT_BURST],
            packets: [0; DEFAULT_BURST],
            bytes: [0; DEFAULT_BURST],
            rules: std::array::from_fn(|_| None),
        }
    }

    /// Stage 1: extracts and packs each packet's key once and groups equal
    /// keys through an open-addressed table. Its hash is unkeyed, which is
    /// safe: the table holds one chunk at most, so a collision costs at
    /// worst a probe over [`DEFAULT_BURST`] slots.
    fn group(&mut self, pkts: &[Mbuf], in_port: PortNo) {
        let mut slots = [0u8; GROUP_SLOTS];
        self.groups = 0;
        for (i, pkt) in pkts.iter().enumerate() {
            let key = packet_wire::FlowKey::extract(pkt.data()).pack(in_port.0);
            let [a, b, c, d] = key.0;
            let h = (a ^ b.rotate_left(16) ^ c.rotate_left(32) ^ d.rotate_left(48))
                .wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let mut slot = (h >> (64 - GROUP_SLOTS.trailing_zeros())) as usize;
            let g = loop {
                match usize::from(slots[slot]) {
                    0 => {
                        let g = self.groups;
                        self.groups += 1;
                        slots[slot] = self.groups as u8;
                        (self.keys[g], self.packets[g], self.bytes[g]) = (key, 0, 0);
                        break g;
                    }
                    id if self.keys[id - 1] == key => break id - 1,
                    _ => slot = (slot + 1) % GROUP_SLOTS,
                }
            };
            self.group_of[i] = g as u8;
            self.packets[g] += 1;
            self.bytes[g] += pkt.len() as u64;
        }
    }

    /// Counts each resolved rule's hits: one [`RuleEntry::hit_n`] per run
    /// of consecutive groups that share the rule.
    fn count_rule_hits(&self, now: u64) {
        let mut g = 0;
        while g < self.groups {
            let Some(rule) = &self.rules[g] else {
                g += 1;
                continue;
            };
            let (mut packets, mut bytes) = (0, 0);
            while g < self.groups && self.rules[g].as_ref().is_some_and(|r| Arc::ptr_eq(r, rule)) {
                packets += self.packets[g];
                bytes += self.bytes[g];
                g += 1;
            }
            rule.hit_n(packets, bytes, now);
        }
    }
}

/// The datapath's lookup counters for one burst, added to its atomics
/// once per [`Datapath::process_burst`] call.
#[derive(Default)]
struct BurstCounts {
    lookups: u64,
    emc: u64,
    megaflow: u64,
    classifier: u64,
    misses: u64,
    miss_drops: u64,
}

impl BurstCounts {
    /// Counts `n` packets resolved in `tier` (`None`: missed).
    fn add(&mut self, tier: Option<CacheTier>, n: u64) {
        self.lookups += n;
        match tier {
            Some(CacheTier::Emc) => self.emc += n,
            Some(CacheTier::Megaflow) => self.megaflow += n,
            Some(CacheTier::Classifier) => self.classifier += n,
            None => self.misses += n,
        }
    }

    fn publish(&self, dp: &Datapath) {
        let matched = self.lookups - self.misses;
        for (counter, n) in [
            (&dp.lookups, self.lookups),
            (&dp.matched, matched),
            (&dp.emc_hits, self.emc),
            (&dp.megaflow_hits, self.megaflow),
            (&dp.classifier_hits, self.classifier),
            (&dp.miss_drops, self.miss_drops),
        ] {
            if n > 0 {
                counter.fetch_add(n, Ordering::Relaxed);
            }
        }
    }
}

/// A deterministic hash of `(in_port, 5-tuple key)` modulo `total`. Every
/// caller must agree on the result, so this uses `DefaultHasher::new()`
/// (fixed keys, identical across threads) rather than a per-instance
/// randomised hasher. The live datapath assigns flows by port, not by
/// this hash; the stepped benchmark twin still models a per-flow spread
/// with it, and the coherence tests use it to spread flows over several
/// cache sets.
pub fn rss_owner(in_port: PortNo, key: &packet_wire::FlowKey, total: usize) -> usize {
    use std::hash::{Hash, Hasher};
    if total <= 1 {
        return 0;
    }
    let mut h = std::collections::hash_map::DefaultHasher::new();
    in_port.0.hash(&mut h);
    key.hash(&mut h);
    (h.finish() % total as u64) as usize
}

/// The ports PMD `index` of `total` polls: those whose position in the
/// ascending port order is `index` modulo `total` (OVS's `roundrobin` rxq
/// assignment). Every port has exactly one owner.
fn owned_ports(ports: &[Arc<OvsPort>], index: usize, total: usize) -> Vec<Arc<OvsPort>> {
    ports.iter().skip(index).step_by(total).cloned().collect()
}

/// One synchronous burst-batched PMD iteration over every port — the body
/// of [`PmdThread::run`] minus the thread, for deterministic unit tests.
#[cfg(test)]
pub(crate) fn pump_once(dp: &Datapath, caches: Option<&Mutex<PmdCaches>>) {
    let snapshot: Vec<Arc<OvsPort>> = dp.ports.read().values().cloned().collect();
    let mut staged = BTreeMap::new();
    let now = cycles::now();
    for port in &snapshot {
        let mut rx = Vec::new();
        port.rx_burst(&mut rx, DEFAULT_BURST);
        if !rx.is_empty() {
            dp.process_burst(&mut rx, port.no, caches, &mut staged, &snapshot, now);
            dp.flush_staged(&mut staged);
        }
    }
}

/// A PMD thread: polls its share of the ports and runs every packet it
/// polls to completion — classify against its own caches, execute, stage,
/// flush, burst by burst. With one thread (the default) this is a single-core OVS-DPDK
/// deployment; with several, each port is polled by exactly one PMD (see
/// [`PmdThread::with_share`]).
pub struct PmdThread {
    dp: Arc<Datapath>,
    stop: Arc<AtomicBool>,
    /// This thread's index within the PMD set.
    index: usize,
    /// Total PMD threads sharing the ports.
    total: usize,
    /// This PMD's caches and perf block. Registered with the datapath from
    /// construction until the thread is dropped, so a snapshot taken once
    /// the PMD exists shows its block, polled or not.
    caches: Arc<Mutex<PmdCaches>>,
}

impl PmdThread {
    /// Creates a PMD owning *all* ports (single-PMD deployment).
    pub fn new(dp: Arc<Datapath>, stop: Arc<AtomicBool>) -> PmdThread {
        PmdThread::with_share(dp, stop, 0, 1)
    }

    /// Creates PMD `index` of `total`, polling ports whose position in the
    /// ascending port order is `index` modulo `total`, and registers its
    /// caches with the datapath.
    pub fn with_share(
        dp: Arc<Datapath>,
        stop: Arc<AtomicBool>,
        index: usize,
        total: usize,
    ) -> PmdThread {
        assert!(total >= 1 && index < total, "bad PMD share {index}/{total}");
        let caches = Arc::new(Mutex::new(PmdCaches::new()));
        caches.lock().perf.pmd = index;
        dp.register_pmd_caches(&caches);
        PmdThread {
            dp,
            stop,
            index,
            total,
            caches,
        }
    }

    /// Runs until the stop flag is raised. Yields when fully idle so the
    /// reproduction behaves on machines with fewer cores than the testbed.
    pub fn run(self) {
        let mut rx_buf: Vec<Mbuf> = Vec::with_capacity(DEFAULT_BURST);
        let mut staged: BTreeMap<PortNo, Vec<Mbuf>> = BTreeMap::new();
        let mut snapshot: Vec<Arc<OvsPort>> = Vec::new();
        let mut mine: Vec<Arc<OvsPort>> = Vec::new();
        let mut snapshot_gen = u64::MAX;

        while !self.stop.load(Ordering::Acquire) {
            // Per-iteration telemetry accumulators, folded into the perf
            // block with one lock at the end of the iteration.
            let telemetry = self.dp.telemetry_enabled();
            let mut it_rx_packets = 0u64;
            let mut it_rx_batches = 0u64;
            let mut it_rx_cycles = 0u64;
            let (mut tx_pkts, mut tx_cycles) = (0u64, 0u64);
            let gen = self.dp.ports_generation.load(Ordering::Acquire);
            if gen != snapshot_gen {
                snapshot = self.dp.ports.read().values().cloned().collect();
                mine = owned_ports(&snapshot, self.index, self.total);
                snapshot_gen = gen;
            }
            let now = cycles::now();
            // The clock is read only after a non-empty poll: the time since
            // the previous stamp (empty polls included) counts as rx.
            let mut stamp = now;
            for port in &mine {
                let n = port.rx_burst(&mut rx_buf, DEFAULT_BURST);
                if n == 0 {
                    continue;
                }
                if telemetry {
                    let t = cycles::now();
                    it_rx_cycles += t.saturating_sub(stamp);
                    stamp = t;
                }
                it_rx_packets += n as u64;
                it_rx_batches += 1;
                // Drains `rx_buf` for the next port.
                self.dp.process_burst(
                    &mut rx_buf,
                    port.no,
                    Some(&*self.caches),
                    &mut staged,
                    &snapshot,
                    now,
                );
                // The burst's outputs leave at once, as OVS-DPDK flushes
                // after each rx batch: no packet waits while the PMD polls
                // and processes its other ports.
                let t_tx = if telemetry { cycles::now() } else { 0 };
                tx_pkts += staged.values().map(|v| v.len() as u64).sum::<u64>();
                self.dp.flush_staged(&mut staged);
                if telemetry {
                    stamp = cycles::now();
                    tx_cycles += stamp.saturating_sub(t_tx);
                }
            }
            let idle = it_rx_packets == 0;
            {
                // One fold per iteration: counters always, histograms and
                // cycle attribution only when telemetry is enabled.
                let mut guard = self.caches.lock();
                let perf = &mut guard.perf;
                perf.iterations += 1;
                if idle {
                    perf.idle_iterations += 1;
                }
                perf.rx_packets += it_rx_packets;
                perf.rx_batches += it_rx_batches;
                perf.tx_packets += tx_pkts;
                if telemetry {
                    let t_end = cycles::now();
                    if it_rx_packets > 0 {
                        perf.record_stage(Stage::RxBurst, it_rx_cycles, it_rx_packets);
                    }
                    if tx_pkts > 0 {
                        perf.record_stage(Stage::TxFlush, tx_cycles, tx_pkts);
                    }
                    let iter_cycles = t_end.saturating_sub(now);
                    if idle {
                        perf.idle_cycles += iter_cycles;
                    } else {
                        perf.busy_cycles += iter_cycles;
                    }
                }
            }
            if idle {
                std::thread::yield_now();
            }
        }
    }
}

impl Drop for PmdThread {
    fn drop(&mut self) {
        self.dp.deregister_pmd_caches(&self.caches);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openflow::messages::FlowMod;
    use openflow::{Action, FlowMatch};
    use packet_wire::PacketBuilder;
    use shmem_sim::channel;

    fn probe() -> Mbuf {
        Mbuf::from_slice(&PacketBuilder::udp_probe(64).build())
    }

    /// Builds a 2-port datapath; returns (dp, vm1 end, vm2 end).
    fn two_port_dp(
        miss_to_controller: bool,
    ) -> (Arc<Datapath>, shmem_sim::ChannelEnd, shmem_sim::ChannelEnd) {
        let dp = Datapath::new(miss_to_controller);
        let (sw1, vm1) = channel("dpdkr1", 64);
        let (sw2, vm2) = channel("dpdkr2", 64);
        dp.add_port(OvsPort::dpdkr(PortNo(1), "dpdkr1", sw1));
        dp.add_port(OvsPort::dpdkr(PortNo(2), "dpdkr2", sw2));
        (dp, vm1, vm2)
    }

    fn pump(dp: &Arc<Datapath>) {
        // One synchronous PMD iteration (no thread), for deterministic tests.
        pump_once(dp, None);
    }

    #[test]
    fn forwards_along_installed_rule() {
        let (dp, mut vm1, mut vm2) = two_port_dp(false);
        dp.table_apply(&FlowMod::add(
            FlowMatch::in_port(PortNo(1)),
            10,
            vec![Action::Output(PortNo(2))],
        ));
        vm1.send(probe()).unwrap();
        pump(&dp);
        assert_eq!(vm2.recv().unwrap().len(), 64);
        assert!(vm1.recv().is_none());
        // Rule counters ticked.
        let table = dp.table();
        let rule = &table.rules()[0];
        assert_eq!(rule.counters(), (1, 64));
    }

    #[test]
    fn miss_drop_policy_counts() {
        let (dp, mut vm1, _vm2) = two_port_dp(false);
        vm1.send(probe()).unwrap();
        pump(&dp);
        assert_eq!(dp.miss_drops.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn miss_punt_policy_queues_packet_in() {
        let (dp, mut vm1, _vm2) = two_port_dp(true);
        vm1.send(probe()).unwrap();
        pump(&dp);
        let pis = dp.drain_packet_ins(8);
        assert_eq!(pis.len(), 1);
        assert_eq!(pis[0].in_port, PortNo(1));
        assert_eq!(pis[0].reason, PacketInReason::NoMatch);
        assert_eq!(pis[0].data.len(), 64);
    }

    #[test]
    fn flood_replicates_to_all_but_ingress() {
        let (dp, mut vm1, mut vm2) = two_port_dp(false);
        let (sw3, mut vm3) = channel("dpdkr3", 64);
        dp.add_port(OvsPort::dpdkr(PortNo(3), "dpdkr3", sw3));
        dp.table_apply(&FlowMod::add(
            FlowMatch::any(),
            1,
            vec![Action::Output(PortNo::FLOOD)],
        ));
        vm1.send(probe()).unwrap();
        pump(&dp);
        assert!(vm1.recv().is_none());
        assert_eq!(vm2.recv().unwrap().len(), 64);
        assert_eq!(vm3.recv().unwrap().len(), 64);
    }

    #[test]
    fn flooding_an_arena_packet_yields_independent_copies() {
        let dp = Datapath::new(false);
        let ports: Vec<Arc<OvsPort>> = (1..=4)
            .map(|n| {
                let (sw, _vm) = channel(format!("flood{n}"), 8);
                dp.add_port(OvsPort::dpdkr(PortNo(n), format!("flood{n}"), sw))
            })
            .collect();
        let arena = dpdk_sim::Arena::new("flood", 8, 512);
        let mut pkt = Mbuf::from_arena(arena.alloc_from(&[7; 60]).unwrap());
        pkt.udata = 0x77;

        let mut staged = BTreeMap::new();
        dp.stage_outputs(pkt, PortNo(1), &[OutputTarget::Flood], &mut staged, &ports);
        let dests: Vec<PortNo> = staged.keys().copied().collect();
        assert_eq!(dests, [PortNo(2), PortNo(3), PortNo(4)]);
        let mut out: Vec<Mbuf> = staged.into_values().flatten().collect();
        assert!(
            !out[0].is_arena() && !out[1].is_arena(),
            "copies are private"
        );
        assert!(out[2].is_arena(), "the last port gets the original");
        assert_eq!(arena.in_use(), 1, "no copy took a slot");
        for m in &out {
            assert_eq!((m.data(), m.udata), (&[7; 60][..], 0x77));
        }

        out[0].data_mut()[0] = 1;
        assert_eq!(out[1].data(), &[7; 60]);
        assert_eq!(out[2].data(), &[7; 60], "the original is unchanged");
        out[2].data_mut()[1] = 2;
        assert_eq!(out[0].data()[..2], [1, 7]);
        assert_eq!(out[1].data(), &[7; 60]);
        assert_eq!(out[2].data()[..2], [7, 2]);

        assert_eq!(arena.stats().cow_copies, 0);
        drop(out);
        assert!(arena.census_clean(), "census: {:?}", arena.stats());
    }

    #[test]
    fn controller_action_punts_and_still_forwards() {
        let (dp, mut vm1, mut vm2) = two_port_dp(false);
        dp.table_apply(&FlowMod::add(
            FlowMatch::in_port(PortNo(1)),
            10,
            vec![
                Action::Output(PortNo::CONTROLLER),
                Action::Output(PortNo(2)),
            ],
        ));
        vm1.send(probe()).unwrap();
        pump(&dp);
        assert_eq!(dp.drain_packet_ins(8).len(), 1);
        assert!(vm2.recv().is_some());
    }

    #[test]
    fn pmd_thread_moves_traffic_end_to_end() {
        let (dp, mut vm1, mut vm2) = two_port_dp(false);
        dp.table_apply(&FlowMod::add(
            FlowMatch::in_port(PortNo(1)),
            10,
            vec![Action::Output(PortNo(2))],
        ));
        let stop = Arc::new(AtomicBool::new(false));
        let pmd = PmdThread::new(Arc::clone(&dp), Arc::clone(&stop));
        let handle = std::thread::spawn(move || pmd.run());

        for i in 0..100u64 {
            let mut m = probe();
            m.udata = i;
            while vm1.send(m).is_err() {
                m = probe();
                m.udata = i;
                std::thread::yield_now();
            }
        }
        let mut got = 0;
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while got < 100 && std::time::Instant::now() < deadline {
            if vm2.recv().is_some() {
                got += 1;
            } else {
                std::thread::yield_now();
            }
        }
        stop.store(true, Ordering::Release);
        handle.join().unwrap();
        assert_eq!(got, 100);
    }

    /// One synchronous burst-batched PMD iteration with the given caches.
    fn pump_with_caches(dp: &Arc<Datapath>, caches: &Mutex<PmdCaches>) {
        pump_once(dp, Some(caches));
    }

    /// Pins the tier-split stats semantics (`OFPST_TABLE` consistency):
    /// lookups == matched + misses, matched == sum of per-tier hits, and a
    /// repeated flow climbs the hierarchy (classifier → megaflow/EMC).
    #[test]
    fn stats_split_by_tier_is_consistent() {
        let (dp, mut vm1, _vm2) = two_port_dp(false);
        dp.table_apply(&FlowMod::add(
            FlowMatch::in_port(PortNo(1)),
            10,
            vec![Action::Output(PortNo(2))],
        ));
        let caches = Mutex::new(PmdCaches::new());

        // Burst 1: two packets of one flow + one of another → grouped
        // classification resolves each group once, in the classifier.
        for seq in [1u64, 1, 2] {
            vm1.send(Mbuf::from_slice(
                &PacketBuilder::udp_probe(64)
                    .ports(40000, seq as u16)
                    .build(),
            ))
            .unwrap();
        }
        pump_with_caches(&dp, &caches);
        let s = dp.cache_stats();
        assert_eq!(s.lookups, 3, "every packet is one lookup");
        assert_eq!(s.matched, 3);
        // Group 1 (2 pkts) walks the cold classifier; its staged mask pins
        // only in_port, so group 2's new flow is already a megaflow hit.
        assert_eq!(s.classifier_hits, 2);
        assert_eq!(s.megaflow_hits, 1);
        assert_eq!(s.emc_hits, 0);
        // The caches resolved once per *group*, not per packet.
        assert_eq!(
            caches.lock().emc.stats().1,
            2,
            "one EMC miss per flow group"
        );

        // Burst 2: the same flows again → EMC hits.
        for seq in [1u64, 2] {
            vm1.send(Mbuf::from_slice(
                &PacketBuilder::udp_probe(64)
                    .ports(40000, seq as u16)
                    .build(),
            ))
            .unwrap();
        }
        pump_with_caches(&dp, &caches);
        let s = dp.cache_stats();
        assert_eq!(s.lookups, 5);
        assert_eq!(s.matched, 5);
        assert_eq!(s.emc_hits, 2);
        assert_eq!(s.matched, s.emc_hits + s.megaflow_hits + s.classifier_hits);

        // A miss (no rule for port 2 traffic is irrelevant here: remove the
        // rule) keeps the identity lookups == matched + misses.
        dp.table_apply(&FlowMod::delete(FlowMatch::any()));
        vm1.send(probe()).unwrap();
        pump_with_caches(&dp, &caches);
        let s = dp.cache_stats();
        assert_eq!(s.lookups, 6);
        assert_eq!(s.matched, 5);
        assert_eq!(s.misses, 1);
        assert_eq!(dp.miss_drops.load(Ordering::Relaxed), 1);
        assert_eq!(s.matched, s.emc_hits + s.megaflow_hits + s.classifier_hits);
    }

    /// The megaflow tier serves EMC misses: a wildcard rule resolved for
    /// one flow covers sibling flows under the staged mask, so a *new* flow
    /// of the same aggregate is a megaflow hit, not a classifier walk.
    #[test]
    fn megaflow_serves_new_flows_of_a_cached_aggregate() {
        let (dp, mut vm1, mut vm2) = two_port_dp(false);
        dp.table_apply(&FlowMod::add(
            FlowMatch::in_port(PortNo(1)),
            10,
            vec![Action::Output(PortNo(2))],
        ));
        let caches = Mutex::new(PmdCaches::new());

        vm1.send(Mbuf::from_slice(
            &PacketBuilder::udp_probe(64).ports(1000, 1).build(),
        ))
        .unwrap();
        pump_with_caches(&dp, &caches);
        assert_eq!(dp.classifier_hits.load(Ordering::Relaxed), 1);

        // A different 5-tuple, same in_port: the staged mask pinned only
        // in_port, so this is a megaflow hit.
        vm1.send(Mbuf::from_slice(
            &PacketBuilder::udp_probe(64).ports(2000, 2).build(),
        ))
        .unwrap();
        pump_with_caches(&dp, &caches);
        assert_eq!(dp.megaflow_hits.load(Ordering::Relaxed), 1);
        assert_eq!(dp.classifier_hits.load(Ordering::Relaxed), 1);
        assert_eq!(caches.lock().megaflow.mask_count(), 1);
        assert!(vm2.recv().is_some() && vm2.recv().is_some());

        // And the megaflow hit promoted the new flow into the EMC.
        vm1.send(Mbuf::from_slice(
            &PacketBuilder::udp_probe(64).ports(2000, 2).build(),
        ))
        .unwrap();
        pump_with_caches(&dp, &caches);
        assert_eq!(dp.emc_hits.load(Ordering::Relaxed), 1);
    }

    /// Once warm, the megaflow tier catches a working set that thrashes
    /// the EMC: a pass over four times more flows than the EMC holds walks
    /// the classifier not once.
    #[test]
    fn megaflow_absorbs_emc_thrash() {
        const EMC_ENTRIES: usize = 512;
        let (dp, mut vm1, mut vm2) = two_port_dp(false);
        dp.table_apply(&FlowMod::add(
            FlowMatch::in_port(PortNo(1)),
            10,
            vec![Action::Output(PortNo(2))],
        ));
        let caches = Mutex::new(PmdCaches::with_capacity(
            EMC_ENTRIES,
            DEFAULT_MEGAFLOW_ENTRIES,
        ));
        let frames: Vec<Vec<u8>> = (0..4 * EMC_ENTRIES as u16)
            .map(|f| PacketBuilder::udp_probe(64).ports(10_000 + f, f).build())
            .collect();
        let mut pass = || {
            let mut delivered = 0;
            for burst in frames.chunks(DEFAULT_BURST) {
                for frame in burst {
                    vm1.send(Mbuf::from_slice(frame)).unwrap();
                }
                pump_with_caches(&dp, &caches);
                while vm2.recv().is_some() {
                    delivered += 1;
                }
            }
            delivered
        };
        assert_eq!(pass(), frames.len(), "warm pass");
        let classifier = dp.classifier_hits.load(Ordering::Relaxed);
        let megaflow = dp.megaflow_hits.load(Ordering::Relaxed);
        assert_eq!(pass(), frames.len(), "measured pass");
        assert_eq!(
            dp.classifier_hits.load(Ordering::Relaxed),
            classifier,
            "warm megaflow: no classifier walks"
        );
        assert!(
            dp.megaflow_hits.load(Ordering::Relaxed) > megaflow,
            "EMC absorbed everything: no thrash?"
        );
    }

    /// Generation-based invalidation: a table change must flush both cache
    /// tiers so no stale actions are ever served.
    #[test]
    fn table_change_invalidates_both_cache_tiers() {
        let (dp, mut vm1, mut vm2) = two_port_dp(false);
        let (sw3, mut vm3) = channel("dpdkr3", 64);
        dp.add_port(OvsPort::dpdkr(PortNo(3), "dpdkr3", sw3));
        dp.table_apply(&FlowMod::add(
            FlowMatch::in_port(PortNo(1)),
            10,
            vec![Action::Output(PortNo(2))],
        ));
        let caches = Mutex::new(PmdCaches::new());
        vm1.send(probe()).unwrap();
        pump_with_caches(&dp, &caches);
        assert!(vm2.recv().is_some());
        assert!(!caches.lock().megaflow.is_empty());

        // Re-add with new actions (same match+priority ⇒ replace).
        dp.table_apply(&FlowMod::add(
            FlowMatch::in_port(PortNo(1)),
            10,
            vec![Action::Output(PortNo(3))],
        ));
        vm1.send(probe()).unwrap();
        pump_with_caches(&dp, &caches);
        assert!(vm2.recv().is_none(), "stale cached action served");
        assert!(vm3.recv().is_some(), "new action not applied");
    }

    #[test]
    fn in_port_target_hairpins() {
        let (dp, mut vm1, _vm2) = two_port_dp(false);
        dp.table_apply(&FlowMod::add(
            FlowMatch::in_port(PortNo(1)),
            10,
            vec![Action::Output(PortNo::IN_PORT)],
        ));
        vm1.send(probe()).unwrap();
        pump(&dp);
        assert!(vm1.recv().is_some());
    }

    #[test]
    fn remove_port_stops_delivery() {
        let (dp, mut vm1, _vm2) = two_port_dp(false);
        dp.table_apply(&FlowMod::add(
            FlowMatch::in_port(PortNo(1)),
            10,
            vec![Action::Output(PortNo(2))],
        ));
        dp.remove_port(PortNo(2));
        vm1.send(probe()).unwrap();
        pump(&dp); // staged for a vanished port: dropped (and counted)
        assert_eq!(dp.port_numbers(), vec![PortNo(1)]);
        assert_eq!(dp.cache_stats().tx_no_port_drops, 1);
    }

    #[test]
    fn flush_staged_counts_drops_and_evicts_dead_keys() {
        let (dp, _vm1, _vm2) = two_port_dp(false);
        let mut staged: BTreeMap<PortNo, Vec<Mbuf>> = BTreeMap::new();
        staged.insert(PortNo(99), vec![probe(), probe()]);
        staged.insert(PortNo(1), Vec::new());
        dp.flush_staged(&mut staged);
        assert_eq!(dp.tx_no_port_drops.load(Ordering::Relaxed), 2);
        assert!(
            !staged.contains_key(&PortNo(99)),
            "dead PortNo key must not be retained across iterations"
        );
        assert!(
            staged.contains_key(&PortNo(1)),
            "live port keys are kept for buffer reuse"
        );
    }

    #[test]
    fn rss_owner_is_deterministic_and_in_range() {
        for total in [1usize, 2, 4, 7] {
            for port in [1u16, 2, 3] {
                for l4 in 0..64u16 {
                    let key = packet_wire::FlowKey::extract(
                        &PacketBuilder::udp_probe(64).ports(1000 + l4, 80).build(),
                    );
                    let a = rss_owner(PortNo(port), &key, total);
                    let b = rss_owner(PortNo(port), &key, total);
                    assert_eq!(a, b, "owner must be stable for a flow");
                    assert!(a < total);
                }
            }
        }
        // With several PMDs, distinct flows must actually spread out.
        let owners: std::collections::BTreeSet<usize> = (0..256u16)
            .map(|l4| {
                let key = packet_wire::FlowKey::extract(
                    &PacketBuilder::udp_probe(64).ports(1000 + l4, 80).build(),
                );
                rss_owner(PortNo(1), &key, 4)
            })
            .collect();
        assert_eq!(owners.len(), 4, "256 flows must cover all 4 PMDs");
    }

    /// Round-robin port ownership: for every PMD count, each port is
    /// polled by exactly one PMD, and that still holds after the port set
    /// changes (a port added, another removed).
    #[test]
    fn every_port_has_exactly_one_owner_pmd() {
        let dp = Datapath::new(false);
        let mut ends = Vec::new();
        for no in [1u16, 2, 3, 5, 8] {
            let (sw, vm) = channel(format!("p{no}"), 8);
            dp.add_port(OvsPort::dpdkr(PortNo(no), format!("p{no}"), sw));
            ends.push(vm);
        }
        let owners_of = |total: usize| {
            let ports: Vec<Arc<OvsPort>> = dp.ports.read().values().cloned().collect();
            let mut owners: BTreeMap<PortNo, Vec<usize>> =
                ports.iter().map(|p| (p.no, Vec::new())).collect();
            for index in 0..total {
                for p in owned_ports(&ports, index, total) {
                    owners.get_mut(&p.no).unwrap().push(index);
                }
            }
            owners
        };
        let check = |stage: &str| {
            for total in 1..=4 {
                for (port, owners) in owners_of(total) {
                    assert_eq!(
                        owners.len(),
                        1,
                        "{stage}: {port} under {total} PMDs: {owners:?}"
                    );
                }
            }
        };
        check("initial");
        let (sw, _vm) = channel("p13", 8);
        dp.add_port(OvsPort::dpdkr(PortNo(13), "p13", sw));
        dp.remove_port(PortNo(2));
        check("after add + remove");
        assert_eq!(owners_of(4).len(), 5);
    }
}
