//! The poll-mode datapath: shared state ([`Datapath`]) plus the PMD loop
//! that services every port, classifies packets through the three-tier
//! cache hierarchy (EMC → megaflow → classifier) and executes actions.
//!
//! Classification is *burst-batched*: a received burst is grouped by flow
//! key and each group resolves through the cache hierarchy once, so a
//! 32-packet burst of one flow costs one lookup, not thirty-two.
//!
//! The datapath shards across N PMD threads (see `docs/datapath.md`):
//! every polled burst is re-sharded by an RSS-style flow hash
//! ([`rss_owner`]) over per-PMD SPSC rings ([`build_fanout_mesh`]), so
//! each flow is always classified by the same PMD against that PMD's own
//! caches. The one shared [`FlowTable`] is updated in place behind a
//! reader/writer lock: a flow_mod takes the write side for the rules it
//! touches, a cache hit validates against one atomic load of the table
//! generation and takes no lock, and only a cache miss takes the read side.

use crate::actions::{execute, OutputTarget};
use crate::emc::{Emc, DEFAULT_EMC_ENTRIES};
use crate::megaflow::{Megaflow, MegaflowRow, DEFAULT_MEGAFLOW_ENTRIES};
use crate::port::OvsPort;
use crate::table::{FlowTable, RuleEntry, TableChange};
use crossbeam::channel::{Receiver, Sender, TrySendError};
use dpdk_sim::{cycles, spsc_ring, Mbuf, SpscConsumer, SpscProducer, DEFAULT_BURST};
use openflow::messages::{FlowMod, PacketIn, PacketInReason};
use openflow::PortNo;
use parking_lot::{Mutex, RwLock, RwLockReadGuard};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use telemetry::{
    coverage, DatapathTotals, PmdPerf, Stage, TelemetrySnapshot, Tier, TraceRing, TraceSpan,
};

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
    /// Packets dropped because an RSS fan-out ring toward a peer PMD
    /// stayed full past the bounded retry budget.
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
    /// Cache handles registered by running PMD threads, so operator paths
    /// (`dump_megaflows`) can observe the per-PMD caches.
    pmd_caches: RwLock<Vec<Arc<Mutex<PmdCaches>>>>,
    /// When false, the hot path skips every cycle read and histogram
    /// update (packet/tier counters still tick — they are plain adds on
    /// state already held). Flippable at runtime.
    telemetry_enabled: AtomicBool,
    /// Ring of 1-in-N sampled packet trace spans (`trace/show`).
    pub trace: TraceRing,
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
            trace: TraceRing::default(),
        })
    }

    /// Whether cycle-stamped telemetry (histograms, traces) is on.
    pub fn telemetry_enabled(&self) -> bool {
        self.telemetry_enabled.load(Ordering::Relaxed)
    }

    /// Enables or disables cycle-stamped telemetry at runtime. Counters
    /// keep ticking either way; only histogram/trace stamping is gated.
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
    /// process-wide coverage counters and the trace-ring occupancy. This
    /// is the single source every rendering surface (appctl text, JSON,
    /// Prometheus) formats from.
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
                fanout_drops: self.fanout_drops.load(Ordering::Relaxed),
                packet_in_drops: self.packet_in_drops.load(Ordering::Relaxed),
            },
            coverage: coverage::snapshot(),
            traces_retained: self.trace.len(),
            trace_groups_observed: self.trace.observed(),
            pools: telemetry::pools::snapshot_pools(),
            doorbells: telemetry::pools::doorbell_totals(),
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

    /// Resolves output targets for one packet and queues it (or duplicates)
    /// on the destination ports' staging queues.
    pub fn stage_outputs(
        &self,
        pkt: Mbuf,
        in_port: PortNo,
        targets: &[OutputTarget],
        staged: &mut BTreeMap<PortNo, Vec<Mbuf>>,
        port_snapshot: &[Arc<OvsPort>],
    ) {
        if targets.is_empty() {
            return; // drop
        }
        // Expand flood/in-port into a concrete port list.
        let mut concrete: Vec<PortNo> = Vec::with_capacity(targets.len());
        for t in targets {
            match t {
                OutputTarget::Port(p) => concrete.push(*p),
                OutputTarget::InPort => concrete.push(in_port),
                OutputTarget::Flood => {
                    for port in port_snapshot {
                        if port.no != in_port {
                            concrete.push(port.no);
                        }
                    }
                }
                OutputTarget::Controller => {
                    self.punt(&pkt, in_port, PacketInReason::Action);
                }
            }
        }
        let n = concrete.len();
        for (i, dest) in concrete.into_iter().enumerate() {
            let m = if i + 1 == n {
                // Move the original into the last destination.
                // (Loop consumes pkt; a placeholder keeps borrowck happy.)
                None
            } else {
                Some(pkt.duplicate())
            };
            let m = match m {
                Some(d) => d,
                None => {
                    staged.entry(dest).or_default().push(pkt);
                    return;
                }
            };
            staged.entry(dest).or_default().push(m);
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
        let Some(caches) = caches else {
            return (self.table().lookup(in_port, key), CacheTier::Classifier);
        };
        // A hit takes no lock: an entry is served only if it was stamped
        // with the generation this one atomic load returns.
        let generation = self.table_generation();
        caches.resolved_at = Some(generation);
        if let Some(rule) = caches.emc.lookup(in_port, key, generation) {
            return (Some(rule), CacheTier::Emc);
        }
        if let Some(rule) = caches
            .megaflow
            .lookup(in_port, key, generation, pkts, bytes)
        {
            // A megaflow hit promotes the exact flow into the EMC only
            // 1-in-N, like OVS's probabilistic EMC insertion on the dpcls
            // path: when the working set exceeds the EMC, unconditional
            // promotion would keep clearing the hot flows it just cached.
            caches.emc_promotion_tick = caches.emc_promotion_tick.wrapping_add(1);
            if caches.emc_promotion_tick % EMC_PROMOTION_INTERVAL == 1 {
                caches
                    .emc
                    .insert(in_port, *key, Arc::clone(&rule), generation);
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
            let (found, staged_mask) = table.lookup_staged(in_port, key);
            (found, staged_mask, table.generation())
        };
        caches.resolved_at = Some(generation);
        if let Some(rule) = &found {
            caches.megaflow.insert(
                in_port,
                key,
                staged_mask,
                Arc::clone(rule),
                generation,
                pkts,
                bytes,
            );
            caches
                .emc
                .insert(in_port, *key, Arc::clone(rule), generation);
        }
        (found, CacheTier::Classifier)
    }

    /// Runs one received burst through grouped classification + action
    /// execution, staging the results. The burst is grouped by flow key;
    /// each group resolves through [`Datapath::classify`] once and its
    /// packets then execute the matched actions in sequence (relative order
    /// within a flow is preserved; the burst drains completely).
    ///
    /// `caches` is locked once *per lookup group*, never across the whole
    /// burst, so an operator snapshot (`dump_megaflows`, `status_report`)
    /// contends for at most one cache resolution instead of stalling the
    /// hot path for an entire burst.
    pub fn process_burst(
        &self,
        burst: &mut Vec<Mbuf>,
        in_port: PortNo,
        caches: Option<&Mutex<PmdCaches>>,
        staged: &mut BTreeMap<PortNo, Vec<Mbuf>>,
        port_snapshot: &[Arc<OvsPort>],
        now: u64,
    ) {
        // Group by flow key in place: extract every key once, then walk
        // the burst per group leader (first packet of each distinct key).
        // Bursts are small (≤ DEFAULT_BURST), so the linear rescans beat
        // both hashing and per-group buffers — two bounded allocations per
        // burst instead of one per flow group.
        let keys: Vec<packet_wire::FlowKey> = burst
            .iter()
            .map(|pkt| packet_wire::FlowKey::extract(pkt.data()))
            .collect();
        let mut slots: Vec<Option<Mbuf>> = burst.drain(..).map(Some).collect();
        let telemetry = self.telemetry_enabled();
        // Cycle stamping is *burst-sampled* (1-in-STAGE_SAMPLE_INTERVAL):
        // the sampling decision is made under the first group's cache
        // guard, stamps chain through the group loop (each group's
        // execute-end stamp is the next group's classify-start), and
        // execute costs are accumulated and recorded with a single lock at
        // the end — so a stamped burst pays two TSC reads per flow group
        // and an unstamped burst pays one for the whole burst.
        let mut exec_cycles = 0u64;
        let mut exec_packets = 0u64;
        let mut classify_cycles = 0u64;
        let mut groups = 0u64;
        let mut sampled = false;
        let mut decided = !telemetry;
        let mut cursor = if telemetry { cycles::now() } else { 0 };
        for leader in 0..keys.len() {
            if slots[leader].is_none() {
                continue; // consumed with an earlier leader's group
            }
            let key = keys[leader];
            let mut n = 0u64;
            let mut bytes = 0u64;
            for (k, pkt) in keys.iter().zip(&slots).skip(leader) {
                if *k == key {
                    if let Some(pkt) = pkt {
                        n += 1;
                        bytes += pkt.len() as u64;
                    }
                }
            }
            let group_start = cursor;
            let mut classify_cyc = 0u64;
            let mut pmd_idx = None;
            let (rule, tier) = match caches {
                Some(m) => {
                    let mut guard = m.lock();
                    if !decided {
                        decided = true;
                        sampled = guard.stage_sample_tick % STAGE_SAMPLE_INTERVAL == 0;
                        guard.stage_sample_tick = guard.stage_sample_tick.wrapping_add(1);
                    }
                    let (rule, tier) = self.classify(in_port, &key, Some(&mut guard), n, bytes);
                    // Misses are attributed with `None`: they walked the
                    // whole hierarchy but hit no tier.
                    let resolved = rule.as_ref().map(|_| match tier {
                        CacheTier::Emc => Tier::Emc,
                        CacheTier::Megaflow => Tier::Megaflow,
                        CacheTier::Classifier => Tier::Classifier,
                    });
                    if sampled {
                        let t = cycles::now();
                        classify_cyc = t.saturating_sub(cursor);
                        cursor = t;
                        guard.perf.record_lookup(resolved, classify_cyc, n);
                        guard.perf.record_stage(Stage::Classify, classify_cyc, n);
                    } else {
                        guard.perf.count_lookup(resolved, n);
                        if telemetry {
                            guard.carry_pkts += n;
                        }
                    }
                    pmd_idx = Some(guard.perf.pmd);
                    (rule, tier)
                }
                None => self.classify(in_port, &key, None, n, bytes),
            };
            self.lookups.fetch_add(n, Ordering::Relaxed);
            let tracing = sampled && pmd_idx.is_some() && self.trace.should_sample();
            let tier_name = match (&rule, tier) {
                (None, _) => "miss",
                (Some(_), CacheTier::Emc) => "emc",
                (Some(_), CacheTier::Megaflow) => "megaflow",
                (Some(_), CacheTier::Classifier) => "classifier",
            };
            match rule {
                Some(rule) => {
                    self.matched.fetch_add(n, Ordering::Relaxed);
                    let tier_counter = match tier {
                        CacheTier::Emc => &self.emc_hits,
                        CacheTier::Megaflow => &self.megaflow_hits,
                        CacheTier::Classifier => &self.classifier_hits,
                    };
                    tier_counter.fetch_add(n, Ordering::Relaxed);
                    for i in leader..keys.len() {
                        if keys[i] != key {
                            continue;
                        }
                        if let Some(mut pkt) = slots[i].take() {
                            rule.hit(pkt.len() as u64, now);
                            let targets = execute(&mut pkt, &rule.actions);
                            self.stage_outputs(pkt, in_port, &targets, staged, port_snapshot);
                        }
                    }
                }
                None => {
                    coverage!("upcall_miss");
                    for i in leader..keys.len() {
                        if keys[i] != key {
                            continue;
                        }
                        if let Some(pkt) = slots[i].take() {
                            if self.miss_to_controller {
                                self.punt(&pkt, in_port, PacketInReason::NoMatch);
                            } else {
                                self.miss_drops.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                }
            }
            if sampled {
                let t = cycles::now();
                let group_exec = t.saturating_sub(cursor);
                cursor = t;
                exec_cycles += group_exec;
                exec_packets += n;
                classify_cycles += classify_cyc;
                groups += 1;
                if tracing {
                    self.trace.push(TraceSpan {
                        start_cycles: group_start,
                        pmd: pmd_idx.unwrap_or(0),
                        in_port: in_port.0,
                        packets: n,
                        flow: format!("{key:?}"),
                        tier: tier_name,
                        stages: vec![("classify", classify_cyc), ("execute", group_exec)],
                    });
                }
            }
        }
        if sampled && exec_packets > 0 {
            if let Some(m) = caches {
                let mut guard = m.lock();
                guard
                    .perf
                    .record_stage(Stage::Execute, exec_cycles, exec_packets);
                // Remember this burst's costs as the representative value
                // for packets carried from the unstamped bursts around it.
                guard.last_classify_cyc = classify_cycles / groups.max(1);
                guard.last_exec_cyc = exec_cycles;
                guard.flush_stage_carry();
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
    /// PMD iterations.
    pub fn flush_staged(&self, staged: &mut BTreeMap<PortNo, Vec<Mbuf>>) {
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

/// The PMD that owns a flow under RSS sharding: a deterministic hash of
/// `(in_port, 5-tuple key)` modulo the PMD count. Every dispatching PMD
/// must agree on the owner, so this uses `DefaultHasher::new()` (fixed
/// keys — identical across threads) rather than a per-instance-randomised
/// hasher. Flow→PMD affinity keeps per-flow packet order and gives each
/// flow one home cache.
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

/// Capacity (in batches) of each PMD→PMD fan-out ring.
pub const FANOUT_RING_BATCHES: usize = 1024;

/// Bounded enqueue retries toward a full peer ring before the batch is
/// dropped (counted in [`Datapath::fanout_drops`]). Bounded so two PMDs
/// flooding each other's full rings cannot livelock the dispatch loops.
const FANOUT_ENQUEUE_RETRIES: usize = 1024;

/// Batches drained from the fan-out inbox per PMD iteration, so a flood
/// from one peer cannot starve the PMD's own port polling.
const FANOUT_INBOX_BATCHES_PER_ITER: usize = 64;

/// One RSS-dispatched unit: packets of flows owned by the receiving PMD,
/// all received on `in_port`.
pub struct FanoutBatch {
    pub in_port: PortNo,
    pub pkts: Vec<Mbuf>,
}

/// One PMD's endpoints of the N×N SPSC fan-out mesh built by
/// [`build_fanout_mesh`]: a producer toward every peer and a consumer from
/// every peer.
pub struct PmdFanout {
    /// `producers[j]` feeds PMD `j`; `None` at this PMD's own index.
    producers: Vec<Option<SpscProducer<FanoutBatch>>>,
    consumers: Vec<SpscConsumer<FanoutBatch>>,
    /// Round-robin drain cursor over `consumers` (fairness across peers).
    next: usize,
}

impl PmdFanout {
    /// Hands a batch to its owner PMD's ring, yielding on a full ring for
    /// a bounded number of retries before dropping (counted on `dp`).
    fn send(&mut self, owner: usize, batch: FanoutBatch, dp: &Datapath) {
        let producer = self.producers[owner]
            .as_mut()
            .expect("fan-out send to own index");
        if let Err(dropped) = producer.enqueue_yielding(batch, FANOUT_ENQUEUE_RETRIES) {
            dp.fanout_drops
                .fetch_add(dropped.pkts.len() as u64, Ordering::Relaxed);
        }
    }

    /// The next queued batch from any peer, round-robin across consumers.
    fn recv(&mut self) -> Option<FanoutBatch> {
        let n = self.consumers.len();
        for _ in 0..n {
            let idx = self.next;
            self.next = (self.next + 1) % n;
            if let Some(batch) = self.consumers[idx].dequeue() {
                return Some(batch);
            }
        }
        None
    }
}

/// Builds the N×N mesh of SPSC rings connecting `total` PMDs; element `i`
/// of the result belongs to PMD `i`. Each ordered pair of distinct PMDs
/// gets its own single-producer/single-consumer ring, so no fan-out path
/// ever shares an endpoint between threads.
pub fn build_fanout_mesh(total: usize) -> Vec<PmdFanout> {
    let mut producers: Vec<Vec<Option<SpscProducer<FanoutBatch>>>> = (0..total)
        .map(|_| (0..total).map(|_| None).collect())
        .collect();
    let mut consumers: Vec<Vec<SpscConsumer<FanoutBatch>>> =
        (0..total).map(|_| Vec::with_capacity(total)).collect();
    for (from, row) in producers.iter_mut().enumerate() {
        for (to, slot) in row.iter_mut().enumerate() {
            if from == to {
                continue;
            }
            let (tx, rx) = spsc_ring(FANOUT_RING_BATCHES);
            *slot = Some(tx);
            consumers[to].push(rx);
        }
    }
    producers
        .into_iter()
        .zip(consumers)
        .map(|(producers, consumers)| PmdFanout {
            producers,
            consumers,
            next: 0,
        })
        .collect()
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
        }
    }
    dp.flush_staged(&mut staged);
}

/// A PMD thread: polls its share of the ports in round-robin. With one
/// thread (the default) this is a single-core OVS-DPDK deployment; with
/// several, ports are partitioned round-robin like default
/// `pmd-rxq-affinity`, and — when a fan-out mesh is attached — polled
/// bursts are re-sharded by flow hash so every flow is classified by its
/// owner PMD against that PMD's caches.
pub struct PmdThread {
    dp: Arc<Datapath>,
    stop: Arc<AtomicBool>,
    /// This thread's index within the PMD set.
    index: usize,
    /// Total PMD threads sharing the ports.
    total: usize,
    /// RSS fan-out endpoints; `None` means this PMD keeps every flow it
    /// polls (single-PMD deployments and port-partitioned legacy shares).
    fanout: Option<PmdFanout>,
    /// Polling iterations performed (idle or not).
    pub iterations: Arc<AtomicU64>,
}

impl PmdThread {
    /// Creates a PMD owning *all* ports (single-PMD deployment).
    pub fn new(dp: Arc<Datapath>, stop: Arc<AtomicBool>) -> PmdThread {
        PmdThread::with_share(dp, stop, 0, 1)
    }

    /// Creates PMD `index` of `total`, polling ports whose position in the
    /// ascending port order is `index` modulo `total`. Without a fan-out
    /// mesh, flows stay on whichever PMD polls their ingress port.
    pub fn with_share(
        dp: Arc<Datapath>,
        stop: Arc<AtomicBool>,
        index: usize,
        total: usize,
    ) -> PmdThread {
        assert!(total >= 1 && index < total, "bad PMD share {index}/{total}");
        PmdThread {
            dp,
            stop,
            index,
            total,
            fanout: None,
            iterations: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Creates PMD `index` of `total` with its endpoints of the RSS
    /// fan-out mesh (element `index` of [`build_fanout_mesh`]`(total)`):
    /// polled bursts are partitioned by [`rss_owner`], remote flows ride
    /// the SPSC rings to their owner, and batches re-sharded here by peers
    /// are drained each iteration.
    pub fn with_fanout(
        dp: Arc<Datapath>,
        stop: Arc<AtomicBool>,
        index: usize,
        total: usize,
        fanout: PmdFanout,
    ) -> PmdThread {
        let mut pmd = PmdThread::with_share(dp, stop, index, total);
        pmd.fanout = Some(fanout);
        pmd
    }

    /// Runs until the stop flag is raised. Yields when fully idle so the
    /// reproduction behaves on machines with fewer cores than the testbed.
    pub fn run(mut self) {
        // Per-PMD caches, shared with the datapath for operator dumps. The
        // lock is taken per lookup group (inside process_burst), never
        // across a whole burst, so an operator snapshot cannot stall the
        // hot path for more than one cache resolution.
        let caches = Arc::new(Mutex::new(PmdCaches::new()));
        caches.lock().perf.pmd = self.index;
        self.dp.register_pmd_caches(&caches);
        let mut rx_buf: Vec<Mbuf> = Vec::with_capacity(DEFAULT_BURST);
        let mut local: Vec<Mbuf> = Vec::with_capacity(DEFAULT_BURST);
        let mut remote: Vec<Vec<Mbuf>> = (0..self.total).map(|_| Vec::new()).collect();
        let mut staged: BTreeMap<PortNo, Vec<Mbuf>> = BTreeMap::new();
        let mut snapshot: Vec<Arc<OvsPort>> = Vec::new();
        let mut mine: Vec<Arc<OvsPort>> = Vec::new();
        let mut snapshot_gen = u64::MAX;

        while !self.stop.load(Ordering::Acquire) {
            // Per-iteration telemetry accumulators, folded into the perf
            // block with one lock at the end of the iteration so the poll
            // loop itself takes no extra locks.
            let telemetry = self.dp.telemetry_enabled();
            let mut it_rx_packets = 0u64;
            let mut it_rx_batches = 0u64;
            let mut it_rx_cycles = 0u64;
            let mut it_fanout_sent = 0u64;
            let mut it_fanout_recv = 0u64;
            let mut it_fanout_cycles = 0u64;
            let mut it_fanout_pkts_resharded = 0u64;
            let gen = self.dp.ports_generation.load(Ordering::Acquire);
            if gen != snapshot_gen {
                snapshot = self.dp.ports.read().values().cloned().collect();
                mine = snapshot
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % self.total == self.index)
                    .map(|(_, p)| Arc::clone(p))
                    .collect();
                snapshot_gen = gen;
            }
            let mut idle = true;
            let now = cycles::now();
            for port in &mine {
                rx_buf.clear();
                let t_rx = if telemetry { cycles::now() } else { 0 };
                let n = port.rx_burst(&mut rx_buf, DEFAULT_BURST);
                if n == 0 {
                    continue;
                }
                idle = false;
                if telemetry {
                    it_rx_cycles += cycles::now().saturating_sub(t_rx);
                }
                it_rx_packets += n as u64;
                it_rx_batches += 1;
                match &mut self.fanout {
                    Some(fanout) => {
                        // RSS dispatch: partition the burst by owner PMD.
                        // The owner re-extracts the key during its own
                        // grouped classification — the extra extraction
                        // buys lock-free per-flow cache affinity.
                        let t_fanout = if telemetry { cycles::now() } else { 0 };
                        local.clear();
                        for pkt in rx_buf.drain(..) {
                            let key = packet_wire::FlowKey::extract(pkt.data());
                            let owner = rss_owner(port.no, &key, self.total);
                            if owner == self.index {
                                local.push(pkt);
                            } else {
                                remote[owner].push(pkt);
                            }
                        }
                        for (owner, pkts) in remote.iter_mut().enumerate() {
                            if !pkts.is_empty() {
                                it_fanout_sent += pkts.len() as u64;
                                let batch = FanoutBatch {
                                    in_port: port.no,
                                    pkts: std::mem::take(pkts),
                                };
                                fanout.send(owner, batch, &self.dp);
                            }
                        }
                        if telemetry {
                            it_fanout_cycles += cycles::now().saturating_sub(t_fanout);
                            it_fanout_pkts_resharded += n as u64;
                        }
                        if !local.is_empty() {
                            self.dp.process_burst(
                                &mut local,
                                port.no,
                                Some(&*caches),
                                &mut staged,
                                &snapshot,
                                now,
                            );
                        }
                    }
                    None => {
                        self.dp.process_burst(
                            &mut rx_buf,
                            port.no,
                            Some(&*caches),
                            &mut staged,
                            &snapshot,
                            now,
                        );
                    }
                }
            }
            if let Some(fanout) = &mut self.fanout {
                for _ in 0..FANOUT_INBOX_BATCHES_PER_ITER {
                    let Some(mut batch) = fanout.recv() else {
                        break;
                    };
                    idle = false;
                    it_fanout_recv += batch.pkts.len() as u64;
                    self.dp.process_burst(
                        &mut batch.pkts,
                        batch.in_port,
                        Some(&*caches),
                        &mut staged,
                        &snapshot,
                        now,
                    );
                }
            }
            let tx_pkts: u64 = staged.values().map(|v| v.len() as u64).sum();
            let t_tx = if telemetry { cycles::now() } else { 0 };
            self.dp.flush_staged(&mut staged);
            self.iterations.fetch_add(1, Ordering::Relaxed);
            {
                // One fold per iteration: counters always, histograms and
                // cycle attribution only when telemetry is enabled.
                let mut guard = caches.lock();
                let perf = &mut guard.perf;
                perf.iterations += 1;
                if idle {
                    perf.idle_iterations += 1;
                }
                perf.rx_packets += it_rx_packets;
                perf.rx_batches += it_rx_batches;
                perf.fanout_sent += it_fanout_sent;
                perf.fanout_recv += it_fanout_recv;
                perf.tx_packets += tx_pkts;
                if telemetry {
                    let t_end = cycles::now();
                    if it_rx_packets > 0 {
                        perf.record_stage(Stage::RxBurst, it_rx_cycles, it_rx_packets);
                    }
                    if it_fanout_pkts_resharded > 0 {
                        perf.record_stage(
                            Stage::Fanout,
                            it_fanout_cycles,
                            it_fanout_pkts_resharded,
                        );
                    }
                    if tx_pkts > 0 {
                        perf.record_stage(Stage::TxFlush, t_end.saturating_sub(t_tx), tx_pkts);
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
        self.dp.deregister_pmd_caches(&caches);
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

    #[test]
    fn fanout_mesh_routes_batches_between_pmds() {
        let dp = Datapath::new(false);
        let mut mesh = build_fanout_mesh(3);
        let mut c = mesh.pop().unwrap(); // PMD 2
        let mut b = mesh.pop().unwrap(); // PMD 1
        let mut a = mesh.pop().unwrap(); // PMD 0
        a.send(
            2,
            FanoutBatch {
                in_port: PortNo(7),
                pkts: vec![probe()],
            },
            &dp,
        );
        b.send(
            2,
            FanoutBatch {
                in_port: PortNo(8),
                pkts: vec![probe(), probe()],
            },
            &dp,
        );
        let mut got: Vec<(PortNo, usize)> = Vec::new();
        while let Some(batch) = c.recv() {
            got.push((batch.in_port, batch.pkts.len()));
        }
        got.sort();
        assert_eq!(got, vec![(PortNo(7), 1), (PortNo(8), 2)]);
        assert!(a.recv().is_none(), "nothing was sent toward PMD 0");
        assert_eq!(dp.fanout_drops.load(Ordering::Relaxed), 0);
    }

    /// Four PMDs with an RSS fan-out mesh move a many-flow workload
    /// losslessly, and flows cached on remote PMDs still observe table
    /// changes — end to end through real threads.
    #[test]
    fn fanout_pmds_move_traffic_end_to_end() {
        let (dp, mut vm1, mut vm2) = two_port_dp(false);
        dp.table_apply(&FlowMod::add(
            FlowMatch::in_port(PortNo(1)),
            10,
            vec![Action::Output(PortNo(2))],
        ));
        let stop = Arc::new(AtomicBool::new(false));
        let total = 4;
        let mut handles = Vec::new();
        for (i, fanout) in build_fanout_mesh(total).into_iter().enumerate() {
            let pmd = PmdThread::with_fanout(Arc::clone(&dp), Arc::clone(&stop), i, total, fanout);
            handles.push(std::thread::spawn(move || pmd.run()));
        }

        let n = 96u16;
        for i in 0..n {
            // Distinct 5-tuples so the RSS hash spreads flows across PMDs.
            let mut m = Mbuf::from_slice(&PacketBuilder::udp_probe(64).ports(1000 + i, 80).build());
            m.udata = u64::from(i);
            while vm1.send(m).is_err() {
                m = Mbuf::from_slice(&PacketBuilder::udp_probe(64).ports(1000 + i, 80).build());
                m.udata = u64::from(i);
                std::thread::yield_now();
            }
        }
        let mut got = 0;
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while got < usize::from(n) && std::time::Instant::now() < deadline {
            if vm2.recv().is_some() {
                got += 1;
            } else {
                std::thread::yield_now();
            }
        }
        stop.store(true, Ordering::Release);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(got, usize::from(n));
        assert_eq!(dp.fanout_drops.load(Ordering::Relaxed), 0);
        let s = dp.cache_stats();
        assert_eq!(s.lookups, u64::from(n));
        assert_eq!(s.matched, u64::from(n));
    }
}
