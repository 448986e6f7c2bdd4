//! The highway manager: reconciles detected p-2-p links with actual bypass
//! channels.
//!
//! The detector runs synchronously inside the switch's flow_mod handling
//! (it must see every table change), but bypass setup takes ~100 ms of
//! hypervisor work — far too long to block the control loop. The manager
//! therefore splits the two: the observer callback only updates the
//! *desired* link set and wakes a worker thread, which serially drives the
//! compute agent until *actual* matches *desired*. Serial reconciliation
//! makes rule flapping safe: operations never interleave, and the final
//! state always reflects the last flow table seen.
//!
//! Two inputs shape the desired set:
//!
//! 1. the detector's output over the latest rule snapshot;
//! 2. the switch's port admin state (a link over a down port is vetoed —
//!    the switch would have dropped that traffic, and a bypass must never
//!    deliver packets the flow table would not).
//!
//! A link is deferred, not dropped, while an endpoint has no registered VM.
//!
//! Every lifecycle step is recorded in the [`EventJournal`]. The journal's
//! [`openflow::Event`] is the manager's one wait mechanism: every change to
//! the desired set, every journal record and `shutdown` notify it, and the
//! worker and [`HighwayManager::wait_converged`] park on it.

use crate::detector::{detect_p2p_links, P2pLink};
use crate::events::{BypassEventKind, EventJournal};
use ovs_dp::{FlowTableObserver, RuleSnapshot};
use parking_lot::Mutex;
use shmem_sim::StatsRegion;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use vm_host::ComputeAgent;

/// One completed bypass activation, for the setup-time experiment
/// (paper §3: "on the order of 100 ms").
#[derive(Debug, Clone, Copy)]
pub struct SetupRecord {
    pub link: P2pLink,
    /// When the detector recognised the link (flow_mod processing time).
    pub detected_at: Instant,
    /// When the PMDs started using the bypass channel.
    pub active_at: Instant,
}

impl SetupRecord {
    /// Detection-to-activation latency.
    pub fn setup_time(&self) -> Duration {
        self.active_at.duration_since(self.detected_at)
    }
}

/// The manager's view of one directed link (observability API).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkState {
    /// Desired but not yet set up (queued behind other work).
    Pending,
    /// Carried by a live bypass channel.
    Active,
    /// No longer desired; teardown queued or in flight.
    TearingDown,
}

#[derive(Default)]
struct Shared {
    /// Latest rule snapshot from the switch.
    last_rules: Vec<RuleSnapshot>,
    /// Ports currently administratively down on the switch.
    down_ports: BTreeSet<u32>,
    /// What table+ports currently imply, stamped with detection time.
    desired: BTreeMap<u32, (P2pLink, Instant)>,
    /// Directions actually set up (src → link and the detection it serves).
    /// The stamp is part of a bypass's identity: a rule deleted and added
    /// again is a new rule with counters from zero, even when src, dst and
    /// cookie repeat, and the bypass of the old one — whose guest still
    /// counts into the old rule's retired statistics cell — must not be
    /// mistaken for the new one's.
    actual: BTreeMap<u32, (P2pLink, Instant)>,
    /// Completed setups.
    log: Vec<SetupRecord>,
    /// Setup/teardown failures (agent errors), for observability.
    failures: Vec<String>,
    /// True while the worker is driving the agent for one operation.
    /// Convergence checks must not report "converged" mid-operation:
    /// desired/actual only reflect *completed* work, and callers (tests,
    /// experiments) use convergence as a quiescence barrier.
    inflight: bool,
}

/// The highway manager. Implements [`FlowTableObserver`]; owns the worker.
pub struct HighwayManager {
    agent: Arc<ComputeAgent>,
    /// The region the guests count bypassed traffic into.
    stats: StatsRegion,
    journal: Arc<EventJournal>,
    shared: Mutex<Shared>,
    stop: AtomicBool,
    worker: Mutex<Option<JoinHandle<()>>>,
}

impl HighwayManager {
    /// Creates the manager with a statistics region of its own and starts
    /// its reconciliation worker. The worker runs until
    /// [`HighwayManager::shutdown`]: it holds an `Arc` of the manager, so
    /// dropping the caller's handle does not stop it.
    pub fn new(agent: Arc<ComputeAgent>) -> Arc<HighwayManager> {
        HighwayManager::with_stats(agent, StatsRegion::new())
    }

    /// [`HighwayManager::new`] over the statistics region the agent's
    /// guests count into.
    pub fn with_stats(agent: Arc<ComputeAgent>, stats: StatsRegion) -> Arc<HighwayManager> {
        let manager = Arc::new(HighwayManager {
            agent,
            stats,
            journal: Arc::new(EventJournal::new()),
            shared: Mutex::new(Shared::default()),
            stop: AtomicBool::new(false),
            worker: Mutex::new(None),
        });
        let worker = {
            let manager = Arc::clone(&manager);
            std::thread::Builder::new()
                .name("highway-manager".into())
                .spawn(move || manager.worker_loop())
                .expect("spawn highway manager")
        };
        *manager.worker.lock() = Some(worker);
        manager
    }

    /// The lifecycle journal.
    pub fn journal(&self) -> &Arc<EventJournal> {
        &self.journal
    }

    /// The links currently carried by bypass channels.
    pub fn active_links(&self) -> Vec<P2pLink> {
        self.shared
            .lock()
            .actual
            .values()
            .map(|(link, _)| *link)
            .collect()
    }

    /// Every link the manager knows about, with its state (observability).
    pub fn snapshot_links(&self) -> Vec<(P2pLink, LinkState)> {
        let s = self.shared.lock();
        let mut out = Vec::new();
        for (src, set_up) in &s.actual {
            let state = if s.desired.get(src) == Some(set_up) {
                LinkState::Active
            } else {
                LinkState::TearingDown
            };
            out.push((set_up.0, state));
        }
        for (src, (link, _)) in &s.desired {
            if !s.actual.contains_key(src) {
                out.push((*link, LinkState::Pending));
            }
        }
        out.sort_by_key(|(l, _)| (l.src, l.dst));
        out
    }

    /// Per-link state as the manager sees it, keyed by source port.
    pub fn link_states(&self) -> BTreeMap<u32, LinkState> {
        self.snapshot_links()
            .into_iter()
            .map(|(link, state)| (link.src, state))
            .collect()
    }

    /// Completed setup records (clone).
    pub fn setup_log(&self) -> Vec<SetupRecord> {
        self.shared.lock().log.clone()
    }

    /// Agent errors encountered so far.
    pub fn failures(&self) -> Vec<String> {
        self.shared.lock().failures.clone()
    }

    /// True when the actual link set matches the desired one right now
    /// and no agent operation is in flight.
    pub fn is_converged(&self) -> bool {
        let s = self.shared.lock();
        !s.inflight && s.desired == s.actual
    }

    /// Blocks until the actual link set matches the desired one (or the
    /// timeout passes). Test/experiment helper.
    pub fn wait_converged(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            // Registered before the check: the worker clears `inflight`
            // before the journal record that notifies, and a desired-set
            // change notifies after it is made.
            let waiter = self.journal.event().prepare();
            if self.is_converged() {
                return true;
            }
            if !waiter.park_until(deadline) {
                return false;
            }
        }
    }

    /// Re-derives the desired link set from the cached rule snapshot —
    /// for events that change link *serviceability* without touching the
    /// flow table (VM registration, in particular).
    pub fn refresh(&self) {
        let now = Instant::now();
        {
            let mut s = self.shared.lock();
            self.recompute_desired(&mut s, now);
        }
        self.journal.event().notify();
    }

    /// Recomputes the desired link set from the latest rules and port
    /// state. Appends Detected/Vanished transitions to the journal; the
    /// caller notifies once it has released `shared`.
    fn recompute_desired(&self, s: &mut Shared, now: Instant) {
        let links = detect_p2p_links(&s.last_rules);
        let mut new_desired = BTreeMap::new();
        for (src, link) in links {
            if s.down_ports.contains(&link.src) || s.down_ports.contains(&link.dst) {
                continue;
            }
            // A bypass needs a guest PMD on both ends. Links touching
            // non-VM ports (NICs, edge dpdkrs, VMs that have not booted
            // yet) are deferred, not failed: VM registration calls
            // [`HighwayManager::refresh`] and re-evaluates them.
            if !self.agent.has_port(link.src) || !self.agent.has_port(link.dst) {
                continue;
            }
            let stamp = match s.desired.get(&src) {
                Some((old, t)) if *old == link => *t,
                _ => {
                    self.journal.append(
                        BypassEventKind::Detected,
                        link.src,
                        link.dst,
                        format!("cookie {:#x}", link.cookie),
                    );
                    now
                }
            };
            new_desired.insert(src, (link, stamp));
        }
        for (src, (old, _)) in &s.desired {
            if new_desired.get(src).map(|(l, _)| l) != Some(old) {
                self.journal
                    .append(BypassEventKind::Vanished, old.src, old.dst, "");
            }
        }
        s.desired = new_desired;
    }

    /// One reconciliation pass; returns true when work was done.
    fn reconcile_step(&self) -> bool {
        // Decide one operation under the lock, run it outside the lock
        // (agent operations sleep for the modelled hypervisor latencies).
        enum Op {
            Setup(P2pLink, Instant),
            Teardown(P2pLink),
        }
        let op = {
            let mut s = self.shared.lock();
            let mut op = None;
            // Teardowns first: frees segments and avoids steering stale
            // traffic along links the table no longer expresses.
            for (src, set_up) in &s.actual {
                if s.desired.get(src) != Some(set_up) {
                    op = Some(Op::Teardown(set_up.0));
                    break;
                }
            }
            if op.is_none() {
                for (src, wanted) in &s.desired {
                    let (link, detected_at) = wanted;
                    if s.actual.get(src) == Some(wanted) {
                        continue;
                    }
                    op = Some(Op::Setup(*link, *detected_at));
                    break;
                }
            }
            // Flagged under the same lock that chose the operation, so a
            // convergence check can never see "nothing to do" while an
            // agent call is about to run on this state.
            s.inflight = op.is_some();
            op
        };
        match op {
            None => false,
            Some(Op::Teardown(link)) => {
                self.journal
                    .record(BypassEventKind::TeardownStarted, link.src, link.dst, "");
                let result = self.agent.teardown_bypass(link.src, link.dst);
                let mut s = self.shared.lock();
                // On failure too: the agent state machine rejects unknown
                // directions, so retrying forever would spin.
                s.actual.remove(&link.src);
                // A rule deleted while its set-up was in flight had its
                // cell retired before the guest's `EnableTx` made it again;
                // a rule added back with the same cookie keeps its cell.
                if !s.last_rules.iter().any(|r| r.cookie == link.cookie) {
                    self.stats.retire_rule(link.cookie);
                }
                if let Err(e) = &result {
                    s.failures.push(format!("teardown {link:?}: {e}"));
                }
                s.inflight = false;
                drop(s);
                match result {
                    Ok(report) => self.journal.record(
                        BypassEventKind::Removed,
                        link.src,
                        link.dst,
                        format!("drained {} in-flight packets", report.drained),
                    ),
                    Err(e) => self.journal.record(
                        BypassEventKind::TeardownFailed,
                        link.src,
                        link.dst,
                        e.to_string(),
                    ),
                }
                true
            }
            Some(Op::Setup(link, detected_at)) => {
                self.journal
                    .record(BypassEventKind::SetupStarted, link.src, link.dst, "");
                match self.agent.setup_bypass(link.src, link.dst, link.cookie) {
                    Ok(report) => {
                        let mut s = self.shared.lock();
                        s.actual.insert(link.src, (link, detected_at));
                        s.log.push(SetupRecord {
                            link,
                            detected_at,
                            active_at: Instant::now(),
                        });
                        s.inflight = false;
                        drop(s);
                        self.journal.record(
                            BypassEventKind::Active,
                            link.src,
                            link.dst,
                            report.segment,
                        );
                    }
                    Err(e) => {
                        let mut s = self.shared.lock();
                        s.failures.push(format!("setup {link:?}: {e}"));
                        // Remove the unsatisfiable desire; a future table
                        // change will re-create it.
                        s.desired.remove(&link.src);
                        s.inflight = false;
                        drop(s);
                        self.journal.record(
                            BypassEventKind::SetupFailed,
                            link.src,
                            link.dst,
                            e.to_string(),
                        );
                    }
                }
                true
            }
        }
    }

    fn worker_loop(&self) {
        while !self.stop.load(Ordering::Acquire) {
            if self.reconcile_step() {
                continue;
            }
            // Registered only when idle, so the records of an agent
            // operation find no waiter to wake; registered before the
            // re-check, so a change (or `shutdown`) that notified since the
            // pass above is not missed.
            let waiter = self.journal.event().prepare();
            if self.is_converged() && !self.stop.load(Ordering::Acquire) {
                waiter.park();
            }
        }
    }

    /// Stops the worker (idempotent).
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Release);
        self.journal.event().notify();
        if let Some(t) = self.worker.lock().take() {
            let _ = t.join();
        }
    }
}

impl FlowTableObserver for HighwayManager {
    fn table_changed(&self, rules: &[RuleSnapshot]) {
        let now = Instant::now();
        {
            let mut s = self.shared.lock();
            s.last_rules = rules.to_vec();
            self.recompute_desired(&mut s, now);
        }
        self.journal.event().notify();
    }

    fn ports_changed(&self, down_ports: &[openflow::PortNo]) {
        let now = Instant::now();
        {
            let mut s = self.shared.lock();
            s.down_ports = down_ports.iter().map(|p| u32::from(p.0)).collect();
            self.recompute_desired(&mut s, now);
        }
        self.journal.event().notify();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shmem_sim::{SegmentKind, ShmRegistry};
    use std::sync::Arc;
    use vm_host::{LatencyModel, Vm};
    use vnf_apps::L2Forwarder;

    /// Agent over two 2-port VMs (ports 1,2 and 3,4), zero latency.
    fn agent_world() -> (Arc<ComputeAgent>, ShmRegistry, Vec<Arc<Vm>>) {
        let registry = ShmRegistry::new();
        let stats = StatsRegion::new();
        let mut vms = Vec::new();
        let mut port = 1u32;
        for name in ["vm0", "vm1"] {
            let mut vm_ports = Vec::new();
            for _ in 0..2 {
                let (vm_end, _sw_end) =
                    registry.create_channel(format!("dpdkr{port}"), SegmentKind::DpdkrNormal, 64);
                vm_ports.push((port, vm_end));
                port += 1;
            }
            vms.push(Vm::launch(
                name,
                vm_ports,
                Box::new(L2Forwarder::new()),
                stats.clone(),
            ));
        }
        let agent = Arc::new(ComputeAgent::new(registry.clone(), LatencyModel::zero()));
        for vm in &vms {
            agent.register_vm(Arc::clone(vm));
        }
        (agent, registry, vms)
    }

    fn p2p_snapshot(src: u16, dst: u16, cookie: u64) -> RuleSnapshot {
        RuleSnapshot {
            id: u64::from(src),
            fmatch: openflow::FlowMatch::in_port(openflow::PortNo(src)),
            priority: 100,
            actions: vec![openflow::Action::Output(openflow::PortNo(dst))],
            cookie,
        }
    }

    #[test]
    fn link_up_then_down_drives_the_agent() {
        let (agent, registry, _vms) = agent_world();
        let manager = HighwayManager::new(Arc::clone(&agent));

        manager.table_changed(&[p2p_snapshot(2, 3, 7)]);
        assert!(manager.wait_converged(Duration::from_secs(5)));
        assert_eq!(manager.active_links().len(), 1);
        assert_eq!(registry.live_of_kind(SegmentKind::Bypass).len(), 1);
        assert_eq!(manager.link_states()[&2], LinkState::Active);

        manager.table_changed(&[]);
        assert!(manager.wait_converged(Duration::from_secs(5)));
        assert!(manager.active_links().is_empty());
        assert_eq!(registry.live_of_kind(SegmentKind::Bypass).len(), 0);

        let log = manager.setup_log();
        assert_eq!(log.len(), 1);
        assert!(manager.failures().is_empty());

        // The journal tells the whole story, in order.
        let kinds: Vec<_> = manager
            .journal()
            .snapshot()
            .iter()
            .map(|e| e.kind)
            .collect();
        assert_eq!(
            kinds,
            vec![
                BypassEventKind::Detected,
                BypassEventKind::SetupStarted,
                BypassEventKind::Active,
                BypassEventKind::Vanished,
                BypassEventKind::TeardownStarted,
                BypassEventKind::Removed,
            ]
        );
        manager.shutdown();
    }

    #[test]
    fn bidirectional_links_share_one_segment() {
        let (agent, registry, _vms) = agent_world();
        let manager = HighwayManager::new(agent);
        manager.table_changed(&[p2p_snapshot(2, 3, 1), p2p_snapshot(3, 2, 2)]);
        assert!(manager.wait_converged(Duration::from_secs(5)));
        assert_eq!(manager.active_links().len(), 2);
        assert_eq!(registry.live_of_kind(SegmentKind::Bypass).len(), 1);
        manager.shutdown();
    }

    #[test]
    fn flapping_converges_to_last_state() {
        let (agent, registry, _vms) = agent_world();
        let manager = HighwayManager::new(agent);
        for _ in 0..5 {
            manager.table_changed(&[p2p_snapshot(2, 3, 1)]);
            manager.table_changed(&[]);
        }
        manager.table_changed(&[p2p_snapshot(2, 3, 1)]);
        assert!(manager.wait_converged(Duration::from_secs(5)));
        assert_eq!(manager.active_links().len(), 1);
        assert_eq!(registry.live_of_kind(SegmentKind::Bypass).len(), 1);

        // Waits racing a flipping table: a notify lost between a waiter's
        // check and its park shows up as a 5 s stall and a false return.
        let flipper = {
            let manager = Arc::clone(&manager);
            std::thread::spawn(move || {
                for i in 0..1_000 {
                    if i % 2 == 0 {
                        manager.table_changed(&[]);
                    } else {
                        manager.table_changed(&[p2p_snapshot(2, 3, 1)]);
                    }
                }
            })
        };
        while !flipper.is_finished() {
            assert!(manager.wait_converged(Duration::from_secs(5)));
        }
        flipper.join().unwrap();
        assert!(manager.wait_converged(Duration::from_secs(5)));
        assert_eq!(manager.active_links().len(), 1);
        assert_eq!(registry.live_of_kind(SegmentKind::Bypass).len(), 1);
        manager.shutdown();
    }

    #[test]
    fn cookie_change_resets_the_bypass() {
        let (agent, _registry, _vms) = agent_world();
        let manager = HighwayManager::new(agent);
        manager.table_changed(&[p2p_snapshot(2, 3, 1)]);
        assert!(manager.wait_converged(Duration::from_secs(5)));
        manager.table_changed(&[p2p_snapshot(2, 3, 99)]);
        assert!(manager.wait_converged(Duration::from_secs(5)));
        let links = manager.active_links();
        assert_eq!(links.len(), 1);
        assert_eq!(links[0].cookie, 99);
        assert_eq!(manager.setup_log().len(), 2);
        manager.shutdown();
    }

    /// Delete and re-add of the same rule is a new rule (counters from
    /// zero, a fresh statistics cell): it gets a new bypass even when the
    /// worker never saw the table in between and src, dst and cookie repeat.
    #[test]
    fn a_rule_deleted_and_added_again_gets_a_new_bypass() {
        let (agent, registry, _vms) = agent_world();
        let manager = HighwayManager::new(agent);
        manager.table_changed(&[p2p_snapshot(2, 3, 1)]);
        assert!(manager.wait_converged(Duration::from_secs(5)));
        manager.table_changed(&[]);
        manager.table_changed(&[p2p_snapshot(2, 3, 1)]);
        assert!(manager.wait_converged(Duration::from_secs(5)));
        assert_eq!(manager.active_links().len(), 1);
        assert_eq!(manager.setup_log().len(), 2);
        assert_eq!(registry.live_of_kind(SegmentKind::Bypass).len(), 1);
        assert!(manager.failures().is_empty());
        manager.shutdown();
    }

    #[test]
    fn links_to_unregistered_ports_are_deferred_until_registration() {
        let (agent, registry, _vms) = agent_world();
        let manager = HighwayManager::new(Arc::clone(&agent));
        // What HighwayNode wires up: registration re-evaluates deferrals.
        let weak = Arc::downgrade(&manager);
        agent.on_registration(move || {
            if let Some(m) = weak.upgrade() {
                m.refresh();
            }
        });

        // Port 99 has no VM: a bypass needs a guest PMD on both ends, so
        // the link is deferred — not attempted, not logged as a failure.
        manager.table_changed(&[p2p_snapshot(2, 99, 1)]);
        assert!(manager.wait_converged(Duration::from_secs(5)));
        assert!(manager.active_links().is_empty());
        assert!(manager.failures().is_empty());
        assert!(
            manager.journal().is_empty(),
            "deferred links are not even Detected"
        );

        // The VM owning port 99 boots: the cached rules are re-evaluated
        // and the link comes up without any flow table change.
        let (vm_end, _sw_end) = registry.create_channel("dpdkr99", SegmentKind::DpdkrNormal, 64);
        let vm = Vm::launch(
            "late-vm",
            vec![(99, vm_end)],
            Box::new(L2Forwarder::new()),
            StatsRegion::new(),
        );
        agent.register_vm(vm);
        assert!(manager.wait_converged(Duration::from_secs(5)));
        assert_eq!(manager.active_links().len(), 1);
        assert!(manager.failures().is_empty());
        manager.shutdown();
    }

    #[test]
    fn down_port_vetoes_and_revives_links() {
        let (agent, registry, _vms) = agent_world();
        let manager = HighwayManager::new(agent);
        manager.table_changed(&[p2p_snapshot(2, 3, 1)]);
        assert!(manager.wait_converged(Duration::from_secs(5)));
        assert_eq!(manager.active_links().len(), 1);

        // Port 3 goes down: the bypass must be torn down even though the
        // flow table still expresses the link.
        manager.ports_changed(&[openflow::PortNo(3)]);
        assert!(manager.wait_converged(Duration::from_secs(5)));
        assert!(manager.active_links().is_empty());
        assert_eq!(registry.live_of_kind(SegmentKind::Bypass).len(), 0);

        // Port comes back: the link is re-detected from the cached rules.
        manager.ports_changed(&[]);
        assert!(manager.wait_converged(Duration::from_secs(5)));
        assert_eq!(manager.active_links().len(), 1);
        assert_eq!(manager.setup_log().len(), 2);
        manager.shutdown();
    }
}
