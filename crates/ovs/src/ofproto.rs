//! The OpenFlow agent: the switch-side endpoint of the control channel.
//!
//! `Ofproto` decodes controller messages, applies flow_mods to the datapath
//! table, answers echo/features/barrier/statistics, executes packet-outs and
//! forwards queued packet-ins. Two hooks make the highway possible without
//! the controller noticing anything:
//!
//! * [`FlowTableObserver`] — receives a rule snapshot after every table
//!   change (where the p-2-p link detector attaches);
//! * [`StatsAugmenter`] — contributes extra per-rule / per-port counters
//!   when statistics replies are built (where the bypass shared-memory
//!   stats are merged in).

use crate::pmd::Datapath;
use crate::table::RuleEntry;
use dpdk_sim::mbuf::MBUF_MAX_LEN;
use dpdk_sim::{cycles, Arena};
use openflow::messages::*;
use openflow::{Action, FlowMatch, OfError, PortNo, SwitchLink};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// An immutable snapshot of one rule, handed to observers.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleSnapshot {
    pub id: u64,
    pub fmatch: FlowMatch,
    pub priority: u16,
    pub actions: Vec<Action>,
    pub cookie: u64,
}

impl RuleSnapshot {
    fn of(rule: &RuleEntry) -> RuleSnapshot {
        RuleSnapshot {
            id: rule.id,
            fmatch: rule.fmatch,
            priority: rule.priority,
            actions: rule.actions.clone(),
            cookie: rule.cookie,
        }
    }
}

/// Observer of flow-table changes (the p-2-p detector hook).
pub trait FlowTableObserver: Send + Sync {
    /// Called with the complete post-change rule set.
    fn table_changed(&self, rules: &[RuleSnapshot]);

    /// Called with the complete set of administratively-down ports after
    /// every port config or membership change. A bypass must not carry
    /// traffic past a port the controller disabled — the switch would have
    /// dropped it — so the highway listens here too. Default: ignore.
    fn ports_changed(&self, down_ports: &[PortNo]) {
        let _ = down_ports;
    }
}

/// Extra statistics merged into replies (the bypass stats hook).
///
/// Returned numbers are *cumulative* totals maintained by the implementor;
/// ofproto adds them to its own counters at reply time, which is exactly how
/// the prototype's OVS reads the shared-memory region on demand.
pub trait StatsAugmenter: Send + Sync {
    /// Extra `(packets, bytes)` for the rule with this cookie.
    fn rule_extra(&self, cookie: u64) -> (u64, u64);
    /// Extra port counters for this port.
    fn port_extra(&self, port: PortNo) -> PortExtra;
    /// The last rule carrying `cookie` is gone and its totals have been
    /// reported in `FlowRemoved`: whatever the implementor keeps per
    /// cookie can be released. Default: keep nothing, release nothing.
    fn rule_retired(&self, cookie: u64) {
        let _ = cookie;
    }
}

/// Extra port counters contributed by bypassed traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PortExtra {
    pub rx_packets: u64,
    pub rx_bytes: u64,
    pub tx_packets: u64,
    pub tx_bytes: u64,
}

/// The OpenFlow agent bound to one datapath.
pub struct Ofproto {
    dp: Arc<Datapath>,
    link: Mutex<Option<SwitchLink>>,
    observers: Mutex<Vec<Arc<dyn FlowTableObserver>>>,
    augmenter: Mutex<Option<Arc<dyn StatsAugmenter>>>,
    /// Last bypass packet count seen per rule cookie, so the idle-timeout
    /// sweep can tell "idle" from "busy, but over a bypass channel".
    bypass_progress: Mutex<BTreeMap<u64, u64>>,
    /// True while [`Ofproto::poll`] has dequeued a controller message it
    /// has not finished applying; see [`Ofproto::control_idle`].
    control_inflight: std::sync::atomic::AtomicBool,
    datapath_id: u64,
}

impl Ofproto {
    /// Creates the agent for a datapath.
    pub fn new(dp: Arc<Datapath>, datapath_id: u64) -> Ofproto {
        Ofproto {
            dp,
            link: Mutex::new(None),
            observers: Mutex::new(Vec::new()),
            augmenter: Mutex::new(None),
            bypass_progress: Mutex::new(BTreeMap::new()),
            control_inflight: std::sync::atomic::AtomicBool::new(false),
            datapath_id,
        }
    }

    /// True when no controller message is queued or being applied. A true
    /// result means every control message sent *before this call* has
    /// taken effect on the flow table — the switch-side half of a
    /// barrier, used by convergence waits that must not observe the table
    /// from before an in-flight flow_mod.
    pub fn control_idle(&self) -> bool {
        // The pending check and the in-flight flag are reconciled under
        // the link lock: poll() raises the flag before releasing the lock
        // it dequeued under, so "empty queue, flag down" cannot name a
        // message that is secretly being applied.
        let guard = self.link.lock();
        let pending = guard.as_ref().map(|l| l.pending()).unwrap_or(0);
        pending == 0
            && !self
                .control_inflight
                .load(std::sync::atomic::Ordering::Acquire)
    }

    /// Attaches (or replaces) the controller link, and wakes the control
    /// thread: the new link may already hold the controller's `Hello`.
    pub fn attach_controller(&self, link: SwitchLink) {
        link.subscribe(&self.dp.control_wake);
        *self.link.lock() = Some(link);
        self.dp.control_wake.notify();
    }

    /// Registers a flow-table observer.
    pub fn register_observer(&self, obs: Arc<dyn FlowTableObserver>) {
        self.observers.lock().push(obs);
    }

    /// Installs the statistics augmenter.
    pub fn set_stats_augmenter(&self, aug: Arc<dyn StatsAugmenter>) {
        *self.augmenter.lock() = Some(aug);
    }

    fn notify_observers(&self) {
        let observers = self.observers.lock();
        if observers.is_empty() {
            return; // nobody to build the O(table) snapshot for
        }
        // The table guard is gone before the first call-out: an observer
        // is free to read the table, or change it, from inside its call.
        let snapshot: Vec<RuleSnapshot> = {
            let table = self.dp.table();
            table.rules().iter().map(|r| RuleSnapshot::of(r)).collect()
        };
        for obs in observers.iter() {
            obs.table_changed(&snapshot);
        }
    }

    fn notify_ports_changed(&self) {
        let down: Vec<PortNo> = self
            .dp
            .ports
            .read()
            .values()
            .filter(|p| !p.is_admin_up())
            .map(|p| p.no)
            .collect();
        for obs in self.observers.lock().iter() {
            obs.ports_changed(&down);
        }
    }

    /// Emits a `PortStatus` for a port membership change and re-notifies
    /// observers (called by the vswitchd layer on add/remove).
    pub fn announce_port(&self, no: PortNo, name: &str, reason: PortStatusReason) {
        telemetry::coverage!("port_status");
        let down = match reason {
            PortStatusReason::Delete => false,
            _ => self.dp.port(no).map(|p| !p.is_admin_up()).unwrap_or(false),
        };
        self.send(
            &OfpMessage::PortStatus(PortStatus {
                reason,
                port_no: no.0,
                name: name.to_string(),
                down,
            }),
            0,
        );
        self.notify_ports_changed();
    }

    /// Applies a `port_mod`: flips the admin state, announces the change
    /// and informs observers (the highway tears down bypasses over down
    /// ports). Unknown ports produce an OF error back to the controller.
    pub fn apply_port_mod(&self, pm: &PortMod) {
        match self.dp.port(pm.port_no) {
            Some(port) => {
                let was_up = port.set_admin_up(!pm.down);
                if was_up == pm.down {
                    // State actually changed.
                    self.send(
                        &OfpMessage::PortStatus(PortStatus {
                            reason: PortStatusReason::Modify,
                            port_no: pm.port_no.0,
                            name: port.name.clone(),
                            down: pm.down,
                        }),
                        0,
                    );
                    self.notify_ports_changed();
                }
            }
            None => {
                self.send(
                    &OfpMessage::Error {
                        err_type: 2, // OFPET_BAD_ACTION family: bad port
                        code: 4,     // OFPBAC_BAD_OUT_PORT
                    },
                    0,
                );
            }
        }
    }

    fn send(&self, msg: &OfpMessage, xid: u32) {
        if let Some(link) = self.link.lock().as_ref() {
            let _ = link.send(msg, xid);
        }
    }

    /// Applies a flow_mod directly (used by the controller path and by
    /// tests/orchestrators that bypass the wire).
    pub fn apply_flow_mod(&self, fm: &FlowMod) {
        telemetry::coverage!("flow_mod");
        let change = self.dp.table_apply(fm);
        if change.is_empty() {
            return;
        }
        self.report_removed(&change.removed);
        self.notify_observers();
    }

    /// Tells the controller about rules that left the table (`FlowRemoved`
    /// with the bypass counters folded in, so it reports the truth), then
    /// lets the augmenter drop what it kept for cookies no rule carries
    /// any more.
    fn report_removed(&self, removed: &[Arc<RuleEntry>]) {
        if removed.is_empty() {
            return;
        }
        let aug = self.augmenter.lock().clone();
        for rule in removed {
            telemetry::coverage!("flow_removed");
            let (packets, bytes) = rule.counters();
            let (ep, eb) = aug
                .as_ref()
                .map(|a| a.rule_extra(rule.cookie))
                .unwrap_or((0, 0));
            self.send(
                &OfpMessage::FlowRemoved(FlowRemoved {
                    fmatch: rule.fmatch,
                    priority: rule.priority,
                    cookie: rule.cookie,
                    packet_count: packets + ep,
                    byte_count: bytes + eb,
                }),
                0,
            );
        }
        if let Some(aug) = aug {
            // A cookie is an accounting key, not a rule id: several rules
            // may share one, and its counters live until the last is gone.
            let mut gone: BTreeSet<u64> = removed.iter().map(|r| r.cookie).collect();
            for rule in self.dp.table().rules() {
                if gone.is_empty() {
                    break;
                }
                gone.remove(&rule.cookie);
            }
            for cookie in gone {
                aug.rule_retired(cookie);
            }
        }
    }

    /// Sweeps rule timeouts (called by the vswitchd control loop).
    ///
    /// Before sweeping, rules whose bypass counters advanced since the
    /// last sweep get their idle clock refreshed: a fully bypassed rule
    /// generates no switch-side hits, but it is *not* idle — expiring it
    /// would tear down a live fast path and then blackhole the traffic.
    /// (The prototype has the same obligation: OVS "is not able to count
    /// statistics related to p-2-p links by itself".)
    pub fn sweep_timeouts(&self) {
        let now = cycles::now();
        if let Some(aug) = self.augmenter.lock().clone() {
            // The rules that can idle out, copied so that the table guard
            // is gone before the augmenter is called and before the sweep
            // below takes the write side.
            let idlers: Vec<Arc<RuleEntry>> = {
                let table = self.dp.table();
                let idlers = table.rules().iter().filter(|r| r.idle_timeout != 0);
                idlers.cloned().collect()
            };
            let mut progress = self.bypass_progress.lock();
            let mut live = BTreeSet::new();
            for rule in &idlers {
                live.insert(rule.cookie);
                let (pkts, _bytes) = aug.rule_extra(rule.cookie);
                let seen = progress.entry(rule.cookie).or_insert(0);
                if pkts > *seen {
                    *seen = pkts;
                    rule.touch(now);
                }
            }
            // Drop progress for rules that no longer exist, so a future
            // rule reusing a cookie starts from the region's current count.
            progress.retain(|cookie, _| live.contains(cookie));
        }
        let change = self.dp.table_sweep(cycles::now());
        if change.is_empty() {
            return;
        }
        self.report_removed(&change.removed);
        self.notify_observers();
    }

    /// The rules a flow or aggregate stats request addresses (loose filter
    /// semantics, like every stats request in OF 1.0), copied out so the
    /// table guard is released before the augmenter is consulted.
    fn stats_rules(&self, fmatch: &FlowMatch, out_port: PortNo) -> Vec<Arc<RuleEntry>> {
        let table = self.dp.table();
        let hits = table.rules().iter().filter(|r| {
            crate::table::loose_filter_matches(fmatch, &r.fmatch)
                && (out_port == PortNo::NONE || r.actions.contains(&Action::Output(out_port)))
        });
        hits.cloned().collect()
    }

    fn build_flow_stats(&self, req: &FlowStatsRequest) -> Vec<FlowStatsEntry> {
        let aug = self.augmenter.lock().clone();
        let now = cycles::now();
        self.stats_rules(&req.fmatch, req.out_port)
            .iter()
            .map(|r| {
                let (mut packets, mut bytes) = r.counters();
                if let Some(aug) = &aug {
                    let (ep, eb) = aug.rule_extra(r.cookie);
                    packets += ep;
                    bytes += eb;
                }
                FlowStatsEntry {
                    fmatch: r.fmatch,
                    priority: r.priority,
                    cookie: r.cookie,
                    duration_sec: (cycles::to_duration(now.saturating_sub(r.added_at))).as_secs()
                        as u32,
                    idle_timeout: r.idle_timeout,
                    hard_timeout: r.hard_timeout,
                    packet_count: packets,
                    byte_count: bytes,
                    actions: r.actions.clone(),
                }
            })
            .collect()
    }

    fn build_port_stats(&self, req: &PortStatsRequest) -> Vec<PortStatsEntry> {
        let aug = self.augmenter.lock().clone();
        let ports = self.dp.ports.read();
        ports
            .values()
            .filter(|p| req.port_no == PortNo::NONE || p.no == req.port_no)
            .map(|p| {
                let s = p.stats();
                let extra = aug.as_ref().map(|a| a.port_extra(p.no)).unwrap_or_default();
                PortStatsEntry {
                    port_no: p.no.0,
                    rx_packets: s.ipackets + extra.rx_packets,
                    tx_packets: s.opackets + extra.tx_packets,
                    rx_bytes: s.ibytes + extra.rx_bytes,
                    tx_bytes: s.obytes + extra.tx_bytes,
                    // A frame the port's ring refuses is counted by the
                    // wire end that sent it: the switch drops none on rx.
                    rx_dropped: 0,
                    tx_dropped: s.odropped,
                }
            })
            .collect()
    }

    /// A full flow-stats snapshot (all rules, augmented), as an
    /// `ovs-ofctl dump-flows` through the stats path would see it.
    pub fn flow_stats_snapshot(&self) -> Vec<FlowStatsEntry> {
        self.build_flow_stats(&FlowStatsRequest {
            fmatch: FlowMatch::any(),
            out_port: PortNo::NONE,
        })
    }

    fn build_aggregate_stats(&self, req: &AggregateStatsRequest) -> AggregateStats {
        let aug = self.augmenter.lock().clone();
        let mut agg = AggregateStats::default();
        for r in self.stats_rules(&req.fmatch, req.out_port) {
            let (mut packets, mut bytes) = r.counters();
            if let Some(aug) = &aug {
                let (ep, eb) = aug.rule_extra(r.cookie);
                packets += ep;
                bytes += eb;
            }
            agg.packet_count += packets;
            agg.byte_count += bytes;
            agg.flow_count += 1;
        }
        agg
    }

    fn build_table_stats(&self) -> Vec<TableStatsEntry> {
        // One table, like the OF 1.0 profile of the prototype's OVS. The
        // lookup/matched counters are switch-side only: packets riding a
        // bypass never enter the table, and the prototype makes the same
        // choice (only flow and port stats are shared-memory augmented).
        //
        // With the three-tier datapath (EMC → megaflow → classifier) the
        // `OFPST_TABLE` semantics are: `lookup_count` counts every packet
        // the datapath processed exactly once, whichever tier resolved it;
        // `matched_count` equals the sum of the per-tier hit counters.
        // The reply reports the single `matched` counter rather than
        // re-summing the tier counters, so a concurrent PMD cannot produce
        // a transient matched > lookups view. The identities are pinned by
        // `ovs_dp::pmd::tests::stats_split_by_tier_is_consistent` and
        // `table_stats_report_tier_consistent_counts` below.
        //
        // `tx_no_port_drops` (packets staged for a port that vanished
        // before flush) is deliberately *not* folded into these counters:
        // the drop happens after the match, so lookups/matched identities
        // hold regardless. It is observable via `Datapath::cache_stats`.
        let stats = self.dp.cache_stats();
        vec![TableStatsEntry {
            table_id: 0,
            name: "classifier".into(),
            max_entries: 1 << 20,
            active_count: self.dp.table().len() as u32,
            lookup_count: stats.lookups,
            matched_count: stats.matched,
        }]
    }

    fn build_desc_stats(&self) -> DescStats {
        DescStats {
            manufacturer: "vnf-highway (SIGCOMM'16 reproduction)".into(),
            hardware: "simulated OVS-DPDK datapath".into(),
            software: concat!("ovs-dp ", env!("CARGO_PKG_VERSION")).into(),
            serial: "None".into(),
            datapath: format!("dpid {:#x}", self.datapath_id),
        }
    }

    /// Sends a controller packet-out through its actions. The data takes
    /// a slot of the private segment: data longer than a slot holds
    /// ([`MBUF_MAX_LEN`]) is answered with `OFPBRC_BAD_LEN` and dropped, and
    /// data that finds the segment full is dropped (the segment's
    /// `alloc_failures` counts it).
    fn handle_packet_out(&self, po: PacketOut, xid: u32) {
        if po.data.len() > MBUF_MAX_LEN {
            self.send(
                &OfpMessage::Error {
                    err_type: 1, // OFPET_BAD_REQUEST
                    code: 6,     // OFPBRC_BAD_LEN
                },
                xid,
            );
            return;
        }
        let Some(mut pkt) = Arena::private().alloc_from(&po.data) else {
            return;
        };
        let snapshot: Vec<_> = self.dp.ports.read().values().cloned().collect();
        let targets = crate::actions::execute(&mut pkt, &po.actions);
        let mut staged = BTreeMap::new();
        self.dp
            .stage_outputs(pkt, po.in_port, &targets, &mut staged, &snapshot);
        self.dp.flush_staged(&mut staged);
    }

    /// Processes every pending controller message and forwards queued
    /// packet-ins. Returns how many messages were handled.
    pub fn poll(&self) -> usize {
        self.poll_round().0
    }

    /// One [`Ofproto::poll`] round: how many controller messages it
    /// handled, and whether it left a backlog. Controller messages are
    /// drained dry, but packet-ins are forwarded a bounded batch at a time
    /// so a punting PMD cannot starve the controller — and the ones past
    /// the batch were announced when they were queued, nothing notifies
    /// for them again. A caller about to park must go again on a backlog.
    pub(crate) fn poll_round(&self) -> (usize, bool) {
        const PACKET_IN_BATCH: usize = 64;
        let mut handled = 0;
        // Forward packet-ins punted by the datapath.
        let packet_ins = self.dp.drain_packet_ins(PACKET_IN_BATCH);
        let backlog = packet_ins.len() == PACKET_IN_BATCH;
        for pi in packet_ins {
            telemetry::coverage!("packet_in");
            self.send(&OfpMessage::PacketIn(pi), 0);
        }
        use std::sync::atomic::Ordering;
        loop {
            let msg = {
                let guard = self.link.lock();
                let msg = match guard.as_ref() {
                    Some(link) => link.try_recv(),
                    None => None,
                };
                // Raised before the dequeue's lock is released, so
                // `control_idle` never sees "queue empty, nothing
                // in flight" while a message awaits application below.
                if msg.is_some() {
                    self.control_inflight.store(true, Ordering::Release);
                }
                msg
            };
            let Some(msg) = msg else { break };
            let (msg, xid) = match msg {
                Ok(m) => m,
                Err(OfError::Disconnected) => {
                    self.control_inflight.store(false, Ordering::Release);
                    break;
                }
                Err(_e) => {
                    self.send(
                        &OfpMessage::Error {
                            err_type: 1, // OFPET_BAD_REQUEST
                            code: 0,
                        },
                        0,
                    );
                    self.control_inflight.store(false, Ordering::Release);
                    continue;
                }
            };
            handled += 1;
            match msg {
                OfpMessage::Hello => self.send(&OfpMessage::Hello, xid),
                OfpMessage::EchoRequest(data) => self.send(&OfpMessage::EchoReply(data), xid),
                OfpMessage::FeaturesRequest => {
                    let ports = self.dp.port_numbers().iter().map(|p| p.0).collect();
                    self.send(
                        &OfpMessage::FeaturesReply {
                            datapath_id: self.datapath_id,
                            ports,
                        },
                        xid,
                    );
                }
                OfpMessage::FlowMod(fm) => self.apply_flow_mod(&fm),
                OfpMessage::PortMod(pm) => self.apply_port_mod(&pm),
                OfpMessage::FlowStatsRequest(req) => {
                    // As many frames as the table needs, never one whose
                    // length field would have to lie.
                    for part in openflow::codec::flow_stats_parts(self.build_flow_stats(&req)) {
                        self.send(&part, xid);
                    }
                }
                OfpMessage::PortStatsRequest(req) => {
                    let entries = self.build_port_stats(&req);
                    self.send(&OfpMessage::PortStatsReply(entries), xid);
                }
                OfpMessage::AggregateStatsRequest(req) => {
                    let agg = self.build_aggregate_stats(&req);
                    self.send(&OfpMessage::AggregateStatsReply(agg), xid);
                }
                OfpMessage::TableStatsRequest => {
                    let entries = self.build_table_stats();
                    self.send(&OfpMessage::TableStatsReply(entries), xid);
                }
                OfpMessage::DescStatsRequest => {
                    let desc = self.build_desc_stats();
                    self.send(&OfpMessage::DescStatsReply(desc), xid);
                }
                OfpMessage::PacketOut(po) => self.handle_packet_out(po, xid),
                OfpMessage::BarrierRequest => self.send(&OfpMessage::BarrierReply, xid),
                // Replies/asynchronous messages are controller-bound only.
                other => {
                    let _ = other;
                }
            }
            self.control_inflight.store(false, Ordering::Release);
        }
        (handled, backlog)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pmd::PmdCaches;
    use crate::port::OvsPort;
    use dpdk_sim::Mbuf;
    use openflow::messages::FlowMod;
    use packet_wire::PacketBuilder;
    use shmem_sim::channel;

    /// `OFPST_TABLE` reports the tier-consistent counters: one lookup per
    /// processed packet, matched == sum of per-tier hits — regardless of
    /// which cache tier resolved each packet.
    #[test]
    fn table_stats_report_tier_consistent_counts() {
        let dp = Datapath::new(false);
        let ofproto = Ofproto::new(Arc::clone(&dp), 0x1);
        let (sw1, mut vm1) = channel("t1", 64);
        let (sw2, _vm2) = channel("t2", 64);
        dp.add_port(OvsPort::dpdkr(PortNo(1), "t1", sw1));
        dp.add_port(OvsPort::dpdkr(PortNo(2), "t2", sw2));
        ofproto.apply_flow_mod(&FlowMod::add(
            FlowMatch::in_port(PortNo(1)),
            10,
            vec![Action::Output(PortNo(2))],
        ));

        let caches = Arc::new(Mutex::new(PmdCaches::new()));
        dp.register_pmd_caches(&caches);
        // Same flow three times: classifier resolves once, EMC the rest.
        for _ in 0..3 {
            vm1.send(Mbuf::from_slice(&PacketBuilder::udp_probe(64).build()))
                .unwrap();
            crate::pmd::pump_once(&dp, Some(&caches));
        }

        let entries = ofproto.build_table_stats();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].lookup_count, 3);
        assert_eq!(entries[0].matched_count, 3);
        let s = dp.cache_stats();
        assert_eq!(entries[0].matched_count, s.matched);
        assert_eq!(
            s.matched,
            s.emc_hits + s.megaflow_hits + s.classifier_hits,
            "matched must equal the sum of per-tier hits"
        );
        assert_eq!(s.classifier_hits, 1);
        assert_eq!(s.emc_hits, 2);
        assert_eq!(s.megaflow_hits, 0);
        assert_eq!(s.lookups, s.matched + s.misses);
    }
}
