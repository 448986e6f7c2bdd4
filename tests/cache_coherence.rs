//! Cache-coherence regressions for the three-tier datapath: once a rule is
//! resolved into the EMC and megaflow caches, *no* control-plane change —
//! flow_mod modify, flow_mod delete, or a timeout sweep — may let a stale
//! cached entry serve the old actions. The coverage drives every mutation
//! through `Ofproto` (the path a real controller takes), then pumps the
//! PMD data path with the same warm per-PMD caches a running thread holds.
//!
//! Every scenario runs under 1, 2 and 4 cache sets: packets are spread
//! over them by a flow hash (`rss_owner`), so one in-port's flows warm
//! several sets and multi-set runs exercise per-PMD revalidation — each
//! set must notice the shared generation moved before serving its warm
//! tiers. (The live datapath assigns flows by in-port; the hash only
//! gives a three-port world enough cache sets to check.)

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;
use vnf_highway::dpdk::{cycles, Mbuf};
use vnf_highway::openflow::messages::{FlowMod, FlowModCommand, OfpMessage};
use vnf_highway::ovs::pmd::{rss_owner, Datapath, PmdCaches};
use vnf_highway::ovs::{Ofproto, OvsPort};
use vnf_highway::prelude::*;
use vnf_highway::shmem::ChannelEnd;

struct World {
    dp: Arc<Datapath>,
    ofproto: Ofproto,
    /// One warm cache set per simulated PMD.
    pmds: Vec<Mutex<PmdCaches>>,
    vm: Vec<ChannelEnd>,
}

/// Three dpdkr ports (1, 2, 3) with the VM-side channel ends returned in
/// order, plus `npmds` warmable per-PMD cache sets.
fn three_port_world(npmds: usize) -> World {
    let dp = Datapath::new(false);
    let ofproto = Ofproto::new(Arc::clone(&dp), 0xc0ffee);
    let mut vm = Vec::new();
    for no in 1u16..=3 {
        let (sw, vm_end) = vnf_highway::shmem::channel(format!("dpdkr{no}"), 64);
        dp.add_port(OvsPort::dpdkr(PortNo(no), format!("dpdkr{no}"), sw));
        vm.push(vm_end);
    }
    World {
        dp,
        ofproto,
        pmds: (0..npmds).map(|_| Mutex::new(PmdCaches::new())).collect(),
        vm,
    }
}

/// One synchronous iteration of the sharded datapath: every rx burst is
/// split by flow hash and each share processed against its own cache set
/// through `process_burst`, the call a PMD makes for every burst it polls.
fn pump(w: &mut World) {
    let snapshot: Vec<_> = w.dp.ports.read().values().cloned().collect();
    let mut staged = BTreeMap::new();
    let now = cycles::now();
    let total = w.pmds.len();
    for port in &snapshot {
        let mut rx = Vec::new();
        port.rx_burst(&mut rx, 32);
        if rx.is_empty() {
            continue;
        }
        let mut shards: Vec<Vec<Mbuf>> = (0..total).map(|_| Vec::new()).collect();
        for pkt in rx.drain(..) {
            let key = vnf_highway::packet::FlowKey::extract(pkt.data());
            shards[rss_owner(port.no, &key, total)].push(pkt);
        }
        for (owner, mut shard) in shards.into_iter().enumerate() {
            if !shard.is_empty() {
                w.dp.process_burst(
                    &mut shard,
                    port.no,
                    Some(&w.pmds[owner]),
                    &mut staged,
                    &snapshot,
                    now,
                );
            }
        }
    }
    w.dp.flush_staged(&mut staged);
}

fn probe() -> Mbuf {
    Mbuf::from_slice(&PacketBuilder::udp_probe(64).build())
}

/// The PMD that owns the probe flow arriving on port 1 — the only PMD
/// whose caches the probe warms, and therefore the one whose snapshot
/// must track the live generation.
fn probe_owner(total: usize) -> usize {
    let key = vnf_highway::packet::FlowKey::extract(&PacketBuilder::udp_probe(64).build());
    rss_owner(PortNo(1), &key, total)
}

fn flow_removed_count(ctrl: &vnf_highway::openflow::Connection) -> usize {
    let mut n = 0;
    while let Some(Ok((msg, _xid))) = ctrl.try_recv() {
        if matches!(msg, OfpMessage::FlowRemoved(_)) {
            n += 1;
        }
    }
    n
}

/// A flow_mod *modify* through ofproto must invalidate both warm cache
/// tiers: the very next packet executes the new actions, never the cached
/// old ones.
#[test]
fn flow_mod_modify_invalidates_warm_caches() {
    for npmds in [1usize, 2, 4] {
        let mut w = three_port_world(npmds);
        w.ofproto.apply_flow_mod(&FlowMod::add(
            FlowMatch::in_port(PortNo(1)),
            100,
            vec![Action::Output(PortNo(2))],
        ));

        // Warm both tiers: two packets — classifier resolution, then EMC hit.
        for _ in 0..2 {
            w.vm[0].send(probe()).unwrap();
            pump(&mut w);
        }
        assert!(w.vm[1].recv().is_some() && w.vm[1].recv().is_some());
        assert!(w.dp.emc_hits.load(std::sync::atomic::Ordering::Relaxed) > 0);

        let mut modify = FlowMod::add(
            FlowMatch::in_port(PortNo(1)),
            100,
            vec![Action::Output(PortNo(3))],
        );
        modify.command = FlowModCommand::ModifyStrict;
        w.ofproto.apply_flow_mod(&modify);

        w.vm[0].send(probe()).unwrap();
        pump(&mut w);
        assert!(
            w.vm[1].recv().is_none(),
            "stale cached action executed after modify ({npmds} PMDs)"
        );
        assert!(
            w.vm[2].recv().is_some(),
            "modified action not applied ({npmds} PMDs)"
        );
        // The owning PMD revalidated: its private snapshot caught up with
        // the live generation the modify published.
        assert_eq!(
            w.pmds[probe_owner(npmds)].lock().snapshot_generation(),
            Some(w.dp.table_generation()),
            "owner PMD kept serving a stale snapshot ({npmds} PMDs)"
        );
    }
}

/// A flow_mod *delete* through ofproto must flush the caches too — the
/// next packet is a genuine miss (dropped under the drop policy), and the
/// controller hears exactly one FlowRemoved.
#[test]
fn flow_mod_delete_invalidates_warm_caches_and_reports_removal() {
    for npmds in [1usize, 2, 4] {
        let mut w = three_port_world(npmds);
        let (ctrl, link) = vnf_highway::openflow::framed_link();
        w.ofproto.attach_controller(link);
        w.ofproto.apply_flow_mod(&FlowMod::add(
            FlowMatch::in_port(PortNo(1)),
            100,
            vec![Action::Output(PortNo(2))],
        ));

        for _ in 0..2 {
            w.vm[0].send(probe()).unwrap();
            pump(&mut w);
        }
        assert!(w.vm[1].recv().is_some() && w.vm[1].recv().is_some());

        w.ofproto.apply_flow_mod(&FlowMod::delete(FlowMatch::any()));
        assert_eq!(flow_removed_count(&ctrl), 1);

        let drops_before = w.dp.miss_drops.load(std::sync::atomic::Ordering::Relaxed);
        w.vm[0].send(probe()).unwrap();
        pump(&mut w);
        assert!(
            w.vm[1].recv().is_none(),
            "cached rule served after delete ({npmds} PMDs)"
        );
        assert_eq!(
            w.dp.miss_drops.load(std::sync::atomic::Ordering::Relaxed),
            drops_before + 1,
            "deleted rule's packet must be a real miss ({npmds} PMDs)"
        );
        assert_eq!(
            w.pmds[probe_owner(npmds)].lock().snapshot_generation(),
            Some(w.dp.table_generation()),
        );
    }
}

/// An idle-timeout expiry through `Ofproto::sweep_timeouts` evicts the
/// rule from the table *and* from both warm caches, and emits exactly one
/// FlowRemoved — not one per cache tier, not zero.
#[test]
fn idle_timeout_sweep_evicts_cached_rule_and_emits_one_flow_removed() {
    for npmds in [1usize, 2, 4] {
        let mut w = three_port_world(npmds);
        let (ctrl, link) = vnf_highway::openflow::framed_link();
        w.ofproto.attach_controller(link);
        let mut fm = FlowMod::add(
            FlowMatch::in_port(PortNo(1)),
            100,
            vec![Action::Output(PortNo(2))],
        );
        fm.idle_timeout = 1; // seconds
        w.ofproto.apply_flow_mod(&fm);

        // Warm both tiers.
        for _ in 0..2 {
            w.vm[0].send(probe()).unwrap();
            pump(&mut w);
        }
        assert!(w.vm[1].recv().is_some() && w.vm[1].recv().is_some());

        // Not yet idle: the sweep must keep the rule and emit nothing.
        w.ofproto.sweep_timeouts();
        assert_eq!(flow_removed_count(&ctrl), 0);
        assert_eq!(w.dp.table().len(), 1);

        // Let the idle clock run out, then sweep.
        std::thread::sleep(Duration::from_millis(1300));
        w.ofproto.sweep_timeouts();
        assert_eq!(
            flow_removed_count(&ctrl),
            1,
            "expiry must emit exactly one FlowRemoved ({npmds} PMDs)"
        );
        assert_eq!(w.dp.table().len(), 0);

        // Re-sweeping emits nothing further.
        w.ofproto.sweep_timeouts();
        assert_eq!(flow_removed_count(&ctrl), 0);

        // The warm caches must not resurrect the expired rule: the next
        // packet is a genuine miss in every tier.
        let stats_before = w.dp.cache_stats();
        w.vm[0].send(probe()).unwrap();
        pump(&mut w);
        let stats_after = w.dp.cache_stats();
        assert!(
            w.vm[1].recv().is_none(),
            "expired rule served from a stale cache entry ({npmds} PMDs)"
        );
        assert_eq!(stats_after.misses, stats_before.misses + 1);
        assert_eq!(stats_after.matched, stats_before.matched);
    }
}

/// Mid-sequence flow_mod churn under multi-PMD sharding: flows spread over
/// several PMDs, each privately caching the rule, then a modify republishes
/// the table — every PMD that sees post-churn traffic must revalidate its
/// snapshot and route to the new output, with no loss and no stale hits.
#[test]
fn multi_pmd_churn_revalidates_every_owner_snapshot() {
    for npmds in [2usize, 4] {
        let mut w = three_port_world(npmds);
        w.ofproto.apply_flow_mod(&FlowMod::add(
            FlowMatch::in_port(PortNo(1)),
            100,
            vec![Action::Output(PortNo(2))],
        ));

        // 32 distinct flows, warmed twice so every owner PMD holds both a
        // classifier-resolved megaflow and an EMC entry.
        let flows: Vec<Vec<u8>> = (0..32u16)
            .map(|i| PacketBuilder::udp_probe(64).ports(2000 + i, 80).build())
            .collect();
        for _ in 0..2 {
            for frame in &flows {
                w.vm[0].send(Mbuf::from_slice(frame)).unwrap();
                pump(&mut w);
            }
        }
        for _ in 0..64 {
            assert!(w.vm[1].recv().is_some(), "warmup packet lost");
        }
        // With multiple cache sets the flow hash must actually have
        // spread the flows: more than one set holds warm entries.
        let warm = w
            .pmds
            .iter()
            .filter(|c| !c.lock().megaflow.is_empty())
            .count();
        assert!(warm > 1, "RSS kept all 32 flows on one of {npmds} PMDs");

        // Mid-sequence churn: re-point the rule at port 3.
        let mut modify = FlowMod::add(
            FlowMatch::in_port(PortNo(1)),
            100,
            vec![Action::Output(PortNo(3))],
        );
        modify.command = FlowModCommand::ModifyStrict;
        w.ofproto.apply_flow_mod(&modify);
        let live = w.dp.table_generation();

        // Replay every flow: all must follow the new action.
        for frame in &flows {
            w.vm[0].send(Mbuf::from_slice(frame)).unwrap();
            pump(&mut w);
        }
        assert!(
            w.vm[1].recv().is_none(),
            "stale snapshot served the old output after churn ({npmds} PMDs)"
        );
        for _ in 0..32 {
            assert!(w.vm[2].recv().is_some(), "post-churn packet lost");
        }
        // Every PMD that classified post-churn traffic caught up to the
        // published generation.
        for (i, caches) in w.pmds.iter().enumerate() {
            let c = caches.lock();
            if !c.megaflow.is_empty() {
                assert_eq!(
                    c.snapshot_generation(),
                    Some(live),
                    "PMD {i} still on a pre-churn snapshot ({npmds} PMDs)"
                );
            }
        }
    }
}

/// Packets staged for a port that vanishes before the flush are *counted*
/// (`tx_no_port_drops`), and the dead port's staging key is evicted rather
/// than retained forever.
#[test]
fn vanished_port_drops_are_counted_and_staged_keys_cleaned() {
    let mut w = three_port_world(1);
    w.ofproto.apply_flow_mod(&FlowMod::add(
        FlowMatch::in_port(PortNo(1)),
        100,
        vec![Action::Output(PortNo(2))],
    ));
    // Warm the path, then yank the output port out from under it.
    w.vm[0].send(probe()).unwrap();
    pump(&mut w);
    assert!(w.vm[1].recv().is_some());
    assert_eq!(w.dp.cache_stats().tx_no_port_drops, 0);

    w.dp.remove_port(PortNo(2));
    w.vm[0].send(probe()).unwrap();
    pump(&mut w);
    assert_eq!(
        w.dp.cache_stats().tx_no_port_drops,
        1,
        "drop for a vanished output port must be counted"
    );

    // The lookup still matched — the drop happens after classification, so
    // the OFPST_TABLE identity (lookups == matched + misses) is untouched.
    let stats = w.dp.cache_stats();
    assert_eq!(stats.lookups, stats.matched + stats.misses);
}
