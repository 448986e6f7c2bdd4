//! The flow table is one instance changed in place (docs/datapath.md,
//! "The flow table: one instance, changed in place"). Two things have to
//! hold for that to be safe and worth it: PMDs classifying *while* a
//! writer churns never hang and never serve an action older than a change
//! that had completed before they asked; and what a change costs does not
//! grow with the table around it.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Barrier, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use vnf_highway::dpdk::{cycles, Mbuf};
use vnf_highway::openflow::messages::{FlowMod, FlowModCommand};
use vnf_highway::ovs::pmd::{Datapath, PmdCaches};
use vnf_highway::ovs::{FlowTable, Ofproto};
use vnf_highway::packet::PacketBuilder;
use vnf_highway::prelude::{Action, FlowMatch, PortNo};

/// Changes the writer applies; the last one (index `CHANGES - 1`) is a
/// `ModifyStrict`, so the table ends holding a rule.
const CHANGES: u64 = 50_000;

/// Change `i` of the writer's cycle add → strict modify → strict delete
/// on the one rule every probe flow matches. An add or modify outputs to
/// port `i + 1`, which is how a reader tells which change it was served.
fn change(i: u64) -> FlowMod {
    let mut fm = FlowMod::add(
        FlowMatch::in_port(PortNo(1)),
        10,
        vec![Action::Output(PortNo(i as u16 + 1))],
    );
    match i % 3 {
        0 => {}
        1 => fm.command = FlowModCommand::ModifyStrict,
        _ => fm = FlowMod::delete_strict(fm.fmatch, fm.priority),
    }
    fm
}

/// What the writer and the readers share. Detached threads, not a scope:
/// a scope would wait for the very thread the watchdog is there to report.
struct Shared {
    dp: Arc<Datapath>,
    /// Changes begun / changes complete, as counts (so 0 = none yet).
    started: AtomicU64,
    applied: AtomicU64,
    done: AtomicBool,
    go: Barrier,
}

/// Two PMDs classify a fixed flow set through their own caches (the real
/// per-burst path, so the datapath counters move) while a third thread
/// adds, modifies and deletes the matching rule 50 000 times.
///
/// While the writer runs, every result is bracketed by the writer's own
/// progress counters: a rule served must come from a change that had
/// started, and must not be older than the last change that had completed
/// before the packet went in — the stale-action bug would show as an
/// output port from the past. After the writer's last change, every
/// reader's next classification returns that change's action and has
/// caught up with the live generation. A guard held across a write, or a
/// read re-entered behind a waiting writer, hangs; the watchdog turns that
/// into a failure.
#[test]
fn readers_classify_while_a_writer_churns() {
    let _alone = alone();
    let dp = Datapath::new(false);
    let shared = Arc::new(Shared {
        dp: Arc::clone(&dp),
        started: AtomicU64::new(0),
        applied: AtomicU64::new(0),
        done: AtomicBool::new(false),
        go: Barrier::new(3),
    });
    let (finished, watchdog) = mpsc::channel();

    let writer = {
        let (s, finished) = (Arc::clone(&shared), finished.clone());
        std::thread::spawn(move || {
            s.go.wait();
            for i in 0..CHANGES {
                s.started.store(i + 1, Ordering::SeqCst);
                let outcome = s.dp.table_apply(&change(i));
                assert!(
                    !outcome.is_empty(),
                    "change {i} found the table out of step"
                );
                s.applied.store(i + 1, Ordering::SeqCst);
            }
            s.done.store(true, Ordering::SeqCst);
            finished.send(()).expect("watchdog is listening");
        })
    };

    let readers: Vec<_> = (0..2u16)
        .map(|reader| {
            let (s, finished) = (Arc::clone(&shared), finished.clone());
            std::thread::spawn(move || {
                let frames: Vec<Vec<u8>> = (0..8)
                    .map(|f| {
                        PacketBuilder::udp_probe(64)
                            .ports(1000 + reader * 8 + f, 80)
                            .build()
                    })
                    .collect();
                let caches = Arc::new(parking_lot::Mutex::new(PmdCaches::new()));
                s.dp.register_pmd_caches(&caches);
                let mut staged: BTreeMap<PortNo, Vec<Mbuf>> = BTreeMap::new();
                // One packet through the datapath: the change whose action
                // it was served (by output port), or None on a miss.
                let mut classify = |frame: &[u8]| -> Option<u64> {
                    let mut burst = vec![Mbuf::from_slice(frame)];
                    let now = cycles::now();
                    s.dp.process_burst(
                        &mut burst,
                        PortNo(1),
                        Some(&*caches),
                        &mut staged,
                        &[],
                        now,
                    );
                    let served = staged.iter().find(|(_, pkts)| !pkts.is_empty());
                    let served = served.map(|(port, _)| u64::from(port.0) - 1);
                    staged.clear();
                    served
                };
                let mut sent = 0u64;
                s.go.wait();
                while !s.done.load(Ordering::SeqCst) {
                    for frame in &frames {
                        let complete = s.applied.load(Ordering::SeqCst);
                        let served = classify(frame);
                        let begun = s.started.load(Ordering::SeqCst);
                        sent += 1;
                        // Changes `complete - 1 ..= begun - 1` may be what
                        // this packet saw; anything earlier is stale.
                        let oldest = complete.saturating_sub(1);
                        match served {
                            Some(i) => assert!(
                                oldest <= i && i < begun,
                                "served change {i}; {complete} were complete, {begun} begun"
                            ),
                            None => assert!(
                                complete == 0 || (oldest..begun).any(|i| i % 3 == 2),
                                "missed with no delete among changes {oldest}..{begun}"
                            ),
                        }
                    }
                }
                for frame in &frames {
                    assert_eq!(
                        classify(frame),
                        Some(CHANGES - 1),
                        "the last change's action"
                    );
                    sent += 1;
                    assert_eq!(
                        caches.lock().snapshot_generation(),
                        Some(s.dp.table_generation()),
                        "reader {reader} has not caught up with the table"
                    );
                }
                finished.send(()).expect("watchdog is listening");
                sent
            })
        })
        .collect();

    for _ in 0..3 {
        watchdog
            .recv_timeout(Duration::from_secs(20))
            .expect("a thread hung: a table guard was held across a write, or re-entered");
    }
    writer.join().expect("writer panicked");
    let sent: u64 = readers
        .into_iter()
        .map(|r| r.join().expect("reader panicked"))
        .sum();

    assert_eq!(dp.table_generation(), CHANGES, "one generation per change");
    let s = dp.cache_stats();
    assert_eq!(s.lookups, sent, "every packet is one lookup");
    assert_eq!(s.lookups, s.matched + s.misses);
    assert_eq!(s.misses, dp.miss_drops.load(Ordering::Relaxed));
    assert_eq!(s.matched, s.emc_hits + s.megaflow_hits + s.classifier_hits);
}

/// `n` rules under one mask (in-port, /32 destination, L4 port), eight
/// priorities, cookie = index + 1 — the shape `ctrl_install` installs.
fn rules(n: u32) -> impl Iterator<Item = FlowMod> {
    (0..n).map(|i| {
        let mut m = FlowMatch::in_port(PortNo(1 + (i % 16) as u16));
        m.eth_type = Some(0x0800);
        m.ip_proto = Some(17);
        m.ipv4_dst = Some((std::net::Ipv4Addr::from(0x0a00_0000 | i), 32));
        m.l4_dst = Some(4000);
        FlowMod::add(m, 100 + (i % 8) as u16, vec![Action::Output(PortNo(100))])
            .with_cookie(u64::from(i) + 1)
    })
}

/// The tests of this file run one at a time: two of them compare
/// durations, and the third keeps three threads spinning.
static ALONE: Mutex<()> = Mutex::new(());

fn alone() -> MutexGuard<'static, ()> {
    ALONE
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Asserts `large <= factor * small` on what `measure` returns. A shared
/// host only ever adds time to a sample, so a bound on a ratio gets three
/// attempts; a cost that really grew with the table fails all of them.
fn assert_ratio_within(factor: u32, what: &str, measure: impl Fn() -> (Duration, Duration)) {
    let mut seen = Vec::new();
    for _ in 0..3 {
        let (small, large) = measure();
        if large <= small * factor {
            return;
        }
        seen.push((small, large));
    }
    panic!("{what}: (small table, large table) cost {seen:?}, over {factor}x each time");
}

fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort();
    samples[samples.len() / 2]
}

/// A flow_mod costs the rules it touches. One add plus its strict delete
/// — in the big subtable, above its ceiling priority, so both the index
/// probe and the ceiling bookkeeping are on the path — through
/// `Ofproto::apply_flow_mod` with nobody observing, on medians: 16x the
/// table may cost up to 3x (a bigger hash map misses the CPU cache more;
/// the clone-and-publish table paid ~16x).
#[test]
fn flow_mod_cost_does_not_grow_with_the_table() {
    let _alone = alone();
    let cost_at = |n: u32| {
        let dp = Datapath::new(false);
        let ofproto = Ofproto::new(Arc::clone(&dp), 1);
        for fm in rules(n) {
            ofproto.apply_flow_mod(&fm);
        }
        let mut extra = rules(n + 1).last().expect("n + 1 rules");
        extra.priority = 200;
        let gone = FlowMod::delete_strict(extra.fmatch, extra.priority);
        let samples = (0..301).map(|_| {
            let t = Instant::now();
            ofproto.apply_flow_mod(&extra);
            ofproto.apply_flow_mod(&gone);
            t.elapsed()
        });
        let cost = median(samples.collect());
        assert_eq!(dp.table().len(), n as usize);
        cost
    };
    assert_ratio_within(3, "add + strict delete at 1024 and 16384 rules", || {
        (cost_at(1024), cost_at(16_384))
    });
}

/// Emptying a table is linear in what leaves: every victim is unindexed
/// in one classifier call that settles ceilings and probe order once.
/// 4x the rules may cost up to 6x (linear is 4x, plus the larger table
/// outgrowing the CPU cache; a ceiling recompute per rule made it ~16x,
/// all of it with the write lock held).
#[test]
fn emptying_a_table_is_linear() {
    let _alone = alone();
    let cost_at = |n: u32| {
        let samples = (0..5).map(|_| {
            let mut table = FlowTable::new();
            for fm in rules(n) {
                table.apply(&fm);
            }
            let t = Instant::now();
            let change = table.apply(&FlowMod::delete(FlowMatch::any()));
            let cost = t.elapsed();
            assert_eq!(change.removed.len(), n as usize);
            assert!(table.is_empty());
            cost
        });
        samples.min().expect("five samples")
    };
    assert_ratio_within(6, "delete(any) of 4096 and of 16384 rules", || {
        (cost_at(4096), cost_at(16_384))
    });
}
