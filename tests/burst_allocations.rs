//! The datapath's hot path allocates nothing per packet: once the caches,
//! the staging queues and the rings are warm, `process_burst` plus
//! `flush_staged` over output-only rules make no heap allocation at all.
//!
//! This binary installs its own counting global allocator. Only
//! allocations made on a thread while its `COUNTING` flag is set are
//! counted, so the test harness's own threads and the set-up (building
//! packets, draining the sinks) stay out of the count.

use parking_lot::Mutex;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use vnf_highway::dpdk::{cycles, Mbuf, DEFAULT_BURST};
use vnf_highway::openflow::messages::FlowMod;
use vnf_highway::ovs::pmd::{Datapath, PmdCaches};
use vnf_highway::ovs::OvsPort;
use vnf_highway::prelude::*;
use vnf_highway::shmem::{channel, ChannelEnd};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards to `System` unchanged; counting only reads
// a thread-local flag and bumps an atomic, neither of which allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made on this thread while `f` runs.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

const PAIRS: u16 = 8;
const FLOWS: u16 = 64;

/// In-ports 1..=8, each forwarding to out-port `in + 8` by an output-only
/// rule; returns the datapath and the out-ports' far ends.
fn pairs_world() -> (Arc<Datapath>, Vec<ChannelEnd>) {
    let dp = Datapath::new(false);
    let mut sinks = Vec::new();
    for no in 1..=2 * PAIRS {
        let (sw, far) = channel(format!("p{no}"), 256);
        dp.add_port(OvsPort::dpdkr(PortNo(no), format!("p{no}"), sw));
        if no > PAIRS {
            sinks.push(far);
        }
    }
    for no in 1..=PAIRS {
        dp.table_apply(&FlowMod::add(
            FlowMatch::in_port(PortNo(no)),
            10,
            vec![Action::Output(PortNo(no + PAIRS))],
        ));
    }
    (dp, sinks)
}

/// One round's bursts: every in-port's 64 flows, in bursts of
/// `DEFAULT_BURST` distinct flows.
fn round_bursts() -> Vec<(PortNo, Vec<Mbuf>)> {
    let mut bursts = Vec::new();
    for no in 1..=PAIRS {
        let mut frames = (0..FLOWS).map(|f| {
            Mbuf::from_slice(
                &PacketBuilder::udp_probe(64)
                    .ports(10_000 + f, 80 + no)
                    .build(),
            )
        });
        loop {
            let burst: Vec<Mbuf> = frames.by_ref().take(DEFAULT_BURST).collect();
            if burst.is_empty() {
                break;
            }
            bursts.push((PortNo(no), burst));
        }
    }
    bursts
}

/// Drives `rounds` rounds through `process_burst` + `flush_staged`, with
/// in-port `n` served by cache set `(n - 1) * sets / 8`, and returns the
/// allocations the datapath made and the packets it delivered.
fn drive(
    dp: &Datapath,
    sinks: &mut [ChannelEnd],
    caches: &[Mutex<PmdCaches>],
    staged: &mut BTreeMap<PortNo, Vec<Mbuf>>,
    rounds: usize,
) -> (u64, u64) {
    let ports: Vec<Arc<OvsPort>> = dp.ports.read().values().cloned().collect();
    let (mut allocations, mut delivered) = (0, 0);
    for _ in 0..rounds {
        let mut bursts = round_bursts();
        let now = cycles::now();
        allocations += allocations_in(|| {
            for (in_port, burst) in &mut bursts {
                let owner = usize::from(in_port.0 - 1) * caches.len() / usize::from(PAIRS);
                dp.process_burst(burst, *in_port, Some(&caches[owner]), staged, &ports, now);
            }
            dp.flush_staged(staged);
        });
        for sink in sinks.iter_mut() {
            while sink.recv().is_some() {
                delivered += 1;
            }
        }
    }
    (allocations, delivered)
}

fn assert_zero_allocations_per_packet(sets: usize) {
    let (dp, mut sinks) = pairs_world();
    let caches: Vec<Mutex<PmdCaches>> = (0..sets).map(|_| Mutex::new(PmdCaches::new())).collect();
    let mut staged = BTreeMap::new();
    let per_round = u64::from(PAIRS) * u64::from(FLOWS);
    // Warm-up: caches primed, staging queues and their capacity in place.
    let (_, warm) = drive(&dp, &mut sinks, &caches, &mut staged, 4);
    assert_eq!(warm, 4 * per_round, "warm-up delivered everything");

    let rounds = 16;
    let (allocations, delivered) = drive(&dp, &mut sinks, &caches, &mut staged, rounds);
    assert_eq!(
        delivered,
        rounds as u64 * per_round,
        "measured rounds lossless"
    );
    assert_eq!(
        allocations, 0,
        "{sets} cache set(s): {allocations} allocations over {delivered} packets ({:.3} per packet)",
        allocations as f64 / delivered as f64
    );
    let s = dp.cache_stats();
    assert_eq!(s.lookups, s.matched, "no miss");
    assert_eq!(s.lookups, 20 * per_round);
}

#[test]
fn output_only_rules_allocate_nothing_per_packet_with_one_cache_set() {
    assert_zero_allocations_per_packet(1);
}

#[test]
fn output_only_rules_allocate_nothing_per_packet_with_two_cache_sets() {
    assert_zero_allocations_per_packet(2);
}
