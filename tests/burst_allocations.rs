//! The hot paths allocate nothing per packet. Once the caches, the staging
//! queues and the rings are warm, the datapath's `process_burst` plus
//! `flush_staged` over output-only rules make no heap allocation at all,
//! and neither does a guest's `poll_once`, busy or idle, along a chain of
//! four guests whose seams are normal channels or bypasses.
//!
//! This binary installs its own counting global allocator. Only
//! allocations made on a thread while its `COUNTING` flag is set are
//! counted, into that thread's own count, so the test harness's own
//! threads, the other tests and the set-up (building packets, draining
//! the sinks) stay out of it.

use parking_lot::Mutex;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use vnf_highway::dpdk::{cycles, Mbuf, DEFAULT_BURST};
use vnf_highway::openflow::messages::FlowMod;
use vnf_highway::ovs::pmd::{Datapath, PmdCaches};
use vnf_highway::ovs::OvsPort;
use vnf_highway::prelude::*;
use vnf_highway::shmem::{
    channel, serial_pair, ChannelEnd, DeviceBoard, IvshmemDevice, SerialPort,
};
use vnf_highway::vnf::{DpdkrPmd, GuestConfig, PmdAck, PmdCtrl, VnfRunner};

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// Per thread, so tests running side by side never see each other's.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every call forwards to `System` unchanged; counting only reads
// and bumps thread-local cells, neither of which allocates.
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
    let before = ALLOCATIONS.with(Cell::get);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCATIONS.with(Cell::get) - before
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
    caches: &[Arc<Mutex<PmdCaches>>],
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
                dp.process_burst(burst, *in_port, Some(&*caches[owner]), staged, &ports, now);
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
    let caches: Vec<Arc<Mutex<PmdCaches>>> = (0..sets)
        .map(|_| Arc::new(Mutex::new(PmdCaches::new())))
        .collect();
    for c in &caches {
        dp.register_pmd_caches(c);
    }
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

// ------------------------------------------------------------ the guests

const CHAIN: usize = 4;

/// One guest stepped by hand, with the host ends of its control serial.
struct Guest {
    runner: VnfRunner,
    ctrl: SerialPort<PmdCtrl>,
    acks: SerialPort<PmdAck>,
    board: Arc<DeviceBoard>,
}

impl Guest {
    /// An L2-forwarding guest over `west` (port `2i + 1`) and `east`.
    fn new(i: usize, west: ChannelEnd, east: ChannelEnd, stats: &StatsRegion) -> Guest {
        let (host_ctrl, guest_ctrl) = serial_pair::<PmdCtrl>(format!("g{i}"));
        let (guest_ack, host_ack) = serial_pair::<PmdAck>(format!("g{i}-ack"));
        let board = Arc::new(DeviceBoard::new());
        let west_no = 2 * i as u32 + 1;
        let config = GuestConfig {
            name: format!("g{i}"),
            ports: vec![
                DpdkrPmd::new(west_no, west, stats.clone()),
                DpdkrPmd::new(west_no + 1, east, stats.clone()),
            ],
            app: Box::new(L2Forwarder::new()),
            serial: guest_ctrl,
            ack_via: guest_ack,
            board: Arc::clone(&board),
        };
        Guest {
            runner: VnfRunner::new(config, Arc::new(std::sync::atomic::AtomicBool::new(false))),
            ctrl: host_ctrl,
            acks: host_ack,
            board,
        }
    }

    /// One control request through the guest's own poll; true on an ok ack.
    fn request(&mut self, msg: PmdCtrl) -> bool {
        self.ctrl.send(msg).unwrap();
        self.runner.poll_once();
        self.acks.try_recv().is_some_and(|ack| ack.ok)
    }
}

/// entry → 4 guests → exit. With `bypassed`, each inner seam is a bypass
/// set up over the guests' serials in both directions, and the guests'
/// inner normal channels face an idle switch end; otherwise every seam is
/// a normal channel. Returns the guests, the entry and exit ends, and the
/// idle ends to keep alive.
fn chain(arena: &Arena, bypassed: bool) -> (Vec<Guest>, ChannelEnd, ChannelEnd, Vec<ChannelEnd>) {
    let stats = StatsRegion::new();
    let (entry, mut west) = channel("entry", 256);
    let (mut guests, mut idle) = (Vec::new(), Vec::new());
    for i in 0..CHAIN {
        let (east, next_west) = if bypassed && i + 1 < CHAIN {
            // The bypass carries this seam: both guests' normal channels
            // face a switch end that stays idle.
            let ((sw_e, east), (sw_w, next_west)) = (
                channel(format!("sw{i}e"), 256),
                channel(format!("sw{i}w"), 256),
            );
            idle.extend([sw_e, sw_w]);
            (east, next_west)
        } else {
            channel(format!("seam{i}"), 256)
        };
        guests.push(Guest::new(i, west, east, &stats));
        west = next_west;
    }
    if bypassed {
        for i in 0..CHAIN - 1 {
            let segment = format!("bypass{i}");
            let (a, b) = channel(&segment, 256);
            let (src, dst) = (2 * i as u32 + 2, 2 * i as u32 + 3);
            let (left, right) = guests.split_at_mut(i + 1);
            let (l, r) = (&mut left[i], &mut right[0]);
            for (g, end) in [(&mut *l, a), (&mut *r, b)] {
                g.board.set_arena(arena);
                g.board.plug(IvshmemDevice::new(&segment, end));
            }
            let map = |of_port| PmdCtrl::MapBypass {
                seq: 0,
                of_port,
                segment: segment.clone(),
            };
            let mut ok = l.request(map(src)) && r.request(map(dst));
            for (g, port, peer, cookie) in [(&mut *r, dst, src, 0x20), (&mut *l, src, dst, 0x10)] {
                ok &= g.request(PmdCtrl::EnableRx {
                    seq: 0,
                    of_port: port,
                });
                ok &= g.request(PmdCtrl::EnableTx {
                    seq: 0,
                    of_port: port,
                    rule_cookie: cookie + i as u64,
                    peer_port: peer,
                });
            }
            assert!(ok, "bypass {src}<->{dst} came up");
        }
    }
    (guests, entry, west, idle)
}

/// Runs `rounds` bursts from entry to exit, each followed by one idle poll
/// of every guest; returns the allocations the busy polls and the idle
/// polls made and the packets delivered.
fn drive_chain(
    guests: &mut [Guest],
    entry: &mut ChannelEnd,
    exit: &mut ChannelEnd,
    arena: &Arena,
    rounds: usize,
) -> (u64, u64, u64) {
    let frame = PacketBuilder::udp_probe(64).build();
    let (mut busy, mut idle, mut delivered) = (0, 0, 0);
    for _ in 0..rounds {
        let mut burst: Vec<Mbuf> = (0..DEFAULT_BURST)
            .map(|_| Mbuf::from_arena(arena.alloc_from(&frame).expect("arena slot")))
            .collect();
        assert_eq!(entry.send_burst(&mut burst), DEFAULT_BURST);
        busy += allocations_in(|| {
            for g in guests.iter_mut() {
                g.runner.poll_once();
            }
        });
        idle += allocations_in(|| {
            for g in guests.iter_mut() {
                assert!(!g.runner.poll_once(), "nothing left to move");
            }
        });
        while exit.recv().is_some() {
            delivered += 1;
        }
    }
    (busy, idle, delivered)
}

fn assert_guest_polls_allocate_nothing(bypassed: bool) {
    let arena = Arena::new(format!("guests-{bypassed}"), 256, 256);
    let (mut guests, mut entry, mut exit, _idle) = chain(&arena, bypassed);
    let warm = drive_chain(&mut guests, &mut entry, &mut exit, &arena, 4);
    assert_eq!(
        warm.2,
        4 * DEFAULT_BURST as u64,
        "warm-up delivered everything"
    );

    let rounds = 32;
    let (busy, idle, delivered) = drive_chain(&mut guests, &mut entry, &mut exit, &arena, rounds);
    assert_eq!(
        delivered,
        (rounds * DEFAULT_BURST) as u64,
        "measured rounds lossless"
    );
    assert_eq!(
        (busy, idle),
        (0, 0),
        "bypassed={bypassed}: allocations in busy / idle polls over {delivered} packets"
    );
    let forwarded: u64 = guests
        .iter()
        .map(|g| g.runner.counters().forwarded.load(Ordering::Relaxed))
        .sum();
    assert_eq!(forwarded, CHAIN as u64 * 36 * DEFAULT_BURST as u64);
}

#[test]
fn guest_polls_allocate_nothing_along_a_normal_chain() {
    assert_guest_polls_allocate_nothing(false);
}

#[test]
fn guest_polls_allocate_nothing_along_a_bypassed_chain() {
    assert_guest_polls_allocate_nothing(true);
}
