//! Cross-thread stress of the shared arena's lock-free free stack, driven
//! over real channels. An owner thread allocates, and frees every
//! `OWNER_FREE_EVERY`th of an extra buffer itself; three consumer stages
//! relay the descriptors down a chain of channels and each frees a third
//! of them from its adopted handles; a fifth thread allocates from a
//! second mapping, writes each buffer and drops it. So the one stack is
//! popped by two threads and pushed by five.
//!
//! A per-slot `held` table proves no slot is ever issued while it is live.
//! The main thread samples `available()` mid-run: it may not read above
//! capacity, which a transient underflow of the stack length would. The
//! run ends census-clean with every allocation returned exactly once.

use dpdk_sim::{Arena, Mbuf};
use shmem_sim::{channel, ChannelEnd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

const PKTS: u64 = 200_000;
const CAPACITY: usize = 256;
const DEPTH: usize = 32;
const STAGES: u64 = 3;
const OWNER_FREE_EVERY: u64 = 8;
const WATCHDOG: Duration = Duration::from_secs(20);

struct Shared {
    /// `held[slot]`: the slot is live in some holder right now.
    held: Vec<AtomicBool>,
    /// Set by a panicking thread (or the watchdog) so the rest stop waiting.
    stop: AtomicBool,
}

impl Shared {
    fn issue(&self, slot: u32) {
        let was = self.held[slot as usize].swap(true, Ordering::AcqRel);
        assert!(!was, "slot {slot} issued while still live");
    }

    /// Called before the last handle drops, so the slot cannot be issued
    /// again until after this.
    fn retire(&self, slot: u32) {
        let was = self.held[slot as usize].swap(false, Ordering::AcqRel);
        assert!(was, "slot {slot} retired twice");
    }

    fn stopped(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }
}

struct StopOnPanic(Arc<Shared>);

impl Drop for StopOnPanic {
    fn drop(&mut self) {
        if thread::panicking() {
            self.0.stop.store(true, Ordering::Relaxed);
        }
    }
}

/// Payload: the sequence number, then the slot the owner was issued.
fn stamp(seq: u64, slot: u32) -> [u8; 12] {
    let mut p = [0u8; 12];
    p[..8].copy_from_slice(&seq.to_le_bytes());
    p[8..].copy_from_slice(&slot.to_le_bytes());
    p
}

fn read_stamp(m: &Mbuf) -> (u64, u32) {
    let d = m.data();
    let seq = u64::from_le_bytes(d[..8].try_into().unwrap());
    let slot = u32::from_le_bytes(d[8..12].try_into().unwrap());
    (seq, slot)
}

fn send_all(end: &mut ChannelEnd, mut m: Mbuf, shared: &Shared) {
    while let Err(back) = end.send(m) {
        if shared.stopped() {
            return;
        }
        m = back;
        thread::yield_now();
    }
}

/// Sends `PKTS` stamped packets, and returns how many extra buffers it
/// allocated and freed itself.
fn owner(arena: Arena, mut out: ChannelEnd, shared: Arc<Shared>) -> (ChannelEnd, u64) {
    let _guard = StopOnPanic(Arc::clone(&shared));
    let (mut seq, mut own_frees) = (0, 0);
    while seq < PKTS && !shared.stopped() {
        let Some(mut am) = arena.alloc() else {
            thread::yield_now();
            continue;
        };
        let slot = am.slot();
        shared.issue(slot);
        am.set_len(12);
        am.data_mut().copy_from_slice(&stamp(seq, slot));
        send_all(&mut out, Mbuf::from_arena(am), &shared);
        if seq % OWNER_FREE_EVERY == 0 {
            if let Some(extra) = arena.alloc() {
                shared.issue(extra.slot());
                shared.retire(extra.slot());
                drop(extra); // the owner's own free
                own_frees += 1;
            }
        }
        seq += 1;
    }
    (out, own_frees)
}

/// Consumer stage `stage`: frees the packets whose `seq % STAGES == stage`
/// (the last stage frees everything it gets) and relays the rest.
fn stage(
    stage: u64,
    mut input: ChannelEnd,
    mut relay: Option<ChannelEnd>,
    shared: Arc<Shared>,
) -> (ChannelEnd, Option<ChannelEnd>) {
    let _guard = StopOnPanic(Arc::clone(&shared));
    let expect = (0..PKTS).filter(|s| s % STAGES >= stage).count();
    let (mut seen, mut last_seq) = (0, None);
    let mut burst = Vec::with_capacity(DEPTH);
    while seen < expect && !shared.stopped() {
        if input.recv_burst(&mut burst, DEPTH) == 0 {
            thread::yield_now();
            continue;
        }
        for m in burst.drain(..) {
            let (seq, slot) = read_stamp(&m);
            assert_eq!(m.slot(), slot, "descriptor hop left its slot");
            assert!(
                last_seq < Some(seq),
                "stage {stage}: {seq} after {last_seq:?}"
            );
            last_seq = Some(seq);
            seen += 1;
            match relay.as_mut() {
                Some(out) if seq % STAGES != stage => send_all(out, m, &shared),
                _ => {
                    shared.retire(slot);
                    drop(m); // adopted by this channel
                }
            }
        }
    }
    (input, relay)
}

/// Allocates from a second mapping beside the owner, writes each buffer,
/// reads it back and drops it, until `done`.
fn churner(mapping: Arena, done: Arc<AtomicBool>, shared: Arc<Shared>) -> u64 {
    let _guard = StopOnPanic(Arc::clone(&shared));
    let mut rounds = 0u64;
    while !done.load(Ordering::Acquire) && !shared.stopped() {
        let Some(mut am) = mapping.alloc() else {
            thread::yield_now();
            continue;
        };
        shared.issue(am.slot());
        am.set_len(8);
        am.data_mut().copy_from_slice(&rounds.to_le_bytes());
        assert_eq!(
            am.data(),
            &rounds.to_le_bytes(),
            "slot written by another holder"
        );
        shared.retire(am.slot());
        drop(am);
        rounds += 1;
        thread::yield_now(); // churn beside the pipeline, not instead of it
    }
    rounds
}

#[test]
fn arena_stack_survives_five_threads_over_channels() {
    let arena = Arena::new("stress", CAPACITY, 64);
    let shared = Arc::new(Shared {
        held: (0..CAPACITY).map(|_| AtomicBool::new(false)).collect(),
        stop: AtomicBool::new(false),
    });
    let owner_done = Arc::new(AtomicBool::new(false));

    let (owner_end, stage0_in) = channel("owner-s0", DEPTH);
    let (s0_out, s1_in) = channel("s0-s1", DEPTH);
    let (s1_out, s2_in) = channel("s1-s2", DEPTH);

    let spawn_stage = |n, input, relay| {
        let shared = Arc::clone(&shared);
        thread::spawn(move || stage(n, input, relay, shared))
    };
    let stages = [
        spawn_stage(0, stage0_in, Some(s0_out)),
        spawn_stage(1, s1_in, Some(s1_out)),
        spawn_stage(2, s2_in, None),
    ];
    let churner = {
        let (mapping, done, shared) = (arena.clone(), owner_done.clone(), shared.clone());
        thread::spawn(move || churner(mapping, done, shared))
    };
    let owner = {
        let (arena, shared) = (arena.clone(), shared.clone());
        thread::spawn(move || owner(arena, owner_end, shared))
    };

    // Sampler and watchdog.
    let deadline = Instant::now() + WATCHDOG;
    let (mut samples, mut max_available) = (0u64, 0);
    while !(owner.is_finished() && stages.iter().all(|s| s.is_finished())) {
        if Instant::now() > deadline {
            shared.stop.store(true, Ordering::Relaxed);
        }
        if shared.stopped() {
            break;
        }
        max_available = max_available.max(arena.available());
        samples += 1;
        thread::sleep(Duration::from_micros(100));
    }
    owner_done.store(true, Ordering::Release);
    let (_owner_end, own_frees) = owner.join().expect("owner thread");
    let _ends: Vec<_> = stages
        .into_iter()
        .map(|s| s.join().expect("consumer stage"))
        .collect();
    let churned = churner.join().expect("churn thread");
    assert!(
        !shared.stopped(),
        "stalled past {WATCHDOG:?}: {:?}",
        arena.stats()
    );
    assert!(
        max_available <= CAPACITY,
        "available() read {max_available}"
    );

    let s = arena.stats();
    assert!(arena.census_clean(), "census: {s:?}");
    assert_eq!(s.allocs, s.frees, "census: {s:?}");
    assert_eq!(s.allocs, PKTS + churned + own_frees, "census: {s:?}");
    assert!(own_frees > 0, "the owner never freed");
    assert!(shared.held.iter().all(|h| !h.load(Ordering::Relaxed)));
    assert!(samples > 0, "the sampler never ran");
}
