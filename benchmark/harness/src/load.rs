//! The load side: seeded probe flows, the generator, the checking sink,
//! and the two measured phases (closed-loop saturation, open-loop pacing).
//! All of it runs on the calling thread.

use crate::stats::{self, Rng};
use std::net::Ipv4Addr;
use std::time::{Duration, Instant};
use vnf_highway::dpdk::{Arena, Mbuf};
use vnf_highway::packet::{PacketBuilder, ProbeHeader};
use vnf_highway::shmem::ChannelEnd;

/// Probes per generated burst (DPDK's customary burst).
pub const BURST: usize = 32;
/// Closed-loop cap on probes in flight: half the 1024-deep entry ring, so
/// a refused `send` is back-pressure and never loss.
pub const MAX_IN_FLIGHT: u64 = 512;
/// Length of one measurement window.
pub const WINDOW: Duration = Duration::from_millis(125);

/// Offset of the probe header inside a UDP probe frame (eth + ipv4 + udp).
const PROBE_OFF: usize = 14 + 20 + 8;
const PROBE_END: usize = PROBE_OFF + 16;

/// The harness-held ends of a world's edge channels. A flow that enters
/// at `entries[i]` must come out of `exits[i]`.
pub struct Ends {
    pub entries: Vec<ChannelEnd>,
    pub exits: Vec<ChannelEnd>,
}

/// Seeded flows: one frame template per flow, grouped by entry.
pub struct FlowSet {
    templates: Vec<Vec<u8>>,
    /// Flow ids of each entry, in the seeded visit order.
    per_entry: Vec<Vec<u32>>,
}

impl FlowSet {
    /// `flows_per_entry` distinct UDP 5-tuples for each of `entries`
    /// entries, all drawn from `rng`; frames are `frame_len` bytes.
    pub fn generate(
        rng: &mut Rng,
        entries: usize,
        flows_per_entry: usize,
        frame_len: usize,
    ) -> FlowSet {
        let mut seen = std::collections::HashSet::new();
        let mut templates = Vec::with_capacity(entries * flows_per_entry);
        let mut per_entry = Vec::with_capacity(entries);
        for _ in 0..entries {
            let mut ids = Vec::with_capacity(flows_per_entry);
            while ids.len() < flows_per_entry {
                let r = rng.next_u64();
                let src = Ipv4Addr::new(10, 1, (r >> 8) as u8, r as u8);
                let dst = Ipv4Addr::new(10, 2, (r >> 24) as u8, (r >> 16) as u8);
                // Ports from 1024 up, so no decoy rule (which pins ports
                // below 1024) can ever match a probe.
                let sport = 1024 + ((r >> 32) as u16 % 60_000);
                let dport = 1024 + ((r >> 48) as u16 % 60_000);
                if !seen.insert((src, dst, sport, dport)) {
                    continue;
                }
                ids.push(templates.len() as u32);
                templates.push(
                    PacketBuilder::udp_probe(frame_len)
                        .ip(src, dst)
                        .ports(sport, dport)
                        .no_checksums()
                        .build(),
                );
            }
            rng.shuffle(&mut ids);
            per_entry.push(ids);
        }
        FlowSet {
            templates,
            per_entry,
        }
    }

    pub fn template(&self, flow: u32) -> &[u8] {
        &self.templates[flow as usize]
    }

    /// Flow ids of `entry`, in the seeded visit order.
    pub fn order(&self, entry: usize) -> &[u32] {
        &self.per_entry[entry]
    }

    pub fn flows(&self) -> usize {
        self.templates.len()
    }

    pub fn entries(&self) -> usize {
        self.per_entry.len()
    }
}

/// Result of the paced phase.
#[derive(Default)]
pub struct Paced {
    /// Median latency of each window, in microseconds.
    pub window_p50_us: Vec<f64>,
    pub p90_us: f64,
    pub p99_us: f64,
    pub samples: usize,
    /// How late after its due time the generator built a probe.
    pub late_p50_us: f64,
    pub late_p99_us: f64,
}

/// Generator + sink state of one world instance.
pub struct LoadGen {
    arena: Arena,
    flows: FlowSet,
    epoch: Instant,
    /// Next per-flow sequence number to send / to expect.
    next_send: Vec<u32>,
    next_expect: Vec<u32>,
    /// Position in each entry's visit order.
    cursor: Vec<usize>,
    /// Built but refused by a full entry ring; retried before new probes.
    pending: Vec<Vec<Mbuf>>,
    next_entry: usize,
    rx: Vec<Mbuf>,
    /// Where a probe frame is completed before its one copy into the slab.
    scratch: Vec<u8>,
    pub sent: u64,
    pub received: u64,
    /// Probes that arrived out of order, duplicated, corrupted or at the
    /// wrong exit.
    pub bad: u64,
    pub send_calls: u64,
    pub send_refusals: u64,
    pub alloc_failures: u64,
    pub credit_pending_max: usize,
}

impl LoadGen {
    pub fn new(arena: Arena, flows: FlowSet) -> LoadGen {
        let n = flows.flows();
        let entries = flows.entries();
        LoadGen {
            arena,
            flows,
            epoch: Instant::now(),
            next_send: vec![0; n],
            next_expect: vec![0; n],
            cursor: vec![0; entries],
            pending: (0..entries).map(|_| Vec::with_capacity(BURST)).collect(),
            next_entry: 0,
            rx: Vec::with_capacity(2 * BURST),
            scratch: Vec::with_capacity(1518),
            sent: 0,
            received: 0,
            bad: 0,
            send_calls: 0,
            send_refusals: 0,
            alloc_failures: 0,
            credit_pending_max: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn in_flight(&self) -> u64 {
        self.sent - self.received
    }

    pub fn arena(&self) -> &Arena {
        &self.arena
    }

    /// Builds the next probe of `entry`'s visit order, stamped `stamp_ns`,
    /// as an arena mbuf: the frame is completed in `scratch` first, so the
    /// slab is written exactly once, as a NIC's DMA would.
    fn build(&mut self, entry: usize, stamp_ns: u64) -> Option<Mbuf> {
        let order = &self.flows.per_entry[entry];
        let flow = order[self.cursor[entry]];
        self.scratch.clear();
        self.scratch
            .extend_from_slice(&self.flows.templates[flow as usize]);
        let seq = (u64::from(flow) << 32) | u64::from(self.next_send[flow as usize]);
        ProbeHeader::stamp_frame(&mut self.scratch, seq, stamp_ns);
        let Some(am) = self.arena.alloc_from(&self.scratch) else {
            self.alloc_failures += 1;
            return None;
        };
        self.cursor[entry] = (self.cursor[entry] + 1) % order.len();
        self.next_send[flow as usize] = self.next_send[flow as usize].wrapping_add(1);
        Some(Mbuf::from_arena(am))
    }

    /// Hands `entry`'s pending probes to its ring; returns how many went.
    fn flush(&mut self, ends: &mut Ends, entry: usize) -> usize {
        if self.pending[entry].is_empty() {
            return 0;
        }
        self.send_calls += 1;
        let n = ends.entries[entry].send_burst(&mut self.pending[entry]);
        if !self.pending[entry].is_empty() {
            self.send_refusals += 1;
        }
        self.sent += n as u64;
        n
    }

    /// Drains every exit once, checking each probe; latencies (from the
    /// probe's stamp) are appended to `lat_ns` when given.
    fn poll_rx(&mut self, ends: &mut Ends, mut lat_ns: Option<&mut Vec<u32>>) -> usize {
        let mut got = 0;
        for (idx, exit) in ends.exits.iter_mut().enumerate() {
            self.rx.clear();
            let n = exit.recv_burst(&mut self.rx, 2 * BURST);
            if n == 0 {
                continue;
            }
            got += n;
            let now = self.epoch.elapsed().as_nanos() as u64;
            for m in &self.rx {
                let Some(probe) = ProbeHeader::from_frame(m.data()) else {
                    self.bad += 1;
                    continue;
                };
                if !check_probe(m.data(), &probe, &self.flows, &mut self.next_expect, idx) {
                    self.bad += 1;
                }
                if let Some(lat) = lat_ns.as_deref_mut() {
                    lat.push(now.saturating_sub(probe.tx_cycles).min(u32::MAX as u64) as u32);
                }
            }
            self.rx.clear();
        }
        self.received += got as u64;
        got
    }

    /// Sends one probe and waits for it: the end of set-up.
    pub fn first_probe(&mut self, ends: &mut Ends, timeout: Duration) -> bool {
        let stamp = self.now_ns();
        if let Some(m) = self.build(0, stamp) {
            self.pending[0].push(m);
        }
        let deadline = Instant::now() + timeout;
        while self.in_flight() > 0 || !self.pending[0].is_empty() {
            self.flush(ends, 0);
            if self.poll_rx(ends, None) == 0 {
                if Instant::now() > deadline {
                    return false;
                }
                std::thread::yield_now();
            }
        }
        true
    }

    /// Closed loop for `windows` windows of `window` each: at most
    /// [`MAX_IN_FLIGHT`] probes in flight. Returns the delivered rate of
    /// each window. `background` runs once per loop iteration (the
    /// control-plane driver of `switch_churn` lives there).
    pub fn saturate(
        &mut self,
        ends: &mut Ends,
        window: Duration,
        windows: usize,
        background: &mut dyn FnMut(),
    ) -> Vec<f64> {
        let entries = ends.entries.len();
        let mut window_start = Instant::now();
        let mut window_base = self.received;
        let mut rates = Vec::with_capacity(windows);
        loop {
            let mut moved = self.poll_rx(ends, None);
            let now = Instant::now();
            let in_window = now - window_start;
            if in_window >= window {
                rates.push((self.received - window_base) as f64 / in_window.as_secs_f64());
                window_start = now;
                window_base = self.received;
                self.credit_pending_max = self.credit_pending_max.max(self.arena.credit_pending());
                if rates.len() == windows {
                    return rates;
                }
            }
            for _ in 0..entries {
                let entry = self.next_entry;
                self.next_entry = (self.next_entry + 1) % entries;
                let queued: u64 = self.pending.iter().map(|p| p.len() as u64).sum();
                if self.pending[entry].is_empty()
                    && self.in_flight() + queued + BURST as u64 <= MAX_IN_FLIGHT
                {
                    let stamp = self.now_ns();
                    for _ in 0..BURST {
                        match self.build(entry, stamp) {
                            Some(m) => self.pending[entry].push(m),
                            None => break,
                        }
                    }
                }
                moved += self.flush(ends, entry);
            }
            background();
            if moved == 0 {
                std::thread::yield_now();
            }
        }
    }

    /// Open loop for `dur` at `rate_pps`: probe k is due at `k / rate` and
    /// its latency counts from then, whenever it was really sent. After a
    /// stall the backlog of due probes goes out at most [`MAX_IN_FLIGHT`]
    /// at a time, so catching up cannot overrun a ring inside the system.
    pub fn paced(&mut self, ends: &mut Ends, rate_pps: f64, dur: Duration) -> Paced {
        let entries = ends.entries.len();
        let gap_ns = 1e9 / rate_pps;
        let start_ns = self.now_ns();
        let dur_ns = dur.as_nanos() as u64;
        let window_ns = WINDOW.as_nanos() as u64;
        let mut k = 0u64;
        let mut window_end = start_ns + window_ns;
        let mut window: Vec<u32> = Vec::with_capacity((rate_pps * 0.6) as usize);
        let mut all: Vec<u32> = Vec::with_capacity((rate_pps * dur.as_secs_f64() * 1.1) as usize);
        let mut late: Vec<u32> = Vec::with_capacity(all.capacity());
        let mut out = Paced::default();
        loop {
            let mut moved = self.poll_rx(ends, Some(&mut window));
            let now = self.now_ns();
            if now >= window_end {
                all.extend_from_slice(&window);
                out.window_p50_us.push(stats::quantile_us(&mut window, 0.5));
                window.clear();
                window_end += window_ns;
                if now - start_ns >= dur_ns {
                    break;
                }
            }
            // Everything due by now, one burst per entry at most.
            let due = ((now - start_ns) as f64 / gap_ns) as u64 + 1;
            if k < due {
                let entry = self.next_entry;
                self.next_entry = (self.next_entry + 1) % entries;
                let queued: u64 = self.pending.iter().map(|p| p.len() as u64).sum();
                let mut room = MAX_IN_FLIGHT.saturating_sub(self.in_flight() + queued);
                while k < due && room > 0 && self.pending[entry].len() < BURST {
                    room -= 1;
                    let due_ns = start_ns + (k as f64 * gap_ns) as u64;
                    match self.build(entry, due_ns) {
                        Some(m) => self.pending[entry].push(m),
                        None => break,
                    }
                    late.push((now.saturating_sub(due_ns)).min(u32::MAX as u64) as u32);
                    k += 1;
                }
            }
            for entry in 0..entries {
                moved += self.flush(ends, entry);
            }
            if moved == 0 {
                std::thread::yield_now();
            }
        }
        out.samples = all.len();
        out.p90_us = stats::quantile_us(&mut all, 0.90);
        out.p99_us = stats::quantile_us(&mut all, 0.99);
        out.late_p50_us = stats::quantile_us(&mut late, 0.5);
        out.late_p99_us = stats::quantile_us(&mut late, 0.99);
        out
    }

    /// Stops sending and waits until nothing is in flight.
    pub fn drain(&mut self, ends: &mut Ends, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let mut moved = self.poll_rx(ends, None);
            for entry in 0..ends.entries.len() {
                moved += self.flush(ends, entry);
            }
            let queued: usize = self.pending.iter().map(Vec::len).sum();
            if self.in_flight() == 0 && queued == 0 {
                return true;
            }
            if moved == 0 {
                if Instant::now() > deadline {
                    return false;
                }
                std::thread::yield_now();
            }
        }
    }

    /// The generator's own ceiling: build, check and free probes with
    /// nothing between generator and sink, for `dur`. Probes per second.
    /// These probes never enter the system and count as neither sent nor
    /// received.
    pub fn ceiling(&mut self, dur: Duration) -> f64 {
        let entries = self.flows.entries();
        let start = Instant::now();
        let mut n = 0u64;
        let mut burst: Vec<Mbuf> = Vec::with_capacity(BURST);
        while start.elapsed() < dur {
            for entry in 0..entries {
                let stamp = self.now_ns();
                for _ in 0..BURST {
                    if let Some(m) = self.build(entry, stamp) {
                        burst.push(m);
                    }
                }
                for m in &burst {
                    let ok = ProbeHeader::from_frame(m.data()).is_some_and(|probe| {
                        check_probe(m.data(), &probe, &self.flows, &mut self.next_expect, entry)
                    });
                    if !ok {
                        self.bad += 1;
                    }
                }
                n += burst.len() as u64;
                burst.clear();
            }
        }
        n as f64 / start.elapsed().as_secs_f64()
    }
}

/// Checks one delivered probe against its flow: frame bytes those of the
/// flow's template around an intact probe header, arrived at the exit
/// paired with its entry, and next in its flow's sequence (so exactly
/// once, in order).
pub fn check_probe(
    frame: &[u8],
    probe: &ProbeHeader,
    flows: &FlowSet,
    next_expect: &mut [u32],
    exit_idx: usize,
) -> bool {
    let flow = (probe.seq >> 32) as usize;
    if flow >= next_expect.len() {
        return false;
    }
    let template = flows.template(flow as u32);
    let intact = frame.len() == template.len()
        && frame[..PROBE_OFF] == template[..PROBE_OFF]
        && frame[PROBE_END..] == template[PROBE_END..];
    // Flow ids are handed out entry by entry, equally many each.
    let right_exit = flow / flows.per_entry[exit_idx].len() == exit_idx;
    let in_order = probe.seq as u32 == next_expect[flow];
    next_expect[flow] = (probe.seq as u32).wrapping_add(1);
    intact && right_exit && in_order
}
