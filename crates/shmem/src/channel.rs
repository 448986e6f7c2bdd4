//! Bidirectional shared-memory packet channels.
//!
//! A channel is a pair of SPSC rings: each endpoint transmits on one ring
//! and receives on the other. This is exactly the structure of a `dpdkr`
//! port (VM endpoint ↔ vSwitch endpoint) and of a bypass connection
//! (VM endpoint ↔ VM endpoint).
//!
//! The rings carry [`PktSlot`]s, not mbufs: an arena-backed packet is
//! enqueued as its POD [`MbufDesc`] — segment id plus offsets, the only
//! representation valid on both sides of an ivshmem BAR — so a hop moves
//! ~32 bytes of descriptor while the payload stays put in the shared slab
//! (the zero-copy hop). The receiving endpoint resolves a segment id once,
//! through its own [`Resolver`], and adopts every later descriptor from
//! that segment without a lock. Heap-backed mbufs still travel by value,
//! keeping every legacy producer working. Both ends poll; nothing
//! notifies a peer that a ring filled.

use dpdk_sim::arena::{adopt, Resolver};
use dpdk_sim::{spsc_ring, Mbuf, MbufDesc, SpscConsumer, SpscProducer};

/// What a ring slot carries: an owned heap mbuf, or an arena descriptor
/// (the zero-copy representation).
#[derive(Debug)]
pub enum PktSlotKind {
    /// Process-private mbuf, moved by value (legacy path).
    Boxed(Mbuf),
    /// Offset-based handle into a shared arena segment.
    Desc(MbufDesc),
}

/// One slot on a channel ring. The wrapper exists for its `Drop`: a ring
/// destroyed with descriptors still in flight (endpoint dropped before the
/// peer drained it) releases each slot's arena reference instead of
/// leaking it — the shared-arena analogue of a ring freeing its mbufs.
#[derive(Debug)]
pub struct PktSlot(Option<PktSlotKind>);

impl PktSlot {
    /// An arena-backed packet travels as its descriptor, any other by value.
    fn of(pkt: Mbuf) -> PktSlot {
        PktSlot(Some(match pkt.try_into_desc() {
            Ok(desc) => PktSlotKind::Desc(desc),
            Err(m) => PktSlotKind::Boxed(m),
        }))
    }

    fn is_desc(&self) -> bool {
        matches!(self.0, Some(PktSlotKind::Desc(_)))
    }

    /// The packet, a descriptor adopted through `segments`; `None` when its
    /// segment is no longer mapped.
    fn into_mbuf(mut self, segments: &mut Resolver) -> Option<Mbuf> {
        match self.0.take().expect("slot consumed exactly once") {
            PktSlotKind::Boxed(m) => Some(m),
            PktSlotKind::Desc(desc) => segments.adopt(desc).map(Mbuf::from_arena),
        }
    }
}

impl Drop for PktSlot {
    fn drop(&mut self) {
        if let Some(PktSlotKind::Desc(desc)) = self.0.take() {
            // Adopt-and-free: the arena slot travels the credit stack home.
            // A dead segment yields None, which is already accounted. Ring
            // teardown only, so the global segment table is fine here.
            drop(adopt(desc));
        }
    }
}

/// Per-endpoint channel counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelEndStats {
    /// Packets sent as arena descriptors (zero-copy hops).
    pub desc_sent: u64,
    /// Packets sent as owned heap mbufs (copy/move path).
    pub boxed_sent: u64,
    /// Received descriptors that did not adopt: the segment was no longer
    /// mapped — the packet is lost, exactly like traffic in flight across
    /// an unmap — or the descriptor did not fit inside its segment.
    pub unmapped_drops: u64,
}

/// One endpoint of a bidirectional packet channel.
pub struct ChannelEnd {
    name: String,
    tx: SpscProducer<PktSlot>,
    rx: SpscConsumer<PktSlot>,
    /// The arena segments this endpoint has received from, each resolved
    /// once (the receiver's BAR mapping).
    segments: Resolver,
    stats: ChannelEndStats,
}

/// Creates a channel whose two directions each hold `depth` packets.
/// Returns the two endpoints `(a, b)`; bytes sent on `a` arrive at `b` and
/// vice versa.
pub fn channel(name: impl Into<String>, depth: usize) -> (ChannelEnd, ChannelEnd) {
    let name = name.into();
    let (a_tx, b_rx) = spsc_ring(depth);
    let (b_tx, a_rx) = spsc_ring(depth);
    (
        ChannelEnd {
            name: format!("{name}.a"),
            tx: a_tx,
            rx: a_rx,
            segments: Resolver::default(),
            stats: ChannelEndStats::default(),
        },
        ChannelEnd {
            name: format!("{name}.b"),
            tx: b_tx,
            rx: b_rx,
            segments: Resolver::default(),
            stats: ChannelEndStats::default(),
        },
    )
}

impl ChannelEnd {
    /// Endpoint name (diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Sends one packet; hands it back when the ring is full.
    pub fn send(&mut self, pkt: Mbuf) -> Result<(), Mbuf> {
        // Checked first: the descriptor conversion is not undone.
        if self.tx.room(1) == 0 {
            return Err(pkt);
        }
        let slot = PktSlot::of(pkt);
        self.stats.desc_sent += u64::from(slot.is_desc());
        self.stats.boxed_sent += u64::from(!slot.is_desc());
        self.tx.push_burst(std::iter::once(slot));
        Ok(())
    }

    /// Sends as many packets as fit, draining them from the front of `pkts`;
    /// returns how many were sent, with one ring publish for the burst.
    pub fn send_burst(&mut self, pkts: &mut Vec<Mbuf>) -> usize {
        let n = self.tx.room(pkts.len());
        let mut descs = 0;
        self.tx.push_burst(pkts.drain(..n).map(|pkt| {
            let slot = PktSlot::of(pkt);
            descs += u64::from(slot.is_desc());
            slot
        }));
        self.stats.desc_sent += descs;
        self.stats.boxed_sent += n as u64 - descs;
        n
    }

    /// Receives one packet if available. Descriptors whose segment has
    /// been unmapped are dropped (counted in
    /// [`ChannelEndStats::unmapped_drops`]) and the next slot is tried.
    pub fn recv(&mut self) -> Option<Mbuf> {
        while let Some(slot) = self.rx.dequeue() {
            match slot.into_mbuf(&mut self.segments) {
                Some(m) => return Some(m),
                None => self.stats.unmapped_drops += 1,
            }
        }
        None
    }

    /// Receives up to `max` packets into `out` with one ring publish;
    /// returns how many arrived. A dropped descriptor used a slot of the
    /// burst, so the burst is topped up after one.
    pub fn recv_burst(&mut self, out: &mut Vec<Mbuf>, max: usize) -> usize {
        let start = out.len();
        loop {
            let mut unmapped = 0;
            self.rx.pop_burst(max - (out.len() - start), |slot| {
                match slot.into_mbuf(&mut self.segments) {
                    Some(m) => out.push(m),
                    None => unmapped += 1,
                }
            });
            if unmapped == 0 {
                return out.len() - start;
            }
            self.stats.unmapped_drops += unmapped;
        }
    }

    /// Packets waiting to be received by *this* endpoint.
    pub fn pending_rx(&self) -> usize {
        self.rx.len()
    }

    /// Packets sent by this endpoint not yet drained by the peer.
    pub fn pending_tx(&self) -> usize {
        self.tx.len()
    }

    /// Free slots on the transmit ring, at most `want`: a burst of that
    /// many will fit (see [`SpscProducer::room`]).
    pub fn tx_room(&mut self, want: usize) -> usize {
        self.tx.room(want)
    }

    /// True when the peer endpoint has been dropped.
    pub fn peer_gone(&self) -> bool {
        self.tx.is_disconnected() || self.rx.is_disconnected()
    }

    /// Per-endpoint transfer counters.
    pub fn stats(&self) -> ChannelEndStats {
        self.stats
    }
}

impl std::fmt::Debug for ChannelEnd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChannelEnd")
            .field("name", &self.name)
            .field("pending_rx", &self.pending_rx())
            .field("pending_tx", &self.pending_tx())
            .field("desc_sent", &self.stats.desc_sent)
            .field("boxed_sent", &self.stats.boxed_sent)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpdk_sim::Arena;

    #[test]
    fn both_directions_carry_packets() {
        let (mut a, mut b) = channel("t", 8);
        a.send(Mbuf::from_slice(&[1])).unwrap();
        b.send(Mbuf::from_slice(&[2])).unwrap();
        assert_eq!(b.recv().unwrap().data(), &[1]);
        assert_eq!(a.recv().unwrap().data(), &[2]);
        assert!(a.recv().is_none());
    }

    #[test]
    fn burst_transfer_with_backpressure() {
        let (mut a, mut b) = channel("t", 4);
        let mut pkts: Vec<Mbuf> = (0u8..6).map(|i| Mbuf::from_slice(&[i])).collect();
        assert_eq!(a.send_burst(&mut pkts), 4);
        assert_eq!(pkts.len(), 2);
        let mut out = Vec::new();
        assert_eq!(b.recv_burst(&mut out, 16), 4);
        assert_eq!(out[3].data(), &[3]);
    }

    #[test]
    fn pending_counts() {
        let (mut a, b) = channel("t", 8);
        a.send(Mbuf::from_slice(&[0])).unwrap();
        a.send(Mbuf::from_slice(&[1])).unwrap();
        assert_eq!(a.pending_tx(), 2);
        assert_eq!(b.pending_rx(), 2);
        assert_eq!(a.pending_rx(), 0);
    }

    #[test]
    fn peer_drop_detection() {
        let (a, b) = channel("t", 2);
        assert!(!a.peer_gone());
        drop(b);
        assert!(a.peer_gone());
    }

    #[test]
    fn arena_packets_travel_as_descriptors() {
        let arena = Arena::new("chan-arena", 8, 512);
        let (mut a, mut b) = channel("t", 8);
        let writes_before = arena.stats().slab_writes;
        let mut m = Mbuf::from_arena(arena.alloc_from(&[9, 8, 7]).unwrap());
        m.udata = 0x55;
        a.send(m).unwrap();
        assert_eq!(a.stats().desc_sent, 1);
        assert_eq!(a.stats().boxed_sent, 0);
        let got = b.recv().unwrap();
        assert!(got.is_arena(), "arrives still arena-backed");
        assert_eq!(got.data(), &[9, 8, 7]);
        assert_eq!(got.udata, 0x55);
        assert_eq!(
            arena.stats().slab_writes,
            writes_before + 1,
            "only the ingress copy touched the slab"
        );
        drop(got);
        arena.reclaim_credits();
        assert!(arena.census_clean());
    }

    #[test]
    fn boxed_packets_still_travel_by_value() {
        let (mut a, mut b) = channel("t", 4);
        a.send(Mbuf::from_slice(&[1, 2])).unwrap();
        assert_eq!(a.stats().boxed_sent, 1);
        assert!(!b.recv().unwrap().is_arena());
    }

    #[test]
    fn unmapped_segment_descriptors_are_dropped_not_wedged() {
        let arena = Arena::new("chan-gone", 4, 256);
        let (mut a, mut b) = channel("t", 8);
        a.send(Mbuf::from_arena(arena.alloc_from(&[1]).unwrap()))
            .unwrap();
        a.send(Mbuf::from_slice(&[2])).unwrap();
        drop(arena); // segment unmapped while a desc is in flight
        let got = b.recv().expect("recv skips the dead desc");
        assert_eq!(got.data(), &[2]);
        assert_eq!(b.stats().unmapped_drops, 1);
    }

    #[test]
    fn resolved_segment_is_not_kept_alive_by_the_receiver() {
        let arena = Arena::new("chan-cached", 4, 256);
        let weak = arena.weak();
        let (mut a, mut b) = channel("t", 8);
        a.send(Mbuf::from_arena(arena.alloc_from(&[1]).unwrap()))
            .unwrap();
        drop(b.recv().unwrap()); // `b` has now resolved the segment
        a.send(Mbuf::from_arena(arena.alloc_from(&[2]).unwrap()))
            .unwrap();
        drop(arena); // owner and every handle gone, one descriptor in flight
        assert!(weak.upgrade().is_none(), "the receiver kept it mapped");
        assert!(b.recv().is_none());
        assert_eq!(b.stats().unmapped_drops, 1);
    }

    #[test]
    fn one_burst_from_two_arenas_resolves_each() {
        let (x, y) = (Arena::new("chan-x", 8, 256), Arena::new("chan-y", 8, 256));
        let (mut a, mut b) = channel("t", 16);
        let mut pkts: Vec<Mbuf> = (0u8..8)
            .map(|i| {
                let from = if i % 2 == 0 { &x } else { &y };
                Mbuf::from_arena(from.alloc_from(&[i, i]).unwrap())
            })
            .collect();
        assert_eq!(a.send_burst(&mut pkts), 8);
        let mut out = Vec::new();
        assert_eq!(b.recv_burst(&mut out, 16), 8);
        for (i, m) in (0u8..).zip(&out) {
            let from = if i % 2 == 0 { &x } else { &y };
            assert_eq!(m.arena_segment_id(), Some(from.segment_id()));
            assert_eq!(m.data(), &[i, i]);
        }
        drop(out);
        for arena in [&x, &y] {
            arena.reclaim_credits();
            assert!(arena.census_clean(), "census: {:?}", arena.stats());
        }
    }

    #[test]
    fn ring_drop_releases_in_flight_descriptors() {
        let arena = Arena::new("chan-teardown", 8, 256);
        let (mut a, b) = channel("t", 8);
        for i in 0u8..3 {
            a.send(Mbuf::from_arena(arena.alloc_from(&[i]).unwrap()))
                .unwrap();
        }
        assert_eq!(arena.in_use(), 3);
        // Endpoints die with the packets still queued — no leak.
        drop(a);
        drop(b);
        arena.reclaim_credits();
        assert!(arena.census_clean(), "census: {:?}", arena.stats());
        assert_eq!(arena.stats().foreign_frees, 0);
    }

    #[test]
    fn cross_thread_duplex() {
        let (mut a, mut b) = channel("t", 64);
        let t = std::thread::spawn(move || {
            // Echo 1000 packets back with a marker appended.
            let mut echoed = 0;
            while echoed < 1000 {
                if let Some(mut m) = b.recv() {
                    m.append(1)[0] = 0xEE;
                    while let Err(ret) = b.send(m) {
                        m = ret;
                        std::thread::yield_now();
                    }
                    echoed += 1;
                } else {
                    std::thread::yield_now();
                }
            }
        });
        // Deadline so a regression fails loudly instead of spinning the
        // test binary forever.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        let mut received = 0;
        let mut sent = 0u64;
        while received < 1000 {
            assert!(
                std::time::Instant::now() < deadline,
                "duplex stalled: sent={sent} received={received}"
            );
            if sent < 1000 {
                let m = Mbuf::from_slice(&sent.to_be_bytes());
                if a.send(m).is_ok() {
                    sent += 1; // on Err the mbuf is rebuilt next iteration
                }
            }
            if let Some(m) = a.recv() {
                assert_eq!(m.len(), 9);
                assert_eq!(m.data()[8], 0xEE);
                received += 1;
            } else if sent == 1000 {
                std::thread::yield_now();
            }
        }
        t.join().unwrap();
    }

    #[test]
    fn cross_thread_arena_descriptor_chain() {
        // generator -> hop -> sink over two channels, arena end to end:
        // payload written once, hop relays descriptors untouched.
        let arena = Arena::new("chan-chain", 256, 512);
        let (mut gen_end, mut hop_in) = channel("seg1", 64);
        let (mut hop_out, mut sink_end) = channel("seg2", 64);
        let hop = std::thread::spawn(move || {
            let mut relayed = 0;
            while relayed < 500 {
                if let Some(m) = hop_in.recv() {
                    let mut m = Some(m);
                    while let Some(p) = m.take() {
                        if let Err(back) = hop_out.send(p) {
                            m = Some(back);
                            std::thread::yield_now();
                        }
                    }
                    relayed += 1;
                } else {
                    std::thread::yield_now();
                }
            }
        });
        let consumer = arena.consumer();
        let sink = std::thread::spawn(move || {
            let mut sum = 0u64;
            let mut got = 0;
            while got < 500 {
                if let Some(m) = sink_end.recv() {
                    sum += m.data()[0] as u64;
                    got += 1;
                } else {
                    std::thread::yield_now();
                }
            }
            drop(consumer);
            sum
        });
        let mut sent = 0u64;
        while sent < 500 {
            match arena.alloc_from(&[(sent % 100) as u8]) {
                Some(am) => {
                    let mut m = Some(Mbuf::from_arena(am));
                    while let Some(p) = m.take() {
                        if let Err(back) = gen_end.send(p) {
                            m = Some(back);
                            arena.reclaim_credits();
                            std::thread::yield_now();
                        }
                    }
                    sent += 1;
                }
                None => {
                    arena.reclaim_credits();
                    std::thread::yield_now();
                }
            }
        }
        hop.join().unwrap();
        let sum = sink.join().unwrap();
        assert_eq!(sum, (0..500u64).map(|i| i % 100).sum::<u64>());
        arena.reclaim_credits();
        assert!(arena.census_clean(), "census: {:?}", arena.stats());
        assert_eq!(
            arena.stats().slab_writes,
            500,
            "one ingress write per packet, zero per hop"
        );
    }
}
