//! Bidirectional shared-memory packet channels.
//!
//! A channel is a pair of SPSC rings: each endpoint transmits on one ring
//! and receives on the other. This is exactly the structure of a `dpdkr`
//! port (VM endpoint ↔ vSwitch endpoint) and of a bypass connection
//! (VM endpoint ↔ VM endpoint).
//!
//! Each ring carries 8-byte [`MbufDesc`] tokens: every packet is an arena
//! slot, and it is enqueued as its descriptor — one `u64` of segment id
//! and slot index, the only representation valid on both sides of an
//! ivshmem BAR — so a hop moves one word while the payload and its slot
//! header (layout and metadata) stay put in the slab (the zero-copy hop).
//! Neither end copies metadata, and a header write is not a slab write.
//! The descriptor is a move-only token that carries the sender's reference
//! to the segment; the receiving endpoint resolves a segment id once,
//! through its own [`Resolver`], and adopts every later descriptor from
//! that segment by taking that reference back — no lock and no
//! reference-count write per hop. A descriptor whose segment is no longer
//! mapped is dropped and counted ([`ChannelEndStats::unmapped_drops`]). A
//! ring destroyed with descriptors still in flight releases each slot as it
//! drops the descriptor, like a ring freeing its mbufs. Both ends poll;
//! nothing notifies a peer that a ring filled.

use dpdk_sim::arena::Resolver;
use dpdk_sim::{spsc_ring, Mbuf, MbufDesc, SpscConsumer, SpscProducer};

/// Per-endpoint channel counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelEndStats {
    /// Packets sent as arena descriptors (zero-copy hops).
    pub desc_sent: u64,
    /// Always 0: every packet travels as a descriptor. Kept for readers
    /// that still report it.
    pub boxed_sent: u64,
    /// Received descriptors that did not adopt: the segment was no longer
    /// mapped — the packet is lost, exactly like traffic in flight across
    /// an unmap — or the descriptor did not fit inside its segment.
    pub unmapped_drops: u64,
}

/// One endpoint of a bidirectional packet channel.
pub struct ChannelEnd {
    name: String,
    tx: SpscProducer<MbufDesc>,
    rx: SpscConsumer<MbufDesc>,
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
        self.stats.desc_sent += 1;
        self.tx.push_burst(std::iter::once(pkt.into_desc()));
        Ok(())
    }

    /// Sends as many packets as fit, draining them from the front of `pkts`;
    /// returns how many were sent, with one ring publish for the burst.
    pub fn send_burst(&mut self, pkts: &mut Vec<Mbuf>) -> usize {
        let n = self.tx.room(pkts.len());
        self.tx.push_burst(pkts.drain(..n).map(Mbuf::into_desc));
        self.stats.desc_sent += n as u64;
        n
    }

    /// Receives one packet if available. Descriptors whose segment has
    /// been unmapped are dropped (counted in
    /// [`ChannelEndStats::unmapped_drops`]) and the next slot is tried.
    pub fn recv(&mut self) -> Option<Mbuf> {
        while let Some(desc) = self.rx.dequeue() {
            match self.segments.adopt(desc) {
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
            self.rx.pop_burst(max - (out.len() - start), |desc| {
                match self.segments.adopt(desc) {
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
        let mut m = arena.alloc_from(&[9, 8, 7]).unwrap();
        m.set_udata(0x55);
        a.send(m).unwrap();
        assert_eq!(a.stats().desc_sent, 1);
        assert_eq!(a.stats().boxed_sent, 0);
        let got = b.recv().unwrap();
        assert_eq!(got.segment_id(), arena.segment_id(), "arrives in its slot");
        assert_eq!(got.data(), &[9, 8, 7]);
        assert_eq!(got.udata(), 0x55);
        assert_eq!(
            arena.stats().slab_writes,
            writes_before + 1,
            "only the ingress copy touched the slab"
        );
        drop(got);
        assert!(arena.census_clean());
    }

    #[test]
    fn a_ring_slot_is_one_word() {
        let (a, _b) = channel("t", 4);
        let tx: &SpscProducer<MbufDesc> = &a.tx;
        assert_eq!(tx.capacity(), 4);
        assert_eq!(std::mem::size_of::<MbufDesc>(), 8);
    }

    /// Trims the head, prepends into the headroom, trims the tail and sets
    /// the metadata words: what a hop must carry besides the bytes.
    fn edit(mut m: Mbuf, tag: u64) -> Mbuf {
        m.adj(2);
        m.prepend(1)[0] = 0xAA;
        m.set_len(m.len() - 1);
        m.set_port(tag as u32);
        m.set_udata(tag << 8);
        m.set_timestamp(tag << 16);
        m
    }

    #[test]
    fn edited_packets_arrive_intact() {
        let arena = Arena::new("chan-edit", 4, 512);
        let (mut a, mut b) = channel("t", 8);
        let frame = [1, 2, 3, 4, 5, 6];
        let mut pkts = vec![
            edit(arena.alloc_from(&frame).unwrap(), 7),
            edit(Mbuf::from_slice(&frame), 9),
        ];
        let headroom: Vec<usize> = pkts.iter().map(Mbuf::headroom).collect();
        assert_eq!(a.send_burst(&mut pkts), 2);
        assert_eq!((a.stats().desc_sent, a.stats().boxed_sent), (2, 0));
        let mut out = Vec::new();
        assert_eq!(b.recv_burst(&mut out, 8), 2);
        let segments = [arena.segment_id(), Arena::private().segment_id()];
        for (((m, tag), room), segment) in out.iter().zip([7u64, 9]).zip(headroom).zip(segments) {
            assert_eq!(m.segment_id(), segment);
            assert_eq!(m.data(), &[0xAA, 3, 4, 5]);
            assert_eq!(m.headroom(), room);
            assert_eq!(
                (m.port(), m.udata(), m.timestamp()),
                (tag as u32, tag << 8, tag << 16)
            );
        }
        drop(out);
        assert!(arena.census_clean(), "census: {:?}", arena.stats());
        assert_eq!(arena.stats().slab_writes, 2, "ingress copy and prepend");
    }

    #[test]
    fn a_slice_packet_travels_as_a_descriptor() {
        let (mut a, mut b) = channel("t", 4);
        a.send(Mbuf::from_slice(&[1, 2])).unwrap();
        assert_eq!((a.stats().desc_sent, a.stats().boxed_sent), (1, 0));
        let got = b.recv().unwrap();
        assert_eq!(got.segment_id(), Arena::private().segment_id());
        assert_eq!(got.data(), &[1, 2]);
    }

    #[test]
    fn unmapped_segment_descriptors_are_dropped_not_wedged() {
        let arena = Arena::new("chan-gone", 4, 256);
        let (mut a, mut b) = channel("t", 8);
        a.send(arena.alloc_from(&[1]).unwrap()).unwrap();
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
        a.send(arena.alloc_from(&[1]).unwrap()).unwrap();
        drop(b.recv().unwrap()); // `b` has now resolved the segment
        a.send(arena.alloc_from(&[2]).unwrap()).unwrap();
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
                from.alloc_from(&[i, i]).unwrap()
            })
            .collect();
        assert_eq!(a.send_burst(&mut pkts), 8);
        let mut out = Vec::new();
        assert_eq!(b.recv_burst(&mut out, 16), 8);
        for (i, m) in (0u8..).zip(&out) {
            let from = if i % 2 == 0 { &x } else { &y };
            assert_eq!(m.segment_id(), from.segment_id());
            assert_eq!(m.data(), &[i, i]);
        }
        drop(out);
        for arena in [&x, &y] {
            assert!(arena.census_clean(), "census: {:?}", arena.stats());
        }
    }

    #[test]
    fn ring_drop_releases_in_flight_descriptors() {
        let arena = Arena::new("chan-teardown", 8, 256);
        let (mut a, b) = channel("t", 8);
        for i in 0u8..3 {
            a.send(arena.alloc_from(&[i]).unwrap()).unwrap();
        }
        assert_eq!(arena.in_use(), 3);
        // Endpoints die with the packets still queued — no leak.
        drop(a);
        drop(b);
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
        let mapping = arena.clone();
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
            drop(mapping);
            sum
        });
        let mut sent = 0u64;
        while sent < 500 {
            match arena.alloc_from(&[(sent % 100) as u8]) {
                Some(am) => {
                    let mut m = Some(am);
                    while let Some(p) = m.take() {
                        if let Err(back) = gen_end.send(p) {
                            m = Some(back);
                            std::thread::yield_now();
                        }
                    }
                    sent += 1;
                }
                None => std::thread::yield_now(),
            }
        }
        hop.join().unwrap();
        let sum = sink.join().unwrap();
        assert_eq!(sum, (0..500u64).map(|i| i % 100).sum::<u64>());
        assert!(arena.census_clean(), "census: {:?}", arena.stats());
        assert_eq!(
            arena.stats().slab_writes,
            500,
            "one ingress write per packet, zero per hop"
        );
    }
}
