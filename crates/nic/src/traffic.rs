//! Traffic generation and measurement.
//!
//! [`TrafficGen`] plays the role of the paper's external generator: 64 B
//! UDP probes, optionally rate-limited, spread across a configurable number
//! of flows. Every probe carries a sequence number and a transmit cycle
//! stamp, which [`TrafficSink`] uses to report throughput, loss, reordering
//! and latency percentiles.

use dpdk_sim::{cycles, Arena, Mbuf};
use packet_wire::{MacAddr, PacketBuilder, ProbeHeader};
use std::net::Ipv4Addr;
use telemetry::LatencyHistogram;

/// A probe generator.
pub struct TrafficGen {
    templates: Vec<Vec<u8>>,
    next_flow: usize,
    next_seq: u64,
    /// Target rate in packets/sec; `None` = as fast as the consumer drains.
    rate_pps: Option<f64>,
    credit: f64,
    last_refill: u64,
    /// Packets generated.
    pub generated: u64,
}

impl TrafficGen {
    /// Creates a generator of `frame_len`-byte probes over `flows` distinct
    /// UDP flows (source ports vary, keys differ — exercises the EMC).
    pub fn new(frame_len: usize, flows: usize) -> TrafficGen {
        let flows = flows.max(1);
        let templates = (0..flows)
            .map(|i| {
                PacketBuilder::udp_probe(frame_len)
                    .eth(MacAddr::local(1), MacAddr::local(2))
                    .ip(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
                    .ports(1000 + i as u16, 2000)
                    .no_checksums()
                    .build()
            })
            .collect();
        TrafficGen {
            templates,
            next_flow: 0,
            next_seq: 0,
            rate_pps: None,
            credit: 0.0,
            last_refill: cycles::now(),
            generated: 0,
        }
    }

    /// Caps generation at `pps` packets per second.
    pub fn with_rate(mut self, pps: f64) -> TrafficGen {
        self.rate_pps = Some(pps);
        self.credit = 0.0;
        self
    }

    fn budget(&mut self, want: usize) -> usize {
        match self.rate_pps {
            None => want,
            Some(pps) => {
                let now = cycles::now();
                let elapsed = now.saturating_sub(self.last_refill);
                self.last_refill = now;
                self.credit += elapsed as f64 * pps / cycles::CPU_HZ as f64;
                self.credit = self.credit.min(4096.0);
                let allowed = self.credit as usize;
                let n = want.min(allowed);
                self.credit -= n as f64;
                n
            }
        }
    }

    /// Produces up to `max` probes into `out`; returns how many. Each takes
    /// a slot of the private segment; the burst ends early when none is
    /// free (the segment's `alloc_failures` counts it).
    pub fn gen_burst(&mut self, out: &mut Vec<Mbuf>, max: usize) -> usize {
        let n = self.budget(max);
        let now = cycles::now();
        let mut made = 0;
        for _ in 0..n {
            let template = &self.templates[self.next_flow];
            let Some(mut m) = Arena::private().alloc_from(template) else {
                break;
            };
            self.next_flow = (self.next_flow + 1) % self.templates.len();
            ProbeHeader::stamp_frame(
                // stamp_frame needs the raw bytes; operate on the mbuf data
                m.data_mut(),
                self.next_seq,
                now,
            );
            m.set_udata(self.next_seq);
            m.set_timestamp(now);
            self.next_seq += 1;
            out.push(m);
            made += 1;
        }
        self.generated += made as u64;
        made
    }
}

/// A measuring sink.
#[derive(Debug)]
pub struct TrafficSink {
    /// Packets received.
    pub received: u64,
    /// Bytes received.
    pub bytes: u64,
    /// Packets whose sequence number went backwards (reordering signal).
    pub reordered: u64,
    highest_seq: Option<u64>,
    latency: LatencyHistogram,
}

impl Default for TrafficSink {
    fn default() -> Self {
        Self::new()
    }
}

impl TrafficSink {
    /// Creates an empty sink.
    pub fn new() -> TrafficSink {
        TrafficSink {
            received: 0,
            bytes: 0,
            reordered: 0,
            highest_seq: None,
            latency: LatencyHistogram::new(),
        }
    }

    /// Consumes a burst of delivered probes.
    pub fn consume(&mut self, pkts: &mut Vec<Mbuf>) {
        let now = cycles::now();
        for m in pkts.drain(..) {
            self.received += 1;
            self.bytes += m.len() as u64;
            if let Some(probe) = ProbeHeader::from_frame(m.data()) {
                if let Some(h) = self.highest_seq {
                    if probe.seq < h {
                        self.reordered += 1;
                    }
                }
                self.highest_seq = Some(self.highest_seq.unwrap_or(0).max(probe.seq));
                if probe.tx_cycles > 0 && probe.tx_cycles <= now {
                    self.latency.record(now - probe.tx_cycles);
                }
            }
        }
    }

    /// Packets lost so far, judged by the highest sequence seen
    /// (valid once the generator has stopped).
    pub fn lost(&self) -> u64 {
        match self.highest_seq {
            Some(h) => (h + 1).saturating_sub(self.received),
            None => 0,
        }
    }

    /// Latency histogram of delivered probes.
    pub fn latency(&self) -> &LatencyHistogram {
        &self.latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_produces_distinct_flows_and_sequences() {
        let mut gen = TrafficGen::new(64, 4);
        let mut out = Vec::new();
        gen.gen_burst(&mut out, 8);
        assert_eq!(out.len(), 8);
        let keys: std::collections::HashSet<_> = out
            .iter()
            .map(|m| packet_wire::FlowKey::extract(m.data()).l4_src)
            .collect();
        assert_eq!(keys.len(), 4, "4 distinct flows");
        for (i, m) in out.iter().enumerate() {
            let p = ProbeHeader::from_frame(m.data()).unwrap();
            assert_eq!(p.seq, i as u64);
            assert!(p.tx_cycles > 0);
        }
    }

    #[test]
    fn rate_limit_is_enforced() {
        let mut gen = TrafficGen::new(64, 1).with_rate(100_000.0); // 100 kpps
        let (mut out, mut made) = (Vec::new(), 0);
        let start = std::time::Instant::now();
        while start.elapsed() < std::time::Duration::from_millis(50) {
            made += gen.gen_burst(&mut out, 64);
            out.clear(); // the probes go back to the private segment
        }
        let secs = start.elapsed().as_secs_f64();
        let rate = made as f64 / secs;
        assert!(
            rate < 140_000.0,
            "generated {rate:.0} pps against a 100 kpps cap"
        );
    }

    #[test]
    fn sink_measures_loss_and_latency() {
        let mut gen = TrafficGen::new(64, 1);
        let mut sink = TrafficSink::new();
        let mut out = Vec::new();
        gen.gen_burst(&mut out, 10);
        // Drop packets 3 and 7 before delivery.
        out.remove(7);
        out.remove(3);
        std::thread::sleep(std::time::Duration::from_micros(100));
        sink.consume(&mut out);
        assert_eq!(sink.received, 8);
        assert_eq!(sink.lost(), 2);
        assert_eq!(sink.reordered, 0);
        assert!(sink.latency().count() == 8);
        assert!(sink.latency().mean() > 0);
    }

    #[test]
    fn sink_detects_reordering() {
        let mut gen = TrafficGen::new(64, 1);
        let mut sink = TrafficSink::new();
        let mut out = Vec::new();
        gen.gen_burst(&mut out, 4);
        out.swap(1, 3);
        sink.consume(&mut out);
        assert!(sink.reordered >= 1);
    }
}
