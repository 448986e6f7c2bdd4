//! The wire end of a simulated 10 GbE port and the PCIe budget it hangs off.
//!
//! A NIC port is a shared-memory channel like every other switch port: the
//! switch holds one end, the traffic generator or sink holds the other
//! (the *wire end*). What a NIC adds over a ring is pacing, and
//! [`WirePacer`] is exactly that: a line-rate token bucket per direction
//! plus the optional shared [`PcieBus`], charged once per burst.

use crate::WIRE_OVERHEAD_BYTES;
use dpdk_sim::{cycles, Mbuf};
use parking_lot::Mutex;
use std::sync::Arc;

/// A link speed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LineRate {
    pub gbps: f64,
}

impl LineRate {
    /// 10 GbE (the testbed's 82599ES ports).
    pub const TEN_G: LineRate = LineRate { gbps: 10.0 };

    /// Wire bytes per cycle at this rate (3 GHz nominal clock).
    fn bytes_per_cycle(&self) -> f64 {
        self.gbps * 1e9 / 8.0 / cycles::CPU_HZ as f64
    }
}

/// A byte-denominated token bucket over the cycle clock.
struct TokenBucket {
    rate_bytes_per_cycle: f64,
    burst_bytes: f64,
    tokens: f64,
    last: u64,
}

impl TokenBucket {
    fn new(rate_bytes_per_cycle: f64, burst_bytes: f64) -> TokenBucket {
        TokenBucket {
            rate_bytes_per_cycle,
            burst_bytes,
            tokens: burst_bytes,
            last: cycles::now(),
        }
    }

    /// Refills, then returns how many leading `costs` the bucket covers
    /// and their total. Spends nothing.
    fn covered(&mut self, costs: impl Iterator<Item = f64>) -> (usize, f64) {
        let now = cycles::now();
        let elapsed = now.saturating_sub(self.last);
        self.last = now;
        self.tokens =
            (self.tokens + elapsed as f64 * self.rate_bytes_per_cycle).min(self.burst_bytes);
        let (mut n, mut total) = (0, 0.0);
        for cost in costs {
            if total + cost > self.tokens {
                break;
            }
            total += cost;
            n += 1;
        }
        (n, total)
    }
}

/// A shared PCIe bandwidth budget (e.g. one x8 Gen2 slot carrying both
/// testbed ports). Zero-cost when generous; the point is that it exists and
/// caps aggregate NIC throughput like the real bus does.
pub struct PcieBus {
    bucket: Mutex<TokenBucket>,
}

impl PcieBus {
    /// A bus with the given usable bandwidth. The burst allowance is ~10 ms
    /// of bandwidth, clamped to [1 frame, 4 MiB], so slow buses throttle
    /// almost immediately and fast ones never stall a sane burst.
    pub fn new(gbps: f64) -> Arc<PcieBus> {
        let rate = gbps * 1e9 / 8.0 / cycles::CPU_HZ as f64;
        let burst = (rate * 0.010 * cycles::CPU_HZ as f64).clamp(1500.0, 4.0 * 1024.0 * 1024.0);
        Arc::new(PcieBus {
            bucket: Mutex::new(TokenBucket::new(rate, burst)),
        })
    }
}

/// One direction of a NIC port's wire: line-rate pacing, and DMA across
/// the optional shared PCIe bus.
///
/// It holds no queue. The wire end of the port's channel asks it how much
/// of a burst may cross now and moves exactly that prefix; the rest stays
/// where it was, in order, so a throttled burst can never be reordered.
pub struct WirePacer {
    line: TokenBucket,
    pcie: Option<Arc<PcieBus>>,
}

impl WirePacer {
    /// A pacer at `rate`, optionally sharing `pcie` with other pacers.
    pub fn new(rate: LineRate, pcie: Option<Arc<PcieBus>>) -> WirePacer {
        // Burst: one queue's worth of max-size frames, like HW FIFOs.
        WirePacer {
            line: TokenBucket::new(rate.bytes_per_cycle(), 64.0 * 1518.0),
            pcie,
        }
    }

    /// How many frames at the front of `burst` the wire admits now; their
    /// line-rate and bus budget is spent. Each bucket is locked (or
    /// refilled) once per burst.
    pub fn admit(&mut self, burst: &[Mbuf]) -> usize {
        // + FCS + preamble/IFG on the wire; DMA moves the frame alone.
        let wire_bytes = |m: &Mbuf| (m.len() as u64 + 4 + WIRE_OVERHEAD_BYTES) as f64;
        let (mut n, _) = self.line.covered(burst.iter().map(wire_bytes));
        if let Some(pcie) = &self.pcie {
            let mut bus = pcie.bucket.lock();
            let (fits, dma_bytes) = bus.covered(burst[..n].iter().map(|m| m.len() as f64));
            bus.tokens -= dma_bytes;
            n = fits;
        }
        self.line.tokens -= burst[..n].iter().map(wire_bytes).sum::<f64>();
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    fn frame() -> Mbuf {
        Mbuf::from_slice(&[0u8; 60]) // 64 B on the wire with FCS
    }

    #[test]
    fn line_rate_caps_sustained_injection() {
        // A deliberately slow link (10 Mb/s ≈ 14.9 kpps at 64 B) so even a
        // debug build overruns it comfortably.
        let mut pacer = WirePacer::new(LineRate { gbps: 0.01 }, None);
        let burst: Vec<Mbuf> = (0..64).map(|_| frame()).collect();
        let start = Instant::now();
        let mut accepted = 0u64;
        let mut offered = 0u64;
        while start.elapsed() < Duration::from_millis(50) {
            offered += 64;
            accepted += pacer.admit(&burst) as u64;
        }
        let secs = start.elapsed().as_secs_f64();
        let rate_pps = accepted as f64 / secs;
        assert!(offered > accepted, "the generator must overrun the NIC");
        // 64 B line rate at 10 Mb/s is ~14.9 kpps; the initial token burst
        // inflates short-window estimates, so bound loosely.
        assert!(
            rate_pps < 2_000_000.0,
            "accepted {rate_pps:.0} pps, line rate not enforced"
        );
    }

    #[test]
    fn shared_pcie_bus_throttles_both_ports() {
        // A bus so slow almost nothing crosses it: its 1500 B allowance is
        // 25 frames of 60 B, shared by both ports on the slot.
        let bus = PcieBus::new(0.000001);
        let mut a = WirePacer::new(LineRate::TEN_G, Some(Arc::clone(&bus)));
        let mut b = WirePacer::new(LineRate::TEN_G, Some(bus));
        let burst: Vec<Mbuf> = (0..32).map(|_| frame()).collect();
        assert_eq!(a.admit(&burst), 25, "the bus allowance caps port a");
        assert_eq!(b.admit(&burst), 0, "port a spent the shared bus");
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(
            a.admit(&burst) + b.admit(&burst),
            0,
            "125 B/s refills nothing"
        );
        // The same port without the bus is only line-rate paced.
        assert_eq!(WirePacer::new(LineRate::TEN_G, None).admit(&burst), 32);
    }

    #[test]
    fn pcie_throttle_keeps_wire_order() {
        // 64 numbered frames queued at a 10 G port behind a 1 Mb/s bus,
        // drained 32 at a time every 200 µs: the bus admits a trickle, and
        // the frames must still cross in wire order.
        let mut pacer = WirePacer::new(LineRate::TEN_G, Some(PcieBus::new(0.001)));
        let mut queued: Vec<Mbuf> = (0..64u8).map(|i| Mbuf::from_slice(&[i; 60])).collect();
        let mut crossed = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        while !queued.is_empty() && Instant::now() < deadline {
            let n = pacer.admit(&queued[..queued.len().min(32)]);
            crossed.extend(queued.drain(..n));
            std::thread::sleep(Duration::from_micros(200));
        }
        let order: Vec<u8> = crossed.iter().map(|m| m.data()[0]).collect();
        assert_eq!(order, (0..64u8).collect::<Vec<_>>());
    }
}
