//! # nic-sim
//!
//! The hardware edge of the testbed, simulated. A NIC port is a switch
//! port like any other, a shared-memory channel; the traffic generator or
//! sink holds its wire end and paces it with a [`WirePacer`] (line rate
//! per direction, plus an optional shared [`PcieBus`]). The generator /
//! sink pair used by the paper's evaluation is [`TrafficGen`] and
//! [`TrafficSink`].
//!
//! The pacer enforces Ethernet framing economics exactly: every frame costs
//! its length plus 20 B of preamble + inter-frame gap on the wire, so a
//! 10 Gb/s port saturates at 14.88 Mpps with 64 B frames — the ceiling
//! visible in the paper's Figure 3(b).

pub mod nic;
pub mod traffic;

// The latency histogram was born here for the traffic sink; it now lives
// in the `telemetry` crate so the datapath's stage/tier histograms share
// one implementation. Re-exported for source compatibility.
pub use nic::{LineRate, PcieBus, WirePacer};
pub use telemetry::hist;
pub use telemetry::LatencyHistogram;
pub use traffic::{TrafficGen, TrafficSink};

/// Per-frame wire overhead: 8 B preamble/SFD + 12 B inter-frame gap.
pub const WIRE_OVERHEAD_BYTES: u64 = 20;

/// Theoretical packets-per-second ceiling of a line rate for a frame size.
/// `frame_len` is the conventional wire frame length *including* the FCS
/// (the "64 B packets" of the paper), to which preamble + IFG are added.
pub fn line_rate_pps(gbps: f64, frame_len: usize) -> f64 {
    let wire_bits = ((frame_len as u64 + WIRE_OVERHEAD_BYTES) * 8) as f64;
    gbps * 1e9 / wire_bits
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceiling_matches_the_well_known_constants() {
        // 64 B at 10 GbE: 14.88 Mpps.
        let pps = line_rate_pps(10.0, 64);
        assert!((pps / 1e6 - 14.880).abs() < 0.01, "got {} Mpps", pps / 1e6);
        // 1518 B at 10 GbE: ~812 kpps.
        let pps = line_rate_pps(10.0, 1518);
        assert!((pps / 1e3 - 812.74).abs() < 1.0, "got {} kpps", pps / 1e3);
    }
}
