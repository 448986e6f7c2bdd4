//! Switch ports.
//!
//! Every port is a `dpdkr` shared-memory channel: the switch owns one
//! [`ChannelEnd`], and the peer (a guest PMD, or the traffic generator or
//! sink standing at a NIC's wire end) owns the other. The PMD thread takes
//! short-lived locks on the channel — uncontended in steady state because
//! only the PMD touches the fast path; the control plane reads counters
//! through atomics.

use dpdk_sim::Mbuf;
use openflow::PortNo;
use parking_lot::Mutex;
use shmem_sim::ChannelEnd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Snapshot of a port's counters, mirroring `rte_eth_stats`.
///
/// `rx` counts packets the switch received *from* the port (VM→switch),
/// `tx` packets the switch delivered *to* the port (switch→VM) — matching
/// the OpenFlow port-stats perspective of `ofp_port_stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PortStats {
    /// Packets successfully received.
    pub ipackets: u64,
    /// Packets successfully transmitted.
    pub opackets: u64,
    /// Bytes received.
    pub ibytes: u64,
    /// Bytes transmitted.
    pub obytes: u64,
    /// Packets dropped on the transmit side (full ring, port down).
    pub odropped: u64,
}

/// The live atomic counters behind [`PortStats`].
#[derive(Debug, Default)]
pub struct PortCounters {
    pub ipackets: AtomicU64,
    pub opackets: AtomicU64,
    pub ibytes: AtomicU64,
    pub obytes: AtomicU64,
    pub odropped: AtomicU64,
}

impl PortCounters {
    /// Records `n` received packets totalling `bytes`.
    fn rx(&self, n: u64, bytes: u64) {
        self.ipackets.fetch_add(n, Ordering::Relaxed);
        self.ibytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records `n` transmitted packets totalling `bytes`.
    fn tx(&self, n: u64, bytes: u64) {
        self.opackets.fetch_add(n, Ordering::Relaxed);
        self.obytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Takes a coherent-enough snapshot for reporting.
    fn snapshot(&self) -> PortStats {
        PortStats {
            ipackets: self.ipackets.load(Ordering::Relaxed),
            opackets: self.opackets.load(Ordering::Relaxed),
            ibytes: self.ibytes.load(Ordering::Relaxed),
            obytes: self.obytes.load(Ordering::Relaxed),
            odropped: self.odropped.load(Ordering::Relaxed),
        }
    }
}

/// A switch port.
pub struct OvsPort {
    pub no: PortNo,
    pub name: String,
    end: Mutex<ChannelEnd>,
    pub counters: PortCounters,
    /// Administrative state (`OFPPC_PORT_DOWN` cleared). A down port is not
    /// polled and drops everything delivered to it, like a real OVS port
    /// with the config bit set.
    admin_up: AtomicBool,
}

impl OvsPort {
    /// Creates a dpdkr port from the switch-side channel endpoint.
    pub fn dpdkr(no: PortNo, name: impl Into<String>, end: ChannelEnd) -> OvsPort {
        OvsPort {
            no,
            name: name.into(),
            end: Mutex::new(end),
            counters: PortCounters::default(),
            admin_up: AtomicBool::new(true),
        }
    }

    /// Administrative state: true when the port is enabled.
    pub fn is_admin_up(&self) -> bool {
        self.admin_up.load(Ordering::Acquire)
    }

    /// Sets the administrative state; returns the previous value.
    pub fn set_admin_up(&self, up: bool) -> bool {
        self.admin_up.swap(up, Ordering::AcqRel)
    }

    /// Polls up to `max` packets from the port into `out`; stamps their
    /// ingress port metadata and updates rx counters. A down port is never
    /// polled (its peer blocks on a full ring, like a real dpdkr port whose
    /// vSwitch side stopped servicing it).
    pub fn rx_burst(&self, out: &mut Vec<Mbuf>, max: usize) -> usize {
        if !self.is_admin_up() {
            return 0;
        }
        let before = out.len();
        let n = self.end.lock().recv_burst(out, max);
        let mut bytes = 0u64;
        for m in &mut out[before..] {
            m.port = u32::from(self.no.0);
            bytes += m.len() as u64;
        }
        self.counters.rx(n as u64, bytes);
        n
    }

    /// Delivers packets to the port, draining the accepted ones from the
    /// front of `pkts`; packets that do not fit are *dropped* (counted),
    /// matching OVS-DPDK's behaviour on a full vhost/dpdkr ring. A down
    /// port drops everything.
    pub fn tx_burst_or_drop(&self, pkts: &mut Vec<Mbuf>) {
        if self.is_admin_up() {
            let total: u64 = pkts.iter().map(|m| m.len() as u64).sum();
            let sent = self.end.lock().send_burst(pkts);
            // send_burst drained exactly the first `sent` packets, so the
            // bytes sent are the total less the bytes left behind.
            let remaining: u64 = pkts.iter().map(|m| m.len() as u64).sum();
            self.counters.tx(sent as u64, total - remaining);
        }
        if !pkts.is_empty() {
            self.counters
                .odropped
                .fetch_add(pkts.len() as u64, Ordering::Relaxed);
            pkts.clear(); // dropped arena mbufs return their slots
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PortStats {
        self.counters.snapshot()
    }

    /// True when the peer endpoint has disappeared.
    pub fn peer_gone(&self) -> bool {
        self.end.lock().peer_gone()
    }
}

impl std::fmt::Debug for OvsPort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OvsPort")
            .field("no", &self.no)
            .field("name", &self.name)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shmem_sim::channel;

    #[test]
    fn dpdkr_port_moves_packets_and_counts() {
        let (sw_end, mut vm_end) = channel("dpdkr1", 8);
        let port = OvsPort::dpdkr(PortNo(1), "dpdkr1", sw_end);

        // VM → switch.
        vm_end.send(Mbuf::from_slice(&[0u8; 64])).unwrap();
        let mut rx = Vec::new();
        assert_eq!(port.rx_burst(&mut rx, 32), 1);
        assert_eq!(rx[0].port, 1);
        assert_eq!(port.stats().ipackets, 1);
        assert_eq!(port.stats().ibytes, 64);

        // Switch → VM.
        let mut tx = vec![Mbuf::from_slice(&[0u8; 60])];
        port.tx_burst_or_drop(&mut tx);
        assert!(tx.is_empty());
        assert_eq!(port.stats().opackets, 1);
        assert_eq!(port.stats().obytes, 60);
        assert_eq!(vm_end.recv().unwrap().len(), 60);
    }

    #[test]
    fn full_ring_drops_and_counts() {
        let (sw_end, _vm_end) = channel("dpdkr2", 2);
        let port = OvsPort::dpdkr(PortNo(2), "dpdkr2", sw_end);
        let mut tx: Vec<Mbuf> = (0..5).map(|_| Mbuf::from_slice(&[0u8; 64])).collect();
        port.tx_burst_or_drop(&mut tx);
        assert!(tx.is_empty());
        let s = port.stats();
        assert_eq!(s.opackets, 2);
        assert_eq!(s.odropped, 3);
    }

    #[test]
    fn peer_gone_detection() {
        let (sw_end, vm_end) = channel("dpdkr3", 2);
        let port = OvsPort::dpdkr(PortNo(4), "dpdkr3", sw_end);
        assert!(!port.peer_gone());
        drop(vm_end);
        assert!(port.peer_gone());
    }

    #[test]
    fn down_port_is_not_polled() {
        let (sw_end, mut vm_end) = channel("dpdkr5", 8);
        let port = OvsPort::dpdkr(PortNo(5), "dpdkr5", sw_end);
        vm_end.send(Mbuf::from_slice(&[0u8; 64])).unwrap();
        assert!(port.set_admin_up(false));
        let mut rx = Vec::new();
        assert_eq!(port.rx_burst(&mut rx, 8), 0);
        assert_eq!(port.stats().ipackets, 0);
        // Re-enable: the queued packet is still there.
        port.set_admin_up(true);
        assert_eq!(port.rx_burst(&mut rx, 8), 1);
    }

    #[test]
    fn down_port_drops_tx() {
        let (sw_end, mut vm_end) = channel("dpdkr6", 8);
        let port = OvsPort::dpdkr(PortNo(6), "dpdkr6", sw_end);
        port.set_admin_up(false);
        let mut tx = vec![Mbuf::from_slice(&[0u8; 64]), Mbuf::from_slice(&[0u8; 64])];
        port.tx_burst_or_drop(&mut tx);
        assert!(tx.is_empty());
        assert_eq!(port.stats().odropped, 2);
        assert_eq!(port.stats().opackets, 0);
        assert!(vm_end.recv().is_none());
    }
}
