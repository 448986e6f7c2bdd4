//! Switch ports.
//!
//! A port is either a `dpdkr` shared-memory channel to a VM (the switch owns
//! one [`ChannelEnd`]; the guest PMD owns the other) or a poll-mode device
//! (simulated NIC). The PMD thread takes short-lived locks on the channel —
//! uncontended in steady state because only the PMD touches the fast path;
//! the control plane reads counters through atomics.

use dpdk_sim::ethdev::DevCounters;
use dpdk_sim::{DevStats, EthDev, Mbuf};
use openflow::PortNo;
use parking_lot::Mutex;
use shmem_sim::ChannelEnd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Per-port packet/byte counters, as the switch sees them.
///
/// `rx` counts packets the switch received *from* the port (VM→switch),
/// `tx` packets the switch delivered *to* the port (switch→VM) — matching
/// the OpenFlow port-stats perspective of `ofp_port_stats`.
pub type PortCounters = DevCounters;

/// The transport behind a port.
pub enum PortBackend {
    /// dpdkr: shared-memory channel whose peer is a guest PMD.
    Dpdkr(Mutex<ChannelEnd>),
    /// A poll-mode device (e.g. a simulated NIC).
    Dev(Arc<dyn EthDev>),
}

/// A switch port.
pub struct OvsPort {
    pub no: PortNo,
    pub name: String,
    pub backend: PortBackend,
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
            backend: PortBackend::Dpdkr(Mutex::new(end)),
            counters: PortCounters::default(),
            admin_up: AtomicBool::new(true),
        }
    }

    /// Creates a device-backed port.
    pub fn device(no: PortNo, name: impl Into<String>, dev: Arc<dyn EthDev>) -> OvsPort {
        OvsPort {
            no,
            name: name.into(),
            backend: PortBackend::Dev(dev),
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
        let n = match &self.backend {
            PortBackend::Dpdkr(end) => end.lock().recv_burst(out, max),
            PortBackend::Dev(dev) => dev.rx_burst(out, max),
        };
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
        if !self.is_admin_up() {
            self.counters
                .odropped
                .fetch_add(pkts.len() as u64, std::sync::atomic::Ordering::Relaxed);
            pkts.clear();
            return;
        }
        let sent_bytes: u64;
        let sent: usize;
        match &self.backend {
            PortBackend::Dpdkr(end) => {
                let mut end = end.lock();
                let total: u64 = pkts.iter().map(|m| m.len() as u64).sum();
                let n = end.send_burst(pkts);
                sent = n;
                // send_burst drained exactly the first n; recompute bytes of
                // the remainder to know what was sent.
                let remaining: u64 = pkts.iter().map(|m| m.len() as u64).sum();
                sent_bytes = total - remaining;
            }
            PortBackend::Dev(dev) => {
                let total: u64 = pkts.iter().map(|m| m.len() as u64).sum();
                let n = dev.tx_burst(pkts);
                sent = n;
                let remaining: u64 = pkts.iter().map(|m| m.len() as u64).sum();
                sent_bytes = total - remaining;
            }
        }
        self.counters.tx(sent as u64, sent_bytes);
        if !pkts.is_empty() {
            self.counters
                .odropped
                .fetch_add(pkts.len() as u64, std::sync::atomic::Ordering::Relaxed);
            pkts.clear(); // dropped arena mbufs return their slots
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> DevStats {
        self.counters.snapshot()
    }

    /// True when the peer endpoint of a dpdkr port has disappeared.
    pub fn peer_gone(&self) -> bool {
        match &self.backend {
            PortBackend::Dpdkr(end) => end.lock().peer_gone(),
            PortBackend::Dev(_) => false,
        }
    }
}

impl std::fmt::Debug for OvsPort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OvsPort")
            .field("no", &self.no)
            .field("name", &self.name)
            .field(
                "kind",
                &match &self.backend {
                    PortBackend::Dpdkr(_) => "dpdkr",
                    PortBackend::Dev(_) => "dev",
                },
            )
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
    fn device_port_wraps_ethdev() {
        let dev = Arc::new(dpdk_sim::LoopbackDev::new("lo", 8));
        let port = OvsPort::device(PortNo(3), "nic0", dev);
        let mut tx = vec![Mbuf::from_slice(&[1, 2, 3])];
        port.tx_burst_or_drop(&mut tx);
        let mut rx = Vec::new();
        assert_eq!(port.rx_burst(&mut rx, 4), 1);
        assert_eq!(rx[0].port, 3);
        assert_eq!(rx[0].data(), &[1, 2, 3]);
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
