//! The modified dpdkr poll-mode driver.
//!
//! One `DpdkrPmd` instance drives one logical dpdkr port inside a guest.
//! It owns the *normal* channel end (peer: the vSwitch) and, when a bypass
//! is set up, additionally the *bypass* channel end (peer: another VM's
//! PMD). The application above it keeps calling plain `rx_burst`/`tx_burst`
//! — it cannot observe which channel its packets take, which is the paper's
//! transparency-towards-the-VNF property.

use dpdk_sim::{Arena, Mbuf};
use shmem_sim::{ChannelEnd, CounterCell, PortDir, StatsRegion};
use std::sync::Arc;

/// Transmit-side bypass state: where to count what we send.
struct BypassTxAccounting {
    rule_cell: Arc<CounterCell>,
    /// rx-at-switch counters of *this* port.
    self_rx_cell: Arc<CounterCell>,
    /// tx-at-switch counters of the *peer* port.
    peer_tx_cell: Arc<CounterCell>,
}

/// The modified guest PMD for one dpdkr port.
pub struct DpdkrPmd {
    of_port: u32,
    normal: ChannelEnd,
    bypass: Option<ChannelEnd>,
    /// Guest mapping of the host packet arena (a consumer view), when the
    /// compute agent has plugged one: it keeps the segment mapped while
    /// this port may receive its descriptors.
    arena: Option<Arena>,
    tx_accounting: Option<BypassTxAccounting>,
    rx_active: bool,
    stats: StatsRegion,
    /// Packets sent via the bypass channel since creation.
    pub bypassed_tx: u64,
    /// Packets sent via the normal channel since creation.
    pub normal_tx: u64,
    /// Packets dropped because the active tx ring was full.
    pub tx_drops: u64,
}

impl DpdkrPmd {
    /// Creates the PMD over the normal channel only (how every port starts).
    pub fn new(of_port: u32, normal: ChannelEnd, stats: StatsRegion) -> DpdkrPmd {
        DpdkrPmd {
            of_port,
            normal,
            bypass: None,
            arena: None,
            tx_accounting: None,
            rx_active: false,
            stats,
            bypassed_tx: 0,
            normal_tx: 0,
            tx_drops: 0,
        }
    }

    /// This port's OpenFlow number.
    pub fn of_port(&self) -> u32 {
        self.of_port
    }

    /// True when a bypass channel is mapped.
    pub fn bypass_mapped(&self) -> bool {
        self.bypass.is_some()
    }

    /// True when transmit currently uses the bypass.
    pub fn bypass_tx_active(&self) -> bool {
        self.tx_accounting.is_some()
    }

    /// True when receive currently polls the bypass.
    pub fn bypass_rx_active(&self) -> bool {
        self.rx_active
    }

    // ---- control operations (driven by the guest runner) ----

    /// Maps a bypass channel end (directions stay disabled).
    pub fn map_bypass(&mut self, end: ChannelEnd) {
        assert!(self.bypass.is_none(), "bypass already mapped");
        self.bypass = Some(end);
    }

    /// Installs the guest's mapping of the host packet arena. Idempotent:
    /// re-plugging the same segment just replaces the handle.
    pub fn set_arena(&mut self, arena: Arena) {
        self.arena = Some(arena);
    }

    /// The mapped packet arena, if any.
    pub fn arena(&self) -> Option<&Arena> {
        self.arena.as_ref()
    }

    /// Enables bypass transmit with the given stats accounting.
    /// Returns false if no bypass is mapped.
    pub fn enable_tx(&mut self, rule_cookie: u64, peer_port: u32) -> bool {
        if self.bypass.is_none() {
            return false;
        }
        self.tx_accounting = Some(BypassTxAccounting {
            rule_cell: self.stats.rule_cell(rule_cookie),
            self_rx_cell: self.stats.port_cell(self.of_port, PortDir::Rx),
            peer_tx_cell: self.stats.port_cell(peer_port, PortDir::Tx),
        });
        true
    }

    /// Enables bypass receive. Returns false if no bypass is mapped.
    pub fn enable_rx(&mut self) -> bool {
        if self.bypass.is_none() {
            return false;
        }
        self.rx_active = true;
        true
    }

    /// Disables bypass transmit; subsequent packets take the normal channel.
    pub fn disable_tx(&mut self) {
        self.tx_accounting = None;
    }

    /// Drains the bypass receive ring completely (the peer has already
    /// stopped transmitting) into `out`, then stops polling it.
    /// Returns how many packets were drained.
    pub fn disable_rx_drain(&mut self, out: &mut Vec<Mbuf>) -> u64 {
        let drained = self
            .bypass
            .as_mut()
            .map_or(0, |b| b.recv_burst(out, usize::MAX));
        self.rx_active = false;
        drained as u64
    }

    /// Drops the bypass channel end. Panics if a direction is still active
    /// (the agent's teardown sequence disables both first).
    pub fn unmap_bypass(&mut self) {
        assert!(
            self.tx_accounting.is_none() && !self.rx_active,
            "unmap with active bypass direction"
        );
        self.bypass = None;
    }

    // ---- data path ----

    /// Receives up to `max` packets. Polls the bypass first (when active),
    /// then always the normal channel, so controller packet-outs and
    /// pre-bypass in-flight packets are never starved.
    pub fn rx_burst(&mut self, out: &mut Vec<Mbuf>, max: usize) -> usize {
        let mut got = 0;
        if self.rx_active {
            if let Some(bypass) = self.bypass.as_mut() {
                got += bypass.recv_burst(out, max);
            }
        }
        if got < max {
            got += self.normal.recv_burst(out, max - got);
        }
        got
    }

    /// Transmits packets, draining accepted ones from the front of `pkts`;
    /// packets that do not fit the active ring are dropped (and counted),
    /// like a DPDK application freeing unsent mbufs.
    pub fn tx_burst(&mut self, pkts: &mut Vec<Mbuf>) -> usize {
        let total = pkts.len();
        let sent = match (&mut self.bypass, &self.tx_accounting) {
            (Some(bypass), Some(acct)) => {
                // Free space cannot shrink under the one producer, so the
                // prefix that fits is what leaves: sum its bytes once.
                pkts.truncate(bypass.tx_room(pkts.len()));
                let bytes = pkts.iter().map(|m| m.len() as u64).sum();
                let n = bypass.send_burst(pkts);
                // The vSwitch never sees these packets: account them in the
                // shared region so its statistics stay truthful.
                acct.rule_cell.add(n as u64, bytes);
                acct.self_rx_cell.add(n as u64, bytes);
                acct.peer_tx_cell.add(n as u64, bytes);
                self.bypassed_tx += n as u64;
                n
            }
            _ => {
                let n = self.normal.send_burst(pkts);
                self.normal_tx += n as u64;
                n
            }
        };
        let unsent = total - sent;
        if unsent > 0 {
            self.tx_drops += unsent as u64;
            pkts.clear();
        }
        sent
    }
}

impl std::fmt::Debug for DpdkrPmd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DpdkrPmd")
            .field("of_port", &self.of_port)
            .field("bypass_mapped", &self.bypass_mapped())
            .field("tx_active", &self.bypass_tx_active())
            .field("rx_active", &self.rx_active)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shmem_sim::channel;

    fn pkt(n: usize) -> Mbuf {
        Mbuf::from_slice(&vec![0xabu8; n])
    }

    /// Normal-only PMD plus the switch-side channel end.
    fn pmd_with_switch() -> (DpdkrPmd, ChannelEnd, StatsRegion) {
        let stats = StatsRegion::new();
        let (vm_end, sw_end) = channel("dpdkr1", 16);
        (DpdkrPmd::new(1, vm_end, stats.clone()), sw_end, stats)
    }

    #[test]
    fn starts_on_normal_channel() {
        let (mut pmd, mut sw, _stats) = pmd_with_switch();
        let mut out = vec![pkt(64)];
        assert_eq!(pmd.tx_burst(&mut out), 1);
        assert_eq!(pmd.normal_tx, 1);
        assert_eq!(pmd.bypassed_tx, 0);
        assert_eq!(sw.recv().unwrap().len(), 64);

        sw.send(pkt(60)).unwrap();
        let mut rx = Vec::new();
        assert_eq!(pmd.rx_burst(&mut rx, 32), 1);
        assert_eq!(rx[0].len(), 60);
    }

    #[test]
    fn bypass_tx_switches_channel_and_counts() {
        let (mut pmd, mut sw, stats) = pmd_with_switch();
        let (by_here, mut by_peer) = channel("bypass", 16);
        pmd.map_bypass(by_here);
        assert!(pmd.enable_tx(0xc0de, 2));

        let mut out = vec![pkt(64), pkt(64)];
        pmd.tx_burst(&mut out);
        // Packets went to the peer VM, not the switch.
        assert!(sw.recv().is_none());
        assert_eq!(by_peer.recv().unwrap().len(), 64);
        assert_eq!(by_peer.recv().unwrap().len(), 64);
        assert_eq!(pmd.bypassed_tx, 2);
        // Shared stats carry rule + both port directions.
        assert_eq!(stats.rule_totals(0xc0de), (2, 128));
        assert_eq!(stats.port_totals(1, PortDir::Rx), (2, 128));
        assert_eq!(stats.port_totals(2, PortDir::Tx), (2, 128));
    }

    #[test]
    fn rx_polls_bypass_first_but_never_starves_normal() {
        let (mut pmd, mut sw, _stats) = pmd_with_switch();
        let (by_here, mut by_peer) = channel("bypass", 16);
        pmd.map_bypass(by_here);
        assert!(pmd.enable_rx());

        by_peer.send(pkt(10)).unwrap();
        sw.send(pkt(20)).unwrap(); // e.g. a controller packet-out
        let mut rx = Vec::new();
        assert_eq!(pmd.rx_burst(&mut rx, 32), 2);
        assert_eq!(rx[0].len(), 10); // bypass first
        assert_eq!(rx[1].len(), 20); // normal still drained
    }

    #[test]
    fn enable_without_map_fails() {
        let (mut pmd, _sw, _stats) = pmd_with_switch();
        assert!(!pmd.enable_tx(1, 2));
        assert!(!pmd.enable_rx());
    }

    #[test]
    fn disable_tx_falls_back_to_normal() {
        let (mut pmd, mut sw, _stats) = pmd_with_switch();
        let (by_here, _by_peer) = channel("bypass", 16);
        pmd.map_bypass(by_here);
        pmd.enable_tx(1, 2);
        pmd.disable_tx();
        let mut out = vec![pkt(64)];
        pmd.tx_burst(&mut out);
        assert_eq!(sw.recv().unwrap().len(), 64);
        assert_eq!(pmd.bypassed_tx, 0);
    }

    #[test]
    fn drain_collects_in_flight_packets() {
        let (mut pmd, _sw, _stats) = pmd_with_switch();
        let (by_here, mut by_peer) = channel("bypass", 16);
        pmd.map_bypass(by_here);
        pmd.enable_rx();
        for _ in 0..5 {
            by_peer.send(pkt(64)).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(pmd.disable_rx_drain(&mut out), 5);
        assert_eq!(out.len(), 5);
        assert!(!pmd.bypass_rx_active());
        pmd.unmap_bypass();
        assert!(!pmd.bypass_mapped());
    }

    #[test]
    #[should_panic(expected = "active bypass direction")]
    fn unmap_with_active_direction_panics() {
        let (mut pmd, _sw, _stats) = pmd_with_switch();
        let (by_here, _peer) = channel("bypass", 16);
        pmd.map_bypass(by_here);
        pmd.enable_rx();
        pmd.unmap_bypass();
    }

    #[test]
    fn full_ring_drops_are_counted() {
        let stats = StatsRegion::new();
        let (vm_end, _sw_end) = channel("dpdkr1", 2);
        let mut pmd = DpdkrPmd::new(1, vm_end, stats);
        let mut out: Vec<Mbuf> = (0..5).map(|_| pkt(64)).collect();
        pmd.tx_burst(&mut out);
        assert!(out.is_empty());
        assert_eq!(pmd.normal_tx, 2);
        assert_eq!(pmd.tx_drops, 3);
    }
}
