//! The guest main loop.
//!
//! A [`VnfRunner`] is what a VM's vCPU runs: a single-core DPDK-style
//! application driving the VM's (typically two) dpdkr ports through the
//! modified PMD, handing each received burst to a [`VnfApp`] in one call and
//! forwarding between the ports — the exact shape of the paper's evaluation
//! VMs. A poll pays per burst: the burst buffers belong to the runner, a
//! burst the app forwards whole goes straight back out, and the counters
//! are added once. Between bursts it services PMD control messages arriving
//! over virtio-serial, which is how bypass reconfiguration happens *without
//! stopping the application*; an idle check of the serial takes no lock.
//!
//! The runner is a [`Stepper`]: its step is [`VnfRunner::poll_once`], and
//! the VM places it on an lcore worker, which may step other guests and
//! the vSwitch's PMD between two of its polls.

use crate::apps::{Verdict, VnfApp};
use crate::control::{PmdAck, PmdCtrl};
use crate::pmd::DpdkrPmd;
use dpdk_sim::lcore::Stepper;
use dpdk_sim::{Mbuf, DEFAULT_BURST};
use shmem_sim::{DeviceBoard, SerialPort};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Shared, externally readable guest counters. `forwarded` and `reflected`
/// count what the egress ring took; a full ring's drops are `tx_drops`.
#[derive(Debug, Default)]
pub struct GuestCounters {
    /// Packets forwarded port-to-port.
    pub forwarded: AtomicU64,
    /// Packets dropped by the application verdict.
    pub dropped: AtomicU64,
    /// Packets sent back out their ingress port (Verdict::Reflect).
    pub reflected: AtomicU64,
    /// Control messages applied.
    pub ctrl_applied: AtomicU64,
}

/// Configuration for one guest.
pub struct GuestConfig {
    /// VM name (diagnostics).
    pub name: String,
    /// The VM's PMDs, one per dpdkr port, in port-pair order.
    pub ports: Vec<DpdkrPmd>,
    /// The packet-processing application.
    pub app: Box<dyn VnfApp>,
    /// Guest end of the virtio-serial control channel.
    pub serial: SerialPort<PmdCtrl>,
    /// Host end used for acks is the same duplex channel.
    pub ack_via: SerialPort<PmdAck>,
    /// The VM's device board (for mapping hot-plugged ivshmem devices).
    pub board: Arc<DeviceBoard>,
}

/// The running guest application.
pub struct VnfRunner {
    name: String,
    ports: Vec<DpdkrPmd>,
    app: Box<dyn VnfApp>,
    serial: SerialPort<PmdCtrl>,
    ack_via: SerialPort<PmdAck>,
    board: Arc<DeviceBoard>,
    stop: Arc<AtomicBool>,
    counters: Arc<GuestCounters>,
    /// The burst in hand (at most `DEFAULT_BURST` packets) and the app's
    /// verdicts on it.
    rx: Vec<Mbuf>,
    verdicts: [Verdict; DEFAULT_BURST],
    /// A mixed burst sorted by where it leaves: `out` by the egress port,
    /// `back` by the ingress port of a two-port guest.
    out: Vec<Mbuf>,
    back: Vec<Mbuf>,
}

impl VnfRunner {
    /// Builds a runner; raising `stop` retires it from its worker.
    pub fn new(config: GuestConfig, stop: Arc<AtomicBool>) -> VnfRunner {
        VnfRunner {
            name: config.name,
            ports: config.ports,
            app: config.app,
            serial: config.serial,
            ack_via: config.ack_via,
            board: config.board,
            stop,
            counters: Arc::new(GuestCounters::default()),
            rx: Vec::with_capacity(DEFAULT_BURST),
            verdicts: [Verdict::Drop; DEFAULT_BURST],
            out: Vec::with_capacity(DEFAULT_BURST),
            back: Vec::with_capacity(DEFAULT_BURST),
        }
    }

    /// Shared counter handle (read from other threads).
    pub fn counters(&self) -> Arc<GuestCounters> {
        Arc::clone(&self.counters)
    }

    /// VM name.
    pub fn name(&self) -> &str {
        &self.name
    }

    fn port_index(&self, of_port: u32) -> Option<usize> {
        self.ports.iter().position(|p| p.of_port() == of_port)
    }

    /// Applies one control message; replies with an ack.
    fn handle_ctrl(&mut self, msg: PmdCtrl) {
        let seq = msg.seq();
        let of_port = msg.of_port();
        let mut drained = 0u64;
        let ok = match (self.port_index(of_port), msg) {
            (Some(idx), PmdCtrl::MapBypass { segment, .. }) => {
                match self.board.map_segment(&segment) {
                    Some(end) => {
                        self.ports[idx].map_bypass(end);
                        // The agent plugs the host packet arena alongside
                        // the bypass device; adopt it so packets this port
                        // originates travel as offset descriptors.
                        if let Some(arena) = self.board.arena() {
                            self.ports[idx].set_arena(arena);
                        }
                        true
                    }
                    None => false,
                }
            }
            (
                Some(idx),
                PmdCtrl::EnableTx {
                    rule_cookie,
                    peer_port,
                    ..
                },
            ) => self.ports[idx].enable_tx(rule_cookie, peer_port),
            (Some(idx), PmdCtrl::EnableRx { .. }) => self.ports[idx].enable_rx(),
            (Some(idx), PmdCtrl::DisableTx { .. }) => {
                self.ports[idx].disable_tx();
                true
            }
            (Some(idx), PmdCtrl::DisableRxDrain { .. }) => {
                drained = self.drain_through_app(idx);
                true
            }
            (Some(idx), PmdCtrl::UnmapBypass { .. }) => {
                // Defensive guest: a crashed agent may skip the disable
                // steps, so sanitise before unmapping (the PMD's unmap
                // contract requires both directions inactive). In-flight
                // packets still drain through the application.
                self.ports[idx].disable_tx();
                drained = self.drain_through_app(idx);
                self.ports[idx].unmap_bypass();
                true
            }
            (None, _) => false,
        };
        self.counters.ctrl_applied.fetch_add(1, Ordering::Relaxed);
        let _ = self.ack_via.send(PmdAck {
            seq,
            of_port,
            ok,
            drained,
        });
    }

    /// Stops the port's bypass rx and runs what was in flight through the
    /// application like any received traffic, `DEFAULT_BURST` at a time: a
    /// drain can hold a whole ring.
    fn drain_through_app(&mut self, idx: usize) -> u64 {
        let mut pkts = Vec::new();
        let drained = self.ports[idx].disable_rx_drain(&mut pkts);
        let mut pkts = pkts.into_iter();
        while pkts.len() > 0 {
            self.rx.extend(pkts.by_ref().take(DEFAULT_BURST));
            self.process_burst(idx);
        }
        drained
    }

    /// Runs the burst in `rx` through the app in one call and transmits
    /// it. The counters take what the ports accepted, once per burst.
    fn process_burst(&mut self, in_idx: usize) {
        // Pairwise forwarding (0↔1, 2↔3, ...); a one-port guest sends back.
        let out_idx = if self.ports.len() == 1 {
            in_idx
        } else {
            in_idx ^ 1
        };
        let (c, verdicts) = (&self.counters, &mut self.verdicts[..self.rx.len()]);
        self.app.process_burst(&mut self.rx, in_idx, verdicts);
        if verdicts.iter().all(|v| *v == Verdict::Forward) {
            let sent = self.ports[out_idx].tx_burst(&mut self.rx);
            c.forwarded.fetch_add(sent as u64, Ordering::Relaxed);
            return;
        }
        // A one-port guest reflects by the egress port, in arrival order.
        let to_out =
            |v: Verdict| v == Verdict::Forward || (v == Verdict::Reflect && out_idx == in_idx);
        let mut dropped = 0;
        for (pkt, &v) in self.rx.drain(..).zip(verdicts.iter()) {
            match v {
                Verdict::Drop => dropped += 1,
                v if to_out(v) => self.out.push(pkt),
                _ => self.back.push(pkt),
            }
        }
        let sent = self.ports[out_idx].tx_burst(&mut self.out);
        let forwarded = (verdicts.iter().filter(|v| to_out(**v)).take(sent))
            .filter(|v| **v == Verdict::Forward)
            .count();
        let reflected = sent - forwarded + self.ports[in_idx].tx_burst(&mut self.back);
        c.forwarded.fetch_add(forwarded as u64, Ordering::Relaxed);
        c.reflected.fetch_add(reflected as u64, Ordering::Relaxed);
        c.dropped.fetch_add(dropped, Ordering::Relaxed);
    }

    /// One polling iteration: control first, then every port.
    /// Returns true if any packet moved.
    pub fn poll_once(&mut self) -> bool {
        while let Some(msg) = self.serial.try_recv() {
            self.handle_ctrl(msg);
        }
        let mut moved = false;
        for idx in 0..self.ports.len() {
            if self.ports[idx].rx_burst(&mut self.rx, DEFAULT_BURST) > 0 {
                moved = true;
                self.process_burst(idx);
            }
        }
        moved
    }
}

impl Stepper for VnfRunner {
    fn step(&mut self) -> bool {
        self.poll_once()
    }

    fn retired(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::L2Forwarder;
    use shmem_sim::{channel, serial_pair, IvshmemDevice, StatsRegion};

    struct Harness {
        runner: VnfRunner,
        sw0: shmem_sim::ChannelEnd,
        sw1: shmem_sim::ChannelEnd,
        host_ctrl: SerialPort<PmdCtrl>,
        host_ack: SerialPort<PmdAck>,
        board: Arc<DeviceBoard>,
        stats: StatsRegion,
    }

    /// Two-port guest with an L2 forwarder, plus all host-side handles.
    fn guest() -> Harness {
        let stats = StatsRegion::new();
        let (vm0, sw0) = channel("dpdkr1", 32);
        let (vm1, sw1) = channel("dpdkr2", 32);
        let (host_ctrl, guest_ctrl) = serial_pair::<PmdCtrl>("vm");
        let (guest_ack, host_ack) = serial_pair::<PmdAck>("vm-ack");
        let board = Arc::new(DeviceBoard::new());
        let config = GuestConfig {
            name: "vm1".into(),
            ports: vec![
                DpdkrPmd::new(1, vm0, stats.clone()),
                DpdkrPmd::new(2, vm1, stats.clone()),
            ],
            app: Box::new(L2Forwarder::new()),
            serial: guest_ctrl,
            ack_via: guest_ack,
            board: Arc::clone(&board),
        };
        Harness {
            runner: VnfRunner::new(config, Arc::new(AtomicBool::new(false))),
            sw0,
            sw1,
            host_ctrl,
            host_ack,
            board,
            stats,
        }
    }

    /// A guest over `ports` whose control channel nobody drives.
    fn runner_over(ports: Vec<DpdkrPmd>, app: Box<dyn VnfApp>) -> VnfRunner {
        let (_host_ctrl, guest_ctrl) = serial_pair::<PmdCtrl>("vm");
        let (guest_ack, _host_ack) = serial_pair::<PmdAck>("vm-ack");
        let config = GuestConfig {
            name: "vm".into(),
            ports,
            app,
            serial: guest_ctrl,
            ack_via: guest_ack,
            board: Arc::new(DeviceBoard::new()),
        };
        VnfRunner::new(config, Arc::new(AtomicBool::new(false)))
    }

    fn pkt() -> Mbuf {
        Mbuf::from_slice(&packet_wire::PacketBuilder::udp_probe(64).build())
    }

    #[test]
    fn forwards_between_port_pair() {
        let mut h = guest();
        h.sw0.send(pkt()).unwrap();
        h.runner.poll_once();
        assert_eq!(h.sw1.recv().unwrap().len(), 64);
        // And the reverse direction.
        h.sw1.send(pkt()).unwrap();
        h.runner.poll_once();
        assert!(h.sw0.recv().is_some());
        assert_eq!(h.runner.counters().forwarded.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn control_reconfigures_bypass_live() {
        let mut h = guest();
        // Host plugs a bypass device and configures tx on port 2.
        let (end_a, mut end_b) = channel("bypass-seg", 32);
        h.board.plug(IvshmemDevice::new("bypass-seg", end_a));
        h.host_ctrl
            .send(PmdCtrl::MapBypass {
                seq: 1,
                of_port: 2,
                segment: "bypass-seg".into(),
            })
            .unwrap();
        h.host_ctrl
            .send(PmdCtrl::EnableTx {
                seq: 2,
                of_port: 2,
                rule_cookie: 0xfeed,
                peer_port: 3,
            })
            .unwrap();
        // Traffic arriving on port 1 now leaves via the bypass of port 2.
        h.sw0.send(pkt()).unwrap();
        h.runner.poll_once();
        assert_eq!(h.host_ack.try_recv().unwrap().seq, 1);
        assert_eq!(h.host_ack.try_recv().unwrap().seq, 2);
        assert_eq!(end_b.recv().unwrap().len(), 64);
        assert!(h.sw1.recv().is_none(), "switch path must be bypassed");
        assert_eq!(h.stats.rule_totals(0xfeed), (1, 64));
    }

    #[test]
    fn map_bypass_adopts_the_board_arena() {
        let mut h = guest();
        let host_arena = dpdk_sim::Arena::new("guest-arena", 8, 256);
        h.board.set_arena(&host_arena);
        let (end_a, _end_b) = channel("bypass-seg", 32);
        h.board.plug(IvshmemDevice::new("bypass-seg", end_a));
        assert!(h.runner.ports[1].arena().is_none());
        h.host_ctrl
            .send(PmdCtrl::MapBypass {
                seq: 1,
                of_port: 2,
                segment: "bypass-seg".into(),
            })
            .unwrap();
        h.runner.poll_once();
        let mapped = h.runner.ports[1].arena().expect("arena installed");
        assert_eq!(mapped.segment_id(), host_arena.segment_id());
    }

    #[test]
    fn teardown_drains_in_flight_packets_through_the_app() {
        let mut h = guest();
        let (end_a, mut peer) = channel("bypass-seg", 32);
        h.board.plug(IvshmemDevice::new("bypass-seg", end_a));
        h.host_ctrl
            .send(PmdCtrl::MapBypass {
                seq: 1,
                of_port: 1,
                segment: "bypass-seg".into(),
            })
            .unwrap();
        h.host_ctrl
            .send(PmdCtrl::EnableRx { seq: 2, of_port: 1 })
            .unwrap();
        h.runner.poll_once();
        // Peer VM sent packets that are still in the ring at teardown time.
        for _ in 0..4 {
            peer.send(pkt()).unwrap();
        }
        h.host_ctrl
            .send(PmdCtrl::DisableRxDrain { seq: 3, of_port: 1 })
            .unwrap();
        h.host_ctrl
            .send(PmdCtrl::UnmapBypass { seq: 4, of_port: 1 })
            .unwrap();
        h.runner.poll_once();
        // Acks for map/enable were consumed? (seq 1,2 first poll; 3,4 now)
        let acks: Vec<PmdAck> = std::iter::from_fn(|| h.host_ack.try_recv()).collect();
        let drain_ack = acks.iter().find(|a| a.seq == 3).unwrap();
        assert_eq!(drain_ack.drained, 4);
        assert!(drain_ack.ok);
        // Drained packets went through the app and out of port 2.
        let mut got = 0;
        while h.sw1.recv().is_some() {
            got += 1;
        }
        assert_eq!(got, 4);
    }

    #[test]
    fn reflect_verdict_bounces_out_the_ingress_port() {
        struct Bouncer;
        impl crate::apps::VnfApp for Bouncer {
            fn name(&self) -> &str {
                "bouncer"
            }
            fn process(&mut self, _pkt: &mut Mbuf, _idx: usize) -> crate::apps::Verdict {
                crate::apps::Verdict::Reflect
            }
        }
        let stats = StatsRegion::new();
        let (vm0, mut sw0) = channel("dpdkr1", 32);
        let (vm1, mut sw1) = channel("dpdkr2", 32);
        let mut runner = runner_over(
            vec![
                DpdkrPmd::new(1, vm0, stats.clone()),
                DpdkrPmd::new(2, vm1, stats),
            ],
            Box::new(Bouncer),
        );
        sw0.send(pkt()).unwrap();
        runner.poll_once();
        assert!(sw0.recv().is_some(), "bounced back out port 1");
        assert!(sw1.recv().is_none(), "nothing crossed to port 2");
        assert_eq!(runner.counters().reflected.load(Ordering::Relaxed), 1);
        assert_eq!(runner.counters().forwarded.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn forwarded_counts_what_the_ring_took() {
        let stats = StatsRegion::new();
        let (vm0, mut sw0) = channel("dpdkr1", 32);
        let (vm1, _sw1) = channel("dpdkr2", 2);
        let mut runner = runner_over(
            vec![
                DpdkrPmd::new(1, vm0, stats.clone()),
                DpdkrPmd::new(2, vm1, stats),
            ],
            Box::new(L2Forwarder::new()),
        );
        for _ in 0..5 {
            sw0.send(pkt()).unwrap();
        }
        runner.poll_once();
        assert_eq!(runner.counters().forwarded.load(Ordering::Relaxed), 2);
        assert_eq!(runner.ports[1].tx_drops, 3);
    }

    #[test]
    fn a_rewriting_app_writes_the_slab_once_per_packet() {
        let arena = dpdk_sim::Arena::new("nat-arena", 64, 256);
        let stats = StatsRegion::new();
        let (vm0, mut sw0) = channel("dpdkr1", 64);
        let (vm1, mut sw1) = channel("dpdkr2", 64);
        let public = std::net::Ipv4Addr::new(192, 0, 2, 1);
        let mut runner = runner_over(
            vec![
                DpdkrPmd::new(1, vm0, stats.clone()),
                DpdkrPmd::new(2, vm1, stats),
            ],
            Box::new(crate::apps::Nat44::new(public)),
        );
        let frame = packet_wire::PacketBuilder::udp_probe(64).build();
        for _ in 0..40 {
            let m = Mbuf::from_arena(arena.alloc_from(&frame).unwrap());
            sw0.send(m).unwrap();
        }
        let before = arena.stats().slab_writes;
        while runner.poll_once() {}
        assert_eq!(arena.stats().slab_writes - before, 40, "one rewrite each");
        let out: Vec<Mbuf> = std::iter::from_fn(|| sw1.recv()).collect();
        assert_eq!(out.len(), 40);
        assert!(out.iter().all(|m| m.segment_id() == arena.segment_id()));
        let key = packet_wire::FlowKey::extract(out[0].data());
        assert_eq!(key.ipv4_src, public);
    }

    #[test]
    fn unknown_port_is_nacked() {
        let mut h = guest();
        h.host_ctrl
            .send(PmdCtrl::EnableRx {
                seq: 9,
                of_port: 99,
            })
            .unwrap();
        h.runner.poll_once();
        let ack = h.host_ack.try_recv().unwrap();
        assert!(!ack.ok);
        assert_eq!(ack.seq, 9);
    }

    #[test]
    fn missing_segment_is_nacked() {
        let mut h = guest();
        h.host_ctrl
            .send(PmdCtrl::MapBypass {
                seq: 5,
                of_port: 1,
                segment: "not-plugged".into(),
            })
            .unwrap();
        h.runner.poll_once();
        assert!(!h.host_ack.try_recv().unwrap().ok);
    }
}
