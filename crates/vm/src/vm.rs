//! The VM model: device board + virtio-serial + a vCPU stepper running the
//! guest application on an lcore worker. From the outside (compute agent,
//! orchestrator) a VM is a handle for plugging devices and issuing PMD
//! control requests.

use dpdk_sim::lcore::{self, Placement};
use parking_lot::Mutex;
use shmem_sim::{serial_pair, ChannelEnd, DeviceBoard, IvshmemDevice, SerialPort, StatsRegion};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vnf_apps::runner::GuestCounters;
use vnf_apps::{DpdkrPmd, GuestConfig, PmdAck, PmdCtrl, VnfApp, VnfRunner};

/// Errors from VM control operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmError {
    /// The guest acked with `ok = false`.
    Nacked(PmdCtrl),
    /// No ack arrived in time (guest dead or wedged).
    Timeout,
    /// The serial device is gone.
    Disconnected,
}

impl std::fmt::Display for VmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VmError::Nacked(req) => write!(f, "guest rejected control request {req:?}"),
            VmError::Timeout => write!(f, "guest ack timeout"),
            VmError::Disconnected => write!(f, "virtio-serial disconnected"),
        }
    }
}

impl std::error::Error for VmError {}

/// A launched VM. Its vCPU is a stepper: the guest's [`VnfRunner`],
/// placed on an lcore worker of the launching thread's CPUs, which it may
/// share with other guests and the vSwitch's PMDs.
pub struct Vm {
    name: String,
    board: Arc<DeviceBoard>,
    ctrl: SerialPort<PmdCtrl>,
    acks: SerialPort<PmdAck>,
    of_ports: Vec<u32>,
    stop: Arc<AtomicBool>,
    vcpu: Mutex<Option<Placement>>,
    counters: Arc<GuestCounters>,
    next_seq: AtomicU64,
}

impl Vm {
    /// Boots a VM: builds the guest PMDs over the given `(of_port, channel
    /// end)` pairs, wires the control serial, and places the vCPU, a
    /// [`VnfRunner`] running `app`, on an lcore worker.
    pub fn launch(
        name: impl Into<String>,
        ports: Vec<(u32, ChannelEnd)>,
        app: Box<dyn VnfApp>,
        stats: StatsRegion,
    ) -> Arc<Vm> {
        let name = name.into();
        let board = Arc::new(DeviceBoard::new());
        let (host_ctrl, guest_ctrl) = serial_pair::<PmdCtrl>(format!("{name}-ctrl"));
        let (guest_ack, host_ack) = serial_pair::<PmdAck>(format!("{name}-ack"));
        let of_ports: Vec<u32> = ports.iter().map(|(p, _)| *p).collect();
        let pmds: Vec<DpdkrPmd> = ports
            .into_iter()
            .map(|(p, end)| DpdkrPmd::new(p, end, stats.clone()))
            .collect();
        let stop = Arc::new(AtomicBool::new(false));
        let runner = VnfRunner::new(
            GuestConfig {
                name: name.clone(),
                ports: pmds,
                app,
                serial: guest_ctrl,
                ack_via: guest_ack,
                board: Arc::clone(&board),
            },
            Arc::clone(&stop),
        );
        let counters = runner.counters();
        let vcpu = lcore::place(format!("vm-{name}"), Box::new(runner));
        Arc::new(Vm {
            name,
            board,
            ctrl: host_ctrl,
            acks: host_ack,
            of_ports,
            stop,
            vcpu: Mutex::new(Some(vcpu)),
            counters,
            next_seq: AtomicU64::new(1),
        })
    }

    /// VM name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// OpenFlow port numbers of this VM's dpdkr ports.
    pub fn of_ports(&self) -> &[u32] {
        &self.of_ports
    }

    /// Guest counters (forwarded/dropped/control).
    pub fn counters(&self) -> &GuestCounters {
        &self.counters
    }

    /// Hot-plugs an ivshmem device (QEMU `device_add`).
    pub fn plug_device(&self, segment: impl Into<String>, end: ChannelEnd) {
        let segment = segment.into();
        self.board.plug(IvshmemDevice::new(segment, end));
    }

    /// Unplugs an ivshmem device (QEMU `device_del`).
    pub fn unplug_device(&self, segment: &str) -> bool {
        self.board.unplug(segment)
    }

    /// Maps the host packet arena into this VM (QEMU mapping the hugepage
    /// segment read-write). The guest PMD adopts it on the next bypass map.
    pub fn plug_arena(&self, arena: &dpdk_sim::Arena) {
        self.board.set_arena(arena);
    }

    /// Devices currently plugged (diagnostics/tests).
    pub fn plugged_devices(&self) -> Vec<String> {
        self.board.plugged()
    }

    /// Sends a PMD control request and waits for its ack.
    pub fn request(&self, mut msg: PmdCtrl, timeout: Duration) -> Result<PmdAck, VmError> {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        // Stamp the sequence number into the message.
        match &mut msg {
            PmdCtrl::MapBypass { seq: s, .. }
            | PmdCtrl::EnableTx { seq: s, .. }
            | PmdCtrl::EnableRx { seq: s, .. }
            | PmdCtrl::DisableTx { seq: s, .. }
            | PmdCtrl::DisableRxDrain { seq: s, .. }
            | PmdCtrl::UnmapBypass { seq: s, .. } => *s = seq,
        }
        let sent = msg.clone();
        self.ctrl.send(msg).map_err(|_| VmError::Disconnected)?;
        let deadline = Instant::now() + timeout;
        loop {
            let remaining = deadline
                .checked_duration_since(Instant::now())
                .ok_or(VmError::Timeout)?;
            match self.acks.recv_timeout(remaining) {
                Ok(ack) if ack.seq == seq => {
                    return if ack.ok {
                        Ok(ack)
                    } else {
                        Err(VmError::Nacked(sent))
                    };
                }
                Ok(_stale) => continue, // ack for an older request: skip
                Err(shmem_sim::SerialError::Timeout) => return Err(VmError::Timeout),
                Err(shmem_sim::SerialError::Disconnected) => return Err(VmError::Disconnected),
            }
        }
    }

    /// Stops the vCPU and returns once its worker has dropped it
    /// (idempotent). A guest whose app panicked is already dropped.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Release);
        if let Some(vcpu) = self.vcpu.lock().take() {
            vcpu.join();
        }
    }
}

impl Drop for Vm {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for Vm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Vm")
            .field("name", &self.name)
            .field("ports", &self.of_ports)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpdk_sim::Mbuf;
    use packet_wire::PacketBuilder;
    use shmem_sim::channel;
    use vnf_apps::L2Forwarder;

    #[test]
    fn launched_vm_forwards_between_its_ports() {
        let stats = StatsRegion::new();
        let (vm_end1, mut sw1) = channel("dpdkr1", 32);
        let (vm_end2, mut sw2) = channel("dpdkr2", 32);
        let vm = Vm::launch(
            "vm1",
            vec![(1, vm_end1), (2, vm_end2)],
            Box::new(L2Forwarder::new()),
            stats,
        );
        sw1.send(Mbuf::from_slice(&PacketBuilder::udp_probe(64).build()))
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        let got = loop {
            if let Some(m) = sw2.recv() {
                break Some(m);
            }
            if Instant::now() > deadline {
                break None;
            }
            std::thread::yield_now();
        };
        assert_eq!(got.expect("forwarded").len(), 64);
        vm.shutdown();
        assert_eq!(vm.counters().forwarded.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn control_request_roundtrip_and_nack() {
        let stats = StatsRegion::new();
        let (vm_end1, _sw1) = channel("dpdkr1", 8);
        let vm = Vm::launch(
            "vm2",
            vec![(1, vm_end1)],
            Box::new(L2Forwarder::new()),
            stats,
        );
        // Valid request on a missing segment: guest nacks.
        let err = vm
            .request(
                PmdCtrl::MapBypass {
                    seq: 0,
                    of_port: 1,
                    segment: "absent".into(),
                },
                Duration::from_secs(5),
            )
            .unwrap_err();
        assert!(matches!(err, VmError::Nacked(_)));

        // Plug then map: acked.
        let (end_a, _end_b) = channel("seg", 8);
        vm.plug_device("seg", end_a);
        let ack = vm
            .request(
                PmdCtrl::MapBypass {
                    seq: 0,
                    of_port: 1,
                    segment: "seg".into(),
                },
                Duration::from_secs(5),
            )
            .unwrap();
        assert!(ack.ok);
        vm.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent() {
        let stats = StatsRegion::new();
        let (vm_end1, _sw1) = channel("dpdkr1", 8);
        let vm = Vm::launch(
            "vm3",
            vec![(1, vm_end1)],
            Box::new(L2Forwarder::new()),
            stats,
        );
        vm.shutdown();
        vm.shutdown();
    }
}
