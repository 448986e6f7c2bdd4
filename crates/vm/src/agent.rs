//! The modified compute agent.
//!
//! In the paper, OVS cannot plug memory into VMs itself — "the vSwitch has
//! to rely on an external component". The compute agent is that component:
//! on a bypass request it (i) allocates the shared segment, (ii) hot-plugs
//! one ivshmem device per VM via QEMU, and (iii) reconfigures both guest
//! PMDs over virtio-serial, acking back when the bypass is live. Teardown
//! runs the sequence in reverse, *losslessly*: the sender stops first, the
//! receiver drains, only then is the memory unplugged.
//!
//! Directions are reference-counted per port pair: the first direction of a
//! pair creates the segment, the second (reverse) direction reuses it — the
//! "pair of dpdkr bypass channels mapped on the same piece of memory" of §2.
//!
//! ## Failure atomicity
//!
//! Every hypervisor operation consults the agent's [`FaultPlan`], so tests
//! can fail any `device_add`/`device_del`/serial round-trip on demand. The
//! contract under failure:
//!
//! * a failed **setup** rolls back completely — devices unplugged, guest
//!   PMDs unmapped, the fresh segment released — unless the pair carries
//!   another live direction, in which case only this direction's partial
//!   state is reverted;
//! * a failed **teardown** continues best-effort (the guest's `UnmapBypass`
//!   handler sanitises its own PMD state), always releases host-side state,
//!   and reports the collected errors.

use crate::faults::{FaultOp, FaultPlan};
use crate::latency::LatencyModel;
use crate::vm::{Vm, VmError};
use parking_lot::Mutex;
use shmem_sim::{ChannelEnd, SegmentKind, ShmRegistry, DEFAULT_RING_DEPTH};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;
use vnf_apps::PmdCtrl;

/// Errors from bypass setup/teardown.
#[derive(Debug)]
pub enum AgentError {
    /// No VM owns this OpenFlow port.
    UnknownPort(u32),
    /// Both endpoints of a bypass must be dpdkr ports of *different* VMs.
    SameVm(u32, u32),
    /// The direction is already set up / not set up.
    BadState(String),
    /// A guest control operation failed.
    Vm(VmError),
    /// A hypervisor operation failed (QEMU error, injected fault).
    Hypervisor(String),
}

impl std::fmt::Display for AgentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AgentError::UnknownPort(p) => write!(f, "no VM registered for port {p}"),
            AgentError::SameVm(a, b) => write!(f, "ports {a} and {b} belong to the same VM"),
            AgentError::BadState(s) => write!(f, "bad bypass state: {s}"),
            AgentError::Vm(e) => write!(f, "guest control failed: {e}"),
            AgentError::Hypervisor(s) => write!(f, "hypervisor operation failed: {s}"),
        }
    }
}

impl std::error::Error for AgentError {}

impl From<VmError> for AgentError {
    fn from(e: VmError) -> Self {
        AgentError::Vm(e)
    }
}

/// What a completed setup did (observability for tests and experiments).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetupReport {
    pub segment: String,
    /// True when this call created the segment (first direction of a pair).
    pub created_segment: bool,
    pub src_port: u32,
    pub dst_port: u32,
}

/// What a completed teardown did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TeardownReport {
    pub segment: String,
    /// True when the segment was released (last direction of the pair).
    pub released_segment: bool,
    /// Packets drained from the receiver's bypass ring.
    pub drained: u64,
}

struct PairState {
    segment: String,
    /// Ports whose PMD has mapped its channel end.
    mapped: HashSet<u32>,
    /// Active directions as (src, dst).
    directions: HashSet<(u32, u32)>,
}

/// The compute agent.
pub struct ComputeAgent {
    registry: ShmRegistry,
    latency: LatencyModel,
    faults: Arc<FaultPlan>,
    vms_by_port: Mutex<HashMap<u32, Arc<Vm>>>,
    pairs: Mutex<HashMap<(u32, u32), PairState>>,
    /// Called after every (un)registration, outside the agent's locks.
    /// The highway manager hooks in here to re-evaluate links that were
    /// deferred because an endpoint had no VM yet.
    registration_hooks: Mutex<Vec<Arc<dyn Fn() + Send + Sync>>>,
    ctrl_timeout: Duration,
}

fn pair_key(a: u32, b: u32) -> (u32, u32) {
    (a.min(b), a.max(b))
}

impl ComputeAgent {
    /// Creates the agent over the host's segment registry.
    pub fn new(registry: ShmRegistry, latency: LatencyModel) -> ComputeAgent {
        ComputeAgent::with_faults(registry, latency, FaultPlan::none())
    }

    /// Creates the agent with a fault-injection plan (tests, examples).
    pub fn with_faults(
        registry: ShmRegistry,
        latency: LatencyModel,
        faults: Arc<FaultPlan>,
    ) -> ComputeAgent {
        ComputeAgent {
            registry,
            latency,
            faults,
            vms_by_port: Mutex::new(HashMap::new()),
            pairs: Mutex::new(HashMap::new()),
            registration_hooks: Mutex::new(Vec::new()),
            ctrl_timeout: Duration::from_secs(10),
        }
    }

    /// The agent's fault plan (arm failures through this handle).
    pub fn faults(&self) -> &Arc<FaultPlan> {
        &self.faults
    }

    /// One QEMU `device_add`, subject to fault injection.
    fn plug(&self, vm: &Arc<Vm>, segment: &str, end: ChannelEnd) -> Result<(), AgentError> {
        self.latency.sleep_plug();
        if self.faults.should_fail(FaultOp::Plug) {
            return Err(AgentError::Hypervisor(format!(
                "device_add {segment} into {} failed (injected)",
                vm.name()
            )));
        }
        vm.plug_device(segment, end);
        Ok(())
    }

    /// One QEMU `device_del`, subject to fault injection.
    fn unplug(&self, vm: &Arc<Vm>, segment: &str) -> Result<(), AgentError> {
        self.latency.sleep_unplug();
        if self.faults.should_fail(FaultOp::Unplug) {
            return Err(AgentError::Hypervisor(format!(
                "device_del {segment} from {} failed (injected)",
                vm.name()
            )));
        }
        vm.unplug_device(segment);
        Ok(())
    }

    /// One PMD control round-trip, subject to fault injection.
    fn guest_request(&self, vm: &Arc<Vm>, msg: PmdCtrl) -> Result<vnf_apps::PmdAck, AgentError> {
        self.latency.sleep_serial();
        if self.faults.should_fail(FaultOp::Serial) {
            return Err(AgentError::Hypervisor(format!(
                "virtio-serial to {} failed (injected): {msg:?}",
                vm.name()
            )));
        }
        vm.request(msg, self.ctrl_timeout).map_err(AgentError::from)
    }

    /// Registers a VM so its ports can participate in bypasses.
    pub fn register_vm(&self, vm: Arc<Vm>) {
        {
            let mut map = self.vms_by_port.lock();
            for p in vm.of_ports() {
                map.insert(*p, Arc::clone(&vm));
            }
        }
        self.run_registration_hooks();
    }

    /// True when some registered VM owns this OpenFlow port. Only such
    /// ports can terminate a bypass — there is a guest PMD to reconfigure.
    pub fn has_port(&self, port: u32) -> bool {
        self.vms_by_port.lock().contains_key(&port)
    }

    /// Adds a callback invoked after every VM (un)registration, outside
    /// the agent's locks.
    pub fn on_registration(&self, hook: impl Fn() + Send + Sync + 'static) {
        self.registration_hooks.lock().push(Arc::new(hook));
    }

    fn run_registration_hooks(&self) {
        // Snapshot under the lock, invoke outside it: a hook may re-enter
        // the agent (register another VM, query ports) without deadlocking.
        let hooks: Vec<_> = self.registration_hooks.lock().clone();
        for hook in hooks {
            hook();
        }
    }

    fn vm_for(&self, port: u32) -> Result<Arc<Vm>, AgentError> {
        self.vms_by_port
            .lock()
            .get(&port)
            .cloned()
            .ok_or(AgentError::UnknownPort(port))
    }

    /// Number of port pairs with at least one live bypass direction.
    pub fn live_pairs(&self) -> usize {
        self.pairs.lock().len()
    }

    /// Sets up the bypass direction `src_port → dst_port` for the rule with
    /// `rule_cookie`. Reuses the pair's segment when the reverse direction
    /// already exists. On failure, everything this call changed is rolled
    /// back (see the module docs on failure atomicity).
    pub fn setup_bypass(
        &self,
        src_port: u32,
        dst_port: u32,
        rule_cookie: u64,
    ) -> Result<SetupReport, AgentError> {
        let src_vm = self.vm_for(src_port)?;
        let dst_vm = self.vm_for(dst_port)?;
        if src_vm.name() == dst_vm.name() {
            return Err(AgentError::SameVm(src_port, dst_port));
        }
        let key = pair_key(src_port, dst_port);
        let mut pairs = self.pairs.lock();
        let mut created = false;

        if let Some(state) = pairs.get(&key) {
            if state.directions.contains(&(src_port, dst_port)) {
                return Err(AgentError::BadState(format!(
                    "direction {src_port}->{dst_port} already active"
                )));
            }
        }

        // Phase 1: segment + hot-plug into both VMs (only for a fresh
        // pair). A failed second plug unwinds the first.
        if let std::collections::hash_map::Entry::Vacant(slot) = pairs.entry(key) {
            let segment = format!("bypass-{}-{}", key.0, key.1);
            let (end_low, end_high) =
                self.registry
                    .create_channel(&segment, SegmentKind::Bypass, DEFAULT_RING_DEPTH);
            let (low_vm, high_vm) = (self.vm_for(key.0)?, self.vm_for(key.1)?);
            // Map the host packet arena into both VMs before the channel:
            // descriptors must resolve the moment the bypass goes live.
            // Idempotent per VM, and it survives pair teardown (the arena
            // is host-wide, not per-bypass).
            let arena = self.registry.hugepage_arena();
            low_vm.plug_arena(&arena);
            high_vm.plug_arena(&arena);
            if let Err(e) = self.plug(&low_vm, &segment, end_low) {
                self.registry.release(&segment);
                return Err(e);
            }
            if let Err(e) = self.plug(&high_vm, &segment, end_high) {
                let _ = self.unplug(&low_vm, &segment);
                self.registry.release(&segment);
                return Err(e);
            }
            slot.insert(PairState {
                segment,
                mapped: HashSet::new(),
                directions: HashSet::new(),
            });
            created = true;
        }
        let segment = pairs.get(&key).expect("just ensured").segment.clone();

        // Phases 2–3 with rollback on failure.
        match self.activate_direction(&mut pairs, key, &segment, src_port, dst_port, rule_cookie) {
            Ok(()) => Ok(SetupReport {
                segment,
                created_segment: created,
                src_port,
                dst_port,
            }),
            Err(e) => {
                // Dismantle the pair entirely if this call created it (or
                // nothing else uses it); otherwise leave the healthy
                // reverse direction alone.
                let dismantle = pairs
                    .get(&key)
                    .map(|s| s.directions.is_empty())
                    .unwrap_or(false);
                if dismantle {
                    // The rollback reports the setup error, not its own.
                    let _ = self.dismantle_pair(&mut pairs, key);
                }
                Err(e)
            }
        }
    }

    /// Phases 2–3 of setup: map both endpoints, enable receive then
    /// transmit. On failure, reverts the partial direction state (a
    /// half-enabled receiver is drained and disabled) but leaves pair
    /// membership to the caller.
    fn activate_direction(
        &self,
        pairs: &mut HashMap<(u32, u32), PairState>,
        key: (u32, u32),
        segment: &str,
        src_port: u32,
        dst_port: u32,
        rule_cookie: u64,
    ) -> Result<(), AgentError> {
        let src_vm = self.vm_for(src_port)?;
        let dst_vm = self.vm_for(dst_port)?;

        // Phase 2: each endpoint maps its channel end once per pair.
        for port in [src_port, dst_port] {
            let state = pairs.get_mut(&key).expect("pair exists");
            if state.mapped.contains(&port) {
                continue;
            }
            let vm = self.vm_for(port)?;
            self.guest_request(
                &vm,
                PmdCtrl::MapBypass {
                    seq: 0,
                    of_port: port,
                    segment: segment.to_string(),
                },
            )?;
            pairs
                .get_mut(&key)
                .expect("pair exists")
                .mapped
                .insert(port);
        }

        // Phase 3: receiver first (so nothing sits unpolled), then sender.
        self.guest_request(
            &dst_vm,
            PmdCtrl::EnableRx {
                seq: 0,
                of_port: dst_port,
            },
        )?;
        if let Err(e) = self.guest_request(
            &src_vm,
            PmdCtrl::EnableTx {
                seq: 0,
                of_port: src_port,
                rule_cookie,
                peer_port: dst_port,
            },
        ) {
            // Revert the half-enabled receiver (best-effort).
            let _ = self.guest_request(
                &dst_vm,
                PmdCtrl::DisableRxDrain {
                    seq: 0,
                    of_port: dst_port,
                },
            );
            return Err(e);
        }
        pairs
            .get_mut(&key)
            .expect("pair exists")
            .directions
            .insert((src_port, dst_port));
        Ok(())
    }

    /// Unmaps, unplugs and releases a pair with no live directions, and
    /// returns the errors it met on the way. Best-effort: the guest
    /// `UnmapBypass` handler sanitises its own PMD, and a failed
    /// `device_del` leaves the device behind (like QEMU keeping
    /// guest-mapped memory alive) while host state is still freed.
    ///
    /// Note the asymmetry: only *mapped* ports get an `UnmapBypass`, but
    /// *both* endpoints get a `device_del` — hot-plug happens for the pair
    /// up front, mapping happens per port, and a rollback can interleave.
    fn dismantle_pair(
        &self,
        pairs: &mut HashMap<(u32, u32), PairState>,
        key: (u32, u32),
    ) -> Vec<String> {
        let mut errors = Vec::new();
        let Some(mut state) = pairs.remove(&key) else {
            return errors;
        };
        for port in state.mapped.drain() {
            let Ok(vm) = self.vm_for(port) else { continue };
            let unmap = PmdCtrl::UnmapBypass {
                seq: 0,
                of_port: port,
            };
            if let Err(e) = self.guest_request(&vm, unmap) {
                errors.push(e.to_string());
            }
        }
        for port in [key.0, key.1] {
            let Ok(vm) = self.vm_for(port) else { continue };
            if vm.plugged_devices().iter().any(|d| d == &state.segment) {
                if let Err(e) = self.unplug(&vm, &state.segment) {
                    errors.push(e.to_string());
                }
            }
        }
        self.registry.release(&state.segment);
        errors
    }

    /// Tears down the bypass direction `src_port → dst_port` losslessly.
    /// Releases the segment when no direction of the pair remains.
    ///
    /// Teardown is best-effort under failure: host-side state is always
    /// cleaned (no leaked segments, no stuck pair entries); collected
    /// errors are reported after the fact.
    pub fn teardown_bypass(
        &self,
        src_port: u32,
        dst_port: u32,
    ) -> Result<TeardownReport, AgentError> {
        let src_vm = self.vm_for(src_port)?;
        let dst_vm = self.vm_for(dst_port)?;
        let key = pair_key(src_port, dst_port);
        let mut pairs = self.pairs.lock();
        let state = pairs.get_mut(&key).ok_or_else(|| {
            AgentError::BadState(format!("no bypass between {src_port} and {dst_port}"))
        })?;
        if !state.directions.remove(&(src_port, dst_port)) {
            return Err(AgentError::BadState(format!(
                "direction {src_port}->{dst_port} not active"
            )));
        }
        let segment = state.segment.clone();
        let mut errors: Vec<String> = Vec::new();

        // Sender stops first: afterwards nothing new enters the ring. If
        // this fails, the guest's later UnmapBypass sanitises anyway.
        if let Err(e) = self.guest_request(
            &src_vm,
            PmdCtrl::DisableTx {
                seq: 0,
                of_port: src_port,
            },
        ) {
            errors.push(e.to_string());
        }
        // Receiver drains what is left, then stops polling.
        let mut drained = 0;
        match self.guest_request(
            &dst_vm,
            PmdCtrl::DisableRxDrain {
                seq: 0,
                of_port: dst_port,
            },
        ) {
            Ok(ack) => drained = ack.drained,
            Err(e) => errors.push(e.to_string()),
        }

        let released = pairs[&key].directions.is_empty();
        if released {
            errors.extend(self.dismantle_pair(&mut pairs, key));
        }

        if errors.is_empty() {
            Ok(TeardownReport {
                segment,
                released_segment: released,
                drained,
            })
        } else {
            Err(AgentError::Hypervisor(errors.join("; ")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpdk_sim::Mbuf;
    use packet_wire::PacketBuilder;
    use shmem_sim::{channel, ChannelEnd, StatsRegion};
    use vnf_apps::L2Forwarder;

    struct World {
        agent: ComputeAgent,
        registry: ShmRegistry,
        vms: Vec<Arc<Vm>>,
        /// Switch-side ends: (vm index, port index) order of creation.
        switch_ends: Vec<ChannelEnd>,
        stats: StatsRegion,
    }

    /// Two VMs, two ports each: vm0 has ports 1,2; vm1 has ports 3,4.
    fn world() -> World {
        let registry = ShmRegistry::new();
        let stats = StatsRegion::new();
        let mut switch_ends = Vec::new();
        let mut vms = Vec::new();
        let mut port = 1u32;
        for name in ["vm0", "vm1"] {
            let mut vm_ports = Vec::new();
            for _ in 0..2 {
                let (vm_end, sw_end) =
                    registry.create_channel(format!("dpdkr{port}"), SegmentKind::DpdkrNormal, 64);
                vm_ports.push((port, vm_end));
                switch_ends.push(sw_end);
                port += 1;
            }
            vms.push(Vm::launch(
                name,
                vm_ports,
                Box::new(L2Forwarder::new()),
                stats.clone(),
            ));
        }
        let agent = ComputeAgent::new(registry.clone(), LatencyModel::zero());
        for vm in &vms {
            agent.register_vm(Arc::clone(vm));
        }
        World {
            agent,
            registry,
            vms,
            switch_ends,
            stats,
        }
    }

    #[test]
    fn setup_creates_segment_and_activates_direction() {
        let w = world();
        let report = w.agent.setup_bypass(2, 3, 0xc0de).unwrap();
        assert!(report.created_segment);
        assert_eq!(report.segment, "bypass-2-3");
        assert_eq!(w.registry.live_of_kind(SegmentKind::Bypass).len(), 1);
        assert_eq!(w.agent.live_pairs(), 1);
        // Both VMs saw the device.
        assert!(w.vms[0].plugged_devices().contains(&"bypass-2-3".into()));
        assert!(w.vms[1].plugged_devices().contains(&"bypass-2-3".into()));
    }

    #[test]
    fn traffic_flows_through_bypass_after_setup() {
        let mut w = world();
        w.agent.setup_bypass(2, 3, 0xc0de).unwrap();
        // Feed vm0 port 1 from the "switch": the forwarder moves the packet
        // to port 2, whose tx is now the bypass straight into vm1 port 3;
        // vm1 forwards to port 4 where the switch-side end receives it.
        w.switch_ends[0]
            .send(Mbuf::from_slice(&PacketBuilder::udp_probe(64).build()))
            .unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let got = loop {
            if let Some(m) = w.switch_ends[3].recv() {
                break Some(m);
            }
            if std::time::Instant::now() > deadline {
                break None;
            }
            std::thread::yield_now();
        };
        assert_eq!(got.expect("travelled the chain").len(), 64);
        // The middle hop never touched the switch.
        assert!(w.switch_ends[1].recv().is_none());
        assert!(w.switch_ends[2].recv().is_none());
        // And was accounted in the shared stats region.
        assert_eq!(w.stats.rule_totals(0xc0de), (1, 64));
    }

    #[test]
    fn reverse_direction_reuses_the_segment() {
        let w = world();
        let first = w.agent.setup_bypass(2, 3, 1).unwrap();
        let second = w.agent.setup_bypass(3, 2, 2).unwrap();
        assert!(first.created_segment);
        assert!(!second.created_segment);
        assert_eq!(first.segment, second.segment);
        assert_eq!(w.registry.live_of_kind(SegmentKind::Bypass).len(), 1);
    }

    #[test]
    fn duplicate_direction_is_rejected() {
        let w = world();
        w.agent.setup_bypass(2, 3, 1).unwrap();
        assert!(matches!(
            w.agent.setup_bypass(2, 3, 1),
            Err(AgentError::BadState(_))
        ));
    }

    #[test]
    fn teardown_releases_only_when_last_direction_goes() {
        let w = world();
        w.agent.setup_bypass(2, 3, 1).unwrap();
        w.agent.setup_bypass(3, 2, 2).unwrap();
        let t1 = w.agent.teardown_bypass(2, 3).unwrap();
        assert!(!t1.released_segment);
        assert_eq!(w.registry.live_of_kind(SegmentKind::Bypass).len(), 1);
        let t2 = w.agent.teardown_bypass(3, 2).unwrap();
        assert!(t2.released_segment);
        assert_eq!(w.registry.live_of_kind(SegmentKind::Bypass).len(), 0);
        assert_eq!(w.agent.live_pairs(), 0);
        // Devices unplugged from both VMs.
        assert!(w.vms[0].plugged_devices().is_empty());
        assert!(w.vms[1].plugged_devices().is_empty());
    }

    #[test]
    fn teardown_of_unknown_direction_fails() {
        let w = world();
        assert!(matches!(
            w.agent.teardown_bypass(2, 3),
            Err(AgentError::BadState(_))
        ));
    }

    #[test]
    fn unknown_port_and_same_vm_are_rejected() {
        let w = world();
        assert!(matches!(
            w.agent.setup_bypass(2, 99, 1),
            Err(AgentError::UnknownPort(99))
        ));
        assert!(matches!(
            w.agent.setup_bypass(1, 2, 1),
            Err(AgentError::SameVm(1, 2))
        ));
    }

    /// Like [`world`] but with a shared fault plan.
    fn faulty_world() -> (World, Arc<FaultPlan>) {
        let registry = ShmRegistry::new();
        let stats = StatsRegion::new();
        let faults = FaultPlan::none();
        let mut switch_ends = Vec::new();
        let mut vms = Vec::new();
        let mut port = 1u32;
        for name in ["vm0", "vm1"] {
            let mut vm_ports = Vec::new();
            for _ in 0..2 {
                let (vm_end, sw_end) =
                    registry.create_channel(format!("dpdkr{port}"), SegmentKind::DpdkrNormal, 64);
                vm_ports.push((port, vm_end));
                switch_ends.push(sw_end);
                port += 1;
            }
            vms.push(Vm::launch(
                name,
                vm_ports,
                Box::new(L2Forwarder::new()),
                stats.clone(),
            ));
        }
        let agent =
            ComputeAgent::with_faults(registry.clone(), LatencyModel::zero(), Arc::clone(&faults));
        for vm in &vms {
            agent.register_vm(Arc::clone(vm));
        }
        (
            World {
                agent,
                registry,
                vms,
                switch_ends,
                stats,
            },
            faults,
        )
    }

    #[test]
    fn failed_first_plug_leaves_no_trace() {
        let (w, faults) = faulty_world();
        faults.arm(FaultOp::Plug, 1);
        let err = w.agent.setup_bypass(2, 3, 1).unwrap_err();
        assert!(matches!(err, AgentError::Hypervisor(_)));
        assert_eq!(w.registry.live_of_kind(SegmentKind::Bypass).len(), 0);
        assert_eq!(w.agent.live_pairs(), 0);
        assert!(w.vms[0].plugged_devices().is_empty());
        assert!(w.vms[1].plugged_devices().is_empty());
        // Recovery: the very next attempt succeeds.
        w.agent.setup_bypass(2, 3, 1).unwrap();
        assert_eq!(w.agent.live_pairs(), 1);
    }

    #[test]
    fn failed_second_plug_unwinds_the_first() {
        let (w, faults) = faulty_world();
        faults.arm_after(FaultOp::Plug, 1, 1);
        let err = w.agent.setup_bypass(2, 3, 1).unwrap_err();
        assert!(matches!(err, AgentError::Hypervisor(_)));
        assert_eq!(w.registry.live_of_kind(SegmentKind::Bypass).len(), 0);
        assert!(
            w.vms[0].plugged_devices().is_empty(),
            "first plug rolled back"
        );
        assert!(w.vms[1].plugged_devices().is_empty());
        w.agent.setup_bypass(2, 3, 1).unwrap();
    }

    #[test]
    fn failed_enable_tx_dismantles_a_fresh_pair() {
        let (w, faults) = faulty_world();
        // Serial ops of a fresh setup: map, map, enable-rx, enable-tx.
        faults.arm_after(FaultOp::Serial, 3, 1);
        let err = w.agent.setup_bypass(2, 3, 1).unwrap_err();
        assert!(matches!(err, AgentError::Hypervisor(_)));
        assert_eq!(w.registry.live_of_kind(SegmentKind::Bypass).len(), 0);
        assert_eq!(w.agent.live_pairs(), 0);
        assert!(w.vms[0].plugged_devices().is_empty());
        assert!(w.vms[1].plugged_devices().is_empty());
        // The guests' PMDs were left clean too: a retry works end to end.
        w.agent.setup_bypass(2, 3, 1).unwrap();
        assert_eq!(w.agent.live_pairs(), 1);
    }

    #[test]
    fn reverse_direction_failure_spares_the_forward_bypass() {
        let (w, faults) = faulty_world();
        w.agent.setup_bypass(2, 3, 1).unwrap();
        // The reverse direction reuses the mapped pair, so its first serial
        // op is enable-rx. Fail it.
        faults.arm(FaultOp::Serial, 1);
        let err = w.agent.setup_bypass(3, 2, 2).unwrap_err();
        assert!(matches!(err, AgentError::Hypervisor(_)));
        // The forward direction must be untouched.
        assert_eq!(w.agent.live_pairs(), 1);
        assert_eq!(w.registry.live_of_kind(SegmentKind::Bypass).len(), 1);
        // And the reverse can still be set up afterwards.
        w.agent.setup_bypass(3, 2, 2).unwrap();
    }

    #[test]
    fn teardown_failure_still_releases_host_state() {
        let (w, faults) = faulty_world();
        w.agent.setup_bypass(2, 3, 1).unwrap();
        faults.arm(FaultOp::Serial, 1); // DisableTx fails
        let err = w.agent.teardown_bypass(2, 3).unwrap_err();
        assert!(matches!(err, AgentError::Hypervisor(_)));
        // Best-effort teardown: no leaked segments or pairs, devices gone.
        assert_eq!(w.registry.live_of_kind(SegmentKind::Bypass).len(), 0);
        assert_eq!(w.agent.live_pairs(), 0);
        assert!(w.vms[0].plugged_devices().is_empty());
        assert!(w.vms[1].plugged_devices().is_empty());
    }

    #[test]
    fn unplug_failure_is_reported_but_state_is_freed() {
        let (w, faults) = faulty_world();
        w.agent.setup_bypass(2, 3, 1).unwrap();
        faults.arm(FaultOp::Unplug, 2);
        let err = w.agent.teardown_bypass(2, 3).unwrap_err();
        assert!(matches!(err, AgentError::Hypervisor(_)));
        assert_eq!(w.registry.live_of_kind(SegmentKind::Bypass).len(), 0);
        assert_eq!(w.agent.live_pairs(), 0);
        // The devices leak (QEMU kept them), which is exactly what the
        // error reports.
        assert!(!w.vms[0].plugged_devices().is_empty());
    }

    #[test]
    fn paper_latency_model_meets_the_100ms_claim() {
        let registry = ShmRegistry::new();
        let stats = StatsRegion::new();
        let (vm_end1, _s1) = channel("d1", 8);
        let (vm_end2, _s2) = channel("d2", 8);
        let vm_a = Vm::launch(
            "a",
            vec![(1, vm_end1)],
            Box::new(L2Forwarder::new()),
            stats.clone(),
        );
        let vm_b = Vm::launch("b", vec![(2, vm_end2)], Box::new(L2Forwarder::new()), stats);
        let agent = ComputeAgent::new(registry, LatencyModel::paper());
        agent.register_vm(vm_a);
        agent.register_vm(vm_b);
        let start = std::time::Instant::now();
        agent.setup_bypass(1, 2, 7).unwrap();
        let elapsed = start.elapsed();
        assert!(
            elapsed >= Duration::from_millis(60) && elapsed <= Duration::from_millis(250),
            "setup took {elapsed:?}, expected on the order of 100 ms"
        );
    }
}
