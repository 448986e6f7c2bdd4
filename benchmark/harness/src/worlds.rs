//! The systems under test, built from the crates' public constructors
//! exactly as an operator would: a highway node with a 4-VNF chain, a bare
//! vSwitch with eight port pairs, a switch with only a control channel,
//! and a node with two VMs whose seam rule comes and goes.

use crate::load::Ends;
use crate::stats::Rng;
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Duration;
use vnf_highway::dpdk::Arena;
use vnf_highway::highway::{HighwayNode, HighwayNodeConfig};
use vnf_highway::openflow::{
    framed_link, Action, Connection, ConnectionState, FlowMatch, FlowMod, FlowModCommand,
    OfpMessage, PortNo,
};
use vnf_highway::ovs::{VSwitchd, VSwitchdConfig};
use vnf_highway::shmem::{SegmentKind, ShmRegistry, DEFAULT_RING_DEPTH};
use vnf_highway::vm::{ChainDeployment, Vm, VnfSpec};

/// How long any single control-plane wait may take before it is a failure.
pub const CTRL_TIMEOUT: Duration = Duration::from_secs(10);

/// Polls `ready` until it holds, yielding between polls; false after
/// [`CTRL_TIMEOUT`].
///
/// Set-up waits use this and not the product's blocking helpers
/// (`handshake`, `barrier`, `wait_highway_converged`): those sleep 0.5–1 ms
/// between polls, which quantises a 1–2 ms set-up into whole sleeps, and
/// `setup_s` then jumps by half its value whenever the work lands on the
/// other side of a sleep boundary.
pub fn spin_until(mut ready: impl FnMut() -> bool) -> bool {
    let deadline = std::time::Instant::now() + CTRL_TIMEOUT;
    loop {
        if ready() {
            return true;
        }
        if std::time::Instant::now() > deadline {
            return false;
        }
        std::thread::yield_now();
    }
}

/// Drives `conn`'s handshake to `Ready`.
pub fn handshake(conn: &Connection) -> bool {
    spin_until(|| conn.poll_io().is_ok() && conn.state() == ConnectionState::Ready)
}

/// Sends a barrier and polls for its reply, discarding whatever
/// asynchronous messages arrive before it.
pub fn barrier(conn: &Connection) -> bool {
    let Ok(xid) = conn.send(&OfpMessage::BarrierRequest) else {
        return false;
    };
    spin_until(|| matches!(conn.try_recv(), Some(Ok((OfpMessage::BarrierReply, x))) if x == xid))
}

/// True once the control plane is quiescent and every detected link is
/// carried by a bypass: `HighwayNode::wait_highway_converged`'s condition.
pub fn converged(node: &HighwayNode) -> bool {
    spin_until(|| {
        let links_done = match node.manager() {
            Some(manager) => manager.is_converged(),
            None => true,
        };
        node.switch().control_idle() && links_done
    })
}

/// VNFs in the chain workloads.
pub const CHAIN_LEN: usize = 4;
/// Port pairs of the switch workloads: in-ports `1..=8`, out-ports `101..=108`.
pub const SWITCH_PAIRS: u16 = 8;
/// Flow_mods per `send_flow_mods` batch.
pub const FLOWMOD_BATCH: usize = 64;

pub struct ChainWorld {
    pub node: HighwayNode,
    pub dep: ChainDeployment,
    pub ctrl: Connection,
    pub ends: Ends,
    pub arena: Arena,
}

impl ChainWorld {
    /// Entry dpdkr → [`CHAIN_LEN`] forwarder VMs → exit dpdkr on a live
    /// node, with (`highway`) or without the bypass machinery; returns
    /// once the control plane is quiescent and every bypass is active.
    pub fn build(highway: bool, telemetry: bool) -> ChainWorld {
        let mut config = if highway {
            HighwayNodeConfig::default()
        } else {
            HighwayNodeConfig::vanilla()
        };
        config.switch.pmd_threads = 1;
        config.switch.telemetry = telemetry;
        let node = HighwayNode::new(config);
        let edge = |name: &str| {
            let no = node.orchestrator().alloc_port();
            let (harness_end, sw_end) = node.registry().create_channel(
                format!("dpdkr{no}"),
                SegmentKind::DpdkrNormal,
                DEFAULT_RING_DEPTH,
            );
            node.switch()
                .add_dpdkr_port(PortNo(no as u16), name, sw_end);
            (no, harness_end)
        };
        let (entry_no, entry) = edge("entry");
        let (exit_no, exit) = edge("exit");
        let dep = node
            .orchestrator()
            .deploy_chain(CHAIN_LEN, entry_no, exit_no, |i| {
                VnfSpec::forwarder(format!("vnf{i}"))
            });
        node.start();
        let ctrl = node.connect_controller();
        assert!(handshake(&ctrl), "controller handshake");
        assert!(
            converged(&node),
            "highway did not converge: {:?}",
            node.highway_failures()
        );
        let arena = node.registry().hugepage_arena();
        ChainWorld {
            node,
            dep,
            ctrl,
            ends: Ends {
                entries: vec![entry],
                exits: vec![exit],
            },
            arena,
        }
    }

    /// Switch ports on the VM↔VM seams (both sides of each inner seam).
    pub fn inner_seam_ports(&self) -> Vec<u32> {
        let mut ports = Vec::new();
        for i in 0..CHAIN_LEN - 1 {
            ports.push(self.dep.vm_ports[i].1);
            ports.push(self.dep.vm_ports[i + 1].0);
        }
        ports
    }

    pub fn shutdown(self) {
        self.node.stop();
        for vm in &self.dep.vms {
            vm.shutdown();
        }
    }
}

pub struct SwitchWorld {
    pub sw: VSwitchd,
    pub conn: Connection,
    pub ends: Ends,
    pub arena: Arena,
}

impl SwitchWorld {
    /// A bare vSwitch with [`SWITCH_PAIRS`] in→out dpdkr pairs and `rules`
    /// installed over the control channel; returns once a barrier
    /// acknowledged them.
    pub fn build(pmd_threads: usize, telemetry: bool, rules: &[FlowMod]) -> SwitchWorld {
        let sw = VSwitchd::new(VSwitchdConfig {
            pmd_threads,
            telemetry,
            ..VSwitchdConfig::default()
        });
        let registry = ShmRegistry::new();
        let mut ends = Ends {
            entries: Vec::new(),
            exits: Vec::new(),
        };
        for p in 1..=SWITCH_PAIRS {
            for (no, name, side) in [
                (p, format!("in{p}"), &mut ends.entries),
                (100 + p, format!("out{p}"), &mut ends.exits),
            ] {
                let (harness_end, sw_end) =
                    registry.create_channel(&name, SegmentKind::DpdkrNormal, DEFAULT_RING_DEPTH);
                sw.add_dpdkr_port(PortNo(no), name, sw_end);
                side.push(harness_end);
            }
        }
        let (conn, link) = framed_link();
        sw.attach_controller(link);
        sw.start();
        assert!(handshake(&conn), "controller handshake");
        for batch in rules.chunks(FLOWMOD_BATCH) {
            conn.send_flow_mods(batch).expect("install rules");
        }
        assert!(barrier(&conn), "install barrier");
        let arena = registry.hugepage_arena();
        SwitchWorld {
            sw,
            conn,
            ends,
            arena,
        }
    }
}

/// One `in_port=p → output:100+p` rule per pair: the `switch_p2p` table.
pub fn p2p_rules() -> Vec<FlowMod> {
    (1..=SWITCH_PAIRS)
        .map(|p| {
            FlowMod::add(
                FlowMatch::in_port(PortNo(p)),
                10,
                vec![Action::Output(PortNo(100 + p))],
            )
            .with_cookie(0x100 + u64::from(p))
        })
        .collect()
}

/// Rules of `switch_churn`: the eight forwarding rules plus decoys.
pub const CHURN_RULES: usize = 1024;

/// A decoy rule of shape `shape` (1..=3 → three masks besides the
/// forwarding rules' `in_port`-only one). Decoys sit at higher priority on
/// in-ports no traffic uses and pin L4 ports below 1024, which no probe
/// carries: they make every cold lookup walk all four subtables and widen
/// the megaflow mask, but never match.
pub fn decoy_rule(rng: &mut Rng, shape: usize, cookie: u64) -> FlowMod {
    let r = rng.next_u64();
    let mut m = FlowMatch::in_port(PortNo(200 + (r % 50) as u16));
    m.l4_dst = Some((r >> 8) as u16 % 1024);
    if shape >= 2 {
        m.l4_src = Some((r >> 24) as u16 % 1024);
    }
    if shape >= 3 {
        m.eth_type = Some(0x0800);
        m.ipv4_dst = Some((Ipv4Addr::new(10, 2, (r >> 40) as u8, 0), 24));
    }
    FlowMod::add(m, 300, vec![Action::Output(PortNo(3))]).with_cookie(cookie)
}

/// The flow_mods `switch_churn` issues beside the traffic: a fresh decoy
/// is added, modified, then deleted, and the cycle starts over. Decoys
/// never match a probe, so forwarding is never disturbed — only the table
/// generation, the caches and the published snapshot are.
pub struct DecoyChurn {
    rng: Rng,
    /// The decoy now in the table, as last sent.
    live: Option<FlowMod>,
}

impl DecoyChurn {
    pub fn new(rng: Rng) -> DecoyChurn {
        DecoyChurn { rng, live: None }
    }

    pub fn next_mod(&mut self) -> FlowMod {
        match self.live.take() {
            None => {
                let add = decoy_rule(&mut self.rng, 1, 0xc0_0000);
                self.live = Some(add.clone());
                add
            }
            Some(add) if add.command == FlowModCommand::Add => {
                let mut modify = add;
                modify.command = FlowModCommand::ModifyStrict;
                modify.actions = vec![Action::Output(PortNo(4))];
                self.live = Some(modify.clone());
                modify
            }
            Some(modified) => FlowMod::delete_strict(modified.fmatch, modified.priority),
        }
    }
}

/// The `switch_churn` table: [`CHURN_RULES`] distinct rules over four masks.
pub fn churn_rules(rng: &mut Rng) -> Vec<FlowMod> {
    let mut rules = p2p_rules();
    let mut seen = std::collections::HashSet::new();
    while rules.len() < CHURN_RULES {
        let fm = decoy_rule(rng, 1 + rules.len() % 3, 0x1_0000 + rules.len() as u64);
        if seen.insert(fm.fmatch) {
            rules.push(fm);
        }
    }
    rules
}

/// Rules one `ctrl_install` cycle installs.
pub const INSTALL_RULES: usize = 4096;
/// In-ports the install rules spread over. Flow stats are read back one
/// in-port at a time: a single OFPST_FLOW reply cannot carry more than
/// 65535 bytes, about 680 rules.
pub const INSTALL_PORTS: u16 = 16;

/// The `ctrl_install` rule set: [`INSTALL_RULES`] distinct rules, cookie =
/// index + 1, spread evenly over [`INSTALL_PORTS`] in-ports.
pub fn install_rules(rng: &mut Rng) -> Vec<FlowMod> {
    let mut rules = Vec::with_capacity(INSTALL_RULES);
    let mut seen = std::collections::HashSet::new();
    while rules.len() < INSTALL_RULES {
        let r = rng.next_u64();
        let i = rules.len();
        let mut m = FlowMatch::in_port(PortNo(1 + (i as u16 % INSTALL_PORTS)));
        m.eth_type = Some(0x0800);
        m.ip_proto = Some(17);
        m.ipv4_dst = Some((
            Ipv4Addr::new(10, (r >> 8) as u8, (r >> 16) as u8, r as u8),
            32,
        ));
        m.l4_dst = Some((r >> 32) as u16);
        if !seen.insert(m) {
            continue;
        }
        rules.push(
            FlowMod::add(
                m,
                100 + (r >> 48) as u16 % 8,
                vec![Action::Output(PortNo(100))],
            )
            .with_cookie(i as u64 + 1),
        );
    }
    rules
}

pub struct CtrlWorld {
    pub sw: VSwitchd,
    pub conn: Connection,
}

impl CtrlWorld {
    /// A live switch carrying no traffic, and its controller connection.
    pub fn build() -> CtrlWorld {
        let sw = VSwitchd::new(VSwitchdConfig {
            pmd_threads: 1,
            ..VSwitchdConfig::default()
        });
        let (conn, link) = framed_link();
        sw.attach_controller(link);
        sw.start();
        assert!(handshake(&conn), "controller handshake");
        CtrlWorld { sw, conn }
    }
}

pub struct BypassWorld {
    pub node: HighwayNode,
    pub ctrl: Connection,
    pub vms: Vec<Arc<Vm>>,
    /// The seam whose p-2-p rule the workload installs and removes.
    pub seam: (u32, u32),
}

impl BypassWorld {
    /// A highway node (zero hypervisor latency, so the code's own cost
    /// shows) with two 2-port forwarder VMs and no steering rule yet.
    pub fn build() -> BypassWorld {
        let mut config = HighwayNodeConfig::default();
        config.switch.pmd_threads = 1;
        let node = HighwayNode::new(config);
        let vm_a = node.orchestrator().create_vm(VnfSpec::forwarder("vm-a"), 2);
        let vm_b = node.orchestrator().create_vm(VnfSpec::forwarder("vm-b"), 2);
        let seam = (vm_a.of_ports()[1], vm_b.of_ports()[0]);
        node.start();
        let ctrl = node.connect_controller();
        assert!(handshake(&ctrl), "controller handshake");
        BypassWorld {
            node,
            ctrl,
            vms: vec![vm_a, vm_b],
            seam,
        }
    }

    pub fn shutdown(self) {
        self.node.stop();
        for vm in &self.vms {
            vm.shutdown();
        }
    }
}
