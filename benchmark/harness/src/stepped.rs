//! The stepped twins: each workload's topology driven run-to-completion
//! from this one thread, through the crates' public step functions only,
//! with one span around every call into a layer.
//!
//! A twin has no threads, so nothing polls an empty ring, yields or waits
//! for a core: what it prices is the per-packet (or per-flow_mod) work of
//! each layer and nothing else. The live run's distance from it is the
//! `budget.*` metrics' subject.

use crate::live::{Workload, CHURN_GAP};
use crate::load::{check_probe, Ends, FlowSet, BURST};
use crate::stats::Rng;
use crate::trace::Tracer;
use crate::worlds::{self, CHAIN_LEN, SWITCH_PAIRS};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vnf_highway::dpdk::{cycles, Arena, Mbuf};
use vnf_highway::highway::detect_p2p_links;
use vnf_highway::openflow::{
    framed_link, Action, Connection, FlowMatch, FlowMod, OfpMessage, PortNo,
};
use vnf_highway::ovs::pmd::Datapath;
use vnf_highway::ovs::{rss_owner, FlowTableObserver, Ofproto, OvsPort, PmdCaches, RuleSnapshot};
use vnf_highway::packet::{FlowKey, ProbeHeader};
use vnf_highway::shmem::{
    serial_pair, ChannelEnd, DeviceBoard, IvshmemDevice, SegmentKind, SerialPort, ShmRegistry,
    StatsRegion, DEFAULT_RING_DEPTH,
};
use vnf_highway::vnf::{DpdkrPmd, GuestConfig, L2Forwarder, PmdAck, PmdCtrl, VnfRunner};

/// What a twin run yields: the spans, and the twin's rate with spans
/// recorded and without.
pub struct Stepped {
    pub tracer: Tracer,
    /// Items (packets, flow_mods, cycles) per second, spans on / off.
    pub rate_on: f64,
    pub rate_off: f64,
    /// Checks of the twin's own output that did not hold.
    pub gates: Vec<String>,
}

/// Runs `workload`'s twin for `on` with spans and `off` without.
pub fn run(workload: Workload, seed: u64, on: Duration, off: Duration) -> Stepped {
    let mut gates = Vec::new();
    let mut pass = |spans: bool, dur: Duration| -> (Tracer, f64) {
        let mut tracer = Tracer::new(spans);
        let mut rng = Rng::new(seed.wrapping_mul(0x1_0000).wrapping_add(0x4000));
        let rate = match workload {
            Workload::CtrlInstall => install_twin(&mut rng, dur, &mut tracer, &mut gates),
            Workload::BypassSetup => bypass_twin(dur, &mut tracer, &mut gates),
            _ => Twin::build(workload, &mut rng, &mut tracer).run(dur, &mut tracer, &mut gates),
        };
        (tracer, rate)
    };
    let (tracer, rate_on) = pass(true, on);
    let (_, rate_off) = pass(false, off);
    Stepped {
        tracer,
        rate_on,
        rate_off,
        gates,
    }
}

// ------------------------------------------------------------------- guests

/// One VM without its vCPU thread: the runner is stepped by hand, and the
/// harness holds the host ends of its control serial and its device board
/// — the compute agent's whole view of a guest.
struct Guest {
    runner: VnfRunner,
    ctrl: SerialPort<PmdCtrl>,
    acks: SerialPort<PmdAck>,
    board: Arc<DeviceBoard>,
}

impl Guest {
    fn new(name: &str, ports: Vec<(u32, ChannelEnd)>, stats: &StatsRegion) -> Guest {
        let (host_ctrl, guest_ctrl) = serial_pair::<PmdCtrl>(format!("{name}-ctrl"));
        let (guest_ack, host_ack) = serial_pair::<PmdAck>(format!("{name}-ack"));
        let board = Arc::new(DeviceBoard::new());
        let runner = VnfRunner::new(
            GuestConfig {
                name: name.to_string(),
                ports: ports
                    .into_iter()
                    .map(|(no, end)| DpdkrPmd::new(no, end, stats.clone()))
                    .collect(),
                app: Box::new(L2Forwarder::new()),
                serial: guest_ctrl,
                ack_via: guest_ack,
                board: Arc::clone(&board),
            },
            Arc::new(AtomicBool::new(false)),
        );
        Guest {
            runner,
            ctrl: host_ctrl,
            acks: host_ack,
            board,
        }
    }

    /// One control request through the guest's own `poll_once`.
    fn request(&mut self, msg: PmdCtrl) -> bool {
        if self.ctrl.send(msg).is_err() {
            return false;
        }
        self.runner.poll_once();
        self.acks.try_recv().is_some_and(|ack| ack.ok)
    }
}

/// What the compute agent does to put the rule `src → dst` (and, with
/// `rev_cookie`, its mirror) on a bypass channel: a segment, an ivshmem
/// device in each VM, the arena mapped, then map / enable-rx / enable-tx
/// over each guest's serial.
fn wire_seam(
    registry: &ShmRegistry,
    arena: &Arena,
    (src_vm, src): (&mut Guest, u32),
    (dst_vm, dst): (&mut Guest, u32),
    cookie: u64,
    rev_cookie: Option<u64>,
    tr: &mut Tracer,
) -> bool {
    let segment = format!("bypass-{src}-{dst}");
    let e = tr.enter("shmem.create_channel");
    let (end_src, end_dst) =
        registry.create_channel(&segment, SegmentKind::Bypass, DEFAULT_RING_DEPTH);
    tr.exit(e, 1);
    let e = tr.enter("shmem.plug_device");
    src_vm.board.set_arena(arena);
    dst_vm.board.set_arena(arena);
    src_vm.board.plug(IvshmemDevice::new(&segment, end_src));
    dst_vm.board.plug(IvshmemDevice::new(&segment, end_dst));
    tr.exit(e, 2);
    let e = tr.enter("vnf.ctrl_apply");
    let map = |of_port| PmdCtrl::MapBypass {
        seq: 0,
        of_port,
        segment: segment.clone(),
    };
    let mut ok = src_vm.request(map(src)) && dst_vm.request(map(dst));
    ok &= dst_vm.request(PmdCtrl::EnableRx {
        seq: 0,
        of_port: dst,
    });
    ok &= src_vm.request(PmdCtrl::EnableTx {
        seq: 0,
        of_port: src,
        rule_cookie: cookie,
        peer_port: dst,
    });
    let mut requests = 4;
    if let Some(rev) = rev_cookie {
        ok &= src_vm.request(PmdCtrl::EnableRx {
            seq: 0,
            of_port: src,
        });
        ok &= dst_vm.request(PmdCtrl::EnableTx {
            seq: 0,
            of_port: dst,
            rule_cookie: rev,
            peer_port: src,
        });
        requests += 2;
    }
    tr.exit(e, requests);
    ok
}

/// The lossless teardown of `wire_seam`'s forward direction, then the
/// unplug and the release.
fn unwire_seam(
    registry: &ShmRegistry,
    (src_vm, src): (&mut Guest, u32),
    (dst_vm, dst): (&mut Guest, u32),
    tr: &mut Tracer,
) -> bool {
    let segment = format!("bypass-{src}-{dst}");
    let e = tr.enter("vnf.ctrl_teardown");
    let mut ok = src_vm.request(PmdCtrl::DisableTx {
        seq: 0,
        of_port: src,
    });
    ok &= dst_vm.request(PmdCtrl::DisableRxDrain {
        seq: 0,
        of_port: dst,
    });
    ok &= src_vm.request(PmdCtrl::UnmapBypass {
        seq: 0,
        of_port: src,
    });
    ok &= dst_vm.request(PmdCtrl::UnmapBypass {
        seq: 0,
        of_port: dst,
    });
    tr.exit(e, 4);
    let e = tr.enter("shmem.unplug_device");
    ok &= src_vm.board.unplug(&segment) && dst_vm.board.unplug(&segment);
    ok &= registry.release(&segment);
    tr.exit(e, 2);
    ok
}

// ----------------------------------------------------------- data-plane twin

#[derive(Clone, Copy)]
enum Step {
    /// One PMD iteration over every port.
    Switch,
    /// One `poll_once` of guest `i`.
    Guest(usize),
}

struct Twin {
    workload: Workload,
    dp: Arc<Datapath>,
    /// One cache set per PMD of the live workload.
    caches: Vec<Mutex<PmdCaches>>,
    ports: Vec<Arc<OvsPort>>,
    staged: BTreeMap<PortNo, Vec<Mbuf>>,
    guests: Vec<Guest>,
    ends: Ends,
    steps: Vec<Step>,
    arena: Arena,
    flows: FlowSet,
    /// The decoy churn of `switch_churn`.
    churn: Option<worlds::DecoyChurn>,
}

impl Twin {
    fn build(workload: Workload, rng: &mut Rng, tr: &mut Tracer) -> Twin {
        let registry = ShmRegistry::new();
        let arena = registry.hugepage_arena();
        let dp = Datapath::new(false);
        let port = |no: u32, name: &str| -> ChannelEnd {
            let (outer, sw_end) = registry.create_channel(
                format!("dpdkr{no}"),
                SegmentKind::DpdkrNormal,
                DEFAULT_RING_DEPTH,
            );
            dp.add_port(OvsPort::dpdkr(PortNo(no as u16), name, sw_end));
            outer
        };
        let mut guests = Vec::new();
        let mut steps = vec![Step::Switch];
        let ends;
        let rules;
        let pmds;
        let flows_per_entry;
        match workload {
            Workload::Chain4Highway | Workload::Chain4Vanilla => {
                let highway = workload == Workload::Chain4Highway;
                let stats = StatsRegion::new();
                ends = Ends {
                    entries: vec![port(1, "entry")],
                    exits: vec![port(2, "exit")],
                };
                // VM i owns ports 3+2i (in) and 4+2i (out), as deploy_chain
                // numbers them; seam rules both ways, forward cookies first.
                let mut hops = vec![(1u32, 3u32)];
                for i in 0..CHAIN_LEN as u32 {
                    let (p_in, p_out) = (3 + 2 * i, 4 + 2 * i);
                    guests.push(Guest::new(
                        &format!("vnf{i}"),
                        vec![(p_in, port(p_in, "vm-in")), (p_out, port(p_out, "vm-out"))],
                        &stats,
                    ));
                    hops.push((
                        p_out,
                        if i + 1 == CHAIN_LEN as u32 {
                            2
                        } else {
                            p_out + 1
                        },
                    ));
                }
                let mut table = Vec::new();
                for (k, (from, to)) in hops.iter().enumerate() {
                    for (cookie, a, b) in
                        [(0x1000 + k as u64, from, to), (0x2000 + k as u64, to, from)]
                    {
                        table.push(
                            FlowMod::add(
                                FlowMatch::in_port(PortNo(*a as u16)),
                                100,
                                vec![Action::Output(PortNo(*b as u16))],
                            )
                            .with_cookie(cookie),
                        );
                    }
                }
                rules = table;
                if highway {
                    for i in 0..CHAIN_LEN - 1 {
                        let (left, right) = guests.split_at_mut(i + 1);
                        let (src, dst) = (4 + 2 * i as u32, 5 + 2 * i as u32);
                        let wired = wire_seam(
                            &registry,
                            &arena,
                            (&mut left[i], src),
                            (&mut right[0], dst),
                            0x1001 + i as u64,
                            Some(0x2001 + i as u64),
                            tr,
                        );
                        assert!(wired, "twin bypass {src}->{dst} did not come up");
                    }
                }
                for i in 0..CHAIN_LEN {
                    steps.push(Step::Guest(i));
                    if !highway || i + 1 == CHAIN_LEN {
                        steps.push(Step::Switch);
                    }
                }
                pmds = 1;
                flows_per_entry = 4;
            }
            _ => {
                let mut e = Ends {
                    entries: Vec::new(),
                    exits: Vec::new(),
                };
                for p in 1..=u32::from(SWITCH_PAIRS) {
                    e.entries.push(port(p, "in"));
                    e.exits.push(port(100 + p, "out"));
                }
                ends = e;
                let churn = workload == Workload::SwitchChurn;
                rules = if churn {
                    worlds::churn_rules(rng)
                } else {
                    worlds::p2p_rules()
                };
                pmds = if workload == Workload::SwitchP2p2pmd {
                    2
                } else {
                    1
                };
                flows_per_entry = if churn { 4096 } else { 512 };
            }
        }
        for fm in &rules {
            dp.table_apply(fm);
        }
        let ports: Vec<Arc<OvsPort>> = dp.ports.read().values().cloned().collect();
        let flows = FlowSet::generate(rng, ends.entries.len(), flows_per_entry, 64);
        Twin {
            workload,
            dp,
            caches: (0..pmds)
                .map(|i| {
                    let mut c = PmdCaches::new();
                    c.perf.pmd = i;
                    Mutex::new(c)
                })
                .collect(),
            ports,
            staged: BTreeMap::new(),
            guests,
            ends,
            steps,
            arena,
            flows,
            churn: (workload == Workload::SwitchChurn)
                .then(|| worlds::DecoyChurn::new(Rng::new(rng.next_u64()))),
        }
    }

    /// One PMD iteration: poll every port, classify and stage what came,
    /// flush. With two PMDs a burst is first split by RSS owner and each
    /// share meets its owner's caches (the SPSC hand-off between the two
    /// PMDs has no public step and is left to `dpdk.ring_hop_ns`).
    fn switch_iter(&mut self, tr: &mut Tracer, rx: &mut Vec<Mbuf>) {
        let iter = tr.enter("ovs.pmd_iter");
        let now = cycles::now();
        let mut total = 0u64;
        for port in &self.ports {
            rx.clear();
            let e = tr.enter("ovs.rx_burst");
            let n = port.rx_burst(rx, BURST);
            tr.exit(e, n as u64);
            if n == 0 {
                continue;
            }
            total += n as u64;
            if self.caches.len() == 1 {
                let e = tr.enter("ovs.process_burst");
                self.dp.process_burst(
                    rx,
                    port.no,
                    Some(&self.caches[0]),
                    &mut self.staged,
                    &self.ports,
                    now,
                );
                tr.exit(e, n as u64);
                continue;
            }
            let e = tr.enter("ovs.fanout");
            let mut shares: Vec<Vec<Mbuf>> = (0..self.caches.len()).map(|_| Vec::new()).collect();
            for pkt in rx.drain(..) {
                let key = FlowKey::extract(pkt.data());
                shares[rss_owner(port.no, &key, self.caches.len())].push(pkt);
            }
            tr.exit(e, n as u64);
            for (owner, share) in shares.iter_mut().enumerate() {
                if share.is_empty() {
                    continue;
                }
                let k = share.len() as u64;
                let e = tr.enter("ovs.process_burst");
                self.dp.process_burst(
                    share,
                    port.no,
                    Some(&self.caches[owner]),
                    &mut self.staged,
                    &self.ports,
                    now,
                );
                tr.exit(e, k);
            }
        }
        let e = tr.enter("ovs.flush_staged");
        self.dp.flush_staged(&mut self.staged);
        tr.exit(e, total);
        tr.exit(iter, total);
    }

    /// One decoy add / modify / delete, as the live churn driver issues.
    fn churn_once(&mut self, tr: &mut Tracer) {
        let Some(churn) = self.churn.as_mut() else {
            return;
        };
        let fm = churn.next_mod();
        let root = tr.enter("churn_mod");
        let e = tr.enter("ovs.table_apply");
        self.dp.table_apply(&fm);
        tr.exit(e, 1);
        tr.exit(root, 1);
    }

    /// Bursts for `dur`; returns packets per second.
    fn run(mut self, dur: Duration, tr: &mut Tracer, gates: &mut Vec<String>) -> f64 {
        let n_entries = self.ends.entries.len();
        let n_flows = self.flows.flows();
        let mut next_send = vec![0u32; n_flows];
        let mut next_expect = vec![0u32; n_flows];
        let mut cursor = vec![0usize; n_entries];
        let mut frames: Vec<Vec<u8>> = (0..BURST).map(|_| Vec::with_capacity(64)).collect();
        let mut burst: Vec<Mbuf> = Vec::with_capacity(BURST);
        let mut rx: Vec<Mbuf> = Vec::with_capacity(2 * BURST);
        let mut out: Vec<Mbuf> = Vec::with_capacity(2 * BURST);
        let mut probes: Vec<Option<ProbeHeader>> = Vec::with_capacity(2 * BURST);
        let mut burst_flows = [0u32; BURST];
        let (mut sent, mut received, mut bad) = (0u64, 0u64, 0u64);
        let start = Instant::now();
        let mut next_churn = CHURN_GAP;
        let mut entry = 0;
        while start.elapsed() < dur {
            if self.churn.is_some() && start.elapsed() >= next_churn {
                next_churn += CHURN_GAP;
                self.churn_once(tr);
            }
            let root = tr.enter("burst");

            let e = tr.enter("nic.gen_burst");
            let order = self.flows.order(entry);
            for (frame, flow) in frames.iter_mut().zip(burst_flows.iter_mut()) {
                *flow = order[cursor[entry]];
                cursor[entry] = (cursor[entry] + 1) % order.len();
                frame.clear();
                frame.extend_from_slice(self.flows.template(*flow));
            }
            let now_ns = start.elapsed().as_nanos() as u64;
            let s = tr.enter("packet.probe_stamp");
            for (frame, flow) in frames.iter_mut().zip(burst_flows) {
                let seq = (u64::from(flow) << 32) | u64::from(next_send[flow as usize]);
                next_send[flow as usize] = next_send[flow as usize].wrapping_add(1);
                ProbeHeader::stamp_frame(frame, seq, now_ns);
            }
            tr.exit(s, BURST as u64);
            tr.exit(e, BURST as u64);

            let e = tr.enter("dpdk.arena_alloc");
            for frame in &frames {
                match self.arena.alloc_from(frame) {
                    Some(am) => burst.push(Mbuf::from_arena(am)),
                    None => bad += 1,
                }
            }
            tr.exit(e, burst.len() as u64);

            let e = tr.enter("shmem.send_burst");
            let n = self.ends.entries[entry].send_burst(&mut burst);
            tr.exit(e, n as u64);
            sent += n as u64;
            bad += burst.len() as u64;
            burst.clear();

            for i in 0..self.steps.len() {
                match self.steps[i] {
                    Step::Switch => self.switch_iter(tr, &mut rx),
                    Step::Guest(g) => {
                        let e = tr.enter("vnf.poll_once");
                        self.guests[g].runner.poll_once();
                        tr.exit(e, n as u64);
                    }
                }
            }

            let e = tr.enter("shmem.recv_burst");
            let got = self.ends.exits[entry].recv_burst(&mut out, 2 * BURST);
            tr.exit(e, got as u64);

            let e = tr.enter("nic.sink_consume");
            let p = tr.enter("packet.probe_parse");
            probes.clear();
            probes.extend(out.iter().map(|m| ProbeHeader::from_frame(m.data())));
            tr.exit(p, got as u64);
            for (m, probe) in out.iter().zip(&probes) {
                let ok = probe.is_some_and(|probe| {
                    check_probe(m.data(), &probe, &self.flows, &mut next_expect, entry)
                });
                bad += u64::from(!ok);
            }
            tr.exit(e, got as u64);
            received += got as u64;

            let e = tr.enter("dpdk.arena_free");
            out.clear();
            tr.exit(e, got as u64);

            tr.exit(root, got as u64);
            entry = (entry + 1) % n_entries;
        }
        let elapsed = start.elapsed().as_secs_f64();
        let stats = self.arena.stats();
        if bad > 0 || sent != received {
            gates.push(format!(
                "{} twin: sent {sent}, received {received}, bad {bad}",
                self.workload.name()
            ));
        }
        if stats.slab_writes != stats.allocs || stats.in_use != 0 || stats.foreign_frees != 0 {
            gates.push(format!(
                "{} twin: arena census {stats:?}",
                self.workload.name()
            ));
        }
        received as f64 / elapsed
    }
}

// --------------------------------------------------------- control-plane twins

/// `ctrl_install` stepped: the same batches, but this thread is switch and
/// controller in turn — `send_flow_mods`, `Ofproto::poll`, barrier.
fn install_twin(rng: &mut Rng, dur: Duration, tr: &mut Tracer, gates: &mut Vec<String>) -> f64 {
    let dp = Datapath::new(false);
    let ofproto = Ofproto::new(Arc::clone(&dp), 0xbe4c);
    let (conn, link) = framed_link();
    ofproto.attach_controller(link);
    ofproto.poll();
    if conn.handshake(Duration::from_secs(1)).is_err() {
        gates.push("install twin: handshake failed".into());
        return 0.0;
    }
    let rules = worlds::install_rules(rng);
    let start = Instant::now();
    let mut installed = 0u64;
    while start.elapsed() < dur {
        let root = tr.enter("install");
        for batch in rules.chunks(worlds::FLOWMOD_BATCH) {
            let e = tr.enter("of.send_flow_mods");
            let sent = conn.send_flow_mods(batch).is_ok();
            tr.exit(e, batch.len() as u64);
            let e = tr.enter("ovs.ofproto_poll");
            let handled = ofproto.poll();
            tr.exit(e, handled as u64);
            if !sent || handled != batch.len() {
                gates.push(format!("install twin: switch handled {handled} of a batch"));
            }
        }
        if !stepped_barrier(&conn, &ofproto, tr) {
            gates.push("install twin: barrier not acknowledged".into());
        }
        let table_len = dp.table().len();
        if table_len != rules.len() {
            gates.push(format!("install twin: table holds {table_len} rules"));
        }
        tr.exit(root, rules.len() as u64);
        installed += rules.len() as u64;

        let root = tr.enter("empty");
        let e = tr.enter("of.send");
        let _ = conn.send(&OfpMessage::FlowMod(FlowMod::delete(FlowMatch::any())));
        tr.exit(e, 1);
        let e = tr.enter("ovs.ofproto_poll");
        let handled = ofproto.poll();
        tr.exit(e, handled as u64);
        stepped_barrier(&conn, &ofproto, tr);
        let e = tr.enter("of.drain_flow_removed");
        let mut removed = 0;
        while conn.try_recv().is_some() {
            removed += 1;
        }
        tr.exit(e, removed);
        tr.exit(root, 1);
    }
    installed as f64 / start.elapsed().as_secs_f64()
}

/// A barrier with the reply fetched by hand: request, one switch poll,
/// reply.
fn stepped_barrier(conn: &Connection, ofproto: &Ofproto, tr: &mut Tracer) -> bool {
    let e = tr.enter("of.barrier");
    let xid = conn.send(&OfpMessage::BarrierRequest);
    let p = tr.enter("ovs.ofproto_poll");
    let handled = ofproto.poll();
    tr.exit(p, handled as u64);
    let mut acked = false;
    while let Some(msg) = conn.try_recv() {
        if let (Ok((OfpMessage::BarrierReply, x)), Ok(sent)) = (&msg, &xid) {
            acked |= x == sent;
        }
    }
    tr.exit(e, 1);
    acked
}

/// Captures the rule snapshot `Ofproto` hands its observers, the way the
/// highway manager receives it.
#[derive(Default)]
struct SnapshotObserver(Mutex<Vec<RuleSnapshot>>);

impl FlowTableObserver for SnapshotObserver {
    fn table_changed(&self, rules: &[RuleSnapshot]) {
        *self.0.lock() = rules.to_vec();
    }
}

/// `bypass_setup` stepped: flow_mod → detector → the agent's work on two
/// guests → rule deleted → teardown; the harness is switch main loop,
/// highway manager and compute agent in turn.
fn bypass_twin(dur: Duration, tr: &mut Tracer, gates: &mut Vec<String>) -> f64 {
    let registry = ShmRegistry::new();
    let arena = registry.hugepage_arena();
    let stats = StatsRegion::new();
    let dp = Datapath::new(false);
    let ofproto = Ofproto::new(Arc::clone(&dp), 0xbe4c);
    let observer = Arc::new(SnapshotObserver::default());
    ofproto.register_observer(Arc::clone(&observer) as Arc<dyn FlowTableObserver>);
    let port = |no: u32| -> (u32, ChannelEnd) {
        let (vm_end, sw_end) = registry.create_channel(
            format!("dpdkr{no}"),
            SegmentKind::DpdkrNormal,
            DEFAULT_RING_DEPTH,
        );
        dp.add_port(OvsPort::dpdkr(
            PortNo(no as u16),
            format!("dpdkr{no}"),
            sw_end,
        ));
        (no, vm_end)
    };
    let mut vm_a = Guest::new("vm-a", vec![port(1), port(2)], &stats);
    let mut vm_b = Guest::new("vm-b", vec![port(3), port(4)], &stats);
    let (src, dst) = (2u32, 3u32);
    let fmatch = FlowMatch::in_port(PortNo(src as u16));
    let start = Instant::now();
    let mut cycles_done = 0u64;
    while start.elapsed() < dur {
        let root = tr.enter("cycle");
        let cookie = 0xbe00 + cycles_done;
        let e = tr.enter("ovs.apply_flow_mod");
        ofproto.apply_flow_mod(
            &FlowMod::add(fmatch, 100, vec![Action::Output(PortNo(dst as u16))])
                .with_cookie(cookie),
        );
        tr.exit(e, 1);
        let e = tr.enter("highway.detect");
        let links = detect_p2p_links(&observer.0.lock());
        tr.exit(e, links.len() as u64);
        let mut ok = links
            .get(&src)
            .is_some_and(|l| l.dst == dst && l.cookie == cookie);
        ok &= wire_seam(
            &registry,
            &arena,
            (&mut vm_a, src),
            (&mut vm_b, dst),
            cookie,
            None,
            tr,
        );

        let e = tr.enter("ovs.apply_flow_mod");
        ofproto.apply_flow_mod(&FlowMod::delete_strict(fmatch, 100));
        tr.exit(e, 1);
        let e = tr.enter("highway.detect");
        let links = detect_p2p_links(&observer.0.lock());
        tr.exit(e, links.len() as u64);
        ok &= links.is_empty();
        ok &= unwire_seam(&registry, (&mut vm_a, src), (&mut vm_b, dst), tr);
        tr.exit(root, 1);
        cycles_done += 1;
        if !ok {
            gates.push(format!("bypass twin: cycle {cycles_done} did not complete"));
            break;
        }
    }
    cycles_done as f64 / start.elapsed().as_secs_f64()
}
