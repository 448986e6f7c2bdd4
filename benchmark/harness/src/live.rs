//! The live runs: each workload on real threads, measured from outside.
//!
//! One run spreads its time over several fresh world instances, because
//! where the scheduler places the product's threads differs per instance
//! and stays put within one.

use crate::host;
use crate::load::{Ends, FlowSet, LoadGen, Paced, WINDOW};
use crate::stats::{self, Rng};
use crate::worlds::{self, BypassWorld, ChainWorld, CtrlWorld, SwitchWorld, CTRL_TIMEOUT};
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};
use vnf_highway::dpdk::Arena;
use vnf_highway::openflow::{
    Action, Connection, FlowMatch, FlowMod, FlowStatsRequest, OfpMessage, PortNo,
};
use vnf_highway::ovs::pmd::Datapath;
use vnf_highway::telemetry::{Stage, TelemetrySnapshot};

/// Discarded saturation time at the start of every data-plane instance.
pub const WARMUP: Duration = Duration::from_millis(50);
/// Measured windows of one data-plane instance.
pub const INSTANCE_WINDOWS: usize = 2;
/// Set-ups a control-workload run times at least, its instances included.
const SETUPS: usize = 24;
/// How long in-flight probes get to come out once the generator stops.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(2);
/// Time between two flow_mods of the `switch_churn` control driver: 20 a second.
pub const CHURN_GAP: Duration = Duration::from_millis(50);

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    Chain4Highway,
    Chain4Vanilla,
    SwitchP2p,
    SwitchP2p2pmd,
    SwitchChurn,
    CtrlInstall,
    BypassSetup,
}

impl Workload {
    pub const ALL: [Workload; 7] = [
        Workload::Chain4Highway,
        Workload::Chain4Vanilla,
        Workload::SwitchP2p,
        Workload::SwitchP2p2pmd,
        Workload::SwitchChurn,
        Workload::CtrlInstall,
        Workload::BypassSetup,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Chain4Highway => "chain4_highway",
            Workload::Chain4Vanilla => "chain4_vanilla",
            Workload::SwitchP2p => "switch_p2p",
            Workload::SwitchP2p2pmd => "switch_p2p_2pmd",
            Workload::SwitchChurn => "switch_churn",
            Workload::CtrlInstall => "ctrl_install",
            Workload::BypassSetup => "bypass_setup",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What this workload's `throughput` counts, and in which unit the
    /// issue's tables name it.
    pub fn throughput_is(self) -> &'static str {
        match self {
            Workload::CtrlInstall => "flowmod_per_s",
            Workload::BypassSetup => "bypass_cycles_per_s",
            _ => "fwd_pps",
        }
    }

    /// What this workload's `latency_p50_us` times.
    pub fn latency_is(self) -> &'static str {
        match self {
            Workload::SwitchChurn | Workload::CtrlInstall => "barrier_rtt_us_p50",
            Workload::BypassSetup => "bypass_setup_ms_p50 (in us)",
            _ => "fwd_lat_p50_us",
        }
    }

    /// Offered rate of the open-loop phase; `None` = saturation only.
    fn paced_rate(self) -> Option<f64> {
        match self {
            Workload::Chain4Highway | Workload::Chain4Vanilla => Some(100_000.0),
            Workload::SwitchP2p | Workload::SwitchP2p2pmd => Some(500_000.0),
            _ => None,
        }
    }

    fn flows_per_entry(self) -> usize {
        match self {
            Workload::Chain4Highway | Workload::Chain4Vanilla => 4,
            // 8 x 512 = 4096 flows: inside the 8192-entry EMC.
            Workload::SwitchP2p | Workload::SwitchP2p2pmd => 512,
            // 8 x 4096 = 32768 flows: four times the EMC, half the megaflow.
            Workload::SwitchChurn => 4096,
            Workload::CtrlInstall | Workload::BypassSetup => 0,
        }
    }

    /// Threads of the system under test (the harness adds one).
    pub fn sut_threads(self) -> usize {
        match self {
            // pmd + ovs-main + highway-manager + one vCPU per VM
            Workload::Chain4Highway => 2 + 1 + worlds::CHAIN_LEN,
            Workload::Chain4Vanilla => 2 + worlds::CHAIN_LEN,
            Workload::SwitchP2p | Workload::SwitchChurn | Workload::CtrlInstall => 2,
            Workload::SwitchP2p2pmd => 3,
            Workload::BypassSetup => 2 + 1 + 2,
        }
    }
}

/// Named sums and maxima read from the product's public counters.
#[derive(Default)]
pub struct Counters(pub BTreeMap<&'static str, f64>);

impl Counters {
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.0.entry(name).or_insert(0.0) += v;
    }

    pub fn max(&mut self, name: &'static str, v: f64) {
        let e = self.0.entry(name).or_insert(0.0);
        *e = e.max(v);
    }

    pub fn set(&mut self, name: &'static str, v: f64) {
        self.0.insert(name, v);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// `num / den`, or 0 when the denominator never counted anything.
    pub fn ratio(&self, num: &str, den: &str) -> f64 {
        let d = self.get(den);
        if d == 0.0 {
            0.0
        } else {
            self.get(num) / d
        }
    }
}

/// Everything one live run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness gates that did not hold.
    pub gates: Vec<String>,
    /// Conditions under which the numbers should not be trusted.
    pub problems: Vec<String>,
    /// One sample per window (data plane, bypass) or per install repeat.
    pub throughput: Vec<f64>,
    /// One median per window.
    pub latency_us: Vec<f64>,
    pub setup_s: Vec<f64>,
    pub counters: Counters,
    /// Tail of the paced phase (last instance) and generator lateness.
    pub lat_p90_us: f64,
    pub lat_p99_us: f64,
    /// `bypass_setup`: flow_mod sent → link detected, per cycle.
    pub detect_us: Vec<f64>,
    /// Link detected → bypass active, per `SetupRecord` of the run.
    pub activate_us: Vec<f64>,
    pub gen_late_p50_us: f64,
    pub gen_late_p99_us: f64,
    pub gen_ceiling_pps: f64,
    pub paced_rate: f64,
}

impl Outcome {
    fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.gates.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.gates.is_empty()
    }
}

/// Time plan of one data-plane instance.
#[derive(Clone, Copy)]
pub struct Plan {
    pub warmup: Duration,
    /// Saturation windows, then paced windows, of [`WINDOW`] each.
    pub saturate: usize,
    pub paced: usize,
    pub frame_len: usize,
    pub telemetry: bool,
}

/// The plan of one instance of `workload`: a warm-up, then one saturation
/// window and one paced window, or two saturation windows where nothing
/// is paced.
pub fn plan_for(workload: Workload) -> Plan {
    let paced = usize::from(workload.paced_rate().is_some());
    Plan {
        warmup: WARMUP,
        saturate: INSTANCE_WINDOWS - paced,
        paced,
        frame_len: 64,
        telemetry: true,
    }
}

/// How many world instances a run of `seconds` measured seconds uses.
/// Where the scheduler queues the product's threads differs per instance,
/// stays put within one, and moves latency in steps of a whole polling
/// round; so data-plane runs trade instance length for instance count.
pub fn instances_for(workload: Workload, seconds: f64) -> usize {
    match workload {
        Workload::CtrlInstall | Workload::BypassSetup => 4,
        _ => (seconds / (WINDOW * INSTANCE_WINDOWS as u32).as_secs_f64())
            .floor()
            .max(1.0) as usize,
    }
}

/// Runs `workload` live for about `seconds` of measured time: its
/// instances, then further set-ups, then the checks of the run itself
/// (generator headroom and lateness).
pub fn run(workload: Workload, seed: u64, seconds: f64) -> Outcome {
    let instances = instances_for(workload, seconds);
    let mut out = run_instances(workload, seed, seconds, instances, plan_for(workload));
    // Further set-ups only, so the set-up median never rests on a handful.
    for _ in out.setup_s.len()..SETUPS {
        setup_only(workload, &mut out);
    }
    if out.gen_ceiling_pps > 0.0 {
        let headroom = out.gen_ceiling_pps / stats::median(&out.throughput).max(1.0);
        if headroom < 1.5 {
            out.problems.push(format!(
                "generator headroom {headroom:.2} < 1.5: fwd_pps may measure the generator"
            ));
        }
    }
    // The median, not the p99: with more runnable threads than cores the
    // p99 is one scheduler slice on any host, busy or quiet, while a late
    // median means the typical probe missed its slot.
    if out.paced_rate > 0.0 && out.gen_late_p50_us > 10.0 * 1e6 / out.paced_rate {
        out.problems.push(format!(
            "generator ran {:.1} us late at the median, over ten inter-send gaps",
            out.gen_late_p50_us
        ));
    }
    out
}

/// `instances` instances of `workload`, data-plane ones under `plan`; the
/// control workloads share `seconds` between their instances.
pub fn run_instances(
    workload: Workload,
    seed: u64,
    seconds: f64,
    instances: usize,
    plan: Plan,
) -> Outcome {
    let mut out = Outcome::default();
    let mut gauge = host::HostGauge::default();
    gauge.sample();
    for i in 0..instances {
        let mut rng = Rng::new(seed.wrapping_mul(0x1_0000).wrapping_add(i as u64));
        match workload {
            Workload::CtrlInstall => ctrl_install(&mut rng, seconds / instances as f64, &mut out),
            Workload::BypassSetup => bypass_setup(seconds / instances as f64, &mut out),
            _ => dataplane(workload, &mut rng, plan, &mut out),
        }
        gauge.sample();
    }
    out.counters.set("host.spin_score", gauge.score());
    let lowest = gauge.lowest_ratio();
    if lowest < 0.9 {
        out.problems.push(format!(
            "host gauge fell to {lowest:.2} of its own median: the host was busy with something else"
        ));
    }
    out
}

// ---------------------------------------------------------------- data plane

/// One world instance of a data-plane workload: set-up, warm-up,
/// saturation windows, paced windows, drain, checks, teardown.
fn dataplane(workload: Workload, rng: &mut Rng, plan: Plan, out: &mut Outcome) {
    let t0 = Instant::now();
    match workload {
        Workload::Chain4Highway | Workload::Chain4Vanilla => {
            let highway = workload == Workload::Chain4Highway;
            let mut world = host::build_system(|| ChainWorld::build(highway, plan.telemetry));
            let flows = FlowSet::generate(rng, 1, workload.flows_per_entry(), plan.frame_len);
            let mut gen = LoadGen::new(world.arena.clone(), flows);
            let first = gen.first_probe(&mut world.ends, CTRL_TIMEOUT);
            out.setup_s.push(t0.elapsed().as_secs_f64());
            out.gate(first, || "first probe was not delivered".into());
            phases(workload, plan, &mut gen, &mut world.ends, &mut || {}, out);
            check_chain(&world, &gen, highway, out);
            read_datapath(&world.node.switch().datapath(), &gen, out);
            read_telemetry(&world.node.telemetry_snapshot(), out);
            world.shutdown();
        }
        Workload::SwitchP2p | Workload::SwitchP2p2pmd | Workload::SwitchChurn => {
            let pmds = if workload == Workload::SwitchP2p2pmd {
                2
            } else {
                1
            };
            let churn = workload == Workload::SwitchChurn;
            let rules = if churn {
                worlds::churn_rules(rng)
            } else {
                worlds::p2p_rules()
            };
            let mut world = host::build_system(|| SwitchWorld::build(pmds, plan.telemetry, &rules));
            let flows = FlowSet::generate(
                rng,
                worlds::SWITCH_PAIRS as usize,
                workload.flows_per_entry(),
                plan.frame_len,
            );
            let mut gen = LoadGen::new(world.arena.clone(), flows);
            let first = gen.first_probe(&mut world.ends, CTRL_TIMEOUT);
            out.setup_s.push(t0.elapsed().as_secs_f64());
            out.gate(first, || "first probe was not delivered".into());
            if churn {
                let mut churner = Churner::new(&world.conn, Rng::new(rng.next_u64()));
                phases(
                    workload,
                    plan,
                    &mut gen,
                    &mut world.ends,
                    &mut || churner.tick(),
                    out,
                );
                churner.finish(out);
            } else {
                phases(workload, plan, &mut gen, &mut world.ends, &mut || {}, out);
            }
            let dp = world.sw.datapath();
            read_datapath(&dp, &gen, out);
            read_telemetry(&world.sw.telemetry_snapshot(), out);
            world.sw.stop();
        }
        Workload::CtrlInstall | Workload::BypassSetup => unreachable!("not a data-plane workload"),
    }
}

/// The measured phases shared by every data-plane world, then the drain
/// and the arena census.
fn phases(
    workload: Workload,
    plan: Plan,
    gen: &mut LoadGen,
    ends: &mut Ends,
    background: &mut dyn FnMut(),
    out: &mut Outcome,
) {
    // The generator alone: what `fwd_pps` would read if the system cost
    // nothing.
    if out.gen_ceiling_pps == 0.0 {
        out.gen_ceiling_pps = gen.ceiling(Duration::from_millis(100));
    }
    gen.saturate(ends, plan.warmup, 1, background);

    let cpu0 = host::process_cpu_ns() - host::thread_cpu_ns();
    let received0 = gen.received;
    let rates = gen.saturate(ends, WINDOW, plan.saturate, background);
    let cpu1 = host::process_cpu_ns() - host::thread_cpu_ns();
    out.counters.add("budget.live_cpu_ns", (cpu1 - cpu0) as f64);
    out.counters
        .add("budget.live_pkts", (gen.received - received0) as f64);
    out.throughput.extend(rates);

    if let (Some(rate), true) = (workload.paced_rate(), plan.paced > 0) {
        // Let the saturation backlog clear so the first paced probes do
        // not queue behind it.
        gen.drain(ends, DRAIN_TIMEOUT);
        let Paced {
            window_p50_us,
            p90_us,
            p99_us,
            samples,
            late_p50_us,
            late_p99_us,
        } = gen.paced(ends, rate, WINDOW * plan.paced as u32);
        out.latency_us.extend(window_p50_us);
        out.lat_p90_us = p90_us;
        out.lat_p99_us = p99_us;
        out.gen_late_p50_us = out.gen_late_p50_us.max(late_p50_us);
        out.gen_late_p99_us = out.gen_late_p99_us.max(late_p99_us);
        out.paced_rate = rate;
        out.counters.add("nic.paced_samples", samples as f64);
    }

    let drained = gen.drain(ends, DRAIN_TIMEOUT);
    out.attempted += gen.sent;
    out.failed += gen.bad + gen.in_flight();
    out.gate(drained, || {
        format!("{} probes never came out", gen.in_flight())
    });
    out.gate(gen.bad == 0, || {
        format!("{} probes out of order, duplicated or corrupted", gen.bad)
    });
    out.counters.add("shmem.send_calls", gen.send_calls as f64);
    out.counters
        .add("shmem.send_refusals", gen.send_refusals as f64);
    out.counters.max(
        "dpdk.arena_credit_pending_max",
        gen.credit_pending_max as f64,
    );
    for end in ends.entries.iter().chain(ends.exits.iter()) {
        let s = end.stats();
        out.counters.add("shmem.desc_sent", s.desc_sent as f64);
        out.counters.add("shmem.boxed_sent", s.boxed_sent as f64);
        out.counters
            .add("shmem.unmapped_drops", s.unmapped_drops as f64);
    }
}

/// Arena census after the drain: every slot home, one slab write per
/// packet, nothing foreign.
fn check_arena(arena: &Arena, out: &mut Outcome) {
    let s = arena.stats();
    out.gate(s.in_use == 0, || {
        format!("arena: {} slots still in use after the drain", s.in_use)
    });
    out.gate(s.slab_writes == s.allocs, || {
        format!(
            "arena: {} slab writes for {} allocs",
            s.slab_writes, s.allocs
        )
    });
    out.gate(s.foreign_frees == 0, || {
        format!("arena: {} foreign frees", s.foreign_frees)
    });
    out.gate(s.alloc_failures == 0, || {
        format!("arena: {} allocation failures", s.alloc_failures)
    });
    out.counters.add("dpdk.arena_allocs", s.allocs as f64);
    out.counters
        .add("dpdk.arena_slab_writes", s.slab_writes as f64);
    out.counters
        .add("dpdk.arena_cow_copies", s.cow_copies as f64);
    out.counters
        .add("dpdk.arena_alloc_failures", s.alloc_failures as f64);
    out.counters
        .add("dpdk.arena_foreign_frees", s.foreign_frees as f64);
    out.counters
        .max("dpdk.arena_high_water", s.high_water as f64);
}

/// Switch-side counters and the cache-stats identity.
fn read_datapath(dp: &Datapath, gen: &LoadGen, out: &mut Outcome) {
    check_arena(gen.arena(), out);
    let s = dp.cache_stats();
    let miss_drops = dp.miss_drops.load(Ordering::Relaxed);
    let hits = s.emc_hits + s.megaflow_hits + s.classifier_hits;
    out.gate(s.lookups == hits + miss_drops && s.matched == hits, || {
        format!(
            "cache stats: {} lookups != {hits} hits + {miss_drops} misses",
            s.lookups
        )
    });
    out.gate(miss_drops == 0, || {
        format!("{miss_drops} probes missed the flow table")
    });
    let (mut ipackets, mut odropped) = (0u64, 0u64);
    for port in dp.ports.read().values() {
        let st = port.stats();
        ipackets += st.ipackets;
        odropped += st.odropped;
    }
    let fanout_drops = dp.fanout_drops.load(Ordering::Relaxed);
    out.gate(
        odropped == 0 && fanout_drops == 0 && s.tx_no_port_drops == 0,
        || {
            format!(
                "switch dropped packets: tx {odropped}, fan-out {fanout_drops}, no-port {}",
                s.tx_no_port_drops
            )
        },
    );
    let c = &mut out.counters;
    c.add("ovs.lookups", s.lookups as f64);
    c.add("ovs.emc_hits", s.emc_hits as f64);
    c.add("ovs.megaflow_hits", s.megaflow_hits as f64);
    c.add("ovs.classifier_hits", s.classifier_hits as f64);
    c.add("ovs.misses", miss_drops as f64);
    c.add("ovs.port_ipackets", ipackets as f64);
    c.add("ovs.tx_drops", odropped as f64);
    c.add("ovs.fanout_drops", fanout_drops as f64);
    c.add("ovs.tx_no_port_drops", s.tx_no_port_drops as f64);
    c.add("nic.delivered", gen.received as f64);
}

fn read_telemetry(snap: &TelemetrySnapshot, out: &mut Outcome) {
    let agg = snap.aggregate();
    let c = &mut out.counters;
    c.add("ovs.busy_cycles", agg.busy_cycles as f64);
    c.add("ovs.idle_cycles", agg.idle_cycles as f64);
    c.add("ovs.fanout_sent", agg.fanout_sent as f64);
    c.add("ovs.rx_packets", agg.rx_packets as f64);
    c.max(
        "ovs.stage_fanout_p99_cycles",
        snap.stage_summary(Stage::Fanout).p99 as f64,
    );
    c.max(
        "ovs.stage_tx_flush_p99_cycles",
        snap.stage_summary(Stage::TxFlush).p99 as f64,
    );
    // Doorbell totals are process-wide and cumulative: keep the latest.
    c.set("shmem.doorbell_rings", snap.doorbells.rings as f64);
    c.set(
        "shmem.doorbell_suppressed",
        snap.doorbells.suppressed as f64,
    );
}

/// The paper's transparency claim, checked on the live chain: the
/// controller's flow stats count every probe on every seam whether or not
/// the seam is bypassed, while the switch itself never saw the bypassed
/// ones.
fn check_chain(world: &ChainWorld, gen: &LoadGen, highway: bool, out: &mut Outcome) {
    let delivered = gen.received;
    match world.ctrl.flow_stats(CTRL_TIMEOUT) {
        Ok(entries) => {
            for cookie in &world.dep.forward_cookies {
                let count = entries
                    .iter()
                    .find(|e| e.cookie == *cookie)
                    .map(|e| e.packet_count);
                out.gate(count == Some(delivered), || {
                    format!("flow stats of seam {cookie:#x}: {count:?}, delivered {delivered}")
                });
            }
        }
        Err(e) => out.gates.push(format!("flow stats request failed: {e}")),
    }
    let dp = world.node.switch().datapath();
    let links = world.node.active_links().len();
    let failures = world.node.highway_failures();
    out.gate(failures.is_empty(), || {
        format!("highway failures: {failures:?}")
    });
    if highway {
        for no in world.inner_seam_ports() {
            let rx = dp.port(PortNo(no as u16)).map(|p| p.stats().ipackets);
            out.gate(rx == Some(0), || {
                format!("bypassed seam port {no} still received {rx:?} packets on the switch")
            });
        }
        let expect = 2 * (worlds::CHAIN_LEN - 1);
        out.gate(links == expect, || {
            format!("{links} active bypass links, expected {expect}")
        });
        // Packets the inner seams carried over bypass channels.
        let inner = &world.dep.forward_cookies[1..worlds::CHAIN_LEN];
        let bypassed: u64 = inner
            .iter()
            .map(|c| world.node.stats().rule_totals(*c).0)
            .sum();
        out.counters.add("highway.bypassed_pkts", bypassed as f64);
        out.counters.add(
            "highway.inner_seam_pkts",
            (delivered * inner.len() as u64) as f64,
        );
    } else {
        out.gate(links == 0, || {
            format!("vanilla node has {links} bypass links")
        });
    }
    out.counters.set("highway.active_links", links as f64);
    out.counters.add("highway.failures", failures.len() as f64);
    for rec in world.node.setup_log() {
        out.activate_us.push(rec.setup_time().as_secs_f64() * 1e6);
    }
    let (mut forwarded, mut dropped) = (0u64, 0u64);
    for vm in &world.dep.vms {
        forwarded += vm.counters().forwarded.load(Ordering::Relaxed);
        dropped += vm.counters().dropped.load(Ordering::Relaxed);
    }
    out.gate(
        forwarded == delivered * worlds::CHAIN_LEN as u64 && dropped == 0,
        || format!("VNFs forwarded {forwarded} and dropped {dropped} for {delivered} delivered"),
    );
    out.counters.add("vnf.forwarded", forwarded as f64);
    out.counters.add("vnf.dropped", dropped as f64);
}

/// The control-plane driver of `switch_churn`: every 1/20 s one add,
/// modify or delete of a decoy rule, fenced by a barrier, issued and
/// awaited without ever blocking the generator loop it runs inside.
struct Churner<'a> {
    conn: &'a Connection,
    mods: worlds::DecoyChurn,
    next_due: Instant,
    outstanding: Option<(u32, Instant)>,
    issued: u64,
    failed: u64,
    rtt_ns: Vec<u32>,
}

impl<'a> Churner<'a> {
    fn new(conn: &'a Connection, rng: Rng) -> Churner<'a> {
        Churner {
            conn,
            mods: worlds::DecoyChurn::new(rng),
            next_due: Instant::now() + CHURN_GAP,
            outstanding: None,
            issued: 0,
            failed: 0,
            rtt_ns: Vec::new(),
        }
    }

    fn tick(&mut self) {
        let now = Instant::now();
        if let Some((xid, sent_at)) = self.outstanding {
            while let Some(msg) = self.conn.try_recv() {
                match msg {
                    Ok((OfpMessage::BarrierReply, x)) if x == xid => {
                        self.rtt_ns
                            .push(sent_at.elapsed().as_nanos().min(u32::MAX as u128) as u32);
                        self.outstanding = None;
                        return;
                    }
                    Ok(_) => {} // FlowRemoved of our own deletes
                    Err(_) => {
                        self.failed += 1;
                        self.outstanding = None;
                        return;
                    }
                }
            }
            if now - sent_at > CTRL_TIMEOUT {
                self.failed += 1;
                self.outstanding = None;
            }
        } else if now >= self.next_due {
            self.next_due += CHURN_GAP;
            let fm = self.mods.next_mod();
            self.issued += 1;
            let sent_at = Instant::now();
            let sent = self
                .conn
                .send(&OfpMessage::FlowMod(fm))
                .and_then(|_| self.conn.send(&OfpMessage::BarrierRequest));
            match sent {
                Ok(xid) => self.outstanding = Some((xid, sent_at)),
                Err(_) => self.failed += 1,
            }
        }
    }

    /// Waits out the last barrier and folds the results into `out`: one
    /// latency sample, the median round trip of this instance's mods.
    fn finish(mut self, out: &mut Outcome) {
        let deadline = Instant::now() + CTRL_TIMEOUT;
        while self.outstanding.is_some() && Instant::now() < deadline {
            self.tick();
            std::thread::yield_now();
        }
        out.attempted += self.issued;
        out.failed += self.failed + u64::from(self.outstanding.is_some());
        out.counters.add("of.churn_mods", self.rtt_ns.len() as f64);
        if !self.rtt_ns.is_empty() {
            out.latency_us
                .push(stats::quantile_us(&mut self.rtt_ns, 0.5));
        }
    }
}

// ------------------------------------------------------------- control plane

/// Share of a `ctrl_install` instance spent installing; the rest issues
/// idle barriers.
const INSTALL_SHARE: f64 = 0.75;
/// Barriers per latency sample.
const BARRIERS_PER_SAMPLE: usize = 100;

fn ctrl_install(rng: &mut Rng, seconds: f64, out: &mut Outcome) {
    let t0 = Instant::now();
    let world = host::build_system(CtrlWorld::build);
    let conn = &world.conn;
    let up = worlds::barrier(conn);
    out.setup_s.push(t0.elapsed().as_secs_f64());
    out.attempted += 1;
    out.gate(up, || "first barrier was not acknowledged".into());

    let rules = worlds::install_rules(rng);
    let start = Instant::now();
    let install_until = start + Duration::from_secs_f64(seconds * INSTALL_SHARE);
    let until = start + Duration::from_secs_f64(seconds);
    let mut installs = 0;
    while installs == 0 || Instant::now() < install_until {
        installs += 1;
        let t = Instant::now();
        let mut ok = true;
        for batch in rules.chunks(worlds::FLOWMOD_BATCH) {
            ok &= conn.send_flow_mods(batch).is_ok();
            out.counters
                .max("of.unacked_max", conn.unacked_flow_mods() as f64);
        }
        ok &= conn.barrier(CTRL_TIMEOUT).is_ok();
        let dt = t.elapsed().as_secs_f64();
        out.attempted += rules.len() as u64 + 1;
        if ok {
            out.throughput.push(rules.len() as f64 / dt);
        } else {
            out.failed += 1;
        }
        check_installed(conn, rules.len(), out);
        // Empty the table again; a controller also reads the FlowRemoved
        // notices, or they pile up in front of every later reply.
        let emptied = conn
            .send(&OfpMessage::FlowMod(FlowMod::delete(FlowMatch::any())))
            .is_ok()
            && conn.barrier(CTRL_TIMEOUT).is_ok();
        out.gate(emptied, || "emptying the table failed".into());
        while conn.try_recv().is_some() {}
    }
    out.counters.add("of.installs", installs as f64);

    let mut rtts: Vec<u32> = Vec::new();
    while rtts.len() < 2 * BARRIERS_PER_SAMPLE || Instant::now() < until {
        let t = Instant::now();
        let ok = conn.barrier(CTRL_TIMEOUT).is_ok();
        rtts.push(t.elapsed().as_nanos().min(u32::MAX as u128) as u32);
        out.attempted += 1;
        out.failed += u64::from(!ok);
    }
    out.counters.add("of.idle_barriers", rtts.len() as f64);
    for chunk in rtts.chunks_mut(BARRIERS_PER_SAMPLE) {
        if chunk.len() == BARRIERS_PER_SAMPLE {
            out.latency_us.push(stats::quantile_us(chunk, 0.5));
        }
    }
    world.sw.stop();
}

/// Reads the table back one in-port at a time and checks it holds exactly
/// the cookies `1..=n`.
fn check_installed(conn: &Connection, n: usize, out: &mut Outcome) {
    let mut cookies = Vec::with_capacity(n);
    for p in 1..=worlds::INSTALL_PORTS {
        let req = OfpMessage::FlowStatsRequest(FlowStatsRequest {
            fmatch: FlowMatch::in_port(PortNo(p)),
            out_port: PortNo::NONE,
        });
        match conn.request_reply(&req, CTRL_TIMEOUT) {
            Ok(OfpMessage::FlowStatsReply(entries)) => {
                cookies.extend(entries.iter().map(|e| e.cookie));
            }
            other => {
                out.gates
                    .push(format!("flow stats of in_port {p}: {other:?}"));
                return;
            }
        }
    }
    cookies.sort_unstable();
    let exact = cookies.len() == n && cookies.iter().zip(1..).all(|(c, i)| *c == i);
    out.gate(exact, || {
        format!(
            "table read back {} cookies, expected exactly 1..={n}",
            cookies.len()
        )
    });
}

fn bypass_setup(seconds: f64, out: &mut Outcome) {
    let t0 = Instant::now();
    let world = host::build_system(BypassWorld::build);
    let up = worlds::barrier(&world.ctrl);
    out.setup_s.push(t0.elapsed().as_secs_f64());
    out.attempted += 1;
    out.gate(up, || "first barrier was not acknowledged".into());

    let (src, dst) = world.seam;
    let fmatch = FlowMatch::in_port(PortNo(src as u16));
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(seconds);
    let mut window_start = start;
    let mut window_cycles = 0u32;
    let mut window_setup: Vec<u32> = Vec::new();
    let mut cycles = 0usize;
    while Instant::now() < until {
        let c0 = Instant::now();
        let mut ok = world
            .ctrl
            .add_flow(
                fmatch,
                100,
                vec![Action::Output(PortNo(dst as u16))],
                0xbe00 + cycles as u64,
            )
            .is_ok();
        ok &= world.ctrl.barrier(CTRL_TIMEOUT).is_ok();
        ok &= world.node.wait_highway_converged(CTRL_TIMEOUT);
        let log = world.node.setup_log();
        ok &= log.len() == cycles + 1 && world.node.active_links().len() == 1;
        if let (true, Some(rec)) = (ok, log.last()) {
            let setup = rec.active_at.duration_since(c0);
            window_setup.push(setup.as_nanos().min(u32::MAX as u128) as u32);
            out.detect_us
                .push(rec.detected_at.duration_since(c0).as_secs_f64() * 1e6);
            out.activate_us.push(rec.setup_time().as_secs_f64() * 1e6);
        }
        ok &= world.ctrl.del_flow_strict(fmatch, 100).is_ok();
        ok &= world.ctrl.barrier(CTRL_TIMEOUT).is_ok();
        ok &= world.node.wait_highway_converged(CTRL_TIMEOUT);
        ok &= world.node.active_links().is_empty();
        while world.ctrl.try_recv().is_some() {}
        cycles += 1;
        out.attempted += 1;
        out.failed += u64::from(!ok);
        window_cycles += 1;
        let in_window = window_start.elapsed();
        if in_window >= WINDOW {
            out.throughput
                .push(f64::from(window_cycles) / in_window.as_secs_f64());
            out.latency_us
                .push(stats::quantile_us(&mut window_setup, 0.5));
            window_start = Instant::now();
            window_cycles = 0;
            window_setup.clear();
        }
    }
    let failures = world.node.highway_failures();
    out.gate(failures.is_empty(), || {
        format!("highway failures: {failures:?}")
    });
    out.counters.add("highway.cycles", cycles as f64);
    out.counters.add("highway.failures", failures.len() as f64);
    world.shutdown();
}

/// One more `setup_s` sample of a control workload: its world built up
/// to the first acknowledged barrier, then torn down. (A data-plane run
/// sets up a world per instance and needs none.)
fn setup_only(workload: Workload, out: &mut Outcome) {
    let t0 = Instant::now();
    let ok = match workload {
        Workload::CtrlInstall => {
            let world = host::build_system(CtrlWorld::build);
            let ok = worlds::barrier(&world.conn);
            out.setup_s.push(t0.elapsed().as_secs_f64());
            world.sw.stop();
            ok
        }
        Workload::BypassSetup => {
            let world = host::build_system(BypassWorld::build);
            let ok = worlds::barrier(&world.ctrl);
            out.setup_s.push(t0.elapsed().as_secs_f64());
            world.shutdown();
            ok
        }
        _ => return,
    };
    out.attempted += 1;
    out.failed += u64::from(!ok);
}
