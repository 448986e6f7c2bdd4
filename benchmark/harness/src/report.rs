//! What the benchmark prints: every metric by name with its unit, the
//! notes behind it, and the one-line JSON result the driver reads.

use crate::live::{self, Outcome, Workload};
use crate::stats::{self, Summary};
use crate::{host, isolated, stepped};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;
use vnf_highway::model::{solve, ChainSpec, CostModel, Mode};
use vnf_highway::telemetry::json;

/// End-to-end metrics, in BENCHMARK.json's order.
const END_TO_END: [(&str, &str); 4] = [
    ("throughput", "1/s"),
    ("latency_p50_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, in BENCHMARK.json's order. A workload whose run
/// never enters a layer, or on which a measurement is not taken, reports 0
/// for it.
const PER_LAYER: [(&str, &str); 77] = [
    ("packet.extract_ns", "ns"),
    ("packet.probe_stamp_ns", "ns"),
    ("packet.probe_parse_ns", "ns"),
    ("dpdk.ring_hop_ns", "ns"),
    ("dpdk.arena_alloc_free_ns", "ns"),
    ("dpdk.heap_alloc_free_ns", "ns"),
    ("dpdk.arena_slab_writes_per_pkt", "ratio"),
    ("dpdk.arena_cow_copies", "count"),
    ("dpdk.arena_alloc_failures", "count"),
    ("dpdk.arena_foreign_frees", "count"),
    ("dpdk.arena_high_water", "count"),
    ("dpdk.arena_credit_pending_max", "count"),
    ("shmem.hop_desc_ns", "ns"),
    ("shmem.hop_boxed_ns", "ns"),
    ("shmem.desc_share", "ratio"),
    ("shmem.doorbell_suppressed_ratio", "ratio"),
    ("shmem.entry_ring_full_ratio", "ratio"),
    ("shmem.unmapped_drops", "count"),
    ("ovs.traversal_ns", "ns"),
    ("ovs.rx_burst_ns", "ns"),
    ("ovs.process_burst_ns", "ns"),
    ("ovs.flush_staged_ns", "ns"),
    ("ovs.traversals_per_pkt", "ratio"),
    ("ovs.classify_emc_ns", "ns"),
    ("ovs.classify_megaflow_ns", "ns"),
    ("ovs.classify_cold_ns", "ns"),
    ("ovs.emc_hit_ratio", "ratio"),
    ("ovs.megaflow_hit_ratio", "ratio"),
    ("ovs.classifier_hit_ratio", "ratio"),
    ("ovs.miss_ratio", "ratio"),
    ("ovs.table_apply_us_at_1k", "us"),
    ("ovs.table_apply_us_at_4k", "us"),
    ("ovs.table_apply_growth", "ratio"),
    ("ovs.apply_flow_mod_us", "us"),
    ("ovs.pmd_busy_ratio", "ratio"),
    ("ovs.stage_fanout_p99_cycles", "cycles"),
    ("ovs.stage_tx_flush_p99_cycles", "cycles"),
    ("ovs.fanout_share", "ratio"),
    ("ovs.fanout_drops", "count"),
    ("ovs.tx_drops", "count"),
    ("ovs.tx_no_port_drops", "count"),
    ("of.encode_flowmod_ns", "ns"),
    ("of.decode_flowmod_ns", "ns"),
    ("of.bytes_per_flowmod", "B"),
    ("of.send_batch64_us", "us"),
    ("of.echo_rtt_loopback_us_p50", "us"),
    ("of.unacked_max", "count"),
    ("vnf.poll_once_normal_ns", "ns"),
    ("vnf.poll_once_bypass_ns", "ns"),
    ("vnf.forwarded_per_pkt", "ratio"),
    ("vnf.dropped", "count"),
    ("vnf.ctrl_apply_us", "us"),
    ("vm.deploy_chain4_ms", "ms"),
    ("highway.flowmod_to_detect_us_p50", "us"),
    ("highway.detect_to_active_us_p50", "us"),
    ("highway.cycles_per_s", "1/s"),
    ("highway.active_links", "count"),
    ("highway.failures", "count"),
    ("highway.bypassed_share", "ratio"),
    ("nic.gen_ceiling_pps", "1/s"),
    ("nic.gen_headroom", "ratio"),
    ("nic.gen_late_us_p99", "us"),
    ("nic.lat_p90_us", "us"),
    ("nic.lat_p99_us", "us"),
    ("nic.gbps_1518", "Gbit/s"),
    ("telemetry.overhead_ratio", "ratio"),
    ("simnet.pred_speedup_chain4", "ratio"),
    ("simnet.measured_speedup_chain4", "ratio"),
    ("simnet.speedup_error", "ratio"),
    ("budget.stepped_ns_per_pkt", "ns"),
    ("budget.attributed_share", "ratio"),
    ("budget.live_cpu_ns_per_pkt", "ns"),
    ("budget.live_over_stepped", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("proc.peak_rss_mb", "MB"),
    ("host.spin_score", "1/us"),
    ("fail_ratio", "ratio"),
];

/// Where traces and reports go: `benchmark/out`, next to the `run` script.
fn out_dir() -> PathBuf {
    let dir = std::env::var_os("BENCH_OUT_DIR").map_or("benchmark/out".into(), PathBuf::from);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("benchmark: cannot create {}: {e}", dir.display());
    }
    dir
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// The last line of a run: exactly the keys the driver reads.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            finite(*value)
        );
    }
    line.push_str("}}");
    line
}

fn header(workload: Workload, seed: u64, seconds: f64, traced: bool) {
    println!(
        "workload {} | seed {seed} | seconds {seconds} | trace {}",
        workload.name(),
        u8::from(traced)
    );
    println!(
        "host: nproc {} | cpus for the system under test {} | threads: harness 1 + system {} | commit {}",
        host::nproc(),
        match host::CpuSplit::system_cpus() {
            0 => "shared with the harness".to_string(),
            n => format!("{n}, harness on its own"),
        },
        workload.sut_threads(),
        std::env::var("BENCH_COMMIT").unwrap_or_else(|_| "unknown".into()),
    );
}

fn print_findings(out: &Outcome, extra_gates: &[String]) {
    for g in out.gates.iter().chain(extra_gates) {
        println!("FAILED CHECK: {g}");
    }
    for p in &out.problems {
        println!("problem: {p}");
    }
    if out.problems.is_empty() {
        println!("problems: none");
    }
}

fn spread(s: &Summary) -> String {
    format!("q1 {:.6} q3 {:.6} n {}", s.q1, s.q3, s.n)
}

/// One untraced run: the end-to-end metrics of `workload`.
pub fn untraced(workload: Workload, seed: u64, seconds: f64) {
    header(workload, seed, seconds, false);
    let out = live::run(workload, seed, seconds);
    let thr = stats::summarize(&out.throughput);
    let lat = stats::summarize(&out.latency_us);
    let setup = stats::summarize(&out.setup_s);
    println!(
        "throughput = {:.3} 1/s   [{}; median of the samples: {}]",
        thr.median,
        workload.throughput_is(),
        spread(&thr)
    );
    println!(
        "latency_p50_us = {:.3} us   [{}; median of the per-sample medians: {}]",
        lat.median,
        workload.latency_is(),
        spread(&lat)
    );
    println!(
        "setup_s = {:.6} s   [median of set-ups: {}]",
        setup.median,
        spread(&setup)
    );
    let list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.2}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("throughput samples: {}", list(&out.throughput));
    println!("latency samples: {}", list(&out.latency_us));
    let rss = host::peak_rss_mb();
    println!("peak_rss_mb = {rss:.3} MB");
    println!(
        "fail_ratio = {} ({} failed of {} attempted)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    if out.gen_ceiling_pps > 0.0 {
        println!(
            "generator: ceiling {:.0} 1/s, headroom {:.2}",
            out.gen_ceiling_pps,
            out.gen_ceiling_pps / thr.median.max(1.0)
        );
    }
    if out.paced_rate > 0.0 {
        println!(
            "paced phase: {:.0} probes at {:.0} 1/s, generator late p50 {:.2} us p99 {:.1} us; latency tail p90 {:.1} us p99 {:.1} us",
            out.counters.get("nic.paced_samples"),
            out.paced_rate,
            out.gen_late_p50_us,
            out.gen_late_p99_us,
            out.lat_p90_us,
            out.lat_p99_us
        );
    }
    print_findings(&out, &[]);
    let values = [thr.median, lat.median, setup.median, rss];
    let metrics: Vec<(&str, f64, &str)> = END_TO_END
        .iter()
        .zip(values)
        .map(|((name, unit), value)| (*name, value, *unit))
        .collect();
    println!(
        "{}",
        result_line(out.correct(), out.attempted, out.failed, &metrics)
    );
}

/// Shares of a traced run's `seconds`.
const TWIN_ON_SHARE: f64 = 0.15;
const TWIN_OFF_SHARE: f64 = 0.08;
const LIVE_SHARE: f64 = 0.30;
const EXTRA_SHARE: f64 = 0.13;

/// Saturation-only throughput of a short live run of `workload`.
fn short_fwd_pps(
    workload: Workload,
    seed: u64,
    seconds: f64,
    frame_len: usize,
    telemetry: bool,
) -> (f64, Outcome) {
    let mut plan = live::plan_for(workload);
    plan.saturate += plan.paced;
    plan.paced = 0;
    plan.frame_len = frame_len;
    plan.telemetry = telemetry;
    let instances = live::instances_for(workload, seconds);
    let out = live::run_instances(workload, seed, seconds, instances, plan);
    (stats::median(&out.throughput), out)
}

/// One traced run: the stepped twin, the isolated loops, a short live run
/// for the counters, and what else the per-layer table asks of `workload`.
pub fn traced(workload: Workload, seed: u64, seconds: f64) {
    header(workload, seed, seconds, true);
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let dataplane = !matches!(workload, Workload::CtrlInstall | Workload::BypassSetup);

    // (S) the stepped twin.
    let twin = stepped::run(
        workload,
        seed,
        Duration::from_secs_f64(seconds * TWIN_ON_SHARE),
        Duration::from_secs_f64(seconds * TWIN_OFF_SHARE),
    );
    let tr = &twin.tracer;
    let root = match workload {
        Workload::CtrlInstall => "install",
        Workload::BypassSetup => "cycle",
        _ => "burst",
    };
    let path = out_dir().join(format!("trace-{}.json", workload.name()));
    match std::fs::write(&path, tr.to_json(workload.name())) {
        Ok(()) => println!("trace written to {}", path.display()),
        Err(e) => eprintln!("benchmark: cannot write {}: {e}", path.display()),
    }
    let pkts = tr.aggregate(root).items;
    m.insert(
        "packet.probe_stamp_ns",
        tr.ns_per("packet.probe_stamp", pkts),
    );
    m.insert(
        "packet.probe_parse_ns",
        tr.ns_per("packet.probe_parse", pkts),
    );
    let traversals = tr.aggregate("ovs.process_burst").items;
    for (metric, span) in [
        ("ovs.rx_burst_ns", "ovs.rx_burst"),
        ("ovs.process_burst_ns", "ovs.process_burst"),
        ("ovs.flush_staged_ns", "ovs.flush_staged"),
    ] {
        m.insert(metric, tr.ns_per(span, traversals));
    }
    m.insert(
        "ovs.traversal_ns",
        m["ovs.rx_burst_ns"] + m["ovs.process_burst_ns"] + m["ovs.flush_staged_ns"],
    );
    let polls = tr.aggregate("vnf.poll_once");
    let poll_ns = tr.ns_per("vnf.poll_once", polls.items);
    match workload {
        Workload::Chain4Highway => m.insert("vnf.poll_once_bypass_ns", poll_ns),
        Workload::Chain4Vanilla => m.insert("vnf.poll_once_normal_ns", poll_ns),
        _ => None,
    };
    let ctrl = tr.aggregate("vnf.ctrl_apply");
    if ctrl.count > 0 {
        m.insert(
            "vnf.ctrl_apply_us",
            ctrl.total_ns as f64 / ctrl.count as f64 / 1e3,
        );
    }
    m.insert("budget.stepped_ns_per_pkt", 1e9 / twin.rate_off.max(1e-9));
    m.insert("budget.attributed_share", tr.attributed_share(root));
    m.insert(
        "trace.overhead_ratio",
        twin.rate_on / twin.rate_off.max(1e-9),
    );
    println!(
        "stepped twin: {:.0} {root} items/s with spans, {:.0} without",
        twin.rate_on, twin.rate_off
    );

    // (I) the isolated loops.
    m.extend(isolated::run(seed));

    // (C) a short live run, for the counters behind the public accessors.
    let live_seconds = seconds * LIVE_SHARE;
    let out = live::run_instances(
        workload,
        seed,
        live_seconds,
        live::instances_for(workload, live_seconds),
        live::plan_for(workload),
    );
    let c = &out.counters;
    let fwd_pps = if dataplane {
        stats::median(&out.throughput)
    } else {
        0.0
    };
    m.insert(
        "dpdk.arena_slab_writes_per_pkt",
        c.ratio("dpdk.arena_slab_writes", "dpdk.arena_allocs"),
    );
    for name in [
        "dpdk.arena_cow_copies",
        "dpdk.arena_alloc_failures",
        "dpdk.arena_foreign_frees",
        "dpdk.arena_high_water",
        "dpdk.arena_credit_pending_max",
        "shmem.unmapped_drops",
        "ovs.stage_fanout_p99_cycles",
        "ovs.stage_tx_flush_p99_cycles",
        "ovs.fanout_drops",
        "ovs.tx_drops",
        "ovs.tx_no_port_drops",
        "of.unacked_max",
        "vnf.dropped",
        "highway.active_links",
        "highway.failures",
        "host.spin_score",
    ] {
        let name: &'static str = name;
        m.insert(name, c.get(name));
    }
    let sent = c.get("shmem.desc_sent") + c.get("shmem.boxed_sent");
    m.insert(
        "shmem.desc_share",
        if sent > 0.0 {
            c.get("shmem.desc_sent") / sent
        } else {
            0.0
        },
    );
    let bells = c.get("shmem.doorbell_suppressed") + c.get("shmem.doorbell_rings");
    m.insert(
        "shmem.doorbell_suppressed_ratio",
        if bells > 0.0 {
            c.get("shmem.doorbell_suppressed") / bells
        } else {
            0.0
        },
    );
    m.insert(
        "shmem.entry_ring_full_ratio",
        c.ratio("shmem.send_refusals", "shmem.send_calls"),
    );
    m.insert(
        "ovs.traversals_per_pkt",
        c.ratio("ovs.port_ipackets", "nic.delivered"),
    );
    m.insert("ovs.emc_hit_ratio", c.ratio("ovs.emc_hits", "ovs.lookups"));
    m.insert(
        "ovs.megaflow_hit_ratio",
        c.ratio("ovs.megaflow_hits", "ovs.lookups"),
    );
    m.insert(
        "ovs.classifier_hit_ratio",
        c.ratio("ovs.classifier_hits", "ovs.lookups"),
    );
    m.insert("ovs.miss_ratio", c.ratio("ovs.misses", "ovs.lookups"));
    let cycles = c.get("ovs.busy_cycles") + c.get("ovs.idle_cycles");
    m.insert(
        "ovs.pmd_busy_ratio",
        if cycles > 0.0 {
            c.get("ovs.busy_cycles") / cycles
        } else {
            0.0
        },
    );
    m.insert(
        "ovs.fanout_share",
        c.ratio("ovs.fanout_sent", "ovs.rx_packets"),
    );
    m.insert(
        "vnf.forwarded_per_pkt",
        c.ratio("vnf.forwarded", "nic.delivered"),
    );
    m.insert(
        "highway.bypassed_share",
        c.ratio("highway.bypassed_pkts", "highway.inner_seam_pkts"),
    );
    m.insert(
        "highway.flowmod_to_detect_us_p50",
        stats::median(&out.detect_us),
    );
    m.insert(
        "highway.detect_to_active_us_p50",
        stats::median(&out.activate_us),
    );
    if workload == Workload::BypassSetup {
        m.insert("highway.cycles_per_s", stats::median(&out.throughput));
    }
    m.insert("nic.gen_ceiling_pps", out.gen_ceiling_pps);
    if fwd_pps > 0.0 {
        m.insert("nic.gen_headroom", out.gen_ceiling_pps / fwd_pps);
    }
    m.insert("nic.gen_late_us_p99", out.gen_late_p99_us);
    m.insert("nic.lat_p90_us", out.lat_p90_us);
    m.insert("nic.lat_p99_us", out.lat_p99_us);
    let live_ns = c.ratio("budget.live_cpu_ns", "budget.live_pkts");
    m.insert("budget.live_cpu_ns_per_pkt", live_ns);
    if dataplane {
        m.insert(
            "budget.live_over_stepped",
            live_ns / m["budget.stepped_ns_per_pkt"],
        );
    }
    let mut attempted = out.attempted;
    let mut failed = out.failed;
    let mut gates = twin.gates;

    // What the table asks of particular workloads only.
    let extra_seconds = seconds * EXTRA_SHARE;
    let mut extra = |w: Workload, frame_len: usize, telemetry: bool| -> f64 {
        let (pps, o) = short_fwd_pps(w, seed ^ 0x5eed, extra_seconds, frame_len, telemetry);
        attempted += o.attempted;
        failed += o.failed;
        gates.extend(o.gates);
        pps
    };
    if matches!(workload, Workload::Chain4Highway | Workload::SwitchP2p) {
        m.insert(
            "nic.gbps_1518",
            extra(workload, 1518, true) * 1518.0 * 8.0 / 1e9,
        );
    }
    if workload == Workload::SwitchP2p {
        m.insert(
            "telemetry.overhead_ratio",
            fwd_pps / extra(workload, 64, false).max(1.0),
        );
    }
    if matches!(workload, Workload::Chain4Highway | Workload::Chain4Vanilla) {
        let cost = CostModel::paper_testbed().with_pmd_cores(1.0);
        let model =
            |mode| solve(&ChainSpec::nic(crate::worlds::CHAIN_LEN, mode), &cost).aggregate_mpps;
        let predicted = model(Mode::Highway) / model(Mode::Vanilla);
        let (highway, vanilla) = if workload == Workload::Chain4Highway {
            (fwd_pps, extra(Workload::Chain4Vanilla, 64, true))
        } else {
            (extra(Workload::Chain4Highway, 64, true), fwd_pps)
        };
        let measured = highway / vanilla.max(1.0);
        m.insert("simnet.pred_speedup_chain4", predicted);
        m.insert("simnet.measured_speedup_chain4", measured);
        m.insert(
            "simnet.speedup_error",
            (predicted - measured).abs() / measured.max(1e-9),
        );
    }
    m.insert("proc.peak_rss_mb", host::peak_rss_mb());
    m.insert("fail_ratio", failed as f64 / attempted.max(1) as f64);

    let metrics: Vec<(&str, f64, &str)> = PER_LAYER
        .iter()
        .map(|(name, unit)| (*name, finite(m.get(name).copied().unwrap_or(0.0)), *unit))
        .collect();
    for (name, value, unit) in &metrics {
        println!("{name} = {value} {unit}");
    }
    print_findings(&out, &gates);
    let correct = out.correct() && gates.is_empty() && failed == 0;
    println!("{}", result_line(correct, attempted, failed, &metrics));
}

// ------------------------------------------------- every workload, and A/A

/// The parsed last line of one child run.
struct ChildResult {
    correct: bool,
    metrics: BTreeMap<String, (f64, String)>,
}

/// Runs this program again for one workload, passing its output through,
/// and parses its result line.
fn child(workload: Workload, seed: u64, seconds: f64, traced: bool) -> Option<ChildResult> {
    let exe = std::env::current_exe().ok()?;
    let output = std::process::Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .ok()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (body, last) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    println!("{body}");
    let value = json::parse(last).ok()?;
    let mut metrics = BTreeMap::new();
    for (name, entry) in value.get("metrics")?.as_object()? {
        metrics.insert(
            name.clone(),
            (
                entry.get("value")?.as_f64()?,
                entry.get("unit")?.as_str()?.to_string(),
            ),
        );
    }
    Some(ChildResult {
        correct: output.status.success() && value.get("correct")?.as_bool()?,
        metrics,
    })
}

/// Every workload, untraced then traced; prints every metric by name with
/// its unit. False if any run was incorrect.
pub fn all(seed: u64, seconds: f64) -> bool {
    let mut ok = true;
    for workload in Workload::ALL {
        for traced in [false, true] {
            println!("\n=== {} (trace {}) ===", workload.name(), u8::from(traced));
            match child(workload, seed, seconds, traced) {
                Some(result) => {
                    if !traced {
                        for (name, _) in END_TO_END {
                            let (value, unit) = &result.metrics[name];
                            println!("{}.{name} = {value} {unit}", workload.name());
                        }
                    }
                    println!("correct: {}", result.correct);
                    ok &= result.correct;
                }
                None => {
                    println!("run failed");
                    ok = false;
                }
            }
        }
    }
    ok
}

/// `(name, better, bound)` of every end-to-end metric in BENCHMARK.json.
fn bounds() -> Result<Vec<(String, bool, f64)>, String> {
    let path = std::env::var("BENCH_SPEC").unwrap_or_else(|_| "BENCHMARK.json".into());
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let spec = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let list = spec
        .get("end_to_end")
        .and_then(|v| v.as_array())
        .ok_or(format!("{path}: no end_to_end list"))?;
    list.iter()
        .map(|e| {
            let field = |k: &str| {
                e.get(k)
                    .ok_or(format!("{path}: end_to_end entry without {k}"))
            };
            Ok((
                field("name")?.as_str().unwrap_or_default().to_string(),
                field("better")?.as_str() == Some("higher"),
                field("bound")?.as_f64().unwrap_or(0.0),
            ))
        })
        .collect()
}

/// A/A: every workload twice on this one build, the second pass in
/// reverse order; fails if any end-to-end metric differs between the two
/// passes by more than its bound in BENCHMARK.json.
pub fn check_repeat(seed: u64, seconds: f64) -> bool {
    let bounds = match bounds() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return false;
        }
    };
    let mut passes: [BTreeMap<&'static str, ChildResult>; 2] = [BTreeMap::new(), BTreeMap::new()];
    let mut order = Workload::ALL.to_vec();
    for pass in &mut passes {
        for workload in &order {
            println!("\n=== {} ===", workload.name());
            if let Some(result) = child(*workload, seed, seconds, false) {
                pass.insert(workload.name(), result);
            }
        }
        order.reverse();
    }
    let mut ok = true;
    let mut report = String::from("{\"seed\": ");
    let _ = write!(report, "{seed}, \"seconds\": {seconds}, \"rows\": [");
    println!(
        "\nworkload                metric            first         second        worse by  bound"
    );
    let mut first_row = true;
    for workload in Workload::ALL {
        let (Some(a), Some(b)) = (
            passes[0].get(workload.name()),
            passes[1].get(workload.name()),
        ) else {
            println!("{:<23} a run failed", workload.name());
            ok = false;
            continue;
        };
        ok &= a.correct && b.correct;
        for (name, higher_better, bound) in &bounds {
            let (Some((va, _)), Some((vb, _))) = (a.metrics.get(name), b.metrics.get(name)) else {
                println!("{:<23} {name:<17} missing", workload.name());
                ok = false;
                continue;
            };
            let worse = if *higher_better {
                (va - vb) / va
            } else {
                (vb - va) / va
            };
            let verdict = if worse.abs() > *bound { "  OVER" } else { "" };
            ok &= worse.abs() <= *bound;
            println!(
                "{:<23} {name:<17} {va:<13.4} {vb:<13.4} {:>+7.1}%  {:.0}%{verdict}",
                workload.name(),
                worse * 100.0,
                bound * 100.0
            );
            let sep = if first_row { "" } else { "," };
            first_row = false;
            let _ = write!(
                report,
                "{sep}\n{{\"workload\": \"{}\", \"metric\": \"{name}\", \"first\": {va}, \"second\": {vb}, \"worse_by\": {worse}, \"bound\": {bound}}}",
                workload.name()
            );
        }
    }
    let _ = write!(report, "\n], \"within_bounds\": {ok}}}\n");
    let path = out_dir().join("repeat.json");
    match std::fs::write(&path, report) {
        Ok(()) => println!("\nwritten to {}", path.display()),
        Err(e) => eprintln!("benchmark: cannot write {}: {e}", path.display()),
    }
    println!(
        "A/A check: {}",
        if ok {
            "within bounds"
        } else {
            "NOT within bounds"
        }
    );
    ok
}
