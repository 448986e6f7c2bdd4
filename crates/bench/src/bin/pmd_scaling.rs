//! PMD scaling bench: end-to-end datapath throughput at 1, 2 and 4 PMD
//! threads over the RSS fan-out mesh.
//!
//! Eight dpdkr in-ports each carry many distinct UDP flows toward a
//! dedicated out-port; every packet crosses the real sharded datapath —
//! rx burst, RSS ownership hash, SPSC fan-out ring where the owner is a
//! different PMD, per-PMD cache lookup validated against the shared
//! table's generation, staged tx. Packets are preloaded into the port channels so
//! the measurement prices the switch, not the generator.
//!
//! Emits `BENCH_pmd_scaling.json` for CI trend tracking; `--quick` bounds
//! the packet count. On a host with ≥ 4 cores the run exits non-zero if
//! 4-PMD throughput is below 2x single-PMD — the scaling the sharded
//! datapath exists to deliver. On smaller hosts (PMD threads time-slice
//! one core; no parallel speedup is physically possible) the gate is
//! loudly skipped and only a sanity floor is enforced.
//!
//! The measured passes run with telemetry enabled and embed the per-stage
//! cycle latency p50/p99 from the 4-PMD pass into the JSON. A final
//! telemetry-disabled 4-PMD pass prices the instrumentation itself: on a
//! ≥ 4-core host, telemetry-on throughput must stay within 5% of
//! telemetry-off (best of two attempts, to shave scheduler noise).

use openflow::messages::FlowMod;
use openflow::{Action, FlowMatch, PortNo};
use ovs_dp::{VSwitchd, VSwitchdConfig};
use packet_wire::PacketBuilder;
use shmem_sim::channel;
use std::time::{Duration, Instant};
use telemetry::{HistSummary, Stage, TelemetrySnapshot};

/// In-ports 1..=PORTS forward to out-ports 101..=100+PORTS.
const PORTS: u16 = 8;
/// Distinct UDP flows per in-port (spreads across PMDs under RSS).
const FLOWS_PER_PORT: u16 = 512;

/// One measured pass: preload `per_port` packets into every in-port,
/// start the switch with `pmds` PMD threads, drain all out-ports, return
/// packets/second over the drain window plus the telemetry snapshot taken
/// right before the switch stops.
fn run_pass(pmds: usize, per_port: usize, telemetry_on: bool) -> (f64, TelemetrySnapshot) {
    let sw = VSwitchd::new(VSwitchdConfig {
        pmd_threads: pmds,
        telemetry: telemetry_on,
        ..VSwitchdConfig::default()
    });
    let cap = per_port.next_power_of_two();
    let mut outs = Vec::new();
    for p in 1..=PORTS {
        let (sw_end, mut vm_in) = channel(format!("in{p}"), cap);
        sw.add_dpdkr_port(PortNo(p), format!("in{p}"), sw_end);
        let (sw_out, vm_out) = channel(format!("out{p}"), cap);
        sw.add_dpdkr_port(PortNo(100 + p), format!("out{p}"), sw_out);
        outs.push(vm_out);
        sw.inject_flow_mod(&FlowMod::add(
            FlowMatch::in_port(PortNo(p)),
            100,
            vec![Action::Output(PortNo(100 + p))],
        ));
        // Preload the traffic: many distinct flows so the RSS hash fans
        // the port's packets out across all PMDs.
        for i in 0..per_port {
            let frame = PacketBuilder::udp_probe(64)
                .ports(1000 + (i as u16 % FLOWS_PER_PORT), 80)
                .build();
            vm_in
                .send(dpdk_sim::Mbuf::from_slice(&frame))
                .expect("preload within channel capacity");
        }
    }

    let total = per_port as u64 * PORTS as u64;
    let start = Instant::now();
    sw.start();
    let deadline = start + Duration::from_secs(60);
    let mut got = 0u64;
    while got < total {
        let mut idle = true;
        for out in &mut outs {
            while out.recv().is_some() {
                got += 1;
                idle = false;
            }
        }
        if idle {
            if Instant::now() > deadline {
                panic!("pmd_scaling: {pmds} PMDs delivered {got}/{total} before deadline");
            }
            std::thread::yield_now();
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    let snap = sw.telemetry_snapshot();
    sw.stop();
    let dropped = sw
        .datapath()
        .fanout_drops
        .load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(dropped, 0, "fan-out mesh dropped {dropped} packets");
    (total as f64 / elapsed, snap)
}

/// `{"count":N,"p50_cycles":N,"p99_cycles":N}` for one pipeline stage.
fn stage_json(snap: &TelemetrySnapshot, stage: Stage) -> String {
    let s: HistSummary = snap.stage_summary(stage);
    format!(
        "{{ \"count\": {}, \"p50_cycles\": {}, \"p99_cycles\": {} }}",
        s.count, s.p50, s.p99
    )
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let per_port = if quick { 8_192 } else { 32_768 };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Warmup pass (allocators, lazy statics), then measured passes with
    // telemetry on — the instrumented datapath is the product configuration.
    run_pass(1, per_port / 4, true);
    let passes: Vec<(usize, f64, TelemetrySnapshot)> = [1usize, 2, 4]
        .iter()
        .map(|&p| {
            let (pps, snap) = run_pass(p, per_port, true);
            (p, pps, snap)
        })
        .collect();
    let pps_1 = passes[0].1;
    let pps_2 = passes[1].1;
    let pps_4 = passes[2].1;
    let snap_4 = &passes[2].2;
    let scaling = pps_4 / pps_1;

    println!(
        "## PMD scaling — sharded datapath throughput [measured{}]\n",
        if quick { ", quick" } else { "" }
    );
    println!("| PMD threads | pkts/s | vs 1 PMD |");
    println!("|---|---|---|");
    for (p, v, _) in &passes {
        println!("| {p} | {v:.0} | {:.2}x |", v / pps_1);
    }
    println!("\nhost cores: {cores}");

    // Per-stage latency of the 4-PMD pass, from the telemetry layer.
    println!("\n| stage (4 PMDs) | bursts | p50 cycles | p99 cycles |");
    println!("|---|---|---|---|");
    for stage in Stage::ALL {
        let s = snap_4.stage_summary(stage);
        println!("| {} | {} | {} | {} |", stage.name(), s.count, s.p50, s.p99);
    }

    // Price the instrumentation: best of two telemetry-off 4-PMD passes
    // against the best of the measured pass and one retry. Best-of-2 on
    // each side shaves scheduler noise from the ratio.
    let (off_a, _) = run_pass(4, per_port, false);
    let (off_b, _) = run_pass(4, per_port, false);
    let (on_retry, _) = run_pass(4, per_port, true);
    let pps_4_off = off_a.max(off_b);
    let pps_4_on = pps_4.max(on_retry);
    let overhead_ratio = pps_4_on / pps_4_off;
    println!(
        "\ntelemetry overhead at 4 PMDs: on={pps_4_on:.0} pps, off={pps_4_off:.0} pps, \
         ratio {overhead_ratio:.3}"
    );

    // The ≥2x gate only means something when 4 PMD threads can actually
    // run in parallel; on fewer cores they time-slice one CPU.
    let gate = cores >= 4;
    if !gate {
        println!("SKIPPED scaling assert: only {cores} core(s); 4 PMDs cannot run in parallel");
    }

    let stages_json = Stage::ALL
        .iter()
        .map(|&st| format!("    \"{}\": {}", st.name(), stage_json(snap_4, st)))
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"bench\": \"pmd_scaling\",\n  \"quick\": {quick},\n  \
         \"packets_per_pmd_count\": {},\n  \"flows_per_port\": {FLOWS_PER_PORT},\n  \
         \"pps_1_pmd\": {pps_1:.0},\n  \"pps_2_pmd\": {pps_2:.0},\n  \
         \"pps_4_pmd\": {pps_4:.0},\n  \"scaling_4_vs_1\": {scaling:.3},\n  \
         \"pps_4_pmd_telemetry_off\": {pps_4_off:.0},\n  \
         \"telemetry_overhead_ratio\": {overhead_ratio:.3},\n  \
         \"stage_latency_4_pmd\": {{\n{stages_json}\n  }},\n  \
         \"cores\": {cores},\n  \"asserted\": {gate}\n}}\n",
        per_port as u64 * PORTS as u64,
    );
    std::fs::write("BENCH_pmd_scaling.json", json).expect("write BENCH_pmd_scaling.json");
    println!("wrote BENCH_pmd_scaling.json");

    if gate {
        assert!(
            scaling >= 2.0,
            "PMD scaling regression: 4 PMDs = {scaling:.2}x of 1 PMD (need >= 2x)"
        );
        assert!(
            overhead_ratio >= 0.95,
            "telemetry overhead: 4-PMD throughput with telemetry is {overhead_ratio:.3}x \
             of telemetry-off (need >= 0.95)"
        );
    } else {
        // Sanity floor even when time-slicing: sharding overhead must not
        // crater throughput.
        assert!(
            scaling >= 0.5,
            "PMD sharding overhead: 4 PMDs = {scaling:.2}x of 1 PMD on a {cores}-core host"
        );
        println!("SKIPPED telemetry overhead assert (ratio {overhead_ratio:.3}); needs >= 4 cores");
    }
    println!("pmd-scaling bench OK");
}
