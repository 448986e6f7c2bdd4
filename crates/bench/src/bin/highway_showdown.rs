//! Highway-vs-OVS showdown: the calibrated cost comparison the zero-copy
//! arena exists to win.
//!
//! Sweeps service-chain length × flow-population size over three per-hop
//! transports carrying the same Zipf(s≈1.1) traffic mix as the cache-tier
//! ablation:
//!
//! * **highway** — arena-allocated packets relayed hop to hop as offset
//!   descriptors over SPSC rings (the bypass path: no switch, no copy);
//! * **emc_megaflow** — every hop crosses the vSwitch's warm EMC+megaflow
//!   hierarchy plus a boxed-mbuf ring crossing;
//! * **classifier_only** — every hop pays the full tuple-space walk.
//!
//! Every path pays the same envelope — one source allocation, `chain`
//! ring hops, one sink free — so the per-hop *slope* isolates what a hop
//! costs. Emits `BENCH_highway_showdown.json` with a calibration block in
//! cycles at the testbed's nominal 3 GHz (the quoting base of
//! `simnet::CostModel`). CI fails the build if the highway hop is not
//! cheaper than the vSwitch hop at chain ≥ 2; set
//! `HIGHWAY_SHOWDOWN_NO_GATE=1` to (loudly) skip the gate. A sanity floor
//! — finite, positive costs and a zero-copy census on the arena — is
//! enforced unconditionally.

use highway_bench::cache_tiers::{self, TierConfig};
use openflow::PortNo;
use packet_wire::{FlowKey, PacketBuilder};
use shmem_sim::{channel, ChannelEnd};
use std::time::Instant;

/// Cycles per nanosecond at the testbed's nominal 3 GHz — the base every
/// `simnet::CostModel` figure is quoted against.
const CYCLES_PER_NS: f64 = 3.0;
/// Burst size of the measured loops (DPDK's customary rx burst).
const BURST: usize = 32;

/// One measured configuration.
#[derive(Clone, Copy)]
struct Scenario {
    chain: usize,
    flows: usize,
}

/// Per-scenario nanoseconds/packet for the three transports.
struct Row {
    scenario: Scenario,
    highway_ns: f64,
    emc_megaflow_ns: f64,
    classifier_ns: f64,
}

fn chain_links(chain: usize, tag: &str) -> Vec<(ChannelEnd, ChannelEnd)> {
    (0..chain)
        .map(|i| channel(format!("showdown-{tag}-hop{i}"), 1024))
        .collect()
}

/// Highway pass: alloc from the arena, relay the burst across `chain`
/// descriptor rings, free at the sink (credit return). Returns ns/packet.
fn highway_pass(arena: &dpdk_sim::Arena, frame: &[u8], samples: usize, chain: usize) -> f64 {
    let mut links = chain_links(chain, "hw");
    let start = Instant::now();
    let mut done = 0usize;
    while done < samples {
        let burst = BURST.min(samples - done);
        let mut pkts: Vec<dpdk_sim::Mbuf> = (0..burst)
            .map(|_| {
                dpdk_sim::Mbuf::from_arena(
                    arena.alloc_from(frame).expect("arena sized for the burst"),
                )
            })
            .collect();
        for (tx, rx) in links.iter_mut() {
            let sent = tx.send_burst(&mut pkts);
            assert_eq!(sent, burst, "ring sized for the burst");
            let mut next = Vec::with_capacity(burst);
            let got = rx.recv_burst(&mut next, burst);
            assert_eq!(got, burst, "SPSC ring delivers the whole burst");
            pkts = next;
        }
        drop(pkts); // sink: consumer frees travel the credit stack
        done += burst;
    }
    start.elapsed().as_nanos() as f64 / samples as f64
}

/// vSwitch pass: every hop classifies against the (pre-warmed) cache
/// configuration, then crosses a boxed-mbuf ring. Returns ns/packet.
fn vswitch_pass(
    dp: &ovs_dp::pmd::Datapath,
    keys: &[FlowKey],
    frame: &[u8],
    chain: usize,
    cfg: TierConfig,
) -> f64 {
    let mut caches = cfg.caches();
    // Warm pass: populate EMC/megaflow so the measurement prices the
    // steady state, exactly like the cache-tier ablation.
    cache_tiers::run_pass(dp, keys, &mut caches);
    let mut links = chain_links(chain, cfg.label());
    let samples = keys.len();
    let start = Instant::now();
    let mut done = 0usize;
    while done < samples {
        let burst = BURST.min(samples - done);
        let burst_keys = &keys[done..done + burst];
        let mut pkts: Vec<dpdk_sim::Mbuf> = (0..burst)
            .map(|_| dpdk_sim::Mbuf::from_slice(frame))
            .collect();
        for (tx, rx) in links.iter_mut() {
            for key in burst_keys {
                let (rule, _tier) = dp.classify(PortNo(1), key, caches.as_mut(), 1, 64);
                assert!(rule.is_some(), "every showdown flow must resolve");
            }
            let sent = tx.send_burst(&mut pkts);
            assert_eq!(sent, burst);
            let mut next = Vec::with_capacity(burst);
            rx.recv_burst(&mut next, burst);
            pkts = next;
        }
        drop(pkts);
        done += burst;
    }
    start.elapsed().as_nanos() as f64 / samples as f64
}

/// Least-squares per-hop slope of cost(chain) over the measured chain
/// lengths (with two points this is the plain difference quotient).
fn per_hop_slope(points: &[(usize, f64)]) -> f64 {
    let n = points.len() as f64;
    let mean_x = points.iter().map(|(c, _)| *c as f64).sum::<f64>() / n;
    let mean_y = points.iter().map(|(_, v)| *v).sum::<f64>() / n;
    let num: f64 = points
        .iter()
        .map(|(c, v)| (*c as f64 - mean_x) * (v - mean_y))
        .sum();
    let den: f64 = points
        .iter()
        .map(|(c, _)| (*c as f64 - mean_x).powi(2))
        .sum();
    num / den
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let no_gate = std::env::var("HIGHWAY_SHOWDOWN_NO_GATE").is_ok();
    let chains: &[usize] = if quick { &[1, 2] } else { &[1, 2, 4] };
    let flow_counts: &[usize] = if quick {
        &[4_096, 65_536]
    } else {
        &[4_096, 65_536, 1_048_576]
    };
    let samples = if quick { 16_384 } else { 65_536 };
    let frame = PacketBuilder::udp_probe(64).ports(7, 7).build();

    // One arena for the whole run, so the census at the end covers every
    // highway packet the bench ever allocated.
    let arena = dpdk_sim::Arena::new("showdown-arena", 4_096, 2_048);
    // One ablation world per flow count (rule + decoy subtables), reused
    // across chain lengths so cache warmth is comparable.
    let worlds: Vec<(usize, std::sync::Arc<ovs_dp::pmd::Datapath>, Vec<FlowKey>)> = flow_counts
        .iter()
        .map(|&flows| {
            let world = cache_tiers::build(0);
            let keys = cache_tiers::zipf_keys_over(flows, samples);
            (flows, world.dp, keys)
        })
        .collect();

    // Warmup (allocators, lazy statics).
    highway_pass(&arena, &frame, samples / 8, 1);

    let mut rows: Vec<Row> = Vec::new();
    for &chain in chains {
        for (flows, dp, keys) in &worlds {
            let scenario = Scenario {
                chain,
                flows: *flows,
            };
            let highway_ns = highway_pass(&arena, &frame, samples, chain);
            let emc_megaflow_ns = vswitch_pass(dp, keys, &frame, chain, TierConfig::EmcMegaflow);
            let classifier_ns = vswitch_pass(dp, keys, &frame, chain, TierConfig::ClassifierOnly);
            println!(
                "chain={chain} flows={flows:>7}: highway {highway_ns:7.1} ns/pkt | \
                 emc+megaflow {emc_megaflow_ns:7.1} | classifier {classifier_ns:7.1}"
            );
            rows.push(Row {
                scenario,
                highway_ns,
                emc_megaflow_ns,
                classifier_ns,
            });
        }
    }

    // Zero-copy census: the only slab writes across every highway pass are
    // the one payload copy each allocation makes at ingress.
    let stats = arena.stats();
    assert_eq!(
        stats.slab_writes, stats.allocs,
        "highway hops wrote packet bytes: the zero-copy property is broken"
    );
    assert!(arena.census_clean(), "arena leaked slots: {stats:?}");

    // Per-hop slopes, averaged over the flow dimension.
    let slope_over = |extract: &dyn Fn(&Row) -> f64| -> f64 {
        let per_flow: Vec<f64> = flow_counts
            .iter()
            .map(|&flows| {
                let pts: Vec<(usize, f64)> = rows
                    .iter()
                    .filter(|r| r.scenario.flows == flows)
                    .map(|r| (r.scenario.chain, extract(r)))
                    .collect();
                per_hop_slope(&pts)
            })
            .collect();
        per_flow.iter().sum::<f64>() / per_flow.len() as f64
    };
    let hw_hop = slope_over(&|r: &Row| r.highway_ns);
    let sw_hop = slope_over(&|r: &Row| r.emc_megaflow_ns);
    let cls_hop = slope_over(&|r: &Row| r.classifier_ns);
    println!(
        "\nper-hop slope: highway {hw_hop:.1} ns | emc+megaflow {sw_hop:.1} ns | \
         classifier {cls_hop:.1} ns"
    );

    // Calibration block: measured ns → cycles at the CostModel's quoting
    // base. The ring hop splits evenly into enqueue+dequeue; the switch
    // tiers are quoted as extra cycles over the bare ring crossing.
    let ring_hop_cycles = hw_hop * CYCLES_PER_NS;
    let switch_extra_cycles = (sw_hop - hw_hop).max(0.0) * CYCLES_PER_NS;
    let classifier_extra_cycles = (cls_hop - sw_hop).max(0.0) * CYCLES_PER_NS;
    println!(
        "calibration @3GHz: ring hop {ring_hop_cycles:.0} cy | warm-switch extra \
         {switch_extra_cycles:.0} cy | classifier extra {classifier_extra_cycles:.0} cy"
    );

    let rows_json = rows
        .iter()
        .map(|r| {
            format!(
                "    {{ \"chain\": {}, \"flows\": {}, \"highway_ns\": {:.1}, \
                 \"emc_megaflow_ns\": {:.1}, \"classifier_only_ns\": {:.1} }}",
                r.scenario.chain,
                r.scenario.flows,
                r.highway_ns,
                r.emc_megaflow_ns,
                r.classifier_ns
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let gate = !no_gate;
    let json = format!(
        "{{\n  \"bench\": \"highway_showdown\",\n  \"quick\": {quick},\n  \
         \"samples\": {samples},\n  \"scenarios\": [\n{rows_json}\n  ],\n  \
         \"per_hop_ns\": {{ \"highway\": {hw_hop:.1}, \"emc_megaflow\": {sw_hop:.1}, \
         \"classifier_only\": {cls_hop:.1} }},\n  \"calibration\": {{ \
         \"cycles_per_ns\": {CYCLES_PER_NS}, \"ring_hop_cycles\": {ring_hop_cycles:.0}, \
         \"switch_extra_cycles\": {switch_extra_cycles:.0}, \
         \"classifier_extra_cycles\": {classifier_extra_cycles:.0} }},\n  \
         \"arena\": {{ \"allocs\": {}, \"slab_writes\": {}, \"high_water\": {} }},\n  \
         \"asserted\": {gate}\n}}\n",
        stats.allocs, stats.slab_writes, stats.high_water,
    );
    std::fs::write("BENCH_highway_showdown.json", json).expect("write BENCH_highway_showdown.json");
    println!("wrote BENCH_highway_showdown.json");

    // Sanity floor, gate or not: costs must be finite and positive.
    for r in &rows {
        assert!(
            r.highway_ns > 0.0 && r.emc_megaflow_ns > 0.0 && r.classifier_ns > 0.0,
            "degenerate measurement at chain={} flows={}",
            r.scenario.chain,
            r.scenario.flows
        );
    }

    if gate {
        assert!(
            hw_hop < sw_hop,
            "highway regression: a highway hop ({hw_hop:.1} ns) is not cheaper than a \
             warm vSwitch hop ({sw_hop:.1} ns)"
        );
    } else {
        println!(
            "SKIPPED highway-vs-vswitch gate (HIGHWAY_SHOWDOWN_NO_GATE): \
             highway {hw_hop:.1} ns vs vswitch {sw_hop:.1} ns per hop"
        );
    }
    println!("highway-showdown bench OK");
}
