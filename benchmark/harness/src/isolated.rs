//! Isolated loops: one public function of one layer at a time, timed from
//! outside with nothing else running. They are the same in every
//! workload's traced run, so a layer's unit cost can be read next to any
//! workload's numbers.

use crate::load::BURST;
use crate::stats::{self, Rng};
use crate::worlds;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vnf_highway::dpdk::{spsc_ring, Arena, Mbuf};
use vnf_highway::highway::{HighwayManager, HighwayNode, HighwayNodeConfig};
use vnf_highway::openflow::codec::{decode, encode};
use vnf_highway::openflow::{
    loopback, Action, Connection, FlowMatch, FlowMod, OfpMessage, PortNo, SwitchLink, Transport,
};
use vnf_highway::ovs::pmd::Datapath;
use vnf_highway::ovs::{CacheTier, FlowTableObserver, Ofproto, PmdCaches};
use vnf_highway::packet::{FlowKey, PacketBuilder};
use vnf_highway::shmem::{channel, SegmentKind, ShmRegistry, DEFAULT_RING_DEPTH};
use vnf_highway::vm::{ComputeAgent, LatencyModel, VnfSpec};

/// Time each loop measures for.
const SLICE: Duration = Duration::from_millis(60);

/// Repeats `body` (which performs `items` operations per call) for
/// [`SLICE`] and returns nanoseconds per operation.
fn ns_per_op(items: usize, mut body: impl FnMut()) -> f64 {
    body(); // warm
    let start = Instant::now();
    let mut calls = 0u64;
    while start.elapsed() < SLICE {
        for _ in 0..16 {
            body();
        }
        calls += 16;
    }
    start.elapsed().as_nanos() as f64 / (calls * items as u64) as f64
}

fn frames(n: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|i| {
            PacketBuilder::udp_probe(64)
                .ports(1024 + (i >> 8) as u16, 1024 + (i & 0xff) as u16)
                .build()
        })
        .collect()
}

/// Runs every loop; `seed` picks the rule sets.
pub fn run(seed: u64) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    packet_and_rings(&mut out);
    classify(&mut out);
    table(seed, &mut out);
    openflow(seed, &mut out);
    out.push(("vm.deploy_chain4_ms", deploy_chain_ms()));
    out
}

fn packet_and_rings(out: &mut Vec<(&'static str, f64)>) {
    let fr = frames(64);
    let mut i = 0;
    out.push((
        "packet.extract_ns",
        ns_per_op(1, || {
            i = (i + 1) % fr.len();
            black_box(FlowKey::extract(black_box(&fr[i])));
        }),
    ));

    let (mut tx, mut rx) = spsc_ring::<u64>(1024);
    let mut items: Vec<u64> = Vec::with_capacity(BURST);
    let mut got: Vec<u64> = Vec::with_capacity(BURST);
    out.push((
        "dpdk.ring_hop_ns",
        ns_per_op(BURST, || {
            items.extend(0..BURST as u64);
            tx.enqueue_burst(&mut items);
            got.clear();
            rx.dequeue_burst(&mut got, BURST);
            black_box(&got);
        }),
    ));

    let arena = Arena::new("isolated-arena", 4096, 2048);
    let frame = &fr[0];
    let mut held: Vec<Mbuf> = Vec::with_capacity(BURST);
    out.push((
        "dpdk.arena_alloc_free_ns",
        ns_per_op(BURST, || {
            for _ in 0..BURST {
                held.push(Mbuf::from_arena(
                    arena.alloc_from(frame).expect("arena slot"),
                ));
            }
            held.clear();
        }),
    ));
    out.push((
        "dpdk.heap_alloc_free_ns",
        ns_per_op(BURST, || {
            for _ in 0..BURST {
                held.push(Mbuf::from_slice(frame));
            }
            held.clear();
        }),
    ));

    // One bypass hop as the guests do it: send_burst on one end,
    // recv_burst on the other; the packets are prepared outside the clock.
    for (name, from_arena) in [("shmem.hop_desc_ns", true), ("shmem.hop_boxed_ns", false)] {
        let (mut a, mut b) = channel("isolated-hop", DEFAULT_RING_DEPTH);
        let mut pkts: Vec<Mbuf> = Vec::with_capacity(BURST);
        let mut spent = Duration::ZERO;
        let mut moved = 0u64;
        let start = Instant::now();
        while start.elapsed() < SLICE {
            for _ in 0..BURST {
                pkts.push(if from_arena {
                    Mbuf::from_arena(arena.alloc_from(frame).expect("arena slot"))
                } else {
                    Mbuf::from_slice(frame)
                });
            }
            let t = Instant::now();
            a.send_burst(&mut pkts);
            b.recv_burst(&mut held, BURST);
            spent += t.elapsed();
            moved += held.len() as u64;
            held.clear();
        }
        out.push((name, spent.as_nanos() as f64 / moved as f64));
    }
}

/// `Datapath::classify` with the caches prepared so that every lookup
/// resolves in the named tier: a rule table with sixteen decoy subtables
/// (as `highway_bench::cache_tiers` builds it), 1024 flows.
fn classify(out: &mut Vec<(&'static str, f64)>) {
    let dp = Datapath::new(false);
    dp.table_apply(&FlowMod::add(
        FlowMatch::in_port(PortNo(1)),
        100,
        vec![Action::Output(PortNo(2))],
    ));
    for i in 1..=16u16 {
        let mut m = FlowMatch::in_port(PortNo(200 + i));
        if i & 1 != 0 {
            m.l4_dst = Some(i);
        }
        if i & 2 != 0 {
            m.l4_src = Some(i);
        }
        if i & 4 != 0 {
            m.eth_type = Some(0x0800);
        }
        if i & 8 != 0 {
            m.ipv4_dst = Some((std::net::Ipv4Addr::new(10, 0, 0, 0), 8 + i as u8));
        }
        if i & 16 != 0 {
            m.ip_proto = Some(17);
        }
        dp.table_apply(&FlowMod::add(m, 300, vec![Action::Output(PortNo(3))]));
    }
    let keys: Vec<FlowKey> = frames(1024).iter().map(|f| FlowKey::extract(f)).collect();
    for (name, mut caches, tier) in [
        (
            "ovs.classify_emc_ns",
            Some(PmdCaches::new()),
            CacheTier::Emc,
        ),
        (
            "ovs.classify_megaflow_ns",
            Some(PmdCaches::with_capacity(
                0,
                vnf_highway::ovs::megaflow::DEFAULT_MEGAFLOW_ENTRIES,
            )),
            CacheTier::Megaflow,
        ),
        ("ovs.classify_cold_ns", None, CacheTier::Classifier),
    ] {
        for key in &keys {
            dp.classify(PortNo(1), key, caches.as_mut(), 1, 64);
        }
        let mut i = 0;
        let (mut lookups, mut off_tier) = (0u64, 0u64);
        let ns = ns_per_op(1, || {
            i = (i + 1) % keys.len();
            let (rule, got) = dp.classify(PortNo(1), &keys[i], caches.as_mut(), 1, 64);
            lookups += 1;
            off_tier += u64::from(rule.is_none() || got != tier);
        });
        if off_tier * 20 > lookups {
            eprintln!("warning: {name}: {off_tier} of {lookups} lookups left the tier it prices");
        }
        out.push((name, ns));
    }
}

/// `Datapath::table_apply` on a table of 1024 and of 4096 rules (an add
/// and a strict delete of one more rule, so the size holds), and
/// `Ofproto::apply_flow_mod` with the highway manager observing.
fn table(seed: u64, out: &mut Vec<(&'static str, f64)>) {
    let rules = worlds::install_rules(&mut Rng::new(seed));
    let extra = FlowMod::add(
        FlowMatch::in_port(PortNo(900)),
        50,
        vec![Action::Output(PortNo(901))],
    );
    let gone = FlowMod::delete_strict(extra.fmatch, extra.priority);
    let mut at = [0.0f64; 2];
    for (slot, size) in at.iter_mut().zip([1024, 4096]) {
        let dp = Datapath::new(false);
        for fm in &rules[..size] {
            dp.table_apply(fm);
        }
        let mut samples = Vec::new();
        let start = Instant::now();
        while start.elapsed() < SLICE || samples.len() < 8 {
            let t = Instant::now();
            dp.table_apply(&extra);
            dp.table_apply(&gone);
            samples.push(t.elapsed().as_nanos() as f64 / 2e3);
        }
        *slot = stats::median(&samples);
    }
    out.push(("ovs.table_apply_us_at_1k", at[0]));
    out.push(("ovs.table_apply_us_at_4k", at[1]));
    out.push(("ovs.table_apply_growth", at[1] / at[0]));

    // A chain-sized table, the manager attached as on a highway node.
    let dp = Datapath::new(false);
    let ofproto = Ofproto::new(Arc::clone(&dp), 1);
    let agent = Arc::new(ComputeAgent::new(ShmRegistry::new(), LatencyModel::zero()));
    let manager = HighwayManager::new(agent);
    ofproto.register_observer(Arc::clone(&manager) as Arc<dyn FlowTableObserver>);
    for p in 1..=10u16 {
        ofproto.apply_flow_mod(&FlowMod::add(
            FlowMatch::in_port(PortNo(p)),
            100,
            vec![Action::Output(PortNo(p + 1))],
        ));
    }
    let mut samples = Vec::new();
    let start = Instant::now();
    while start.elapsed() < SLICE {
        let t = Instant::now();
        ofproto.apply_flow_mod(&extra);
        ofproto.apply_flow_mod(&gone);
        samples.push(t.elapsed().as_nanos() as f64 / 2e3);
    }
    manager.shutdown();
    out.push(("ovs.apply_flow_mod_us", stats::median(&samples)));
}

fn openflow(seed: u64, out: &mut Vec<(&'static str, f64)>) {
    let rules = worlds::install_rules(&mut Rng::new(seed));
    let msgs: Vec<OfpMessage> = rules[..256]
        .iter()
        .map(|fm| OfpMessage::FlowMod(fm.clone()))
        .collect();
    let wire: Vec<Vec<u8>> = msgs.iter().map(|m| encode(m, 7)).collect();
    let mut i = 0;
    out.push((
        "of.encode_flowmod_ns",
        ns_per_op(1, || {
            i = (i + 1) % msgs.len();
            black_box(encode(&msgs[i], 7));
        }),
    ));
    out.push((
        "of.decode_flowmod_ns",
        ns_per_op(1, || {
            i = (i + 1) % wire.len();
            black_box(decode(&wire[i]).expect("own encoding decodes"));
        }),
    ));
    out.push((
        "of.bytes_per_flowmod",
        wire.iter().map(Vec::len).sum::<usize>() as f64 / wire.len() as f64,
    ));

    // `send_flow_mods` of one 64-mod batch into a loopback whose far end
    // is emptied outside the clock.
    let (c_end, s_end) = loopback();
    let conn = Connection::new(Box::new(c_end));
    let batch = &rules[..worlds::FLOWMOD_BATCH];
    let mut sink = [0u8; 16384];
    let mut samples = Vec::new();
    let start = Instant::now();
    // Bounded: every unacknowledged mod stays in the connection's replay log.
    while start.elapsed() < SLICE && samples.len() < 200 {
        let t = Instant::now();
        conn.send_flow_mods(batch).expect("loopback accepts");
        samples.push(t.elapsed().as_nanos() as f64 / 1e3);
        while s_end.recv(&mut sink).is_ok_and(|n| n > 0) {}
    }
    out.push(("of.send_batch64_us", stats::median(&samples)));

    // Echo round trips against a bare responder: the switch end answers
    // from a thread that does nothing else, so what is left is the
    // connection's own wait.
    let (c_end, s_end) = loopback();
    let conn = Connection::new(Box::new(c_end));
    let link = SwitchLink::new(Box::new(s_end));
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let responder = {
        let stop = Arc::clone(&stop);
        std::thread::Builder::new()
            .name("bare-responder".into())
            .spawn(move || {
                while !stop.load(std::sync::atomic::Ordering::Acquire) {
                    match link.try_recv() {
                        Some(Ok((OfpMessage::Hello, xid))) => {
                            let _ = link.send(&OfpMessage::Hello, xid);
                        }
                        Some(Ok((OfpMessage::FeaturesRequest, xid))) => {
                            let reply = OfpMessage::FeaturesReply {
                                datapath_id: 1,
                                ports: Vec::new(),
                            };
                            let _ = link.send(&reply, xid);
                        }
                        Some(Ok((OfpMessage::EchoRequest(data), xid))) => {
                            let _ = link.send(&OfpMessage::EchoReply(data), xid);
                        }
                        Some(_) => {}
                        None => std::thread::yield_now(),
                    }
                }
            })
            .expect("spawn responder")
    };
    let mut rtts = Vec::new();
    if conn.handshake(worlds::CTRL_TIMEOUT).is_ok() {
        for _ in 0..40 {
            let t = Instant::now();
            let reply =
                conn.request_reply(&OfpMessage::EchoRequest(Vec::new()), worlds::CTRL_TIMEOUT);
            if reply.is_ok() {
                rtts.push(t.elapsed().as_nanos() as f64 / 1e3);
            }
        }
    }
    stop.store(true, std::sync::atomic::Ordering::Release);
    responder.join().expect("responder thread");
    out.push(("of.echo_rtt_loopback_us_p50", stats::median(&rtts)));
}

/// `Orchestrator::deploy_chain(4, ..)` on a started node: four VMs
/// created and booted, ten steering rules injected. Median of three.
fn deploy_chain_ms() -> f64 {
    let mut samples = Vec::new();
    for _ in 0..3 {
        let node = HighwayNode::new(HighwayNodeConfig::default());
        let edge = |name: &str| {
            let no = node.orchestrator().alloc_port();
            let (_outer, sw_end) = node.registry().create_channel(
                format!("dpdkr{no}"),
                SegmentKind::DpdkrNormal,
                DEFAULT_RING_DEPTH,
            );
            node.switch()
                .add_dpdkr_port(PortNo(no as u16), name, sw_end);
            no
        };
        let (entry, exit) = (edge("entry"), edge("exit"));
        node.start();
        let t = Instant::now();
        let dep = node
            .orchestrator()
            .deploy_chain(worlds::CHAIN_LEN, entry, exit, |i| {
                VnfSpec::forwarder(format!("vnf{i}"))
            });
        samples.push(t.elapsed().as_secs_f64() * 1e3);
        node.wait_highway_converged(worlds::CTRL_TIMEOUT);
        node.stop();
        for vm in &dep.vms {
            vm.shutdown();
        }
    }
    stats::median(&samples)
}
