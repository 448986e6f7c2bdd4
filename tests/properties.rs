//! Property-based tests over the core data structures and invariants.

use proptest::prelude::*;
use std::collections::VecDeque;
use std::net::Ipv4Addr;
use std::sync::Arc;
use vnf_highway::dpdk::spsc_ring;
use vnf_highway::highway::detect_p2p_links;
use vnf_highway::openflow::codec::{decode, encode};
use vnf_highway::openflow::messages::{FlowMod, FlowModCommand, OfpMessage};
use vnf_highway::ovs::classifier::Classifier;
use vnf_highway::ovs::table::RuleEntry;
use vnf_highway::ovs::RuleSnapshot;
use vnf_highway::packet::{FlowKey, MacAddr, PacketBuilder};
use vnf_highway::prelude::{Action, FlowMatch, PortNo};

// ---------- strategies ----------

fn mac() -> impl Strategy<Value = MacAddr> {
    // A small alphabet keeps collision probability (and thus rule overlap)
    // high enough to exercise interesting cases.
    (0u8..4).prop_map(MacAddr::local)
}

fn ipv4_prefix() -> impl Strategy<Value = (Ipv4Addr, u8)> {
    ((0u32..8), (8u8..=32)).prop_map(|(n, len)| (Ipv4Addr::from(0x0a00_0000 | n << 8), len))
}

fn flow_match() -> impl Strategy<Value = FlowMatch> {
    (
        proptest::option::of(0u16..6),
        proptest::option::of(mac()),
        proptest::option::of(mac()),
        proptest::option::of(proptest::bool::ANY),
        proptest::option::of(0u8..3),
        proptest::option::of(ipv4_prefix()),
        proptest::option::of(ipv4_prefix()),
        proptest::option::of(0u16..5),
        proptest::option::of(0u16..5),
    )
        .prop_map(
            |(in_port, eth_src, eth_dst, is_ip, proto, src, dst, l4s, l4d)| {
                let ip = is_ip.unwrap_or(false);
                FlowMatch {
                    in_port: in_port.map(PortNo),
                    eth_src,
                    eth_dst,
                    vlan_id: None,
                    eth_type: if ip { Some(0x0800) } else { None },
                    ip_tos: None,
                    ip_proto: if ip { proto } else { None },
                    ipv4_src: if ip { src } else { None },
                    ipv4_dst: if ip { dst } else { None },
                    l4_src: if ip { l4s } else { None },
                    l4_dst: if ip { l4d } else { None },
                }
                .canonicalise()
            },
        )
}

fn action() -> impl Strategy<Value = Action> {
    prop_oneof![
        (1u16..9).prop_map(|p| Action::Output(PortNo(p))),
        mac().prop_map(Action::SetEthSrc),
        mac().prop_map(Action::SetEthDst),
        (0u16..100).prop_map(Action::SetL4Dst),
        Just(Action::StripVlan),
        (0u8..64).prop_map(Action::SetIpTos),
    ]
}

fn flow_key() -> impl Strategy<Value = FlowKey> {
    (0u16..5, 0u16..5, 0u8..3, mac(), mac()).prop_map(|(l4s, l4d, proto, src, dst)| {
        let pkt = PacketBuilder::udp_probe(64)
            .eth(src, dst)
            .ports(l4s, l4d)
            .build();
        let mut key = FlowKey::extract(&pkt);
        key.ip_proto = if proto == 0 { 17 } else { proto };
        key
    })
}

// ---------- codec ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every encodable flow_mod decodes back to itself, byte-exactly framed.
    #[test]
    fn codec_flow_mod_roundtrip(
        fmatch in flow_match(),
        actions in proptest::collection::vec(action(), 0..5),
        priority in 0u16..u16::MAX,
        cookie in proptest::num::u64::ANY,
        cmd in 0u8..5,
    ) {
        let fm = FlowMod {
            command: match cmd {
                0 => FlowModCommand::Add,
                1 => FlowModCommand::Modify,
                2 => FlowModCommand::ModifyStrict,
                3 => FlowModCommand::Delete,
                _ => FlowModCommand::DeleteStrict,
            },
            fmatch,
            priority,
            actions,
            cookie,
            idle_timeout: 0,
            hard_timeout: 0,
            out_port: PortNo::NONE,
        };
        let msg = OfpMessage::FlowMod(fm);
        let bytes = encode(&msg, 7);
        let (decoded, xid) = decode(&bytes).expect("decode");
        prop_assert_eq!(xid, 7);
        prop_assert_eq!(decoded, msg);
    }

    /// The decoder is total: random bytes never panic.
    #[test]
    fn codec_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode(&bytes);
    }

    /// Flow key extraction is total over arbitrary frames.
    #[test]
    fn flow_key_extraction_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..160)) {
        let _ = FlowKey::extract(&bytes);
    }
}

// ---------- classifier vs. reference ----------

fn mk_rule(id: u64, fmatch: FlowMatch, priority: u16) -> Arc<RuleEntry> {
    use std::sync::atomic::AtomicU64;
    Arc::new(RuleEntry {
        id,
        fmatch,
        priority,
        actions: vec![Action::Output(PortNo(1))],
        plan: vnf_highway::ovs::actions::OutputPlan::compile(&[Action::Output(PortNo(1))]),
        cookie: id,
        idle_timeout: 0,
        hard_timeout: 0,
        added_at: 0,
        last_used: AtomicU64::new(0),
        n_packets: AtomicU64::new(0),
        n_bytes: AtomicU64::new(0),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Tuple-space lookup equals the brute-force best-priority scan.
    #[test]
    fn classifier_agrees_with_linear_scan(
        rules in proptest::collection::vec((flow_match(), 0u16..8), 0..24),
        port in 0u16..6,
        key in flow_key(),
    ) {
        let rules: Vec<Arc<RuleEntry>> = rules
            .into_iter()
            .enumerate()
            .map(|(i, (m, p))| mk_rule(i as u64, m, p))
            .collect();
        let mut cls = Classifier::new();
        for r in &rules {
            cls.insert(r);
        }
        let got = cls.lookup(PortNo(port), &key).map(|r| r.id);
        let expected = rules
            .iter()
            .filter(|r| r.fmatch.matches(PortNo(port), &key))
            .max_by(|a, b| {
                a.priority
                    .cmp(&b.priority)
                    .then(b.id.cmp(&a.id)) // lower id wins ties
            })
            .map(|r| r.id);
        prop_assert_eq!(got, expected);
    }

    /// Removing every rule empties the classifier (no stale matches).
    #[test]
    fn classifier_remove_is_complete(
        rules in proptest::collection::vec((flow_match(), 0u16..8), 1..16),
        key in flow_key(),
    ) {
        let rules: Vec<Arc<RuleEntry>> = rules
            .into_iter()
            .enumerate()
            .map(|(i, (m, p))| mk_rule(i as u64, m, p))
            .collect();
        let mut cls = Classifier::new();
        for r in &rules {
            cls.insert(r);
        }
        for r in &rules {
            cls.remove(r);
        }
        prop_assert_eq!(cls.subtable_count(), 0);
        prop_assert!(cls.lookup(PortNo(1), &key).is_none());
    }
}

// ---------- cache-tier equivalence (EMC → megaflow → classifier) ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The staged-unwildcarding soundness invariant: for any rule table and
    /// any packet sequence, a lookup served by the EMC or the megaflow
    /// cache returns exactly the rule a cold classifier walk — and a
    /// brute-force best-priority scan — would return. Caches may only
    /// change cost, never the matched rule. Every probe runs twice so the
    /// second lookup exercises the warm tiers, and a mid-sequence flow_mod
    /// exercises generation invalidation.
    ///
    /// The whole sequence runs under 1, 2 and 4 cache sets: each probe is
    /// routed by flow hash (`rss_owner`) to one set's private caches, so
    /// warm hits come from per-PMD state validated against the shared
    /// table generation, as a PMD's are.
    #[test]
    fn cache_tiers_agree_with_cold_classifier(
        rules in proptest::collection::vec((flow_match(), 0u16..8), 1..24),
        probes in proptest::collection::vec((0u16..6, flow_key()), 1..32),
        mutate_at in 0usize..32,
        extra in (flow_match(), 0u16..8),
    ) {
        use vnf_highway::ovs::pmd::{rss_owner, Datapath, PmdCaches};

        for npmds in [1usize, 2, 4] {
            let dp = Datapath::new(false);
            for (m, p) in &rules {
                dp.table_apply(&FlowMod::add(*m, *p, vec![Action::Output(PortNo(1))]));
            }
            let mut pmds: Vec<PmdCaches> =
                (0..npmds).map(|_| PmdCaches::new()).collect();
            for (i, (port, key)) in probes.iter().enumerate() {
                if i == mutate_at {
                    // A table change mid-stream: every PMD's cache tiers
                    // must drop everything resolved under the old
                    // generation, however stale its private snapshot.
                    dp.table_apply(&FlowMod::add(
                        extra.0,
                        extra.1,
                        vec![Action::Output(PortNo(2))],
                    ));
                }
                let owner = rss_owner(PortNo(*port), key, npmds);
                for _round in 0..2 {
                    let (cached, _tier) =
                        dp.classify(PortNo(*port), key, Some(&mut pmds[owner]), 1, 64);
                    let (cold, reference) = {
                        let table = dp.table();
                        let cold = table.lookup(PortNo(*port), key).map(|r| r.id);
                        let reference = table
                            .rules()
                            .iter()
                            .filter(|r| r.fmatch.matches(PortNo(*port), key))
                            .max_by(|a, b| {
                                a.priority
                                    .cmp(&b.priority)
                                    .then(b.id.cmp(&a.id)) // lower id wins ties
                            })
                            .map(|r| r.id);
                        (cold, reference)
                    };
                    prop_assert_eq!(cold, reference, "classifier vs linear scan");
                    prop_assert_eq!(
                        cached.map(|r| r.id),
                        reference,
                        "cache hierarchy diverged from cold walk at probe {} ({:?}, {} PMDs)",
                        i,
                        _tier,
                        npmds
                    );
                    // The classifying PMD now holds the freshest snapshot.
                    prop_assert_eq!(
                        pmds[owner].snapshot_generation(),
                        Some(dp.table_generation())
                    );
                }
            }
        }
    }
}

// ---------- detector soundness ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Independent restatement of the detector's contract: a reported link
    /// src→dst implies (a) a rule matching exactly in_port=src with the
    /// single action Output(dst), and (b) no other rule that could ever see
    /// traffic from src. A false positive here would steal traffic.
    #[test]
    fn detector_reports_only_sound_links(
        table in proptest::collection::vec(
            (flow_match(), proptest::collection::vec(action(), 0..3), proptest::num::u64::ANY),
            0..12,
        ),
    ) {
        let snapshot: Vec<RuleSnapshot> = table
            .into_iter()
            .enumerate()
            .map(|(i, (fmatch, actions, cookie))| RuleSnapshot {
                id: i as u64,
                fmatch,
                priority: 100,
                actions,
                cookie,
            })
            .collect();
        let links = detect_p2p_links(&snapshot);
        for (src, link) in &links {
            prop_assert_eq!(*src, link.src);
            // (a) the witness rule exists…
            let witnesses: Vec<_> = snapshot
                .iter()
                .filter(|r| {
                    r.fmatch.only_in_port() == Some(PortNo(link.src as u16))
                        && r.actions == vec![Action::Output(PortNo(link.dst as u16))]
                })
                .collect();
            prop_assert!(!witnesses.is_empty(), "no witness rule for {link:?}");
            // (b) …and nothing else covers the source port.
            let witness_id = witnesses[0].id;
            for r in &snapshot {
                if r.id != witness_id {
                    prop_assert!(
                        !r.fmatch.covers_in_port(PortNo(link.src as u16)),
                        "rule {} also covers port {}",
                        r.id,
                        link.src
                    );
                }
            }
        }
    }
}

// ---------- ring model ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The SPSC ring behaves exactly like a bounded FIFO queue.
    #[test]
    fn ring_matches_fifo_model(ops in proptest::collection::vec(any::<bool>(), 1..200)) {
        let (mut p, mut c) = spsc_ring::<u32>(8);
        let mut model: VecDeque<u32> = VecDeque::new();
        let mut next = 0u32;
        for push in ops {
            if push {
                let res = p.enqueue(next);
                if model.len() < 8 {
                    prop_assert!(res.is_ok());
                    model.push_back(next);
                } else {
                    prop_assert_eq!(res, Err(next));
                }
                next += 1;
            } else {
                prop_assert_eq!(c.dequeue(), model.pop_front());
            }
            prop_assert_eq!(p.len(), model.len());
        }
    }
}

/// Lets a ring test panic inside a `pop_burst` consumer on purpose
/// without printing a backtrace for it.
fn quiet_partial_consume_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<&str>() != Some(&"partial consume") {
                prev(info);
            }
        }));
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Ring bursts behave like the bounded FIFO they batch, across many
    /// wrap-arounds of an 8-slot ring: a push burst takes exactly the
    /// prefix that fits and leaves the rest with the caller; a pop burst
    /// hands out the oldest items; a consumer that panics part-way keeps
    /// what it was given and leaves the rest queued.
    #[test]
    fn ring_bursts_match_fifo_model(
        ops in proptest::collection::vec((0u8..4, 0usize..12, 0usize..12), 1..200),
    ) {
        quiet_partial_consume_panics();
        const CAP: usize = 8;
        let (mut p, mut c) = spsc_ring::<u32>(CAP);
        let mut model: VecDeque<u32> = VecDeque::new();
        let mut next = 0u32;
        for (kind, k, j) in ops {
            match kind {
                0 | 1 => {
                    let items: Vec<u32> = (next..next + k as u32).collect();
                    next += k as u32;
                    let fits = k.min(CAP - model.len());
                    model.extend(&items[..fits]);
                    let left: Vec<u32> = if kind == 0 {
                        let mut v = items.clone();
                        prop_assert_eq!(p.enqueue_burst(&mut v), fits);
                        v
                    } else {
                        let mut it = items.clone().into_iter();
                        prop_assert_eq!(p.push_burst(&mut it), fits);
                        it.collect()
                    };
                    prop_assert_eq!(left, items[fits..].to_vec(), "unsent items stay behind");
                }
                2 => {
                    let mut out = Vec::new();
                    let n = c.dequeue_burst(&mut out, k);
                    let want: Vec<u32> = model.drain(..k.min(model.len())).collect();
                    prop_assert_eq!(n, want.len());
                    prop_assert_eq!(out, want);
                }
                _ => {
                    let mut got = Vec::new();
                    let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        c.pop_burst(k, |v| {
                            if got.len() == j {
                                panic!("partial consume");
                            }
                            got.push(v);
                        })
                    }));
                    let seen = k.min(model.len());
                    prop_assert_eq!(res.is_err(), j < seen);
                    let want: Vec<u32> = model.drain(..seen.min(j + 1)).collect();
                    // The item in hand at the panic was consumed and dropped.
                    prop_assert_eq!(&got[..], &want[..got.len()]);
                    // A later burst publishes what the panicking one took.
                    c.pop_burst(0, drop);
                }
            }
            prop_assert_eq!(p.len(), model.len());
            prop_assert_eq!(c.len(), model.len());
        }
        let mut rest = Vec::new();
        c.dequeue_burst(&mut rest, CAP);
        prop_assert_eq!(rest, Vec::from(model));
    }
}

// ---------- stats region ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Counter cells are exact under any interleaving of adds.
    #[test]
    fn stats_region_sums_exactly(adds in proptest::collection::vec((0u64..4, 1u64..100), 1..64)) {
        use vnf_highway::shmem::StatsRegion;
        let region = StatsRegion::new();
        let mut expected = std::collections::HashMap::new();
        for (cookie, pkts) in &adds {
            region.rule_cell(*cookie).add(*pkts, pkts * 64);
            let e = expected.entry(*cookie).or_insert((0u64, 0u64));
            e.0 += pkts;
            e.1 += pkts * 64;
        }
        for (cookie, (pkts, bytes)) in expected {
            prop_assert_eq!(region.rule_totals(cookie), (pkts, bytes));
        }
    }
}

// ---------- DES vs analytic solver ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The packet-level discrete-event simulator and the closed-form
    /// bottleneck solver agree at saturation for ANY (sane) cost model and
    /// chain — the figures do not depend on which one we trust.
    #[test]
    fn des_and_solver_agree_for_random_cost_models(
        n_vms in 1usize..8,
        nic_edge in proptest::bool::ANY,
        highway in proptest::bool::ANY,
        ring in 20.0f64..120.0,
        emc in 60.0f64..400.0,
        vnf in 50.0f64..2000.0,
        pmd_cores in 1u8..4,
    ) {
        use vnf_highway::model::{solve, ChainSim, ChainSpec, CostModel, Mode};
        let mut cost = CostModel::paper_testbed().with_pmd_cores(f64::from(pmd_cores));
        cost.ring_enqueue = ring;
        cost.ring_dequeue = ring;
        cost.emc_hit = emc;
        cost.vnf_app = vnf;
        let n = if nic_edge { n_vms } else { n_vms.max(2) };
        let mode = if highway { Mode::Highway } else { Mode::Vanilla };
        let spec = if nic_edge {
            ChainSpec::nic(n, mode)
        } else {
            ChainSpec::memory(n, mode)
        };
        let analytic = solve(&spec, &cost).aggregate_mpps;
        let des = ChainSim::new(&spec, &cost).saturate(6_000).aggregate_mpps;
        let err = (des - analytic).abs() / analytic;
        prop_assert!(
            err < 0.12,
            "DES {des:.3} vs analytic {analytic:.3} Mpps ({:.1}% off) for {spec:?}",
            err * 100.0
        );
    }
}

// ---------- codec: port/aggregate/table messages ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The port-state and stats extensions round-trip for arbitrary field
    /// values, like the flow_mod core.
    #[test]
    fn codec_port_and_stats_roundtrip(
        port in 0u16..u16::MAX,
        down in proptest::bool::ANY,
        reason in 0u8..3,
        name in "[a-z0-9]{0,15}",
        pkts in proptest::num::u64::ANY,
        bytes in proptest::num::u64::ANY,
        flows in proptest::num::u32::ANY,
        fmatch in flow_match(),
    ) {
        use vnf_highway::openflow::messages::*;

        let pm = OfpMessage::PortMod(PortMod { port_no: PortNo(port), down });
        let (decoded, _) = decode(&encode(&pm, 7)).unwrap();
        prop_assert_eq!(decoded, pm);

        let ps = OfpMessage::PortStatus(PortStatus {
            reason: match reason {
                0 => PortStatusReason::Add,
                1 => PortStatusReason::Delete,
                _ => PortStatusReason::Modify,
            },
            port_no: port,
            name: name.clone(),
            down,
        });
        let (decoded, _) = decode(&encode(&ps, 7)).unwrap();
        prop_assert_eq!(decoded, ps);

        let agg_req = OfpMessage::AggregateStatsRequest(AggregateStatsRequest {
            fmatch,
            out_port: PortNo(port),
        });
        let (decoded, _) = decode(&encode(&agg_req, 7)).unwrap();
        prop_assert_eq!(decoded, agg_req);

        let agg = OfpMessage::AggregateStatsReply(AggregateStats {
            packet_count: pkts,
            byte_count: bytes,
            flow_count: flows,
        });
        let (decoded, _) = decode(&encode(&agg, 7)).unwrap();
        prop_assert_eq!(decoded, agg);

        let tbl = OfpMessage::TableStatsReply(vec![TableStatsEntry {
            table_id: 0,
            name,
            max_entries: flows,
            active_count: flows / 2,
            lookup_count: pkts,
            matched_count: pkts / 2,
        }]);
        let (decoded, _) = decode(&encode(&tbl, 7)).unwrap();
        prop_assert_eq!(decoded, tbl);
    }
}

// ---------- subsumption is a partial order ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The loose-filter relation used by modify/delete/stats behaves like
    /// a partial order restricted to match semantics: reflexive,
    /// transitive, and consistent with FlowMatch::any() as top element.
    #[test]
    fn loose_filter_is_reflexive_transitive(
        a in flow_match(),
        b in flow_match(),
        c in flow_match(),
    ) {
        use vnf_highway::ovs::table::loose_filter_matches;
        prop_assert!(loose_filter_matches(&a, &a), "reflexivity");
        prop_assert!(loose_filter_matches(&FlowMatch::any(), &a), "any() is top");
        if loose_filter_matches(&a, &b) && loose_filter_matches(&b, &c) {
            prop_assert!(loose_filter_matches(&a, &c), "transitivity {a:?} {b:?} {c:?}");
        }
    }
}

// ---------- what the manager accelerates ----------

/// The VM owning a port in `manager_accelerates_exactly_the_serviceable_links`'s
/// world: ports 1 and 2 are external, VM `n` owns ports `3 + 2n` and `4 + 2n`.
fn owning_vm(port: u16) -> Option<u16> {
    (port >= 3).then(|| (port - 3) / 2)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The manager's active links are exactly the detector's links minus
    /// every link with a down endpoint or one no VM owns: the down-port
    /// veto and the VM-presence deferral are the only filters.
    #[test]
    fn manager_accelerates_exactly_the_serviceable_links(
        rules in proptest::collection::vec((1u16..=8, 1u16..=8, proptest::num::u64::ANY), 0..8),
        down in proptest::collection::btree_set(1u16..=8, 0..3),
    ) {
        use std::time::Duration;
        use vnf_highway::highway::HighwayManager;
        use vnf_highway::ovs::FlowTableObserver;
        use vnf_highway::prelude::{ComputeAgent, L2Forwarder, LatencyModel, SegmentKind, StatsRegion, Vm};
        use vnf_highway::shmem::ShmRegistry;

        let registry = ShmRegistry::new();
        let agent = Arc::new(ComputeAgent::new(registry.clone(), LatencyModel::zero()));
        let vms: Vec<Arc<Vm>> = (0..3u16)
            .map(|n| {
                let ports = [3 + 2 * n, 4 + 2 * n]
                    .into_iter()
                    .map(|p| {
                        let (vm_end, _sw_end) = registry.create_channel(
                            format!("dpdkr{p}"),
                            SegmentKind::DpdkrNormal,
                            64,
                        );
                        (u32::from(p), vm_end)
                    })
                    .collect();
                Vm::launch(format!("vm{n}"), ports, Box::new(L2Forwarder::new()), StatsRegion::new())
            })
            .collect();
        for vm in &vms {
            agent.register_vm(Arc::clone(vm));
        }
        let manager = HighwayManager::new(agent);

        // A rule joining two ports of one VM is not a bypass (`SameVm`).
        let snapshot: Vec<RuleSnapshot> = rules
            .iter()
            .filter(|(src, dst, _)| owning_vm(*src).is_none() || owning_vm(*src) != owning_vm(*dst))
            .enumerate()
            .map(|(i, (src, dst, cookie))| RuleSnapshot {
                id: i as u64,
                fmatch: FlowMatch::in_port(PortNo(*src)),
                priority: 100,
                actions: vec![Action::Output(PortNo(*dst))],
                cookie: *cookie,
            })
            .collect();
        let down_ports: Vec<PortNo> = down.iter().map(|p| PortNo(*p)).collect();
        manager.table_changed(&snapshot);
        manager.ports_changed(&down_ports);
        prop_assert!(manager.wait_converged(Duration::from_secs(5)));

        let serviceable = |p: u32| !down.contains(&(p as u16)) && owning_vm(p as u16).is_some();
        let expected: Vec<_> = detect_p2p_links(&snapshot)
            .into_values()
            .filter(|l| serviceable(l.src) && serviceable(l.dst))
            .collect();
        prop_assert_eq!(manager.active_links(), expected);
        prop_assert!(manager.failures().is_empty(), "{:?}", manager.failures());

        manager.shutdown();
        for vm in &vms {
            vm.shutdown();
        }
    }
}

// ---------- flow table vs. a linear-scan reference ----------

/// A match universe small enough that commands keep landing on installed
/// rules: 3 in-ports x (non-IP | 3 destination prefixes x 3 L4 ports),
/// with prefixes that nest so loose commands subsume across masks.
fn small_match() -> impl Strategy<Value = FlowMatch> {
    (0u16..3, 0u8..4, 0u16..3).prop_map(|(port, dst, l4)| {
        let mut m = FlowMatch::any();
        m.in_port = (port > 0).then_some(PortNo(port));
        if dst > 0 {
            m.eth_type = Some(0x0800);
            m.ip_proto = Some(17);
            m.ipv4_dst = [None, Some((10, 8)), Some((10 << 8 | 1, 16))][dst as usize - 1]
                .map(|(net, len): (u32, u8)| (Ipv4Addr::from(net << (32 - len)), len));
            m.l4_dst = (l4 > 0).then_some(79 + l4);
        }
        m.canonicalise()
    })
}

/// The reference table: a rule list and nothing else. Every command is a
/// scan, written from the OF 1.0 text rather than from `FlowTable`.
#[derive(Default)]
struct ModelTable {
    rules: Vec<RuleSnapshot>,
    ids: u64,
}

/// Sizes of the four `TableChange` categories.
#[derive(Debug, Default, PartialEq)]
struct ChangeSizes {
    added: usize,
    modified: usize,
    removed: usize,
    replaced: usize,
}

impl ModelTable {
    /// `general` covers every packet `specific` covers.
    fn subsumes(general: &FlowMatch, specific: &FlowMatch) -> bool {
        fn field<T: PartialEq>(g: Option<T>, s: Option<T>) -> bool {
            g.is_none() || g == s
        }
        fn prefix(g: Option<(Ipv4Addr, u8)>, s: Option<(Ipv4Addr, u8)>) -> bool {
            let Some((ga, gl)) = g else { return true };
            let Some((sa, sl)) = s else { return false };
            let bits = |a: Ipv4Addr| u64::from(u32::from(a)) >> (32 - gl);
            gl <= sl && bits(ga) == bits(sa)
        }
        field(general.in_port, specific.in_port)
            && field(general.eth_src, specific.eth_src)
            && field(general.eth_dst, specific.eth_dst)
            && field(general.vlan_id, specific.vlan_id)
            && field(general.eth_type, specific.eth_type)
            && field(general.ip_tos, specific.ip_tos)
            && field(general.ip_proto, specific.ip_proto)
            && prefix(general.ipv4_src, specific.ipv4_src)
            && prefix(general.ipv4_dst, specific.ipv4_dst)
            && field(general.l4_src, specific.l4_src)
            && field(general.l4_dst, specific.l4_dst)
    }

    fn addressed(fm: &FlowMod, rule: &RuleSnapshot, strict: bool) -> bool {
        if strict {
            rule.fmatch == fm.fmatch && rule.priority == fm.priority
        } else {
            Self::subsumes(&fm.fmatch, &rule.fmatch)
        }
    }

    fn add(&mut self, fm: &FlowMod, sizes: &mut ChangeSizes) {
        let before = self.rules.len();
        self.rules.retain(|r| !Self::addressed(fm, r, true));
        sizes.replaced += before - self.rules.len();
        self.ids += 1;
        self.rules.push(RuleSnapshot {
            id: self.ids,
            fmatch: fm.fmatch,
            priority: fm.priority,
            actions: fm.actions.clone(),
            cookie: fm.cookie,
        });
        sizes.added += 1;
    }

    fn apply(&mut self, fm: &FlowMod) -> ChangeSizes {
        let mut sizes = ChangeSizes::default();
        match fm.command {
            FlowModCommand::Add => self.add(fm, &mut sizes),
            FlowModCommand::Modify | FlowModCommand::ModifyStrict => {
                let strict = fm.command == FlowModCommand::ModifyStrict;
                for rule in self
                    .rules
                    .iter_mut()
                    .filter(|r| Self::addressed(fm, r, strict))
                {
                    rule.actions = fm.actions.clone();
                    if fm.cookie != 0 {
                        rule.cookie = fm.cookie;
                    }
                    sizes.modified += 1;
                }
                if sizes.modified == 0 {
                    self.add(fm, &mut sizes);
                }
            }
            FlowModCommand::Delete | FlowModCommand::DeleteStrict => {
                let strict = fm.command == FlowModCommand::DeleteStrict;
                let before = self.rules.len();
                self.rules.retain(|r| {
                    let port_hit = fm.out_port == PortNo::NONE
                        || r.actions.contains(&Action::Output(fm.out_port));
                    !(Self::addressed(fm, r, strict) && port_hit)
                });
                sizes.removed = before - self.rules.len();
            }
        }
        sizes
    }

    fn lookup(&self, port: PortNo, key: &FlowKey) -> Option<u64> {
        let hits = self.rules.iter().filter(|r| r.fmatch.matches(port, key));
        hits.max_by(|a, b| a.priority.cmp(&b.priority).then(b.id.cmp(&a.id)))
            .map(|r| r.id)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// `FlowTable::apply` finds, replaces and removes rules through the
    /// classifier's buckets and a position index; the reference does it
    /// all by scanning. After every command of a random sequence — the
    /// five flow_mod commands, an `Add` aimed at an installed rule, a
    /// strict modify aimed at nothing, deletes with and without an
    /// out_port filter — both hold the same rules (id, match, priority,
    /// actions, cookie: a modify keeps the id), report the same
    /// `TableChange` category sizes and resolve random packets alike.
    #[test]
    fn flow_table_agrees_with_linear_scan_model(
        ops in proptest::collection::vec(
            (0u8..8, small_match(), 0u16..3, 1u16..4, 0u64..3, proptest::num::u64::ANY),
            1..48,
        ),
        probes in proptest::collection::vec((0u16..3, 0u8..3, 0u16..3), 4..8),
    ) {
        use vnf_highway::ovs::FlowTable;

        let mut table = FlowTable::new();
        let mut model = ModelTable::default();
        for (step, (kind, fmatch, priority, out, cookie, pick)) in ops.into_iter().enumerate() {
            let mut fm = FlowMod::add(fmatch, priority, vec![Action::Output(PortNo(out))])
                .with_cookie(cookie);
            match kind {
                0 => {}
                1 => fm.command = FlowModCommand::Modify,
                2 => fm.command = FlowModCommand::ModifyStrict,
                3 => fm.command = FlowModCommand::Delete,
                4 => fm.command = FlowModCommand::DeleteStrict,
                5 => {
                    // A loose delete narrowed to the rules that output here.
                    fm.command = FlowModCommand::Delete;
                    fm.out_port = PortNo(out);
                }
                6 => {
                    // An Add that lands exactly on an installed rule.
                    if let Some(r) = model.rules.get(pick as usize % model.rules.len().max(1)) {
                        fm.fmatch = r.fmatch;
                        fm.priority = r.priority;
                    }
                }
                _ => {
                    // A strict modify of a rule no step has installed.
                    fm.command = FlowModCommand::ModifyStrict;
                    fm.priority = 1000 + step as u16;
                }
            }
            let change = table.apply(&fm);
            let sizes = ChangeSizes {
                added: change.added.len(),
                modified: change.modified.len(),
                removed: change.removed.len(),
                replaced: change.replaced.len(),
            };
            prop_assert_eq!(&sizes, &model.apply(&fm), "step {}: {:?}", step, fm);

            let mut installed: Vec<RuleSnapshot> = table
                .rules()
                .iter()
                .map(|r| RuleSnapshot {
                    id: r.id,
                    fmatch: r.fmatch,
                    priority: r.priority,
                    actions: r.actions.clone(),
                    cookie: r.cookie,
                })
                .collect();
            installed.sort_by_key(|r| r.id);
            model.rules.sort_by_key(|r| r.id);
            prop_assert_eq!(&installed, &model.rules, "step {}: {:?}", step, fm);

            for (port, dst, l4) in &probes {
                let mut key = FlowKey::extract(&PacketBuilder::udp_probe(64).ports(7, 79 + l4).build());
                key.ipv4_dst = Ipv4Addr::new(10, *dst, 0, 1);
                let got = table.lookup(PortNo(*port), &key).map(|r| r.id);
                prop_assert_eq!(got, model.lookup(PortNo(*port), &key), "step {}: lookup", step);
            }
        }
    }
}

// ---------- staged burst pipeline vs. a per-packet reference ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `process_burst` (group, resolve once per key, stage in burst order
    /// through compiled plans) is observably the same as running each
    /// packet alone through `classify(None)` + `execute` + `stage_outputs`:
    /// the same bytes staged on every port in the same order, the same
    /// punts in the same order, the same drops, the same per-rule counters
    /// and `lookups == matched + misses`. Bursts of up to 64 packets run
    /// through the chunk path; keys repeat within a burst; the rules cover
    /// a rewrite, flood, `IN_PORT`, the controller, two outputs and a miss.
    #[test]
    fn process_burst_matches_per_packet_reference(
        bursts in proptest::collection::vec(
            (1u16..4, proptest::collection::vec((0u16..7, 0u16..4), 1..65)),
            1..4,
        ),
        miss_to_controller in any::<bool>(),
    ) {
        use parking_lot::Mutex;
        use std::collections::BTreeMap;
        use vnf_highway::dpdk::Mbuf;
        use vnf_highway::openflow::messages::PacketInReason;
        use vnf_highway::ovs::actions::{execute, OutputTarget};
        use vnf_highway::ovs::pmd::{Datapath, PmdCaches};
        use vnf_highway::ovs::OvsPort;

        let rules: [(u16, Vec<Action>); 6] = [
            (1, vec![Action::SetL4Dst(7), Action::Output(PortNo(2))]),
            (2, vec![Action::Output(PortNo::FLOOD)]),
            (3, vec![Action::Output(PortNo::IN_PORT)]),
            (4, vec![Action::Output(PortNo::CONTROLLER), Action::Output(PortNo(3))]),
            (5, vec![Action::Output(PortNo(2))]),
            (6, vec![Action::Output(PortNo(3)), Action::Output(PortNo(1))]),
        ];
        let world = || {
            let dp = Datapath::new(miss_to_controller);
            let mut ends = Vec::new();
            for no in 1..=4u16 {
                let (sw, far) = vnf_highway::shmem::channel(format!("r{no}"), 8);
                dp.add_port(OvsPort::dpdkr(PortNo(no), format!("r{no}"), sw));
                ends.push(far);
            }
            // l4_dst 0 matches no rule: the miss.
            for (dst, actions) in &rules {
                let mut m = FlowMatch::any();
                m.l4_dst = Some(*dst);
                dp.table_apply(&FlowMod::add(m, 10, actions.clone()));
            }
            let ports: Vec<Arc<OvsPort>> = dp.ports.read().values().cloned().collect();
            (dp, ports, ends)
        };
        let (dp, ports, _ends) = world();
        let (reference, ref_ports, _ref_ends) = world();
        let caches = Arc::new(Mutex::new(PmdCaches::new()));
        dp.register_pmd_caches(&caches);
        let mut staged: BTreeMap<PortNo, Vec<Mbuf>> = BTreeMap::new();
        let mut ref_staged: BTreeMap<PortNo, Vec<Mbuf>> = BTreeMap::new();
        let mut ref_punts: Vec<(PortNo, PacketInReason, Vec<u8>)> = Vec::new();
        let (mut ref_matched, mut ref_miss_drops, mut seq) = (0u64, 0u64, 0u64);
        let now = vnf_highway::dpdk::cycles::now();

        for (in_port, pkts) in &bursts {
            let in_port = PortNo(*in_port);
            let frames: Vec<Vec<u8>> = pkts
                .iter()
                .map(|&(dst, src)| {
                    seq += 1;
                    PacketBuilder::udp_probe(64 + 4 * usize::from(src))
                        .ports(1000 + src, dst)
                        .seq(seq)
                        .build()
                })
                .collect();
            let mut burst: Vec<Mbuf> = frames.iter().map(|f| Mbuf::from_slice(f)).collect();
            dp.process_burst(&mut burst, in_port, Some(&*caches), &mut staged, &ports, now);
            prop_assert!(burst.is_empty(), "the burst drains");

            for frame in &frames {
                let mut pkt = Mbuf::from_slice(frame);
                let key = FlowKey::extract(pkt.data());
                let Some(rule) = reference.classify(in_port, &key, None, 1, 0).0 else {
                    if miss_to_controller {
                        ref_punts.push((in_port, PacketInReason::NoMatch, frame.clone()));
                    } else {
                        ref_miss_drops += 1;
                    }
                    continue;
                };
                ref_matched += 1;
                rule.hit_n(1, frame.len() as u64, now);
                let mut targets = execute(&mut pkt, &rule.actions);
                for t in &targets {
                    if *t == OutputTarget::Controller {
                        ref_punts.push((in_port, PacketInReason::Action, pkt.to_vec()));
                    }
                }
                targets.retain(|t| *t != OutputTarget::Controller);
                reference.stage_outputs(pkt, in_port, &targets, &mut ref_staged, &ref_ports);
            }
        }

        let bytes = |s: &BTreeMap<PortNo, Vec<Mbuf>>| -> BTreeMap<PortNo, Vec<Vec<u8>>> {
            s.iter()
                .filter(|(_, q)| !q.is_empty())
                .map(|(p, q)| (*p, q.iter().map(Mbuf::to_vec).collect()))
                .collect()
        };
        prop_assert_eq!(bytes(&staged), bytes(&ref_staged), "staged bytes and order");
        let punts: Vec<(PortNo, PacketInReason, Vec<u8>)> = dp
            .drain_packet_ins(4096)
            .into_iter()
            .map(|pi| (pi.in_port, pi.reason, pi.data))
            .collect();
        prop_assert_eq!(punts, ref_punts, "punts and their order");
        let total: u64 = bursts.iter().map(|(_, p)| p.len() as u64).sum();
        let s = dp.cache_stats();
        prop_assert_eq!(s.lookups, total);
        prop_assert_eq!(s.matched, ref_matched);
        prop_assert_eq!(s.lookups, s.matched + s.misses);
        prop_assert_eq!(s.matched, s.emc_hits + s.megaflow_hits + s.classifier_hits);
        prop_assert_eq!(
            dp.miss_drops.load(std::sync::atomic::Ordering::Relaxed),
            ref_miss_drops
        );
        let counters = |dp: &Datapath| -> Vec<(u64, (u64, u64))> {
            let mut c: Vec<_> = dp.table().rules().iter().map(|r| (r.id, r.counters())).collect();
            c.sort_unstable();
            c
        };
        prop_assert_eq!(counters(&dp), counters(&reference), "per-rule n_packets/n_bytes");
    }
}

// ---------- guest burst runner vs. a per-packet reference ----------

/// Returns the verdict each frame names in its first byte, so the runner
/// and the reference follow the same script.
struct Scripted;

impl vnf_highway::vnf::VnfApp for Scripted {
    fn name(&self) -> &str {
        "scripted"
    }

    fn process(
        &mut self,
        pkt: &mut vnf_highway::dpdk::Mbuf,
        _in_port_idx: usize,
    ) -> vnf_highway::vnf::Verdict {
        use vnf_highway::vnf::Verdict;
        [Verdict::Forward, Verdict::Reflect, Verdict::Drop][usize::from(pkt.data()[0])]
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The burst `VnfRunner` is observably a runner that handles one packet
    /// at a time: each port emits the same packets in the same order, and
    /// forwarded / reflected / dropped / ctrl_applied agree. One- and
    /// two-port guests; up to 80 packets per input, so bursts cross
    /// `DEFAULT_BURST`; and up to 80 in flight on a bypass when it is
    /// drained through the app.
    #[test]
    fn burst_runner_matches_per_packet_reference(
        two_ports in any::<bool>(),
        drained in proptest::collection::vec(0u8..3, 0..81),
        inputs in proptest::collection::vec(proptest::collection::vec(0u8..3, 0..81), 2..3),
    ) {
        use std::sync::atomic::{AtomicBool, Ordering};
        use vnf_highway::dpdk::{Mbuf, DEFAULT_BURST};
        use vnf_highway::shmem::{channel, serial_pair, DeviceBoard, IvshmemDevice, StatsRegion};
        use vnf_highway::vnf::{DpdkrPmd, GuestConfig, PmdAck, PmdCtrl, VnfRunner};

        let ports = if two_ports { 2 } else { 1 };
        let frame = |code: u8, id: u16| Mbuf::from_slice(&[code, (id >> 8) as u8, id as u8]);
        let stats = StatsRegion::new();
        let (mut pmds, mut switch) = (Vec::new(), Vec::new());
        for p in 0..ports {
            let (vm, sw) = channel(format!("dpdkr{p}"), 256);
            pmds.push(DpdkrPmd::new(p as u32 + 1, vm, stats.clone()));
            switch.push(sw);
        }
        let (host_ctrl, guest_ctrl) = serial_pair::<PmdCtrl>("vm");
        let (guest_ack, _host_ack) = serial_pair::<PmdAck>("vm-ack");
        let board = Arc::new(DeviceBoard::new());
        let (bypass, mut peer) = channel("bypass", 128);
        board.plug(IvshmemDevice::new("bypass", bypass));
        let config = GuestConfig {
            name: "vm".into(),
            ports: pmds,
            app: Box::new(Scripted),
            serial: guest_ctrl,
            ack_via: guest_ack,
            board,
        };
        let mut runner = VnfRunner::new(config, Arc::new(AtomicBool::new(false)));
        let segment = "bypass".to_string();
        host_ctrl.send(PmdCtrl::MapBypass { seq: 1, of_port: 1, segment }).unwrap();
        host_ctrl.send(PmdCtrl::EnableRx { seq: 2, of_port: 1 }).unwrap();
        runner.poll_once();

        // Ids: the bypass's in-flight packets 0.., port p's 1000 * (p + 1)...
        for (id, &code) in (0u16..).zip(&drained) {
            peer.send(frame(code, id)).unwrap();
        }
        for (p, codes) in inputs.iter().take(ports).enumerate() {
            for (i, &code) in (0u16..).zip(codes) {
                switch[p].send(frame(code, 1000 * (p as u16 + 1) + i)).unwrap();
            }
        }
        host_ctrl.send(PmdCtrl::DisableRxDrain { seq: 3, of_port: 1 }).unwrap();
        while runner.poll_once() {}

        // The reference: one packet at a time; the drain first (control is
        // served first in a poll), then DEFAULT_BURST per port per poll.
        let mut expect: Vec<Vec<u16>> = vec![Vec::new(); ports];
        let (mut forwarded, mut reflected, mut dropped) = (0u64, 0u64, 0u64);
        let mut one = |in_idx: usize, code: u8, id: u16| match code {
            0 => {
                expect[if ports == 1 { in_idx } else { in_idx ^ 1 }].push(id);
                forwarded += 1;
            }
            1 => {
                expect[in_idx].push(id);
                reflected += 1;
            }
            _ => dropped += 1,
        };
        for (id, &code) in (0u16..).zip(&drained) {
            one(0, code, id);
        }
        let mut queues: Vec<VecDeque<(u8, u16)>> = (0..ports)
            .map(|p| {
                let ids = (0u16..).map(|i| 1000 * (p as u16 + 1) + i);
                inputs[p].iter().copied().zip(ids).collect()
            })
            .collect();
        while queues.iter().any(|q| !q.is_empty()) {
            for (p, queue) in queues.iter_mut().enumerate() {
                for (code, id) in queue.drain(..DEFAULT_BURST.min(queue.len())) {
                    one(p, code, id);
                }
            }
        }

        for (p, sw) in switch.iter_mut().enumerate() {
            let got: Vec<u16> = std::iter::from_fn(|| sw.recv())
                .map(|m| u16::from_be_bytes([m.data()[1], m.data()[2]]))
                .collect();
            prop_assert_eq!(&got, &expect[p], "port {} output order", p);
        }
        let c = runner.counters();
        let read = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed);
        prop_assert_eq!(
            (read(&c.forwarded), read(&c.reflected), read(&c.dropped), read(&c.ctrl_applied)),
            (forwarded, reflected, dropped, 3)
        );
    }
}
