//! `ovs-ofctl dump-flows`-style textual rendering of the flow table, the
//! per-PMD megaflow caches (`ovs-dpctl dump-flows`-style) and ports — the
//! operator-facing view of the switch, handy in examples and when
//! debugging steering rules.

use crate::megaflow::MegaflowRow;
use crate::pmd::Datapath;
use crate::table::RuleEntry;
use openflow::fmatch::{MatchMask, ProjectedKey};
use openflow::{Action, PortNo};
use std::net::Ipv4Addr;

fn fmt_match(rule: &RuleEntry) -> String {
    let m = &rule.fmatch;
    let mut parts: Vec<String> = Vec::new();
    if let Some(p) = m.in_port {
        parts.push(format!("in_port={p}"));
    }
    if let Some(mac) = m.eth_src {
        parts.push(format!("dl_src={mac}"));
    }
    if let Some(mac) = m.eth_dst {
        parts.push(format!("dl_dst={mac}"));
    }
    if let Some(v) = m.vlan_id {
        parts.push(format!("dl_vlan={v}"));
    }
    if let Some(t) = m.eth_type {
        parts.push(format!("dl_type=0x{t:04x}"));
    }
    if let Some(t) = m.ip_tos {
        parts.push(format!("nw_tos={t}"));
    }
    if let Some(p) = m.ip_proto {
        parts.push(format!("nw_proto={p}"));
    }
    if let Some((a, l)) = m.ipv4_src {
        parts.push(format!("nw_src={a}/{l}"));
    }
    if let Some((a, l)) = m.ipv4_dst {
        parts.push(format!("nw_dst={a}/{l}"));
    }
    if let Some(p) = m.l4_src {
        parts.push(format!("tp_src={p}"));
    }
    if let Some(p) = m.l4_dst {
        parts.push(format!("tp_dst={p}"));
    }
    if parts.is_empty() {
        "*".into()
    } else {
        parts.join(",")
    }
}

fn fmt_actions(actions: &[Action]) -> String {
    if actions.is_empty() {
        return "drop".into();
    }
    actions
        .iter()
        .map(|a| match a {
            Action::Output(PortNo(p)) => match PortNo(*p) {
                PortNo::FLOOD => "FLOOD".into(),
                PortNo::ALL => "ALL".into(),
                PortNo::CONTROLLER => "CONTROLLER".into(),
                PortNo::IN_PORT => "IN_PORT".into(),
                PortNo(n) => format!("output:{n}"),
            },
            Action::SetVlanId(v) => format!("mod_vlan_vid:{v}"),
            Action::StripVlan => "strip_vlan".into(),
            Action::SetEthSrc(m) => format!("mod_dl_src:{m}"),
            Action::SetEthDst(m) => format!("mod_dl_dst:{m}"),
            Action::SetIpv4Src(a) => format!("mod_nw_src:{a}"),
            Action::SetIpv4Dst(a) => format!("mod_nw_dst:{a}"),
            Action::SetIpTos(t) => format!("mod_nw_tos:{t}"),
            Action::SetL4Src(p) => format!("mod_tp_src:{p}"),
            Action::SetL4Dst(p) => format!("mod_tp_dst:{p}"),
        })
        .collect::<Vec<_>>()
        .join(",")
}

/// Renders the flow table like `ovs-ofctl dump-flows`, one rule per line,
/// highest priority first (ties by id).
pub fn dump_flows(dp: &Datapath) -> String {
    let table = dp.table();
    let mut rules: Vec<_> = table.rules().to_vec();
    rules.sort_by(|a, b| b.priority.cmp(&a.priority).then(a.id.cmp(&b.id)));
    let mut out = String::new();
    for r in rules {
        let (packets, bytes) = r.counters();
        out.push_str(&format!(
            " cookie=0x{:x}, n_packets={packets}, n_bytes={bytes}, priority={},{} actions={}\n",
            r.cookie,
            r.priority,
            if fmt_match(&r) == "*" {
                String::new()
            } else {
                format!("{},", fmt_match(&r))
            },
            fmt_actions(&r.actions),
        ));
    }
    out
}

/// Renders a megaflow's masked key `ovs-dpctl`-style: only the fields the
/// staged mask pins appear; everything else is wildcarded by omission.
fn fmt_masked_key(mask: &MatchMask, key: &ProjectedKey) -> String {
    let mut parts: Vec<String> = Vec::new();
    if let Some(p) = key.in_port {
        parts.push(format!("in_port({p})"));
    }
    if let Some(m) = key.eth_src {
        parts.push(format!("eth(src={m})"));
    }
    if let Some(m) = key.eth_dst {
        parts.push(format!("eth(dst={m})"));
    }
    if let Some(v) = key.vlan_id {
        parts.push(format!("vlan({v})"));
    }
    if let Some(t) = key.eth_type {
        parts.push(format!("eth_type(0x{t:04x})"));
    }
    if let Some(t) = key.ip_tos {
        parts.push(format!("ipv4(tos={t})"));
    }
    if let Some(p) = key.ip_proto {
        parts.push(format!("ipv4(proto={p})"));
    }
    if mask.ipv4_src_len > 0 {
        parts.push(format!(
            "ipv4(src={}/{})",
            Ipv4Addr::from(key.ipv4_src),
            mask.ipv4_src_len
        ));
    }
    if mask.ipv4_dst_len > 0 {
        parts.push(format!(
            "ipv4(dst={}/{})",
            Ipv4Addr::from(key.ipv4_dst),
            mask.ipv4_dst_len
        ));
    }
    if let Some(p) = key.l4_src {
        parts.push(format!("l4(src={p})"));
    }
    if let Some(p) = key.l4_dst {
        parts.push(format!("l4(dst={p})"));
    }
    if parts.is_empty() {
        "*".into()
    } else {
        parts.join(",")
    }
}

/// Renders every PMD's megaflow cache like `ovs-dpctl dump-flows`: one
/// masked aggregate per line with its traffic counters and resolved
/// actions, busiest first, grouped per PMD.
pub fn dump_megaflows(dp: &Datapath) -> String {
    let mut out = String::new();
    for (pmd, rows) in dp.megaflow_rows().into_iter().enumerate() {
        out.push_str(&format!("pmd {pmd}: {} megaflows\n", rows.len()));
        for row in rows {
            out.push_str(&format_megaflow_row(&row));
        }
    }
    out
}

/// One `dpctl`-style line for a megaflow row (used by [`dump_megaflows`]
/// and by callers holding a [`crate::megaflow::Megaflow`] directly).
pub fn format_megaflow_row(row: &MegaflowRow) -> String {
    format!(
        " {}, packets:{}, bytes:{}, rule:{}, actions:{}\n",
        fmt_masked_key(&row.mask, &row.key),
        row.n_packets,
        row.n_bytes,
        row.rule_id,
        fmt_actions(&row.actions),
    )
}

/// Renders the datapath-wide counters like `ovs-dpctl show`'s stats block:
/// the tier-split lookup identities plus every drop class (miss, tx to a
/// vanished port, packet-in queue overflow).
pub fn dump_datapath_stats(dp: &Datapath) -> String {
    use std::sync::atomic::Ordering;
    let s = dp.cache_stats();
    let mut out = String::new();
    out.push_str(&format!(
        "  lookups: hit:{} missed:{} total:{}\n",
        s.matched, s.misses, s.lookups
    ));
    out.push_str(&format!(
        "  cache tiers: emc:{} megaflow:{} classifier:{}\n",
        s.emc_hits, s.megaflow_hits, s.classifier_hits
    ));
    out.push_str(&format!(
        "  drops: miss:{} tx_no_port:{} packet_in:{}\n",
        dp.miss_drops.load(Ordering::Relaxed),
        s.tx_no_port_drops,
        dp.packet_in_drops.load(Ordering::Relaxed),
    ));
    out
}

/// Renders the port list like `ovs-ofctl dump-ports` (administratively
/// disabled ports are flagged, like `LINK_DOWN` in `ovs-ofctl show`).
pub fn dump_ports(dp: &Datapath) -> String {
    let ports = dp.ports.read();
    let mut out = String::new();
    for port in ports.values() {
        let s = port.stats();
        out.push_str(&format!(
            "  port {:>4} ({}){}: rx pkts={}, bytes={} | tx pkts={}, bytes={}, drop={}\n",
            port.no.0,
            port.name,
            if port.is_admin_up() {
                ""
            } else {
                " [PORT_DOWN]"
            },
            s.ipackets,
            s.ibytes,
            s.opackets,
            s.obytes,
            s.odropped,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use openflow::messages::FlowMod;
    use openflow::FlowMatch;

    #[test]
    fn dump_formats_rules_like_ofctl() {
        let dp = Datapath::new(false);
        let mut m = FlowMatch::in_port(PortNo(1));
        m.eth_type = Some(0x0800);
        m.l4_dst = Some(80);
        dp.table_apply(&FlowMod::add(m, 200, vec![Action::Output(PortNo(2))]).with_cookie(0xbeef));
        dp.table_apply(&FlowMod::add(FlowMatch::any(), 1, vec![]));

        let dump = dump_flows(&dp);
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 2);
        // Priority order: the specific rule first.
        assert!(lines[0].contains("cookie=0xbeef"));
        assert!(lines[0].contains("in_port=1"));
        assert!(lines[0].contains("dl_type=0x0800"));
        assert!(lines[0].contains("tp_dst=80"));
        assert!(lines[0].contains("actions=output:2"));
        assert!(lines[1].contains("actions=drop"));
    }

    #[test]
    fn dump_ports_includes_counters() {
        let dp = Datapath::new(false);
        let (sw_end, mut vm_end) = shmem_sim::channel("d1", 8);
        dp.add_port(crate::port::OvsPort::dpdkr(PortNo(3), "dpdkr3", sw_end));
        vm_end.send(dpdk_sim::Mbuf::from_slice(&[0u8; 64])).unwrap();
        let mut rx = Vec::new();
        dp.port(PortNo(3)).unwrap().rx_burst(&mut rx, 8);
        let dump = dump_ports(&dp);
        assert!(dump.contains("port    3 (dpdkr3)"));
        assert!(dump.contains("rx pkts=1, bytes=64"));
    }

    #[test]
    fn dump_megaflows_renders_masked_aggregates() {
        use crate::pmd::PmdCaches;
        use parking_lot::Mutex;
        use std::sync::Arc;

        let dp = Datapath::new(false);
        let (sw1, mut vm1) = shmem_sim::channel("m1", 8);
        let (sw2, _vm2) = shmem_sim::channel("m2", 8);
        dp.add_port(crate::port::OvsPort::dpdkr(PortNo(1), "m1", sw1));
        dp.add_port(crate::port::OvsPort::dpdkr(PortNo(2), "m2", sw2));
        let mut m = FlowMatch::in_port(PortNo(1));
        m.l4_dst = Some(80);
        dp.table_apply(&FlowMod::add(m, 10, vec![Action::Output(PortNo(2))]));

        let caches = Arc::new(Mutex::new(PmdCaches::new()));
        dp.register_pmd_caches(&caches);
        vm1.send(dpdk_sim::Mbuf::from_slice(
            &packet_wire::PacketBuilder::udp_probe(64)
                .ports(5, 80)
                .build(),
        ))
        .unwrap();
        crate::pmd::pump_once(&dp, Some(&*caches));

        let dump = dump_megaflows(&dp);
        assert!(dump.contains("pmd 0: 1 megaflows"), "{dump}");
        assert!(dump.contains("in_port(1)"), "{dump}");
        assert!(dump.contains("l4(dst=80)"), "{dump}");
        assert!(dump.contains("actions:output:2"), "{dump}");
        // The resolving packet seeds the fresh entry's counters.
        assert!(dump.contains("packets:1, bytes:64"), "{dump}");
    }

    /// `dump_megaflows` over a fixed table and fixed traffic is pinned
    /// byte for byte: the packed megaflow keys must render exactly what
    /// the field-wise projected keys did. Five masks (in-port only, a /16
    /// prefix, L2 pairs with a ToS, a hairpin with a rewrite, a drop), with
    /// flows that resolve in every tier over three bursts.
    #[test]
    fn dump_megaflows_output_is_pinned() {
        use crate::pmd::PmdCaches;
        use packet_wire::{MacAddr, PacketBuilder};
        use parking_lot::Mutex;
        use std::sync::Arc;

        let dp = Datapath::new(false);
        let mut ends = Vec::new();
        for n in 1..=3u16 {
            let (sw, vm) = shmem_sim::channel(format!("g{n}"), 64);
            dp.add_port(crate::port::OvsPort::dpdkr(PortNo(n), format!("g{n}"), sw));
            ends.push(vm);
        }
        let mut web = FlowMatch::in_port(PortNo(1));
        web.eth_type = Some(0x0800);
        web.l4_dst = Some(80);
        dp.table_apply(&FlowMod::add(web, 30, vec![Action::Output(PortNo(2))]));
        let mut net = FlowMatch::in_port(PortNo(1));
        net.eth_type = Some(0x0800);
        net.ipv4_dst = Some((Ipv4Addr::new(10, 9, 0, 0), 16));
        dp.table_apply(&FlowMod::add(net, 20, vec![Action::Output(PortNo(3))]));
        let mut l2 = FlowMatch::eth_pair(MacAddr::local(5), MacAddr::local(6));
        l2.ip_tos = Some(0);
        dp.table_apply(&FlowMod::add(l2, 15, vec![Action::Output(PortNo::FLOOD)]));
        dp.table_apply(&FlowMod::add(
            FlowMatch::in_port(PortNo(2)),
            10,
            vec![Action::SetL4Dst(9), Action::Output(PortNo::IN_PORT)],
        ));
        dp.table_apply(&FlowMod::add(FlowMatch::any(), 1, vec![]));

        let caches = Arc::new(Mutex::new(PmdCaches::new()));
        dp.register_pmd_caches(&caches);
        // (sending end, l4 src, l4 dst, ipv4 dst, eth src, eth dst)
        let frames: [(usize, u16, u16, [u8; 4], u8, u8); 9] = [
            (0, 1000, 80, [10, 0, 0, 2], 1, 2),
            (0, 1001, 80, [10, 0, 0, 2], 1, 2),
            (0, 1000, 81, [10, 9, 1, 1], 1, 2),
            (0, 1000, 81, [10, 9, 2, 1], 1, 2),
            (0, 1000, 82, [10, 8, 2, 1], 5, 6),
            (0, 1000, 83, [10, 7, 2, 1], 1, 2),
            (1, 7, 8, [10, 0, 0, 1], 1, 2),
            (1, 7, 9, [10, 0, 0, 1], 1, 2),
            (2, 7, 9, [10, 0, 0, 1], 5, 6),
        ];
        for round in 0..3 {
            for (i, &(end, src, dst, ip, ms, md)) in frames.iter().enumerate() {
                if i % 3 == round || round == 2 {
                    let f = PacketBuilder::udp_probe(64 + 4 * i)
                        .eth(MacAddr::local(ms), MacAddr::local(md))
                        .ip(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::from(ip))
                        .ports(src, dst)
                        .build();
                    ends[end].send(dpdk_sim::Mbuf::from_slice(&f)).unwrap();
                }
            }
            crate::pmd::pump_once(&dp, Some(&*caches));
            for e in &mut ends {
                while e.recv().is_some() {}
            }
        }
        let expected = "\
pmd 0: 7 megaflows
 in_port(1),eth_type(0x0800),l4(dst=80), packets:2, bytes:132, rule:1, actions:output:2
 in_port(1),eth_type(0x0800),ipv4(dst=10.9.0.0/16),l4(dst=81), packets:2, bytes:148, rule:2, actions:output:3
 in_port(3),eth(src=02:00:00:00:00:05),eth(dst=02:00:00:00:00:06),eth_type(0x0800),ipv4(tos=0),ipv4(dst=10.0.0.0/16),l4(dst=9), packets:1, bytes:96, rule:3, actions:FLOOD
 in_port(1),eth(src=02:00:00:00:00:05),eth(dst=02:00:00:00:00:06),eth_type(0x0800),ipv4(tos=0),ipv4(dst=10.8.0.0/16),l4(dst=82), packets:1, bytes:80, rule:3, actions:FLOOD
 in_port(2),eth(src=02:00:00:00:00:01),eth(dst=02:00:00:00:00:02),eth_type(0x0800),ipv4(tos=0),ipv4(dst=10.0.0.0/16),l4(dst=9), packets:1, bytes:92, rule:4, actions:mod_tp_dst:9,IN_PORT
 in_port(2),eth(src=02:00:00:00:00:01),eth(dst=02:00:00:00:00:02),eth_type(0x0800),ipv4(tos=0),ipv4(dst=10.0.0.0/16),l4(dst=8), packets:1, bytes:88, rule:4, actions:mod_tp_dst:9,IN_PORT
 in_port(1),eth(src=02:00:00:00:00:01),eth(dst=02:00:00:00:00:02),eth_type(0x0800),ipv4(tos=0),ipv4(dst=10.7.0.0/16),l4(dst=83), packets:1, bytes:84, rule:5, actions:drop
";
        assert_eq!(dump_megaflows(&dp), expected);
    }

    #[test]
    fn dump_datapath_stats_reports_drop_classes() {
        use crate::pmd::PmdCaches;
        use parking_lot::Mutex;
        use std::sync::Arc;
        use telemetry::Tier;

        let dp = Datapath::new(false);
        let caches = Arc::new(Mutex::new(PmdCaches::new()));
        dp.register_pmd_caches(&caches);
        for (tier, n) in [
            (Some(Tier::Emc), 5),
            (Some(Tier::Megaflow), 2),
            (Some(Tier::Classifier), 1),
            (None, 2),
        ] {
            caches.lock().perf.count_lookup(tier, n);
        }
        dp.miss_drops.store(2, std::sync::atomic::Ordering::Relaxed);
        dp.tx_no_port_drops
            .store(3, std::sync::atomic::Ordering::Relaxed);
        let dump = dump_datapath_stats(&dp);
        assert!(dump.contains("lookups: hit:8 missed:2 total:10"), "{dump}");
        assert!(
            dump.contains("cache tiers: emc:5 megaflow:2 classifier:1"),
            "{dump}"
        );
        assert!(
            dump.contains("drops: miss:2 tx_no_port:3 packet_in:0"),
            "{dump}"
        );
    }

    #[test]
    fn reserved_ports_render_by_name() {
        assert_eq!(fmt_actions(&[Action::Output(PortNo::FLOOD)]), "FLOOD");
        assert_eq!(
            fmt_actions(&[Action::SetIpTos(4), Action::Output(PortNo(9))]),
            "mod_nw_tos:4,output:9"
        );
    }
}
