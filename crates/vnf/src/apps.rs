//! VNF applications.
//!
//! The paper evaluates chains of single-core DPDK applications that move
//! packets between their two ports ([`L2Forwarder`]); its motivating service
//! graph (Figure 1) composes a firewall, a network monitor and a web cache.
//! [`Nat44`] rewrites headers, so the transparency tests can check that a
//! rewrite is byte-identical over a bypass channel. All implement the same
//! [`VnfApp`] trait the runner drives.

use dpdk_sim::Mbuf;
use packet_wire::{FlowKey, IpProtocol, Ipv4Packet, TcpSegment, UdpDatagram};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// What to do with a processed packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Send out the VM's other port.
    Forward,
    /// Drop the packet.
    Drop,
    /// Send back out the port it arrived on (a hairpin).
    Reflect,
}

/// A packet-processing network function.
pub trait VnfApp: Send {
    /// Application name (diagnostics).
    fn name(&self) -> &str;

    /// Processes one packet arriving on port index `in_port_idx`
    /// (0 or 1 for a two-port VM).
    fn process(&mut self, pkt: &mut Mbuf, in_port_idx: usize) -> Verdict;

    /// Processes one burst arriving on `in_port_idx`, writing the verdict
    /// for `pkts[i]` to `verdicts[i]`. The runner makes one dynamic call
    /// per burst; this default loops over [`VnfApp::process`] statically.
    fn process_burst(&mut self, pkts: &mut [Mbuf], in_port_idx: usize, verdicts: &mut [Verdict]) {
        for (pkt, verdict) in pkts.iter_mut().zip(verdicts) {
            *verdict = self.process(pkt, in_port_idx);
        }
    }
}

/// The paper's test application: moves packets from one port to the other,
/// touching one payload byte so the work is not optimised away (a real
/// forwarder at least reads the frame).
#[derive(Debug, Default)]
pub struct L2Forwarder {
    /// Packets forwarded.
    pub forwarded: u64,
}

impl L2Forwarder {
    /// Creates the forwarder.
    pub fn new() -> L2Forwarder {
        L2Forwarder::default()
    }
}

impl VnfApp for L2Forwarder {
    fn name(&self) -> &str {
        "l2fwd"
    }

    fn process(&mut self, pkt: &mut Mbuf, _in_port_idx: usize) -> Verdict {
        // Read — don't write — the last payload byte: a real forwarder at
        // least reads the frame, but a write would count as a slab write and
        // break the one-write-per-packet zero-copy census.
        std::hint::black_box(pkt.data().last().copied());
        self.forwarded += 1;
        Verdict::Forward
    }
}

/// One firewall rule: optional 5-tuple constraints plus a verdict.
#[derive(Debug, Clone, Copy)]
pub struct FirewallRule {
    pub src: Option<Ipv4Addr>,
    pub dst: Option<Ipv4Addr>,
    pub proto: Option<IpProtocol>,
    pub l4_src: Option<u16>,
    pub l4_dst: Option<u16>,
    pub allow: bool,
}

impl FirewallRule {
    /// A rule matching everything (useful as default-deny/allow tail).
    pub fn any(allow: bool) -> FirewallRule {
        FirewallRule {
            src: None,
            dst: None,
            proto: None,
            l4_src: None,
            l4_dst: None,
            allow,
        }
    }

    /// Deny traffic to a destination L4 port.
    pub fn deny_dst_port(port: u16) -> FirewallRule {
        FirewallRule {
            l4_dst: Some(port),
            ..FirewallRule::any(false)
        }
    }

    fn matches(&self, key: &FlowKey) -> bool {
        self.src.map(|a| a == key.ipv4_src).unwrap_or(true)
            && self.dst.map(|a| a == key.ipv4_dst).unwrap_or(true)
            && self
                .proto
                .map(|p| p.to_u8() == key.ip_proto)
                .unwrap_or(true)
            && self.l4_src.map(|p| p == key.l4_src).unwrap_or(true)
            && self.l4_dst.map(|p| p == key.l4_dst).unwrap_or(true)
    }
}

/// A stateless first-match firewall; unmatched traffic is allowed.
#[derive(Debug, Default)]
pub struct Firewall {
    rules: Vec<FirewallRule>,
    /// Packets allowed through.
    pub allowed: u64,
    /// Packets dropped by a deny rule.
    pub denied: u64,
}

impl Firewall {
    /// Creates a firewall with the given ruleset.
    pub fn new(rules: Vec<FirewallRule>) -> Firewall {
        Firewall {
            rules,
            allowed: 0,
            denied: 0,
        }
    }
}

impl VnfApp for Firewall {
    fn name(&self) -> &str {
        "firewall"
    }

    fn process(&mut self, pkt: &mut Mbuf, _in_port_idx: usize) -> Verdict {
        let key = FlowKey::extract(pkt.data());
        for rule in &self.rules {
            if rule.matches(&key) {
                return if rule.allow {
                    self.allowed += 1;
                    Verdict::Forward
                } else {
                    self.denied += 1;
                    Verdict::Drop
                };
            }
        }
        self.allowed += 1;
        Verdict::Forward
    }
}

/// Per-flow packet/byte accounting, like the paper's network monitor VNF.
#[derive(Debug, Default)]
pub struct NetworkMonitor {
    flows: HashMap<FlowKey, (u64, u64)>,
    /// Total packets observed.
    pub observed: u64,
}

impl NetworkMonitor {
    /// Creates an empty monitor.
    pub fn new() -> NetworkMonitor {
        NetworkMonitor::default()
    }

    /// Number of distinct flows observed.
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// Counters for one flow.
    pub fn flow(&self, key: &FlowKey) -> Option<(u64, u64)> {
        self.flows.get(key).copied()
    }

    /// The `n` heaviest flows by bytes, descending.
    pub fn top_flows(&self, n: usize) -> Vec<(FlowKey, (u64, u64))> {
        let mut v: Vec<_> = self.flows.iter().map(|(k, c)| (*k, *c)).collect();
        v.sort_by_key(|e| std::cmp::Reverse(e.1 .1));
        v.truncate(n);
        v
    }
}

impl VnfApp for NetworkMonitor {
    fn name(&self) -> &str {
        "monitor"
    }

    fn process(&mut self, pkt: &mut Mbuf, _in_port_idx: usize) -> Verdict {
        let key = FlowKey::extract(pkt.data());
        let entry = self.flows.entry(key).or_insert((0, 0));
        entry.0 += 1;
        entry.1 += pkt.len() as u64;
        self.observed += 1;
        Verdict::Forward
    }
}

/// A toy web cache: classifies TCP port-80 traffic, remembers request URIs
/// and counts repeat requests as hits. (The real VNF would answer hits
/// locally; for the reproduction the interesting part is that web traffic
/// takes a different logical path, per the paper's Figure 1.)
#[derive(Debug, Default)]
pub struct WebCache {
    seen: HashMap<u64, u64>,
    /// HTTP requests that hit the cache.
    pub hits: u64,
    /// HTTP requests that missed.
    pub misses: u64,
    /// Non-web packets passed through untouched.
    pub passthrough: u64,
}

impl WebCache {
    /// Creates an empty cache.
    pub fn new() -> WebCache {
        WebCache::default()
    }

    fn uri_hash(payload: &[u8]) -> Option<u64> {
        if !payload.starts_with(b"GET ") {
            return None;
        }
        let rest = &payload[4..];
        let end = rest.iter().position(|&b| b == b' ')?;
        let uri = &rest[..end];
        // FNV-1a, enough to key a toy cache.
        let mut h: u64 = 0xcbf29ce484222325;
        for &b in uri {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100000001b3);
        }
        Some(h)
    }
}

impl VnfApp for WebCache {
    fn name(&self) -> &str {
        "webcache"
    }

    fn process(&mut self, pkt: &mut Mbuf, _in_port_idx: usize) -> Verdict {
        let key = FlowKey::extract(pkt.data());
        if key.ip_proto != IpProtocol::Tcp.to_u8() || (key.l4_dst != 80 && key.l4_src != 80) {
            self.passthrough += 1;
            return Verdict::Forward;
        }
        // Locate the TCP payload.
        let l3 = &pkt.data()[key.l3_offset()..];
        let Ok(ip) = packet_wire::Ipv4Packet::new_checked(l3) else {
            self.passthrough += 1;
            return Verdict::Forward;
        };
        let Ok(tcp) = packet_wire::TcpSegment::new_checked(ip.payload()) else {
            self.passthrough += 1;
            return Verdict::Forward;
        };
        match Self::uri_hash(tcp.payload()) {
            Some(h) => {
                let count = self.seen.entry(h).or_insert(0);
                *count += 1;
                if *count > 1 {
                    self.hits += 1;
                } else {
                    self.misses += 1;
                }
            }
            None => self.passthrough += 1,
        }
        Verdict::Forward
    }
}

/// Rewrites the L3/L4 headers of a frame in place, fixing checksums.
/// `None` fields keep the packet's current value.
fn rewrite(
    pkt: &mut Mbuf,
    key: &FlowKey,
    src: Option<Ipv4Addr>,
    dst: Option<Ipv4Addr>,
    l4_src: Option<u16>,
    l4_dst: Option<u16>,
) -> bool {
    let l3_off = key.l3_offset();
    let data = pkt.data_mut();
    if data.len() <= l3_off {
        return false;
    }
    let Ok(mut ip) = Ipv4Packet::new_checked(&mut data[l3_off..]) else {
        return false;
    };
    if let Some(a) = src {
        ip.set_src_addr(a);
    }
    if let Some(a) = dst {
        ip.set_dst_addr(a);
    }
    ip.fill_checksum();
    let (new_src, new_dst) = (ip.src_addr(), ip.dst_addr());
    let header_len = ip.header_len();
    let proto = ip.protocol();
    let l4 = &mut data[l3_off + header_len..];
    match proto {
        IpProtocol::Udp => {
            let Ok(mut udp) = UdpDatagram::new_checked(l4) else {
                return false;
            };
            if let Some(p) = l4_src {
                udp.set_src_port(p);
            }
            if let Some(p) = l4_dst {
                udp.set_dst_port(p);
            }
            udp.fill_checksum(new_src, new_dst);
        }
        IpProtocol::Tcp => {
            let Ok(mut tcp) = TcpSegment::new_checked(l4) else {
                return false;
            };
            if let Some(p) = l4_src {
                tcp.set_src_port(p);
            }
            if let Some(p) = l4_dst {
                tcp.set_dst_port(p);
            }
            tcp.fill_checksum(new_src, new_dst);
        }
        _ => {}
    }
    true
}

/// Source NAT (NAPT): inside traffic (port 0) leaves with the public
/// address and a translated source port; return traffic (port 1) is
/// translated back. Unknown inbound flows are dropped, like a real NAT.
pub struct Nat44 {
    public_ip: Ipv4Addr,
    next_port: u16,
    /// (proto, inside ip, inside port) → translated port.
    outbound: HashMap<(u8, Ipv4Addr, u16), u16>,
    /// (proto, translated port) → (inside ip, inside port).
    inbound: HashMap<(u8, u16), (Ipv4Addr, u16)>,
    /// Outbound packets translated.
    pub translated_out: u64,
    /// Inbound packets translated back.
    pub translated_in: u64,
    /// Inbound packets with no mapping (dropped).
    pub rejected: u64,
}

impl Nat44 {
    /// A NAT translating to `public_ip`, allocating ports from 40000 up.
    pub fn new(public_ip: Ipv4Addr) -> Nat44 {
        Nat44 {
            public_ip,
            next_port: 40_000,
            outbound: HashMap::new(),
            inbound: HashMap::new(),
            translated_out: 0,
            translated_in: 0,
            rejected: 0,
        }
    }

    /// Live translation entries.
    pub fn table_size(&self) -> usize {
        self.outbound.len()
    }
}

impl VnfApp for Nat44 {
    fn name(&self) -> &str {
        "nat44"
    }

    fn process(&mut self, pkt: &mut Mbuf, in_port_idx: usize) -> Verdict {
        let key = FlowKey::extract(pkt.data());
        if key.ip_proto != IpProtocol::Udp.to_u8() && key.ip_proto != IpProtocol::Tcp.to_u8() {
            return Verdict::Forward; // non-L4 traffic passes untranslated
        }
        if in_port_idx == 0 {
            // Inside → outside.
            let map_key = (key.ip_proto, key.ipv4_src, key.l4_src);
            let translated = match self.outbound.get(&map_key) {
                Some(p) => *p,
                None => {
                    let p = self.next_port;
                    self.next_port = self.next_port.wrapping_add(1).max(40_000);
                    self.outbound.insert(map_key, p);
                    self.inbound
                        .insert((key.ip_proto, p), (key.ipv4_src, key.l4_src));
                    p
                }
            };
            if rewrite(
                pkt,
                &key,
                Some(self.public_ip),
                None,
                Some(translated),
                None,
            ) {
                self.translated_out += 1;
                Verdict::Forward
            } else {
                self.rejected += 1;
                Verdict::Drop
            }
        } else {
            // Outside → inside: only established mappings come back.
            match self.inbound.get(&(key.ip_proto, key.l4_dst)) {
                Some((ip, port)) => {
                    let (ip, port) = (*ip, *port);
                    if rewrite(pkt, &key, None, Some(ip), None, Some(port)) {
                        self.translated_in += 1;
                        Verdict::Forward
                    } else {
                        self.rejected += 1;
                        Verdict::Drop
                    }
                }
                None => {
                    self.rejected += 1;
                    Verdict::Drop
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use packet_wire::{checksum, EthernetFrame, MacAddr, PacketBuilder};

    fn probe(dst_port: u16) -> Mbuf {
        Mbuf::from_slice(&PacketBuilder::udp_probe(64).ports(1000, dst_port).build())
    }

    fn probe_from(src: Ipv4Addr, sport: u16, dport: u16) -> Mbuf {
        Mbuf::from_slice(
            &PacketBuilder::udp_probe(64)
                .ip(src, Ipv4Addr::new(8, 8, 8, 8))
                .ports(sport, dport)
                .build(),
        )
    }

    #[test]
    fn forwarder_forwards_everything() {
        let mut app = L2Forwarder::new();
        for _ in 0..10 {
            assert_eq!(app.process(&mut probe(1), 0), Verdict::Forward);
        }
        assert_eq!(app.forwarded, 10);
    }

    #[test]
    fn firewall_first_match_wins() {
        let mut fw = Firewall::new(vec![
            FirewallRule::deny_dst_port(23),
            FirewallRule::any(true),
        ]);
        assert_eq!(fw.process(&mut probe(80), 0), Verdict::Forward);
        assert_eq!(fw.process(&mut probe(23), 0), Verdict::Drop);
        assert_eq!((fw.allowed, fw.denied), (1, 1));
    }

    #[test]
    fn firewall_default_allows() {
        let mut fw = Firewall::new(vec![]);
        assert_eq!(fw.process(&mut probe(23), 0), Verdict::Forward);
        assert_eq!(fw.allowed, 1);
    }

    #[test]
    fn monitor_accounts_per_flow() {
        let mut mon = NetworkMonitor::new();
        for _ in 0..3 {
            mon.process(&mut probe(80), 0);
        }
        mon.process(&mut probe(81), 0);
        assert_eq!(mon.flow_count(), 2);
        assert_eq!(mon.observed, 4);
        let key = FlowKey::extract(probe(80).data());
        assert_eq!(mon.flow(&key), Some((3, 192)));
        let top = mon.top_flows(1);
        assert_eq!(top[0].1 .0, 3);
    }

    /// Builds a minimal TCP GET packet to port 80.
    fn http_get(uri: &str) -> Mbuf {
        let payload = format!("GET {uri} HTTP/1.1\r\n\r\n");
        let tcp_len = 20 + payload.len();
        let ip_len = 20 + tcp_len;
        let total = 14 + ip_len;
        let mut buf = vec![0u8; total];
        {
            let mut eth = EthernetFrame::new_unchecked(&mut buf[..]);
            eth.set_src_addr(MacAddr::local(1));
            eth.set_dst_addr(MacAddr::local(2));
            eth.set_ethertype(packet_wire::EtherType::Ipv4);
        }
        {
            let mut ip = Ipv4Packet::new_unchecked(&mut buf[14..]);
            ip.set_version_and_header_len(20);
            ip.set_total_len(ip_len as u16);
            ip.set_ttl(64);
            ip.set_protocol(IpProtocol::Tcp);
            ip.set_src_addr(Ipv4Addr::new(10, 0, 0, 1));
            ip.set_dst_addr(Ipv4Addr::new(10, 0, 0, 2));
            ip.set_flags_frag(0x4000);
            ip.fill_checksum();
        }
        {
            let mut tcp = packet_wire::TcpSegment::new_unchecked(&mut buf[34..]);
            tcp.set_src_port(49152);
            tcp.set_dst_port(80);
            tcp.set_header_len(20);
            tcp.set_flags(packet_wire::tcp::TcpFlags(packet_wire::tcp::TcpFlags::PSH));
            buf[34 + 20..].copy_from_slice(payload.as_bytes());
        }
        let _ = checksum::checksum(&[]); // keep import used
        Mbuf::from_slice(&buf)
    }

    #[test]
    fn webcache_hits_on_repeat_uri() {
        let mut cache = WebCache::new();
        assert_eq!(
            cache.process(&mut http_get("/index.html"), 0),
            Verdict::Forward
        );
        assert_eq!(
            cache.process(&mut http_get("/index.html"), 0),
            Verdict::Forward
        );
        assert_eq!(cache.process(&mut http_get("/other"), 0), Verdict::Forward);
        assert_eq!((cache.hits, cache.misses), (1, 2));
    }

    #[test]
    fn webcache_passes_non_web_traffic() {
        let mut cache = WebCache::new();
        cache.process(&mut probe(53), 0);
        assert_eq!(cache.passthrough, 1);
        assert_eq!((cache.hits, cache.misses), (0, 0));
    }

    #[test]
    fn nat_translates_and_reverses() {
        let public = Ipv4Addr::new(203, 0, 113, 1);
        let mut nat = Nat44::new(public);
        let mut out = probe_from(Ipv4Addr::new(10, 0, 0, 5), 5555, 80);
        assert_eq!(nat.process(&mut out, 0), Verdict::Forward);
        let key = FlowKey::extract(out.data());
        assert_eq!(key.ipv4_src, public);
        assert_eq!(key.l4_src, 40_000);
        assert_eq!(nat.table_size(), 1);

        // Craft the reply: swap src/dst of the translated packet.
        let mut reply = Mbuf::from_slice(
            &PacketBuilder::udp_probe(64)
                .ip(Ipv4Addr::new(8, 8, 8, 8), public)
                .ports(80, 40_000)
                .build(),
        );
        assert_eq!(nat.process(&mut reply, 1), Verdict::Forward);
        let rkey = FlowKey::extract(reply.data());
        assert_eq!(rkey.ipv4_dst, Ipv4Addr::new(10, 0, 0, 5));
        assert_eq!(rkey.l4_dst, 5555);
        assert_eq!((nat.translated_out, nat.translated_in), (1, 1));
    }

    #[test]
    fn nat_is_stable_per_flow_and_distinct_across_flows() {
        let mut nat = Nat44::new(Ipv4Addr::new(203, 0, 113, 1));
        let mut a1 = probe_from(Ipv4Addr::new(10, 0, 0, 5), 1111, 80);
        let mut a2 = probe_from(Ipv4Addr::new(10, 0, 0, 5), 1111, 80);
        let mut b = probe_from(Ipv4Addr::new(10, 0, 0, 6), 1111, 80);
        nat.process(&mut a1, 0);
        nat.process(&mut a2, 0);
        nat.process(&mut b, 0);
        let pa1 = FlowKey::extract(a1.data()).l4_src;
        let pa2 = FlowKey::extract(a2.data()).l4_src;
        let pb = FlowKey::extract(b.data()).l4_src;
        assert_eq!(pa1, pa2, "same flow keeps its port");
        assert_ne!(pa1, pb, "different flows get different ports");
        assert_eq!(nat.table_size(), 2);
    }

    #[test]
    fn nat_drops_unsolicited_inbound() {
        let mut nat = Nat44::new(Ipv4Addr::new(203, 0, 113, 1));
        let mut stray = probe_from(Ipv4Addr::new(8, 8, 8, 8), 80, 40_000);
        assert_eq!(nat.process(&mut stray, 1), Verdict::Drop);
        assert_eq!(nat.rejected, 1);
    }

    #[test]
    fn nat_rewrites_keep_checksums_valid() {
        let mut nat = Nat44::new(Ipv4Addr::new(203, 0, 113, 1));
        let mut pkt = probe_from(Ipv4Addr::new(10, 0, 0, 5), 5555, 80);
        nat.process(&mut pkt, 0);
        let key = FlowKey::extract(pkt.data());
        let l3 = &pkt.data()[key.l3_offset()..];
        let ip = Ipv4Packet::new_checked(l3).unwrap();
        assert!(ip.verify_checksum());
        let udp = UdpDatagram::new_checked(ip.payload()).unwrap();
        assert!(udp.verify_checksum(ip.src_addr(), ip.dst_addr()));
    }
}
