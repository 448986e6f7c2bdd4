//! VNF applications.
//!
//! The paper evaluates chains of single-core DPDK applications that move
//! packets between their two ports ([`L2Forwarder`]); its motivating service
//! graph (Figure 1) composes a firewall, a network monitor and a web cache —
//! all implemented here against the same [`VnfApp`] trait the runner drives.

use dpdk_sim::Mbuf;
use packet_wire::{FlowKey, IpProtocol};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// What to do with a processed packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Send out the VM's other port.
    Forward,
    /// Drop the packet.
    Drop,
    /// Send back out the port it arrived on (e.g. an ICMP echo reply).
    Reflect,
}

/// A packet-processing network function.
pub trait VnfApp: Send {
    /// Application name (diagnostics).
    fn name(&self) -> &str;

    /// Processes one packet arriving on port index `in_port_idx`
    /// (0 or 1 for a two-port VM).
    fn process(&mut self, pkt: &mut Mbuf, in_port_idx: usize) -> Verdict;
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

#[cfg(test)]
mod tests {
    use super::*;
    use packet_wire::{checksum, EthernetFrame, Ipv4Packet, MacAddr, PacketBuilder};

    fn probe(dst_port: u16) -> Mbuf {
        Mbuf::from_slice(&PacketBuilder::udp_probe(64).ports(1000, dst_port).build())
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
}
