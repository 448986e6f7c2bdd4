//! Built-in controller applications for the highway node.
//!
//! [`FabricChainSteering`] is the reproduction's "ordinary OpenFlow
//! controller": it knows nothing about the highway and simply installs the
//! service-chain steering rules (`in_port → output`) the paper's §2
//! scenario assumes, one rule set per switch. It runs behind the same
//! [`FabricApp`] trait as any other app (e.g. the ported learning
//! switch), so one byte-identical OpenFlow stream can drive either.

use openflow::{
    Action, Connection, FabricApp, FlowMatch, FlowMod, OfpMessage, PortNo, SwitchFeatures,
};
use std::collections::HashMap;

/// One steering seam of a service chain: everything entering `from` is
/// forwarded out of `to`, tagged with `cookie` for later stats lookups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seam {
    pub from: PortNo,
    pub to: PortNo,
    pub cookie: u64,
}

impl Seam {
    /// A seam with an auto-derived cookie (`0x100 + index` convention used
    /// throughout the examples).
    pub fn new(index: usize, from: PortNo, to: PortNo) -> Seam {
        Seam {
            from,
            to,
            cookie: 0x100 + index as u64,
        }
    }
}

/// One switch's steering state.
struct SwitchSteering {
    seams: Vec<Seam>,
    barrier_xid: Option<u32>,
    settled: bool,
    connects: u64,
    packet_ins: u64,
}

/// The built-in highway controller app: installs a fixed set of
/// point-to-point steering rules on each switch, keyed by datapath id,
/// whenever that switch (re)announces, batched into one write and fenced
/// by an asynchronous barrier. A VNF chain spanning several hosts is
/// expressed as per-switch seam lists — intra-host seams between VM
/// ports, inter-host hops via the trunk ports wiring the switches
/// together — and each switch converges independently.
pub struct FabricChainSteering {
    per_switch: HashMap<u64, SwitchSteering>,
    /// `FlowRemoved` notifications seen, per cookie — the exactly-once
    /// canary the failover tests read (replay must never trigger one).
    flow_removed: HashMap<u64, u64>,
}

impl FabricChainSteering {
    /// Flow priority of every steering rule.
    const PRIORITY: u16 = 100;

    /// A steering app for per-switch seam lists keyed by datapath id.
    pub fn new(seams_by_dpid: HashMap<u64, Vec<Seam>>) -> FabricChainSteering {
        FabricChainSteering {
            per_switch: seams_by_dpid
                .into_iter()
                .map(|(dpid, seams)| {
                    let steering = SwitchSteering {
                        seams,
                        barrier_xid: None,
                        settled: false,
                        connects: 0,
                        packet_ins: 0,
                    };
                    (dpid, steering)
                })
                .collect(),
            flow_removed: HashMap::new(),
        }
    }

    /// One switch's chain from consecutive `(from, to)` port pairs.
    pub fn from_pairs(dpid: u64, pairs: &[(u16, u16)]) -> FabricChainSteering {
        let seams = pairs
            .iter()
            .enumerate()
            .map(|(i, &(f, t))| Seam::new(i, PortNo(f), PortNo(t)))
            .collect();
        FabricChainSteering::new(HashMap::from([(dpid, seams)]))
    }

    /// True once every switch has acknowledged (via barrier reply) that
    /// every steering rule of its latest (re)connect is committed.
    pub fn settled(&self) -> bool {
        self.per_switch.values().all(|s| s.settled)
    }

    /// How many times the app has pushed `dpid`'s rule set (1 +
    /// reconnects).
    pub fn connects(&self, dpid: u64) -> u64 {
        self.per_switch.get(&dpid).map_or(0, |s| s.connects)
    }

    /// Total packet-ins across the fabric (the steering chain should
    /// produce none once settled — the counter is a canary for missing
    /// rules).
    pub fn packet_ins(&self) -> u64 {
        self.per_switch.values().map(|s| s.packet_ins).sum()
    }

    /// `FlowRemoved` tallies per cookie, across every switch.
    pub fn flow_removed(&self) -> &HashMap<u64, u64> {
        &self.flow_removed
    }
}

impl FabricApp for FabricChainSteering {
    fn on_switch_ready(&mut self, dpid: u64, conn: &Connection, _features: &SwitchFeatures) {
        let Some(sw) = self.per_switch.get_mut(&dpid) else {
            return;
        };
        sw.connects += 1;
        sw.settled = false;
        let mods: Vec<FlowMod> = sw
            .seams
            .iter()
            .map(|s| {
                FlowMod::add(
                    FlowMatch::in_port(s.from),
                    Self::PRIORITY,
                    vec![Action::Output(s.to)],
                )
                .with_cookie(s.cookie)
            })
            .collect();
        if conn.send_flow_mods(&mods).is_err() {
            return; // disconnected again; the next reconnect retries
        }
        // Fence asynchronously: the reply lands in on_switch_message, so
        // the runtime's poll loop is never blocked on the switch.
        sw.barrier_xid = conn.send(&OfpMessage::BarrierRequest).ok();
    }

    fn on_switch_message(&mut self, dpid: u64, _conn: &Connection, msg: OfpMessage, xid: u32) {
        if let OfpMessage::FlowRemoved(fr) = &msg {
            *self.flow_removed.entry(fr.cookie).or_insert(0) += 1;
        }
        let Some(sw) = self.per_switch.get_mut(&dpid) else {
            return;
        };
        match msg {
            OfpMessage::BarrierReply if Some(xid) == sw.barrier_xid => {
                sw.barrier_xid = None;
                sw.settled = true;
            }
            OfpMessage::PacketIn(_) => sw.packet_ins += 1,
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{HighwayNode, HighwayNodeConfig};
    use openflow::FabricRuntime;
    use std::time::{Duration, Instant};

    #[test]
    fn chain_steering_installs_rules_and_settles() {
        let config = HighwayNodeConfig::default();
        let dpid = config.switch.datapath_id;
        let node = HighwayNode::new(config);
        node.start();
        let mut rt = FabricRuntime::new(FabricChainSteering::from_pairs(dpid, &[(1, 2), (3, 4)]));
        rt.add_switch(node.connect_controller());
        rt.run_until_ready(Duration::from_secs(5)).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        assert!(
            rt.run_until(|rt| rt.app().settled(), deadline),
            "barrier reply never arrived"
        );
        assert_eq!(rt.app().connects(dpid), 1);
        let conn = rt.connection(dpid).unwrap();
        assert_eq!(conn.flow_stats(Duration::from_secs(2)).unwrap().len(), 2);
        node.stop();
    }
}
