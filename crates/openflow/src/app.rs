//! Controller applications over the framed channel.
//!
//! A [`FabricApp`] is the logic half of a controller: it reacts to a
//! switch completing its handshake and to asynchronous messages, issuing
//! requests through the [`Connection`] it is handed, with the switch's
//! datapath id threaded through every callback. [`FabricRuntime`] is the
//! event-loop half, over N live connections; one switch is the case
//! N = 1. It drives each handshake, delivers messages and re-announces a
//! switch after a reconnect, and it parks once for the whole fabric on
//! one shared [`Event`] that every connection wakes. It keeps a
//! datapath-id registry, polls fairly (a chatty switch cannot starve the
//! rest), leaves barrier/replay state with each [`Connection`], and can
//! replicate to a standby peer via [`crate::failover::ActivePeer`].
//!
//! The split is what makes the channel API controller-agnostic: the
//! highway's chain-steering app and the [`LearningSwitch`] ported from
//! `rust_ofp` run over byte-identical streams through exactly this
//! interface.

use crate::connection::{Connection, ConnectionState, SwitchFeatures};
use crate::event::Event;
use crate::failover::ActivePeer;
use crate::messages::{FlowMod, OfpMessage};
use crate::types::PortNo;
use crate::{Action, FlowMatch, OfError, Result};
use packet_wire::{EthernetFrame, MacAddr};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A controller application: policy over one or more switches, with the
/// switch's datapath id threaded through every callback so policy can
/// differ per switch.
pub trait FabricApp: Send {
    /// Called once per switch per completed handshake (including after a
    /// reconnect or takeover).
    fn on_switch_ready(&mut self, dpid: u64, conn: &Connection, features: &SwitchFeatures);

    /// Called for every asynchronous or unclaimed message from `dpid`.
    fn on_switch_message(&mut self, dpid: u64, conn: &Connection, msg: OfpMessage, xid: u32);

    /// Called once when a switch's connection dies (transport error or
    /// keepalive). The session stays registered; a reconnect re-announces.
    fn on_switch_down(&mut self, _dpid: u64) {}
}

struct FabricSession {
    conn: Connection,
    /// Set at announce time, from the switch's `FeaturesReply`.
    dpid: Option<u64>,
    /// Whether `on_switch_down` has fired for the current disconnect.
    down_reported: bool,
}

/// Drives one [`FabricApp`] over N live [`Connection`]s. A single-switch
/// controller is [`FabricRuntime::new`] followed by one
/// [`FabricRuntime::add_switch`].
///
/// * **datapath-id registry** — switches announce themselves through the
///   handshake's `FeaturesReply`; [`FabricRuntime::connection`] resolves
///   a dpid to its live connection.
/// * **fair polling** — each [`FabricRuntime::poll`] round visits every
///   switch starting from a rotating cursor and delivers at most
///   [`FabricRuntime::MAX_PER_SWITCH`] messages per switch, so one busy
///   switch cannot starve the others.
/// * **per-switch barrier/replay state** — each [`Connection`] carries
///   its own replay log and barrier marks; nothing is shared.
/// * **failover replication** — with [`FabricRuntime::with_peer`], every
///   switch's replay log is mirrored to the standby the moment the
///   switch is announced, and heartbeats ride the poll loop.
pub struct FabricRuntime<A: FabricApp> {
    switches: Vec<FabricSession>,
    by_dpid: HashMap<u64, usize>,
    app: A,
    cursor: usize,
    peer: Option<ActivePeer>,
    /// Shared by every switch connection: bytes from any of them end the
    /// runtime's one park.
    event: Arc<Event>,
}

impl<A: FabricApp> FabricRuntime<A> {
    /// Fairness bound: messages delivered per switch per poll round.
    pub const MAX_PER_SWITCH: usize = 16;

    /// A fabric runtime with no standby replication.
    pub fn new(app: A) -> FabricRuntime<A> {
        FabricRuntime {
            switches: Vec::new(),
            by_dpid: HashMap::new(),
            app,
            cursor: 0,
            peer: None,
            event: Arc::new(Event::new()),
        }
    }

    /// A fabric runtime that replicates every switch's replay log to a
    /// standby controller (see [`crate::failover`]).
    pub fn with_peer(app: A, peer: ActivePeer) -> FabricRuntime<A> {
        FabricRuntime {
            peer: Some(peer),
            ..FabricRuntime::new(app)
        }
    }

    /// Adds a switch connection (handshake may still be in flight — a
    /// fresh [`Connection`] works, and so does an already-ready one
    /// adopted from [`crate::failover::StandbyController::take_over`]).
    /// Returns the session index.
    pub fn add_switch(&mut self, mut conn: Connection) -> usize {
        conn.share_event(Arc::clone(&self.event));
        self.switches.push(FabricSession {
            conn,
            dpid: None,
            down_reported: false,
        });
        self.switches.len() - 1
    }

    /// Datapath ids of every announced switch, sorted.
    pub fn dpids(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self.by_dpid.keys().copied().collect();
        out.sort_unstable();
        out
    }

    /// The live connection for `dpid`, if that switch has announced.
    pub fn connection(&self, dpid: u64) -> Option<&Connection> {
        self.by_dpid.get(&dpid).map(|&i| &self.switches[i].conn)
    }

    /// The application, for inspecting its state.
    pub fn app(&self) -> &A {
        &self.app
    }

    /// One fair scheduling round over every switch; returns the number of
    /// messages delivered to the app.
    pub fn poll(&mut self) -> usize {
        if let Some(peer) = &self.peer {
            peer.maybe_heartbeat();
        }
        let n = self.switches.len();
        if n == 0 {
            return 0;
        }
        let mut delivered = 0;
        for off in 0..n {
            let i = (self.cursor + off) % n;
            delivered += self.poll_one(i);
        }
        self.cursor = (self.cursor + 1) % n;
        delivered
    }

    fn poll_one(&mut self, i: usize) -> usize {
        if self.switches[i].dpid.is_none() {
            // Advance the handshake without consuming the inbox — async
            // messages that race the announce stay queued for delivery
            // right after it.
            let _ = self.switches[i].conn.poll_io();
            if self.switches[i].conn.state() == ConnectionState::Ready {
                let features = self.switches[i]
                    .conn
                    .features()
                    .expect("Ready implies features");
                let dpid = features.datapath_id;
                self.by_dpid.insert(dpid, i);
                self.switches[i].dpid = Some(dpid);
                self.switches[i].down_reported = false;
                if let Some(peer) = &self.peer {
                    // Replication must be live before the app's first flow
                    // mod, which on_switch_ready typically sends.
                    peer.announce_switch(dpid);
                    self.switches[i]
                        .conn
                        .set_replay_observer(peer.sink_for(dpid));
                }
                let session = &self.switches[i];
                self.app.on_switch_ready(dpid, &session.conn, &features);
            }
        }
        let mut delivered = 0;
        if self.switches[i].dpid.is_some() {
            while delivered < Self::MAX_PER_SWITCH {
                let Some(res) = self.switches[i].conn.try_recv() else {
                    break;
                };
                let Ok((msg, xid)) = res else { break };
                let dpid = self.switches[i].dpid.expect("checked above");
                self.app
                    .on_switch_message(dpid, &self.switches[i].conn, msg, xid);
                delivered += 1;
            }
        }
        if self.switches[i].conn.state() == ConnectionState::Disconnected
            && !self.switches[i].down_reported
        {
            self.switches[i].down_reported = true;
            if let Some(dpid) = self.switches[i].dpid {
                self.app.on_switch_down(dpid);
            }
        }
        delivered
    }

    /// Polls round after round until `done` holds or `deadline` passes,
    /// parking on the fabric's shared [`Event`] between rounds that
    /// delivered nothing. Returns whether `done` held.
    pub fn run_until(&mut self, mut done: impl FnMut(&Self) -> bool, deadline: Instant) -> bool {
        let event = Arc::clone(&self.event);
        loop {
            // Registered before the round: bytes from any switch that land
            // after it end the park below.
            let waiter = event.prepare();
            let delivered = self.poll();
            if done(self) {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            // A round that delivered something may have stopped at the
            // fairness bound with more queued: go again before parking.
            if delivered == 0 {
                waiter.park_until(self.next_timer(deadline));
            }
        }
    }

    /// Polls until every registered switch has completed its handshake
    /// and been announced to the app. Fails if any switch disconnects
    /// first or `timeout` passes.
    pub fn run_until_ready(&mut self, timeout: Duration) -> Result<()> {
        let all_ready = |rt: &Self| rt.switches.iter().all(|s| s.dpid.is_some());
        self.run_until(
            |rt| {
                all_ready(rt)
                    || rt
                        .switches
                        .iter()
                        .any(|s| s.conn.state() == ConnectionState::Disconnected)
            },
            Instant::now() + timeout,
        );
        if all_ready(self) {
            Ok(())
        } else {
            Err(OfError::Disconnected)
        }
    }

    /// The earliest moment a parked runtime has work that no transport
    /// will announce: a keepalive probe or verdict on an announced switch,
    /// the standby's next heartbeat — or `deadline` itself.
    fn next_timer(&self, deadline: Instant) -> Instant {
        self.switches
            .iter()
            .filter_map(|s| s.conn.keepalive_due())
            .chain(self.peer.as_ref().map(ActivePeer::next_beat))
            .fold(deadline, Instant::min)
    }

    /// Moves one switch's session to a fresh transport (switch restart or
    /// network blip): the connection re-handshakes, replays un-barriered
    /// flow mods, and the app is re-announced on a later poll.
    pub fn reconnect(
        &mut self,
        dpid: u64,
        transport: Box<dyn crate::transport::Transport>,
    ) -> bool {
        let Some(&i) = self.by_dpid.get(&dpid) else {
            return false;
        };
        self.switches[i].conn.reconnect(transport);
        self.switches[i].dpid = None;
        self.switches[i].down_reported = false;
        self.by_dpid.remove(&dpid);
        true
    }
}

/// `rust_ofp`'s learning switch, ported to the [`FabricApp`] API.
///
/// Learns the source MAC of every packet-in against its ingress port, in
/// one table per switch. Once both endpoints of a conversation are known
/// it installs the flow in both directions (so the reply path is covered
/// before the reply leaves) and re-injects the packet; until then it
/// floods.
pub struct LearningSwitch {
    known: HashMap<u64, HashMap<MacAddr, PortNo>>,
    priority: u16,
    installed: u64,
}

impl Default for LearningSwitch {
    fn default() -> LearningSwitch {
        LearningSwitch::new()
    }
}

impl LearningSwitch {
    pub fn new() -> LearningSwitch {
        LearningSwitch {
            known: HashMap::new(),
            priority: 10,
            installed: 0,
        }
    }

    /// The MAC → port table learned on switch `dpid`, once it has
    /// announced.
    pub fn known_hosts(&self, dpid: u64) -> Option<&HashMap<MacAddr, PortNo>> {
        self.known.get(&dpid)
    }

    /// How many flow mods this app has installed, across every switch.
    pub fn flows_installed(&self) -> u64 {
        self.installed
    }
}

impl FabricApp for LearningSwitch {
    fn on_switch_ready(&mut self, dpid: u64, _conn: &Connection, _features: &SwitchFeatures) {
        // A reconnected switch is relearned from scratch; stale entries
        // from its previous session would steer into moved hosts.
        self.known.insert(dpid, HashMap::new());
    }

    fn on_switch_message(&mut self, dpid: u64, conn: &Connection, msg: OfpMessage, _xid: u32) {
        let OfpMessage::PacketIn(pi) = msg else {
            return;
        };
        let Ok(frame) = EthernetFrame::new_checked(&pi.data[..]) else {
            return; // not Ethernet; nothing to learn
        };
        let (src, dst) = (frame.src_addr(), frame.dst_addr());
        let known = self.known.entry(dpid).or_default();
        if !src.is_multicast() {
            known.insert(src, pi.in_port);
        }
        match (!dst.is_multicast()).then(|| known.get(&dst)).flatten() {
            Some(&out_port) => {
                // Both directions in one batched write, then re-inject the
                // triggering packet so it is not lost while rules settle.
                let fwd = FlowMod::add(
                    FlowMatch::eth_pair(src, dst),
                    self.priority,
                    vec![Action::Output(out_port)],
                );
                let rev = FlowMod::add(
                    FlowMatch::eth_pair(dst, src),
                    self.priority,
                    vec![Action::Output(pi.in_port)],
                );
                if conn.send_flow_mods(&[fwd, rev]).is_ok() {
                    self.installed += 2;
                }
                let _ = conn.packet_out(pi.data, vec![Action::Output(out_port)]);
            }
            None => {
                let _ = conn.packet_out(pi.data, vec![Action::Output(PortNo::FLOOD)]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{framed_link, SwitchLink};
    use crate::messages::{PacketIn, PacketInReason};
    use crate::transport::loopback;
    use packet_wire::PacketBuilder;

    /// Plays a switch with datapath id `dpid`: answers handshake, echo and
    /// barrier traffic and returns every other message it received.
    fn answer_switch(sw: &SwitchLink, dpid: u64) -> Vec<(OfpMessage, u32)> {
        let mut unhandled = Vec::new();
        while let Some(Ok((msg, xid))) = sw.try_recv() {
            match msg {
                OfpMessage::Hello => sw.send(&OfpMessage::Hello, xid).unwrap(),
                OfpMessage::FeaturesRequest => sw
                    .send(
                        &OfpMessage::FeaturesReply {
                            datapath_id: dpid,
                            ports: vec![1, 2],
                        },
                        xid,
                    )
                    .unwrap(),
                OfpMessage::EchoRequest(d) => sw.send(&OfpMessage::EchoReply(d), xid).unwrap(),
                OfpMessage::BarrierRequest => sw.send(&OfpMessage::BarrierReply, xid).unwrap(),
                other => unhandled.push((other, xid)),
            }
        }
        unhandled
    }

    /// A packet-in of an `src → dst` frame arriving on `port`.
    fn packet_in(port: u16, src: MacAddr, dst: MacAddr) -> OfpMessage {
        OfpMessage::PacketIn(PacketIn {
            in_port: PortNo(port),
            reason: PacketInReason::NoMatch,
            data: PacketBuilder::udp_probe(64).eth(src, dst).build(),
        })
    }

    fn soon() -> Instant {
        Instant::now() + Duration::from_secs(2)
    }

    #[test]
    fn learning_switch_floods_then_installs_both_directions() {
        let (conn, sw) = framed_link();
        let mut rt = FabricRuntime::new(LearningSwitch::new());
        rt.add_switch(conn);
        answer_switch(&sw, 7);
        rt.run_until_ready(Duration::from_secs(1)).unwrap();

        let a = MacAddr::local(1);
        let b = MacAddr::local(2);

        // a → b: b unknown, expect a flood and a learned entry for a.
        sw.send(&packet_in(1, a, b), 0).unwrap();
        rt.poll();
        let out = answer_switch(&sw, 7);
        assert_eq!(out.len(), 1);
        match &out[0].0 {
            OfpMessage::PacketOut(po) => {
                assert_eq!(po.actions, vec![Action::Output(PortNo::FLOOD)])
            }
            other => panic!("expected flood packet-out, got {other:?}"),
        }
        assert_eq!(rt.app().known_hosts(7).unwrap().get(&a), Some(&PortNo(1)));

        // b → a: both known now — two flow mods + a directed packet-out.
        sw.send(&packet_in(2, b, a), 0).unwrap();
        rt.poll();
        let out = answer_switch(&sw, 7);
        let flow_mods: Vec<&FlowMod> = out
            .iter()
            .filter_map(|(m, _)| match m {
                OfpMessage::FlowMod(fm) => Some(fm),
                _ => None,
            })
            .collect();
        assert_eq!(flow_mods.len(), 2);
        assert_eq!(flow_mods[0].actions, vec![Action::Output(PortNo(1))]);
        assert_eq!(flow_mods[1].actions, vec![Action::Output(PortNo(2))]);
        assert!(out.iter().any(|(m, _)| matches!(
            m,
            OfpMessage::PacketOut(po) if po.actions == vec![Action::Output(PortNo(1))]
        )));
        assert_eq!(rt.app().flows_installed(), 2);
    }

    /// Two switches keep two tables: a host learned on one is unknown on
    /// the other, and a reconnect forgets only the reconnected switch's.
    #[test]
    fn learning_tables_are_per_switch_and_a_reconnect_clears_only_its_own() {
        let (c1, sw1) = framed_link();
        let (c2, sw2) = framed_link();
        let mut rt = FabricRuntime::new(LearningSwitch::new());
        rt.add_switch(c1);
        rt.add_switch(c2);
        answer_switch(&sw1, 0xa1);
        answer_switch(&sw2, 0xb2);
        rt.run_until_ready(Duration::from_secs(2)).unwrap();

        let (a, b) = (MacAddr::local(1), MacAddr::local(2));
        sw1.send(&packet_in(1, a, b), 0).unwrap();
        sw2.send(&packet_in(3, b, a), 0).unwrap();
        let learned = |rt: &FabricRuntime<LearningSwitch>, dpid| {
            rt.app().known_hosts(dpid).map_or(0, HashMap::len)
        };
        assert!(rt.run_until(|rt| learned(rt, 0xa1) + learned(rt, 0xb2) == 2, soon()));
        let (on_a1, on_b2) = (
            rt.app().known_hosts(0xa1).unwrap(),
            rt.app().known_hosts(0xb2).unwrap(),
        );
        assert_eq!(on_a1.get(&a), Some(&PortNo(1)));
        assert_eq!(on_b2.get(&b), Some(&PortNo(3)));
        assert!(!on_a1.contains_key(&b) && !on_b2.contains_key(&a));
        // Neither switch knew both ends, so neither got a flow.
        assert_eq!(rt.app().flows_installed(), 0);

        let (c, s) = loopback();
        assert!(rt.reconnect(0xb2, Box::new(c)));
        let sw2 = SwitchLink::new(Box::new(s));
        answer_switch(&sw2, 0xb2);
        rt.run_until_ready(Duration::from_secs(2)).unwrap();
        assert!(rt.app().known_hosts(0xb2).unwrap().is_empty());
        assert_eq!(
            rt.app().known_hosts(0xa1).unwrap().get(&a),
            Some(&PortNo(1))
        );
    }

    #[derive(Default)]
    struct FabricProbe {
        ready: Vec<u64>,
        messages: Vec<(u64, u32)>,
        downs: Vec<u64>,
    }

    impl FabricApp for FabricProbe {
        fn on_switch_ready(&mut self, dpid: u64, _c: &Connection, f: &SwitchFeatures) {
            assert_eq!(dpid, f.datapath_id);
            self.ready.push(dpid);
        }
        fn on_switch_message(&mut self, dpid: u64, _c: &Connection, _m: OfpMessage, xid: u32) {
            self.messages.push((dpid, xid));
        }
        fn on_switch_down(&mut self, dpid: u64) {
            self.downs.push(dpid);
        }
    }

    #[test]
    fn fabric_runtime_registers_and_dispatches_per_dpid() {
        let (c1, sw1) = framed_link();
        let (c2, sw2) = framed_link();
        let mut rt = FabricRuntime::new(FabricProbe::default());
        rt.add_switch(c1);
        rt.add_switch(c2);
        answer_switch(&sw1, 0xa1);
        answer_switch(&sw2, 0xb2);
        rt.run_until_ready(Duration::from_secs(2)).unwrap();
        assert_eq!(rt.dpids(), vec![0xa1, 0xb2]);
        assert_eq!(rt.app().ready, vec![0xa1, 0xb2]);

        // Messages route to the app tagged with the right dpid.
        sw2.send(&OfpMessage::EchoReply(vec![1]), 7001).unwrap();
        sw1.send(&OfpMessage::EchoReply(vec![2]), 7002).unwrap();
        rt.poll();
        let mut got = rt.app().messages.clone();
        got.sort_unstable();
        assert_eq!(got, vec![(0xa1, 7002), (0xb2, 7001)]);

        // Per-dpid connection lookup drives the right switch.
        rt.connection(0xb2)
            .unwrap()
            .send(&OfpMessage::EchoRequest(vec![9]))
            .unwrap();
        assert_eq!(answer_switch(&sw1, 0xa1).len(), 0);
        drop(sw2); // also: the down event fires exactly once
        assert!(rt.run_until(|rt| !rt.app().downs.is_empty(), soon()));
        assert_eq!(rt.app().downs, vec![0xb2]);
        rt.poll();
        assert_eq!(rt.app().downs, vec![0xb2], "down reported once");
    }

    /// One park covers every switch, and a keepalive deadline on an
    /// announced switch bounds it: with one switch gone silent after its
    /// handshake and another that never answers at all, the runtime learns
    /// of the dead one on keepalive time, not at its own 5 s deadline.
    #[test]
    fn parked_runtime_wakes_for_a_keepalive_deadline() {
        let (mut c1, sw1) = framed_link();
        c1.set_keepalive(Duration::from_millis(1), Duration::from_millis(20));
        let (c2, _sw2) = framed_link();
        let mut rt = FabricRuntime::new(FabricProbe::default());
        rt.add_switch(c1);
        rt.add_switch(c2);
        answer_switch(&sw1, 0xa1);
        let started = Instant::now();
        assert!(rt.run_until_ready(Duration::from_secs(5)).is_err());
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "slept to the deadline"
        );
        assert_eq!(rt.app().ready, vec![0xa1]);
        assert_eq!(rt.app().downs, vec![0xa1]);
    }

    #[test]
    fn fabric_polling_is_fair_under_one_chatty_switch() {
        let (c1, sw1) = framed_link();
        let (c2, sw2) = framed_link();
        let mut rt = FabricRuntime::new(FabricProbe::default());
        rt.add_switch(c1);
        rt.add_switch(c2);
        answer_switch(&sw1, 0xa1);
        answer_switch(&sw2, 0xb2);
        rt.run_until_ready(Duration::from_secs(2)).unwrap();

        // Switch a1 floods 200 messages; b2 sends one. One poll round may
        // deliver at most MAX_PER_SWITCH from the flooder, and b2's
        // message must be in the same round — not behind the flood.
        for i in 0..200u32 {
            sw1.send(&OfpMessage::EchoReply(vec![0]), 10_000 + i)
                .unwrap();
        }
        sw2.send(&OfpMessage::EchoReply(vec![1]), 42).unwrap();
        let delivered = rt.poll();
        assert!(
            delivered <= 2 * FabricRuntime::<FabricProbe>::MAX_PER_SWITCH,
            "round bounded per switch"
        );
        assert!(
            rt.app()
                .messages
                .iter()
                .any(|(d, x)| (*d, *x) == (0xb2, 42)),
            "the quiet switch was served in the same round"
        );
    }

    #[test]
    fn runtime_reannounces_after_reconnect() {
        let (conn, sw) = framed_link();
        let mut rt = FabricRuntime::new(FabricProbe::default());
        rt.add_switch(conn);
        answer_switch(&sw, 7);
        rt.run_until_ready(Duration::from_secs(1)).unwrap();
        assert_eq!(rt.app().ready, vec![7]);

        drop(sw);
        assert!(rt.run_until(|rt| rt.app().downs == [7], soon()));
        let (c2, s2) = loopback();
        assert!(rt.reconnect(7, Box::new(c2)));
        assert!(
            rt.dpids().is_empty(),
            "registered again only on re-announce"
        );
        let sw2 = SwitchLink::new(Box::new(s2));
        answer_switch(&sw2, 7);
        rt.run_until_ready(Duration::from_secs(1)).unwrap();
        assert_eq!(rt.app().ready, vec![7, 7]);
        assert_eq!(rt.dpids(), vec![7]);
        assert!(rt.connection(7).is_some());
    }
}
