//! Active/standby controller failover.
//!
//! Two controllers share a **role protocol** over any [`Transport`]: the
//! active controller streams replication records — every flow mod it
//! appends to a connection's barrier-fenced replay log, every barrier
//! retirement, a per-switch announcement, and periodic heartbeats — to
//! the standby. The standby mirrors the un-barriered tail of every
//! switch's replay log; when the peer stream dies (hang-up or heartbeat
//! silence) it dials the switches itself and **replays the mirror
//! idempotently**: OpenFlow 1.0 `Add` replaces, so re-installing a rule
//! the switch already committed changes nothing and emits no
//! `FlowRemoved` — exactly-once semantics without two-phase commit.
//!
//! The wire format is deliberately tiny — one record per event:
//!
//! ```text
//! kind:u8  dpid:u64be  seq:u64be  len:u32be  body[len]
//!   0 = Heartbeat   (dpid = seq = len = 0)
//!   1 = SwitchUp    (a switch reached Ready under the active)
//!   2 = Logged      (body = the OF 1.0 encoded FlowMod frame)
//!   3 = Retired     (seq = highest replay seq a barrier acknowledged)
//! ```
//!
//! Replication is fire-and-forget from the active's perspective: a dead
//! standby must never stall the fabric, so write errors are swallowed
//! and the standby resynchronises naturally — any mod it missed was
//! either barriered (on the switch; nothing to replay) or will fail on
//! the active too (and the operator restarts the pair).

use crate::codec::{decode, encode};
use crate::connection::{Connection, ReplayObserver};
use crate::messages::{FlowMod, OfpMessage};
use crate::transport::Transport;
use crate::{OfError, Result};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

const REC_HEARTBEAT: u8 = 0;
const REC_SWITCH_UP: u8 = 1;
const REC_LOGGED: u8 = 2;
const REC_RETIRED: u8 = 3;
const REC_HDR: usize = 1 + 8 + 8 + 4;

fn record(kind: u8, dpid: u64, seq: u64, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(REC_HDR + body.len());
    out.push(kind);
    out.extend_from_slice(&dpid.to_be_bytes());
    out.extend_from_slice(&seq.to_be_bytes());
    out.extend_from_slice(&(body.len() as u32).to_be_bytes());
    out.extend_from_slice(body);
    out
}

struct PeerIo {
    transport: Box<dyn Transport>,
    /// Bytes accepted but not yet taken by the transport.
    wbuf: Vec<u8>,
    last_beat: Instant,
}

impl PeerIo {
    /// Best-effort write: buffers, pushes what the transport takes, and
    /// swallows errors — a dead standby must not stall the active.
    fn write(&mut self, bytes: &[u8]) {
        self.wbuf.extend_from_slice(bytes);
        while !self.wbuf.is_empty() {
            match self.transport.send(&self.wbuf) {
                Ok(0) => break, // saturated; retry on the next write
                Ok(n) => {
                    self.wbuf.drain(..n);
                }
                Err(_) => {
                    self.wbuf.clear();
                    break;
                }
            }
        }
    }
}

/// The active controller's half of the role protocol: replicates replay
/// activity to the standby. Cloneable-by-`Arc` sinks attach to each
/// switch connection via [`Connection::set_replay_observer`].
pub struct ActivePeer {
    io: Arc<Mutex<PeerIo>>,
    beat_interval: Duration,
}

impl ActivePeer {
    /// Wraps the transport to the standby. Heartbeats default to every
    /// 10 ms; [`ActivePeer::set_heartbeat_interval`] overrides.
    pub fn new(transport: Box<dyn Transport>) -> ActivePeer {
        ActivePeer {
            io: Arc::new(Mutex::new(PeerIo {
                transport,
                wbuf: Vec::new(),
                last_beat: Instant::now(),
            })),
            beat_interval: Duration::from_millis(10),
        }
    }

    /// Overrides the heartbeat cadence.
    pub fn set_heartbeat_interval(&mut self, interval: Duration) {
        self.beat_interval = interval;
    }

    /// Announces that the switch `dpid` is live under this controller.
    pub fn announce_switch(&self, dpid: u64) {
        self.io.lock().write(&record(REC_SWITCH_UP, dpid, 0, &[]));
    }

    /// Sends a heartbeat if the cadence says one is due. Called from the
    /// fabric runtime's poll loop.
    pub fn maybe_heartbeat(&self) {
        let mut io = self.io.lock();
        if io.last_beat.elapsed() >= self.beat_interval {
            io.last_beat = Instant::now();
            io.write(&record(REC_HEARTBEAT, 0, 0, &[]));
        }
    }

    /// When the next heartbeat falls due — how long a runtime that drives
    /// this peer may park.
    pub fn next_beat(&self) -> Instant {
        self.io.lock().last_beat + self.beat_interval
    }

    /// A [`ReplayObserver`] that mirrors one switch's replay log to the
    /// standby, to be attached with [`Connection::set_replay_observer`].
    pub fn sink_for(&self, dpid: u64) -> Arc<dyn ReplayObserver> {
        Arc::new(ReplicaSink {
            io: Arc::clone(&self.io),
            dpid,
        })
    }
}

struct ReplicaSink {
    io: Arc<Mutex<PeerIo>>,
    dpid: u64,
}

impl ReplayObserver for ReplicaSink {
    fn logged(&self, seq: u64, fm: &FlowMod) {
        let body = encode(&OfpMessage::FlowMod(fm.clone()), 0);
        self.io
            .lock()
            .write(&record(REC_LOGGED, self.dpid, seq, &body));
    }

    fn retired(&self, acked_seq: u64) {
        self.io
            .lock()
            .write(&record(REC_RETIRED, self.dpid, acked_seq, &[]));
    }
}

/// The standby controller's half of the role protocol: consumes the
/// active's replication stream, watches for its death, and takes the
/// fabric over by replaying each switch's mirrored log tail.
pub struct StandbyController {
    transport: Box<dyn Transport>,
    rbuf: Vec<u8>,
    /// Per-switch mirror of the un-barriered replay log: `seq → FlowMod`,
    /// ordered so replay preserves the active's send order.
    mirror: HashMap<u64, BTreeMap<u64, FlowMod>>,
    /// Every switch the active announced (even ones with an empty mirror
    /// — takeover must adopt them all).
    switches: HashSet<u64>,
    last_heard: Instant,
    peer_gone: bool,
}

impl StandbyController {
    /// Wraps the transport from the active controller.
    pub fn new(transport: Box<dyn Transport>) -> StandbyController {
        StandbyController {
            transport,
            rbuf: Vec::new(),
            mirror: HashMap::new(),
            switches: HashSet::new(),
            last_heard: Instant::now(),
            peer_gone: false,
        }
    }

    /// Drains and applies every replication record currently available.
    pub fn poll(&mut self) {
        let mut chunk = [0u8; 4096];
        loop {
            match self.transport.recv(&mut chunk) {
                Ok(0) => break,
                Ok(n) => {
                    self.last_heard = Instant::now();
                    self.rbuf.extend_from_slice(&chunk[..n]);
                }
                Err(_) => {
                    // The active hung up — the strongest death signal.
                    self.peer_gone = true;
                    break;
                }
            }
        }
        while self.rbuf.len() >= REC_HDR {
            let kind = self.rbuf[0];
            let dpid = u64::from_be_bytes(self.rbuf[1..9].try_into().expect("8 bytes"));
            let seq = u64::from_be_bytes(self.rbuf[9..17].try_into().expect("8 bytes"));
            let len = u32::from_be_bytes(self.rbuf[17..21].try_into().expect("4 bytes")) as usize;
            if self.rbuf.len() < REC_HDR + len {
                break; // partial record; more bytes coming
            }
            let body: Vec<u8> = self.rbuf.drain(..REC_HDR + len).skip(REC_HDR).collect();
            match kind {
                REC_HEARTBEAT => {}
                REC_SWITCH_UP => {
                    self.switches.insert(dpid);
                }
                REC_LOGGED => {
                    if let Ok((OfpMessage::FlowMod(fm), _xid)) = decode(&body) {
                        self.switches.insert(dpid);
                        self.mirror.entry(dpid).or_default().insert(seq, fm);
                    }
                }
                REC_RETIRED => {
                    if let Some(log) = self.mirror.get_mut(&dpid) {
                        log.retain(|s, _| *s > seq);
                    }
                }
                _ => {} // unknown record kinds are skipped, not fatal
            }
        }
    }

    /// True once the active is considered dead: it hung up, or no record
    /// (heartbeats included) arrived within `timeout`.
    pub fn peer_dead(&self, timeout: Duration) -> bool {
        self.peer_gone || self.last_heard.elapsed() >= timeout
    }

    /// Switches announced by the active, sorted by datapath id.
    pub fn switches(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self.switches.iter().copied().collect();
        out.sort_unstable();
        out
    }

    /// Mirrored (un-barriered) flow mods held for `dpid`.
    pub fn pending(&self, dpid: u64) -> usize {
        self.mirror.get(&dpid).map_or(0, BTreeMap::len)
    }

    /// Assumes the active role: dials every announced switch through
    /// `connect`, handshakes, and replays its mirrored log tail through
    /// the ordinary barrier-fenced path (`send_flow_mods` + `barrier`),
    /// so the replayed mods land in the *new* connection's replay log and
    /// are retired by the barrier like any other batch. Returns the ready
    /// connections as `(dpid, connection)`, in dpid order.
    ///
    /// Replay is idempotent by construction: OF 1.0 `Add` replaces, so a
    /// mod the switch already committed is a no-op with no `FlowRemoved`.
    pub fn take_over(
        &mut self,
        timeout: Duration,
        mut connect: impl FnMut(u64) -> Result<Box<dyn Transport>>,
    ) -> Result<Vec<(u64, Connection)>> {
        let mut out = Vec::new();
        for dpid in self.switches() {
            let conn = Connection::new(connect(dpid)?);
            let features = conn.handshake(timeout)?;
            if features.datapath_id != dpid {
                return Err(OfError::Unknown(format!(
                    "dialled switch {dpid:#x} but reached {:#x}",
                    features.datapath_id
                )));
            }
            let mods: Vec<FlowMod> = self
                .mirror
                .get(&dpid)
                .map(|log| log.values().cloned().collect())
                .unwrap_or_default();
            if !mods.is_empty() {
                conn.send_flow_mods(&mods)?;
                conn.barrier(timeout)?;
                self.mirror.remove(&dpid);
            }
            out.push((dpid, conn));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::SwitchLink;
    use crate::fmatch::FlowMatch;
    use crate::transport::loopback;
    use crate::types::PortNo;
    use crate::Action;
    use std::sync::atomic::{AtomicBool, Ordering};

    /// A scripted in-test switch: answers handshake/echo/barrier frames
    /// and keeps every flow mod it accepted.
    struct MiniSwitch {
        link: SwitchLink,
        dpid: u64,
        mods: Vec<FlowMod>,
    }

    impl MiniSwitch {
        fn pump(&mut self) {
            while let Some(Ok((msg, xid))) = self.link.try_recv() {
                match msg {
                    OfpMessage::Hello => self.link.send(&OfpMessage::Hello, xid).unwrap(),
                    OfpMessage::FeaturesRequest => self
                        .link
                        .send(
                            &OfpMessage::FeaturesReply {
                                datapath_id: self.dpid,
                                ports: vec![1, 2],
                            },
                            xid,
                        )
                        .unwrap(),
                    OfpMessage::EchoRequest(d) => {
                        self.link.send(&OfpMessage::EchoReply(d), xid).unwrap()
                    }
                    OfpMessage::BarrierRequest => {
                        self.link.send(&OfpMessage::BarrierReply, xid).unwrap()
                    }
                    OfpMessage::FlowMod(fm) => self.mods.push(fm),
                    _ => {}
                }
            }
        }
    }

    fn fm(cookie: u64) -> FlowMod {
        FlowMod::add(
            FlowMatch::in_port(PortNo(cookie as u16)),
            100,
            vec![Action::Output(PortNo(99))],
        )
        .with_cookie(cookie)
    }

    #[test]
    fn standby_mirrors_logged_and_retired() {
        let (a_end, s_end) = loopback();
        let active = ActivePeer::new(Box::new(a_end));
        let mut standby = StandbyController::new(Box::new(s_end));

        active.announce_switch(0xd1);
        let sink = active.sink_for(0xd1);
        sink.logged(1, &fm(0xa));
        sink.logged(2, &fm(0xb));
        sink.logged(3, &fm(0xc));
        standby.poll();
        assert_eq!(standby.switches(), vec![0xd1]);
        assert_eq!(standby.pending(0xd1), 3);

        sink.retired(2); // a barrier covered seqs 1 and 2
        standby.poll();
        assert_eq!(standby.pending(0xd1), 1);
    }

    #[test]
    fn standby_detects_hangup_and_heartbeat_silence() {
        let (a_end, s_end) = loopback();
        let active = ActivePeer::new(Box::new(a_end));
        let mut standby = StandbyController::new(Box::new(s_end));
        active.maybe_heartbeat();
        standby.poll();
        assert!(!standby.peer_dead(Duration::from_secs(60)));
        // Silence-based detection.
        std::thread::sleep(Duration::from_millis(15));
        assert!(standby.peer_dead(Duration::from_millis(10)));
        // Hang-up beats any timeout.
        drop(active);
        standby.poll();
        assert!(standby.peer_dead(Duration::from_secs(60)));
    }

    #[test]
    fn take_over_replays_the_mirror_exactly_once() {
        let (a_end, s_end) = loopback();
        let active = ActivePeer::new(Box::new(a_end));
        let mut standby = StandbyController::new(Box::new(s_end));

        // The active logged 3 mods on switch 0xd1 and barriered the first.
        let sink = active.sink_for(0xd1);
        sink.logged(1, &fm(0x10));
        sink.retired(1);
        sink.logged(2, &fm(0x20));
        sink.logged(3, &fm(0x30));
        drop(sink); // the sink shares the peer transport's lifetime
        drop(active); // crash

        standby.poll();
        assert!(standby.peer_dead(Duration::from_secs(60)));
        assert_eq!(standby.pending(0xd1), 2);

        // Takeover dials the switch over a fresh loopback; a helper
        // thread plays the switch until the barrier lands.
        let (c_end, sw_end) = loopback();
        let done = Arc::new(AtomicBool::new(false));
        let done2 = Arc::clone(&done);
        let t = std::thread::spawn(move || {
            let mut sw = MiniSwitch {
                link: SwitchLink::new(Box::new(sw_end)),
                dpid: 0xd1,
                mods: Vec::new(),
            };
            while !done2.load(Ordering::Acquire) {
                sw.pump();
                std::thread::sleep(Duration::from_millis(1));
            }
            sw.mods
        });
        let mut handed = Some(Box::new(c_end) as Box<dyn Transport>);
        let conns = standby
            .take_over(Duration::from_secs(5), |dpid| {
                assert_eq!(dpid, 0xd1);
                Ok(handed.take().expect("exactly one switch to dial"))
            })
            .unwrap();
        done.store(true, Ordering::Release);
        let mods = t.join().unwrap();

        assert_eq!(conns.len(), 1);
        assert_eq!(conns[0].0, 0xd1);
        assert_eq!(conns[0].1.unacked_flow_mods(), 0, "barrier retired replay");
        // Only the un-retired tail was replayed, in order, once each.
        let cookies: Vec<u64> = mods.iter().map(|m| m.cookie).collect();
        assert_eq!(cookies, vec![0x20, 0x30]);
        assert_eq!(standby.pending(0xd1), 0, "mirror consumed by takeover");
    }
}
