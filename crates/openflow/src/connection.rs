//! The controller-side connection state machine.
//!
//! [`Connection`] owns a [`crate::transport::Transport`] and drives the
//! OF 1.0 session over it the way a real controller does:
//!
//! * **handshake** — `Hello` is sent on connect, with a pipelined
//!   `FeaturesRequest` right behind it (legal in OF 1.0: version
//!   negotiation succeeds iff the version bytes agree, and the switch
//!   processes the stream in order). The state machine advances
//!   `HelloSent → FeaturesSent → Ready` as the replies arrive;
//! * **xid pairing** — every request carries a fresh transaction id and
//!   [`Connection::wait_reply`] pairs replies to requests, stashing
//!   asynchronous messages (packet-ins, port-status) for later delivery;
//! * **event-driven waits** — `handshake` and `wait_reply` park on the
//!   connection's [`Event`], which the transport notifies when bytes
//!   arrive or the peer goes away; nothing sleeps and polls;
//! * **echo keepalive** — in steady state an `EchoRequest` probes the
//!   switch when the link has been quiet; a missing reply marks the
//!   connection dead instead of hanging callers forever;
//! * **barrier semantics** — barrier replies double as delivery
//!   acknowledgements for every flow mod sent before them;
//! * **flow-mod batching** — [`Connection::send_flow_mods`] marshals a
//!   whole batch into one transport write;
//! * **reconnect-with-replay** — flow mods not yet covered by a barrier
//!   reply survive in a replay log; [`Connection::reconnect`] re-runs the
//!   handshake on a fresh transport and replays them, so a controller
//!   restart mid-update loses nothing.

use crate::codec::{encode, try_encode};
use crate::event::Event;
use crate::framer::Framer;
use crate::messages::*;
use crate::transport::Transport;
use crate::types::PortNo;
use crate::{Action, FlowMatch, OfError, Result};
use parking_lot::Mutex;
use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Observes replay-log transitions on a [`Connection`] — the hook the
/// active/standby replication in [`crate::failover`] attaches so a peer
/// controller mirrors the un-barriered flow mods in real time.
///
/// Callbacks run with the connection's internal locks held: an observer
/// must never call back into the same `Connection` (writing to an
/// unrelated transport, as the replication sink does, is fine).
pub trait ReplayObserver: Send + Sync {
    /// `fm` was appended to the replay log as entry `seq`.
    fn logged(&self, seq: u64, fm: &FlowMod);

    /// A barrier reply retired every log entry with `seq <= acked_seq`.
    fn retired(&self, acked_seq: u64);
}

/// Where the session stands in the OF 1.0 connection setup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnectionState {
    /// `Hello` sent, peer's `Hello` not yet seen.
    HelloSent,
    /// Versions agreed; waiting for the `FeaturesReply`.
    FeaturesSent,
    /// Handshake complete — steady state.
    Ready,
    /// The transport failed or the keepalive gave up.
    Disconnected,
}

/// What the switch reported in its `FeaturesReply`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwitchFeatures {
    pub datapath_id: u64,
    pub ports: Vec<u16>,
}

/// Everything guarded by the I/O lock: the byte stream and the
/// handshake/keepalive state that only the stream can advance.
struct Io {
    transport: Box<dyn Transport>,
    framer: Framer,
    /// Bytes accepted by `send_*` but not yet taken by the transport
    /// (partial writes).
    wbuf: Vec<u8>,
    state: ConnectionState,
    fatal: Option<OfError>,
    features: Option<SwitchFeatures>,
    features_xid: u32,
    /// Internal keepalive echoes whose replies are swallowed.
    internal_echo: HashSet<u32>,
    echo_sent: Option<Instant>,
    last_io: Instant,
}

/// Flow mods awaiting barrier acknowledgement, for replay on reconnect.
#[derive(Default)]
struct Replay {
    /// Monotone counter of flow mods ever sent.
    seq: u64,
    /// `(seq, flow_mod)` not yet covered by a barrier reply.
    pending: VecDeque<(u64, FlowMod)>,
    /// Outstanding barriers as `(xid, seq at send time)` — a reply to
    /// `xid` acknowledges every pending entry with `seq <=` the mark.
    marks: Vec<(u32, u64)>,
    /// Barriers the connection itself appended after a replay; their
    /// replies are swallowed rather than delivered.
    internal_barriers: HashSet<u32>,
}

/// The controller's end of a framed OpenFlow control channel.
///
/// Every typed helper of the pre-wire channel API (`add_flow`, `barrier`,
/// `flow_stats`, …) lives here, now running over real framed bytes.
pub struct Connection {
    io: Mutex<Io>,
    replay: Mutex<Replay>,
    /// Asynchronous / not-yet-claimed messages, oldest first.
    inbox: Mutex<VecDeque<(OfpMessage, u32)>>,
    next_xid: AtomicU32,
    keepalive_interval: Duration,
    keepalive_timeout: Duration,
    /// Callers currently blocked in [`Connection::wait_reply`]; while any
    /// are, the keepalive neither probes nor times out (see `keepalive`).
    waiters: AtomicUsize,
    /// Replication hook for active/standby failover (see [`ReplayObserver`]).
    observer: Mutex<Option<Arc<dyn ReplayObserver>>>,
    /// What every blocking wait parks on; the transport notifies it.
    event: Arc<Event>,
}

impl Connection {
    /// Opens a connection over `transport` and immediately starts the
    /// handshake (`Hello` + pipelined `FeaturesRequest`, one write).
    pub fn new(transport: Box<dyn Transport>) -> Connection {
        let event = Arc::new(Event::new());
        transport.subscribe(&event);
        let conn = Connection {
            io: Mutex::new(Io {
                transport,
                framer: Framer::new(),
                wbuf: Vec::new(),
                state: ConnectionState::HelloSent,
                fatal: None,
                features: None,
                features_xid: 0,
                internal_echo: HashSet::new(),
                echo_sent: None,
                last_io: Instant::now(),
            }),
            replay: Mutex::new(Replay::default()),
            inbox: Mutex::new(VecDeque::new()),
            next_xid: AtomicU32::new(1),
            keepalive_interval: Duration::from_secs(5),
            keepalive_timeout: Duration::from_secs(15),
            waiters: AtomicUsize::new(0),
            observer: Mutex::new(None),
            event,
        };
        let hello_xid = conn.xid();
        let features_xid = conn.xid();
        {
            let mut io = conn.io.lock();
            io.features_xid = features_xid;
            let mut bytes = encode(&OfpMessage::Hello, hello_xid);
            bytes.extend(encode(&OfpMessage::FeaturesRequest, features_xid));
            let _ = write_bytes(&mut io, &bytes);
        }
        conn
    }

    /// Overrides the echo keepalive cadence (probe after `interval` of
    /// silence, declare the peer dead `timeout` after an unanswered probe).
    pub fn set_keepalive(&mut self, interval: Duration, timeout: Duration) {
        self.keepalive_interval = interval;
        self.keepalive_timeout = timeout;
    }

    /// Makes this connection wake `event` instead of an event of its own,
    /// so that one thread can park on many connections at once (a fabric
    /// runtime shares one event among all its switches).
    pub fn share_event(&mut self, event: Arc<Event>) {
        self.io.get_mut().transport.subscribe(&event);
        self.event = event;
    }

    /// When the keepalive next needs the connection pumped — to send a
    /// probe or to give up on one — if it is running at all. A thread
    /// that parks on the connection's event must not sleep past this.
    pub fn keepalive_due(&self) -> Option<Instant> {
        let io = self.io.lock();
        if io.state != ConnectionState::Ready || self.waiters.load(Ordering::Acquire) > 0 {
            return None;
        }
        Some(match io.echo_sent {
            Some(sent) => sent + self.keepalive_timeout,
            None => io.last_io + self.keepalive_interval,
        })
    }

    fn xid(&self) -> u32 {
        self.next_xid.fetch_add(1, Ordering::Relaxed)
    }

    /// Current handshake state.
    pub fn state(&self) -> ConnectionState {
        self.io.lock().state
    }

    /// The switch's `FeaturesReply` contents, once [`ConnectionState::Ready`].
    pub fn features(&self) -> Option<SwitchFeatures> {
        self.io.lock().features.clone()
    }

    /// Flow mods not yet acknowledged by a barrier (would be replayed on
    /// [`Connection::reconnect`]).
    pub fn unacked_flow_mods(&self) -> usize {
        self.replay.lock().pending.len()
    }

    /// Attaches a [`ReplayObserver`] that mirrors replay-log transitions —
    /// every logged flow mod and every barrier retirement — from now on.
    /// One observer at a time; setting replaces the previous one.
    pub fn set_replay_observer(&self, observer: Arc<dyn ReplayObserver>) {
        *self.observer.lock() = Some(observer);
    }

    /// Drives the handshake until [`ConnectionState::Ready`] or `timeout`.
    pub fn handshake(&self, timeout: Duration) -> Result<SwitchFeatures> {
        let deadline = Instant::now() + timeout;
        loop {
            // Registered before the pump: bytes that land after it wake us.
            let waiter = self.event.prepare();
            self.pump()?;
            {
                let io = self.io.lock();
                if io.state == ConnectionState::Ready {
                    return Ok(io.features.clone().expect("Ready implies features"));
                }
                if io.state == ConnectionState::Disconnected {
                    return Err(io.fatal.clone().unwrap_or(OfError::Disconnected));
                }
            }
            if Instant::now() >= deadline {
                return Err(OfError::Disconnected);
            }
            waiter.park_until(deadline);
        }
    }

    /// Re-runs the session on a fresh transport after the old one died:
    /// resets framing state, re-handshakes, then replays every
    /// un-barriered flow mod followed by an internal barrier whose reply
    /// (not delivered to the caller) retires the replay log.
    pub fn reconnect(&self, transport: Box<dyn Transport>) {
        let mut io = self.io.lock();
        let mut replay = self.replay.lock();
        transport.subscribe(&self.event);
        io.transport = transport;
        io.framer.reset();
        io.wbuf.clear();
        io.state = ConnectionState::HelloSent;
        io.fatal = None;
        io.features = None;
        io.internal_echo.clear();
        io.echo_sent = None;
        io.last_io = Instant::now();

        let hello_xid = self.xid();
        let features_xid = self.xid();
        io.features_xid = features_xid;
        let mut bytes = encode(&OfpMessage::Hello, hello_xid);
        bytes.extend(encode(&OfpMessage::FeaturesRequest, features_xid));

        // Replies to barriers sent over the dead transport will never
        // arrive; the pending entries they covered stay in the log and are
        // replayed now, exactly once per reconnect.
        replay.marks.clear();
        replay.internal_barriers.clear();
        for (_seq, fm) in replay.pending.iter() {
            bytes.extend(encode(&OfpMessage::FlowMod(fm.clone()), self.xid()));
        }
        if !replay.pending.is_empty() {
            let barrier_xid = self.xid();
            let seq = replay.seq;
            replay.internal_barriers.insert(barrier_xid);
            replay.marks.push((barrier_xid, seq));
            bytes.extend(encode(&OfpMessage::BarrierRequest, barrier_xid));
        }
        let _ = write_bytes(&mut io, &bytes);
    }

    /// Sends any message, returning the xid used.
    pub fn send(&self, msg: &OfpMessage) -> Result<u32> {
        let xid = self.xid();
        // Encoded before anything is logged: a message too large for a
        // frame is refused whole, not remembered for replay.
        let bytes = try_encode(msg, xid)?;
        let mut io = self.io.lock();
        let mut logged = None;
        {
            let mut replay = self.replay.lock();
            match msg {
                OfpMessage::FlowMod(fm) => {
                    replay.seq += 1;
                    let seq = replay.seq;
                    replay.pending.push_back((seq, fm.clone()));
                    logged = Some(seq);
                }
                OfpMessage::BarrierRequest => {
                    let seq = replay.seq;
                    replay.marks.push((xid, seq));
                }
                _ => {}
            }
        }
        if let (Some(seq), OfpMessage::FlowMod(fm)) = (logged, msg) {
            // Replicate before the wire write: a crash between the two
            // loses nothing the standby cannot replay.
            if let Some(obs) = self.observer.lock().clone() {
                obs.logged(seq, fm);
            }
        }
        write_bytes(&mut io, &bytes)?;
        Ok(xid)
    }

    /// Marshals a whole batch of flow mods into a single transport write.
    pub fn send_flow_mods(&self, mods: &[FlowMod]) -> Result<()> {
        let mut bytes = Vec::with_capacity(mods.len() * 80);
        for fm in mods {
            bytes.extend(try_encode(&OfpMessage::FlowMod(fm.clone()), self.xid())?);
        }
        let mut io = self.io.lock();
        let first_seq;
        {
            let mut replay = self.replay.lock();
            first_seq = replay.seq + 1;
            for fm in mods {
                replay.seq += 1;
                let seq = replay.seq;
                replay.pending.push_back((seq, fm.clone()));
            }
        }
        if let Some(obs) = self.observer.lock().clone() {
            for (i, fm) in mods.iter().enumerate() {
                obs.logged(first_seq + i as u64, fm);
            }
        }
        write_bytes(&mut io, &bytes)
    }

    /// Reads the transport, reassembles frames and dispatches them:
    /// handshake and keepalive traffic is consumed here, everything else
    /// lands in the inbox for [`Connection::try_recv`] / `wait_reply`.
    fn pump(&self) -> Result<()> {
        let mut io = self.io.lock();
        if io.state == ConnectionState::Disconnected {
            return Err(io.fatal.clone().unwrap_or(OfError::Disconnected));
        }
        let _ = flush(&mut io); // opportunistic retry of buffered writes
        let mut chunk = [0u8; 4096];
        loop {
            match io.transport.recv(&mut chunk) {
                Ok(0) => break,
                Ok(n) => {
                    io.last_io = Instant::now();
                    io.framer.push(&chunk[..n]);
                    loop {
                        match io.framer.poll_frame() {
                            Ok(Some(frame)) => match crate::codec::decode(&frame) {
                                Ok((msg, xid)) => self.dispatch(&mut io, msg, xid),
                                Err(e) => return fail(&mut io, e),
                            },
                            Ok(None) => break,
                            // Framing errors are unrecoverable: the stream
                            // position is gone.
                            Err(e) => return fail(&mut io, e),
                        }
                    }
                }
                Err(e) => return fail(&mut io, e),
            }
        }
        self.keepalive(&mut io)
    }

    /// Steady-state liveness probing over the same stream.
    fn keepalive(&self, io: &mut Io) -> Result<()> {
        if io.state != ConnectionState::Ready {
            return Ok(());
        }
        if self.waiters.load(Ordering::Acquire) > 0 {
            // Someone is blocked in `wait_reply` with a deadline of their
            // own. A switch that is slow to answer is not a dead switch:
            // time spent blocked must not count toward dead-peer
            // detection, so the probe clock is pushed forward instead of
            // read. (Real disconnects still surface immediately via the
            // transport errors `pump` observes.)
            if io.echo_sent.is_some() {
                io.echo_sent = Some(Instant::now());
            }
            io.last_io = Instant::now();
            return Ok(());
        }
        if let Some(sent) = io.echo_sent {
            if sent.elapsed() >= self.keepalive_timeout {
                return fail(io, OfError::Disconnected);
            }
        } else if io.last_io.elapsed() >= self.keepalive_interval {
            let xid = self.xid();
            io.internal_echo.insert(xid);
            io.echo_sent = Some(Instant::now());
            let bytes = encode(&OfpMessage::EchoRequest(b"keepalive".to_vec()), xid);
            write_bytes(io, &bytes)?;
        }
        Ok(())
    }

    /// Routes one received message: session traffic is absorbed, the rest
    /// is queued for the caller.
    fn dispatch(&self, io: &mut Io, msg: OfpMessage, xid: u32) {
        match msg {
            OfpMessage::Hello => {
                if io.state == ConnectionState::HelloSent {
                    io.state = ConnectionState::FeaturesSent;
                }
            }
            OfpMessage::FeaturesReply { datapath_id, ports } if xid == io.features_xid => {
                io.features = Some(SwitchFeatures { datapath_id, ports });
                io.state = ConnectionState::Ready;
            }
            OfpMessage::EchoRequest(data) => {
                let bytes = encode(&OfpMessage::EchoReply(data), xid);
                let _ = write_bytes(io, &bytes);
            }
            OfpMessage::EchoReply(_) if io.internal_echo.remove(&xid) => {
                io.echo_sent = None;
            }
            OfpMessage::BarrierReply => {
                let mut retired = None;
                let internal = {
                    let mut replay = self.replay.lock();
                    if let Some(pos) = replay.marks.iter().position(|(x, _)| *x == xid) {
                        let (_, acked_seq) = replay.marks.remove(pos);
                        replay.pending.retain(|(seq, _)| *seq > acked_seq);
                        retired = Some(acked_seq);
                    }
                    replay.internal_barriers.remove(&xid)
                };
                if let Some(acked_seq) = retired {
                    if let Some(obs) = self.observer.lock().clone() {
                        obs.retired(acked_seq);
                    }
                }
                if !internal {
                    self.inbox.lock().push_back((OfpMessage::BarrierReply, xid));
                }
            }
            other => self.inbox.lock().push_back((other, xid)),
        }
    }

    /// Advances the session's I/O without consuming the inbox: flushes
    /// buffered writes, reads the transport, processes handshake and
    /// keepalive traffic. The fabric runtime uses this to drive a
    /// not-yet-announced switch's handshake while leaving queued
    /// asynchronous messages for delivery after the announce.
    pub fn poll_io(&self) -> Result<()> {
        self.pump()
    }

    /// Non-blocking receive of asynchronous messages (packet-in etc.).
    pub fn try_recv(&self) -> Option<Result<(OfpMessage, u32)>> {
        let pump_err = self.pump().err();
        if let Some(m) = self.inbox.lock().pop_front() {
            return Some(Ok(m));
        }
        pump_err.map(Err)
    }

    /// Waits for the reply carrying `xid`, stashing unrelated messages.
    ///
    /// Time spent blocked here does not count toward the echo keepalive's
    /// dead-peer detection — this call has its own `timeout`, and a slow
    /// switch that does eventually answer must not be declared dead under
    /// the caller.
    pub fn wait_reply(&self, xid: u32, timeout: Duration) -> Result<OfpMessage> {
        let _guard = WaiterGuard::enter(&self.waiters);
        let deadline = Instant::now() + timeout;
        loop {
            // Registered before the pump: a reply (or a hang-up) that lands
            // after it wakes the park below. The keepalive needs no wake of
            // its own here — it stands down while a waiter is blocked.
            let waiter = self.event.prepare();
            let pump_err = self.pump().err();
            {
                let mut inbox = self.inbox.lock();
                if let Some(pos) = inbox.iter().position(|(_m, x)| *x == xid) {
                    return Ok(inbox.remove(pos).expect("position exists").0);
                }
            }
            if let Some(e) = pump_err {
                return Err(e);
            }
            if Instant::now() >= deadline {
                return Err(OfError::Disconnected);
            }
            waiter.park_until(deadline);
        }
    }

    /// Sends `msg` and waits for the xid-paired reply — the one-call form
    /// of the request/reply pattern every stats helper uses.
    pub fn request_reply(&self, msg: &OfpMessage, timeout: Duration) -> Result<OfpMessage> {
        let xid = self.send(msg)?;
        self.wait_reply(xid, timeout)
    }

    /// Installs a flow: `Add` with the given match/priority/actions/cookie.
    pub fn add_flow(
        &self,
        fmatch: FlowMatch,
        priority: u16,
        actions: Vec<Action>,
        cookie: u64,
    ) -> Result<u32> {
        self.send(&OfpMessage::FlowMod(
            FlowMod::add(fmatch, priority, actions).with_cookie(cookie),
        ))
    }

    /// Strict-deletes a flow.
    pub fn del_flow_strict(&self, fmatch: FlowMatch, priority: u16) -> Result<u32> {
        self.send(&OfpMessage::FlowMod(FlowMod::delete_strict(
            fmatch, priority,
        )))
    }

    /// Requests statistics for all flows and waits for the whole reply:
    /// a table too large for one frame arrives in parts flagged
    /// `OFPSF_REPLY_MORE`, concatenated here until the flag clears.
    pub fn flow_stats(&self, timeout: Duration) -> Result<Vec<FlowStatsEntry>> {
        let xid = self.send(&OfpMessage::FlowStatsRequest(FlowStatsRequest {
            fmatch: FlowMatch::any(),
            out_port: PortNo::NONE,
        }))?;
        let deadline = Instant::now() + timeout;
        let mut entries = Vec::new();
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.wait_reply(xid, left)? {
                OfpMessage::FlowStatsReplyMore(part) => entries.extend(part),
                OfpMessage::FlowStatsReply(last) => {
                    entries.extend(last);
                    return Ok(entries);
                }
                other => return Err(OfError::Unknown(format!("unexpected reply {other:?}"))),
            }
        }
    }

    /// Requests statistics for all ports and waits for the reply.
    pub fn port_stats(&self, timeout: Duration) -> Result<Vec<PortStatsEntry>> {
        let req = OfpMessage::PortStatsRequest(PortStatsRequest {
            port_no: PortNo::NONE,
        });
        match self.request_reply(&req, timeout)? {
            OfpMessage::PortStatsReply(entries) => Ok(entries),
            other => Err(OfError::Unknown(format!("unexpected reply {other:?}"))),
        }
    }

    /// Sends a barrier and waits for it to complete. The reply also
    /// acknowledges every flow mod sent before it (retiring them from the
    /// replay log).
    pub fn barrier(&self, timeout: Duration) -> Result<()> {
        match self.request_reply(&OfpMessage::BarrierRequest, timeout)? {
            OfpMessage::BarrierReply => Ok(()),
            other => Err(OfError::Unknown(format!("unexpected reply {other:?}"))),
        }
    }

    /// Injects a packet via packet-out.
    pub fn packet_out(&self, data: Vec<u8>, actions: Vec<Action>) -> Result<u32> {
        self.send(&OfpMessage::PacketOut(PacketOut {
            in_port: PortNo::NONE,
            actions,
            data,
        }))
    }

    /// Administratively brings a port down (or back up) via `port_mod`.
    pub fn set_port_down(&self, port_no: PortNo, down: bool) -> Result<u32> {
        self.send(&OfpMessage::PortMod(PortMod { port_no, down }))
    }

    /// Requests aggregate statistics over rules covered by `fmatch`.
    pub fn aggregate_stats(&self, fmatch: FlowMatch, timeout: Duration) -> Result<AggregateStats> {
        let req = OfpMessage::AggregateStatsRequest(AggregateStatsRequest {
            fmatch,
            out_port: PortNo::NONE,
        });
        match self.request_reply(&req, timeout)? {
            OfpMessage::AggregateStatsReply(agg) => Ok(agg),
            other => Err(OfError::Unknown(format!("unexpected reply {other:?}"))),
        }
    }

    /// Requests per-table statistics.
    pub fn table_stats(&self, timeout: Duration) -> Result<Vec<TableStatsEntry>> {
        match self.request_reply(&OfpMessage::TableStatsRequest, timeout)? {
            OfpMessage::TableStatsReply(entries) => Ok(entries),
            other => Err(OfError::Unknown(format!("unexpected reply {other:?}"))),
        }
    }

    /// Requests the switch description.
    pub fn desc_stats(&self, timeout: Duration) -> Result<DescStats> {
        match self.request_reply(&OfpMessage::DescStatsRequest, timeout)? {
            OfpMessage::DescStatsReply(desc) => Ok(desc),
            other => Err(OfError::Unknown(format!("unexpected reply {other:?}"))),
        }
    }

    /// Drains any queued asynchronous [`PortStatus`] notifications,
    /// stashing unrelated messages for later delivery.
    pub fn drain_port_status(&self) -> Vec<PortStatus> {
        let _ = self.pump();
        let mut out = Vec::new();
        self.inbox.lock().retain(|(msg, _xid)| {
            if let OfpMessage::PortStatus(ps) = msg {
                out.push(ps.clone());
                false
            } else {
                true
            }
        });
        out
    }
}

/// RAII count of callers blocked in `wait_reply` (decremented on every
/// exit path, including panics and early returns).
struct WaiterGuard<'a>(&'a AtomicUsize);

impl<'a> WaiterGuard<'a> {
    fn enter(counter: &'a AtomicUsize) -> WaiterGuard<'a> {
        counter.fetch_add(1, Ordering::AcqRel);
        WaiterGuard(counter)
    }
}

impl Drop for WaiterGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Marks the connection dead with `e` and propagates it.
fn fail(io: &mut Io, e: OfError) -> Result<()> {
    io.state = ConnectionState::Disconnected;
    io.fatal = Some(e.clone());
    Err(e)
}

/// Queues `bytes` and pushes as much as the transport will take.
fn write_bytes(io: &mut Io, bytes: &[u8]) -> Result<()> {
    io.wbuf.extend_from_slice(bytes);
    flush(io)
}

fn flush(io: &mut Io) -> Result<()> {
    while !io.wbuf.is_empty() {
        match io.transport.send(&io.wbuf) {
            Ok(0) => break, // transport saturated; retry on next pump
            Ok(n) => {
                io.wbuf.drain(..n);
                io.last_io = Instant::now();
            }
            Err(e) => return fail(io, e),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::SwitchLink;
    use crate::transport::{faulty_pair, loopback, FaultConfig};

    /// A minimal in-test switch endpoint: answers handshake traffic the
    /// way `ovs_dp::Ofproto::poll` does.
    fn pump_switch(sw: &SwitchLink) -> Vec<(OfpMessage, u32)> {
        let mut unhandled = Vec::new();
        while let Some(res) = sw.try_recv() {
            let Ok((msg, xid)) = res else { break };
            match msg {
                OfpMessage::Hello => sw.send(&OfpMessage::Hello, xid).unwrap(),
                OfpMessage::FeaturesRequest => sw
                    .send(
                        &OfpMessage::FeaturesReply {
                            datapath_id: 0xd1,
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

    fn connected() -> (Connection, SwitchLink) {
        let (c, s) = loopback();
        (Connection::new(Box::new(c)), SwitchLink::new(Box::new(s)))
    }

    #[test]
    fn handshake_reaches_ready() {
        let (conn, sw) = connected();
        assert_eq!(conn.state(), ConnectionState::HelloSent);
        pump_switch(&sw);
        let features = conn.handshake(Duration::from_secs(1)).unwrap();
        assert_eq!(features.datapath_id, 0xd1);
        assert_eq!(conn.state(), ConnectionState::Ready);
        assert_eq!(conn.features().unwrap().ports, vec![1, 2]);
    }

    #[test]
    fn barrier_retires_replay_log() {
        let (conn, sw) = connected();
        pump_switch(&sw);
        conn.add_flow(FlowMatch::in_port(PortNo(1)), 10, vec![], 1)
            .unwrap();
        conn.add_flow(FlowMatch::in_port(PortNo(2)), 10, vec![], 2)
            .unwrap();
        assert_eq!(conn.unacked_flow_mods(), 2);
        let t = std::thread::spawn({
            // Answer the barrier from another thread while barrier() blocks.
            move || {
                std::thread::sleep(Duration::from_millis(50));
                pump_switch(&sw);
                sw
            }
        });
        conn.barrier(Duration::from_secs(2)).unwrap();
        assert_eq!(conn.unacked_flow_mods(), 0);
        drop(t.join().unwrap());
    }

    #[test]
    fn batched_flow_mods_arrive_in_order() {
        let (conn, sw) = connected();
        let mods: Vec<FlowMod> = (0..5)
            .map(|i| {
                FlowMod::add(FlowMatch::in_port(PortNo(i)), 10, vec![]).with_cookie(u64::from(i))
            })
            .collect();
        conn.send_flow_mods(&mods).unwrap();
        let got = pump_switch(&sw);
        let cookies: Vec<u64> = got
            .iter()
            .filter_map(|(m, _)| match m {
                OfpMessage::FlowMod(fm) => Some(fm.cookie),
                _ => None,
            })
            .collect();
        assert_eq!(cookies, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn reconnect_replays_unbarriered_flow_mods() {
        let (c_end, s_end, ctl) = faulty_pair(FaultConfig::default());
        let conn = Connection::new(Box::new(c_end));
        let sw = SwitchLink::new(Box::new(s_end));
        pump_switch(&sw);
        conn.handshake(Duration::from_secs(1)).unwrap();

        conn.add_flow(FlowMatch::in_port(PortNo(7)), 10, vec![], 0x77)
            .unwrap();
        ctl.cut(); // controller "crashes" before any barrier
        assert!(conn.barrier(Duration::from_millis(100)).is_err());
        assert_eq!(conn.state(), ConnectionState::Disconnected);
        assert_eq!(conn.unacked_flow_mods(), 1);

        // New transport: handshake reruns, the flow mod is replayed, and an
        // internal barrier retires the log without surfacing to the caller.
        let (c2, s2) = loopback();
        conn.reconnect(Box::new(c2));
        let sw2 = SwitchLink::new(Box::new(s2));
        let replayed = pump_switch(&sw2);
        conn.handshake(Duration::from_secs(1)).unwrap();
        let cookies: Vec<u64> = replayed
            .iter()
            .filter_map(|(m, _)| match m {
                OfpMessage::FlowMod(fm) => Some(fm.cookie),
                _ => None,
            })
            .collect();
        assert_eq!(cookies, vec![0x77]);
        // Internal barrier reply consumed the log and was not delivered.
        let deadline = Instant::now() + Duration::from_secs(1);
        while conn.unacked_flow_mods() > 0 && Instant::now() < deadline {
            let _ = conn.try_recv();
        }
        assert_eq!(conn.unacked_flow_mods(), 0);
        assert!(conn.try_recv().is_none());
    }

    #[test]
    fn keepalive_declares_dead_switch() {
        let (c, _s) = loopback();
        let mut conn = Connection::new(Box::new(c));
        conn.set_keepalive(Duration::from_millis(1), Duration::from_millis(20));
        // Force Ready state without a real handshake: pretend features came.
        {
            let mut io = conn.io.lock();
            io.state = ConnectionState::Ready;
            io.features = Some(SwitchFeatures {
                datapath_id: 1,
                ports: vec![],
            });
        }
        std::thread::sleep(Duration::from_millis(5));
        let _ = conn.try_recv(); // sends the probe
        std::thread::sleep(Duration::from_millis(30));
        let _ = conn.try_recv(); // probe unanswered past the timeout
        assert_eq!(conn.state(), ConnectionState::Disconnected);
    }

    /// Regression: a caller blocked in `wait_reply` must not have its
    /// blocked time counted toward dead-peer detection. Before the fix, a
    /// switch that took longer than `keepalive_timeout` to answer (slow
    /// TCP loopback in CI) was declared dead *under* the waiting caller
    /// even though it did reply within the caller's own deadline.
    #[test]
    fn slow_reply_does_not_trip_keepalive_under_wait_reply() {
        let (c, s) = loopback();
        let mut conn = Connection::new(Box::new(c));
        let sw = SwitchLink::new(Box::new(s));
        conn.set_keepalive(Duration::from_millis(1), Duration::from_millis(20));
        pump_switch(&sw);
        conn.handshake(Duration::from_secs(1)).unwrap();

        // Let the idle interval pass so a probe is already outstanding
        // when the slow request begins — the worst case for the old code.
        std::thread::sleep(Duration::from_millis(5));
        let _ = conn.try_recv();

        // The switch answers everything — but only after 100 ms, five
        // times the keepalive timeout.
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            pump_switch(&sw);
            sw
        });
        conn.barrier(Duration::from_secs(2))
            .expect("slow barrier must complete, not die to the keepalive");
        assert_eq!(conn.state(), ConnectionState::Ready);
        let sw = t.join().unwrap();

        // With no waiter blocked, the keepalive is live again: silence
        // past interval+timeout still kills the connection.
        drop(sw);
        std::thread::sleep(Duration::from_millis(5));
        let _ = conn.try_recv(); // probe (or transport error) fires
        let deadline = Instant::now() + Duration::from_secs(1);
        while conn.state() != ConnectionState::Disconnected && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
            let _ = conn.try_recv();
        }
        assert_eq!(conn.state(), ConnectionState::Disconnected);
    }

    /// Counts `recv` calls and forwards everything else — `subscribe`
    /// included, or the connection above would never be woken.
    struct CountingTransport<T> {
        inner: T,
        recvs: Arc<AtomicUsize>,
    }

    impl<T: Transport> Transport for CountingTransport<T> {
        fn send(&self, buf: &[u8]) -> Result<usize> {
            self.inner.send(buf)
        }
        fn recv(&self, buf: &mut [u8]) -> Result<usize> {
            self.recvs.fetch_add(1, Ordering::SeqCst);
            self.inner.recv(buf)
        }
        fn pending_bytes(&self) -> usize {
            self.inner.pending_bytes()
        }
        fn subscribe(&self, event: &Arc<Event>) {
            self.inner.subscribe(event)
        }
    }

    #[test]
    fn wait_reply_parks_instead_of_polling_a_silent_transport() {
        let (c, s) = loopback();
        let recvs = Arc::new(AtomicUsize::new(0));
        let conn = Connection::new(Box::new(CountingTransport {
            inner: c,
            recvs: Arc::clone(&recvs),
        }));
        let sw = SwitchLink::new(Box::new(s));
        pump_switch(&sw);
        conn.handshake(Duration::from_secs(1)).unwrap();

        let before = recvs.load(Ordering::SeqCst);
        let t = Instant::now();
        // No such request is outstanding, and the switch stays silent.
        assert!(conn.wait_reply(0xdead, Duration::from_millis(200)).is_err());
        assert!(t.elapsed() >= Duration::from_millis(200));
        let polls = recvs.load(Ordering::SeqCst) - before;
        assert!(polls <= 8, "{polls} recv calls in 200 ms of silence");
        assert_eq!(conn.state(), ConnectionState::Ready);
    }

    /// Blocks in `wait_reply` with a 5 s timeout while `hang_up` runs
    /// 20 ms later on another thread; the wait must end on the hang-up.
    fn assert_hang_up_ends_the_wait(conn: &Connection, hang_up: impl FnOnce() + Send + 'static) {
        let xid = conn.send(&OfpMessage::BarrierRequest).unwrap();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            hang_up();
        });
        let started = Instant::now();
        assert_eq!(
            conn.wait_reply(xid, Duration::from_secs(5)),
            Err(OfError::Disconnected)
        );
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "waited out the timeout"
        );
        t.join().unwrap();
    }

    #[test]
    fn wait_reply_returns_the_moment_the_peer_goes_away() {
        // The switch end is dropped...
        let (conn, sw) = connected();
        pump_switch(&sw);
        conn.handshake(Duration::from_secs(1)).unwrap();
        assert_hang_up_ends_the_wait(&conn, move || drop(sw));

        // ...or the link is cut under both ends.
        let (c_end, s_end, ctl) = faulty_pair(FaultConfig::default());
        let conn = Connection::new(Box::new(c_end));
        let sw = SwitchLink::new(Box::new(s_end));
        pump_switch(&sw);
        conn.handshake(Duration::from_secs(1)).unwrap();
        assert_hang_up_ends_the_wait(&conn, move || ctl.cut());
        drop(sw);
    }

    /// The same two wake-ups over a real socket, where the notify comes
    /// from the transport's poll(2) watcher: a reply ends the park, and so
    /// does the peer closing.
    #[test]
    fn tcp_transport_wakes_a_parked_waiter() {
        let (c, s) = crate::tcp::tcp_pair().unwrap();
        let conn = Connection::new(Box::new(c));
        let sw = SwitchLink::new(Box::new(s));
        let answerer = std::thread::spawn(move || {
            // Answers whatever has arrived every 10 ms, then hangs up.
            for _ in 0..10 {
                std::thread::sleep(Duration::from_millis(10));
                pump_switch(&sw);
            }
            drop(sw);
        });
        conn.handshake(Duration::from_secs(5)).unwrap();
        conn.barrier(Duration::from_secs(5)).unwrap();
        let started = Instant::now();
        assert_eq!(
            conn.wait_reply(0xdead, Duration::from_secs(5)),
            Err(OfError::Disconnected)
        );
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "waited out the timeout"
        );
        assert_eq!(conn.state(), ConnectionState::Disconnected);
        answerer.join().unwrap();
    }

    #[test]
    fn replay_observer_sees_logged_and_retired() {
        use std::sync::Mutex as StdMutex;
        #[derive(Default)]
        struct Recorder {
            logged: StdMutex<Vec<(u64, u64)>>, // (seq, cookie)
            retired: StdMutex<Vec<u64>>,
        }
        impl ReplayObserver for Recorder {
            fn logged(&self, seq: u64, fm: &FlowMod) {
                self.logged.lock().unwrap().push((seq, fm.cookie));
            }
            fn retired(&self, acked_seq: u64) {
                self.retired.lock().unwrap().push(acked_seq);
            }
        }

        let (conn, sw) = connected();
        pump_switch(&sw);
        conn.handshake(Duration::from_secs(1)).unwrap();
        let rec = Arc::new(Recorder::default());
        conn.set_replay_observer(Arc::clone(&rec) as Arc<dyn ReplayObserver>);

        conn.add_flow(FlowMatch::in_port(PortNo(1)), 10, vec![], 0xa)
            .unwrap();
        conn.send_flow_mods(&[
            FlowMod::add(FlowMatch::in_port(PortNo(2)), 10, vec![]).with_cookie(0xb),
            FlowMod::add(FlowMatch::in_port(PortNo(3)), 10, vec![]).with_cookie(0xc),
        ])
        .unwrap();
        assert_eq!(
            *rec.logged.lock().unwrap(),
            vec![(1, 0xa), (2, 0xb), (3, 0xc)]
        );

        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            pump_switch(&sw);
            sw
        });
        conn.barrier(Duration::from_secs(2)).unwrap();
        drop(t.join().unwrap());
        assert_eq!(*rec.retired.lock().unwrap(), vec![3]);
        assert_eq!(conn.unacked_flow_mods(), 0);
    }

    #[test]
    fn echo_replies_pair_with_user_requests() {
        let (conn, sw) = connected();
        pump_switch(&sw);
        conn.handshake(Duration::from_secs(1)).unwrap();
        let xid = conn
            .send(&OfpMessage::EchoRequest(vec![0xaa, 0xbb]))
            .unwrap();
        pump_switch(&sw);
        let reply = conn.wait_reply(xid, Duration::from_secs(1)).unwrap();
        assert_eq!(reply, OfpMessage::EchoReply(vec![0xaa, 0xbb]));
    }
}
