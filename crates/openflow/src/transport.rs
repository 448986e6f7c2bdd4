//! Byte-stream transports for the control channel.
//!
//! The control plane no longer exchanges pre-decoded frames: a
//! [`Transport`] moves *bytes*, with all the inconveniences of a real
//! socket — partial reads, partial writes, and disconnection discovered
//! only on the next I/O call. Frame boundaries are recovered above this
//! layer by [`crate::framer::Framer`].
//!
//! Three implementations cover the reproduction's needs:
//!
//! * [`loopback`] — an in-process pipe pair, the production default for a
//!   controller and switch sharing a host;
//! * [`faulty_pair`] — a loopback wrapped with deterministic fault
//!   injection (forced short reads/writes, mid-frame cuts, byte
//!   corruption) for the disconnect/replay tests;
//! * [`ScriptedTransport`] — replays a canned byte stream and captures
//!   writes, for byte-identical controller-agnosticism tests.

use crate::event::Event;
use crate::{OfError, Result};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// A bidirectional byte stream with socket-like semantics.
///
/// * `send` may accept fewer bytes than offered (partial write) and
///   returns how many it took;
/// * `recv` returns `Ok(0)` when no bytes are available right now
///   (would-block), a positive count otherwise;
/// * both return [`OfError::Disconnected`] once the peer is gone and —
///   for `recv` — all delivered bytes have been drained.
pub trait Transport: Send {
    /// Attempts to write `buf`; returns the number of bytes accepted.
    fn send(&self, buf: &[u8]) -> Result<usize>;

    /// Attempts to read into `buf`; `Ok(0)` means try again later.
    fn recv(&self, buf: &mut [u8]) -> Result<usize>;

    /// Bytes delivered by the peer but not yet read. Used by the switch
    /// side to answer "is the control channel idle?"; transports that
    /// cannot know report 0.
    fn pending_bytes(&self) -> usize {
        0
    }

    /// Asks the transport to [`Event::notify`] `event` whenever `recv`
    /// may have something new to report: bytes became readable, or the
    /// peer went away (a waiter parked on `event` must learn of a
    /// disconnect as promptly as of a reply). One subscriber at a time; a
    /// new one replaces the old.
    ///
    /// The default does nothing, which is right only for a transport whose
    /// readable bytes never change after construction
    /// ([`ScriptedTransport`]): a waiter on any other transport that kept
    /// it would sleep to its deadline.
    fn subscribe(&self, event: &Arc<Event>) {
        let _ = event;
    }
}

/// A shared transport handle is itself a transport — lets a test keep a
/// [`ScriptedTransport`] (or fault control) reference after boxing the
/// other clone into a connection.
impl<T: Transport + ?Sized + Sync> Transport for std::sync::Arc<T> {
    fn send(&self, buf: &[u8]) -> Result<usize> {
        (**self).send(buf)
    }

    fn recv(&self, buf: &mut [u8]) -> Result<usize> {
        (**self).recv(buf)
    }

    fn pending_bytes(&self) -> usize {
        (**self).pending_bytes()
    }

    fn subscribe(&self, event: &Arc<Event>) {
        (**self).subscribe(event)
    }
}

/// One direction of an in-process byte pipe.
struct Pipe {
    buf: parking_lot::Mutex<VecDeque<u8>>,
    closed: AtomicBool,
    /// The reading end's subscriber, notified on `write` and `close`.
    reader: parking_lot::Mutex<Option<Arc<Event>>>,
}

impl Pipe {
    fn new() -> Arc<Pipe> {
        Arc::new(Pipe {
            buf: parking_lot::Mutex::new(VecDeque::new()),
            closed: AtomicBool::new(false),
            reader: parking_lot::Mutex::new(None),
        })
    }

    fn notify_reader(&self) {
        // Cloned out so the reader is never woken into a held lock.
        let reader = self.reader.lock().clone();
        if let Some(event) = reader {
            event.notify();
        }
    }

    fn write(&self, data: &[u8]) -> Result<usize> {
        if self.closed.load(Ordering::Acquire) {
            return Err(OfError::Disconnected);
        }
        self.buf.lock().extend(data);
        self.notify_reader();
        Ok(data.len())
    }

    fn read(&self, out: &mut [u8]) -> Result<usize> {
        let mut buf = self.buf.lock();
        if buf.is_empty() {
            return if self.closed.load(Ordering::Acquire) {
                Err(OfError::Disconnected)
            } else {
                Ok(0)
            };
        }
        let n = out.len().min(buf.len());
        for slot in out.iter_mut().take(n) {
            *slot = buf.pop_front().expect("length checked");
        }
        Ok(n)
    }

    fn len(&self) -> usize {
        self.buf.lock().len()
    }

    fn close(&self) {
        self.closed.store(true, Ordering::Release);
        self.notify_reader();
    }
}

/// One end of a [`loopback`] pair.
pub struct LoopbackEnd {
    tx: Arc<Pipe>,
    rx: Arc<Pipe>,
}

/// Creates a connected in-process transport pair.
///
/// Writes are always accepted in full (the pipe is unbounded), so a
/// message `send` on one end is atomically visible to the other — the
/// property the switch's control-idle accounting relies on. Dropping
/// either end closes both directions: the peer's next `send` fails
/// immediately and its `recv` fails once the pipe is drained.
pub fn loopback() -> (LoopbackEnd, LoopbackEnd) {
    let a_to_b = Pipe::new();
    let b_to_a = Pipe::new();
    (
        LoopbackEnd {
            tx: Arc::clone(&a_to_b),
            rx: Arc::clone(&b_to_a),
        },
        LoopbackEnd {
            tx: b_to_a,
            rx: a_to_b,
        },
    )
}

impl Transport for LoopbackEnd {
    fn send(&self, buf: &[u8]) -> Result<usize> {
        self.tx.write(buf)
    }

    fn recv(&self, buf: &mut [u8]) -> Result<usize> {
        self.rx.read(buf)
    }

    fn pending_bytes(&self) -> usize {
        self.rx.len()
    }

    fn subscribe(&self, event: &Arc<Event>) {
        *self.rx.reader.lock() = Some(Arc::clone(event));
    }
}

impl Drop for LoopbackEnd {
    fn drop(&mut self) {
        self.tx.close();
        self.rx.close();
    }
}

/// Deterministic fault plan for a [`faulty_pair`].
#[derive(Debug, Clone, Default)]
pub struct FaultConfig {
    /// Maximum bytes moved per `send`/`recv` call — forces the framer to
    /// cope with short reads and the connection with short writes.
    pub chunk: Option<usize>,
    /// Cut the link (both directions) after this many bytes have been
    /// written across it in total — typically mid-frame.
    pub fail_after_bytes: Option<u64>,
    /// Flip the lowest bit of the byte at this absolute write offset,
    /// simulating corruption the framer must reject.
    pub corrupt_at: Option<u64>,
}

struct FaultState {
    cfg: FaultConfig,
    written: AtomicU64,
    cut: AtomicBool,
    /// Each end's subscriber: a cut is a disconnect for both of them.
    subscribers: [parking_lot::Mutex<Option<Arc<Event>>>; 2],
}

impl FaultState {
    fn sever(&self) {
        self.cut.store(true, Ordering::Release);
        for slot in &self.subscribers {
            let subscriber = slot.lock().clone();
            if let Some(event) = subscriber {
                event.notify();
            }
        }
    }
}

/// Runtime control over a [`faulty_pair`]'s shared fault state.
#[derive(Clone)]
pub struct FaultControl {
    state: Arc<FaultState>,
}

impl FaultControl {
    /// Severs the link now; all subsequent I/O on either end fails
    /// (reads drain already-delivered bytes first).
    pub fn cut(&self) {
        self.state.sever();
    }

    /// Whether the link has been cut (by plan or by [`FaultControl::cut`]).
    pub fn is_cut(&self) -> bool {
        self.state.cut.load(Ordering::Acquire)
    }
}

/// One end of a [`faulty_pair`].
pub struct FaultEnd {
    inner: LoopbackEnd,
    /// Which of the pair's two subscriber slots is this end's.
    side: usize,
    state: Arc<FaultState>,
}

/// A loopback pair with shared, deterministic fault injection.
pub fn faulty_pair(cfg: FaultConfig) -> (FaultEnd, FaultEnd, FaultControl) {
    let (a, b) = loopback();
    let state = Arc::new(FaultState {
        cfg,
        written: AtomicU64::new(0),
        cut: AtomicBool::new(false),
        subscribers: Default::default(),
    });
    (
        FaultEnd {
            inner: a,
            side: 0,
            state: Arc::clone(&state),
        },
        FaultEnd {
            inner: b,
            side: 1,
            state: Arc::clone(&state),
        },
        FaultControl { state },
    )
}

impl Transport for FaultEnd {
    fn send(&self, buf: &[u8]) -> Result<usize> {
        if self.state.cut.load(Ordering::Acquire) {
            return Err(OfError::Disconnected);
        }
        let mut allowed = buf.len();
        if let Some(chunk) = self.state.cfg.chunk {
            allowed = allowed.min(chunk.max(1));
        }
        let already = self.state.written.load(Ordering::Acquire);
        if let Some(cap) = self.state.cfg.fail_after_bytes {
            let remaining = cap.saturating_sub(already);
            if remaining == 0 {
                self.state.sever();
                return Err(OfError::Disconnected);
            }
            allowed = allowed.min(remaining as usize);
        }
        let mut chunk = buf[..allowed].to_vec();
        if let Some(at) = self.state.cfg.corrupt_at {
            if at >= already && at < already + allowed as u64 {
                chunk[(at - already) as usize] ^= 0x01;
            }
        }
        let n = self.inner.send(&chunk)?;
        self.state.written.fetch_add(n as u64, Ordering::AcqRel);
        Ok(n)
    }

    fn recv(&self, buf: &mut [u8]) -> Result<usize> {
        let limit = self
            .state
            .cfg
            .chunk
            .map_or(buf.len(), |c| buf.len().min(c.max(1)));
        match self.inner.recv(&mut buf[..limit]) {
            Ok(0) if self.state.cut.load(Ordering::Acquire) => Err(OfError::Disconnected),
            other => other,
        }
    }

    fn pending_bytes(&self) -> usize {
        self.inner.pending_bytes()
    }

    fn subscribe(&self, event: &Arc<Event>) {
        self.inner.subscribe(event);
        *self.state.subscribers[self.side].lock() = Some(Arc::clone(event));
    }
}

/// Serves a canned byte stream as reads and captures every write —
/// the harness for proving two different controller apps consume a
/// byte-identical switch stream through the same connection API.
pub struct ScriptedTransport {
    script: parking_lot::Mutex<VecDeque<u8>>,
    written: parking_lot::Mutex<Vec<u8>>,
    chunk: Option<usize>,
}

impl ScriptedTransport {
    /// A transport whose reads will yield exactly `script`, then
    /// would-block forever.
    pub fn new(script: Vec<u8>) -> ScriptedTransport {
        ScriptedTransport {
            script: parking_lot::Mutex::new(script.into()),
            written: parking_lot::Mutex::new(Vec::new()),
            chunk: None,
        }
    }

    /// Limits each read to at most `chunk` bytes, exercising reassembly.
    pub fn with_chunk(mut self, chunk: usize) -> ScriptedTransport {
        self.chunk = Some(chunk.max(1));
        self
    }

    /// Everything the connection under test wrote, in order.
    pub fn written(&self) -> Vec<u8> {
        self.written.lock().clone()
    }

    /// Bytes of the script not yet consumed by reads.
    pub fn unread(&self) -> usize {
        self.script.lock().len()
    }
}

impl Transport for ScriptedTransport {
    fn send(&self, buf: &[u8]) -> Result<usize> {
        self.written.lock().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn recv(&self, buf: &mut [u8]) -> Result<usize> {
        let mut script = self.script.lock();
        let limit = self.chunk.map_or(buf.len(), |c| buf.len().min(c));
        let n = limit.min(script.len());
        for slot in buf.iter_mut().take(n) {
            *slot = script.pop_front().expect("length checked");
        }
        Ok(n)
    }

    fn pending_bytes(&self) -> usize {
        self.script.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_moves_bytes_both_ways() {
        let (a, b) = loopback();
        assert_eq!(a.send(b"hello").unwrap(), 5);
        let mut buf = [0u8; 8];
        assert_eq!(b.recv(&mut buf).unwrap(), 5);
        assert_eq!(&buf[..5], b"hello");
        assert_eq!(b.send(b"yo").unwrap(), 2);
        assert_eq!(a.recv(&mut buf).unwrap(), 2);
        assert_eq!(a.recv(&mut buf).unwrap(), 0); // would-block, not error
    }

    #[test]
    fn loopback_drop_disconnects_after_drain() {
        let (a, b) = loopback();
        a.send(b"bye").unwrap();
        drop(a);
        assert!(matches!(b.send(b"x"), Err(OfError::Disconnected)));
        let mut buf = [0u8; 8];
        assert_eq!(b.recv(&mut buf).unwrap(), 3); // delivered bytes drain first
        assert!(matches!(b.recv(&mut buf), Err(OfError::Disconnected)));
    }

    #[test]
    fn faulty_chunking_forces_partial_io() {
        let (a, b, _ctl) = faulty_pair(FaultConfig {
            chunk: Some(3),
            ..FaultConfig::default()
        });
        assert_eq!(a.send(b"0123456789").unwrap(), 3); // short write
        a.send(b"3456789").unwrap();
        let mut buf = [0u8; 16];
        assert_eq!(b.recv(&mut buf).unwrap(), 3); // short read
    }

    #[test]
    fn faulty_cut_mid_stream() {
        let (a, b, ctl) = faulty_pair(FaultConfig {
            fail_after_bytes: Some(4),
            ..FaultConfig::default()
        });
        assert_eq!(a.send(b"0123456789").unwrap(), 4);
        assert!(matches!(a.send(b"456789"), Err(OfError::Disconnected)));
        assert!(ctl.is_cut());
        let mut buf = [0u8; 16];
        assert_eq!(b.recv(&mut buf).unwrap(), 4);
        assert!(matches!(b.recv(&mut buf), Err(OfError::Disconnected)));
    }

    #[test]
    fn faulty_corruption_flips_one_bit() {
        let (a, b, _ctl) = faulty_pair(FaultConfig {
            corrupt_at: Some(2),
            ..FaultConfig::default()
        });
        a.send(&[0x10, 0x11, 0x12, 0x13]).unwrap();
        let mut buf = [0u8; 4];
        assert_eq!(b.recv(&mut buf).unwrap(), 4);
        assert_eq!(buf, [0x10, 0x11, 0x13, 0x13]);
    }

    #[test]
    fn scripted_serves_and_captures() {
        let t = ScriptedTransport::new(vec![1, 2, 3, 4, 5]).with_chunk(2);
        let mut buf = [0u8; 8];
        assert_eq!(t.recv(&mut buf).unwrap(), 2);
        assert_eq!(t.recv(&mut buf).unwrap(), 2);
        assert_eq!(t.recv(&mut buf).unwrap(), 1);
        assert_eq!(t.recv(&mut buf).unwrap(), 0);
        t.send(b"out").unwrap();
        assert_eq!(t.written(), b"out");
    }
}
