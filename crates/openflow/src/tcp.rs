//! A real TCP [`Transport`] over std networking.
//!
//! [`TcpTransport`] wraps a non-blocking [`std::net::TcpStream`] in the
//! byte-stream contract the rest of the control channel already speaks:
//! `WouldBlock` becomes the would-block `Ok(0)`, a zero-length read (the
//! peer closed its end) becomes [`OfError::Disconnected`], and partial
//! writes surface exactly as they do on a saturated socket. Everything
//! above — [`crate::framer::Framer`], [`crate::connection::Connection`],
//! [`crate::controller::SwitchLink`] — runs unchanged, which is the point:
//! the in-memory transports and the socket differ only in who moves the
//! bytes.
//!
//! Readiness is the one thing a socket cannot do by itself: nothing in the
//! kernel calls [`Event::notify`]. A subscribed transport therefore runs a
//! small watcher thread that blocks in `poll(2)` on the fd and notifies
//! the subscriber when the socket turns readable or hangs up, then stays
//! off the (level-triggered) fd until `recv` reports it drained.
//!
//! Tests bind to `127.0.0.1:0` (an ephemeral loopback port) so nothing
//! ever listens on an outside interface.

use crate::event::Event;
use crate::transport::Transport;
use crate::{OfError, Result};
use parking_lot::Mutex;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// `struct pollfd` of poll(2).
#[repr(C)]
struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: std::os::raw::c_ulong, timeout_ms: i32) -> i32;
}

/// Blocks until `fd` is readable, at end-of-file or in error. False when
/// poll(2) itself failed (the fd is gone): there is nothing left to watch.
fn wait_readable(fd: RawFd) -> bool {
    let mut pfd = PollFd {
        fd,
        events: POLLIN,
        revents: 0,
    };
    loop {
        // SAFETY: `pfd` is one live, writable pollfd and nfds says so; a
        // negative timeout blocks. poll only writes `revents`.
        let rc = unsafe { poll(&mut pfd, 1, -1) };
        if rc >= 0 {
            return true;
        }
        if std::io::Error::last_os_error().kind() != std::io::ErrorKind::Interrupted {
            return false;
        }
    }
}

/// What a [`TcpTransport`] shares with its watcher thread.
struct Watch {
    subscriber: Mutex<Option<Arc<Event>>>,
    /// Notified by `recv` when the socket is drained (would-block): the
    /// watcher may look at the fd again.
    drained: Event,
    closing: AtomicBool,
}

impl Watch {
    fn run(&self, fd: RawFd) {
        loop {
            let rearm = self.drained.prepare();
            // A transport being dropped shuts the socket down first, so
            // the poll of a closing watcher returns at once.
            if !wait_readable(fd) || self.closing.load(Ordering::Acquire) {
                return;
            }
            let subscriber = self.subscriber.lock().clone();
            if let Some(event) = subscriber {
                event.notify();
            }
            rearm.park();
        }
    }
}

/// A [`Transport`] over a connected TCP stream.
///
/// The stream is switched to non-blocking mode and `TCP_NODELAY` is set
/// (control messages are latency-sensitive and tiny; Nagle would batch
/// a flow-mod against its own barrier).
pub struct TcpTransport {
    stream: TcpStream,
    watch: Arc<Watch>,
    /// Started by the first [`Transport::subscribe`].
    watcher: Mutex<Option<JoinHandle<()>>>,
}

impl TcpTransport {
    /// Connects to `addr` and prepares the stream for non-blocking use.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<TcpTransport> {
        TcpTransport::from_stream(TcpStream::connect(addr)?)
    }

    /// Adopts an already-connected stream (e.g. from an acceptor).
    pub fn from_stream(stream: TcpStream) -> std::io::Result<TcpTransport> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(TcpTransport {
            stream,
            watch: Arc::new(Watch {
                subscriber: Mutex::new(None),
                drained: Event::new(),
                closing: AtomicBool::new(false),
            }),
            watcher: Mutex::new(None),
        })
    }

    /// The local socket address.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.stream.local_addr()
    }

    /// The peer's socket address.
    pub fn peer_addr(&self) -> std::io::Result<SocketAddr> {
        self.stream.peer_addr()
    }
}

impl Transport for TcpTransport {
    fn send(&self, buf: &[u8]) -> Result<usize> {
        match (&self.stream).write(buf) {
            Ok(n) => Ok(n),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(0),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => Ok(0),
            Err(_) => Err(OfError::Disconnected),
        }
    }

    fn recv(&self, buf: &mut [u8]) -> Result<usize> {
        loop {
            return match (&self.stream).read(buf) {
                // An orderly zero-length read is EOF: the peer closed.
                Ok(0) => Err(OfError::Disconnected),
                Ok(n) => Ok(n),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    self.watch.drained.notify();
                    Ok(0)
                }
                // Not "dry": an `Ok(0)` here would park the caller with the
                // watcher still off the fd and bytes still in the socket.
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => Err(OfError::Disconnected),
            };
        }
    }

    fn subscribe(&self, event: &Arc<Event>) {
        *self.watch.subscriber.lock() = Some(Arc::clone(event));
        let mut watcher = self.watcher.lock();
        if watcher.is_none() {
            let watch = Arc::clone(&self.watch);
            let fd = self.stream.as_raw_fd();
            // The fd stays open for as long as the thread runs: `drop`
            // joins it before `stream` is closed.
            *watcher = std::thread::Builder::new()
                .name("of-tcp-watch".into())
                .spawn(move || watch.run(fd))
                .map(Some)
                .expect("spawn tcp watcher");
        }
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        if let Some(watcher) = self.watcher.get_mut().take() {
            self.watch.closing.store(true, Ordering::Release);
            // A shut-down socket reads as hung up, which ends poll(2);
            // the notify ends a park.
            let _ = self.stream.shutdown(Shutdown::Both);
            self.watch.drained.notify();
            let _ = watcher.join();
        }
    }
}

/// Binds an ephemeral loopback listener and returns it with its address —
/// the standard opening move of every TCP test and of a switch exposing a
/// control port.
pub fn loopback_listener() -> std::io::Result<(TcpListener, SocketAddr)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    Ok((listener, addr))
}

/// A connected loopback transport pair `(client, server)` — the TCP
/// equivalent of [`crate::transport::loopback`], for tests that want real
/// socket semantics (kernel buffering, partial writes at real
/// boundaries).
pub fn tcp_pair() -> std::io::Result<(TcpTransport, TcpTransport)> {
    let (listener, addr) = loopback_listener()?;
    let client = TcpStream::connect(addr)?;
    let (server, _) = listener.accept()?;
    Ok((
        TcpTransport::from_stream(client)?,
        TcpTransport::from_stream(server)?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tcp_pair_moves_bytes_both_ways() {
        let (a, b) = tcp_pair().unwrap();
        assert_eq!(a.send(b"hello").unwrap(), 5);
        let mut buf = [0u8; 16];
        let mut got = 0;
        while got < 5 {
            got += b.recv(&mut buf[got..]).unwrap();
        }
        assert_eq!(&buf[..5], b"hello");
        assert_eq!(b.send(b"yo").unwrap(), 2);
        got = 0;
        while got < 2 {
            got += a.recv(&mut buf[got..]).unwrap();
        }
        assert_eq!(&buf[..2], b"yo");
        // Nothing more in flight: would-block, not error.
        assert_eq!(a.recv(&mut buf).unwrap(), 0);
    }

    #[test]
    fn tcp_peer_close_surfaces_as_disconnected() {
        let (a, b) = tcp_pair().unwrap();
        a.send(b"bye").unwrap();
        drop(a);
        let mut buf = [0u8; 16];
        // Delivered bytes drain first, then EOF.
        let mut got = 0;
        loop {
            match b.recv(&mut buf[got..]) {
                Ok(0) => std::thread::yield_now(),
                Ok(n) => {
                    got += n;
                    if got >= 3 {
                        break;
                    }
                }
                Err(e) => panic!("lost delivered bytes: {e}"),
            }
        }
        assert_eq!(&buf[..3], b"bye");
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            match b.recv(&mut buf) {
                Err(OfError::Disconnected) => break,
                Ok(0) if std::time::Instant::now() < deadline => std::thread::yield_now(),
                other => panic!("expected Disconnected, got {other:?}"),
            }
        }
    }
}
