//! virtio-serial control channel model.
//!
//! The compute agent talks to each guest PMD over a virtio-serial device —
//! a reliable, ordered, bidirectional message pipe. We model it as a typed
//! duplex channel with blocking and non-blocking receive, which is all the
//! prototype's control protocol needs.
//!
//! A guest checks its serial on every poll and almost always finds nothing,
//! so each direction carries a pending-message word next to its queue: the
//! sender bumps it after the push, and [`SerialPort::try_recv`] reads 0
//! with one Acquire load and returns without taking the queue's lock.

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Errors surfaced by [`SerialPort`] operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SerialError {
    /// The peer end has been dropped (device unplugged / VM destroyed).
    Disconnected,
    /// No message arrived before the timeout.
    Timeout,
}

impl std::fmt::Display for SerialError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SerialError::Disconnected => write!(f, "serial peer disconnected"),
            SerialError::Timeout => write!(f, "serial receive timed out"),
        }
    }
}

impl std::error::Error for SerialError {}

/// One end of a virtio-serial-like control channel carrying messages of
/// type `T`.
pub struct SerialPort<T> {
    tx: Sender<T>,
    rx: Receiver<T>,
    /// Messages pushed toward the peer and not yet received by it.
    tx_pending: Arc<AtomicUsize>,
    /// Messages pushed toward this end and not yet received.
    rx_pending: Arc<AtomicUsize>,
    name: String,
}

/// Creates a connected pair of serial ports.
pub fn serial_pair<T>(name: impl Into<String>) -> (SerialPort<T>, SerialPort<T>) {
    let name = name.into();
    let (atx, brx) = unbounded();
    let (btx, arx) = unbounded();
    let (to_b, to_a) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
    (
        SerialPort {
            tx: atx,
            rx: arx,
            tx_pending: Arc::clone(&to_b),
            rx_pending: Arc::clone(&to_a),
            name: format!("{name}.host"),
        },
        SerialPort {
            tx: btx,
            rx: brx,
            tx_pending: to_a,
            rx_pending: to_b,
            name: format!("{name}.guest"),
        },
    )
}

impl<T> SerialPort<T> {
    /// Port name (diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Sends a message to the peer.
    pub fn send(&self, msg: T) -> Result<(), SerialError> {
        self.tx.send(msg).map_err(|_| SerialError::Disconnected)?;
        // Release pairs with `try_recv`'s Acquire: a receiver that reads the
        // bump finds the message queued.
        self.tx_pending.fetch_add(1, Ordering::Release);
        Ok(())
    }

    /// Non-blocking receive. With nothing pending it is one load, no lock.
    pub fn try_recv(&self) -> Option<T> {
        if self.rx_pending.load(Ordering::Acquire) == 0 {
            return None;
        }
        self.rx.try_recv().ok().inspect(|_| self.took_one())
    }

    /// Blocking receive with a timeout.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, SerialError> {
        let msg = self.rx.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => SerialError::Timeout,
            RecvTimeoutError::Disconnected => SerialError::Disconnected,
        })?;
        self.took_one();
        Ok(msg)
    }

    /// A message left the queue. A blocking receive can take it before the
    /// sender's bump lands, so the word wraps below 0 for that moment; a
    /// non-zero word only ever costs one empty locked check.
    fn took_one(&self) {
        self.rx_pending.fetch_sub(1, Ordering::Relaxed);
    }

    /// Messages waiting to be received.
    pub fn pending(&self) -> usize {
        self.rx.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplex_messaging() {
        let (host, guest) = serial_pair::<u32>("vm1");
        host.send(1).unwrap();
        guest.send(2).unwrap();
        assert_eq!(guest.try_recv(), Some(1));
        assert_eq!(host.try_recv(), Some(2));
        assert_eq!(host.try_recv(), None);
    }

    #[test]
    fn timeout_and_disconnect() {
        let (host, guest) = serial_pair::<u8>("vm2");
        assert_eq!(
            host.recv_timeout(Duration::from_millis(5)).unwrap_err(),
            SerialError::Timeout
        );
        drop(guest);
        assert_eq!(host.send(1).unwrap_err(), SerialError::Disconnected);
        assert_eq!(
            host.recv_timeout(Duration::from_millis(5)).unwrap_err(),
            SerialError::Disconnected
        );
    }

    #[test]
    fn ordering_is_preserved() {
        let (host, guest) = serial_pair::<u32>("vm3");
        for i in 0..100 {
            host.send(i).unwrap();
        }
        assert_eq!(guest.pending(), 100);
        for i in 0..100 {
            assert_eq!(guest.try_recv(), Some(i));
        }
    }
}
