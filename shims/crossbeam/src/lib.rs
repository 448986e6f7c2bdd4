//! Minimal `crossbeam` API shim backed by `std::sync`.
//!
//! The build image has no access to a cargo registry, so the workspace
//! vendors the external APIs it uses as tiny shims. This one covers the
//! subset of `crossbeam` the codebase touches:
//!
//! * [`channel`] — MPMC channels with cloneable receivers (`bounded`,
//!   `unbounded`, `try_send`/`try_recv`/`recv_timeout` and their error
//!   types), implemented on a `Mutex<VecDeque>` + two condvars;
//! * [`utils::CachePadded`] — a 64-byte aligned wrapper.
//!
//! Swap `shims/crossbeam` for the real crates.io `crossbeam` in
//! `[workspace.dependencies]` once the registry is reachable.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    struct Shared<T> {
        inner: Mutex<Inner<T>>,
        /// Signalled when a message is enqueued or all senders drop.
        not_empty: Condvar,
        /// Signalled when a message is dequeued or all receivers drop.
        not_full: Condvar,
    }

    struct Inner<T> {
        queue: VecDeque<T>,
        cap: Option<usize>,
        senders: usize,
        receivers: usize,
    }

    /// The sending half of a channel. Cloneable (MPMC).
    pub struct Sender<T>(Arc<Shared<T>>);

    /// The receiving half of a channel. Cloneable (MPMC).
    pub struct Receiver<T>(Arc<Shared<T>>);

    /// Error returned by [`Sender::send`] when all receivers are gone.
    #[derive(PartialEq, Eq, Clone, Copy)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Sender::try_send`].
    #[derive(PartialEq, Eq, Clone, Copy)]
    pub enum TrySendError<T> {
        Full(T),
        Disconnected(T),
    }

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// all senders are gone.
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub struct RecvError;

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum RecvTimeoutError {
        Timeout,
        Disconnected,
    }

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> fmt::Debug for TrySendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TrySendError::Full(_) => f.write_str("Full(..)"),
                TrySendError::Disconnected(_) => f.write_str("Disconnected(..)"),
            }
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    impl<T> fmt::Display for TrySendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TrySendError::Full(_) => f.write_str("sending on a full channel"),
                TrySendError::Disconnected(_) => f.write_str("sending on a disconnected channel"),
            }
        }
    }

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty and disconnected channel")
        }
    }

    impl fmt::Display for TryRecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TryRecvError::Empty => f.write_str("receiving on an empty channel"),
                TryRecvError::Disconnected => {
                    f.write_str("receiving on an empty and disconnected channel")
                }
            }
        }
    }

    impl fmt::Display for RecvTimeoutError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                RecvTimeoutError::Timeout => f.write_str("timed out waiting on receive"),
                RecvTimeoutError::Disconnected => {
                    f.write_str("receiving on an empty and disconnected channel")
                }
            }
        }
    }

    impl<T> std::error::Error for SendError<T> {}
    impl<T> std::error::Error for TrySendError<T> {}
    impl std::error::Error for RecvError {}
    impl std::error::Error for TryRecvError {}
    impl std::error::Error for RecvTimeoutError {}

    fn new_channel<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                cap,
                senders: 1,
                receivers: 1,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (Sender(shared.clone()), Receiver(shared))
    }

    /// Create an unbounded MPMC channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        new_channel(None)
    }

    /// Create a bounded MPMC channel holding at most `cap` messages.
    ///
    /// Unlike real crossbeam, `cap == 0` is treated as capacity 1 rather
    /// than a rendezvous channel (the codebase never creates one).
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        new_channel(Some(cap.max(1)))
    }

    impl<T> Sender<T> {
        /// Block until the message is enqueued or all receivers are gone.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            let mut inner = self.0.inner.lock().unwrap();
            loop {
                if inner.receivers == 0 {
                    return Err(SendError(msg));
                }
                match inner.cap {
                    Some(cap) if inner.queue.len() >= cap => {
                        inner = self.0.not_full.wait(inner).unwrap();
                    }
                    _ => break,
                }
            }
            inner.queue.push_back(msg);
            drop(inner);
            self.0.not_empty.notify_one();
            Ok(())
        }

        /// Enqueue without blocking.
        pub fn try_send(&self, msg: T) -> Result<(), TrySendError<T>> {
            let mut inner = self.0.inner.lock().unwrap();
            if inner.receivers == 0 {
                return Err(TrySendError::Disconnected(msg));
            }
            if let Some(cap) = inner.cap {
                if inner.queue.len() >= cap {
                    return Err(TrySendError::Full(msg));
                }
            }
            inner.queue.push_back(msg);
            drop(inner);
            self.0.not_empty.notify_one();
            Ok(())
        }

        pub fn len(&self) -> usize {
            self.0.inner.lock().unwrap().queue.len()
        }

        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Receiver<T> {
        /// Block until a message arrives or all senders are gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut inner = self.0.inner.lock().unwrap();
            loop {
                if let Some(msg) = inner.queue.pop_front() {
                    drop(inner);
                    self.0.not_full.notify_one();
                    return Ok(msg);
                }
                if inner.senders == 0 {
                    return Err(RecvError);
                }
                inner = self.0.not_empty.wait(inner).unwrap();
            }
        }

        /// Dequeue without blocking.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut inner = self.0.inner.lock().unwrap();
            if let Some(msg) = inner.queue.pop_front() {
                drop(inner);
                self.0.not_full.notify_one();
                return Ok(msg);
            }
            if inner.senders == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        /// Block until a message arrives, all senders are gone, or the
        /// timeout elapses.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut inner = self.0.inner.lock().unwrap();
            loop {
                if let Some(msg) = inner.queue.pop_front() {
                    drop(inner);
                    self.0.not_full.notify_one();
                    return Ok(msg);
                }
                if inner.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (guard, _) = self
                    .0
                    .not_empty
                    .wait_timeout(inner, deadline - now)
                    .unwrap();
                inner = guard;
            }
        }

        /// Non-blocking iterator over currently queued messages.
        pub fn try_iter(&self) -> TryIter<'_, T> {
            TryIter(self)
        }

        /// Blocking iterator; ends when all senders are gone.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter(self)
        }

        pub fn len(&self) -> usize {
            self.0.inner.lock().unwrap().queue.len()
        }

        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    /// Iterator returned by [`Receiver::try_iter`].
    pub struct TryIter<'a, T>(&'a Receiver<T>);

    impl<T> Iterator for TryIter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.0.try_recv().ok()
        }
    }

    /// Iterator returned by [`Receiver::iter`].
    pub struct Iter<'a, T>(&'a Receiver<T>);

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.0.recv().ok()
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0.inner.lock().unwrap().senders += 1;
            Sender(self.0.clone())
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.0.inner.lock().unwrap().receivers += 1;
            Receiver(self.0.clone())
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut inner = self.0.inner.lock().unwrap();
            inner.senders -= 1;
            if inner.senders == 0 {
                drop(inner);
                self.0.not_empty.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut inner = self.0.inner.lock().unwrap();
            inner.receivers -= 1;
            if inner.receivers == 0 {
                drop(inner);
                self.0.not_full.notify_all();
            }
        }
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }
}

pub mod utils {
    use std::ops::{Deref, DerefMut};

    /// Pads and aligns a value to (at least) a cache-line boundary so two
    /// `CachePadded` neighbours never share a line (no false sharing).
    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
    #[repr(align(64))]
    pub struct CachePadded<T> {
        value: T,
    }

    impl<T> CachePadded<T> {
        pub const fn new(value: T) -> Self {
            Self { value }
        }

        pub fn into_inner(self) -> T {
            self.value
        }
    }

    impl<T> Deref for CachePadded<T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.value
        }
    }

    impl<T> DerefMut for CachePadded<T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.value
        }
    }

    impl<T> From<T> for CachePadded<T> {
        fn from(value: T) -> Self {
            Self::new(value)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{bounded, unbounded, TryRecvError, TrySendError};
    use super::utils::CachePadded;

    #[test]
    fn unbounded_fifo_and_disconnect() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.try_recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        drop(tx);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn bounded_try_send_full() {
        let (tx, rx) = bounded(2);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        assert!(matches!(tx.try_send(3), Err(TrySendError::Full(3))));
        assert_eq!(rx.len(), 2);
    }

    #[test]
    fn channel_across_threads() {
        let (tx, rx) = bounded(8);
        let h = std::thread::spawn(move || (0..100).all(|i| tx.send(i).is_ok()));
        let got: Vec<i32> = rx.iter().collect();
        assert!(h.join().unwrap());
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cache_padded_alignment() {
        assert_eq!(std::mem::align_of::<CachePadded<u8>>(), 64);
        let p = CachePadded::new(7u32);
        assert_eq!(*p, 7);
        assert_eq!(p.into_inner(), 7);
    }
}
