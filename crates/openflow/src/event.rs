//! The control channel's one readiness primitive.
//!
//! An [`Event`] is an eventcount: a waiter *registers* ([`Event::prepare`]),
//! re-checks whatever condition it is waiting for, and only then parks
//! ([`Waiter::park_until`]); a notifier makes the condition true and calls
//! [`Event::notify`]. A notification that lands anywhere between the
//! registration and the park makes the park return at once, so the
//! check-then-sleep race that loses wake-ups cannot happen — by
//! construction, not by timing. When nobody is registered `notify` costs a
//! fence and one atomic load, which is what lets every pipe write and every
//! punted packet call it unconditionally.
//!
//! Who notifies whom is documented in `docs/control-channel.md` ("Waiting").

use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// An eventcount shared between the threads that wait for control-channel
/// activity and the transports (and other sources) that produce it.
#[derive(Default)]
pub struct Event {
    /// Bumped — under `lock` — by every notification that found a waiter.
    epoch: AtomicU64,
    /// Threads between [`Event::prepare`] and the end of their wait.
    waiters: AtomicUsize,
    lock: Mutex<()>,
    cond: Condvar,
}

impl Event {
    pub fn new() -> Event {
        Event::default()
    }

    /// Registers the caller as a waiter. Everything the caller checks
    /// *after* this call is covered: a [`Event::notify`] that follows the
    /// change it checks for cannot be missed by [`Waiter::park_until`].
    pub fn prepare(&self) -> Waiter<'_> {
        self.waiters.fetch_add(1, Ordering::SeqCst);
        // Pairs with the fence in `notify`: either the notifier's load sees
        // this registration, or the caller's re-check sees the notifier's
        // change (store → fence → load on both sides).
        fence(Ordering::SeqCst);
        Waiter {
            event: self,
            epoch: self.epoch.load(Ordering::SeqCst),
        }
    }

    /// Wakes every registered waiter. Call *after* making the awaited
    /// condition true.
    pub fn notify(&self) {
        fence(Ordering::SeqCst);
        if self.waiters.load(Ordering::SeqCst) == 0 {
            return;
        }
        // The bump happens under the lock a parking waiter holds while it
        // compares epochs, so it cannot fall between compare and sleep.
        let _guard = self.lock.lock().unwrap_or_else(|e| e.into_inner());
        self.epoch.fetch_add(1, Ordering::SeqCst);
        self.cond.notify_all();
    }
}

impl std::fmt::Debug for Event {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Event")
            .field("epoch", &self.epoch.load(Ordering::Relaxed))
            .field("waiters", &self.waiters.load(Ordering::Relaxed))
            .finish()
    }
}

/// A registration with an [`Event`]; dropping it without parking cancels.
#[must_use = "a waiter that is neither parked nor dropped keeps notify() on its slow path"]
pub struct Waiter<'a> {
    event: &'a Event,
    epoch: u64,
}

impl Waiter<'_> {
    /// Parks until the event is notified (any time since
    /// [`Event::prepare`]) or `deadline` passes. True when notified.
    pub fn park_until(self, deadline: Instant) -> bool {
        self.park_for(Some(deadline))
    }

    /// Parks until the event is notified, however long that takes.
    pub fn park(self) {
        self.park_for(None);
    }

    fn park_for(self, deadline: Option<Instant>) -> bool {
        let event = self.event;
        let mut guard = event.lock.lock().unwrap_or_else(|e| e.into_inner());
        while event.epoch.load(Ordering::SeqCst) == self.epoch {
            guard = match deadline {
                None => event.cond.wait(guard).unwrap_or_else(|e| e.into_inner()),
                Some(deadline) => {
                    let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                        return false;
                    };
                    event
                        .cond
                        .wait_timeout(guard, left)
                        .unwrap_or_else(|e| e.into_inner())
                        .0
                }
            };
        }
        true
    }
}

impl Drop for Waiter<'_> {
    fn drop(&mut self) {
        self.event.waiters.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::RecvTimeoutError;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn notify_between_prepare_and_park_is_not_lost() {
        let ev = Event::new();
        let w = ev.prepare();
        ev.notify();
        assert!(w.park_until(Instant::now() + Duration::from_secs(5)));
    }

    #[test]
    fn park_times_out_without_a_notify() {
        let ev = Event::new();
        ev.notify(); // before prepare: not this waiter's business
        let w = ev.prepare();
        let t = Instant::now();
        assert!(!w.park_until(t + Duration::from_millis(20)));
        assert!(t.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn dropped_waiter_deregisters() {
        let ev = Event::new();
        drop(ev.prepare());
        assert_eq!(ev.waiters.load(Ordering::SeqCst), 0);
        let w = ev.prepare();
        assert!(!w.park_until(Instant::now()));
        assert_eq!(ev.waiters.load(Ordering::SeqCst), 0);
    }

    /// Two threads hand a token back and forth, each parking until the
    /// other flips it. One lost wake-up anywhere in 200 000 rounds leaves
    /// both parked forever; the watchdog turns that hang into a failure.
    /// It watches progress, not total time: the game may be slow on a
    /// loaded host, but a lost wake-up freezes `turn` for good.
    #[test]
    fn ping_pong_never_loses_a_wakeup() {
        const ROUNDS: u64 = 200_000;
        struct Court {
            turn: AtomicU64,
            ping: Event,
            pong: Event,
        }
        let court = Arc::new(Court {
            turn: AtomicU64::new(0),
            ping: Event::new(),
            pong: Event::new(),
        });
        let player = |court: Arc<Court>, parity: u64| {
            move || {
                let (mine, theirs) = if parity == 0 {
                    (&court.ping, &court.pong)
                } else {
                    (&court.pong, &court.ping)
                };
                loop {
                    let w = mine.prepare();
                    let turn = court.turn.load(Ordering::SeqCst);
                    if turn >= ROUNDS {
                        return;
                    }
                    if turn % 2 == parity {
                        drop(w);
                        court.turn.store(turn + 1, Ordering::SeqCst);
                        theirs.notify();
                    } else {
                        w.park();
                    }
                }
            }
        };
        let a = std::thread::spawn(player(Arc::clone(&court), 0));
        let b = std::thread::spawn(player(Arc::clone(&court), 1));
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let joiner = std::thread::spawn(move || {
            a.join().unwrap();
            b.join().unwrap();
            let _ = done_tx.send(());
        });
        let mut last = court.turn.load(Ordering::SeqCst);
        // A player's panic disconnects the channel; the join reports it.
        while let Err(RecvTimeoutError::Timeout) = done_rx.recv_timeout(Duration::from_secs(5)) {
            let turn = court.turn.load(Ordering::SeqCst);
            assert_ne!(
                turn, last,
                "ping-pong stuck at round {turn}: a wake-up was lost"
            );
            last = turn;
        }
        joiner.join().unwrap();
        assert_eq!(court.turn.load(Ordering::SeqCst), ROUNDS);
    }
}
