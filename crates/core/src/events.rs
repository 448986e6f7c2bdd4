//! The bypass lifecycle journal.
//!
//! Every step of a bypass channel's life — detection, setup, activation,
//! teardown, failure — is recorded here with a timestamp, and optionally
//! streamed to subscribers. The journal gives three things the prototype's
//! authors needed during their evaluation and any operator would need in
//! production:
//!
//! 1. **observability** — `ovs-appctl`-style introspection of what the
//!    highway did and when (see `tests/failure_injection.rs`);
//! 2. **experiment probes** — the setup-time experiment (§3's ~100 ms
//!    claim) measures `Detected → Active` gaps straight from the journal;
//! 3. **test oracles** — integration tests assert on exact event sequences
//!    rather than sleeping and polling switch state.

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::time::Instant;

/// Events the journal retains. A node that sets bypasses up and tears them
/// down for days must not grow by a kilobyte per cycle; 4096 events is a
/// few hundred complete link lifecycles of history.
pub const JOURNAL_CAPACITY: usize = 4096;

/// What happened to a (directed) link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BypassEventKind {
    /// The detector recognised the link in the flow table.
    Detected,
    /// The link disappeared from the flow table (or was vetoed) before or
    /// after activation.
    Vanished,
    /// The manager asked the compute agent to set the bypass up.
    SetupStarted,
    /// The PMDs now exchange packets over the bypass channel.
    Active,
    /// Setup failed (agent error); the link will not be retried until the
    /// table changes again.
    SetupFailed,
    /// The manager asked the compute agent to tear the bypass down.
    TeardownStarted,
    /// The bypass is gone; traffic flows through the switch again.
    Removed,
    /// Teardown failed (agent error); state was dropped anyway.
    TeardownFailed,
}

/// One journal entry.
#[derive(Debug, Clone)]
pub struct BypassEvent {
    pub at: Instant,
    pub kind: BypassEventKind,
    /// Source port of the directed link.
    pub src: u32,
    /// Destination port of the directed link.
    pub dst: u32,
    /// Free-form context (error text, segment name).
    pub detail: String,
}

/// A journal of the most recent [`JOURNAL_CAPACITY`] events with fan-out
/// to live subscribers. Subscribers see every event; `snapshot`,
/// `of_kind` and `wait_for`'s look at history see the retained window.
#[derive(Default)]
pub struct EventJournal {
    log: Mutex<VecDeque<BypassEvent>>,
    subscribers: Mutex<Vec<Sender<BypassEvent>>>,
}

impl EventJournal {
    /// Creates an empty journal.
    pub fn new() -> EventJournal {
        EventJournal::default()
    }

    /// Appends an event and fans it out to live subscribers.
    pub fn record(&self, kind: BypassEventKind, src: u32, dst: u32, detail: impl Into<String>) {
        let ev = BypassEvent {
            at: Instant::now(),
            kind,
            src,
            dst,
            detail: detail.into(),
        };
        self.subscribers
            .lock()
            .retain(|tx| tx.send(ev.clone()).is_ok());
        let mut log = self.log.lock();
        if log.len() == JOURNAL_CAPACITY {
            log.pop_front();
        }
        log.push_back(ev);
    }

    /// A snapshot of the retained events, oldest first.
    pub fn snapshot(&self) -> Vec<BypassEvent> {
        self.log.lock().iter().cloned().collect()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.log.lock().len()
    }

    /// True when nothing was recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Subscribes to future events. Dropped receivers are pruned lazily on
    /// the next `record`.
    pub fn subscribe(&self) -> Receiver<BypassEvent> {
        let (tx, rx) = unbounded();
        self.subscribers.lock().push(tx);
        rx
    }

    /// Retained events of one kind, in order.
    pub fn of_kind(&self, kind: BypassEventKind) -> Vec<BypassEvent> {
        self.log
            .lock()
            .iter()
            .filter(|e| e.kind == kind)
            .cloned()
            .collect()
    }

    /// Blocks until an event of `kind` for the directed link `(src, dst)`
    /// exists in the journal (checks history first, then waits on a live
    /// subscription). Returns false on timeout.
    pub fn wait_for(
        &self,
        kind: BypassEventKind,
        src: u32,
        dst: u32,
        timeout: std::time::Duration,
    ) -> bool {
        // Subscribe *before* scanning history so no event can be missed.
        let rx = self.subscribe();
        if self
            .log
            .lock()
            .iter()
            .any(|e| e.kind == kind && e.src == src && e.dst == dst)
        {
            return true;
        }
        let deadline = Instant::now() + timeout;
        loop {
            let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                return false;
            };
            match rx.recv_timeout(remaining) {
                Ok(ev) if ev.kind == kind && ev.src == src && ev.dst == dst => return true,
                Ok(_) => continue,
                Err(_) => return false,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn records_and_snapshots_in_order() {
        let j = EventJournal::new();
        j.record(BypassEventKind::Detected, 1, 2, "");
        j.record(BypassEventKind::SetupStarted, 1, 2, "");
        j.record(BypassEventKind::Active, 1, 2, "bypass-1-2");
        let all = j.snapshot();
        assert_eq!(all.len(), 3);
        assert_eq!(all[0].kind, BypassEventKind::Detected);
        assert_eq!(all[2].kind, BypassEventKind::Active);
        assert_eq!(all[2].detail, "bypass-1-2");
        assert!(all[0].at <= all[2].at);
    }

    #[test]
    fn retains_only_the_most_recent_events() {
        let j = EventJournal::new();
        let rx = j.subscribe();
        for i in 0..10_000u32 {
            j.record(BypassEventKind::Detected, i, i + 1, "");
        }
        assert_eq!(j.len(), JOURNAL_CAPACITY);
        let window = j.snapshot();
        assert_eq!(window.len(), JOURNAL_CAPACITY);
        assert_eq!(window.last().unwrap().src, 9_999, "newest event last");
        assert_eq!(window[0].src, 10_000 - JOURNAL_CAPACITY as u32);
        assert_eq!(j.of_kind(BypassEventKind::Detected).len(), JOURNAL_CAPACITY);
        // History is a window; the live feed is not.
        assert_eq!(rx.try_iter().count(), 10_000);
    }

    #[test]
    fn subscription_receives_future_events() {
        let j = EventJournal::new();
        j.record(BypassEventKind::Detected, 1, 2, "before subscribe");
        let rx = j.subscribe();
        j.record(BypassEventKind::Active, 1, 2, "after subscribe");
        let got = rx.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(got.kind, BypassEventKind::Active);
        assert!(rx.try_recv().is_err(), "history is not replayed");
    }

    #[test]
    fn dropped_subscribers_are_pruned() {
        let j = EventJournal::new();
        drop(j.subscribe());
        drop(j.subscribe());
        j.record(BypassEventKind::Detected, 1, 2, "");
        assert_eq!(j.subscribers.lock().len(), 0);
    }

    #[test]
    fn of_kind_filters() {
        let j = EventJournal::new();
        j.record(BypassEventKind::Detected, 1, 2, "");
        j.record(BypassEventKind::Detected, 3, 4, "");
        j.record(BypassEventKind::Active, 1, 2, "");
        assert_eq!(j.of_kind(BypassEventKind::Detected).len(), 2);
        assert_eq!(j.of_kind(BypassEventKind::Active).len(), 1);
        assert_eq!(j.of_kind(BypassEventKind::Removed).len(), 0);
    }

    #[test]
    fn wait_for_sees_history_and_future() {
        let j = std::sync::Arc::new(EventJournal::new());
        j.record(BypassEventKind::Active, 1, 2, "");
        assert!(j.wait_for(BypassEventKind::Active, 1, 2, Duration::from_millis(10)));
        assert!(!j.wait_for(BypassEventKind::Active, 9, 9, Duration::from_millis(10)));

        let j2 = std::sync::Arc::clone(&j);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            j2.record(BypassEventKind::Removed, 1, 2, "");
        });
        assert!(j.wait_for(BypassEventKind::Removed, 1, 2, Duration::from_secs(2)));
        t.join().unwrap();
    }
}
