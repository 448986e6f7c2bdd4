//! The bypass lifecycle journal.
//!
//! Every step of a bypass channel's life — detection, setup, activation,
//! teardown, failure — is recorded here with a timestamp. The journal
//! gives three things the prototype's authors needed during their
//! evaluation and any operator would need in production:
//!
//! 1. **observability** — `ovs-appctl`-style introspection of what the
//!    highway did and when (see `tests/failure_injection.rs`);
//! 2. **experiment probes** — the setup-time experiment (§3's ~100 ms
//!    claim) measures `Detected → Active` gaps straight from the journal;
//! 3. **test oracles** — integration tests assert on exact event sequences
//!    rather than sleeping and polling switch state.
//!
//! The journal owns its manager's one [`Event`]: every `record` notifies
//! it, and so does every change to the manager's desired link set. The
//! manager's worker, its `wait_converged` and `wait_for` park on it.

use openflow::Event;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

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

/// A journal of the most recent [`JOURNAL_CAPACITY`] events. `snapshot`,
/// `of_kind` and `wait_for` see the retained window.
#[derive(Default)]
pub struct EventJournal {
    log: Mutex<VecDeque<BypassEvent>>,
    event: Event,
}

impl EventJournal {
    /// Creates an empty journal.
    pub fn new() -> EventJournal {
        EventJournal::default()
    }

    /// Appends an event and notifies the journal's [`Event`].
    pub fn record(&self, kind: BypassEventKind, src: u32, dst: u32, detail: impl Into<String>) {
        self.append(kind, src, dst, detail);
        self.event.notify();
    }

    /// [`EventJournal::record`] without the notify, for a caller that
    /// holds a lock a woken waiter would block on; it notifies after
    /// releasing that lock.
    pub(crate) fn append(
        &self,
        kind: BypassEventKind,
        src: u32,
        dst: u32,
        detail: impl Into<String>,
    ) {
        let ev = BypassEvent {
            at: Instant::now(),
            kind,
            src,
            dst,
            detail: detail.into(),
        };
        let mut log = self.log.lock();
        if log.len() == JOURNAL_CAPACITY {
            log.pop_front();
        }
        log.push_back(ev);
    }

    /// The eventcount `record` notifies; the manager notifies it too.
    pub(crate) fn event(&self) -> &Event {
        &self.event
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
    /// is in the retained window. Returns false on timeout.
    pub fn wait_for(&self, kind: BypassEventKind, src: u32, dst: u32, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            // Registered before the scan, so a `record` after it wakes us.
            let waiter = self.event.prepare();
            if self
                .log
                .lock()
                .iter()
                .rev()
                .any(|e| e.kind == kind && e.src == src && e.dst == dst)
            {
                return true;
            }
            if !waiter.park_until(deadline) {
                return false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        for i in 0..10_000u32 {
            j.record(BypassEventKind::Detected, i, i + 1, "");
        }
        assert_eq!(j.len(), JOURNAL_CAPACITY);
        let window = j.snapshot();
        assert_eq!(window.len(), JOURNAL_CAPACITY);
        assert_eq!(window.last().unwrap().src, 9_999, "newest event last");
        assert_eq!(window[0].src, 10_000 - JOURNAL_CAPACITY as u32);
        assert_eq!(j.of_kind(BypassEventKind::Detected).len(), JOURNAL_CAPACITY);
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
