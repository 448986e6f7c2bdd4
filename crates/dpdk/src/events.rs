//! Low-rate event export hook.
//!
//! `dpdk-sim` sits below the telemetry crate in the dependency graph, so it
//! cannot bump `telemetry::coverage!` counters directly. Instead it emits
//! named events through a process-wide hook that the telemetry layer
//! installs once at startup (`telemetry::pools::install_event_bridge`).
//! Until a hook is installed, events are dropped — exactly the pre-bridge
//! behaviour, so the dpdk crate stays usable standalone.
//!
//! Only *exceptional* paths emit (allocation failures, foreign frees,
//! descriptors that do not adopt): the hook is never consulted on the
//! per-packet fast path.

use std::sync::OnceLock;

/// Event consumer: `(event_name, count)`.
pub type EventHook = fn(&'static str, u64);

static HOOK: OnceLock<EventHook> = OnceLock::new();

/// Installs the process-wide event hook. First caller wins; later calls
/// are ignored (the telemetry bridge is idempotent by construction).
pub fn set_event_hook(hook: EventHook) {
    let _ = HOOK.set(hook);
}

/// Emits `n` occurrences of `name` to the installed hook, if any.
pub fn emit(name: &'static str, n: u64) {
    if let Some(hook) = HOOK.get() {
        hook(name, n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    static SEEN: AtomicU64 = AtomicU64::new(0);

    fn test_hook(_name: &'static str, n: u64) {
        SEEN.fetch_add(n, Ordering::Relaxed);
    }

    #[test]
    fn emit_reaches_installed_hook() {
        // No other code in this test binary installs a hook, so ours wins.
        set_event_hook(test_hook);
        let before = SEEN.load(Ordering::Relaxed);
        emit("ev", 3);
        assert_eq!(SEEN.load(Ordering::Relaxed), before + 3);
    }
}
