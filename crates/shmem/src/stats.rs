//! Shared statistics region.
//!
//! The vSwitch never sees packets that take a bypass channel, so it cannot
//! count them. The paper's fix: the guest PMD increments per-rule and
//! per-port counters in a shared-memory region; when OVS must answer an
//! OpenFlow statistics request it adds these to its own counts.
//!
//! The hot path must be lock-free: the PMD resolves an [`Arc<CounterCell>`]
//! once, when the bypass is attached, then only touches atomics per packet.

use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A pair of packet/byte counters updated from the guest fast path.
#[derive(Debug, Default)]
pub struct CounterCell {
    packets: AtomicU64,
    bytes: AtomicU64,
}

impl CounterCell {
    /// Adds `packets` / `bytes` (called per TX burst on the bypass path).
    pub fn add(&self, packets: u64, bytes: u64) {
        self.packets.fetch_add(packets, Ordering::Relaxed);
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Current totals `(packets, bytes)`.
    pub fn totals(&self) -> (u64, u64) {
        (
            self.packets.load(Ordering::Relaxed),
            self.bytes.load(Ordering::Relaxed),
        )
    }
}

/// Direction of a port counter, from the switch's point of view:
/// `Rx` = packets the switch would have received from the port,
/// `Tx` = packets the switch would have delivered to the port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortDir {
    Rx,
    Tx,
}

#[derive(Default)]
struct Tables {
    /// Keyed by OpenFlow rule cookie.
    rules: HashMap<u64, Arc<CounterCell>>,
    /// Keyed by OpenFlow port number and direction.
    ports: HashMap<(u32, PortDir), Arc<CounterCell>>,
}

/// The shared statistics region. Clone shares the underlying tables.
#[derive(Clone, Default)]
pub struct StatsRegion {
    tables: Arc<RwLock<Tables>>,
}

impl StatsRegion {
    /// Creates an empty region.
    pub fn new() -> StatsRegion {
        StatsRegion::default()
    }

    /// Cell for an OpenFlow rule (by cookie), created on first use.
    pub fn rule_cell(&self, cookie: u64) -> Arc<CounterCell> {
        if let Some(c) = self.tables.read().rules.get(&cookie) {
            return Arc::clone(c);
        }
        let mut w = self.tables.write();
        Arc::clone(w.rules.entry(cookie).or_default())
    }

    /// Cell for an OpenFlow port and direction, created on first use.
    pub fn port_cell(&self, port: u32, dir: PortDir) -> Arc<CounterCell> {
        if let Some(c) = self.tables.read().ports.get(&(port, dir)) {
            return Arc::clone(c);
        }
        let mut w = self.tables.write();
        Arc::clone(w.ports.entry((port, dir)).or_default())
    }

    /// Totals for a rule cookie; zero if never written.
    pub fn rule_totals(&self, cookie: u64) -> (u64, u64) {
        self.tables
            .read()
            .rules
            .get(&cookie)
            .map(|c| c.totals())
            .unwrap_or((0, 0))
    }

    /// Totals for a port direction; zero if never written.
    pub fn port_totals(&self, port: u32, dir: PortDir) -> (u64, u64) {
        self.tables
            .read()
            .ports
            .get(&(port, dir))
            .map(|c| c.totals())
            .unwrap_or((0, 0))
    }

    /// Rule cells currently in the region — one per cookie that has carried
    /// bypassed traffic and whose rule is still installed.
    pub fn rule_count(&self) -> usize {
        self.tables.read().rules.len()
    }

    /// Removes the cell of a rule (rule deleted and stats folded in).
    pub fn retire_rule(&self, cookie: u64) -> (u64, u64) {
        self.tables
            .write()
            .rules
            .remove(&cookie)
            .map(|c| c.totals())
            .unwrap_or((0, 0))
    }
}

impl std::fmt::Debug for StatsRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let t = self.tables.read();
        f.debug_struct("StatsRegion")
            .field("rules", &t.rules.len())
            .field("ports", &t.ports.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_accumulate_and_share() {
        let region = StatsRegion::new();
        let cell = region.rule_cell(42);
        cell.add(10, 640);
        cell.add(5, 320);
        assert_eq!(region.rule_totals(42), (15, 960));
        // Same cookie returns the same cell.
        let again = region.rule_cell(42);
        again.add(1, 64);
        assert_eq!(cell.totals(), (16, 1024));
    }

    #[test]
    fn unknown_keys_read_zero() {
        let region = StatsRegion::new();
        assert_eq!(region.rule_totals(1), (0, 0));
        assert_eq!(region.port_totals(9, PortDir::Rx), (0, 0));
    }

    #[test]
    fn ports_rules_and_directions_are_independent() {
        let region = StatsRegion::new();
        region.rule_cell(7).add(1, 64);
        region.port_cell(7, PortDir::Rx).add(2, 128);
        region.port_cell(7, PortDir::Tx).add(3, 192);
        assert_eq!(region.rule_totals(7), (1, 64));
        assert_eq!(region.port_totals(7, PortDir::Rx), (2, 128));
        assert_eq!(region.port_totals(7, PortDir::Tx), (3, 192));
    }

    #[test]
    fn retire_returns_final_totals() {
        let region = StatsRegion::new();
        region.rule_cell(5).add(3, 192);
        assert_eq!(region.retire_rule(5), (3, 192));
        assert_eq!(region.rule_totals(5), (0, 0));
        assert_eq!(region.retire_rule(5), (0, 0));
    }

    #[test]
    fn concurrent_updates_sum_correctly() {
        let region = StatsRegion::new();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let cell = region.rule_cell(1);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        cell.add(1, 64);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(region.rule_totals(1), (40_000, 2_560_000));
    }
}
