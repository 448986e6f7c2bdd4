//! Coverage counters, modeled on OVS's `COVERAGE_DEFINE`/`coverage/show`
//! machinery: named event counters any crate can bump from any thread with
//! no cross-thread contention on the hot path.
//!
//! Design: each `(thread, name)` pair owns a private `AtomicU64` cell. The
//! incrementing thread finds its cell through a thread-local map (no lock,
//! no atomic RMW shared with any other thread), so two PMDs bumping
//! `coverage!("emc_hit")` never touch the same cache line. A process-wide
//! registry keeps one `Arc` per cell of every live thread. When a thread
//! exits, its cells are folded into a per-name retired total and leave the
//! registry, so thread churn does not grow it. [`snapshot`] sums the live
//! cells and the retired totals: counts are cumulative, exactly like OVS.

use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

type CellHandle = Arc<AtomicU64>;

/// The cells of live threads, plus what exited threads counted.
struct Registry {
    live: Vec<(&'static str, CellHandle)>,
    retired: HashMap<&'static str, u64>,
}

/// The process-wide registry. Readers sum under the same lock that a thread
/// exit holds while it moves its cells into `retired`, so a count is never
/// missed or seen twice.
fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        Mutex::new(Registry {
            live: Vec::new(),
            retired: HashMap::new(),
        })
    })
}

/// One thread's name → private cell map (the lock-free fast path).
#[derive(Default)]
struct LocalCells(HashMap<&'static str, CellHandle>);

impl Drop for LocalCells {
    /// Thread exit: retire this thread's cells.
    fn drop(&mut self) {
        let mut reg = registry().lock();
        let Registry { live, retired } = &mut *reg;
        live.retain(|(name, cell)| !self.0.get(name).is_some_and(|mine| Arc::ptr_eq(mine, cell)));
        for (name, cell) in self.0.drain() {
            *retired.entry(name).or_insert(0) += cell.load(Ordering::Relaxed);
        }
    }
}

thread_local! {
    static LOCAL: RefCell<LocalCells> = RefCell::new(LocalCells::default());
}

/// Adds `n` to the named coverage counter. Prefer the
/// [`coverage!`](macro@crate::coverage) macro.
///
/// The fast path (cell already created by this thread) is one thread-local
/// hash probe plus a relaxed add on a cell no other thread writes; the slow
/// path (first bump of `name` on this thread) registers a fresh cell. A
/// bump after this thread's cells were retired (from another thread-local
/// destructor) goes straight to the retired total.
pub fn add(name: &'static str, n: u64) {
    let bumped = LOCAL.try_with(|local| {
        let mut local = local.borrow_mut();
        let cell = local.0.entry(name).or_insert_with(|| {
            let cell: CellHandle = Arc::new(AtomicU64::new(0));
            registry().lock().live.push((name, Arc::clone(&cell)));
            cell
        });
        cell.fetch_add(n, Ordering::Relaxed);
    });
    if bumped.is_err() {
        *registry().lock().retired.entry(name).or_insert(0) += n;
    }
}

/// Point-in-time totals of every coverage counter, summed across threads,
/// sorted by name. Names bumped zero times (never registered) are absent.
pub fn snapshot() -> BTreeMap<&'static str, u64> {
    let reg = registry().lock();
    let mut out: BTreeMap<&'static str, u64> =
        reg.retired.iter().map(|(&name, &n)| (name, n)).collect();
    for (name, cell) in &reg.live {
        *out.entry(name).or_insert(0) += cell.load(Ordering::Relaxed);
    }
    out
}

/// Current total of one counter (0 when never bumped).
pub fn total(name: &str) -> u64 {
    let reg = registry().lock();
    let live: u64 = reg
        .live
        .iter()
        .filter(|(n, _)| *n == name)
        .map(|(_, c)| c.load(Ordering::Relaxed))
        .sum();
    live + reg.retired.get(name).copied().unwrap_or(0)
}

/// Bumps a named coverage counter by 1 (or by an explicit amount):
/// `coverage!("emc_hit")`, `coverage!("emc_insert", n)`. The name must be
/// a string literal (a `&'static str`); counters need no prior declaration.
#[macro_export]
macro_rules! coverage {
    ($name:literal) => {
        $crate::coverage::add($name, 1)
    };
    ($name:literal, $n:expr) => {
        $crate::coverage::add($name, $n)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_total_roundtrip() {
        // Names unique to this test: coverage state is process-global and
        // other tests in the binary run concurrently.
        add("cov_test_alpha", 1);
        add("cov_test_alpha", 2);
        assert_eq!(total("cov_test_alpha"), 3);
        assert_eq!(snapshot().get("cov_test_alpha"), Some(&3));
        assert_eq!(total("cov_test_never_bumped"), 0);
    }

    #[test]
    fn counters_aggregate_across_threads() {
        let threads: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..1000 {
                        crate::coverage!("cov_test_cross_thread");
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        // Cells of exited threads keep contributing to the total.
        assert_eq!(total("cov_test_cross_thread"), 4000);
    }

    #[test]
    fn exited_threads_leave_no_cells() {
        let threads: Vec<_> = (0..64)
            .map(|_| std::thread::spawn(|| crate::coverage!("cov_test_churn", 3)))
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let live = registry()
            .lock()
            .live
            .iter()
            .filter(|(name, _)| *name == "cov_test_churn")
            .count();
        assert_eq!(live, 0, "exited threads' cells were retired");
        assert_eq!(total("cov_test_churn"), 192);
        assert_eq!(snapshot().get("cov_test_churn"), Some(&192));
    }

    #[test]
    fn macro_forms() {
        crate::coverage!("cov_test_macro");
        crate::coverage!("cov_test_macro", 9);
        assert_eq!(total("cov_test_macro"), 10);
    }
}
