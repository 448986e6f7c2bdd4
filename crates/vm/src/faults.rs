//! Control-plane fault injection.
//!
//! The paper's control choreography (OVS → compute agent → QEMU → guest
//! PMD) has several hops that fail in production: QEMU `device_add` can be
//! rejected, a guest can wedge and stop answering virtio-serial. The
//! [`FaultPlan`] lets tests arm such failures deterministically, and the
//! [`crate::ComputeAgent`] consults it before each hypervisor operation.
//! The interesting property under test is *atomicity*: a failed setup
//! must leave no half-plugged devices, no leaked shared-memory segments
//! and no guest PMD stuck in a half-enabled state.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Which hypervisor operation to fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// QEMU `device_add` (ivshmem hot-plug).
    Plug,
    /// QEMU `device_del`.
    Unplug,
    /// A virtio-serial PMD control round-trip.
    Serial,
}

#[derive(Debug, Default)]
struct Fault {
    /// Operations to let through before the budget starts biting.
    skip: AtomicU32,
    /// Operations to fail once the skip runs out.
    budget: AtomicU32,
}

/// A deterministic failure plan shared with one [`crate::ComputeAgent`].
///
/// Each operation kind carries a budget of pending failures: `arm(op, n)`
/// makes the next `n` operations of that kind fail;
/// `arm_after(op, skip, n)` lets `skip` operations through first (to target
/// a specific step of a multi-step choreography). Budgets are independent
/// and refillable at run time.
#[derive(Debug, Default)]
pub struct FaultPlan {
    plug: Fault,
    unplug: Fault,
    serial: Fault,
    /// Total faults injected since creation.
    injected: AtomicU64,
}

impl FaultPlan {
    /// A plan that never fails anything.
    pub fn none() -> Arc<FaultPlan> {
        Arc::new(FaultPlan::default())
    }

    /// Arms `n` failures of the given operation kind (additive).
    pub fn arm(&self, op: FaultOp, n: u32) {
        self.fault(op).budget.fetch_add(n, Ordering::SeqCst);
    }

    /// Arms `n` failures that begin only after `skip` successful
    /// operations of the same kind.
    pub fn arm_after(&self, op: FaultOp, skip: u32, n: u32) {
        let f = self.fault(op);
        f.skip.store(skip, Ordering::SeqCst);
        f.budget.fetch_add(n, Ordering::SeqCst);
    }

    /// Consumes one armed failure of `op` if any is pending.
    /// Returns true when the operation must fail.
    pub fn should_fail(&self, op: FaultOp) -> bool {
        let f = self.fault(op);
        // Burn a skip token first, if any.
        let mut skip = f.skip.load(Ordering::SeqCst);
        while skip > 0 {
            match f
                .skip
                .compare_exchange(skip, skip - 1, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => return false,
                Err(now) => skip = now,
            }
        }
        let mut cur = f.budget.load(Ordering::SeqCst);
        while cur > 0 {
            match f
                .budget
                .compare_exchange(cur, cur - 1, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => {
                    self.injected.fetch_add(1, Ordering::SeqCst);
                    return true;
                }
                Err(now) => cur = now,
            }
        }
        false
    }

    /// Failures injected so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::SeqCst)
    }

    /// Pending (armed but not yet consumed) failures for `op`.
    pub fn pending(&self, op: FaultOp) -> u32 {
        self.fault(op).budget.load(Ordering::SeqCst)
    }

    fn fault(&self, op: FaultOp) -> &Fault {
        match op {
            FaultOp::Plug => &self.plug,
            FaultOp::Unplug => &self.unplug,
            FaultOp::Serial => &self.serial,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_plan_never_fails() {
        let p = FaultPlan::none();
        for _ in 0..100 {
            assert!(!p.should_fail(FaultOp::Plug));
            assert!(!p.should_fail(FaultOp::Serial));
        }
        assert_eq!(p.injected(), 0);
    }

    #[test]
    fn armed_failures_are_consumed_exactly() {
        let p = FaultPlan::none();
        p.arm(FaultOp::Plug, 2);
        assert!(p.should_fail(FaultOp::Plug));
        assert!(p.should_fail(FaultOp::Plug));
        assert!(!p.should_fail(FaultOp::Plug));
        assert_eq!(p.injected(), 2);
        assert_eq!(p.pending(FaultOp::Plug), 0);
    }

    #[test]
    fn budgets_are_independent() {
        let p = FaultPlan::none();
        p.arm(FaultOp::Serial, 1);
        assert!(!p.should_fail(FaultOp::Plug));
        assert!(!p.should_fail(FaultOp::Unplug));
        assert!(p.should_fail(FaultOp::Serial));
    }

    #[test]
    fn arm_after_skips_then_fails() {
        let p = FaultPlan::none();
        p.arm_after(FaultOp::Serial, 2, 1);
        assert!(!p.should_fail(FaultOp::Serial));
        assert!(!p.should_fail(FaultOp::Serial));
        assert!(p.should_fail(FaultOp::Serial));
        assert!(!p.should_fail(FaultOp::Serial));
        assert_eq!(p.injected(), 1);
    }

    #[test]
    fn arming_is_additive_and_concurrent_consumption_is_exact() {
        let p = FaultPlan::none();
        p.arm(FaultOp::Serial, 3);
        p.arm(FaultOp::Serial, 2);
        let p2 = Arc::clone(&p);
        let t = std::thread::spawn(move || {
            let mut hits = 0;
            for _ in 0..100 {
                if p2.should_fail(FaultOp::Serial) {
                    hits += 1;
                }
            }
            hits
        });
        let mut hits = 0;
        for _ in 0..100 {
            if p.should_fail(FaultOp::Serial) {
                hits += 1;
            }
        }
        let total = hits + t.join().unwrap();
        assert_eq!(total, 5, "exactly the armed budget fires");
    }
}
