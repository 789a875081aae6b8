//! Cluster-level deterministic fault injection.
//!
//! A [`FaultPlan`] is attached to every [`Cluster`](crate::Cluster) at
//! construction (unarmed, zero-cost in production). It bundles:
//!
//! * one shared [`FaultInjector`] plumbed into **every region engine** the
//!   cluster opens (including engines reopened by recovery), so a chaos
//!   harness can make the next WAL fsync or append fail wherever it lands;
//! * a **crash-mid-put** trigger: the next client write of any kind (put,
//!   batch, put-returning or delete) crashes its hosting server *after* the
//!   base write is durably applied but *before* the
//!   coprocessors run or the client is acked — the exact §5.3 window where
//!   the base table and the index diverge until WAL-replay recovery
//!   re-enqueues the maintenance work.

use diff_index_lsm::FaultInjector;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Per-cluster fault-injection surface. All state is atomic; arming from a
/// harness thread and consuming from request threads needs no locks.
#[derive(Debug)]
pub struct FaultPlan {
    /// Engine-level injector shared by every region engine of the cluster.
    lsm: Arc<FaultInjector>,
    /// When set, the next client write crashes its server between the
    /// durable base write and observer dispatch.
    crash_next_put: AtomicBool,
    /// How many crash-mid-put faults actually fired.
    fired_put_crashes: AtomicU64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            lsm: Arc::new(FaultInjector::new()),
            crash_next_put: AtomicBool::new(false),
            fired_put_crashes: AtomicU64::new(0),
        }
    }
}

impl FaultPlan {
    /// The engine-level injector shared by all of this cluster's regions.
    /// Arm fsync/append failures through it.
    pub fn lsm(&self) -> &Arc<FaultInjector> {
        &self.lsm
    }

    /// Arm the crash-mid-put trigger: the next client write (`put`,
    /// `put_batch`, `put_returning` or `delete`; not `raw_put`) crashes the
    /// server hosting its first row after the base write commits, before
    /// index maintenance and before the ack.
    pub fn arm_crash_on_next_put(&self) {
        self.crash_next_put.store(true, Ordering::Release);
    }

    /// Consume the crash-mid-put trigger (data path only).
    pub(crate) fn take_crash_next_put(&self) -> bool {
        let fire = self.crash_next_put.swap(false, Ordering::AcqRel);
        if fire {
            self.fired_put_crashes.fetch_add(1, Ordering::Relaxed);
        }
        fire
    }

    /// How many crash-mid-put faults fired so far.
    pub fn fired_put_crashes(&self) -> u64 {
        self.fired_put_crashes.load(Ordering::Relaxed)
    }

    /// Disarm everything (cluster- and engine-level), so no leftover armed
    /// fault can leak into a verification phase.
    pub fn disarm_all(&self) {
        self.crash_next_put.store(false, Ordering::Release);
        self.lsm.disarm_all();
    }

    /// True if any fault (cluster- or engine-level) is still armed.
    pub fn anything_armed(&self) -> bool {
        self.crash_next_put.load(Ordering::Acquire) || self.lsm.anything_armed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_trigger_fires_once() {
        let p = FaultPlan::default();
        assert!(!p.take_crash_next_put());
        p.arm_crash_on_next_put();
        assert!(p.anything_armed());
        assert!(p.take_crash_next_put());
        assert!(!p.take_crash_next_put());
        assert_eq!(p.fired_put_crashes(), 1);
    }

    #[test]
    fn disarm_covers_both_levels() {
        let p = FaultPlan::default();
        p.arm_crash_on_next_put();
        p.lsm().arm_fsync_failures(3);
        p.disarm_all();
        assert!(!p.anything_armed());
        assert!(!p.lsm().take_fsync_failure());
    }
}
