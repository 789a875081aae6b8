//! Expansion of client operations into per-server work steps, per scheme.
//!
//! This is Table 2 of the paper in executable form: each scheme turns an
//! update or read into a sequence of (service, extra-latency) steps. The
//! synchronous steps are on the client's critical path; the background
//! steps (async schemes) run on the APS.

use crate::config::SimConfig;
use diff_index_core::IndexScheme;

/// What a step does — determines its cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepKind {
    /// `PB`: base-table put (WAL + memtable).
    BasePut,
    /// `PI` / `DI`: index-table put or delete (same cost in LSM, §6.1).
    IndexPut,
    /// `RB`: base-table read (disk-bounded in the update path).
    BaseRead,
    /// `RI`: exact-match index read (warmed cache).
    IndexRead,
    /// Index range scan returning `rows` entries.
    IndexScan {
        /// Rows returned by the scan.
        rows: u64,
    },
    /// Per-row base-table double check in sync-insert's read path
    /// (Algorithm 2's SR2).
    BaseCheck,
    /// A batch of `rows` base-table double checks issued by a range query.
    /// Modeled as one aggregate step (mostly cache-friendly, see
    /// [`crate::config::SimConfig::range_check_miss_rate`]).
    BaseCheckBatch {
        /// Number of rows double-checked.
        rows: u64,
    },
}

/// One unit of work: visits one (random) server.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    /// What the step does.
    pub kind: StepKind,
    /// True if executed by the APS (batched service cost).
    pub background: bool,
}

impl Step {
    fn sync(kind: StepKind) -> Self {
        Step { kind, background: false }
    }

    fn bg(kind: StepKind) -> Self {
        Step { kind, background: true }
    }

    /// Server-occupancy time of this step.
    pub fn service(&self, cfg: &SimConfig) -> u64 {
        let base = match self.kind {
            StepKind::BasePut => cfg.svc_base_put,
            StepKind::IndexPut => cfg.svc_index_put,
            StepKind::BaseRead | StepKind::BaseCheck => cfg.svc_base_read,
            StepKind::IndexRead => cfg.svc_index_read,
            StepKind::IndexScan { rows } => cfg.svc_index_read + cfg.svc_scan_per_row * rows,
            StepKind::BaseCheckBatch { rows } => cfg.svc_base_read * rows,
        };
        if self.background {
            ((base as f64) * cfg.background_batch_factor).max(1.0) as u64
        } else {
            base
        }
    }

    /// Latency added beyond service + queueing (disk waits, RPC).
    pub fn extra_latency(&self, cfg: &SimConfig) -> u64 {
        let wait = match self.kind {
            StepKind::BasePut => 0,
            StepKind::IndexPut => cfg.lat_index_put_extra,
            StepKind::BaseRead | StepKind::BaseCheck => cfg.lat_base_read_extra,
            StepKind::IndexRead => cfg.lat_index_read_extra,
            StepKind::IndexScan { rows } => {
                cfg.lat_index_read_extra + cfg.lat_scan_per_row * rows
            }
            StepKind::BaseCheckBatch { rows } => {
                ((rows as f64) * cfg.range_check_miss_rate * cfg.lat_base_read_extra as f64)
                    as u64
            }
        };
        wait + cfg.lat_rpc
    }
}

/// An operation: its synchronous critical path plus optional deferred work.
#[derive(Debug, Clone)]
pub struct OpTemplate {
    /// Steps on the client's critical path, in order.
    pub sync_steps: Vec<Step>,
    /// Steps handed to the APS after the op acks (async schemes).
    pub background_steps: Vec<Step>,
}

impl OpTemplate {
    /// Queue-free latency of the synchronous path: the sum of every step's
    /// service and extra latency. This is the expected client latency at
    /// light load (no contention) — used for the Figure 9 points, whose 10
    /// client threads are far below saturation.
    pub fn analytic_latency_us(&self, cfg: &SimConfig) -> u64 {
        self.sync_steps.iter().map(|s| s.service(cfg) + s.extra_latency(cfg)).sum()
    }
}

/// One index update accompanying a base put (Figure 7 / Figure 10 workload).
pub fn update_op(scheme: Option<IndexScheme>) -> OpTemplate {
    use StepKind::*;
    match scheme {
        None => OpTemplate {
            sync_steps: vec![Step::sync(BasePut)],
            background_steps: vec![],
        },
        // Algorithm 1: SU1 PB, SU2 PI, SU3 RB, SU4 DI — all synchronous.
        Some(IndexScheme::SyncFull) => OpTemplate {
            sync_steps: vec![
                Step::sync(BasePut),
                Step::sync(IndexPut),
                Step::sync(BaseRead),
                Step::sync(IndexPut), // DI: same cost as PI in LSM (§6.1)
            ],
            background_steps: vec![],
        },
        // SU1 + SU2 only.
        Some(IndexScheme::SyncInsert) => OpTemplate {
            sync_steps: vec![Step::sync(BasePut), Step::sync(IndexPut)],
            background_steps: vec![],
        },
        // Algorithm 3/4: ack after PB; BA2 RB, BA3 DI, BA4 PI deferred.
        Some(IndexScheme::AsyncSimple) | Some(IndexScheme::AsyncSession) => OpTemplate {
            sync_steps: vec![Step::sync(BasePut)],
            background_steps: vec![
                Step::bg(BaseRead),
                Step::bg(IndexPut),
                Step::bg(IndexPut),
            ],
        },
    }
}

/// One exact-match index read returning `k` rows (Figure 8 workload).
pub fn exact_read_op(scheme: IndexScheme, k: u64) -> OpTemplate {
    use StepKind::*;
    let mut sync_steps = vec![Step::sync(IndexRead)];
    if scheme == IndexScheme::SyncInsert {
        // Algorithm 2: double-check each of the K hits against the base.
        for _ in 0..k {
            sync_steps.push(Step::sync(BaseCheck));
        }
    }
    OpTemplate { sync_steps, background_steps: vec![] }
}

/// One range query returning `rows` entries (Figure 9 workload).
pub fn range_read_op(scheme: IndexScheme, rows: u64) -> OpTemplate {
    use StepKind::*;
    let mut sync_steps = vec![Step::sync(IndexScan { rows })];
    if scheme == IndexScheme::SyncInsert && rows > 0 {
        sync_steps.push(Step::sync(BaseCheckBatch { rows }));
    }
    OpTemplate { sync_steps, background_steps: vec![] }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_step_counts_match_table2() {
        assert_eq!(update_op(None).sync_steps.len(), 1);
        let full = update_op(Some(IndexScheme::SyncFull));
        assert_eq!(full.sync_steps.len(), 4); // PB, PI, RB, DI
        assert!(full.background_steps.is_empty());
        let insert = update_op(Some(IndexScheme::SyncInsert));
        assert_eq!(insert.sync_steps.len(), 2);
        let asy = update_op(Some(IndexScheme::AsyncSimple));
        assert_eq!(asy.sync_steps.len(), 1, "client path = base put only");
        assert_eq!(asy.background_steps.len(), 3); // RB, DI, PI
        assert!(asy.background_steps.iter().all(|s| s.background));
    }

    #[test]
    fn read_step_counts_match_table2() {
        let full = exact_read_op(IndexScheme::SyncFull, 5);
        assert_eq!(full.sync_steps.len(), 1);
        let insert = exact_read_op(IndexScheme::SyncInsert, 5);
        assert_eq!(insert.sync_steps.len(), 6, "1 index read + K base checks");
        let asy = exact_read_op(IndexScheme::AsyncSimple, 5);
        assert_eq!(asy.sync_steps.len(), 1);
    }

    #[test]
    fn step_counts_match_core_cost_table() {
        // Table 2 is encoded twice: as operation counts in `core::cost` and
        // as step lists here. Hold the two to the same numbers.
        use diff_index_core::{read_cost, update_cost};
        let schemes = IndexScheme::all();
        for scheme in std::iter::once(None).chain(schemes.map(Some)) {
            let (op, cost) = (update_op(scheme), update_cost(scheme));
            assert_eq!(op.sync_steps.len() as u32, cost.synchronous_ops(), "{scheme:?}");
            assert_eq!(
                op.background_steps.len() as u32,
                cost.total_ops() - cost.synchronous_ops(),
                "{scheme:?}"
            );
        }
        for scheme in schemes {
            for k in [0, 1, 5] {
                let cost = read_cost(scheme, k);
                assert_eq!(
                    exact_read_op(scheme, u64::from(k)).sync_steps.len() as u32,
                    cost.index_read + cost.base_read,
                    "{scheme:?}, k = {k}"
                );
            }
        }
    }

    #[test]
    fn background_service_is_batched() {
        let cfg = SimConfig::in_house();
        let s = Step::sync(StepKind::BaseRead);
        let b = Step::bg(StepKind::BaseRead);
        assert!(b.service(&cfg) < s.service(&cfg));
        assert_eq!(
            b.service(&cfg),
            ((s.service(&cfg) as f64) * cfg.background_batch_factor) as u64
        );
    }

    #[test]
    fn scan_cost_grows_with_rows() {
        let cfg = SimConfig::in_house();
        let small = Step::sync(StepKind::IndexScan { rows: 40 });
        let big = Step::sync(StepKind::IndexScan { rows: 40_000 });
        assert!(big.service(&cfg) > small.service(&cfg) * 100);
        assert!(big.extra_latency(&cfg) > small.extra_latency(&cfg));
    }

    #[test]
    fn full_update_latency_is_about_5x_null() {
        let cfg = SimConfig::in_house();
        let lat = |t: &OpTemplate| -> u64 {
            t.sync_steps.iter().map(|s| s.service(&cfg) + s.extra_latency(&cfg)).sum()
        };
        let null = lat(&update_op(None)) as f64;
        let full = lat(&update_op(Some(IndexScheme::SyncFull))) as f64;
        let insert = lat(&update_op(Some(IndexScheme::SyncInsert))) as f64;
        let asy = lat(&update_op(Some(IndexScheme::AsyncSimple))) as f64;
        assert!((1.8..2.3).contains(&(insert / null)), "insert/null {}", insert / null);
        assert!((4.0..6.0).contains(&(full / null)), "full/null {}", full / null);
        assert!((asy / null) < 1.1, "async ≈ null at low load");
    }
}
