//! The Diff-Index coprocessor (§7, Figure 6): one [`SchemeObserver`] per
//! index, attached to the index-enabled base table. It intercepts every
//! base-table mutation and maintains the index according to the index's
//! scheme.
//!
//! Every scheme shares the concurrency-control invariant of §4.3: **an
//! index entry always carries the same timestamp as the base entry it is
//! associated with**, and old-entry operations happen at `t − δ`.

use crate::auq::{new_index_values, read_index_values, Admission, Auq, IndexTask};
use crate::encoding::index_row;
use crate::error::{IndexError, Result};
use crate::spec::{IndexScheme, IndexSpec};
use bytes::Bytes;
use diff_index_cluster::{Cluster, ColumnValue, ReplayedOp, TableObserver};
use diff_index_lsm::DELTA;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Key-only index entry payload: one empty column with an empty value.
fn null_cell() -> Vec<ColumnValue> {
    vec![(Bytes::new(), Bytes::new())]
}

/// A batch the AUQ turned away surfaces as [`IndexError::AuqFull`].
fn admitted(admission: Admission) -> Result<()> {
    match admission {
        Admission::Admitted => Ok(()),
        Admission::Rejected(n) => Err(IndexError::AuqFull { rejected: n }),
    }
}

/// Chaos-testing switch (process-global): when set, the synchronous repair
/// arm performs its pre-image read and old-entry delete at the base
/// timestamp `t` instead of `t − δ` — deliberately violating §4.3. The
/// read-back then observes the *new* value, concludes old == new, skips the
/// delete, and permanently leaks the stale old-value entry. The chaos
/// harness flips this on to prove its consistency checkers catch exactly
/// this class of bug deterministically. Never set outside chaos tests.
static VIOLATE_DELTA: AtomicBool = AtomicBool::new(false);

/// Enable or disable the deliberate §4.3 violation (chaos testing only).
pub fn set_violate_delta(enabled: bool) {
    VIOLATE_DELTA.store(enabled, Ordering::SeqCst);
}

/// True while the deliberate §4.3 violation is enabled.
pub fn violate_delta_enabled() -> bool {
    VIOLATE_DELTA.load(Ordering::SeqCst)
}

/// The timestamp old-entry operations should use: `ts − δ` per §4.3, or
/// (under the injected violation) `ts` itself.
fn old_entry_ts(ts: u64) -> u64 {
    if violate_delta_enabled() {
        ts
    } else {
        ts - DELTA
    }
}

/// SU2: put the new index entry, with the base timestamp. A failed put
/// comes back as its AUQ retry task.
fn put_new_entry(
    cluster: &Cluster,
    spec: &IndexSpec,
    row: &[u8],
    new: &[Bytes],
    ts: u64,
) -> Option<IndexTask> {
    let index_row = index_row(new, row);
    let put = cluster.raw_put(&spec.index_table(), &index_row, &null_cell(), ts);
    put.err().map(|_| IndexTask::PutIndex { index_row, ts })
}

/// SU4: delete the old index entry at `ts` (already `t − δ`). A failed
/// delete comes back as its AUQ retry task.
fn delete_old_entry(
    cluster: &Cluster,
    spec: &IndexSpec,
    row: &[u8],
    old: &[Bytes],
    ts: u64,
) -> Option<IndexTask> {
    let index_row = index_row(old, row);
    let delete = cluster.raw_delete(&spec.index_table(), &index_row, &[Bytes::new()], ts);
    delete.err().map(|_| IndexTask::DeleteIndex { index_row, ts })
}

/// Shared synchronous index-update steps SU2–SU4 of Algorithm 1. `do_repair`
/// controls whether SU3/SU4 (read old value, delete old entry) run —
/// `sync-full` does, `sync-insert` skips them. Failed operations are pushed
/// to the AUQ instead of rolling back the base put (§6.2).
///
/// With `do_repair`, SU2 and the SU3→SU4 chain touch *different* index rows
/// (new-value entry vs old-value entry) in what are typically different
/// index regions, so they run in parallel on the cluster's fan-out pool.
/// The §4.3 invariant is untouched by the reordering: both arms carry fixed
/// timestamps (`ts` and `ts − δ`) assigned before the dispatch, so the index
/// state after both arms land is identical regardless of execution order.
fn sync_update(
    cluster: &Cluster,
    spec: &Arc<IndexSpec>,
    auq: &Auq,
    row: &[u8],
    columns: &[ColumnValue],
    ts: u64,
    do_repair: bool,
) -> Result<()> {
    // SU1 pre-computation shared by both arms: the index values after this
    // put (reads the stored row only for composite columns the put missed).
    let new_vals = new_index_values(cluster, spec, row, columns, ts)?;
    if !do_repair {
        // SU2 only — no repair arm, nothing to fan out.
        let retry = new_vals.and_then(|new| put_new_entry(cluster, spec, row, &new, ts));
        return admitted(auq.enqueue_many(retry));
    }

    type Arm = Box<dyn FnOnce() -> Result<Option<IndexTask>> + Send + 'static>;
    let row = Bytes::copy_from_slice(row);
    let su2: Arm = {
        let (cluster, spec, row, new_vals) =
            (cluster.clone(), Arc::clone(spec), row.clone(), new_vals.clone());
        Box::new(move || {
            Ok(new_vals.and_then(|new| put_new_entry(&cluster, &spec, &row, &new, ts)))
        })
    };
    // SU3: read the pre-image — RB(k, tnew − δ).
    // SU4: delete the old entry at tnew − δ. The δ matters twice (§4.3):
    // reading at tnew would see the new value; deleting at tnew would
    // kill the entry just written when vold == vnew. Skipping the delete
    // when the values are equal avoids pointless work.
    let su3_su4: Arm = {
        let (cluster, spec) = (cluster.clone(), Arc::clone(spec));
        Box::new(move || {
            let old_ts = old_entry_ts(ts);
            Ok(match read_index_values(&cluster, &spec, &row, old_ts)? {
                Some(old) if Some(&old) != new_vals.as_ref() => {
                    delete_old_entry(&cluster, &spec, &row, &old, old_ts)
                }
                _ => None,
            })
        })
    };

    let metrics = auq.metrics();
    metrics.fanout_dispatches.fetch_add(1, Ordering::Relaxed);
    metrics.fanout_tasks.fetch_add(2, Ordering::Relaxed);
    let results = cluster.fanout().run(vec![su2, su3_su4]);

    // Failed index ops degrade to the AUQ as one atomically admitted batch;
    // a read error in either arm surfaces after both arms have finished
    // (matching the sequential code, where SU2's enqueue preceded an SU3
    // read error).
    let mut retries = Vec::new();
    let mut first_err = None;
    for result in results {
        match result {
            Ok(retry) => retries.extend(retry),
            Err(e) => {
                first_err.get_or_insert(e);
            }
        }
    }
    let admission = admitted(auq.enqueue_many(retries));
    first_err.map_or(admission, Err)
}

/// Synchronous handling of a base delete: remove the index entry of the
/// pre-image (used by `sync-full`; `sync-insert` leaves it for read-repair).
fn sync_delete(cluster: &Cluster, spec: &IndexSpec, auq: &Auq, row: &[u8], ts: u64) -> Result<()> {
    let retry = read_index_values(cluster, spec, row, ts - DELTA)?
        .and_then(|old| delete_old_entry(cluster, spec, row, &old, ts - DELTA));
    admitted(auq.enqueue_many(retry))
}

/// The coprocessor of one index. Every scheme owns an AUQ: the async
/// schemes queue all index maintenance there (Algorithm 3), the sync schemes
/// only failed index operations (§6.2).
pub struct SchemeObserver {
    spec: Arc<IndexSpec>,
    auq: Arc<Auq>,
}

impl SchemeObserver {
    /// Build the observer and its AUQ (one APS worker) for `spec`.
    pub fn new(cluster: &Cluster, spec: Arc<IndexSpec>) -> Self {
        let auq = Auq::start(cluster.downgrade(), Arc::clone(&spec));
        Self { spec, auq }
    }

    /// The index's update queue.
    pub fn auq(&self) -> &Arc<Auq> {
        &self.auq
    }

    /// Queue full asynchronous maintenance (Algorithm 4) of one base write.
    /// `put_columns` is `None` for a delete.
    fn maintain_later(
        &self,
        row: &[u8],
        ts: u64,
        put_columns: Option<Vec<ColumnValue>>,
    ) -> Result<()> {
        admitted(self.auq.enqueue(IndexTask::Maintain {
            row: Bytes::copy_from_slice(row),
            ts,
            is_delete: put_columns.is_none(),
            put_columns: put_columns.unwrap_or_default(),
        }))
    }
}

impl TableObserver for SchemeObserver {
    fn post_put(
        &self,
        cluster: &Cluster,
        _table: &str,
        row: &[u8],
        columns: &[ColumnValue],
        ts: u64,
    ) -> diff_index_cluster::Result<()> {
        if !self.spec.touches(columns.iter().map(|(c, _)| c)) {
            return Ok(());
        }
        match self.spec.scheme {
            // Algorithm 1: SU2 ∥ SU3→SU4.
            IndexScheme::SyncFull => {
                sync_update(cluster, &self.spec, &self.auq, row, columns, ts, true)
            }
            // §4.2, SU2 only: the old entry is left stale, to be repaired by
            // the read path (Algorithm 2).
            IndexScheme::SyncInsert => {
                sync_update(cluster, &self.spec, &self.auq, row, columns, ts, false)
            }
            // AU1 (Algorithm 3): the base put is already logged + in the
            // memtable; just enqueue and return, the client is acked right
            // away.
            IndexScheme::AsyncSimple | IndexScheme::AsyncSession => {
                self.maintain_later(row, ts, Some(columns.to_vec()))
            }
        }
        .map_err(into_cluster_err)
    }

    fn post_delete(
        &self,
        cluster: &Cluster,
        _table: &str,
        row: &[u8],
        columns: &[Bytes],
        ts: u64,
    ) -> diff_index_cluster::Result<()> {
        if !self.spec.touches(columns) {
            return Ok(());
        }
        match self.spec.scheme {
            IndexScheme::SyncFull => sync_delete(cluster, &self.spec, &self.auq, row, ts),
            // The now-stale entry is repaired at read time.
            IndexScheme::SyncInsert => Ok(()),
            IndexScheme::AsyncSimple | IndexScheme::AsyncSession => {
                self.maintain_later(row, ts, None)
            }
        }
        .map_err(into_cluster_err)
    }

    fn pre_flush(&self, _cluster: &Cluster, _table: &str) {
        // Figure 5: pause intake, drain pending work, then let the base
        // memtable flush and roll its WAL forward — this keeps
        // PR(Flushed) = ∅ so the WAL stays a valid log for the AUQ.
        self.auq.pause_and_drain();
    }

    fn post_flush(&self, _cluster: &Cluster, _table: &str) {
        self.auq.resume();
    }

    fn pre_recovery(&self, _cluster: &Cluster, _table: &str) {
        // §5.3: the AUQ is blocked inside the recovery window. Workers
        // hold (tasks routed to dead regions would only burn retries
        // against ServerDown) while intake stays open so WAL-replay
        // re-enqueues land in the queue; any capacity bound is waived
        // under the hold so the handover cannot deadlock.
        self.auq.hold_for_recovery();
    }

    fn post_recovery(&self, _cluster: &Cluster, _table: &str) {
        // Regions are reassigned and replayed; queued tasks now drain
        // against their new owners — the AUQ handover.
        self.auq.release_recovery_hold();
    }

    fn post_replay(
        &self,
        _cluster: &Cluster,
        _table: &str,
        op: &ReplayedOp,
    ) -> diff_index_cluster::Result<()> {
        // §5.3: every replayed base op is re-enqueued, whether or not it
        // was delivered before the crash. Idempotent because the index
        // entry timestamp equals the base timestamp.
        let (row, column) = match op {
            ReplayedOp::Put { row, column, .. } | ReplayedOp::Delete { row, column, .. } => {
                (row, column)
            }
        };
        if !self.spec.columns.iter().any(|c| c.as_ref() == column.as_slice()) {
            return Ok(());
        }
        let put_columns = match op {
            ReplayedOp::Put { value, .. } => {
                Some(vec![(Bytes::copy_from_slice(column), value.clone())])
            }
            ReplayedOp::Delete { .. } => None,
        };
        // The recovery hold waives any capacity bound, so this is admitted.
        let _ = self.maintain_later(row, op.ts(), put_columns);
        Ok(())
    }
}

impl Drop for SchemeObserver {
    fn drop(&mut self) {
        self.auq.shutdown();
    }
}

fn into_cluster_err(e: IndexError) -> diff_index_cluster::ClusterError {
    match e {
        IndexError::Cluster(c) => c,
        other => diff_index_cluster::ClusterError::Unavailable(other.to_string()),
    }
}
