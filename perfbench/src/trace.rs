//! Spans recorded from outside the program.
//!
//! [`TracingStore`] decorates any [`Store`] and records one span per store
//! call made while an operation root (opened with [`Recorder::op`]) is
//! active on the calling thread. Spans stay in memory until the run ends;
//! [`Recorder::write_tsv`] writes them out and [`span_stats`] reduces them
//! to per-name self time, calls per operation and p99.
//!
//! Index maintenance runs inside `store.put` (observers, AUQ workers and
//! server threads call the cluster directly), so it cannot be split from
//! here; the layer counters carry it.

use crate::stats::Samples;
use bytes::Bytes;
use diff_index_cluster::{ColumnValue, PutOutcome, Result as ClusterResult, RowGroup};
use diff_index_core::{IndexSpec, Store};
use diff_index_lsm::VersionedValue;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within a recorder.
    pub id: u32,
    /// The span that caused this one (`None` for an operation root).
    pub parent: Option<u32>,
    /// Request id shared by a root and all its children.
    pub req: u64,
    /// Span name, e.g. `op.read` or `store.get`.
    pub name: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
}

thread_local! {
    /// `(request id, root span id)` of the operation open on this thread.
    static CURRENT: Cell<Option<(u64, u32)>> = const { Cell::new(None) };
}

/// In-memory span sink.
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: std::sync::atomic::AtomicU32,
}

impl Recorder {
    /// Recorder with room for `capacity` spans (no reallocation while the
    /// measured loop runs if the estimate holds).
    pub fn new(capacity: usize) -> Arc<Self> {
        Arc::new(Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(capacity)),
            next_id: std::sync::atomic::AtomicU32::new(0),
        })
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn alloc_id(&self) -> u32 {
        self.next_id.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span buffer poisoned by a panicking recorder").push(span);
    }

    /// Run `f` as the root span `name` of request `req`.
    pub fn op<T>(&self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        let id = self.alloc_id();
        let outer = CURRENT.with(|c| c.replace(Some((req, id))));
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        CURRENT.with(|c| c.set(outer));
        self.push(Span { id, parent: None, req, name, start_ns, end_ns });
        out
    }

    /// Run `f` as a child span of the current root; untraced when no root
    /// is open (set-up and verification calls).
    pub fn child<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let Some((req, parent)) = CURRENT.with(Cell::get) else {
            return f();
        };
        let id = self.alloc_id();
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.push(Span { id, parent: Some(parent), req, name, start_ns, end_ns });
        out
    }

    /// Take every recorded span, leaving the recorder empty.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer poisoned"))
    }

    /// Write spans as tab-separated `req id parent name start_ns end_ns`.
    pub fn write_tsv(spans: &[Span], path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "req\tid\tparent\tname\tstart_ns\tend_ns")?;
        for s in spans {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.req, s.id, parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of it covered by
/// the union of its children's intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> BTreeMap<u32, u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let (mut covered, mut cursor) = (0u64, s.start_ns);
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.id, (s.end_ns - s.start_ns).saturating_sub(covered))
        })
        .collect()
}

/// Per-name reduction of a span set.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanStat {
    /// Spans of this name.
    pub calls: u64,
    /// Mean self time per span, µs.
    pub self_us: f64,
    /// Exact p99 of the span's full duration, µs.
    pub p99_us: f64,
}

/// Reduce `spans` to one [`SpanStat`] per name.
pub fn span_stats(spans: &[Span]) -> BTreeMap<&'static str, SpanStat> {
    let selfs = self_times(spans);
    let mut by_name: BTreeMap<&'static str, (Samples, u64)> = BTreeMap::new();
    for s in spans {
        let e = by_name.entry(s.name).or_default();
        e.0.push(s.end_ns - s.start_ns);
        e.1 += selfs[&s.id];
    }
    by_name
        .into_iter()
        .map(|(name, (durations, self_ns))| {
            let calls = durations.len() as u64;
            let stat = SpanStat {
                calls,
                self_us: self_ns as f64 / calls as f64 / 1000.0,
                p99_us: durations.summary().p99_us,
            };
            (name, stat)
        })
        .collect()
}

/// A [`Store`] decorator that records a child span around every call.
pub struct TracingStore {
    inner: Arc<dyn Store>,
    rec: Arc<Recorder>,
}

impl TracingStore {
    /// Wrap `inner`, recording into `rec`.
    pub fn new(inner: Arc<dyn Store>, rec: Arc<Recorder>) -> Self {
        Self { inner, rec }
    }
}

impl Store for TracingStore {
    fn put(&self, table: &str, row: &[u8], columns: &[ColumnValue]) -> ClusterResult<u64> {
        self.rec.child("store.put", || self.inner.put(table, row, columns))
    }

    fn put_batch(
        &self,
        table: &str,
        rows: &[(Bytes, Vec<ColumnValue>)],
    ) -> ClusterResult<Vec<u64>> {
        self.rec.child("store.put_batch", || self.inner.put_batch(table, rows))
    }

    fn put_returning(
        &self,
        table: &str,
        row: &[u8],
        columns: &[ColumnValue],
    ) -> ClusterResult<PutOutcome> {
        self.rec.child("store.put_returning", || self.inner.put_returning(table, row, columns))
    }

    fn delete(&self, table: &str, row: &[u8], columns: &[Bytes]) -> ClusterResult<u64> {
        self.rec.child("store.delete", || self.inner.delete(table, row, columns))
    }

    fn raw_put(
        &self,
        table: &str,
        row: &[u8],
        columns: &[ColumnValue],
        ts: u64,
    ) -> ClusterResult<()> {
        self.rec.child("store.raw_put", || self.inner.raw_put(table, row, columns, ts))
    }

    fn raw_delete(&self, table: &str, row: &[u8], columns: &[Bytes], ts: u64) -> ClusterResult<()> {
        self.rec.child("store.raw_delete", || self.inner.raw_delete(table, row, columns, ts))
    }

    fn get(
        &self,
        table: &str,
        row: &[u8],
        column: &[u8],
        ts: u64,
    ) -> ClusterResult<Option<VersionedValue>> {
        self.rec.child("store.get", || self.inner.get(table, row, column, ts))
    }

    fn get_cell_versioned(
        &self,
        table: &str,
        row: &[u8],
        column: &[u8],
        ts: u64,
    ) -> ClusterResult<Option<(u64, bool)>> {
        self.rec.child("store.get", || self.inner.get_cell_versioned(table, row, column, ts))
    }

    fn get_row(
        &self,
        table: &str,
        row: &[u8],
        ts: u64,
    ) -> ClusterResult<Vec<(Bytes, VersionedValue)>> {
        self.rec.child("store.get_row", || self.inner.get_row(table, row, ts))
    }

    fn scan_rows(
        &self,
        table: &str,
        start_row: &[u8],
        end_row: Option<&[u8]>,
        ts: u64,
        limit: usize,
    ) -> ClusterResult<Vec<RowGroup>> {
        self.rec.child("store.scan", || self.inner.scan_rows(table, start_row, end_row, ts, limit))
    }

    fn scan_rows_prefix(
        &self,
        table: &str,
        row_prefix: &[u8],
        ts: u64,
        limit: usize,
    ) -> ClusterResult<Vec<RowGroup>> {
        self.rec.child("store.scan", || self.inner.scan_rows_prefix(table, row_prefix, ts, limit))
    }

    fn scan_rows_range(
        &self,
        table: &str,
        start_row: &[u8],
        end_row: Option<&[u8]>,
        ts: u64,
        limit: usize,
    ) -> ClusterResult<Vec<RowGroup>> {
        self.rec.child("store.scan", || {
            self.inner.scan_rows_range(table, start_row, end_row, ts, limit)
        })
    }

    fn create_table(&self, name: &str, num_regions: usize) -> ClusterResult<()> {
        self.inner.create_table(name, num_regions)
    }

    fn has_table(&self, table: &str) -> ClusterResult<bool> {
        self.inner.has_table(table)
    }

    fn flush_table(&self, table: &str) -> ClusterResult<()> {
        self.inner.flush_table(table)
    }

    fn admin_create_index(&self, spec: &IndexSpec, num_regions: usize) -> ClusterResult<()> {
        self.inner.admin_create_index(spec, num_regions)
    }

    fn admin_drop_index(&self, base_table: &str, name: &str) -> ClusterResult<()> {
        self.inner.admin_drop_index(base_table, name)
    }

    fn admin_quiesce(&self, base_table: &str) -> ClusterResult<()> {
        self.inner.admin_quiesce(base_table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, req: 1, name, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // root [0,100): children [10,30), [20,40) overlap → union [10,40);
        // [90,120) is clipped to [90,100). Self = 100 - 30 - 10 = 60.
        // The grandchild [12,18) only reduces its own parent's self time.
        let spans = vec![
            span(0, None, "op.read", 0, 100),
            span(1, Some(0), "store.scan", 10, 30),
            span(2, Some(0), "store.get", 20, 40),
            span(3, Some(0), "store.get", 90, 120),
            span(4, Some(1), "inner", 12, 18),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&0], 60);
        assert_eq!(selfs[&1], 14);
        assert_eq!(selfs[&2], 20);
        assert_eq!(selfs[&3], 30);
        assert_eq!(selfs[&4], 6);
    }

    #[test]
    fn span_stats_reduce_per_name() {
        let spans = vec![
            span(0, None, "op.read", 0, 10_000),
            span(1, Some(0), "store.get", 1_000, 3_000),
            span(2, Some(0), "store.get", 4_000, 8_000),
        ];
        let stats = span_stats(&spans);
        assert_eq!(stats["op.read"].calls, 1);
        assert_eq!(stats["op.read"].self_us, 4.0);
        assert_eq!(stats["store.get"].calls, 2);
        assert_eq!(stats["store.get"].self_us, 3.0);
        assert_eq!(stats["store.get"].p99_us, 4.0);
    }

    #[test]
    fn children_record_only_under_an_open_root() {
        let rec = Recorder::new(8);
        rec.child("store.get", || ());
        assert!(rec.take().is_empty(), "no root open: nothing recorded");
        rec.op("op.update", 7, || rec.child("store.put", || ()));
        let spans = rec.take();
        assert_eq!(spans.len(), 2);
        let root = spans.iter().find(|s| s.name == "op.update").unwrap();
        let put = spans.iter().find(|s| s.name == "store.put").unwrap();
        assert_eq!(put.parent, Some(root.id));
        assert_eq!((put.req, root.req), (7, 7));
        assert!(root.start_ns <= put.start_ns && put.end_ns <= root.end_ns);
    }
}
