//! The three workloads, the stack each runs against, and the closed-loop
//! client that drives them.
//!
//! Every workload uses the paper's `item` table (`ItemWorkload`, ≈1 KB
//! rows, index on `item_title`) on two region servers with a durable WAL,
//! and is driven by one closed-loop client thread that issues a fixed
//! number of operations: with one client and a fixed count, flushes,
//! compactions, fsyncs, cache misses and dispatches repeat exactly from run
//! to run, which a time budget does not give.

use crate::stats::Samples;
use crate::sys;
use crate::trace::{Recorder, Span, TracingStore};
use bytes::Bytes;
use diff_index_cluster::{Cluster, ClusterOptions, DispatchSnapshot};
use diff_index_core::{verify_index, Auq, DiffIndex, IndexScheme, IndexSpec, Store};
use diff_index_lsm::{BlockCache, LsmOptions, MetricsSnapshot};
use diff_index_net::{OpCode, RemoteClient, RemoteClientOptions, ServerGroup};
use diff_index_ycsb::generator::fnv1a64;
use diff_index_ycsb::{ItemWorkload, KeyChooser, ScrambledZipfian, Uniform};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Base table name.
pub const TABLE: &str = "item";
/// Index name (on `item_title`).
pub const INDEX: &str = "title";
/// Region servers; each table is pre-split into this many regions.
pub const SERVERS: usize = 2;
/// Rows per `put_batch` during the bulk load.
const LOAD_BATCH: usize = 500;
/// Result limit of an exact-match index read (well above rows per title).
const READ_LIMIT: usize = 1000;
/// Base rows whose title is read back against the client's model after a run.
const MODEL_SAMPLE: u64 = 1000;

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// Why it exists (one line; also in `BENCHMARK.json`).
    pub why: &'static str,
    /// Index scheme on `item_title`.
    pub scheme: IndexScheme,
    /// Drive the stack through a `RemoteClient` over loopback sockets.
    pub loopback: bool,
    /// Rows loaded before the measured phase (item ids `0..rows`).
    pub rows: u64,
    /// Mean rows per distinct title (the exact-match read's fan-out).
    pub rows_per_title: u64,
    /// Shared block cache, bytes.
    pub cache_bytes: usize,
    /// Memtable flush threshold per region, bytes.
    pub memtable_bytes: usize,
    /// Fraction of the main mix that is updates (the rest are index reads).
    pub update_fraction: f64,
    /// Zipfian (scrambled) key choice for updates; uniform otherwise.
    pub zipfian: bool,
    /// Operations per `--seconds` second: the op count is fixed by the
    /// arguments, sized so a run takes about `--seconds` on a 2-vCPU VM.
    pub ops_per_second: u64,
}

impl Workload {
    /// Distinct title values.
    pub fn titles(&self) -> u64 {
        (self.rows / self.rows_per_title).max(1)
    }

    /// Index spec on `item_title` under this workload's scheme.
    pub fn spec(&self) -> IndexSpec {
        IndexSpec::single(INDEX, TABLE, "item_title", self.scheme)
    }

    /// Operations of a run of `seconds`.
    pub fn op_count(&self, seconds: u64) -> u64 {
        self.ops_per_second * seconds
    }

    /// Engine options: durable WAL, this workload's cache and memtable
    /// sizes, every other knob at its default.
    pub fn lsm_options(&self) -> LsmOptions {
        LsmOptions {
            wal_sync: true,
            memtable_flush_bytes: self.memtable_bytes,
            block_cache: Some(Arc::new(BlockCache::new(self.cache_bytes))),
            ..LsmOptions::default()
        }
    }
}

const MIB: usize = 1024 * 1024;

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "update_sync_full",
        why: "sync-full updates in process: every op blocks on observers, read-back, WAL fsync and inline flush/compaction",
        scheme: IndexScheme::SyncFull,
        loopback: false,
        rows: 20_000,
        rows_per_title: 16,
        cache_bytes: 32 * MIB,
        memtable_bytes: MIB,
        update_fraction: 0.9,
        zipfian: true,
        ops_per_second: 3_500,
    },
    Workload {
        name: "index_read_sync_insert",
        why: "sync-insert index reads on data 4x the block cache: index scan, per-hit validation gets, read-repair, cache misses",
        scheme: IndexScheme::SyncInsert,
        loopback: false,
        rows: 40_000,
        rows_per_title: 16,
        cache_bytes: 8 * MIB,
        memtable_bytes: 4 * MIB,
        update_fraction: 0.05,
        zipfian: false,
        ops_per_second: 2_400,
    },
    Workload {
        name: "mixed_async_loopback",
        why: "async-simple 50/50 mix over loopback sockets: encode, socket, server dispatch, and AUQ work competing for the cores",
        scheme: IndexScheme::AsyncSimple,
        loopback: true,
        rows: 10_000,
        rows_per_title: 16,
        cache_bytes: 32 * MIB,
        memtable_bytes: 4 * MIB,
        update_fraction: 0.5,
        zipfian: false,
        ops_per_second: 7_000,
    },
];

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

type Error = Box<dyn std::error::Error + Send + Sync>;
/// Result of the benchmark's own fallible steps.
pub type Result<T> = std::result::Result<T, Error>;

/// Row key of item `id`: one leading hash byte, so the cluster's even
/// first-byte pre-split spreads rows over both servers (every
/// `ItemWorkload` key starts with `item`), then the workload's own key.
pub fn row_key(wl: &ItemWorkload, id: u64) -> Bytes {
    let mut key = vec![(fnv1a64(id) >> 56) as u8];
    key.extend_from_slice(&wl.row_key(id));
    Bytes::from(key)
}

fn title_number(title: &[u8]) -> u32 {
    std::str::from_utf8(title.strip_prefix(b"title").unwrap_or(title))
        .ok()
        .and_then(|s| s.parse().ok())
        .expect("ItemWorkload titles are `title<decimal>`")
}

fn title_value(n: u32) -> Bytes {
    Bytes::from(format!("title{n:08}"))
}

/// A running stack: cluster, index, and the `DiffIndex` the client uses.
pub struct Stack {
    cluster: Cluster,
    client: DiffIndex,
    /// Loopback only: the server-side `DiffIndex` that owns the observers
    /// and AUQ, and the listeners in front of it.
    server: Option<(DiffIndex, ServerGroup)>,
    dir: PathBuf,
    /// Key + column + value bytes written by the bulk load.
    pub user_bytes: u64,
}

impl Stack {
    /// Create the cluster under `dir` for `client`'s workload, create table
    /// and index through the client's `DiffIndex`, bulk-load the rows with
    /// `put_batch`, wait until the index has caught up, then flush and
    /// compact. With `rec`, the client's store is wrapped in a
    /// [`TracingStore`].
    pub fn build(client: &Client, dir: &Path, rec: Option<Arc<Recorder>>) -> Result<Stack> {
        let (w, wl, keys) = (&client.w, &client.wl, &client.keys);
        let cluster =
            Cluster::new(dir, ClusterOptions { num_servers: SERVERS, lsm: w.lsm_options() })?;
        let trace = |store: Arc<dyn Store>| -> Arc<dyn Store> {
            match &rec {
                Some(rec) => Arc::new(TracingStore::new(store, Arc::clone(rec))),
                None => store,
            }
        };
        let (client, server) = if w.loopback {
            let server_di = DiffIndex::new(cluster.clone());
            let group = ServerGroup::start(&server_di)?;
            // One client thread needs one connection per server.
            let opts = RemoteClientOptions { pool_per_addr: 1, ..RemoteClientOptions::default() };
            let remote = RemoteClient::connect(group.addrs(), opts)?;
            (DiffIndex::over_store(trace(Arc::new(remote))), Some((server_di, group)))
        } else {
            let store = trace(Arc::new(cluster.clone()));
            (DiffIndex::local_over_store(cluster.clone(), store), None)
        };
        let mut stack = Stack { cluster, client, server, dir: dir.to_path_buf(), user_bytes: 0 };
        stack.client.store().create_table(TABLE, SERVERS)?;
        stack.client.create_index(w.spec(), SERVERS)?;
        for start in (0..w.rows).step_by(LOAD_BATCH) {
            let end = (start + LOAD_BATCH as u64).min(w.rows);
            let batch: Vec<(Bytes, Vec<(Bytes, Bytes)>)> =
                (start..end).map(|id| (keys[id as usize].clone(), wl.row(id))).collect();
            stack.user_bytes += batch.iter().map(|(k, cols)| row_bytes(k, cols)).sum::<u64>();
            stack.client.store().put_batch(TABLE, &batch)?;
        }
        stack.client.quiesce(TABLE);
        // The parallel load leaves a timing-dependent SSTable layout; one
        // flush + major compaction per table gives every run the same start
        // (one table per region, empty memtables).
        for table in [TABLE, &w.spec().index_table()] {
            stack.cluster.flush_table(table)?;
            stack.cluster.compact_table(table)?;
        }
        Ok(stack)
    }

    /// The index's AUQ, through the in-process handle that owns it.
    pub fn auq(&self) -> Result<Arc<Auq>> {
        let owner = self.server.as_ref().map_or(&self.client, |(di, _)| di);
        Ok(Arc::clone(owner.index(TABLE, INDEX)?.auq()))
    }

    /// Summed server-side network counters (loopback only).
    pub fn net(&self) -> Option<NetTotals> {
        let (_, group) = self.server.as_ref()?;
        let mut t = NetTotals::default();
        for snap in group.metrics() {
            t.requests += snap.total_requests();
            t.bytes_in += snap.total_bytes_in();
            t.bytes_out += snap.total_bytes_out();
            for op in &snap.per_op {
                t.errors += op.errors;
                let slot = match op.op {
                    OpCode::Put => &mut t.put_p50,
                    OpCode::ScanRowsPrefix => &mut t.scan_p50,
                    _ => continue,
                };
                slot.0 += op.p50_us as f64 * op.requests as f64;
                slot.1 += op.requests;
            }
        }
        Some(t)
    }

    /// Bytes on disk under the stack's directory.
    pub fn disk_bytes(&self) -> u64 {
        sys::dir_bytes(&self.dir)
    }

    /// Stop listeners, drop the stack and delete its directory.
    pub fn close(self) -> Result<()> {
        let Stack { cluster, client, server, dir, .. } = self;
        drop(client);
        if let Some((server_di, group)) = server {
            group.shutdown();
            drop(group);
            drop(server_di);
        }
        drop(cluster);
        std::fs::remove_dir_all(&dir)?;
        Ok(())
    }
}

fn row_bytes(key: &[u8], cols: &[(Bytes, Bytes)]) -> u64 {
    (key.len() + cols.iter().map(|(c, v)| c.len() + v.len()).sum::<usize>()) as u64
}

/// Server-side network totals, cumulative since the listeners started.
#[derive(Debug, Clone, Copy, Default)]
pub struct NetTotals {
    /// Requests served.
    pub requests: u64,
    /// Request bytes received.
    pub bytes_in: u64,
    /// Response bytes sent.
    pub bytes_out: u64,
    /// Requests answered with an error.
    pub errors: u64,
    /// `(Σ p50 × requests, requests)` of `Put` over the servers.
    pub put_p50: (f64, u64),
    /// `(Σ p50 × requests, requests)` of `ScanRowsPrefix` over the servers.
    pub scan_p50: (f64, u64),
}

impl NetTotals {
    /// Request-weighted mean of the per-server p50s, µs.
    pub fn weighted_p50(slot: (f64, u64)) -> f64 {
        if slot.1 == 0 {
            0.0
        } else {
            slot.0 / slot.1 as f64
        }
    }
}

/// Engine and dispatch counters, summed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Base table engine counters.
    pub base: MetricsSnapshot,
    /// Index table engine counters.
    pub index: MetricsSnapshot,
    /// Region dispatches.
    pub dispatch: DispatchSnapshot,
}

impl Counters {
    /// Read the counters now.
    pub fn take(stack: &Stack, spec: &IndexSpec) -> Result<Counters> {
        Ok(Counters {
            base: stack.cluster.table_metrics(TABLE)?,
            index: stack.cluster.table_metrics(&spec.index_table())?,
            dispatch: stack.cluster.dispatch_metrics(),
        })
    }

    /// Base + index table engine counters.
    pub fn lsm(&self) -> MetricsSnapshot {
        self.base + self.index
    }

    fn add_delta(&mut self, after: &Counters, before: &Counters) {
        self.base = self.base + (after.base - before.base);
        self.index = self.index + (after.index - before.index);
        let (d, a, b) = (&mut self.dispatch, &after.dispatch, &before.dispatch);
        d.puts += a.puts - b.puts;
        d.deletes += a.deletes - b.deletes;
        d.raw_puts += a.raw_puts - b.raw_puts;
        d.raw_deletes += a.raw_deletes - b.raw_deletes;
        d.gets += a.gets - b.gets;
        d.get_rows += a.get_rows - b.get_rows;
        d.scans += a.scans - b.scans;
    }
}

/// AUQ counters at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct AuqCounts {
    /// Tasks accepted.
    pub enqueued: u64,
    /// Tasks completed.
    pub completed: u64,
    /// Executions retried.
    pub retries: u64,
    /// Parallel index sub-operations of synchronous updates.
    pub fanout_tasks: u64,
}

impl AuqCounts {
    fn take(auq: &Auq) -> AuqCounts {
        use std::sync::atomic::Ordering::Relaxed;
        let m = auq.metrics();
        AuqCounts {
            enqueued: m.enqueued.load(Relaxed),
            completed: m.completed.load(Relaxed),
            retries: m.retries.load(Relaxed),
            fanout_tasks: m.fanout_tasks.load(Relaxed),
        }
    }

    fn minus(self, before: AuqCounts) -> AuqCounts {
        AuqCounts {
            enqueued: self.enqueued - before.enqueued,
            completed: self.completed - before.completed,
            retries: self.retries - before.retries,
            fanout_tasks: self.fanout_tasks - before.fanout_tasks,
        }
    }
}

/// The client's inputs and its model of what the base table holds.
pub struct Client {
    wl: ItemWorkload,
    w: Workload,
    keys: Vec<Bytes>,
    /// Current title number of every item id.
    title_of: Vec<u32>,
    /// Item ids currently carrying each title number.
    members: Vec<Vec<u32>>,
    /// Item id of the next update.
    update_keys: Box<dyn KeyChooser>,
    /// Title number of the next index read.
    read_titles: Uniform,
    /// splitmix64 state deciding update or read.
    mix_rng: u64,
    version: u64,
    /// False once an update failed: its effect is then unknown.
    model_exact: bool,
}

impl Client {
    /// Inputs for workload `w` from `seed`.
    pub fn new(w: &Workload, seed: u64) -> Client {
        let wl = ItemWorkload::new(w.titles(), 1_000_000, seed);
        let keys: Vec<Bytes> = (0..w.rows).map(|id| row_key(&wl, id)).collect();
        let title_of: Vec<u32> = (0..w.rows).map(|id| title_number(&wl.title_of(id))).collect();
        let mut members = vec![Vec::new(); w.titles() as usize];
        for (id, &t) in title_of.iter().enumerate() {
            members[t as usize].push(id as u32);
        }
        let update_keys: Box<dyn KeyChooser> = if w.zipfian {
            Box::new(ScrambledZipfian::new(w.rows, seed ^ 0x5eed_0001))
        } else {
            Box::new(Uniform::new(w.rows, seed ^ 0x5eed_0001))
        };
        Client {
            wl,
            w: *w,
            keys,
            title_of,
            members,
            update_keys,
            read_titles: Uniform::new(w.titles(), seed ^ 0x5eed_0002),
            mix_rng: seed ^ 0x5eed_0003,
            version: 1,
            model_exact: true,
        }
    }

    /// Uniform draw in `[0, 1)` from a splitmix64 stream.
    fn next_unit(&mut self) -> f64 {
        self.mix_rng = self.mix_rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.mix_rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    fn next_op(&mut self) -> Op {
        if self.next_unit() < self.w.update_fraction {
            let id = self.update_keys.next_key();
            let cols = self.wl.updated_row(id, self.version);
            self.version += 1;
            Op::Update { id, cols }
        } else {
            Op::Read { title: self.read_titles.next_key() as u32 }
        }
    }

    fn applied(&mut self, id: u64, cols: &[(Bytes, Bytes)]) {
        let new = title_number(&cols[0].1);
        let old = std::mem::replace(&mut self.title_of[id as usize], new);
        let list = &mut self.members[old as usize];
        let pos = list.iter().position(|&m| m as u64 == id).expect("model lists every id once");
        list.swap_remove(pos);
        self.members[new as usize].push(id as u32);
    }

    /// Row keys the base table holds under title `t`, sorted.
    fn expected_rows(&self, t: u32) -> Vec<Bytes> {
        let mut rows: Vec<Bytes> =
            self.members[t as usize].iter().map(|&id| self.keys[id as usize].clone()).collect();
        rows.sort();
        rows
    }
}

enum Op {
    Update { id: u64, cols: Vec<(Bytes, Bytes)> },
    Read { title: u32 },
}

/// What one measured phase produced.
#[derive(Debug, Default)]
pub struct PhaseResult {
    /// Update latencies.
    pub updates: Samples,
    /// Index-read latencies.
    pub reads: Samples,
    /// Operations issued.
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// Loop start to the last op's return.
    pub elapsed: Duration,
    /// Process CPU time over the loop plus the index drain.
    pub cpu: Duration,
    /// Client time spent choosing keys and building rows (outside timings).
    pub gen: Duration,
    /// Hits returned by index reads.
    pub hits: u64,
    /// Key + column + value bytes the updates wrote.
    pub user_bytes: u64,
    /// `quiesce` time after the last ack.
    pub drain: Duration,
    /// Counters attributed to updates (delta around each update).
    pub by_update: Counters,
    /// Counters attributed to reads (delta around each read).
    pub by_read: Counters,
    /// Counters over the whole phase, drain included.
    pub total: Counters,
    /// Σ AUQ depth sampled after each update ack.
    pub depth_sum: u64,
    /// AUQ counters over the phase, drain included.
    pub auq: AuqCounts,
    /// Server network counters over the phase.
    pub net: NetTotals,
    /// Stale index entries left after the drain (legal only for sync-insert).
    pub stale_entries: u64,
    /// Correctness violations found.
    pub violations: Vec<String>,
    /// Spans, when traced.
    pub spans: Vec<Span>,
}

/// Run the fixed-count closed loop of `ops` operations on `stack`, drain the
/// index and run the correctness gate. With `count_layers`, engine and
/// dispatch counters are snapshotted around every op (outside its timing)
/// and the AUQ depth after every update ack. With `rec`, each op is a root
/// span.
pub fn run_phase(
    stack: &Stack,
    client: &mut Client,
    ops: u64,
    count_layers: bool,
    rec: Option<&Recorder>,
) -> Result<PhaseResult> {
    let spec = client.w.spec();
    let di = &stack.client;
    let auq = stack.auq()?;
    let sync = matches!(spec.scheme, IndexScheme::SyncFull | IndexScheme::SyncInsert);
    let mut r = PhaseResult {
        updates: Samples::with_capacity(ops as usize),
        reads: Samples::with_capacity(ops as usize),
        ..PhaseResult::default()
    };
    let total_before = Counters::take(stack, &spec)?;
    let auq_before = AuqCounts::take(&auq);
    let net_before = stack.net().unwrap_or_default();
    let mut before = total_before;

    let cpu0 = sys::cpu_time();
    let start = Instant::now();
    for i in 0..ops {
        let g = Instant::now();
        let op = client.next_op();
        r.gen += g.elapsed();
        r.attempted += 1;
        match op {
            Op::Update { id, cols } => {
                let key = &client.keys[id as usize];
                let t = Instant::now();
                let res = match rec {
                    Some(rec) => rec.op("op.update", i, || di.store().put(TABLE, key, &cols)),
                    None => di.store().put(TABLE, key, &cols),
                };
                r.updates.push(t.elapsed().as_nanos() as u64);
                if count_layers {
                    r.depth_sum += auq.depth() as u64;
                    let after = Counters::take(stack, &spec)?;
                    r.by_update.add_delta(&after, &before);
                    before = after;
                }
                r.user_bytes += row_bytes(key, &cols);
                match res {
                    Ok(_) => client.applied(id, &cols),
                    Err(_) => {
                        r.failed += 1;
                        client.model_exact = false;
                    }
                }
            }
            Op::Read { title } => {
                let value = title_value(title);
                let t = Instant::now();
                let res = match rec {
                    Some(rec) => {
                        rec.op("op.read", i, || di.get_by_index(TABLE, INDEX, &value, READ_LIMIT))
                    }
                    None => di.get_by_index(TABLE, INDEX, &value, READ_LIMIT),
                };
                r.reads.push(t.elapsed().as_nanos() as u64);
                if count_layers {
                    let after = Counters::take(stack, &spec)?;
                    r.by_read.add_delta(&after, &before);
                    before = after;
                }
                match res {
                    Ok(hits) => {
                        r.hits += hits.len() as u64;
                        // Sync schemes with one client must return exactly
                        // the rows that carry the title.
                        if sync && client.model_exact {
                            let mut got: Vec<Bytes> = hits.into_iter().map(|h| h.row).collect();
                            got.sort();
                            if got != client.expected_rows(title) {
                                r.violations.push(format!(
                                    "index read of {} returned {} rows, base holds {}",
                                    String::from_utf8_lossy(&value),
                                    got.len(),
                                    client.members[title as usize].len()
                                ));
                            }
                        }
                    }
                    Err(_) => r.failed += 1,
                }
            }
        }
    }
    r.elapsed = start.elapsed();
    let drain = Instant::now();
    di.quiesce(TABLE);
    r.drain = drain.elapsed();
    r.cpu = sys::cpu_time() - cpu0;

    r.total = Counters::default();
    r.total.add_delta(&Counters::take(stack, &spec)?, &total_before);
    r.auq = AuqCounts::take(&auq).minus(auq_before);
    if let Some(net) = stack.net() {
        r.net = NetTotals {
            requests: net.requests - net_before.requests,
            bytes_in: net.bytes_in - net_before.bytes_in,
            bytes_out: net.bytes_out - net_before.bytes_out,
            errors: net.errors - net_before.errors,
            // Set-up sends no `Put` or `ScanRowsPrefix`, so the cumulative
            // per-opcode p50s cover this phase only.
            put_p50: net.put_p50,
            scan_p50: net.scan_p50,
        };
    }
    if let Some(rec) = rec {
        r.spans = rec.take();
    }
    check(stack, client, &spec, &mut r)?;
    Ok(r)
}

/// Correctness gate after the drain: the index agrees with the base (stale
/// entries are legal only under sync-insert, and counted), and the base
/// holds what the client wrote.
fn check(stack: &Stack, client: &Client, spec: &IndexSpec, r: &mut PhaseResult) -> Result<()> {
    let store = stack.client.store();
    let report = verify_index(store.as_ref(), spec)?;
    let (stale, missing) = (report.stale_count() as u64, report.missing_count() as u64);
    r.stale_entries = stale;
    if missing > 0 || (stale > 0 && spec.scheme != IndexScheme::SyncInsert) {
        r.violations.push(format!(
            "verify_index after quiesce: {missing} missing, {stale} stale ({})",
            spec.scheme
        ));
    }
    if !client.model_exact {
        return Ok(());
    }
    let rows = client.w.rows;
    let step = (rows / MODEL_SAMPLE).max(1);
    for id in (0..rows).step_by(step as usize) {
        let got = store.get(TABLE, &client.keys[id as usize], b"item_title", u64::MAX)?;
        let want = title_value(client.title_of[id as usize]);
        if got.map(|v| v.value) != Some(want.clone()) {
            r.violations.push(format!("base row {id} lost its last acked title {want:?}"));
            break;
        }
    }
    Ok(())
}
