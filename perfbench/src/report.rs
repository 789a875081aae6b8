//! Metric names, units, bases and formulas, and the result line.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the single list of what a run
//! reports; `BENCHMARK.json` names the same metrics (a test checks this).

use crate::trace::span_stats;
use crate::workload::PhaseResult;
use std::collections::BTreeMap;
use std::fmt::Write;

/// `(name, unit)` of every end-to-end metric, reported with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p90_us", "us"),
    ("read_p50_us", "us"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mib", "MiB"),
];

/// Span names reduced into per-layer metrics.
pub const SPANS: [&str; 6] =
    ["op.update", "op.read", "store.put", "store.scan", "store.get", "store.raw_delete"];

/// `(name, unit, base)` of every per-layer metric, reported with
/// `--trace 1`. The base names the count a rate is taken over.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("ycsb.updates", "count", "updates issued"),
    ("ycsb.reads", "count", "index reads issued"),
    ("ycsb.gen_us_per_op", "us", "per op: key choice + row build, untimed"),
    ("ycsb.update_p50_us", "us", "exact, over ycsb.updates samples"),
    ("ycsb.update_p90_us", "us", "exact, over ycsb.updates samples"),
    ("ycsb.read_p90_us", "us", "exact, over ycsb.reads samples"),
    ("lsm.wal_fsyncs_per_update", "count/op", "per update, counted around updates"),
    ("lsm.block_reads", "count", "block-cache lookups in the phase"),
    ("lsm.block_cache_hit_ratio", "ratio", "of lsm.block_reads"),
    ("lsm.block_misses_per_read", "count/op", "per index read, counted around reads"),
    ("lsm.gets", "count", "engine point reads in the phase"),
    ("lsm.tables_probed_per_get", "count/op", "per lsm.gets"),
    ("lsm.bloom_skip_ratio", "ratio", "skipped of probed+skipped tables"),
    ("lsm.flushes", "count", "memtable flushes in the phase"),
    ("lsm.compactions", "count", "compactions in the phase"),
    ("lsm.write_amp", "B/B", "flushed+compacted per user byte, load included"),
    ("lsm.disk_bytes_per_user_byte", "B/B", "directory size per user byte after the run"),
    ("cluster.dispatch_per_update", "count/op", "per update, counted around updates"),
    ("cluster.gets_per_read", "count/op", "per index read, counted around reads"),
    ("cluster.repairs_per_read", "count/op", "raw deletes per index read"),
    ("cluster.fanout_tasks_per_update", "count/op", "SU2 || SU3-SU4 arms per update"),
    ("core.hits_per_read", "count/op", "per index read"),
    ("core.auq.enqueued", "count", "AUQ tasks accepted in the phase"),
    ("core.auq.depth_at_ack_mean", "count", "per update ack"),
    ("core.auq.drain_ms", "ms", "quiesce after the last ack"),
    ("core.auq.completed_ratio", "ratio", "of core.auq.enqueued"),
    ("core.auq.retries", "count", "in the phase"),
    ("core.verify.stale_entries", "count", "after quiesce; legal only for sync-insert"),
    ("net.requests_per_op", "count/op", "server requests per op"),
    ("net.bytes_in_per_op", "B/op", "request bytes per op"),
    ("net.bytes_out_per_op", "B/op", "response bytes per op"),
    ("net.server_p50_us.Put", "us", "server-side, request-weighted over servers"),
    ("net.server_p50_us.ScanRowsPrefix", "us", "server-side, request-weighted over servers"),
    ("net.wire_us.update", "us", "client update p50 minus server Put p50"),
    ("net.wire_us.read", "us", "client read p50 minus server ScanRowsPrefix p50"),
    ("net.errors", "count", "error responses in the phase"),
    ("span.op.update.self_us", "us", "mean per update, traced run"),
    ("span.op.update.calls_per_op", "count/op", "traced run"),
    ("span.op.update.p99_us", "us", "traced run"),
    ("span.op.update.p99_n", "count", "samples under the p99"),
    ("span.op.read.self_us", "us", "mean per read, traced run"),
    ("span.op.read.calls_per_op", "count/op", "traced run"),
    ("span.op.read.p99_us", "us", "traced run"),
    ("span.op.read.p99_n", "count", "samples under the p99"),
    ("span.store.put_us", "us", "mean per call, traced run"),
    ("span.store.put.calls_per_op", "count/op", "traced run"),
    ("span.store.put.p99_us", "us", "traced run"),
    ("span.store.put.p99_n", "count", "samples under the p99"),
    ("span.store.scan_us", "us", "mean per call, traced run"),
    ("span.store.scan.calls_per_op", "count/op", "traced run"),
    ("span.store.scan.p99_us", "us", "traced run"),
    ("span.store.scan.p99_n", "count", "samples under the p99"),
    ("span.store.get_us", "us", "mean per call, traced run"),
    ("span.store.get.calls_per_op", "count/op", "traced run"),
    ("span.store.get.p99_us", "us", "traced run"),
    ("span.store.get.p99_n", "count", "samples under the p99"),
    ("span.store.raw_delete_us", "us", "mean per call, traced run"),
    ("span.store.raw_delete.calls_per_op", "count/op", "traced run"),
    ("span.store.raw_delete.p99_us", "us", "traced run"),
    ("span.store.raw_delete.p99_n", "count", "samples under the p99"),
    ("trace.overhead_pct", "%", "traced minus untraced time per op"),
];

/// Metric values by name.
pub type Values = BTreeMap<String, f64>;

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// End-to-end metrics of an untraced phase.
pub fn end_to_end(setup_s: f64, r: &PhaseResult, peak_rss_mib: f64) -> Values {
    let op = r.updates.merged(&r.reads).summary();
    let mut v = Values::new();
    v.insert("setup_s".into(), setup_s);
    v.insert("ops_per_s".into(), r.attempted as f64 / r.elapsed.as_secs_f64());
    v.insert("op_p50_us".into(), op.p50_us);
    v.insert("op_p90_us".into(), op.p90_us);
    v.insert("read_p50_us".into(), r.reads.summary().p50_us);
    v.insert("cpu_us_per_op".into(), r.cpu.as_secs_f64() * 1e6 / r.attempted as f64);
    v.insert("peak_rss_mib".into(), peak_rss_mib);
    v
}

/// Facts about the stack after the untraced phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct StackFacts {
    /// Flushed + compacted bytes since the stack was created.
    pub sstable_bytes: u64,
    /// Directory size after the run.
    pub disk_bytes: u64,
    /// User bytes written by load and run.
    pub user_bytes: u64,
}

/// Per-layer metrics: counters from the untraced phase `r`, spans from the
/// traced phase `t` (same seed and op count, fresh stack).
pub fn per_layer(r: &PhaseResult, t: &PhaseResult, facts: StackFacts) -> Values {
    let updates = r.updates.len() as u64;
    let reads = r.reads.len() as u64;
    let (up, rd, tot) = (r.by_update.lsm(), r.by_read.lsm(), r.total.lsm());
    let mut v = Values::new();
    let mut set = |k: &str, x: f64| {
        v.insert(k.to_string(), x);
    };
    set("ycsb.updates", updates as f64);
    set("ycsb.reads", reads as f64);
    set("ycsb.gen_us_per_op", r.gen.as_secs_f64() * 1e6 / r.attempted as f64);
    set("ycsb.update_p50_us", r.updates.summary().p50_us);
    set("ycsb.update_p90_us", r.updates.summary().p90_us);
    set("ycsb.read_p90_us", r.reads.summary().p90_us);

    let block_reads = tot.block_cache_hits + tot.block_cache_misses;
    set("lsm.wal_fsyncs_per_update", ratio(up.wal_fsyncs, updates));
    set("lsm.block_reads", block_reads as f64);
    set("lsm.block_cache_hit_ratio", ratio(tot.block_cache_hits, block_reads));
    set("lsm.block_misses_per_read", ratio(rd.block_cache_misses, reads));
    set("lsm.gets", tot.gets as f64);
    set("lsm.tables_probed_per_get", ratio(tot.tables_probed, tot.gets));
    set("lsm.bloom_skip_ratio", ratio(tot.tables_skipped, tot.tables_probed + tot.tables_skipped));
    set("lsm.flushes", tot.flushes as f64);
    set("lsm.compactions", tot.compactions as f64);
    set("lsm.write_amp", ratio(facts.sstable_bytes, facts.user_bytes));
    set("lsm.disk_bytes_per_user_byte", ratio(facts.disk_bytes, facts.user_bytes));

    let (up, rd) = (&r.by_update.dispatch, &r.by_read.dispatch);
    set("cluster.dispatch_per_update", ratio(up.total(), updates));
    set("cluster.gets_per_read", ratio(rd.gets, reads));
    set("cluster.repairs_per_read", ratio(rd.raw_deletes, reads));
    set("cluster.fanout_tasks_per_update", ratio(r.auq.fanout_tasks, updates));

    set("core.hits_per_read", ratio(r.hits, reads));
    set("core.auq.enqueued", r.auq.enqueued as f64);
    set("core.auq.depth_at_ack_mean", ratio(r.depth_sum, updates));
    set("core.auq.drain_ms", r.drain.as_secs_f64() * 1e3);
    set("core.auq.completed_ratio", ratio(r.auq.completed, r.auq.enqueued));
    set("core.auq.retries", r.auq.retries as f64);
    set("core.verify.stale_entries", r.stale_entries as f64);

    let n = &r.net;
    let put_p50 = crate::workload::NetTotals::weighted_p50(n.put_p50);
    let scan_p50 = crate::workload::NetTotals::weighted_p50(n.scan_p50);
    let wire = |client_p50: f64, server_p50: f64| {
        if server_p50 > 0.0 {
            client_p50 - server_p50
        } else {
            0.0
        }
    };
    set("net.requests_per_op", ratio(n.requests, r.attempted));
    set("net.bytes_in_per_op", ratio(n.bytes_in, r.attempted));
    set("net.bytes_out_per_op", ratio(n.bytes_out, r.attempted));
    set("net.server_p50_us.Put", put_p50);
    set("net.server_p50_us.ScanRowsPrefix", scan_p50);
    set("net.wire_us.update", wire(r.updates.summary().p50_us, put_p50));
    set("net.wire_us.read", wire(r.reads.summary().p50_us, scan_p50));
    set("net.errors", n.errors as f64);

    let stats = span_stats(&t.spans);
    for name in SPANS {
        let s = stats.get(name).cloned().unwrap_or_default();
        let mean_key = if name.starts_with("op.") {
            format!("span.{name}.self_us")
        } else {
            format!("span.{name}_us")
        };
        set(&mean_key, s.self_us);
        set(&format!("span.{name}.calls_per_op"), ratio(s.calls, t.attempted));
        set(&format!("span.{name}.p99_us"), s.p99_us);
        set(&format!("span.{name}.p99_n"), s.calls as f64);
    }
    let per_op = |p: &PhaseResult| p.elapsed.as_secs_f64() / p.attempted as f64;
    set("trace.overhead_pct", (per_op(t) / per_op(r) - 1.0) * 100.0);
    v
}

/// A finite number in JSON form (non-finite values become 0).
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// The result line: `correct`, `attempted`, `failed` and every metric of
/// `names` with its unit.
///
/// # Panics
/// If a metric of `names` has no value (a bug in this benchmark).
pub fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    names: &[(&str, &str)],
    values: &Values,
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit)) in names.iter().enumerate() {
        let value = values.get(*name).unwrap_or_else(|| panic!("metric {name} not computed"));
        let sep = if i == 0 { "" } else { ", " };
        write!(out, "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", num(*value))
            .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_contract_shape() {
        let mut v = Values::new();
        v.insert("a".into(), 1.5);
        v.insert("b".into(), f64::NAN);
        let line = json_line(true, 10, 0, &[("a", "ms"), ("b", "s")], &v);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 0, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn metric_names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let contract = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let listed = contract.matches("\"name\"").count();
        let ours = END_TO_END.len() + PER_LAYER.len() + crate::workload::WORKLOADS.len();
        assert_eq!(listed, ours, "BENCHMARK.json lists other names than the benchmark reports");
        for (name, unit) in END_TO_END.iter().copied().chain(PER_LAYER.iter().map(|m| (m.0, m.1))) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(contract.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in crate::workload::WORKLOADS {
            let entry = format!("\"name\": \"{}\", \"why\": \"{}\"", w.name, w.why);
            assert!(contract.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn per_layer_reports_every_listed_metric() {
        let r = PhaseResult::default();
        let v = per_layer(&r, &r, StackFacts::default());
        for (name, _, _) in PER_LAYER {
            assert!(v.contains_key(*name), "{name} not computed");
        }
        assert_eq!(v.len(), PER_LAYER.len(), "computed a metric PER_LAYER does not list");
    }
}
