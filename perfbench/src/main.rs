//! Command line of the benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a readable report, then as the last line one JSON object with
//! `correct`, `attempted`, `failed` and the end-to-end metrics (`--trace 0`)
//! or the per-layer metrics (`--trace 1`). Exits 1 after the line if an op
//! failed or the correctness gate found a violation, 2 on a usage or set-up
//! error (no line printed).

use diff_index_perfbench::report::{self, StackFacts, Values, END_TO_END, PER_LAYER};
use diff_index_perfbench::stats::median_f64;
use diff_index_perfbench::sys;
use diff_index_perfbench::trace::Recorder;
use diff_index_perfbench::workload::{self, run_phase, Client, PhaseResult, Stack, Workload};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Where runs keep their data (removed at exit) and reports.
const WORK_DIR: &str = ".perfbench_work";
const OUT_DIR: &str = ".perfbench_out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let int = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::by_name(&value).ok_or_else(|| {
                    let names: Vec<_> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value}; one of {}", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(int()?),
            "--seconds" => seconds = Some(int()?.max(1)),
            "--trace" => trace = Some(int()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let root =
        PathBuf::from(WORK_DIR).join(format!("{}-{}", args.workload.name, std::process::id()));
    let outcome = run(&args, &root);
    let _ = std::fs::remove_dir_all(&root);
    match outcome {
        Ok(ok) => std::process::exit(if ok { 0 } else { 1 }),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

fn run(args: &Args, root: &Path) -> workload::Result<bool> {
    std::fs::create_dir_all(root)?;
    std::fs::create_dir_all(OUT_DIR)?;
    let ops = args.workload.op_count(args.seconds);
    let mut text = environment(args, root, ops)?;
    let (names, values, r) = if args.trace {
        let names = PER_LAYER.iter().map(|m| (m.0, m.1)).collect();
        let (values, r) = traced(args, root, ops, &mut text)?;
        (names, values, r)
    } else {
        let (values, r) = untraced(args, root, ops, &mut text)?;
        (END_TO_END.to_vec(), values, r)
    };

    for (name, unit) in &names {
        let base = PER_LAYER.iter().find(|m| m.0 == *name).map_or("", |m| m.2);
        writeln!(text, "{name:<36} {:>14.3} {unit:<9} {base}", values[*name])?;
    }
    for (kind, s) in [("update", r.updates.summary()), ("read", r.reads.summary())] {
        writeln!(
            text,
            "{kind} latency: n={} p50={:.1}us p90={:.1}us p99={:.1}us",
            s.n, s.p50_us, s.p90_us, s.p99_us
        )?;
    }
    writeln!(text, "stale index entries after quiesce: {}", r.stale_entries)?;
    for v in &r.violations {
        writeln!(text, "VIOLATION: {v}")?;
    }
    let correct = r.violations.is_empty();
    let line = report::json_line(correct, r.attempted, r.failed, &names, &values);
    let trace = u8::from(args.trace);
    let report_path = Path::new(OUT_DIR)
        .join(format!("{}-seed{}-trace{trace}.txt", args.workload.name, args.seed));
    std::fs::write(&report_path, format!("{text}{line}\n"))?;
    print!("{text}");
    println!("{line}");
    Ok(correct && r.failed == 0)
}

/// Make the disk quiet and restart peak-RSS accounting so the measured
/// phase starts clean.
fn settle(root: &Path) -> workload::Result<()> {
    sys::sync_tree(root)?;
    sys::reset_peak_rss()?;
    Ok(())
}

/// End-to-end run: set up, measure, then set up [`SETUPS`] − 1 more times
/// (one stack alive at a time); `setup_s` is the median of all set-ups.
fn untraced(
    args: &Args,
    root: &Path,
    ops: u64,
    text: &mut String,
) -> workload::Result<(Values, PhaseResult)> {
    let w = &args.workload;
    let mut client = Client::new(w, args.seed);
    let mut setup_s = Vec::with_capacity(SETUPS);
    let t = Instant::now();
    let stack = Stack::build(&client, &root.join("s0"), None)?;
    setup_s.push(t.elapsed().as_secs_f64());
    settle(root)?;
    let r = run_phase(&stack, &mut client, ops, false, None)?;
    let peak_rss_mib = sys::peak_rss_mib();
    stack.close()?;
    // The other set-ups only time `setup_s`; running them after the
    // measured phase keeps their freed memory out of its peak RSS.
    for k in 1..SETUPS {
        let t = Instant::now();
        let stack = Stack::build(&Client::new(w, args.seed), &root.join(format!("s{k}")), None)?;
        setup_s.push(t.elapsed().as_secs_f64());
        stack.close()?;
    }
    writeln!(text, "setup_s samples: {setup_s:?}")?;
    Ok((report::end_to_end(median_f64(&setup_s), &r, peak_rss_mib), r))
}

/// Per-layer run: the same seed and op count twice, each on a fresh stack,
/// first untraced with counters, then through the span recorder.
fn traced(
    args: &Args,
    root: &Path,
    ops: u64,
    text: &mut String,
) -> workload::Result<(Values, PhaseResult)> {
    let w = &args.workload;
    let mut client = Client::new(w, args.seed);
    let stack = Stack::build(&client, &root.join("plain"), None)?;
    settle(root)?;
    let mut r = run_phase(&stack, &mut client, ops, true, None)?;
    let lsm = workload::Counters::take(&stack, &w.spec())?.lsm();
    let facts = StackFacts {
        sstable_bytes: lsm.bytes_flushed + lsm.bytes_compacted,
        disk_bytes: stack.disk_bytes(),
        user_bytes: stack.user_bytes + r.user_bytes,
    };
    stack.close()?;
    let (base, index) = (r.total.base, r.total.index);
    writeln!(
        text,
        "counts: wal_fsyncs base {} index {}, dispatch {:?}, block_cache_misses {}, flushes {}, compactions {}",
        base.wal_fsyncs,
        index.wal_fsyncs,
        r.total.dispatch,
        base.block_cache_misses + index.block_cache_misses,
        base.flushes + index.flushes,
        base.compactions + index.compactions
    )?;

    let rec = Recorder::new(ops as usize * 4);
    let mut client = Client::new(w, args.seed);
    let stack = Stack::build(&client, &root.join("traced"), Some(Arc::clone(&rec)))?;
    settle(root)?;
    let t = run_phase(&stack, &mut client, ops, true, Some(&rec))?;
    stack.close()?;
    let spans = Path::new(OUT_DIR).join(format!("spans-{}-seed{}.tsv", w.name, args.seed));
    Recorder::write_tsv(&t.spans, &spans)?;
    writeln!(text, "spans: {} written to {}", t.spans.len(), spans.display())?;
    let values = report::per_layer(&r, &t, facts);
    // A failure or violation in either phase fails the run.
    if t.failed > 0 || !t.violations.is_empty() {
        writeln!(text, "traced phase: {} failed", t.failed)?;
    }
    r.failed += t.failed;
    r.violations.extend(t.violations);
    Ok((values, r))
}

/// Machine, file system, flush policy and commit, recorded with the result.
fn environment(args: &Args, root: &Path, ops: u64) -> workload::Result<String> {
    let w = &args.workload;
    let lsm = w.lsm_options();
    let mut s = String::new();
    writeln!(s, "workload {} seed {} trace {} ops {ops}", w.name, args.seed, u8::from(args.trace))?;
    writeln!(
        s,
        "machine: nproc {} fs {} fsync_p50 {:.1}us commit {}",
        sys::nproc(),
        sys::fs_type(root),
        sys::fsync_p50_us(root, 200)?,
        sys::git_commit()
    )?;
    writeln!(
        s,
        "policy: scheme {} servers {} rows {} titles {} wal_sync {} memtable {} B compaction_trigger {} cache {} B loopback {}",
        w.scheme,
        workload::SERVERS,
        w.rows,
        w.titles(),
        lsm.wal_sync,
        lsm.memtable_flush_bytes,
        lsm.compaction_trigger,
        w.cache_bytes,
        w.loopback
    )?;
    Ok(s)
}
