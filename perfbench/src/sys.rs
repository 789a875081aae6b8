//! Process and machine facts read from `/proc` and the file system: CPU
//! time, peak RSS, the work directory's file system and fsync latency, and
//! the source commit, recorded with every result.

use crate::stats::percentile;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Kernel clock ticks per second for `/proc/<pid>/stat` times (`USER_HZ`,
/// 100 on every mainstream Linux build).
const CLOCK_TICKS_PER_S: u64 = 100;

/// User + system CPU time of this process, every thread included (also
/// threads that have exited). Resolution: one clock tick (10 ms).
pub fn cpu_time() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, i.e. 12 and 13 after ")".
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<u64> =
        after.split_whitespace().skip(11).take(2).filter_map(|f| f.parse().ok()).collect();
    let ticks: u64 = fields.iter().sum();
    Duration::from_millis(ticks * 1000 / CLOCK_TICKS_PER_S)
}

/// Restart peak-RSS accounting, so [`peak_rss_mib`] covers only what
/// follows (Linux `clear_refs` value 5).
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// File system type of the mount holding `dir` (longest matching mount
/// point in `/proc/self/mounts`).
pub fn fs_type(dir: &Path) -> String {
    let dir = std::fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, point, fs) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(point).then(|| (point.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

/// Median latency of a 4 KiB write + `fdatasync` in `dir`, µs, over
/// `rounds` rounds.
pub fn fsync_p50_us(dir: &Path, rounds: usize) -> std::io::Result<f64> {
    let path = dir.join("fsync-probe");
    let mut f = std::fs::File::create(&path)?;
    let block = [0x5au8; 4096];
    let mut ns = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let t = Instant::now();
        f.write_all(&block)?;
        f.sync_data()?;
        ns.push(t.elapsed().as_nanos() as u64);
    }
    drop(f);
    std::fs::remove_file(&path)?;
    ns.sort_unstable();
    Ok(percentile(&ns, 50.0).unwrap_or(0) as f64 / 1000.0)
}

/// Total size of the regular files under `dir`, bytes.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

/// `fsync` every regular file under `dir`, so writeback of data written
/// before a measurement does not land inside it.
pub fn sync_tree(dir: &Path) -> std::io::Result<()> {
    for e in std::fs::read_dir(dir)? {
        let e = e?;
        let t = e.file_type()?;
        if t.is_dir() {
            sync_tree(&e.path())?;
        } else if t.is_file() {
            std::fs::File::open(e.path())?.sync_all()?;
        }
    }
    Ok(())
}

/// The commit the checkout was made from, read from `.git` in the working
/// directory without running git; `unknown` outside a git repository.
pub fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(reference) {
        return id.trim().to_string();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        let burn = Instant::now();
        let mut x = 0u64;
        while burn.elapsed() < Duration::from_millis(50) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_time() > Duration::ZERO);
        assert!(peak_rss_mib() > 0.0);
        assert!(nproc() >= 1);
        assert_ne!(fs_type(Path::new(".")), "unknown");
    }
}
