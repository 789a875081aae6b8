//! On-disk corruption must surface as a *typed* error at the cluster
//! boundary — never a panic, never silently wrong data.
//!
//! Every SSTable block carries a CRC-32 that is verified on decode
//! (`crates/lsm`); this test proves the verification survives the trip up
//! the stack: a bit flipped in a flushed block turns reads of that region
//! into `ClusterError::Storage(LsmError::Corruption)`, classified
//! non-retryable (resending the request cannot help), while the write path
//! (WAL + memtable) stays available.

use bytes::Bytes;
use diff_index_cluster::{Cluster, ClusterError, ClusterOptions};
use diff_index_lsm::LsmError;
use std::path::{Path, PathBuf};

fn find_sstables(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            find_sstables(&path, out);
        } else if path.extension().is_some_and(|e| e == "sst") {
            out.push(path);
        }
    }
}

#[test]
fn flipped_block_bit_surfaces_as_typed_corruption() {
    let dir = tempdir_lite::TempDir::new("corrupt").unwrap();
    let cluster = Cluster::new(dir.path(), ClusterOptions::default()).unwrap();
    cluster.create_table("t", 2).unwrap();
    for i in 0..8 {
        cluster
            .put(
                "t",
                format!("row{i}").as_bytes(),
                &[(Bytes::from("c"), Bytes::from(format!("v{i}")))],
            )
            .unwrap();
    }
    cluster.flush_table("t").unwrap();

    // Flip one bit in the first data block of every flushed table file.
    // Data blocks start at offset 0; their CRC is checked on decode, not at
    // open, so the damage is only discovered by the read below.
    let mut tables = Vec::new();
    find_sstables(dir.path(), &mut tables);
    assert!(!tables.is_empty(), "flush must have produced sstables");
    for path in &tables {
        let mut bytes = std::fs::read(path).unwrap();
        bytes[0] ^= 0x01;
        std::fs::write(path, &bytes).unwrap();
    }

    let mut corrupt_reads = 0;
    for i in 0..8 {
        match cluster.get("t", format!("row{i}").as_bytes(), b"c", u64::MAX) {
            Err(e @ ClusterError::Storage(LsmError::Corruption(_))) => {
                assert!(
                    e.to_string().contains("checksum"),
                    "corruption error should name the failed check: {e}"
                );
                assert!(!e.is_retryable(), "corruption must not be classified retryable");
                corrupt_reads += 1;
            }
            Err(e) => panic!("corrupted block surfaced the wrong error type: {e}"),
            Ok(v) => panic!("corrupted block served data: {v:?}"),
        }
    }
    assert!(corrupt_reads > 0);

    // The write path does not touch the damaged blocks: new writes (WAL +
    // memtable) still ack, so the region is degraded, not bricked.
    cluster
        .put("t", b"row0", &[(Bytes::from("c"), Bytes::from("fresh"))])
        .expect("writes must survive read-path corruption");
}

/// A corrupt block must fail scans and compaction, not shorten them: a
/// table iterator that silently stops at an unreadable block would make a
/// scan return a subset of the rows, and a compaction publish that subset
/// and delete the only copy of the rest.
#[test]
fn corrupt_block_fails_scan_and_compaction_instead_of_dropping_rows() {
    let dir = tempdir_lite::TempDir::new("corrupt-scan").unwrap();
    let cluster = Cluster::new(dir.path(), ClusterOptions::default()).unwrap();
    cluster.create_table("t", 1).unwrap();
    let col = || Bytes::from("c");
    for batch in 0..2 {
        for i in 0..8 {
            let row = format!("row{:02}", batch * 8 + i);
            cluster.put("t", row.as_bytes(), &[(col(), Bytes::from(row.clone()))]).unwrap();
        }
        cluster.flush_table("t").unwrap();
    }
    let mut tables = Vec::new();
    find_sstables(dir.path(), &mut tables);
    tables.sort();
    assert_eq!(tables.len(), 2, "two flushes into one region, no compaction yet");
    // File numbers grow, so the first path is the first flush's table.
    let first = &tables[0];
    let mut bytes = std::fs::read(first).unwrap();
    bytes[0] ^= 0x01;
    std::fs::write(first, &bytes).unwrap();

    match cluster.scan_rows("t", b"", None, u64::MAX, usize::MAX) {
        Err(ClusterError::Storage(LsmError::Corruption(_))) => {}
        Err(e) => panic!("scan over a corrupt block surfaced the wrong error: {e}"),
        Ok(rows) => panic!("scan over a corrupt block returned {} rows", rows.len()),
    }
    match cluster.compact_table("t") {
        Err(ClusterError::Storage(LsmError::Corruption(_))) => {}
        other => panic!("compaction over a corrupt block must fail, got {other:?}"),
    }
    assert!(first.exists(), "a failed compaction must keep its input tables");
    let mut after = Vec::new();
    find_sstables(dir.path(), &mut after);
    after.sort();
    assert_eq!(after, tables, "a failed compaction publishes no output table");
    // Rows of the intact table still read back.
    let got = cluster.get("t", b"row12", b"c", u64::MAX).unwrap().unwrap();
    assert_eq!(got.value, Bytes::from("row12"));
}
