//! Session consistency — the `async-session` scheme's client side (§5.2).
//!
//! The server side of `async-session` is identical to `async-simple`; the
//! read-your-writes guarantee comes from *client-local* state: the library
//! keeps, per session, a private in-memory table of the index entries and
//! delete markers implied by the session's own puts, and merges it into
//! every session read. Sessions expire after a configurable idle time, and
//! session consistency auto-disables if the private state exceeds a memory
//! budget (both behaviours described in §5.2).

use crate::admin::DiffIndex;
use crate::encoding::{decode_index_row, index_row, value_prefix, value_range};
use crate::error::{IndexError, Result};
use crate::read::IndexHit;
use crate::spec::IndexScheme;
use bytes::Bytes;
use diff_index_cluster::ColumnValue;
use diff_index_lsm::DELTA;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Session limits (§5.2: "a maximum limit for session duration … say 30
/// minutes" and "a mechanism to monitor the memory usage of a session").
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// A session idle longer than this is destroyed; the next call returns
    /// [`IndexError::SessionExpired`].
    pub max_idle: Duration,
    /// Private-state budget; exceeding it disables session consistency for
    /// the remainder of the session (reads degrade to `async-simple`).
    pub max_bytes: usize,
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self { max_idle: Duration::from_secs(30 * 60), max_bytes: 8 * 1024 * 1024 }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PrivateEntry {
    ts: u64,
    tombstone: bool,
}

struct SessionState {
    /// index table name -> (index row key -> entry).
    private: HashMap<String, BTreeMap<Bytes, PrivateEntry>>,
    bytes: usize,
    last_active: Instant,
    consistency_disabled: bool,
    ended: bool,
}

static NEXT_SESSION_ID: AtomicU64 = AtomicU64::new(1);

/// A client session. Obtain via [`DiffIndex::session`]; call
/// [`Session::end`] when done (or let the idle timeout collect it).
pub struct Session {
    di: DiffIndex,
    id: u64,
    config: SessionConfig,
    state: Mutex<SessionState>,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session").field("id", &self.id).finish()
    }
}

impl Session {
    pub(crate) fn new(di: DiffIndex, config: SessionConfig) -> Self {
        Self {
            di,
            id: NEXT_SESSION_ID.fetch_add(1, Ordering::Relaxed),
            config,
            state: Mutex::new(SessionState {
                private: HashMap::new(),
                bytes: 0,
                last_active: Instant::now(),
                consistency_disabled: false,
                ended: false,
            }),
        }
    }

    /// Session id (the paper's random session ID; unique per process).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// True if the memory monitor has disabled session consistency.
    pub fn consistency_disabled(&self) -> bool {
        self.state.lock().consistency_disabled
    }

    fn touch(&self) -> Result<()> {
        let mut s = self.state.lock();
        if s.ended {
            return Err(IndexError::SessionExpired);
        }
        if s.last_active.elapsed() > self.config.max_idle {
            s.ended = true;
            s.private.clear();
            s.bytes = 0;
            return Err(IndexError::SessionExpired);
        }
        s.last_active = Instant::now();
        Ok(())
    }

    /// Session-consistent put: a regular put that also records, client-side,
    /// the index entries and delete markers it implies for every
    /// `async-session` index on the table.
    pub fn put(&self, table: &str, row: &[u8], columns: &[ColumnValue]) -> Result<u64> {
        self.touch()?;
        // The server returns the old values and the assigned timestamp.
        let outcome = self.di.store().put_returning(table, row, columns)?;
        let handles = self.di.indexes_of(table);
        let mut s = self.state.lock();
        if s.consistency_disabled {
            return Ok(outcome.ts);
        }
        for handle in handles {
            let spec = &handle.spec;
            if spec.scheme != IndexScheme::AsyncSession {
                continue;
            }
            if !spec.touches(columns.iter().map(|(c, _)| c)) {
                continue;
            }
            // Assemble old/new values per indexed column: written columns
            // come from the put outcome, others from a snapshot read.
            let mut old_vals = Vec::with_capacity(spec.columns.len());
            let mut new_vals = Vec::with_capacity(spec.columns.len());
            let mut old_complete = true;
            let mut new_complete = true;
            for ic in &spec.columns {
                if let Some((_, v)) = columns.iter().find(|(c, _)| c == ic) {
                    new_vals.push(v.clone());
                    match outcome.old_values.iter().find(|(c, _)| c == ic) {
                        Some((_, Some(ov))) => old_vals.push(ov.value.clone()),
                        _ => old_complete = false,
                    }
                } else {
                    match self.di.store().get(table, row, ic, outcome.ts - DELTA)? {
                        Some(v) => {
                            old_vals.push(v.value.clone());
                            new_vals.push(v.value);
                        }
                        None => {
                            old_complete = false;
                            new_complete = false;
                        }
                    }
                }
            }
            let mut added = 0usize;
            let table_map = s.private.entry(spec.index_table()).or_default();
            if old_complete && old_vals != new_vals {
                let old_key = index_row(&old_vals, row);
                added += old_key.len() + 16;
                table_map
                    .insert(old_key, PrivateEntry { ts: outcome.ts - DELTA, tombstone: true });
            }
            if new_complete {
                let new_key = index_row(&new_vals, row);
                added += new_key.len() + 16;
                table_map.insert(new_key, PrivateEntry { ts: outcome.ts, tombstone: false });
            }
            s.bytes += added;
        }
        if s.bytes > self.config.max_bytes {
            // §5.2: "automatically disable session-consistency when
            // out-of-memory is to occur".
            s.consistency_disabled = true;
            s.private.clear();
            s.bytes = 0;
        }
        Ok(outcome.ts)
    }

    /// Session-consistent exact-match `getFromIndex`: the server result
    /// merged with this session's private state, so the session always sees
    /// its own writes.
    pub fn get_by_index(
        &self,
        base_table: &str,
        index_name: &str,
        value: &[u8],
        limit: usize,
    ) -> Result<Vec<IndexHit>> {
        self.touch()?;
        let handle = self.di.index(base_table, index_name)?;
        let server = self.di.get_by_index(base_table, index_name, value, limit)?;
        let prefix = value_prefix(value);
        let end = diff_index_cluster::encoding::prefix_end(&prefix);
        self.merge(&handle.spec.index_table(), handle.spec.columns.len(), server, &prefix, end.as_deref(), limit)
    }

    /// Session-consistent range `getFromIndex` (first indexed column in
    /// `[lo, hi]` / `[lo, hi)`).
    pub fn range_by_index(
        &self,
        base_table: &str,
        index_name: &str,
        lo: &[u8],
        hi: &[u8],
        inclusive: bool,
        limit: usize,
    ) -> Result<Vec<IndexHit>> {
        self.touch()?;
        let handle = self.di.index(base_table, index_name)?;
        let server = self.di.range_by_index(base_table, index_name, lo, hi, inclusive, limit)?;
        let (start, end) = value_range(lo, hi, inclusive);
        self.merge(&handle.spec.index_table(), handle.spec.columns.len(), server, &start, Some(&end), limit)
    }

    fn merge(
        &self,
        index_table: &str,
        n_values: usize,
        server: Vec<IndexHit>,
        start: &[u8],
        end: Option<&[u8]>,
        limit: usize,
    ) -> Result<Vec<IndexHit>> {
        let s = self.state.lock();
        if s.consistency_disabled {
            return Ok(server);
        }
        // Key server hits by their index row for the merge.
        let mut merged: BTreeMap<Bytes, IndexHit> = server
            .into_iter()
            .map(|h| (index_row(&h.values, &h.row), h))
            .collect();
        if let Some(private) = s.private.get(index_table) {
            let range = private.range((
                std::ops::Bound::Included(Bytes::copy_from_slice(start)),
                match end {
                    Some(e) => std::ops::Bound::Excluded(Bytes::copy_from_slice(e)),
                    None => std::ops::Bound::Unbounded,
                },
            ));
            for (key, entry) in range {
                if entry.tombstone {
                    if let Some(existing) = merged.get(key) {
                        // The private delete marker hides entries at or
                        // before its timestamp; a NEWER server entry (some
                        // other client re-inserted the value) survives.
                        if existing.ts <= entry.ts {
                            merged.remove(key);
                        }
                    }
                } else if let Some((values, row)) = decode_index_row(key, n_values) {
                    let newer = merged.get(key).map(|h| h.ts < entry.ts).unwrap_or(true);
                    if newer {
                        merged.insert(key.clone(), IndexHit { values, row, ts: entry.ts });
                    }
                }
            }
        }
        Ok(merged.into_values().take(limit).collect())
    }

    /// `end_session()`: discard private state; subsequent calls fail with
    /// [`IndexError::SessionExpired`].
    pub fn end(&self) {
        let mut s = self.state.lock();
        s.ended = true;
        s.private.clear();
        s.bytes = 0;
    }

    /// Approximate bytes of private session state.
    pub fn private_bytes(&self) -> usize {
        self.state.lock().bytes
    }
}
