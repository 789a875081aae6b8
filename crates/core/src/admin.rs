//! The `DiffIndex` facade: index creation (with backfill), maintenance,
//! lookup, and session handout — the role of the client-side "utility for
//! index creation, maintenance and cleanse" plus the `getByIndex` API of §7.
//!
//! A `DiffIndex` runs over either backend of the [`Store`] abstraction:
//!
//! * **local** ([`DiffIndex::new`]): wraps an in-process [`Cluster`];
//!   `create_index` registers coprocessors and owns the AUQs directly.
//! * **remote** ([`DiffIndex::over_store`]): wraps any [`Store`] (e.g. a
//!   `net::RemoteClient`); index *reads* run client-side against the store,
//!   while index *administration* (`CREATE INDEX`, `DROP INDEX`, quiesce)
//!   is forwarded to the server hosting the observers. Remote handles carry
//!   no AUQ — the queue lives server-side.

use crate::error::{IndexError, Result};
use crate::observers::SchemeObserver;
use crate::read::{self, IndexHit};
use crate::session::{Session, SessionConfig};
use crate::spec::IndexSpec;
use crate::store::Store;
use crate::{auq::Auq, encoding::index_row};
use bytes::Bytes;
use diff_index_cluster::Cluster;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// One installed index: its spec, plus — for locally administered indexes —
/// the AUQ behind it (every scheme has one: async schemes for all updates,
/// sync schemes for failure retries) and the observer registration token.
/// Remote handles are spec-only; their AUQ lives on the server.
pub struct IndexHandle {
    /// The index definition.
    pub spec: Arc<IndexSpec>,
    auq: Option<Arc<Auq>>,
    observer_token: u64,
}

impl IndexHandle {
    /// The asynchronous update queue, for locally administered indexes.
    ///
    /// # Panics
    /// On a remote handle (the AUQ lives on the server; use
    /// [`DiffIndex::quiesce`] to wait for it).
    pub fn auq(&self) -> &Arc<Auq> {
        self.auq.as_ref().expect("remote index handle has no local AUQ (it lives server-side)")
    }

    /// The AUQ if this index is administered locally, `None` if remote.
    pub fn try_auq(&self) -> Option<&Arc<Auq>> {
        self.auq.as_ref()
    }
}

impl std::fmt::Debug for IndexHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IndexHandle").field("spec", &self.spec).finish()
    }
}

struct Inner {
    store: Arc<dyn Store>,
    /// Present only for the in-process backend; owns observer registration.
    local: Option<Cluster>,
    /// base table -> handles.
    indexes: RwLock<HashMap<String, Vec<Arc<IndexHandle>>>>,
    session_config: SessionConfig,
}

/// Entry point for Diff-Index. Cheap to clone.
#[derive(Clone)]
pub struct DiffIndex {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for DiffIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiffIndex").field("remote", &self.inner.local.is_none()).finish()
    }
}

impl DiffIndex {
    /// Wrap an in-process cluster.
    pub fn new(cluster: Cluster) -> Self {
        Self::with_session_config(cluster, SessionConfig::default())
    }

    /// Wrap an in-process cluster with custom session limits.
    pub fn with_session_config(cluster: Cluster, session_config: SessionConfig) -> Self {
        Self {
            inner: Arc::new(Inner {
                store: Arc::new(cluster.clone()),
                local: Some(cluster),
                indexes: RwLock::new(HashMap::new()),
                session_config,
            }),
        }
    }

    /// Wrap a remote (or otherwise abstract) store backend. Index reads run
    /// client-side against `store`; index administration is forwarded via
    /// the store's `admin_*` methods.
    pub fn over_store(store: Arc<dyn Store>) -> Self {
        Self::over_store_with_config(store, SessionConfig::default())
    }

    /// Local index administration over a decorated store: observers are
    /// registered on `cluster` in-process (as in [`DiffIndex::new`]), but
    /// every client read and write goes through `store` — which must be a
    /// wrapper around that same cluster, e.g. a
    /// [`RecordingStore`](crate::history::RecordingStore) capturing an
    /// operation history for consistency checking.
    pub fn local_over_store(cluster: Cluster, store: Arc<dyn Store>) -> Self {
        Self {
            inner: Arc::new(Inner {
                store,
                local: Some(cluster),
                indexes: RwLock::new(HashMap::new()),
                session_config: SessionConfig::default(),
            }),
        }
    }

    /// [`DiffIndex::over_store`] with custom session limits.
    pub fn over_store_with_config(store: Arc<dyn Store>, session_config: SessionConfig) -> Self {
        Self {
            inner: Arc::new(Inner {
                store,
                local: None,
                indexes: RwLock::new(HashMap::new()),
                session_config,
            }),
        }
    }

    /// The wrapped in-process cluster (for base-table CRUD and tests).
    ///
    /// # Panics
    /// On a remote `DiffIndex`; use [`DiffIndex::store`] there.
    pub fn cluster(&self) -> &Cluster {
        self.inner.local.as_ref().expect("remote DiffIndex has no in-process cluster handle")
    }

    /// The store backend this instance runs against.
    pub fn store(&self) -> &Arc<dyn Store> {
        &self.inner.store
    }

    /// `CREATE INDEX`: create the (global, key-only) index table with
    /// `num_regions` regions, attach the scheme's observer to the base
    /// table, and backfill entries for pre-existing base rows. On a remote
    /// backend the whole operation executes server-side; the returned
    /// handle records the spec for client-side reads.
    pub fn create_index(&self, spec: IndexSpec, num_regions: usize) -> Result<Arc<IndexHandle>> {
        if !self.inner.store.has_table(&spec.base_table)? {
            return Err(IndexError::Cluster(
                diff_index_cluster::ClusterError::NoSuchTable(spec.base_table.clone()),
            ));
        }
        {
            let indexes = self.inner.indexes.read();
            if let Some(list) = indexes.get(&spec.base_table) {
                if list.iter().any(|h| h.spec.name == spec.name) {
                    return Err(IndexError::IndexExists(spec.name));
                }
            }
        }
        let spec = Arc::new(spec);
        let handle = match &self.inner.local {
            Some(cluster) => {
                cluster.create_table(&spec.index_table(), num_regions)?;

                // Register the observer BEFORE backfilling so concurrent
                // writes are not missed; backfill re-writing an entry the
                // observer already wrote is idempotent (same timestamp).
                let obs = Arc::new(SchemeObserver::new(cluster, Arc::clone(&spec)));
                let auq = Arc::clone(obs.auq());
                let observer_token = cluster.register_observer(&spec.base_table, obs)?;

                self.backfill(&spec)?;
                Arc::new(IndexHandle { spec: Arc::clone(&spec), auq: Some(auq), observer_token })
            }
            None => {
                self.inner.store.admin_create_index(&spec, num_regions)?;
                Arc::new(IndexHandle { spec: Arc::clone(&spec), auq: None, observer_token: 0 })
            }
        };
        self.inner
            .indexes
            .write()
            .entry(spec.base_table.clone())
            .or_default()
            .push(Arc::clone(&handle));
        Ok(handle)
    }

    /// Build index entries for rows that existed before the index did.
    fn backfill(&self, spec: &IndexSpec) -> Result<()> {
        let store = self.inner.store.as_ref();
        let index_table = spec.index_table();
        let rows = store.scan_rows(&spec.base_table, b"", None, u64::MAX, usize::MAX)?;
        for (row, cols) in rows {
            let mut values = Vec::with_capacity(spec.columns.len());
            let mut entry_ts = 0u64;
            for ic in &spec.columns {
                match cols.iter().find(|(c, _)| c == ic) {
                    Some((_, v)) => {
                        values.push(v.value.clone());
                        entry_ts = entry_ts.max(v.ts);
                    }
                    None => {
                        values.clear();
                        break;
                    }
                }
            }
            if values.len() == spec.columns.len() {
                let key = index_row(&values, &row);
                store.raw_put(&index_table, &key, &[(Bytes::new(), Bytes::new())], entry_ts)?;
            }
        }
        Ok(())
    }

    /// `DROP INDEX`: detach the observer and forget the index. (The index
    /// table's files are left for the operator to remove, as HBase does.)
    pub fn drop_index(&self, base_table: &str, name: &str) -> Result<()> {
        let handle = {
            let mut indexes = self.inner.indexes.write();
            let list = indexes
                .get_mut(base_table)
                .ok_or_else(|| IndexError::NoSuchIndex(name.to_string()))?;
            let pos = list
                .iter()
                .position(|h| h.spec.name == name)
                .ok_or_else(|| IndexError::NoSuchIndex(name.to_string()))?;
            list.remove(pos)
        };
        match &self.inner.local {
            Some(cluster) => {
                cluster.unregister_observer(base_table, handle.observer_token)?;
                handle.auq().shutdown();
            }
            None => self.inner.store.admin_drop_index(base_table, name)?,
        }
        Ok(())
    }

    /// Look up an index handle.
    pub fn index(&self, base_table: &str, name: &str) -> Result<Arc<IndexHandle>> {
        self.inner
            .indexes
            .read()
            .get(base_table)
            .and_then(|l| l.iter().find(|h| h.spec.name == name).cloned())
            .ok_or_else(|| IndexError::NoSuchIndex(name.to_string()))
    }

    /// All indexes on `base_table`.
    pub fn indexes_of(&self, base_table: &str) -> Vec<Arc<IndexHandle>> {
        self.inner.indexes.read().get(base_table).cloned().unwrap_or_default()
    }

    /// `getByIndex`, exact match: base rows whose indexed column equals
    /// `value`, under the index's scheme-specific read semantics.
    pub fn get_by_index(
        &self,
        base_table: &str,
        index_name: &str,
        value: &[u8],
        limit: usize,
    ) -> Result<Vec<IndexHit>> {
        let handle = self.index(base_table, index_name)?;
        read::read_exact(self.inner.store.as_ref(), &handle.spec, value, limit)
    }

    /// `getByIndex`, range variant over the indexed column (Figure 9).
    pub fn range_by_index(
        &self,
        base_table: &str,
        index_name: &str,
        lo: &[u8],
        hi: &[u8],
        inclusive: bool,
        limit: usize,
    ) -> Result<Vec<IndexHit>> {
        let handle = self.index(base_table, index_name)?;
        read::read_range(self.inner.store.as_ref(), &handle.spec, lo, hi, inclusive, limit)
    }

    /// Fetch full base rows for previously returned hits.
    pub fn fetch_rows(
        &self,
        base_table: &str,
        index_name: &str,
        hits: &[IndexHit],
    ) -> Result<Vec<diff_index_cluster::RowGroup>> {
        let handle = self.index(base_table, index_name)?;
        read::fetch_rows(self.inner.store.as_ref(), &handle.spec, hits)
    }

    /// `get_session()` (§5.2): a client session with read-your-writes
    /// semantics over `async-session` indexes.
    pub fn session(&self) -> Session {
        Session::new(self.clone(), self.inner.session_config.clone())
    }

    /// Block until every AUQ of every index on `base_table` is empty —
    /// i.e. the indexes have caught up with the base (test/bench helper; a
    /// real deployment would just wait). On a remote backend this is one
    /// round-trip to the server owning the AUQs.
    pub fn quiesce(&self, base_table: &str) {
        if self.inner.local.is_some() {
            for h in self.indexes_of(base_table) {
                h.auq().wait_idle();
            }
        } else {
            let _ = self.inner.store.admin_quiesce(base_table);
        }
    }
}
