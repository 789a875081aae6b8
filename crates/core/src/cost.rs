//! Analytic I/O cost of each scheme — the paper's Table 2.
//!
//! The benchmark harness (`table2` binary) validates these numbers against
//! counters measured on the real engine. The simulator keeps its own step
//! expansion of the same table (`diff_index_sim::ops`); a test there holds
//! the two encodings to the same operation counts.

use crate::spec::IndexScheme;

/// Operation counts for one action (Table 2 row). `K` (rows returned by an
/// index read) parameterizes the `sync-insert` read row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoCost {
    /// Puts into the base table.
    pub base_put: u32,
    /// Reads from the base table.
    pub base_read: u32,
    /// Puts into the index table (the paper folds index deletes into this
    /// column, writing "1+1").
    pub index_put: u32,
    /// Reads from the index table.
    pub index_read: u32,
    /// Of the counts above, how many `(base_read, index_put)` happen
    /// asynchronously — the bracketed "[ ]" entries of Table 2.
    pub async_base_read: u32,
    /// Asynchronous index puts/deletes.
    pub async_index_put: u32,
}

impl IoCost {
    /// Synchronous operations only — what the client latency is made of.
    pub fn synchronous_ops(&self) -> u32 {
        self.base_put + (self.base_read - self.async_base_read)
            + (self.index_put - self.async_index_put)
            + self.index_read
    }

    /// Total operations including background work (system load).
    pub fn total_ops(&self) -> u32 {
        self.base_put + self.base_read + self.index_put + self.index_read
    }
}

/// Table 2, "update" action: cost of one base put under each scheme.
pub fn update_cost(scheme: Option<IndexScheme>) -> IoCost {
    match scheme {
        // no-index baseline: update = 1 base put.
        None => IoCost { base_put: 1, ..IoCost::default() },
        // sync-full: PB + PI + RB + DI (Algorithm 1); "1+1" index puts.
        Some(IndexScheme::SyncFull) => IoCost {
            base_put: 1,
            base_read: 1,
            index_put: 2,
            ..IoCost::default()
        },
        // sync-insert: PB + PI only (SU3/SU4 skipped).
        Some(IndexScheme::SyncInsert) => IoCost {
            base_put: 1,
            index_put: 1,
            ..IoCost::default()
        },
        // async-simple / async-session: PB sync; RB + DI + PI async ("[ ]").
        Some(IndexScheme::AsyncSimple) | Some(IndexScheme::AsyncSession) => IoCost {
            base_put: 1,
            base_read: 1,
            index_put: 2,
            index_read: 0,
            async_base_read: 1,
            async_index_put: 2,
        },
    }
}

/// Table 2, "read" action: cost of one exact-match index read returning `k`
/// rows. (The no-index row of Table 2 has a dash: answering the query
/// without an index is a full scan, not a constant-cost action.)
pub fn read_cost(scheme: IndexScheme, k: u32) -> IoCost {
    match scheme {
        // One index-table read; no double-check needed.
        IndexScheme::SyncFull => IoCost { index_read: 1, ..IoCost::default() },
        // Algorithm 2: 1 index read, K base reads, up to K stale-entry
        // deletes (we count the worst case, as Table 2 does).
        IndexScheme::SyncInsert => IoCost {
            base_read: k,
            index_put: k,
            index_read: 1,
            ..IoCost::default()
        },
        // Async schemes read the (possibly stale) index directly.
        IndexScheme::AsyncSimple | IndexScheme::AsyncSession => {
            IoCost { index_read: 1, ..IoCost::default() }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_update_row_no_index() {
        let c = update_cost(None);
        assert_eq!((c.base_put, c.base_read, c.index_put, c.index_read), (1, 0, 0, 0));
    }

    #[test]
    fn table2_update_row_sync_full() {
        let c = update_cost(Some(IndexScheme::SyncFull));
        assert_eq!((c.base_put, c.base_read, c.index_put, c.index_read), (1, 1, 2, 0));
        assert_eq!(c.synchronous_ops(), 4, "all work is on the client path");
    }

    #[test]
    fn table2_update_row_sync_insert() {
        let c = update_cost(Some(IndexScheme::SyncInsert));
        assert_eq!((c.base_put, c.base_read, c.index_put, c.index_read), (1, 0, 1, 0));
        assert_eq!(c.synchronous_ops(), 2);
    }

    #[test]
    fn table2_update_row_async() {
        let c = update_cost(Some(IndexScheme::AsyncSimple));
        assert_eq!((c.base_put, c.base_read, c.index_put, c.index_read), (1, 1, 2, 0));
        assert_eq!(c.synchronous_ops(), 1, "only the base put is synchronous");
        assert_eq!(c.total_ops(), 4, "background work still happens");
    }

    #[test]
    fn table2_read_rows() {
        let f = read_cost(IndexScheme::SyncFull, 5);
        assert_eq!((f.base_read, f.index_read, f.index_put), (0, 1, 0));
        let i = read_cost(IndexScheme::SyncInsert, 5);
        assert_eq!((i.base_read, i.index_read, i.index_put), (5, 1, 5));
        let a = read_cost(IndexScheme::AsyncSimple, 5);
        assert_eq!((a.base_read, a.index_read), (0, 1));
    }
}
