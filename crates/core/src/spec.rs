//! Index definitions: what is indexed, and with which maintenance scheme.

use bytes::Bytes;
use std::fmt;

/// The four Diff-Index maintenance schemes (§3.4, Figure 4), ordered from
/// strongest to weakest consistency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexScheme {
    /// All index-update tasks complete synchronously (Algorithm 1):
    /// `PI`, `RB`, `DI` before the put is acknowledged. Causal consistent.
    SyncFull,
    /// Insert the new index entry synchronously; stale entries are
    /// lazily repaired at read time (Algorithm 2). Causal consistent
    /// *with read-repair*.
    SyncInsert,
    /// Enqueue index work on the AUQ and acknowledge immediately
    /// (Algorithms 3–4). Eventually consistent.
    AsyncSimple,
    /// `AsyncSimple` plus a client-side session cache providing
    /// read-your-writes semantics (§5.2). Session consistent.
    AsyncSession,
}

impl IndexScheme {
    /// The consistency level this scheme provides (Figure 4).
    pub fn consistency(self) -> ConsistencyLevel {
        match self {
            IndexScheme::SyncFull => ConsistencyLevel::Causal,
            IndexScheme::SyncInsert => ConsistencyLevel::CausalWithReadRepair,
            IndexScheme::AsyncSimple => ConsistencyLevel::Eventual,
            IndexScheme::AsyncSession => ConsistencyLevel::Session,
        }
    }

    /// All four schemes, strongest first.
    pub fn all() -> [IndexScheme; 4] {
        [
            IndexScheme::SyncFull,
            IndexScheme::SyncInsert,
            IndexScheme::AsyncSimple,
            IndexScheme::AsyncSession,
        ]
    }

    /// Short name used in the paper's figures (`full`, `insert`, `async`,
    /// `session`).
    pub fn short_name(self) -> &'static str {
        match self {
            IndexScheme::SyncFull => "full",
            IndexScheme::SyncInsert => "insert",
            IndexScheme::AsyncSimple => "async",
            IndexScheme::AsyncSession => "session",
        }
    }
}

impl fmt::Display for IndexScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.short_name())
    }
}

/// Consistency levels of the Diff-Index spectrum (§3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ConsistencyLevel {
    /// Once a put returns SUCCESS, data and index are both persisted.
    Causal,
    /// Causal as long as the reader double-checks index hits against the
    /// base table (which `get_by_index` does automatically).
    CausalWithReadRepair,
    /// A session observes its own writes; others are eventual.
    Session,
    /// The index catches up eventually.
    Eventual,
}

/// Definition of one secondary index.
///
/// The index is *global* (§3.1): its table is partitioned across the whole
/// cluster by index value, independently of the base table's partitioning.
/// It is *key-only* (§4, Remark): an index row's key is
/// `value₁ ⊕ … ⊕ valueₙ ⊕ base-row-key` and its value is null.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexSpec {
    /// Index name, unique per base table.
    pub name: String,
    /// Base table this index covers.
    pub base_table: String,
    /// Indexed column(s). More than one makes this a composite index (§7,
    /// "support for composite index"); a base row is indexed iff *all*
    /// indexed columns are present.
    pub columns: Vec<Bytes>,
    /// Maintenance scheme, chosen per index (§3.4: "schemes can be chosen
    /// in a per index manner").
    pub scheme: IndexScheme,
}

impl IndexSpec {
    /// Single-column index.
    pub fn single(
        name: impl Into<String>,
        base_table: impl Into<String>,
        column: impl Into<Bytes>,
        scheme: IndexScheme,
    ) -> Self {
        Self {
            name: name.into(),
            base_table: base_table.into(),
            columns: vec![column.into()],
            scheme,
        }
    }

    /// Composite index over several columns (in the given significance
    /// order).
    pub fn composite(
        name: impl Into<String>,
        base_table: impl Into<String>,
        columns: Vec<Bytes>,
        scheme: IndexScheme,
    ) -> Self {
        assert!(!columns.is_empty(), "composite index needs at least one column");
        Self { name: name.into(), base_table: base_table.into(), columns, scheme }
    }

    /// Name of the backing index table.
    pub fn index_table(&self) -> String {
        format!("__idx__{}__{}", self.base_table, self.name)
    }

    /// True if a put/delete touching `columns` affects this index.
    pub fn touches<'a>(&self, columns: impl IntoIterator<Item = &'a Bytes>) -> bool {
        columns.into_iter().any(|c| self.columns.contains(c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consistency_mapping_matches_figure_4() {
        assert_eq!(IndexScheme::SyncFull.consistency(), ConsistencyLevel::Causal);
        assert_eq!(
            IndexScheme::SyncInsert.consistency(),
            ConsistencyLevel::CausalWithReadRepair
        );
        assert_eq!(IndexScheme::AsyncSimple.consistency(), ConsistencyLevel::Eventual);
        assert_eq!(IndexScheme::AsyncSession.consistency(), ConsistencyLevel::Session);
    }

    #[test]
    fn short_names_match_paper_legends() {
        let names: Vec<&str> = IndexScheme::all().iter().map(|s| s.short_name()).collect();
        assert_eq!(names, vec!["full", "insert", "async", "session"]);
        assert_eq!(IndexScheme::SyncFull.to_string(), "full");
    }

    #[test]
    fn index_table_name_is_namespaced() {
        let s = IndexSpec::single("title", "item", "item_title", IndexScheme::SyncFull);
        assert_eq!(s.index_table(), "__idx__item__title");
    }

    #[test]
    fn touches_detects_overlap() {
        let s = IndexSpec::composite(
            "t",
            "b",
            vec![Bytes::from("a"), Bytes::from("b")],
            IndexScheme::SyncInsert,
        );
        assert!(s.touches(&[Bytes::from("b"), Bytes::from("z")]));
        assert!(!s.touches(&[Bytes::from("z")]));
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn empty_composite_panics() {
        IndexSpec::composite("t", "b", vec![], IndexScheme::SyncFull);
    }
}
