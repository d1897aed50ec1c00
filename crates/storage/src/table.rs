//! Table definitions and column storage.
//!
//! A table *is* its columns: `insert` appends each value to its
//! [`Column`], scans and index fetches slice or gather
//! [`Table::columns`], and indexes and statistics are computed from the
//! same lanes.

use std::sync::OnceLock;

use orthopt_common::column::{columns_to_rows, Column};
use orthopt_common::{DataType, Error, Result, Row, Value};

use crate::index::{Index, Postings};
use crate::stats::TableStats;

/// Schema of one column of a base table.
#[derive(Debug, Clone)]
pub struct ColumnDef {
    /// Column name as referenced in SQL (lower-cased by the catalog).
    pub name: String,
    /// Declared type.
    pub ty: DataType,
    /// Whether NULLs may appear. Non-nullable columns matter for the
    /// paper's `COUNT(*) → COUNT(c)` rewrite (identity (9)) and for
    /// outerjoin simplification.
    pub nullable: bool,
}

impl ColumnDef {
    /// Convenience constructor for a non-nullable column.
    pub fn new(name: impl Into<String>, ty: DataType) -> Self {
        ColumnDef {
            name: name.into().to_ascii_lowercase(),
            ty,
            nullable: false,
        }
    }

    /// Convenience constructor for a nullable column.
    pub fn nullable(name: impl Into<String>, ty: DataType) -> Self {
        ColumnDef {
            nullable: true,
            ..ColumnDef::new(name, ty)
        }
    }
}

/// Static definition of a table: name, columns, and declared keys
/// (each key is a set of column positions whose combination is unique).
#[derive(Debug, Clone)]
pub struct TableDef {
    /// Table name (lower-cased).
    pub name: String,
    /// Ordered column definitions.
    pub columns: Vec<ColumnDef>,
    /// Declared unique keys, as positional column index sets.
    pub keys: Vec<Vec<usize>>,
}

impl TableDef {
    /// Creates a definition; key positions are validated on table creation.
    pub fn new(name: impl Into<String>, columns: Vec<ColumnDef>, keys: Vec<Vec<usize>>) -> Self {
        TableDef {
            name: name.into().to_ascii_lowercase(),
            columns,
            keys,
        }
    }

    /// Finds a column position by (case-insensitive) name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        let lower = name.to_ascii_lowercase();
        self.columns.iter().position(|c| c.name == lower)
    }
}

/// One [`Column`] per schema column — the table's only stored form —
/// plus secondary hash indexes and gathered statistics.
#[derive(Debug)]
pub struct Table {
    /// Schema and key declarations.
    pub def: TableDef,
    columns: Vec<Column>,
    len: usize,
    indexes: Vec<Index>,
    stats: Option<TableStats>,
    /// Backs [`Table::rows`]; nothing the engine runs fills it.
    row_view: OnceLock<Vec<Row>>,
}

impl Table {
    /// Creates an empty table, validating column/key declarations.
    pub fn new(def: TableDef) -> Result<Self> {
        let ncols = def.columns.len();
        for key in &def.keys {
            if key.is_empty() || key.iter().any(|&i| i >= ncols) {
                return Err(Error::internal(format!(
                    "invalid key declaration on table {}",
                    def.name
                )));
            }
        }
        Ok(Table {
            columns: def.columns.iter().map(|c| Column::new(c.ty)).collect(),
            def,
            len: 0,
            indexes: Vec::new(),
            stats: None,
            row_view: OnceLock::new(),
        })
    }

    /// Room for `additional` more rows in every column, for a loader
    /// that knows how many it is about to insert.
    pub fn reserve(&mut self, additional: usize) {
        for c in &mut self.columns {
            c.reserve(additional);
        }
    }

    /// Appends a row after checking arity and types: each value goes
    /// onto the end of its column ([`Column::push`], copy-on-write — a
    /// window of [`Table::columns`] taken earlier keeps what it had).
    /// Statistics are invalidated (recompute via [`Table::analyze`]
    /// after bulk loads). Each hash index is rebuilt to take the row
    /// ([`Index::extend`]), which costs O(lanes) per index: a loader
    /// inserts its rows first and builds its indexes after, as
    /// `tpch::generate` does, or hands them all to [`Table::insert_all`].
    pub fn insert(&mut self, row: Row) -> Result<()> {
        self.insert_all([row])
    }

    /// Bulk insert: validates and appends each row in turn, then
    /// rebuilds each index once. On an error the rows before the
    /// failing one stay inserted and indexed.
    pub fn insert_all(&mut self, rows: impl IntoIterator<Item = Row>) -> Result<()> {
        let before = self.len;
        let appended = rows.into_iter().try_for_each(|r| self.push_row(r));
        if self.len > before {
            for ix in &mut self.indexes {
                ix.extend(&self.columns, self.len);
            }
            self.stats = None;
            self.row_view.take();
        }
        appended
    }

    /// Checks one row's arity and types and appends it to the columns,
    /// leaving indexes, statistics and the row view to the caller.
    fn push_row(&mut self, row: Row) -> Result<()> {
        if row.len() != self.def.columns.len() {
            return Err(Error::Exec(format!(
                "row arity {} does not match table {} ({} columns)",
                row.len(),
                self.def.name,
                self.def.columns.len()
            )));
        }
        for (v, c) in row.iter().zip(&self.def.columns) {
            match v.data_type() {
                None if !c.nullable => {
                    return Err(Error::Exec(format!(
                        "NULL in non-nullable column {}.{}",
                        self.def.name, c.name
                    )));
                }
                Some(t) if t != c.ty => {
                    return Err(Error::TypeMismatch(format!(
                        "{}.{} expects {}, got {t}",
                        self.def.name, c.name, c.ty
                    )));
                }
                _ => {}
            }
        }
        for (column, v) in self.columns.iter_mut().zip(row) {
            column.push(v);
        }
        self.len += 1;
        Ok(())
    }

    /// All rows, in insertion order — a view for checks and tests,
    /// materialised from the columns on first call and again after an
    /// insert. The engine never calls it (CI greps for that); it goes
    /// when the benchmark's hand-written oracle reads
    /// [`Table::columns`] instead (ROADMAP item 2a).
    pub fn rows(&self) -> &[Row] {
        self.row_view
            .get_or_init(|| columns_to_rows(&self.columns, self.len))
    }

    /// Number of stored rows.
    pub fn row_count(&self) -> usize {
        self.len
    }

    /// The stored columns, one per schema column, lanes in insertion
    /// order. Scans slice them zero-copy.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Builds (or rebuilds) a hash index over the given column positions.
    pub fn build_index(&mut self, cols: Vec<usize>) -> Result<()> {
        if cols.iter().any(|&i| i >= self.def.columns.len()) {
            return Err(Error::internal("index column out of range"));
        }
        // Replace an existing index on the same column set.
        self.drop_index(&cols);
        self.indexes
            .push(Index::build(cols, &self.columns, self.len));
        Ok(())
    }

    /// Drops the index on exactly these column positions, if present
    /// (used by experiments that isolate set-oriented strategies).
    pub fn drop_index(&mut self, cols: &[usize]) {
        self.indexes.retain(|ix| !ix.is_on(cols));
    }

    /// Finds an index whose columns are exactly `cols` (order-insensitive).
    pub fn index_on(&self, cols: &[usize]) -> Option<&Index> {
        self.indexes.iter().find(|ix| ix.is_on(cols))
    }

    /// All indexes on this table.
    pub fn indexes(&self) -> &[Index] {
        &self.indexes
    }

    /// Index *selection*: given the base-column positions equality
    /// predicates are available on, picks the index those predicates
    /// can drive — the widest index whose columns are all among
    /// `candidates` — and returns its columns in canonical (strictly
    /// ascending) order, the order correlated index-lookup plans probe
    /// in. `None` when no index is fully covered.
    pub fn select_index(&self, candidates: &[usize]) -> Option<Vec<usize>> {
        self.indexes
            .iter()
            .filter(|ix| ix.cols.iter().all(|c| candidates.contains(c)))
            .max_by_key(|ix| ix.cols.len())
            .map(|ix| {
                let mut cols = ix.cols.clone();
                cols.sort_unstable();
                cols
            })
    }

    /// Computes statistics over the current contents.
    pub fn analyze(&mut self) {
        self.stats = Some(TableStats::compute(&self.columns, self.len));
    }

    /// Gathered statistics, if [`Table::analyze`] has run since the last
    /// mutation.
    pub fn stats(&self) -> Option<&TableStats> {
        self.stats.as_ref()
    }

    /// Row indexes matching `key` through the index on `cols`, or `None`
    /// when no such index exists. NULL key parts never match (SQL
    /// equality semantics).
    pub fn index_lookup(&self, cols: &[usize], key: &[Value]) -> Option<Postings<'_>> {
        self.index_on(cols).map(|ix| ix.lookup_ordered(cols, key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_col_def() -> TableDef {
        TableDef::new(
            "t",
            vec![
                ColumnDef::new("a", DataType::Int),
                ColumnDef::nullable("b", DataType::Str),
            ],
            vec![vec![0]],
        )
    }

    #[test]
    fn insert_checks_arity() {
        let mut t = Table::new(two_col_def()).unwrap();
        assert!(t.insert(vec![Value::Int(1)]).is_err());
    }

    #[test]
    fn insert_checks_types() {
        let mut t = Table::new(two_col_def()).unwrap();
        assert!(t.insert(vec![Value::str("oops"), Value::str("x")]).is_err());
    }

    #[test]
    fn insert_checks_nullability() {
        let mut t = Table::new(two_col_def()).unwrap();
        assert!(t.insert(vec![Value::Null, Value::str("x")]).is_err());
        assert!(t.insert(vec![Value::Int(1), Value::Null]).is_ok());
    }

    #[test]
    fn bad_key_declaration_rejected() {
        let def = TableDef::new("t", vec![ColumnDef::new("a", DataType::Int)], vec![vec![3]]);
        assert!(Table::new(def).is_err());
    }

    #[test]
    fn column_lookup_is_case_insensitive() {
        let def = two_col_def();
        assert_eq!(def.column_index("A"), Some(0));
        assert_eq!(def.column_index("missing"), None);
    }

    #[test]
    fn index_roundtrip() {
        let mut t = Table::new(two_col_def()).unwrap();
        t.insert_all([
            vec![Value::Int(1), Value::str("x")],
            vec![Value::Int(2), Value::str("y")],
            vec![Value::Int(1), Value::str("z")],
        ])
        .unwrap();
        t.build_index(vec![0]).unwrap();
        let hits: Vec<usize> = t.index_lookup(&[0], &[Value::Int(1)]).unwrap().collect();
        assert_eq!(hits, [0, 2]);
        assert_eq!(t.index_lookup(&[0], &[Value::Int(9)]).unwrap().count(), 0);
    }

    #[test]
    fn select_index_picks_widest_covered_canonical() {
        let def = TableDef::new(
            "t",
            vec![
                ColumnDef::new("a", DataType::Int),
                ColumnDef::new("b", DataType::Int),
                ColumnDef::new("c", DataType::Int),
            ],
            vec![vec![0]],
        );
        let mut t = Table::new(def).unwrap();
        t.insert(vec![Value::Int(1), Value::Int(2), Value::Int(3)])
            .unwrap();
        t.build_index(vec![0]).unwrap();
        // Declared in permuted order; selection reports canonical order.
        t.build_index(vec![1, 0]).unwrap();
        assert_eq!(t.select_index(&[0]), Some(vec![0]));
        assert_eq!(t.select_index(&[1, 0, 2]), Some(vec![0, 1]));
        assert_eq!(t.select_index(&[2]), None);
        assert_eq!(t.select_index(&[1]), None);
    }

    /// One index per column *set*, as `index_on` and `drop_index` see
    /// it: a permuted redeclaration replaces.
    #[test]
    fn build_index_replaces_by_column_set() {
        let mut t = Table::new(two_col_def()).unwrap();
        t.insert(vec![Value::Int(1), Value::str("x")]).unwrap();
        t.build_index(vec![0, 1]).unwrap();
        t.build_index(vec![1, 0]).unwrap();
        assert_eq!(t.indexes().len(), 1);
        assert_eq!(t.indexes()[0].cols, [1, 0]);
        t.drop_index(&[0, 1]);
        assert!(t.indexes().is_empty());
    }

    #[test]
    fn analyze_populates_stats() {
        let mut t = Table::new(two_col_def()).unwrap();
        t.insert_all([
            vec![Value::Int(1), Value::Null],
            vec![Value::Int(2), Value::str("y")],
        ])
        .unwrap();
        t.analyze();
        let s = t.stats().unwrap();
        assert_eq!(s.row_count, 2);
        assert_eq!(s.columns[0].ndv, 2);
        assert_eq!(s.columns[1].null_count, 1);
    }
}

#[cfg(test)]
mod incremental_index_tests {
    use super::*;
    use orthopt_common::{DataType, Value};

    #[test]
    fn inserts_after_index_build_are_visible() {
        let def = TableDef::new(
            "t",
            vec![
                ColumnDef::new("a", DataType::Int),
                ColumnDef::nullable("b", DataType::Int),
            ],
            vec![vec![0]],
        );
        let mut t = Table::new(def).unwrap();
        t.insert(vec![Value::Int(1), Value::Int(10)]).unwrap();
        t.build_index(vec![1]).unwrap();
        t.insert(vec![Value::Int(2), Value::Int(10)]).unwrap();
        t.insert(vec![Value::Int(3), Value::Null]).unwrap();
        let hits: Vec<usize> = t.index_lookup(&[1], &[Value::Int(10)]).unwrap().collect();
        assert_eq!(hits, [0, 1]);
        // The NULL-keyed row stays unindexed.
        assert_eq!(t.index_on(&[1]).unwrap().distinct_keys(), 1);
    }
}

#[cfg(test)]
mod column_store_tests {
    use super::*;

    /// A key plus one nullable column of every `DataType`.
    fn every_type() -> Table {
        let mut columns = vec![ColumnDef::new("k", DataType::Int)];
        columns.extend(
            [
                DataType::Int,
                DataType::Float,
                DataType::Bool,
                DataType::Str,
                DataType::Date,
            ]
            .into_iter()
            .enumerate()
            .map(|(i, ty)| ColumnDef::nullable(format!("c{i}"), ty)),
        );
        Table::new(TableDef::new("t", columns, vec![vec![0]])).unwrap()
    }

    fn full(k: i64) -> Row {
        vec![
            Value::Int(k),
            Value::Int(10 * k),
            Value::Float(k as f64 + 0.5),
            Value::Bool(k % 2 == 0),
            Value::str(format!("s{k}")),
            Value::Date(k as i32),
        ]
    }

    fn nulls(k: i64) -> Row {
        let mut row = vec![Value::Null; 6];
        row[0] = Value::Int(k);
        row
    }

    fn lanes(c: &Column) -> Vec<Value> {
        (0..c.len()).map(|i| c.value(i)).collect()
    }

    /// Copy-on-write: a window taken before an insert keeps its length
    /// and values; a fresh `columns()` sees the new lane.
    #[test]
    fn outstanding_windows_survive_an_insert() {
        let mut t = every_type();
        t.insert_all([full(1), nulls(2)]).unwrap();
        let held: Vec<Column> = t.columns().to_vec();
        let tail: Vec<Column> = t.columns().iter().map(|c| c.slice(1, 1)).collect();
        t.insert(full(3)).unwrap();
        t.insert(nulls(4)).unwrap();
        for j in 0..6 {
            assert_eq!(lanes(&held[j]), [full(1)[j].clone(), nulls(2)[j].clone()]);
            assert_eq!(lanes(&tail[j]), [nulls(2)[j].clone()]);
            let want: Vec<Value> = [full(1), nulls(2), full(3), nulls(4)]
                .iter()
                .map(|r| r[j].clone())
                .collect();
            assert_eq!(lanes(&t.columns()[j]), want, "column {j}");
        }
        assert_eq!(t.row_count(), 4);
    }

    /// `columns()` is a field read: indexing and analysing between two
    /// calls rebuilds nothing.
    #[test]
    fn columns_are_served_from_the_same_allocation() {
        let mut t = every_type();
        t.insert_all([full(1), nulls(2), full(3)]).unwrap();
        let storage = |t: &Table| -> Vec<*const orthopt_common::ColData> {
            t.columns()
                .iter()
                .map(|c| std::ptr::from_ref(c.parts().0))
                .collect()
        };
        let (slice, payloads) = (t.columns().as_ptr(), storage(&t));
        t.build_index(vec![1]).unwrap();
        t.analyze();
        assert_eq!(t.columns().as_ptr(), slice);
        assert_eq!(storage(&t), payloads);
    }

    #[test]
    fn rows_round_trip_and_follow_inserts() {
        let mut t = every_type();
        t.insert_all([full(1), nulls(2)]).unwrap();
        assert_eq!(t.rows(), [full(1), nulls(2)]);
        t.insert(full(3)).unwrap();
        assert_eq!(t.rows(), [full(1), nulls(2), full(3)]);
    }

    /// `Index::build` over whole columns and the appends `insert` makes
    /// are one routine: same postings, NULL key parts unindexed either
    /// way.
    #[test]
    fn built_and_incremental_indexes_agree() {
        let mut half = full(5);
        half[4] = Value::Null;
        let rows = [full(1), nulls(2), full(1), full(3), half, nulls(4)];
        let mut built = every_type();
        built.insert_all(rows.clone()).unwrap();
        built.build_index(vec![1, 4]).unwrap();
        let mut grown = every_type();
        grown.build_index(vec![1, 4]).unwrap();
        grown.insert_all(rows.clone()).unwrap();
        let (a, b) = (
            built.index_on(&[1, 4]).unwrap(),
            grown.index_on(&[1, 4]).unwrap(),
        );
        assert_eq!(a.distinct_keys(), 2);
        assert_eq!(b.distinct_keys(), 2);
        for r in &rows {
            let key = [r[1].clone(), r[4].clone()];
            assert!(a.lookup(&key).eq(b.lookup(&key)), "{key:?}");
        }
        let hits: Vec<usize> = a.lookup(&[Value::Int(10), Value::str("s1")]).collect();
        assert_eq!(hits, [0, 2]);
    }
}
