//! Secondary hash indexes.
//!
//! An index on columns `(a, b)` maps each non-NULL key tuple to the row
//! positions holding it. SQL equality never matches NULL, so rows with a
//! NULL in any indexed column are simply absent from the map — an equality
//! seek could never return them anyway.

use std::collections::HashMap;

use orthopt_common::{Column, Value};

/// Hash index over a set of column positions.
#[derive(Debug)]
pub struct Index {
    /// Indexed column positions, in declaration order.
    pub cols: Vec<usize>,
    map: HashMap<Vec<Value>, Vec<usize>>,
    empty: Vec<usize>,
}

impl Index {
    /// Builds the index over the first `len` lanes of a table's
    /// columns: every lane goes through [`Index::insert_row`].
    pub fn build(cols: Vec<usize>, columns: &[Column], len: usize) -> Self {
        let mut index = Index {
            cols,
            map: HashMap::new(),
            empty: Vec::new(),
        };
        for pos in 0..len {
            index.insert_row(pos, columns);
        }
        index
    }

    /// Whether this index is over exactly the column set `cols`
    /// (order-insensitive) — the one identity test lookups, replacement
    /// and dropping share.
    pub fn is_on(&self, cols: &[usize]) -> bool {
        self.cols.len() == cols.len() && cols.iter().all(|c| self.cols.contains(c))
    }

    /// Row positions whose indexed columns equal `key` (key values given
    /// in the index's own column order). NULL key parts match nothing.
    pub fn lookup(&self, key: &[Value]) -> &[usize] {
        if key.iter().any(Value::is_null) {
            return &self.empty;
        }
        self.map.get(key).map_or(&self.empty[..], |v| &v[..])
    }

    /// Like [`Index::lookup`], but `key` is given in the order of
    /// `query_cols` (a permutation of the index columns) and is reordered
    /// internally.
    pub fn lookup_ordered(&self, query_cols: &[usize], key: &[Value]) -> &[usize] {
        debug_assert_eq!(query_cols.len(), self.cols.len());
        if query_cols == self.cols.as_slice() {
            return self.lookup(key);
        }
        let reordered: Vec<Value> = self
            .cols
            .iter()
            .map(|c| {
                let pos = query_cols.iter().position(|q| q == c).expect("permutation");
                key[pos].clone()
            })
            .collect();
        self.lookup(&reordered)
    }

    /// Number of distinct keys in the index.
    pub fn distinct_keys(&self) -> usize {
        self.map.len()
    }

    /// Indexes lane `pos` of the table's columns (a lane with a NULL
    /// key part is skipped). Postings are lane ids.
    pub fn insert_row(&mut self, pos: usize, columns: &[Column]) {
        let mut key = Vec::with_capacity(self.cols.len());
        for &c in &self.cols {
            if !columns[c].is_valid(pos) {
                return;
            }
            key.push(columns[c].value(pos));
        }
        self.map.entry(key).or_default().push(pos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(cols: Vec<usize>) -> Index {
        let columns = [
            Column::from_values(vec![
                Value::Int(1),
                Value::Int(2),
                Value::Int(1),
                Value::Null,
            ]),
            Column::from_values(["a", "b", "c", "d"].map(Value::str).to_vec()),
        ];
        Index::build(cols, &columns, 4)
    }

    #[test]
    fn lookup_groups_row_positions() {
        let ix = build(vec![0]);
        assert_eq!(ix.lookup(&[Value::Int(1)]), &[0, 2]);
        assert_eq!(ix.lookup(&[Value::Int(2)]), &[1]);
    }

    #[test]
    fn null_rows_are_unindexed_and_null_probe_matches_nothing() {
        let ix = build(vec![0]);
        assert_eq!(ix.distinct_keys(), 2);
        assert!(ix.lookup(&[Value::Null]).is_empty());
    }

    #[test]
    fn multi_column_lookup_with_permutation() {
        let ix = build(vec![0, 1]);
        let direct = ix.lookup(&[Value::Int(1), Value::str("c")]);
        assert_eq!(direct, &[2]);
        let permuted = ix.lookup_ordered(&[1, 0], &[Value::str("c"), Value::Int(1)]);
        assert_eq!(permuted, &[2]);
    }
}
