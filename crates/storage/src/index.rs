//! Hash indexes over columns.
//!
//! One structure serves a stored table's secondary indexes and a hash
//! join's build: a [`GroupTable`] gives each distinct key a dense id,
//! and the lanes holding a key are one contiguous run of a single lane
//! list (a CSR layout: key `k`'s lanes are `lanes[start[k]..start[k +
//! 1]]`), ascending. A probe therefore reads a key's lanes as one
//! slice, not as a chain of dependent loads across the table. An index
//! is built from whole key columns with a counting sort, and grows by
//! rebuilding the list with the new lanes after each key's old run, so
//! a table keeps its indexes current on insert at O(lanes) a call. SQL
//! equality never matches NULL, so lanes with a NULL in any indexed
//! column are simply absent — an equality probe could never return them
//! anyway.

use orthopt_common::hash::{hash_lanes, hash_values, keys_valid, GroupTable};
use orthopt_common::{Column, Value};

/// Hash index over a set of column positions.
#[derive(Debug)]
pub struct Index {
    /// Indexed column positions, in declaration order.
    pub cols: Vec<usize>,
    /// Distinct non-NULL keys, in first-seen order.
    keys: GroupTable,
    /// Per key id, plus one: where its run of `lanes` starts.
    start: Vec<u32>,
    /// Every indexed lane, grouped by key id, ascending within a key.
    lanes: Vec<u32>,
    /// Lanes of the columns indexed so far, NULL-keyed ones included.
    len: usize,
}

/// The lanes holding one key, ascending.
#[derive(Debug)]
pub struct Postings<'a>(std::slice::Iter<'a, u32>);

impl Iterator for Postings<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        self.0.next().map(|&lane| lane as usize)
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl Index {
    /// Builds the index over the first `len` lanes of `columns` (a
    /// table's columns, or a join build's), keyed on positions `cols`.
    pub fn build(cols: Vec<usize>, columns: &[Column], len: usize) -> Self {
        let mut index = Index {
            cols,
            keys: GroupTable::new(),
            start: vec![0],
            lanes: Vec::new(),
            len: 0,
        };
        index.extend(columns, len);
        index
    }

    /// Indexes lanes from the first one not yet indexed up to `len`:
    /// the key columns' new lanes are hashed as a whole and given key
    /// ids, then the lane list is rebuilt by a counting sort — each
    /// key's old run, then its new lanes in order. O(indexed lanes) per
    /// call, so a loader should insert its rows before building.
    pub fn extend(&mut self, columns: &[Column], len: usize) {
        let from = self.len;
        if len <= from {
            return;
        }
        let n = len - from;
        let key_cols: Vec<Column> = self
            .cols
            .iter()
            .map(|&c| columns[c].slice(from, n))
            .collect();
        let key_refs: Vec<&Column> = key_cols.iter().collect();
        // Each new lane's key id, `None` for a NULL key part.
        let ids: Vec<Option<u32>> = hash_lanes(&key_refs, n)
            .into_iter()
            .enumerate()
            .map(|(i, h)| keys_valid(&key_refs, i).then(|| self.keys.assign_lane(&key_refs, i, h)))
            .collect();
        // Count each key's lanes (its old run and its new lanes) into
        // the slot after it; the running sum is then each run's start.
        let keys = self.keys.len();
        let mut start = vec![0u32; keys + 1];
        for (k, old) in self.start.windows(2).enumerate() {
            start[k + 1] = old[1] - old[0];
        }
        for &k in ids.iter().flatten() {
            start[k as usize + 1] += 1;
        }
        let mut sum = 0;
        for s in &mut start {
            sum += *s;
            *s = sum;
        }
        let mut lanes = vec![0u32; sum as usize];
        let mut fill: Vec<u32> = start[..keys].to_vec();
        for (k, old) in self.start.windows(2).enumerate() {
            let at = fill[k] as usize;
            let run = &self.lanes[old[0] as usize..old[1] as usize];
            lanes[at..at + run.len()].copy_from_slice(run);
            fill[k] += old[1] - old[0];
        }
        for (i, k) in ids.into_iter().enumerate() {
            if let Some(k) = k {
                lanes[fill[k as usize] as usize] = (from + i) as u32;
                fill[k as usize] += 1;
            }
        }
        self.start = start;
        self.lanes = lanes;
        self.len = len;
    }

    /// Whether this index is over exactly the column set `cols`
    /// (order-insensitive) — the one identity test lookups, replacement
    /// and dropping share.
    pub fn is_on(&self, cols: &[usize]) -> bool {
        self.cols.len() == cols.len() && cols.iter().all(|c| self.cols.contains(c))
    }

    /// For each indexed column, its position in `query_cols` (a
    /// permutation of the index columns): the order to hand a key given
    /// in `query_cols`' order to [`Index::probe`].
    pub fn key_order(&self, query_cols: &[usize]) -> Vec<usize> {
        debug_assert_eq!(query_cols.len(), self.cols.len());
        self.cols
            .iter()
            .map(|c| query_cols.iter().position(|q| q == c).expect("permutation"))
            .collect()
    }

    /// Lanes whose indexed columns equal lane `i` of `key_cols` (given
    /// in the index's own column order), `h` being that lane's
    /// [`hash_lanes`]. The caller skips lanes with a NULL key part.
    #[inline]
    pub fn probe(&self, key_cols: &[&Column], i: usize, h: u64) -> Postings<'_> {
        self.postings(self.keys.find(key_cols, i, h))
    }

    /// Lanes whose indexed columns equal `key` (key values given in the
    /// index's own column order). NULL key parts match nothing.
    pub fn lookup(&self, key: &[Value]) -> Postings<'_> {
        if key.iter().any(Value::is_null) {
            return self.postings(None);
        }
        self.postings(self.keys.find_values(key, hash_values(key)))
    }

    /// Like [`Index::lookup`], but `key` is given in the order of
    /// `query_cols` (a permutation of the index columns).
    pub fn lookup_ordered(&self, query_cols: &[usize], key: &[Value]) -> Postings<'_> {
        if query_cols == self.cols.as_slice() {
            return self.lookup(key);
        }
        let reordered: Vec<Value> = self
            .key_order(query_cols)
            .into_iter()
            .map(|p| key[p].clone())
            .collect();
        self.lookup(&reordered)
    }

    #[inline]
    fn postings(&self, key: Option<u32>) -> Postings<'_> {
        let run = key.map_or(0..0, |k| {
            self.start[k as usize] as usize..self.start[k as usize + 1] as usize
        });
        Postings(self.lanes[run].iter())
    }

    /// Number of distinct keys in the index.
    pub fn distinct_keys(&self) -> usize {
        self.keys.len()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;
    use orthopt_common::Prng;

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

    fn hits(p: Postings<'_>) -> Vec<usize> {
        p.collect()
    }

    #[test]
    fn lookup_groups_row_positions() {
        let ix = build(vec![0]);
        assert_eq!(hits(ix.lookup(&[Value::Int(1)])), [0, 2]);
        assert_eq!(hits(ix.lookup(&[Value::Int(2)])), [1]);
    }

    #[test]
    fn null_rows_are_unindexed_and_null_probe_matches_nothing() {
        let ix = build(vec![0]);
        assert_eq!(ix.distinct_keys(), 2);
        assert!(hits(ix.lookup(&[Value::Null])).is_empty());
    }

    #[test]
    fn multi_column_lookup_with_permutation() {
        let ix = build(vec![0, 1]);
        let direct = ix.lookup(&[Value::Int(1), Value::str("c")]);
        assert_eq!(hits(direct), [2]);
        let permuted = ix.lookup_ordered(&[1, 0], &[Value::str("c"), Value::Int(1)]);
        assert_eq!(hits(permuted), [2]);
    }

    /// A key part drawn from a small pool: NULLs, `Int`s and `Float`s
    /// that are grouping-equal to them, and strings.
    fn pick(rng: &mut Prng, kind: usize) -> Value {
        match (kind, rng.int_range(0, 5)) {
            (_, 0) => Value::Null,
            (0, k) => Value::Int(k % 3),
            (1, k) if k % 2 == 0 => Value::Float((k % 3) as f64),
            (1, k) => Value::Int(k % 3),
            (_, k) => Value::str(["x", "y", "z"][(k % 3) as usize]),
        }
    }

    /// The flat index equals a `HashMap<Vec<Value>, Vec<usize>>` model
    /// on random columns — NULLs, grouping-equal `Int`/`Float` keys,
    /// strings, one- and two-column keys — probed by lane and by value,
    /// in permuted order, built whole and grown in steps.
    #[test]
    fn flat_index_matches_hash_map_model() {
        let mut rng = Prng::new(25);
        for cols in [vec![0], vec![1], vec![2], vec![0, 2], vec![2, 1]] {
            let len = 400;
            let rows: Vec<Vec<Value>> = (0..len)
                .map(|_| (0..3).map(|k| pick(&mut rng, k)).collect())
                .collect();
            let columns: Vec<Column> = (0..3)
                .map(|k| Column::from_values(rows.iter().map(|r| r[k].clone()).collect()))
                .collect();
            let mut model: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
            for (i, r) in rows.iter().enumerate() {
                let key: Vec<Value> = cols.iter().map(|&c| r[c].clone()).collect();
                if !key.iter().any(Value::is_null) {
                    model.entry(key).or_default().push(i);
                }
            }
            let whole = Index::build(cols.clone(), &columns, len);
            let mut grown = Index::build(cols.clone(), &columns, 0);
            for step in [1, 7, 100, 250, len] {
                grown.extend(&columns, step);
            }
            let key_cols: Vec<&Column> = cols.iter().map(|&c| &columns[c]).collect();
            let hashes = hash_lanes(&key_cols, len);
            let mut order: Vec<usize> = (0..len).collect();
            rng.shuffle(&mut order);
            for ix in [&whole, &grown] {
                assert_eq!(ix.distinct_keys(), model.len(), "{cols:?}");
                for &i in &order {
                    let key: Vec<Value> = cols.iter().map(|&c| rows[i][c].clone()).collect();
                    let want = model.get(&key).cloned().unwrap_or_default();
                    assert_eq!(hits(ix.lookup(&key)), want, "{cols:?} {key:?}");
                    if keys_valid(&key_cols, i) {
                        assert_eq!(hits(ix.probe(&key_cols, i, hashes[i])), want, "{key:?}");
                    }
                    let mut sorted = cols.clone();
                    sorted.sort_unstable();
                    let by_sorted: Vec<Value> =
                        sorted.iter().map(|&c| rows[i][c].clone()).collect();
                    assert_eq!(hits(ix.lookup_ordered(&sorted, &by_sorted)), want);
                }
            }
        }
    }

    /// Rows appended one at a time through `Table::insert`, or in runs
    /// through `Table::insert_all` — one of which fails partway, keeping
    /// the rows before the bad one — keep every index of the table equal
    /// to the model, and an `Int` key is found by its grouping-equal
    /// `Float`.
    #[test]
    fn table_inserts_keep_indexes_equal_to_the_model() {
        use crate::table::{ColumnDef, Table, TableDef};
        use orthopt_common::DataType;
        let indexed = || {
            let def = TableDef::new(
                "t",
                vec![
                    ColumnDef::nullable("a", DataType::Int),
                    ColumnDef::nullable("s", DataType::Str),
                ],
                vec![],
            );
            let mut t = Table::new(def).unwrap();
            t.build_index(vec![0]).unwrap();
            t.build_index(vec![1, 0]).unwrap();
            t
        };
        let mut rng = Prng::new(26);
        let rows: Vec<Vec<Value>> = (0..300)
            .map(|_| vec![pick(&mut rng, 0), pick(&mut rng, 2)])
            .collect();
        let mut one_by_one = indexed();
        for r in &rows {
            one_by_one.insert(r.clone()).unwrap();
        }
        let mut bulk = indexed();
        bulk.insert_all(rows[..120].iter().cloned()).unwrap();
        let bad = vec![Value::Int(0)];
        let cut = rows[120..200].iter().cloned().chain([bad]);
        assert!(bulk
            .insert_all(cut.chain(rows[200..].iter().cloned()))
            .is_err());
        check_table_indexes(&bulk, &rows[..200]);
        bulk.insert_all(rows[200..].iter().cloned()).unwrap();
        for t in [&one_by_one, &bulk] {
            check_table_indexes(t, &rows);
        }
    }

    fn check_table_indexes(t: &crate::table::Table, rows: &[Vec<Value>]) {
        let as_float = |v: &Value| match v {
            Value::Int(k) => Value::Float(*k as f64),
            other => other.clone(),
        };
        assert_eq!(t.row_count(), rows.len());
        for cols in [vec![0], vec![1, 0]] {
            let mut model: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
            for (i, r) in rows.iter().enumerate() {
                let key: Vec<Value> = cols.iter().map(|&c| r[c].clone()).collect();
                if !key.iter().any(Value::is_null) {
                    model.entry(key).or_default().push(i);
                }
            }
            let ix = t.index_on(&cols).unwrap();
            assert_eq!(ix.distinct_keys(), model.len(), "{cols:?}");
            for r in rows {
                let key: Vec<Value> = cols.iter().map(|&c| as_float(&r[c])).collect();
                let want = model
                    .get(&cols.iter().map(|&c| r[c].clone()).collect::<Vec<_>>())
                    .cloned()
                    .unwrap_or_default();
                let got: Vec<usize> = t.index_lookup(&cols, &key).unwrap().collect();
                assert_eq!(got, want, "{cols:?} {key:?}");
            }
        }
    }
}
