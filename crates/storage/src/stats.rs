//! Table statistics for cardinality estimation.

use std::collections::HashSet;

use orthopt_common::{Column, Value};

/// Per-column statistics.
#[derive(Debug, Clone)]
pub struct ColumnStats {
    /// Number of distinct non-NULL values.
    pub ndv: u64,
    /// Number of NULLs.
    pub null_count: u64,
    /// Minimum non-NULL value (total order), if any rows exist.
    pub min: Option<Value>,
    /// Maximum non-NULL value, if any rows exist.
    pub max: Option<Value>,
}

/// Statistics for a whole table.
#[derive(Debug, Clone)]
pub struct TableStats {
    /// Total row count.
    pub row_count: u64,
    /// One entry per column, in schema order.
    pub columns: Vec<ColumnStats>,
}

impl TableStats {
    /// Exact statistics from a full scan of the stored columns (`len`
    /// is the row count, which a zero-column table has too) — fine at
    /// in-memory scale, and it keeps the cost model's inputs honest in
    /// experiments. Minimum and maximum are found by lane comparison
    /// ([`Column::cmp_lanes`] is `Value::total_cmp`), first-seen on ties.
    pub fn compute(columns: &[Column], len: usize) -> TableStats {
        let columns = columns
            .iter()
            .map(|c| {
                let mut distinct: HashSet<Value> = HashSet::new();
                let (mut nulls, mut min, mut max) = (0, None, None);
                for i in 0..c.len() {
                    if !c.is_valid(i) {
                        nulls += 1;
                        continue;
                    }
                    distinct.insert(c.value(i));
                    if min.is_none_or(|m| c.cmp_lanes(m, c, i).is_gt()) {
                        min = Some(i);
                    }
                    if max.is_none_or(|m| c.cmp_lanes(m, c, i).is_lt()) {
                        max = Some(i);
                    }
                }
                ColumnStats {
                    ndv: distinct.len() as u64,
                    null_count: nulls,
                    min: min.map(|i| c.value(i)),
                    max: max.map(|i| c.value(i)),
                }
            })
            .collect();
        TableStats {
            row_count: len as u64,
            columns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orthopt_common::DataType;

    #[test]
    fn compute_counts_ndv_nulls_min_max() {
        let columns = [
            Column::from_values(vec![Value::Int(3), Value::Int(1), Value::Int(3)]),
            Column::from_values(vec![Value::Null, Value::Int(10), Value::Int(20)]),
        ];
        let s = TableStats::compute(&columns, 3);
        assert_eq!(s.row_count, 3);
        assert_eq!(s.columns[0].ndv, 2);
        assert_eq!(s.columns[0].min, Some(Value::Int(1)));
        assert_eq!(s.columns[0].max, Some(Value::Int(3)));
        assert_eq!(s.columns[1].null_count, 1);
        assert_eq!(s.columns[1].ndv, 2);
    }

    #[test]
    fn empty_table_stats() {
        let s = TableStats::compute(&[Column::new(DataType::Int)], 0);
        assert_eq!(s.row_count, 0);
        assert_eq!(s.columns[0].ndv, 0);
        assert!(s.columns[0].min.is_none());
    }
}
