//! Aggregation core shared by the reference interpreter and the
//! physical engine.
//!
//! Implements the SQL semantics the paper leans on (§1.1): vector
//! aggregation is empty on empty input; scalar aggregation always emits
//! exactly one row with `agg(∅)` results; NULL inputs are skipped by all
//! aggregates; `COUNT(*)` counts rows. `LocalGroupBy` "need not be
//! different from a GroupBy" in the engine (§3.3) — it runs through the
//! same code path.

use std::collections::{HashMap, HashSet};

use orthopt_common::column::Column;
use orthopt_common::row::row_bytes;
use orthopt_common::{Error, MemoryReservation, Result, Row, Value};
use orthopt_ir::{AggDef, AggFunc, GroupKind};

use crate::vector::{hash_lanes, hash_values};

/// Running state of one aggregate over one group.
#[derive(Debug, Clone)]
pub enum AggAcc {
    /// COUNT(*) / COUNT(expr): running row count.
    Count(i64),
    /// SUM: running total (None until the first non-NULL input).
    Sum(Option<Value>),
    /// MIN.
    Min(Option<Value>),
    /// MAX.
    Max(Option<Value>),
    /// AVG: running (sum, count) over non-NULL inputs.
    Avg(f64, i64),
}

impl AggAcc {
    /// Fresh accumulator for a function.
    pub fn new(func: AggFunc) -> AggAcc {
        match func {
            AggFunc::CountStar | AggFunc::Count => AggAcc::Count(0),
            AggFunc::Sum => AggAcc::Sum(None),
            AggFunc::Min => AggAcc::Min(None),
            AggFunc::Max => AggAcc::Max(None),
            AggFunc::Avg => AggAcc::Avg(0.0, 0),
        }
    }

    /// Feeds one input value. `v` is `None` only for `COUNT(*)` (no
    /// argument); NULL argument values are skipped per SQL.
    pub fn update(&mut self, v: Option<&Value>) -> Result<()> {
        match self {
            AggAcc::Count(n) => {
                match v {
                    // COUNT(*): every row counts.
                    None => *n += 1,
                    // COUNT(expr): only non-NULL values count.
                    Some(x) if !x.is_null() => *n += 1,
                    Some(_) => {}
                }
            }
            AggAcc::Sum(acc) => {
                if let Some(x) = v {
                    if !x.is_null() {
                        *acc = Some(match acc.take() {
                            Some(cur) => cur.add(x)?,
                            None => x.clone(),
                        });
                    }
                }
            }
            AggAcc::Min(acc) => {
                if let Some(x) = v {
                    if !x.is_null() {
                        let better = acc
                            .as_ref()
                            .is_none_or(|cur| x.sql_cmp(cur) == Some(std::cmp::Ordering::Less));
                        if better {
                            *acc = Some(x.clone());
                        }
                    }
                }
            }
            AggAcc::Max(acc) => {
                if let Some(x) = v {
                    if !x.is_null() {
                        let better = acc
                            .as_ref()
                            .is_none_or(|cur| x.sql_cmp(cur) == Some(std::cmp::Ordering::Greater));
                        if better {
                            *acc = Some(x.clone());
                        }
                    }
                }
            }
            AggAcc::Avg(sum, n) => {
                if let Some(x) = v {
                    match x {
                        Value::Null => {}
                        Value::Int(i) => {
                            *sum += *i as f64;
                            *n += 1;
                        }
                        Value::Float(fl) => {
                            *sum += *fl;
                            *n += 1;
                        }
                        other => {
                            return Err(Error::TypeMismatch(format!(
                                "avg over non-numeric {other:?}"
                            )))
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Folds another accumulator of the same function into this one —
    /// the global half of the §3.3 local/global split, used when
    /// thread-local partial aggregation states are merged at close.
    pub fn merge(&mut self, other: AggAcc) -> Result<()> {
        match (self, other) {
            (AggAcc::Count(n), AggAcc::Count(m)) => *n += m,
            (AggAcc::Sum(acc), AggAcc::Sum(v)) => {
                if let Some(x) = v {
                    *acc = Some(match acc.take() {
                        Some(cur) => cur.add(&x)?,
                        None => x,
                    });
                }
            }
            (acc @ AggAcc::Min(_), AggAcc::Min(v)) | (acc @ AggAcc::Max(_), AggAcc::Max(v)) => {
                if let Some(x) = v {
                    acc.update(Some(&x))?;
                }
            }
            (AggAcc::Avg(sum, n), AggAcc::Avg(s2, n2)) => {
                *sum += s2;
                *n += n2;
            }
            _ => return Err(Error::internal("merge of mismatched aggregate states")),
        }
        Ok(())
    }

    /// Final value of the aggregate for this group.
    pub fn finish(self) -> Value {
        match self {
            AggAcc::Count(n) => Value::Int(n),
            AggAcc::Sum(v) | AggAcc::Min(v) | AggAcc::Max(v) => v.unwrap_or(Value::Null),
            AggAcc::Avg(sum, n) => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / n as f64)
                }
            }
        }
    }
}

/// State of one group: accumulators plus per-aggregate distinct filters.
struct GroupState {
    accs: Vec<AggAcc>,
    seen: Vec<Option<HashSet<Value>>>,
}

impl GroupState {
    fn new(specs: &[(AggFunc, bool)]) -> GroupState {
        GroupState {
            accs: specs.iter().map(|(f, _)| AggAcc::new(*f)).collect(),
            seen: specs
                .iter()
                .map(|(_, distinct)| {
                    if *distinct {
                        Some(HashSet::new())
                    } else {
                        None
                    }
                })
                .collect(),
        }
    }
}

/// Incremental hash-aggregation state: feed `(key, args)` pairs batch by
/// batch, then [`finish`](GroupedAggState::finish) to emit one row per
/// group in first-seen order.
pub struct GroupedAggState {
    /// `(function, distinct)` per aggregate.
    specs: Vec<(AggFunc, bool)>,
    /// `on_empty` results, for scalar aggregation over empty input.
    on_empty: Vec<Value>,
    /// Key hash → group ids with that hash. Equality is resolved
    /// against `keys`, so the row-fed and column-fed paths share one
    /// table (the hash of a key is precomputable from column lanes
    /// without materializing a `Vec<Value>` per row).
    index: HashMap<u64, Vec<u32>>,
    /// Group keys in first-seen order; `keys[g]` pairs with `states[g]`.
    keys: Vec<Row>,
    states: Vec<GroupState>,
    /// Memory charged for group state (detached unless the owner
    /// attached a budgeted reservation).
    mem: MemoryReservation,
}

/// Result of a row-atomic [`GroupedAggState::feed_or_reject`].
pub enum FeedOutcome {
    /// The row was admitted and fully applied.
    Fed,
    /// The reservation refused the row's charge. No state mutated; the
    /// row is handed back so the caller can spill it.
    Refused {
        /// The group key, returned unconsumed.
        key: Row,
        /// The evaluated aggregate arguments, returned unconsumed.
        args: Vec<Option<Value>>,
        /// The refusing [`Error::ResourceExhausted`].
        err: Error,
    },
}

/// Approximate heap footprint of one aggregate input value (DISTINCT
/// filter entries).
fn value_bytes(v: &Value) -> u64 {
    let heap = if let Value::Str(s) = v { s.len() } else { 0 };
    (std::mem::size_of::<Value>() + heap) as u64
}

impl GroupedAggState {
    /// Fresh state for a set of aggregate definitions.
    pub fn new(aggs: &[AggDef]) -> GroupedAggState {
        GroupedAggState {
            specs: aggs.iter().map(|a| (a.func, a.distinct)).collect(),
            on_empty: aggs.iter().map(|a| a.func.on_empty()).collect(),
            index: HashMap::new(),
            keys: Vec::new(),
            states: Vec::new(),
            mem: MemoryReservation::detached("HashAggregate"),
        }
    }

    /// Attaches a memory reservation: every new group (and every DISTINCT
    /// filter entry) is charged against it from now on.
    pub fn set_reservation(&mut self, mem: MemoryReservation) {
        self.mem = mem;
    }

    /// Peak bytes this state's reservation has held.
    pub fn mem_peak(&self) -> u64 {
        self.mem.peak()
    }

    /// Finds an existing group by hash + per-key equality probe.
    fn find(&self, hash: u64, eq: impl Fn(&[Value]) -> bool) -> Option<usize> {
        self.index
            .get(&hash)?
            .iter()
            .copied()
            .find(|&g| eq(&self.keys[g as usize]))
            .map(|g| g as usize)
    }

    /// Bytes one new group costs: the key's own copy plus the hash-table
    /// entry, plus the accumulator slots.
    fn group_bytes(&self, key: &Row) -> u64 {
        let accs = self.specs.len()
            * (std::mem::size_of::<AggAcc>() + std::mem::size_of::<Option<HashSet<Value>>>());
        2 * row_bytes(key) + accs as u64
    }

    /// Whether feeding `v` into aggregate `i` of group `gid` would admit
    /// a new DISTINCT filter entry (and therefore charge its bytes).
    /// `gid` is `None` for a not-yet-inserted group, whose filters are
    /// all empty.
    fn distinct_admits(&self, gid: Option<usize>, i: usize, v: &Value) -> bool {
        if !self.specs[i].1 || v.is_null() {
            return false;
        }
        match gid {
            None => true,
            Some(g) => self.states[g].seen[i]
                .as_ref()
                .is_some_and(|seen| !seen.contains(v)),
        }
    }

    /// Registers a new group whose bytes were already charged.
    fn insert_group_prepaid(&mut self, hash: u64, key: Row) -> usize {
        let gid = self.keys.len();
        self.keys.push(key);
        self.states.push(GroupState::new(&self.specs));
        self.index.entry(hash).or_default().push(gid as u32);
        gid
    }

    /// Registers a new group, charging the reservation for the key (its
    /// own copy plus the hash-table entry) and the accumulator slots.
    fn insert_group(&mut self, hash: u64, key: Row) -> Result<usize> {
        self.mem.grow(self.group_bytes(&key))?;
        Ok(self.insert_group_prepaid(hash, key))
    }

    /// Feeds one aggregate's argument into one group, enforcing the
    /// DISTINCT filter. The memory charge happened up front (see
    /// [`feed_or_reject`](GroupedAggState::feed_or_reject)), so this
    /// never refuses.
    fn apply_arg(&mut self, gid: usize, i: usize, arg: Option<Value>) -> Result<()> {
        let state = &mut self.states[gid];
        if let Some(seen) = &mut state.seen[i] {
            // DISTINCT: skip repeated non-NULL values.
            if let Some(v) = &arg {
                if !v.is_null() && !seen.insert(v.clone()) {
                    return Ok(());
                }
            }
        }
        self.states[gid].accs[i].update(arg.as_ref())
    }

    /// Feeds one input row: its group key plus the evaluated argument of
    /// each aggregate (`None` for `COUNT(*)`). The key is moved only
    /// when a new group is created.
    pub fn feed(&mut self, key: Vec<Value>, args: Vec<Option<Value>>) -> Result<()> {
        match self.feed_or_reject(key, args)? {
            FeedOutcome::Fed => Ok(()),
            FeedOutcome::Refused { err, .. } => Err(err),
        }
    }

    /// Row-atomic feed: the row's whole memory cost — a new group if its
    /// key is unseen, plus every DISTINCT filter admission — is charged
    /// *before* any state mutates. A refused charge therefore leaves the
    /// state exactly as it was and hands the row back to the caller,
    /// which can spill it; any other error propagates.
    pub fn feed_or_reject(
        &mut self,
        key: Vec<Value>,
        args: Vec<Option<Value>>,
    ) -> Result<FeedOutcome> {
        debug_assert_eq!(args.len(), self.specs.len());
        let hash = hash_values(&key);
        let gid = self.find(hash, |k| k == key.as_slice());
        let mut charge = if gid.is_none() {
            self.group_bytes(&key)
        } else {
            0
        };
        for (i, arg) in args.iter().enumerate() {
            if let Some(v) = arg {
                if self.distinct_admits(gid, i, v) {
                    charge += value_bytes(v);
                }
            }
        }
        if let Err(err) = self.mem.grow(charge) {
            if matches!(err, Error::ResourceExhausted { .. }) {
                return Ok(FeedOutcome::Refused { key, args, err });
            }
            return Err(err);
        }
        let gid = match gid {
            Some(g) => g,
            None => self.insert_group_prepaid(hash, key),
        };
        for (i, arg) in args.into_iter().enumerate() {
            self.apply_arg(gid, i, arg)?;
        }
        Ok(FeedOutcome::Fed)
    }

    /// Columnar feed: one call per batch. `key_cols` are the group-key
    /// columns, `arg_cols` the pre-evaluated argument column per
    /// aggregate (`None` for `COUNT(*)`). Group lookup hashes lanes
    /// directly off the columns and compares via [`Column::lane_eq`], so
    /// no per-row key `Vec` is allocated for already-seen groups; state
    /// updates run in the same (row-major, aggregate-minor) order as the
    /// row path, so errors and DISTINCT behavior are identical.
    pub fn feed_lanes(
        &mut self,
        key_cols: &[&Column],
        arg_cols: &[Option<Column>],
        len: usize,
    ) -> Result<()> {
        match self.feed_lanes_or_reject(key_cols, arg_cols, len)? {
            (_, Some(err)) => Err(err),
            _ => Ok(()),
        }
    }

    /// Lane-atomic columnar feed: stops at the first lane whose memory
    /// charge is refused instead of erroring. Returns how many lanes
    /// were fully applied plus the refusal, if any — the state is
    /// consistent either way, and the caller can spill lanes
    /// `applied..len`.
    pub fn feed_lanes_or_reject(
        &mut self,
        key_cols: &[&Column],
        arg_cols: &[Option<Column>],
        len: usize,
    ) -> Result<(usize, Option<Error>)> {
        debug_assert_eq!(arg_cols.len(), self.specs.len());
        let hashes = hash_lanes(key_cols, len);
        for (i, &h) in hashes.iter().enumerate() {
            let gid = self.find(h, |k| key_cols.iter().zip(k).all(|(c, v)| c.lane_eq(i, v)));
            // Only a new group materializes its key `Vec` here, same as
            // the all-resident path always has.
            let key: Option<Row> = match gid {
                Some(_) => None,
                None => Some(key_cols.iter().map(|c| c.value(i)).collect()),
            };
            let mut charge = key.as_ref().map_or(0, |k| self.group_bytes(k));
            for (a, col) in arg_cols.iter().enumerate() {
                if !self.specs[a].1 {
                    continue;
                }
                let Some(c) = col else { continue };
                let v = c.value(i);
                if self.distinct_admits(gid, a, &v) {
                    charge += value_bytes(&v);
                }
            }
            if let Err(err) = self.mem.grow(charge) {
                if matches!(err, Error::ResourceExhausted { .. }) {
                    return Ok((i, Some(err)));
                }
                return Err(err);
            }
            let gid = match gid {
                Some(g) => g,
                None => self.insert_group_prepaid(h, key.expect("new group has a key")),
            };
            for (a, col) in arg_cols.iter().enumerate() {
                self.apply_arg(gid, a, col.as_ref().map(|c| c.value(i)))?;
            }
        }
        Ok((len, None))
    }

    /// Worst-case bytes [`feed`](GroupedAggState::feed) could charge for
    /// one `(key, args)` row: a brand-new group (key copy, table entry,
    /// accumulator slots) plus every DISTINCT filter admitting its
    /// value. The spillable aggregation pre-probes this bound per batch
    /// so `feed` — which charges mid-mutation and is not row-atomic —
    /// never sees a refusal once the batch is admitted.
    pub fn feed_bound(&self, key: &Row, args: &[Option<Value>]) -> u64 {
        let accs = self.specs.len()
            * (std::mem::size_of::<AggAcc>() + std::mem::size_of::<Option<HashSet<Value>>>());
        let mut b = 2 * row_bytes(key) + accs as u64;
        for ((_, distinct), arg) in self.specs.iter().zip(args) {
            if *distinct {
                if let Some(v) = arg {
                    b += value_bytes(v);
                }
            }
        }
        b
    }

    /// Splits this state into `n` states, routing each group by
    /// `route(&key)`. Group keys and accumulators move wholesale (no
    /// re-aggregation); each returned state keeps the groups in this
    /// state's first-seen order. The returned states carry detached
    /// reservations — the bytes were already charged to this state's
    /// reservation, which is released when `self` is consumed here, and
    /// the spillable aggregation drains the splits one partition at a
    /// time immediately after.
    pub fn split_by(self, n: usize, route: impl Fn(&Row) -> usize) -> Vec<GroupedAggState> {
        let mut out: Vec<GroupedAggState> = (0..n)
            .map(|_| GroupedAggState {
                specs: self.specs.clone(),
                on_empty: self.on_empty.clone(),
                index: HashMap::new(),
                keys: Vec::new(),
                states: Vec::new(),
                mem: MemoryReservation::detached("HashAggregate"),
            })
            .collect();
        for (key, state) in self.keys.into_iter().zip(self.states) {
            let p = route(&key);
            let target = &mut out[p];
            let hash = hash_values(&key);
            let gid = target.keys.len();
            target.keys.push(key);
            target.states.push(state);
            target.index.entry(hash).or_default().push(gid as u32);
        }
        out
    }

    /// Folds another partial state (same specs) into this one. Groups
    /// unseen here are moved over wholesale (preserving `other`'s
    /// first-seen order after this state's own); shared groups merge
    /// accumulator-wise, with DISTINCT filters re-deduplicated against
    /// this state's seen sets.
    pub fn merge(&mut self, other: GroupedAggState) -> Result<()> {
        debug_assert_eq!(self.specs, other.specs);
        for (key, theirs) in other.keys.into_iter().zip(other.states) {
            let hash = hash_values(&key);
            match self.find(hash, |k| k == key.as_slice()) {
                None => {
                    let gid = self.insert_group(hash, key)?;
                    self.states[gid] = theirs;
                }
                Some(gid) => {
                    let mine = &mut self.states[gid];
                    for (i, (acc, seen)) in theirs.accs.into_iter().zip(theirs.seen).enumerate() {
                        match seen {
                            // DISTINCT: replay only values this state has
                            // not yet seen; the partial accumulator is
                            // discarded (it may double-count values both
                            // workers saw).
                            Some(their_seen) => {
                                let my_seen = mine.seen[i].as_mut().ok_or_else(|| {
                                    Error::internal(
                                        "distinct filter missing while merging partial aggregates",
                                    )
                                })?;
                                for v in their_seen {
                                    if my_seen.insert(v.clone()) {
                                        mine.accs[i].update(Some(&v))?;
                                    }
                                }
                            }
                            None => mine.accs[i].merge(acc)?,
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Emits one row per group laid out as
    /// `group key values ++ aggregate results`, in first-seen order.
    pub fn finish(self, kind: GroupKind) -> Vec<Row> {
        // Scalar aggregation over empty input: one row of agg(∅).
        if self.keys.is_empty() && matches!(kind, GroupKind::Scalar) {
            return vec![self.on_empty];
        }
        self.keys
            .into_iter()
            .zip(self.states)
            .map(|(key, state)| {
                let mut row = key;
                row.extend(state.accs.into_iter().map(AggAcc::finish));
                row
            })
            .collect()
    }
}

/// Hash aggregation over already-extracted inputs.
///
/// `rows` supplies, per input row, the group key and the evaluated
/// argument of each aggregate (`None` for `COUNT(*)`). Returns one row
/// per group laid out as `group key values ++ aggregate results`.
pub fn hash_aggregate(
    kind: GroupKind,
    aggs: &[AggDef],
    rows: impl IntoIterator<Item = (Vec<Value>, Vec<Option<Value>>)>,
) -> Result<Vec<Row>> {
    let mut state = GroupedAggState::new(aggs);
    for (key, args) in rows {
        state.feed(key, args)?;
    }
    Ok(state.finish(kind))
}

#[cfg(test)]
mod tests {
    use super::*;
    use orthopt_common::{ColId, DataType};
    use orthopt_ir::{ColumnMeta, ScalarExpr};

    fn sum_def() -> AggDef {
        AggDef::new(
            ColumnMeta::new(ColId(10), "s", DataType::Int, true),
            AggFunc::Sum,
            Some(ScalarExpr::col(ColId(1))),
        )
    }

    #[test]
    fn sum_skips_nulls() {
        let rows = vec![
            (vec![], vec![Some(Value::Int(1))]),
            (vec![], vec![Some(Value::Null)]),
            (vec![], vec![Some(Value::Int(2))]),
        ];
        let out = hash_aggregate(GroupKind::Scalar, &[sum_def()], rows).unwrap();
        assert_eq!(out, vec![vec![Value::Int(3)]]);
    }

    #[test]
    fn scalar_agg_on_empty_input() {
        let out = hash_aggregate(GroupKind::Scalar, &[sum_def()], vec![]).unwrap();
        assert_eq!(out, vec![vec![Value::Null]]);
        let count = AggDef::new(
            ColumnMeta::new(ColId(11), "n", DataType::Int, false),
            AggFunc::CountStar,
            None,
        );
        let out = hash_aggregate(GroupKind::Scalar, &[count], vec![]).unwrap();
        assert_eq!(out, vec![vec![Value::Int(0)]]);
    }

    #[test]
    fn vector_agg_on_empty_input_is_empty() {
        let out = hash_aggregate(GroupKind::Vector, &[sum_def()], vec![]).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn groups_by_key_with_null_group() {
        let rows = vec![
            (vec![Value::Int(1)], vec![Some(Value::Int(10))]),
            (vec![Value::Null], vec![Some(Value::Int(5))]),
            (vec![Value::Int(1)], vec![Some(Value::Int(20))]),
            (vec![Value::Null], vec![Some(Value::Int(6))]),
        ];
        let mut out = hash_aggregate(GroupKind::Vector, &[sum_def()], rows).unwrap();
        out.sort_by(orthopt_common::row::cmp_rows);
        assert_eq!(
            out,
            vec![
                vec![Value::Null, Value::Int(11)],
                vec![Value::Int(1), Value::Int(30)],
            ]
        );
    }

    #[test]
    fn count_expr_vs_count_star() {
        let count_star = AggDef::new(
            ColumnMeta::new(ColId(11), "n", DataType::Int, false),
            AggFunc::CountStar,
            None,
        );
        let count_col = AggDef::new(
            ColumnMeta::new(ColId(12), "c", DataType::Int, false),
            AggFunc::Count,
            Some(ScalarExpr::col(ColId(1))),
        );
        let rows = vec![
            (vec![], vec![None, Some(Value::Int(1))]),
            (vec![], vec![None, Some(Value::Null)]),
        ];
        let out = hash_aggregate(GroupKind::Scalar, &[count_star, count_col], rows).unwrap();
        assert_eq!(out, vec![vec![Value::Int(2), Value::Int(1)]]);
    }

    #[test]
    fn min_max_track_extremes() {
        let min = AggDef::new(
            ColumnMeta::new(ColId(11), "mn", DataType::Int, true),
            AggFunc::Min,
            Some(ScalarExpr::col(ColId(1))),
        );
        let max = AggDef::new(
            ColumnMeta::new(ColId(12), "mx", DataType::Int, true),
            AggFunc::Max,
            Some(ScalarExpr::col(ColId(1))),
        );
        let rows = vec![
            (vec![], vec![Some(Value::Int(3)), Some(Value::Int(3))]),
            (vec![], vec![Some(Value::Int(1)), Some(Value::Int(1))]),
            (vec![], vec![Some(Value::Int(2)), Some(Value::Int(2))]),
        ];
        let out = hash_aggregate(GroupKind::Scalar, &[min, max], rows).unwrap();
        assert_eq!(out, vec![vec![Value::Int(1), Value::Int(3)]]);
    }

    #[test]
    fn avg_ignores_nulls_and_divides() {
        let avg = AggDef::new(
            ColumnMeta::new(ColId(11), "a", DataType::Float, true),
            AggFunc::Avg,
            Some(ScalarExpr::col(ColId(1))),
        );
        let rows = vec![
            (vec![], vec![Some(Value::Int(1))]),
            (vec![], vec![Some(Value::Null)]),
            (vec![], vec![Some(Value::Int(2))]),
        ];
        let out = hash_aggregate(GroupKind::Scalar, &[avg], rows).unwrap();
        assert_eq!(out, vec![vec![Value::Float(1.5)]]);
    }

    #[test]
    fn distinct_sum_deduplicates() {
        let mut def = sum_def();
        def.distinct = true;
        let rows = vec![
            (vec![], vec![Some(Value::Int(5))]),
            (vec![], vec![Some(Value::Int(5))]),
            (vec![], vec![Some(Value::Int(3))]),
        ];
        let out = hash_aggregate(GroupKind::Scalar, &[def], rows).unwrap();
        assert_eq!(out, vec![vec![Value::Int(8)]]);
    }

    #[test]
    fn all_null_group_sums_to_null() {
        let rows = vec![
            (vec![Value::Int(1)], vec![Some(Value::Null)]),
            (vec![Value::Int(1)], vec![Some(Value::Null)]),
        ];
        let out = hash_aggregate(GroupKind::Vector, &[sum_def()], rows).unwrap();
        assert_eq!(out, vec![vec![Value::Int(1), Value::Null]]);
    }
}
