//! Hash aggregation: one flat group table plus typed accumulator lanes.
//!
//! Implements the SQL semantics the paper leans on (§1.1): vector
//! aggregation is empty on empty input; scalar aggregation always emits
//! exactly one row with `agg(∅)` results; NULL inputs are skipped by all
//! aggregates; `COUNT(*)` counts rows. `LocalGroupBy` "need not be
//! different from a GroupBy" in the engine (§3.3) — it runs through the
//! same code path.
//!
//! A batch is aggregated in two phases. Phase 1 gives every lane a
//! dense group id in first-seen order ([`GroupTable`]), charging each
//! new group to the memory reservation lane by lane. Phase 2 folds each
//! aggregate's argument column into that aggregate's per-group lanes —
//! typed vectors indexed by group id — in one loop over
//! `(group id, lane)`. [`GroupedAggState::finish`] hands the key columns
//! and one result column per aggregate back as columns.

use std::collections::HashSet;

use orthopt_common::column::{Bitmap, ColData, Column, ColumnData};
use orthopt_common::hash::{GroupTable, Probe};
use orthopt_common::value::ValueRef;
use orthopt_common::{Error, Result, Value};
use orthopt_ir::{AggDef, AggFunc, GroupKind};

use crate::governed::{Governed, Refused};

/// Running state of one aggregate over one group, over `Value`s: the
/// generic accumulator lane (DISTINCT, and arguments no typed lane
/// holds).
#[derive(Debug, Clone)]
enum AggAcc {
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
    fn new(func: AggFunc) -> AggAcc {
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
    fn update(&mut self, v: Option<&Value>) -> Result<()> {
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

    /// Final value of the aggregate for this group.
    fn finish(self) -> Value {
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

/// One aggregate's state for every group: typed lanes indexed by group
/// id while the argument's storage allows, `Value` accumulators once it
/// does not.
#[derive(Debug)]
enum Acc {
    /// COUNT(*) / COUNT(expr): rows (non-NULL arguments) per group.
    Count(Vec<i64>),
    /// SUM / MIN / MAX while every argument has been an `Int` lane:
    /// the running value, and whether the group has seen one.
    Int {
        func: AggFunc,
        v: Vec<i64>,
        seen: Vec<bool>,
    },
    /// SUM / MIN / MAX while every argument has been a `Float` lane.
    Float {
        func: AggFunc,
        v: Vec<f64>,
        seen: Vec<bool>,
    },
    /// AVG: running sum and count of non-NULL inputs.
    Avg { sum: Vec<f64>, n: Vec<i64> },
    /// Everything else: DISTINCT, and SUM / MIN / MAX over `Val`,
    /// `Str`, `Date` or `Bool` arguments or a mix of representations.
    Values(Vec<AggAcc>),
}

impl Acc {
    fn new(func: AggFunc, distinct: bool) -> Acc {
        match func {
            _ if distinct => Acc::Values(Vec::new()),
            AggFunc::CountStar | AggFunc::Count => Acc::Count(Vec::new()),
            AggFunc::Avg => Acc::Avg {
                sum: Vec::new(),
                n: Vec::new(),
            },
            AggFunc::Sum | AggFunc::Min | AggFunc::Max => Acc::Int {
                func,
                v: Vec::new(),
                seen: Vec::new(),
            },
        }
    }

    /// Appends a fresh group.
    fn push_group(&mut self, func: AggFunc) {
        match self {
            Acc::Count(n) => n.push(0),
            Acc::Int { v, seen, .. } => {
                v.push(0);
                seen.push(false);
            }
            Acc::Float { v, seen, .. } => {
                v.push(0.0);
                seen.push(false);
            }
            Acc::Avg { sum, n } => {
                sum.push(0.0);
                n.push(0);
            }
            Acc::Values(accs) => accs.push(AggAcc::new(func)),
        }
    }

    /// Folds lanes `0..gids.len()` of `arg` (`None`: COUNT(*)) into the
    /// groups `gids` names, in lane order — only the lanes `admit`
    /// marks, when given (DISTINCT). An error comes back with the lane
    /// it happened at.
    fn fold(
        &mut self,
        gids: &[u32],
        arg: Option<&Column>,
        admit: Option<&[bool]>,
    ) -> std::result::Result<(), (usize, Error)> {
        let Some(c) = arg else {
            if let Acc::Count(n) = self {
                for &g in gids {
                    n[g as usize] += 1;
                }
            }
            return Ok(());
        };
        let (data, validity, off) = c.parts();
        self.fit(data, || (0..gids.len()).any(|i| c.is_valid(i)));
        let all_valid = validity.all_valid();
        let valid = |i: usize| all_valid || validity.get(off + i);
        match self {
            Acc::Count(n) => {
                for (i, &g) in gids.iter().enumerate() {
                    n[g as usize] += i64::from(valid(i));
                }
            }
            Acc::Int { func, v, seen } => {
                let ColData::Int(x) = data else {
                    return Ok(()); // no valid lane: nothing to fold
                };
                let step: fn(i64, i64) -> Option<i64> = match func {
                    AggFunc::Min => |a, b| Some(a.min(b)),
                    AggFunc::Max => |a, b| Some(a.max(b)),
                    _ => i64::checked_add,
                };
                fold_typed(gids, &x[off..], valid, v, seen, step)
                    .map_err(|i| (i, Error::NumericOverflow))?;
            }
            Acc::Float { func, v, seen } => {
                let ColData::Float(x) = data else {
                    return Ok(());
                };
                let step: fn(f64, f64) -> Option<f64> = match func {
                    AggFunc::Min => |a, b| Some(if b.total_cmp(&a).is_lt() { b } else { a }),
                    AggFunc::Max => |a, b| Some(if b.total_cmp(&a).is_gt() { b } else { a }),
                    _ => |a, b| Some(a + b),
                };
                fold_typed(gids, &x[off..], valid, v, seen, step)
                    .map_err(|i| (i, Error::NumericOverflow))?;
            }
            Acc::Avg { sum, n } => match data {
                ColData::Int(x) => {
                    for (i, &g) in gids.iter().enumerate() {
                        if valid(i) {
                            sum[g as usize] += x[off + i] as f64;
                            n[g as usize] += 1;
                        }
                    }
                }
                ColData::Float(x) => {
                    for (i, &g) in gids.iter().enumerate() {
                        if valid(i) {
                            sum[g as usize] += x[off + i];
                            n[g as usize] += 1;
                        }
                    }
                }
                _ => {
                    for (i, &g) in gids.iter().enumerate() {
                        let g = g as usize;
                        let mut acc = AggAcc::Avg(sum[g], n[g]);
                        acc.update(Some(&c.value(i))).map_err(|e| (i, e))?;
                        if let AggAcc::Avg(s, k) = acc {
                            (sum[g], n[g]) = (s, k);
                        }
                    }
                }
            },
            Acc::Values(accs) => {
                for (i, &g) in gids.iter().enumerate() {
                    if admit.is_none_or(|a| a[i]) {
                        accs[g as usize]
                            .update(Some(&c.value(i)))
                            .map_err(|e| (i, e))?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Moves a SUM / MIN / MAX lane to the representation an argument
    /// stored as `data` folds into: the typed lane of that storage
    /// while no group has seen a value, else `Value` accumulators. A
    /// lane whose argument has no valid lane (`any_valid` false) stays
    /// as it is.
    fn fit(&mut self, data: &ColData, any_valid: impl FnOnce() -> bool) {
        let (func, fresh, n) = match (&*self, data) {
            (Acc::Int { .. }, ColData::Int(_)) | (Acc::Float { .. }, ColData::Float(_)) => return,
            (Acc::Int { func, seen, .. }, _) | (Acc::Float { func, seen, .. }, _) => {
                (*func, !seen.contains(&true), seen.len())
            }
            _ => return,
        };
        if !any_valid() {
            return;
        }
        *self = match data {
            ColData::Int(_) if fresh => Acc::Int {
                func,
                v: vec![0; n],
                seen: vec![false; n],
            },
            ColData::Float(_) if fresh => Acc::Float {
                func,
                v: vec![0.0; n],
                seen: vec![false; n],
            },
            _ => Acc::Values(match &*self {
                Acc::Int { v, seen, .. } => held(func, v, seen, Value::Int),
                Acc::Float { v, seen, .. } => held(func, v, seen, Value::Float),
                _ => unreachable!("only typed lanes refit"),
            }),
        };
    }

    /// The groups `ids`, renumbered `0..ids.len()` in that order.
    fn gather(&self, ids: &[usize]) -> Acc {
        fn pick<T: Clone>(v: &[T], ids: &[usize]) -> Vec<T> {
            ids.iter().map(|&g| v[g].clone()).collect()
        }
        match self {
            Acc::Count(n) => Acc::Count(pick(n, ids)),
            Acc::Int { func, v, seen } => Acc::Int {
                func: *func,
                v: pick(v, ids),
                seen: pick(seen, ids),
            },
            Acc::Float { func, v, seen } => Acc::Float {
                func: *func,
                v: pick(v, ids),
                seen: pick(seen, ids),
            },
            Acc::Avg { sum, n } => Acc::Avg {
                sum: pick(sum, ids),
                n: pick(n, ids),
            },
            Acc::Values(accs) => Acc::Values(pick(accs, ids)),
        }
    }

    /// One result lane per group.
    fn finish(self) -> Column {
        let typed = |data, validity| Column::from_data(ColumnData { data, validity });
        match self {
            Acc::Count(n) => {
                let validity = Bitmap::new_valid(n.len());
                typed(ColData::Int(n), validity)
            }
            Acc::Int { v, seen, .. } => typed(ColData::Int(v), Bitmap::from_flags(seen)),
            Acc::Float { v, seen, .. } => typed(ColData::Float(v), Bitmap::from_flags(seen)),
            Acc::Avg { sum, n } => typed(
                ColData::Float(
                    sum.iter()
                        .zip(&n)
                        .map(|(&s, &k)| if k == 0 { 0.0 } else { s / k as f64 })
                        .collect(),
                ),
                Bitmap::from_flags(n.iter().map(|&k| k > 0)),
            ),
            Acc::Values(accs) => {
                Column::from_values(accs.into_iter().map(AggAcc::finish).collect())
            }
        }
    }
}

/// `Value` accumulators holding a typed SUM / MIN / MAX lane's running
/// values.
fn held<T: Copy>(func: AggFunc, v: &[T], seen: &[bool], wrap: fn(T) -> Value) -> Vec<AggAcc> {
    let acc = |v| match func {
        AggFunc::Min => AggAcc::Min(v),
        AggFunc::Max => AggAcc::Max(v),
        _ => AggAcc::Sum(v),
    };
    v.iter()
        .zip(seen)
        .map(|(&x, &s)| acc(s.then(|| wrap(x))))
        .collect()
}

/// Folds the valid lanes of `x` into the groups `gids` names: a group's
/// first value is kept as is, later ones combine through `step`. Stops
/// at the lane where `step` fails (overflow).
fn fold_typed<T: Copy>(
    gids: &[u32],
    x: &[T],
    valid: impl Fn(usize) -> bool,
    v: &mut [T],
    seen: &mut [bool],
    step: fn(T, T) -> Option<T>,
) -> std::result::Result<(), usize> {
    for (i, (&g, &x)) in gids.iter().zip(x).enumerate() {
        if !valid(i) {
            continue;
        }
        let g = g as usize;
        v[g] = if seen[g] {
            step(v[g], x).ok_or(i)?
        } else {
            seen[g] = true;
            x
        };
    }
    Ok(())
}

/// One aggregate of a [`GroupedAggState`].
#[derive(Debug)]
struct AggLane {
    func: AggFunc,
    /// DISTINCT (with an argument): per group, the argument values
    /// already folded.
    seen: Option<Vec<HashSet<Value>>>,
    acc: Acc,
}

/// Bytes a group holds in the table besides its key lanes: its hash
/// and its share of the slots (two `u64`s at half load).
const GROUP_TABLE_BYTES: u64 = 3 * 8;

/// Bytes a group holds per aggregate: a typed value and its flag, or a
/// sum and a count.
const GROUP_ACC_BYTES: u64 = 16;

/// Bytes one stored key lane holds: its slot, plus a string's payload.
fn key_lane_bytes(c: &Column, i: usize) -> u64 {
    match c.value_ref(i) {
        ValueRef::Str(s) => (std::mem::size_of::<std::sync::Arc<str>>() + s.len()) as u64,
        _ => 8,
    }
}

/// Per lane of a batch, whether a DISTINCT aggregate admits its value
/// (`None` for an aggregate that is not DISTINCT).
type Admitted = Option<Vec<bool>>;

/// Bytes a new group keyed by lane `i` of `key_cols` costs, with
/// `acc_bytes` for its aggregates.
fn group_bytes(key_cols: &[&Column], i: usize, acc_bytes: u64) -> u64 {
    let key: u64 = key_cols.iter().map(|c| key_lane_bytes(c, i)).sum();
    GROUP_TABLE_BYTES + key + acc_bytes
}

/// Approximate heap footprint of one DISTINCT filter entry.
fn value_bytes(v: &Value) -> u64 {
    let heap = if let Value::Str(s) = v { s.len() } else { 0 };
    (std::mem::size_of::<Value>() + heap) as u64
}

/// Incremental hash-aggregation state: feed batches of lanes, then
/// [`finish`](GroupedAggState::finish) to emit one lane per group in
/// first-seen order. Its memory is charged to the operator's governed
/// buffer as it grows; releasing it is the operator's job.
#[derive(Debug)]
pub struct GroupedAggState {
    table: GroupTable,
    /// One per aggregate, in definition order.
    lanes: Vec<AggLane>,
    /// Bytes every new group is charged for its aggregates.
    acc_bytes: u64,
}

impl GroupedAggState {
    /// Fresh state for a set of aggregate definitions.
    pub fn new(aggs: &[AggDef]) -> GroupedAggState {
        let lanes: Vec<AggLane> = aggs
            .iter()
            .map(|a| {
                let distinct = a.distinct && a.arg.is_some();
                AggLane {
                    func: a.func,
                    seen: distinct.then(Vec::new),
                    acc: Acc::new(a.func, distinct),
                }
            })
            .collect();
        let acc_bytes = lanes
            .iter()
            .map(|l| {
                let filter = l
                    .seen
                    .as_ref()
                    .map_or(0, |_| std::mem::size_of::<HashSet<Value>>());
                GROUP_ACC_BYTES + filter as u64
            })
            .sum();
        GroupedAggState {
            table: GroupTable::new(),
            lanes,
            acc_bytes,
        }
    }

    /// Feeds lanes `0..hashes.len()` of one batch: `key_cols` are the
    /// group-key columns and `hashes` their
    /// [`hash_lanes`](orthopt_common::hash::hash_lanes), `args` the
    /// evaluated argument column per aggregate (`None` for `COUNT(*)`).
    ///
    /// Phase 1 assigns group ids in lane order, charging `gov` for each
    /// lane that opens a group or admits a DISTINCT value before it
    /// mutates anything; a refused charge stops it there. An empty key
    /// opens its one group once, and then takes whole batches without
    /// hashing or probing.
    /// Phase 2 folds the lanes phase 1 applied into every aggregate. An
    /// accumulator error is the one at the smallest lane, ties going to
    /// the smallest aggregate — the error a row-at-a-time feed raises.
    ///
    /// Returns how many lanes were applied and the refusal, if any: the
    /// state is consistent either way, and the caller can spill lanes
    /// `applied..`.
    pub(crate) fn feed_lanes(
        &mut self,
        gov: &mut Governed,
        key_cols: &[&Column],
        hashes: &[u64],
        args: &[Option<Column>],
    ) -> Result<(usize, Option<Refused>)> {
        debug_assert_eq!(args.len(), self.lanes.len());
        let (gids, admit, refusal) = if self.lanes.iter().any(|l| l.seen.is_some()) {
            self.assign_distinct(gov, key_cols, hashes, args)
        } else {
            let (gids, refusal) = self.assign(gov, key_cols, hashes);
            (gids, Vec::new(), refusal)
        };
        let mut first: Option<(usize, Error)> = None;
        for (a, (lane, arg)) in self.lanes.iter_mut().zip(args).enumerate() {
            let mask = admit.get(a).and_then(Option::as_deref);
            if let Err((i, e)) = lane.acc.fold(&gids, arg.as_ref(), mask) {
                if first.as_ref().is_none_or(|(j, _)| i < *j) {
                    first = Some((i, e));
                }
            }
        }
        match first {
            Some((_, e)) => Err(e),
            None => Ok((gids.len(), refusal)),
        }
    }

    /// Phase 1 with no DISTINCT aggregate: group ids through the table's
    /// batch assignment, a new group charged before it is added.
    fn assign(
        &mut self,
        gov: &mut Governed,
        key_cols: &[&Column],
        hashes: &[u64],
    ) -> (Vec<u32>, Option<Refused>) {
        let before = self.table.len();
        let mut gids = Vec::with_capacity(hashes.len());
        let mut refusal = None;
        let mut admit = |i: usize| match gov.try_grow(group_bytes(key_cols, i, self.acc_bytes)) {
            Ok(()) => true,
            Err(refused) => {
                refusal = Some(refused);
                false
            }
        };
        if !key_cols.is_empty() {
            self.table.assign_while(key_cols, hashes, &mut gids, admit);
        } else if !hashes.is_empty() && (before > 0 || admit(0)) {
            if before == 0 {
                self.table.assign(key_cols, &hashes[..1]);
            }
            gids.resize(hashes.len(), 0);
        }
        for lane in &mut self.lanes {
            for _ in before..self.table.len() {
                lane.acc.push_group(lane.func);
            }
        }
        (gids, refusal)
    }

    /// Phase 1 with DISTINCT aggregates, lane by lane: a lane is charged
    /// for the group it opens and the DISTINCT values it admits. Returns
    /// the group ids, and per DISTINCT aggregate the lanes it admits.
    fn assign_distinct(
        &mut self,
        gov: &mut Governed,
        key_cols: &[&Column],
        hashes: &[u64],
        args: &[Option<Column>],
    ) -> (Vec<u32>, Vec<Admitted>, Option<Refused>) {
        let mut admit: Vec<Admitted> = self
            .lanes
            .iter()
            .map(|l| l.seen.as_ref().map(|_| Vec::with_capacity(hashes.len())))
            .collect();
        let mut fresh: Vec<(usize, Value)> = Vec::new();
        let mut gids = Vec::with_capacity(hashes.len());
        let mut refusal = None;
        for (i, &h) in hashes.iter().enumerate() {
            let probe = self.table.probe(key_cols, i, h);
            let mut charge = match probe {
                Probe::Found(_) => 0,
                Probe::Vacant(_) => group_bytes(key_cols, i, self.acc_bytes),
            };
            fresh.clear();
            for (a, (lane, arg)) in self.lanes.iter().zip(args).enumerate() {
                let (Some(seen), Some(c)) = (&lane.seen, arg) else {
                    continue;
                };
                let v = c.value(i);
                let new = match probe {
                    _ if v.is_null() => false,
                    Probe::Found(g) => !seen[g as usize].contains(&v),
                    Probe::Vacant(_) => true,
                };
                if new {
                    charge += value_bytes(&v);
                    fresh.push((a, v));
                }
            }
            if let Err(refused) = gov.try_grow(charge) {
                refusal = Some(refused);
                break;
            }
            let g = match probe {
                Probe::Found(g) => g,
                Probe::Vacant(s) => {
                    for lane in &mut self.lanes {
                        lane.acc.push_group(lane.func);
                        if let Some(seen) = &mut lane.seen {
                            seen.push(HashSet::new());
                        }
                    }
                    self.table.insert(s, key_cols, i, h)
                }
            };
            for mask in admit.iter_mut().flatten() {
                mask.push(false);
            }
            for (a, v) in fresh.drain(..) {
                if let (Some(mask), Some(seen)) = (&mut admit[a], &mut self.lanes[a].seen) {
                    mask[i] = true;
                    seen[g as usize].insert(v);
                }
            }
            gids.push(g);
        }
        (gids, admit, refusal)
    }

    /// Splits this state into `n` states, routing each group by
    /// `route(key hash)`. Keys and accumulators move wholesale (no
    /// re-aggregation); each returned state keeps its groups in this
    /// state's first-seen order. Each split is charged again by
    /// [`attach`](GroupedAggState::attach) when its partition loads.
    pub fn split(mut self, n: usize, route: impl Fn(u64) -> usize) -> Vec<GroupedAggState> {
        let mut ids: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (g, &h) in self.table.hashes().iter().enumerate() {
            ids[route(h)].push(g);
        }
        ids.iter()
            .map(|ids| GroupedAggState {
                table: self.table.gather(ids),
                lanes: self
                    .lanes
                    .iter_mut()
                    .map(|l| AggLane {
                        func: l.func,
                        seen: l
                            .seen
                            .as_mut()
                            .map(|s| ids.iter().map(|&g| std::mem::take(&mut s[g])).collect()),
                        acc: l.acc.gather(ids),
                    })
                    .collect(),
                acc_bytes: self.acc_bytes,
            })
            .collect()
    }

    /// Charges `gov` for everything this state holds.
    pub(crate) fn attach(&self, gov: &mut Governed) -> std::result::Result<(), Refused> {
        let keys: Vec<&Column> = self.table.keys().iter().collect();
        let groups: u64 = (0..self.table.len())
            .map(|g| group_bytes(&keys, g, self.acc_bytes))
            .sum();
        let filters: u64 = self
            .lanes
            .iter()
            .filter_map(|l| l.seen.as_ref())
            .flatten()
            .flatten()
            .map(value_bytes)
            .sum();
        gov.try_grow(groups + filters)
    }

    /// The group key columns followed by one result column per
    /// aggregate, one lane per group in first-seen order, and the group
    /// count. Scalar aggregation over empty input is one lane of
    /// `agg(∅)`; a vector aggregation with no groups returns no
    /// columns.
    pub fn finish(self, kind: GroupKind) -> (Vec<Column>, usize) {
        let n = self.table.len();
        if n == 0 {
            if kind == GroupKind::Scalar {
                let row = self.lanes.iter().map(|l| l.func.on_empty());
                return (row.map(|v| Column::from_values(vec![v])).collect(), 1);
            }
            return (Vec::new(), 0);
        }
        let mut cols = self.table.into_keys();
        cols.extend(self.lanes.into_iter().map(|l| l.acc.finish()));
        (cols, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orthopt_common::column::{columns_to_rows, rows_to_columns};
    use orthopt_common::hash::hash_lanes;
    use orthopt_common::{ColId, DataType, Row};
    use orthopt_ir::{ColumnMeta, ScalarExpr};
    use std::cell::RefCell;
    use std::rc::Rc;

    use crate::pipeline::StatsHandle;
    use crate::stats::OpStats;

    /// An ungoverned buffer with a stats slot of its own.
    fn gov() -> Governed {
        let stats = Rc::new(RefCell::new(vec![OpStats::default()]));
        Governed::failing("test", StatsHandle::new(stats, 0))
    }

    /// Feeds `(key, args)` rows through the state as one batch.
    fn hash_aggregate(
        kind: GroupKind,
        aggs: &[AggDef],
        rows: Vec<(Row, Vec<Option<Value>>)>,
    ) -> Result<Vec<Row>> {
        let keys: Vec<Row> = rows.iter().map(|(k, _)| k.clone()).collect();
        let key_cols = rows_to_columns(&keys, keys.first().map_or(0, Vec::len));
        let key_refs: Vec<&Column> = key_cols.iter().collect();
        let args: Vec<Option<Column>> = aggs
            .iter()
            .enumerate()
            .map(|(a, def)| {
                def.arg.as_ref().map(|_| {
                    Column::from_values(rows.iter().map(|(_, v)| v[a].clone().unwrap()).collect())
                })
            })
            .collect();
        let mut state = GroupedAggState::new(aggs);
        state.feed_lanes(
            &mut gov(),
            &key_refs,
            &hash_lanes(&key_refs, rows.len()),
            &args,
        )?;
        let (cols, n) = state.finish(kind);
        Ok(columns_to_rows(&cols, n))
    }

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

    /// A typed lane that meets another representation keeps its running
    /// values: `Int` sums continue as `Value` sums across a `Float`
    /// batch, and a lane that has seen nothing simply retypes.
    #[test]
    fn typed_lanes_refit_across_batches() {
        let mut state = GroupedAggState::new(&[sum_def()]);
        let mut gov = gov();
        let key = Column::from_values(vec![Value::Int(1), Value::Int(2)]);
        let keys = [&key];
        let hashes = hash_lanes(&keys, 2);
        let batches = [
            vec![Value::Null, Value::Int(4)],
            vec![Value::Float(0.5), Value::Float(1.5)],
            vec![Value::Int(2), Value::Int(1)],
        ];
        for vals in batches {
            let arg = Some(Column::from_values(vals));
            state.feed_lanes(&mut gov, &keys, &hashes, &[arg]).unwrap();
        }
        let (cols, n) = state.finish(GroupKind::Vector);
        assert_eq!(
            columns_to_rows(&cols, n),
            vec![
                vec![Value::Int(1), Value::Float(2.5)],
                vec![Value::Int(2), Value::Float(6.5)],
            ]
        );
    }
}
