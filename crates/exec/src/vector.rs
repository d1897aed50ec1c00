//! Vectorized scalar kernels over [`Column`]s.
//!
//! [`eval_column`] walks a scalar expression **once per batch** and
//! evaluates every lane in tight loops, instead of re-walking the tree
//! for every row the way [`crate::eval::eval`] does. Hot typed
//! combinations (int/float/date comparisons and arithmetic, possibly
//! against a constant) run branch-light kernels over the typed storage;
//! everything else goes through a generic lane loop that calls the
//! *same* value-level primitives as the row evaluator, so results are
//! identical by construction.
//!
//! Error contract: kernels evaluate eagerly across all lanes, so they
//! may surface an error for a lane the short-circuiting row evaluator
//! would never have reached, or surface errors in a different order.
//! Callers therefore treat any `Err` as "this batch needs the row
//! path": they re-run the whole batch row-at-a-time, which reproduces
//! the exact row-ordered error (or the successful result, if the row
//! path short-circuits around the failing lane). Kernels never mutate
//! operator state, so the fallback is always safe.

use orthopt_common::column::{Bitmap, ColData, Column, ColumnData};
use orthopt_common::{ColId, Error, Result, Row, Value};
use orthopt_ir::{ArithOp, CmpOp, Quant, ScalarExpr};

use crate::bindings::Bindings;
use crate::eval::PosMap;

/// Per-batch evaluation context for the vectorized path.
pub struct VecEval<'a> {
    /// Layout of the batch.
    pub cols: &'a [ColId],
    /// Position map for `cols`, resolved once per operator.
    pub pos: &'a PosMap,
    /// The batch's columns (same order as `cols`).
    pub columns: &'a [Column],
    /// Number of lanes (rows) in the batch.
    pub len: usize,
    /// Outer parameter bindings.
    pub binds: &'a Bindings,
}

/// A kernel operand: either a real column or an unexpanded constant
/// (literals and parameter bindings broadcast lazily, so `x < 10`
/// never materializes a column of tens).
enum VCol {
    Col(Column),
    Const(Value),
}

impl VCol {
    fn value(&self, i: usize) -> Value {
        match self {
            VCol::Col(c) => c.value(i),
            VCol::Const(v) => v.clone(),
        }
    }
}

/// Evaluates `expr` over every lane of the batch, returning a column of
/// `cx.len` results. Any `Err` means "fall back to the row path for
/// this batch" — see the module docs for the contract.
pub fn eval_column(expr: &ScalarExpr, cx: &VecEval<'_>) -> Result<Column> {
    Ok(materialize(eval_v(expr, cx)?, cx.len))
}

fn materialize(v: VCol, len: usize) -> Column {
    match v {
        VCol::Col(c) => c,
        VCol::Const(val) => Column::from_values(vec![val; len]),
    }
}

fn eval_v(expr: &ScalarExpr, cx: &VecEval<'_>) -> Result<VCol> {
    match expr {
        ScalarExpr::Column(id) => {
            if let Some(p) = cx.pos.get(*id) {
                return Ok(VCol::Col(cx.columns[p].clone()));
            }
            cx.binds
                .get(*id)
                .cloned()
                .map(VCol::Const)
                .ok_or_else(|| Error::UnknownColumn(id.to_string()))
        }
        ScalarExpr::Literal(v) => Ok(VCol::Const(v.clone())),
        ScalarExpr::Cmp { op, left, right } => {
            let l = eval_v(left, cx)?;
            let r = eval_v(right, cx)?;
            cmp_kernel(*op, &l, &r, cx.len)
        }
        ScalarExpr::Arith { op, left, right } => {
            let l = eval_v(left, cx)?;
            let r = eval_v(right, cx)?;
            arith_kernel(*op, &l, &r, cx.len)
        }
        ScalarExpr::Neg(e) => {
            let v = eval_v(e, cx)?;
            match v {
                VCol::Const(c) => Ok(VCol::Const(c.neg()?)),
                VCol::Col(c) => {
                    let mut out = Vec::with_capacity(cx.len);
                    for i in 0..cx.len {
                        out.push(c.value(i).neg()?);
                    }
                    Ok(VCol::Col(Column::from_values(out)))
                }
            }
        }
        ScalarExpr::And(parts) => bool_fold(parts, cx, true),
        ScalarExpr::Or(parts) => bool_fold(parts, cx, false),
        ScalarExpr::Not(e) => {
            let v = eval_v(e, cx)?;
            let mut flags = Vec::with_capacity(cx.len);
            for i in 0..cx.len {
                flags.push(orthopt_common::value::not3(bool3_at(&v, i)?));
            }
            Ok(VCol::Col(bool3_column(&flags)))
        }
        ScalarExpr::IsNull { expr, negated } => {
            let v = eval_v(expr, cx)?;
            match v {
                VCol::Const(c) => Ok(VCol::Const(Value::Bool(c.is_null() != *negated))),
                VCol::Col(c) => {
                    let flags: Vec<bool> = (0..cx.len).map(|i| c.is_valid(i) == *negated).collect();
                    let validity = Bitmap::new_valid(cx.len);
                    Ok(VCol::Col(Column::from_data(ColumnData {
                        data: ColData::Bool(flags),
                        validity,
                    })))
                }
            }
        }
        ScalarExpr::Case {
            operand,
            whens,
            else_,
        } => {
            // Eager: evaluate every arm over every lane, then select per
            // lane. Arms have no side effects; an error in an arm the
            // row path would have skipped triggers the row fallback,
            // which then takes the lazy route.
            let comparand = operand.as_ref().map(|o| eval_v(o, cx)).transpose()?;
            let arms: Vec<(VCol, VCol)> = whens
                .iter()
                .map(|(w, t)| Ok((eval_v(w, cx)?, eval_v(t, cx)?)))
                .collect::<Result<_>>()?;
            let else_v = else_.as_ref().map(|e| eval_v(e, cx)).transpose()?;
            let mut out = Vec::with_capacity(cx.len);
            'lanes: for i in 0..cx.len {
                for (w, t) in &arms {
                    let fire = match &comparand {
                        Some(c) => c.value(i).sql_eq(&w.value(i)) == Some(true),
                        None => bool3_at(w, i)? == Some(true),
                    };
                    if fire {
                        out.push(t.value(i));
                        continue 'lanes;
                    }
                }
                out.push(match &else_v {
                    Some(e) => e.value(i),
                    None => Value::Null,
                });
            }
            Ok(VCol::Col(Column::from_values(out)))
        }
        ScalarExpr::Subquery(_)
        | ScalarExpr::Exists { .. }
        | ScalarExpr::InSubquery { .. }
        | ScalarExpr::QuantifiedCmp {
            op: _,
            quant: Quant::Any | Quant::All,
            ..
        } => Err(Error::internal(
            "subquery in scalar expression after normalization",
        )),
    }
}

/// Lane-wise 3-valued AND/OR fold over the parts. Unlike the row path
/// this does not short-circuit — 3-valued AND/OR are commutative on
/// *values*, and error divergence is covered by the row fallback.
fn bool_fold(parts: &[ScalarExpr], cx: &VecEval<'_>, is_and: bool) -> Result<VCol> {
    // Identity: TRUE for AND, FALSE for OR. A lane is *decided* once it
    // reaches the absorbing value (FALSE for AND, TRUE for OR) — the
    // combine loop then skips it, including its `as_bool3` conversion,
    // which mirrors the row path's short-circuit on non-boolean lanes.
    let mut acc = vec![Some(is_and); cx.len];
    let mut decided = 0usize;
    for p in parts {
        if decided == cx.len {
            break;
        }
        let v = eval_v(p, cx)?;
        for (i, a) in acc.iter_mut().enumerate() {
            if *a == Some(!is_and) {
                continue;
            }
            let b = bool3_at(&v, i)?;
            let next = if is_and {
                orthopt_common::value::and3(*a, b)
            } else {
                orthopt_common::value::or3(*a, b)
            };
            if next == Some(!is_and) {
                decided += 1;
            }
            *a = next;
        }
    }
    Ok(VCol::Col(bool3_column(&acc)))
}

/// Reads lane `i` of a boolean operand under `as_bool3` semantics.
fn bool3_at(v: &VCol, i: usize) -> Result<Option<bool>> {
    match v {
        VCol::Const(c) => c.as_bool3(),
        VCol::Col(c) => {
            let (data, validity, off) = c.parts();
            match data {
                ColData::Bool(d) => Ok(if validity.get(off + i) {
                    Some(d[off + i])
                } else {
                    None
                }),
                _ => c.value(i).as_bool3(),
            }
        }
    }
}

/// Packs 3-valued booleans into a Bool column with validity.
fn bool3_column(flags: &[Option<bool>]) -> Column {
    let validity = Bitmap::from_flags(flags.iter().map(Option::is_some));
    let data = ColData::Bool(flags.iter().map(|f| f.unwrap_or(false)).collect());
    Column::from_data(ColumnData { data, validity })
}

fn ord_test(op: CmpOp, o: std::cmp::Ordering) -> bool {
    use std::cmp::Ordering::*;
    match op {
        CmpOp::Eq => o == Equal,
        CmpOp::Ne => o != Equal,
        CmpOp::Lt => o == Less,
        CmpOp::Le => o != Greater,
        CmpOp::Gt => o == Greater,
        CmpOp::Ge => o != Less,
    }
}

/// Comparison kernel. Typed column/column and column/constant fast
/// paths avoid `Value` materialization entirely; everything else goes
/// through the generic lane loop over [`Value::sql_cmp`].
fn cmp_kernel(op: CmpOp, l: &VCol, r: &VCol, len: usize) -> Result<VCol> {
    // Macro for typed same-representation comparisons: lane loop over
    // the raw vectors, NULL lanes yield NULL.
    macro_rules! typed_cmp {
        ($la:expr, $lv:expr, $lo:expr, $ra:expr, $rv:expr, $ro:expr, $cmp:expr) => {{
            let mut flags = Vec::with_capacity(len);
            for i in 0..len {
                flags.push(if $la.get($lo + i) && $ra.get($ro + i) {
                    Some(ord_test(op, $cmp(&$lv[$lo + i], &$rv[$ro + i])))
                } else {
                    None
                });
            }
            return Ok(VCol::Col(bool3_column(&flags)));
        }};
    }
    macro_rules! typed_cmp_const {
        ($la:expr, $lv:expr, $lo:expr, $k:expr, $cmp:expr) => {{
            let mut flags = Vec::with_capacity(len);
            for i in 0..len {
                flags.push(if $la.get($lo + i) {
                    Some(ord_test(op, $cmp(&$lv[$lo + i], $k)))
                } else {
                    None
                });
            }
            return Ok(VCol::Col(bool3_column(&flags)));
        }};
    }
    match (l, r) {
        (VCol::Col(a), VCol::Col(b)) => {
            let (da, va, oa) = a.parts();
            let (db, vb, ob) = b.parts();
            match (da, db) {
                (ColData::Int(x), ColData::Int(y)) => {
                    typed_cmp!(va, x, oa, vb, y, ob, |p: &i64, q: &i64| p.cmp(q))
                }
                (ColData::Float(x), ColData::Float(y)) => {
                    typed_cmp!(va, x, oa, vb, y, ob, |p: &f64, q: &f64| p.total_cmp(q))
                }
                (ColData::Date(x), ColData::Date(y)) => {
                    typed_cmp!(va, x, oa, vb, y, ob, |p: &i32, q: &i32| p.cmp(q))
                }
                (ColData::Str(x), ColData::Str(y)) => {
                    typed_cmp!(
                        va,
                        x,
                        oa,
                        vb,
                        y,
                        ob,
                        |p: &std::sync::Arc<str>, q: &std::sync::Arc<str>| {
                            p.as_ref().cmp(q.as_ref())
                        }
                    )
                }
                _ => {}
            }
        }
        (VCol::Col(a), VCol::Const(k)) if !k.is_null() => {
            let (da, va, oa) = a.parts();
            match (da, k) {
                (ColData::Int(x), Value::Int(q)) => {
                    typed_cmp_const!(va, x, oa, q, |p: &i64, q: &i64| p.cmp(q))
                }
                (ColData::Float(x), Value::Float(q)) => {
                    typed_cmp_const!(va, x, oa, q, |p: &f64, q: &f64| p.total_cmp(q))
                }
                (ColData::Date(x), Value::Date(q)) => {
                    typed_cmp_const!(va, x, oa, q, |p: &i32, q: &i32| p.cmp(q))
                }
                (ColData::Str(x), Value::Str(q)) => {
                    typed_cmp_const!(
                        va,
                        x,
                        oa,
                        q,
                        |p: &std::sync::Arc<str>, q: &std::sync::Arc<str>| {
                            p.as_ref().cmp(q.as_ref())
                        }
                    )
                }
                _ => {}
            }
        }
        (VCol::Const(k), VCol::Col(a)) if !k.is_null() => {
            // Mirror: compare with flipped ordering.
            let flipped = cmp_kernel(
                flip(op),
                &VCol::Col(a.clone()),
                &VCol::Const(k.clone()),
                len,
            )?;
            return Ok(flipped);
        }
        (VCol::Const(a), VCol::Const(b)) => {
            return Ok(VCol::Const(crate::eval::cmp_values(op, a, b)));
        }
        _ => {}
    }
    // Generic lane loop — same primitive as the row path.
    let mut flags = Vec::with_capacity(len);
    for i in 0..len {
        flags.push(l.value(i).sql_cmp(&r.value(i)).map(|o| ord_test(op, o)));
    }
    Ok(VCol::Col(bool3_column(&flags)))
}

/// `a op b` with operands swapped: `a < b` ⇔ `b > a`.
fn flip(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Eq => CmpOp::Eq,
        CmpOp::Ne => CmpOp::Ne,
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
    }
}

/// Arithmetic kernel. Int/Int and Float/Float (including constants) run
/// typed; mixed or exotic operands use the generic loop over the value
/// primitives. Overflow / divide-by-zero surface as `Err` (→ row
/// fallback reproduces the row-ordered error).
fn arith_kernel(op: ArithOp, l: &VCol, r: &VCol, len: usize) -> Result<VCol> {
    if let (VCol::Const(a), VCol::Const(b)) = (l, r) {
        return Ok(VCol::Const(apply_arith(op, a, b)?));
    }
    if !matches!(op, ArithOp::Div) {
        if let Some(col) = arith_fast(op, l, r, len)? {
            return Ok(VCol::Col(col));
        }
    }
    let mut out = Vec::with_capacity(len);
    for i in 0..len {
        out.push(apply_arith(op, &l.value(i), &r.value(i))?);
    }
    Ok(VCol::Col(Column::from_values(out)))
}

fn apply_arith(op: ArithOp, a: &Value, b: &Value) -> Result<Value> {
    match op {
        ArithOp::Add => a.add(b),
        ArithOp::Sub => a.sub(b),
        ArithOp::Mul => a.mul(b),
        ArithOp::Div => a.div(b),
    }
}

/// Typed fast paths for add/sub/mul. Returns `Ok(None)` when no typed
/// combination applies.
fn arith_fast(op: ArithOp, l: &VCol, r: &VCol, len: usize) -> Result<Option<Column>> {
    enum Lane<'a> {
        IntCol(&'a [i64], &'a Bitmap, usize),
        FloatCol(&'a [f64], &'a Bitmap, usize),
        IntConst(i64),
        FloatConst(f64),
    }
    fn lane_of(v: &VCol) -> Option<Lane<'_>> {
        match v {
            VCol::Col(c) => {
                let (d, val, off) = c.parts();
                match d {
                    ColData::Int(x) => Some(Lane::IntCol(x, val, off)),
                    ColData::Float(x) => Some(Lane::FloatCol(x, val, off)),
                    _ => None,
                }
            }
            VCol::Const(Value::Int(i)) => Some(Lane::IntConst(*i)),
            VCol::Const(Value::Float(f)) => Some(Lane::FloatConst(*f)),
            _ => None,
        }
    }
    let (Some(a), Some(b)) = (lane_of(l), lane_of(r)) else {
        return Ok(None);
    };
    let int_op: fn(i64, i64) -> Option<i64> = match op {
        ArithOp::Add => i64::checked_add,
        ArithOp::Sub => i64::checked_sub,
        ArithOp::Mul => i64::checked_mul,
        ArithOp::Div => return Ok(None),
    };
    let float_op: fn(f64, f64) -> f64 = match op {
        ArithOp::Add => |x, y| x + y,
        ArithOp::Sub => |x, y| x - y,
        ArithOp::Mul => |x, y| x * y,
        ArithOp::Div => return Ok(None),
    };
    let valid_at = |lane: &Lane<'_>, i: usize| match lane {
        Lane::IntCol(_, v, o) | Lane::FloatCol(_, v, o) => v.get(o + i),
        _ => true,
    };
    // Int ⊕ Int stays integer (checked); any float operand coerces the
    // result to float — mirroring `Value::arith` exactly.
    match (&a, &b) {
        (Lane::IntCol(..) | Lane::IntConst(_), Lane::IntCol(..) | Lane::IntConst(_)) => {
            let get = |lane: &Lane<'_>, i: usize| match lane {
                Lane::IntCol(x, _, o) => x[o + i],
                Lane::IntConst(k) => *k,
                _ => unreachable!(),
            };
            let mut out = Vec::with_capacity(len);
            let mut validity = Bitmap::from_flags(std::iter::empty());
            for i in 0..len {
                if valid_at(&a, i) && valid_at(&b, i) {
                    out.push(int_op(get(&a, i), get(&b, i)).ok_or(Error::NumericOverflow)?);
                    validity.push(true);
                } else {
                    out.push(0);
                    validity.push(false);
                }
            }
            Ok(Some(Column::from_data(ColumnData {
                data: ColData::Int(out),
                validity,
            })))
        }
        _ => {
            let get = |lane: &Lane<'_>, i: usize| match lane {
                Lane::IntCol(x, _, o) => x[o + i] as f64,
                Lane::FloatCol(x, _, o) => x[o + i],
                Lane::IntConst(k) => *k as f64,
                Lane::FloatConst(k) => *k,
            };
            let mut out = Vec::with_capacity(len);
            let mut validity = Bitmap::from_flags(std::iter::empty());
            for i in 0..len {
                if valid_at(&a, i) && valid_at(&b, i) {
                    out.push(float_op(get(&a, i), get(&b, i)));
                    validity.push(true);
                } else {
                    out.push(0.0);
                    validity.push(false);
                }
            }
            Ok(Some(Column::from_data(ColumnData {
                data: ColData::Float(out),
                validity,
            })))
        }
    }
}

/// Lanes where a predicate column is TRUE (valid and true). Errors with
/// the row path's `TypeMismatch` when the column is not boolean.
pub fn selected_true(col: &Column) -> Result<Vec<usize>> {
    let (data, validity, off) = col.parts();
    match data {
        ColData::Bool(d) => Ok((0..col.len())
            .filter(|&i| validity.get(off + i) && d[off + i])
            .collect()),
        _ => {
            let mut sel = Vec::new();
            for i in 0..col.len() {
                if col.value(i).as_bool3()? == Some(true) {
                    sel.push(i);
                }
            }
            Ok(sel)
        }
    }
}

/// Materializes one lane of a columnar batch as a row — used by the row
/// fallback and by bridged consumers.
pub fn lane_row(columns: &[Column], i: usize) -> Row {
    columns.iter().map(|c| c.value(i)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval, EvalCtx};
    use orthopt_common::column::rows_to_columns;

    fn cx<'a>(
        cols: &'a [ColId],
        pos: &'a PosMap,
        columns: &'a [Column],
        len: usize,
        binds: &'a Bindings,
    ) -> VecEval<'a> {
        VecEval {
            cols,
            pos,
            columns,
            len,
            binds,
        }
    }

    /// The vectorized path must agree lane-for-lane with the row
    /// evaluator on every expression it claims to support.
    #[test]
    fn kernels_agree_with_row_eval() {
        let cols = [ColId(1), ColId(2), ColId(3)];
        let rows: Vec<Row> = vec![
            vec![Value::Int(1), Value::Float(2.5), Value::str("a")],
            vec![Value::Int(-3), Value::Null, Value::str("bb")],
            vec![Value::Null, Value::Float(0.0), Value::str("a")],
            vec![Value::Int(7), Value::Float(-1.0), Value::Null],
        ];
        let columns = rows_to_columns(&rows, 3);
        let pm = PosMap::new(&cols);
        let binds = Bindings::new();
        let c = cx(&cols, &pm, &columns, rows.len(), &binds);
        let exprs = vec![
            ScalarExpr::cmp(CmpOp::Lt, ScalarExpr::col(ColId(1)), ScalarExpr::lit(2i64)),
            ScalarExpr::eq(
                ScalarExpr::col(ColId(3)),
                ScalarExpr::Literal(Value::str("a")),
            ),
            ScalarExpr::Cmp {
                op: CmpOp::Ge,
                left: Box::new(ScalarExpr::col(ColId(2))),
                right: Box::new(ScalarExpr::col(ColId(1))),
            },
            ScalarExpr::Arith {
                op: ArithOp::Add,
                left: Box::new(ScalarExpr::col(ColId(1))),
                right: Box::new(ScalarExpr::lit(10i64)),
            },
            ScalarExpr::Arith {
                op: ArithOp::Mul,
                left: Box::new(ScalarExpr::col(ColId(2))),
                right: Box::new(ScalarExpr::col(ColId(1))),
            },
            ScalarExpr::And(vec![
                ScalarExpr::cmp(CmpOp::Lt, ScalarExpr::col(ColId(1)), ScalarExpr::lit(5i64)),
                ScalarExpr::eq(
                    ScalarExpr::col(ColId(3)),
                    ScalarExpr::Literal(Value::str("a")),
                ),
            ]),
            ScalarExpr::Or(vec![
                ScalarExpr::IsNull {
                    expr: Box::new(ScalarExpr::col(ColId(2))),
                    negated: false,
                },
                ScalarExpr::cmp(
                    CmpOp::Lt,
                    ScalarExpr::col(ColId(2)),
                    ScalarExpr::lit(Value::Float(1.0)),
                ),
            ]),
            ScalarExpr::Not(Box::new(ScalarExpr::eq(
                ScalarExpr::col(ColId(1)),
                ScalarExpr::lit(1i64),
            ))),
            ScalarExpr::Case {
                operand: None,
                whens: vec![(
                    ScalarExpr::cmp(CmpOp::Lt, ScalarExpr::col(ColId(1)), ScalarExpr::lit(0i64)),
                    ScalarExpr::Literal(Value::str("neg")),
                )],
                else_: Some(Box::new(ScalarExpr::Literal(Value::str("other")))),
            },
            ScalarExpr::Neg(Box::new(ScalarExpr::col(ColId(1)))),
        ];
        for e in &exprs {
            let vec_out = eval_column(e, &c).unwrap();
            for (i, r) in rows.iter().enumerate() {
                let row_out = eval(e, &EvalCtx::plain(&cols, r, &binds)).unwrap();
                assert_eq!(vec_out.value(i), row_out, "lane {i} of {e:?}");
            }
        }
    }

    #[test]
    fn selection_picks_true_lanes_only() {
        let col = Column::from_values(vec![
            Value::Bool(true),
            Value::Bool(false),
            Value::Null,
            Value::Bool(true),
        ]);
        assert_eq!(selected_true(&col).unwrap(), vec![0, 3]);
        let bad = Column::from_values(vec![Value::Int(1)]);
        assert!(selected_true(&bad).is_err());
    }

    #[test]
    fn overflow_surfaces_as_error_for_fallback() {
        let cols = [ColId(1)];
        let rows: Vec<Row> = vec![vec![Value::Int(i64::MAX)]];
        let columns = rows_to_columns(&rows, 1);
        let pm = PosMap::new(&cols);
        let binds = Bindings::new();
        let c = cx(&cols, &pm, &columns, 1, &binds);
        let e = ScalarExpr::Arith {
            op: ArithOp::Add,
            left: Box::new(ScalarExpr::col(ColId(1))),
            right: Box::new(ScalarExpr::lit(1i64)),
        };
        assert!(matches!(eval_column(&e, &c), Err(Error::NumericOverflow)));
    }
}
