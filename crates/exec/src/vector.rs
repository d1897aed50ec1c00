//! Vectorized scalar kernels over [`Column`]s.
//!
//! [`eval_lanes`] walks a scalar expression **once per batch** and
//! evaluates every lane in tight loops, instead of re-walking the tree
//! for every row the way [`crate::eval::eval`] does. Hot typed
//! combinations (int/float/date comparisons and arithmetic, possibly
//! against a constant) run branch-light kernels over the typed storage;
//! everything else goes through a generic lane loop that calls the
//! *same* value-level primitives as the row evaluator, so results are
//! identical by construction.
//!
//! Errors are exact per lane. Kernels compute every lane, but a lane's
//! error is the one `eval::eval` raises for that row, or none: an
//! operand's failing lanes travel beside its values (ascending, each
//! with its error), and each node counts an operand's error only on the
//! lanes the row evaluator would have evaluated that operand on — a
//! binary op's left error before its right and before its own, an
//! `AND` / `OR` part only where the parts before it left the lane
//! undecided, a `CASE` arm only where its `WHEN` fired. A caller raises
//! the first failing lane in row order among the lanes its operator
//! reaches, which is the error a row-at-a-time operator raises.

use std::cmp::Ordering;

use orthopt_common::column::{Bitmap, ColData, Column, ColumnData};
use orthopt_common::{Error, Value};
use orthopt_ir::{ArithOp, CmpOp, Quant, ScalarExpr};

use crate::bindings::Bindings;
use crate::eval::PosMap;

/// Per-batch evaluation context for the vectorized path.
pub struct VecEval<'a> {
    /// Position map of the batch's layout, resolved once per operator.
    pub pos: &'a PosMap,
    /// The batch's columns, at the positions `pos` maps.
    pub columns: &'a [Column],
    /// Number of lanes (rows) in the batch.
    pub len: usize,
    /// Outer parameter bindings.
    pub binds: &'a Bindings,
}

/// A failing lane and the error the row evaluator raises on it.
pub type LaneError = (usize, Error);

/// An expression evaluated over a batch: one value per lane, and the
/// failing lanes, ascending. A failing lane's value is NULL.
pub struct Lanes {
    /// The lane values.
    pub col: Column,
    /// The failing lanes, ascending, each with its error.
    pub errs: Vec<LaneError>,
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

/// An evaluated operand: values plus failing lanes (ascending). Inside
/// the evaluator a failing lane's value is unspecified; [`eval_lanes`]
/// masks it to NULL.
struct Ev {
    v: VCol,
    errs: Vec<LaneError>,
}

impl Ev {
    fn ok(v: VCol) -> Ev {
        Ev {
            v,
            errs: Vec::new(),
        }
    }

    /// An operand that cannot be evaluated at all: every lane fails.
    fn failed(e: Error, len: usize) -> Ev {
        Ev {
            v: VCol::Const(Value::Null),
            errs: every_lane(e, len),
        }
    }
}

/// `e` on each of `len` lanes: a constant operand's error.
fn every_lane(e: Error, len: usize) -> Vec<LaneError> {
    (0..len).map(|i| (i, e.clone())).collect()
}

/// Evaluates `expr` over every lane of the batch: a column of `cx.len`
/// values and the lanes whose row evaluation fails.
pub fn eval_lanes(expr: &ScalarExpr, cx: &VecEval<'_>) -> Lanes {
    let Ev { v, errs } = eval_v(expr, cx);
    let mut col = match v {
        VCol::Col(c) => c,
        VCol::Const(val) => Column::from_values(vec![val; cx.len]),
    };
    if !errs.is_empty() {
        let mut idx: Vec<_> = (0..cx.len).map(Some).collect();
        errs.iter().for_each(|e| idx[e.0] = None);
        col = col.gather_opt(&idx);
    }
    Lanes { col, errs }
}

/// Evaluates a predicate over every lane: the lanes where it is TRUE,
/// and the failing lanes — evaluation errors, and the `TypeMismatch` a
/// non-boolean lane raises — as the row evaluator ([`crate::eval`])
/// sees each row's predicate.
pub fn eval_truth(expr: &ScalarExpr, cx: &VecEval<'_>) -> (Vec<usize>, Vec<LaneError>) {
    let Lanes { col, errs } = eval_lanes(expr, cx);
    if let (ColData::Bool(d), _, off) = col.parts() {
        let d = &d[off..off + cx.len];
        // Branch-free: every lane writes its index, TRUE lanes keep it.
        let mut sel = vec![0; cx.len];
        let mut n = 0;
        match nulls(&col) {
            None => {
                for (i, &t) in d.iter().enumerate() {
                    sel[n] = i;
                    n += usize::from(t);
                }
            }
            Some((b, o)) => {
                for (i, &t) in d.iter().enumerate() {
                    sel[n] = i;
                    n += usize::from(t && b.get(o + i));
                }
            }
        }
        sel.truncate(n);
        return (sel, errs);
    }
    let mut mismatched = Vec::new();
    let flags = bool3_lanes(&VCol::Col(col), cx.len, &mut mismatched);
    let sel = (0..cx.len).filter(|&i| flags[i] == Some(true)).collect();
    (sel, merge(errs, mismatched))
}

/// The first error in row order over expressions evaluated on the same
/// lanes: the lowest failing lane, a tie going to the earliest
/// expression (a row evaluates its expressions in order).
pub fn first_error<'e>(errs: impl IntoIterator<Item = &'e [LaneError]>) -> Option<&'e LaneError> {
    errs.into_iter()
        .filter_map(<[LaneError]>::first)
        .min_by_key(|e| e.0)
}

/// Merges two ascending failing-lane lists; on a lane both fail, `a`'s
/// error is the one the row evaluator meets first.
fn merge(mut a: Vec<LaneError>, b: Vec<LaneError>) -> Vec<LaneError> {
    a.extend(b);
    // Stable: on a tie `a`'s entry comes first, and dedup keeps it.
    a.sort_by_key(|e| e.0);
    a.dedup_by_key(|e| e.0);
    a
}

fn eval_v(expr: &ScalarExpr, cx: &VecEval<'_>) -> Ev {
    match expr {
        ScalarExpr::Column(id) => {
            if let Some(p) = cx.pos.get(*id) {
                return Ev::ok(VCol::Col(cx.columns[p].clone()));
            }
            match cx.binds.get(*id) {
                Some(v) => Ev::ok(VCol::Const(v.clone())),
                None => Ev::failed(Error::UnknownColumn(id.to_string()), cx.len),
            }
        }
        ScalarExpr::Literal(v) => Ev::ok(VCol::Const(v.clone())),
        ScalarExpr::Cmp { op, left, right } => {
            let l = eval_v(left, cx);
            let r = eval_v(right, cx);
            Ev {
                v: cmp_kernel(*op, &l.v, &r.v, cx.len),
                errs: merge(l.errs, r.errs),
            }
        }
        ScalarExpr::Arith { op, left, right } => {
            let l = eval_v(left, cx);
            let r = eval_v(right, cx);
            let mut own = Vec::new();
            let v = arith_kernel(*op, &l.v, &r.v, cx.len, &mut own);
            Ev {
                v,
                errs: merge(merge(l.errs, r.errs), own),
            }
        }
        ScalarExpr::Neg(e) => {
            let Ev { v, errs } = eval_v(e, cx);
            let mut own = Vec::new();
            let v = match v {
                VCol::Const(c) => VCol::Const(c.neg().unwrap_or_else(|e| {
                    own = every_lane(e, cx.len);
                    Value::Null
                })),
                VCol::Col(c) => {
                    let mut out = Vec::with_capacity(cx.len);
                    for i in 0..cx.len {
                        out.push(c.value(i).neg().unwrap_or_else(|e| {
                            own.push((i, e));
                            Value::Null
                        }));
                    }
                    VCol::Col(Column::from_values(out))
                }
            };
            Ev {
                v,
                errs: merge(errs, own),
            }
        }
        ScalarExpr::And(parts) => bool_fold(parts, cx, true),
        ScalarExpr::Or(parts) => bool_fold(parts, cx, false),
        ScalarExpr::Not(e) => {
            let Ev { v, errs } = eval_v(e, cx);
            let mut own = Vec::new();
            let flags = bool3_lanes(&v, cx.len, &mut own);
            let flags: Vec<_> = flags.into_iter().map(orthopt_common::value::not3).collect();
            Ev {
                v: VCol::Col(bool3_column(&flags)),
                errs: merge(errs, own),
            }
        }
        ScalarExpr::IsNull { expr, negated } => {
            let Ev { v, errs } = eval_v(expr, cx);
            let v = match v {
                VCol::Const(c) => VCol::Const(Value::Bool(c.is_null() != *negated)),
                VCol::Col(c) => {
                    let flags: Vec<_> = (0..cx.len)
                        .map(|i| Some(c.is_valid(i) == *negated))
                        .collect();
                    VCol::Col(bool3_column(&flags))
                }
            };
            Ev { v, errs }
        }
        ScalarExpr::Case {
            operand,
            whens,
            else_,
        } => case(operand.as_deref(), whens, else_.as_deref(), cx),
        ScalarExpr::Subquery(_)
        | ScalarExpr::Exists { .. }
        | ScalarExpr::InSubquery { .. }
        | ScalarExpr::QuantifiedCmp {
            op: _,
            quant: Quant::Any | Quant::All,
            ..
        } => Ev::failed(
            Error::internal("subquery in scalar expression after normalization"),
            cx.len,
        ),
    }
}

/// Lane-wise 3-valued AND/OR fold over the parts. Every part runs over
/// every lane, but a lane is *decided* once it reaches the absorbing
/// value (FALSE for AND, TRUE for OR) or fails: later parts neither
/// combine into it nor count their errors on it, as the row path
/// short-circuits. NULL decides nothing. A Bool part folds slice by
/// slice; any other part lane by lane, under `as_bool3`.
fn bool_fold(parts: &[ScalarExpr], cx: &VecEval<'_>, is_and: bool) -> Ev {
    let len = cx.len;
    let mut decided = vec![false; len];
    // Whether some part so far read NULL on the lane, and on any lane.
    let mut null = vec![false; len];
    let mut any_null = false;
    let mut errs = Vec::new();
    for p in parts {
        if decided.iter().all(|&d| d) {
            break;
        }
        let Ev { v, errs: part_errs } = eval_v(p, cx);
        for (i, e) in part_errs {
            if !decided[i] {
                decided[i] = true;
                errs.push((i, e));
            }
        }
        match &v {
            VCol::Col(c) if matches!(c.parts().0, ColData::Bool(_)) => {
                let (ColData::Bool(d), _, off) = c.parts() else {
                    unreachable!("matched a Bool column")
                };
                let d = &d[off..off + len];
                match nulls(c) {
                    None => {
                        for (dec, &b) in decided.iter_mut().zip(d) {
                            *dec |= b != is_and;
                        }
                    }
                    Some((validity, o)) => {
                        any_null = true;
                        for (i, &b) in d.iter().enumerate() {
                            let valid = validity.get(o + i);
                            decided[i] |= valid && b != is_and;
                            null[i] |= !valid;
                        }
                    }
                }
            }
            VCol::Const(Value::Bool(b)) => {
                if *b != is_and {
                    decided.fill(true);
                }
            }
            VCol::Const(Value::Null) => {
                any_null = true;
                null.fill(true);
            }
            _ => {
                for i in 0..len {
                    if decided[i] {
                        continue;
                    }
                    match bool3_at(&v, i) {
                        Ok(Some(b)) => decided[i] = b != is_and,
                        Ok(None) => {
                            any_null = true;
                            null[i] = true;
                        }
                        Err(e) => {
                            decided[i] = true;
                            errs.push((i, e));
                        }
                    }
                }
            }
        }
    }
    errs.sort_unstable_by_key(|e| e.0);
    // A decided lane holds the absorbing value; an undecided one the
    // identity, or NULL (payload `false`) where a part read NULL.
    let validity = if any_null {
        Bitmap::from_flags(decided.iter().zip(&null).map(|(&d, &n)| d || !n))
    } else {
        Bitmap::new_valid(len)
    };
    let data = decided
        .iter()
        .zip(&null)
        .map(|(&d, &n)| if d { !is_and } else { is_and && !n })
        .collect();
    Ev {
        v: VCol::Col(Column::from_data(ColumnData {
            data: ColData::Bool(data),
            validity,
        })),
        errs,
    }
}

/// `CASE`: every arm runs over every lane, then each lane picks its arm.
/// The comparand's errors count on every lane; a `WHEN`'s only where no
/// earlier one fired, a `THEN`'s only where its `WHEN` fired, the
/// `ELSE`'s only where none did.
fn case(
    operand: Option<&ScalarExpr>,
    whens: &[(ScalarExpr, ScalarExpr)],
    else_: Option<&ScalarExpr>,
    cx: &VecEval<'_>,
) -> Ev {
    // Per lane: the arm that fired, or still open, or failed.
    const OPEN: usize = usize::MAX;
    const FAILED: usize = usize::MAX - 1;
    let mut pick = vec![OPEN; cx.len];
    let mut errs = Vec::new();
    let comparand = operand.map(|o| {
        let Ev { v, errs: c_errs } = eval_v(o, cx);
        for (i, e) in c_errs {
            pick[i] = FAILED;
            errs.push((i, e));
        }
        v
    });
    let mut thens = Vec::with_capacity(whens.len());
    for (k, (w, t)) in whens.iter().enumerate() {
        let Ev { v: w, errs: w_errs } = eval_v(w, cx);
        for (i, e) in w_errs {
            if pick[i] == OPEN {
                pick[i] = FAILED;
                errs.push((i, e));
            }
        }
        for (i, p) in pick.iter_mut().enumerate() {
            if *p != OPEN {
                continue;
            }
            let fire = match &comparand {
                Some(c) => c.value(i).sql_eq(&w.value(i)) == Some(true),
                None => match bool3_at(&w, i) {
                    Ok(b) => b == Some(true),
                    Err(e) => {
                        *p = FAILED;
                        errs.push((i, e));
                        continue;
                    }
                },
            };
            if fire {
                *p = k;
            }
        }
        thens.push(eval_v(t, cx));
    }
    for (k, t) in thens.iter_mut().enumerate() {
        errs.extend(
            std::mem::take(&mut t.errs)
                .into_iter()
                .filter(|e| pick[e.0] == k),
        );
    }
    let else_v = else_.map(|e| {
        let Ev { v, errs: e_errs } = eval_v(e, cx);
        errs.extend(e_errs.into_iter().filter(|e| pick[e.0] == OPEN));
        v
    });
    errs.sort_unstable_by_key(|e| e.0);
    let out = pick
        .iter()
        .enumerate()
        .map(|(i, &p)| match p {
            OPEN => else_v.as_ref().map_or(Value::Null, |e| e.value(i)),
            FAILED => Value::Null,
            k => thens[k].v.value(i),
        })
        .collect();
    Ev {
        v: VCol::Col(Column::from_values(out)),
        errs,
    }
}

/// Every lane of a boolean operand under `as_bool3` semantics; a
/// non-boolean lane's `TypeMismatch` goes to `errs` and reads NULL.
fn bool3_lanes(v: &VCol, len: usize, errs: &mut Vec<LaneError>) -> Vec<Option<bool>> {
    let lane = |i| {
        bool3_at(v, i).unwrap_or_else(|e| {
            errs.push((i, e));
            None
        })
    };
    (0..len).map(lane).collect()
}

/// Reads lane `i` of a boolean operand under `as_bool3` semantics.
fn bool3_at(v: &VCol, i: usize) -> orthopt_common::Result<Option<bool>> {
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

fn ord_test(op: CmpOp, o: Ordering) -> bool {
    use Ordering::*;
    match op {
        CmpOp::Eq => o == Equal,
        CmpOp::Ne => o != Equal,
        CmpOp::Lt => o == Less,
        CmpOp::Le => o != Greater,
        CmpOp::Gt => o == Greater,
        CmpOp::Ge => o != Less,
    }
}

/// A window's NULLs: its storage's validity and the window's offset in
/// it, unless no lane of the window is NULL.
fn nulls(c: &Column) -> Option<(&Bitmap, usize)> {
    (!c.all_valid()).then(|| {
        let (_, validity, off) = c.parts();
        (validity, off)
    })
}

/// A Bool column of `len` lanes: `values` where every operand window
/// in `nulls` holds a value, NULL (payload `false`) elsewhere. With no
/// NULL operand lane the validity is all-valid outright.
fn bool_lanes(
    len: usize,
    nulls: [Option<(&Bitmap, usize)>; 2],
    values: impl Iterator<Item = bool>,
) -> Column {
    let mut data: Vec<bool> = values.collect();
    debug_assert_eq!(data.len(), len);
    let validity = match nulls {
        [None, None] => Bitmap::new_valid(len),
        _ => {
            let validity = Bitmap::from_flags(
                (0..len).map(|i| nulls.iter().flatten().all(|(b, off)| b.get(off + i))),
            );
            for (i, d) in data.iter_mut().enumerate() {
                *d &= validity.get(i);
            }
            validity
        }
    };
    Column::from_data(ColumnData {
        data: ColData::Bool(data),
        validity,
    })
}

/// Whether `a op b` holds, `truth` being `op`'s value on (less, equal,
/// greater): three primitive comparisons and no branch, so a lane loop
/// over it vectorizes.
#[inline(always)]
fn holds<T: PartialOrd>(truth: [bool; 3], a: T, b: T) -> bool {
    (truth[0] & (a < b)) | (truth[1] & (a == b)) | (truth[2] & (a > b))
}

/// A float as the integer that orders as `f64::total_cmp` orders it
/// (`total_cmp`'s own transform).
#[inline(always)]
fn total_key(f: f64) -> i64 {
    let b = f.to_bits() as i64;
    b ^ (((b >> 63) as u64) >> 1) as i64
}

/// Comparison kernel. Typed column/column and column/constant pairs —
/// `Int`, `Float` and an `Int` against a `Float` (as `f64`, by
/// `total_cmp`, exactly as [`Value::sql_cmp`] compares them), `Date`,
/// `Str` — write the Bool column directly; everything else goes through
/// the generic lane loop over [`Value::sql_cmp`].
fn cmp_kernel(op: CmpOp, l: &VCol, r: &VCol, len: usize) -> VCol {
    match (l, r) {
        (VCol::Const(a), VCol::Const(b)) => return VCol::Const(crate::eval::cmp_values(op, a, b)),
        // Mirror: compare with flipped ordering.
        (VCol::Const(k), VCol::Col(_)) if !k.is_null() => return cmp_kernel(flip(op), r, l, len),
        (VCol::Col(a), _) => {
            let truth =
                [Ordering::Less, Ordering::Equal, Ordering::Greater].map(|o| ord_test(op, o));
            if let Some(c) = cmp_typed(truth, a, r, len) {
                return VCol::Col(c);
            }
        }
        _ => {}
    }
    // Generic lane loop — same primitive as the row path.
    let mut flags = Vec::with_capacity(len);
    for i in 0..len {
        flags.push(l.value(i).sql_cmp(&r.value(i)).map(|o| ord_test(op, o)));
    }
    VCol::Col(bool3_column(&flags))
}

/// The typed comparisons of [`cmp_kernel`]: column `a` against `r`,
/// `truth` giving the comparison's value per ordering (`Less`, `Equal`,
/// `Greater`). Numbers compare as integers: an `Int` or a `Date` as
/// itself, a `Float` (or an `Int` against one, as `f64`) as its
/// [`total_key`]. `None` when no typed pair applies.
fn cmp_typed(truth: [bool; 3], a: &Column, r: &VCol, len: usize) -> Option<Column> {
    let (da, _, oa) = a.parts();
    let na = nulls(a);
    macro_rules! col_col {
        ($x:expr, $y:expr, $ob:expr, $nb:expr, $kx:expr, $ky:expr) => {{
            let (x, y) = (&$x[oa..oa + len], &$y[$ob..$ob + len]);
            let values = x.iter().zip(y).map(|(p, q)| holds(truth, $kx(*p), $ky(*q)));
            Some(bool_lanes(len, [na, $nb], values))
        }};
    }
    macro_rules! col_const {
        ($x:expr, $k:expr, $kx:expr) => {{
            let k = $k;
            let values = $x[oa..oa + len].iter().map(|p| holds(truth, $kx(*p), k));
            Some(bool_lanes(len, [na, None], values))
        }};
    }
    let int = |i: i64| i;
    let date = |d: i32| d;
    let float = total_key;
    let int_as_float = |i: i64| total_key(i as f64);
    match r {
        VCol::Col(b) => {
            let (db, _, ob) = b.parts();
            let nb = nulls(b);
            match (da, db) {
                (ColData::Int(x), ColData::Int(y)) => col_col!(x, y, ob, nb, int, int),
                (ColData::Float(x), ColData::Float(y)) => col_col!(x, y, ob, nb, float, float),
                (ColData::Int(x), ColData::Float(y)) => col_col!(x, y, ob, nb, int_as_float, float),
                (ColData::Float(x), ColData::Int(y)) => col_col!(x, y, ob, nb, float, int_as_float),
                (ColData::Date(x), ColData::Date(y)) => col_col!(x, y, ob, nb, date, date),
                (ColData::Str(x), ColData::Str(y)) => {
                    let (x, y) = (&x[oa..oa + len], &y[ob..ob + len]);
                    let values = x.iter().zip(y).map(|(p, q)| str_holds(truth, p, q));
                    Some(bool_lanes(len, [na, nb], values))
                }
                _ => None,
            }
        }
        VCol::Const(k) => match (da, k) {
            (ColData::Int(x), Value::Int(q)) => col_const!(x, *q, int),
            (ColData::Float(x), Value::Float(q)) => col_const!(x, float(*q), float),
            (ColData::Int(x), Value::Float(q)) => col_const!(x, float(*q), int_as_float),
            (ColData::Float(x), Value::Int(q)) => col_const!(x, int_as_float(*q), float),
            (ColData::Date(x), Value::Date(q)) => col_const!(x, *q, date),
            (ColData::Str(x), Value::Str(q)) => {
                let values = x[oa..oa + len].iter().map(|p| str_holds(truth, p, q));
                Some(bool_lanes(len, [na, None], values))
            }
            _ => None,
        },
    }
}

/// Whether `p op q` holds for two strings, by one byte-wise compare.
#[inline]
fn str_holds(truth: [bool; 3], p: &str, q: &str) -> bool {
    truth[(p.cmp(q) as i8 + 1) as usize]
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
/// primitives. Overflow, divide-by-zero and type errors go to `errs`,
/// ascending, with NULL in their lanes.
fn arith_kernel(op: ArithOp, l: &VCol, r: &VCol, len: usize, errs: &mut Vec<LaneError>) -> VCol {
    if let (VCol::Const(a), VCol::Const(b)) = (l, r) {
        return VCol::Const(apply_arith(op, a, b).unwrap_or_else(|e| {
            *errs = every_lane(e, len);
            Value::Null
        }));
    }
    if !matches!(op, ArithOp::Div) {
        if let Some(col) = arith_fast(op, l, r, len, errs) {
            return VCol::Col(col);
        }
    }
    let mut out = Vec::with_capacity(len);
    for i in 0..len {
        out.push(
            apply_arith(op, &l.value(i), &r.value(i)).unwrap_or_else(|e| {
                errs.push((i, e));
                Value::Null
            }),
        );
    }
    VCol::Col(Column::from_values(out))
}

fn apply_arith(op: ArithOp, a: &Value, b: &Value) -> orthopt_common::Result<Value> {
    match op {
        ArithOp::Add => a.add(b),
        ArithOp::Sub => a.sub(b),
        ArithOp::Mul => a.mul(b),
        ArithOp::Div => a.div(b),
    }
}

/// Typed fast paths for add/sub/mul, integer overflow going to `errs`.
/// Returns `None` when no typed combination applies.
fn arith_fast(
    op: ArithOp,
    l: &VCol,
    r: &VCol,
    len: usize,
    errs: &mut Vec<LaneError>,
) -> Option<Column> {
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
    let (a, b) = (lane_of(l)?, lane_of(r)?);
    let int_op: fn(i64, i64) -> Option<i64> = match op {
        ArithOp::Add => i64::checked_add,
        ArithOp::Sub => i64::checked_sub,
        ArithOp::Mul => i64::checked_mul,
        ArithOp::Div => return None,
    };
    let float_op: fn(f64, f64) -> f64 = match op {
        ArithOp::Add => |x, y| x + y,
        ArithOp::Sub => |x, y| x - y,
        ArithOp::Mul => |x, y| x * y,
        ArithOp::Div => return None,
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
                    if let Some(v) = int_op(get(&a, i), get(&b, i)) {
                        out.push(v);
                        validity.push(true);
                        continue;
                    }
                    errs.push((i, Error::NumericOverflow));
                }
                out.push(0);
                validity.push(false);
            }
            Some(Column::from_data(ColumnData {
                data: ColData::Int(out),
                validity,
            }))
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
            Some(Column::from_data(ColumnData {
                data: ColData::Float(out),
                validity,
            }))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval, EvalCtx};
    use orthopt_common::column::rows_to_columns;
    use orthopt_common::{ColId, Result, Row};
    use proptest::prelude::*;
    use proptest::strategy::TestRng;

    fn cx<'a>(
        pos: &'a PosMap,
        columns: &'a [Column],
        len: usize,
        binds: &'a Bindings,
    ) -> VecEval<'a> {
        VecEval {
            pos,
            columns,
            len,
            binds,
        }
    }

    fn arith(op: ArithOp, l: ScalarExpr, r: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Arith {
            op,
            left: Box::new(l),
            right: Box::new(r),
        }
    }

    /// Lane `i`'s value or error, as [`eval_lanes`] reports it.
    fn lane(out: &Lanes, i: usize) -> Result<Value> {
        match out.errs.iter().find(|e| e.0 == i) {
            Some((_, e)) => Err(e.clone()),
            None => Ok(out.col.value(i)),
        }
    }

    /// Every lane of `e` over `rows`, evaluated `batch` lanes at a time
    /// over column windows, equals `eval::eval` on that row — the value
    /// (compared with its type) or the error — and so does its truth as
    /// a predicate. Failing lanes are ascending and hold NULL.
    fn check_lane_exact(
        e: &ScalarExpr,
        cols: &[ColId],
        rows: &[Row],
        binds: &Bindings,
        batch: usize,
    ) -> std::result::Result<(), TestCaseError> {
        let columns = rows_to_columns(rows, cols.len());
        let pm = PosMap::new(cols);
        for start in (0..rows.len()).step_by(batch) {
            let n = batch.min(rows.len() - start);
            let window: Vec<Column> = columns.iter().map(|c| c.slice(start, n)).collect();
            let c = cx(&pm, &window, n, binds);
            let out = eval_lanes(e, &c);
            prop_assert!(out.errs.windows(2).all(|w| w[0].0 < w[1].0));
            let (sel, truth_errs) = eval_truth(e, &c);
            for i in 0..n {
                let want = eval(e, &EvalCtx::plain(cols, &rows[start + i], binds));
                let got = lane(&out, i);
                prop_assert_eq!(
                    format!("{got:?}"),
                    format!("{want:?}"),
                    "lane {} of {:?}",
                    start + i,
                    e
                );
                if got.is_err() {
                    prop_assert!(out.col.value(i).is_null());
                }
                let want_truth = want.and_then(|v| v.as_bool3());
                let got_truth = match truth_errs.iter().find(|x| x.0 == i) {
                    Some((_, err)) => Err(err.clone()),
                    None => Ok(sel.contains(&i)),
                };
                prop_assert_eq!(
                    got_truth,
                    want_truth.map(|b| b == Some(true)),
                    "truth of lane {}",
                    start + i
                );
            }
        }
        Ok(())
    }

    /// Random rows over Int, Float, Str, Bool and Date columns and a
    /// random expression of depth ≤ 4 over them: NULLs (none at all in
    /// a third of the cases), Int-vs-Float comparisons, zero divisors,
    /// `i64::MIN` / `MAX`, non-boolean operands under the boolean
    /// connectives, a bound parameter and, rarely, an unknown column.
    struct ExprCase;

    const COLS: [ColId; 5] = [ColId(1), ColId(2), ColId(3), ColId(4), ColId(5)];
    const PARAM: ColId = ColId(9);

    fn pick<T: Clone>(rng: &mut TestRng, xs: &[T]) -> T {
        xs[rng.below(xs.len() as u64) as usize].clone()
    }

    fn value_of(rng: &mut TestRng, ty: usize, nulls: bool) -> Value {
        if nulls && rng.below(6) == 0 {
            return Value::Null;
        }
        match ty {
            0 => Value::Int(pick(rng, &[0, 1, -1, 2, 7, i64::MIN, i64::MAX])),
            1 => Value::Float(pick(rng, &[0.0, 1.5, -2.0, 0.5])),
            2 => Value::str(pick(rng, &["a", "b", ""])),
            3 => Value::Bool(rng.below(2) == 0),
            _ => Value::Date(pick(rng, &[0, 10, -5])),
        }
    }

    fn expr_of(rng: &mut TestRng, depth: u32) -> ScalarExpr {
        if depth == 0 || rng.below(4) == 0 {
            return match rng.below(20) {
                0..=11 => ScalarExpr::col(pick(rng, &COLS)),
                12 => ScalarExpr::col(PARAM),
                13 if rng.below(4) == 0 => ScalarExpr::col(ColId(99)),
                _ => {
                    let ty = rng.below(5) as usize;
                    ScalarExpr::Literal(value_of(rng, ty, true))
                }
            };
        }
        let mut sub = || expr_of(rng, depth - 1);
        let (a, b, c) = (sub(), sub(), sub());
        let op = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ][rng.below(6) as usize];
        match rng.below(10) {
            0 => ScalarExpr::cmp(op, a, b),
            9 => {
                // An Int or Float column against a constant of the other
                // numeric type, on either side.
                let int_col = rng.below(2) == 0;
                let col = ScalarExpr::col(COLS[usize::from(!int_col)]);
                let k = ScalarExpr::Literal(value_of(rng, usize::from(int_col), false));
                if rng.below(2) == 0 {
                    ScalarExpr::cmp(op, col, k)
                } else {
                    ScalarExpr::cmp(op, k, col)
                }
            }
            1 | 2 => {
                let op =
                    [ArithOp::Add, ArithOp::Sub, ArithOp::Mul, ArithOp::Div][rng.below(4) as usize];
                arith(op, a, b)
            }
            3 => ScalarExpr::Neg(Box::new(a)),
            4 => ScalarExpr::And(vec![a, b, c][..2 + rng.below(2) as usize].to_vec()),
            5 => ScalarExpr::Or(vec![a, b, c][..2 + rng.below(2) as usize].to_vec()),
            6 => ScalarExpr::Not(Box::new(a)),
            7 => ScalarExpr::IsNull {
                expr: Box::new(a),
                negated: rng.below(2) == 0,
            },
            _ => {
                let operand = (rng.below(3) == 0).then(|| Box::new(expr_of(rng, depth - 1)));
                let mut whens = vec![(a, b)];
                if rng.below(2) == 0 {
                    whens.push((expr_of(rng, depth - 1), expr_of(rng, depth - 1)));
                }
                ScalarExpr::Case {
                    operand,
                    whens,
                    else_: (rng.below(2) == 0).then(|| Box::new(c)),
                }
            }
        }
    }

    impl Strategy for ExprCase {
        type Value = (Vec<Row>, ScalarExpr);

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            // Mostly a few rows; sometimes more than one full batch.
            let n = if rng.below(16) == 0 {
                1030
            } else {
                1 + rng.below(40) as usize
            };
            // A third of the cases hold no NULL, so whole windows take
            // the kernels' all-valid paths.
            let nulls = rng.below(3) != 0;
            let rows = (0..n)
                .map(|_| (0..COLS.len()).map(|ty| value_of(rng, ty, nulls)).collect())
                .collect();
            (rows, expr_of(rng, 3))
        }
    }

    proptest! {
        /// Lane-exact errors: at batch sizes 1, 7 and 1024, each lane's
        /// value or error is the row evaluator's for that row.
        #[test]
        fn kernels_agree_with_row_eval(case in ExprCase) {
            let (rows, e) = case;
            let mut binds = Bindings::new();
            binds.set(PARAM, Value::Int(0));
            for batch in [1, 7, 1024] {
                check_lane_exact(&e, &COLS, &rows, &binds, batch)?;
            }
        }
    }

    /// The lanes `e` fails on over one Int column `x` holding `xs`, each
    /// as its error (in lane order).
    fn failing_lanes(e: &ScalarExpr, xs: &[Option<i64>]) -> Vec<LaneError> {
        let cols = [ColId(1)];
        let rows: Vec<Row> = xs
            .iter()
            .map(|x| vec![x.map_or(Value::Null, Value::Int)])
            .collect();
        let binds = Bindings::new();
        check_lane_exact(e, &cols, &rows, &binds, rows.len()).unwrap_or_else(|err| panic!("{err}"));
        let columns = rows_to_columns(&rows, 1);
        let pm = PosMap::new(&cols);
        eval_lanes(e, &cx(&pm, &columns, rows.len(), &binds)).errs
    }

    fn x() -> ScalarExpr {
        ScalarExpr::col(ColId(1))
    }

    /// `10 / x > 0`: divides by zero where `x` is 0.
    fn ten_over_x_positive() -> ScalarExpr {
        ScalarExpr::cmp(
            CmpOp::Gt,
            arith(ArithOp::Div, ScalarExpr::lit(10i64), x()),
            ScalarExpr::lit(0i64),
        )
    }

    /// An `AND` / `OR` part's errors count only on lanes the parts
    /// before it left undecided; NULL decides nothing.
    #[test]
    fn connectives_count_errors_only_on_undecided_lanes() {
        let xs = [Some(0), Some(1), None, Some(0)];
        // x <> 0 is FALSE on lanes 0 and 3, so AND never divides there.
        let guarded = ScalarExpr::And(vec![
            ScalarExpr::cmp(CmpOp::Ne, x(), ScalarExpr::lit(0i64)),
            ten_over_x_positive(),
        ]);
        assert!(failing_lanes(&guarded, &xs).is_empty());
        // x = 0 is TRUE there, so OR never divides there either.
        let or_guarded = ScalarExpr::Or(vec![
            ScalarExpr::eq(x(), ScalarExpr::lit(0i64)),
            ten_over_x_positive(),
        ]);
        assert!(failing_lanes(&or_guarded, &xs).is_empty());
        // Unguarded, both zero lanes fail; a NULL first part decides
        // nothing, so a non-boolean second part fails on lane 2 too.
        let unguarded = ScalarExpr::And(vec![ScalarExpr::lit(true), ten_over_x_positive()]);
        let lanes: Vec<usize> = failing_lanes(&unguarded, &xs).iter().map(|e| e.0).collect();
        assert_eq!(lanes, [0, 3]);
        let null_then_int = ScalarExpr::And(vec![
            ScalarExpr::cmp(CmpOp::Gt, x(), ScalarExpr::lit(0i64)),
            ScalarExpr::lit(5i64),
        ]);
        let errs = failing_lanes(&null_then_int, &xs);
        assert_eq!(errs.iter().map(|e| e.0).collect::<Vec<_>>(), [1, 2]);
        assert!(matches!(errs[0].1, Error::TypeMismatch(_)));
    }

    /// A `CASE` arm's errors count only where its `WHEN` fired, the
    /// `ELSE`'s only where none did.
    #[test]
    fn case_counts_arm_errors_only_where_the_arm_is_taken() {
        let xs = [Some(0), Some(2), None];
        let ten_over_x = arith(ArithOp::Div, ScalarExpr::lit(10i64), x());
        let guarded = ScalarExpr::Case {
            operand: None,
            whens: vec![(
                ScalarExpr::cmp(CmpOp::Ne, x(), ScalarExpr::lit(0i64)),
                ten_over_x.clone(),
            )],
            else_: Some(Box::new(ScalarExpr::lit(0i64))),
        };
        assert!(failing_lanes(&guarded, &xs).is_empty());
        let in_else = ScalarExpr::Case {
            operand: Some(Box::new(x())),
            whens: vec![(ScalarExpr::lit(0i64), ScalarExpr::lit(0i64))],
            else_: Some(Box::new(ten_over_x)),
        };
        assert!(failing_lanes(&in_else, &xs).is_empty());
        // A failing WHEN stops its lane: later arms do not count there.
        let failing_when = ScalarExpr::Case {
            operand: None,
            whens: vec![
                (ten_over_x_positive(), ScalarExpr::lit(1i64)),
                (ScalarExpr::lit(5i64), ScalarExpr::lit(2i64)),
            ],
            else_: None,
        };
        let errs = failing_lanes(&failing_when, &xs);
        assert_eq!(errs.iter().map(|e| e.0).collect::<Vec<_>>(), [0, 2]);
        assert_eq!(errs[0].1, Error::DivideByZero);
        assert!(matches!(errs[1].1, Error::TypeMismatch(_)));
    }

    /// A binary op reports its left operand's error before its right
    /// operand's and before its own; an operand that cannot be
    /// evaluated at all fails every lane.
    #[test]
    fn operand_errors_precede_the_ops_own() {
        let xs = [Some(i64::MAX), Some(0), Some(1)];
        let e = arith(
            ArithOp::Add,
            arith(ArithOp::Div, ScalarExpr::lit(1i64), x()),
            arith(ArithOp::Add, x(), ScalarExpr::lit(1i64)),
        );
        let errs = failing_lanes(&e, &xs);
        assert_eq!(
            errs,
            [(0, Error::NumericOverflow), (1, Error::DivideByZero)]
        );
        let unknown = ScalarExpr::cmp(
            CmpOp::Lt,
            ScalarExpr::col(ColId(7)),
            arith(ArithOp::Div, ScalarExpr::lit(1i64), x()),
        );
        let errs = failing_lanes(&unknown, &xs);
        assert_eq!(errs.len(), 3);
        assert!(errs.iter().all(|e| matches!(e.1, Error::UnknownColumn(_))));
    }

    #[test]
    fn selection_picks_true_lanes_only() {
        let cols = [ColId(1)];
        let pm = PosMap::new(&cols);
        let binds = Bindings::new();
        let flags = [
            Value::Bool(true),
            Value::Bool(false),
            Value::Null,
            Value::Bool(true),
        ];
        let columns = [Column::from_values(flags.to_vec())];
        let (sel, errs) = eval_truth(&x(), &cx(&pm, &columns, 4, &binds));
        assert_eq!((sel, errs), (vec![0, 3], vec![]));
        let mixed = [Column::from_values(vec![Value::Bool(true), Value::Int(1)])];
        let (sel, errs) = eval_truth(&x(), &cx(&pm, &mixed, 2, &binds));
        assert_eq!(sel, [0]);
        assert_eq!(errs.len(), 1);
        assert!(matches!(errs[0], (1, Error::TypeMismatch(_))));
    }

    #[test]
    fn overflow_surfaces_as_a_lane_error() {
        let e = arith(ArithOp::Add, x(), ScalarExpr::lit(1i64));
        assert_eq!(
            failing_lanes(&e, &[Some(1), Some(i64::MAX), None]),
            [(1, Error::NumericOverflow)]
        );
    }

    /// The first error over several expressions: the lowest lane, a tie
    /// going to the earlier expression.
    #[test]
    fn first_error_is_row_ordered() {
        let a = [(3, Error::DivideByZero)];
        let b = [(1, Error::NumericOverflow), (3, Error::DivideByZero)];
        let c = [(1, Error::DivideByZero)];
        assert_eq!(
            first_error([&a[..], &b[..], &c[..]]),
            Some(&(1, Error::NumericOverflow))
        );
        assert_eq!(first_error([&[][..], &[][..]]), None);
    }
}
