//! Row-at-a-time scalar evaluation under SQL three-valued logic: the
//! [`Reference`](crate::Reference) interpreter's evaluator, and the
//! definition the pipeline's vectorized kernels ([`crate::vector`])
//! match lane for lane, errors included.
//!
//! Evaluation happens against a row (with its layout) plus parameter
//! [`Bindings`]. Subquery markers are only legal when a
//! [`SubqueryEval`] hook is supplied — the reference interpreter passes
//! itself (mutual recursion, §2.1); without one they are an internal
//! error, as normalization guarantees their absence.

use std::cmp::Ordering;

use orthopt_common::value::{and3, not3, or3};
use orthopt_common::{ColId, Error, Result, Value};
use orthopt_ir::{CmpOp, Quant, RelExpr, ScalarExpr};

use crate::bindings::Bindings;
use crate::chunk::Chunk;

/// Callback used by the reference interpreter to evaluate relational
/// subqueries nested in scalar expressions.
pub trait SubqueryEval {
    /// Evaluates `rel` under the given bindings, returning all rows.
    fn eval_rel(&self, rel: &RelExpr, binds: &Bindings) -> Result<Chunk>;
}

/// Column-id → position map resolved once per layout, replacing the
/// per-row linear `position` scan inside [`EvalCtx::lookup`]. Pipeline
/// operators build one at construction time for their kernels (their
/// layouts are static); the reference interpreter builds one per chunk
/// before its row loop.
#[derive(Debug, Clone, Default)]
pub struct PosMap {
    map: std::collections::HashMap<ColId, usize>,
}

impl PosMap {
    /// Builds the map for a layout. First occurrence wins, matching the
    /// linear scan's behavior on (illegal but defensive) duplicate ids.
    pub fn new(cols: &[ColId]) -> PosMap {
        let mut map = std::collections::HashMap::with_capacity(cols.len());
        for (i, c) in cols.iter().enumerate() {
            map.entry(*c).or_insert(i);
        }
        PosMap { map }
    }

    /// Position of `id` in the mapped layout, if present.
    #[inline]
    pub fn get(&self, id: ColId) -> Option<usize> {
        self.map.get(&id).copied()
    }
}

/// Evaluation context: one row plus parameters plus the optional
/// subquery hook.
pub struct EvalCtx<'a> {
    /// Layout of `row`.
    pub cols: &'a [ColId],
    /// Current row.
    pub row: &'a [Value],
    /// Outer parameters.
    pub binds: &'a Bindings,
    /// Subquery hook (reference interpreter only).
    pub subq: Option<&'a dyn SubqueryEval>,
    /// Precomputed position map for `cols`; when present, column lookup
    /// is a hash probe instead of a linear scan.
    pub pos: Option<&'a PosMap>,
}

impl<'a> EvalCtx<'a> {
    /// Context with no subquery support.
    pub fn plain(cols: &'a [ColId], row: &'a [Value], binds: &'a Bindings) -> Self {
        EvalCtx {
            cols,
            row,
            binds,
            subq: None,
            pos: None,
        }
    }

    fn lookup(&self, id: ColId) -> Result<Value> {
        let found = match self.pos {
            Some(pm) => pm.get(id),
            None => self.cols.iter().position(|c| *c == id),
        };
        if let Some(pos) = found {
            return Ok(self.row[pos].clone());
        }
        self.binds
            .get(id)
            .cloned()
            .ok_or_else(|| Error::UnknownColumn(id.to_string()))
    }

    fn subquery_rows(&self, rel: &RelExpr) -> Result<Chunk> {
        let hook = self
            .subq
            .ok_or_else(|| Error::internal("subquery in scalar expression after normalization"))?;
        // The subquery sees the current row's columns as parameters.
        let inner_binds = self.binds.extended(self.cols, self.row, self.cols);
        hook.eval_rel(rel, &inner_binds)
    }
}

/// Evaluates a scalar expression to a [`Value`].
pub fn eval(expr: &ScalarExpr, ctx: &EvalCtx<'_>) -> Result<Value> {
    match expr {
        ScalarExpr::Column(id) => ctx.lookup(*id),
        ScalarExpr::Literal(v) => Ok(v.clone()),
        ScalarExpr::Cmp { op, left, right } => {
            let l = eval(left, ctx)?;
            let r = eval(right, ctx)?;
            Ok(cmp_values(*op, &l, &r))
        }
        ScalarExpr::Arith { op, left, right } => {
            let l = eval(left, ctx)?;
            let r = eval(right, ctx)?;
            match op {
                orthopt_ir::ArithOp::Add => l.add(&r),
                orthopt_ir::ArithOp::Sub => l.sub(&r),
                orthopt_ir::ArithOp::Mul => l.mul(&r),
                orthopt_ir::ArithOp::Div => l.div(&r),
            }
        }
        ScalarExpr::Neg(e) => eval(e, ctx)?.neg(),
        ScalarExpr::And(parts) => {
            let mut acc = Some(true);
            for p in parts {
                let v = eval(p, ctx)?.as_bool3()?;
                acc = and3(acc, v);
                if acc == Some(false) {
                    break;
                }
            }
            Ok(bool3_value(acc))
        }
        ScalarExpr::Or(parts) => {
            let mut acc = Some(false);
            for p in parts {
                let v = eval(p, ctx)?.as_bool3()?;
                acc = or3(acc, v);
                if acc == Some(true) {
                    break;
                }
            }
            Ok(bool3_value(acc))
        }
        ScalarExpr::Not(e) => {
            let v = eval(e, ctx)?.as_bool3()?;
            Ok(bool3_value(not3(v)))
        }
        ScalarExpr::IsNull { expr, negated } => {
            let v = eval(expr, ctx)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        ScalarExpr::Case {
            operand,
            whens,
            else_,
        } => {
            let comparand = operand.as_ref().map(|o| eval(o, ctx)).transpose()?;
            for (w, t) in whens {
                let fire = match &comparand {
                    Some(c) => {
                        let wv = eval(w, ctx)?;
                        c.sql_eq(&wv) == Some(true)
                    }
                    None => eval(w, ctx)?.as_bool3()? == Some(true),
                };
                if fire {
                    return eval(t, ctx);
                }
            }
            match else_ {
                Some(e) => eval(e, ctx),
                None => Ok(Value::Null),
            }
        }
        ScalarExpr::Subquery(rel) => {
            let result = ctx.subquery_rows(rel)?;
            match result.rows.len() {
                0 => Ok(Value::Null),
                1 => Ok(result.rows[0][0].clone()),
                _ => Err(Error::SubqueryReturnedMoreThanOneRow),
            }
        }
        ScalarExpr::Exists { rel, negated } => {
            let result = ctx.subquery_rows(rel)?;
            Ok(Value::Bool(result.is_empty() == *negated))
        }
        ScalarExpr::InSubquery { expr, rel, negated } => {
            let needle = eval(expr, ctx)?;
            let result = ctx.subquery_rows(rel)?;
            let mut found = Some(false);
            for row in &result.rows {
                found = or3(found, needle.sql_eq(&row[0]));
                if found == Some(true) {
                    break;
                }
            }
            Ok(bool3_value(if *negated { not3(found) } else { found }))
        }
        ScalarExpr::QuantifiedCmp {
            op,
            quant,
            expr,
            rel,
        } => {
            let lhs = eval(expr, ctx)?;
            let result = ctx.subquery_rows(rel)?;
            let acc = match quant {
                Quant::Any => {
                    let mut acc = Some(false);
                    for row in &result.rows {
                        acc = or3(acc, cmp3(*op, &lhs, &row[0]));
                        if acc == Some(true) {
                            break;
                        }
                    }
                    acc
                }
                Quant::All => {
                    let mut acc = Some(true);
                    for row in &result.rows {
                        acc = and3(acc, cmp3(*op, &lhs, &row[0]));
                        if acc == Some(false) {
                            break;
                        }
                    }
                    acc
                }
            };
            Ok(bool3_value(acc))
        }
    }
}

/// Evaluates a predicate; NULL and FALSE both reject.
pub fn eval_predicate(expr: &ScalarExpr, ctx: &EvalCtx<'_>) -> Result<bool> {
    Ok(eval(expr, ctx)?.as_bool3()? == Some(true))
}

fn bool3_value(b: Option<bool>) -> Value {
    match b {
        Some(b) => Value::Bool(b),
        None => Value::Null,
    }
}

fn cmp3(op: CmpOp, l: &Value, r: &Value) -> Option<bool> {
    l.sql_cmp(r).map(|o| match op {
        CmpOp::Eq => o == Ordering::Equal,
        CmpOp::Ne => o != Ordering::Equal,
        CmpOp::Lt => o == Ordering::Less,
        CmpOp::Le => o != Ordering::Greater,
        CmpOp::Gt => o == Ordering::Greater,
        CmpOp::Ge => o != Ordering::Less,
    })
}

/// Three-valued comparison packaged as a [`Value`].
pub fn cmp_values(op: CmpOp, l: &Value, r: &Value) -> Value {
    bool3_value(cmp3(op, l, r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use orthopt_ir::ArithOp;

    fn ctx<'a>(cols: &'a [ColId], row: &'a [Value], binds: &'a Bindings) -> EvalCtx<'a> {
        EvalCtx::plain(cols, row, binds)
    }

    #[test]
    fn column_lookup_prefers_row_then_binds() {
        let cols = [ColId(1)];
        let row = [Value::Int(5)];
        let mut binds = Bindings::new();
        binds.set(ColId(2), Value::Int(7));
        let c = ctx(&cols, &row, &binds);
        assert_eq!(eval(&ScalarExpr::col(ColId(1)), &c).unwrap(), Value::Int(5));
        assert_eq!(eval(&ScalarExpr::col(ColId(2)), &c).unwrap(), Value::Int(7));
        assert!(eval(&ScalarExpr::col(ColId(3)), &c).is_err());
    }

    #[test]
    fn null_comparison_is_null() {
        let binds = Bindings::new();
        let c = ctx(&[], &[], &binds);
        let e = ScalarExpr::eq(ScalarExpr::lit(Value::Null), ScalarExpr::lit(1i64));
        assert!(eval(&e, &c).unwrap().is_null());
        assert!(!eval_predicate(&e, &c).unwrap());
    }

    #[test]
    fn and_short_circuits_on_false() {
        let binds = Bindings::new();
        let c = ctx(&[], &[], &binds);
        // FALSE AND NULL = FALSE
        let e = ScalarExpr::And(vec![
            ScalarExpr::lit(false),
            ScalarExpr::eq(ScalarExpr::lit(Value::Null), ScalarExpr::lit(1i64)),
        ]);
        assert_eq!(eval(&e, &c).unwrap(), Value::Bool(false));
        // TRUE AND NULL = NULL
        let e2 = ScalarExpr::And(vec![
            ScalarExpr::lit(true),
            ScalarExpr::eq(ScalarExpr::lit(Value::Null), ScalarExpr::lit(1i64)),
        ]);
        assert!(eval(&e2, &c).unwrap().is_null());
    }

    #[test]
    fn or_with_null_and_true_is_true() {
        let binds = Bindings::new();
        let c = ctx(&[], &[], &binds);
        let e = ScalarExpr::Or(vec![
            ScalarExpr::eq(ScalarExpr::lit(Value::Null), ScalarExpr::lit(1i64)),
            ScalarExpr::lit(true),
        ]);
        assert_eq!(eval(&e, &c).unwrap(), Value::Bool(true));
    }

    #[test]
    fn is_null_is_two_valued() {
        let binds = Bindings::new();
        let c = ctx(&[], &[], &binds);
        let e = ScalarExpr::IsNull {
            expr: Box::new(ScalarExpr::lit(Value::Null)),
            negated: false,
        };
        assert_eq!(eval(&e, &c).unwrap(), Value::Bool(true));
        let e2 = ScalarExpr::IsNull {
            expr: Box::new(ScalarExpr::lit(1i64)),
            negated: true,
        };
        assert_eq!(eval(&e2, &c).unwrap(), Value::Bool(true));
    }

    #[test]
    fn case_searched_and_simple() {
        let binds = Bindings::new();
        let c = ctx(&[], &[], &binds);
        let searched = ScalarExpr::Case {
            operand: None,
            whens: vec![(ScalarExpr::lit(false), ScalarExpr::lit(1i64))],
            else_: Some(Box::new(ScalarExpr::lit(2i64))),
        };
        assert_eq!(eval(&searched, &c).unwrap(), Value::Int(2));
        let simple = ScalarExpr::Case {
            operand: Some(Box::new(ScalarExpr::lit(5i64))),
            whens: vec![(
                ScalarExpr::lit(5i64),
                ScalarExpr::Literal(Value::str("hit")),
            )],
            else_: None,
        };
        assert_eq!(eval(&simple, &c).unwrap(), Value::str("hit"));
    }

    #[test]
    fn case_without_else_defaults_to_null() {
        let binds = Bindings::new();
        let c = ctx(&[], &[], &binds);
        let e = ScalarExpr::Case {
            operand: None,
            whens: vec![(ScalarExpr::lit(false), ScalarExpr::lit(1i64))],
            else_: None,
        };
        assert!(eval(&e, &c).unwrap().is_null());
    }

    #[test]
    fn arithmetic_division() {
        let binds = Bindings::new();
        let c = ctx(&[], &[], &binds);
        let e = ScalarExpr::Arith {
            op: ArithOp::Div,
            left: Box::new(ScalarExpr::lit(7i64)),
            right: Box::new(ScalarExpr::lit(2i64)),
        };
        assert_eq!(eval(&e, &c).unwrap(), Value::Float(3.5));
    }

    #[test]
    fn subquery_without_hook_is_internal_error() {
        let binds = Bindings::new();
        let c = ctx(&[], &[], &binds);
        let e = ScalarExpr::Exists {
            rel: Box::new(RelExpr::ConstRel {
                cols: vec![],
                rows: vec![],
            }),
            negated: false,
        };
        assert!(matches!(eval(&e, &c), Err(Error::Internal(_))));
    }
}
