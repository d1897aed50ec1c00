//! Scalar expressions.
//!
//! Before normalization a scalar expression may contain *relational*
//! children (§2.1 "direct algebraic representation with mutual
//! recursion"): [`ScalarExpr::Subquery`], [`ScalarExpr::Exists`],
//! [`ScalarExpr::InSubquery`] and [`ScalarExpr::QuantifiedCmp`]. The
//! normalization pass replaces them with `Apply` operators and plain
//! column references (§2.2), after which scalar evaluation never calls
//! back into the relational engine.

use std::collections::BTreeSet;
use std::fmt;

use orthopt_common::{ColId, Value};

use crate::relop::RelExpr;

/// Comparison operators.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// The comparison with operand sides swapped (`a op b` ⇔ `b op' a`).
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// Logical negation (`NOT (a op b)` ⇔ `a op' b` under two-valued
    /// logic; the caller must handle NULLs separately).
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// Arithmetic operators.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (always float-valued; division by zero is a run-time error)
    Div,
}

impl fmt::Display for ArithOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
        };
        f.write_str(s)
    }
}

/// Quantifier of a quantified comparison subquery (`> ANY (...)`,
/// `= ALL (...)`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Quant {
    /// `ANY` / `SOME`
    Any,
    /// `ALL`
    All,
}

/// A scalar expression tree.
#[derive(Clone, PartialEq, Hash, Debug)]
pub enum ScalarExpr {
    /// Reference to a column by global id. May refer to a column produced
    /// by an *enclosing* expression — that is exactly a correlation.
    Column(ColId),
    /// Constant.
    Literal(Value),
    /// Comparison under three-valued logic.
    Cmp {
        /// Operator.
        op: CmpOp,
        /// Left operand.
        left: Box<ScalarExpr>,
        /// Right operand.
        right: Box<ScalarExpr>,
    },
    /// Arithmetic.
    Arith {
        /// Operator.
        op: ArithOp,
        /// Left operand.
        left: Box<ScalarExpr>,
        /// Right operand.
        right: Box<ScalarExpr>,
    },
    /// Unary minus.
    Neg(Box<ScalarExpr>),
    /// N-ary conjunction (empty = TRUE).
    And(Vec<ScalarExpr>),
    /// N-ary disjunction (empty = FALSE).
    Or(Vec<ScalarExpr>),
    /// Negation (three-valued).
    Not(Box<ScalarExpr>),
    /// `expr IS [NOT] NULL` — always two-valued.
    IsNull {
        /// Tested expression.
        expr: Box<ScalarExpr>,
        /// True for `IS NOT NULL`.
        negated: bool,
    },
    /// `CASE [operand] WHEN .. THEN .. [ELSE ..] END`. Branch guards make
    /// eager subquery evaluation inside branches incorrect (§2.4), which
    /// is why normalization leaves subqueries under CASE correlated.
    Case {
        /// Optional comparand (`CASE x WHEN v THEN ..`).
        operand: Option<Box<ScalarExpr>>,
        /// `(when, then)` pairs.
        whens: Vec<(ScalarExpr, ScalarExpr)>,
        /// `ELSE` expression (NULL when absent).
        else_: Option<Box<ScalarExpr>>,
    },
    /// Scalar-valued subquery (≤ 1 row, 1 column). Pre-normalization only.
    Subquery(Box<RelExpr>),
    /// `[NOT] EXISTS (...)`. Pre-normalization only.
    Exists {
        /// The subquery.
        rel: Box<RelExpr>,
        /// True for `NOT EXISTS`.
        negated: bool,
    },
    /// `expr [NOT] IN (subquery)`. Pre-normalization only.
    InSubquery {
        /// Left operand.
        expr: Box<ScalarExpr>,
        /// Single-column subquery.
        rel: Box<RelExpr>,
        /// True for `NOT IN`.
        negated: bool,
    },
    /// `expr op ANY/ALL (subquery)`. Pre-normalization only.
    QuantifiedCmp {
        /// Comparison operator.
        op: CmpOp,
        /// Quantifier.
        quant: Quant,
        /// Left operand.
        expr: Box<ScalarExpr>,
        /// Single-column subquery.
        rel: Box<RelExpr>,
    },
}

impl ScalarExpr {
    /// Column reference shorthand.
    pub fn col(id: ColId) -> ScalarExpr {
        ScalarExpr::Column(id)
    }

    /// Literal shorthand.
    pub fn lit(v: impl Into<Value>) -> ScalarExpr {
        ScalarExpr::Literal(v.into())
    }

    /// The constant TRUE.
    pub fn true_() -> ScalarExpr {
        ScalarExpr::Literal(Value::Bool(true))
    }

    /// Builds `left op right`.
    pub fn cmp(op: CmpOp, left: ScalarExpr, right: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Cmp {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// Builds `left = right`.
    pub fn eq(left: ScalarExpr, right: ScalarExpr) -> ScalarExpr {
        ScalarExpr::cmp(CmpOp::Eq, left, right)
    }

    /// Builds an N-ary AND, flattening trivial cases.
    pub fn and(parts: impl IntoIterator<Item = ScalarExpr>) -> ScalarExpr {
        let mut flat = Vec::new();
        for p in parts {
            match p {
                ScalarExpr::And(inner) => flat.extend(inner),
                ScalarExpr::Literal(Value::Bool(true)) => {}
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => ScalarExpr::true_(),
            1 => flat.pop().expect("len checked"),
            _ => ScalarExpr::And(flat),
        }
    }

    /// True iff this is literally the constant TRUE.
    pub fn is_true(&self) -> bool {
        matches!(self, ScalarExpr::Literal(Value::Bool(true)))
    }

    /// Splits a predicate into its top-level conjuncts.
    pub fn conjuncts(&self) -> Vec<ScalarExpr> {
        match self {
            ScalarExpr::And(parts) => parts.iter().flat_map(ScalarExpr::conjuncts).collect(),
            ScalarExpr::Literal(Value::Bool(true)) => vec![],
            other => vec![other.clone()],
        }
    }

    /// All column ids referenced anywhere in this expression, including
    /// inside relational subqueries (both their internal references and
    /// correlations).
    pub fn referenced_cols(&self, out: &mut BTreeSet<ColId>) {
        self.walk(&mut |e| {
            if let ScalarExpr::Column(c) = e {
                out.insert(*c);
            }
        });
    }

    /// Convenience wrapper over [`ScalarExpr::referenced_cols`].
    pub fn cols(&self) -> BTreeSet<ColId> {
        let mut s = BTreeSet::new();
        self.referenced_cols(&mut s);
        s
    }

    /// True if the expression contains any relational subquery marker.
    pub fn has_subquery(&self) -> bool {
        let mut found = false;
        self.walk(&mut |e| {
            if matches!(
                e,
                ScalarExpr::Subquery(_)
                    | ScalarExpr::Exists { .. }
                    | ScalarExpr::InSubquery { .. }
                    | ScalarExpr::QuantifiedCmp { .. }
            ) {
                found = true;
            }
        });
        found
    }

    /// Pre-order traversal of the scalar tree, descending into relational
    /// subqueries' scalar expressions as well.
    pub fn walk(&self, f: &mut dyn FnMut(&ScalarExpr)) {
        f(self);
        match self {
            ScalarExpr::Column(_) | ScalarExpr::Literal(_) => {}
            ScalarExpr::Cmp { left, right, .. } | ScalarExpr::Arith { left, right, .. } => {
                left.walk(f);
                right.walk(f);
            }
            ScalarExpr::Neg(e) | ScalarExpr::Not(e) => e.walk(f),
            ScalarExpr::And(parts) | ScalarExpr::Or(parts) => {
                for p in parts {
                    p.walk(f);
                }
            }
            ScalarExpr::IsNull { expr, .. } => expr.walk(f),
            ScalarExpr::Case {
                operand,
                whens,
                else_,
            } => {
                if let Some(o) = operand {
                    o.walk(f);
                }
                for (w, t) in whens {
                    w.walk(f);
                    t.walk(f);
                }
                if let Some(e) = else_ {
                    e.walk(f);
                }
            }
            ScalarExpr::Subquery(rel) => rel.walk_scalars(f),
            ScalarExpr::Exists { rel, .. } => rel.walk_scalars(f),
            ScalarExpr::InSubquery { expr, rel, .. } => {
                expr.walk(f);
                rel.walk_scalars(f);
            }
            ScalarExpr::QuantifiedCmp { expr, rel, .. } => {
                expr.walk(f);
                rel.walk_scalars(f);
            }
        }
    }

    /// In-place rewrite of column references according to `map`; descends
    /// into relational subqueries.
    pub fn remap_columns(&mut self, map: &std::collections::HashMap<ColId, ColId>) {
        self.transform(&mut |e| {
            if let ScalarExpr::Column(c) = e {
                if let Some(n) = map.get(c) {
                    *c = *n;
                }
            }
        });
    }

    /// In-place substitution of whole column references by expressions
    /// (used when folding `Map` definitions into consumers).
    pub fn substitute(&mut self, defs: &std::collections::HashMap<ColId, ScalarExpr>) {
        match self {
            ScalarExpr::Column(c) => {
                if let Some(repl) = defs.get(c) {
                    *self = repl.clone();
                }
            }
            _ => self.for_each_child_mut(&mut |child| child.substitute(defs)),
        }
    }

    /// Mutable pre-order traversal (visits relational subqueries' scalars
    /// too).
    pub fn transform(&mut self, f: &mut dyn FnMut(&mut ScalarExpr)) {
        f(self);
        self.for_each_child_mut(&mut |child| child.transform(f));
    }

    fn for_each_child_mut(&mut self, f: &mut dyn FnMut(&mut ScalarExpr)) {
        match self {
            ScalarExpr::Column(_) | ScalarExpr::Literal(_) => {}
            ScalarExpr::Cmp { left, right, .. } | ScalarExpr::Arith { left, right, .. } => {
                f(left);
                f(right);
            }
            ScalarExpr::Neg(e) | ScalarExpr::Not(e) => f(e),
            ScalarExpr::And(parts) | ScalarExpr::Or(parts) => {
                for p in parts {
                    f(p);
                }
            }
            ScalarExpr::IsNull { expr, .. } => f(expr),
            ScalarExpr::Case {
                operand,
                whens,
                else_,
            } => {
                if let Some(o) = operand {
                    f(o);
                }
                for (w, t) in whens {
                    f(w);
                    f(t);
                }
                if let Some(e) = else_ {
                    f(e);
                }
            }
            ScalarExpr::Subquery(rel) => rel.transform_scalars(f),
            ScalarExpr::Exists { rel, .. } => rel.transform_scalars(f),
            ScalarExpr::InSubquery { expr, rel, .. } => {
                f(expr);
                rel.transform_scalars(f);
            }
            ScalarExpr::QuantifiedCmp { expr, rel, .. } => {
                f(expr);
                rel.transform_scalars(f);
            }
        }
    }
}

impl fmt::Display for ScalarExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalarExpr::Column(c) => write!(f, "{c}"),
            ScalarExpr::Literal(v) => write!(f, "{v}"),
            ScalarExpr::Cmp { op, left, right } => write!(f, "({left} {op} {right})"),
            ScalarExpr::Arith { op, left, right } => write!(f, "({left} {op} {right})"),
            ScalarExpr::Neg(e) => write!(f, "(-{e})"),
            ScalarExpr::And(parts) => {
                let s: Vec<String> = parts.iter().map(ToString::to_string).collect();
                write!(f, "({})", s.join(" AND "))
            }
            ScalarExpr::Or(parts) => {
                let s: Vec<String> = parts.iter().map(ToString::to_string).collect();
                write!(f, "({})", s.join(" OR "))
            }
            ScalarExpr::Not(e) => write!(f, "NOT {e}"),
            ScalarExpr::IsNull { expr, negated } => {
                write!(f, "({expr} IS {}NULL)", if *negated { "NOT " } else { "" })
            }
            ScalarExpr::Case { whens, else_, .. } => {
                write!(f, "CASE")?;
                for (w, t) in whens {
                    write!(f, " WHEN {w} THEN {t}")?;
                }
                if let Some(e) = else_ {
                    write!(f, " ELSE {e}")?;
                }
                write!(f, " END")
            }
            ScalarExpr::Subquery(_) => write!(f, "SUBQUERY(..)"),
            ScalarExpr::Exists { negated, .. } => {
                write!(f, "{}EXISTS(..)", if *negated { "NOT " } else { "" })
            }
            ScalarExpr::InSubquery { expr, negated, .. } => {
                write!(f, "({expr} {}IN (..))", if *negated { "NOT " } else { "" })
            }
            ScalarExpr::QuantifiedCmp {
                op, quant, expr, ..
            } => {
                let q = match quant {
                    Quant::Any => "ANY",
                    Quant::All => "ALL",
                };
                write!(f, "({expr} {op} {q}(..))")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conjuncts_flatten_nested_ands() {
        let p = ScalarExpr::and([
            ScalarExpr::and([ScalarExpr::lit(true), ScalarExpr::col(ColId(1)).clone()]),
            ScalarExpr::eq(ScalarExpr::col(ColId(2)), ScalarExpr::lit(3i64)),
        ]);
        let parts = p.conjuncts();
        assert_eq!(parts.len(), 2);
    }

    #[test]
    fn and_of_nothing_is_true() {
        assert!(ScalarExpr::and([]).is_true());
        assert!(ScalarExpr::and([ScalarExpr::true_(), ScalarExpr::true_()]).is_true());
    }

    #[test]
    fn cols_collects_references() {
        let e = ScalarExpr::cmp(
            CmpOp::Lt,
            ScalarExpr::col(ColId(5)),
            ScalarExpr::Arith {
                op: ArithOp::Add,
                left: Box::new(ScalarExpr::col(ColId(7))),
                right: Box::new(ScalarExpr::lit(1i64)),
            },
        );
        let cols = e.cols();
        assert!(cols.contains(&ColId(5)) && cols.contains(&ColId(7)));
        assert_eq!(cols.len(), 2);
    }

    #[test]
    fn remap_columns_rewrites_references() {
        let mut e = ScalarExpr::eq(ScalarExpr::col(ColId(1)), ScalarExpr::col(ColId(2)));
        let map = [(ColId(1), ColId(10))].into_iter().collect();
        e.remap_columns(&map);
        assert_eq!(
            e,
            ScalarExpr::eq(ScalarExpr::col(ColId(10)), ScalarExpr::col(ColId(2)))
        );
    }

    #[test]
    fn substitute_replaces_column_with_expression() {
        let mut e = ScalarExpr::cmp(CmpOp::Gt, ScalarExpr::col(ColId(1)), ScalarExpr::lit(0i64));
        let defs = [(
            ColId(1),
            ScalarExpr::Arith {
                op: ArithOp::Mul,
                left: Box::new(ScalarExpr::col(ColId(2))),
                right: Box::new(ScalarExpr::lit(2i64)),
            },
        )]
        .into_iter()
        .collect();
        e.substitute(&defs);
        assert!(e.cols().contains(&ColId(2)));
        assert!(!e.cols().contains(&ColId(1)));
    }

    #[test]
    fn cmp_flip_and_negate() {
        assert_eq!(CmpOp::Lt.flip(), CmpOp::Gt);
        assert_eq!(CmpOp::Le.negate(), CmpOp::Gt);
        assert_eq!(CmpOp::Eq.flip(), CmpOp::Eq);
    }
}
