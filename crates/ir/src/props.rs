//! Derived logical properties.
//!
//! Every transformation in the paper is guarded by properties of the
//! expressions involved:
//!
//! * **Keys** ([`keys`]) — identities (7)–(9) require a key on the outer
//!   relation; GroupBy pull-up (§3.1) requires a key on the joined
//!   relation; semijoin-to-join needs a key to de-duplicate.
//! * **Cardinality bounds** ([`at_most_one_row`]) — `Max1Row` elimination
//!   (§2.4: "the compiler can detect this from information about keys").
//! * **Null rejection** ([`rejects_null_on`]) — outerjoin simplification
//!   (\[7\] framework), extended through GroupBy by the paper.
//! * **Column environment** ([`ColumnEnv`]) — type/nullability of every
//!   column produced in a tree, for constructing well-typed rewrites.

use std::collections::{BTreeSet, HashMap};

use orthopt_common::{ColId, DataType, Value};

use crate::agg::AggFunc;
use crate::relop::{ApplyKind, GroupKind, JoinKind, RelExpr};
use crate::scalar::{CmpOp, ScalarExpr};

/// Maps every column id produced in a tree to its metadata.
#[derive(Debug, Clone, Default)]
pub struct ColumnEnv {
    map: HashMap<ColId, (String, DataType, bool)>,
}

impl ColumnEnv {
    /// Collects metadata for every column produced anywhere in `rel`
    /// (including inside scalar subqueries and both Apply sides).
    pub fn build(rel: &RelExpr) -> Self {
        let mut env = ColumnEnv::default();
        rel.walk(&mut |r| {
            // `output_cols` of each producing node covers everything
            // because ids are globally unique.
            for c in r.output_cols() {
                env.map.entry(c.id).or_insert((c.name, c.ty, c.nullable));
            }
        });
        env
    }

    /// Column name, if known.
    pub fn name(&self, id: ColId) -> Option<&str> {
        self.map.get(&id).map(|(n, _, _)| n.as_str())
    }

    /// Column type, if known.
    pub fn ty(&self, id: ColId) -> Option<DataType> {
        self.map.get(&id).map(|&(_, t, _)| t)
    }

    /// Column nullability, if known (defaults to nullable when unknown).
    pub fn nullable(&self, id: ColId) -> bool {
        self.map.get(&id).is_none_or(|&(_, _, n)| n)
    }

    /// Infers the type and nullability of a scalar expression.
    pub fn type_of(&self, expr: &ScalarExpr) -> (DataType, bool) {
        match expr {
            ScalarExpr::Column(c) => (self.ty(*c).unwrap_or(DataType::Int), self.nullable(*c)),
            ScalarExpr::Literal(v) => (v.data_type().unwrap_or(DataType::Int), v.is_null()),
            ScalarExpr::Cmp { left, right, .. } => {
                let (_, ln) = self.type_of(left);
                let (_, rn) = self.type_of(right);
                (DataType::Bool, ln || rn)
            }
            ScalarExpr::Arith { op, left, right } => {
                let (lt, ln) = self.type_of(left);
                let (rt, rn) = self.type_of(right);
                let div = matches!(op, crate::scalar::ArithOp::Div);
                let ty = if div || lt == DataType::Float || rt == DataType::Float {
                    DataType::Float
                } else {
                    lt
                };
                (ty, ln || rn)
            }
            ScalarExpr::Neg(e) => self.type_of(e),
            ScalarExpr::And(ps) | ScalarExpr::Or(ps) => {
                let n = ps.iter().any(|p| self.type_of(p).1);
                (DataType::Bool, n)
            }
            ScalarExpr::Not(e) => (DataType::Bool, self.type_of(e).1),
            ScalarExpr::IsNull { .. } => (DataType::Bool, false),
            ScalarExpr::Case { whens, else_, .. } => {
                let (ty, mut nullable) = whens
                    .first()
                    .map_or((DataType::Int, true), |(_, t)| self.type_of(t));
                nullable |= else_.as_ref().is_none_or(|e| self.type_of(e).1);
                for (_, t) in whens.iter().skip(1) {
                    nullable |= self.type_of(t).1;
                }
                (ty, nullable)
            }
            ScalarExpr::Subquery(rel) => rel
                .output_cols()
                .first()
                .map_or((DataType::Int, true), |c| (c.ty, true)),
            ScalarExpr::Exists { .. }
            | ScalarExpr::InSubquery { .. }
            | ScalarExpr::QuantifiedCmp { .. } => (DataType::Bool, true),
        }
    }
}

/// Column equivalence classes: disjoint sets of two or more columns,
/// sorted by smallest member so equal partitions compare and hash equal.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct EqClasses(Vec<BTreeSet<ColId>>);

impl EqClasses {
    /// Records `a = b`.
    pub fn add(&mut self, a: ColId, b: ColId) {
        if a == b {
            return;
        }
        let ia = self.0.iter().position(|s| s.contains(&a));
        let ib = self.0.iter().position(|s| s.contains(&b));
        match (ia, ib) {
            (Some(i), Some(j)) if i != j => {
                let merged = self.0.remove(i.max(j));
                self.0[i.min(j)].extend(merged);
            }
            (Some(i), None) => {
                self.0[i].insert(b);
            }
            (None, Some(j)) => {
                self.0[j].insert(a);
            }
            (None, None) => self.0.push([a, b].into_iter().collect()),
            // Already known equal: nothing moved.
            _ => return,
        }
        self.0.sort_by_key(|s| s.first().copied());
    }

    /// Records every column-equality conjunct of `predicate` whose two
    /// columns both satisfy `known` (an equality with an outer parameter
    /// is a filter, not an equivalence between produced columns).
    pub fn add_predicate(&mut self, predicate: &ScalarExpr, known: impl Fn(ColId) -> bool) {
        for c in predicate.conjuncts() {
            if let Some((a, b)) = col_eq(&c) {
                if known(a) && known(b) {
                    self.add(a, b);
                }
            }
        }
    }

    /// Unions another partition into this one.
    pub fn absorb(&mut self, other: &EqClasses) {
        for class in &other.0 {
            let first = *class.first().expect("classes are non-empty");
            for c in class {
                self.add(first, *c);
            }
        }
    }

    /// The partition restricted to `cols`.
    pub fn restrict(&self, cols: &BTreeSet<ColId>) -> EqClasses {
        let mut out: Vec<BTreeSet<ColId>> = self
            .0
            .iter()
            .map(|s| s.intersection(cols).copied().collect::<BTreeSet<ColId>>())
            .filter(|s| s.len() > 1)
            .collect();
        out.sort_by_key(|s| s.first().copied());
        EqClasses(out)
    }

    /// `start` plus every column equal to one of its members.
    pub fn closure(&self, start: &BTreeSet<ColId>) -> BTreeSet<ColId> {
        let mut out = start.clone();
        for class in &self.0 {
            if !class.is_disjoint(start) {
                out.extend(class.iter().copied());
            }
        }
        out
    }

    /// The classes, smallest member first.
    pub fn classes(&self) -> &[BTreeSet<ColId>] {
        &self.0
    }

    /// Smallest column known equal to `c` (`c` itself when alone).
    pub fn rep(&self, c: ColId) -> ColId {
        self.0
            .iter()
            .find(|s| s.contains(&c))
            .map_or(c, |s| *s.first().expect("classes are non-empty"))
    }
}

/// `a = b` over two distinct columns — an equivalence edge. (`x = x` is
/// a NULL-rejection filter, not an edge.)
pub fn col_eq(c: &ScalarExpr) -> Option<(ColId, ColId)> {
    if let ScalarExpr::Cmp {
        op: CmpOp::Eq,
        left,
        right,
    } = c
    {
        if let (ScalarExpr::Column(a), ScalarExpr::Column(b)) = (left.as_ref(), right.as_ref()) {
            if a != b {
                return Some((*a, *b));
            }
        }
    }
    None
}

/// Candidate keys of the operator's output: each returned set of columns
/// is unique across output rows. The empty set means "at most one row".
pub fn keys(rel: &RelExpr) -> Vec<BTreeSet<ColId>> {
    let kids = rel.children().into_iter().map(keys).collect();
    let out_ids: BTreeSet<ColId> = rel.output_col_ids().into_iter().collect();
    op_keys(rel, kids, &out_ids)
}

/// [`keys`] of one operator given its inputs' keys (in `children()`
/// order) and its own output columns — the form a memo derives a group's
/// keys from, where the inputs are groups rather than subtrees.
pub fn op_keys(
    op: &RelExpr,
    mut kids: Vec<Vec<BTreeSet<ColId>>>,
    out_ids: &BTreeSet<ColId>,
) -> Vec<BTreeSet<ColId>> {
    let restrict = |ks: Vec<BTreeSet<ColId>>| -> Vec<BTreeSet<ColId>> {
        ks.into_iter()
            .filter(|k| k.iter().all(|c| out_ids.contains(c)))
            .collect()
    };
    let mut kid = |i: usize| std::mem::take(&mut kids[i]);
    match op {
        RelExpr::Get(g) => g.keys.iter().map(|k| k.iter().copied().collect()).collect(),
        RelExpr::ConstRel { rows, .. } => {
            if rows.len() <= 1 {
                vec![BTreeSet::new()]
            } else {
                vec![]
            }
        }
        RelExpr::Select { .. } | RelExpr::Map { .. } | RelExpr::Except { .. } => kid(0),
        RelExpr::Project { .. } => restrict(kid(0)),
        RelExpr::Join { kind, .. } => match kind {
            JoinKind::LeftSemi | JoinKind::LeftAnti => kid(0),
            JoinKind::Inner | JoinKind::LeftOuter => compose_keys(kid(0), kid(1)),
        },
        RelExpr::Apply { kind, .. } => match kind {
            ApplyKind::Semi | ApplyKind::Anti => kid(0),
            ApplyKind::Cross | ApplyKind::LeftOuter => compose_keys(kid(0), kid(1)),
        },
        RelExpr::SegmentApply { segment_cols, .. } => {
            // segment columns + a key of the inner expression identify a row.
            let seg: BTreeSet<ColId> = segment_cols.iter().copied().collect();
            restrict(
                kid(1)
                    .into_iter()
                    .map(|mut k| {
                        k.extend(seg.iter().copied());
                        k
                    })
                    .collect(),
            )
        }
        RelExpr::SegmentRef { .. } | RelExpr::UnionAll { .. } => vec![],
        RelExpr::GroupBy {
            kind, group_cols, ..
        } => match kind {
            GroupKind::Scalar => vec![BTreeSet::new()],
            GroupKind::Vector | GroupKind::Local => {
                vec![group_cols.iter().copied().collect()]
            }
        },
        RelExpr::Max1Row { .. } => vec![BTreeSet::new()],
        RelExpr::Enumerate { col, .. } => {
            let mut ks = kid(0);
            ks.push([col.id].into_iter().collect());
            ks
        }
    }
}

fn compose_keys(left: Vec<BTreeSet<ColId>>, right: Vec<BTreeSet<ColId>>) -> Vec<BTreeSet<ColId>> {
    let mut out = Vec::new();
    for l in &left {
        for r in &right {
            let mut k = l.clone();
            k.extend(r.iter().copied());
            out.push(k);
        }
    }
    out
}

/// True when some derivable key of `rel` is contained in `cols`.
pub fn has_key_within(rel: &RelExpr, cols: &BTreeSet<ColId>) -> bool {
    keys(rel).iter().any(|k| k.is_subset(cols))
}

/// True when the expression provably produces at most one row —
/// the condition under which `Max1Row` is a no-op (§2.4).
pub fn at_most_one_row(rel: &RelExpr) -> bool {
    match rel {
        RelExpr::GroupBy { kind, .. } => matches!(kind, GroupKind::Scalar),
        RelExpr::Max1Row { .. } => true,
        RelExpr::ConstRel { rows, .. } => rows.len() <= 1,
        RelExpr::Select { input, predicate } => {
            if at_most_one_row(input) {
                return true;
            }
            // A full key pinned by equality to values constant within one
            // invocation (literals or outer parameters) ⇒ at most one row.
            let produced = input.produced_cols();
            let mut pinned: BTreeSet<ColId> = BTreeSet::new();
            for c in predicate.conjuncts() {
                if let ScalarExpr::Cmp {
                    op: CmpOp::Eq,
                    left,
                    right,
                } = &c
                {
                    for (a, b) in [(left, right), (right, left)] {
                        if let ScalarExpr::Column(id) = a.as_ref() {
                            if produced.contains(id) && is_invocation_constant(b, &produced) {
                                pinned.insert(*id);
                            }
                        }
                    }
                }
            }
            keys(input).iter().any(|k| k.is_subset(&pinned))
        }
        RelExpr::Map { input, .. }
        | RelExpr::Project { input, .. }
        | RelExpr::Enumerate { input, .. } => at_most_one_row(input),
        RelExpr::Join {
            kind, left, right, ..
        } => match kind {
            JoinKind::LeftSemi | JoinKind::LeftAnti => at_most_one_row(left),
            JoinKind::Inner | JoinKind::LeftOuter => {
                at_most_one_row(left) && at_most_one_row(right)
            }
        },
        RelExpr::Apply { kind, left, right } => match kind {
            ApplyKind::Semi | ApplyKind::Anti => at_most_one_row(left),
            ApplyKind::Cross | ApplyKind::LeftOuter => {
                at_most_one_row(left) && at_most_one_row(right)
            }
        },
        _ => false,
    }
}

/// Expression constant within one invocation: built from literals and
/// outer parameters only (no columns produced by `produced`).
fn is_invocation_constant(e: &ScalarExpr, produced: &BTreeSet<ColId>) -> bool {
    !e.has_subquery() && e.cols().iter().all(|c| !produced.contains(c))
}

/// Abstract three-valued + unknown domain for null-rejection analysis.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Abs {
    True,
    False,
    Null,
    Any,
}

/// True when the predicate cannot evaluate to TRUE if all columns in
/// `cols` are NULL — i.e. the predicate *rejects NULLs* on `cols`.
///
/// This drives outerjoin simplification: a null-rejecting predicate
/// above `LOJ` turns it into a plain join (\[7\]; §1.2 of the paper).
pub fn rejects_null_on(pred: &ScalarExpr, cols: &BTreeSet<ColId>) -> bool {
    !matches!(abs_eval(pred, cols), Abs::True | Abs::Any)
}

fn abs_eval(e: &ScalarExpr, null_cols: &BTreeSet<ColId>) -> Abs {
    match e {
        ScalarExpr::Column(c) => {
            if null_cols.contains(c) {
                Abs::Null
            } else {
                Abs::Any
            }
        }
        ScalarExpr::Literal(Value::Null) => Abs::Null,
        ScalarExpr::Literal(Value::Bool(true)) => Abs::True,
        ScalarExpr::Literal(Value::Bool(false)) => Abs::False,
        ScalarExpr::Literal(_) => Abs::Any,
        ScalarExpr::Cmp { left, right, .. } => {
            // NULL operand ⇒ unknown result.
            match (abs_eval(left, null_cols), abs_eval(right, null_cols)) {
                (Abs::Null, _) | (_, Abs::Null) => Abs::Null,
                _ => Abs::Any,
            }
        }
        ScalarExpr::Arith { left, right, .. } => {
            match (abs_eval(left, null_cols), abs_eval(right, null_cols)) {
                (Abs::Null, _) | (_, Abs::Null) => Abs::Null,
                _ => Abs::Any,
            }
        }
        ScalarExpr::Neg(x) => abs_eval(x, null_cols),
        ScalarExpr::And(parts) => {
            // The conjunction can be TRUE only if every conjunct can be;
            // one FALSE forces FALSE, and one NULL conjunct caps the
            // result at "never TRUE" (TRUE AND NULL = NULL), which is all
            // the rejection query needs.
            let mut saw_null = false;
            let mut saw_any = false;
            for p in parts {
                match abs_eval(p, null_cols) {
                    Abs::False => return Abs::False,
                    Abs::Null => saw_null = true,
                    Abs::Any => saw_any = true,
                    Abs::True => {}
                }
            }
            if saw_null {
                Abs::Null
            } else if saw_any {
                Abs::Any
            } else {
                Abs::True
            }
        }
        ScalarExpr::Or(parts) => {
            let mut saw_any = false;
            for p in parts {
                match abs_eval(p, null_cols) {
                    Abs::True | Abs::Any => saw_any = true,
                    Abs::Null | Abs::False => {}
                }
            }
            if saw_any {
                Abs::Any
            } else {
                Abs::Null
            }
        }
        ScalarExpr::Not(x) => match abs_eval(x, null_cols) {
            Abs::Null => Abs::Null,
            Abs::True => Abs::False,
            Abs::False => Abs::True,
            Abs::Any => Abs::Any,
        },
        // IS NULL can *accept* NULLs: a NULL-tested column yields TRUE.
        ScalarExpr::IsNull { expr, negated } => match abs_eval(expr, null_cols) {
            Abs::Null => {
                if *negated {
                    Abs::False
                } else {
                    Abs::True
                }
            }
            _ => Abs::Any,
        },
        ScalarExpr::Case {
            operand,
            whens,
            else_,
        } => {
            let else_abs = || else_.as_ref().map_or(Abs::Null, |e| abs_eval(e, null_cols));
            if let Some(op) = operand {
                // Simple CASE: a NULL comparand makes every WHEN unknown,
                // so the ELSE branch is taken.
                return if abs_eval(op, null_cols) == Abs::Null {
                    else_abs()
                } else {
                    Abs::Any
                };
            }
            // Searched CASE: a WHEN that is FALSE-or-NULL never fires; a
            // TRUE one always does; ANY may. Combine the reachable
            // branch results.
            let mut possible: Vec<Abs> = Vec::new();
            let mut fell_through = true;
            for (w, t) in whens {
                match abs_eval(w, null_cols) {
                    Abs::False | Abs::Null => {}
                    Abs::True => {
                        possible.push(abs_eval(t, null_cols));
                        fell_through = false;
                        break;
                    }
                    Abs::Any => possible.push(abs_eval(t, null_cols)),
                }
            }
            if fell_through {
                possible.push(else_abs());
            }
            let first = possible[0];
            if possible.iter().all(|&a| a == first) {
                first
            } else {
                Abs::Any
            }
        }
        ScalarExpr::Subquery(_)
        | ScalarExpr::Exists { .. }
        | ScalarExpr::InSubquery { .. }
        | ScalarExpr::QuantifiedCmp { .. } => Abs::Any,
    }
}

/// True when the expression is guaranteed to evaluate to NULL whenever
/// all columns in `cols` are NULL (strictness). Used when pulling `Map`
/// above an outer-join-Apply and when checking aggregate arguments for
/// identity (9): on a NULL-padded row a strict expression produces the
/// same NULL the outerjoin would have padded.
pub fn always_null_when(expr: &ScalarExpr, cols: &BTreeSet<ColId>) -> bool {
    abs_eval(expr, cols) == Abs::Null
}

/// Null-rejection *through GroupBy* — the paper's extension to the \[7\]
/// framework: a predicate above a GroupBy that rejects NULL on an
/// aggregate output column also rejects the all-NULL groups an outerjoin
/// below would produce, provided the aggregate maps all-NULL input to
/// NULL (`agg({NULL}) = NULL`).
///
/// Given the predicate and the GroupBy's aggregate definitions, returns
/// the set of *aggregate input* columns on which NULL is rejected.
pub fn rejects_null_through_groupby(
    pred: &ScalarExpr,
    aggs: &[crate::agg::AggDef],
) -> BTreeSet<ColId> {
    let mut rejected = BTreeSet::new();
    for agg in aggs {
        // COUNT maps all-NULL groups to 0, not NULL — no derivation.
        if !agg.func.output_nullable() || agg.func == AggFunc::CountStar {
            continue;
        }
        let out: BTreeSet<ColId> = [agg.out.id].into_iter().collect();
        if rejects_null_on(pred, &out) {
            if let Some(arg) = &agg.arg {
                rejected.extend(arg.cols());
            }
        }
    }
    rejected
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::t;

    #[test]
    fn select_preserves_keys() {
        let rel = t::get_ab();
        let key_cols: BTreeSet<ColId> = [t::COL_A].into_iter().collect();
        let filtered = RelExpr::Select {
            input: Box::new(rel),
            predicate: ScalarExpr::true_(),
        };
        assert!(has_key_within(&filtered, &key_cols));
    }

    #[test]
    fn groupby_output_key_is_group_cols() {
        let gb = t::groupby_sum_b_by_a(t::get_ab());
        let ks = keys(&gb);
        assert!(ks
            .iter()
            .any(|k| k == &[t::COL_A].into_iter().collect::<BTreeSet<_>>()));
    }

    #[test]
    fn scalar_groupby_is_at_most_one_row() {
        let gb = t::scalar_sum_b(t::get_ab());
        assert!(at_most_one_row(&gb));
        assert!(keys(&gb).iter().any(std::collections::BTreeSet::is_empty));
    }

    #[test]
    fn select_on_key_equals_constant_is_at_most_one_row() {
        let sel = RelExpr::Select {
            input: Box::new(t::get_ab()),
            predicate: ScalarExpr::eq(ScalarExpr::col(t::COL_A), ScalarExpr::lit(5i64)),
        };
        assert!(at_most_one_row(&sel));
    }

    #[test]
    fn select_on_key_equals_outer_param_is_at_most_one_row() {
        // c99 is not produced inside — it is an outer parameter.
        let sel = RelExpr::Select {
            input: Box::new(t::get_ab()),
            predicate: ScalarExpr::eq(ScalarExpr::col(t::COL_A), ScalarExpr::col(ColId(99))),
        };
        assert!(at_most_one_row(&sel));
    }

    #[test]
    fn select_on_non_key_is_not_bounded() {
        let sel = RelExpr::Select {
            input: Box::new(t::get_ab()),
            predicate: ScalarExpr::eq(ScalarExpr::col(t::COL_B), ScalarExpr::lit(5i64)),
        };
        assert!(!at_most_one_row(&sel));
    }

    #[test]
    fn comparison_rejects_null() {
        let p = ScalarExpr::cmp(
            CmpOp::Lt,
            ScalarExpr::lit(1_000_000i64),
            ScalarExpr::col(ColId(9)),
        );
        let cols = [ColId(9)].into_iter().collect();
        assert!(rejects_null_on(&p, &cols));
    }

    #[test]
    fn is_null_accepts_null() {
        let p = ScalarExpr::IsNull {
            expr: Box::new(ScalarExpr::col(ColId(9))),
            negated: false,
        };
        let cols = [ColId(9)].into_iter().collect();
        assert!(!rejects_null_on(&p, &cols));
    }

    #[test]
    fn or_with_unrelated_branch_does_not_reject() {
        let p = ScalarExpr::Or(vec![
            ScalarExpr::eq(ScalarExpr::col(ColId(9)), ScalarExpr::lit(1i64)),
            ScalarExpr::eq(ScalarExpr::col(ColId(10)), ScalarExpr::lit(2i64)),
        ]);
        let cols = [ColId(9)].into_iter().collect();
        assert!(!rejects_null_on(&p, &cols));
    }

    #[test]
    fn and_rejects_if_any_conjunct_rejects() {
        let p = ScalarExpr::and([
            ScalarExpr::eq(ScalarExpr::col(ColId(10)), ScalarExpr::lit(2i64)),
            ScalarExpr::cmp(CmpOp::Gt, ScalarExpr::col(ColId(9)), ScalarExpr::lit(0i64)),
        ]);
        let cols = [ColId(9)].into_iter().collect();
        assert!(rejects_null_on(&p, &cols));
    }

    #[test]
    fn groupby_null_rejection_derivation() {
        // HAVING 1000000 < sum(b): rejects NULL on sum output ⇒ derives
        // rejection on b (the aggregate's input).
        let gb = t::groupby_sum_b_by_a(t::get_ab());
        let (aggs, sum_out) = match &gb {
            RelExpr::GroupBy { aggs, .. } => (aggs.clone(), aggs[0].out.id),
            _ => unreachable!(),
        };
        let pred = ScalarExpr::cmp(
            CmpOp::Lt,
            ScalarExpr::lit(1_000_000i64),
            ScalarExpr::col(sum_out),
        );
        let rejected = rejects_null_through_groupby(&pred, &aggs);
        assert!(rejected.contains(&t::COL_B));
    }

    #[test]
    fn count_star_blocks_groupby_derivation() {
        let gb = t::groupby_countstar_by_a(t::get_ab());
        let (aggs, out) = match &gb {
            RelExpr::GroupBy { aggs, .. } => (aggs.clone(), aggs[0].out.id),
            _ => unreachable!(),
        };
        let pred = ScalarExpr::cmp(CmpOp::Gt, ScalarExpr::col(out), ScalarExpr::lit(0i64));
        assert!(rejects_null_through_groupby(&pred, &aggs).is_empty());
    }

    #[test]
    fn column_env_types() {
        let rel = t::get_ab();
        let env = ColumnEnv::build(&rel);
        assert_eq!(env.ty(t::COL_A), Some(DataType::Int));
        assert!(!env.nullable(t::COL_A));
        let (ty, nullable) = env.type_of(&ScalarExpr::Arith {
            op: crate::scalar::ArithOp::Div,
            left: Box::new(ScalarExpr::col(t::COL_A)),
            right: Box::new(ScalarExpr::lit(2i64)),
        });
        assert_eq!(ty, DataType::Float);
        assert!(!nullable);
    }

    #[test]
    fn join_keys_compose() {
        let j = RelExpr::Join {
            kind: JoinKind::Inner,
            left: Box::new(t::get_ab()),
            right: Box::new(t::get_cd()),
            predicate: ScalarExpr::true_(),
        };
        let want: BTreeSet<ColId> = [t::COL_A, t::COL_C].into_iter().collect();
        assert!(keys(&j).contains(&want));
    }

    #[test]
    fn enumerate_adds_key() {
        let col = crate::relop::ColumnMeta::new(ColId(50), "rn", DataType::Int, false);
        let e = RelExpr::Enumerate {
            input: Box::new(t::get_nokey()),
            col,
        };
        let want: BTreeSet<ColId> = [ColId(50)].into_iter().collect();
        assert!(keys(&e).contains(&want));
    }
}

#[cfg(test)]
mod case_abs_tests {
    use super::*;
    use orthopt_common::Value;

    fn cols9() -> BTreeSet<ColId> {
        [ColId(9)].into_iter().collect()
    }

    #[test]
    fn avg_expansion_case_is_strict() {
        // CASE WHEN c10 = 0 THEN NULL ELSE c9 / c10 END with c9, c10 NULL
        // is NULL: the guard never fires (unknown), the ELSE divides NULLs.
        let case = ScalarExpr::Case {
            operand: None,
            whens: vec![(
                ScalarExpr::eq(ScalarExpr::col(ColId(10)), ScalarExpr::lit(0i64)),
                ScalarExpr::Literal(Value::Null),
            )],
            else_: Some(Box::new(ScalarExpr::Arith {
                op: crate::scalar::ArithOp::Div,
                left: Box::new(ScalarExpr::col(ColId(9))),
                right: Box::new(ScalarExpr::col(ColId(10))),
            })),
        };
        let cols: BTreeSet<ColId> = [ColId(9), ColId(10)].into_iter().collect();
        assert!(always_null_when(&case, &cols));
    }

    #[test]
    fn case_with_non_null_branch_is_not_strict() {
        // CASE WHEN c8 > 0 THEN 1 ELSE c9 END can be 1 even when c9 NULL.
        let case = ScalarExpr::Case {
            operand: None,
            whens: vec![(
                ScalarExpr::cmp(CmpOp::Gt, ScalarExpr::col(ColId(8)), ScalarExpr::lit(0i64)),
                ScalarExpr::lit(1i64),
            )],
            else_: Some(Box::new(ScalarExpr::col(ColId(9)))),
        };
        assert!(!always_null_when(&case, &cols9()));
    }

    #[test]
    fn case_true_guard_short_circuits() {
        // CASE WHEN TRUE THEN c9 ELSE 1 END is strict in c9.
        let case = ScalarExpr::Case {
            operand: None,
            whens: vec![(ScalarExpr::true_(), ScalarExpr::col(ColId(9)))],
            else_: Some(Box::new(ScalarExpr::lit(1i64))),
        };
        assert!(always_null_when(&case, &cols9()));
    }

    #[test]
    fn simple_case_with_null_operand_takes_else() {
        // CASE c9 WHEN 1 THEN 5 END: NULL comparand skips all whens and
        // the implicit ELSE is NULL.
        let case = ScalarExpr::Case {
            operand: Some(Box::new(ScalarExpr::col(ColId(9)))),
            whens: vec![(ScalarExpr::lit(1i64), ScalarExpr::lit(5i64))],
            else_: None,
        };
        assert!(always_null_when(&case, &cols9()));
    }

    #[test]
    fn missing_else_defaults_to_null() {
        // CASE WHEN c8 = 1 THEN c9 END: both reachable outcomes (THEN
        // with NULL c9, implicit ELSE NULL) are NULL.
        let case = ScalarExpr::Case {
            operand: None,
            whens: vec![(
                ScalarExpr::eq(ScalarExpr::col(ColId(8)), ScalarExpr::lit(1i64)),
                ScalarExpr::col(ColId(9)),
            )],
            else_: None,
        };
        assert!(always_null_when(&case, &cols9()));
    }

    #[test]
    fn eq_classes_close_transitively_and_restrict() {
        let eq =
            |a: u32, b: u32| ScalarExpr::eq(ScalarExpr::col(ColId(a)), ScalarExpr::col(ColId(b)));
        let mut classes = EqClasses::default();
        classes.add_predicate(&ScalarExpr::and([eq(1, 2), eq(3, 2), eq(7, 7)]), |_| true);
        classes.add(ColId(5), ColId(4));
        let set = |ids: &[u32]| ids.iter().map(|&i| ColId(i)).collect::<BTreeSet<ColId>>();
        assert_eq!(classes.classes(), [set(&[1, 2, 3]), set(&[4, 5])]);
        assert_eq!(classes.closure(&set(&[1])), set(&[1, 2, 3]));
        assert_eq!(classes.rep(ColId(3)), ColId(1));
        assert_eq!(classes.rep(ColId(9)), ColId(9));
        // Restricting drops a class left with one member; an equality
        // with an unknown (outer) column is not an equivalence.
        assert_eq!(classes.restrict(&set(&[2, 3, 4])).classes(), [set(&[2, 3])]);
        let mut inner = EqClasses::default();
        inner.add_predicate(&eq(1, 9), |c| c != ColId(9));
        assert!(inner.classes().is_empty());
        // Two spellings of one partition are equal.
        let mut other = EqClasses::default();
        other.absorb(&classes);
        other.add(ColId(3), ColId(1));
        assert_eq!(other, classes);
    }
}
