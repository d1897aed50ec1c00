//! Transformation rules.
//!
//! Every rule is a small, orthogonal primitive (the paper's central
//! design position): rules match one memo expression (plus, when the
//! pattern is two levels deep, the expressions of a child group) and
//! emit alternative expressions into the *same* group. Rules read a
//! group's columns, keys and equivalence classes from its
//! [`crate::memo::Props`]; the memo canonicalizes what they emit, so a
//! rule need not care how a predicate happens to be spelled.

use std::collections::BTreeSet;

use orthopt_common::{ColId, DataType};
use orthopt_ir::props::{self, col_eq};
use orthopt_ir::{
    builder, iso, AggDef, AggFunc, ApplyKind, ColumnMeta, GroupKind, JoinKind, MapDef, RelExpr,
    ScalarExpr,
};

use crate::memo::{stub, GroupId, MExpr, Memo, RTree, RuleState};
use crate::search::OptimizerConfig;

/// Applies every enabled rule to one expression of group `gid`. Each
/// output is tagged with the producing rule's name so the search loop
/// can blame it if the alternative fails plan verification.
///
/// `first` is false on a later round, run because an input group has
/// gained alternatives: only the rules that match on those need re-run.
pub fn apply_all(
    memo: &Memo,
    gid: GroupId,
    expr: &MExpr,
    first: bool,
    state: &mut RuleState,
    config: &OptimizerConfig,
) -> Vec<(&'static str, RTree)> {
    let mut out: Vec<(&'static str, RTree)> = Vec::new();
    let mut push = |name: &'static str, trees: Vec<RTree>| {
        out.extend(trees.into_iter().map(|t| (name, t)));
    };
    if config.join_reorder {
        push("join_enumerate", memo.join_orders(gid, expr, state));
        push("select_below_join", select_below_join(memo, expr));
    }
    if config.groupby_reorder {
        push("groupby_below_join", groupby_below_join(memo, expr));
        push("groupby_above_join", groupby_above_join(memo, expr));
        push("semijoin_below_groupby", semijoin_below_groupby(memo, expr));
        if first {
            push(
                "semijoin_to_join_distinct",
                semijoin_to_join_distinct(memo, expr),
            );
        }
        push(
            "groupby_below_outerjoin",
            groupby_below_outerjoin(memo, expr, state),
        );
    }
    if config.local_aggregate {
        if first {
            let scalar = config.parallelism > 1;
            push(
                "split_local_groupby",
                split_local_groupby(expr, state, scalar),
            );
        }
        push(
            "local_groupby_below_join",
            local_groupby_below_join(memo, expr),
        );
    }
    if config.segment_apply {
        if first {
            push("segment_apply_intro", segment_apply_intro(memo, expr));
        }
        push(
            "join_below_segment_apply",
            join_below_segment_apply(memo, expr),
        );
    }
    if config.correlated_execution && first {
        push("apply_intro", apply_intro(memo, expr));
    }
    out
}

fn outs(memo: &Memo, gid: GroupId) -> &BTreeSet<ColId> {
    &memo.props(gid).out
}

// ---------------------------------------------------------------------
// Join reordering: `Memo::join_orders` enumerates a relation's orders
// directly (commutativity is built into how an inner join is stored).
// ---------------------------------------------------------------------

/// Moves filter conjuncts below a join during exploration — needed to
/// follow a pushed GroupBy (a HAVING predicate can chase the aggregate
/// below the join, which is what makes Kim's strategy reachable from
/// the subquery formulation).
fn select_below_join(memo: &Memo, expr: &MExpr) -> Vec<RTree> {
    let RelExpr::Select { predicate, .. } = &expr.shell else {
        return vec![];
    };
    let mut out = Vec::new();
    for join in memo.exprs(expr.children[0]) {
        let Some((kind, jp)) = join.as_join() else {
            continue;
        };
        let (g_l, g_r) = (join.children[0], join.children[1]);
        let within = |c: &ScalarExpr, g: GroupId| c.cols().is_subset(outs(memo, g));
        let mut on_left = Vec::new();
        let mut on_right = Vec::new();
        let mut rest = Vec::new();
        for c in predicate.conjuncts() {
            if !c.has_subquery() && within(&c, g_l) {
                on_left.push(c);
            } else if !c.has_subquery() && kind == JoinKind::Inner && within(&c, g_r) {
                on_right.push(c);
            } else {
                rest.push(c);
            }
        }
        if on_left.is_empty() && on_right.is_empty() {
            continue;
        }
        let left = RTree::select(ScalarExpr::and(on_left), g_l);
        let right = RTree::select(ScalarExpr::and(on_right), g_r);
        let new_join = RTree::join(kind, jp.clone(), left, right);
        out.push(RTree::select(ScalarExpr::and(rest), new_join));
    }
    out
}

// ---------------------------------------------------------------------
// GroupBy reordering (§3.1) and the outerjoin extension (§3.2)
// ---------------------------------------------------------------------

/// §3.1's three conditions for pushing `G_{A,F}` below `S ⋈p R`, the
/// join being an alternative of group `g_join`.
fn push_conditions_hold(
    memo: &Memo,
    (group_cols, aggs): (&[ColId], &[AggDef]),
    predicate: &ScalarExpr,
    g_join: GroupId,
    (g_s, g_r): (GroupId, GroupId),
) -> bool {
    let cols_r = outs(memo, g_r);
    let a: BTreeSet<ColId> = group_cols.iter().copied().collect();
    // (1) join-predicate columns from R are functionally determined by
    // the grouping columns: a column equal (transitively) to a grouping
    // column is — the paper states the condition in terms of functional
    // determination, and equality is the cheap sound approximation.
    let mut eq = memo.props(g_join).eq.clone();
    eq.add_predicate(predicate, |_| true);
    let determined = eq.closure(&a);
    let from_r = predicate.cols().into_iter().filter(|c| cols_r.contains(c));
    let cond1 = from_r.into_iter().all(|c| determined.contains(&c));
    // (2) a key of S is among the grouping columns.
    let cond2 = memo.props(g_s).keys.iter().any(|k| k.is_subset(&a));
    // (3) aggregate arguments use only R's columns.
    let on_r = |arg: &ScalarExpr| arg.cols().is_subset(cols_r);
    let cond3 = aggs.iter().all(|agg| agg.arg.as_ref().is_none_or(on_r));
    cond1 && cond2 && cond3
}

/// Grouping columns of a GroupBy pushed onto input `g_x` of a join: its
/// own grouping columns from that input plus the input's join columns.
fn pushed_group_cols(
    memo: &Memo,
    group_cols: &[ColId],
    predicate: &ScalarExpr,
    g_x: GroupId,
) -> Vec<ColId> {
    let cols_x = outs(memo, g_x);
    let needed = group_cols.iter().copied().chain(predicate.cols());
    needed.filter(|c| cols_x.contains(c)).collect()
}

/// `G_{A,F}(S ⋈p R)  →  S ⋈p G_{A∪cols(p)−cols(S),F}(R)`.
fn groupby_below_join(memo: &Memo, expr: &MExpr) -> Vec<RTree> {
    let Some((group_cols, aggs)) = expr.as_groupby(GroupKind::Vector) else {
        return vec![];
    };
    let g_in = expr.children[0];
    let mut out = Vec::new();
    for join in memo.exprs(g_in) {
        let Some((JoinKind::Inner, predicate)) = join.as_join() else {
            continue;
        };
        for (g_s, g_r) in join.sides() {
            if !push_conditions_hold(memo, (group_cols, aggs), predicate, g_in, (g_s, g_r)) {
                continue;
            }
            let pushed_cols = pushed_group_cols(memo, group_cols, predicate, g_r);
            let pushed = RTree::groupby(GroupKind::Vector, pushed_cols, aggs, g_r);
            out.push(RTree::join(JoinKind::Inner, predicate.clone(), g_s, pushed));
        }
    }
    out
}

/// Whether a predicate reads an aggregate's output.
fn reads_aggregate(predicate: &ScalarExpr, aggs: &[AggDef]) -> bool {
    let cols = predicate.cols();
    aggs.iter().any(|a| cols.contains(&a.out.id))
}

/// `S ⋈p G_{A,F}(R)  →  G_{A∪cols(S),F}(S ⋈p R)` — "pulling a GroupBy
/// above a join is a lot easier": S needs a key and p must not use the
/// aggregate outputs.
fn groupby_above_join(memo: &Memo, expr: &MExpr) -> Vec<RTree> {
    let Some((JoinKind::Inner, predicate)) = expr.as_join() else {
        return vec![];
    };
    let mut out = Vec::new();
    for (g_s, g_gb) in expr.sides() {
        if memo.props(g_s).keys.is_empty() {
            continue;
        }
        for gb in memo.exprs(g_gb) {
            let Some((group_cols, aggs)) = gb.as_groupby(GroupKind::Vector) else {
                continue;
            };
            if reads_aggregate(predicate, aggs) {
                continue;
            }
            let pulled = outs(memo, g_s).iter().chain(group_cols).copied().collect();
            let join = RTree::join(JoinKind::Inner, predicate.clone(), g_s, gb.children[0]);
            out.push(RTree::groupby(GroupKind::Vector, pulled, aggs, join));
        }
    }
    out
}

/// `(G_{A,F}R) ⋉p S  →  G_{A,F}(R ⋉p S)` when p ignores aggregate
/// outputs and its non-S columns are grouping columns (§3.1, semijoins
/// and antisemijoins "as filters").
fn semijoin_below_groupby(memo: &Memo, expr: &MExpr) -> Vec<RTree> {
    let Some((kind @ (JoinKind::LeftSemi | JoinKind::LeftAnti), predicate)) = expr.as_join() else {
        return vec![];
    };
    let (g_gb, g_s) = (expr.children[0], expr.children[1]);
    let cols_s = outs(memo, g_s);
    let mut out = Vec::new();
    for gb in memo.exprs(g_gb) {
        let Some((group_cols, aggs)) = gb.as_groupby(GroupKind::Vector) else {
            continue;
        };
        let grouped = |c: &ColId| cols_s.contains(c) || group_cols.contains(c);
        if reads_aggregate(predicate, aggs) || !predicate.cols().iter().all(grouped) {
            continue;
        }
        let join = RTree::join(kind, predicate.clone(), gb.children[0], g_s);
        let cols = group_cols.to_vec();
        out.push(RTree::groupby(GroupKind::Vector, cols, aggs, join));
    }
    out
}

/// §2.4: "For the resulting semijoin, we consider execution as join
/// followed by GroupBy (distincting), which follows from the definition
/// of semijoin. This GroupBy is also subject to reordering" — covering
/// the magic-sets-style semijoin strategies of Pirahesh et al. Valid
/// when the left side has a key (one output row per left row).
fn semijoin_to_join_distinct(memo: &Memo, expr: &MExpr) -> Vec<RTree> {
    let Some((JoinKind::LeftSemi, predicate)) = expr.as_join() else {
        return vec![];
    };
    let (g_l, g_r) = (expr.children[0], expr.children[1]);
    let left = memo.props(g_l);
    if left.keys.is_empty() {
        return vec![];
    }
    let join = RTree::join(JoinKind::Inner, predicate.clone(), g_l, g_r);
    let distinct_on = left.cols.iter().map(|c| c.id).collect();
    vec![RTree::groupby(GroupKind::Vector, distinct_on, &[], join)]
}

/// `out := CASE WHEN from IS NULL THEN when_null ELSE from END`: restores
/// a count computed as `from` somewhere that yields NULL — an outerjoin's
/// padding, a `SUM` over no partials — where the count has a value.
fn count_or(out: &ColumnMeta, from: ColId, when_null: i64) -> MapDef {
    let from = ScalarExpr::col(from);
    let is_null = ScalarExpr::IsNull {
        expr: Box::new(from.clone()),
        negated: false,
    };
    MapDef {
        col: out.clone(),
        expr: ScalarExpr::Case {
            operand: None,
            whens: vec![(is_null, ScalarExpr::lit(when_null))],
            else_: Some(Box::new(from)),
        },
    }
}

/// §3.2: `G_{A,F}(S LOJ_p R) → π_c(S LOJ_p (G_{A−cols(S),F}R))`, with a
/// computing project restoring the aggregate-over-one-NULL-row results
/// for unmatched rows (COUNT(*) ↦ 1, COUNT(col) ↦ 0; strict aggregates
/// need nothing — the padding NULL is already correct).
fn groupby_below_outerjoin(memo: &Memo, expr: &MExpr, state: &mut RuleState) -> Vec<RTree> {
    let Some((group_cols, aggs)) = expr.as_groupby(GroupKind::Vector) else {
        return vec![];
    };
    let g_in = expr.children[0];
    let mut out = Vec::new();
    for join in memo.exprs(g_in) {
        let Some((JoinKind::LeftOuter, predicate)) = join.as_join() else {
            continue;
        };
        let (g_s, g_r) = (join.children[0], join.children[1]);
        if !push_conditions_hold(memo, (group_cols, aggs), predicate, g_in, (g_s, g_r)) {
            continue;
        }
        let cols_r = outs(memo, g_r);
        // Classify aggregates: strict ones pad correctly by themselves;
        // counts need the compensating project.
        let is_count = |a: &AggDef| matches!(a.func, AggFunc::CountStar | AggFunc::Count);
        let pads_null = |arg: &ScalarExpr| props::always_null_when(arg, cols_r);
        if !aggs
            .iter()
            .all(|a| is_count(a) || a.arg.as_ref().is_some_and(pads_null))
        {
            continue;
        }
        // Counts go below under their own ids; the project above restores
        // the original ids with the unmatched-row constants.
        let mut pushed_aggs = Vec::with_capacity(aggs.len());
        let mut defs: Vec<MapDef> = Vec::new();
        for a in aggs {
            if !is_count(a) {
                pushed_aggs.push(a.clone());
                continue;
            }
            let pre = ColumnMeta::new(
                state.column(a.out.id, "pre"),
                format!("{}_pre", a.out.name),
                DataType::Int,
                false,
            );
            let unmatched = i64::from(a.func == AggFunc::CountStar);
            defs.push(count_or(&a.out, pre.id, unmatched));
            pushed_aggs.push(AggDef {
                out: pre,
                ..a.clone()
            });
        }
        let pushed_cols = pushed_group_cols(memo, group_cols, predicate, g_r);
        let pushed = RTree::groupby(GroupKind::Vector, pushed_cols, &pushed_aggs, g_r);
        let join = RTree::join(JoinKind::LeftOuter, predicate.clone(), g_s, pushed);
        out.push(if defs.is_empty() {
            join
        } else {
            let input = stub();
            RTree::op(RelExpr::Map { input, defs }, vec![join])
        });
    }
    out
}

// ---------------------------------------------------------------------
// LocalGroupBy (§3.3)
// ---------------------------------------------------------------------

/// `G_{A,F} = G_{A,F_global} ∘ LG_{A,F_local}`.
///
/// With `scalar` — set when the planner may place exchanges, the one
/// place a LocalGroupBy with nothing to push it below pays — also
/// `G¹_F = π ∘ G¹_{F_global} ∘ LG_{∅,F_local}`. Over an empty input the
/// LocalGroupBy yields no partial and the combining `SUM(∅)` is NULL
/// where `COUNT(∅)` is 0, so π maps each combined count through
/// `CASE WHEN g IS NULL THEN 0 ELSE g END`.
fn split_local_groupby(expr: &MExpr, state: &mut RuleState, scalar: bool) -> Vec<RTree> {
    let RelExpr::GroupBy {
        kind,
        group_cols,
        aggs,
        ..
    } = &expr.shell
    else {
        return vec![];
    };
    let kind = match kind {
        GroupKind::Vector => GroupKind::Vector,
        GroupKind::Scalar if scalar => GroupKind::Scalar,
        _ => return vec![],
    };
    if aggs.is_empty() || aggs.iter().any(|a| a.distinct || a.func.split().is_none()) {
        return vec![];
    }
    // A combiner of local partials is not split again: one LocalGroupBy
    // level per aggregate, or the split would recurse forever.
    let minted = |arg: &ScalarExpr| arg.cols().iter().any(|c| state.minted(*c));
    if aggs.iter().any(|a| a.arg.as_ref().is_some_and(minted)) {
        return vec![];
    }
    let mut locals = Vec::with_capacity(aggs.len());
    let mut globals = Vec::with_capacity(aggs.len());
    let mut counts: Vec<MapDef> = Vec::new();
    for a in aggs {
        let (lf, gf) = a.func.split().expect("checked splittable");
        let local_ty = lf.output_type(a.arg.as_ref().map(|_| a.out.ty));
        let local_out = ColumnMeta::new(
            state.column(a.out.id, "local"),
            format!("{}_local", a.out.name),
            local_ty,
            lf.output_nullable(),
        );
        let mut global_out = a.out.clone();
        // A count: the one `agg(∅)` that is not NULL.
        if kind == GroupKind::Scalar && !a.func.output_nullable() {
            global_out = ColumnMeta::new(
                state.column(a.out.id, "global"),
                format!("{}_global", a.out.name),
                DataType::Int,
                true,
            );
            counts.push(count_or(&a.out, global_out.id, 0));
        }
        globals.push(AggDef {
            out: global_out,
            func: gf,
            arg: Some(ScalarExpr::col(local_out.id)),
            distinct: false,
        });
        locals.push(AggDef {
            out: local_out,
            func: lf,
            arg: a.arg.clone(),
            distinct: false,
        });
    }
    let (cols, g_in) = (group_cols.clone(), expr.children[0]);
    let local = RTree::groupby(GroupKind::Local, cols.clone(), &locals, g_in);
    let global = RTree::groupby(kind, cols, &globals, local);
    vec![if counts.is_empty() {
        global
    } else {
        let input = stub();
        RTree::op(
            RelExpr::Map {
                input,
                defs: counts,
            },
            vec![global],
        )
    }]
}

/// LocalGroupBy pushes below an inner join, to whichever side holds all
/// the aggregate inputs; grouping columns extend freely (§3.3).
fn local_groupby_below_join(memo: &Memo, expr: &MExpr) -> Vec<RTree> {
    let Some((group_cols, aggs)) = expr.as_groupby(GroupKind::Local) else {
        return vec![];
    };
    let mut out = Vec::new();
    for join in memo.exprs(expr.children[0]) {
        let Some((JoinKind::Inner, predicate)) = join.as_join() else {
            continue;
        };
        for (g_o, g_x) in join.sides() {
            // COUNT(*) counts join pairs: not pushable one-sided.
            let on_x = |arg: &ScalarExpr| arg.cols().is_subset(outs(memo, g_x));
            if !aggs.iter().all(|a| a.arg.as_ref().is_some_and(on_x)) {
                continue;
            }
            let pushed_cols = pushed_group_cols(memo, group_cols, predicate, g_x);
            let pushed = RTree::groupby(GroupKind::Local, pushed_cols, aggs, g_x);
            out.push(RTree::join(JoinKind::Inner, predicate.clone(), g_o, pushed));
        }
    }
    out
}

// ---------------------------------------------------------------------
// SegmentApply (§3.4)
// ---------------------------------------------------------------------

/// §3.4.1: a join of two instances of the same expression, one of them
/// aggregated (possibly under select/map wrappers), with an equality
/// between corresponding columns — becomes per-segment correlated
/// execution.
fn segment_apply_intro(memo: &Memo, expr: &MExpr) -> Vec<RTree> {
    let Some((JoinKind::Inner, predicate)) = expr.as_join() else {
        return vec![];
    };
    let sides = expr.sides();
    sides
        .filter_map(|(l, r)| segment_apply_over(memo, predicate, l, r))
        .collect()
}

/// [`segment_apply_intro`] for one orientation of the join.
fn segment_apply_over(
    memo: &Memo,
    predicate: &ScalarExpr,
    g_left: GroupId,
    g_right: GroupId,
) -> Option<RTree> {
    // The right side must be Select/Map/Project wrappers over a vector
    // GroupBy: test that on the defining expressions before building any
    // tree.
    let is_wrapper = |rel: &RelExpr| {
        matches!(
            rel,
            RelExpr::Select { .. } | RelExpr::Map { .. } | RelExpr::Project { .. }
        )
    };
    let mut defining = memo.first(g_right);
    while is_wrapper(&defining.shell) {
        defining = memo.first(defining.children[0]);
    }
    defining.as_groupby(GroupKind::Vector)?;
    let t1 = memo.repr(g_left);

    // Strip the wrappers, keeping them to rebuild inside the segment.
    let mut wrappers: Vec<RelExpr> = Vec::new();
    let mut cur = memo.repr(g_right);
    while is_wrapper(&cur) {
        let input = std::mem::replace(cur.children_mut()[0], *stub());
        wrappers.push(cur);
        cur = input;
    }
    let RelExpr::GroupBy {
        input: t2,
        group_cols: a2,
        aggs: f2,
        ..
    } = cur
    else {
        unreachable!("shape checked above");
    };

    // The two instances must be the same expression up to renaming the
    // columns they produce — the aggregated instance may scan fewer
    // columns — with the same outer parameters.
    let bij = iso::rel_instance(&t1, &t2)?;

    // Segmenting columns: equality conjuncts t1.c = t2.g with g a
    // grouping column and bij(c) = g.
    let t1_outs = outs(memo, g_left);
    let mut segment_cols: Vec<ColId> = Vec::new();
    for (x, y) in predicate.conjuncts().iter().filter_map(col_eq) {
        for (a, b) in [(x, y), (y, x)] {
            let corresponds = a2.contains(&b) && bij.get(&a) == Some(&b);
            if t1_outs.contains(&a) && corresponds && !segment_cols.contains(&a) {
                segment_cols.push(a);
            }
        }
    }
    if segment_cols.is_empty() {
        return None;
    }

    // Build the per-segment expression: both instances read the segment.
    let t1_cols = &memo.props(g_left).cols;
    let seg1 = RelExpr::SegmentRef {
        cols: t1_cols.iter().map(|m| (m.clone(), m.id)).collect(),
    };
    // Every t2 output must correspond to a t1 output through the mapping.
    let source = |m: ColumnMeta| {
        let src = t1_cols.iter().find(|c| bij.get(&c.id) == Some(&m.id))?;
        Some((m, src.id))
    };
    let seg2_cols = t2.output_cols().into_iter().map(source);
    let seg2 = RelExpr::SegmentRef {
        cols: seg2_cols.collect::<Option<_>>()?,
    };
    let mut agg_side = builder::groupby(seg2, a2, f2);
    for mut w in wrappers.into_iter().rev() {
        *w.children_mut()[0] = agg_side;
        agg_side = w;
    }
    let inner = builder::join(JoinKind::Inner, seg1, agg_side, predicate.clone());
    let shell = RelExpr::SegmentApply {
        input: stub(),
        segment_cols,
        inner: stub(),
    };
    Some(RTree::op(shell, vec![RTree::Ref(g_left), inner.into()]))
}

/// §3.4.2: `(R SA_A E) ⋈p T = (R ⋈p T) SA_{A∪cols(T)} E` when p uses
/// only segmenting columns and T's columns (all-or-none per segment).
fn join_below_segment_apply(memo: &Memo, expr: &MExpr) -> Vec<RTree> {
    let Some((JoinKind::Inner, predicate)) = expr.as_join() else {
        return vec![];
    };
    let mut out = Vec::new();
    for (g_sa, g_t) in expr.sides() {
        let cols_t = outs(memo, g_t);
        for sa in memo.exprs(g_sa) {
            let RelExpr::SegmentApply { segment_cols, .. } = &sa.shell else {
                continue;
            };
            let covered = |c: &ColId| segment_cols.contains(c) || cols_t.contains(c);
            if !predicate.cols().iter().all(covered) {
                continue;
            }
            // All of T's columns join the segmenting list (T's key would
            // suffice; the full set keeps the output a superset and
            // segments identical).
            let shell = RelExpr::SegmentApply {
                input: stub(),
                segment_cols: segment_cols.iter().chain(cols_t).copied().collect(),
                inner: stub(),
            };
            let join = RTree::join(JoinKind::Inner, predicate.clone(), sa.children[0], g_t);
            out.push(RTree::op(shell, vec![join, RTree::Ref(sa.children[1])]));
        }
    }
    out
}

// ---------------------------------------------------------------------
// Correlated-execution re-introduction (§4)
// ---------------------------------------------------------------------

/// A join whose inner side is an indexed scan becomes an Apply with a
/// parameterized select — the optimizer's way back to index-lookup-join
/// ("can be very effective if few outer rows are processed and
/// appropriate indices exist", §2.5).
fn apply_intro(memo: &Memo, expr: &MExpr) -> Vec<RTree> {
    let Some((kind, predicate)) = expr.as_join().filter(|(_, p)| !p.is_true()) else {
        return vec![];
    };
    let kind = match kind {
        JoinKind::Inner => ApplyKind::Cross,
        JoinKind::LeftOuter => ApplyKind::LeftOuter,
        JoinKind::LeftSemi => ApplyKind::Semi,
        JoinKind::LeftAnti => ApplyKind::Anti,
    };
    let mut out = Vec::new();
    for (g_l, g_r) in expr.sides() {
        // The inner side must be (exactly) an indexed base-table scan.
        let RelExpr::Get(g) = &memo.first(g_r).shell else {
            continue;
        };
        // Some equality conjunct must reach an indexed column.
        let cols_l = outs(memo, g_l);
        let indexed = |c: ColId| {
            g.cols.iter().position(|m| m.id == c).is_some_and(|pos| {
                let base = g.positions[pos];
                g.indexes.iter().any(|ix| ix.contains(&base))
            })
        };
        let seeks = |(x, y): (ColId, ColId)| {
            (cols_l.contains(&x) && indexed(y)) || (cols_l.contains(&y) && indexed(x))
        };
        if !predicate.conjuncts().iter().filter_map(col_eq).any(seeks) {
            continue;
        }
        let (left, right) = (stub(), stub());
        let shell = RelExpr::Apply { kind, left, right };
        let inner = RTree::select(predicate.clone(), g_r);
        out.push(RTree::op(shell, vec![RTree::Ref(g_l), inner]));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cardinality::Estimator;
    use orthopt_common::{ColIdGen, TableId};
    use orthopt_ir::builder::t;

    fn explore_until(rel: RelExpr, config: &OptimizerConfig) -> (Memo, GroupId, bool) {
        let mut used = rel.produced_cols();
        used.extend(rel.referenced_cols());
        let mut state = RuleState::after(used);
        let mut memo = Memo::new(Estimator::new(&rel));
        let root = memo.insert_tree(rel);
        let valve_hit = crate::search::explore(&mut memo, &mut state, config).unwrap();
        (memo, root, valve_hit)
    }

    fn explore(rel: RelExpr, config: &OptimizerConfig) -> (Memo, GroupId) {
        let (memo, root, valve_hit) = explore_until(rel, config);
        assert!(!valve_hit);
        (memo, root)
    }

    /// Table `i`: `t(k int key, next int)`, columns `2i` and `2i + 1`.
    fn table(i: u32) -> RelExpr {
        let cols = [
            (ColId(2 * i), "k", DataType::Int, false),
            (ColId(2 * i + 1), "next", DataType::Int, false),
        ];
        builder::get(TableId(i), "t", &cols, &[&[0]], 1000.0)
    }

    /// `t0 ⋈ t1 ⋈ … ⋈ t(n-1)` on `t(i).k = t(i+1).k`, left-deep; with
    /// `transitive` every key is one equivalence class (a clique), else
    /// table `i` carries a second column joining it to `i+1` (a chain).
    fn join_of(n: u32, transitive: bool) -> RelExpr {
        join_over(0..n, transitive)
    }

    /// [`join_of`] over the tables numbered `tables`.
    fn join_over(mut tables: std::ops::Range<u32>, transitive: bool) -> RelExpr {
        let first = table(tables.next().expect("a table"));
        tables.fold(first, |left, i| {
            let from = if transitive { 2 * i - 2 } else { 2 * i - 1 };
            let on = ScalarExpr::eq(ScalarExpr::col(ColId(from)), ScalarExpr::col(ColId(2 * i)));
            builder::join(orthopt_ir::JoinKind::Inner, left, table(i), on)
        })
    }

    /// A clique of `2 * half` tables spelled as the join of two left-deep
    /// halves, on one key.
    fn bushy_clique(half: u32) -> RelExpr {
        let on = ScalarExpr::eq(ScalarExpr::col(ColId(0)), ScalarExpr::col(ColId(2 * half)));
        builder::join(
            orthopt_ir::JoinKind::Inner,
            join_over(0..half, true),
            join_over(half..2 * half, true),
            on,
        )
    }

    fn join_only() -> OptimizerConfig {
        OptimizerConfig {
            groupby_reorder: false,
            local_aggregate: false,
            segment_apply: false,
            correlated_execution: false,
            ..OptimizerConfig::default()
        }
    }

    #[test]
    fn a_chain_join_explores_to_its_intervals() {
        // The connected subsets of an n-table chain are its n(n+1)/2
        // intervals; an interval of k tables splits k-1 ways.
        for n in 2..=7u32 {
            let (memo, _) = explore(join_of(n, false), &join_only());
            let n = n as usize;
            assert_eq!(memo.group_count(), n * (n + 1) / 2, "{n} tables");
            let splits: usize = (2..=n).map(|k| (n - k + 1) * (k - 1)).sum();
            assert_eq!(memo.expr_count(), n + splits, "{n} tables");
        }
    }

    #[test]
    fn a_clique_join_explores_every_subset() {
        // One equivalence class over all keys connects every pair: all
        // 2^n - 1 subsets are relations, however the query spelled it.
        let (memo, root) = explore(join_of(4, true), &join_only());
        assert_eq!(memo.group_count(), 15);
        // {0,1,2,3} splits 7 ways.
        assert_eq!(memo.group(root).exprs.len(), 7);
    }

    #[test]
    fn the_valve_is_a_hard_stop() {
        // A 12-table clique has ~3^12 / 2 join orders: exploration must
        // stop at the valve, not merely notice it, and still leave a memo
        // a plan can be extracted from.
        let (memo, root, valve_hit) = explore_until(join_of(12, true), &join_only());
        assert!(valve_hit);
        // One rule output may intern a few nested joins past the limit.
        assert!(memo.expr_count() < 20_000 + 12, "{}", memo.expr_count());
        let mut planner = crate::physical_gen::Planner::new(&memo, 1, Default::default());
        assert!(planner.best(root).is_ok());
    }

    #[test]
    fn one_enumeration_cannot_outrun_the_valve() {
        // A bushy seed keeps each half under the valve, so the first
        // relation too large for it is met whole: 2^(n-1) bipartitions in
        // one firing. That firing must notice before it builds them.
        for half in [8, 11, 32] {
            let (memo, root, valve_hit) = explore_until(bushy_clique(half), &join_only());
            assert!(valve_hit, "2 x {half}");
            assert!(memo.expr_count() <= 20_000, "{}", memo.expr_count());
            // The relation over all the tables keeps the query's order only.
            assert_eq!(memo.group(root).exprs.len(), 1, "2 x {half}");
            let mut planner = crate::physical_gen::Planner::new(&memo, 1, Default::default());
            assert!(planner.best(root).is_ok());
        }
        // A star around table 1: few of the 2^38 connected sets holding
        // table 0 leave a connected rest, but all of them are groups to be.
        let star = (1..40).fold(table(0), |left, i| {
            let spoke = if i == 1 { 0 } else { 2 * i };
            let on = ScalarExpr::Cmp {
                op: orthopt_ir::CmpOp::Lt,
                left: Box::new(ScalarExpr::col(ColId(spoke))),
                right: Box::new(ScalarExpr::col(ColId(2))),
            };
            builder::join(orthopt_ir::JoinKind::Inner, left, table(i), on)
        });
        let (memo, _, valve_hit) = explore_until(star, &join_only());
        assert!(valve_hit && memo.expr_count() <= 20_000);
    }

    #[test]
    fn a_cross_product_is_not_invented() {
        // a ⋈ b on a = c … with no predicate at all: the query's own
        // cross products are the only ones.
        let cross = builder::join(
            orthopt_ir::JoinKind::Inner,
            builder::join(
                orthopt_ir::JoinKind::Inner,
                t::get_ab(),
                t::get_cd(),
                ScalarExpr::true_(),
            ),
            t::get_nokey(),
            ScalarExpr::eq(ScalarExpr::col(t::COL_A), ScalarExpr::col(ColId(4))),
        );
        let (memo, root) = explore(cross, &join_only());
        // ab–nk is connected, cd is not: (ab × cd) ⋈ nk stays, and the
        // one other order keeps the cross product on top.
        assert_eq!(memo.group(root).exprs.len(), 2);
        assert_eq!(memo.group_count(), 3 + 2 + 1);
    }

    fn group_has(memo: &Memo, gid: GroupId, pred: &dyn Fn(&RelExpr) -> bool) -> bool {
        memo.exprs(gid).any(|e| pred(&e.shell))
    }

    fn gb_over_join() -> RelExpr {
        // G_{a}[sum(d)](ab ⋈_{a=c} cd): a is a key of ab, aggregate uses
        // only cd columns — all three §3.1 conditions hold via closure.
        builder::groupby(
            builder::join(
                orthopt_ir::JoinKind::Inner,
                t::get_ab(),
                t::get_cd(),
                ScalarExpr::eq(ScalarExpr::col(t::COL_A), ScalarExpr::col(t::COL_C)),
            ),
            vec![t::COL_A],
            vec![builder::agg(
                ColId(30),
                "s",
                AggFunc::Sum,
                Some(ScalarExpr::col(t::COL_D)),
            )],
        )
    }

    #[test]
    fn groupby_pushes_below_join_when_conditions_hold() {
        let config = OptimizerConfig {
            correlated_execution: false,
            local_aggregate: false,
            segment_apply: false,
            ..OptimizerConfig::default()
        };
        let (memo, root) = explore(gb_over_join(), &config);
        // Some alternative in the root group is a Join (the pushed form).
        assert!(group_has(&memo, root, &|s| matches!(
            s,
            RelExpr::Join {
                kind: orthopt_ir::JoinKind::Inner,
                ..
            }
        )));
    }

    #[test]
    fn groupby_push_blocked_without_outer_key() {
        // nk has no key: condition (2) fails, the GroupBy stays put.
        let gb = builder::groupby(
            builder::join(
                orthopt_ir::JoinKind::Inner,
                t::get_nokey(),
                t::get_cd(),
                ScalarExpr::eq(ScalarExpr::col(ColId(4)), ScalarExpr::col(t::COL_C)),
            ),
            vec![ColId(4)],
            vec![builder::agg(
                ColId(31),
                "s",
                AggFunc::Sum,
                Some(ScalarExpr::col(t::COL_D)),
            )],
        );
        let config = OptimizerConfig {
            correlated_execution: false,
            local_aggregate: false,
            segment_apply: false,
            ..OptimizerConfig::default()
        };
        let (memo, root) = explore(gb, &config);
        assert!(!group_has(&memo, root, &|s| matches!(
            s,
            RelExpr::Join { .. }
        )));
    }

    #[test]
    fn groupby_push_blocked_when_agg_uses_both_sides() {
        // sum(b + d) mixes sides: condition (3) fails.
        let gb = builder::groupby(
            builder::join(
                orthopt_ir::JoinKind::Inner,
                t::get_ab(),
                t::get_cd(),
                ScalarExpr::eq(ScalarExpr::col(t::COL_A), ScalarExpr::col(t::COL_C)),
            ),
            vec![t::COL_A],
            vec![builder::agg(
                ColId(32),
                "s",
                AggFunc::Sum,
                Some(ScalarExpr::Arith {
                    op: orthopt_ir::ArithOp::Add,
                    left: Box::new(ScalarExpr::col(t::COL_B)),
                    right: Box::new(ScalarExpr::col(t::COL_D)),
                }),
            )],
        );
        let config = OptimizerConfig {
            correlated_execution: false,
            local_aggregate: false,
            segment_apply: false,
            ..OptimizerConfig::default()
        };
        let (memo, root) = explore(gb, &config);
        assert!(!group_has(&memo, root, &|s| matches!(
            s,
            RelExpr::Join { .. }
        )));
    }

    #[test]
    fn local_split_skips_distinct_aggregates() {
        let mut gb = gb_over_join();
        if let RelExpr::GroupBy { aggs, .. } = &mut gb {
            aggs[0].distinct = true;
        }
        let config = OptimizerConfig {
            correlated_execution: false,
            groupby_reorder: false,
            segment_apply: false,
            ..OptimizerConfig::default()
        };
        let (memo, root) = explore(gb, &config);
        assert!(!group_has(&memo, root, &|s| matches!(
            s,
            RelExpr::GroupBy {
                kind: GroupKind::Local,
                ..
            }
        )));
    }

    #[test]
    fn local_split_fires_on_plain_aggregates() {
        let config = OptimizerConfig {
            correlated_execution: false,
            groupby_reorder: false,
            segment_apply: false,
            ..OptimizerConfig::default()
        };
        let (memo, root) = explore(gb_over_join(), &config);
        // The root group gains a global-over-local alternative whose
        // input group holds the LocalGroupBy.
        let is_local = |e: &MExpr| {
            matches!(
                e.shell,
                RelExpr::GroupBy {
                    kind: GroupKind::Local,
                    ..
                }
            )
        };
        let global = memo
            .exprs(root)
            .find(|e| is_local(memo.first(e.children[0])));
        assert!(global.is_some());
    }

    #[test]
    fn apply_intro_requires_an_index() {
        // cd has no indexes: no Apply alternative appears.
        let join = builder::join(
            orthopt_ir::JoinKind::Inner,
            t::get_ab(),
            t::get_cd(),
            ScalarExpr::eq(ScalarExpr::col(t::COL_A), ScalarExpr::col(t::COL_C)),
        );
        let config = OptimizerConfig {
            groupby_reorder: false,
            local_aggregate: false,
            segment_apply: false,
            ..OptimizerConfig::default()
        };
        let (memo, root) = explore(join, &config);
        assert!(!group_has(&memo, root, &|s| matches!(
            s,
            RelExpr::Apply { .. }
        )));
    }

    #[test]
    fn apply_intro_fires_with_an_index() {
        let mut right = t::get_cd();
        if let RelExpr::Get(g) = &mut right {
            g.indexes.push(vec![0]); // index on c
        }
        let join = builder::join(
            orthopt_ir::JoinKind::Inner,
            t::get_ab(),
            right,
            ScalarExpr::eq(ScalarExpr::col(t::COL_A), ScalarExpr::col(t::COL_C)),
        );
        let config = OptimizerConfig {
            groupby_reorder: false,
            local_aggregate: false,
            segment_apply: false,
            ..OptimizerConfig::default()
        };
        let (memo, root) = explore(join, &config);
        assert!(group_has(&memo, root, &|s| matches!(
            s,
            RelExpr::Apply { .. }
        )));
    }

    #[test]
    fn segment_intro_requires_equality_on_grouping_column() {
        // Self-join of ab with an aggregated copy, but the join predicate
        // compares non-corresponding columns — the rule must not fire.
        let mut gen = ColIdGen::starting_at(100);
        let (copy, map) = t::get_ab().clone_with_fresh_cols(&mut gen);
        let gb = builder::groupby(
            copy,
            vec![map[&t::COL_A]],
            vec![builder::agg(
                ColId(200),
                "m",
                AggFunc::Max,
                Some(ScalarExpr::col(map[&t::COL_B])),
            )],
        );
        // b (payload) compared with the copy's grouping column: not the
        // corresponding column under the instance mapping.
        let join = builder::join(
            orthopt_ir::JoinKind::Inner,
            t::get_ab(),
            gb,
            ScalarExpr::eq(ScalarExpr::col(t::COL_B), ScalarExpr::col(map[&t::COL_A])),
        );
        let config = OptimizerConfig {
            correlated_execution: false,
            groupby_reorder: false,
            local_aggregate: false,
            join_reorder: false,
            ..OptimizerConfig::default()
        };
        let (memo, root) = explore(join, &config);
        assert!(!group_has(&memo, root, &|s| matches!(
            s,
            RelExpr::SegmentApply { .. }
        )));
    }

    #[test]
    fn segment_intro_fires_on_corresponding_columns() {
        let mut gen = ColIdGen::starting_at(100);
        let (copy, map) = t::get_ab().clone_with_fresh_cols(&mut gen);
        let gb = builder::groupby(
            copy,
            vec![map[&t::COL_A]],
            vec![builder::agg(
                ColId(201),
                "m",
                AggFunc::Max,
                Some(ScalarExpr::col(map[&t::COL_B])),
            )],
        );
        let join = builder::join(
            orthopt_ir::JoinKind::Inner,
            t::get_ab(),
            gb,
            ScalarExpr::eq(ScalarExpr::col(t::COL_A), ScalarExpr::col(map[&t::COL_A])),
        );
        let config = OptimizerConfig {
            correlated_execution: false,
            groupby_reorder: false,
            local_aggregate: false,
            join_reorder: false,
            ..OptimizerConfig::default()
        };
        let (memo, root) = explore(join, &config);
        assert!(group_has(&memo, root, &|s| matches!(
            s,
            RelExpr::SegmentApply { .. }
        )));
    }
}
