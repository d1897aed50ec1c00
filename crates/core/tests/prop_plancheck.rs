//! Plan-invariant verification, end to end.
//!
//! Two halves:
//!
//! * **Corpus sweep** — every query in the shared random-query template
//!   family (`rewrite::testgen`), planned at every optimizer level with
//!   per-rule verification forced on, must produce a plan that passes
//!   both the closed logical check and the physical legality check.
//! * **Mutation registry** — each deliberately broken rule variant
//!   ([`REGISTRY`]) starts from an input the verifier accepts and must
//!   be rejected by it with a blame report naming exactly that rule.
//!   This is the test that the verifier actually *verifies*: a checker
//!   that accepts everything would sail through the corpus sweep.

use orthopt::common::{ColId, ColIdGen, DataType, Error, TableId, Value};
use orthopt::exec::{exchange_eligible, PhysExpr};
use orthopt::ir::{
    AggDef, AggFunc, ApplyKind, ColumnMeta, GroupKind, JoinKind, RelExpr, ScalarExpr,
};
use orthopt::plancheck::{self, Check, RuleTag};
use orthopt::rewrite::testgen;
use orthopt::{Database, OptimizerLevel};

// --- corpus sweep ----------------------------------------------------

/// Every template at every level: the plan compiles with per-rule
/// verification active (so a single broken step would abort planning)
/// and the final plan passes `Database::check_plan`.
#[test]
fn testgen_corpus_passes_plancheck_at_every_level() {
    plancheck::set_enabled(true);
    let r_rows = [(0, Some(1)), (1, None), (2, Some(3)), (3, Some(0))];
    let s_rows = [
        (0, 0, Some(2)),
        (1, 0, None),
        (2, 1, Some(1)),
        (3, 2, Some(5)),
        (4, 3, Some(-1)),
    ];
    let db = Database::from_catalog(testgen::build_catalog(&r_rows, &s_rows));
    for sql in testgen::query_templates(1) {
        for level in OptimizerLevel::ALL {
            let plan = db
                .plan(&sql, level)
                .unwrap_or_else(|e| panic!("{sql}\n@ {level:?} failed verification: {e}"));
            let summary = db
                .check_plan(&plan)
                .unwrap_or_else(|e| panic!("{sql}\n@ {level:?} final plan rejected: {e}"));
            assert!(summary.starts_with("plancheck: ok"), "{summary}");
        }
    }
}

// --- the mutation registry -------------------------------------------

/// One deliberately broken rule variant — a guard removed or a
/// bookkeeping step forgotten, modeled on a real failure mode of the
/// genuine rule. Its transform strikes the first node (preorder) of each
/// clean input where it fires.
struct Mutation {
    /// The rule name (and, for a paper identity, its number) the blame
    /// report must carry.
    tag: RuleTag,
    broken: Broken,
}

enum Broken {
    /// A logical rule, verified with `check` as the genuine rule's step is.
    Rel {
        check: fn(&RelExpr) -> Check<'_>,
        inputs: fn() -> Vec<RelExpr>,
        mutate: fn(&mut RelExpr) -> bool,
    },
    /// A physical rule, verified for physical legality.
    Phys {
        inputs: fn() -> Vec<PhysExpr>,
        mutate: fn(&mut PhysExpr) -> bool,
    },
}

const REGISTRY: &[Mutation] = &[
    // LOJ converted to inner join with no recorded witness: the
    // conversion-count/witness audit must fire.
    Mutation {
        tag: RuleTag::pass("mutation::outerjoin_drop_witness"),
        broken: Broken::Rel {
            check: |r| Check::Outerjoin(r, &[]),
            inputs: || vec![left_outer_join()],
            mutate: outerjoin_to_inner,
        },
    },
    // Identity (2) applied without the uncorrelated-input guard: the
    // absorbed Select's input still references the outer side, so the
    // resulting join's right child leaks across siblings.
    Mutation {
        tag: RuleTag {
            rule: "mutation::select_absorb_ignoring_correlation",
            identity: Some(2),
        },
        broken: Broken::Rel {
            check: |r| Check::Fragment(r),
            inputs: || vec![apply_over_correlated_select()],
            mutate: absorb_select_into_join,
        },
    },
    // Identity (5) push below UnionAll that widens the output but
    // forgets to extend the positional branch maps.
    Mutation {
        tag: RuleTag {
            rule: "mutation::union_push_forgetting_maps",
            identity: Some(5),
        },
        broken: Broken::Rel {
            check: |r| Check::Fragment(r),
            inputs: || vec![apply_over_union()],
            mutate: push_apply_below_union,
        },
    },
    // Column pruning that projects away a column an aggregate argument
    // still needs.
    Mutation {
        tag: RuleTag::pass("mutation::prune_destroys_agg_input"),
        broken: Broken::Rel {
            check: |r| Check::Fragment(r),
            inputs: || vec![group_by(AggFunc::Sum, Some(ColId(2)))],
            mutate: prune_to_group_cols,
        },
    },
    // §3.3 LocalGroupBy split whose global stage combines COUNT partials
    // with COUNT instead of SUM: no `AggFunc::split` pair reconstructs
    // the original aggregate.
    Mutation {
        tag: RuleTag::pass("mutation::local_split_wrong_combiner"),
        broken: Broken::Rel {
            check: |r| Check::Fragment(r),
            inputs: || vec![group_by(AggFunc::CountStar, None)],
            mutate: split_with_count_combiner,
        },
    },
    // A SegmentApply dropped in favor of its inner side, which leaves a
    // SegmentRef outside any SegmentApply: legal in a fragment, whose
    // SegmentApply may lie outside it, but not in a finished plan.
    Mutation {
        tag: RuleTag::pass("mutation::segment_ref_escapes"),
        broken: Broken::Rel {
            check: |r| Check::Closed(r),
            inputs: || vec![segment_apply()],
            mutate: segment_apply_to_inner,
        },
    },
    // An Exchange placed over a subtree the parallel runtime cannot
    // split (here: another Exchange): out of the shape grammar.
    Mutation {
        tag: RuleTag::pass("mutation::exchange_out_of_grammar"),
        broken: Broken::Phys {
            inputs: || vec![table_scan()],
            mutate: wrap_out_of_grammar,
        },
    },
    // An Exchange directly over a global aggregate, Vector or Scalar.
    // Workers would each emit their own groups with no combiner above;
    // only a Local aggregate may sit under an Exchange.
    Mutation {
        tag: RuleTag::pass("mutation::exchange_over_global_aggregate"),
        broken: Broken::Phys {
            inputs: || {
                vec![
                    hash_aggregate(GroupKind::Vector),
                    hash_aggregate(GroupKind::Scalar),
                ]
            },
            mutate: exchange_over_global,
        },
    },
    // An `ApplyLoop` whose rebind arity was truncated: the dropped
    // correlation parameter leaves the inner side referencing a column
    // nobody provides.
    Mutation {
        tag: RuleTag::pass("mutation::apply_drop_param"),
        broken: Broken::Phys {
            inputs: || vec![apply_loop()],
            mutate: drop_last_param,
        },
    },
    // An `IndexLookupJoin` whose index columns were permuted without
    // re-pairing the probes: the canonical (strictly ascending) ordering
    // rule must fire.
    Mutation {
        tag: RuleTag::pass("mutation::index_lookup_permute_index"),
        broken: Broken::Phys {
            inputs: || vec![index_lookup_join()],
            mutate: swap_index_cols,
        },
    },
    // An `IndexLookupJoin` that fetches a column it neither emits nor
    // tests (the seek's whole layout, say): a gather per matched lane
    // that nothing reads.
    Mutation {
        tag: RuleTag::pass("mutation::index_lookup_fetch_unread"),
        broken: Broken::Phys {
            inputs: || vec![index_lookup_join()],
            mutate: fetch_unread_col,
        },
    },
];

/// Checks every input of the mutation `rule` clean, breaks it, and
/// asserts the verifier — through its gated entry, gate forced on —
/// rejects the result blaming `rule` (with its identity, if any).
/// Returns each broken input's report.
fn run(rule: &str) -> Vec<String> {
    plancheck::set_enabled(true);
    let m = REGISTRY
        .iter()
        .find(|m| m.tag.rule == rule)
        .unwrap_or_else(|| panic!("`{rule}` is not in the registry"));
    let tag = m.tag;
    match m.broken {
        Broken::Rel {
            check,
            inputs,
            mutate,
        } => inputs()
            .into_iter()
            .map(|clean| {
                let mut broken = clean.clone();
                let hit = first_rel(&mut broken, mutate);
                rejected(tag, check(&clean), hit, check(&broken), Some(&clean))
            })
            .collect(),
        Broken::Phys { inputs, mutate } => inputs()
            .into_iter()
            .map(|clean| {
                let mut broken = clean.clone();
                let hit = first_phys(&mut broken, mutate);
                rejected(
                    tag,
                    Check::Physical(&clean),
                    hit,
                    Check::Physical(&broken),
                    None,
                )
            })
            .collect(),
    }
}

/// The report of `broken`, after asserting `clean` passes, the mutation
/// `hit` a node, and the report blames `tag`.
fn rejected(
    tag: RuleTag,
    clean: Check<'_>,
    hit: bool,
    broken: Check<'_>,
    before: Option<&RelExpr>,
) -> String {
    plancheck::verify(tag, clean, before)
        .unwrap_or_else(|e| panic!("input must be clean before mutation: {e}"));
    assert!(hit, "`{}` found nothing to break", tag.rule);
    let msg = match plancheck::verify(tag, broken, before) {
        Err(Error::Plancheck(msg)) => msg,
        other => panic!("`{}` was not blamed: {other:?}", tag.rule),
    };
    assert!(
        msg.contains(&format!("rule `{}`", tag.rule)),
        "report blames the wrong rule:\n{msg}"
    );
    if let Some(n) = tag.identity {
        let want = format!("identity ({n})");
        assert!(msg.contains(&want), "missing identity tag:\n{msg}");
    }
    msg
}

#[test]
fn mutation_outerjoin_drop_witness_is_blamed() {
    run("mutation::outerjoin_drop_witness");
}

#[test]
fn mutation_select_absorb_is_blamed_with_identity() {
    run("mutation::select_absorb_ignoring_correlation");
}

#[test]
fn mutation_union_push_forgetting_maps_is_blamed() {
    run("mutation::union_push_forgetting_maps");
}

#[test]
fn mutation_prune_destroys_agg_input_is_blamed() {
    run("mutation::prune_destroys_agg_input");
}

#[test]
fn mutation_local_split_wrong_combiner_is_blamed() {
    run("mutation::local_split_wrong_combiner");
}

/// The one closed-mode entry: blamed as a correlation violation, while
/// the same broken tree passes in fragment mode.
#[test]
fn mutation_segment_ref_escapes_is_blamed() {
    for report in run("mutation::segment_ref_escapes") {
        assert!(report.contains("[correlation]"), "{report}");
    }
    let mut escaped = segment_apply();
    assert!(first_rel(&mut escaped, segment_apply_to_inner));
    let tag = RuleTag::pass("mutation::segment_ref_escapes");
    plancheck::verify_ungated(tag, Check::Fragment(&escaped), None)
        .expect("a fragment may defer its SegmentApply");
}

#[test]
fn mutation_exchange_out_of_grammar_is_blamed() {
    run("mutation::exchange_out_of_grammar");
}

#[test]
fn mutation_exchange_over_global_aggregate_is_blamed() {
    run("mutation::exchange_over_global_aggregate");
}

#[test]
fn mutation_apply_drop_param_is_blamed() {
    run("mutation::apply_drop_param");
}

#[test]
fn mutation_index_lookup_permute_index_is_blamed() {
    run("mutation::index_lookup_permute_index");
}

#[test]
fn mutation_index_lookup_fetch_unread_is_blamed() {
    for report in run("mutation::index_lookup_fetch_unread") {
        assert!(report.contains("fetched column c12"), "{report}");
    }
}

// --- first-match helpers ---------------------------------------------

/// Applies `f` at the first node (preorder) where it fires; reports
/// whether it fired anywhere.
fn first_rel(rel: &mut RelExpr, f: fn(&mut RelExpr) -> bool) -> bool {
    f(rel) || rel.children_mut().into_iter().any(|c| first_rel(c, f))
}

/// [`first_rel`] for physical plans.
fn first_phys(plan: &mut PhysExpr, f: fn(&mut PhysExpr) -> bool) -> bool {
    f(plan) || plan.children_mut().into_iter().any(|c| first_phys(c, f))
}

/// Moves `node` out, leaving a zero-column relation in its place.
fn take_rel(node: &mut RelExpr) -> RelExpr {
    std::mem::replace(node, const_rel(&[]))
}

/// Moves `node` out, leaving a zero-column scan in its place.
fn take_phys(node: &mut PhysExpr) -> PhysExpr {
    std::mem::replace(node, const_scan(&[]))
}

// --- the broken transforms -------------------------------------------

fn outerjoin_to_inner(node: &mut RelExpr) -> bool {
    match node {
        RelExpr::Join { kind, .. } if *kind == JoinKind::LeftOuter => {
            *kind = JoinKind::Inner;
            true
        }
        _ => false,
    }
}

fn absorb_select_into_join(node: &mut RelExpr) -> bool {
    if !matches!(node, RelExpr::Apply { right, .. } if matches!(**right, RelExpr::Select { .. })) {
        return false;
    }
    let RelExpr::Apply { kind, left, right } = take_rel(node) else {
        unreachable!()
    };
    let RelExpr::Select { input, predicate } = *right else {
        unreachable!()
    };
    *node = RelExpr::Join {
        kind: kind.to_join_kind(),
        left,
        right: input,
        predicate,
    };
    true
}

fn push_apply_below_union(node: &mut RelExpr) -> bool {
    if !matches!(node, RelExpr::Apply { kind: ApplyKind::Cross, right, .. }
        if matches!(**right, RelExpr::UnionAll { .. }))
    {
        return false;
    }
    let RelExpr::Apply { left, right, .. } = take_rel(node) else {
        unreachable!()
    };
    let RelExpr::UnionAll {
        left: l,
        right: r,
        cols,
        left_map,
        right_map,
    } = *right
    else {
        unreachable!()
    };
    let cross = |right| {
        let (kind, left) = (ApplyKind::Cross, left.clone());
        Box::new(RelExpr::Apply { kind, left, right })
    };
    // The mutation: the output widens, the branch maps do not.
    let mut wide = left.output_cols();
    wide.extend(cols);
    *node = RelExpr::UnionAll {
        left: cross(l),
        right: cross(r),
        cols: wide,
        left_map,
        right_map,
    };
    true
}

fn prune_to_group_cols(node: &mut RelExpr) -> bool {
    let RelExpr::GroupBy {
        input,
        group_cols,
        aggs,
        ..
    } = node
    else {
        return false;
    };
    if aggs.iter().all(|a| a.arg.is_none()) {
        return false;
    }
    let child = Box::new(take_rel(input));
    let cols = group_cols.clone();
    **input = RelExpr::Project { input: child, cols };
    true
}

/// Splits a GroupBy of COUNTs into local and global stages, as §3.3
/// does, but combines the partial counts with COUNT instead of SUM.
fn split_with_count_combiner(node: &mut RelExpr) -> bool {
    let RelExpr::GroupBy { kind, aggs, .. } = node else {
        return false;
    };
    let counts = aggs
        .iter()
        .all(|a| matches!(a.func, AggFunc::Count | AggFunc::CountStar));
    if *kind != GroupKind::Vector || !counts {
        return false;
    }
    let mut gen = ColIdGen::after(
        node.produced_cols()
            .into_iter()
            .chain(node.referenced_cols()),
    );
    let mut local = take_rel(node);
    let RelExpr::GroupBy {
        kind,
        group_cols,
        aggs,
        ..
    } = &mut local
    else {
        unreachable!()
    };
    *kind = GroupKind::Local;
    let group_cols = group_cols.clone();
    let mut global_aggs = Vec::new();
    for a in aggs {
        let partial = ColumnMeta::new(gen.fresh(), format!("l_{}", a.out.name), a.out.ty, false);
        let out = std::mem::replace(&mut a.out, partial.clone());
        // The mutation: COUNT partials combined with COUNT.
        global_aggs.push(AggDef::new(
            out,
            AggFunc::Count,
            Some(ScalarExpr::col(partial.id)),
        ));
    }
    *node = RelExpr::GroupBy {
        kind: GroupKind::Vector,
        input: Box::new(local),
        group_cols,
        aggs: global_aggs,
    };
    true
}

fn segment_apply_to_inner(node: &mut RelExpr) -> bool {
    if !matches!(node, RelExpr::SegmentApply { .. }) {
        return false;
    }
    let RelExpr::SegmentApply { inner, .. } = take_rel(node) else {
        unreachable!()
    };
    *node = *inner;
    true
}

fn wrap_out_of_grammar(node: &mut PhysExpr) -> bool {
    let mut input = Box::new(take_phys(node));
    if exchange_eligible(&input) {
        input = Box::new(PhysExpr::Exchange { input });
    }
    *node = PhysExpr::Exchange { input };
    true
}

fn exchange_over_global(node: &mut PhysExpr) -> bool {
    let global = matches!(
        node,
        PhysExpr::HashAggregate {
            kind: GroupKind::Vector | GroupKind::Scalar,
            ..
        }
    );
    if global {
        let input = Box::new(take_phys(node));
        *node = PhysExpr::Exchange { input };
    }
    global
}

fn drop_last_param(node: &mut PhysExpr) -> bool {
    match node {
        PhysExpr::ApplyLoop { params, .. } => params.pop().is_some(),
        _ => false,
    }
}

fn swap_index_cols(node: &mut PhysExpr) -> bool {
    match node {
        PhysExpr::IndexLookupJoin { index_cols, .. } if index_cols.len() >= 2 => {
            index_cols.swap(0, 1);
            true
        }
        _ => false,
    }
}

fn fetch_unread_col(node: &mut PhysExpr) -> bool {
    match node {
        PhysExpr::IndexLookupJoin {
            positions,
            fetch_cols,
            ..
        } => {
            positions.push(2);
            fetch_cols.push(ColId(12));
            true
        }
        _ => false,
    }
}

// --- clean inputs ----------------------------------------------------

/// A one-row constant relation producing the given columns: fully under
/// the test's control, no catalog required.
fn const_rel(ids: &[(u32, &str)]) -> RelExpr {
    RelExpr::ConstRel {
        cols: ids
            .iter()
            .map(|&(id, name)| ColumnMeta::new(ColId(id), name, DataType::Int, true))
            .collect(),
        rows: vec![vec![Value::Int(0); ids.len()]],
    }
}

/// A one-row constant scan for physical inputs.
fn const_scan(ids: &[u32]) -> PhysExpr {
    PhysExpr::const_rows(
        ids.iter().map(|&i| ColId(i)).collect(),
        &[vec![Value::Int(0); ids.len()]],
    )
}

fn left_outer_join() -> RelExpr {
    RelExpr::Join {
        kind: JoinKind::LeftOuter,
        left: Box::new(const_rel(&[(1, "a")])),
        right: Box::new(const_rel(&[(2, "b")])),
        predicate: ScalarExpr::eq(ScalarExpr::col(ColId(1)), ScalarExpr::col(ColId(2))),
    }
}

fn apply_over_correlated_select() -> RelExpr {
    let correlated_input = RelExpr::Select {
        input: Box::new(const_rel(&[(2, "b")])),
        predicate: ScalarExpr::eq(ScalarExpr::col(ColId(2)), ScalarExpr::col(ColId(1))),
    };
    RelExpr::Apply {
        kind: ApplyKind::Cross,
        left: Box::new(const_rel(&[(1, "a")])),
        right: Box::new(RelExpr::Select {
            input: Box::new(correlated_input),
            predicate: ScalarExpr::eq(ScalarExpr::col(ColId(2)), ScalarExpr::lit(0i64)),
        }),
    }
}

fn apply_over_union() -> RelExpr {
    RelExpr::Apply {
        kind: ApplyKind::Cross,
        left: Box::new(const_rel(&[(1, "a")])),
        right: Box::new(RelExpr::UnionAll {
            left: Box::new(const_rel(&[(2, "b")])),
            right: Box::new(const_rel(&[(3, "c")])),
            cols: vec![ColumnMeta::new(ColId(4), "u", DataType::Int, true)],
            left_map: vec![ColId(2)],
            right_map: vec![ColId(3)],
        }),
    }
}

/// `SELECT g, f(arg) FROM (g, x) GROUP BY g`.
fn group_by(func: AggFunc, arg: Option<ColId>) -> RelExpr {
    RelExpr::GroupBy {
        kind: GroupKind::Vector,
        input: Box::new(const_rel(&[(1, "g"), (2, "x")])),
        group_cols: vec![ColId(1)],
        aggs: vec![AggDef::new(
            ColumnMeta::new(ColId(3), "agg", DataType::Int, arg.is_some()),
            func,
            arg.map(ScalarExpr::col),
        )],
    }
}

/// A SegmentApply whose inner side reads its segment through a
/// SegmentRef.
fn segment_apply() -> RelExpr {
    RelExpr::SegmentApply {
        input: Box::new(const_rel(&[(1, "a")])),
        segment_cols: vec![ColId(1)],
        inner: Box::new(RelExpr::Select {
            input: Box::new(RelExpr::SegmentRef {
                cols: vec![(
                    ColumnMeta::new(ColId(2), "s", DataType::Int, true),
                    ColId(1),
                )],
            }),
            predicate: ScalarExpr::eq(ScalarExpr::col(ColId(2)), ScalarExpr::lit(0i64)),
        }),
    }
}

fn table_scan() -> PhysExpr {
    PhysExpr::TableScan {
        table: TableId(0),
        positions: vec![0],
        cols: vec![ColId(1)],
    }
}

fn hash_aggregate(kind: GroupKind) -> PhysExpr {
    PhysExpr::HashAggregate {
        kind,
        input: Box::new(table_scan()),
        group_cols: vec![],
        aggs: vec![AggDef::new(
            ColumnMeta::new(ColId(2), "n", DataType::Int, false),
            AggFunc::CountStar,
            None,
        )],
    }
}

fn apply_loop() -> PhysExpr {
    PhysExpr::ApplyLoop {
        kind: ApplyKind::Cross,
        left: Box::new(const_scan(&[1])),
        right: Box::new(PhysExpr::Filter {
            input: Box::new(const_scan(&[2])),
            predicate: ScalarExpr::eq(ScalarExpr::col(ColId(2)), ScalarExpr::col(ColId(1))),
        }),
        params: vec![ColId(1)],
    }
}

fn index_lookup_join() -> PhysExpr {
    PhysExpr::IndexLookupJoin {
        kind: ApplyKind::Cross,
        left: Box::new(const_scan(&[1])),
        table: TableId(0),
        positions: vec![0, 1],
        fetch_cols: vec![ColId(10), ColId(11)],
        index_cols: vec![0, 1],
        probes: vec![ScalarExpr::col(ColId(1)), ScalarExpr::col(ColId(1))],
        residual: ScalarExpr::eq(ScalarExpr::col(ColId(11)), ScalarExpr::lit(0i64)),
        cols: vec![ColId(10)],
        params: vec![ColId(1)],
    }
}
