//! Plan-invariant verification, end to end.
//!
//! Two halves:
//!
//! * **Corpus sweep** — every query in the shared random-query template
//!   family (`rewrite::testgen`), planned at every optimizer level with
//!   per-rule verification forced on, must produce a plan that passes
//!   both the closed logical check and the physical legality check.
//! * **Mutation harness** — each deliberately broken rule variant
//!   (`rewrite::mutation`, `optimizer::mutation`) must be rejected by
//!   the verifier with a blame report naming exactly that rule. This is
//!   the test that the verifier actually *verifies*: a checker that
//!   accepts everything would sail through the corpus sweep.

#![cfg(feature = "plancheck")]

use orthopt::common::{ColId, DataType, Error, TableId, Value};
use orthopt::exec::PhysExpr;
use orthopt::ir::{
    AggDef, AggFunc, ApplyKind, ColumnMeta, GroupKind, JoinKind, RelExpr, ScalarExpr,
};
use orthopt::optimizer::mutation as opt_mutation;
use orthopt::rewrite::{mutation, testgen};
use orthopt::{plancheck, Database, OptimizerLevel};

/// A one-row constant relation producing the given columns. Leaves for
/// hand-built mutation inputs: fully under the test's control, no
/// catalog required.
fn const_rel(ids: &[(u32, &str)]) -> RelExpr {
    RelExpr::ConstRel {
        cols: ids
            .iter()
            .map(|&(id, name)| ColumnMeta::new(ColId(id), name, DataType::Int, true))
            .collect(),
        rows: vec![vec![Value::Int(0); ids.len()]],
    }
}

fn assert_blames(err: &Error, rule: &str) {
    match err {
        Error::Plancheck(msg) => assert!(
            msg.contains(&format!("rule `{rule}`")),
            "report blames the wrong rule:\n{msg}"
        ),
        other => panic!("expected a plancheck error, got: {other}"),
    }
}

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

// --- mutation harness: rewrite-side variants -------------------------

/// Variant 1: LOJ converted to inner join with no recorded witness —
/// the conversion-count/witness audit must fire.
#[test]
fn mutation_outerjoin_drop_witness_is_blamed() {
    plancheck::set_enabled(true);
    let tree = RelExpr::Join {
        kind: JoinKind::LeftOuter,
        left: Box::new(const_rel(&[(1, "a")])),
        right: Box::new(const_rel(&[(2, "b")])),
        predicate: ScalarExpr::eq(ScalarExpr::col(ColId(1)), ScalarExpr::col(ColId(2))),
    };
    let err = mutation::outerjoin_drop_witness(tree).expect_err("unwitnessed LOJ conversion");
    assert_blames(&err, "mutation::outerjoin_drop_witness");
}

/// Variant 2: identity (2) applied without the uncorrelated-input
/// guard — the absorbed Select's input still references the outer
/// side, so the resulting join's right child leaks across siblings.
#[test]
fn mutation_select_absorb_is_blamed_with_identity() {
    plancheck::set_enabled(true);
    let correlated_input = RelExpr::Select {
        input: Box::new(const_rel(&[(2, "b")])),
        predicate: ScalarExpr::eq(ScalarExpr::col(ColId(2)), ScalarExpr::col(ColId(1))),
    };
    let tree = RelExpr::Apply {
        kind: ApplyKind::Cross,
        left: Box::new(const_rel(&[(1, "a")])),
        right: Box::new(RelExpr::Select {
            input: Box::new(correlated_input),
            predicate: ScalarExpr::eq(ScalarExpr::col(ColId(2)), ScalarExpr::lit(0i64)),
        }),
    };
    let err = mutation::select_absorb_ignoring_correlation(tree).expect_err("sibling leak");
    assert_blames(&err, "mutation::select_absorb_ignoring_correlation");
    // The identity number rides along in the report.
    let Error::Plancheck(msg) = &err else {
        unreachable!()
    };
    assert!(msg.contains("identity (2)"), "missing identity tag:\n{msg}");
}

/// Variant 3: identity (5) push below UnionAll that widens the output
/// but forgets to extend the positional branch maps.
#[test]
fn mutation_union_push_forgetting_maps_is_blamed() {
    plancheck::set_enabled(true);
    let tree = RelExpr::Apply {
        kind: ApplyKind::Cross,
        left: Box::new(const_rel(&[(1, "a")])),
        right: Box::new(RelExpr::UnionAll {
            left: Box::new(const_rel(&[(2, "b")])),
            right: Box::new(const_rel(&[(3, "c")])),
            cols: vec![ColumnMeta::new(ColId(4), "u", DataType::Int, true)],
            left_map: vec![ColId(2)],
            right_map: vec![ColId(3)],
        }),
    };
    let err = mutation::union_push_forgetting_maps(tree).expect_err("map width mismatch");
    assert_blames(&err, "mutation::union_push_forgetting_maps");
}

/// Variant 4: column pruning that projects away a column an aggregate
/// argument still needs.
#[test]
fn mutation_prune_destroys_agg_input_is_blamed() {
    plancheck::set_enabled(true);
    let tree = RelExpr::GroupBy {
        kind: GroupKind::Vector,
        input: Box::new(const_rel(&[(1, "g"), (2, "x")])),
        group_cols: vec![ColId(1)],
        aggs: vec![AggDef::new(
            ColumnMeta::new(ColId(3), "s", DataType::Int, true),
            AggFunc::Sum,
            Some(ScalarExpr::col(ColId(2))),
        )],
    };
    let err = mutation::prune_destroys_agg_input(tree).expect_err("destroyed aggregate input");
    assert_blames(&err, "mutation::prune_destroys_agg_input");
}

// --- mutation harness: optimizer-side variants -----------------------

/// Variant 5: §3.3 LocalGroupBy split whose global stage combines COUNT
/// partials with COUNT instead of SUM — no `AggFunc::split` pair
/// reconstructs the original aggregate.
#[test]
fn mutation_local_split_wrong_combiner_is_blamed() {
    let tree = RelExpr::GroupBy {
        kind: GroupKind::Vector,
        input: Box::new(const_rel(&[(1, "g"), (2, "x")])),
        group_cols: vec![ColId(1)],
        aggs: vec![AggDef::new(
            ColumnMeta::new(ColId(3), "n", DataType::Int, false),
            AggFunc::CountStar,
            None,
        )],
    };
    let err = opt_mutation::local_split_wrong_combiner(tree).expect_err("COUNT-of-COUNT split");
    assert_blames(&err, "mutation::local_split_wrong_combiner");
}

/// Variant 6: an Exchange placed over a subtree the parallel runtime
/// cannot split (here: another Exchange) — out of the shape grammar.
#[test]
fn mutation_exchange_out_of_grammar_is_blamed() {
    let plan = PhysExpr::TableScan {
        table: TableId(0),
        positions: vec![0],
        cols: vec![ColId(1)],
    };
    let err = opt_mutation::exchange_out_of_grammar(plan).expect_err("illegal Exchange nesting");
    assert_blames(&err, "mutation::exchange_out_of_grammar");
}

/// Variant 6b: an Exchange directly over a global aggregate, Vector or
/// Scalar. Workers would each emit their own groups with no combiner
/// above; only a Local aggregate may sit under an Exchange.
#[test]
fn mutation_exchange_over_global_aggregate_is_blamed() {
    for kind in [GroupKind::Vector, GroupKind::Scalar] {
        let plan = PhysExpr::HashAggregate {
            kind,
            input: Box::new(PhysExpr::TableScan {
                table: TableId(0),
                positions: vec![0],
                cols: vec![ColId(1)],
            }),
            group_cols: vec![],
            aggs: vec![AggDef::new(
                ColumnMeta::new(ColId(2), "n", DataType::Int, false),
                AggFunc::CountStar,
                None,
            )],
        };
        assert!(
            plancheck::check_physical(&plan).is_empty(),
            "input plan must be clean before mutation"
        );
        let err = opt_mutation::exchange_over_global_aggregate(plan)
            .expect_err("Exchange over a global aggregate");
        assert_blames(&err, "mutation::exchange_over_global_aggregate");
    }
}

/// A one-row constant scan for hand-built physical mutation inputs.
fn const_scan(ids: &[u32]) -> PhysExpr {
    PhysExpr::const_rows(
        ids.iter().map(|&i| ColId(i)).collect(),
        &[vec![Value::Int(0); ids.len()]],
    )
}

/// Variant 7: an `ApplyLoop` whose rebind arity was truncated — the
/// dropped correlation parameter leaves the inner side referencing a
/// column nobody provides.
#[test]
fn mutation_apply_drop_param_is_blamed() {
    let plan = PhysExpr::ApplyLoop {
        kind: ApplyKind::Cross,
        left: Box::new(const_scan(&[1])),
        right: Box::new(PhysExpr::Filter {
            input: Box::new(const_scan(&[2])),
            predicate: ScalarExpr::eq(ScalarExpr::col(ColId(2)), ScalarExpr::col(ColId(1))),
        }),
        params: vec![ColId(1)],
    };
    assert!(
        plancheck::check_physical(&plan).is_empty(),
        "input plan must be clean before mutation"
    );
    let err = opt_mutation::apply_drop_param(plan).expect_err("truncated rebind arity");
    assert_blames(&err, "mutation::apply_drop_param");
}

/// Variant 8: an `IndexLookupJoin` whose index columns were permuted
/// without re-pairing the probes — the canonical (strictly ascending)
/// ordering rule must fire.
#[test]
fn mutation_index_lookup_permute_index_is_blamed() {
    let plan = PhysExpr::IndexLookupJoin {
        kind: ApplyKind::Cross,
        left: Box::new(const_scan(&[1])),
        table: TableId(0),
        positions: vec![0, 1],
        fetch_cols: vec![ColId(10), ColId(11)],
        index_cols: vec![0, 1],
        probes: vec![ScalarExpr::col(ColId(1)), ScalarExpr::col(ColId(1))],
        residual: ScalarExpr::true_(),
        cols: vec![ColId(10)],
        params: vec![ColId(1)],
    };
    assert!(
        plancheck::check_physical(&plan).is_empty(),
        "input plan must be clean before mutation"
    );
    let err = opt_mutation::index_lookup_permute_index(plan).expect_err("scrambled index pairing");
    assert_blames(&err, "mutation::index_lookup_permute_index");
}

/// Control: the same tree shapes the mutations start from are accepted
/// untouched — the harness fails because of the mutations, not because
/// the inputs were already bad.
#[test]
fn mutation_inputs_are_clean_before_mutation() {
    let loj = RelExpr::Join {
        kind: JoinKind::LeftOuter,
        left: Box::new(const_rel(&[(1, "a")])),
        right: Box::new(const_rel(&[(2, "b")])),
        predicate: ScalarExpr::eq(ScalarExpr::col(ColId(1)), ScalarExpr::col(ColId(2))),
    };
    assert!(plancheck::check_logical(&loj).is_empty());
    let grouped = RelExpr::GroupBy {
        kind: GroupKind::Vector,
        input: Box::new(const_rel(&[(1, "g"), (2, "x")])),
        group_cols: vec![ColId(1)],
        aggs: vec![AggDef::new(
            ColumnMeta::new(ColId(3), "s", DataType::Int, true),
            AggFunc::Sum,
            Some(ScalarExpr::col(ColId(2))),
        )],
    };
    assert!(plancheck::check_closed(&grouped).is_empty());
}
