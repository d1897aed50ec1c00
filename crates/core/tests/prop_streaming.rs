//! Streaming-executor conformance: on random databases and the shared
//! correlated-query family, the pull-based pipeline must be
//! bag-identical to the naive mutually-recursive `Reference`
//! interpreter — at every optimizer level and across awkward batch
//! sizes — or fail with the very same error.

use orthopt::{Database, OptimizerLevel};
use orthopt_common::row::bag_eq;
use orthopt_common::{QueryContext, Value};
use orthopt_exec::{phys_node_labels, Bindings, Pipeline, PipelineOptions, Reference};
use orthopt_rewrite::testgen::{build_catalog, query_templates};
use proptest::prelude::*;

/// A nullable small int: None is SQL NULL.
fn nullable_int() -> impl Strategy<Value = Option<i64>> {
    prop_oneof![
        3 => (0i64..6).prop_map(Some),
        1 => Just(None),
    ]
}

/// Batch sizes that stress boundary handling: single-row batches, a
/// tiny odd size, and one row either side of the default.
const BATCH_SIZES: [usize; 5] = [1, 7, 1023, 1024, 1025];

/// Runs `sql` through every optimizer level and batch size and checks
/// each streaming execution against the `Reference` oracle on the
/// unnormalized tree.
fn check_streaming(db: &Database, sql: &str) -> std::result::Result<(), TestCaseError> {
    let bound = orthopt_sql::compile(sql, db.catalog()).expect("template compiles");
    let oracle = Reference::new(db.catalog()).run(&bound.rel);
    for level in OptimizerLevel::ALL {
        let plan = db.plan(sql, level).expect("planning succeeds");
        let out_ids: Vec<_> = plan.output.iter().map(|c| c.id).collect();
        for bs in BATCH_SIZES {
            let mut pipeline =
                Pipeline::with_batch_size(&plan.physical, bs).expect("plan compiles to pipeline");
            let streamed = pipeline
                .execute(db.catalog(), &Bindings::new())
                .and_then(|chunk| chunk.project(&out_ids));
            match (&oracle, streamed) {
                (Ok(expected), Ok(got)) => {
                    let expected = expected
                        .project(&out_ids)
                        .expect("oracle keeps output cols");
                    prop_assert!(
                        bag_eq(&expected.rows, &got.rows),
                        "{sql}\nlevel={level:?} batch_size={bs}\n\
                         oracle={:?}\nstreamed={:?}",
                        expected.rows,
                        got.rows,
                    );
                }
                (Err(e1), Err(e2)) => prop_assert_eq!(
                    e1,
                    &e2,
                    "different errors for {} at {:?} bs={}",
                    sql,
                    level,
                    bs
                ),
                (o, s) => {
                    return Err(TestCaseError::fail(format!(
                        "one side errored: oracle={o:?} streamed={s:?} \
                         for {sql} at {level:?} bs={bs}"
                    )))
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        .. ProptestConfig::default()
    })]

    #[test]
    fn streaming_matches_reference(
        r_vals in prop::collection::vec(nullable_int(), 0..8),
        s_rows in prop::collection::vec((0i64..6, nullable_int()), 0..16),
        c in 0i64..8,
        template in 0usize..24,
    ) {
        let r_rows: Vec<(i64, Option<i64>)> =
            r_vals.iter().enumerate().map(|(i, v)| (i as i64, *v)).collect();
        let s_rows: Vec<(i64, i64, Option<i64>)> = s_rows
            .iter()
            .enumerate()
            .map(|(i, (sr, sv))| (i as i64, *sr, *sv))
            .collect();
        let db = Database::from_catalog(build_catalog(&r_rows, &s_rows));
        let templates = query_templates(c);
        let sql = &templates[template % templates.len()];
        check_streaming(&db, sql)?;
    }
}

/// Builds a database whose `s` table has exactly `n` rows spread over
/// six correlation groups, so batch boundaries land mid-group.
fn db_with_s_rows(n: usize) -> Database {
    let r_rows: Vec<(i64, Option<i64>)> = (0..6).map(|i| (i, Some(i % 4))).collect();
    let s_rows: Vec<(i64, i64, Option<i64>)> = (0..n)
        .map(|i| (i as i64, (i % 6) as i64, Some((i % 5) as i64)))
        .collect();
    Database::from_catalog(build_catalog(&r_rows, &s_rows))
}

/// Batch boundaries must be invisible: an input that is empty, fits in
/// exactly one batch, or straddles a boundary by one row in either
/// direction produces identical results.
#[test]
fn batch_boundaries_are_invisible() {
    let sql = "select rk from r where 2 < (select count(*) from s where sr = rk)";
    for n in [0usize, 5, 1023, 1024, 1025] {
        let db = db_with_s_rows(n);
        let bound = orthopt_sql::compile(sql, db.catalog()).unwrap();
        let oracle = Reference::new(db.catalog()).run(&bound.rel).unwrap();
        for level in OptimizerLevel::ALL {
            let plan = db.plan(sql, level).unwrap();
            let out_ids: Vec<_> = plan.output.iter().map(|c| c.id).collect();
            let expected = oracle.project(&out_ids).unwrap();
            for bs in [1, 1023, 1024, 1025] {
                let mut pipeline = Pipeline::with_batch_size(&plan.physical, bs).unwrap();
                let got = pipeline
                    .execute(db.catalog(), &Bindings::new())
                    .and_then(|chunk| chunk.project(&out_ids))
                    .unwrap();
                assert!(
                    bag_eq(&expected.rows, &got.rows),
                    "n={n} level={level:?} bs={bs}: {:?} vs {:?}",
                    expected.rows,
                    got.rows
                );
            }
        }
    }
}

/// An empty outer relation flows an empty — but correctly laid-out —
/// chunk through every operator.
#[test]
fn empty_input_streams_cleanly() {
    let db = Database::from_catalog(build_catalog(&[], &[]));
    let sql = "select rk, (select sum(sv) from s where sr = rk) from r";
    for level in OptimizerLevel::ALL {
        let plan = db.plan(sql, level).unwrap();
        let mut pipeline = Pipeline::with_batch_size(&plan.physical, 1).unwrap();
        let chunk = pipeline.execute(db.catalog(), &Bindings::new()).unwrap();
        assert_eq!(chunk.rows, Vec::<Vec<Value>>::new());
        assert_eq!(chunk.cols, plan.physical.out_cols());
    }
}

/// Filter, Compute and the HashJoin probe evaluate whole batches, and
/// their kernels report errors per lane: a division by zero on a late
/// lane must raise exactly the `Reference` interpreter's error, from
/// the operator that evaluates that expression.
#[test]
fn kernel_errors_match_reference() {
    // r.rv is 2 throughout and s.sv alternates 1 / 3, so neither
    // 10 / sv nor 10 / (sv - rv) divides by zero — except on the last
    // s row, where `zero_at_end` sets sv to the offending value.
    let r_rows: Vec<(i64, Option<i64>)> = (0..4).map(|i| (i, Some(2))).collect();
    let zero_at_end = |bad: i64| -> Vec<(i64, i64, Option<i64>)> {
        (0..20)
            .map(|i| (i, i % 4, Some(if i == 19 { bad } else { 1 + 2 * (i % 2) })))
            .collect()
    };
    let cases = [
        (
            "Filter",
            "select sk from s where 10 / sv > 1",
            zero_at_end(0),
        ),
        ("Compute", "select sk, 10 / sv from s", zero_at_end(0)),
        (
            "HashInner",
            "select rk, sk from r, s where sr = rk and 10 / (sv - rv) > 0",
            zero_at_end(2),
        ),
        (
            "HashLeftOuter",
            "select rk, sk from r left outer join s on sr = rk and 10 / (sv - rv) > 0",
            zero_at_end(2),
        ),
        // The s rows of r's last key all have sv = 3, so `< 0` rejects
        // every candidate before the offending one: a semi or anti join
        // that stops at a lane's first match still has to reach it.
        (
            "HashLeftSemi",
            "select rk from r where exists \
             (select 1 from s where sr = rk and 10 / (sv - rv) < 0)",
            zero_at_end(2),
        ),
        (
            "HashLeftAnti",
            "select rk from r where not exists \
             (select 1 from s where sr = rk and 10 / (sv - rv) < 0)",
            zero_at_end(2),
        ),
    ];
    for (op, sql, s_rows) in cases {
        let db = Database::from_catalog(build_catalog(&r_rows, &s_rows));
        let bound = orthopt_sql::compile(sql, db.catalog()).unwrap();
        let oracle = Reference::new(db.catalog()).run(&bound.rel);
        assert!(oracle.is_err(), "{sql}: fixture no longer divides by zero");
        let plan = db.plan(sql, OptimizerLevel::Full).unwrap();
        // The expression that divides is the operator's own: a Filter's
        // predicate, a Compute's definition, a join's residual.
        let labels = phys_node_labels(&plan.physical);
        assert!(
            labels.iter().any(|(_, label)| label.starts_with(op)),
            "{sql}: no {op} in the plan\n{labels:?}"
        );
        let mut pipeline = Pipeline::compile(&plan.physical).unwrap();
        let got = pipeline.execute(db.catalog(), &Bindings::new());
        assert_eq!(oracle.err(), got.err(), "{sql}");
    }
}

/// A semi or anti join stops evaluating a probe lane's residual at its
/// first match. The kernel evaluates every candidate and so divides by
/// zero on a later one; that lane error must then *not* count — the
/// `Reference` join loop never gets that far either. (Hand-built plans:
/// the SQL form's oracle evaluates the whole EXISTS subquery and would
/// raise.)
#[test]
fn semi_join_residual_stops_at_the_first_match() {
    use orthopt_common::{ColId, DataType, TableId};
    use orthopt_exec::PhysExpr;
    use orthopt_ir::{builder, ArithOp, CmpOp, JoinKind, RelExpr, ScalarExpr};

    let r_rows: Vec<(i64, Option<i64>)> = vec![(0, Some(2))];
    // Both s rows match r's key; the first passes the residual, the
    // second divides by zero.
    let s_rows = vec![(0, 0, Some(3)), (1, 0, Some(2))];
    let db = Database::from_catalog(build_catalog(&r_rows, &s_rows));
    let (rk, rv, sr, sv) = (ColId(1), ColId(2), ColId(3), ColId(4));
    // 10 / (sv - rv) > 0
    let residual = ScalarExpr::cmp(
        CmpOp::Gt,
        ScalarExpr::Arith {
            op: ArithOp::Div,
            left: Box::new(ScalarExpr::lit(10i64)),
            right: Box::new(ScalarExpr::Arith {
                op: ArithOp::Sub,
                left: Box::new(ScalarExpr::col(sv)),
                right: Box::new(ScalarExpr::col(rv)),
            }),
        },
        ScalarExpr::lit(0i64),
    );
    let int = DataType::Int;
    let get_r = builder::get(
        TableId(0),
        "r",
        &[(rk, "rk", int, false), (rv, "rv", int, true)],
        &[&[0]],
        1.0,
    );
    let mut get_s = builder::get(
        TableId(1),
        "s",
        &[(sr, "sr", int, false), (sv, "sv", int, true)],
        &[],
        2.0,
    );
    if let RelExpr::Get(g) = &mut get_s {
        g.positions = vec![1, 2];
    }
    let logical = |kind| RelExpr::Join {
        kind,
        left: Box::new(get_r.clone()),
        right: Box::new(get_s.clone()),
        predicate: ScalarExpr::and([
            ScalarExpr::eq(ScalarExpr::col(sr), ScalarExpr::col(rk)),
            residual.clone(),
        ]),
    };
    // The failing pair exists: the same join as an Inner join, which
    // evaluates every pair, divides by zero.
    let inner = Reference::new(db.catalog()).run(&logical(JoinKind::Inner));
    assert!(matches!(inner, Err(ref e) if e.root_cause() == &orthopt_common::Error::DivideByZero));
    for kind in [JoinKind::LeftSemi, JoinKind::LeftAnti] {
        let oracle = Reference::new(db.catalog()).run(&logical(kind)).unwrap();
        let phys = PhysExpr::HashJoin {
            kind,
            left: Box::new(PhysExpr::TableScan {
                table: TableId(0),
                positions: vec![0, 1],
                cols: vec![rk, rv],
            }),
            right: Box::new(PhysExpr::TableScan {
                table: TableId(1),
                positions: vec![1, 2],
                cols: vec![sr, sv],
            }),
            left_keys: vec![rk],
            right_keys: vec![sr],
            residual: residual.clone(),
        };
        let mut pipeline = Pipeline::compile(&phys).unwrap();
        let got = pipeline.execute(db.catalog(), &Bindings::new()).unwrap();
        assert_eq!(oracle.rows, got.rows, "{kind:?}");
    }
}

/// The same precedence once the join has spilled: each grace partition
/// pair is loaded and probed by the resident join's own build and probe
/// routine, so a residual that errors there fails the same way. The
/// budget spills the build before the probe starts, so every pair —
/// the failing one included — is joined inside a partition pair.
#[test]
fn grace_spilled_join_residual_error_matches_reference() {
    let n = 600;
    let r_rows: Vec<(i64, Option<i64>)> = (0..n).map(|i| (i, Some(2))).collect();
    let s_rows: Vec<(i64, i64, Option<i64>)> = (0..n)
        .map(|i| (i, i, Some(if i == n - 1 { 2 } else { 1 + 2 * (i % 2) })))
        .collect();
    let db = Database::from_catalog(build_catalog(&r_rows, &s_rows));
    let sql = "select rk, sk from r, s where sr = rk and 10 / (sv - rv) > 0";
    let bound = orthopt_sql::compile(sql, db.catalog()).unwrap();
    let oracle = Reference::new(db.catalog()).run(&bound.rel);
    assert!(oracle.is_err(), "fixture no longer divides by zero");
    let plan = db.plan(sql, OptimizerLevel::Full).unwrap();
    let mut pipeline = Pipeline::with_options(
        &plan.physical,
        PipelineOptions {
            spill: true,
            ..PipelineOptions::default()
        },
    )
    .unwrap();
    pipeline.set_governor(QueryContext::new().with_memory_limit(16 << 10));
    let got = pipeline.execute(db.catalog(), &Bindings::new());
    assert_eq!(oracle.err(), got.err());
    let labels = phys_node_labels(&plan.physical);
    let join = labels
        .iter()
        .position(|(_, l)| l.starts_with("HashInner"))
        .expect("planned as a hash join");
    let stats = pipeline.stats()[join];
    assert!(
        stats.spill_partitions > 0,
        "the build no longer spills: {stats:?}"
    );
    assert_eq!(orthopt_exec::spill::live_dirs(), 0);
}
