//! Serial-vs-parallel conformance: with `Exchange` operators forced
//! onto every eligible subtree, executing at parallelism 1, 2, and 4
//! must stay bag-identical to the serial `Reference` interpreter — for
//! every random correlated query in the shared `testgen` family, at
//! every optimizer level, across awkward batch sizes — or fail with
//! an error exactly when the serial side does. A separate determinism
//! check requires repeated parallel runs to be byte-identical.

mod common;

use common::assert_fanned_out;
use orthopt::{Database, OptimizerLevel};
use orthopt_common::row::{bag_eq, cmp_rows};
use orthopt_common::{Error, Row, Value};
use orthopt_exec::{place_exchanges, Bindings, PhysExpr, Pipeline, PipelineOptions, Reference};
use orthopt_rewrite::testgen::{build_catalog, query_templates};
use proptest::prelude::*;

/// A nullable small int: None is SQL NULL.
fn nullable_int() -> impl Strategy<Value = Option<i64>> {
    prop_oneof![
        3 => (0i64..6).prop_map(Some),
        1 => Just(None),
    ]
}

/// Batch sizes that stress boundary handling inside and across the
/// exchange (single-row batches, a tiny odd size, one row either side
/// of the default).
const BATCH_SIZES: [usize; 5] = [1, 7, 1023, 1024, 1025];

/// Worker-pool sizes: serial fallback, two, four.
const PARALLELISM: [usize; 3] = [1, 2, 4];

/// A pool-wired pipeline at batch size `bs`.
fn pooled(db: &Database, plan: &PhysExpr, bs: usize, workers: usize) -> Pipeline {
    common::pooled(db, plan, PipelineOptions { batch_size: bs }, workers)
}

/// Plans `sql` at every level, forces exchanges onto every eligible
/// subtree, and checks every `(batch size, parallelism)` combination
/// against the `Reference` oracle on the unnormalized tree.
fn check_parallel(db: &Database, sql: &str) -> std::result::Result<(), TestCaseError> {
    let bound = orthopt_sql::compile(sql, db.catalog()).expect("template compiles");
    let oracle = Reference::new(db.catalog()).run(&bound.rel);
    for level in OptimizerLevel::ALL {
        let plan = db.plan(sql, level).expect("planning succeeds");
        let forced = place_exchanges(&plan.physical);
        let out_ids: Vec<_> = plan.output.iter().map(|c| c.id).collect();
        for bs in BATCH_SIZES {
            for workers in PARALLELISM {
                let mut pipeline = pooled(db, &forced, bs, workers);
                let got = pipeline
                    .execute(db.catalog(), &Bindings::new())
                    .and_then(|chunk| chunk.project(&out_ids));
                match (&oracle, got) {
                    (Ok(expected), Ok(got)) => {
                        let expected = expected
                            .project(&out_ids)
                            .expect("oracle keeps output cols");
                        let ctx = format!("{sql}\nlevel={level:?} bs={bs} workers={workers}");
                        prop_assert!(
                            bag_eq(&expected.rows, &got.rows),
                            "{ctx}\noracle={:?}\nparallel={:?}",
                            expected.rows,
                            got.rows,
                        );
                        if workers > 1 {
                            assert_fanned_out(&forced, &pipeline.stats(), &ctx);
                        }
                    }
                    // Runtime errors must not appear or vanish under
                    // parallel execution (exact messages may differ by
                    // which worker trips first).
                    (Err(_), Err(_)) => {}
                    (o, g) => {
                        return Err(TestCaseError::fail(format!(
                            "one side errored: oracle={o:?} parallel={g:?} \
                             for {sql} at {level:?} bs={bs} workers={workers}"
                        )))
                    }
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 32,
        .. ProptestConfig::default()
    })]

    #[test]
    fn parallel_matches_reference(
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
        check_parallel(&db, sql)?;
    }
}

/// Builds a database whose `s` table has exactly `n` rows spread over
/// six correlation groups, so batch and morsel boundaries land
/// mid-group.
fn db_with_s_rows(n: usize) -> Database {
    let r_rows: Vec<(i64, Option<i64>)> = (0..6).map(|i| (i, Some(i % 4))).collect();
    let s_rows: Vec<(i64, i64, Option<i64>)> = (0..n)
        .map(|i| (i as i64, (i % 6) as i64, Some((i % 5) as i64)))
        .collect();
    Database::from_catalog(build_catalog(&r_rows, &s_rows))
}

/// Morsel splits and batch boundaries must both be invisible: inputs
/// that straddle the default batch size by one row in either direction
/// produce identical results at every worker count.
#[test]
fn parallel_batch_boundaries_are_invisible() {
    let sql = "select rk from r where 2 < (select count(*) from s where sr = rk)";
    for n in [1023usize, 1024, 1025] {
        let db = db_with_s_rows(n);
        let bound = orthopt_sql::compile(sql, db.catalog()).unwrap();
        let oracle = Reference::new(db.catalog()).run(&bound.rel).unwrap();
        for level in OptimizerLevel::ALL {
            let plan = db.plan(sql, level).unwrap();
            let forced = place_exchanges(&plan.physical);
            let out_ids: Vec<_> = plan.output.iter().map(|c| c.id).collect();
            let expected = oracle.project(&out_ids).unwrap();
            for bs in [1023, 1024, 1025] {
                for workers in PARALLELISM {
                    let mut pipeline = pooled(&db, &forced, bs, workers);
                    let got = pipeline
                        .execute(db.catalog(), &Bindings::new())
                        .and_then(|chunk| chunk.project(&out_ids))
                        .unwrap();
                    let ctx = format!("n={n} level={level:?} bs={bs} workers={workers}");
                    assert!(
                        bag_eq(&expected.rows, &got.rows),
                        "{ctx}: {:?} vs {:?}",
                        expected.rows,
                        got.rows
                    );
                    if workers > 1 {
                        assert_fanned_out(&forced, &pipeline.stats(), &ctx);
                    }
                }
            }
        }
    }
}

/// Runs a forced-exchange plan once and returns the projected rows.
fn run_forced(db: &Database, sql: &str, workers: usize) -> Vec<Row> {
    let plan = db.plan(sql, OptimizerLevel::Full).unwrap();
    let forced = place_exchanges(&plan.physical);
    let out_ids: Vec<_> = plan.output.iter().map(|c| c.id).collect();
    pooled(db, &forced, orthopt_exec::DEFAULT_BATCH_SIZE, workers)
        .execute(db.catalog(), &Bindings::new())
        .and_then(|chunk| chunk.project(&out_ids))
        .unwrap()
        .rows
}

/// Parallel execution is deterministic: ten repeated runs of an ORDER
/// BY query return byte-identical row sequences (same rows, same
/// order), even at four workers. Unordered queries are compared as
/// sorted multisets, which must also be stable run to run.
#[test]
fn parallel_runs_are_deterministic() {
    let db = db_with_s_rows(1025);
    let ordered = "select rk, (select count(*) from s where sr = rk) as n \
                   from r order by rk desc";
    let unordered = "select sr, sum(sv) from s group by sr";
    for workers in [2usize, 4] {
        let first = run_forced(&db, ordered, workers);
        assert!(!first.is_empty());
        for run in 1..10 {
            let again = run_forced(&db, ordered, workers);
            assert_eq!(
                first, again,
                "ordered run {run} diverged at {workers} workers"
            );
        }
        let mut first_u = run_forced(&db, unordered, workers);
        first_u.sort_by(cmp_rows);
        for run in 1..10 {
            let mut again = run_forced(&db, unordered, workers);
            again.sort_by(cmp_rows);
            assert_eq!(
                first_u, again,
                "unordered run {run} diverged at {workers} workers"
            );
        }
    }
}

/// The forced placement actually exercises the parallel runtime (the
/// suite would be vacuous if nothing were eligible): a grouped
/// aggregate over a scan must plan with an exchange and report merged
/// worker counters.
#[test]
fn forced_placement_reports_workers() {
    let db = db_with_s_rows(1024);
    let plan = db
        .plan(
            "select sr, count(*) from s group by sr",
            OptimizerLevel::Full,
        )
        .unwrap();
    let forced = place_exchanges(&plan.physical);
    let mut pipeline = pooled(&db, &forced, orthopt_exec::DEFAULT_BATCH_SIZE, 4);
    pipeline.execute(db.catalog(), &Bindings::new()).unwrap();
    let rendered = orthopt_exec::explain_phys::explain_phys_analyze(
        &forced,
        &pipeline.stats(),
        pipeline.cached_nodes(),
    );
    assert!(rendered.contains("Exchange"), "{rendered}");
    assert!(rendered.contains("workers="), "{rendered}");
    // Asked to fan out without the catalog's `Arc`, the exchange refuses
    // with a structured error instead of quietly running serial.
    let mut unshared = Pipeline::compile(&forced).unwrap();
    unshared.set_parallelism(4);
    match unshared.execute(db.catalog(), &Bindings::new()) {
        Err(Error::Internal(msg)) => {
            assert!(msg.contains("Pipeline::set_shared_catalog"), "{msg}");
        }
        other => panic!("expected the missing-catalog error, got {other:?}"),
    }
    // Serial execution of the same plan reports no worker counters.
    let mut serial = Pipeline::compile(&forced).unwrap();
    serial.execute(db.catalog(), &Bindings::new()).unwrap();
    let rendered = orthopt_exec::explain_phys::explain_phys_analyze(
        &forced,
        &serial.stats(),
        serial.cached_nodes(),
    );
    assert!(!rendered.contains("workers="), "{rendered}");
    assert_eq!(
        Value::Int(1024),
        db.execute("select count(*) from s").unwrap().rows[0][0]
    );
}
