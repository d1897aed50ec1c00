//! Three-way correlated-strategy conformance: every query in the shared
//! correlated template family, compiled with each *forced* execution
//! strategy — `ApplyLoop`, `BatchedApply`, and `IndexLookupJoin` (which
//! falls back to the loop when the inner is not seek-shaped) — must be
//! bag-identical to the naive `Reference` interpreter, at correlated
//! and fully-decorrelated optimizer levels, serial and 4-worker,
//! across awkward batch sizes.
//!
//! This is the oracle-differential proof that correlated
//! re-introduction is a real race between semantically interchangeable
//! strategies, not three operators with three sets of edge cases.

mod common;

use common::{assert_fanned_out, pooled};
use orthopt::{ApplyStrategy, Database, OptimizerLevel};
use orthopt_common::row::bag_eq;
use orthopt_exec::{Bindings, PipelineOptions, Reference};
use orthopt_rewrite::testgen::{build_catalog, query_templates};

const STRATEGIES: [ApplyStrategy; 3] = [
    ApplyStrategy::Loop,
    ApplyStrategy::Batched,
    ApplyStrategy::Index,
];

/// Correlated planning plus the fully-decorrelated pipeline: the forced
/// strategy must be harmless even when normalization removes every
/// Apply.
const LEVELS: [OptimizerLevel; 2] = [OptimizerLevel::Correlated, OptimizerLevel::Full];

/// Batch sizes that stress boundary handling: single-row batches, a
/// tiny odd size, and one row either side of the default.
const BATCH_SIZES: [usize; 5] = [1, 7, 1023, 1024, 1025];

const WORKERS: [usize; 2] = [1, 4];

/// Deterministic fixture with the properties the race cares about:
/// duplicate correlation keys (~7 `s` rows per `sr` group, so batched
/// dedup has real work), NULLs in every nullable column (binding-cache
/// key safety), and a hash index on `s.sr` so index-lookup fusion is
/// actually applicable.
fn fixture() -> Database {
    let r_rows: Vec<(i64, Option<i64>)> = (0..12)
        .map(|i| (i, if i % 4 == 0 { None } else { Some(i % 4) }))
        .collect();
    let s_rows: Vec<(i64, i64, Option<i64>)> = (0..40)
        .map(|i| (i, i % 6, if i % 7 == 0 { None } else { Some(i % 5) }))
        .collect();
    let mut catalog = build_catalog(&r_rows, &s_rows);
    let s = catalog.resolve("s").unwrap();
    catalog.table_mut(s).build_index(vec![1]).unwrap();
    catalog.analyze_all();
    Database::from_catalog(catalog)
}

/// Sweeps one query through strategies × levels × workers × batch sizes
/// against the oracle on the unnormalized tree.
fn check_strategies(db: &mut Database, sql: &str) {
    let bound = orthopt_sql::compile(sql, db.catalog()).expect("template compiles");
    let oracle = Reference::new(db.catalog()).run(&bound.rel);
    for strategy in STRATEGIES {
        db.set_apply_strategy(strategy);
        for level in LEVELS {
            for workers in WORKERS {
                db.set_parallelism(workers);
                let plan = db.plan(sql, level).expect("planning succeeds");
                let out_ids: Vec<_> = plan.output.iter().map(|c| c.id).collect();
                for bs in BATCH_SIZES {
                    let opts = PipelineOptions {
                        batch_size: bs,
                        ..Default::default()
                    };
                    let mut pipeline = pooled(db, &plan.physical, opts, workers);
                    let got = pipeline
                        .execute(db.catalog(), &Bindings::new())
                        .and_then(|chunk| chunk.project(&out_ids));
                    let ctx = format!(
                        "{sql}\nstrategy={strategy:?} level={level:?} workers={workers} bs={bs}"
                    );
                    match (&oracle, got) {
                        (Ok(expected), Ok(got)) => {
                            let expected = expected
                                .project(&out_ids)
                                .expect("oracle keeps output cols");
                            assert!(
                                bag_eq(&expected.rows, &got.rows),
                                "{ctx}\noracle={:?}\ngot={:?}",
                                expected.rows,
                                got.rows,
                            );
                            if workers > 1 {
                                assert_fanned_out(&plan.physical, &pipeline.stats(), &ctx);
                            }
                        }
                        (Err(e1), Err(e2)) => assert_eq!(e1, &e2, "different errors: {ctx}"),
                        (o, s) => panic!("one side errored: oracle={o:?} got={s:?}\n{ctx}"),
                    }
                }
            }
        }
    }
    db.set_apply_strategy(ApplyStrategy::Auto);
    db.set_parallelism(1);
}

/// The headline differential: the whole correlated template family,
/// every forced strategy, byte-identical to the oracle.
#[test]
fn forced_strategies_match_reference_on_template_family() {
    let mut db = fixture();
    for sql in query_templates(2) {
        check_strategies(&mut db, &sql);
    }
}

/// A second constant shifts every threshold so empty/non-empty inner
/// results land differently.
#[test]
fn forced_strategies_match_reference_shifted_constants() {
    let mut db = fixture();
    for sql in query_templates(4) {
        check_strategies(&mut db, &sql);
    }
}

/// NULL correlation parameters (satellite: binding-cache key safety).
/// `rv` is NULL on every fourth row: a NULL binding must hit nothing in
/// the hash index, never collide with a cached non-NULL binding, and
/// produce the same NULL/empty semantics in all three strategies.
#[test]
fn null_correlation_keys_consistent_across_strategies() {
    let mut db = fixture();
    for sql in [
        "select rk, (select sum(sv) from s where sr = rv) from r",
        "select rk from r where exists (select 1 from s where sr = rv)",
        "select rk from r where not exists (select 1 from s where sr = rv)",
        "select rk from r where 1 < (select count(*) from s where sr = rv and sv >= 0)",
    ] {
        check_strategies(&mut db, sql);
    }
}

/// Forcing a strategy actually shapes the plan: the forced operator
/// appears (or, for `Index` on a non-seekable inner, the loop fallback).
#[test]
fn forced_strategy_shapes_the_plan() {
    let mut db = fixture();
    let seekable = "select rk from r where exists (select 1 from s where sr = rk and sv > 1)";
    let aggregated = "select rk, (select sum(sv) from s where sr = rk) from r";

    db.set_apply_strategy(ApplyStrategy::Loop);
    let text = orthopt_exec::explain_phys(
        &db.plan(seekable, OptimizerLevel::Correlated)
            .unwrap()
            .physical,
    );
    assert!(text.contains("ApplyLoop"), "forced loop plan:\n{text}");

    db.set_apply_strategy(ApplyStrategy::Batched);
    let text = orthopt_exec::explain_phys(
        &db.plan(seekable, OptimizerLevel::Correlated)
            .unwrap()
            .physical,
    );
    assert!(
        text.contains("BatchedApply"),
        "forced batched plan:\n{text}"
    );

    db.set_apply_strategy(ApplyStrategy::Index);
    let text = orthopt_exec::explain_phys(
        &db.plan(seekable, OptimizerLevel::Correlated)
            .unwrap()
            .physical,
    );
    assert!(
        text.contains("IndexLookupJoin"),
        "forced index plan:\n{text}"
    );

    // Aggregate inner: not seek-shaped, so forced Index falls back to
    // the loop instead of failing to plan.
    let text = orthopt_exec::explain_phys(
        &db.plan(aggregated, OptimizerLevel::Correlated)
            .unwrap()
            .physical,
    );
    assert!(
        text.contains("ApplyLoop") && !text.contains("IndexLookupJoin"),
        "index fallback plan:\n{text}"
    );
}

/// EXPLAIN ANALYZE surfaces the new per-operator counters.
#[test]
fn explain_analyze_reports_strategy_counters() {
    let mut db = fixture();

    db.set_apply_strategy(ApplyStrategy::Batched);
    let text = db
        .explain_analyze(
            "select rk, (select sum(sv) from s where sr = rk) from r",
            OptimizerLevel::Correlated,
        )
        .unwrap();
    assert!(
        text.contains("distinct_bindings="),
        "batched analyze:\n{text}"
    );

    db.set_apply_strategy(ApplyStrategy::Index);
    let text = db
        .explain_analyze(
            "select rk from r where exists (select 1 from s where sr = rk)",
            OptimizerLevel::Correlated,
        )
        .unwrap();
    assert!(text.contains("index_probes="), "index analyze:\n{text}");
    assert!(
        text.contains("distinct_bindings="),
        "index analyze dedups bindings too:\n{text}"
    );
}

/// The environment knob seeds freshly-constructed databases.
#[test]
fn env_knob_parses_all_spellings() {
    for (s, want) in [
        ("auto", ApplyStrategy::Auto),
        ("loop", ApplyStrategy::Loop),
        (" Batched ", ApplyStrategy::Batched),
        ("INDEX", ApplyStrategy::Index),
    ] {
        assert_eq!(ApplyStrategy::parse(s), Some(want));
    }
    assert_eq!(ApplyStrategy::parse("nested"), None);
    assert_eq!(ApplyStrategy::default(), ApplyStrategy::Auto);
}
