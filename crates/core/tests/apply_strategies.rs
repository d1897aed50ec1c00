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
use orthopt_common::{ColId, Row, Value};
use orthopt_exec::{Bindings, PhysExpr, Pipeline, PipelineOptions, Reference};
use orthopt_ir::{ApplyKind, CmpOp, ScalarExpr};
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
        db.session_mut().settings_mut().apply_strategy = strategy;
        for level in LEVELS {
            for workers in WORKERS {
                db.session_mut().settings_mut().parallelism = workers;
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
    db.session_mut().settings_mut().apply_strategy = ApplyStrategy::Auto;
    db.session_mut().settings_mut().parallelism = 1;
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

/// One apply driver, three inner sources: every strategy × `ApplyKind`
/// — `Cross` included, which no SQL text reaches at the correlated
/// level — as a hand-built plan over the fixture, correlated on the
/// nullable, duplicate-heavy `rv`. Each must produce the rows a nested
/// loop over the tables does, without transposing a batch
/// (`bridged == 0`), and the two deduping strategies must have run
/// their lane kernels.
#[test]
fn every_strategy_and_kind_runs_on_lanes() {
    let db = fixture();
    let table_rows = |name: &str| -> Vec<Row> {
        let t = db.catalog().resolve(name).unwrap();
        db.catalog().table(t).rows().to_vec()
    };
    let (r_rows, s_rows) = (table_rows("r"), table_rows("s"));
    let (rk, rv, sk, sr, sv) = (ColId(1), ColId(2), ColId(3), ColId(4), ColId(5));
    let outer = PhysExpr::TableScan {
        table: db.catalog().resolve("r").unwrap(),
        positions: vec![0, 1],
        cols: vec![rk, rv],
    };
    let s_table = db.catalog().resolve("s").unwrap();
    let residual = ScalarExpr::cmp(CmpOp::Gt, ScalarExpr::col(sv), ScalarExpr::lit(1i64));
    // Inner result per binding: (sk, sv) of the s rows with sr = rv and
    // sv > 1.
    let inner_plan = PhysExpr::ProjectCols {
        input: Box::new(PhysExpr::Filter {
            input: Box::new(PhysExpr::TableScan {
                table: s_table,
                positions: vec![0, 1, 2],
                cols: vec![sk, sr, sv],
            }),
            predicate: ScalarExpr::and([
                ScalarExpr::eq(ScalarExpr::col(sr), ScalarExpr::col(rv)),
                residual.clone(),
            ]),
        }),
        cols: vec![sk, sv],
    };
    let plan_for = |strategy: ApplyStrategy, kind: ApplyKind| -> PhysExpr {
        let (left, right) = (Box::new(outer.clone()), Box::new(inner_plan.clone()));
        let params = vec![rv];
        match strategy {
            ApplyStrategy::Loop => PhysExpr::ApplyLoop {
                kind,
                left,
                right,
                params,
            },
            ApplyStrategy::Batched => PhysExpr::BatchedApply {
                kind,
                left,
                right,
                params,
            },
            _ => PhysExpr::IndexLookupJoin {
                kind,
                left,
                table: s_table,
                positions: vec![0, 1, 2],
                fetch_cols: vec![sk, sr, sv],
                index_cols: vec![1],
                probes: vec![ScalarExpr::col(rv)],
                residual: residual.clone(),
                cols: vec![sk, sv],
                params,
            },
        }
    };
    let expected = |kind: ApplyKind| -> Vec<Row> {
        let mut out = Vec::new();
        for r in &r_rows {
            let matches: Vec<&Row> = s_rows
                .iter()
                .filter(|s| {
                    !r[1].is_null() && s[1] == r[1] && matches!(s[2], Value::Int(v) if v > 1)
                })
                .collect();
            let joined = |s: &Row| [r.clone(), vec![s[0].clone(), s[2].clone()]].concat();
            match kind {
                ApplyKind::Cross => out.extend(matches.iter().map(|s| joined(s))),
                ApplyKind::LeftOuter if matches.is_empty() => {
                    out.push([r.clone(), vec![Value::Null, Value::Null]].concat());
                }
                ApplyKind::LeftOuter => out.extend(matches.iter().map(|s| joined(s))),
                ApplyKind::Semi if !matches.is_empty() => out.push(r.clone()),
                ApplyKind::Anti if matches.is_empty() => out.push(r.clone()),
                _ => {}
            }
        }
        out
    };
    for kind in [
        ApplyKind::Cross,
        ApplyKind::LeftOuter,
        ApplyKind::Semi,
        ApplyKind::Anti,
    ] {
        let want = expected(kind);
        assert!(!want.is_empty(), "{kind:?}: vacuous fixture");
        for strategy in STRATEGIES {
            for bs in [1, 7, 1024] {
                let plan = plan_for(strategy, kind);
                let mut pipeline = Pipeline::with_batch_size(&plan, bs).unwrap();
                let got = pipeline.execute(db.catalog(), &Bindings::new()).unwrap();
                let ctx = format!("{strategy:?} {kind:?} bs={bs}");
                assert!(
                    bag_eq(&want, &got.rows),
                    "{ctx}\nwant={want:?}\ngot={:?}",
                    got.rows
                );
                // Pre-order slot 0 is the apply node itself.
                let apply = pipeline.stats()[0];
                assert_eq!(apply.bridged, 0, "{ctx}: {apply:?}");
                if strategy != ApplyStrategy::Loop {
                    assert!(apply.kernels > 0, "{ctx}: {apply:?}");
                    assert!(
                        apply.distinct_bindings < r_rows.len() as u64,
                        "{ctx}: duplicate bindings were not deduped: {apply:?}"
                    );
                }
            }
        }
    }
}

/// Forcing a strategy actually shapes the plan: the forced operator
/// appears (or, for `Index` on a non-seekable inner, the loop fallback).
#[test]
fn forced_strategy_shapes_the_plan() {
    let mut db = fixture();
    let seekable = "select rk from r where exists (select 1 from s where sr = rk and sv > 1)";
    let aggregated = "select rk, (select sum(sv) from s where sr = rk) from r";

    db.session_mut().settings_mut().apply_strategy = ApplyStrategy::Loop;
    let text = orthopt_exec::explain_phys(
        &db.plan(seekable, OptimizerLevel::Correlated)
            .unwrap()
            .physical,
    );
    assert!(text.contains("ApplyLoop"), "forced loop plan:\n{text}");

    db.session_mut().settings_mut().apply_strategy = ApplyStrategy::Batched;
    let text = orthopt_exec::explain_phys(
        &db.plan(seekable, OptimizerLevel::Correlated)
            .unwrap()
            .physical,
    );
    assert!(
        text.contains("BatchedApply"),
        "forced batched plan:\n{text}"
    );

    db.session_mut().settings_mut().apply_strategy = ApplyStrategy::Index;
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

    db.session_mut().settings_mut().apply_strategy = ApplyStrategy::Batched;
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

    db.session_mut().settings_mut().apply_strategy = ApplyStrategy::Index;
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

    // A point lookup is one probe of the index, and an `IndexSeek`
    // re-opened by a loop one per non-NULL binding (`rv` is NULL in
    // three of the twelve `r` rows).
    let text = db
        .explain_analyze("select sk from s where sr = 3", OptimizerLevel::Full)
        .unwrap();
    assert!(
        text.contains("IndexSeek") && text.contains("index_probes=1"),
        "point analyze:\n{text}"
    );
    db.session_mut().settings_mut().apply_strategy = ApplyStrategy::Loop;
    let text = db
        .explain_analyze(
            "select rk from r where exists (select 1 from s where sr = rv)",
            OptimizerLevel::Correlated,
        )
        .unwrap();
    assert!(
        text.contains("IndexSeek") && text.contains("index_probes=9"),
        "loop analyze:\n{text}"
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
