//! Correlated-strategy conformance: every query in the shared
//! correlated template family, compiled with each *forced* execution
//! strategy — the Apply (`ApplyLoop`) and `IndexLookupJoin` (which
//! falls back to the Apply when the inner is not seek-shaped) — must be
//! bag-identical to the naive `Reference` interpreter, at correlated
//! and fully-decorrelated optimizer levels, serial and 4-worker,
//! across awkward batch sizes.
//!
//! This is the oracle-differential proof that correlated
//! re-introduction is a real race between semantically interchangeable
//! strategies, not two operators with two sets of edge cases.

mod common;

use std::collections::HashSet;

use common::{assert_fanned_out, pooled};
use orthopt::{ApplyStrategy, Database, OptimizerLevel};
use orthopt_common::row::bag_eq;
use orthopt_common::{ColId, DataType, Error, Row, Value};
use orthopt_exec::{Bindings, PhysExpr, Pipeline, PipelineOptions, Reference};
use orthopt_ir::builder::get;
use orthopt_ir::{ApplyKind, ArithOp, CmpOp, RelExpr, ScalarExpr};
use orthopt_rewrite::testgen::{build_catalog, query_templates};
use orthopt_storage::{Catalog, ColumnDef, TableDef};

const STRATEGIES: [ApplyStrategy; 2] = [ApplyStrategy::Loop, ApplyStrategy::Index];

/// Correlated planning plus the fully-decorrelated pipeline: the forced
/// strategy must be harmless even when normalization removes every
/// Apply.
const LEVELS: [OptimizerLevel; 2] = [OptimizerLevel::Correlated, OptimizerLevel::Full];

/// Batch sizes that stress boundary handling: single-row batches, a
/// tiny odd size, and one row either side of the default.
const BATCH_SIZES: [usize; 5] = [1, 7, 1023, 1024, 1025];

const WORKERS: [usize; 2] = [1, 4];

/// Deterministic fixture with the properties the race cares about:
/// duplicate correlation keys (~7 `s` rows per `sr` group, so binding
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
                    let opts = PipelineOptions { batch_size: bs };
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
/// produce the same NULL/empty semantics in every strategy.
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

/// Every strategy × `ApplyKind` — `Cross` included, which no SQL text
/// reaches at the correlated level — as a hand-built plan over the
/// fixture, correlated on the nullable, duplicate-heavy `rv`. Each must
/// produce the rows a nested loop over the tables does. The Apply runs
/// its inner plan once per distinct `rv` over the whole outer (NULL is
/// one binding), whatever the batch size; the index join probes once
/// per non-NULL outer lane, runs one kernel per window and executes no
/// binding at all.
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
                // Pre-order slot 0 is the apply node itself, slot 2 the
                // inner plan's root.
                let apply = pipeline.stats()[0];
                match strategy {
                    ApplyStrategy::Loop => {
                        let bindings: HashSet<&Value> = r_rows.iter().map(|r| &r[1]).collect();
                        let distinct = bindings.len() as u64;
                        assert!(distinct < r_rows.len() as u64, "{ctx}: vacuous");
                        assert_eq!(apply.distinct_bindings, distinct, "{ctx}: {apply:?}");
                        assert_eq!(
                            pipeline.stats()[2].opens,
                            distinct,
                            "{ctx}: one inner run per distinct binding"
                        );
                    }
                    ApplyStrategy::Index => {
                        let probes = r_rows.iter().filter(|r| !r[1].is_null()).count();
                        assert_eq!(apply.index_probes, probes as u64, "{ctx}: {apply:?}");
                        assert_eq!(
                            apply.kernels,
                            r_rows.len().div_ceil(bs) as u64,
                            "{ctx}: one kernel per window: {apply:?}"
                        );
                        assert_eq!(apply.distinct_bindings, 0, "{ctx}: {apply:?}");
                        assert_eq!(apply.mem_peak, 0, "{ctx}: nothing is charged: {apply:?}");
                    }
                    _ => {}
                }
            }
        }
    }
}

fn arith(op: ArithOp, left: ScalarExpr, right: ScalarExpr) -> ScalarExpr {
    ScalarExpr::Arith {
        op,
        left: Box::new(left),
        right: Box::new(right),
    }
}

/// `r(rk, rv)` with 120 rows and `s(sk, sr, sv)` with 1 100, indexed on
/// `s.sr`. `rv` repeats, is NULL on every eighth row and binds the hot
/// key 0 on every third; 1 000 `s` rows hold that key, so one outer
/// batch of the hot lanes makes ~37 000 candidate pairs — several
/// probe windows.
fn hot_key_catalog() -> Catalog {
    let mut catalog = Catalog::new();
    let int = |name: &str, nullable: bool| {
        if nullable {
            ColumnDef::nullable(name, DataType::Int)
        } else {
            ColumnDef::new(name, DataType::Int)
        }
    };
    let r = catalog
        .create_table(TableDef::new(
            "r",
            vec![int("rk", false), int("rv", true)],
            vec![vec![0]],
        ))
        .unwrap();
    let s = catalog
        .create_table(TableDef::new(
            "s",
            vec![int("sk", false), int("sr", false), int("sv", true)],
            vec![vec![0]],
        ))
        .unwrap();
    for i in 0..120i64 {
        let rv = match i {
            _ if i % 8 == 7 => Value::Null,
            _ if i % 3 == 0 => Value::Int(0),
            _ => Value::Int(i % 5 + 1),
        };
        catalog
            .table_mut(r)
            .insert(vec![Value::Int(i), rv])
            .unwrap();
    }
    for i in 0..1100i64 {
        let sr = if i % 11 == 10 { i % 7 + 1 } else { 0 };
        let sv = if i % 13 == 0 {
            Value::Null
        } else {
            Value::Int(i % 4)
        };
        catalog
            .table_mut(s)
            .insert(vec![Value::Int(i), Value::Int(sr), sv])
            .unwrap();
    }
    catalog.table_mut(s).build_index(vec![1]).unwrap();
    catalog.analyze_all();
    catalog
}

/// The index join's batched probe against `Reference`'s per-row Apply,
/// in output order, for every kind at batch sizes 1, 7, 1024 and 1025:
/// probes on a duplicate-heavy, NULL-bearing binding with a hot key
/// (`rv`), an expression (`rk + 1`), a `Float` binding grouping-equal
/// to the `Int` key (`rv * 1.0`), and one whose kernel overflows on
/// lane 50 only (a `CASE`); residuals that hold on some pairs
/// (`sv > 1`) and that divide by zero on the hot key's row `sk = 500`,
/// after that key has already matched on `sk = 1`. A Semi/Anti lane
/// must evaluate that pair too, as the Apply's inner side does, and
/// the first error in output order — a residual one before lane 50's
/// probe overflow — must be the one that surfaces.
#[test]
fn index_join_probe_matches_reference_in_order() {
    let catalog = hot_key_catalog();
    let (rk, rv, sk, sr, sv) = (ColId(1), ColId(2), ColId(3), ColId(4), ColId(5));
    let (r, s) = (catalog.resolve("r").unwrap(), catalog.resolve("s").unwrap());
    let col = |c: ColId| ScalarExpr::col(c);
    let overflow_at_50 = ScalarExpr::Case {
        operand: None,
        whens: vec![(
            ScalarExpr::eq(col(rk), ScalarExpr::lit(50i64)),
            arith(
                ArithOp::Add,
                ScalarExpr::lit(i64::MAX),
                ScalarExpr::lit(1i64),
            ),
        )],
        else_: Some(Box::new(col(rv))),
    };
    let probes = [
        col(rv),
        arith(ArithOp::Add, col(rk), ScalarExpr::lit(1i64)),
        arith(ArithOp::Mul, col(rv), ScalarExpr::lit(Value::Float(1.0))),
        overflow_at_50,
    ];
    let divides_by_zero_at_500 = ScalarExpr::IsNull {
        expr: Box::new(arith(
            ArithOp::Div,
            col(sv),
            arith(ArithOp::Sub, col(sk), ScalarExpr::lit(500i64)),
        )),
        negated: true,
    };
    let residuals = [
        ScalarExpr::cmp(CmpOp::Gt, col(sv), ScalarExpr::lit(1i64)),
        divides_by_zero_at_500,
    ];
    let int = DataType::Int;
    let r_get = get(
        r,
        "r",
        &[(rk, "rk", int, false), (rv, "rv", int, true)],
        &[],
        120.0,
    );
    let s_get = get(
        s,
        "s",
        &[
            (sk, "sk", int, false),
            (sr, "sr", int, false),
            (sv, "sv", int, true),
        ],
        &[],
        1100.0,
    );
    for (pi, probe) in probes.iter().enumerate() {
        for (ri, residual) in residuals.iter().enumerate() {
            // `rk + 1` never binds the hot key; every other probe meets
            // the dividing residual on lane 0, before the `CASE`
            // overflows on lane 50.
            let error = match (pi, ri) {
                (1, 1) => None,
                (_, 1) => Some(Error::DivideByZero),
                (3, 0) => Some(Error::NumericOverflow),
                _ => None,
            };
            for kind in [
                ApplyKind::Cross,
                ApplyKind::LeftOuter,
                ApplyKind::Semi,
                ApplyKind::Anti,
            ] {
                // The inner side keeps the matches first, then filters
                // them, so its residual sees exactly the candidate pairs.
                let inner = RelExpr::Project {
                    input: Box::new(RelExpr::Select {
                        input: Box::new(RelExpr::Select {
                            input: Box::new(s_get.clone()),
                            predicate: ScalarExpr::eq(col(sr), probe.clone()),
                        }),
                        predicate: residual.clone(),
                    }),
                    cols: vec![sk, sv],
                };
                let logical = RelExpr::Apply {
                    kind,
                    left: Box::new(r_get.clone()),
                    right: Box::new(inner),
                };
                let want = Reference::new(&catalog).run(&logical);
                let ctx = format!("probe {probe:?}\nresidual {residual:?}\n{kind:?}");
                assert_eq!(want.as_ref().err(), error.as_ref(), "{ctx}");
                let plan = PhysExpr::IndexLookupJoin {
                    kind,
                    left: Box::new(PhysExpr::TableScan {
                        table: r,
                        positions: vec![0, 1],
                        cols: vec![rk, rv],
                    }),
                    table: s,
                    positions: vec![0, 1, 2],
                    fetch_cols: vec![sk, sr, sv],
                    index_cols: vec![1],
                    probes: vec![probe.clone()],
                    residual: residual.clone(),
                    cols: vec![sk, sv],
                    params: vec![rk, rv],
                };
                let out_ids = plan.out_cols();
                for bs in [1, 7, 1024, 1025] {
                    let ctx = format!("{ctx} bs={bs}");
                    let mut pipeline = Pipeline::with_batch_size(&plan, bs).unwrap();
                    let got = pipeline.execute(&catalog, &Bindings::new());
                    match (&want, got) {
                        (Ok(want), Ok(got)) => {
                            let want = want.project(&out_ids).unwrap();
                            let got = got.project(&out_ids).unwrap();
                            assert!(!want.rows.is_empty(), "{ctx}: vacuous");
                            assert_eq!(got.rows, want.rows, "{ctx}");
                            // One outer batch, one kernel per window.
                            let windows = pipeline.stats()[0].kernels;
                            if pi == 0 && bs >= 120 {
                                assert!(windows >= 2, "{ctx}: the hot key fit one window");
                            }
                        }
                        (Err(want), Err(got)) => assert_eq!(&got, want, "{ctx}"),
                        (want, got) => panic!("{ctx}\nwant {want:?}\ngot {got:?}"),
                    }
                }
            }
        }
    }
}

/// Forcing a strategy actually shapes the plan: the forced operator
/// appears (or, for `Index` on a non-seekable inner, the Apply fallback).
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
    // the Apply instead of failing to plan.
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

    db.session_mut().settings_mut().apply_strategy = ApplyStrategy::Loop;
    let text = db
        .explain_analyze(
            "select rk, (select sum(sv) from s where sr = rk) from r",
            OptimizerLevel::Correlated,
        )
        .unwrap();
    assert!(
        text.contains("distinct_bindings="),
        "apply analyze:\n{text}"
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
        !text.contains("distinct_bindings="),
        "an index join probes lanes, it runs no bindings:\n{text}"
    );

    // A point lookup is one probe of the index, and an `IndexSeek`
    // re-opened by the Apply one per distinct non-NULL binding (`rv` is
    // 1, 2 or 3 in nine of the twelve `r` rows and NULL in the rest).
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
        text.contains("IndexSeek") && text.contains("index_probes=3"),
        "loop analyze:\n{text}"
    );
}

/// The environment knob seeds freshly-constructed databases.
#[test]
fn env_knob_parses_all_spellings() {
    for (s, want) in [
        ("auto", ApplyStrategy::Auto),
        ("loop", ApplyStrategy::Loop),
        (" Loop ", ApplyStrategy::Loop),
        ("INDEX", ApplyStrategy::Index),
    ] {
        assert_eq!(ApplyStrategy::parse(s), Some(want));
    }
    assert_eq!(ApplyStrategy::parse("nested"), None);
    assert_eq!(ApplyStrategy::parse("batched"), None);
    assert_eq!(ApplyStrategy::default(), ApplyStrategy::Auto);
}
