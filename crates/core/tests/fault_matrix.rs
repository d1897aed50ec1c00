//! The fault matrix: deterministic fault injection across the shared
//! `testgen` query corpus, serial and parallel, at multiple optimizer
//! levels. Every injected run must either fail with the injected
//! structured error (`ResourceExhausted` / `Exec`) or — when the armed
//! site is not on the executed path — succeed with exactly the
//! `Reference` oracle's answer. After every case the engine must run
//! the same query cleanly, proving nothing leaked.
//!
//! CI runs it under `ORTHOPT_PARALLELISM` 1 and 4. Lives in its own
//! test binary so the process-global fault registry cannot perturb
//! other suites; tests inside serialize on a mutex.

mod common;

use common::{assert_fanned_out, pooled};
use orthopt::common::row::bag_eq;
use orthopt::common::Error;
use orthopt::exec::faults::{self, FaultAction};
use orthopt::exec::{place_exchanges, Bindings, Pipeline, Reference};
use orthopt::{ApplyStrategy, Database, OptimizerLevel};
use orthopt_rewrite::testgen::{build_catalog, query_templates};
use orthopt_synccheck::sync::{Mutex, MutexGuard};

fn registry_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
}

/// Every failpoint site compiled into the executor: buffer-growth sites,
/// the spill subsystem's I/O boundaries, plus a sample of operator batch
/// boundaries.
const SITES: [&str; 18] = [
    "hashjoin.build",
    "hashagg.state",
    "sort.buffer",
    "limit.buffer",
    "max1.buffer",
    "except.build",
    "segment.partition",
    "cache.fill",
    "exchange.gather",
    "apply.bindings",
    "spill.open",
    "spill.write",
    "spill.read",
    "HashJoin",
    "HashAggregate",
    "TableScan",
    "ApplyLoop",
    "IndexLookupJoin",
];

/// Fixed corpus data: small but non-trivial, NULLs included, chosen so
/// morsel and batch boundaries land mid-group.
fn corpus_db() -> Database {
    let r_rows: Vec<(i64, Option<i64>)> = (0..6)
        .map(|i| (i, if i == 4 { None } else { Some(i % 4) }))
        .collect();
    let s_rows: Vec<(i64, i64, Option<i64>)> = (0..18)
        .map(|i| (i, i % 6, if i % 7 == 0 { None } else { Some(i % 5) }))
        .collect();
    Database::from_catalog(build_catalog(&r_rows, &s_rows))
}

/// Corpus data plus a hash index on `s.sr`, so the Apply and the
/// index-lookup join are both plannable.
fn indexed_corpus_db() -> Database {
    let r_rows: Vec<(i64, Option<i64>)> = (0..6)
        .map(|i| (i, if i == 4 { None } else { Some(i % 4) }))
        .collect();
    let s_rows: Vec<(i64, i64, Option<i64>)> = (0..18)
        .map(|i| (i, i % 6, if i % 7 == 0 { None } else { Some(i % 5) }))
        .collect();
    let mut catalog = build_catalog(&r_rows, &s_rows);
    let s = catalog.resolve("s").unwrap();
    catalog.table_mut(s).build_index(vec![1]).unwrap();
    catalog.analyze_all();
    Database::from_catalog(catalog)
}

/// One injected execution. Returns a printable outcome tag for the
/// determinism check.
fn run_once(db: &Database, sql: &str, level: OptimizerLevel, workers: usize) -> String {
    let plan = match db.plan(sql, level) {
        Ok(p) => p,
        Err(e) => return format!("plan-err:{e}"),
    };
    let forced = place_exchanges(&plan.physical);
    let out_ids: Vec<_> = plan.output.iter().map(|c| c.id).collect();
    let mut pipeline = match Pipeline::compile(&forced) {
        Ok(p) => p,
        Err(e) => return format!("compile-err:{e}"),
    };
    pipeline.set_parallelism(workers);
    pipeline.set_shared_catalog(db.shared_catalog());
    match pipeline
        .execute(db.catalog(), &Bindings::new())
        .and_then(|chunk| chunk.project(&out_ids))
    {
        Ok(chunk) => format!("ok:{}", chunk.rows.len()),
        Err(e) => format!("err:{e}"),
    }
}

/// The matrix proper: each corpus template is paired round-robin with a
/// fault site, armed with both refusal and hard-error actions, and run
/// serial + parallel at two optimizer levels. Outcomes are checked for
/// error identity (the injected structured error and nothing weirder)
/// or oracle-identical success, and the engine must answer the same
/// query cleanly immediately after.
#[test]
fn matrix_error_identity_and_clean_recovery() {
    let _g = registry_lock();
    let db = corpus_db();
    let templates = query_templates(3);
    for (i, sql) in templates.iter().enumerate() {
        let site = SITES[i % SITES.len()];
        let bound = orthopt_sql::compile(sql, db.catalog()).expect("template compiles");
        let oracle = Reference::new(db.catalog()).run(&bound.rel);
        for action in [FaultAction::RefuseAlloc, FaultAction::Error] {
            for level in [OptimizerLevel::Correlated, OptimizerLevel::Full] {
                for workers in [1usize, 2] {
                    let plan = db.plan(sql, level).expect("planning succeeds");
                    let forced = place_exchanges(&plan.physical);
                    let out_ids: Vec<_> = plan.output.iter().map(|c| c.id).collect();

                    faults::install(site, action.clone(), 0);
                    let mut pipeline = pooled(&db, &forced, Default::default(), workers);
                    let got = pipeline
                        .execute(db.catalog(), &Bindings::new())
                        .and_then(|chunk| chunk.project(&out_ids));
                    faults::clear();

                    let ctx = format!(
                        "{sql}\nsite={site} action={action:?} level={level:?} workers={workers}"
                    );
                    match (&oracle, got) {
                        // Site off the executed path: oracle answer, exactly.
                        (Ok(expected), Ok(chunk)) => {
                            let expected = expected.project(&out_ids).expect("oracle keeps cols");
                            assert!(bag_eq(&expected.rows, &chunk.rows), "{ctx}");
                        }
                        // Injected failure: must be the structured kinds the
                        // failpoints produce — never Internal, never a panic.
                        (_, Err(e)) => {
                            assert!(
                                matches!(
                                    e.root_cause(),
                                    Error::ResourceExhausted { .. }
                                        | Error::Exec(_)
                                        | Error::DivideByZero
                                        | Error::NumericOverflow
                                        | Error::SubqueryReturnedMoreThanOneRow
                                ),
                                "{ctx}\nunexpected error kind: {e:?}"
                            );
                        }
                        (Err(_), Ok(_)) => {
                            panic!("{ctx}\nfault run succeeded where oracle errors")
                        }
                    }

                    // Clean close / engine reusability: the disarmed engine
                    // answers identically to the oracle right away.
                    let mut clean = pooled(&db, &forced, Default::default(), workers);
                    let clean_got = clean
                        .execute(db.catalog(), &Bindings::new())
                        .and_then(|chunk| chunk.project(&out_ids));
                    match (&oracle, clean_got) {
                        (Ok(expected), Ok(chunk)) => {
                            let expected = expected.project(&out_ids).expect("oracle keeps cols");
                            assert!(bag_eq(&expected.rows, &chunk.rows), "clean rerun: {ctx}");
                            if workers > 1 {
                                assert_fanned_out(&forced, &clean.stats(), &ctx);
                            }
                        }
                        (Err(_), Err(_)) => {}
                        (o, g) => panic!("clean rerun diverged: {ctx}\n{o:?} vs {g:?}"),
                    }
                }
            }
        }
    }
}

/// The columnar hash-join build charges the governor through the
/// `hashjoin.build` failpoint: arming it with an allocation refusal
/// yields the structured `ResourceExhausted` where the build cannot
/// spill, a grace join where it can, and the disarmed engine answers
/// the same query cleanly — proving the vectorized path neither skips
/// the site nor leaks on unwind.
#[test]
fn columnar_hashjoin_build_refusal_is_structured() {
    let _g = registry_lock();
    let db = corpus_db();
    let sql = "select rk, sv from r, s where sr = rk";
    let plan = db.plan(sql, OptimizerLevel::Full).expect("plans");
    let out_ids: Vec<_> = plan.output.iter().map(|c| c.id).collect();

    // A keyless join has no hash to partition on: the refusal must
    // surface structurally.
    let keyless_sql = "select rk, sv from r, s where sr < rk";
    let keyless = db.plan(keyless_sql, OptimizerLevel::Full).expect("plans");
    let shape = orthopt::exec::explain_phys(&keyless.physical);
    assert!(shape.contains("NestedLoop"), "not a keyless join:\n{shape}");
    faults::install("hashjoin.build", FaultAction::RefuseAlloc, 0);
    let mut pipeline = Pipeline::compile(&keyless.physical).expect("compiles");
    let got = pipeline.execute(db.catalog(), &Bindings::new());
    faults::clear();
    match got {
        Err(e) => assert!(
            matches!(e.root_cause(), Error::ResourceExhausted { .. }),
            "expected ResourceExhausted from the columnar build, got {e:?}"
        ),
        Ok(_) => panic!("hashjoin.build refusal did not trip — hash join off the plan?"),
    }

    let oracle = Reference::new(db.catalog())
        .run(&orthopt_sql::compile(sql, db.catalog()).unwrap().rel)
        .unwrap();
    let expected = oracle.project(&out_ids).unwrap();

    // Keyed: the same refusal makes the columnar build go grace —
    // partitions to disk, joins pair-by-pair, answer unchanged.
    faults::install("hashjoin.build", FaultAction::RefuseAlloc, 0);
    let mut graced = Pipeline::compile(&plan.physical).expect("compiles");
    let got = graced
        .execute(db.catalog(), &Bindings::new())
        .and_then(|chunk| chunk.project(&out_ids));
    faults::clear();
    let chunk = got.expect("refusal with spill on degrades to a grace join");
    assert!(bag_eq(&expected.rows, &chunk.rows), "grace join diverged");
    assert_eq!(
        orthopt::exec::spill::live_dirs(),
        0,
        "grace join left residue"
    );

    let mut clean = Pipeline::compile(&plan.physical).expect("compiles");
    let chunk = clean
        .execute(db.catalog(), &Bindings::new())
        .and_then(|chunk| chunk.project(&out_ids))
        .unwrap();
    assert!(bag_eq(&expected.rows, &chunk.rows), "clean rerun diverged");
}

/// The binding cache of the Apply degrades, not dies: an allocation
/// refusal at `apply.bindings` must be *absorbed* — the
/// operator sheds its cache, marks itself degraded, and still answers
/// bag-identically to the clean run — while a hard error propagates
/// structurally and an injected panic is contained by the façade with
/// operator attribution. The forced `IndexLookupJoin` keeps no cache
/// and charges nothing; its operator-boundary site gets the error and
/// panic legs. After every case the disarmed engine answers identically
/// again.
#[test]
fn binding_cache_faults_degrade_then_recover() {
    let _g = registry_lock();
    let mut db = indexed_corpus_db();
    let cases = [
        (
            ApplyStrategy::Loop,
            "apply.bindings",
            "ApplyLoop",
            "select rk, (select sum(sv) from s where sr = rk) from r",
        ),
        (
            ApplyStrategy::Index,
            "IndexLookupJoin",
            "IndexLookupJoin",
            "select rk from r where exists (select 1 from s where sr = rk and sv >= 0)",
        ),
    ];
    for (strategy, site, op, sql) in cases {
        db.session_mut().settings_mut().apply_strategy = strategy;
        let ctx = format!("site={site} strategy={strategy:?}");
        let clean = db
            .execute_with(sql, OptimizerLevel::Correlated)
            .unwrap_or_else(|e| panic!("{ctx}: clean baseline failed: {e}"));

        // The forced strategy really is on the plan, so the site is on
        // the executed path — the legs below are not vacuous.
        let plan = db.plan(sql, OptimizerLevel::Correlated).unwrap();
        let shape = orthopt::exec::explain_phys(&plan.physical);
        assert!(shape.contains(op), "{ctx}: plan lacks {op}:\n{shape}");

        if strategy == ApplyStrategy::Loop {
            // Refusal: the cache is shed, the answer is not.
            faults::install(site, FaultAction::RefuseAlloc, 0);
            let got = db.execute_with(sql, OptimizerLevel::Correlated);
            let tripped = faults::fired(site);
            faults::clear();
            assert!(tripped > 0, "{ctx}: refusal never tripped");
            let got = got.unwrap_or_else(|e| panic!("{ctx}: refusal must degrade, got {e:?}"));
            assert!(
                bag_eq(&clean.rows, &got.rows),
                "{ctx}: degraded run diverged\nclean={:?}\ngot={:?}",
                clean.rows,
                got.rows
            );
        }

        // Hard error: structured propagation, nothing weirder.
        faults::install(site, FaultAction::Error, 0);
        let got = db.execute_with(sql, OptimizerLevel::Correlated);
        faults::clear();
        match got {
            Err(e) => assert!(
                matches!(e.root_cause(), Error::Exec(msg) if msg.contains(site)),
                "{ctx}: expected injected Exec error, got {e:?}"
            ),
            Ok(_) => panic!("{ctx}: injected error did not surface"),
        }

        // Panic: contained by the façade, attributed to the site.
        faults::install(site, FaultAction::Panic, 0);
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // silence the expected unwind
        let got = db.execute_with(sql, OptimizerLevel::Correlated);
        std::panic::set_hook(hook);
        faults::clear();
        match got {
            Err(Error::Exec(msg)) => {
                assert!(msg.contains("panic"), "{ctx}: {msg}");
            }
            other => panic!("{ctx}: expected Exec(panic …), got {other:?}"),
        }

        // Disarmed engine: identical answer, no residue.
        let rerun = db.execute_with(sql, OptimizerLevel::Correlated).unwrap();
        assert!(
            bag_eq(&clean.rows, &rerun.rows),
            "{ctx}: clean rerun diverged"
        );
    }
    db.session_mut().settings_mut().apply_strategy = ApplyStrategy::Auto;
}

/// Two runs with the same seed arm the same site with the same action
/// and fail (or pass) identically — the suite's determinism guarantee.
#[test]
fn seeded_runs_are_reproducible() {
    let _g = registry_lock();
    let db = corpus_db();
    let templates = query_templates(3);
    for (t, seed) in [(2usize, 0xfa417u64), (7, 0xfa418), (11, 0xfa419)] {
        let sql = &templates[t];
        let mut outcomes = Vec::new();
        for _ in 0..2 {
            let schedule = faults::install_seeded(seed, &SITES);
            let outcome = run_once(&db, sql, OptimizerLevel::Full, 2);
            faults::clear();
            outcomes.push((schedule, outcome));
        }
        assert_eq!(outcomes[0], outcomes[1], "seed {seed:#x} on template {t}");
    }
}

/// Forced panics stay inside the engine: the `Database` façade converts
/// them to `Error::Exec` with operator attribution, and the same
/// `Database` then answers cleanly.
#[test]
fn injected_panic_is_isolated_by_the_facade() {
    let _g = registry_lock();
    let db = corpus_db();
    let sql = "select sr, count(*) from s group by sr";
    let clean = db.execute(sql).unwrap();

    faults::install("HashAggregate", FaultAction::Panic, 0);
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {})); // silence the expected unwind
    let got = db.execute(sql);
    std::panic::set_hook(hook);
    faults::clear();

    match got {
        Err(Error::Exec(msg)) => {
            assert!(msg.contains("panic"), "{msg}");
            assert!(msg.contains("HashAggregate"), "attribution: {msg}");
        }
        other => panic!("expected Exec(panic …), got {other:?}"),
    }
    assert_eq!(db.execute(sql).unwrap().rows, clean.rows);
}

/// Spill-site faults: with a starvation budget forcing the external
/// sort through `spill.open` / `spill.write` / `spill.read`, every
/// injected I/O failure must surface as the injected structured error
/// (never a panic, never `Internal`), leave zero spill directories
/// behind, and let the same `Database` answer cleanly right after.
/// Slowdowns at the same sites must change nothing but latency.
#[test]
fn spill_io_faults_are_structured_and_leave_no_orphans() {
    let _g = registry_lock();
    let mut db = corpus_db();
    let sql = "select sk, sv from s order by sv, sk";
    let clean = db.execute(sql).unwrap();

    // Starve the sort so runs hit disk and the merge reads them back —
    // all three spill sites are on the executed path, not vacuously armed.
    db.session_mut().settings_mut().mem_limit = Some(16);
    let spilled_before = orthopt::exec::spill::total_spilled_bytes();
    let got = db.execute(sql).unwrap();
    assert_eq!(got.rows, clean.rows, "external sort preserves order");
    assert!(
        orthopt::exec::spill::total_spilled_bytes() > spilled_before,
        "budget did not force a spill; sites are off the path"
    );
    assert_eq!(orthopt::exec::spill::live_dirs(), 0, "dir outlived query");

    for site in ["spill.open", "spill.write", "spill.read"] {
        // Hard error: structured, attributed to the site, no residue.
        faults::install(site, FaultAction::Error, 0);
        let got = db.execute(sql);
        let tripped = faults::fired(site);
        faults::clear();
        assert!(tripped > 0, "{site}: fault never tripped");
        match got {
            Err(e) => assert!(
                matches!(e.root_cause(), Error::Exec(msg) if msg.contains(site)),
                "{site}: expected injected Exec error, got {e:?}"
            ),
            Ok(_) => panic!("{site}: injected error did not surface"),
        }
        assert_eq!(
            orthopt::exec::spill::live_dirs(),
            0,
            "{site}: orphaned spill dir after error"
        );

        // Panic: contained by the façade, no residue.
        faults::install(site, FaultAction::Panic, 0);
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // silence the expected unwind
        let got = db.execute(sql);
        std::panic::set_hook(hook);
        faults::clear();
        match got {
            Err(Error::Exec(msg)) => assert!(msg.contains("panic"), "{site}: {msg}"),
            other => panic!("{site}: expected Exec(panic …), got {other:?}"),
        }
        assert_eq!(
            orthopt::exec::spill::live_dirs(),
            0,
            "{site}: orphaned spill dir after panic"
        );

        // Slowdown: completes, merely late, still exact.
        faults::install(site, FaultAction::SlowMs(1), 0);
        let got = db.execute(sql).unwrap();
        faults::clear();
        assert_eq!(got.rows, clean.rows, "{site}: slowed run diverged");

        // Disarmed engine: identical answer, same process, same budget.
        let rerun = db.execute(sql).unwrap();
        assert_eq!(rerun.rows, clean.rows, "{site}: clean rerun diverged");
    }

    db.session_mut().settings_mut().mem_limit = None;
}

/// Synthetic slowdowns compose with deadlines: a slowed scan under a
/// short deadline trips `Error::Cancelled` at a batch boundary.
#[test]
fn slowdown_plus_deadline_cancels() {
    let _g = registry_lock();
    let mut db = corpus_db();
    db.session_mut().set("timeout_ms", "5").unwrap();
    let sql = "select sr, count(*) from s group by sr";
    faults::install("TableScan", FaultAction::SlowMs(30), 0);
    let got = db.execute(sql);
    faults::clear();
    match got {
        Err(Error::Cancelled { .. }) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }
    assert!(db.execute(sql).is_ok());
}
