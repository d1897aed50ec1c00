//! Spill conformance: the degraded (disk-backed) execution paths must
//! be invisible in the answers. Every testgen template runs unlimited
//! and under a starvation budget (half the biggest buffering operator's
//! observed appetite), serial and 4-worker on the scheduler pool — and
//! every run that completes must be bag-identical to the `Reference`
//! oracle. Unlimited runs must never touch disk; the tight sweep must
//! actually spill (non-vacuity floor), and any refusal that does
//! surface must be the structured, hinted kind.

mod common;

use common::assert_fanned_out;
use orthopt::common::row::bag_eq;
use orthopt::common::{Error, QueryContext};
use orthopt::exec::{
    place_exchanges, spill, Bindings, PhysExpr, Pipeline, PipelineOptions, Reference,
};
use orthopt::{Database, OptimizerLevel};
use orthopt_rewrite::testgen::{build_catalog, query_templates};
use orthopt_synccheck::sync::{Mutex, MutexGuard};

/// Both tests spill and both assert the process-wide
/// `spill::live_dirs() == 0` after each run, so they must not overlap.
fn spill_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
}

/// A pool-wired pipeline at the default batch size.
fn pooled(db: &Database, root: &PhysExpr, workers: usize) -> Pipeline {
    common::pooled(db, root, PipelineOptions::default(), workers)
}

/// Larger than the fault-matrix corpus: enough rows that buffering
/// operators hold real state, so halving their appetite forces disk.
fn corpus_db() -> Database {
    corpus_db_with(240)
}

/// The corpus with `s_rows` rows in `s`.
fn corpus_db_with(s_rows: i64) -> Database {
    let r: Vec<(i64, Option<i64>)> = (0..48)
        .map(|i| (i, if i % 11 == 3 { None } else { Some(i % 8) }))
        .collect();
    let s: Vec<(i64, i64, Option<i64>)> = (0..s_rows)
        .map(|i| (i, i % 48, if i % 7 == 5 { None } else { Some(i % 9) }))
        .collect();
    let mut c = build_catalog(&r, &s);
    c.analyze_all();
    Database::from_catalog(c)
}

#[test]
fn tight_budgets_stay_oracle_identical_across_workers() {
    let _g = spill_lock();
    let db = corpus_db();
    let mut spilled_runs = 0usize;
    let mut tight_runs = 0usize;
    for sql in query_templates(3) {
        let bound = orthopt_sql::compile(&sql, db.catalog()).expect("template compiles");
        let Ok(oracle) = Reference::new(db.catalog()).run(&bound.rel) else {
            // Data-dependent errors (division by zero &c.) are covered
            // by the fault matrix; spilling is about big happy paths.
            continue;
        };
        let plan = db.plan(&sql, OptimizerLevel::Full).expect("plans");
        let forced = place_exchanges(&plan.physical);
        let out_ids: Vec<_> = plan.output.iter().map(|c| c.id).collect();
        let expected = oracle.project(&out_ids).expect("oracle keeps cols");

        for workers in [1usize, 4] {
            // Serial legs compile the unplaced plan: an Exchange's gather
            // buffer (a hard-fail site) would otherwise dominate the
            // operator peaks and mask the spillable operators under it.
            let root = if workers == 1 {
                &plan.physical
            } else {
                &forced
            };
            let ctx = format!("{sql}\nworkers={workers}");

            // Unlimited: oracle-identical and zero disk traffic.
            let mut free = pooled(&db, root, workers);
            let chunk = free
                .execute(db.catalog(), &Bindings::new())
                .and_then(|c| c.project(&out_ids))
                .unwrap_or_else(|e| panic!("{ctx}\nunlimited run failed: {e:?}"));
            assert!(
                bag_eq(&expected.rows, &chunk.rows),
                "{ctx}\nunlimited diverged"
            );
            assert!(
                free.stats().iter().all(|s| s.spilled_bytes == 0),
                "{ctx}\nunlimited run touched disk"
            );
            if workers > 1 {
                assert_fanned_out(root, &free.stats(), &ctx);
            }

            // Tight: half the hungriest operator's recorded peak
            // cannot fit that operator, so it must degrade (spill /
            // shed) or refuse structurally — never answer wrong.
            let op_peak = free.stats().iter().map(|s| s.mem_peak).max().unwrap_or(0);
            if op_peak < 256 {
                continue; // nothing buffers; a budget changes nothing
            }
            tight_runs += 1;
            let mut tight = pooled(&db, root, workers);
            tight.set_governor(QueryContext::new().with_memory_limit(op_peak / 2));
            match tight
                .execute(db.catalog(), &Bindings::new())
                .and_then(|c| c.project(&out_ids))
            {
                Ok(chunk) => {
                    assert!(bag_eq(&expected.rows, &chunk.rows), "{ctx}\ntight diverged");
                    if tight.stats().iter().any(|s| s.spill_partitions > 0) {
                        spilled_runs += 1;
                        assert!(
                            tight.stats().iter().any(|s| s.spilled_bytes > 0),
                            "{ctx}\npartitions reported without bytes"
                        );
                    }
                }
                // Hard-fail buffering sites (exchange gather, limit,
                // max1 …) may legitimately trip; structurally, hinted.
                Err(e) => match e.root_cause() {
                    Error::ResourceExhausted { hint, .. } => {
                        assert!(hint.is_some(), "{ctx}\nrefusal carried no hint");
                    }
                    other => panic!("{ctx}\nnon-structured failure: {other:?}"),
                },
            }
            assert_eq!(spill::live_dirs(), 0, "{ctx}\nspill dir leaked");
        }
    }
    assert!(
        spilled_runs >= 8,
        "sweep too vacuous: only {spilled_runs} of {tight_runs} tight runs spilled"
    );
}

/// The three degradable operators, each individually starved on a plan
/// it dominates, at both worker counts: grace hash join, external sort,
/// spilled aggregation. Every run must complete (these sites degrade,
/// they don't refuse), match the oracle, and report its disk traffic
/// through `explain_analyze`-visible stats.
#[test]
fn each_degradable_operator_spills_and_stays_exact() {
    let _g = spill_lock();
    let db = corpus_db();
    let cases = [
        // Grace hash join: the build side dwarfs the budget.
        "select rk, sk from r, s where sr = rk",
        // External sort: presentation order over the big table.
        "select sk, sv from s order by sv, sk",
        // Spilled aggregation: one group per s row keeps state wide.
        "select sk, count(*), sum(sv) from s group by sk",
    ];
    for sql in cases {
        let bound = orthopt_sql::compile(sql, db.catalog()).expect("compiles");
        let oracle = Reference::new(db.catalog())
            .run(&bound.rel)
            .expect("oracle");
        let plan = db.plan(sql, OptimizerLevel::Full).expect("plans");
        let forced = place_exchanges(&plan.physical);
        let out_ids: Vec<_> = plan.output.iter().map(|c| c.id).collect();
        let expected = oracle.project(&out_ids).expect("oracle keeps cols");

        for workers in [1usize, 4] {
            // As above: serial legs avoid the gather buffer's hard-fail
            // charge so the operator under test is the hungriest.
            let root = if workers == 1 {
                &plan.physical
            } else {
                &forced
            };
            let ctx = format!("{sql}\nworkers={workers}");
            let mut free = pooled(&db, root, workers);
            let baseline = free
                .execute(db.catalog(), &Bindings::new())
                .and_then(|c| c.project(&out_ids))
                .expect("unlimited run");
            assert!(bag_eq(&expected.rows, &baseline.rows), "{ctx}");
            if workers > 1 {
                assert_fanned_out(root, &free.stats(), &ctx);
            }

            // Starve the dominant operator but leave room for the
            // (hard-fail) gather buffer: everything between the
            // biggest operator appetite and the whole-query peak.
            let op_peak = free.stats().iter().map(|s| s.mem_peak).max().unwrap_or(0);
            assert!(op_peak > 512, "{ctx}\nplan has no buffering operator");
            let mut tight = pooled(&db, root, workers);
            tight.set_governor(QueryContext::new().with_memory_limit(op_peak / 2));
            let got = tight
                .execute(db.catalog(), &Bindings::new())
                .and_then(|c| c.project(&out_ids));
            let got = match got {
                Ok(chunk) => chunk,
                // 4-worker plans route rows through the exchange
                // gather, whose charge alone can exceed half an
                // operator peak; that refusal is the documented
                // hard-fail contract, checked elsewhere.
                Err(e) if workers > 1 => {
                    match e.root_cause() {
                        Error::ResourceExhausted { hint, .. } => {
                            assert!(hint.is_some(), "{ctx}\nno hint");
                        }
                        other => panic!("{ctx}\nnon-structured: {other:?}"),
                    }
                    continue;
                }
                Err(e) => panic!("{ctx}\nserial tight run must degrade, got {e:?}"),
            };
            assert!(bag_eq(&expected.rows, &got.rows), "{ctx}\ntight diverged");
            let stats = tight.stats();
            assert!(
                stats
                    .iter()
                    .any(|s| s.spill_partitions > 0 && s.spilled_bytes > 0),
                "{ctx}\ntight run never spilled: {stats:?}"
            );
            // Ungoverned, each node that spilled reports its appetite.
            for (i, s) in stats.iter().enumerate() {
                if s.spill_partitions > 0 {
                    let ungoverned = free.stats()[i];
                    assert!(
                        ungoverned.mem_peak > 0,
                        "{ctx}\nno peak at #{i}: {ungoverned:?}"
                    );
                }
            }
            assert_eq!(spill::live_dirs(), 0, "{ctx}\nspill dir leaked");
        }
    }
}

/// A buffer's charge ends when it hands a batch on: under a Sort, a
/// 4-worker Exchange's gathered batches are charged once, by whichever
/// of the two holds them. So the pool peaks at the larger node's peak,
/// not at their sum, and a budget of 1.5× that peak runs without
/// spilling a byte.
#[test]
fn handed_on_batches_are_charged_once() {
    let _g = spill_lock();
    let db = corpus_db_with(2400);
    let sql = "select sk, sv from s order by sv, sk";
    let plan = db.plan(sql, OptimizerLevel::Full).expect("plans");
    let root = place_exchanges(&plan.physical);
    let mut free = pooled(&db, &root, 4);
    free.set_governor(QueryContext::new().with_memory_limit(u64::MAX));
    let want = free
        .execute(db.catalog(), &Bindings::new())
        .expect("unlimited run");
    assert_fanned_out(&root, &free.stats(), sql);
    let node_peak = free.stats().iter().map(|s| s.mem_peak).max().unwrap_or(0);
    let pool_peak = free.governor().mem_peak().expect("pool installed");
    assert!(node_peak > 0, "nothing buffered");
    assert_eq!(pool_peak, node_peak, "pool counted a handed-on batch twice");

    let mut tight = pooled(&db, &root, 4);
    tight.set_governor(QueryContext::new().with_memory_limit(node_peak * 3 / 2));
    let got = tight
        .execute(db.catalog(), &Bindings::new())
        .expect("1.5x the largest node peak runs");
    assert_eq!(want.rows, got.rows);
    let stats = tight.stats();
    assert!(
        stats.iter().all(|s| s.spilled_bytes == 0),
        "1.5x the largest node peak spilled: {stats:?}"
    );
    assert_eq!(spill::live_dirs(), 0, "spill dir leaked");
}

/// Real data volumes: at TPC-H 0.01, serial, the Q17-class join and
/// aggregate, a sort of all of `lineitem` and a group per part key run
/// unlimited, at 1 MiB and at 256 KiB. Every budgeted run is bag-equal
/// to the unlimited one, the unlimited runs never touch disk, and some
/// budgeted run spills.
#[test]
fn tpch_budgets_stay_identical_and_spill() {
    let _g = spill_lock();
    let mut db = Database::tpch(0.01).expect("tpch");
    // Serial plans: an exchange's gather buffer cannot spill.
    db.session_mut().settings_mut().parallelism = 1;
    let cases = [
        orthopt::tpch::queries::q17_brand_only("brand#23"),
        "select l_orderkey, l_extendedprice from lineitem order by l_extendedprice, l_orderkey"
            .to_string(),
        "select l_partkey, count(*), sum(l_quantity) from lineitem group by l_partkey".to_string(),
    ];
    let mut spilled = 0;
    for sql in &cases {
        let plan = db.plan(sql, OptimizerLevel::Full).expect("plans");
        let run = |limit: Option<u64>| {
            let mut pipeline = pooled(&db, &plan.physical, 1);
            if let Some(bytes) = limit {
                pipeline.set_governor(QueryContext::new().with_memory_limit(bytes));
            }
            let chunk = pipeline
                .execute(db.catalog(), &Bindings::new())
                .unwrap_or_else(|e| panic!("{sql}\nlimit {limit:?}: {e:?}"));
            assert_eq!(spill::live_dirs(), 0, "{sql}\nspill dir leaked");
            let bytes: u64 = pipeline.stats().iter().map(|s| s.spilled_bytes).sum();
            (chunk.rows, bytes)
        };
        let (want, free_bytes) = run(None);
        assert_eq!(free_bytes, 0, "{sql}\nunlimited run touched disk");
        for limit in [1 << 20, 256 << 10] {
            let (got, bytes) = run(Some(limit));
            assert!(bag_eq(&want, &got), "{sql}\nlimit {limit} diverged");
            spilled += bytes;
        }
    }
    assert!(spilled > 0, "no budgeted run spilled");
}
