//! Model-checked invariants of the multi-session engine: the synccheck
//! runtime drives the *real* production protocols — admission control,
//! the shared scheduler, the plan cache, session cancellation — through
//! thousands of distinct thread interleavings (or the exhaustive
//! bounded-preemption space) and asserts the documented invariants in
//! every one.
//!
//! Ground rules for harnesses (see `synccheck` docs): everything that
//! synchronizes must be created *inside* the model closure (threads
//! spawned outside a model run are passthrough and cannot wake modeled
//! waiters), so no harness touches `Scheduler::global()`, and session
//! harnesses run at parallelism 1. Shared read-only fixtures (the
//! catalog) are built once outside and shared via `Arc`.

use orthopt::{Engine, EngineConfig, OptimizerLevel, SessionSettings};
use orthopt_common::column::rows_to_columns;
use orthopt_common::{AdmissionController, CancellationToken, DataType, Error, Value};
use orthopt_exec::Scheduler;
use orthopt_ir::ApplyStrategy;
use orthopt_storage::{Catalog, ColumnDef, TableDef};
use orthopt_synccheck::model::{Model, TimeoutPolicy};
use orthopt_synccheck::sync::thread;
use std::sync::{Arc, OnceLock};

/// The coverage floor every invariant harness must clear: either the
/// DFS bounded-preemption space is exhausted or ≥1000 distinct
/// schedules ran.
const COVERAGE: usize = 1000;

/// A tiny read-only catalog, built once and shared across schedules
/// (the model re-runs its closure per schedule; fixtures must not be
/// rebuilt under the model or their locks would become decision
/// points).
fn catalog() -> Arc<Catalog> {
    static CAT: OnceLock<Arc<Catalog>> = OnceLock::new();
    Arc::clone(CAT.get_or_init(|| {
        let mut c = Catalog::new();
        let t = c
            .create_table(TableDef::new(
                "t",
                vec![
                    ColumnDef::new("k", DataType::Int),
                    ColumnDef::new("v", DataType::Int),
                ],
                vec![vec![0]],
            ))
            .expect("create table");
        c.table_mut(t)
            .insert_all((0..8).map(|i| vec![Value::Int(i), Value::Int(i % 3)]))
            .expect("insert rows");
        c.analyze_all();
        Arc::new(c)
    }))
}

fn engine_config() -> EngineConfig {
    EngineConfig {
        global_mem_limit: None,
        admission_queue: 4,
        default_query_mem: 16 << 20,
        plan_cache_cap: 8,
        session: settings(),
    }
}

fn settings() -> SessionSettings {
    SessionSettings {
        parallelism: 1,
        mem_limit: None,
        timeout: None,
        level: OptimizerLevel::Full,
        apply_strategy: ApplyStrategy::Auto,
    }
}

/// Invariant 1: the admission controller never grants past the global
/// limit (`ORTHOPT_GLOBAL_MEM_LIMIT`), no matter how admits, queued
/// waits, and releases interleave. Three 60-byte queries against a
/// 100-byte budget must serialize; the high-water mark proves it.
#[test]
fn admission_never_exceeds_global_limit() {
    let report = Model::new().run(|| {
        let ctrl = AdmissionController::new(100, 4);
        let inert = CancellationToken::default();
        let mut joins = Vec::new();
        for _ in 0..2 {
            let ctrl = Arc::clone(&ctrl);
            joins.push(thread::spawn(move || {
                let guard = ctrl
                    .admit(60, &CancellationToken::default())
                    .expect("queued, then admitted");
                assert!(ctrl.peak() <= ctrl.limit(), "over-admission past limit");
                drop(guard);
            }));
        }
        let guard = ctrl.admit(60, &inert).expect("admitted");
        assert!(ctrl.peak() <= ctrl.limit(), "over-admission past limit");
        drop(guard);
        for j in joins {
            j.join().expect("admitting thread");
        }
        assert!(ctrl.peak() <= ctrl.limit(), "over-admission past limit");
        assert_eq!(ctrl.used(), 0, "all grants released");
        assert_eq!(ctrl.stats().shed, 0, "queue had room; nothing sheds");
    });
    assert!(
        report.covered(COVERAGE),
        "insufficient coverage: {report:?}"
    );
}

/// Invariant 2: no lost wakeup in the admission wait loop. Under
/// `TimeoutPolicy::Never` the 20 ms poll never fires, so the *only* way
/// a queued query ever admits is the release-side notify — a missing or
/// misplaced notify manifests as a model-detected deadlock.
#[test]
fn admission_release_wakes_queued_waiter_without_polling() {
    let report = Model::new().timeouts(TimeoutPolicy::Never).run(|| {
        let ctrl = AdmissionController::new(100, 4);
        let holder = ctrl
            .admit(100, &CancellationToken::default())
            .expect("holder admits");
        let ctrl2 = Arc::clone(&ctrl);
        let waiter = thread::spawn(move || {
            ctrl2
                .admit(50, &CancellationToken::default())
                .expect("woken by the release, not a timeout")
        });
        drop(holder);
        let guard = waiter.join().expect("waiter thread");
        assert_eq!(guard.bytes(), 50);
    });
    assert!(
        report.covered(COVERAGE),
        "insufficient coverage: {report:?}"
    );
}

/// Invariant 3: the shared scheduler loses no task and gathers results
/// in submission order, not completion order, under every interleaving
/// of two pool workers and two concurrent query groups.
#[test]
fn scheduler_gathers_every_task_in_submission_order() {
    let report = Model::new().run(|| {
        let sched = Arc::new(Scheduler::new(2));
        let s2 = Arc::clone(&sched);
        let other = thread::spawn(move || {
            let out = s2.run_group((0..2).map(|i| move |_w: usize| 100 + i).collect::<Vec<_>>());
            out.into_iter()
                .map(|r| r.expect("no panic"))
                .collect::<Vec<_>>()
        });
        let out = sched.run_group((0..3).map(|i| move |_w: usize| i).collect::<Vec<_>>());
        let got: Vec<i32> = out.into_iter().map(|r| r.expect("no panic")).collect();
        assert_eq!(got, vec![0, 1, 2], "task lost or gathered out of order");
        let theirs = other.join().expect("sibling query thread");
        assert_eq!(theirs, vec![100, 101], "sibling group lost or reordered");
        // Dropping the scheduler must let both workers exit; a stuck
        // worker would deadlock the model run right here.
        drop(sched);
    });
    assert!(
        report.covered(COVERAGE),
        "insufficient coverage: {report:?}"
    );
}

/// Invariant 4: the plan cache never serves a plan compiled under an
/// older stats version once a bump is visible. The bump races a
/// prepare; the harness distinguishes the two legal outcomes and
/// asserts the one thing that must hold afterwards: a hit is only legal
/// off a fresh entry.
#[test]
fn plan_cache_never_serves_stale_plan_across_version_bump() {
    let cat = catalog();
    let report = Model::new().max_schedules(50_000).run(move || {
        let engine = Engine::from_shared(Arc::clone(&cat), engine_config());
        let sql = "select k from t where v = 1";
        engine.prepare(sql, &settings()).expect("cold compile");
        assert_eq!(engine.cache_stats().misses, 1);

        let bumper = {
            let engine = Arc::clone(&engine);
            thread::spawn(move || engine.bump_stats_version())
        };
        // Races the bump: a hit (ran before the bump was visible)
        // and a recompile (after) are both legal here.
        engine.prepare(sql, &settings()).expect("racing prepare");
        bumper.join().expect("bumper thread");

        let mid = engine.cache_stats();
        let raced_hit = mid.hits == 1;
        engine.prepare(sql, &settings()).expect("settled prepare");
        let end = engine.cache_stats();
        if raced_hit {
            // The racing prepare reused the v0 entry, so the entry
            // is still stale: serving it now would be a stale hit.
            assert_eq!(
                end.misses,
                mid.misses + 1,
                "stale plan served from cache after a visible stats bump"
            );
        } else {
            // The racing prepare already recompiled; only a fresh
            // entry can exist, and it must be served.
            assert_eq!(end.hits, mid.hits + 1, "fresh entry not reused");
        }
    });
    assert!(
        report.covered(COVERAGE),
        "insufficient coverage: {report:?}"
    );
}

/// Invariant 5a: a queued admission observes session cancellation
/// promptly — the poll loop (modeled as `WhenIdle`: the timed wait
/// fires only when nothing else can run) must exit with `Cancelled`,
/// releasing its queue slot, in every interleaving of the cancel.
#[test]
fn queued_admission_aborts_on_session_cancel() {
    let report = Model::new().timeouts(TimeoutPolicy::WhenIdle).run(|| {
        let ctrl = AdmissionController::new(100, 4);
        let holder = ctrl
            .admit(100, &CancellationToken::default())
            .expect("holder admits");
        let token = CancellationToken::new(None);
        let canceller = {
            let token = token.clone();
            thread::spawn(move || token.cancel())
        };
        let result = ctrl.admit(50, &token);
        assert!(
            matches!(result, Err(Error::Cancelled { ref operator, .. }) if operator == "admission"),
            "queued admit must abort with admission blame, got {result:?}"
        );
        canceller.join().expect("canceller thread");
        assert_eq!(ctrl.waiting(), 0, "cancelled waiter released its slot");
        drop(holder);
    });
    assert!(
        report.covered(COVERAGE),
        "insufficient coverage: {report:?}"
    );
}

/// Invariant 5b: closing a session aborts its in-flight query — under
/// every interleaving of `close` with `execute`, the query either
/// completed before the close or fails with `Cancelled`, and a query
/// issued after the close always fails with `Cancelled`.
#[test]
fn session_close_aborts_in_flight_and_subsequent_queries() {
    let cat = catalog();
    let report = Model::new().max_schedules(50_000).run(move || {
        let engine = Engine::from_shared(Arc::clone(&cat), engine_config());
        let mut session = engine.session();
        *session.settings_mut() = settings();
        let cancel = session.cancel_handle();
        let closer = thread::spawn(move || cancel.cancel());
        // Races the close: full completion and cancellation are the
        // only legal outcomes.
        let in_flight = session.execute("select count(*) from t where v = 1");
        match &in_flight {
            Ok(result) => assert_eq!(result.rows, vec![vec![Value::Int(3)]]),
            Err(Error::Cancelled { .. }) => {}
            Err(other) => panic!("expected Ok or Cancelled, got {other:?}"),
        }
        closer.join().expect("closer thread");
        // The close has landed: from here every query must refuse.
        session.close();
        let after = session.execute("select count(*) from t where v = 1");
        assert!(
            matches!(after, Err(Error::Cancelled { .. })),
            "closed session must refuse queries, got {after:?}"
        );
    });
    assert!(
        report.covered(COVERAGE),
        "insufficient coverage: {report:?}"
    );
}

/// Fairness satellite: with a queue deep enough for everyone, N queued
/// queries all eventually admit once the blocker releases — nobody
/// starves, nothing sheds, in any interleaving of the wakeups.
#[test]
fn admission_queue_is_starvation_free() {
    let report = Model::new().timeouts(TimeoutPolicy::WhenIdle).run(|| {
        let ctrl = AdmissionController::new(100, 8);
        let blocker = ctrl
            .admit(100, &CancellationToken::default())
            .expect("blocker admits");
        let waiters: Vec<_> = (0..3)
            .map(|_| {
                let ctrl = Arc::clone(&ctrl);
                thread::spawn(move || {
                    // Each waiter needs the whole budget, so admissions
                    // must hand the grant around one by one.
                    let guard = ctrl
                        .admit(100, &CancellationToken::default())
                        .expect("every queued waiter eventually admits");
                    drop(guard);
                })
            })
            .collect();
        drop(blocker);
        for w in waiters {
            w.join().expect("waiter thread");
        }
        let stats = ctrl.stats();
        assert_eq!(stats.admitted, 4, "all four admissions landed");
        assert_eq!(stats.shed, 0, "a deep-enough queue never sheds");
        assert_eq!(ctrl.used(), 0);
    });
    assert!(
        report.covered(COVERAGE),
        "insufficient coverage: {report:?}"
    );
}

/// Invariant 8: the spill manager's shared state (lazy scope-directory
/// creation, file numbering, byte counters) stays consistent when two
/// threads spill through one manager concurrently — exactly the
/// parallel-sort / grace-join sharing pattern. In every interleaving
/// both writers get distinct files, the counters account every byte
/// written and read back, and dropping the manager reclaims the scope
/// directory (the temp-file hygiene invariant).
#[test]
fn spill_manager_counters_and_cleanup_under_concurrent_spills() {
    use orthopt_exec::spill::{self, SpillManager};

    let report = Model::new().run(|| {
        let dirs_before = spill::live_dirs();
        let mgr = Arc::new(SpillManager::new());
        let writer = |mgr: Arc<SpillManager>, tag: i64| {
            move || {
                let mut f = mgr.create("model").expect("create spill file");
                let rows: Vec<Vec<Value>> =
                    (0..4).map(|i| vec![Value::Int(tag * 10 + i)]).collect();
                f.append_columns(&rows_to_columns(&rows, 1), rows.len())
                    .expect("append");
                let mut r = f.reader().expect("reader");
                let mut seen = 0usize;
                while let Some((_, n)) = r.next_block_columns().expect("read back") {
                    seen += n;
                }
                assert_eq!(seen, 4, "writer {tag} read its own rows back");
                drop(r);
                f
            }
        };
        let other = thread::spawn(writer(Arc::clone(&mgr), 2));
        let mine = writer(Arc::clone(&mgr), 1)();
        let theirs = other.join().expect("spilling thread");
        assert_eq!(mgr.files_created(), 2, "each spiller got its own file");
        assert!(mine.bytes() > 0 && theirs.bytes() > 0);
        assert_eq!(
            mgr.spilled_bytes(),
            mine.bytes() + theirs.bytes(),
            "spilled counter accounts exactly the bytes on disk"
        );
        assert_eq!(
            mgr.restored_bytes(),
            mgr.spilled_bytes(),
            "both files were read back in full"
        );
        drop(mine);
        drop(theirs);
        drop(mgr);
        assert_eq!(
            spill::live_dirs(),
            dirs_before,
            "scope directory reclaimed on drop"
        );
    });
    assert!(
        report.covered(COVERAGE),
        "insufficient coverage: {report:?}"
    );
}
