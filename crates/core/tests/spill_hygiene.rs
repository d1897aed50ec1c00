//! Temp-file hygiene for the spill subsystem: every exit path an
//! execution can take — success, governor trip, deadline expiry,
//! explicit cancellation, worker panic, session close — must leave zero
//! spill scope directories on disk (`orthopt::exec::spill::live_dirs()`).
//!
//! Tests serialize on a mutex: `live_dirs()` is a process-wide counter,
//! so a concurrently mid-spill test would make the zero assertion racy.

use orthopt::common::{Error, QueryContext};
use orthopt::exec::spill;
use orthopt::{Database, Engine, EngineConfig, OptimizerLevel};
use orthopt_common::{DataType, Value};
use orthopt_storage::{Catalog, ColumnDef, TableDef};
use orthopt_synccheck::sync::{Mutex, MutexGuard};
use std::time::Duration;

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
}

fn tpch() -> Database {
    let mut db = Database::tpch(0.002).unwrap();
    // Isolate from ambient ORTHOPT_MEM_LIMIT / ORTHOPT_TIMEOUT_MS.
    db.session_mut().settings_mut().mem_limit = None;
    db.session_mut().settings_mut().timeout = None;
    // Serial: the starvation budgets here are far below an Exchange
    // gather buffer's (hard-fail) appetite, and hygiene is about the
    // spill paths — worker-count coverage lives in spill_conformance.
    db.session_mut().settings_mut().parallelism = 1;
    db
}

/// A sort over lineitem: the buffered batches dwarf a tiny budget, so a
/// spilling engine writes runs and merges them back.
const SORT_SQL: &str =
    "select l_orderkey, l_extendedprice from lineitem order by l_extendedprice, l_orderkey";

/// A `LIMIT` over lineitem keeps every row: its buffer has no spill
/// path, so a tiny budget fails it.
const LIMIT_SQL: &str = "select l_orderkey, l_extendedprice from lineitem limit 100000";

/// Success path: a starvation budget forces the external sort through
/// disk, the answer matches the unconstrained run byte-for-byte, and
/// the scope directory is gone the moment `execute` returns.
#[test]
fn successful_spilling_run_reclaims_its_directory() {
    let _g = serial();
    let mut db = tpch();
    let clean = db.execute(SORT_SQL).unwrap();

    db.session_mut().settings_mut().mem_limit = Some(1 << 10);
    let before = spill::total_spilled_bytes();
    let got = db.execute(SORT_SQL).unwrap();
    assert_eq!(got.rows, clean.rows, "external sort preserves order");
    assert!(
        spill::total_spilled_bytes() > before,
        "budget did not force a spill"
    );
    assert_eq!(spill::live_dirs(), 0, "spill dir outlived the execution");
}

/// Governor-trip path: a buffer that cannot spill (a `LIMIT`'s) fails
/// the same budget structurally — and the refusal must not leave
/// directories either (nothing was written, and nothing half-created
/// survives).
#[test]
fn refused_run_leaves_no_directories() {
    let _g = serial();
    let mut db = tpch();
    db.session_mut().settings_mut().mem_limit = Some(1 << 10);
    match db.execute(LIMIT_SQL) {
        Err(e) => assert!(e.is_governor(), "structured refusal, got {e:?}"),
        Ok(_) => panic!("1 KiB budget did not trip the LIMIT buffer"),
    }
    assert_eq!(spill::live_dirs(), 0);
}

/// Deadline and explicit-cancel paths: cancellation at any batch
/// boundary — before, between, or mid-spill — must drop the execution's
/// spill scope with it.
#[test]
fn cancelled_runs_leave_no_directories() {
    let _g = serial();
    let mut db = tpch();
    db.session_mut().settings_mut().mem_limit = Some(1 << 10);

    db.session_mut().settings_mut().timeout = Some(Duration::ZERO);
    match db.execute(SORT_SQL) {
        Err(Error::Cancelled { .. }) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }
    db.session_mut().settings_mut().timeout = None;
    assert_eq!(spill::live_dirs(), 0, "deadline path leaked a dir");

    let plan = db.plan(SORT_SQL, OptimizerLevel::Full).unwrap();
    let gov = QueryContext::new()
        .with_memory_limit(1 << 10)
        .with_cancellation();
    gov.cancel_token().cancel();
    match db.run_with_context(&plan, gov) {
        Err(Error::Cancelled { .. }) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }
    assert_eq!(spill::live_dirs(), 0, "cancel-handle path leaked a dir");
}

/// Session-close path: a session that spilled during its queries holds
/// no spill state once its executions return, and dropping the session
/// (and its engine) leaves the disk clean.
#[test]
fn closed_session_leaves_no_directories() {
    let _g = serial();
    let mut catalog = Catalog::new();
    let t = catalog
        .create_table(TableDef::new(
            "wide",
            vec![
                ColumnDef::new("k", DataType::Int),
                ColumnDef::new("v", DataType::Int),
            ],
            vec![],
        ))
        .unwrap();
    catalog
        .table_mut(t)
        .insert_all((0..2048).map(|i| vec![Value::Int(i), Value::Int((i * 7) % 997)]))
        .unwrap();
    catalog.analyze_all();

    let engine = Engine::new(catalog, EngineConfig::default());
    let baseline = {
        let s = engine.session();
        s.execute("select k, v from wide order by v, k").unwrap()
    };
    let before = spill::total_spilled_bytes();
    {
        let mut s = engine.session();
        s.set("mem_limit", "1024").unwrap();
        let got = s.execute("select k, v from wide order by v, k").unwrap();
        assert_eq!(got.rows, baseline.rows, "spilled session run diverged");
    } // session dropped here
    assert!(
        spill::total_spilled_bytes() > before,
        "session budget did not force a spill"
    );
    assert_eq!(spill::live_dirs(), 0, "closed session leaked a dir");

    // A buffer that cannot spill refuses the same session-scoped
    // limit structurally, with a hint naming the memory knob.
    {
        let mut s = engine.session();
        s.set("mem_limit", "1024").unwrap();
        match s.execute("select k, v from wide limit 4096") {
            Err(e) => match e.root_cause() {
                Error::ResourceExhausted { hint, .. } => {
                    let h = hint.expect("refusal carries a hint");
                    assert!(h.contains("mem_limit"), "{h}");
                }
                other => panic!("expected ResourceExhausted, got {other:?}"),
            },
            Ok(_) => panic!("1 KiB budget did not trip the LIMIT buffer"),
        }
    }
    assert_eq!(spill::live_dirs(), 0);
}

/// Worker-panic and mid-spill-cancellation paths, driven by failpoints.
/// A panic after spill files exist must be contained by the façade AND
/// reclaim the directory; a slow spill under a short deadline cancels
/// mid-spill with the same guarantee.
#[test]
fn panicked_and_mid_spill_cancelled_runs_leave_no_directories() {
    use orthopt::exec::faults::{self, FaultAction};

    let _g = serial();
    let mut db = tpch();
    // Serial: at higher parallelism the Exchange gather's own (hard-fail)
    // charge trips this tiny budget before the sort ever reaches disk.
    db.session_mut().settings_mut().parallelism = 1;
    db.session_mut().settings_mut().mem_limit = Some(1 << 10);

    // Panic on the third spill write: runs are already on disk when the
    // unwind starts, so cleanup-on-unwind is what this exercises.
    faults::install("spill.write", FaultAction::Panic, 2);
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {})); // silence the expected unwind
    let got = db.execute(SORT_SQL);
    std::panic::set_hook(hook);
    faults::clear();
    match got {
        Err(Error::Exec(msg)) => assert!(msg.contains("panic"), "{msg}"),
        other => panic!("expected Exec(panic …), got {other:?}"),
    }
    assert_eq!(spill::live_dirs(), 0, "panic path leaked a dir");

    // Slow writes + short deadline: the query dies mid-spill with files
    // on disk; the Cancelled error must still reclaim everything.
    faults::install("spill.write", FaultAction::SlowMs(20), 2);
    db.session_mut().settings_mut().timeout = Some(Duration::from_millis(30));
    let got = db.execute(SORT_SQL);
    db.session_mut().settings_mut().timeout = None;
    faults::clear();
    match got {
        Err(Error::Cancelled { .. }) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }
    assert_eq!(spill::live_dirs(), 0, "mid-spill cancel leaked a dir");

    // Disarmed: the same database, same budget, answers correctly.
    let clean = db.execute(SORT_SQL).unwrap();
    assert!(!clean.rows.is_empty());
    assert_eq!(spill::live_dirs(), 0);
}
