//! Deterministic fault injection against the streaming pipeline.
//!
//! Lives in its own test binary (its own process) so arming the
//! process-global fault registry cannot perturb the other suites. Tests
//! within this binary serialize on a local mutex for the same reason.

mod fixtures;

use fixtures::*;
use orthopt_common::{ColId, Error, QueryContext, Result, TableId};
use orthopt_exec::faults::{self, FaultAction};
use orthopt_exec::{Bindings, Chunk, PhysExpr, Pipeline};
use orthopt_ir::{JoinKind, ScalarExpr};
use orthopt_storage::Catalog;
use orthopt_synccheck::sync::{Mutex, MutexGuard};
use std::sync::Arc;

/// Serializes tests that arm the process-global registry.
fn registry_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
}

fn scan_orders() -> PhysExpr {
    PhysExpr::TableScan {
        table: TableId(1),
        positions: vec![0, 1, 2],
        cols: vec![O_ORDERKEY, O_CUSTKEY, O_TOTALPRICE],
    }
}

fn join_plan() -> PhysExpr {
    PhysExpr::HashJoin {
        kind: JoinKind::Inner,
        left: Box::new(PhysExpr::TableScan {
            table: TableId(0),
            positions: vec![0, 1],
            cols: vec![C_CUSTKEY, C_NAME],
        }),
        right: Box::new(scan_orders()),
        left_keys: vec![C_CUSTKEY],
        right_keys: vec![O_CUSTKEY],
        residual: ScalarExpr::lit(true),
    }
}

fn run(plan: &PhysExpr, catalog: &Arc<Catalog>, parallelism: usize) -> Result<Chunk> {
    let mut pipe = Pipeline::compile(plan)?;
    pipe.set_parallelism(parallelism);
    pipe.set_shared_catalog(Arc::clone(catalog));
    pipe.set_governor(QueryContext::new());
    pipe.execute(catalog, &Bindings::new())
}

#[test]
fn refused_allocation_surfaces_as_resource_exhausted() {
    let _g = registry_lock();
    let catalog = Arc::new(customers_orders());
    faults::install("hashjoin.build", FaultAction::RefuseAlloc, 0);
    // A keyless join has no hash to partition on, so its build cannot
    // spill and a refused charge fails the query. (A keyed build
    // degrades to a grace join instead; the fault matrix covers that.)
    let keyless = PhysExpr::HashJoin {
        kind: JoinKind::Inner,
        left: Box::new(PhysExpr::TableScan {
            table: TableId(0),
            positions: vec![0, 1],
            cols: vec![C_CUSTKEY, C_NAME],
        }),
        right: Box::new(scan_orders()),
        left_keys: vec![],
        right_keys: vec![],
        residual: ScalarExpr::eq(ScalarExpr::col(C_CUSTKEY), ScalarExpr::col(O_CUSTKEY)),
    };
    let mut pipe = Pipeline::compile(&keyless).unwrap();
    pipe.set_parallelism(1);
    pipe.set_governor(QueryContext::new());
    let err = pipe.execute(&catalog, &Bindings::new()).unwrap_err();
    faults::clear();
    match err {
        Error::ResourceExhausted { operator, .. } => {
            assert_eq!(operator, "fault:hashjoin.build");
        }
        other => panic!("expected ResourceExhausted, got {other:?}"),
    }
}

#[test]
fn error_fault_at_operator_boundary_names_the_site() {
    let _g = registry_lock();
    let catalog = Arc::new(customers_orders());
    faults::install("Sort", FaultAction::Error, 0);
    let plan = PhysExpr::Sort {
        input: Box::new(scan_orders()),
        by: vec![(O_TOTALPRICE, false)],
    };
    let err = run(&plan, &catalog, 1).unwrap_err();
    faults::clear();
    assert_eq!(err, Error::Exec("injected fault at Sort".into()));
}

#[test]
fn after_counter_delays_the_failure() {
    let _g = registry_lock();
    let catalog = Arc::new(customers_orders());
    // The orders build side feeds one batch; skipping one hit means the
    // site never fires on this table.
    faults::install("hashjoin.build", FaultAction::Error, 1);
    let chunk = run(&join_plan(), &catalog, 1).unwrap();
    assert_eq!(chunk.rows.len(), 4);
    assert_eq!(faults::fired("hashjoin.build"), 0);
    faults::clear();
}

#[test]
fn engine_survives_and_recovers_after_injected_failure() {
    let _g = registry_lock();
    let catalog = Arc::new(customers_orders());
    faults::install("hashjoin.build", FaultAction::Error, 0);
    assert!(run(&join_plan(), &catalog, 1).is_err());
    faults::clear();
    let chunk = run(&join_plan(), &catalog, 1).unwrap();
    assert_eq!(chunk.rows.len(), 4);
}

#[test]
fn worker_panic_is_isolated_and_attributed() {
    let _g = registry_lock();
    let catalog = Arc::new(customers_orders());
    let plan = PhysExpr::Exchange {
        input: Box::new(scan_orders()),
    };
    // Panic inside the morsel workers' scan boundary: scatter converts
    // it to an error instead of unwinding through the scheduler.
    faults::install("MorselScan", FaultAction::Panic, 0);
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {})); // silence expected backtraces
    let err = run(&plan, &catalog, 4).unwrap_err();
    std::panic::set_hook(hook);
    faults::clear();
    match err {
        Error::Exec(msg) => {
            assert!(msg.contains("worker panicked"), "{msg}");
            assert!(msg.contains("injected panic at MorselScan"), "{msg}");
        }
        other => panic!("expected Exec, got {other:?}"),
    }
    // Same process, same catalog: clean run afterwards.
    let chunk = run(&plan, &catalog, 4).unwrap();
    assert_eq!(chunk.rows.len(), 4);
}

#[test]
fn seeded_schedules_fail_identically() {
    let _g = registry_lock();
    let catalog = Arc::new(customers_orders());
    let sites = ["hashjoin.build", "HashJoin", "TableScan"];
    let mut outcomes = Vec::new();
    for _ in 0..2 {
        let schedule = faults::install_seeded(0x5eed, &sites);
        let outcome = match run(&join_plan(), &catalog, 1) {
            Ok(chunk) => format!("ok:{}", chunk.rows.len()),
            Err(e) => format!("err:{e}"),
        };
        faults::clear();
        outcomes.push((schedule, outcome));
    }
    assert_eq!(outcomes[0], outcomes[1], "same seed, same failure");
}

#[test]
fn cache_shed_on_injected_refusal_degrades_not_fails() {
    let _g = registry_lock();
    let catalog = Arc::new(customers_orders());
    let inner = PhysExpr::Filter {
        input: Box::new(scan_orders()),
        predicate: ScalarExpr::cmp(
            orthopt_ir::CmpOp::Gt,
            ScalarExpr::col(O_ORDERKEY),
            ScalarExpr::lit(0i64),
        ),
    };
    let plan = PhysExpr::ApplyLoop {
        kind: orthopt_ir::ApplyKind::Cross,
        left: Box::new(PhysExpr::TableScan {
            table: TableId(0),
            positions: vec![0],
            cols: vec![ColId(70)],
        }),
        right: Box::new(inner),
        params: vec![],
    };
    let clean = run(&plan, &catalog, 1).unwrap();
    // Ungoverned, the fill's peak lands in the cached subtree root's slot.
    let mut pipe = Pipeline::compile(&plan).unwrap();
    pipe.execute(&catalog, &Bindings::new()).unwrap();
    let root = pipe.cached_nodes()[0];
    assert!(
        pipe.stats()[root].mem_peak > 0,
        "cache fill reported no peak"
    );
    faults::install("cache.fill", FaultAction::RefuseAlloc, 0);
    let shed = run(&plan, &catalog, 1).expect("cache sheds and re-executes");
    faults::clear();
    assert!(orthopt_common::row::bag_eq(&clean.rows, &shed.rows));
}
