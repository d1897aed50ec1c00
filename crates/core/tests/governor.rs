//! Database-level resource governance: memory budgets, deadlines, and
//! cancel handles must fail queries cleanly — structured errors, no
//! panics — and leave the same `Database` fully usable afterwards.

use orthopt::common::{Error, QueryContext};
use orthopt::tpch::queries;
use orthopt::{Database, OptimizerLevel};
use std::time::Duration;

fn tpch() -> Database {
    let mut db = Database::tpch(0.002).unwrap();
    // Isolate from ambient ORTHOPT_MEM_LIMIT / ORTHOPT_TIMEOUT_MS.
    db.session_mut().settings_mut().mem_limit = None;
    db.session_mut().settings_mut().timeout = None;
    db
}

/// A query whose hash-join builds and aggregation state dwarf any
/// reasonable tiny budget at scale 0.002.
fn buffering_sql() -> String {
    "select c_custkey, count(*) from customer, orders \
     where c_custkey = o_custkey group by c_custkey"
        .to_string()
}

#[test]
fn budget_below_peak_trips_cleanly_and_database_recovers() {
    let mut db = tpch();
    let sql = buffering_sql();
    let unconstrained = db.execute(&sql).unwrap();
    assert!(!unconstrained.rows.is_empty());

    db.session_mut().settings_mut().mem_limit = Some(256);
    match db.execute(&sql) {
        Err(e) => {
            assert!(e.is_governor(), "structured governor error, got {e:?}");
            match e.root_cause() {
                Error::ResourceExhausted {
                    operator,
                    requested,
                    limit,
                    ..
                } => {
                    assert!(!operator.is_empty(), "blame names an operator");
                    assert!(*requested > 0);
                    assert_eq!(*limit, 256);
                }
                other => panic!("expected ResourceExhausted, got {other:?}"),
            }
        }
        // Cache-shedding may keep a plan under budget; then it must
        // still be correct.
        Ok(r) => assert_eq!(r.rows.len(), unconstrained.rows.len()),
    }

    // Same Database object answers the next query once the budget lifts.
    db.session_mut().settings_mut().mem_limit = None;
    let again = db.execute(&sql).unwrap();
    assert_eq!(again.rows.len(), unconstrained.rows.len());
}

#[test]
fn q17_under_tiny_budget_fails_structured_not_panicking() {
    let mut db = tpch();
    let sql = queries::q17_brand_only("brand#23");
    let clean = db.execute(&sql).unwrap();

    db.session_mut().settings_mut().mem_limit = Some(512);
    for level in OptimizerLevel::ALL {
        match db.execute_with(&sql, level) {
            Err(e) => assert!(
                e.is_governor(),
                "{level:?}: governor error expected, got {e:?}"
            ),
            Ok(r) => assert_eq!(r.rows.len(), clean.rows.len(), "{level:?}"),
        }
    }
    db.session_mut().settings_mut().mem_limit = None;
    assert_eq!(db.execute(&sql).unwrap().rows.len(), clean.rows.len());
}

#[test]
fn generous_budget_is_invisible() {
    let mut db = tpch();
    let sql = buffering_sql();
    let free = db.execute(&sql).unwrap();
    db.session_mut().settings_mut().mem_limit = Some(64 << 20);
    let governed = db.execute(&sql).unwrap();
    assert_eq!(free, governed);
}

#[test]
fn zero_deadline_cancels_and_database_recovers() {
    let db = tpch();
    let sql = buffering_sql();
    let plan = db.plan(&sql, OptimizerLevel::Full).unwrap();
    match db.run_with_context(&plan, QueryContext::new().with_timeout(Duration::ZERO)) {
        Err(Error::Cancelled { operator, .. }) => {
            assert!(!operator.is_empty(), "cancellation blames an operator");
        }
        other => panic!("expected Cancelled, got {other:?}"),
    }
    assert!(!db.execute(&sql).unwrap().rows.is_empty());
}

#[test]
fn configured_timeout_applies_to_every_query() {
    let mut db = tpch();
    db.session_mut().settings_mut().timeout = Some(Duration::ZERO);
    assert!(matches!(
        db.execute(&buffering_sql()),
        Err(Error::Cancelled { .. })
    ));
    db.session_mut().settings_mut().timeout = None;
    assert!(db.execute(&buffering_sql()).is_ok());
}

#[test]
fn explicit_cancel_handle_stops_the_query() {
    let db = tpch();
    let sql = buffering_sql();
    let plan = db.plan(&sql, OptimizerLevel::Full).unwrap();
    let gov = QueryContext::new().with_cancellation();
    let handle = gov.cancel_token().clone();
    handle.cancel();
    assert!(matches!(
        db.run_with_context(&plan, gov),
        Err(Error::Cancelled { .. })
    ));
    // An un-cancelled context on the same plan still works.
    assert!(db.run_with_context(&plan, QueryContext::new()).is_ok());
}

#[test]
fn explain_analyze_reports_governor_peak_and_operator_memory() {
    let mut db = tpch();
    db.session_mut().settings_mut().mem_limit = Some(64 << 20);
    let s = db
        .explain_analyze(&buffering_sql(), OptimizerLevel::Full)
        .unwrap();
    assert!(s.contains("governor: peak "), "{s}");
    assert!(s.contains("B budget"), "{s}");
    assert!(s.contains("mem="), "operator peaks rendered: {s}");
    // Ungoverned runs omit the governor line but keep operator peaks.
    db.session_mut().settings_mut().mem_limit = None;
    let s = db
        .explain_analyze(&buffering_sql(), OptimizerLevel::Full)
        .unwrap();
    assert!(!s.contains("governor: peak"), "{s}");
    assert!(s.contains("mem="), "{s}");
}

#[test]
fn governed_parallel_execution_stays_correct() {
    let mut db = tpch();
    db.session_mut().settings_mut().parallelism = 4;
    let sql = buffering_sql();
    let baseline = db.execute(&sql).unwrap();
    db.session_mut().settings_mut().mem_limit = Some(64 << 20);
    let governed = db.execute(&sql).unwrap();
    assert_eq!(baseline.rows.len(), governed.rows.len());
    db.session_mut().settings_mut().mem_limit = Some(256);
    match db.execute(&sql) {
        Err(e) => assert!(e.is_governor(), "{e:?}"),
        Ok(r) => assert_eq!(r.rows.len(), baseline.rows.len()),
    }
    db.session_mut().settings_mut().mem_limit = None;
    assert_eq!(db.execute(&sql).unwrap().rows.len(), baseline.rows.len());
}
