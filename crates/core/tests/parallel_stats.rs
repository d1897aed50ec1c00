//! `explain_analyze` conformance under parallel execution: the same
//! exchange-bearing TPC-H plan run serially and at four workers must
//! report identical per-operator row totals and an identical root
//! batch count, produce identical results, and surface the merged
//! per-worker counters only on the parallel run.
//!
//! Per-operator *batch* counts below an exchange legitimately differ
//! under parallelism — each worker rounds its own row share up to
//! whole batches, so the summed count can exceed the serial one — and
//! are deliberately not compared node-by-node.

use orthopt::{Database, OptimizerLevel};
use orthopt_common::row::cmp_rows;
use orthopt_exec::{Bindings, Pipeline};
use orthopt_tpch::queries;

fn tpch_db() -> Database {
    let mut db = Database::tpch(0.01).unwrap();
    db.analyze();
    db
}

fn check_query(db: &mut Database, name: &str, sql: &str) {
    // Plan once with parallelism in the config so the optimizer places
    // exchanges; run that same plan serially and at four workers.
    db.set_parallelism(4);
    let plan = db.plan(sql, OptimizerLevel::Decorrelated).unwrap();
    let rendered = orthopt_exec::explain_phys(&plan.physical);
    assert!(
        rendered.contains("Exchange"),
        "{name}: expected an exchange in the parallel plan\n{rendered}"
    );

    let mut serial = Pipeline::compile(&plan.physical).unwrap();
    let serial_chunk = serial.execute(db.catalog(), &Bindings::new()).unwrap();
    let serial_stats = serial.stats();

    let mut parallel = Pipeline::compile(&plan.physical).unwrap();
    parallel.set_parallelism(4);
    parallel.set_shared_catalog(db.shared_catalog());
    let parallel_chunk = parallel.execute(db.catalog(), &Bindings::new()).unwrap();
    let parallel_stats = parallel.stats();

    // Identical results (as multisets; gather order may differ).
    let mut a = serial_chunk.rows.clone();
    let mut b = parallel_chunk.rows.clone();
    a.sort_by(cmp_rows);
    b.sort_by(cmp_rows);
    assert_eq!(a, b, "{name}: serial and parallel results differ");

    // Identical per-operator row totals, node by node.
    assert_eq!(serial_stats.len(), parallel_stats.len(), "{name}");
    for (i, (s, p)) in serial_stats.iter().zip(&parallel_stats).enumerate() {
        assert_eq!(
            s.rows, p.rows,
            "{name}: node {i} row totals differ (serial {} vs parallel {})",
            s.rows, p.rows
        );
    }
    // Identical batch count at the root (the exchange re-batches its
    // gathered output, so above every exchange batching is canonical).
    assert_eq!(
        serial_stats[0].batches, parallel_stats[0].batches,
        "{name}: root batch counts differ"
    );
    // Worker counters appear exactly on the parallel run.
    assert!(
        serial_stats.iter().all(|s| s.workers == 0),
        "{name}: serial run reported workers"
    );
    assert!(
        parallel_stats.iter().any(|s| s.workers > 0),
        "{name}: parallel run reported no workers"
    );

    // The user-facing explain_analyze shows the merged counters.
    let analyzed = db
        .explain_analyze(sql, OptimizerLevel::Decorrelated)
        .unwrap();
    assert!(analyzed.contains("workers="), "{name}:\n{analyzed}");
    db.set_parallelism(1);
    let analyzed = db
        .explain_analyze(sql, OptimizerLevel::Decorrelated)
        .unwrap();
    assert!(!analyzed.contains("workers="), "{name}:\n{analyzed}");
}

#[test]
fn q2_stats_agree_serial_vs_parallel() {
    let mut db = tpch_db();
    check_query(&mut db, "Q2", &queries::q2_default());
}

#[test]
fn q17_stats_agree_serial_vs_parallel() {
    let mut db = tpch_db();
    check_query(&mut db, "Q17", &queries::q17_brand_only("brand#23"));
}
