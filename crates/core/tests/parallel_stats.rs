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

/// The `agg_par2` shape: a grouped aggregate over lineitem with COUNT,
/// SUM, AVG, MIN and one DISTINCT, at low and high group cardinality.
/// Parallel runs equal the serial one, and the workers take the same
/// lane-fed path the serial aggregate takes: every node under the
/// exchange — the aggregate's own slot included — reports kernels and
/// no bridge.
#[test]
fn partial_aggregation_parity_and_kernel_path() {
    let mut db = tpch_db();
    for group in ["l_returnflag", "l_partkey"] {
        let sql = format!(
            "select {group}, count(*), sum(l_quantity), avg(l_extendedprice), \
             min(l_shipdate), count(distinct l_linestatus) from lineitem group by {group}"
        );
        db.set_parallelism(1);
        let mut serial = db.execute(&sql).unwrap().rows;
        serial.sort_by(cmp_rows);
        for workers in [1, 2, 4] {
            db.set_parallelism(workers);
            let result = db.execute(&sql).unwrap();
            // Partial sums of cent-valued prices reassociate; everything
            // else is exact.
            assert!(
                orthopt_common::row::bag_eq_approx(&serial, &result.rows, 1e-9),
                "{group} at parallelism {workers} diverged from serial"
            );
        }

        db.set_parallelism(2);
        let plan = db.plan(&sql, OptimizerLevel::Full).unwrap();
        let labels = orthopt_exec::phys_node_labels(&plan.physical);
        let exchange = labels
            .iter()
            .position(|(_, label)| label.starts_with("Exchange"))
            .unwrap_or_else(|| panic!("{group}: no exchange placed\n{labels:?}"));
        assert!(
            labels[exchange + 1].1.starts_with("HashAggregate"),
            "{group}: expected partial aggregation under the exchange\n{labels:?}"
        );
        let mut pipeline = Pipeline::compile(&plan.physical).unwrap();
        pipeline.set_parallelism(2);
        pipeline.set_shared_catalog(db.shared_catalog());
        pipeline.execute(db.catalog(), &Bindings::new()).unwrap();
        let stats = pipeline.stats();
        // The exchanged subtree is the rest of the plan: the aggregate
        // and its scan chain.
        for (i, s) in stats.iter().enumerate().skip(exchange + 1) {
            assert!(
                s.kernels > 0 && s.bridged == 0,
                "{group}: node {i} ({}) kernels={} bridged={}",
                labels[i].1,
                s.kernels,
                s.bridged
            );
            // `workers` counts distinct pool threads, so 2 is the
            // ceiling, not a promise: one thread may run both tasks.
            assert!((1..=2).contains(&s.workers), "{group}: node {i}");
        }
        let analyzed = db.explain_analyze(&sql, OptimizerLevel::Full).unwrap();
        assert!(analyzed.contains("workers="), "{group}:\n{analyzed}");
        assert!(analyzed.contains("kernels="), "{group}:\n{analyzed}");
        assert!(!analyzed.contains("bridged="), "{group}:\n{analyzed}");
    }
}
