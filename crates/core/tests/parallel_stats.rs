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
    db.session_mut().settings_mut().parallelism = 4;
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
    db.session_mut().settings_mut().parallelism = 1;
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

/// Where the exchange sits relative to the plan's aggregates: labels of
/// the node right above and right below the (one) exchange.
fn around_exchange(labels: &[(usize, String)]) -> (&str, &str) {
    let at = labels
        .iter()
        .position(|(_, label)| label.starts_with("Exchange"))
        .unwrap_or_else(|| panic!("no exchange placed\n{labels:?}"));
    (&labels[at - 1].1, &labels[at + 1].1)
}

/// The `agg_par2` shape: a grouped aggregate over lineitem with COUNT,
/// SUM, AVG and MIN, at low and high group cardinality. Parallel
/// aggregation is the optimizer's §3.3 split — a Local aggregate under
/// the exchange, its combiner above — so parallel runs equal the serial
/// one, and each worker's Local aggregate is the serial operator on the
/// lane-fed path: every node under the exchange reports kernels and no
/// bridge, from the workers' own counters.
#[test]
fn partial_aggregation_parity_and_kernel_path() {
    let mut db = tpch_db();
    for group in ["l_returnflag", "l_partkey"] {
        let sql = format!(
            "select {group}, count(*), sum(l_quantity), avg(l_extendedprice), \
             min(l_shipdate) from lineitem group by {group}"
        );
        db.session_mut().settings_mut().parallelism = 1;
        let mut serial = db.execute(&sql).unwrap().rows;
        serial.sort_by(cmp_rows);
        for workers in [1, 2, 4] {
            db.session_mut().settings_mut().parallelism = workers;
            let result = db.execute(&sql).unwrap();
            // Partial sums of cent-valued prices reassociate; everything
            // else is exact.
            assert!(
                orthopt_common::row::bag_eq_approx(&serial, &result.rows, 1e-9),
                "{group} at parallelism {workers} diverged from serial"
            );
        }

        db.session_mut().settings_mut().parallelism = 2;
        let plan = db.plan(&sql, OptimizerLevel::Full).unwrap();
        let labels = orthopt_exec::phys_node_labels(&plan.physical);
        let (above, below) = around_exchange(&labels);
        assert!(
            above.starts_with("HashAggregate(Vector)") && below.starts_with("HashAggregate(Local)"),
            "{group}: expected the local/global split around the exchange\n{labels:?}"
        );
        let exchange = labels.iter().position(|(_, l)| l == "Exchange").unwrap();
        let mut pipeline = Pipeline::compile(&plan.physical).unwrap();
        pipeline.set_parallelism(2);
        pipeline.set_shared_catalog(db.shared_catalog());
        pipeline.execute(db.catalog(), &Bindings::new()).unwrap();
        let stats = pipeline.stats();
        // The exchanged subtree is the rest of the plan: the Local
        // aggregate and its scan chain.
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

/// Which aggregates split around an exchange, through SQL: a Vector
/// and a Scalar aggregate plan as global ∘ `Exchange` ∘ Local (the
/// Scalar one under its `COUNT(∅) = 0` compensation), an aggregate with
/// a DISTINCT keeps one serial `HashAggregate` over a pipelined
/// exchange of its input, and all of them answer as the reference
/// interpreter does — on TPC-H, on an input no row of which passes the
/// filter, and on an empty table (where no exchange pays).
#[test]
fn aggregates_split_around_the_exchange() {
    use orthopt::common::row::bag_eq_approx;
    use orthopt::common::Value::{Int, Null};
    let empty = orthopt_rewrite::testgen::build_catalog(&[], &[]);
    for (mut db, table, [g, v, d], exchanged) in [
        (
            tpch_db(),
            "lineitem",
            ["l_returnflag", "l_quantity", "l_linestatus"],
            true,
        ),
        (
            Database::from_catalog(empty),
            "s",
            ["sr", "sv", "sk"],
            false,
        ),
    ] {
        let scalar =
            format!("select count(*), count({v}), sum({v}), min({v}), max({v}) from {table}");
        let cases = [
            (
                format!("select {g}, count(*), sum({v}), min({v}) from {table} group by {g}"),
                "HashAggregate(Vector)",
            ),
            (scalar.clone(), "HashAggregate(Scalar)"),
            (format!("{scalar} where {v} < 0"), "HashAggregate(Scalar)"),
            (
                format!("select {g}, count(distinct {d}), sum({v}) from {table} group by {g}"),
                "",
            ),
        ];
        for (sql, global) in &cases {
            let expected = db.execute_reference(sql).unwrap().rows;
            for workers in [2, 4] {
                db.session_mut().settings_mut().parallelism = workers;
                let ctx = format!("{sql} at parallelism {workers}");
                let got = db.execute_with(sql, OptimizerLevel::Full).unwrap().rows;
                assert!(bag_eq_approx(&expected, &got, 1e-9), "{ctx}\n{got:?}");
                if sql.ends_with("< 0") {
                    assert_eq!(got, [[Int(0), Int(0), Null, Null, Null]], "{ctx}");
                }
                if !exchanged {
                    continue;
                }
                let plan = db.plan(sql, OptimizerLevel::Full).unwrap();
                let labels = orthopt_exec::phys_node_labels(&plan.physical);
                let (above, below) = around_exchange(&labels);
                if global.is_empty() {
                    let aggregates = labels
                        .iter()
                        .filter(|(_, l)| l.starts_with("HashAggregate"));
                    assert_eq!(aggregates.count(), 1, "{ctx}\n{labels:?}");
                    assert!(
                        above.starts_with("HashAggregate(Vector)"),
                        "{ctx}\n{labels:?}"
                    );
                } else {
                    assert!(
                        above.starts_with(global) && below.starts_with("HashAggregate(Local)"),
                        "{ctx}\n{labels:?}"
                    );
                }
            }
        }
    }
}
