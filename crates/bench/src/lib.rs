#![warn(missing_docs)]
//! Shared harness utilities for the paper-reproduction benchmarks.
//!
//! The per-experiment index lives in `DESIGN.md`; each bench target and
//! table binary names the paper artifact (figure/table) it regenerates,
//! and `EXPERIMENTS.md` records paper-vs-measured shapes.

use std::sync::Arc;
use std::time::Instant;

use orthopt::common::QueryContext;
use orthopt::{Database, OptimizerLevel, Plan, QueryResult};

/// Builds a TPC-H database at the given scale factor (panics on error:
/// benchmark setup is infallible by construction).
pub fn tpch(scale: f64) -> Database {
    Database::tpch(scale).expect("tpch generation")
}

/// Compiles once (through the plan cache); panics with the query text
/// on failure.
pub fn plan(db: &Database, sql: &str, level: OptimizerLevel) -> Arc<Plan> {
    db.plan(sql, level)
        .unwrap_or_else(|e| panic!("planning {sql}: {e}"))
}

/// Executes a pre-compiled plan.
pub fn run(db: &Database, plan: &Plan) -> QueryResult {
    db.run(plan).expect("execution")
}

/// Wall-clock milliseconds of one execution of a pre-compiled plan.
pub fn time_execution_ms(db: &Database, plan: &Plan) -> f64 {
    let t = Instant::now();
    let result = db.run(plan).expect("execution");
    let elapsed = t.elapsed().as_secs_f64() * 1e3;
    std::hint::black_box(result.rows.len());
    elapsed
}

/// Median of `n` timed executions after one warm-up run (the table
/// binaries' measurement).
pub fn median_ms(db: &Database, plan: &Plan, n: usize) -> f64 {
    let _ = time_execution_ms(db, plan); // warm-up
    let mut samples: Vec<f64> = (0..n.max(1)).map(|_| time_execution_ms(db, plan)).collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Wall-clock milliseconds of one execution under an explicit
/// governance context (fresh clone per run: the pool is shared, but
/// reservations drain between runs).
pub fn time_execution_governed_ms(db: &Database, plan: &Plan, gov: &QueryContext) -> f64 {
    let t = Instant::now();
    let result = db
        .run_with_context(plan, gov.clone())
        .expect("governed execution");
    let elapsed = t.elapsed().as_secs_f64() * 1e3;
    std::hint::black_box(result.rows.len());
    elapsed
}

/// Median of `n` governed executions after one warm-up; used by the
/// E-GOV overhead comparison (governor on vs. off on the same plan).
pub fn median_ms_governed(db: &Database, plan: &Plan, n: usize, gov: &QueryContext) -> f64 {
    let _ = time_execution_governed_ms(db, plan, gov); // warm-up
    let mut samples: Vec<f64> = (0..n.max(1))
        .map(|_| time_execution_governed_ms(db, plan, gov))
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// The `p`-th percentile (0..=100) of a sample set by nearest-rank on
/// the sorted samples; used by the concurrent-client driver for
/// p50/p99 latency. Returns 0 for an empty slice.
pub fn percentile_ms(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Geometric mean (the QphH-analogue used by the Figure 8 table).
pub fn geomean(xs: &[f64]) -> f64 {
    let logs: f64 = xs.iter().map(|x| x.max(1e-9).ln()).sum();
    (logs / xs.len() as f64).exp()
}

/// Prints a markdown-ish table row.
pub fn row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_equal_values_is_the_value() {
        assert!((geomean(&[4.0, 4.0, 4.0]) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn geomean_is_between_min_and_max() {
        let g = geomean(&[1.0, 100.0]);
        assert!(g > 1.0 && g < 100.0);
        assert!((g - 10.0).abs() < 1e-9);
    }

    #[test]
    fn percentile_nearest_rank() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert!((percentile_ms(&xs, 50.0) - 3.0).abs() < 1e-9);
        assert!((percentile_ms(&xs, 99.0) - 5.0).abs() < 1e-9);
        assert!((percentile_ms(&xs, 0.0) - 1.0).abs() < 1e-9);
        assert_eq!(percentile_ms(&[], 50.0), 0.0);
    }

    #[test]
    fn harness_times_a_real_query() {
        let db = tpch(0.002);
        let p = plan(&db, "select count(*) from customer", OptimizerLevel::Full);
        let ms = median_ms(&db, &p, 3);
        assert!(ms >= 0.0);
    }
}
