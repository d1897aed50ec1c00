//! Shared by the conformance suites' parallel legs (each suite is its
//! own test binary).

use orthopt::Database;
use orthopt_exec::{phys_node_labels, OpStats, PhysExpr, Pipeline, PipelineOptions};

/// Compiles `plan` wired the way the server runs it: exchanges fan out
/// on the shared scheduler pool, which needs the catalog behind its
/// `Arc`.
pub fn pooled(db: &Database, plan: &PhysExpr, opts: PipelineOptions, workers: usize) -> Pipeline {
    let mut pipeline = Pipeline::with_options(plan, opts).expect("plan compiles to pipeline");
    pipeline.set_parallelism(workers);
    pipeline.set_shared_catalog(db.shared_catalog());
    pipeline
}

/// Non-vacuity check for a run at `workers > 1`: if any `Exchange` in
/// `plan` produced output, the run must have fanned out on the shared
/// scheduler pool — pool tasks leave `workers >= 1` on the slots they
/// ran, the serial path leaves 0. (`workers` counts *distinct* pool
/// threads, so on a fast plan one thread may legitimately have run
/// every task; the count above 1 is schedule-dependent and not
/// asserted.)
pub fn assert_fanned_out(plan: &PhysExpr, stats: &[OpStats], ctx: &str) {
    let exchange_ran = phys_node_labels(plan)
        .iter()
        .zip(stats)
        .any(|((_, label), s)| label.starts_with("Exchange") && s.batches > 0);
    assert!(
        !exchange_ran || stats.iter().any(|s| s.workers > 0),
        "{ctx}\nan exchange produced rows but no operator reports pool workers"
    );
}
