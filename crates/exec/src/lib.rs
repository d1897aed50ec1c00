#![warn(missing_docs)]
//! Execution engine for `orthopt`.
//!
//! Two executors share one scalar evaluator; each aggregates on its own:
//!
//! * [`mod@reference`] — a *reference interpreter* that executes **logical**
//!   plans directly, including the algebrizer's mutually recursive form
//!   (scalar subqueries evaluated per row, §2.1) and literal per-row
//!   `Apply` loops (§1.3). It is deliberately naive: it serves as the
//!   semantics oracle for every rewrite and as the paper's "correlated
//!   execution" baseline.
//! * [`physical`] + [`pipeline`] — the real engine: physical plans are
//!   compiled into a streaming pull-based [`Pipeline`] of batched
//!   operators (hash joins, hash aggregation, index seeks,
//!   rebind-and-rewind re-execution for `Apply`, segmented execution
//!   for `SegmentApply`), with per-operator [`OpStats`] for
//!   `EXPLAIN ANALYZE`.

pub mod aggregate;
pub mod bindings;
pub mod chunk;
pub mod eval;
pub mod explain_phys;
pub mod faults;
pub mod parallel;
pub mod physical;
pub mod pipeline;
pub mod reference;
pub mod scheduler;
mod sort;
pub mod spill;
pub mod stats;
pub mod vector;

pub use bindings::Bindings;
pub use chunk::Chunk;
pub use explain_phys::{explain_phys, explain_phys_analyze, phys_node_labels};
pub use parallel::{exchange_eligible, place_exchanges, wrap_exchange};
pub use physical::{PhysExpr, PhysPlan};
pub use pipeline::{
    current_op, Batch, ExecCtx, Operator, Pipeline, PipelineOptions, DEFAULT_BATCH_SIZE,
};
pub use reference::Reference;
pub use scheduler::Scheduler;
pub use stats::OpStats;
