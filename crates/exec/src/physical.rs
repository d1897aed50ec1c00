//! Physical operators and their executor.
//!
//! These are the execution-time counterparts the cost-based optimizer
//! chooses among: hash-based joins and aggregation for set-oriented
//! plans, `ApplyLoop` + `IndexSeek` for (re-)introduced correlated
//! execution (§4: "the simplest and most common being index-lookup
//! join"), and `SegmentExec` for segmented execution (§3.4).
//!
//! Execution is streaming: [`Executor::exec`] compiles the operator
//! tree into a pull-based [`Pipeline`](crate::pipeline::Pipeline) of
//! batched operators and drains it. Parameterized operators
//! (`ApplyLoop`, `SegmentExec`) rebind parameters and rewind their
//! inner pipeline per outer row / per segment; see [`crate::pipeline`].

use orthopt_common::column::{rows_to_columns, Column};
use orthopt_common::{ColId, Result, Row, TableId};
use orthopt_ir::{AggDef, ApplyKind, ColumnMeta, GroupKind, JoinKind, ScalarExpr};
use orthopt_storage::Catalog;

use crate::bindings::Bindings;
use crate::chunk::Chunk;
use crate::pipeline::Pipeline;

/// A physical operator tree.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysExpr {
    /// Full scan of a base table.
    TableScan {
        /// Table id.
        table: TableId,
        /// Base-column positions to read.
        positions: Vec<usize>,
        /// Output column ids (parallel to `positions`).
        cols: Vec<ColId>,
    },
    /// Equality probe into a hash index; probe values come from outer
    /// parameters and literals, enabling index-lookup joins.
    IndexSeek {
        /// Table id.
        table: TableId,
        /// Base-column positions to read.
        positions: Vec<usize>,
        /// Output column ids (parallel to `positions`).
        cols: Vec<ColId>,
        /// Indexed base-column positions.
        index_cols: Vec<usize>,
        /// One probe expression per indexed column (parameters/literals
        /// only).
        probes: Vec<ScalarExpr>,
    },
    /// Row filter.
    Filter {
        /// Input.
        input: Box<PhysExpr>,
        /// Predicate.
        predicate: ScalarExpr,
    },
    /// Computes additional columns.
    Compute {
        /// Input.
        input: Box<PhysExpr>,
        /// `(output column, expression)` pairs.
        defs: Vec<(ColId, ScalarExpr)>,
    },
    /// Column pruning/reordering.
    ProjectCols {
        /// Input.
        input: Box<PhysExpr>,
        /// Retained columns in output order.
        cols: Vec<ColId>,
    },
    /// Hash join: builds on the right input, probes with the left. With
    /// no keys it is the nested-loops join: every build row is a
    /// candidate for every probe row and `residual` is the whole
    /// predicate.
    HashJoin {
        /// Join variant.
        kind: JoinKind,
        /// Probe side.
        left: Box<PhysExpr>,
        /// Build side.
        right: Box<PhysExpr>,
        /// Probe-side key columns.
        left_keys: Vec<ColId>,
        /// Build-side key columns.
        right_keys: Vec<ColId>,
        /// Residual predicate evaluated on joined rows.
        residual: ScalarExpr,
    },
    /// Correlated execution (the Apply): runs `right` once per distinct
    /// binding of `params` across the `left` rows, reusing the result
    /// for every row that repeats a binding.
    ApplyLoop {
        /// Combination variant.
        kind: ApplyKind,
        /// Outer input.
        left: Box<PhysExpr>,
        /// Parameterized inner plan.
        right: Box<PhysExpr>,
        /// Outer columns the inner plan references.
        params: Vec<ColId>,
    },
    /// Correlated index-lookup join (§4: "the simplest and most common
    /// being index-lookup join"): a fused unary operator that probes a
    /// storage hash index with every outer lane — a hash-join probe
    /// whose build is the stored table — applies the residual predicate
    /// over outer and fetched columns, and projects the inner layout:
    /// the seek-shaped inner plan collapsed into one operator.
    IndexLookupJoin {
        /// Combination variant.
        kind: ApplyKind,
        /// Outer input.
        left: Box<PhysExpr>,
        /// Probed table.
        table: TableId,
        /// Base-column positions fetched per matching row.
        positions: Vec<usize>,
        /// Layout of fetched rows (parallel to `positions`); the
        /// residual is evaluated over the outer layout followed by this
        /// one.
        fetch_cols: Vec<ColId>,
        /// Indexed base-column positions, canonically sorted ascending.
        index_cols: Vec<usize>,
        /// One probe expression per indexed column (parameters/literals
        /// only).
        probes: Vec<ScalarExpr>,
        /// Residual predicate over fetched rows (`true` when absent).
        residual: ScalarExpr,
        /// Inner output projection (subset of `fetch_cols`).
        cols: Vec<ColId>,
        /// Outer columns the probes/residual reference.
        params: Vec<ColId>,
    },
    /// Segmented execution: hash-partitions the input on the segmenting
    /// columns and runs `inner` once per segment (§3.4).
    SegmentExec {
        /// Input.
        input: Box<PhysExpr>,
        /// Segmenting columns.
        segment_cols: Vec<ColId>,
        /// Per-segment plan (reads the segment via `SegmentScan`).
        inner: Box<PhysExpr>,
        /// Output layout (segment columns then inner extras).
        out_cols: Vec<ColId>,
    },
    /// Reads the current segment, re-exposing selected source columns.
    SegmentScan {
        /// `(output id, source id in the segment)` pairs.
        cols: Vec<(ColId, ColId)>,
    },
    /// Hash aggregation (vector, scalar, or local — identical at
    /// execution time, §3.3).
    HashAggregate {
        /// Grouping flavour.
        kind: GroupKind,
        /// Input.
        input: Box<PhysExpr>,
        /// Grouping columns.
        group_cols: Vec<ColId>,
        /// Aggregates.
        aggs: Vec<AggDef>,
    },
    /// Bag union with positional remapping.
    Concat {
        /// Left input.
        left: Box<PhysExpr>,
        /// Right input.
        right: Box<PhysExpr>,
        /// Output columns.
        cols: Vec<ColId>,
        /// Left source per output column.
        left_map: Vec<ColId>,
        /// Right source per output column.
        right_map: Vec<ColId>,
    },
    /// Bag difference.
    ExceptExec {
        /// Left input.
        left: Box<PhysExpr>,
        /// Right input.
        right: Box<PhysExpr>,
        /// Right column corresponding to each left output column.
        right_map: Vec<ColId>,
    },
    /// Run-time cardinality check (`Max1Row`).
    AssertMax1 {
        /// Input.
        input: Box<PhysExpr>,
    },
    /// Appends a unique integer column (manufactured key).
    RowNumber {
        /// Input.
        input: Box<PhysExpr>,
        /// Output column id.
        col: ColId,
    },
    /// Constant rows, held as columns: a literal relation (cloning the
    /// plan clones `Arc`s, not values).
    ConstScan {
        /// Output columns.
        cols: Vec<ColId>,
        /// One column (possibly a window) per output column, `len`
        /// lanes each.
        columns: Vec<Column>,
        /// Row count (a zero-column relation still has one).
        len: usize,
    },
    /// Presentation sort (total order, NULL first; `true` = descending).
    Sort {
        /// Input.
        input: Box<PhysExpr>,
        /// Sort columns with direction, major first.
        by: Vec<(ColId, bool)>,
    },
    /// Keeps the first `n` rows.
    Limit {
        /// Input.
        input: Box<PhysExpr>,
        /// Maximum rows to emit.
        n: usize,
    },
    /// Parallel-execution boundary: scatters `input` across the worker
    /// pool — one clone per worker over its morsels of the driving
    /// scan, a hash join's build side computed once and shared — and
    /// gathers the workers' batches in task order. `input` is a chain
    /// of per-row operators over a scan, optionally through one keyed
    /// hash join, optionally under a `Local` `HashAggregate` whose
    /// partials a global aggregate *above* the exchange combines (the
    /// paper's LocalGroupBy, §3.3). Runs `input` serially when the
    /// effective parallelism is 1 or `input` is outside that grammar.
    Exchange {
        /// Subtree to parallelize.
        input: Box<PhysExpr>,
    },
    /// Worker-local table scan restricted to row ranges (morsels).
    /// Created only by the exchange runtime, never by the optimizer.
    MorselScan {
        /// Table id.
        table: TableId,
        /// Base-column positions to read.
        positions: Vec<usize>,
        /// Output column ids (parallel to `positions`).
        cols: Vec<ColId>,
        /// Half-open `[start, end)` row ranges this worker owns.
        ranges: Vec<(usize, usize)>,
    },
}

impl PhysExpr {
    /// A [`ConstScan`](PhysExpr::ConstScan) over literal rows,
    /// transposed here, once.
    pub fn const_rows(cols: Vec<ColId>, rows: &[Row]) -> PhysExpr {
        PhysExpr::ConstScan {
            columns: rows_to_columns(rows, cols.len()),
            len: rows.len(),
            cols,
        }
    }

    /// Output column ids, in order.
    pub fn out_cols(&self) -> Vec<ColId> {
        match self {
            PhysExpr::TableScan { cols, .. } | PhysExpr::IndexSeek { cols, .. } => cols.clone(),
            PhysExpr::Filter { input, .. }
            | PhysExpr::AssertMax1 { input }
            | PhysExpr::Limit { input, .. }
            | PhysExpr::Sort { input, .. } => input.out_cols(),
            PhysExpr::Compute { input, defs } => {
                let mut cols = input.out_cols();
                cols.extend(defs.iter().map(|(c, _)| *c));
                cols
            }
            PhysExpr::ProjectCols { cols, .. } => cols.clone(),
            PhysExpr::HashJoin {
                kind, left, right, ..
            } => match kind {
                JoinKind::LeftSemi | JoinKind::LeftAnti => left.out_cols(),
                _ => {
                    let mut cols = left.out_cols();
                    cols.extend(right.out_cols());
                    cols
                }
            },
            PhysExpr::ApplyLoop {
                kind, left, right, ..
            } => match kind {
                ApplyKind::Semi | ApplyKind::Anti => left.out_cols(),
                _ => {
                    let mut cols = left.out_cols();
                    cols.extend(right.out_cols());
                    cols
                }
            },
            PhysExpr::IndexLookupJoin {
                kind, left, cols, ..
            } => match kind {
                ApplyKind::Semi | ApplyKind::Anti => left.out_cols(),
                _ => {
                    let mut out = left.out_cols();
                    out.extend(cols.iter().copied());
                    out
                }
            },
            PhysExpr::SegmentExec { out_cols, .. } => out_cols.clone(),
            PhysExpr::SegmentScan { cols } => cols.iter().map(|(o, _)| *o).collect(),
            PhysExpr::HashAggregate {
                group_cols, aggs, ..
            } => {
                let mut cols = group_cols.clone();
                cols.extend(aggs.iter().map(|a| a.out.id));
                cols
            }
            PhysExpr::Concat { cols, .. } => cols.clone(),
            PhysExpr::ExceptExec { left, .. } => left.out_cols(),
            PhysExpr::RowNumber { input, col } => {
                let mut cols = input.out_cols();
                cols.push(*col);
                cols
            }
            PhysExpr::ConstScan { cols, .. } => cols.clone(),
            PhysExpr::Exchange { input } => input.out_cols(),
            PhysExpr::MorselScan { cols, .. } => cols.clone(),
        }
    }

    /// Number of operators in the plan.
    pub fn node_count(&self) -> usize {
        1 + self
            .children()
            .into_iter()
            .map(PhysExpr::node_count)
            .sum::<usize>()
    }

    /// Child subtrees in execution-id order (left/input before
    /// right/inner): the order the compiler numbers operators and
    /// `explain_phys` prints them.
    pub fn children(&self) -> Vec<&PhysExpr> {
        match self {
            PhysExpr::Filter { input, .. }
            | PhysExpr::Compute { input, .. }
            | PhysExpr::ProjectCols { input, .. }
            | PhysExpr::AssertMax1 { input }
            | PhysExpr::RowNumber { input, .. }
            | PhysExpr::Sort { input, .. }
            | PhysExpr::Limit { input, .. }
            | PhysExpr::Exchange { input }
            | PhysExpr::HashAggregate { input, .. } => vec![input],
            PhysExpr::HashJoin { left, right, .. }
            | PhysExpr::ApplyLoop { left, right, .. }
            | PhysExpr::Concat { left, right, .. }
            | PhysExpr::ExceptExec { left, right, .. } => vec![left, right],
            PhysExpr::IndexLookupJoin { left, .. } => vec![left],
            PhysExpr::SegmentExec { input, inner, .. } => vec![input, inner],
            PhysExpr::TableScan { .. }
            | PhysExpr::IndexSeek { .. }
            | PhysExpr::SegmentScan { .. }
            | PhysExpr::ConstScan { .. }
            | PhysExpr::MorselScan { .. } => vec![],
        }
    }

    /// The same subtrees, mutably, in the same order; plan rewriters
    /// clone a node and recurse into these.
    pub fn children_mut(&mut self) -> Vec<&mut PhysExpr> {
        match self {
            PhysExpr::Filter { input, .. }
            | PhysExpr::Compute { input, .. }
            | PhysExpr::ProjectCols { input, .. }
            | PhysExpr::AssertMax1 { input }
            | PhysExpr::RowNumber { input, .. }
            | PhysExpr::Sort { input, .. }
            | PhysExpr::Limit { input, .. }
            | PhysExpr::Exchange { input }
            | PhysExpr::HashAggregate { input, .. } => vec![input],
            PhysExpr::HashJoin { left, right, .. }
            | PhysExpr::ApplyLoop { left, right, .. }
            | PhysExpr::Concat { left, right, .. }
            | PhysExpr::ExceptExec { left, right, .. } => vec![left, right],
            PhysExpr::IndexLookupJoin { left, .. } => vec![left],
            PhysExpr::SegmentExec { input, inner, .. } => vec![input, inner],
            PhysExpr::TableScan { .. }
            | PhysExpr::IndexSeek { .. }
            | PhysExpr::SegmentScan { .. }
            | PhysExpr::ConstScan { .. }
            | PhysExpr::MorselScan { .. } => vec![],
        }
    }
}

/// A complete physical plan: root operator plus result column metadata
/// (names for presentation).
#[derive(Debug, Clone)]
pub struct PhysPlan {
    /// Root operator.
    pub root: PhysExpr,
    /// Result column metadata, parallel to the root's output layout.
    pub output: Vec<ColumnMeta>,
}

impl PhysPlan {
    /// Executes against a catalog with no outer parameters.
    pub fn run(&self, catalog: &Catalog) -> Result<Chunk> {
        Executor { catalog }.exec(&self.root, &Bindings::new())
    }
}

/// Executes physical plans against a catalog.
pub struct Executor<'a> {
    /// The database.
    pub catalog: &'a Catalog,
}

impl Executor<'_> {
    /// Executes an operator under parameter bindings by compiling it
    /// into a streaming [`Pipeline`] and draining the result.
    ///
    /// Plans executed repeatedly (benchmarks, `EXPLAIN ANALYZE`) should
    /// compile a [`Pipeline`] once and re-`execute` it instead.
    pub fn exec(&self, p: &PhysExpr, binds: &Bindings) -> Result<Chunk> {
        Pipeline::compile(p)?.execute(self.catalog, binds)
    }
}
