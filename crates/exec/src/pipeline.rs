//! Streaming pull-based execution pipeline.
//!
//! [`Pipeline::compile`] turns a [`PhysExpr`] tree into a tree of
//! [`Operator`]s driven Volcano-style: `open` resets state,
//! `next_batch` pulls up to [`DEFAULT_BATCH_SIZE`] rows at a time, and
//! `close` reports [`OpStats`]. Column layouts are compiled once into
//! `Rc<[ColId]>` plus positional indices, so batches flow between
//! operators without re-resolving columns or deep-cloning layouts.
//!
//! Pipeline breakers (hash-join build, aggregation, sort) keep state
//! across batches. Parameterized scopes (`ApplyLoop` inner plans,
//! `SegmentExec` inner plans) are *rebound and rewound*: the parent
//! re-`open`s the inner subtree per outer row / per segment. At compile
//! time a free-variable analysis finds inner subtrees that reference no
//! outer parameter and no outer segment; those are wrapped in a
//! [`CacheOp`] that materializes once and replays on every rewind, and
//! stable hash-join builds / nested-loop inner sides are kept across
//! re-opens.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use orthopt_common::column::{
    cols_bytes, columns_to_rows, rows_to_columns, Bitmap, ColData, Column, ColumnData,
};
use orthopt_common::row::rows_bytes;
use orthopt_common::{ColId, Error, MemoryReservation, QueryContext, Result, Row, TableId, Value};
use orthopt_ir::{AggDef, ApplyKind, GroupKind, JoinKind, ScalarExpr};
use orthopt_storage::Catalog;

use crate::aggregate::{FeedOutcome, GroupedAggState};
use crate::bindings::Bindings;
use crate::chunk::Chunk;
use crate::eval::{eval, eval_predicate, EvalCtx, PosMap};
use crate::physical::PhysExpr;
use crate::sort::SortOp;
use crate::spill::{
    partition_of, SpillFile, SpillManager, SpillPartitions, FANOUT, MAX_SPILL_DEPTH,
};
use crate::stats::OpStats;
use crate::vector::{
    dedup_lanes, eval_column, hash_lanes, hash_values, keys_valid, lane_row, selected_true, VecEval,
};

/// Default maximum number of rows per batch.
pub const DEFAULT_BATCH_SIZE: usize = 1024;

/// Hint attached to `ResourceExhausted` refusals at sites that cannot
/// degrade any further (spilling is already active, or the operator has
/// no disk fallback at all).
pub(crate) const MEM_HINT: &str = "raise ORTHOPT_MEM_LIMIT / SET mem_limit";

/// Hint attached to refusals at sites that *could* have spilled but had
/// spilling disabled.
pub(crate) const MEM_OR_SPILL_HINT: &str =
    "raise ORTHOPT_MEM_LIMIT / SET mem_limit, or enable spilling (SET spill = on)";

/// Physical representation of the data carried by a [`Batch`].
#[derive(Debug, Clone, PartialEq)]
pub enum Repr {
    /// Row-major: one `Vec<Value>` per row.
    Rows(Vec<Row>),
    /// Column-major: one [`Column`] per layout position, all of length
    /// `len`.
    Columns {
        /// Per-column data, positionally matching the layout.
        columns: Vec<Column>,
        /// Row count, kept explicitly so zero-column batches still
        /// carry a length.
        len: usize,
    },
}

/// A bounded slice of rows flowing through the pipeline; the layout is
/// shared by reference with the producing operator. The payload is
/// either row-major or column-major ([`Repr`]); operators dispatch on
/// the representation they receive and may convert with
/// [`Batch::into_rows`] / [`Batch::to_columnar`].
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    /// Column ids, positionally matching each row / column.
    pub cols: Rc<[ColId]>,
    /// The payload, row-major or column-major.
    pub repr: Repr,
}

impl Batch {
    /// Builds a row-major batch, checking row arity against the layout
    /// in debug builds.
    pub fn new(cols: Rc<[ColId]>, rows: Vec<Row>) -> Batch {
        debug_assert!(
            rows.iter().all(|r| r.len() == cols.len()),
            "batch arity mismatch: layout has {} columns",
            cols.len()
        );
        Batch {
            cols,
            repr: Repr::Rows(rows),
        }
    }

    /// Builds a column-major batch, checking column count and lengths
    /// in debug builds.
    pub fn from_columns(cols: Rc<[ColId]>, columns: Vec<Column>, len: usize) -> Batch {
        debug_assert_eq!(
            columns.len(),
            cols.len(),
            "batch arity mismatch: layout has {} columns",
            cols.len()
        );
        debug_assert!(
            columns.iter().all(|c| c.len() == len),
            "batch column length mismatch: expected {len} lanes"
        );
        Batch {
            cols,
            repr: Repr::Columns { columns, len },
        }
    }

    /// Checks that the layout and every row / column have exactly
    /// `width` columns. Stateful operators call this before
    /// concatenating a batch into their buffers: `Batch`'s fields are
    /// public, so a malformed literal can bypass the constructors'
    /// arity checks and would otherwise corrupt buffered state
    /// silently. Unlike those `debug_assert`s, this runs in release
    /// builds too and reports through [`Error::Internal`] rather than
    /// panicking — a malformed batch aborts the query, not the process.
    pub fn check_width(&self, width: usize) -> Result<()> {
        if self.cols.len() != width {
            return Err(Error::internal(format!(
                "batch layout width mismatch: expected {width} columns, layout has {}",
                self.cols.len()
            )));
        }
        match &self.repr {
            Repr::Rows(rows) => {
                if let Some(r) = rows.iter().find(|r| r.len() != width) {
                    return Err(Error::internal(format!(
                        "batch row arity mismatch: expected {width} columns, row has {}",
                        r.len()
                    )));
                }
            }
            Repr::Columns { columns, len } => {
                if columns.len() != width {
                    return Err(Error::internal(format!(
                        "batch column arity mismatch: expected {width} columns, got {}",
                        columns.len()
                    )));
                }
                if let Some(c) = columns.iter().find(|c| c.len() != *len) {
                    return Err(Error::internal(format!(
                        "batch column length mismatch: expected {len} lanes, column has {}",
                        c.len()
                    )));
                }
            }
        }
        Ok(())
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Rows(rows) => rows.len(),
            Repr::Columns { len, .. } => *len,
        }
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when the payload is column-major.
    pub fn is_columnar(&self) -> bool {
        matches!(self.repr, Repr::Columns { .. })
    }

    /// The column-major payload, or `None` for a row-major batch.
    pub fn columns(&self) -> Option<(&[Column], usize)> {
        match &self.repr {
            Repr::Columns { columns, len } => Some((columns, *len)),
            Repr::Rows(_) => None,
        }
    }

    /// Consumes the batch into row-major form, transposing a columnar
    /// payload. Operators that count bridges go through
    /// [`StatsHandle::bridge_rows`] instead.
    pub fn into_rows(self) -> Vec<Row> {
        match self.repr {
            Repr::Rows(rows) => rows,
            Repr::Columns { columns, len } => columns_to_rows(&columns, len),
        }
    }

    /// Consumes the batch into column-major form, transposing a
    /// row-major payload.
    pub fn into_columns(self) -> (Vec<Column>, usize) {
        let width = self.cols.len();
        match self.repr {
            Repr::Columns { columns, len } => (columns, len),
            Repr::Rows(rows) => {
                let len = rows.len();
                (rows_to_columns(&rows, width), len)
            }
        }
    }

    /// Returns the batch in column-major form (no-op when it already
    /// is).
    pub fn to_columnar(self) -> Batch {
        let cols = self.cols.clone();
        let (columns, len) = self.into_columns();
        Batch::from_columns(cols, columns, len)
    }

    /// Bytes charged against memory reservations for this batch.
    /// Columnar batches charge exactly what the equivalent rows would
    /// ([`cols_bytes`] mirrors [`rows_bytes`]), so budget trips do not
    /// depend on the representation that happened to flow.
    pub fn mem_bytes(&self) -> u64 {
        match &self.repr {
            Repr::Rows(rows) => rows_bytes(rows),
            Repr::Columns { columns, len } => cols_bytes(columns, *len),
        }
    }
}

/// Column batches held outside a [`Batch`] — buffered by Sort, carried
/// across threads by the exchange — as `(columns, lane count)`.
/// [`Column`] is `Arc`-backed, so these are `Send` and share storage
/// with whatever they were sliced from.
pub(crate) type ColumnBatches = Vec<(Vec<Column>, usize)>;

/// A cheap clonable handle onto one operator's [`OpStats`] slot.
/// Operators use it to count vectorized kernel invocations
/// (`kernels`) and columnar→row bridge conversions (`bridged`) without
/// holding a borrow on the shared registry.
#[derive(Clone)]
pub(crate) struct StatsHandle {
    stats: Rc<RefCell<Vec<OpStats>>>,
    id: usize,
}

impl StatsHandle {
    pub(crate) fn new(stats: Rc<RefCell<Vec<OpStats>>>, id: usize) -> StatsHandle {
        StatsHandle { stats, id }
    }

    /// Counts one vectorized kernel invocation.
    pub(crate) fn note_kernel(&self) {
        self.stats.borrow_mut()[self.id].kernels += 1;
    }

    /// Counts one columnar→row bridge conversion.
    fn note_bridge(&self) {
        self.stats.borrow_mut()[self.id].bridged += 1;
    }

    /// Counts one distinct correlation binding actually executed (a
    /// binding-cache miss in `BatchedApply`/`IndexLookupJoin`).
    fn note_distinct_binding(&self) {
        self.stats.borrow_mut()[self.id].distinct_bindings += 1;
    }

    /// Counts one hash-index probe issued by `IndexLookupJoin`.
    fn note_index_probe(&self) {
        self.stats.borrow_mut()[self.id].index_probes += 1;
    }

    /// Records spill activity: partition files written and the bytes
    /// that went to disk.
    pub(crate) fn note_spill(&self, partitions: u64, bytes: u64) {
        let mut stats = self.stats.borrow_mut();
        let s = &mut stats[self.id];
        s.spill_partitions += partitions;
        s.spilled_bytes += bytes;
    }

    /// Max-folds a memory peak into the slot (used by operators that
    /// are not themselves metered nodes, e.g. the rewind cache).
    fn note_mem_peak(&self, peak: u64) {
        let mut stats = self.stats.borrow_mut();
        let s = &mut stats[self.id];
        s.mem_peak = s.mem_peak.max(peak);
    }

    /// Converts a batch to rows, counting a bridge when it was
    /// columnar. This is the accounting boundary row-only operators
    /// pull batches through.
    fn bridge_rows(&self, b: Batch) -> Vec<Row> {
        if b.is_columnar() {
            self.note_bridge();
        }
        b.into_rows()
    }
}

/// Everything an operator needs at run time: the catalog plus the
/// current parameter bindings (shared so parameterized parents can
/// rebind between re-opens).
pub struct ExecCtx<'a> {
    /// The database.
    pub catalog: &'a Catalog,
    /// Scalar parameters and segment stack.
    pub binds: Rc<RefCell<Bindings>>,
    /// Worker-pool size exchange operators may fan out to (1 = serial).
    pub parallelism: usize,
    /// Per-query resource governance (memory budget + cancellation);
    /// ungoverned by default.
    pub gov: QueryContext,
    /// Shared-ownership handle on the same catalog, when the caller has
    /// one (the `Database`/session path). Exchange operators need it to
    /// hand `'static` tasks to the process-wide
    /// [`Scheduler`](crate::scheduler::Scheduler); without it an
    /// exchange at `parallelism > 1` is an internal error.
    pub shared_catalog: Option<Arc<Catalog>>,
    /// This execution's spill scope. Created fresh per execution and
    /// dropped when it ends, so partition files never outlive the query
    /// — including on error, cancellation, and panic paths (unwinding
    /// drops the context). Inner scopes (`ApplyLoop`, `BatchedApply`,
    /// `SegmentExec`) share the parent's scope.
    pub spill: Rc<SpillManager>,
}

impl<'a> ExecCtx<'a> {
    /// A context over fresh bindings, serial and ungoverned by default.
    pub fn new(catalog: &'a Catalog, binds: Bindings) -> ExecCtx<'a> {
        ExecCtx {
            catalog,
            binds: Rc::new(RefCell::new(binds)),
            parallelism: 1,
            gov: QueryContext::default(),
            shared_catalog: None,
            spill: Rc::new(SpillManager::new()),
        }
    }
}

thread_local! {
    /// `(pre-order id, operator name)` of the operator most recently
    /// entered on this thread — consulted by panic handlers to attach
    /// an operator path to converted panics.
    static CURRENT_OP: Cell<Option<(usize, &'static str)>> = const { Cell::new(None) };
}

/// The `(pre-order id, name)` of the operator most recently entered on
/// the calling thread, if any. Panic-isolation boundaries read this to
/// blame the operator a caught panic unwound out of.
pub fn current_op() -> Option<(usize, &'static str)> {
    CURRENT_OP.with(Cell::get)
}

pub(crate) fn note_current_op(id: usize, name: &'static str) {
    CURRENT_OP.with(|c| c.set(Some((id, name))));
}

/// A streaming physical operator.
///
/// Lifecycle: `open` (re)initializes state — it may be called again
/// after exhaustion to rewind, possibly under different parameter
/// bindings; `next_batch` returns `None` once exhausted; `close`
/// reports the stats accumulated since the pipeline started.
pub trait Operator {
    /// (Re)initializes the operator; called before the first
    /// `next_batch` and again on every rewind.
    fn open(&mut self, ctx: &ExecCtx<'_>) -> Result<()>;
    /// Produces the next batch, or `None` when exhausted.
    fn next_batch(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<Batch>>;
    /// Reports accumulated stats (meaningful on metered nodes).
    fn close(&mut self) -> OpStats {
        OpStats::default()
    }
    /// Peak bytes held by this operator's memory reservation; 0 for
    /// non-buffering operators.
    fn mem_peak(&self) -> u64 {
        0
    }
}

pub(crate) type BoxOp = Box<dyn Operator>;

/// Compile-time knobs for a [`Pipeline`]. Session-scoped settings that
/// must be baked into the compiled operators (rather than read from
/// process-global state at execution time) live here, so two sessions
/// with different settings can run concurrently in one process.
#[derive(Debug, Clone, Copy)]
pub struct PipelineOptions {
    /// Rows per batch (min 1).
    pub batch_size: usize,
    /// Spill-to-disk toggle for this pipeline; `None` defers to the
    /// process-global [`spill_enabled`](crate::spill::spill_enabled).
    /// When off, refused reservations fail with a hinted
    /// `ResourceExhausted` instead of degrading.
    pub spill: Option<bool>,
}

impl Default for PipelineOptions {
    fn default() -> PipelineOptions {
        PipelineOptions {
            batch_size: DEFAULT_BATCH_SIZE,
            spill: None,
        }
    }
}

/// A compiled streaming plan plus its stats registry.
pub struct Pipeline {
    root: BoxOp,
    cols: Rc<[ColId]>,
    stats: Rc<RefCell<Vec<OpStats>>>,
    cached: Vec<usize>,
    batch_size: usize,
    parallelism: usize,
    gov: QueryContext,
    shared_catalog: Option<Arc<Catalog>>,
}

impl Pipeline {
    /// Compiles a physical plan with the default batch size.
    pub fn compile(plan: &PhysExpr) -> Result<Pipeline> {
        Pipeline::with_batch_size(plan, DEFAULT_BATCH_SIZE)
    }

    /// Compiles a physical plan with an explicit batch size (min 1).
    pub fn with_batch_size(plan: &PhysExpr, batch_size: usize) -> Result<Pipeline> {
        Pipeline::with_options(
            plan,
            PipelineOptions {
                batch_size,
                ..PipelineOptions::default()
            },
        )
    }

    /// Compiles a physical plan with explicit [`PipelineOptions`].
    pub fn with_options(plan: &PhysExpr, opts: PipelineOptions) -> Result<Pipeline> {
        let spill = opts.spill.unwrap_or_else(crate::spill::spill_enabled);
        let mut c = Compiler {
            batch_size: opts.batch_size.max(1),
            stats: Rc::new(RefCell::new(Vec::new())),
            next_id: 0,
            cached: Vec::new(),
            spill,
        };
        let root = c.compile(plan, false)?;
        Ok(Pipeline {
            root,
            cols: rc_cols(&plan.out_cols()),
            stats: c.stats,
            cached: c.cached,
            batch_size: opts.batch_size.max(1),
            parallelism: 1,
            gov: QueryContext::default(),
            shared_catalog: None,
        })
    }

    /// Installs a shared-ownership handle on the catalog this pipeline
    /// will execute against. Required before executing a plan with
    /// `Exchange` nodes at parallelism > 1: worker tasks on the
    /// process-wide [`Scheduler`](crate::Scheduler) capture the `Arc`.
    /// Executions must pass the same catalog.
    pub fn set_shared_catalog(&mut self, catalog: Arc<Catalog>) {
        self.shared_catalog = Some(catalog);
    }

    /// Sets the worker-pool size exchange operators fan out to on the
    /// next execution (min 1; plans without `Exchange` nodes ignore it).
    pub fn set_parallelism(&mut self, n: usize) {
        self.parallelism = n.max(1);
    }

    /// The configured worker-pool size.
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// Installs the per-query governance context (memory budget and
    /// cancellation token) used by subsequent executions. The default
    /// context is ungoverned.
    pub fn set_governor(&mut self, gov: QueryContext) {
        self.gov = gov;
    }

    /// The installed governance context.
    pub fn governor(&self) -> &QueryContext {
        &self.gov
    }

    /// Runs the pipeline to completion, materializing the result.
    /// Stats are reset at the start of each execution.
    pub fn execute(&mut self, catalog: &Catalog, binds: &Bindings) -> Result<Chunk> {
        let mut rows = Vec::new();
        self.execute_each(catalog, binds, |b| {
            rows.extend(b.into_rows());
            Ok(())
        })?;
        Ok(Chunk::new(self.cols.to_vec(), rows))
    }

    /// Runs the pipeline to completion, handing each produced batch to
    /// `f` instead of materializing — the streaming entry point the
    /// exchange runtime drives worker pipelines through. Stats are
    /// reset at the start of each execution.
    pub fn execute_each(
        &mut self,
        catalog: &Catalog,
        binds: &Bindings,
        mut f: impl FnMut(Batch) -> Result<()>,
    ) -> Result<()> {
        for s in self.stats.borrow_mut().iter_mut() {
            *s = OpStats::default();
        }
        let ctx = ExecCtx {
            catalog,
            binds: Rc::new(RefCell::new(binds.clone())),
            parallelism: self.parallelism,
            gov: self.gov.clone(),
            shared_catalog: self.shared_catalog.clone(),
            // A fresh spill scope per execution; dropping `ctx` at the
            // end of this call removes its temp directory, success or
            // not, so spill files cannot outlive the execution even
            // though the compiled pipeline itself is cached and reused.
            spill: Rc::new(SpillManager::new()),
        };
        let run = (|| {
            self.root.open(&ctx)?;
            while let Some(b) = self.root.next_batch(&ctx)? {
                b.check_width(self.cols.len())?;
                f(b)?;
            }
            Ok(())
        })();
        // Close unconditionally: stats (including memory peaks) must be
        // recorded and buffers released on the error path too, so the
        // pipeline is reusable after a budget trip or cancellation.
        self.root.close();
        run
    }

    /// Output layout of the root operator.
    pub fn out_cols(&self) -> &[ColId] {
        &self.cols
    }

    /// Per-operator stats, indexed by pre-order node id (the order
    /// `explain_phys` prints nodes in).
    pub fn stats(&self) -> Vec<OpStats> {
        self.stats.borrow().clone()
    }

    /// Pre-order ids of subtree roots that were compiled behind a
    /// one-time materialization cache.
    pub fn cached_nodes(&self) -> &[usize] {
        &self.cached
    }

    /// Number of operators in the compiled plan.
    pub fn node_count(&self) -> usize {
        self.stats.borrow().len()
    }

    /// The batch size the pipeline was compiled with.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }
}

fn rc_cols(cols: &[ColId]) -> Rc<[ColId]> {
    cols.into()
}

fn pos_of(layout: &[ColId], id: ColId) -> Result<usize> {
    layout
        .iter()
        .position(|c| *c == id)
        .ok_or_else(|| Error::internal(format!("column {id} missing from operator layout")))
}

/// Takes up to `batch_size` rows off the front of `pending`, in time
/// proportional to the rows taken (not to the rows left behind).
pub(crate) fn drain_pending(
    pending: &mut VecDeque<Row>,
    batch_size: usize,
    cols: &Rc<[ColId]>,
) -> Option<Batch> {
    if pending.is_empty() {
        return None;
    }
    let take = batch_size.min(pending.len());
    Some(Batch::new(cols.clone(), pending.drain(..take).collect()))
}

// ---------------------------------------------------------------------
// Free-variable analysis for rebind-and-rewind caching.
// ---------------------------------------------------------------------

/// What a subtree needs from its enclosing parameter scope.
#[derive(Debug, Default)]
pub(crate) struct FreeSet {
    /// Column ids resolved through outer bindings.
    cols: BTreeSet<ColId>,
    /// True if the subtree reads a segment bound outside it.
    segment: bool,
}

impl FreeSet {
    pub(crate) fn is_invariant(&self) -> bool {
        self.cols.is_empty() && !self.segment
    }

    fn union(mut self, other: FreeSet) -> FreeSet {
        self.cols.extend(other.cols);
        self.segment |= other.segment;
        self
    }

    /// Adds the references of `exprs` that `provided` does not supply.
    fn add_exprs<'e>(
        mut self,
        exprs: impl IntoIterator<Item = &'e ScalarExpr>,
        provided: &[ColId],
    ) -> FreeSet {
        for e in exprs {
            for c in e.cols() {
                if !provided.contains(&c) {
                    self.cols.insert(c);
                }
            }
        }
        self
    }
}

/// Computes the outer parameters and segments a subtree depends on.
/// A subtree with an empty [`FreeSet`] produces the same result on
/// every rewind, so its materialization can be cached.
pub(crate) fn free_inputs(p: &PhysExpr) -> FreeSet {
    match p {
        PhysExpr::TableScan { .. } | PhysExpr::ConstScan { .. } | PhysExpr::MorselScan { .. } => {
            FreeSet::default()
        }
        PhysExpr::Exchange { input } => free_inputs(input),
        PhysExpr::IndexSeek { probes, .. } => FreeSet::default().add_exprs(probes, &[]),
        PhysExpr::Filter { input, predicate } => {
            free_inputs(input).add_exprs([predicate], &input.out_cols())
        }
        PhysExpr::Compute { input, defs } => {
            free_inputs(input).add_exprs(defs.iter().map(|(_, e)| e), &input.out_cols())
        }
        PhysExpr::ProjectCols { input, .. }
        | PhysExpr::AssertMax1 { input }
        | PhysExpr::RowNumber { input, .. }
        | PhysExpr::Sort { input, .. }
        | PhysExpr::Limit { input, .. } => free_inputs(input),
        PhysExpr::HashJoin {
            left,
            right,
            residual,
            ..
        } => {
            let mut provided = left.out_cols();
            provided.extend(right.out_cols());
            free_inputs(left)
                .union(free_inputs(right))
                .add_exprs([residual], &provided)
        }
        PhysExpr::NLJoin {
            left,
            right,
            predicate,
            ..
        } => {
            let mut provided = left.out_cols();
            provided.extend(right.out_cols());
            free_inputs(left)
                .union(free_inputs(right))
                .add_exprs([predicate], &provided)
        }
        PhysExpr::ApplyLoop {
            left,
            right,
            params,
            ..
        }
        | PhysExpr::BatchedApply {
            left,
            right,
            params,
            ..
        } => {
            let mut inner = free_inputs(right);
            for p in params {
                inner.cols.remove(p);
            }
            free_inputs(left).union(inner)
        }
        PhysExpr::IndexLookupJoin {
            left,
            fetch_cols,
            probes,
            residual,
            params,
            ..
        } => {
            let mut inner = FreeSet::default()
                .add_exprs(probes.iter().chain(std::iter::once(residual)), fetch_cols);
            for p in params {
                inner.cols.remove(p);
            }
            free_inputs(left).union(inner)
        }
        PhysExpr::SegmentExec { input, inner, .. } => {
            // The inner plan's segment reads are bound by this node.
            let mut fin = free_inputs(inner);
            fin.segment = false;
            free_inputs(input).union(fin)
        }
        PhysExpr::SegmentScan { .. } => FreeSet {
            cols: BTreeSet::new(),
            segment: true,
        },
        PhysExpr::HashAggregate { input, aggs, .. } => free_inputs(input).add_exprs(
            aggs.iter().filter_map(|a| a.arg.as_ref()),
            &input.out_cols(),
        ),
        PhysExpr::Concat { left, right, .. } | PhysExpr::ExceptExec { left, right, .. } => {
            free_inputs(left).union(free_inputs(right))
        }
    }
}

// ---------------------------------------------------------------------
// Compiler.
// ---------------------------------------------------------------------

/// Short stable operator name used for cancellation blame, failpoint
/// sites (`faults::hit(name)` at every batch boundary), and panic
/// attribution.
pub(crate) fn op_name(p: &PhysExpr) -> &'static str {
    match p {
        PhysExpr::TableScan { .. } => "TableScan",
        PhysExpr::MorselScan { .. } => "MorselScan",
        PhysExpr::IndexSeek { .. } => "IndexSeek",
        PhysExpr::Filter { .. } => "Filter",
        PhysExpr::Compute { .. } => "Compute",
        PhysExpr::ProjectCols { .. } => "Project",
        PhysExpr::HashJoin { .. } => "HashJoin",
        PhysExpr::NLJoin { .. } => "NLJoin",
        PhysExpr::ApplyLoop { .. } => "ApplyLoop",
        PhysExpr::BatchedApply { .. } => "BatchedApply",
        PhysExpr::IndexLookupJoin { .. } => "IndexLookupJoin",
        PhysExpr::SegmentExec { .. } => "SegmentExec",
        PhysExpr::SegmentScan { .. } => "SegmentScan",
        PhysExpr::HashAggregate { .. } => "HashAggregate",
        PhysExpr::Concat { .. } => "Concat",
        PhysExpr::ExceptExec { .. } => "Except",
        PhysExpr::AssertMax1 { .. } => "Max1Row",
        PhysExpr::RowNumber { .. } => "RowNumber",
        PhysExpr::ConstScan { .. } => "ConstScan",
        PhysExpr::Sort { .. } => "Sort",
        PhysExpr::Limit { .. } => "Limit",
        PhysExpr::Exchange { .. } => "Exchange",
    }
}

struct Compiler {
    batch_size: usize,
    stats: Rc<RefCell<Vec<OpStats>>>,
    next_id: usize,
    cached: Vec<usize>,
    /// Resolved spill toggle for this compilation (per-pipeline, so
    /// concurrent sessions with different settings don't race on the
    /// process-global flag).
    spill: bool,
}

impl Compiler {
    /// Compiles a subtree. `in_param` is true inside a rebind-and-rewind
    /// scope (an `ApplyLoop`/`SegmentExec` inner plan), where invariant
    /// subtrees get a one-time materialization cache.
    fn compile(&mut self, p: &PhysExpr, in_param: bool) -> Result<BoxOp> {
        let cacheable = in_param
            && !matches!(
                p,
                PhysExpr::TableScan { .. }
                    | PhysExpr::ConstScan { .. }
                    | PhysExpr::IndexSeek { .. }
                    | PhysExpr::SegmentScan { .. }
                    | PhysExpr::MorselScan { .. }
            )
            && free_inputs(p).is_invariant();
        if cacheable {
            let id = self.next_id;
            self.cached.push(id);
            // Children no longer need their own caches.
            let inner = self.compile_bare(p, false)?;
            return Ok(Box::new(CacheOp::new(
                inner,
                self.batch_size,
                StatsHandle::new(self.stats.clone(), id),
            )));
        }
        self.compile_bare(p, in_param)
    }

    fn compile_bare(&mut self, p: &PhysExpr, in_param: bool) -> Result<BoxOp> {
        let id = self.next_id;
        self.next_id += 1;
        self.stats.borrow_mut().push(OpStats::default());
        let bs = self.batch_size;
        let sh = StatsHandle::new(self.stats.clone(), id);
        let op: BoxOp = match p {
            PhysExpr::TableScan {
                table,
                positions,
                cols,
            } => Box::new(ScanOp {
                table: *table,
                positions: positions.clone(),
                cols: rc_cols(cols),
                cursor: 0,
                batch_size: bs,
                stats: sh.clone(),
            }),
            PhysExpr::IndexSeek {
                table,
                positions,
                cols,
                index_cols,
                probes,
            } => Box::new(SeekOp {
                table: *table,
                positions: positions.clone(),
                cols: rc_cols(cols),
                index_cols: index_cols.clone(),
                probes: probes.clone(),
                hits: Vec::new(),
                cursor: 0,
                batch_size: bs,
                stats: sh.clone(),
            }),
            PhysExpr::Filter { input, predicate } => {
                let in_layout = input.out_cols();
                Box::new(FilterOp {
                    cols: rc_cols(&in_layout),
                    pos: PosMap::new(&in_layout),
                    input: self.compile(input, in_param)?,
                    predicate: predicate.clone(),
                    stats: sh.clone(),
                })
            }
            PhysExpr::Compute { input, defs } => {
                let in_layout = input.out_cols();
                Box::new(ComputeOp {
                    in_cols: rc_cols(&in_layout),
                    pos: PosMap::new(&in_layout),
                    out_cols: rc_cols(&p.out_cols()),
                    input: self.compile(input, in_param)?,
                    defs: defs.clone(),
                    stats: sh.clone(),
                })
            }
            PhysExpr::ProjectCols { input, cols } => {
                let in_layout = input.out_cols();
                let positions = cols
                    .iter()
                    .map(|c| pos_of(&in_layout, *c))
                    .collect::<Result<_>>()?;
                Box::new(ProjectOp {
                    input: self.compile(input, in_param)?,
                    positions,
                    cols: rc_cols(cols),
                    stats: sh.clone(),
                })
            }
            PhysExpr::HashJoin {
                kind,
                left,
                right,
                left_keys,
                right_keys,
                residual,
            } => {
                let lout = left.out_cols();
                let rout = right.out_cols();
                let left_pos = left_keys
                    .iter()
                    .map(|c| pos_of(&lout, *c))
                    .collect::<Result<Vec<_>>>()?;
                let right_pos = right_keys
                    .iter()
                    .map(|c| pos_of(&rout, *c))
                    .collect::<Result<Vec<_>>>()?;
                let mut combined = lout.clone();
                combined.extend(rout.iter().copied());
                // Inside a parameterized scope an invariant build side
                // can keep its hash table across rewinds.
                let build_stable = in_param && free_inputs(right).is_invariant();
                Box::new(HashJoinOp {
                    kind: *kind,
                    left: self.compile(left, in_param)?,
                    right: self.compile(right, in_param && !build_stable)?,
                    left_pos,
                    right_pos,
                    residual: residual.clone(),
                    residual_trivial: residual.is_true(),
                    combined_pos: PosMap::new(&combined),
                    combined: rc_cols(&combined),
                    out_cols: rc_cols(&p.out_cols()),
                    right_width: rout.len(),
                    build_stable,
                    table: HashMap::new(),
                    build_mode: None,
                    build_parts: Vec::new(),
                    build_cols: Vec::new(),
                    build_index: HashMap::new(),
                    build_len: 0,
                    row_table_ready: false,
                    built: false,
                    out_queue: VecDeque::new(),
                    pending: VecDeque::new(),
                    left_done: false,
                    batch_size: bs,
                    mem: MemoryReservation::detached("HashJoin"),
                    // A stable build is kept across rewinds; grace
                    // partitions are consumed when joined, so spilling
                    // would break the rewind contract.
                    allow_spill: self.spill && !build_stable,
                    grace: None,
                    stats: sh.clone(),
                })
            }
            PhysExpr::NLJoin {
                kind,
                left,
                right,
                predicate,
            } => {
                let lout = left.out_cols();
                let rout = right.out_cols();
                let mut combined = lout.clone();
                combined.extend(rout.iter().copied());
                let right_stable = in_param && free_inputs(right).is_invariant();
                Box::new(NLJoinOp {
                    kind: *kind,
                    left: self.compile(left, in_param)?,
                    right: self.compile(right, in_param && !right_stable)?,
                    predicate: predicate.clone(),
                    combined_pos: PosMap::new(&combined),
                    combined: rc_cols(&combined),
                    out_cols: rc_cols(&p.out_cols()),
                    right_width: rout.len(),
                    right_stable,
                    right_rows: Vec::new(),
                    right_built: false,
                    pending: VecDeque::new(),
                    left_done: false,
                    batch_size: bs,
                    mem: MemoryReservation::detached("NLJoin"),
                    stats: sh.clone(),
                })
            }
            PhysExpr::ApplyLoop {
                kind,
                left,
                right,
                params,
            } => {
                let lout = left.out_cols();
                let param_pos: Vec<(ColId, usize)> = params
                    .iter()
                    .filter_map(|c| lout.iter().position(|l| l == c).map(|i| (*c, i)))
                    .collect();
                Box::new(ApplyLoopOp {
                    kind: *kind,
                    left: self.compile(left, in_param)?,
                    inner: self.compile(right, true)?,
                    param_pos,
                    right_width: right.out_cols().len(),
                    out_cols: rc_cols(&p.out_cols()),
                    inner_binds: Rc::new(RefCell::new(Bindings::new())),
                    pending: VecDeque::new(),
                    left_done: false,
                    batch_size: bs,
                    stats: sh.clone(),
                })
            }
            PhysExpr::BatchedApply {
                kind,
                left,
                right,
                params,
            } => {
                let lout = left.out_cols();
                let param_pos: Vec<(ColId, usize)> = params
                    .iter()
                    .filter_map(|c| lout.iter().position(|l| l == c).map(|i| (*c, i)))
                    .collect();
                Box::new(BatchedApplyOp {
                    kind: *kind,
                    left: self.compile(left, in_param)?,
                    inner: self.compile(right, true)?,
                    param_pos,
                    right_width: right.out_cols().len(),
                    out_cols: rc_cols(&p.out_cols()),
                    inner_binds: Rc::new(RefCell::new(Bindings::new())),
                    cache: HashMap::new(),
                    degraded: false,
                    mem: MemoryReservation::detached("BatchedApply"),
                    pending: VecDeque::new(),
                    left_done: false,
                    batch_size: bs,
                    stats: sh.clone(),
                })
            }
            PhysExpr::IndexLookupJoin {
                kind,
                left,
                table,
                positions,
                fetch_cols,
                index_cols,
                probes,
                residual,
                cols,
                params,
            } => {
                let lout = left.out_cols();
                let param_pos: Vec<(ColId, usize)> = params
                    .iter()
                    .filter_map(|c| lout.iter().position(|l| l == c).map(|i| (*c, i)))
                    .collect();
                let proj = cols
                    .iter()
                    .map(|c| pos_of(fetch_cols, *c))
                    .collect::<Result<Vec<_>>>()?;
                Box::new(IndexLookupJoinOp {
                    kind: *kind,
                    left: self.compile(left, in_param)?,
                    table: *table,
                    positions: positions.clone(),
                    fetch_cols: fetch_cols.clone(),
                    index_cols: index_cols.clone(),
                    probes: probes.clone(),
                    residual: residual.clone(),
                    proj,
                    param_pos,
                    right_width: cols.len(),
                    out_cols: rc_cols(&p.out_cols()),
                    inner_binds: Rc::new(RefCell::new(Bindings::new())),
                    cache: HashMap::new(),
                    degraded: false,
                    mem: MemoryReservation::detached("IndexLookupJoin"),
                    pending: VecDeque::new(),
                    left_done: false,
                    batch_size: bs,
                    stats: sh.clone(),
                })
            }
            PhysExpr::SegmentExec {
                input,
                segment_cols,
                inner,
                out_cols,
            } => {
                let in_layout = input.out_cols();
                let seg_pos = segment_cols
                    .iter()
                    .map(|c| pos_of(&in_layout, *c))
                    .collect::<Result<Vec<_>>>()?;
                let inner_layout = inner.out_cols();
                let out_src = out_cols
                    .iter()
                    .map(|oc| {
                        if let Some(i) = segment_cols.iter().position(|c| c == oc) {
                            Ok(OutSrc::Seg(i))
                        } else {
                            pos_of(&inner_layout, *oc)
                                .map(OutSrc::Inner)
                                .map_err(|_| Error::internal("segment output column"))
                        }
                    })
                    .collect::<Result<Vec<_>>>()?;
                Box::new(SegmentExecOp {
                    input: self.compile(input, in_param)?,
                    inner: self.compile(inner, true)?,
                    seg_pos,
                    input_cols: in_layout,
                    out_src,
                    out_cols: rc_cols(out_cols),
                    inner_binds: Rc::new(RefCell::new(Bindings::new())),
                    segments: Vec::new(),
                    partitioned: false,
                    seg_cursor: 0,
                    pending: VecDeque::new(),
                    batch_size: bs,
                    mem: MemoryReservation::detached("SegmentExec"),
                    stats: sh.clone(),
                })
            }
            PhysExpr::SegmentScan { cols } => Box::new(SegmentScanOp {
                cols: cols.clone(),
                out_cols: rc_cols(&p.out_cols()),
                segment: None,
                positions: Vec::new(),
                cursor: 0,
                batch_size: bs,
            }),
            PhysExpr::HashAggregate {
                kind,
                input,
                group_cols,
                aggs,
            } => {
                let in_layout = input.out_cols();
                let group_pos = group_cols
                    .iter()
                    .map(|c| pos_of(&in_layout, *c))
                    .collect::<Result<Vec<_>>>()?;
                Box::new(HashAggregateOp {
                    kind: *kind,
                    input: self.compile(input, in_param)?,
                    group_pos,
                    aggs: aggs.clone(),
                    in_pos: PosMap::new(&in_layout),
                    in_cols: rc_cols(&in_layout),
                    out_cols: rc_cols(&p.out_cols()),
                    state: None,
                    result: VecDeque::new(),
                    done: false,
                    batch_size: bs,
                    allow_spill: self.spill,
                    spilled: None,
                    mem_peak: 0,
                    stats: sh.clone(),
                })
            }
            PhysExpr::Concat {
                left,
                right,
                cols,
                left_map,
                right_map,
            } => {
                let lout = left.out_cols();
                let rout = right.out_cols();
                let lpos = left_map
                    .iter()
                    .map(|c| pos_of(&lout, *c))
                    .collect::<Result<Vec<_>>>()?;
                let rpos = right_map
                    .iter()
                    .map(|c| pos_of(&rout, *c))
                    .collect::<Result<Vec<_>>>()?;
                Box::new(ConcatOp {
                    left: self.compile(left, in_param)?,
                    right: self.compile(right, in_param)?,
                    lpos,
                    rpos,
                    cols: rc_cols(cols),
                    on_right: false,
                    stats: sh.clone(),
                })
            }
            PhysExpr::ExceptExec {
                left,
                right,
                right_map,
            } => {
                let rout = right.out_cols();
                let rpos = right_map
                    .iter()
                    .map(|c| pos_of(&rout, *c))
                    .collect::<Result<Vec<_>>>()?;
                Box::new(ExceptOp {
                    left: self.compile(left, in_param)?,
                    right: self.compile(right, in_param)?,
                    rpos,
                    cols: rc_cols(&left.out_cols()),
                    counts: HashMap::new(),
                    built: false,
                    mem: MemoryReservation::detached("Except"),
                    stats: sh.clone(),
                })
            }
            PhysExpr::AssertMax1 { input } => Box::new(AssertMax1Op {
                cols: rc_cols(&input.out_cols()),
                input: self.compile(input, in_param)?,
                buffered: Vec::new(),
                done: false,
                mem: MemoryReservation::detached("Max1Row"),
                stats: sh.clone(),
            }),
            PhysExpr::RowNumber { input, .. } => Box::new(RowNumberOp {
                input: self.compile(input, in_param)?,
                out_cols: rc_cols(&p.out_cols()),
                counter: 0,
                stats: sh.clone(),
            }),
            PhysExpr::ConstScan { cols, rows } => Box::new(ConstScanOp {
                cols: rc_cols(cols),
                rows: Rc::new(rows.clone()),
                cursor: 0,
                batch_size: bs,
            }),
            PhysExpr::Sort { input, by } => {
                let in_layout = input.out_cols();
                let by_pos = by
                    .iter()
                    .map(|(c, desc)| Ok((pos_of(&in_layout, *c)?, *desc)))
                    .collect::<Result<Vec<_>>>()?;
                Box::new(SortOp::new(
                    self.compile(input, in_param)?,
                    by_pos,
                    rc_cols(&in_layout),
                    bs,
                    self.spill,
                    sh.clone(),
                ))
            }
            PhysExpr::Limit { input, n } => Box::new(LimitOp {
                cols: rc_cols(&input.out_cols()),
                input: self.compile(input, in_param)?,
                n: *n,
                buffered: VecDeque::new(),
                done: false,
                batch_size: bs,
                mem: MemoryReservation::detached("Limit"),
                stats: sh.clone(),
            }),
            PhysExpr::Exchange { input } => {
                // The subtree is not compiled here: the exchange runtime
                // builds per-worker pipelines at execution time. Reserve
                // one stats slot per subtree node so worker-side counters
                // land at the pre-order ids `explain_phys` prints.
                let count = input.node_count();
                let base = self.next_id;
                self.next_id += count;
                self.stats
                    .borrow_mut()
                    .extend(std::iter::repeat_with(OpStats::default).take(count));
                Box::new(crate::parallel::ExchangeOp::new(
                    (**input).clone(),
                    base,
                    self.stats.clone(),
                    bs,
                    self.spill,
                ))
            }
            PhysExpr::MorselScan {
                table,
                positions,
                cols,
                ranges,
            } => Box::new(MorselScanOp {
                table: *table,
                positions: positions.clone(),
                cols: rc_cols(cols),
                ranges: ranges.clone(),
                range_idx: 0,
                cursor: 0,
                batch_size: bs,
                stats: sh.clone(),
            }),
        };
        Ok(Box::new(Metered {
            op,
            id,
            name: op_name(p),
            stats: self.stats.clone(),
        }))
    }
}

// ---------------------------------------------------------------------
// Instrumentation.
// ---------------------------------------------------------------------

/// Wraps an operator to record [`OpStats`] into the pipeline registry.
/// Also the per-operator governance boundary: every `next_batch` polls
/// the cancellation token and the (feature-gated) failpoint registry,
/// and notes the operator in thread-local state so panic handlers can
/// attach an operator path.
struct Metered {
    op: BoxOp,
    id: usize,
    name: &'static str,
    stats: Rc<RefCell<Vec<OpStats>>>,
}

impl Operator for Metered {
    fn open(&mut self, ctx: &ExecCtx<'_>) -> Result<()> {
        note_current_op(self.id, self.name);
        let t = Instant::now();
        let r = self.op.open(ctx);
        let mut stats = self.stats.borrow_mut();
        let s = &mut stats[self.id];
        s.opens += 1;
        s.elapsed += t.elapsed();
        r
    }

    fn next_batch(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<Batch>> {
        note_current_op(self.id, self.name);
        ctx.gov.check_cancelled(self.name)?;
        crate::faults::hit(self.name)?;
        let t = Instant::now();
        let r = self.op.next_batch(ctx);
        let mut stats = self.stats.borrow_mut();
        let s = &mut stats[self.id];
        s.elapsed += t.elapsed();
        match &r {
            Ok(Some(b)) => {
                s.batches += 1;
                s.rows += b.len() as u64;
            }
            // Exhaustion or failure: fold in the operator's memory peak
            // (close is not recursive, so this is where inner buffering
            // operators surface their reservation peaks).
            Ok(None) | Err(_) => s.mem_peak = s.mem_peak.max(self.op.mem_peak()),
        }
        r
    }

    fn close(&mut self) -> OpStats {
        self.op.close();
        let mut stats = self.stats.borrow_mut();
        let s = &mut stats[self.id];
        s.mem_peak = s.mem_peak.max(self.op.mem_peak());
        *s
    }
}

/// One-time materialization of a parameter-invariant subtree: drains
/// its input on first demand and replays the result on every rewind.
///
/// When the memory budget refuses the materialization, the cache *sheds*
/// instead of failing: buffered rows are released and the operator
/// degrades to a passthrough that re-executes its input on every rewind
/// — the pre-cache behavior, slower but correct.
struct CacheOp {
    input: BoxOp,
    filled: bool,
    /// Budget refusal during fill happened: operate as a passthrough.
    degraded: bool,
    cols: Option<Rc<[ColId]>>,
    rows: Vec<Row>,
    cursor: usize,
    batch_size: usize,
    mem: MemoryReservation,
    /// The cache is not itself a metered node — it records its peak
    /// (and any bridge conversions) into the cached subtree root's
    /// stats slot.
    stats: StatsHandle,
}

impl CacheOp {
    fn new(input: BoxOp, batch_size: usize, stats: StatsHandle) -> CacheOp {
        CacheOp {
            input,
            filled: false,
            degraded: false,
            cols: None,
            rows: Vec::new(),
            cursor: 0,
            batch_size,
            mem: MemoryReservation::detached("Cache"),
            stats,
        }
    }

    fn record_peak(&self) {
        self.stats.note_mem_peak(self.mem.peak());
    }
}

impl Operator for CacheOp {
    fn open(&mut self, ctx: &ExecCtx<'_>) -> Result<()> {
        self.cursor = 0;
        if self.filled {
            return Ok(());
        }
        if self.degraded {
            // Passthrough mode: every rewind re-executes the input.
            self.rows.clear();
            return self.input.open(ctx);
        }
        self.mem = ctx.gov.reservation("Cache");
        self.input.open(ctx)
    }

    fn next_batch(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<Batch>> {
        if !self.filled && !self.degraded {
            while let Some(b) = self.input.next_batch(ctx)? {
                b.check_width(b.cols.len())?;
                self.cols.get_or_insert_with(|| b.cols.clone());
                let charged =
                    crate::faults::hit("cache.fill").and_then(|()| self.mem.grow(b.mem_bytes()));
                match charged {
                    Ok(()) => self.rows.extend(self.stats.bridge_rows(b)),
                    Err(Error::ResourceExhausted { .. }) => {
                        // Shed: stream out what is buffered (plus the
                        // batch in hand), then abandon caching.
                        self.record_peak();
                        self.mem.reset();
                        self.degraded = true;
                        self.rows.extend(self.stats.bridge_rows(b));
                        break;
                    }
                    Err(e) => return Err(e),
                }
            }
            if !self.degraded {
                self.filled = true;
                self.record_peak();
                self.input.close();
            }
        }
        if self.cursor < self.rows.len() {
            let cols = self
                .cols
                .clone()
                .ok_or_else(|| Error::internal("cache buffered rows without a layout"))?;
            let end = (self.cursor + self.batch_size).min(self.rows.len());
            let rows = self.rows[self.cursor..end].to_vec();
            self.cursor = end;
            return Ok(Some(Batch::new(cols, rows)));
        }
        if self.degraded {
            // Head drained; release it and stream the live input.
            if !self.rows.is_empty() {
                self.rows = Vec::new();
                self.cursor = 0;
            }
            return self.input.next_batch(ctx);
        }
        Ok(None)
    }
}

// ---------------------------------------------------------------------
// Leaf operators.
// ---------------------------------------------------------------------

struct ScanOp {
    table: TableId,
    positions: Vec<usize>,
    cols: Rc<[ColId]>,
    cursor: usize,
    batch_size: usize,
    stats: StatsHandle,
}

impl Operator for ScanOp {
    fn open(&mut self, _ctx: &ExecCtx<'_>) -> Result<()> {
        self.cursor = 0;
        Ok(())
    }

    fn next_batch(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<Batch>> {
        let t = ctx.catalog.table(self.table);
        let total = t.rows().len();
        if self.cursor >= total {
            return Ok(None);
        }
        let end = (self.cursor + self.batch_size).min(total);
        // Zero-copy slices of the table's columnar mirror.
        let tcols = t.columns();
        let take = end - self.cursor;
        let out = self
            .positions
            .iter()
            .map(|&i| tcols[i].slice(self.cursor, take))
            .collect();
        self.cursor = end;
        self.stats.note_kernel();
        Ok(Some(Batch::from_columns(self.cols.clone(), out, take)))
    }
}

/// Worker-local scan over a static set of row ranges (morsels); see
/// [`crate::parallel`] for how ranges are assigned.
struct MorselScanOp {
    table: TableId,
    positions: Vec<usize>,
    cols: Rc<[ColId]>,
    ranges: Vec<(usize, usize)>,
    range_idx: usize,
    cursor: usize,
    batch_size: usize,
    stats: StatsHandle,
}

impl Operator for MorselScanOp {
    fn open(&mut self, _ctx: &ExecCtx<'_>) -> Result<()> {
        self.range_idx = 0;
        self.cursor = self.ranges.first().map_or(0, |r| r.0);
        Ok(())
    }

    fn next_batch(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<Batch>> {
        let t = ctx.catalog.table(self.table);
        let total = t.rows().len();
        while let Some(&(_, end)) = self.ranges.get(self.range_idx) {
            let end = end.min(total);
            if self.cursor >= end {
                self.range_idx += 1;
                if let Some(&(start, _)) = self.ranges.get(self.range_idx) {
                    self.cursor = start;
                }
                continue;
            }
            let stop = (self.cursor + self.batch_size).min(end);
            let tcols = t.columns();
            let take = stop - self.cursor;
            let out = self
                .positions
                .iter()
                .map(|&i| tcols[i].slice(self.cursor, take))
                .collect();
            self.cursor = stop;
            self.stats.note_kernel();
            return Ok(Some(Batch::from_columns(self.cols.clone(), out, take)));
        }
        Ok(None)
    }
}

struct SeekOp {
    table: TableId,
    positions: Vec<usize>,
    cols: Rc<[ColId]>,
    index_cols: Vec<usize>,
    probes: Vec<ScalarExpr>,
    hits: Vec<usize>,
    cursor: usize,
    batch_size: usize,
    stats: StatsHandle,
}

impl Operator for SeekOp {
    fn open(&mut self, ctx: &ExecCtx<'_>) -> Result<()> {
        self.hits.clear();
        self.cursor = 0;
        let binds = ctx.binds.borrow();
        let empty_ctx = EvalCtx::plain(&[], &[], &binds);
        let mut key = Vec::with_capacity(self.probes.len());
        for probe in &self.probes {
            let v = eval(probe, &empty_ctx)?;
            if v.is_null() {
                // SQL equality never matches NULL: empty result.
                return Ok(());
            }
            key.push(v);
        }
        let t = ctx.catalog.table(self.table);
        let hits = t.index_lookup(&self.index_cols, &key).ok_or_else(|| {
            Error::internal(format!(
                "missing index on {:?} of {}",
                self.index_cols, t.def.name
            ))
        })?;
        self.hits.extend_from_slice(hits);
        Ok(())
    }

    fn next_batch(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<Batch>> {
        if self.cursor >= self.hits.len() {
            return Ok(None);
        }
        let t = ctx.catalog.table(self.table);
        let end = (self.cursor + self.batch_size).min(self.hits.len());
        let tcols = t.columns();
        let idx = &self.hits[self.cursor..end];
        let out = self
            .positions
            .iter()
            .map(|&i| tcols[i].gather(idx))
            .collect();
        let take = idx.len();
        self.cursor = end;
        self.stats.note_kernel();
        Ok(Some(Batch::from_columns(self.cols.clone(), out, take)))
    }
}

struct ConstScanOp {
    cols: Rc<[ColId]>,
    rows: Rc<Vec<Row>>,
    cursor: usize,
    batch_size: usize,
}

impl Operator for ConstScanOp {
    fn open(&mut self, _ctx: &ExecCtx<'_>) -> Result<()> {
        self.cursor = 0;
        Ok(())
    }

    fn next_batch(&mut self, _ctx: &ExecCtx<'_>) -> Result<Option<Batch>> {
        if self.cursor >= self.rows.len() {
            return Ok(None);
        }
        let end = (self.cursor + self.batch_size).min(self.rows.len());
        let rows = self.rows[self.cursor..end].to_vec();
        self.cursor = end;
        Ok(Some(Batch::new(self.cols.clone(), rows)))
    }
}

struct SegmentScanOp {
    cols: Vec<(ColId, ColId)>,
    out_cols: Rc<[ColId]>,
    segment: Option<Rc<Chunk>>,
    positions: Vec<usize>,
    cursor: usize,
    batch_size: usize,
}

impl Operator for SegmentScanOp {
    fn open(&mut self, ctx: &ExecCtx<'_>) -> Result<()> {
        self.cursor = 0;
        let binds = ctx.binds.borrow();
        let segment = binds
            .current_segment()
            .ok_or_else(|| Error::internal("SegmentScan outside SegmentExec"))?
            .clone();
        self.positions = self
            .cols
            .iter()
            .map(|(_, src)| segment.require_pos(*src))
            .collect::<Result<_>>()?;
        self.segment = Some(segment);
        Ok(())
    }

    fn next_batch(&mut self, _ctx: &ExecCtx<'_>) -> Result<Option<Batch>> {
        let Some(segment) = &self.segment else {
            return Ok(None);
        };
        if self.cursor >= segment.rows.len() {
            return Ok(None);
        }
        let end = (self.cursor + self.batch_size).min(segment.rows.len());
        let rows = segment.rows[self.cursor..end]
            .iter()
            .map(|r| self.positions.iter().map(|&i| r[i].clone()).collect())
            .collect();
        self.cursor = end;
        Ok(Some(Batch::new(self.out_cols.clone(), rows)))
    }
}

// ---------------------------------------------------------------------
// Row-at-a-time streaming operators.
// ---------------------------------------------------------------------

struct FilterOp {
    input: BoxOp,
    predicate: ScalarExpr,
    cols: Rc<[ColId]>,
    pos: PosMap,
    stats: StatsHandle,
}

impl Operator for FilterOp {
    fn open(&mut self, ctx: &ExecCtx<'_>) -> Result<()> {
        self.input.open(ctx)
    }

    fn next_batch(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<Batch>> {
        loop {
            let Some(batch) = self.input.next_batch(ctx)? else {
                return Ok(None);
            };
            let binds = ctx.binds.borrow();
            // Vectorized path: evaluate the predicate over whole
            // columns and gather the selected lanes. Any kernel error
            // falls back to the row path on the whole batch, which
            // reproduces row-ordered error behavior.
            let mut vec_out = None;
            if let Some((columns, len)) = batch.columns() {
                let cx = VecEval {
                    cols: &self.cols,
                    pos: &self.pos,
                    columns,
                    len,
                    binds: &binds,
                };
                if let Ok(sel) = eval_column(&self.predicate, &cx).and_then(|p| selected_true(&p)) {
                    self.stats.note_kernel();
                    vec_out = Some(if sel.is_empty() {
                        None
                    } else if sel.len() == len {
                        Some(Batch::from_columns(
                            self.cols.clone(),
                            columns.to_vec(),
                            len,
                        ))
                    } else {
                        let out = columns.iter().map(|c| c.gather(&sel)).collect();
                        Some(Batch::from_columns(self.cols.clone(), out, sel.len()))
                    });
                }
            }
            match vec_out {
                Some(Some(out)) => return Ok(Some(out)),
                Some(None) => {}
                None => {
                    let mut kept = Vec::new();
                    for r in self.stats.bridge_rows(batch) {
                        if eval_predicate(
                            &self.predicate,
                            &EvalCtx::mapped(&self.cols, &self.pos, &r, &binds),
                        )? {
                            kept.push(r);
                        }
                    }
                    if !kept.is_empty() {
                        return Ok(Some(Batch::new(self.cols.clone(), kept)));
                    }
                }
            }
        }
    }
}

struct ComputeOp {
    input: BoxOp,
    defs: Vec<(ColId, ScalarExpr)>,
    in_cols: Rc<[ColId]>,
    pos: PosMap,
    out_cols: Rc<[ColId]>,
    stats: StatsHandle,
}

impl Operator for ComputeOp {
    fn open(&mut self, ctx: &ExecCtx<'_>) -> Result<()> {
        self.input.open(ctx)
    }

    fn next_batch(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<Batch>> {
        let Some(batch) = self.input.next_batch(ctx)? else {
            return Ok(None);
        };
        let binds = ctx.binds.borrow();
        // Vectorized path: each definition is one whole-column kernel
        // over the *input* layout (definitions never see each other),
        // appended to the carried-through input columns.
        let mut vec_out = None;
        if let Some((columns, len)) = batch.columns() {
            let cx = VecEval {
                cols: &self.in_cols,
                pos: &self.pos,
                columns,
                len,
                binds: &binds,
            };
            let computed: Result<Vec<Column>> =
                self.defs.iter().map(|(_, e)| eval_column(e, &cx)).collect();
            if let Ok(mut newc) = computed {
                let mut out = columns.to_vec();
                out.append(&mut newc);
                self.stats.note_kernel();
                vec_out = Some(Batch::from_columns(self.out_cols.clone(), out, len));
            }
        }
        if let Some(out) = vec_out {
            return Ok(Some(out));
        }
        let in_rows = self.stats.bridge_rows(batch);
        let mut rows = Vec::with_capacity(in_rows.len());
        for mut r in in_rows {
            // Evaluation sees only the input layout, so appending in
            // place is safe: lookups never index past `in_cols`.
            for (_, e) in &self.defs {
                let v = eval(e, &EvalCtx::mapped(&self.in_cols, &self.pos, &r, &binds))?;
                r.push(v);
            }
            rows.push(r);
        }
        Ok(Some(Batch::new(self.out_cols.clone(), rows)))
    }
}

struct ProjectOp {
    input: BoxOp,
    positions: Vec<usize>,
    cols: Rc<[ColId]>,
    stats: StatsHandle,
}

impl Operator for ProjectOp {
    fn open(&mut self, ctx: &ExecCtx<'_>) -> Result<()> {
        self.input.open(ctx)
    }

    fn next_batch(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<Batch>> {
        let Some(batch) = self.input.next_batch(ctx)? else {
            return Ok(None);
        };
        // Columnar projection is pure column selection: O(1) per
        // column (a shared-buffer handle clone), no per-row work.
        if let Some((columns, len)) = batch.columns() {
            let out = self.positions.iter().map(|&i| columns[i].clone()).collect();
            self.stats.note_kernel();
            return Ok(Some(Batch::from_columns(self.cols.clone(), out, len)));
        }
        let rows = batch
            .into_rows()
            .into_iter()
            .map(|r| self.positions.iter().map(|&i| r[i].clone()).collect())
            .collect();
        Ok(Some(Batch::new(self.cols.clone(), rows)))
    }
}

struct RowNumberOp {
    input: BoxOp,
    out_cols: Rc<[ColId]>,
    counter: i64,
    stats: StatsHandle,
}

impl Operator for RowNumberOp {
    fn open(&mut self, ctx: &ExecCtx<'_>) -> Result<()> {
        self.counter = 0;
        self.input.open(ctx)
    }

    fn next_batch(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<Batch>> {
        let Some(batch) = self.input.next_batch(ctx)? else {
            return Ok(None);
        };
        if batch.is_columnar() {
            let (mut columns, len) = batch.into_columns();
            let start = self.counter;
            self.counter += len as i64;
            columns.push(Column::from_data(ColumnData {
                data: ColData::Int((start..self.counter).collect()),
                validity: Bitmap::new_valid(len),
            }));
            self.stats.note_kernel();
            return Ok(Some(Batch::from_columns(
                self.out_cols.clone(),
                columns,
                len,
            )));
        }
        let mut rows = batch.into_rows();
        for r in &mut rows {
            r.push(Value::Int(self.counter));
            self.counter += 1;
        }
        Ok(Some(Batch::new(self.out_cols.clone(), rows)))
    }
}

// ---------------------------------------------------------------------
// Joins.
// ---------------------------------------------------------------------

/// Extracts a join key; `None` when any key value is NULL (SQL equality
/// never matches NULL).
fn join_key(row: &[Value], positions: &[usize]) -> Option<Vec<Value>> {
    let mut key = Vec::with_capacity(positions.len());
    for &i in positions {
        if row[i].is_null() {
            return None;
        }
        key.push(row[i].clone());
    }
    Some(key)
}

/// Disk-resident state of a grace hash join: both sides partitioned by
/// the (fixed-key) join-key hash, joined pair by pair. Partition files
/// are consumed as their pair is processed; everything left over is
/// reclaimed when the operator (or the execution's spill scope) drops.
struct GraceJoin {
    /// Level-0 build partitions, while the build side drains.
    build: Option<SpillPartitions>,
    /// Sealed build partition files awaiting the probe side.
    build_files: Vec<SpillFile>,
    /// Level-0 probe partitions, while the probe side drains.
    probe: Option<SpillPartitions>,
    /// The probe side has been fully partitioned and `pairs` populated.
    sealed: bool,
    /// `(build, probe, level)` partition pairs still to join, processed
    /// from the back (pushed in reverse partition order, so partition 0
    /// is joined first — deterministic output order for a given budget).
    pairs: Vec<(SpillFile, SpillFile, usize)>,
}

/// Probes `rows` against a row-mode hash `table`, appending result rows
/// to `pending` with exactly the in-memory join's per-kind semantics.
/// Shared by [`HashJoinOp`]'s resident probe path and the grace join's
/// per-partition-pair probe.
#[allow(clippy::too_many_arguments)]
fn probe_rows_against(
    table: &HashMap<Vec<Value>, Vec<Row>>,
    kind: JoinKind,
    left_pos: &[usize],
    residual: &ScalarExpr,
    residual_trivial: bool,
    combined: &[ColId],
    combined_pos: &PosMap,
    right_width: usize,
    rows: Vec<Row>,
    binds: &Bindings,
    pending: &mut VecDeque<Row>,
) -> Result<()> {
    for lr in rows {
        let matches = join_key(&lr, left_pos).and_then(|k| table.get(&k));
        let mut matched = false;
        if let Some(rows) = matches {
            for rr in rows {
                let mut row = lr.clone();
                row.extend(rr.iter().cloned());
                let pass = residual_trivial
                    || eval_predicate(
                        residual,
                        &EvalCtx::mapped(combined, combined_pos, &row, binds),
                    )?;
                if pass {
                    matched = true;
                    match kind {
                        JoinKind::Inner | JoinKind::LeftOuter => pending.push_back(row),
                        JoinKind::LeftSemi | JoinKind::LeftAnti => break,
                    }
                }
            }
        }
        match kind {
            JoinKind::LeftOuter if !matched => {
                let mut row = lr;
                row.extend(std::iter::repeat_n(Value::Null, right_width));
                pending.push_back(row);
            }
            JoinKind::LeftSemi if matched => pending.push_back(lr),
            JoinKind::LeftAnti if !matched => pending.push_back(lr),
            _ => {}
        }
    }
    Ok(())
}

struct HashJoinOp {
    kind: JoinKind,
    left: BoxOp,
    right: BoxOp,
    left_pos: Vec<usize>,
    right_pos: Vec<usize>,
    residual: ScalarExpr,
    residual_trivial: bool,
    combined: Rc<[ColId]>,
    combined_pos: PosMap,
    out_cols: Rc<[ColId]>,
    right_width: usize,
    /// Keep the hash table across rewinds (invariant build side inside
    /// a parameterized scope).
    build_stable: bool,
    /// Row-mode hash table (also materialized lazily from the columnar
    /// build when a row-repr probe batch needs it).
    table: HashMap<Vec<Value>, Vec<Row>>,
    /// `Some(true)` = columnar build, `Some(false)` = row build,
    /// `None` until the first build batch decides (an empty build side
    /// finishes columnar so columnar probes have columns to gather).
    build_mode: Option<bool>,
    /// Raw columnar build batches, concatenated when the build ends.
    build_parts: Vec<Vec<Column>>,
    /// Concatenated build-side columns (columnar mode).
    build_cols: Vec<Column>,
    /// Key hash → build lane indices, in build order. Lanes with NULL
    /// keys are absent (SQL equality never matches NULL).
    build_index: HashMap<u64, Vec<u32>>,
    build_len: usize,
    /// The row-mode `table` has been materialized from `build_cols`.
    row_table_ready: bool,
    built: bool,
    /// Finished output batches, ahead of `pending` in output order.
    out_queue: VecDeque<Batch>,
    pending: VecDeque<Row>,
    left_done: bool,
    batch_size: usize,
    mem: MemoryReservation,
    /// Degrade to a grace join on a refused build reservation (compiled
    /// from the pipeline's spill toggle; never set for stable builds).
    allow_spill: bool,
    /// Active grace-join state, once the build has overflowed to disk.
    grace: Option<GraceJoin>,
    stats: StatsHandle,
}

impl HashJoinOp {
    /// Concatenates the buffered columnar build batches and hashes the
    /// key columns into the lane index.
    fn finish_columnar_build(&mut self) {
        self.build_cols = (0..self.right_width)
            .map(|c| {
                let parts: Vec<Column> = self.build_parts.iter().map(|p| p[c].clone()).collect();
                Column::concat(&parts)
            })
            .collect();
        self.build_parts.clear();
        let key_cols: Vec<&Column> = self
            .right_pos
            .iter()
            .map(|&i| &self.build_cols[i])
            .collect();
        let hashes = hash_lanes(&key_cols, self.build_len);
        self.build_index.clear();
        for (j, &h) in hashes.iter().enumerate() {
            if !keys_valid(&key_cols, j) {
                continue;
            }
            self.build_index.entry(h).or_default().push(j as u32);
        }
        if self.build_len > 0 {
            self.stats.note_kernel();
        }
    }

    /// Lazily materializes the row-mode hash table from the columnar
    /// build, for row-repr probe batches and kernel-error fallback.
    /// Deliberately uncharged: the build bytes were already charged
    /// once, and charging the transpose could trip budgets the row
    /// engine would not.
    fn ensure_row_table(&mut self) {
        if self.row_table_ready || self.build_mode != Some(true) {
            return;
        }
        for j in 0..self.build_len {
            let rr = lane_row(&self.build_cols, j);
            if let Some(key) = join_key(&rr, &self.right_pos) {
                self.table.entry(key).or_default().push(rr);
            }
        }
        self.row_table_ready = true;
    }

    /// Moves buffered row output into the queue so columnar output
    /// pushed afterwards cannot overtake it.
    fn flush_pending(&mut self) {
        if !self.pending.is_empty() {
            self.out_queue.push_back(Batch::new(
                self.out_cols.clone(),
                std::mem::take(&mut self.pending).into(),
            ));
        }
    }

    /// Vectorized probe of one columnar batch against the columnar
    /// build. Errors (kernel gaps, residual eval) make the caller fall
    /// back to the row path on the same batch.
    fn probe_columns(&mut self, b: &Batch, binds: &Bindings) -> Result<Batch> {
        let (columns, len) = b
            .columns()
            .ok_or_else(|| Error::internal("columnar probe of a row batch"))?;
        let key_cols: Vec<&Column> = self.left_pos.iter().map(|&i| &columns[i]).collect();
        let hashes = hash_lanes(&key_cols, len);
        // Candidate (probe lane, build lane) pairs, residual-filtered.
        // Lanes are visited in probe order and candidates in build
        // order, matching the row path's output order exactly.
        let mut pairs: Vec<(usize, u32)> = Vec::new();
        for (i, h) in hashes.iter().enumerate() {
            if !keys_valid(&key_cols, i) {
                continue;
            }
            let Some(cands) = self.build_index.get(h) else {
                continue;
            };
            let kvals: Vec<Value> = key_cols.iter().map(|c| c.value(i)).collect();
            for &j in cands {
                if self
                    .right_pos
                    .iter()
                    .zip(&kvals)
                    .all(|(&bi, v)| self.build_cols[bi].lane_eq(j as usize, v))
                {
                    pairs.push((i, j));
                }
            }
        }
        let kept = if self.residual_trivial || pairs.is_empty() {
            pairs
        } else {
            let pis: Vec<usize> = pairs.iter().map(|p| p.0).collect();
            let bis: Vec<usize> = pairs.iter().map(|p| p.1 as usize).collect();
            let mut comb: Vec<Column> = columns.iter().map(|c| c.gather(&pis)).collect();
            comb.extend(self.build_cols.iter().map(|c| c.gather(&bis)));
            let cx = VecEval {
                cols: &self.combined,
                pos: &self.combined_pos,
                columns: &comb,
                len: pairs.len(),
                binds,
            };
            let sel = selected_true(&eval_column(&self.residual, &cx)?)?;
            sel.into_iter().map(|k| pairs[k]).collect()
        };
        match self.kind {
            JoinKind::Inner => {
                let pis: Vec<usize> = kept.iter().map(|p| p.0).collect();
                let bis: Vec<usize> = kept.iter().map(|p| p.1 as usize).collect();
                let mut out: Vec<Column> = columns.iter().map(|c| c.gather(&pis)).collect();
                out.extend(self.build_cols.iter().map(|c| c.gather(&bis)));
                Ok(Batch::from_columns(self.out_cols.clone(), out, kept.len()))
            }
            JoinKind::LeftOuter => {
                // Walk probe lanes in order, interleaving each lane's
                // matches with a NULL-padded row for unmatched lanes.
                let mut ob: Vec<(usize, Option<usize>)> = Vec::new();
                let mut k = 0;
                for i in 0..len {
                    let start = k;
                    while k < kept.len() && kept[k].0 == i {
                        ob.push((i, Some(kept[k].1 as usize)));
                        k += 1;
                    }
                    if k == start {
                        ob.push((i, None));
                    }
                }
                let pis: Vec<usize> = ob.iter().map(|p| p.0).collect();
                let mut out: Vec<Column> = columns.iter().map(|c| c.gather(&pis)).collect();
                out.extend(self.build_cols.iter().map(|c| {
                    Column::from_values(
                        ob.iter()
                            .map(|&(_, j)| j.map_or(Value::Null, |j| c.value(j)))
                            .collect(),
                    )
                }));
                Ok(Batch::from_columns(self.out_cols.clone(), out, ob.len()))
            }
            JoinKind::LeftSemi | JoinKind::LeftAnti => {
                let mut matched = vec![false; len];
                for &(i, _) in &kept {
                    matched[i] = true;
                }
                let want = self.kind == JoinKind::LeftSemi;
                let sel: Vec<usize> = (0..len).filter(|&i| matched[i] == want).collect();
                let out: Vec<Column> = columns.iter().map(|c| c.gather(&sel)).collect();
                Ok(Batch::from_columns(self.out_cols.clone(), out, sel.len()))
            }
        }
    }

    fn probe_rows(&mut self, rows: Vec<Row>, binds: &Bindings) -> Result<()> {
        probe_rows_against(
            &self.table,
            self.kind,
            &self.left_pos,
            &self.residual,
            self.residual_trivial,
            &self.combined,
            &self.combined_pos,
            self.right_width,
            rows,
            binds,
            &mut self.pending,
        )
    }

    /// Probe-side width (the build side contributes `right_width`).
    fn left_width(&self) -> usize {
        self.combined.len() - self.right_width
    }

    /// Activates the grace join: the refused reservation's contents —
    /// everything buffered so far plus the batch that tripped the budget
    /// — are hash-partitioned to disk and the reservation is released.
    fn grace_start(&mut self, ctx: &ExecCtx<'_>, overflow: Batch) -> Result<()> {
        let mut parts = SpillPartitions::create(&ctx.spill, "hj-build", self.right_width)?;
        // Flush the buffered columnar build: concatenating first makes
        // the row count explicit even for zero-width layouts.
        if self.build_mode == Some(true) {
            self.finish_columnar_build();
            for j in 0..self.build_len {
                let rr = lane_row(&self.build_cols, j);
                if let Some(key) = join_key(&rr, &self.right_pos) {
                    parts.push(partition_of(hash_values(&key), 0), rr)?;
                }
                if j % 1024 == 1023 {
                    ctx.gov.check_cancelled("HashJoin")?;
                }
            }
            self.build_cols.clear();
            self.build_index.clear();
            self.build_len = 0;
        }
        // Flush the buffered row table (keys already non-NULL).
        for (key, rows) in std::mem::take(&mut self.table) {
            let p = partition_of(hash_values(&key), 0);
            for rr in rows {
                parts.push(p, rr)?;
            }
            ctx.gov.check_cancelled("HashJoin")?;
        }
        // The batch whose charge was refused.
        for rr in self.stats.bridge_rows(overflow) {
            if let Some(key) = join_key(&rr, &self.right_pos) {
                parts.push(partition_of(hash_values(&key), 0), rr)?;
            }
        }
        self.row_table_ready = false;
        // Grace probing is row-mode; keep columnar probes off the
        // vectorized path.
        self.build_mode = Some(false);
        // reset() releases the pool bytes but keeps the local peak for
        // stats.
        self.mem.reset();
        self.grace = Some(GraceJoin {
            build: Some(parts),
            build_files: Vec::new(),
            probe: None,
            sealed: false,
            pairs: Vec::new(),
        });
        ctx.gov.check_cancelled("HashJoin")
    }

    /// Routes one probe-side batch to the level-0 probe partitions.
    /// NULL-keyed probe rows never match, so their per-kind result is
    /// emitted immediately instead of being spilled.
    fn grace_probe_batch(&mut self, ctx: &ExecCtx<'_>, batch: Batch) -> Result<()> {
        let rows = self.stats.bridge_rows(batch);
        let width = self.left_width();
        let g = self
            .grace
            .as_mut()
            .expect("grace_probe_batch requires active grace state");
        if g.probe.is_none() {
            g.probe = Some(SpillPartitions::create(&ctx.spill, "hj-probe", width)?);
        }
        let parts = g.probe.as_mut().expect("probe partitions just ensured");
        for mut lr in rows {
            match join_key(&lr, &self.left_pos) {
                Some(key) => {
                    parts.push(partition_of(hash_values(&key), 0), lr)?;
                }
                None => match self.kind {
                    JoinKind::Inner | JoinKind::LeftSemi => {}
                    JoinKind::LeftOuter => {
                        lr.extend(std::iter::repeat_n(Value::Null, self.right_width));
                        self.pending.push_back(lr);
                    }
                    JoinKind::LeftAnti => self.pending.push_back(lr),
                },
            }
        }
        ctx.gov.check_cancelled("HashJoin")
    }

    /// Seals the probe partitions and forms the level-0 partition pairs
    /// (pushed in reverse so partition 0 is processed first).
    fn grace_seal_probe(&mut self, ctx: &ExecCtx<'_>) -> Result<()> {
        let width = self.left_width();
        let g = self
            .grace
            .as_mut()
            .expect("grace_seal_probe requires active grace state");
        let probe = match g.probe.take() {
            Some(p) => p,
            // No keyed probe rows at all: partitions of nothing.
            None => SpillPartitions::create(&ctx.spill, "hj-probe", width)?,
        };
        let pfiles = probe.finish()?;
        let written: u64 = pfiles.iter().map(SpillFile::bytes).sum();
        let count = pfiles.iter().filter(|f| !f.is_empty()).count() as u64;
        self.stats.note_spill(count, written);
        let bfiles = std::mem::take(&mut g.build_files);
        for pair in bfiles.into_iter().zip(pfiles).rev() {
            g.pairs.push((pair.0, pair.1, 0));
        }
        g.sealed = true;
        Ok(())
    }

    /// Joins (or repartitions) one partition pair. Returns `false` when
    /// no pairs remain.
    fn grace_step(&mut self, ctx: &ExecCtx<'_>, binds: &Bindings) -> Result<bool> {
        let Some((mut bf, mut pf, level)) = self.grace.as_mut().and_then(|g| g.pairs.pop()) else {
            return Ok(false);
        };
        // An empty build partition cannot produce Inner/Semi output;
        // skip reading the probe partition entirely.
        if bf.is_empty() && matches!(self.kind, JoinKind::Inner | JoinKind::LeftSemi) {
            return Ok(true);
        }
        // Try to load this build partition into a resident table, under
        // the same reservation the in-memory build uses.
        let mut table: HashMap<Vec<Value>, Vec<Row>> = HashMap::new();
        let mut charged = 0u64;
        let mut refusal: Option<Error> = None;
        {
            let mut r = bf.reader()?;
            while let Some(block) = r.next_block()? {
                let bytes = rows_bytes(&block);
                match self.mem.grow(bytes) {
                    Ok(()) => charged += bytes,
                    Err(e) => {
                        refusal = Some(e);
                        break;
                    }
                }
                for rr in block {
                    let key = join_key(&rr, &self.right_pos)
                        .ok_or_else(|| Error::internal("NULL key in grace build partition"))?;
                    table.entry(key).or_default().push(rr);
                }
                ctx.gov.check_cancelled("HashJoin")?;
            }
        }
        if let Some(err) = refusal {
            // Partition still too big: subdivide both files one level
            // deeper, up to the recursion cap.
            drop(table);
            self.mem.shrink(charged);
            let next = level + 1;
            if next >= MAX_SPILL_DEPTH {
                // Repartition depth exhausted: one partition is still
                // too big for the budget (e.g. one very hot key).
                return Err(err.with_hint(MEM_HINT));
            }
            let mut bparts = SpillPartitions::create(&ctx.spill, "hj-build", self.right_width)?;
            let mut r = bf.reader()?;
            while let Some(block) = r.next_block()? {
                for rr in block {
                    let key = join_key(&rr, &self.right_pos)
                        .ok_or_else(|| Error::internal("NULL key in grace build partition"))?;
                    bparts.push(partition_of(hash_values(&key), next), rr)?;
                }
                ctx.gov.check_cancelled("HashJoin")?;
            }
            drop(r);
            drop(bf);
            let mut pparts = SpillPartitions::create(&ctx.spill, "hj-probe", self.left_width())?;
            let mut r = pf.reader()?;
            while let Some(block) = r.next_block()? {
                for lr in block {
                    let key = join_key(&lr, &self.left_pos)
                        .ok_or_else(|| Error::internal("NULL key in grace probe partition"))?;
                    pparts.push(partition_of(hash_values(&key), next), lr)?;
                }
                ctx.gov.check_cancelled("HashJoin")?;
            }
            drop(r);
            drop(pf);
            let bfiles = bparts.finish()?;
            let pfiles = pparts.finish()?;
            let written: u64 = bfiles.iter().chain(&pfiles).map(SpillFile::bytes).sum();
            let count = bfiles
                .iter()
                .chain(&pfiles)
                .filter(|f| !f.is_empty())
                .count() as u64;
            self.stats.note_spill(count, written);
            let g = self.grace.as_mut().expect("grace state active");
            for pair in bfiles.into_iter().zip(pfiles).rev() {
                g.pairs.push((pair.0, pair.1, next));
            }
            return Ok(true);
        }
        // Table resident: stream the probe partition through it.
        let mut r = pf.reader()?;
        while let Some(block) = r.next_block()? {
            probe_rows_against(
                &table,
                self.kind,
                &self.left_pos,
                &self.residual,
                self.residual_trivial,
                &self.combined,
                &self.combined_pos,
                self.right_width,
                block,
                binds,
                &mut self.pending,
            )?;
            ctx.gov.check_cancelled("HashJoin")?;
        }
        drop(r);
        self.mem.shrink(charged);
        Ok(true)
    }
}

impl Operator for HashJoinOp {
    fn open(&mut self, ctx: &ExecCtx<'_>) -> Result<()> {
        self.pending.clear();
        self.out_queue.clear();
        self.left_done = false;
        self.left.open(ctx)?;
        if !(self.build_stable && self.built) {
            self.table.clear();
            self.build_mode = None;
            self.build_parts.clear();
            self.build_cols.clear();
            self.build_index.clear();
            self.build_len = 0;
            self.row_table_ready = false;
            self.built = false;
            // Dropping stale grace state removes any leftover partition
            // files from a previous (errored) execution of this cached
            // pipeline.
            self.grace = None;
            // Fresh reservation: replacing the old one releases the
            // dropped table's bytes back to the pool.
            self.mem = ctx.gov.reservation("HashJoin");
            self.right.open(ctx)?;
        }
        Ok(())
    }

    fn next_batch(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<Batch>> {
        if !self.built {
            // The first build batch decides the mode; later batches in
            // the other representation are converted. The per-batch
            // fault/charge order is identical in both modes so budget
            // trips and failpoints do not depend on the representation.
            while let Some(b) = self.right.next_batch(ctx)? {
                b.check_width(self.right_width)?;
                if let Some(g) = self.grace.as_mut() {
                    // Already degraded: the failpoint still fires
                    // (Panic / Error / SlowMs), but a refused
                    // allocation is moot on the disk path.
                    match crate::faults::hit("hashjoin.build") {
                        Err(Error::ResourceExhausted { .. }) => {}
                        r => r?,
                    }
                    let rows = self.stats.bridge_rows(b);
                    let parts = g.build.as_mut().expect("build partitions active");
                    for rr in rows {
                        if let Some(key) = join_key(&rr, &self.right_pos) {
                            parts.push(partition_of(hash_values(&key), 0), rr)?;
                        }
                    }
                    ctx.gov.check_cancelled("HashJoin")?;
                    continue;
                }
                match crate::faults::hit("hashjoin.build")
                    .and_then(|()| self.mem.grow(b.mem_bytes()))
                {
                    Ok(()) => {}
                    Err(e) => {
                        let refused = matches!(e, Error::ResourceExhausted { .. });
                        if refused && self.allow_spill {
                            self.grace_start(ctx, b)?;
                            continue;
                        }
                        return Err(e.with_hint(MEM_OR_SPILL_HINT));
                    }
                }
                let columnar = *self.build_mode.get_or_insert(b.is_columnar());
                if columnar {
                    let (columns, n) = b.into_columns();
                    self.build_len += n;
                    self.build_parts.push(columns);
                } else {
                    for rr in self.stats.bridge_rows(b) {
                        if let Some(key) = join_key(&rr, &self.right_pos) {
                            self.table.entry(key).or_default().push(rr);
                        }
                    }
                }
            }
            if let Some(g) = self.grace.as_mut() {
                let parts = g.build.take().expect("build partitions active");
                let files = parts.finish()?;
                let written: u64 = files.iter().map(SpillFile::bytes).sum();
                let count = files.iter().filter(|f| !f.is_empty()).count() as u64;
                self.stats.note_spill(count, written);
                g.build_files = files;
            } else if self.build_mode != Some(false) {
                // Columnar build — or an empty build side, finished
                // columnar so columnar probes have columns to gather.
                self.build_mode = Some(true);
                self.finish_columnar_build();
            }
            self.built = true;
        }
        loop {
            if let Some(b) = self.out_queue.pop_front() {
                return Ok(Some(b));
            }
            if self.grace.is_some() {
                // Grace probe phase: partition the probe side to disk,
                // then join partition pairs one step per iteration.
                if self.pending.len() >= self.batch_size {
                    if let Some(b) =
                        drain_pending(&mut self.pending, self.batch_size, &self.out_cols)
                    {
                        return Ok(Some(b));
                    }
                }
                if !self.left_done {
                    match self.left.next_batch(ctx)? {
                        None => self.left_done = true,
                        Some(batch) => self.grace_probe_batch(ctx, batch)?,
                    }
                    continue;
                }
                if !self.grace.as_ref().is_some_and(|g| g.sealed) {
                    self.grace_seal_probe(ctx)?;
                    continue;
                }
                let binds = ctx.binds.borrow().clone();
                if self.grace_step(ctx, &binds)? {
                    continue;
                }
                if let Some(b) = drain_pending(&mut self.pending, self.batch_size, &self.out_cols) {
                    return Ok(Some(b));
                }
                return Ok(None);
            }
            if self.pending.len() >= self.batch_size || self.left_done {
                if let Some(b) = drain_pending(&mut self.pending, self.batch_size, &self.out_cols) {
                    return Ok(Some(b));
                }
                if self.left_done {
                    return Ok(None);
                }
            }
            match self.left.next_batch(ctx)? {
                None => self.left_done = true,
                Some(batch) => {
                    let binds = ctx.binds.borrow().clone();
                    let mut handled = false;
                    if batch.is_columnar() && self.build_mode == Some(true) {
                        // On kernel gap or residual error, fall back to
                        // the row path on the whole batch, which
                        // reproduces row-ordered behavior.
                        if let Ok(out) = self.probe_columns(&batch, &binds) {
                            self.stats.note_kernel();
                            if !out.is_empty() {
                                self.flush_pending();
                                self.out_queue.push_back(out);
                            }
                            handled = true;
                        }
                    }
                    if !handled {
                        self.ensure_row_table();
                        let rows = self.stats.bridge_rows(batch);
                        self.probe_rows(rows, &binds)?;
                    }
                }
            }
        }
    }

    fn mem_peak(&self) -> u64 {
        self.mem.peak()
    }
}

struct NLJoinOp {
    kind: JoinKind,
    left: BoxOp,
    right: BoxOp,
    predicate: ScalarExpr,
    combined: Rc<[ColId]>,
    combined_pos: PosMap,
    out_cols: Rc<[ColId]>,
    right_width: usize,
    /// Keep the materialized inner side across rewinds.
    right_stable: bool,
    right_rows: Vec<Row>,
    right_built: bool,
    pending: VecDeque<Row>,
    left_done: bool,
    batch_size: usize,
    mem: MemoryReservation,
    stats: StatsHandle,
}

impl NLJoinOp {
    fn probe_rows(&mut self, rows: Vec<Row>, binds: &Bindings) -> Result<()> {
        for lr in rows {
            let mut matched = false;
            for rr in &self.right_rows {
                let mut row = lr.clone();
                row.extend(rr.iter().cloned());
                if eval_predicate(
                    &self.predicate,
                    &EvalCtx::mapped(&self.combined, &self.combined_pos, &row, binds),
                )? {
                    matched = true;
                    match self.kind {
                        JoinKind::Inner | JoinKind::LeftOuter => self.pending.push_back(row),
                        JoinKind::LeftSemi | JoinKind::LeftAnti => break,
                    }
                }
            }
            match self.kind {
                JoinKind::LeftOuter if !matched => {
                    let mut row = lr;
                    row.extend(std::iter::repeat_n(Value::Null, self.right_width));
                    self.pending.push_back(row);
                }
                JoinKind::LeftSemi if matched => self.pending.push_back(lr),
                JoinKind::LeftAnti if !matched => self.pending.push_back(lr),
                _ => {}
            }
        }
        Ok(())
    }
}

impl Operator for NLJoinOp {
    fn open(&mut self, ctx: &ExecCtx<'_>) -> Result<()> {
        self.pending.clear();
        self.left_done = false;
        self.left.open(ctx)?;
        if !(self.right_stable && self.right_built) {
            self.right_rows.clear();
            self.right_built = false;
            self.mem = ctx.gov.reservation("NLJoin");
            self.right.open(ctx)?;
        }
        Ok(())
    }

    fn next_batch(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<Batch>> {
        if !self.right_built {
            while let Some(b) = self.right.next_batch(ctx)? {
                b.check_width(self.right_width)?;
                crate::faults::hit("nljoin.build")
                    .and_then(|()| self.mem.grow(b.mem_bytes()))
                    .map_err(|e| e.with_hint(MEM_HINT))?;
                let rows = self.stats.bridge_rows(b);
                self.right_rows.extend(rows);
            }
            self.right_built = true;
        }
        while self.pending.len() < self.batch_size && !self.left_done {
            match self.left.next_batch(ctx)? {
                None => self.left_done = true,
                Some(batch) => {
                    let binds = ctx.binds.borrow().clone();
                    let rows = self.stats.bridge_rows(batch);
                    self.probe_rows(rows, &binds)?;
                }
            }
        }
        Ok(drain_pending(
            &mut self.pending,
            self.batch_size,
            &self.out_cols,
        ))
    }

    fn mem_peak(&self) -> u64 {
        self.mem.peak()
    }
}

// ---------------------------------------------------------------------
// Parameterized (rebind-and-rewind) operators.
// ---------------------------------------------------------------------

struct ApplyLoopOp {
    kind: ApplyKind,
    left: BoxOp,
    inner: BoxOp,
    param_pos: Vec<(ColId, usize)>,
    right_width: usize,
    out_cols: Rc<[ColId]>,
    /// Private bindings the inner plan runs under; parameter slots are
    /// overwritten per outer row, then the inner subtree is re-opened.
    inner_binds: Rc<RefCell<Bindings>>,
    pending: VecDeque<Row>,
    left_done: bool,
    batch_size: usize,
    stats: StatsHandle,
}

impl Operator for ApplyLoopOp {
    fn open(&mut self, ctx: &ExecCtx<'_>) -> Result<()> {
        self.inner_binds = Rc::new(RefCell::new(ctx.binds.borrow().clone()));
        self.pending.clear();
        self.left_done = false;
        self.left.open(ctx)
    }

    fn next_batch(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<Batch>> {
        while self.pending.len() < self.batch_size && !self.left_done {
            let Some(batch) = self.left.next_batch(ctx)? else {
                self.left_done = true;
                break;
            };
            let ictx = ExecCtx {
                catalog: ctx.catalog,
                binds: self.inner_binds.clone(),
                parallelism: ctx.parallelism,
                gov: ctx.gov.clone(),
                shared_catalog: ctx.shared_catalog.clone(),
                spill: Rc::clone(&ctx.spill),
            };
            for lr in self.stats.bridge_rows(batch) {
                {
                    let mut binds = self.inner_binds.borrow_mut();
                    for (p, i) in &self.param_pos {
                        binds.set(*p, lr[*i].clone());
                    }
                }
                self.inner.open(&ictx)?;
                let mut inner_rows = Vec::new();
                while let Some(b) = self.inner.next_batch(&ictx)? {
                    b.check_width(self.right_width)?;
                    inner_rows.extend(self.stats.bridge_rows(b));
                }
                match self.kind {
                    ApplyKind::Cross | ApplyKind::LeftOuter => {
                        if inner_rows.is_empty() && self.kind == ApplyKind::LeftOuter {
                            let mut row = lr;
                            row.extend(std::iter::repeat_n(Value::Null, self.right_width));
                            self.pending.push_back(row);
                        } else {
                            for ir in inner_rows {
                                let mut row = lr.clone();
                                row.extend(ir);
                                self.pending.push_back(row);
                            }
                        }
                    }
                    ApplyKind::Semi => {
                        if !inner_rows.is_empty() {
                            self.pending.push_back(lr);
                        }
                    }
                    ApplyKind::Anti => {
                        if inner_rows.is_empty() {
                            self.pending.push_back(lr);
                        }
                    }
                }
            }
        }
        // The loop itself is row-at-a-time (it rebinds per outer row);
        // transposing the assembled batch keeps downstream vectorized
        // operators on the kernel path.
        Ok(
            drain_pending(&mut self.pending, self.batch_size, &self.out_cols)
                .map(Batch::to_columnar),
        )
    }
}

/// Dedups one outer batch on the correlation parameters: returns the
/// distinct binding tuples in first-seen order, the tuple index per
/// outer row, and the rows themselves. Columnar batches dedup on the
/// parameter lanes directly (a vectorized kernel) before bridging to
/// rows for assembly.
fn dedup_apply_batch(
    param_pos: &[(ColId, usize)],
    batch: Batch,
    stats: &StatsHandle,
) -> (Vec<Row>, Vec<usize>, Vec<Row>) {
    if let Repr::Columns { columns, len } = &batch.repr {
        let key_cols: Vec<&Column> = param_pos.iter().map(|(_, i)| &columns[*i]).collect();
        let (distinct, group_of) = dedup_lanes(&key_cols, *len);
        stats.note_kernel();
        let rows = stats.bridge_rows(batch);
        return (distinct, group_of, rows);
    }
    let rows = batch.into_rows();
    let mut index: HashMap<Row, usize> = HashMap::new();
    let mut distinct: Vec<Row> = Vec::new();
    let mut group_of = Vec::with_capacity(rows.len());
    for r in &rows {
        let key: Row = param_pos.iter().map(|(_, i)| r[*i].clone()).collect();
        match index.get(&key) {
            Some(&g) => group_of.push(g),
            None => {
                let g = distinct.len();
                index.insert(key.clone(), g);
                distinct.push(key);
                group_of.push(g);
            }
        }
    }
    (distinct, group_of, rows)
}

/// Applies the `ApplyKind` combination semantics for one outer row
/// against its inner result — shared by the batched apply operators so
/// they match [`ApplyLoopOp`] exactly.
fn emit_apply_row(
    kind: ApplyKind,
    lr: Row,
    inner_rows: &[Row],
    right_width: usize,
    pending: &mut VecDeque<Row>,
) {
    match kind {
        ApplyKind::Cross | ApplyKind::LeftOuter => {
            if inner_rows.is_empty() && kind == ApplyKind::LeftOuter {
                let mut row = lr;
                row.extend(std::iter::repeat_n(Value::Null, right_width));
                pending.push_back(row);
            } else {
                for ir in inner_rows {
                    let mut row = lr.clone();
                    row.extend(ir.iter().cloned());
                    pending.push_back(row);
                }
            }
        }
        ApplyKind::Semi => {
            if !inner_rows.is_empty() {
                pending.push_back(lr);
            }
        }
        ApplyKind::Anti => {
            if inner_rows.is_empty() {
                pending.push_back(lr);
            }
        }
    }
}

/// Batched correlated execution: dedups each outer batch on the
/// correlation parameters and runs the inner plan once per *distinct*
/// binding, caching inner results across batches in a governor-charged
/// binding cache. This generalizes the invariant-subtree cache
/// ([`CacheOp`], the zero-parameter case) to parameterized inners.
///
/// NULL binding semantics: cache keys use `Value`'s own `Eq`, under
/// which `Null == Null` but `Null != v` for every non-NULL `v` — so a
/// NULL correlation parameter can never hit a cached non-NULL result,
/// and two NULL bindings sharing one entry is sound because the inner
/// plan is deterministic per binding tuple (an `IndexSeek` under a NULL
/// probe yields empty on every execution, per SQL equality).
struct BatchedApplyOp {
    kind: ApplyKind,
    left: BoxOp,
    inner: BoxOp,
    param_pos: Vec<(ColId, usize)>,
    right_width: usize,
    out_cols: Rc<[ColId]>,
    inner_binds: Rc<RefCell<Bindings>>,
    /// Inner results per distinct binding tuple, kept across batches
    /// within one execution; cleared on every `open` (rewinds under an
    /// outer apply re-parameterize the whole subtree).
    cache: HashMap<Row, Rc<Vec<Row>>>,
    /// Set when the governor refused binding-cache growth: the cache is
    /// shed and bindings execute uncached (still deduped per batch).
    degraded: bool,
    mem: MemoryReservation,
    pending: VecDeque<Row>,
    left_done: bool,
    batch_size: usize,
    stats: StatsHandle,
}

impl BatchedApplyOp {
    /// Runs the inner plan under one binding tuple and drains it.
    fn run_inner(&mut self, ictx: &ExecCtx<'_>, key: &[Value]) -> Result<Vec<Row>> {
        {
            let mut binds = self.inner_binds.borrow_mut();
            for ((p, _), v) in self.param_pos.iter().zip(key.iter()) {
                binds.set(*p, v.clone());
            }
        }
        self.inner.open(ictx)?;
        let mut inner_rows = Vec::new();
        while let Some(b) = self.inner.next_batch(ictx)? {
            b.check_width(self.right_width)?;
            inner_rows.extend(self.stats.bridge_rows(b));
        }
        self.stats.note_distinct_binding();
        Ok(inner_rows)
    }

    /// Caches one binding's result, charging the governor; on refusal
    /// the cache is shed (reset + degrade) and execution continues
    /// uncached — results are identical either way.
    fn try_cache(&mut self, key: Row, rs: &Rc<Vec<Row>>) -> Result<()> {
        let bytes = rows_bytes(std::slice::from_ref(&key)) + rows_bytes(rs);
        match crate::faults::hit("batched.bindings").and_then(|()| self.mem.grow(bytes)) {
            Ok(()) => {
                self.cache.insert(key, rs.clone());
                Ok(())
            }
            Err(Error::ResourceExhausted { .. }) => {
                self.stats.note_mem_peak(self.mem.peak());
                self.mem.reset();
                self.cache.clear();
                self.degraded = true;
                Ok(())
            }
            Err(e) => Err(e),
        }
    }
}

impl Operator for BatchedApplyOp {
    fn open(&mut self, ctx: &ExecCtx<'_>) -> Result<()> {
        self.inner_binds = Rc::new(RefCell::new(ctx.binds.borrow().clone()));
        self.cache.clear();
        self.degraded = false;
        self.mem = ctx.gov.reservation("BatchedApply");
        self.pending.clear();
        self.left_done = false;
        self.left.open(ctx)
    }

    fn next_batch(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<Batch>> {
        while self.pending.len() < self.batch_size && !self.left_done {
            let Some(batch) = self.left.next_batch(ctx)? else {
                self.left_done = true;
                break;
            };
            let (distinct, group_of, rows) = dedup_apply_batch(&self.param_pos, batch, &self.stats);
            let ictx = ExecCtx {
                catalog: ctx.catalog,
                binds: self.inner_binds.clone(),
                parallelism: ctx.parallelism,
                gov: ctx.gov.clone(),
                shared_catalog: ctx.shared_catalog.clone(),
                spill: Rc::clone(&ctx.spill),
            };
            let mut results: Vec<Rc<Vec<Row>>> = Vec::with_capacity(distinct.len());
            for key in distinct {
                if let Some(rs) = self.cache.get(&key) {
                    results.push(rs.clone());
                    continue;
                }
                let rs = Rc::new(self.run_inner(&ictx, &key)?);
                if !self.degraded {
                    self.try_cache(key, &rs)?;
                }
                results.push(rs);
            }
            for (lr, g) in rows.into_iter().zip(group_of) {
                emit_apply_row(
                    self.kind,
                    lr,
                    &results[g],
                    self.right_width,
                    &mut self.pending,
                );
            }
        }
        Ok(
            drain_pending(&mut self.pending, self.batch_size, &self.out_cols)
                .map(Batch::to_columnar),
        )
    }

    fn mem_peak(&self) -> u64 {
        self.mem.peak()
    }
}

/// Correlated index-lookup join (§4): per distinct outer binding,
/// probes the table's hash index directly, applies the residual over
/// the fetched layout, and projects the inner columns — the whole
/// seek-shaped inner plan fused into this operator. Shares the binding
/// cache + dedup machinery (and its NULL semantics) with
/// [`BatchedApplyOp`]; a NULL probe value yields the empty inner result
/// (SQL equality never matches NULL), exactly like `IndexSeek` under
/// `ApplyLoop`.
struct IndexLookupJoinOp {
    kind: ApplyKind,
    left: BoxOp,
    table: TableId,
    positions: Vec<usize>,
    fetch_cols: Vec<ColId>,
    index_cols: Vec<usize>,
    probes: Vec<ScalarExpr>,
    residual: ScalarExpr,
    /// Positions of the output projection within `fetch_cols`.
    proj: Vec<usize>,
    param_pos: Vec<(ColId, usize)>,
    right_width: usize,
    out_cols: Rc<[ColId]>,
    inner_binds: Rc<RefCell<Bindings>>,
    cache: HashMap<Row, Rc<Vec<Row>>>,
    degraded: bool,
    mem: MemoryReservation,
    pending: VecDeque<Row>,
    left_done: bool,
    batch_size: usize,
    stats: StatsHandle,
}

impl IndexLookupJoinOp {
    /// Probes the index under one binding tuple: evaluates the probe
    /// expressions against the rebound parameters, looks up matching
    /// row ids, fetches + filters + projects.
    fn probe(&mut self, ctx: &ExecCtx<'_>, key: &[Value]) -> Result<Vec<Row>> {
        {
            let mut binds = self.inner_binds.borrow_mut();
            for ((p, _), v) in self.param_pos.iter().zip(key.iter()) {
                binds.set(*p, v.clone());
            }
        }
        self.stats.note_distinct_binding();
        let binds = self.inner_binds.borrow();
        let empty_ctx = EvalCtx::plain(&[], &[], &binds);
        let mut probe_key = Vec::with_capacity(self.probes.len());
        for probe in &self.probes {
            let v = eval(probe, &empty_ctx)?;
            if v.is_null() {
                // SQL equality never matches NULL: empty result.
                return Ok(Vec::new());
            }
            probe_key.push(v);
        }
        let t = ctx.catalog.table(self.table);
        let hits = t
            .index_lookup(&self.index_cols, &probe_key)
            .ok_or_else(|| {
                Error::internal(format!(
                    "missing index on {:?} of {}",
                    self.index_cols, t.def.name
                ))
            })?;
        self.stats.note_index_probe();
        let all = t.rows();
        let mut out = Vec::new();
        for &rid in hits {
            let r = &all[rid];
            let fetched: Row = self.positions.iter().map(|&i| r[i].clone()).collect();
            if eval_predicate(
                &self.residual,
                &EvalCtx::plain(&self.fetch_cols, &fetched, &binds),
            )? {
                out.push(self.proj.iter().map(|&i| fetched[i].clone()).collect());
            }
        }
        Ok(out)
    }

    /// Caches one binding's fetched result, charging the governor; on
    /// refusal the cache is shed and probing continues uncached.
    fn try_cache(&mut self, key: Row, rs: &Rc<Vec<Row>>) -> Result<()> {
        let bytes = rows_bytes(std::slice::from_ref(&key)) + rows_bytes(rs);
        match crate::faults::hit("indexjoin.fetch").and_then(|()| self.mem.grow(bytes)) {
            Ok(()) => {
                self.cache.insert(key, rs.clone());
                Ok(())
            }
            Err(Error::ResourceExhausted { .. }) => {
                self.stats.note_mem_peak(self.mem.peak());
                self.mem.reset();
                self.cache.clear();
                self.degraded = true;
                Ok(())
            }
            Err(e) => Err(e),
        }
    }
}

impl Operator for IndexLookupJoinOp {
    fn open(&mut self, ctx: &ExecCtx<'_>) -> Result<()> {
        // Validate index selection up front, so a mis-planned probe
        // fails at open rather than on the first non-NULL binding.
        let t = ctx.catalog.table(self.table);
        if t.select_index(&self.index_cols).as_deref() != Some(&self.index_cols[..]) {
            return Err(Error::internal(format!(
                "missing index on {:?} of {}",
                self.index_cols, t.def.name
            )));
        }
        self.inner_binds = Rc::new(RefCell::new(ctx.binds.borrow().clone()));
        self.cache.clear();
        self.degraded = false;
        self.mem = ctx.gov.reservation("IndexLookupJoin");
        self.pending.clear();
        self.left_done = false;
        self.left.open(ctx)
    }

    fn next_batch(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<Batch>> {
        while self.pending.len() < self.batch_size && !self.left_done {
            let Some(batch) = self.left.next_batch(ctx)? else {
                self.left_done = true;
                break;
            };
            let (distinct, group_of, rows) = dedup_apply_batch(&self.param_pos, batch, &self.stats);
            let mut results: Vec<Rc<Vec<Row>>> = Vec::with_capacity(distinct.len());
            for key in distinct {
                if let Some(rs) = self.cache.get(&key) {
                    results.push(rs.clone());
                    continue;
                }
                let rs = Rc::new(self.probe(ctx, &key)?);
                if !self.degraded {
                    self.try_cache(key, &rs)?;
                }
                results.push(rs);
            }
            for (lr, g) in rows.into_iter().zip(group_of) {
                emit_apply_row(
                    self.kind,
                    lr,
                    &results[g],
                    self.right_width,
                    &mut self.pending,
                );
            }
        }
        Ok(
            drain_pending(&mut self.pending, self.batch_size, &self.out_cols)
                .map(Batch::to_columnar),
        )
    }

    fn mem_peak(&self) -> u64 {
        self.mem.peak()
    }
}

/// Where each `SegmentExec` output column comes from.
enum OutSrc {
    /// Position within the segment key.
    Seg(usize),
    /// Position within the inner plan's output.
    Inner(usize),
}

struct SegmentExecOp {
    input: BoxOp,
    inner: BoxOp,
    seg_pos: Vec<usize>,
    input_cols: Vec<ColId>,
    out_src: Vec<OutSrc>,
    out_cols: Rc<[ColId]>,
    inner_binds: Rc<RefCell<Bindings>>,
    /// Segments in first-seen order: `(key, rows)`.
    segments: Vec<(Vec<Value>, Vec<Row>)>,
    partitioned: bool,
    seg_cursor: usize,
    pending: VecDeque<Row>,
    batch_size: usize,
    mem: MemoryReservation,
    stats: StatsHandle,
}

impl Operator for SegmentExecOp {
    fn open(&mut self, ctx: &ExecCtx<'_>) -> Result<()> {
        self.inner_binds = Rc::new(RefCell::new(ctx.binds.borrow().clone()));
        self.segments.clear();
        self.partitioned = false;
        self.seg_cursor = 0;
        self.pending.clear();
        self.mem = ctx.gov.reservation("SegmentExec");
        self.input.open(ctx)
    }

    fn next_batch(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<Batch>> {
        if !self.partitioned {
            // The partitioner is a pipeline breaker: it must see every
            // input row before any segment runs.
            let mut index: HashMap<Vec<Value>, usize> = HashMap::new();
            while let Some(b) = self.input.next_batch(ctx)? {
                b.check_width(self.input_cols.len())?;
                crate::faults::hit("segment.partition")
                    .and_then(|()| self.mem.grow(b.mem_bytes()))
                    .map_err(|e| e.with_hint(MEM_HINT))?;
                for r in self.stats.bridge_rows(b) {
                    let key: Vec<Value> = self.seg_pos.iter().map(|&i| r[i].clone()).collect();
                    match index.get(&key) {
                        Some(&i) => self.segments[i].1.push(r),
                        None => {
                            index.insert(key.clone(), self.segments.len());
                            self.segments.push((key, vec![r]));
                        }
                    }
                }
            }
            self.partitioned = true;
        }
        while self.pending.len() < self.batch_size && self.seg_cursor < self.segments.len() {
            let (key, rows) = {
                let (k, r) = &mut self.segments[self.seg_cursor];
                (k.clone(), std::mem::take(r))
            };
            self.seg_cursor += 1;
            let segment = Rc::new(Chunk::new(self.input_cols.clone(), rows));
            self.inner_binds.borrow_mut().push_segment(segment);
            let ictx = ExecCtx {
                catalog: ctx.catalog,
                binds: self.inner_binds.clone(),
                parallelism: ctx.parallelism,
                gov: ctx.gov.clone(),
                shared_catalog: ctx.shared_catalog.clone(),
                spill: Rc::clone(&ctx.spill),
            };
            let run = (|| -> Result<()> {
                self.inner.open(&ictx)?;
                while let Some(b) = self.inner.next_batch(&ictx)? {
                    for ir in self.stats.bridge_rows(b) {
                        let row: Row = self
                            .out_src
                            .iter()
                            .map(|src| match src {
                                OutSrc::Seg(i) => key[*i].clone(),
                                OutSrc::Inner(p) => ir[*p].clone(),
                            })
                            .collect();
                        self.pending.push_back(row);
                    }
                }
                Ok(())
            })();
            self.inner_binds.borrow_mut().pop_segment();
            run?;
        }
        Ok(
            drain_pending(&mut self.pending, self.batch_size, &self.out_cols)
                .map(Batch::to_columnar),
        )
    }

    fn mem_peak(&self) -> u64 {
        self.mem.peak()
    }
}

// ---------------------------------------------------------------------
// Pipeline breakers.
// ---------------------------------------------------------------------

/// Disk-resident overflow of a spillable hash aggregation: rows the
/// resident state refused are stored as already-evaluated
/// `key ++ present-args` tuples (no re-evaluation on restore),
/// partitioned by group-key hash.
struct SpilledAgg {
    parts: SpillPartitions,
    key_width: usize,
    /// Which aggregate specs carry an argument value in the spilled row
    /// (static per plan: `arg` is `Some` for everything but COUNT(*)).
    has_arg: Vec<bool>,
}

/// How an aggregate reads its input batches: where the group key sits
/// and which argument expression each aggregate evaluates. The serial
/// [`HashAggregateOp`] and the exchange's partial-aggregation workers
/// feed their [`GroupedAggState`]s through this one routine.
pub(crate) struct AggInput<'a> {
    pub(crate) group_pos: &'a [usize],
    pub(crate) aggs: &'a [AggDef],
    pub(crate) cols: &'a [ColId],
    pub(crate) pos: &'a PosMap,
}

/// What [`AggInput::feed`] did not apply to the state.
pub(crate) struct Unfed {
    /// Evaluated `(key, args)` of the rows not applied, in input order.
    pub(crate) rows: Vec<(Row, Vec<Option<Value>>)>,
    /// The governor's refusal, when one stopped the feed in this batch.
    pub(crate) refusal: Option<Error>,
    /// The batch went through the whole-column kernels.
    pub(crate) vectorized: bool,
}

impl AggInput<'_> {
    /// Feeds one batch into `state` (`None`: a frozen state, every row
    /// comes back unfed). A columnar batch evaluates each aggregate
    /// argument as a whole column, then streams the lanes in through
    /// [`GroupedAggState::feed_lanes_or_reject`]; an argument kernel
    /// error, or a row batch, takes the row path on the whole batch.
    /// Charges are lane- and row-atomic, so a refusal leaves the state
    /// consistent: the feed stops there and, if `keep_tail`, the rest of
    /// the batch is evaluated and handed back for spilling.
    pub(crate) fn feed(
        &self,
        mut state: Option<&mut GroupedAggState>,
        b: Batch,
        binds: &Bindings,
        keep_tail: bool,
    ) -> Result<Unfed> {
        if let Some((columns, len)) = b.columns() {
            let cx = VecEval {
                cols: self.cols,
                pos: self.pos,
                columns,
                len,
                binds,
            };
            let args: Result<Vec<Option<Column>>> = self
                .aggs
                .iter()
                .map(|a| a.arg.as_ref().map(|e| eval_column(e, &cx)).transpose())
                .collect();
            if let Ok(arg_cols) = args {
                let key_cols: Vec<&Column> = self.group_pos.iter().map(|&i| &columns[i]).collect();
                let (applied, refusal) = match state {
                    Some(st) => st.feed_lanes_or_reject(&key_cols, &arg_cols, len)?,
                    None => (0, None),
                };
                let tail = if refusal.is_some() && !keep_tail {
                    len
                } else {
                    applied
                };
                let rows = (tail..len)
                    .map(|i| {
                        let key: Row = key_cols.iter().map(|c| c.value(i)).collect();
                        let row_args = arg_cols
                            .iter()
                            .map(|c| c.as_ref().map(|c| c.value(i)))
                            .collect();
                        (key, row_args)
                    })
                    .collect();
                return Ok(Unfed {
                    rows,
                    refusal,
                    vectorized: true,
                });
            }
        }
        let mut unfed = Unfed {
            rows: Vec::new(),
            refusal: None,
            vectorized: false,
        };
        for r in &b.into_rows() {
            let key: Row = self.group_pos.iter().map(|&i| r[i].clone()).collect();
            let args = self
                .aggs
                .iter()
                .map(|a| {
                    a.arg
                        .as_ref()
                        .map(|e| eval(e, &EvalCtx::mapped(self.cols, self.pos, r, binds)))
                        .transpose()
                })
                .collect::<Result<Vec<_>>>()?;
            let resident = state.as_deref_mut().filter(|_| unfed.refusal.is_none());
            let Some(st) = resident else {
                unfed.rows.push((key, args));
                continue;
            };
            if let FeedOutcome::Refused { key, args, err } = st.feed_or_reject(key, args)? {
                unfed.refusal = Some(err);
                if !keep_tail {
                    break;
                }
                unfed.rows.push((key, args));
            }
        }
        Ok(unfed)
    }
}

struct HashAggregateOp {
    kind: GroupKind,
    input: BoxOp,
    group_pos: Vec<usize>,
    aggs: Vec<AggDef>,
    in_cols: Rc<[ColId]>,
    in_pos: PosMap,
    out_cols: Rc<[ColId]>,
    state: Option<GroupedAggState>,
    result: VecDeque<Row>,
    done: bool,
    batch_size: usize,
    /// Peak bytes of the grouped state, captured before `finish`
    /// consumes it (the reservation lives inside the state).
    mem_peak: u64,
    /// Degrade to partitioned spilling on a refused state charge.
    allow_spill: bool,
    /// Active spill state; once set, the resident group state is frozen
    /// and every further input row goes to disk.
    spilled: Option<SpilledAgg>,
    stats: StatsHandle,
}

impl HashAggregateOp {
    /// Enters spill mode (idempotent): the resident state freezes and
    /// further rows are partitioned to disk by group-key hash.
    fn enter_spill(&mut self, ctx: &ExecCtx<'_>) -> Result<()> {
        if self.spilled.is_some() {
            return Ok(());
        }
        let has_arg: Vec<bool> = self.aggs.iter().map(|a| a.arg.is_some()).collect();
        let width = self.group_pos.len() + has_arg.iter().filter(|&&h| h).count();
        let parts = SpillPartitions::create(&ctx.spill, "agg-part", width)?;
        self.spilled = Some(SpilledAgg {
            parts,
            key_width: self.group_pos.len(),
            has_arg,
        });
        Ok(())
    }

    /// Routes one evaluated `(key, args)` row to its spill partition.
    fn spill_row(&mut self, key: Row, args: Vec<Option<Value>>) -> Result<()> {
        let sp = self.spilled.as_mut().expect("spill mode active");
        let p = partition_of(hash_values(&key), 0);
        let mut row = key;
        row.extend(args.into_iter().flatten());
        sp.parts.push(p, row)?;
        Ok(())
    }

    /// Pulls the whole input through the grouped state, degrading to
    /// disk partitions when the governor refuses a charge.
    fn drain_input(&mut self, ctx: &ExecCtx<'_>, state: &mut GroupedAggState) -> Result<()> {
        while let Some(b) = self.input.next_batch(ctx)? {
            match crate::faults::hit("hashagg.state") {
                Ok(()) => {}
                Err(e) => {
                    let refused = matches!(e, Error::ResourceExhausted { .. });
                    if !(refused && self.allow_spill) {
                        return Err(e.with_hint(MEM_OR_SPILL_HINT));
                    }
                    self.enter_spill(ctx)?;
                }
            }
            let columnar = b.is_columnar();
            let unfed = AggInput {
                group_pos: &self.group_pos,
                aggs: &self.aggs,
                cols: &self.in_cols,
                pos: &self.in_pos,
            }
            .feed(
                // Once spilling, the resident state is frozen.
                self.spilled.is_none().then_some(&mut *state),
                b,
                &ctx.binds.borrow(),
                self.allow_spill,
            )?;
            if unfed.vectorized {
                self.stats.note_kernel();
            } else if columnar {
                self.stats.note_bridge();
            }
            if let Some(err) = unfed.refusal {
                if !self.allow_spill {
                    return Err(err.with_hint(MEM_OR_SPILL_HINT));
                }
                self.enter_spill(ctx)?;
            }
            if !unfed.rows.is_empty() {
                for (key, args) in unfed.rows {
                    self.spill_row(key, args)?;
                }
                ctx.gov.check_cancelled("HashAggregate")?;
            }
        }
        Ok(())
    }

    /// Replays one spilled partition file into `st`.
    fn replay_file(
        ctx: &ExecCtx<'_>,
        st: &mut GroupedAggState,
        file: &mut SpillFile,
        key_width: usize,
        has_arg: &[bool],
    ) -> Result<()> {
        let mut r = file.reader()?;
        while let Some(rows) = r.next_block()? {
            for row in rows {
                let mut it = row.into_iter();
                let key: Row = it.by_ref().take(key_width).collect();
                let args: Vec<Option<Value>> = has_arg
                    .iter()
                    .map(|&h| if h { it.next() } else { None })
                    .collect();
                st.feed(key, args).map_err(|e| e.with_hint(MEM_HINT))?;
            }
            ctx.gov.check_cancelled("HashAggregate")?;
        }
        Ok(())
    }

    /// Finishes a spilled aggregation: the frozen resident state is
    /// split by the same partition function the disk rows used, then
    /// each partition is finalized independently — merge the resident
    /// split, replay the partition file, emit. Peak memory is one
    /// partition's groups instead of all of them.
    fn finish_spilled(
        &mut self,
        ctx: &ExecCtx<'_>,
        state: GroupedAggState,
        sp: SpilledAgg,
    ) -> Result<Vec<Row>> {
        let SpilledAgg {
            parts,
            key_width,
            has_arg,
        } = sp;
        let files = parts.finish()?;
        let written: u64 = files.iter().map(SpillFile::bytes).sum();
        let count = files.iter().filter(|f| !f.is_empty()).count() as u64;
        self.stats.note_spill(count, written);
        let splits = state.split_by(FANOUT, |key| partition_of(hash_values(key), 0));
        if matches!(self.kind, GroupKind::Scalar) {
            // Scalar aggregation has a single (empty) group key, so all
            // rows live in one partition: fold everything into one
            // state and finish once, so `agg(∅)` fires exactly when the
            // whole input was empty.
            let mut total = GroupedAggState::new(&self.aggs);
            total.set_reservation(ctx.gov.reservation("HashAggregate"));
            let r = (|| -> Result<()> {
                for split in splits {
                    total.merge(split).map_err(|e| e.with_hint(MEM_HINT))?;
                }
                for mut file in files {
                    Self::replay_file(ctx, &mut total, &mut file, key_width, &has_arg)?;
                }
                Ok(())
            })();
            self.mem_peak = self.mem_peak.max(total.mem_peak());
            r?;
            return Ok(total.finish(self.kind));
        }
        let mut out = Vec::new();
        for (split, mut file) in splits.into_iter().zip(files) {
            let mut st = GroupedAggState::new(&self.aggs);
            st.set_reservation(ctx.gov.reservation("HashAggregate"));
            let r = (|| -> Result<()> {
                st.merge(split).map_err(|e| e.with_hint(MEM_HINT))?;
                Self::replay_file(ctx, &mut st, &mut file, key_width, &has_arg)
            })();
            self.mem_peak = self.mem_peak.max(st.mem_peak());
            r?;
            out.extend(st.finish(self.kind));
            // The partition file is consumed; dropping it reclaims the
            // disk space before the next partition loads.
            drop(file);
            ctx.gov.check_cancelled("HashAggregate")?;
        }
        Ok(out)
    }
}

impl Operator for HashAggregateOp {
    fn open(&mut self, ctx: &ExecCtx<'_>) -> Result<()> {
        let mut state = GroupedAggState::new(&self.aggs);
        state.set_reservation(ctx.gov.reservation("HashAggregate"));
        self.state = Some(state);
        self.result.clear();
        self.done = false;
        self.mem_peak = 0;
        // Dropping stale spill partitions removes their files (left by
        // a previous errored execution of this cached pipeline).
        self.spilled = None;
        self.input.open(ctx)
    }

    fn next_batch(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<Batch>> {
        if !self.done {
            let mut state = self
                .state
                .take()
                .ok_or_else(|| Error::internal("aggregate state missing"))?;
            let fed = self.drain_input(ctx, &mut state);
            self.mem_peak = self.mem_peak.max(state.mem_peak());
            fed?;
            self.result = match self.spilled.take() {
                None => state.finish(self.kind),
                Some(sp) => self.finish_spilled(ctx, state, sp)?,
            }
            .into();
            self.done = true;
        }
        Ok(
            drain_pending(&mut self.result, self.batch_size, &self.out_cols)
                .map(Batch::to_columnar),
        )
    }

    fn mem_peak(&self) -> u64 {
        self.mem_peak
    }
}

struct LimitOp {
    input: BoxOp,
    n: usize,
    cols: Rc<[ColId]>,
    buffered: VecDeque<Row>,
    done: bool,
    batch_size: usize,
    mem: MemoryReservation,
    stats: StatsHandle,
}

impl Operator for LimitOp {
    fn open(&mut self, ctx: &ExecCtx<'_>) -> Result<()> {
        self.buffered.clear();
        self.done = false;
        self.mem = ctx.gov.reservation("Limit");
        self.input.open(ctx)
    }

    fn next_batch(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<Batch>> {
        if !self.done {
            // Drain the child completely so errors past the cutoff still
            // surface, matching materialized semantics.
            while let Some(b) = self.input.next_batch(ctx)? {
                b.check_width(self.cols.len())?;
                let room = self.n.saturating_sub(self.buffered.len());
                if room == 0 {
                    // Past the cutoff: keep draining for errors but
                    // skip the (bridge) conversion entirely.
                    continue;
                }
                let kept: Vec<Row> = self.stats.bridge_rows(b).into_iter().take(room).collect();
                if !kept.is_empty() {
                    crate::faults::hit("limit.buffer")
                        .and_then(|()| self.mem.grow(rows_bytes(&kept)))
                        .map_err(|e| e.with_hint(MEM_HINT))?;
                    self.buffered.extend(kept);
                }
            }
            self.done = true;
        }
        Ok(drain_pending(
            &mut self.buffered,
            self.batch_size,
            &self.cols,
        ))
    }

    fn mem_peak(&self) -> u64 {
        self.mem.peak()
    }
}

struct AssertMax1Op {
    input: BoxOp,
    cols: Rc<[ColId]>,
    buffered: Vec<Row>,
    done: bool,
    mem: MemoryReservation,
    stats: StatsHandle,
}

impl Operator for AssertMax1Op {
    fn open(&mut self, ctx: &ExecCtx<'_>) -> Result<()> {
        self.buffered.clear();
        self.done = false;
        self.mem = ctx.gov.reservation("Max1Row");
        self.input.open(ctx)
    }

    fn next_batch(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<Batch>> {
        if self.done {
            return Ok(None);
        }
        // Materialize first: input errors take precedence over the
        // cardinality violation, as in the reference semantics.
        while let Some(b) = self.input.next_batch(ctx)? {
            b.check_width(self.cols.len())?;
            crate::faults::hit("max1.buffer")
                .and_then(|()| self.mem.grow(b.mem_bytes()))
                .map_err(|e| e.with_hint(MEM_HINT))?;
            let rows = self.stats.bridge_rows(b);
            self.buffered.extend(rows);
        }
        self.done = true;
        if self.buffered.len() > 1 {
            return Err(Error::SubqueryReturnedMoreThanOneRow);
        }
        if self.buffered.is_empty() {
            return Ok(None);
        }
        Ok(Some(Batch::new(
            self.cols.clone(),
            std::mem::take(&mut self.buffered),
        )))
    }

    fn mem_peak(&self) -> u64 {
        self.mem.peak()
    }
}

struct ConcatOp {
    left: BoxOp,
    right: BoxOp,
    lpos: Vec<usize>,
    rpos: Vec<usize>,
    cols: Rc<[ColId]>,
    on_right: bool,
    stats: StatsHandle,
}

impl ConcatOp {
    /// Remaps one side's layout onto the output layout; columnar
    /// batches stay columnar (column selection is O(1) per column).
    fn remap(&self, b: Batch, pos: &[usize]) -> Batch {
        if let Some((columns, len)) = b.columns() {
            let out = pos.iter().map(|&i| columns[i].clone()).collect();
            self.stats.note_kernel();
            return Batch::from_columns(self.cols.clone(), out, len);
        }
        let rows = b
            .into_rows()
            .into_iter()
            .map(|r| pos.iter().map(|&i| r[i].clone()).collect())
            .collect();
        Batch::new(self.cols.clone(), rows)
    }
}

impl Operator for ConcatOp {
    fn open(&mut self, ctx: &ExecCtx<'_>) -> Result<()> {
        self.on_right = false;
        self.left.open(ctx)?;
        self.right.open(ctx)
    }

    fn next_batch(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<Batch>> {
        if !self.on_right {
            if let Some(b) = self.left.next_batch(ctx)? {
                let out = self.remap(b, &self.lpos);
                return Ok(Some(out));
            }
            self.on_right = true;
        }
        let Some(b) = self.right.next_batch(ctx)? else {
            return Ok(None);
        };
        let out = self.remap(b, &self.rpos);
        Ok(Some(out))
    }
}

struct ExceptOp {
    left: BoxOp,
    right: BoxOp,
    rpos: Vec<usize>,
    cols: Rc<[ColId]>,
    counts: HashMap<Row, usize>,
    built: bool,
    mem: MemoryReservation,
    stats: StatsHandle,
}

impl Operator for ExceptOp {
    fn open(&mut self, ctx: &ExecCtx<'_>) -> Result<()> {
        self.counts.clear();
        self.built = false;
        self.mem = ctx.gov.reservation("Except");
        self.left.open(ctx)?;
        self.right.open(ctx)
    }

    fn next_batch(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<Batch>> {
        if !self.built {
            while let Some(b) = self.right.next_batch(ctx)? {
                crate::faults::hit("except.build")
                    .and_then(|()| self.mem.grow(b.mem_bytes()))
                    .map_err(|e| e.with_hint(MEM_HINT))?;
                for r in &self.stats.bridge_rows(b) {
                    let key: Row = self.rpos.iter().map(|&i| r[i].clone()).collect();
                    *self.counts.entry(key).or_insert(0) += 1;
                }
            }
            self.built = true;
        }
        loop {
            let Some(b) = self.left.next_batch(ctx)? else {
                return Ok(None);
            };
            let mut rows = Vec::new();
            for row in self.stats.bridge_rows(b) {
                match self.counts.get_mut(&row) {
                    Some(n) if *n > 0 => *n -= 1,
                    _ => rows.push(row),
                }
            }
            if !rows.is_empty() {
                return Ok(Some(Batch::new(self.cols.clone(), rows)));
            }
        }
    }

    fn mem_peak(&self) -> u64 {
        self.mem.peak()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orthopt_common::DataType;
    use orthopt_storage::{Catalog, ColumnDef, TableDef};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let t = c
            .create_table(TableDef::new(
                "t",
                vec![
                    ColumnDef::new("a", DataType::Int),
                    ColumnDef::new("b", DataType::Int),
                ],
                vec![vec![0]],
            ))
            .unwrap();
        c.table_mut(t)
            .insert_all((0..7).map(|i| vec![Value::Int(i), Value::Int(i * 10)]))
            .unwrap();
        c
    }

    fn scan() -> PhysExpr {
        PhysExpr::TableScan {
            table: TableId(0),
            positions: vec![0, 1],
            cols: vec![ColId(1), ColId(2)],
        }
    }

    /// `drain_pending` cuts the same batches the `split_off` version
    /// did: full `batch_size` windows in order, then the remainder.
    #[test]
    fn drain_pending_batch_boundaries() {
        let cols: Rc<[ColId]> = vec![ColId(1)].into();
        for batch_size in [1, 4, 1024] {
            for n in [0, 1, batch_size, batch_size + 1, 3 * batch_size + 7] {
                let rows: Vec<Row> = (0..n as i64).map(|i| vec![Value::Int(i)]).collect();
                let mut pending: VecDeque<Row> = rows.iter().cloned().collect();
                let mut batches = Vec::new();
                while let Some(b) = drain_pending(&mut pending, batch_size, &cols) {
                    batches.push(b.into_rows());
                }
                let expected: Vec<Vec<Row>> =
                    rows.chunks(batch_size).map(<[Row]>::to_vec).collect();
                assert_eq!(batches, expected, "{n} rows at batch size {batch_size}");
                assert!(pending.is_empty());
            }
        }
    }

    #[test]
    fn scan_respects_batch_size() {
        let catalog = catalog();
        let mut p = Pipeline::with_batch_size(&scan(), 3).unwrap();
        let out = p.execute(&catalog, &Bindings::new()).unwrap();
        assert_eq!(out.len(), 7);
        let stats = p.stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].rows, 7);
        assert_eq!(stats[0].batches, 3); // 3 + 3 + 1
        assert_eq!(stats[0].opens, 1);
    }

    #[test]
    fn filter_skips_empty_batches() {
        let catalog = catalog();
        let plan = PhysExpr::Filter {
            input: Box::new(scan()),
            predicate: ScalarExpr::eq(ScalarExpr::col(ColId(1)), ScalarExpr::lit(5i64)),
        };
        let mut p = Pipeline::with_batch_size(&plan, 2).unwrap();
        let out = p.execute(&catalog, &Bindings::new()).unwrap();
        assert_eq!(out.rows, vec![vec![Value::Int(5), Value::Int(50)]]);
        let stats = p.stats();
        // Node 0 is the filter, node 1 the scan (pre-order).
        assert_eq!(stats[0].rows, 1);
        assert_eq!(stats[1].rows, 7);
    }

    #[test]
    fn stats_reset_between_executions() {
        let catalog = catalog();
        let mut p = Pipeline::compile(&scan()).unwrap();
        p.execute(&catalog, &Bindings::new()).unwrap();
        p.execute(&catalog, &Bindings::new()).unwrap();
        assert_eq!(p.stats()[0].rows, 7);
    }

    #[test]
    fn invariant_apply_inner_is_cached() {
        // ApplyLoop whose inner never references the outer row: the
        // inner subtree must be wrapped in a cache and opened once.
        let catalog = catalog();
        let inner = PhysExpr::Filter {
            input: Box::new(scan()),
            predicate: ScalarExpr::eq(ScalarExpr::col(ColId(1)), ScalarExpr::lit(1i64)),
        };
        let plan = PhysExpr::ApplyLoop {
            kind: ApplyKind::Cross,
            left: Box::new(PhysExpr::TableScan {
                table: TableId(0),
                positions: vec![0],
                cols: vec![ColId(3)],
            }),
            right: Box::new(inner),
            params: vec![],
        };
        let mut p = Pipeline::compile(&plan).unwrap();
        assert_eq!(p.cached_nodes(), &[2]); // the inner Filter subtree
        let out = p.execute(&catalog, &Bindings::new()).unwrap();
        assert_eq!(out.len(), 7); // 7 outer rows x 1 cached inner row
        let stats = p.stats();
        // Cached inner filter ran exactly once despite 7 outer rows.
        assert_eq!(stats[2].opens, 1);
        assert_eq!(stats[3].opens, 1);
    }

    #[test]
    fn correlated_apply_reopens_inner() {
        let catalog = catalog();
        let inner = PhysExpr::Filter {
            input: Box::new(scan()),
            predicate: ScalarExpr::eq(ScalarExpr::col(ColId(1)), ScalarExpr::col(ColId(3))),
        };
        let plan = PhysExpr::ApplyLoop {
            kind: ApplyKind::Semi,
            left: Box::new(PhysExpr::TableScan {
                table: TableId(0),
                positions: vec![0],
                cols: vec![ColId(3)],
            }),
            right: Box::new(inner),
            params: vec![ColId(3)],
        };
        let mut p = Pipeline::compile(&plan).unwrap();
        assert!(p.cached_nodes().is_empty());
        let out = p.execute(&catalog, &Bindings::new()).unwrap();
        assert_eq!(out.len(), 7);
        assert_eq!(p.stats()[2].opens, 7); // inner filter re-opened per row
    }

    #[test]
    fn empty_input_yields_empty_chunk_with_layout() {
        let mut c = Catalog::new();
        c.create_table(TableDef::new(
            "e",
            vec![ColumnDef::new("a", DataType::Int)],
            vec![vec![0]],
        ))
        .unwrap();
        let plan = PhysExpr::TableScan {
            table: TableId(0),
            positions: vec![0],
            cols: vec![ColId(1)],
        };
        let mut p = Pipeline::compile(&plan).unwrap();
        let out = p.execute(&c, &Bindings::new()).unwrap();
        assert!(out.is_empty());
        assert_eq!(out.cols, vec![ColId(1)]);
        assert_eq!(p.stats()[0].batches, 0);
    }

    /// `Batch`'s fields are public, so a literal can bypass the arity
    /// `debug_assert` in [`Batch::new`]. Stateful operators must catch
    /// the mismatch on their own batch-concatenation path — in release
    /// builds too, as a query error rather than a panic.
    #[test]
    fn malformed_batch_caught_on_concat_path() {
        struct LyingOp {
            cols: Rc<[ColId]>,
            fired: bool,
        }
        impl Operator for LyingOp {
            fn open(&mut self, _ctx: &ExecCtx<'_>) -> Result<()> {
                self.fired = false;
                Ok(())
            }
            fn next_batch(&mut self, _ctx: &ExecCtx<'_>) -> Result<Option<Batch>> {
                if self.fired {
                    return Ok(None);
                }
                self.fired = true;
                // Literal construction: two-column layout, one-column row.
                Ok(Some(Batch {
                    cols: self.cols.clone(),
                    repr: Repr::Rows(vec![vec![Value::Int(1)]]),
                }))
            }
        }
        let layout = rc_cols(&[ColId(1), ColId(2)]);
        let mut sort = SortOp::new(
            Box::new(LyingOp {
                cols: layout.clone(),
                fired: false,
            }),
            vec![(0, false)],
            layout,
            16,
            false,
            StatsHandle::new(Rc::new(RefCell::new(vec![OpStats::default()])), 0),
        );
        let catalog = catalog();
        let ctx = ExecCtx::new(&catalog, Bindings::new());
        sort.open(&ctx).unwrap();
        let err = sort
            .next_batch(&ctx)
            .expect_err("arity mismatch must error on the buffering path");
        assert!(
            matches!(err, Error::Internal(ref m) if m.contains("arity")),
            "unexpected error: {err}"
        );
    }
}
