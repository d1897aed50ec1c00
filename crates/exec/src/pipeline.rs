//! Streaming pull-based execution pipeline.
//!
//! [`Pipeline::compile`] turns a [`PhysExpr`] tree into a tree of
//! [`Operator`]s driven Volcano-style: `open` resets state,
//! `next_batch` pulls up to [`DEFAULT_BATCH_SIZE`] lanes at a time, and
//! `close` reports [`OpStats`]. A [`Batch`] is columns and a lane
//! count — the one representation every operator consumes and produces.
//! Column layouts are compiled once into `Rc<[ColId]>` plus positional
//! indices, so batches flow between operators without re-resolving
//! columns or deep-cloning layouts.
//!
//! Pipeline breakers (hash-join build, aggregation, sort) keep state
//! across batches. Parameterized scopes (`ApplyLoop` inner plans,
//! `SegmentExec` inner plans) are *rebound and rewound*: the parent
//! re-`open`s the inner subtree per outer row / per segment. At compile
//! time a free-variable analysis finds inner subtrees that reference no
//! outer parameter and no outer segment; those are wrapped in a
//! [`CacheOp`] that materializes once and replays on every rewind, and
//! stable hash-join builds are kept across re-opens.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeSet, VecDeque};
use std::ops::Range;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use orthopt_common::column::{cols_bytes, columns_to_rows, Bitmap, ColData, Column, ColumnData};
use orthopt_common::hash::{hash_lanes, keys_valid, GroupTable};
use orthopt_common::{ColId, Error, MemoryReservation, QueryContext, Result, Row, TableId, Value};
use orthopt_ir::{AggDef, ApplyKind, GroupKind, JoinKind, ScalarExpr};
use orthopt_storage::{Catalog, Index, Table};

use crate::aggregate::GroupedAggState;
use crate::bindings::Bindings;
use crate::chunk::Chunk;
use crate::eval::PosMap;
use crate::physical::PhysExpr;
use crate::sort::SortOp;
use crate::spill::{
    partition_of, SpillFile, SpillManager, SpillPartitions, FANOUT, MAX_SPILL_DEPTH,
};
use crate::stats::OpStats;
use crate::vector::{eval_lanes, eval_truth, first_error, LaneError, VecEval};

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

/// A bounded run of lanes flowing through the pipeline, column-major:
/// one [`Column`] per layout position, all `len` lanes long. The layout
/// is shared by reference with the producing operator. This is the one
/// representation every operator speaks; rows exist only at the result
/// edge ([`Batch::into_rows`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    /// Column ids, positionally matching each column.
    pub cols: Rc<[ColId]>,
    /// Per-column data, positionally matching the layout.
    pub columns: Vec<Column>,
    /// Lane count, kept explicitly: it is the only place a zero-column
    /// batch's cardinality lives.
    pub len: usize,
}

impl Batch {
    /// Builds a batch, checking column count and lengths in debug
    /// builds.
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
        Batch { cols, columns, len }
    }

    /// Checks that the layout and the payload have exactly `width`
    /// columns, each `len` lanes long. Stateful operators call this
    /// before concatenating a batch into their buffers: `Batch`'s
    /// fields are public, so a malformed literal can bypass the
    /// constructor's arity checks and would otherwise corrupt buffered
    /// state silently. Unlike those `debug_assert`s, this runs in
    /// release builds too and reports through [`Error::Internal`] rather
    /// than panicking — a malformed batch aborts the query, not the
    /// process.
    pub fn check_width(&self, width: usize) -> Result<()> {
        if self.cols.len() != width {
            return Err(Error::internal(format!(
                "batch layout width mismatch: expected {width} columns, layout has {}",
                self.cols.len()
            )));
        }
        if self.columns.len() != width {
            return Err(Error::internal(format!(
                "batch column arity mismatch: expected {width} columns, got {}",
                self.columns.len()
            )));
        }
        if let Some(c) = self.columns.iter().find(|c| c.len() != self.len) {
            return Err(Error::internal(format!(
                "batch column length mismatch: expected {} lanes, column has {}",
                self.len,
                c.len()
            )));
        }
        Ok(())
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The payload: `(columns, lane count)`.
    pub fn columns(&self) -> (&[Column], usize) {
        (&self.columns, self.len)
    }

    /// Transposes the batch into rows — for row-oriented consumers at
    /// the edge (a result `Chunk`).
    pub fn into_rows(self) -> Vec<Row> {
        columns_to_rows(&self.columns, self.len)
    }

    /// Consumes the batch into `(columns, lane count)`.
    pub fn into_columns(self) -> (Vec<Column>, usize) {
        (self.columns, self.len)
    }

    /// Bytes charged against memory reservations for this batch:
    /// exactly what the equivalent rows would cost ([`cols_bytes`]
    /// mirrors `rows_bytes`), so budgets mean what they meant when rows
    /// flowed.
    pub fn mem_bytes(&self) -> u64 {
        cols_bytes(&self.columns, self.len)
    }
}

/// Column batches held outside a [`Batch`] — buffered by Sort and the
/// join build, carried across threads by the exchange — as
/// `(columns, lane count)`. [`Column`] is `Arc`-backed, so these are
/// `Send` and share storage with whatever they were sliced from.
pub(crate) type ColumnBatches = Vec<(Vec<Column>, usize)>;

/// Concatenates column batches of `width` columns into one dense batch.
pub(crate) fn concat_batches(
    batches: &[(Vec<Column>, usize)],
    width: usize,
) -> (Vec<Column>, usize) {
    let len = batches.iter().map(|(_, n)| n).sum();
    if let [(columns, _)] = batches {
        return (columns.clone(), len);
    }
    let columns = (0..width)
        .map(|j| {
            let parts: Vec<Column> = batches.iter().map(|(c, _)| c[j].clone()).collect();
            Column::concat(&parts)
        })
        .collect();
    (columns, len)
}

/// A cheap clonable handle onto one operator's [`OpStats`] slot.
/// Operators use it to count vectorized kernel invocations (`kernels`)
/// without holding a borrow on the shared registry.
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

    /// Adds the kernel and index-probe counts a join probe noted.
    fn note_probe(&self, noted: &OpStats) {
        let mut stats = self.stats.borrow_mut();
        stats[self.id].kernels += noted.kernels;
        stats[self.id].index_probes += noted.index_probes;
    }

    /// Counts one distinct correlation binding an Apply actually
    /// executed (a binding-cache miss).
    fn note_distinct_binding(&self) {
        self.stats.borrow_mut()[self.id].distinct_bindings += 1;
    }

    /// Counts one hash-index probe (an `IndexSeek`'s).
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

    /// Records one sorted run: its key words per lane (the most over
    /// the slot's runs) and the tie runs the comparator re-sorted.
    pub(crate) fn note_sort(&self, words: u64, tie_runs: u64) {
        let mut stats = self.stats.borrow_mut();
        let s = &mut stats[self.id];
        s.sort_words = s.sort_words.max(Some(words));
        s.tie_runs += tie_runs;
    }

    /// Max-folds a memory peak into the slot (used by operators that
    /// are not themselves metered nodes, e.g. the rewind cache).
    fn note_mem_peak(&self, peak: u64) {
        let mut stats = self.stats.borrow_mut();
        let s = &mut stats[self.id];
        s.mem_peak = s.mem_peak.max(peak);
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
    /// drops the context). Inner scopes (`ApplyLoop`, `SegmentExec`)
    /// share the parent's scope.
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
/// must be baked into the compiled operators live here, so two sessions
/// with different settings can run concurrently in one process.
#[derive(Debug, Clone, Copy)]
pub struct PipelineOptions {
    /// Rows per batch (min 1).
    pub batch_size: usize,
    /// Spill-to-disk toggle for this pipeline (default on). When off,
    /// refused reservations fail with a hinted `ResourceExhausted`
    /// instead of degrading.
    pub spill: bool,
}

impl Default for PipelineOptions {
    fn default() -> PipelineOptions {
        PipelineOptions {
            batch_size: DEFAULT_BATCH_SIZE,
            spill: true,
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
        Pipeline::with_shared_build(plan, opts, None)
    }

    /// Compiles one exchange worker's plan: its hash join (at most one,
    /// on the driving path) probes `build`, which the exchange built
    /// once for all workers, and the join's build side is not compiled
    /// — so the pipeline's stats cover the plan's pre-order up to there.
    pub(crate) fn with_shared_build(
        plan: &PhysExpr,
        opts: PipelineOptions,
        build: Option<Arc<JoinBuild>>,
    ) -> Result<Pipeline> {
        let mut c = Compiler {
            opts: PipelineOptions {
                batch_size: opts.batch_size.max(1),
                ..opts
            },
            stats: Rc::new(RefCell::new(Vec::new())),
            next_id: 0,
            cached: Vec::new(),
            shared_build: build,
        };
        let root = c.compile(plan, false)?;
        Ok(Pipeline {
            root,
            cols: rc_cols(&plan.out_cols()),
            stats: c.stats,
            cached: c.cached,
            batch_size: c.opts.batch_size,
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

pub(crate) fn pos_of(layout: &[ColId], id: ColId) -> Result<usize> {
    layout
        .iter()
        .position(|c| *c == id)
        .ok_or_else(|| Error::internal(format!("column {id} missing from operator layout")))
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
        PhysExpr::ApplyLoop {
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
        PhysExpr::ApplyLoop { .. } => "ApplyLoop",
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
    /// Batch size (at least 1) and spill toggle every operator of this
    /// compilation is built with.
    opts: PipelineOptions,
    stats: Rc<RefCell<Vec<OpStats>>>,
    next_id: usize,
    cached: Vec<usize>,
    /// An exchange worker's join build, for the first `HashJoin`
    /// compiled (see [`Pipeline::with_shared_build`]).
    shared_build: Option<Arc<JoinBuild>>,
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
                p.out_cols().len(),
                StatsHandle::new(self.stats.clone(), id),
            )));
        }
        self.compile_bare(p, in_param)
    }

    fn compile_bare(&mut self, p: &PhysExpr, in_param: bool) -> Result<BoxOp> {
        let id = self.next_id;
        self.next_id += 1;
        self.stats.borrow_mut().push(OpStats::default());
        let bs = self.opts.batch_size;
        let sh = StatsHandle::new(self.stats.clone(), id);
        let op: BoxOp = match p {
            // A table scan is a morsel scan of one range, the whole
            // table (ranges are clamped to the row count).
            PhysExpr::TableScan {
                table,
                positions,
                cols,
            }
            | PhysExpr::MorselScan {
                table,
                positions,
                cols,
                ..
            } => Box::new(MorselScanOp {
                table: *table,
                positions: positions.clone(),
                cols: rc_cols(cols),
                ranges: match p {
                    PhysExpr::MorselScan { ranges, .. } => ranges.clone(),
                    _ => vec![(0, usize::MAX)],
                },
                range_idx: 0,
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
                let build = self.shared_build.take();
                // Inside a parameterized scope an invariant build side
                // can keep its hash table across rewinds.
                let build_stable = in_param && free_inputs(right).is_invariant();
                Box::new(HashJoinOp {
                    probe: JoinProbe::new(
                        *kind,
                        left_pos,
                        right_pos,
                        residual.clone(),
                        combined,
                        (0..rout.len()).collect(),
                        true,
                    ),
                    left: self.compile(left, in_param)?,
                    right: match build {
                        Some(_) => None,
                        None => Some(self.compile(right, in_param && !build_stable)?),
                    },
                    out_cols: rc_cols(&p.out_cols()),
                    left_width: lout.len(),
                    right_width: rout.len(),
                    build_stable,
                    build_parts: Vec::new(),
                    built: build.is_some(),
                    build,
                    out_queue: VecDeque::new(),
                    left_done: false,
                    mem: MemoryReservation::detached("HashJoin"),
                    // A stable build is kept across rewinds; grace
                    // partitions are consumed when joined, so spilling
                    // would break the rewind contract. A keyless build
                    // is one partition however often it is split.
                    allow_spill: self.opts.spill && !build_stable && !right_keys.is_empty(),
                    grace: None,
                    stats: sh.clone(),
                })
            }
            PhysExpr::ApplyLoop {
                kind,
                left,
                right,
                params,
            } => Box::new(ApplyOp::new(
                *kind,
                self.compile(left, in_param)?,
                self.compile(right, true)?,
                param_positions(params, &left.out_cols()),
                (left.out_cols().len(), right.out_cols().len()),
                rc_cols(&p.out_cols()),
                sh.clone(),
            )),
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
                ..
            } => {
                let build_out = cols
                    .iter()
                    .map(|c| pos_of(fetch_cols, *c))
                    .collect::<Result<Vec<_>>>()?;
                let outer_cols = left.out_cols();
                let mut combined = outer_cols.clone();
                combined.extend(fetch_cols.iter().copied());
                Box::new(IndexJoinOp {
                    left: self.compile(left, in_param)?,
                    table: *table,
                    positions: positions.clone(),
                    index_cols: index_cols.clone(),
                    probes: probes.clone(),
                    outer_pos: PosMap::new(&outer_cols),
                    probe: JoinProbe::new(
                        kind.to_join_kind(),
                        Vec::new(),
                        Vec::new(),
                        residual.clone(),
                        combined,
                        build_out,
                        false,
                    ),
                    out_cols: rc_cols(&p.out_cols()),
                    out_queue: VecDeque::new(),
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
                    input_cols: rc_cols(&in_layout),
                    out_src,
                    out_cols: rc_cols(out_cols),
                    inner_binds: Rc::new(RefCell::new(Bindings::new())),
                    columns: Vec::new(),
                    segments: Vec::new(),
                    keys: Vec::new(),
                    partitioned: false,
                    seg_cursor: 0,
                    batch_size: bs,
                    mem: MemoryReservation::detached("SegmentExec"),
                    stats: sh.clone(),
                })
            }
            PhysExpr::SegmentScan { cols } => Box::new(SegmentScanOp {
                cols: cols.clone(),
                out_cols: rc_cols(&p.out_cols()),
                columns: Vec::new(),
                len: 0,
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
                    in_width: in_layout.len(),
                    group_pos,
                    aggs: aggs.clone(),
                    in_pos: PosMap::new(&in_layout),
                    out_cols: rc_cols(&p.out_cols()),
                    state: None,
                    result: (Vec::new(), 0),
                    emitted: 0,
                    done: false,
                    batch_size: bs,
                    allow_spill: self.opts.spill,
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
                    right_width: rout.len(),
                    cols: rc_cols(&left.out_cols()),
                    table: GroupTable::new(),
                    counts: Vec::new(),
                    built: false,
                    mem: MemoryReservation::detached("Except"),
                    stats: sh.clone(),
                })
            }
            PhysExpr::AssertMax1 { input } => Box::new(AssertMax1Op {
                cols: rc_cols(&input.out_cols()),
                input: self.compile(input, in_param)?,
                first: None,
                lanes: 0,
                done: false,
                mem: MemoryReservation::detached("Max1Row"),
            }),
            PhysExpr::RowNumber { input, .. } => Box::new(RowNumberOp {
                input: self.compile(input, in_param)?,
                out_cols: rc_cols(&p.out_cols()),
                counter: 0,
                stats: sh.clone(),
            }),
            PhysExpr::ConstScan { cols, columns, len } => Box::new(ConstScanOp {
                cols: rc_cols(cols),
                // Handles on the plan's columns; every batch is a window.
                columns: columns.clone(),
                len: *len,
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
                    self.opts.spill,
                    sh.clone(),
                ))
            }
            PhysExpr::Limit { input, n } => Box::new(LimitOp {
                cols: rc_cols(&input.out_cols()),
                input: self.compile(input, in_param)?,
                n: *n,
                kept: 0,
                buffered: VecDeque::new(),
                done: false,
                mem: MemoryReservation::detached("Limit"),
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
                    self.opts,
                ))
            }
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
/// its input on first demand, keeps the column batches it was handed,
/// and replays handle clones of them on every rewind.
///
/// When the memory budget refuses the materialization, the cache *sheds*
/// instead of failing: buffered batches are released and the operator
/// degrades to a passthrough that re-executes its input on every rewind
/// — the pre-cache behavior, slower but correct.
struct CacheOp {
    input: BoxOp,
    /// Output width of the compiled subtree; every batch is checked
    /// against it before it is kept.
    width: usize,
    filled: bool,
    /// Budget refusal during fill happened: operate as a passthrough.
    degraded: bool,
    batches: Vec<Batch>,
    cursor: usize,
    mem: MemoryReservation,
    /// The cache is not itself a metered node — it records its peak
    /// into the cached subtree root's stats slot.
    stats: StatsHandle,
}

impl CacheOp {
    fn new(input: BoxOp, width: usize, stats: StatsHandle) -> CacheOp {
        CacheOp {
            input,
            width,
            filled: false,
            degraded: false,
            batches: Vec::new(),
            cursor: 0,
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
            self.batches.clear();
            return self.input.open(ctx);
        }
        self.mem = ctx.gov.reservation("Cache");
        self.input.open(ctx)
    }

    fn next_batch(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<Batch>> {
        if !self.filled && !self.degraded {
            while let Some(b) = self.input.next_batch(ctx)? {
                b.check_width(self.width)?;
                let charged =
                    crate::faults::hit("cache.fill").and_then(|()| self.mem.grow(b.mem_bytes()));
                match charged {
                    Ok(()) => self.batches.push(b),
                    Err(Error::ResourceExhausted { .. }) => {
                        // Shed: stream out what is buffered (plus the
                        // batch in hand), then abandon caching.
                        self.record_peak();
                        self.mem.reset();
                        self.degraded = true;
                        self.batches.push(b);
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
        if let Some(b) = self.batches.get(self.cursor) {
            self.cursor += 1;
            return Ok(Some(b.clone()));
        }
        if self.degraded {
            // Head drained; release it and stream the live input.
            self.batches = Vec::new();
            self.cursor = 0;
            return self.input.next_batch(ctx);
        }
        Ok(None)
    }
}

// ---------------------------------------------------------------------
// Leaf operators.
// ---------------------------------------------------------------------

/// Scan over a static set of row ranges, clamped to the table: the
/// whole table for a `TableScan`, a worker's morsels for a `MorselScan`
/// (see [`crate::parallel`] for how those are assigned).
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
        let total = t.row_count();
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

/// The values of an index probe's expressions over `cx`'s lanes, as key
/// columns, and the first failing lane's error. A probe runs a row at a
/// time as an `IndexSeek` under a loop would: a NULL value ends its
/// lane's probes (SQL equality never matches NULL), so a later probe's
/// error on that lane does not count — and a failing lane is NULL.
fn probe_values(probes: &[ScalarExpr], cx: &VecEval<'_>) -> (Vec<Column>, Option<LaneError>) {
    let keys: Vec<_> = probes.iter().map(|e| eval_lanes(e, cx)).collect();
    let failed = keys
        .iter()
        .enumerate()
        .filter_map(|(p, k)| {
            let reached = |e: &&LaneError| keys[..p].iter().all(|q| q.col.is_valid(e.0));
            k.errs.iter().find(reached)
        })
        .min_by_key(|e| e.0)
        .cloned();
    (keys.into_iter().map(|k| k.col).collect(), failed)
}

/// The plan probes an index the table does not have.
fn missing_index(t: &Table, index_cols: &[usize]) -> Error {
    Error::internal(format!("missing index on {index_cols:?} of {}", t.def.name))
}

impl Operator for SeekOp {
    fn open(&mut self, ctx: &ExecCtx<'_>) -> Result<()> {
        self.hits.clear();
        self.cursor = 0;
        let t = ctx.catalog.table(self.table);
        let binds = ctx.binds.borrow();
        // One lane over no columns: the probes read only parameters.
        let cx = VecEval {
            pos: &PosMap::default(),
            columns: &[],
            len: 1,
            binds: &binds,
        };
        let (key, failed) = probe_values(&self.probes, &cx);
        if let Some((_, e)) = failed {
            return Err(e);
        }
        if key.iter().all(|c| c.is_valid(0)) {
            let key: Vec<Value> = key.iter().map(|c| c.value(0)).collect();
            let hits = t
                .index_lookup(&self.index_cols, &key)
                .ok_or_else(|| missing_index(t, &self.index_cols))?;
            self.stats.note_index_probe();
            self.hits.extend(hits);
        }
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

/// Hands out up to `batch_size` lanes of resident columns from
/// `cursor` as zero-copy windows, advancing the cursor.
fn next_window(
    columns: &[Column],
    len: usize,
    cursor: &mut usize,
    batch_size: usize,
    cols: &Rc<[ColId]>,
) -> Option<Batch> {
    if *cursor >= len {
        return None;
    }
    let take = batch_size.min(len - *cursor);
    let out = columns.iter().map(|c| c.slice(*cursor, take)).collect();
    *cursor += take;
    Some(Batch::from_columns(cols.clone(), out, take))
}

struct ConstScanOp {
    cols: Rc<[ColId]>,
    columns: Vec<Column>,
    len: usize,
    cursor: usize,
    batch_size: usize,
}

impl Operator for ConstScanOp {
    fn open(&mut self, _ctx: &ExecCtx<'_>) -> Result<()> {
        self.cursor = 0;
        Ok(())
    }

    fn next_batch(&mut self, _ctx: &ExecCtx<'_>) -> Result<Option<Batch>> {
        Ok(next_window(
            &self.columns,
            self.len,
            &mut self.cursor,
            self.batch_size,
            &self.cols,
        ))
    }
}

struct SegmentScanOp {
    cols: Vec<(ColId, ColId)>,
    out_cols: Rc<[ColId]>,
    /// The bound segment's scanned columns.
    columns: Vec<Column>,
    len: usize,
    cursor: usize,
    batch_size: usize,
}

impl Operator for SegmentScanOp {
    fn open(&mut self, ctx: &ExecCtx<'_>) -> Result<()> {
        self.cursor = 0;
        let binds = ctx.binds.borrow();
        let segment = binds
            .current_segment()
            .ok_or_else(|| Error::internal("SegmentScan outside SegmentExec"))?;
        self.columns = self
            .cols
            .iter()
            .map(|(_, src)| Ok(segment.columns[pos_of(&segment.cols, *src)?].clone()))
            .collect::<Result<_>>()?;
        self.len = segment.len;
        Ok(())
    }

    fn next_batch(&mut self, _ctx: &ExecCtx<'_>) -> Result<Option<Batch>> {
        Ok(next_window(
            &self.columns,
            self.len,
            &mut self.cursor,
            self.batch_size,
            &self.out_cols,
        ))
    }
}

// ---------------------------------------------------------------------
// Streaming operators.
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
            let (columns, len) = batch.columns();
            // The predicate over whole columns: a selection of the input
            // lanes, or the first failing lane's error.
            let cx = VecEval {
                pos: &self.pos,
                columns,
                len,
                binds: &binds,
            };
            let (sel, errs) = eval_truth(&self.predicate, &cx);
            if let Some((_, e)) = errs.into_iter().next() {
                return Err(e);
            }
            self.stats.note_kernel();
            if sel.len() == len {
                return Ok(Some(batch));
            }
            if !sel.is_empty() {
                let out = columns.iter().map(|c| c.gather(&sel)).collect();
                return Ok(Some(Batch::from_columns(self.cols.clone(), out, sel.len())));
            }
        }
    }
}

struct ComputeOp {
    input: BoxOp,
    defs: Vec<(ColId, ScalarExpr)>,
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
        // Each definition is one whole-column kernel over the *input*
        // layout (definitions never see each other), appended to the
        // carried-through input columns.
        let (columns, len) = batch.columns();
        let cx = VecEval {
            pos: &self.pos,
            columns,
            len,
            binds: &binds,
        };
        // A lane's definitions run in order, so the first error is the
        // lowest failing lane's, a tie going to the earlier definition.
        let computed: Vec<_> = self.defs.iter().map(|(_, e)| eval_lanes(e, &cx)).collect();
        if let Some((_, e)) = first_error(computed.iter().map(|c| &c.errs[..])) {
            return Err(e.clone());
        }
        self.stats.note_kernel();
        let mut newc: Vec<Column> = computed.into_iter().map(|c| c.col).collect();
        let (mut out, len) = batch.into_columns();
        out.append(&mut newc);
        Ok(Some(Batch::from_columns(self.out_cols.clone(), out, len)))
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
        // Projection is pure column selection: O(1) per column (a
        // shared-buffer handle clone), no per-row work.
        let (columns, len) = batch.columns();
        let out = self.positions.iter().map(|&i| columns[i].clone()).collect();
        self.stats.note_kernel();
        Ok(Some(Batch::from_columns(self.cols.clone(), out, len)))
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
        let (mut columns, len) = batch.into_columns();
        let start = self.counter;
        self.counter += len as i64;
        columns.push(Column::from_data(ColumnData {
            data: ColData::Int((start..self.counter).collect()),
            validity: Bitmap::new_valid(len),
        }));
        self.stats.note_kernel();
        Ok(Some(Batch::from_columns(
            self.out_cols.clone(),
            columns,
            len,
        )))
    }
}

// ---------------------------------------------------------------------
// Joins.
// ---------------------------------------------------------------------

/// The build side of a hash join: the build rows as dense columns plus
/// a hash index over their key columns — the same [`Index`] a stored
/// table keeps. Lanes with a NULL key are absent from the index (SQL
/// equality never matches NULL). Read-only once built, so the exchange
/// builds one and every worker's join probes it.
pub(crate) struct JoinBuild {
    cols: Vec<Column>,
    index: Index,
    len: usize,
}

impl JoinBuild {
    /// Concatenates the build batches and indexes their key columns.
    pub(crate) fn new(
        parts: &[(Vec<Column>, usize)],
        width: usize,
        key_pos: &[usize],
    ) -> JoinBuild {
        let (cols, len) = concat_batches(parts, width);
        let index = Index::build(key_pos.to_vec(), &cols, len);
        JoinBuild { cols, index, len }
    }

    fn side(&self) -> BuildSide<'_> {
        BuildSide {
            cols: &self.cols,
            index: &self.index,
        }
    }
}

/// What a probe reads of a build: its columns and the hash index over
/// its key columns — a hash join's [`JoinBuild`], or a stored table's
/// columns and one of its indexes.
#[derive(Clone, Copy)]
struct BuildSide<'a> {
    cols: &'a [Column],
    index: &'a Index,
}

/// Candidate pairs a probe evaluates at once, up to the lane boundary:
/// what bounds the pair vector and the gathered residual columns.
const PAIR_WINDOW: usize = 16 * DEFAULT_BATCH_SIZE;

/// What a join does with one probe batch: the four join kinds'
/// semantics, written once. The resident probe and each grace
/// partition pair call [`probe`](JoinProbe::probe) against whichever
/// [`JoinBuild`] they hold; an index lookup join calls
/// [`probe_keys`](JoinProbe::probe_keys) against a table's index.
struct JoinProbe {
    kind: JoinKind,
    left_pos: Vec<usize>,
    right_pos: Vec<usize>,
    residual: ScalarExpr,
    residual_trivial: bool,
    /// The positions in the probe layout followed by the build layout
    /// that the residual reads, and their layout: the only columns its
    /// kernel gathers.
    read: Vec<usize>,
    read_pos: PosMap,
    /// Build columns an Inner / LeftOuter output carries, in order.
    build_out: Vec<usize>,
    /// Whether a probe lane stops at its first match, as a row-at-a-time
    /// semi or anti join does, so the residual's errors on its later
    /// pairs do not count. Only LeftSemi / LeftAnti stop; an Apply
    /// evaluates its whole inner side, so an index join does not.
    first_match_stop: bool,
}

impl JoinProbe {
    fn new(
        kind: JoinKind,
        left_pos: Vec<usize>,
        right_pos: Vec<usize>,
        residual: ScalarExpr,
        combined: Vec<ColId>,
        build_out: Vec<usize>,
        first_match_stop: bool,
    ) -> JoinProbe {
        let referenced = residual.cols();
        let read: Vec<usize> = (0..combined.len())
            .filter(|&p| referenced.contains(&combined[p]))
            .collect();
        let read_cols: Vec<ColId> = read.iter().map(|&p| combined[p]).collect();
        JoinProbe {
            kind,
            left_pos,
            right_pos,
            residual_trivial: residual.is_true(),
            residual,
            read,
            read_pos: PosMap::new(&read_cols),
            build_out,
            first_match_stop: first_match_stop
                && matches!(kind, JoinKind::LeftSemi | JoinKind::LeftAnti),
        }
    }

    /// Joins one probe batch against `build` on the probe's key
    /// columns `left_pos`.
    fn probe(
        &self,
        build: &JoinBuild,
        columns: &[Column],
        len: usize,
        binds: &Bindings,
        noted: &mut OpStats,
    ) -> Result<ColumnBatches> {
        let key_cols: Vec<&Column> = self.left_pos.iter().map(|&i| &columns[i]).collect();
        self.probe_keys(build.side(), columns, len, &key_cols, binds, noted)
    }

    /// Joins one probe batch whose key lanes are `key_cols` (in the
    /// index's column order) against `build`: output columns and lane
    /// counts, one entry per window. Candidate `(probe lane, build
    /// lane)` pairs are visited in probe order and, within a probe
    /// lane, in build order — the output order of a row-at-a-time join —
    /// and handed to [`join_window`](JoinProbe::join_window) a run of
    /// whole probe lanes at a time: a window closes at the first lane
    /// boundary at or past [`PAIR_WINDOW`] pairs, so neither a keyless
    /// join nor one hot key ever holds `len × build.len` pairs at once.
    fn probe_keys(
        &self,
        build: BuildSide<'_>,
        columns: &[Column],
        len: usize,
        key_cols: &[&Column],
        binds: &Bindings,
        noted: &mut OpStats,
    ) -> Result<ColumnBatches> {
        let mut out = Vec::new();
        let mut pairs: Vec<(usize, u32)> = Vec::new();
        let mut lo = 0;
        for (i, h) in hash_lanes(key_cols, len).into_iter().enumerate() {
            // A lane with a NULL key has no candidates.
            if keys_valid(key_cols, i) {
                pairs.extend(build.index.probe(key_cols, i, h).map(|j| (i, j as u32)));
            }
            if pairs.len() >= PAIR_WINDOW || i + 1 == len {
                out.push(self.join_window(build, columns, lo..i + 1, &pairs, binds, noted)?);
                pairs.clear();
                lo = i + 1;
            }
        }
        Ok(out)
    }

    /// The join kind's output for probe lanes `lanes`, whose candidate
    /// pairs are `pairs`, counting one kernel in `noted`.
    fn join_window(
        &self,
        build: BuildSide<'_>,
        columns: &[Column],
        lanes: Range<usize>,
        pairs: &[(usize, u32)],
        binds: &Bindings,
        noted: &mut OpStats,
    ) -> Result<(Vec<Column>, usize)> {
        noted.kernels += 1;
        if self.residual_trivial || pairs.is_empty() {
            return Ok(self.assemble(build, columns, lanes, pairs));
        }
        let kept = self.residual_kernel(build, columns, pairs, binds)?;
        Ok(self.assemble(build, columns, lanes, &kept))
    }

    /// The pairs the residual keeps, evaluated as one kernel over the
    /// pairs' gathered lanes of the columns it reads, or the error of
    /// the first failing pair in output order that a row-at-a-time join
    /// reaches: with `first_match_stop`, a semi or anti join is done
    /// with a probe lane at its first match, so a pair after that does
    /// not count.
    fn residual_kernel(
        &self,
        build: BuildSide<'_>,
        columns: &[Column],
        pairs: &[(usize, u32)],
        binds: &Bindings,
    ) -> Result<Vec<(usize, u32)>> {
        let pis: Vec<usize> = pairs.iter().map(|p| p.0).collect();
        let bis: Vec<usize> = pairs.iter().map(|p| p.1 as usize).collect();
        let comb: Vec<Column> = self
            .read
            .iter()
            .map(|&p| match p.checked_sub(columns.len()) {
                None => columns[p].gather(&pis),
                Some(b) => build.cols[b].gather(&bis),
            })
            .collect();
        let cx = VecEval {
            pos: &self.read_pos,
            columns: &comb,
            len: pairs.len(),
            binds,
        };
        let (sel, errs) = eval_truth(&self.residual, &cx);
        // Pair `k` is reached unless an earlier pair of its probe lane
        // matched (pairs are in probe-lane order).
        let reached = |&&(k, _): &&LaneError| {
            let before = sel.partition_point(|&s| s < k);
            !self.first_match_stop || before == 0 || pairs[sel[before - 1]].0 != pairs[k].0
        };
        if let Some((_, e)) = errs.iter().find(reached) {
            return Err(e.clone());
        }
        Ok(sel.into_iter().map(|k| pairs[k]).collect())
    }

    /// Output of the join kind for probe lanes `lanes` over their
    /// surviving pairs.
    fn assemble(
        &self,
        build: BuildSide<'_>,
        columns: &[Column],
        lanes: Range<usize>,
        kept: &[(usize, u32)],
    ) -> (Vec<Column>, usize) {
        let build_out = self.build_out.iter().map(|&c| &build.cols[c]);
        match self.kind {
            JoinKind::Inner => {
                let pis: Vec<usize> = kept.iter().map(|p| p.0).collect();
                let bis: Vec<usize> = kept.iter().map(|p| p.1 as usize).collect();
                let mut out: Vec<Column> = columns.iter().map(|c| c.gather(&pis)).collect();
                out.extend(build_out.map(|c| c.gather(&bis)));
                (out, kept.len())
            }
            JoinKind::LeftOuter => {
                // Walk probe lanes in order, interleaving each lane's
                // matches with a NULL-padded row for unmatched lanes.
                let mut pis: Vec<usize> = Vec::new();
                let mut bis: Vec<Option<usize>> = Vec::new();
                let mut k = 0;
                for i in lanes {
                    let start = k;
                    while k < kept.len() && kept[k].0 == i {
                        pis.push(i);
                        bis.push(Some(kept[k].1 as usize));
                        k += 1;
                    }
                    if k == start {
                        pis.push(i);
                        bis.push(None);
                    }
                }
                let mut out: Vec<Column> = columns.iter().map(|c| c.gather(&pis)).collect();
                out.extend(build_out.map(|c| c.gather_opt(&bis)));
                (out, pis.len())
            }
            JoinKind::LeftSemi | JoinKind::LeftAnti => {
                let mut matched = vec![false; lanes.len()];
                for &(i, _) in kept {
                    matched[i - lanes.start] = true;
                }
                let want = self.kind == JoinKind::LeftSemi;
                let sel: Vec<usize> = lanes
                    .clone()
                    .filter(|&i| matched[i - lanes.start] == want)
                    .collect();
                (columns.iter().map(|c| c.gather(&sel)).collect(), sel.len())
            }
        }
    }
}

/// Routes the keyed lanes of one batch to their spill partitions at
/// `level`, returning the lanes whose key is NULL (which match nothing
/// and are never spilled).
fn partition_lanes(
    parts: &mut SpillPartitions,
    columns: &[Column],
    len: usize,
    key_pos: &[usize],
    level: usize,
) -> Result<Vec<usize>> {
    let key_cols: Vec<&Column> = key_pos.iter().map(|&i| &columns[i]).collect();
    let mut unkeyed = Vec::new();
    for (i, h) in hash_lanes(&key_cols, len).into_iter().enumerate() {
        if keys_valid(&key_cols, i) {
            parts.push_lane(partition_of(h, level), columns, i)?;
        } else {
            unkeyed.push(i);
        }
    }
    Ok(unkeyed)
}

/// Repartitions one spilled file a level deeper.
fn repartition_file(
    ctx: &ExecCtx<'_>,
    file: &mut SpillFile,
    label: &str,
    width: usize,
    key_pos: &[usize],
    level: usize,
) -> Result<Vec<SpillFile>> {
    let mut parts = SpillPartitions::create(&ctx.spill, label, width)?;
    let mut r = file.reader()?;
    while let Some((columns, n)) = r.next_block_columns()? {
        partition_lanes(&mut parts, &columns, n, key_pos, level)?;
        ctx.gov.check_cancelled("HashJoin")?;
    }
    parts.finish()
}

/// Records a sealed partition set's files in `stats`.
fn note_spilled_files<'f>(stats: &StatsHandle, files: impl IntoIterator<Item = &'f SpillFile>) {
    let (mut count, mut written) = (0, 0);
    for f in files {
        count += u64::from(!f.is_empty());
        written += f.bytes();
    }
    stats.note_spill(count, written);
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

struct HashJoinOp {
    probe: JoinProbe,
    left: BoxOp,
    /// The build side; `None` in an exchange worker, whose `build` is
    /// the one the exchange made for all workers and is there from the
    /// start (`built` never goes back to false).
    right: Option<BoxOp>,
    out_cols: Rc<[ColId]>,
    left_width: usize,
    right_width: usize,
    /// Keep the build across rewinds (invariant build side inside a
    /// parameterized scope).
    build_stable: bool,
    /// Build batches as they arrived, until the build side ends.
    build_parts: ColumnBatches,
    /// The resident build, once the build side ended without spilling.
    build: Option<Arc<JoinBuild>>,
    built: bool,
    /// Finished output batches (a grace pair's whole output).
    out_queue: VecDeque<Batch>,
    left_done: bool,
    mem: MemoryReservation,
    /// Degrade to a grace join on a refused build reservation (compiled
    /// from the pipeline's spill toggle; never set for stable builds).
    allow_spill: bool,
    /// Active grace-join state, once the build has overflowed to disk.
    grace: Option<GraceJoin>,
    stats: StatsHandle,
}

impl HashJoinOp {
    /// Records what one probe noted and queues its output.
    fn queue_output(&mut self, joined: Result<ColumnBatches>, noted: &OpStats) -> Result<()> {
        self.stats.note_probe(noted);
        for (out, n) in joined? {
            if n > 0 {
                self.out_queue
                    .push_back(Batch::from_columns(self.out_cols.clone(), out, n));
            }
        }
        Ok(())
    }

    /// Activates the grace join: the refused reservation's contents —
    /// everything buffered so far plus the batch that tripped the budget
    /// — are hash-partitioned to disk and the reservation is released.
    fn grace_start(&mut self, ctx: &ExecCtx<'_>, overflow: Batch) -> Result<()> {
        let mut parts = SpillPartitions::create(&ctx.spill, "hj-build", self.right_width)?;
        let mut buffered = std::mem::take(&mut self.build_parts);
        buffered.push(overflow.into_columns());
        for (columns, n) in &buffered {
            partition_lanes(&mut parts, columns, *n, &self.probe.right_pos, 0)?;
            ctx.gov.check_cancelled("HashJoin")?;
        }
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
        Ok(())
    }

    /// Drains the build side: buffered resident, or — from the first
    /// refused charge on — partitioned to disk.
    fn run_build(&mut self, ctx: &ExecCtx<'_>) -> Result<()> {
        loop {
            let right = self
                .right
                .as_mut()
                .expect("an unbuilt join has a build side");
            let Some(b) = right.next_batch(ctx)? else {
                break;
            };
            b.check_width(self.right_width)?;
            if let Some(g) = self.grace.as_mut() {
                // Already degraded: the failpoint still fires (Panic /
                // Error / SlowMs), but a refused allocation is moot on
                // the disk path.
                match crate::faults::hit("hashjoin.build") {
                    Err(Error::ResourceExhausted { .. }) => {}
                    r => r?,
                }
                let parts = g.build.as_mut().expect("build partitions active");
                partition_lanes(parts, &b.columns, b.len, &self.probe.right_pos, 0)?;
                ctx.gov.check_cancelled("HashJoin")?;
                continue;
            }
            match crate::faults::hit("hashjoin.build").and_then(|()| self.mem.grow(b.mem_bytes())) {
                Ok(()) => self.build_parts.push(b.into_columns()),
                Err(e) => {
                    let refused = matches!(e, Error::ResourceExhausted { .. });
                    if !(refused && self.allow_spill) {
                        // A keyless build has no hash to partition on:
                        // spilling was never an option.
                        let keyless = self.probe.right_pos.is_empty();
                        return Err(e.with_hint(if keyless {
                            MEM_HINT
                        } else {
                            MEM_OR_SPILL_HINT
                        }));
                    }
                    self.grace_start(ctx, b)?;
                }
            }
        }
        if let Some(g) = self.grace.as_mut() {
            let parts = g.build.take().expect("build partitions active");
            g.build_files = parts.finish()?;
            note_spilled_files(&self.stats, &g.build_files);
        } else {
            let build = JoinBuild::new(
                &std::mem::take(&mut self.build_parts),
                self.right_width,
                &self.probe.right_pos,
            );
            if build.len > 0 {
                self.stats.note_kernel();
            }
            self.build = Some(Arc::new(build));
        }
        self.built = true;
        Ok(())
    }

    /// Routes one probe-side batch to the level-0 probe partitions.
    /// NULL-keyed probe lanes never match, so their per-kind result is
    /// emitted immediately instead of being spilled.
    fn grace_probe_batch(&mut self, ctx: &ExecCtx<'_>, batch: &Batch) -> Result<()> {
        let g = self
            .grace
            .as_mut()
            .expect("grace_probe_batch requires active grace state");
        if g.probe.is_none() {
            g.probe = Some(SpillPartitions::create(
                &ctx.spill,
                "hj-probe",
                self.left_width,
            )?);
        }
        let parts = g.probe.as_mut().expect("probe partitions just ensured");
        let unkeyed = partition_lanes(parts, &batch.columns, batch.len, &self.probe.left_pos, 0)?;
        let emit = matches!(self.probe.kind, JoinKind::LeftOuter | JoinKind::LeftAnti);
        if emit && !unkeyed.is_empty() {
            let mut out: Vec<Column> = batch.columns.iter().map(|c| c.gather(&unkeyed)).collect();
            out.resize(
                self.out_cols.len(),
                Column::from_values(vec![Value::Null; unkeyed.len()]),
            );
            self.out_queue.push_back(Batch::from_columns(
                self.out_cols.clone(),
                out,
                unkeyed.len(),
            ));
        }
        ctx.gov.check_cancelled("HashJoin")
    }

    /// Seals the probe partitions and forms the level-0 partition pairs
    /// (pushed in reverse so partition 0 is processed first).
    fn grace_seal_probe(&mut self, ctx: &ExecCtx<'_>) -> Result<()> {
        let g = self
            .grace
            .as_mut()
            .expect("grace_seal_probe requires active grace state");
        let probe = match g.probe.take() {
            Some(p) => p,
            // No keyed probe rows at all: partitions of nothing.
            None => SpillPartitions::create(&ctx.spill, "hj-probe", self.left_width)?,
        };
        let pfiles = probe.finish()?;
        note_spilled_files(&self.stats, &pfiles);
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
        if bf.is_empty() && matches!(self.probe.kind, JoinKind::Inner | JoinKind::LeftSemi) {
            return Ok(true);
        }
        // Try to load this build partition resident, under the same
        // reservation the in-memory build uses.
        let mut blocks: ColumnBatches = Vec::new();
        let mut charged = 0u64;
        let mut refusal: Option<Error> = None;
        {
            let mut r = bf.reader()?;
            while let Some((columns, n)) = r.next_block_columns()? {
                let bytes = cols_bytes(&columns, n);
                match self.mem.grow(bytes) {
                    Ok(()) => charged += bytes,
                    Err(e) => {
                        refusal = Some(e);
                        break;
                    }
                }
                blocks.push((columns, n));
                ctx.gov.check_cancelled("HashJoin")?;
            }
        }
        if let Some(err) = refusal {
            // Partition still too big: subdivide both files one level
            // deeper, up to the recursion cap.
            drop(blocks);
            self.mem.shrink(charged);
            let next = level + 1;
            if next >= MAX_SPILL_DEPTH {
                // Repartition depth exhausted: one partition is still
                // too big for the budget (e.g. one very hot key).
                return Err(err.with_hint(MEM_HINT));
            }
            let (rw, lw) = (self.right_width, self.left_width);
            let bfiles =
                repartition_file(ctx, &mut bf, "hj-build", rw, &self.probe.right_pos, next)?;
            drop(bf);
            let pfiles =
                repartition_file(ctx, &mut pf, "hj-probe", lw, &self.probe.left_pos, next)?;
            drop(pf);
            note_spilled_files(&self.stats, bfiles.iter().chain(&pfiles));
            let g = self.grace.as_mut().expect("grace state active");
            for pair in bfiles.into_iter().zip(pfiles).rev() {
                g.pairs.push((pair.0, pair.1, next));
            }
            return Ok(true);
        }
        // Partition resident: the same build and probe the in-memory
        // join runs, one probe block at a time.
        let build = JoinBuild::new(&blocks, self.right_width, &self.probe.right_pos);
        drop(blocks);
        let mut r = pf.reader()?;
        while let Some((columns, n)) = r.next_block_columns()? {
            let mut noted = OpStats::default();
            let joined = self.probe.probe(&build, &columns, n, binds, &mut noted);
            self.queue_output(joined, &noted)?;
            ctx.gov.check_cancelled("HashJoin")?;
        }
        drop(r);
        self.mem.shrink(charged);
        Ok(true)
    }
}

impl Operator for HashJoinOp {
    fn open(&mut self, ctx: &ExecCtx<'_>) -> Result<()> {
        self.out_queue.clear();
        self.left_done = false;
        self.left.open(ctx)?;
        let Some(right) = &mut self.right else {
            return Ok(());
        };
        if !(self.build_stable && self.built) {
            self.build_parts.clear();
            self.build = None;
            self.built = false;
            // Dropping stale grace state removes any leftover partition
            // files from a previous (errored) execution of this cached
            // pipeline.
            self.grace = None;
            // Fresh reservation: replacing the old one releases the
            // dropped build's bytes back to the pool.
            self.mem = ctx.gov.reservation("HashJoin");
            right.open(ctx)?;
        }
        Ok(())
    }

    fn next_batch(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<Batch>> {
        if !self.built {
            self.run_build(ctx)?;
        }
        loop {
            if let Some(b) = self.out_queue.pop_front() {
                return Ok(Some(b));
            }
            if !self.left_done {
                match self.left.next_batch(ctx)? {
                    None => self.left_done = true,
                    Some(batch) if self.grace.is_some() => self.grace_probe_batch(ctx, &batch)?,
                    Some(batch) => {
                        let build = self.build.as_ref().expect("resident build");
                        let mut noted = OpStats::default();
                        let joined = self.probe.probe(
                            build,
                            &batch.columns,
                            batch.len,
                            &ctx.binds.borrow(),
                            &mut noted,
                        );
                        self.queue_output(joined, &noted)?;
                    }
                }
                continue;
            }
            // Grace probe phase: seal the probe partitions, then join
            // partition pairs one step per iteration.
            if self.grace.is_none() {
                return Ok(None);
            }
            if !self.grace.as_ref().is_some_and(|g| g.sealed) {
                self.grace_seal_probe(ctx)?;
                continue;
            }
            if !self.grace_step(ctx, &ctx.binds.borrow())? {
                return Ok(None);
            }
        }
    }

    fn mem_peak(&self) -> u64 {
        self.mem.peak()
    }
}

// ---------------------------------------------------------------------
// Parameterized (rebind-and-rewind) operators.
// ---------------------------------------------------------------------

/// Where each correlation parameter sits in the outer layout.
fn param_positions(params: &[ColId], outer: &[ColId]) -> Vec<(ColId, usize)> {
    params
        .iter()
        .filter_map(|c| outer.iter().position(|l| l == c).map(|i| (*c, i)))
        .collect()
}

/// The Apply (§1.3, §4): correlated execution of `inner` under the
/// bindings of the correlation parameters the outer batches carry,
/// combined with the outer lanes under the `ApplyKind`. The inner plan
/// runs once per *distinct* binding: a [`GroupTable`] over the
/// parameter lanes, kept across outer batches, gives every binding a
/// dense id, and its result is kept by id in a governor-charged
/// binding cache — the invariant-subtree cache ([`CacheOp`], here the
/// zero-parameter case's one binding) generalized to parameterized
/// inners. A binding runs at its first lane, in lane order, so the
/// first error raised is the per-row loop's first error.
///
/// (`IndexLookupJoin` rewinds nothing: it is a join probe,
/// [`IndexJoinOp`].)
///
/// The outer batch is never transposed: bindings are read off the
/// parameter lanes, and the output is a `gather` of the outer columns
/// beside a gather of the inner result columns (Semi/Anti select outer
/// lanes, touch no inner value, and keep only a result's lane count).
///
/// NULL binding semantics: bindings are grouped by `Value`'s grouping
/// equality, under which NULL equals NULL but no non-NULL value — so a
/// NULL binding never shares a non-NULL one's result, and two NULL
/// bindings sharing one run is sound because the inner side is
/// deterministic per binding tuple (an index seek under a NULL probe
/// yields empty on every execution, per SQL equality).
struct ApplyOp {
    kind: ApplyKind,
    left: BoxOp,
    inner: BoxOp,
    param_pos: Vec<(ColId, usize)>,
    left_width: usize,
    right_width: usize,
    out_cols: Rc<[ColId]>,
    /// Private bindings the inner side runs under; parameter slots are
    /// overwritten per binding, then the inner side is re-run.
    inner_binds: Rc<RefCell<Bindings>>,
    /// Binding ids: one group per distinct parameter tuple.
    bindings: GroupTable,
    /// Inner result per binding id: its columns (none for Semi/Anti)
    /// and lane count. Both are kept across batches within one
    /// execution and cleared on every `open` (rewinds under an outer
    /// apply re-parameterize the whole subtree).
    results: ColumnBatches,
    /// Set when the governor refused a result's charge: the cache is
    /// shed and reset at every outer batch from then on, so only lanes
    /// of one batch share a run.
    degraded: bool,
    mem: MemoryReservation,
    stats: StatsHandle,
}

impl ApplyOp {
    fn new(
        kind: ApplyKind,
        left: BoxOp,
        inner: BoxOp,
        param_pos: Vec<(ColId, usize)>,
        widths: (usize, usize),
        out_cols: Rc<[ColId]>,
        stats: StatsHandle,
    ) -> ApplyOp {
        ApplyOp {
            kind,
            left,
            inner,
            param_pos,
            left_width: widths.0,
            right_width: widths.1,
            out_cols,
            inner_binds: Rc::new(RefCell::new(Bindings::new())),
            bindings: GroupTable::new(),
            results: Vec::new(),
            degraded: false,
            mem: MemoryReservation::detached("ApplyLoop"),
            stats,
        }
    }

    /// Runs the inner side under the binding lane `i` of `key_cols`
    /// carries.
    fn run_inner(
        &mut self,
        ictx: &ExecCtx<'_>,
        key_cols: &[&Column],
        i: usize,
    ) -> Result<(Vec<Column>, usize)> {
        {
            let mut binds = self.inner_binds.borrow_mut();
            for ((p, _), c) in self.param_pos.iter().zip(key_cols) {
                binds.set(*p, c.value(i));
            }
        }
        self.stats.note_distinct_binding();
        self.inner.open(ictx)?;
        // Semi/Anti read only whether a result is empty.
        let count_only = matches!(self.kind, ApplyKind::Semi | ApplyKind::Anti);
        let mut parts: ColumnBatches = Vec::new();
        let mut n = 0;
        while let Some(b) = self.inner.next_batch(ictx)? {
            b.check_width(self.right_width)?;
            n += b.len;
            if !count_only {
                parts.push(b.into_columns());
            }
        }
        Ok(if count_only {
            (Vec::new(), n)
        } else {
            concat_batches(&parts, self.right_width)
        })
    }

    /// Charges one binding's result to the governor; on refusal the
    /// cache is shed (reset + degrade) and execution continues — results
    /// are identical either way.
    fn charge(&mut self, rs: &(Vec<Column>, usize)) -> Result<()> {
        let bytes = cols_bytes(&rs.0, rs.1);
        match crate::faults::hit("apply.bindings").and_then(|()| self.mem.grow(bytes)) {
            Ok(()) => Ok(()),
            Err(Error::ResourceExhausted { .. }) => {
                self.stats.note_mem_peak(self.mem.peak());
                self.mem.reset();
                self.degraded = true;
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    /// The `ApplyKind` combination of one outer batch with its lanes'
    /// inner results (`ids[i]` is lane `i`'s binding).
    fn combine(&self, outer: &[Column], len: usize, ids: &[u32]) -> (Vec<Column>, usize) {
        let result = |i: usize| &self.results[ids[i] as usize];
        if matches!(self.kind, ApplyKind::Semi | ApplyKind::Anti) {
            let want_empty = self.kind == ApplyKind::Anti;
            let sel: Vec<usize> = (0..len)
                .filter(|&i| (result(i).1 == 0) == want_empty)
                .collect();
            return (outer.iter().map(|c| c.gather(&sel)).collect(), sel.len());
        }
        // Cross / LeftOuter: every (outer lane, inner lane) pair, the
        // inner lanes addressed within the concatenation of the batch's
        // bindings' results; an outer join pads an empty result with a
        // hole.
        let mut used = ids.to_vec();
        used.sort_unstable();
        used.dedup();
        let mut offsets = Vec::with_capacity(used.len());
        let mut total = 0;
        for &g in &used {
            offsets.push(total);
            total += self.results[g as usize].1;
        }
        let mut outer_idx: Vec<usize> = Vec::new();
        let mut inner_idx: Vec<Option<usize>> = Vec::new();
        for (i, g) in ids.iter().enumerate() {
            let at = offsets[used.binary_search(g).expect("binding in batch")];
            let n = result(i).1;
            if n == 0 && self.kind == ApplyKind::LeftOuter {
                outer_idx.push(i);
                inner_idx.push(None);
            }
            for j in 0..n {
                outer_idx.push(i);
                inner_idx.push(Some(at + j));
            }
        }
        let mut out: Vec<Column> = outer.iter().map(|c| c.gather(&outer_idx)).collect();
        out.extend((0..self.right_width).map(|c| {
            let parts: Vec<Column> = used
                .iter()
                .map(|&g| self.results[g as usize].0[c].clone())
                .collect();
            Column::concat(&parts).gather_opt(&inner_idx)
        }));
        (out, outer_idx.len())
    }
}

impl Operator for ApplyOp {
    fn open(&mut self, ctx: &ExecCtx<'_>) -> Result<()> {
        self.inner_binds = Rc::new(RefCell::new(ctx.binds.borrow().clone()));
        self.bindings = GroupTable::new();
        self.results.clear();
        self.degraded = false;
        self.mem = ctx.gov.reservation("ApplyLoop");
        self.left.open(ctx)
    }

    fn next_batch(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<Batch>> {
        while let Some(batch) = self.left.next_batch(ctx)? {
            batch.check_width(self.left_width)?;
            if self.degraded {
                self.bindings = GroupTable::new();
                self.results.clear();
            }
            let (columns, len) = batch.columns();
            let key_cols: Vec<&Column> = self.param_pos.iter().map(|(_, i)| &columns[*i]).collect();
            self.stats.note_kernel();
            let ids = self.bindings.assign(&key_cols, &hash_lanes(&key_cols, len));
            let ictx = ExecCtx {
                catalog: ctx.catalog,
                binds: self.inner_binds.clone(),
                parallelism: ctx.parallelism,
                gov: ctx.gov.clone(),
                shared_catalog: ctx.shared_catalog.clone(),
                spill: Rc::clone(&ctx.spill),
            };
            // Ids are dense and first-seen, so a binding's first lane is
            // the one whose id is the next result's.
            for (i, &g) in ids.iter().enumerate() {
                if g as usize == self.results.len() {
                    let rs = self.run_inner(&ictx, &key_cols, i)?;
                    if !self.degraded {
                        self.charge(&rs)?;
                    }
                    self.results.push(rs);
                }
            }
            let (out, n) = self.combine(columns, len, &ids);
            if n > 0 {
                return Ok(Some(Batch::from_columns(self.out_cols.clone(), out, n)));
            }
        }
        Ok(None)
    }

    fn mem_peak(&self) -> u64 {
        self.mem.peak()
    }
}

/// `IndexLookupJoin` (§4): a hash-join probe whose build the table
/// already holds — its stored columns and the hash index on
/// `index_cols` — so nothing is built or charged, as for a scan. Per
/// outer batch the probe expressions become key columns over the outer
/// layout and [`JoinProbe::probe_keys`] joins them: pairs in
/// [`PAIR_WINDOW`] windows, the fetched columns gathered once per
/// window, one residual kernel over outer ++ fetched columns (so
/// correlation parameters are outer columns), the Apply's kind as the
/// join kind. The residual runs on every candidate pair, as the Apply's
/// inner side would: a Semi/Anti lane does not stop at its first match.
struct IndexJoinOp {
    left: BoxOp,
    table: TableId,
    /// Table column of each fetched column.
    positions: Vec<usize>,
    /// Indexed table columns, in the probes' order.
    index_cols: Vec<usize>,
    /// One probe expression per indexed column.
    probes: Vec<ScalarExpr>,
    outer_pos: PosMap,
    probe: JoinProbe,
    out_cols: Rc<[ColId]>,
    /// Output windows of the outer batch being joined.
    out_queue: VecDeque<Batch>,
    stats: StatsHandle,
}

impl IndexJoinOp {
    /// Joins one outer batch, queueing its output windows. A probe
    /// that failed on some lane fails the batch after the lanes before
    /// it are joined, so an earlier residual error wins.
    fn join(&mut self, ctx: &ExecCtx<'_>, batch: &Batch) -> Result<()> {
        let t = ctx.catalog.table(self.table);
        let index = t
            .index_on(&self.index_cols)
            .ok_or_else(|| missing_index(t, &self.index_cols))?;
        let binds = ctx.binds.borrow();
        let mut noted = OpStats::default();
        let cx = VecEval {
            pos: &self.outer_pos,
            columns: &batch.columns,
            len: batch.len,
            binds: &binds,
        };
        let (keys, failed) = probe_values(&self.probes, &cx);
        let len = failed.as_ref().map_or(batch.len, |f| f.0);
        let key_cols: Vec<&Column> = index
            .key_order(&self.index_cols)
            .into_iter()
            .map(|p| &keys[p])
            .collect();
        noted.index_probes = (0..len).filter(|&i| keys_valid(&key_cols, i)).count() as u64;
        let tcols = t.columns();
        let fetched: Vec<Column> = self.positions.iter().map(|&p| tcols[p].clone()).collect();
        let build = BuildSide {
            cols: &fetched,
            index,
        };
        let joined =
            self.probe
                .probe_keys(build, &batch.columns, len, &key_cols, &binds, &mut noted);
        self.stats.note_probe(&noted);
        for (out, n) in joined? {
            if n > 0 {
                self.out_queue
                    .push_back(Batch::from_columns(self.out_cols.clone(), out, n));
            }
        }
        failed.map_or(Ok(()), |(_, e)| Err(e))
    }
}

impl Operator for IndexJoinOp {
    fn open(&mut self, ctx: &ExecCtx<'_>) -> Result<()> {
        // Validate index selection up front, so a mis-planned probe
        // fails at open rather than on the first outer batch.
        let t = ctx.catalog.table(self.table);
        if t.select_index(&self.index_cols).as_deref() != Some(&self.index_cols[..]) {
            return Err(missing_index(t, &self.index_cols));
        }
        self.out_queue.clear();
        self.left.open(ctx)
    }

    fn next_batch(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<Batch>> {
        loop {
            if let Some(b) = self.out_queue.pop_front() {
                return Ok(Some(b));
            }
            let Some(batch) = self.left.next_batch(ctx)? else {
                return Ok(None);
            };
            self.join(ctx, &batch)?;
        }
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
    input_cols: Rc<[ColId]>,
    out_src: Vec<OutSrc>,
    out_cols: Rc<[ColId]>,
    inner_binds: Rc<RefCell<Bindings>>,
    /// The whole input as columns, and each segment's lanes of it and
    /// key (lane `g` of `keys` is segment `g`'s), in first-seen order.
    columns: Vec<Column>,
    segments: Vec<Vec<usize>>,
    keys: Vec<Column>,
    partitioned: bool,
    seg_cursor: usize,
    batch_size: usize,
    mem: MemoryReservation,
    stats: StatsHandle,
}

impl Operator for SegmentExecOp {
    fn open(&mut self, ctx: &ExecCtx<'_>) -> Result<()> {
        self.inner_binds = Rc::new(RefCell::new(ctx.binds.borrow().clone()));
        self.columns.clear();
        self.segments.clear();
        self.keys.clear();
        self.partitioned = false;
        self.seg_cursor = 0;
        self.mem = ctx.gov.reservation("SegmentExec");
        self.input.open(ctx)
    }

    fn next_batch(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<Batch>> {
        if !self.partitioned {
            // The partitioner is a pipeline breaker: it must see every
            // input lane before any segment runs. Segment ids are group
            // ids over the segmenting columns.
            let mut table = GroupTable::new();
            let mut parts: ColumnBatches = Vec::new();
            let mut seen = 0;
            while let Some(b) = self.input.next_batch(ctx)? {
                b.check_width(self.input_cols.len())?;
                crate::faults::hit("segment.partition")
                    .and_then(|()| self.mem.grow(b.mem_bytes()))
                    .map_err(|e| e.with_hint(MEM_HINT))?;
                let key_cols: Vec<&Column> = self.seg_pos.iter().map(|&i| &b.columns[i]).collect();
                let ids = table.assign(&key_cols, &hash_lanes(&key_cols, b.len));
                self.segments.resize_with(table.len(), Vec::new);
                for (i, g) in ids.into_iter().enumerate() {
                    self.segments[g as usize].push(seen + i);
                }
                seen += b.len;
                parts.push(b.into_columns());
                self.stats.note_kernel();
            }
            self.columns = concat_batches(&parts, self.input_cols.len()).0;
            self.keys = table.into_keys();
            self.partitioned = true;
        }
        // Run segments until a batch's worth of output has gathered:
        // each inner result batch passes through as columns, beside the
        // segment key broadcast over its lanes.
        let mut out: ColumnBatches = Vec::new();
        let mut lanes = 0;
        while lanes < self.batch_size && self.seg_cursor < self.segments.len() {
            let g = self.seg_cursor;
            self.seg_cursor += 1;
            let key: Vec<Value> = self.keys.iter().map(|k| k.value(g)).collect();
            let seg_lanes = std::mem::take(&mut self.segments[g]);
            let segment = Rc::new(Batch::from_columns(
                self.input_cols.clone(),
                self.columns.iter().map(|c| c.gather(&seg_lanes)).collect(),
                seg_lanes.len(),
            ));
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
                    let (columns, n) = b.columns();
                    let mapped = self
                        .out_src
                        .iter()
                        .map(|src| match src {
                            OutSrc::Seg(i) => Column::from_values(vec![key[*i].clone(); n]),
                            OutSrc::Inner(p) => columns[*p].clone(),
                        })
                        .collect();
                    out.push((mapped, n));
                    lanes += n;
                }
                Ok(())
            })();
            self.inner_binds.borrow_mut().pop_segment();
            run?;
        }
        if self.seg_cursor == self.segments.len() {
            // Every segment ran: release the partitioned input.
            self.columns.clear();
        }
        if lanes == 0 {
            return Ok(None);
        }
        let (columns, len) = concat_batches(&out, self.out_cols.len());
        Ok(Some(Batch::from_columns(
            self.out_cols.clone(),
            columns,
            len,
        )))
    }

    fn mem_peak(&self) -> u64 {
        self.mem.peak()
    }
}

// ---------------------------------------------------------------------
// Pipeline breakers.
// ---------------------------------------------------------------------

/// Disk-resident overflow of a spillable hash aggregation: lanes the
/// resident state refused are stored as already-evaluated
/// `key ++ present-args` lanes (no re-evaluation on restore),
/// partitioned by group-key hash.
struct SpilledAgg {
    parts: SpillPartitions,
    key_width: usize,
    /// Which aggregate specs carry an argument column in the spilled
    /// block (static per plan: `arg` is `Some` for everything but
    /// COUNT(*)).
    has_arg: Vec<bool>,
}

/// Each aggregate's argument over a batch (`None` for COUNT(*)), the
/// lanes `0..len` to feed, and the evaluation error that cut them
/// short, if any.
struct Args {
    cols: Vec<Option<Column>>,
    len: usize,
    err: Option<Error>,
}

struct HashAggregateOp {
    kind: GroupKind,
    input: BoxOp,
    in_width: usize,
    group_pos: Vec<usize>,
    aggs: Vec<AggDef>,
    in_pos: PosMap,
    out_cols: Rc<[ColId]>,
    /// Group state, created when the first lane arrives.
    state: Option<GroupedAggState>,
    /// The finished groups as columns, and how many lanes of them have
    /// been emitted.
    result: (Vec<Column>, usize),
    emitted: usize,
    done: bool,
    batch_size: usize,
    /// Peak bytes of the grouped state, captured before `finish`
    /// consumes it (the reservation lives inside the state).
    mem_peak: u64,
    /// Degrade to partitioned spilling on a refused state charge.
    allow_spill: bool,
    /// Active spill state; once set, the resident group state is frozen
    /// and every further input lane goes to disk.
    spilled: Option<SpilledAgg>,
    stats: StatsHandle,
}

impl HashAggregateOp {
    /// Evaluates every aggregate argument over a batch as a whole
    /// column. A row evaluates its arguments in aggregate order, so the
    /// lanes before the first failing one are fed and then its error is
    /// raised, a tie going to the earlier aggregate — the row-ordered
    /// error precedence.
    fn eval_args(&self, columns: &[Column], len: usize, binds: &Bindings) -> Args {
        let cx = VecEval {
            pos: &self.in_pos,
            columns,
            len,
            binds,
        };
        let args: Vec<_> = self
            .aggs
            .iter()
            .map(|a| a.arg.as_ref().map(|e| eval_lanes(e, &cx)))
            .collect();
        self.stats.note_kernel();
        let failed = first_error(args.iter().flatten().map(|a| &a.errs[..])).cloned();
        Args {
            cols: args.into_iter().map(|a| a.map(|a| a.col)).collect(),
            len: failed.as_ref().map_or(len, |f| f.0),
            err: failed.map(|f| f.1),
        }
    }

    /// Feeds one batch into the resident state, or — once spilling —
    /// to disk. A refused charge stops the lane feed where it happened;
    /// the rest of the batch then spills, or fails the query when the
    /// aggregate may not spill.
    fn feed(&mut self, ctx: &ExecCtx<'_>, b: &Batch) -> Result<()> {
        b.check_width(self.in_width)?;
        let (columns, len) = b.columns();
        let args = self.eval_args(columns, len, &ctx.binds.borrow());
        let key_cols: Vec<&Column> = self.group_pos.iter().map(|&i| &columns[i]).collect();
        let hashes = hash_lanes(&key_cols, args.len);
        let mut applied = 0;
        if self.spilled.is_none() && args.len > 0 {
            let state = self.state.get_or_insert_with(|| {
                GroupedAggState::new(&self.aggs, ctx.gov.reservation("HashAggregate"))
            });
            let (fed, refusal) = state.feed_lanes(&key_cols, &hashes, &args.cols)?;
            applied = fed;
            if let Some(err) = refusal {
                if !self.allow_spill {
                    return Err(err.with_hint(MEM_OR_SPILL_HINT));
                }
                self.enter_spill(ctx)?;
            }
        }
        if applied < args.len {
            let sp = self.spilled.as_mut().expect("spill mode active");
            let lanes: Vec<Column> = key_cols
                .into_iter()
                .cloned()
                .chain(args.cols.into_iter().flatten())
                .collect();
            for (i, &h) in hashes.iter().enumerate().skip(applied) {
                sp.parts.push_lane(partition_of(h, 0), &lanes, i)?;
            }
            ctx.gov.check_cancelled("HashAggregate")?;
        }
        args.err.map_or(Ok(()), Err)
    }

    /// Enters spill mode (idempotent): the resident state freezes and
    /// further lanes are partitioned to disk by group-key hash.
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

    /// Pulls the whole input through the grouped state, degrading to
    /// disk partitions when the governor refuses a charge.
    fn drain_input(&mut self, ctx: &ExecCtx<'_>) -> Result<()> {
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
            self.feed(ctx, &b)?;
        }
        Ok(())
    }

    /// Replays one spilled partition file into `st` through the same
    /// lane feed; a refusal here cannot degrade any further.
    fn replay_file(
        ctx: &ExecCtx<'_>,
        st: &mut GroupedAggState,
        file: &mut SpillFile,
        key_width: usize,
        has_arg: &[bool],
    ) -> Result<()> {
        let mut r = file.reader()?;
        while let Some((columns, n)) = r.next_block_columns()? {
            let (keys, args) = columns.split_at(key_width);
            let key_cols: Vec<&Column> = keys.iter().collect();
            let mut args = args.iter().cloned();
            let args: Vec<Option<Column>> = has_arg
                .iter()
                .map(|&h| if h { args.next() } else { None })
                .collect();
            if let (_, Some(err)) = st.feed_lanes(&key_cols, &hash_lanes(&key_cols, n), &args)? {
                return Err(err.with_hint(MEM_HINT));
            }
            ctx.gov.check_cancelled("HashAggregate")?;
        }
        Ok(())
    }

    /// Finishes a spilled aggregation: the frozen resident state is
    /// split by the partition its groups' key hashes route to — the
    /// function the disk lanes used — then each partition is finalized
    /// independently: charge the resident split, replay the partition
    /// file, emit. Peak memory is one partition's groups instead of
    /// all of them.
    fn finish_spilled(
        &mut self,
        ctx: &ExecCtx<'_>,
        mut state: GroupedAggState,
        sp: SpilledAgg,
    ) -> Result<(Vec<Column>, usize)> {
        let SpilledAgg {
            parts,
            key_width,
            has_arg,
        } = sp;
        let files = parts.finish()?;
        note_spilled_files(&self.stats, &files);
        if matches!(self.kind, GroupKind::Scalar) {
            // Scalar aggregation has a single (empty) group key, so all
            // lanes live in one partition: replay everything into the
            // resident state and finish once, so `agg(∅)` fires exactly
            // when the whole input was empty.
            let r = files.into_iter().try_for_each(|mut f| {
                Self::replay_file(ctx, &mut state, &mut f, key_width, &has_arg)
            });
            self.mem_peak = self.mem_peak.max(state.mem_peak());
            r?;
            return Ok(state.finish(self.kind));
        }
        let mut out: ColumnBatches = Vec::new();
        for (mut st, mut file) in state
            .split(FANOUT, |h| partition_of(h, 0))
            .into_iter()
            .zip(files)
        {
            let r = st
                .attach(ctx.gov.reservation("HashAggregate"))
                .map_err(|e| e.with_hint(MEM_HINT))
                .and_then(|()| Self::replay_file(ctx, &mut st, &mut file, key_width, &has_arg));
            self.mem_peak = self.mem_peak.max(st.mem_peak());
            r?;
            let (columns, n) = st.finish(self.kind);
            if n > 0 {
                out.push((columns, n));
            }
            // The partition file is consumed; dropping it reclaims the
            // disk space before the next partition loads.
            drop(file);
            ctx.gov.check_cancelled("HashAggregate")?;
        }
        Ok(concat_batches(&out, self.out_cols.len()))
    }
}

impl Operator for HashAggregateOp {
    fn open(&mut self, ctx: &ExecCtx<'_>) -> Result<()> {
        self.state = None;
        self.result = (Vec::new(), 0);
        self.emitted = 0;
        self.done = false;
        self.mem_peak = 0;
        // Dropping stale spill partitions removes their files (left by
        // a previous errored execution of this cached pipeline).
        self.spilled = None;
        self.input.open(ctx)
    }

    fn next_batch(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<Batch>> {
        if !self.done {
            let fed = self.drain_input(ctx);
            let state = self.state.take().unwrap_or_else(|| {
                GroupedAggState::new(&self.aggs, ctx.gov.reservation("HashAggregate"))
            });
            self.mem_peak = self.mem_peak.max(state.mem_peak());
            fed?;
            self.result = match self.spilled.take() {
                None => state.finish(self.kind),
                Some(sp) => self.finish_spilled(ctx, state, sp)?,
            };
            self.done = true;
        }
        let (columns, len) = &self.result;
        let take = self.batch_size.min(len - self.emitted);
        if take == 0 {
            return Ok(None);
        }
        let window = columns
            .iter()
            .map(|c| c.slice(self.emitted, take))
            .collect();
        self.emitted += take;
        if self.emitted == *len {
            // The last window: a cached pipeline must not keep the
            // groups alive until its next execution.
            self.result = (Vec::new(), 0);
            self.emitted = 0;
        }
        Ok(Some(Batch::from_columns(
            self.out_cols.clone(),
            window,
            take,
        )))
    }

    fn mem_peak(&self) -> u64 {
        self.mem_peak
    }
}

struct LimitOp {
    input: BoxOp,
    n: usize,
    cols: Rc<[ColId]>,
    /// Lanes buffered so far (at most `n`).
    kept: usize,
    buffered: VecDeque<Batch>,
    done: bool,
    mem: MemoryReservation,
}

impl Operator for LimitOp {
    fn open(&mut self, ctx: &ExecCtx<'_>) -> Result<()> {
        self.buffered.clear();
        self.kept = 0;
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
                let take = (self.n - self.kept).min(b.len);
                if take == 0 {
                    // Past the cutoff (or an empty batch): keep
                    // draining for errors, buffer nothing.
                    continue;
                }
                let head: Vec<Column> = b.columns.iter().map(|c| c.slice(0, take)).collect();
                crate::faults::hit("limit.buffer")
                    .and_then(|()| self.mem.grow(cols_bytes(&head, take)))
                    .map_err(|e| e.with_hint(MEM_HINT))?;
                self.kept += take;
                self.buffered
                    .push_back(Batch::from_columns(self.cols.clone(), head, take));
            }
            self.done = true;
        }
        Ok(self.buffered.pop_front())
    }

    fn mem_peak(&self) -> u64 {
        self.mem.peak()
    }
}

struct AssertMax1Op {
    input: BoxOp,
    cols: Rc<[ColId]>,
    /// The first non-empty batch: the whole answer when the input has
    /// one row.
    first: Option<Batch>,
    /// Lanes seen across the whole input.
    lanes: usize,
    done: bool,
    mem: MemoryReservation,
}

impl Operator for AssertMax1Op {
    fn open(&mut self, ctx: &ExecCtx<'_>) -> Result<()> {
        self.first = None;
        self.lanes = 0;
        self.done = false;
        self.mem = ctx.gov.reservation("Max1Row");
        self.input.open(ctx)
    }

    fn next_batch(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<Batch>> {
        if self.done {
            return Ok(None);
        }
        // Drain first: input errors take precedence over the
        // cardinality violation, as in the reference semantics. Only
        // the first batch can be the answer, so only it is kept (and
        // charged); the rest are counted.
        while let Some(b) = self.input.next_batch(ctx)? {
            b.check_width(self.cols.len())?;
            self.lanes += b.len;
            if self.first.is_none() && b.len > 0 {
                crate::faults::hit("max1.buffer")
                    .and_then(|()| self.mem.grow(b.mem_bytes()))
                    .map_err(|e| e.with_hint(MEM_HINT))?;
                self.first = Some(b);
            }
        }
        self.done = true;
        if self.lanes > 1 {
            return Err(Error::SubqueryReturnedMoreThanOneRow);
        }
        Ok(self.first.take())
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
    /// Remaps one side's layout onto the output layout (column
    /// selection is O(1) per column).
    fn remap(&self, b: &Batch, pos: &[usize]) -> Batch {
        let (columns, len) = b.columns();
        let out = pos.iter().map(|&i| columns[i].clone()).collect();
        self.stats.note_kernel();
        Batch::from_columns(self.cols.clone(), out, len)
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
                return Ok(Some(self.remap(&b, &self.lpos)));
            }
            self.on_right = true;
        }
        Ok(self
            .right
            .next_batch(ctx)?
            .map(|b| self.remap(&b, &self.rpos)))
    }
}

/// Bag difference: each right lane's key (its `rpos` columns, in the
/// left layout's order) cancels one left lane with an equal row, under
/// `Value`'s grouping equality (NULL = NULL, 3 = 3.0).
struct ExceptOp {
    left: BoxOp,
    right: BoxOp,
    rpos: Vec<usize>,
    right_width: usize,
    cols: Rc<[ColId]>,
    /// The right side's distinct keys, and how many left lanes each
    /// still cancels.
    table: GroupTable,
    counts: Vec<u32>,
    built: bool,
    mem: MemoryReservation,
    stats: StatsHandle,
}

impl Operator for ExceptOp {
    fn open(&mut self, ctx: &ExecCtx<'_>) -> Result<()> {
        self.table = GroupTable::new();
        self.counts.clear();
        self.built = false;
        self.mem = ctx.gov.reservation("Except");
        self.left.open(ctx)?;
        self.right.open(ctx)
    }

    fn next_batch(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<Batch>> {
        if !self.built {
            while let Some(b) = self.right.next_batch(ctx)? {
                b.check_width(self.right_width)?;
                crate::faults::hit("except.build")
                    .and_then(|()| self.mem.grow(b.mem_bytes()))
                    .map_err(|e| e.with_hint(MEM_HINT))?;
                let key_cols: Vec<&Column> = self.rpos.iter().map(|&i| &b.columns[i]).collect();
                let ids = self.table.assign(&key_cols, &hash_lanes(&key_cols, b.len));
                self.counts.resize(self.table.len(), 0);
                for g in ids {
                    self.counts[g as usize] += 1;
                }
                self.stats.note_kernel();
            }
            self.built = true;
        }
        loop {
            let Some(b) = self.left.next_batch(ctx)? else {
                return Ok(None);
            };
            b.check_width(self.cols.len())?;
            let row: Vec<&Column> = b.columns.iter().collect();
            let mut sel = Vec::new();
            for (i, h) in hash_lanes(&row, b.len).into_iter().enumerate() {
                match self.table.find(&row, i, h) {
                    Some(g) if self.counts[g as usize] > 0 => self.counts[g as usize] -= 1,
                    _ => sel.push(i),
                }
            }
            self.stats.note_kernel();
            if !sel.is_empty() {
                let out = b.columns.iter().map(|c| c.gather(&sel)).collect();
                return Ok(Some(Batch::from_columns(self.cols.clone(), out, sel.len())));
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

    /// A hash aggregate emits its finished groups in first-seen order,
    /// cut into full `batch_size` windows and then the remainder.
    #[test]
    fn aggregate_emits_batch_size_windows() {
        let catalog = catalog();
        for batch_size in [1, 4, 1024] {
            for n in [0, 1, batch_size, batch_size + 1, 3 * batch_size + 7] {
                // Every key twice, the second round in reverse: first-seen
                // order is the first round's.
                let keys: Vec<i64> = (0..n as i64).chain((0..n as i64).rev()).collect();
                let rows: Vec<Row> = keys.iter().map(|&k| vec![Value::Int(3 * k - 5)]).collect();
                let plan = PhysExpr::HashAggregate {
                    kind: GroupKind::Vector,
                    input: Box::new(PhysExpr::const_rows(vec![ColId(1)], &rows)),
                    group_cols: vec![ColId(1)],
                    aggs: vec![AggDef::new(
                        orthopt_ir::ColumnMeta::new(ColId(2), "n", DataType::Int, false),
                        orthopt_ir::AggFunc::CountStar,
                        None,
                    )],
                };
                let mut p = Pipeline::with_batch_size(&plan, batch_size).unwrap();
                let mut batches = Vec::new();
                p.execute_each(&catalog, &Bindings::new(), |b| {
                    batches.push(b.into_rows());
                    Ok(())
                })
                .unwrap();
                let groups: Vec<Row> = (0..n as i64)
                    .map(|k| vec![Value::Int(3 * k - 5), Value::Int(2)])
                    .collect();
                let expected: Vec<Vec<Row>> =
                    groups.chunks(batch_size).map(<[Row]>::to_vec).collect();
                assert_eq!(batches, expected, "{n} keys at batch size {batch_size}");
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
    /// `debug_assert` in [`Batch::from_columns`]. Stateful operators must catch
    /// the mismatch on their own batch-concatenation path — in release
    /// builds too, as a query error rather than a panic: Sort, Except on
    /// either side, SegmentExec's partitioner, and the two that key a
    /// `GroupTable` on input lanes by position, the Apply (outer side)
    /// and HashAggregate.
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
                // Literal construction: two-column layout, one column.
                Ok(Some(Batch {
                    cols: self.cols.clone(),
                    columns: vec![Column::from_values(vec![Value::Int(1)])],
                    len: 1,
                }))
            }
        }
        let layout = rc_cols(&[ColId(1), ColId(2)]);
        let lying = || -> BoxOp {
            Box::new(LyingOp {
                cols: layout.clone(),
                fired: false,
            })
        };
        let honest = || -> BoxOp {
            Box::new(ConstScanOp {
                cols: layout.clone(),
                columns: vec![Column::from_values(vec![Value::Int(1)]); 2],
                len: 1,
                cursor: 0,
                batch_size: 16,
            })
        };
        let stats = || StatsHandle::new(Rc::new(RefCell::new(vec![OpStats::default()])), 0);
        let except = |left: BoxOp, right: BoxOp| -> BoxOp {
            Box::new(ExceptOp {
                left,
                right,
                rpos: vec![0, 1],
                right_width: 2,
                cols: layout.clone(),
                table: GroupTable::new(),
                counts: Vec::new(),
                built: false,
                mem: MemoryReservation::detached("Except"),
                stats: stats(),
            })
        };
        let mut ops: Vec<(&str, BoxOp)> = vec![
            (
                "Sort",
                Box::new(SortOp::new(
                    lying(),
                    vec![(0, false)],
                    layout.clone(),
                    16,
                    false,
                    stats(),
                )),
            ),
            ("Except (left)", except(lying(), honest())),
            ("Except (right)", except(honest(), lying())),
            (
                "SegmentExec",
                Box::new(SegmentExecOp {
                    input: lying(),
                    inner: honest(),
                    seg_pos: vec![0],
                    input_cols: layout.clone(),
                    out_src: vec![OutSrc::Seg(0)],
                    out_cols: rc_cols(&[ColId(1)]),
                    inner_binds: Rc::new(RefCell::new(Bindings::new())),
                    columns: Vec::new(),
                    segments: Vec::new(),
                    keys: Vec::new(),
                    partitioned: false,
                    seg_cursor: 0,
                    batch_size: 16,
                    mem: MemoryReservation::detached("SegmentExec"),
                    stats: stats(),
                }),
            ),
        ];
        let apply = ApplyOp::new(
            ApplyKind::LeftOuter,
            lying(),
            honest(),
            vec![(ColId(2), 1)],
            (2, 2),
            rc_cols(&[ColId(1), ColId(2), ColId(3), ColId(4)]),
            stats(),
        );
        let aggregate = HashAggregateOp {
            kind: GroupKind::Vector,
            input: lying(),
            in_width: 2,
            group_pos: vec![1],
            aggs: Vec::new(),
            in_pos: PosMap::new(&layout),
            out_cols: rc_cols(&[ColId(2)]),
            state: None,
            result: (Vec::new(), 0),
            emitted: 0,
            done: false,
            batch_size: 16,
            allow_spill: false,
            spilled: None,
            mem_peak: 0,
            stats: stats(),
        };
        ops.push(("Apply (outer)", Box::new(apply)));
        ops.push(("HashAggregate", Box::new(aggregate)));
        let catalog = catalog();
        let ctx = ExecCtx::new(&catalog, Bindings::new());
        for (name, mut op) in ops {
            op.open(&ctx).unwrap();
            let err = op
                .next_batch(&ctx)
                .expect_err("arity mismatch must error on the buffering path");
            assert!(
                matches!(err, Error::Internal(ref m) if m.contains("arity")),
                "{name}: unexpected error: {err}"
            );
        }
    }
}
