//! Morsel-driven parallel execution.
//!
//! An [`Exchange`](PhysExpr::Exchange) node marks a subtree the runtime
//! may execute across a small fixed pool of `std::thread` workers
//! (sized by [`ExecCtx::parallelism`]). Three physical strategies are
//! implemented, chosen by the shape of the wrapped subtree:
//!
//! * **Pipelined scan** — a chain of row-at-a-time operators over a
//!   `TableScan` (optionally through one keyed hash join) is cloned per
//!   worker with the scan replaced by a
//!   [`MorselScan`](PhysExpr::MorselScan) over statically-assigned row
//!   ranges; a join's build side is computed once and broadcast to the
//!   workers as a `ConstScan`.
//! * **Repartitioned probe** — when the subtree root is exactly a hash
//!   join, the build side is computed and indexed once
//!   ([`JoinBuild`]); workers run their morsel-split chain and probe
//!   each batch against the one shared read-only build with the serial
//!   join's own probe routine ([`JoinProbe`]).
//! * **Partial aggregation** — when the root is a `HashAggregate`, each
//!   worker feeds its morsels into a thread-local
//!   [`GroupedAggState`]; the partial states are merged at close. This
//!   is the paper's LocalGroupBy (§3.3) realized physically: the
//!   thread-local states are LocalGroupBys over the morsel partitions
//!   and the merge is the global GroupBy.
//!
//! Determinism: morsels are assigned round-robin by a static schedule,
//! task outputs are gathered in task (submission) order, and aggregate
//! states merge in task order — repeated parallel runs are
//! byte-identical. Subtrees
//! whose shape the runtime does not recognize, non-invariant subtrees
//! (ones referencing outer parameters or segments), and
//! `parallelism <= 1` all fall back to serial execution of the
//! unmodified subtree, with per-node stats copied one-to-one.
//!
//! Dispatch: task groups go to the process-wide [`Scheduler`] — one
//! long-lived pool multiplexing every concurrent query under fair
//! round-robin. Its `'static` tasks capture the catalog by `Arc`, so
//! fanning out requires [`ExecCtx::shared_catalog`]
//! ([`Pipeline::set_shared_catalog`]); an exchange asked to fan out
//! without it fails with an internal error rather than running serial.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use orthopt_common::column::{cols_bytes, rows_to_columns, Column};
use orthopt_common::{ColId, Error, MemoryReservation, Result};
use orthopt_ir::{AggDef, GroupKind};
use orthopt_storage::Catalog;

use crate::aggregate::GroupedAggState;
use crate::bindings::Bindings;
use crate::eval::PosMap;
use crate::physical::PhysExpr;
use crate::pipeline::{
    concat_batches, free_inputs, pos_of, AggInput, Batch, ColumnBatches, ExecCtx, JoinBuild,
    JoinProbe, Operator, Pipeline, PipelineOptions, MEM_HINT,
};
use crate::scheduler::Scheduler;
use crate::stats::OpStats;

/// Upper bound on the worker pool, whatever the knob says.
pub const MAX_WORKERS: usize = 64;

/// Morsels larger than this are split further so the static schedule
/// stays balanced.
const MAX_MORSEL: usize = 4096;

// ---------------------------------------------------------------------
// Eligibility: the plan-shape grammar the exchange runtime understands.
// ---------------------------------------------------------------------

/// A chain of per-row wrappers (`Filter`/`Compute`/`ProjectCols`) over a
/// `TableScan` — the driving path a morsel split applies to.
fn chain(p: &PhysExpr) -> bool {
    match p {
        PhysExpr::TableScan { .. } => true,
        PhysExpr::Filter { input, .. }
        | PhysExpr::Compute { input, .. }
        | PhysExpr::ProjectCols { input, .. } => chain(input),
        _ => false,
    }
}

/// A chain, or wrappers over a single keyed hash join whose probe side
/// is a chain (the build side is arbitrary: it runs once, serially). A
/// keyless join — the nested-loops join — is left to run serially.
fn splittable(p: &PhysExpr) -> bool {
    match p {
        PhysExpr::TableScan { .. } => true,
        PhysExpr::Filter { input, .. }
        | PhysExpr::Compute { input, .. }
        | PhysExpr::ProjectCols { input, .. } => splittable(input),
        PhysExpr::HashJoin {
            left, left_keys, ..
        } => !left_keys.is_empty() && chain(left),
        _ => false,
    }
}

/// Whether the exchange runtime can parallelize this subtree: a
/// splittable plan, or a `HashAggregate` over one, that does not depend
/// on outer parameters or segments.
pub fn exchange_eligible(p: &PhysExpr) -> bool {
    let shape =
        splittable(p) || matches!(p, PhysExpr::HashAggregate { input, .. } if splittable(input));
    shape && free_inputs(p).is_invariant()
}

/// Removes `Exchange` nodes from the driving path (root, wrapper
/// chains, the probe side of a join, an aggregate's input) so a larger
/// wrap can subsume exchanges a bottom-up planner already placed on
/// children. Build sides keep theirs — they execute serially under the
/// parent exchange, where a nested exchange degrades to a no-op.
fn strip_driving_exchanges(p: &mut PhysExpr) {
    while let PhysExpr::Exchange { input } = p {
        *p = (**input).clone();
    }
    match p {
        PhysExpr::Filter { input, .. }
        | PhysExpr::Compute { input, .. }
        | PhysExpr::ProjectCols { input, .. }
        | PhysExpr::HashAggregate { input, .. }
        | PhysExpr::HashJoin { left: input, .. } => strip_driving_exchanges(input),
        _ => {}
    }
}

/// Wraps a plan in an `Exchange` if it is eligible, first stripping
/// exchanges a bottom-up planner already placed on the driving path
/// (so the larger wrap subsumes them rather than being blocked by
/// them). Used by the optimizer when the cost model decides
/// parallelism pays.
pub fn wrap_exchange(p: &PhysExpr) -> Option<PhysExpr> {
    let mut inner = p.clone();
    strip_driving_exchanges(&mut inner);
    exchange_eligible(&inner).then(|| PhysExpr::Exchange {
        input: Box::new(inner),
    })
}

/// Structurally wraps every maximal eligible subtree in an `Exchange`,
/// regardless of cost — the conformance suite uses this to exercise the
/// parallel runtime on tables far too small for the cost model to pick
/// exchanges on its own.
pub fn place_exchanges(p: &PhysExpr) -> PhysExpr {
    fn place(p: &mut PhysExpr) {
        if exchange_eligible(p) {
            *p = PhysExpr::Exchange {
                input: Box::new(p.clone()),
            };
        } else if !matches!(p, PhysExpr::Exchange { .. }) {
            // An exchange already in the plan stays as it is.
            p.children_mut().into_iter().for_each(place);
        }
    }
    let mut out = p.clone();
    place(&mut out);
    out
}

// ---------------------------------------------------------------------
// Plan surgery: locating the driving scan / build side, substitution.
// ---------------------------------------------------------------------

/// The build subtree on the driving path, if the subtree contains a
/// join (at most one, by the eligibility grammar).
fn build_side(p: &PhysExpr) -> Option<&PhysExpr> {
    match p {
        PhysExpr::Filter { input, .. }
        | PhysExpr::Compute { input, .. }
        | PhysExpr::ProjectCols { input, .. }
        | PhysExpr::HashAggregate { input, .. } => build_side(input),
        PhysExpr::HashJoin { right, .. } => Some(right),
        _ => None,
    }
}

/// Row count of the driving scan's table.
fn driving_len(p: &PhysExpr, catalog: &Catalog) -> usize {
    match p {
        PhysExpr::TableScan { table, .. } => catalog.table(*table).row_count(),
        PhysExpr::Filter { input, .. }
        | PhysExpr::Compute { input, .. }
        | PhysExpr::ProjectCols { input, .. }
        | PhysExpr::HashAggregate { input, .. } => driving_len(input, catalog),
        PhysExpr::HashJoin { left, .. } => driving_len(left, catalog),
        _ => 0,
    }
}

/// Turns a clone of the subtree into one worker's plan: the driving
/// `TableScan` becomes a `MorselScan` over the worker's ranges, and the
/// build side (if any) becomes `build`, the `ConstScan` over the
/// broadcast build columns. Reaching a join without one means the
/// eligibility grammar and the build locator disagree — reported as an
/// internal error rather than a panic so the engine survives the (never
/// observed) inconsistency.
fn substitute(
    p: &PhysExpr,
    ranges: &[(usize, usize)],
    build: Option<&PhysExpr>,
) -> Result<PhysExpr> {
    fn swap(p: &mut PhysExpr, ranges: &[(usize, usize)], build: Option<&PhysExpr>) -> Result<()> {
        match p {
            PhysExpr::TableScan {
                table,
                positions,
                cols,
            } => {
                *p = PhysExpr::MorselScan {
                    table: *table,
                    positions: std::mem::take(positions),
                    cols: std::mem::take(cols),
                    ranges: ranges.to_vec(),
                };
            }
            PhysExpr::HashJoin { left, right, .. } => {
                **right = build.cloned().ok_or_else(|| {
                    Error::internal(
                        "exchange substitution reached a join without broadcast build rows",
                    )
                })?;
                swap(left, ranges, None)?;
            }
            PhysExpr::Filter { input, .. }
            | PhysExpr::Compute { input, .. }
            | PhysExpr::ProjectCols { input, .. } => swap(input, ranges, build)?,
            _ => {}
        }
        Ok(())
    }
    let mut out = p.clone();
    swap(&mut out, ranges, build)?;
    Ok(out)
}

/// Static morsel schedule: the table's row space is cut into morsels of
/// `clamp(ceil(len / (workers * 4)), 1, MAX_MORSEL)` rows and morsel
/// `m` goes to worker `m % workers` — deterministic run to run.
fn worker_ranges(len: usize, workers: usize) -> Vec<Vec<(usize, usize)>> {
    let mut out = vec![Vec::new(); workers];
    if len == 0 {
        return out;
    }
    let morsel = len.div_ceil(workers * 4).clamp(1, MAX_MORSEL);
    let mut start = 0;
    let mut m = 0;
    while start < len {
        let end = (start + morsel).min(len);
        out[m % workers].push((start, end));
        start = end;
        m += 1;
    }
    out
}

// ---------------------------------------------------------------------
// Worker pool.
// ---------------------------------------------------------------------

/// Renders a panic payload as text for error reporting.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Converts a panic caught inside a task body into an [`Error::Exec`]
/// naming the operator the task was inside. Must run on the thread the
/// panic unwound on — the op note is thread-local.
fn panic_to_error(payload: &(dyn std::any::Any + Send)) -> Error {
    let at = crate::pipeline::current_op().map_or_else(String::new, |(id, name)| {
        format!(" in operator {name}#{id}")
    });
    Error::Exec(format!("worker panicked{at}: {}", panic_message(payload)))
}

/// Runs one closure per plan on the process-wide [`Scheduler`] and
/// gathers `(pool_worker_id, result)` pairs in *task submission order*
/// — the order `plans` was given in — regardless of which thread ran
/// what when. The worker id is the executing thread's stable index, for
/// stats attribution.
///
/// Tasks are `'static`, so they capture the context's shared catalog
/// handle — fanning out without one is a caller bug, reported as an
/// internal error rather than a silent serial run — and interleave
/// fairly with other queries' tasks. Each task body runs under
/// `catch_unwind`, so a panicking operator is reported as an
/// [`Error::Exec`] naming the operator the task was inside instead of
/// tearing down the process; the remaining tasks finish normally. The
/// first (by task order) error wins.
fn scatter<T, F>(ctx: &ExecCtx<'_>, plans: Vec<PhysExpr>, f: F) -> Result<Vec<(usize, T)>>
where
    T: Send + 'static,
    F: Fn(PhysExpr, &Catalog) -> Result<T> + Send + Sync + 'static,
{
    let catalog = ctx.shared_catalog.as_ref().ok_or_else(|| {
        Error::internal(
            "Exchange at parallelism > 1 needs a shared catalog: \
             call Pipeline::set_shared_catalog before executing",
        )
    })?;
    let f = Arc::new(f);
    let tasks: Vec<_> = plans
        .into_iter()
        .map(|p| {
            let f = Arc::clone(&f);
            let catalog = Arc::clone(catalog);
            move |worker: usize| -> Result<(usize, T)> {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(p, &catalog)))
                    .unwrap_or_else(|payload| Err(panic_to_error(payload.as_ref())))
                    .map(|v| (worker, v))
            }
        })
        .collect();
    let joined = Scheduler::global().run_group(tasks);
    let mut out = Vec::with_capacity(joined.len());
    for r in joined {
        match r {
            Ok(v) => out.push(v?),
            // The task body is fully wrapped in catch_unwind, so this
            // means the panic escaped during payload teardown — still
            // convert rather than abort the process.
            Err(panic) => {
                return Err(Error::Exec(format!(
                    "worker task died: {}",
                    panic_message(panic.as_ref())
                )))
            }
        }
    }
    Ok(out)
}

/// Runs a worker or fallback pipeline to completion, collecting its
/// output as column batches: a worker's morsel slices travel back to
/// the gather without copying a value.
fn run_to_columns(
    pipe: &mut Pipeline,
    catalog: &Catalog,
    binds: &Bindings,
) -> Result<ColumnBatches> {
    let mut out = Vec::new();
    pipe.execute_each(catalog, binds, |b| {
        out.push(b.into_columns());
        Ok(())
    })?;
    Ok(out)
}

#[allow(dead_code)]
fn thread_safety_asserts() {
    fn send<T: Send>() {}
    fn sync<T: Sync>() {}
    // Worker plans move into threads; catalogs, the repartitioned
    // join's build and its probe routine are shared by reference;
    // column batches and partial aggregation states travel back.
    send::<PhysExpr>();
    send::<ColumnBatches>();
    send::<GroupedAggState>();
    sync::<Catalog>();
    sync::<JoinBuild>();
    sync::<JoinProbe>();
}

// ---------------------------------------------------------------------
// The exchange operator.
// ---------------------------------------------------------------------

/// Runtime of an `Exchange` node: decides serial fallback vs. one of
/// the three parallel strategies at execution time, runs the workers,
/// and merges per-worker [`OpStats`] into the enclosing pipeline's
/// registry at the subtree's pre-order slots.
pub struct ExchangeOp {
    plan: PhysExpr,
    /// First stats slot of the wrapped subtree (the slot right after the
    /// exchange's own).
    base: usize,
    stats: Rc<RefCell<Vec<OpStats>>>,
    batch_size: usize,
    /// Spill toggle the enclosing pipeline was compiled with; worker
    /// pipelines inherit it so a per-session setting holds across the
    /// exchange boundary.
    spill: bool,
    out_cols: Rc<[ColId]>,
    invariant: bool,
    /// Gathered output, handed to the parent batch by batch.
    pending: VecDeque<(Vec<Column>, usize)>,
    done: bool,
    /// Charges the gather buffer (`pending`) against the query's memory
    /// budget; workers stream into it before the parent drains.
    mem: MemoryReservation,
}

impl ExchangeOp {
    pub(crate) fn new(
        plan: PhysExpr,
        base: usize,
        stats: Rc<RefCell<Vec<OpStats>>>,
        batch_size: usize,
        spill: bool,
    ) -> ExchangeOp {
        let out_cols: Rc<[ColId]> = plan.out_cols().as_slice().into();
        let invariant = free_inputs(&plan).is_invariant();
        ExchangeOp {
            plan,
            base,
            stats,
            batch_size,
            spill,
            out_cols,
            invariant,
            pending: VecDeque::new(),
            done: false,
            mem: MemoryReservation::detached("Exchange"),
        }
    }

    /// Compile options worker/build/serial pipelines inherit from the
    /// enclosing pipeline.
    fn pipe_options(&self) -> PipelineOptions {
        PipelineOptions {
            batch_size: self.batch_size,
            spill: Some(self.spill),
        }
    }

    /// Moves freshly gathered batches into the shared `pending` buffer,
    /// charging them to the exchange's reservation first. Worker plans
    /// are synthesized by plan surgery ([`substitute`]), so a
    /// substitution bug would otherwise corrupt the merged stream
    /// silently: like [`Batch::check_width`] the layout check runs in
    /// release builds too and reports through `common::error` rather
    /// than panicking. Also a fault site (`exchange.gather`), so
    /// injection can exercise the gather path.
    fn gather(&mut self, batches: ColumnBatches, site: &str) -> Result<()> {
        let width = self.out_cols.len();
        if let Some((columns, _)) = batches.iter().find(|(c, _)| c.len() != width) {
            return Err(Error::internal(format!(
                "exchange {site}: gathered batch has {} columns, layout expects {width}",
                columns.len()
            )));
        }
        let bytes = batches.iter().map(|(c, n)| cols_bytes(c, *n)).sum();
        crate::faults::hit("exchange.gather")
            .and_then(|()| self.mem.grow(bytes))
            .map_err(|e| e.with_hint(MEM_HINT))?;
        self.pending
            .extend(batches.into_iter().filter(|(_, len)| *len > 0));
        Ok(())
    }

    /// Serial fallback: compile and run the unmodified subtree, copying
    /// its per-node stats one-to-one into the reserved slots.
    fn run_serial(&mut self, ctx: &ExecCtx<'_>) -> Result<()> {
        let mut pipe = Pipeline::with_options(&self.plan, self.pipe_options())?;
        pipe.set_governor(ctx.gov.clone());
        let binds = ctx.binds.borrow().clone();
        let batches = run_to_columns(&mut pipe, ctx.catalog, &binds)?;
        let sub = pipe.stats();
        let mut stats = self.stats.borrow_mut();
        for (i, s) in sub.iter().enumerate() {
            let slot = &mut stats[self.base + i];
            slot.opens += s.opens;
            slot.batches += s.batches;
            slot.rows += s.rows;
            slot.elapsed += s.elapsed;
            slot.mem_peak = slot.mem_peak.max(s.mem_peak);
        }
        drop(stats);
        self.gather(batches, "serial fallback")
    }

    /// Runs a join build side once, serially, recording its stats into
    /// the trailing reserved slots (the build subtree is last in the
    /// subtree's pre-order).
    fn run_build(&self, ctx: &ExecCtx<'_>, build: &PhysExpr) -> Result<ColumnBatches> {
        let mut pipe = Pipeline::with_options(build, self.pipe_options())?;
        pipe.set_governor(ctx.gov.clone());
        // The build plan runs unmodified (no surgery), and the pipeline
        // checks every root batch against its layout.
        let batches = run_to_columns(&mut pipe, ctx.catalog, &Bindings::new())?;
        let sub = pipe.stats();
        let start = self.base + self.plan.node_count() - build.node_count();
        let mut stats = self.stats.borrow_mut();
        for (i, s) in sub.iter().enumerate() {
            let slot = &mut stats[start + i];
            slot.opens += s.opens;
            slot.batches += s.batches;
            slot.rows += s.rows;
            slot.elapsed += s.elapsed;
            slot.mem_peak = slot.mem_peak.max(s.mem_peak);
        }
        Ok(batches)
    }

    /// The build side as the `ConstScan` pipelined and
    /// partial-aggregation workers get in its place: its batches
    /// concatenated once, shared by every worker plan through the
    /// columns' `Arc`s.
    fn broadcast_build(&self, ctx: &ExecCtx<'_>, build: &PhysExpr) -> Result<PhysExpr> {
        let cols = build.out_cols();
        let (columns, len) = concat_batches(&self.run_build(ctx, build)?, cols.len());
        Ok(PhysExpr::ConstScan { cols, columns, len })
    }

    /// Folds each task's pipeline stats into the aligned slot prefix,
    /// first grouping tasks by the pool worker that ran them — so
    /// `workers=` reports *distinct* scheduler workers, not task count,
    /// and `max/worker=` reflects the rows one worker actually
    /// produced across all its tasks. Worker plans share the subtree's
    /// pre-order for their first `align` nodes because the build
    /// subtree (whose replacement is the trailing `ConstScan`) sorts
    /// last in pre-order.
    fn absorb_workers(&self, offset: usize, align: usize, tagged: &[(usize, Vec<OpStats>)]) {
        let mut by_worker: BTreeMap<usize, Vec<OpStats>> = BTreeMap::new();
        for (w, tstats) in tagged {
            let merged = by_worker
                .entry(*w)
                .or_insert_with(|| vec![OpStats::default(); align]);
            for i in 0..align.min(tstats.len()) {
                merged[i].add_task(&tstats[i]);
            }
        }
        let mut stats = self.stats.borrow_mut();
        for merged in by_worker.values() {
            for i in 0..align {
                stats[self.base + offset + i].absorb_worker(&merged[i]);
            }
        }
    }

    /// Distinct pool workers and the max row count any one of them
    /// produced, from `(worker, rows)` pairs.
    fn worker_spread(per_task: impl Iterator<Item = (usize, u64)>) -> (usize, u64) {
        let mut rows_by_worker: BTreeMap<usize, u64> = BTreeMap::new();
        for (w, rows) in per_task {
            *rows_by_worker.entry(w).or_insert(0) += rows;
        }
        let max = rows_by_worker.values().copied().max().unwrap_or(0);
        (rows_by_worker.len(), max)
    }

    /// Synthesizes the stats of a node the workers replaced (the join in
    /// repartition mode, the aggregate in partial-agg mode) so its slot
    /// matches what a serial run would report.
    fn synthesize_root(&self, rows: usize, elapsed: std::time::Duration, workers: usize, max: u64) {
        let mut stats = self.stats.borrow_mut();
        let slot = &mut stats[self.base];
        slot.opens += 1;
        slot.rows += rows as u64;
        slot.batches += (rows as u64).div_ceil(self.batch_size as u64);
        slot.elapsed += elapsed;
        slot.workers += workers as u64;
        slot.worker_rows_max = slot.worker_rows_max.max(max);
    }

    fn compute(&mut self, ctx: &ExecCtx<'_>) -> Result<()> {
        ctx.gov.check_cancelled("Exchange")?;
        let workers = ctx.parallelism.min(MAX_WORKERS);
        if workers <= 1 || !self.invariant {
            return self.run_serial(ctx);
        }
        match &self.plan {
            PhysExpr::HashAggregate {
                kind,
                input,
                group_cols,
                aggs,
            } if splittable(input) => {
                let (kind, input) = (*kind, (**input).clone());
                let (group_cols, aggs) = (group_cols.clone(), aggs.clone());
                self.run_partial_agg(ctx, workers, kind, &input, &group_cols, &aggs)
            }
            p @ PhysExpr::HashJoin { .. } if splittable(p) => self.run_repartition(ctx, workers),
            p if splittable(p) => self.run_pipelined(ctx, workers),
            _ => self.run_serial(ctx),
        }
    }

    /// Pipelined mode: each worker runs a full clone of the subtree over
    /// its morsels (build side broadcast as a `ConstScan`); outputs are
    /// gathered worker-major.
    fn run_pipelined(&mut self, ctx: &ExecCtx<'_>, workers: usize) -> Result<()> {
        let build = match build_side(&self.plan) {
            Some(b) => Some(self.broadcast_build(ctx, b)?),
            None => None,
        };
        let align = self.plan.node_count()
            - build_side(&self.plan).map_or(0, super::physical::PhysExpr::node_count);
        let ranges = worker_ranges(driving_len(&self.plan, ctx.catalog), workers);
        let plans: Vec<PhysExpr> = ranges
            .iter()
            .map(|r| substitute(&self.plan, r, build.as_ref()))
            .collect::<Result<_>>()?;
        let opts = self.pipe_options();
        let gov = ctx.gov.clone();
        let results = scatter(ctx, plans, move |plan, catalog: &Catalog| {
            let mut pipe = Pipeline::with_options(&plan, opts)?;
            pipe.set_governor(gov.clone());
            let batches = run_to_columns(&mut pipe, catalog, &Bindings::new())?;
            Ok((batches, pipe.stats()))
        })?;
        let tagged: Vec<(usize, Vec<OpStats>)> =
            results.iter().map(|(w, (_, s))| (*w, s.clone())).collect();
        self.absorb_workers(0, align, &tagged);
        for (_, (batches, _)) in results {
            self.gather(batches, "pipelined gather")?;
        }
        Ok(())
    }

    /// Repartition mode (subtree root is exactly a hash join): the
    /// build side is computed and indexed once; each worker runs its
    /// morsel-split probe chain and joins every batch against that one
    /// shared build with [`JoinProbe::probe`] — the routine the serial
    /// join calls, so NULL keys, the residual and all four join kinds
    /// mean what they mean there.
    fn run_repartition(&mut self, ctx: &ExecCtx<'_>, workers: usize) -> Result<()> {
        let PhysExpr::HashJoin {
            kind,
            left,
            right,
            left_keys,
            right_keys,
            residual,
        } = &self.plan
        else {
            return self.run_serial(ctx);
        };
        let t = Instant::now();
        let lout = left.out_cols();
        let rout = right.out_cols();
        let key_pos = |keys: &[ColId], layout: &[ColId]| -> Result<Vec<usize>> {
            keys.iter().map(|c| pos_of(layout, *c)).collect()
        };
        let left_pos = key_pos(left_keys, &lout)?;
        let right_pos = key_pos(right_keys, &rout)?;
        let build = Arc::new(JoinBuild::new(
            &self.run_build(ctx, right)?,
            rout.len(),
            &right_pos,
        ));
        let mut combined = lout;
        combined.extend(rout);
        let probe = JoinProbe::new(*kind, left_pos, right_pos, residual.clone(), combined);

        let chain_plan = (**left).clone();
        let chain_count = chain_plan.node_count();
        let ranges = worker_ranges(driving_len(&chain_plan, ctx.catalog), workers);
        let plans: Vec<PhysExpr> = ranges
            .iter()
            .map(|r| substitute(&chain_plan, r, None))
            .collect::<Result<_>>()?;
        let opts = self.pipe_options();
        let gov = ctx.gov.clone();
        let results = scatter(ctx, plans, move |plan, catalog: &Catalog| {
            let mut pipe = Pipeline::with_options(&plan, opts)?;
            pipe.set_governor(gov.clone());
            let binds = Bindings::new();
            let mut out: ColumnBatches = Vec::new();
            // The join node's own kernel / bridge counts, as the serial
            // operator would have noted them.
            let mut joined = OpStats::default();
            pipe.execute_each(catalog, &binds, |b| {
                let windows = probe.probe(&build, &b.columns, b.len, &binds, &mut joined)?;
                joined.rows += windows.iter().map(|(_, n)| *n as u64).sum::<u64>();
                out.extend(windows);
                Ok(())
            })?;
            Ok((out, pipe.stats(), joined))
        })?;
        let tagged: Vec<(usize, Vec<OpStats>)> = results
            .iter()
            .map(|(w, (_, s, _))| (*w, s.clone()))
            .collect();
        // Probe chain occupies the slots right after the join node.
        self.absorb_workers(1, chain_count, &tagged);
        let (spread, max) =
            ExchangeOp::worker_spread(results.iter().map(|(w, (_, _, joined))| (*w, joined.rows)));
        let mut total = OpStats::default();
        for (_, (batches, _, joined)) in results {
            total.add_task(&joined);
            self.gather(batches, "repartition gather")?;
        }
        self.synthesize_root(total.rows as usize, t.elapsed(), spread, max);
        let mut stats = self.stats.borrow_mut();
        stats[self.base].kernels += total.kernels;
        stats[self.base].bridged += total.bridged;
        Ok(())
    }

    /// Partial-aggregation mode: workers feed their morsels into
    /// thread-local [`GroupedAggState`]s; states merge in worker order
    /// and finish once (preserving scalar-on-empty semantics).
    fn run_partial_agg(
        &mut self,
        ctx: &ExecCtx<'_>,
        workers: usize,
        kind: GroupKind,
        input: &PhysExpr,
        group_cols: &[ColId],
        aggs: &[AggDef],
    ) -> Result<()> {
        let t = Instant::now();
        let build = match build_side(input) {
            Some(b) => {
                // run_build indexes trailing slots relative to the whole
                // subtree (aggregate + input), which is where the build
                // nodes sit in pre-order.
                Some(self.broadcast_build(ctx, b)?)
            }
            None => None,
        };
        let in_cols = input.out_cols();
        let group_pos: Vec<usize> = group_cols
            .iter()
            .map(|c| {
                in_cols
                    .iter()
                    .position(|l| l == c)
                    .ok_or_else(|| Error::internal("partial-agg group column missing from layout"))
            })
            .collect::<Result<_>>()?;
        let align =
            input.node_count() - build_side(input).map_or(0, super::physical::PhysExpr::node_count);
        let ranges = worker_ranges(driving_len(input, ctx.catalog), workers);
        let plans: Vec<PhysExpr> = ranges
            .iter()
            .map(|r| substitute(input, r, build.as_ref()))
            .collect::<Result<_>>()?;
        let opts = self.pipe_options();
        let owned_aggs: Vec<AggDef> = aggs.to_vec();
        let gov = ctx.gov.clone();
        let results = scatter(ctx, plans, move |plan, catalog: &Catalog| {
            let mut pipe = Pipeline::with_options(&plan, opts)?;
            pipe.set_governor(gov.clone());
            let binds = Bindings::new();
            let pos = PosMap::new(&in_cols);
            let input = AggInput {
                group_pos: &group_pos,
                aggs: &owned_aggs,
                cols: &in_cols,
                pos: &pos,
            };
            let mut state = GroupedAggState::new(&owned_aggs);
            // Each task's local state charges the shared pool; the
            // merged total is what a serial aggregate would hold.
            state.set_reservation(gov.reservation("PartialAgg"));
            // The aggregate node's own kernel / bridge counts, as the
            // serial operator would have noted them.
            let mut fed = OpStats::default();
            pipe.execute_each(catalog, &binds, |b| {
                let unfed = input.feed(Some(&mut state), &b, &binds, false)?;
                if let Some(err) = unfed.refusal {
                    // Worker-local group state is a hard-fail site: it
                    // cannot spill, so a refusal names the knob.
                    return Err(err.with_hint(MEM_HINT));
                }
                if unfed.vectorized {
                    fed.kernels += 1;
                } else {
                    fed.bridged += 1;
                }
                Ok(())
            })?;
            Ok((state, pipe.stats(), fed))
        })?;
        let tagged: Vec<(usize, Vec<OpStats>)> = results
            .iter()
            .map(|(w, (_, s, _))| (*w, s.clone()))
            .collect();
        // The input subtree sits right after the aggregate node.
        self.absorb_workers(1, align, &tagged);
        let (spread, max) = ExchangeOp::worker_spread(
            results
                .iter()
                .map(|(w, (state, _, _))| (*w, state.group_count() as u64)),
        );
        let mut merged: Option<GroupedAggState> = None;
        let (mut kernels, mut bridged) = (0, 0);
        for (_, (state, _, fed)) in results {
            kernels += fed.kernels;
            bridged += fed.bridged;
            match &mut merged {
                None => merged = Some(state),
                Some(m) => m.merge(state).map_err(|e| e.with_hint(MEM_HINT))?,
            }
        }
        let merged = merged.unwrap_or_else(|| GroupedAggState::new(aggs));
        // The merged state's peak covers every group the workers found:
        // merging re-charges vacant groups into the surviving state.
        let state_peak = merged.mem_peak();
        let rows = merged.finish(kind);
        self.synthesize_root(rows.len(), t.elapsed(), spread, max);
        {
            let mut stats = self.stats.borrow_mut();
            let slot = &mut stats[self.base];
            slot.mem_peak = slot.mem_peak.max(state_peak);
            slot.kernels += kernels;
            slot.bridged += bridged;
        }
        // The finished groups are the aggregate's only rows: one
        // transposition at the boundary.
        let width = self.out_cols.len();
        self.gather(
            vec![(rows_to_columns(&rows, width), rows.len())],
            "partial-agg merge",
        )
    }
}

impl Operator for ExchangeOp {
    fn open(&mut self, ctx: &ExecCtx<'_>) -> Result<()> {
        self.pending.clear();
        self.done = false;
        self.mem = ctx.gov.reservation("Exchange");
        Ok(())
    }

    fn next_batch(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<Batch>> {
        if !self.done {
            self.compute(ctx)?;
            self.done = true;
        }
        // Worker batches pass through as they are; only a gathered
        // batch over the batch size (a merged aggregate's result) is cut.
        let Some((columns, len)) = self.pending.front_mut() else {
            return Ok(None);
        };
        let take = (*len).min(self.batch_size);
        let head = columns.iter().map(|c| c.slice(0, take)).collect();
        if take == *len {
            self.pending.pop_front();
        } else {
            for c in columns.iter_mut() {
                *c = c.slice(take, *len - take);
            }
            *len -= take;
        }
        Ok(Some(Batch::from_columns(self.out_cols.clone(), head, take)))
    }

    fn mem_peak(&self) -> u64 {
        self.mem.peak()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orthopt_common::{DataType, Row, TableId, Value};
    use orthopt_ir::{CmpOp, JoinKind, ScalarExpr};
    use orthopt_storage::{ColumnDef, TableDef};

    fn catalog(rows: i64) -> Arc<Catalog> {
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
            .insert_all((0..rows).map(|i| vec![Value::Int(i), Value::Int(i % 5)]))
            .unwrap();
        Arc::new(c)
    }

    fn scan() -> PhysExpr {
        PhysExpr::TableScan {
            table: TableId(0),
            positions: vec![0, 1],
            cols: vec![ColId(1), ColId(2)],
        }
    }

    fn run_at(plan: &PhysExpr, catalog: &Arc<Catalog>, n: usize) -> Vec<Row> {
        let mut p = Pipeline::compile(plan).unwrap();
        p.set_parallelism(n);
        p.set_shared_catalog(Arc::clone(catalog));
        p.execute(catalog, &Bindings::new()).unwrap().rows
    }

    #[test]
    fn morsel_schedule_covers_every_row_once() {
        for (len, workers) in [(0, 4), (1, 4), (7, 2), (1024, 4), (4097, 3)] {
            let ranges = worker_ranges(len, workers);
            assert_eq!(ranges.len(), workers);
            let mut seen = vec![false; len];
            for r in ranges.iter().flatten() {
                for (i, s) in seen.iter_mut().enumerate().take(r.1).skip(r.0) {
                    assert!(!*s, "row {i} scheduled twice");
                    *s = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "unscheduled rows at len {len}");
        }
    }

    #[test]
    fn eligibility_grammar() {
        let filter = PhysExpr::Filter {
            input: Box::new(scan()),
            predicate: ScalarExpr::eq(ScalarExpr::col(ColId(2)), ScalarExpr::lit(1i64)),
        };
        assert!(exchange_eligible(&filter));
        let join = PhysExpr::HashJoin {
            kind: JoinKind::Inner,
            left: Box::new(scan()),
            right: Box::new(scan()),
            left_keys: vec![ColId(2)],
            right_keys: vec![ColId(2)],
            residual: ScalarExpr::lit(true),
        };
        assert!(exchange_eligible(&join));
        // Two joins on the driving path are out of grammar.
        let nested = PhysExpr::HashJoin {
            kind: JoinKind::Inner,
            left: Box::new(join.clone()),
            right: Box::new(scan()),
            left_keys: vec![ColId(2)],
            right_keys: vec![ColId(2)],
            residual: ScalarExpr::lit(true),
        };
        assert!(!exchange_eligible(&nested));
        // ...but a join below the *build* side is fine.
        let build_nested = PhysExpr::HashJoin {
            kind: JoinKind::Inner,
            left: Box::new(scan()),
            right: Box::new(join),
            left_keys: vec![ColId(2)],
            right_keys: vec![ColId(2)],
            residual: ScalarExpr::lit(true),
        };
        assert!(exchange_eligible(&build_nested));
    }

    #[test]
    fn parallel_scan_matches_serial_and_is_deterministic() {
        let c = catalog(1025);
        let plan = PhysExpr::Exchange {
            input: Box::new(scan()),
        };
        let serial = run_at(&plan, &c, 1);
        assert_eq!(serial.len(), 1025);
        for n in [2, 3, 4] {
            let par = run_at(&plan, &c, n);
            // Gathering is worker-major over a static schedule, so even
            // the order is reproducible; the multiset trivially matches.
            assert_eq!(
                par,
                run_at(&plan, &c, n),
                "parallelism {n} not deterministic"
            );
            let mut a = serial.clone();
            let mut b = par;
            a.sort_by(orthopt_common::row::cmp_rows);
            b.sort_by(orthopt_common::row::cmp_rows);
            assert_eq!(a, b, "parallelism {n} changed the result");
        }
    }

    /// Every join kind, with a residual, through the repartitioned
    /// probe: the workers share one build and call the serial join's
    /// probe routine, so the bag is the serial one and the join's slot
    /// reports their kernel calls.
    #[test]
    fn repartition_join_matches_serial() {
        let c = catalog(123);
        for kind in [
            JoinKind::Inner,
            JoinKind::LeftOuter,
            JoinKind::LeftSemi,
            JoinKind::LeftAnti,
        ] {
            let join = PhysExpr::HashJoin {
                kind,
                left: Box::new(scan()),
                right: Box::new(PhysExpr::TableScan {
                    table: TableId(0),
                    positions: vec![0, 1],
                    cols: vec![ColId(3), ColId(4)],
                }),
                left_keys: vec![ColId(2)],
                right_keys: vec![ColId(4)],
                // Keeps some pairs of every key, and leaves the probe
                // rows with a > 100 unmatched.
                residual: ScalarExpr::cmp(
                    CmpOp::Lt,
                    ScalarExpr::col(ColId(1)),
                    ScalarExpr::col(ColId(3)),
                ),
            };
            let plan = PhysExpr::Exchange {
                input: Box::new(join),
            };
            let mut serial = run_at(&plan, &c, 1);
            let mut p = Pipeline::compile(&plan).unwrap();
            p.set_parallelism(4);
            p.set_shared_catalog(Arc::clone(&c));
            let mut par = p.execute(&c, &Bindings::new()).unwrap().rows;
            assert!(!serial.is_empty(), "{kind:?}: vacuous");
            serial.sort_by(orthopt_common::row::cmp_rows);
            par.sort_by(orthopt_common::row::cmp_rows);
            assert_eq!(serial, par, "{kind:?}");
            // Slot 0 is the exchange, slot 1 the join it replaced.
            let join_stats = p.stats()[1];
            assert!(join_stats.kernels > 0, "{kind:?}: {join_stats:?}");
            assert_eq!(join_stats.bridged, 0, "{kind:?}: {join_stats:?}");
            assert_eq!(join_stats.rows, par.len() as u64, "{kind:?}");
        }
    }

    #[test]
    fn partial_aggregation_matches_serial() {
        use orthopt_ir::{AggFunc, ColumnMeta};
        let c = catalog(1024);
        let agg = PhysExpr::HashAggregate {
            kind: GroupKind::Vector,
            input: Box::new(scan()),
            group_cols: vec![ColId(2)],
            aggs: vec![
                AggDef::new(
                    ColumnMeta::new(ColId(10), "n", DataType::Int, false),
                    AggFunc::CountStar,
                    None,
                ),
                AggDef::new(
                    ColumnMeta::new(ColId(11), "s", DataType::Int, true),
                    AggFunc::Sum,
                    Some(ScalarExpr::col(ColId(1))),
                ),
            ],
        };
        let plan = PhysExpr::Exchange {
            input: Box::new(agg),
        };
        let mut serial = run_at(&plan, &c, 1);
        let mut par = run_at(&plan, &c, 4);
        serial.sort_by(orthopt_common::row::cmp_rows);
        par.sort_by(orthopt_common::row::cmp_rows);
        assert_eq!(serial, par);
        assert_eq!(serial.len(), 5);
    }

    #[test]
    fn scalar_aggregate_on_empty_table_stays_scalar() {
        use orthopt_ir::{AggFunc, ColumnMeta};
        let c = catalog(0);
        let agg = PhysExpr::HashAggregate {
            kind: GroupKind::Scalar,
            input: Box::new(scan()),
            group_cols: vec![],
            aggs: vec![AggDef::new(
                ColumnMeta::new(ColId(10), "n", DataType::Int, false),
                AggFunc::CountStar,
                None,
            )],
        };
        let plan = PhysExpr::Exchange {
            input: Box::new(agg),
        };
        assert_eq!(run_at(&plan, &c, 4), vec![vec![Value::Int(0)]]);
    }

    #[test]
    fn stats_slots_cover_the_subtree() {
        let c = catalog(100);
        let plan = PhysExpr::Exchange {
            input: Box::new(PhysExpr::Filter {
                input: Box::new(scan()),
                predicate: ScalarExpr::eq(ScalarExpr::col(ColId(2)), ScalarExpr::lit(1i64)),
            }),
        };
        let mut p = Pipeline::compile(&plan).unwrap();
        assert_eq!(p.node_count(), 3); // exchange + filter + scan
        p.set_parallelism(4);
        p.set_shared_catalog(Arc::clone(&c));
        p.execute(&c, &Bindings::new()).unwrap();
        let stats = p.stats();
        assert_eq!(stats[2].rows, 100, "scan rows summed across workers");
        assert_eq!(stats[1].rows, 20, "filter rows summed across workers");
        assert!(stats[2].workers > 0, "worker counters merged");
    }
}
