//! Morsel-driven parallel execution.
//!
//! An [`Exchange`](PhysExpr::Exchange) node marks a subtree the runtime
//! may execute across the worker pool (sized by
//! [`ExecCtx::parallelism`]). It does one thing: **scatter and gather**.
//! The subtree is cloned once per worker with its driving `TableScan`
//! replaced by a [`MorselScan`](PhysExpr::MorselScan) over the worker's
//! statically assigned row ranges, every clone runs as an ordinary
//! [`Pipeline`], and the workers' output batches are gathered as they
//! are. Two things the subtree may contain are handled so that work is
//! not repeated per worker, both with operators that exist anyway:
//!
//! * **One join build.** A keyed hash join on the driving path has its
//!   build side computed and indexed once ([`JoinBuild`]); every
//!   worker's `HashJoinOp` is compiled holding the same `Arc` and only
//!   probes.
//! * **Partial aggregation is the paper's LocalGroupBy.** A
//!   `HashAggregate { kind: Local }` at the subtree's root runs whole
//!   in every worker — a serial aggregate over that worker's morsels,
//!   spilling like one — and the global `HashAggregate` the optimizer's
//!   `split_local_groupby` put *above* the exchange combines the
//!   partials (§3.3: `G = G_global ∘ LG_local`). The exchange never
//!   merges aggregate state; an exchange directly over a Vector or
//!   Scalar aggregate is out of grammar.
//!
//! Determinism: morsels are assigned round-robin by a static schedule
//! and task outputs are gathered in task (submission) order — repeated
//! parallel runs are byte-identical. Ineligible subtrees (a shape
//! outside the grammar, or one referencing outer parameters or
//! segments) and `parallelism <= 1` run the unmodified subtree
//! serially.
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

use orthopt_common::column::{cols_bytes, Column};
use orthopt_common::{ColId, Error, Result};
use orthopt_ir::GroupKind;
use orthopt_storage::Catalog;

use crate::bindings::Bindings;
use crate::governed::Governed;
use crate::physical::PhysExpr;
use crate::pipeline::{
    free_inputs, positions, Batch, ColumnBatches, ExecCtx, JoinBuild, Operator, Pipeline,
    PipelineOptions,
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
/// splittable plan, or a `Local` `HashAggregate` over one (whose
/// partials a global aggregate above the exchange combines), that does
/// not depend on outer parameters or segments. A Vector or Scalar
/// aggregate is not eligible: nothing above it would combine the
/// workers' groups.
pub fn exchange_eligible(p: &PhysExpr) -> bool {
    let rows = match p {
        PhysExpr::HashAggregate {
            kind: GroupKind::Local,
            input,
            ..
        } => input,
        _ => p,
    };
    splittable(rows) && free_inputs(p).is_invariant()
}

/// Whether `p`'s first input continues the driving path: a per-row
/// wrapper's or an aggregate's only input, a join's probe side.
fn drives_first_input(p: &PhysExpr) -> bool {
    matches!(
        p,
        PhysExpr::Filter { .. }
            | PhysExpr::Compute { .. }
            | PhysExpr::ProjectCols { .. }
            | PhysExpr::HashAggregate { .. }
            | PhysExpr::HashJoin { .. }
    )
}

/// The driving path from `p` down to where it ends (in an eligible
/// subtree, at the `TableScan` the morsel split applies to).
fn driving_path(p: &PhysExpr) -> impl Iterator<Item = &PhysExpr> {
    std::iter::successors(Some(p), |n| {
        drives_first_input(n).then(|| n.children().swap_remove(0))
    })
}

/// Applies `edit` to every node of the driving path, top down.
fn edit_driving_path(p: &mut PhysExpr, edit: &mut impl FnMut(&mut PhysExpr)) {
    edit(p);
    if drives_first_input(p) {
        edit_driving_path(p.children_mut().swap_remove(0), edit);
    }
}

/// Wraps a plan in an `Exchange` if it is eligible, first removing the
/// exchanges a bottom-up planner already placed on the driving path
/// (so the larger wrap subsumes them rather than being blocked by
/// them). Build sides keep theirs — they execute serially under the
/// parent exchange, where a nested exchange degrades to a no-op. Used
/// by the optimizer when the cost model decides parallelism pays.
pub fn wrap_exchange(p: &PhysExpr) -> Option<PhysExpr> {
    let mut inner = p.clone();
    edit_driving_path(&mut inner, &mut |n| {
        while let PhysExpr::Exchange { input } = n {
            *n = (**input).clone();
        }
    });
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

/// One worker's plan: a clone of the subtree whose driving `TableScan`
/// is a `MorselScan` over the worker's ranges.
fn worker_plan(p: &PhysExpr, ranges: &[(usize, usize)]) -> PhysExpr {
    let mut out = p.clone();
    edit_driving_path(&mut out, &mut |n| {
        if let PhysExpr::TableScan {
            table,
            positions,
            cols,
        } = n
        {
            *n = PhysExpr::MorselScan {
                table: *table,
                positions: std::mem::take(positions),
                cols: std::mem::take(cols),
                ranges: ranges.to_vec(),
            };
        }
    });
    out
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

fn batches_bytes(batches: &ColumnBatches) -> u64 {
    batches.iter().map(|(c, n)| cols_bytes(c, *n)).sum()
}

#[allow(dead_code)]
fn thread_safety_asserts() {
    fn send<T: Send>() {}
    fn sync<T: Sync>() {}
    // Worker plans move into threads; the catalog and the one join
    // build are shared by reference; column batches travel back.
    send::<PhysExpr>();
    send::<ColumnBatches>();
    sync::<Catalog>();
    send::<Arc<JoinBuild>>();
}

// ---------------------------------------------------------------------
// The exchange operator.
// ---------------------------------------------------------------------

/// Runtime of an `Exchange` node: runs the subtree serially or as one
/// morsel-split clone per worker, and merges the sub-pipelines'
/// [`OpStats`] into the enclosing pipeline's registry at the subtree's
/// pre-order slots.
pub struct ExchangeOp {
    plan: PhysExpr,
    /// First stats slot of the wrapped subtree (the slot right after the
    /// exchange's own).
    base: usize,
    stats: Rc<RefCell<Vec<OpStats>>>,
    /// The enclosing pipeline's batch size: worker, build and serial
    /// pipelines inherit it, so a per-session setting holds across the
    /// exchange boundary.
    opts: PipelineOptions,
    out_cols: Rc<[ColId]>,
    eligible: bool,
    /// Gathered output, handed to the parent batch by batch.
    pending: VecDeque<(Vec<Column>, usize)>,
    done: bool,
    /// Charges the gather buffer (`pending`) until each batch is handed
    /// on and, while the workers run, the shared join build.
    gov: Governed,
}

impl ExchangeOp {
    pub(crate) fn new(
        plan: PhysExpr,
        base: usize,
        stats: Rc<RefCell<Vec<OpStats>>>,
        opts: PipelineOptions,
        gov: Governed,
    ) -> ExchangeOp {
        let out_cols: Rc<[ColId]> = plan.out_cols().as_slice().into();
        let eligible = exchange_eligible(&plan);
        ExchangeOp {
            plan,
            base,
            stats,
            opts,
            out_cols,
            eligible,
            pending: VecDeque::new(),
            done: false,
            gov,
        }
    }

    /// Moves freshly gathered batches into the shared `pending` buffer,
    /// charging them to the exchange's reservation first. Worker plans
    /// are made by plan surgery ([`worker_plan`]), so a surgery bug
    /// would otherwise corrupt the merged stream silently: like
    /// [`Batch::check_width`] the layout check runs in release builds
    /// too and reports through `common::error` rather than panicking.
    /// Also a fault site (`exchange.gather`), so injection can exercise
    /// the gather path.
    fn gather(&mut self, batches: ColumnBatches, site: &str) -> Result<()> {
        let width = self.out_cols.len();
        if let Some((columns, _)) = batches.iter().find(|(c, _)| c.len() != width) {
            return Err(Error::internal(format!(
                "exchange {site}: gathered batch has {} columns, layout expects {width}",
                columns.len()
            )));
        }
        self.gov
            .charge("exchange.gather", batches_bytes(&batches))?;
        self.pending
            .extend(batches.into_iter().filter(|(_, len)| *len > 0));
        Ok(())
    }

    /// Adds a serially run sub-pipeline's per-node stats into the
    /// reserved slots from `start` on.
    fn add_stats(&self, start: usize, sub: &[OpStats]) {
        let mut stats = self.stats.borrow_mut();
        for (slot, s) in stats[start..].iter_mut().zip(sub) {
            slot.add_task(s);
        }
    }

    /// Compiles and runs `plan` — the whole subtree, or a join's build
    /// side — serially on this thread, recording its stats from slot
    /// `start` on.
    fn run_sub(&self, ctx: &ExecCtx<'_>, plan: &PhysExpr, start: usize) -> Result<ColumnBatches> {
        let mut pipe = Pipeline::with_options(plan, self.opts)?;
        pipe.set_governor(ctx.gov.clone());
        // What fans out is invariant; a subtree falling back to serial
        // may read the enclosing bindings.
        let binds = ctx.binds.borrow().clone();
        let batches = run_to_columns(&mut pipe, ctx.catalog, &binds);
        self.add_stats(start, &pipe.stats());
        batches
    }

    /// Folds each task's pipeline stats into the subtree's slots, first
    /// grouping tasks by the pool worker that ran them — so `workers=`
    /// reports *distinct* scheduler workers, not task count, and
    /// `max/worker=` reflects the rows one worker actually produced
    /// across all its tasks. A worker pipeline's nodes are the
    /// subtree's in pre-order, less the join build side — which sorts
    /// last and which no worker compiles.
    fn absorb_workers(&self, tagged: &[(usize, Vec<OpStats>)]) {
        let mut by_worker: BTreeMap<usize, Vec<OpStats>> = BTreeMap::new();
        for (w, tstats) in tagged {
            let merged = by_worker
                .entry(*w)
                .or_insert_with(|| vec![OpStats::default(); tstats.len()]);
            for (m, t) in merged.iter_mut().zip(tstats) {
                m.add_task(t);
            }
        }
        let mut stats = self.stats.borrow_mut();
        for merged in by_worker.values() {
            for (slot, w) in stats[self.base..].iter_mut().zip(merged) {
                slot.absorb_worker(w);
            }
        }
    }

    fn compute(&mut self, ctx: &ExecCtx<'_>) -> Result<()> {
        ctx.gov.check_cancelled(self.gov.label())?;
        let workers = ctx.parallelism.min(MAX_WORKERS);
        if workers <= 1 || !self.eligible {
            self.run_serial(ctx)
        } else {
            self.run_pipelined(ctx, workers)
        }
    }

    /// Serial fallback: the unmodified subtree as one sub-pipeline.
    fn run_serial(&mut self, ctx: &ExecCtx<'_>) -> Result<()> {
        let batches = self.run_sub(ctx, &self.plan, self.base)?;
        self.gather(batches, "serial fallback")
    }

    /// Each worker runs a clone of the subtree over its morsels; outputs
    /// are gathered in task order. A join on the driving path is built
    /// once, here: the build side runs serially (its nodes are the last
    /// of the subtree in pre-order), is charged to the exchange while
    /// the workers probe it, and every worker's join holds the same
    /// [`JoinBuild`]. The charge cannot spill, so a refusal names the
    /// knob.
    fn run_pipelined(&mut self, ctx: &ExecCtx<'_>, workers: usize) -> Result<()> {
        let mut build = None;
        let mut build_bytes = 0;
        let mut len = 0;
        for node in driving_path(&self.plan) {
            match node {
                PhysExpr::HashJoin {
                    right, right_keys, ..
                } => {
                    let start = self.base + self.plan.node_count() - right.node_count();
                    let parts = self.run_sub(ctx, right, start)?;
                    build_bytes = batches_bytes(&parts);
                    self.gov.charge("hashjoin.build", build_bytes)?;
                    let layout = right.out_cols();
                    let key_pos = positions(&layout, right_keys)?;
                    build = Some(Arc::new(JoinBuild::new(&parts, layout.len(), &key_pos)));
                }
                PhysExpr::TableScan { table, .. } => len = ctx.catalog.table(*table).row_count(),
                _ => {}
            }
        }
        let plans = worker_ranges(len, workers)
            .iter()
            .map(|r| worker_plan(&self.plan, r))
            .collect();
        let opts = self.opts;
        let gov = ctx.gov.clone();
        let results = scatter(ctx, plans, move |plan, catalog: &Catalog| {
            let mut pipe = Pipeline::with_shared_build(&plan, opts, build.clone())?;
            pipe.set_governor(gov.clone());
            let batches = run_to_columns(&mut pipe, catalog, &Bindings::new())?;
            Ok((batches, pipe.stats()))
        });
        self.gov.release(build_bytes);
        let (tagged, outputs): (Vec<_>, Vec<_>) = results?
            .into_iter()
            .map(|(w, (batches, stats))| ((w, stats), batches))
            .unzip();
        self.absorb_workers(&tagged);
        for batches in outputs {
            self.gather(batches, "pipelined gather")?;
        }
        Ok(())
    }
}

impl Operator for ExchangeOp {
    fn open(&mut self, ctx: &ExecCtx<'_>) -> Result<()> {
        self.pending.clear();
        self.done = false;
        self.gov.open(ctx);
        Ok(())
    }

    fn next_batch(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<Batch>> {
        if !self.done {
            self.compute(ctx)?;
            self.done = true;
        }
        // Sub-pipeline batches pass through as they are; a batch handed
        // on is the parent's to charge.
        let Some((columns, len)) = self.pending.pop_front() else {
            return Ok(None);
        };
        self.gov.release(cols_bytes(&columns, len));
        Ok(Some(Batch::from_columns(
            self.out_cols.clone(),
            columns,
            len,
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orthopt_common::row::{bag_eq, cmp_rows};
    use orthopt_common::{DataType, QueryContext, Row, TableId, Value};
    use orthopt_ir::{AggDef, AggFunc, CmpOp, ColumnMeta, JoinKind, ScalarExpr};
    use orthopt_storage::{ColumnDef, TableDef};

    /// `t(a, b)` with `a = i` and `b = b_of(i)`.
    fn catalog_with(rows: i64, b_of: impl Fn(i64) -> Value) -> Arc<Catalog> {
        let mut c = Catalog::new();
        let t = c
            .create_table(TableDef::new(
                "t",
                vec![
                    ColumnDef::new("a", DataType::Int),
                    ColumnDef::nullable("b", DataType::Int),
                ],
                vec![vec![0]],
            ))
            .unwrap();
        c.table_mut(t)
            .insert_all((0..rows).map(|i| vec![Value::Int(i), b_of(i)]))
            .unwrap();
        Arc::new(c)
    }

    fn catalog(rows: i64) -> Arc<Catalog> {
        catalog_with(rows, |i| Value::Int(i % 5))
    }

    /// A scan of `t` producing columns `a` and `b` as ids `first`, `first + 1`.
    fn scan_as(first: u32) -> PhysExpr {
        PhysExpr::TableScan {
            table: TableId(0),
            positions: vec![0, 1],
            cols: vec![ColId(first), ColId(first + 1)],
        }
    }

    fn scan() -> PhysExpr {
        scan_as(1)
    }

    fn pooled(plan: &PhysExpr, catalog: &Arc<Catalog>, n: usize) -> Pipeline {
        let mut p = Pipeline::compile(plan).unwrap();
        p.set_parallelism(n);
        p.set_shared_catalog(Arc::clone(catalog));
        p
    }

    fn run_at(plan: &PhysExpr, catalog: &Arc<Catalog>, n: usize) -> Vec<Row> {
        let mut p = pooled(plan, catalog, n);
        p.execute(catalog, &Bindings::new()).unwrap().rows
    }

    /// `kind` aggregate by `b` of one `func` (over column 10 unless `count(*)`).
    fn aggregate(kind: GroupKind, input: PhysExpr, out: u32, func: AggFunc) -> PhysExpr {
        let arg = (func != AggFunc::CountStar).then(|| ScalarExpr::col(ColId(10)));
        PhysExpr::HashAggregate {
            kind,
            input: Box::new(input),
            group_cols: vec![ColId(2)],
            aggs: vec![AggDef::new(
                ColumnMeta::new(ColId(out), "n", DataType::Int, false),
                func,
                arg,
            )],
        }
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
            right: Box::new(join.clone()),
            left_keys: vec![ColId(2)],
            right_keys: vec![ColId(2)],
            residual: ScalarExpr::lit(true),
        };
        assert!(exchange_eligible(&build_nested));
        // A Local aggregate's partials are combined above the exchange;
        // nothing would combine a Vector or Scalar aggregate's groups.
        for (kind, eligible) in [
            (GroupKind::Local, true),
            (GroupKind::Vector, false),
            (GroupKind::Scalar, false),
        ] {
            for input in [filter.clone(), join.clone()] {
                let agg = aggregate(kind, input, 10, AggFunc::CountStar);
                assert_eq!(exchange_eligible(&agg), eligible, "{kind:?}");
                assert_eq!(wrap_exchange(&agg).is_some(), eligible, "{kind:?}");
            }
        }
        // ...and only at the subtree's root.
        let local = aggregate(GroupKind::Local, scan(), 10, AggFunc::CountStar);
        assert!(!exchange_eligible(&PhysExpr::ProjectCols {
            input: Box::new(local),
            cols: vec![ColId(2)],
        }));
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
            assert!(bag_eq(&serial, &par), "parallelism {n} changed the result");
        }
    }

    /// Every join kind, with NULL keys and a residual, under `Project`
    /// and `Filter` wrappers inside the exchange: the build side runs
    /// once and is charged once however many workers probe it, and the
    /// workers' joins are the serial operator, so the bag is the serial
    /// one and the join's slot reports their kernel calls.
    #[test]
    fn wrapped_join_shares_one_build() {
        // `b` is a key with NULLs; the build side is the whole table,
        // the probe side its first 50 rows.
        let rows = 1000;
        let c = catalog_with(rows, |i| {
            if i % 7 == 3 {
                Value::Null
            } else {
                Value::Int(i)
            }
        });
        let below = |col: u32, n: i64| {
            ScalarExpr::cmp(CmpOp::Lt, ScalarExpr::col(ColId(col)), ScalarExpr::lit(n))
        };
        for kind in [
            JoinKind::Inner,
            JoinKind::LeftOuter,
            JoinKind::LeftSemi,
            JoinKind::LeftAnti,
        ] {
            let join = PhysExpr::HashJoin {
                kind,
                left: Box::new(PhysExpr::Filter {
                    input: Box::new(scan_as(1)),
                    predicate: below(1, 50),
                }),
                right: Box::new(scan_as(3)),
                left_keys: vec![ColId(2)],
                right_keys: vec![ColId(4)],
                // Leaves the probe rows 40..50 unmatched.
                residual: below(3, 40),
            };
            let plan = PhysExpr::Exchange {
                input: Box::new(PhysExpr::ProjectCols {
                    input: Box::new(PhysExpr::Filter {
                        input: Box::new(join),
                        predicate: below(1, 48),
                    }),
                    cols: vec![ColId(1)],
                }),
            };
            // Slots: exchange, project, filter, join, probe filter,
            // probe scan, build scan.
            let (join_slot, build_slot) = (3, 6);
            let mut runs = Vec::new();
            for workers in [1, 2, 4] {
                let mut p = pooled(&plan, &c, workers);
                p.set_governor(QueryContext::new().with_memory_limit(1 << 30));
                let mut got = p.execute(&c, &Bindings::new()).unwrap().rows;
                got.sort_by(cmp_rows);
                let stats = p.stats();
                let ctx = format!("{kind:?} x{workers}");
                assert_eq!(stats[build_slot].opens, 1, "{ctx}: build side re-run");
                assert_eq!(stats[build_slot].rows, rows as u64, "{ctx}");
                assert!(
                    stats[join_slot].kernels > 0,
                    "{ctx}: {:?}",
                    stats[join_slot]
                );
                runs.push((got, p.governor().mem_peak().unwrap()));
            }
            let (serial, serial_peak) = &runs[0];
            assert!(!serial.is_empty() && *serial_peak > 0, "{kind:?}: vacuous");
            for (got, peak) in &runs[1..] {
                assert_eq!(serial, got, "{kind:?}");
                assert!(
                    *peak < 2 * serial_peak,
                    "{kind:?}: peak {peak} B against {serial_peak} B serial — a build per worker?"
                );
            }
        }
    }

    /// The paper's split by hand: a Local aggregate under the exchange,
    /// its partials combined by the global aggregate above it.
    #[test]
    fn local_aggregate_under_exchange_matches_serial() {
        let c = catalog(1024);
        let local = aggregate(GroupKind::Local, scan(), 10, AggFunc::CountStar);
        let exchange = PhysExpr::Exchange {
            input: Box::new(local),
        };
        let plan = aggregate(GroupKind::Vector, exchange, 11, AggFunc::Sum);
        let direct = aggregate(GroupKind::Vector, scan(), 11, AggFunc::CountStar);
        let mut serial = run_at(&direct, &c, 1);
        serial.sort_by(cmp_rows);
        assert_eq!(serial.len(), 5);
        for n in [1, 2, 4] {
            let mut par = run_at(&plan, &c, n);
            par.sort_by(cmp_rows);
            assert_eq!(serial, par, "parallelism {n}");
        }
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
        let mut p = pooled(&plan, &c, 4);
        assert_eq!(p.node_count(), 3); // exchange + filter + scan
        p.execute(&c, &Bindings::new()).unwrap();
        let stats = p.stats();
        assert_eq!(stats[2].rows, 100, "scan rows summed across workers");
        assert_eq!(stats[1].rows, 20, "filter rows summed across workers");
        assert!(stats[2].workers > 0, "worker counters merged");
    }
}
