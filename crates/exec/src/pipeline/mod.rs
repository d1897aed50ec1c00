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
//! cache operator that materializes once and replays on every rewind, and
//! stable hash-join builds are kept across re-opens.
//!
//! One module per operator family, each operator's state private to
//! it: `batch` (the [`Batch`]), `ctx` (the [`ExecCtx`] and per-operator
//! stats handles), `compile` (the compiler and the free-variable
//! analysis), `scan`, `project`, `join`, `index_join`, `apply` (the
//! rebind-and-rewind operators and the cache), `hash_aggregate` and
//! `setops`. Sort and the exchange live in [`crate::sort`] and
//! [`crate::parallel`]. The compiler builds every operator from its
//! plan node and compiled children through the family's constructors.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use orthopt_common::{ColId, QueryContext, Result};
use orthopt_storage::Catalog;

use crate::stats::OpStats;
use crate::{bindings::Bindings, chunk::Chunk, physical::PhysExpr, spill::SpillManager};

mod apply;
mod batch;
mod compile;
mod ctx;
mod hash_aggregate;
mod index_join;
mod join;
mod project;
mod scan;
mod setops;

use batch::rc_cols;
pub use batch::Batch;
pub(crate) use batch::{concat_batches, pos_of, positions, ColumnBatches};
pub(crate) use compile::free_inputs;
use compile::{op_name, Compiler};
use ctx::note_current_op;
pub(crate) use ctx::StatsHandle;
pub use ctx::{current_op, ExecCtx};
pub(crate) use join::JoinBuild;

/// Default maximum number of rows per batch.
pub const DEFAULT_BATCH_SIZE: usize = 1024;

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
}

pub(crate) type BoxOp = Box<dyn Operator>;

/// Compile-time knobs for a [`Pipeline`]. Session-scoped settings that
/// must be baked into the compiled operators live here, so two sessions
/// with different settings can run concurrently in one process.
#[derive(Debug, Clone, Copy)]
pub struct PipelineOptions {
    /// Rows per batch (min 1).
    pub batch_size: usize,
}

impl Default for PipelineOptions {
    fn default() -> PipelineOptions {
        PipelineOptions {
            batch_size: DEFAULT_BATCH_SIZE,
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
        Pipeline::with_options(plan, PipelineOptions { batch_size })
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

/// Wraps an operator to record [`OpStats`] into the pipeline registry.
/// Also the per-operator governance boundary: every `next_batch` polls
/// the cancellation token and the operator's failpoint (one atomic load
/// while no failpoint is armed), and notes the operator in thread-local
/// state so panic handlers can attach an operator path.
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
        if let Ok(Some(b)) = &r {
            s.batches += 1;
            s.rows += b.len() as u64;
        }
        r
    }

    fn close(&mut self) -> OpStats {
        self.op.close();
        self.stats.borrow()[self.id]
    }
}

#[cfg(test)]
mod tests {
    use super::apply::{ApplyOp, SegmentExecOp};
    use super::hash_aggregate::HashAggregateOp;
    use super::setops::ExceptOp;
    use super::*;
    use crate::governed::Governed;
    use crate::sort::SortOp;
    use orthopt_common::column::Column;
    use orthopt_common::{DataType, Error, Row, TableId, Value};
    use orthopt_ir::{AggDef, ApplyKind, GroupKind, ScalarExpr};
    use orthopt_storage::{ColumnDef, TableDef};

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
        let stats = || StatsHandle::new(Rc::new(RefCell::new(vec![OpStats::default()])), 0);
        let honest = || -> BoxOp {
            let plan = PhysExpr::ConstScan {
                cols: layout.to_vec(),
                columns: vec![Column::from_values(vec![Value::Int(1)]); 2],
                len: 1,
            };
            scan::build(&plan, 16, stats())
        };
        let except_plan = PhysExpr::ExceptExec {
            left: Box::new(scan()),
            right: Box::new(scan()),
            right_map: vec![ColId(1), ColId(2)],
        };
        let except = |left: BoxOp, right: BoxOp| -> BoxOp {
            let gov = Governed::failing("Except", stats());
            Box::new(ExceptOp::new(&except_plan, left, right, gov, stats()).unwrap())
        };
        let segment_plan = PhysExpr::SegmentExec {
            input: Box::new(scan()),
            segment_cols: vec![ColId(1)],
            inner: Box::new(scan()),
            out_cols: vec![ColId(1)],
        };
        let segment_gov = Governed::failing("SegmentExec", stats());
        let segment =
            SegmentExecOp::new(&segment_plan, lying(), honest(), 16, segment_gov, stats());
        let mut ops: Vec<(&str, BoxOp)> = vec![
            (
                "Sort",
                Box::new(SortOp::new(
                    lying(),
                    vec![(0, false)],
                    layout.clone(),
                    16,
                    Governed::degrading("Sort", stats()),
                    stats(),
                )),
            ),
            ("Except (left)", except(lying(), honest())),
            ("Except (right)", except(honest(), lying())),
            ("SegmentExec", Box::new(segment.unwrap())),
        ];
        let apply_plan = PhysExpr::ApplyLoop {
            kind: ApplyKind::LeftOuter,
            left: Box::new(scan()),
            right: Box::new(PhysExpr::TableScan {
                table: TableId(0),
                positions: vec![0, 1],
                cols: vec![ColId(3), ColId(4)],
            }),
            params: vec![ColId(2)],
        };
        let apply_gov = Governed::degrading("ApplyLoop", stats());
        let apply = ApplyOp::new(&apply_plan, lying(), honest(), apply_gov, stats());
        let aggregate_plan = PhysExpr::HashAggregate {
            kind: GroupKind::Vector,
            input: Box::new(scan()),
            group_cols: vec![ColId(2)],
            aggs: Vec::new(),
        };
        let aggregate_gov = Governed::degrading("HashAggregate", stats());
        let aggregate =
            HashAggregateOp::new(&aggregate_plan, lying(), 16, aggregate_gov, stats()).unwrap();
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
