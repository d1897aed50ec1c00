//! The compiler from a [`PhysExpr`] tree to metered operators, and the
//! free-variable analysis that decides which inner subtrees it caches
//! and which join builds it keeps across rewinds.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;
use std::sync::Arc;

use orthopt_common::{ColId, Result};
use orthopt_ir::ScalarExpr;

use super::apply::{ApplyOp, CacheOp, SegmentExecOp};
use super::hash_aggregate::HashAggregateOp;
use super::index_join::IndexJoinOp;
use super::join::{HashJoinOp, JoinBuild};
use super::setops::{AssertMax1Op, ConcatOp, ExceptOp, LimitOp};
use super::{pos_of, project, rc_cols, scan, BoxOp, Metered, PipelineOptions, StatsHandle};
use crate::{governed::Governed, physical::PhysExpr, sort::SortOp, stats::OpStats};

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

/// Short stable operator name used for cancellation blame, failpoint
/// sites (`faults::hit(name)` at every batch boundary), governed-buffer
/// labels, and panic attribution.
pub(super) fn op_name(p: &PhysExpr) -> &'static str {
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

pub(super) struct Compiler {
    /// Batch size (at least 1) every operator of this compilation is
    /// built with.
    pub(super) opts: PipelineOptions,
    pub(super) stats: Rc<RefCell<Vec<OpStats>>>,
    pub(super) next_id: usize,
    pub(super) cached: Vec<usize>,
    /// An exchange worker's join build, for the first `HashJoin`
    /// compiled (see [`Pipeline::with_shared_build`](super::Pipeline::with_shared_build)).
    pub(super) shared_build: Option<Arc<JoinBuild>>,
}

impl Compiler {
    /// Compiles a subtree. `in_param` is true inside a rebind-and-rewind
    /// scope (an `ApplyLoop`/`SegmentExec` inner plan), where invariant
    /// subtrees get a one-time materialization cache.
    pub(super) fn compile(&mut self, p: &PhysExpr, in_param: bool) -> Result<BoxOp> {
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
        let name = op_name(p);
        let sh = StatsHandle::new(self.stats.clone(), id);
        let op: BoxOp = match p {
            PhysExpr::TableScan { .. }
            | PhysExpr::MorselScan { .. }
            | PhysExpr::IndexSeek { .. }
            | PhysExpr::ConstScan { .. }
            | PhysExpr::SegmentScan { .. } => scan::build(p, bs, sh),
            PhysExpr::Filter { input, .. }
            | PhysExpr::Compute { input, .. }
            | PhysExpr::ProjectCols { input, .. }
            | PhysExpr::RowNumber { input, .. } => {
                project::build(p, self.compile(input, in_param)?, sh)?
            }
            PhysExpr::HashJoin {
                left,
                right,
                right_keys,
                ..
            } => {
                let build = self.shared_build.take();
                // Inside a parameterized scope an invariant build side
                // can keep its hash table across rewinds.
                let build_stable = in_param && free_inputs(right).is_invariant();
                let left = self.compile(left, in_param)?;
                let right = match build {
                    Some(_) => None,
                    None => Some(self.compile(right, in_param && !build_stable)?),
                };
                // A stable build is kept across rewinds; grace
                // partitions are consumed when joined, so spilling
                // would break the rewind contract. A keyless build
                // is one partition however often it is split.
                let gov = if !build_stable && !right_keys.is_empty() {
                    Governed::degrading(name, sh.clone())
                } else {
                    Governed::failing(name, sh.clone())
                };
                Box::new(HashJoinOp::new(
                    p,
                    left,
                    right,
                    build,
                    build_stable,
                    gov,
                    sh,
                )?)
            }
            PhysExpr::ApplyLoop { left, right, .. } => {
                let gov = Governed::degrading(name, sh.clone());
                let left = self.compile(left, in_param)?;
                Box::new(ApplyOp::new(p, left, self.compile(right, true)?, gov, sh))
            }
            PhysExpr::IndexLookupJoin { left, .. } => {
                Box::new(IndexJoinOp::new(p, self.compile(left, in_param)?, sh)?)
            }
            PhysExpr::SegmentExec { input, inner, .. } => {
                let gov = Governed::failing(name, sh.clone());
                let input = self.compile(input, in_param)?;
                let inner = self.compile(inner, true)?;
                Box::new(SegmentExecOp::new(p, input, inner, bs, gov, sh)?)
            }
            PhysExpr::HashAggregate { input, .. } => {
                let gov = Governed::degrading(name, sh.clone());
                let input = self.compile(input, in_param)?;
                Box::new(HashAggregateOp::new(p, input, bs, gov, sh)?)
            }
            PhysExpr::Concat { left, right, .. } => {
                let left = self.compile(left, in_param)?;
                Box::new(ConcatOp::new(p, left, self.compile(right, in_param)?, sh)?)
            }
            PhysExpr::ExceptExec { left, right, .. } => {
                let gov = Governed::failing(name, sh.clone());
                let left = self.compile(left, in_param)?;
                let right = self.compile(right, in_param)?;
                Box::new(ExceptOp::new(p, left, right, gov, sh)?)
            }
            PhysExpr::AssertMax1 { input } => {
                let input = self.compile(input, in_param)?;
                Box::new(AssertMax1Op::new(p, input, Governed::failing(name, sh)))
            }
            PhysExpr::Sort { input, by } => {
                let in_layout = input.out_cols();
                let by_pos = by
                    .iter()
                    .map(|(c, desc)| Ok((pos_of(&in_layout, *c)?, *desc)))
                    .collect::<Result<Vec<_>>>()?;
                let gov = Governed::degrading(name, sh.clone());
                let input = self.compile(input, in_param)?;
                Box::new(SortOp::new(input, by_pos, rc_cols(&in_layout), bs, gov, sh))
            }
            PhysExpr::Limit { input, .. } => {
                let input = self.compile(input, in_param)?;
                Box::new(LimitOp::new(p, input, Governed::failing(name, sh)))
            }
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
                    Governed::failing(name, sh),
                ))
            }
        };
        Ok(Box::new(Metered {
            op,
            id,
            name,
            stats: self.stats.clone(),
        }))
    }
}
