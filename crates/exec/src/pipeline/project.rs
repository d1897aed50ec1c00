//! Streaming per-batch operators: Filter, Compute, Project and
//! RowNumber. Each maps one input batch to at most one output batch.

use std::rc::Rc;

use orthopt_common::column::{Bitmap, ColData, Column, ColumnData};
use orthopt_common::{ColId, Result};
use orthopt_ir::ScalarExpr;

use super::{op_name, positions, rc_cols, Batch, BoxOp, ExecCtx, Operator, StatsHandle};
use crate::vector::{eval_lanes, eval_truth, first_error, VecEval};
use crate::{eval::PosMap, physical::PhysExpr};

/// The operator for a Filter, Compute, Project or RowNumber node `p`
/// over its compiled `input`.
pub(crate) fn build(p: &PhysExpr, input: BoxOp, stats: StatsHandle) -> Result<BoxOp> {
    Ok(match p {
        PhysExpr::Filter {
            input: child,
            predicate,
        } => {
            let in_layout = child.out_cols();
            Box::new(FilterOp {
                cols: rc_cols(&in_layout),
                pos: PosMap::new(&in_layout),
                input,
                predicate: predicate.clone(),
                stats,
            })
        }
        PhysExpr::Compute { input: child, defs } => Box::new(ComputeOp {
            pos: PosMap::new(&child.out_cols()),
            out_cols: rc_cols(&p.out_cols()),
            input,
            defs: defs.clone(),
            stats,
        }),
        PhysExpr::ProjectCols { input: child, cols } => Box::new(ProjectOp {
            positions: positions(&child.out_cols(), cols)?,
            input,
            cols: rc_cols(cols),
            stats,
        }),
        PhysExpr::RowNumber { .. } => Box::new(RowNumberOp {
            input,
            out_cols: rc_cols(&p.out_cols()),
            counter: 0,
            stats,
        }),
        _ => unreachable!("{} is not a projection", op_name(p)),
    })
}

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
