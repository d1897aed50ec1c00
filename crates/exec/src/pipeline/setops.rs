//! Operators over whole inputs or pairs of inputs: Limit, the
//! one-row assertion, Concat and Except.

use std::collections::VecDeque;
use std::rc::Rc;

use orthopt_common::column::Column;
use orthopt_common::hash::{hash_lanes, GroupTable};
use orthopt_common::{ColId, Error, Result};

use super::{op_name, positions, rc_cols, Batch, BoxOp, ExecCtx, Operator, StatsHandle};
use crate::{governed::Governed, physical::PhysExpr};

pub(crate) struct LimitOp {
    input: BoxOp,
    n: usize,
    cols: Rc<[ColId]>,
    /// Lanes buffered so far (at most `n`).
    kept: usize,
    buffered: VecDeque<Batch>,
    done: bool,
    gov: Governed,
}

impl LimitOp {
    /// The operator for limit `p` over its compiled `input`.
    pub(crate) fn new(p: &PhysExpr, input: BoxOp, gov: Governed) -> LimitOp {
        let PhysExpr::Limit { n, .. } = p else {
            unreachable!("{} is not a limit", op_name(p))
        };
        LimitOp {
            input,
            n: *n,
            cols: rc_cols(&p.out_cols()),
            kept: 0,
            buffered: VecDeque::new(),
            done: false,
            gov,
        }
    }
}

impl Operator for LimitOp {
    fn open(&mut self, ctx: &ExecCtx<'_>) -> Result<()> {
        self.buffered.clear();
        self.kept = 0;
        self.done = false;
        self.gov.open(ctx);
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
                let head = Batch::from_columns(
                    self.cols.clone(),
                    b.columns.iter().map(|c| c.slice(0, take)).collect(),
                    take,
                );
                self.gov.charge("limit.buffer", head.mem_bytes())?;
                self.kept += take;
                self.buffered.push_back(head);
            }
            self.done = true;
        }
        let out = self.buffered.pop_front();
        if let Some(b) = &out {
            self.gov.release(b.mem_bytes());
        }
        Ok(out)
    }
}

pub(crate) struct AssertMax1Op {
    input: BoxOp,
    cols: Rc<[ColId]>,
    /// The first non-empty batch: the whole answer when the input has
    /// one row.
    first: Option<Batch>,
    /// Lanes seen across the whole input.
    lanes: usize,
    done: bool,
    gov: Governed,
}

impl AssertMax1Op {
    /// The operator for one-row assertion `p` over its compiled `input`.
    pub(crate) fn new(p: &PhysExpr, input: BoxOp, gov: Governed) -> AssertMax1Op {
        AssertMax1Op {
            input,
            cols: rc_cols(&p.out_cols()),
            first: None,
            lanes: 0,
            done: false,
            gov,
        }
    }
}

impl Operator for AssertMax1Op {
    fn open(&mut self, ctx: &ExecCtx<'_>) -> Result<()> {
        self.first = None;
        self.lanes = 0;
        self.done = false;
        self.gov.open(ctx);
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
                self.gov.charge("max1.buffer", b.mem_bytes())?;
                self.first = Some(b);
            }
        }
        self.done = true;
        if self.lanes > 1 {
            return Err(Error::SubqueryReturnedMoreThanOneRow);
        }
        self.gov.reset();
        Ok(self.first.take())
    }
}

pub(crate) struct ConcatOp {
    left: BoxOp,
    right: BoxOp,
    lpos: Vec<usize>,
    rpos: Vec<usize>,
    cols: Rc<[ColId]>,
    on_right: bool,
    stats: StatsHandle,
}

impl ConcatOp {
    /// The operator for concatenation `p` over its compiled sides.
    pub(crate) fn new(
        p: &PhysExpr,
        left: BoxOp,
        right: BoxOp,
        stats: StatsHandle,
    ) -> Result<ConcatOp> {
        let PhysExpr::Concat {
            left: l,
            right: r,
            cols,
            left_map,
            right_map,
        } = p
        else {
            unreachable!("{} is not a concatenation", op_name(p))
        };
        Ok(ConcatOp {
            left,
            right,
            lpos: positions(&l.out_cols(), left_map)?,
            rpos: positions(&r.out_cols(), right_map)?,
            cols: rc_cols(cols),
            on_right: false,
            stats,
        })
    }

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
pub(crate) struct ExceptOp {
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
    gov: Governed,
    stats: StatsHandle,
}

impl ExceptOp {
    /// The operator for bag difference `p` over its compiled sides.
    pub(crate) fn new(
        p: &PhysExpr,
        left: BoxOp,
        right: BoxOp,
        gov: Governed,
        stats: StatsHandle,
    ) -> Result<ExceptOp> {
        let PhysExpr::ExceptExec {
            left: l,
            right: r,
            right_map,
        } = p
        else {
            unreachable!("{} is not a bag difference", op_name(p))
        };
        let rout = r.out_cols();
        Ok(ExceptOp {
            left,
            right,
            rpos: positions(&rout, right_map)?,
            right_width: rout.len(),
            cols: rc_cols(&l.out_cols()),
            table: GroupTable::new(),
            counts: Vec::new(),
            built: false,
            gov,
            stats,
        })
    }
}

impl Operator for ExceptOp {
    fn open(&mut self, ctx: &ExecCtx<'_>) -> Result<()> {
        self.table = GroupTable::new();
        self.counts.clear();
        self.built = false;
        self.gov.open(ctx);
        self.left.open(ctx)?;
        self.right.open(ctx)
    }

    fn next_batch(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<Batch>> {
        if !self.built {
            while let Some(b) = self.right.next_batch(ctx)? {
                b.check_width(self.right_width)?;
                self.gov.charge("except.build", b.mem_bytes())?;
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
}
