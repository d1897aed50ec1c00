//! The index lookup join: an Apply whose inner side is a seek on a
//! stored index, run as one join probe per outer batch against the
//! table's own columns and index.

use std::collections::VecDeque;
use std::rc::Rc;

use orthopt_common::column::Column;
use orthopt_common::hash::keys_valid;
use orthopt_common::{ColId, Result, TableId};
use orthopt_ir::ScalarExpr;

use super::join::{BuildSide, JoinProbe};
use super::scan::{missing_index, probe_values};
use super::{op_name, positions, rc_cols, Batch, BoxOp, ExecCtx, Operator, StatsHandle};
use crate::{eval::PosMap, physical::PhysExpr, stats::OpStats, vector::VecEval};

/// `IndexLookupJoin` (§4): a hash-join probe whose build the table
/// already holds — its stored columns and the hash index on
/// `index_cols` — so nothing is built or charged, as for a scan. Per
/// outer batch the probe expressions become key columns over the outer
/// layout and [`JoinProbe::probe_keys`] joins them: pairs in
/// `PAIR_WINDOW` windows, the fetched columns gathered once per
/// window, one residual kernel over outer ++ fetched columns (so
/// correlation parameters are outer columns), the Apply's kind as the
/// join kind. The residual runs on every candidate pair, as the Apply's
/// inner side would: a Semi/Anti lane does not stop at its first match.
pub(crate) struct IndexJoinOp {
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
    /// The operator for index lookup join `p` over its compiled outer
    /// side `left`.
    pub(crate) fn new(p: &PhysExpr, left: BoxOp, stats: StatsHandle) -> Result<IndexJoinOp> {
        let PhysExpr::IndexLookupJoin {
            kind,
            left: outer,
            table,
            positions: table_positions,
            fetch_cols,
            index_cols,
            probes,
            residual,
            cols,
            ..
        } = p
        else {
            unreachable!("{} is not an index lookup join", op_name(p))
        };
        let outer_cols = outer.out_cols();
        Ok(IndexJoinOp {
            left,
            table: *table,
            positions: table_positions.clone(),
            index_cols: index_cols.clone(),
            probes: probes.clone(),
            outer_pos: PosMap::new(&outer_cols),
            probe: JoinProbe::new(
                kind.to_join_kind(),
                Vec::new(),
                Vec::new(),
                residual.clone(),
                [&outer_cols[..], fetch_cols].concat(),
                positions(fetch_cols, cols)?,
                false,
            ),
            out_cols: rc_cols(&p.out_cols()),
            out_queue: VecDeque::new(),
            stats,
        })
    }

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
