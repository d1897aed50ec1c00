//! Leaf operators: table and morsel scans, index seeks, constant rows
//! and the bound segment's scan. A leaf is built from its plan node
//! alone ([`build`]).

use std::rc::Rc;

use orthopt_common::column::Column;
use orthopt_common::{ColId, Error, Result, TableId, Value};
use orthopt_ir::ScalarExpr;
use orthopt_storage::Table;

use super::{op_name, pos_of, rc_cols, Batch, BoxOp, ExecCtx, Operator, StatsHandle};
use crate::vector::{eval_lanes, LaneError, VecEval};
use crate::{eval::PosMap, physical::PhysExpr};

/// The operator for leaf node `p`.
pub(crate) fn build(p: &PhysExpr, batch_size: usize, stats: StatsHandle) -> BoxOp {
    match p {
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
            batch_size,
            stats,
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
            batch_size,
            stats,
        }),
        PhysExpr::ConstScan { cols, columns, len } => Box::new(ConstScanOp {
            cols: rc_cols(cols),
            // Handles on the plan's columns; every batch is a window.
            columns: columns.clone(),
            len: *len,
            cursor: 0,
            batch_size,
        }),
        PhysExpr::SegmentScan { cols } => Box::new(SegmentScanOp {
            cols: cols.clone(),
            out_cols: rc_cols(&p.out_cols()),
            columns: Vec::new(),
            len: 0,
            cursor: 0,
            batch_size,
        }),
        _ => unreachable!("{} is not a leaf", op_name(p)),
    }
}

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
pub(crate) fn probe_values(
    probes: &[ScalarExpr],
    cx: &VecEval<'_>,
) -> (Vec<Column>, Option<LaneError>) {
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
pub(crate) fn missing_index(t: &Table, index_cols: &[usize]) -> Error {
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
