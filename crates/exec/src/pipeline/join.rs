//! The hash join, resident or grace-partitioned to disk under memory
//! pressure, and the [`JoinProbe`] that writes the four join kinds'
//! semantics once for it and for the index lookup join
//! (`index_join`).

use std::collections::VecDeque;
use std::ops::Range;
use std::rc::Rc;
use std::sync::Arc;

use orthopt_common::column::{cols_bytes, Column};
use orthopt_common::hash::{hash_lanes, keys_valid};
use orthopt_common::{ColId, Result, Value};
use orthopt_ir::{JoinKind, ScalarExpr};
use orthopt_storage::Index;

use super::{concat_batches, op_name, positions, rc_cols, Batch, BoxOp, ColumnBatches, ExecCtx};
use super::{Operator, StatsHandle, DEFAULT_BATCH_SIZE};
use crate::spill::{partition_of, SpillFile, SpillPartitions, MAX_SPILL_DEPTH};
use crate::vector::{eval_truth, LaneError, VecEval};
use crate::{
    bindings::Bindings, eval::PosMap, governed::Governed, physical::PhysExpr, stats::OpStats,
};

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
pub(crate) struct BuildSide<'a> {
    pub(crate) cols: &'a [Column],
    pub(crate) index: &'a Index,
}

/// Candidate pairs a probe evaluates at once, up to the lane boundary:
/// what bounds the pair vector and the gathered residual columns.
const PAIR_WINDOW: usize = 16 * DEFAULT_BATCH_SIZE;

/// What a join does with one probe batch: the four join kinds'
/// semantics, written once. The resident probe and each grace
/// partition pair call [`probe`](JoinProbe::probe) against whichever
/// [`JoinBuild`] they hold; an index lookup join calls
/// [`probe_keys`](JoinProbe::probe_keys) against a table's index.
pub(crate) struct JoinProbe {
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
    pub(crate) fn new(
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
    pub(crate) fn probe_keys(
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

/// Repartitions one spilled file a level deeper; a cancellation blames
/// `op`, the join's governed-buffer label.
fn repartition_file(
    ctx: &ExecCtx<'_>,
    op: &str,
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
        ctx.gov.check_cancelled(op)?;
    }
    parts.finish()
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

pub(crate) struct HashJoinOp {
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
    /// The build's charge; it spills to a grace join when the build is
    /// keyed, not stable, and the pipeline may spill.
    gov: Governed,
    /// Active grace-join state, once the build has overflowed to disk.
    grace: Option<GraceJoin>,
    stats: StatsHandle,
}

impl HashJoinOp {
    /// The operator for hash join `p` over its compiled probe side
    /// `left` and either its compiled build side `right` or, in an
    /// exchange worker, the `build` the exchange made for all workers.
    /// A `build_stable` build is kept across rewinds.
    pub(crate) fn new(
        p: &PhysExpr,
        left: BoxOp,
        right: Option<BoxOp>,
        build: Option<Arc<JoinBuild>>,
        build_stable: bool,
        gov: Governed,
        stats: StatsHandle,
    ) -> Result<HashJoinOp> {
        let PhysExpr::HashJoin {
            kind,
            left: probe_side,
            right: build_side,
            left_keys,
            right_keys,
            residual,
        } = p
        else {
            unreachable!("{} is not a hash join", op_name(p))
        };
        let (lout, rout) = (probe_side.out_cols(), build_side.out_cols());
        Ok(HashJoinOp {
            probe: JoinProbe::new(
                *kind,
                positions(&lout, left_keys)?,
                positions(&rout, right_keys)?,
                residual.clone(),
                [&lout[..], &rout].concat(),
                (0..rout.len()).collect(),
                true,
            ),
            left,
            right,
            out_cols: rc_cols(&p.out_cols()),
            left_width: lout.len(),
            right_width: rout.len(),
            build_stable,
            build_parts: Vec::new(),
            built: build.is_some(),
            build,
            out_queue: VecDeque::new(),
            left_done: false,
            gov,
            grace: None,
            stats,
        })
    }

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
            ctx.gov.check_cancelled(self.gov.label())?;
        }
        self.gov.reset();
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
                self.gov.charge("hashjoin.build", 0)?;
                let parts = g.build.as_mut().expect("build partitions active");
                partition_lanes(parts, &b.columns, b.len, &self.probe.right_pos, 0)?;
                ctx.gov.check_cancelled(self.gov.label())?;
                continue;
            }
            if self.gov.charge("hashjoin.build", b.mem_bytes())? {
                self.build_parts.push(b.into_columns());
            } else {
                self.grace_start(ctx, b)?;
            }
        }
        if let Some(g) = self.grace.as_mut() {
            let parts = g.build.take().expect("build partitions active");
            g.build_files = parts.finish()?;
            self.stats.note_spill(&g.build_files);
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
        ctx.gov.check_cancelled(self.gov.label())
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
        self.stats.note_spill(&pfiles);
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
        let mut refusal = None;
        {
            let mut r = bf.reader()?;
            while let Some((columns, n)) = r.next_block_columns()? {
                let bytes = cols_bytes(&columns, n);
                if let Err(refused) = self.gov.try_grow(bytes) {
                    refusal = Some(refused);
                    break;
                }
                charged += bytes;
                blocks.push((columns, n));
                ctx.gov.check_cancelled(self.gov.label())?;
            }
        }
        if let Some(refused) = refusal {
            // Partition still too big: subdivide both files one level
            // deeper, up to the recursion cap.
            drop(blocks);
            self.gov.release(charged);
            let next = level + 1;
            if next >= MAX_SPILL_DEPTH {
                // Repartition depth exhausted: one partition is still
                // too big for the budget (e.g. one very hot key).
                return Err(refused.fail());
            }
            let (op, rw, lw) = (self.gov.label(), self.right_width, self.left_width);
            let bfiles = repartition_file(
                ctx,
                op,
                &mut bf,
                "hj-build",
                rw,
                &self.probe.right_pos,
                next,
            )?;
            drop(bf);
            let pfiles =
                repartition_file(ctx, op, &mut pf, "hj-probe", lw, &self.probe.left_pos, next)?;
            drop(pf);
            self.stats.note_spill(bfiles.iter().chain(&pfiles));
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
            ctx.gov.check_cancelled(self.gov.label())?;
        }
        drop(r);
        self.gov.release(charged);
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
            // A fresh reservation releases the dropped build's bytes.
            self.gov.open(ctx);
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
}
