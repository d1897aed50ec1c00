//! Sort: a stable sort of column batches on typed key lanes, with an
//! external-merge fallback under memory pressure.
//!
//! The operator buffers the batches it is handed as columns, sorts a
//! *permutation* of their lanes by comparing the key columns in place
//! ([`Column::cmp_lanes`]: typed storage plus validity, NULL first,
//! floats by `f64::total_cmp`, `Value::total_cmp` only for `Val` lanes)
//! and emits `gather`ed windows of that permutation — no row is built.
//! When the governor refuses a buffer charge, what is buffered is sorted
//! the same way and written out as a run; the runs and the resident
//! tail are then k-way merged block by block on the same typed keys.

use std::cmp::Ordering;
use std::rc::Rc;

use orthopt_common::column::Column;
use orthopt_common::{ColId, Error, MemoryReservation, Result};

use crate::pipeline::{
    concat_batches, Batch, BoxOp, ColumnBatches, ExecCtx, Operator, StatsHandle,
    DEFAULT_BATCH_SIZE, MEM_OR_SPILL_HINT,
};
use crate::spill::{SpillFile, SpillReader};

/// Orders lane `i` of `a` against lane `j` of `b` under a sort
/// specification (`(position, desc)` pairs).
fn cmp_keys(a: &[Column], i: usize, b: &[Column], j: usize, by: &[(usize, bool)]) -> Ordering {
    for &(pos, desc) in by {
        let o = a[pos].cmp_lanes(i, &b[pos], j);
        if o != Ordering::Equal {
            return if desc { o.reverse() } else { o };
        }
    }
    Ordering::Equal
}

/// A sorted, memory-resident run: dense columns plus the permutation
/// that orders their lanes, handed out in `gather`ed windows.
struct SortedRun {
    columns: Vec<Column>,
    perm: Vec<usize>,
    cursor: usize,
}

impl SortedRun {
    /// Concatenates `batches` and stable-sorts their lanes: equal keys
    /// keep arrival order because the lane number breaks ties, which
    /// also makes the order total, so an unstable sort suffices. Each
    /// lane travels with the leading key's [`Column::sort_prefixes`]
    /// word, so most comparisons are settled without touching a column.
    fn sort(batches: ColumnBatches, width: usize, by: &[(usize, bool)]) -> SortedRun {
        let (columns, len) = concat_batches(&batches, width);
        let prefixes = by
            .first()
            .and_then(|&(pos, desc)| {
                let mut p = columns[pos].sort_prefixes()?;
                if desc {
                    p.iter_mut().for_each(|x| *x = !*x);
                }
                Some(p)
            })
            // No usable prefix: every comparison is a tie on it.
            .unwrap_or_else(|| vec![0; len]);
        let mut keyed: Vec<(u64, usize)> = prefixes.into_iter().zip(0..len).collect();
        keyed.sort_unstable_by(|&(p, a), &(q, b)| {
            p.cmp(&q)
                .then_with(|| cmp_keys(&columns, a, &columns, b, by))
                .then(a.cmp(&b))
        });
        SortedRun {
            columns,
            perm: keyed.into_iter().map(|(_, lane)| lane).collect(),
            cursor: 0,
        }
    }

    /// The next up-to-`n` lanes in sorted order, or `None` at the end.
    fn next_window(&mut self, n: usize) -> Option<(Vec<Column>, usize)> {
        let end = (self.cursor + n).min(self.perm.len());
        if self.cursor == end {
            return None;
        }
        let idx = &self.perm[self.cursor..end];
        self.cursor = end;
        Some((
            self.columns.iter().map(|c| c.gather(idx)).collect(),
            idx.len(),
        ))
    }
}

/// Where a merge cursor's next block comes from.
enum RunSource {
    /// A spilled run, streamed block by block.
    Spilled(SpillReader),
    /// The still-resident tail, windowed like a spilled run's blocks.
    Resident(SortedRun),
    Done,
}

/// One run in the k-way merge and the block its head lane is in.
struct RunCursor {
    source: RunSource,
    block: Vec<Column>,
    len: usize,
    pos: usize,
    /// Offset of `block` within the output batch being assembled, once
    /// a lane of it has been picked.
    base: Option<usize>,
}

impl RunCursor {
    fn new(source: RunSource) -> RunCursor {
        RunCursor {
            source,
            block: Vec::new(),
            len: 0,
            pos: 0,
            base: None,
        }
    }

    /// Ensures the cursor stands on the run's next lane (`pos == len`
    /// only at end of run).
    fn refill(&mut self) -> Result<()> {
        while self.pos == self.len {
            let next = match &mut self.source {
                RunSource::Spilled(r) => r.next_block_columns()?,
                RunSource::Resident(run) => run.next_window(DEFAULT_BATCH_SIZE),
                RunSource::Done => return Ok(()),
            };
            match next {
                Some((block, len)) => (self.block, self.len) = (block, len),
                None => {
                    self.source = RunSource::Done;
                    (self.block, self.len) = (Vec::new(), 0);
                }
            }
            self.pos = 0;
            self.base = None;
        }
        Ok(())
    }
}

pub(crate) struct SortOp {
    input: BoxOp,
    by_pos: Vec<(usize, bool)>,
    cols: Rc<[ColId]>,
    /// Input buffered since the last run was cut.
    buffered: ColumnBatches,
    input_done: bool,
    /// The sorted result when nothing spilled.
    sorted: Option<SortedRun>,
    batch_size: usize,
    mem: MemoryReservation,
    /// Degrade to an external merge sort on a refused reservation.
    allow_spill: bool,
    /// Spilled sorted runs, in creation order. The files must outlive
    /// `merge` (its readers reopen them by path); cleared when the
    /// merge completes.
    runs: Vec<SpillFile>,
    /// K-way merge cursors in run creation order; ties between heads
    /// resolve to the earliest run, which reproduces exactly the stable
    /// sort of the concatenated input.
    merge: Option<Vec<RunCursor>>,
    stats: StatsHandle,
}

impl SortOp {
    pub(crate) fn new(
        input: BoxOp,
        by_pos: Vec<(usize, bool)>,
        cols: Rc<[ColId]>,
        batch_size: usize,
        allow_spill: bool,
        stats: StatsHandle,
    ) -> SortOp {
        SortOp {
            input,
            by_pos,
            cols,
            buffered: Vec::new(),
            input_done: false,
            sorted: None,
            batch_size,
            mem: MemoryReservation::detached("Sort"),
            allow_spill,
            runs: Vec::new(),
            merge: None,
            stats,
        }
    }

    /// Sorts `batches` and writes them out as one run.
    fn spill_run(&mut self, ctx: &ExecCtx<'_>, batches: ColumnBatches) -> Result<()> {
        let mut run = SortedRun::sort(batches, self.cols.len(), &self.by_pos);
        let mut f = ctx.spill.create("sort-run")?;
        while let Some((columns, n)) = run.next_window(DEFAULT_BATCH_SIZE) {
            f.append_columns(&columns, n)?;
            ctx.gov.check_cancelled("Sort")?;
        }
        self.runs.push(f);
        Ok(())
    }

    /// Pulls the whole input, cutting a sorted run whenever the
    /// governor refuses a buffer charge.
    fn drain_input(&mut self, ctx: &ExecCtx<'_>) -> Result<()> {
        while let Some(b) = self.input.next_batch(ctx)? {
            b.check_width(self.cols.len())?;
            self.stats.note_kernel();
            match crate::faults::hit("sort.buffer").and_then(|()| self.mem.grow(b.mem_bytes())) {
                Ok(()) => {}
                Err(e) => {
                    let refused = matches!(e, Error::ResourceExhausted { .. });
                    if !(refused && self.allow_spill) {
                        return Err(e.with_hint(MEM_OR_SPILL_HINT));
                    }
                    // Write everything buffered so far as a sorted run
                    // and release its reservation (keeping the peak),
                    // then retry the charge for this batch.
                    let buffered = std::mem::take(&mut self.buffered);
                    self.spill_run(ctx, buffered)?;
                    self.mem.reset();
                    if let Err(e2) = self.mem.grow(b.mem_bytes()) {
                        if !matches!(e2, Error::ResourceExhausted { .. }) {
                            return Err(e2);
                        }
                        // The batch alone exceeds the budget: it becomes
                        // its own run without ever being resident past
                        // this point.
                        self.spill_run(ctx, vec![b.into_columns()])?;
                        continue;
                    }
                }
            }
            self.buffered.push(b.into_columns());
        }
        Ok(())
    }

    /// Pops up to one batch of lanes off the k-way merge.
    fn merge_next(&mut self) -> Result<Option<Batch>> {
        let cursors = self.merge.as_mut().expect("merge state active");
        for c in cursors.iter_mut() {
            c.base = None;
        }
        // The blocks this batch draws from, in first-pick order, and
        // the picked lanes as offsets into their concatenation.
        let mut parts: Vec<Vec<Column>> = Vec::new();
        let mut lanes = 0;
        let mut picks = Vec::with_capacity(self.batch_size);
        while picks.len() < self.batch_size {
            let mut best: Option<usize> = None;
            for i in 0..cursors.len() {
                cursors[i].refill()?;
                let c = &cursors[i];
                if c.pos == c.len {
                    continue;
                }
                // Strict `<` keeps the earlier run on ties.
                let wins = best.is_none_or(|j| {
                    let b = &cursors[j];
                    cmp_keys(&c.block, c.pos, &b.block, b.pos, &self.by_pos) == Ordering::Less
                });
                if wins {
                    best = Some(i);
                }
            }
            let Some(i) = best else { break };
            let c = &mut cursors[i];
            let base = *c.base.get_or_insert_with(|| {
                parts.push(c.block.clone());
                lanes += c.len;
                lanes - c.len
            });
            picks.push(base + c.pos);
            c.pos += 1;
        }
        if picks.is_empty() {
            return Ok(None);
        }
        let columns = (0..self.cols.len())
            .map(|j| {
                let column: Vec<Column> = parts.iter().map(|p| p[j].clone()).collect();
                Column::concat(&column).gather(&picks)
            })
            .collect();
        Ok(Some(Batch::from_columns(
            self.cols.clone(),
            columns,
            picks.len(),
        )))
    }
}

impl Operator for SortOp {
    fn open(&mut self, ctx: &ExecCtx<'_>) -> Result<()> {
        self.buffered.clear();
        self.input_done = false;
        self.sorted = None;
        // Dropping stale runs removes their files (a previous errored
        // execution of this cached pipeline may have left some).
        self.merge = None;
        self.runs.clear();
        self.mem = ctx.gov.reservation("Sort");
        self.input.open(ctx)
    }

    fn next_batch(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<Batch>> {
        if !self.input_done {
            self.drain_input(ctx)?;
            let tail = SortedRun::sort(
                std::mem::take(&mut self.buffered),
                self.cols.len(),
                &self.by_pos,
            );
            self.input_done = true;
            if self.runs.is_empty() {
                self.sorted = Some(tail);
            } else {
                let written: u64 = self.runs.iter().map(SpillFile::bytes).sum();
                let count = self.runs.iter().filter(|f| !f.is_empty()).count() as u64;
                self.stats.note_spill(count, written);
                let mut cursors = Vec::with_capacity(self.runs.len() + 1);
                for f in &mut self.runs {
                    cursors.push(RunCursor::new(RunSource::Spilled(f.reader()?)));
                }
                // The still-resident tail is the youngest run.
                cursors.push(RunCursor::new(RunSource::Resident(tail)));
                self.merge = Some(cursors);
            }
        }
        if self.merge.is_some() {
            ctx.gov.check_cancelled("Sort")?;
            let out = self.merge_next()?;
            if out.is_none() {
                // Merge exhausted: drop the run files now rather than
                // at close, so a long-lived cached pipeline does not
                // pin disk space.
                self.merge = None;
                self.runs.clear();
                self.mem.reset();
            }
            return Ok(out);
        }
        let window = self
            .sorted
            .as_mut()
            .and_then(|run| run.next_window(self.batch_size));
        if window.is_none() {
            self.sorted = None;
        }
        Ok(window.map(|(columns, n)| Batch::from_columns(self.cols.clone(), columns, n)))
    }

    fn mem_peak(&self) -> u64 {
        self.mem.peak()
    }
}
