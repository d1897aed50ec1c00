//! Sort: a stable sort of column batches on typed key lanes, with an
//! external-merge fallback under memory pressure.
//!
//! The operator buffers the batches it is handed as columns, sorts a
//! *permutation* of their lanes and emits `gather`ed windows of it — no
//! row is built. The permutation is sorted on normalized key words
//! ([`Column::sort_key_words`]: order-preserving `u64` images of typed
//! lanes, a validity word where a window has NULLs, inverted for
//! `desc`) packed with the lane number into fixed-width rows; only runs
//! of equal words under an inexact key (a string's 8-byte head, a `Val`
//! lane, the word cap) go back to the comparator ([`Column::cmp_lanes`]:
//! NULL first, floats by `f64::total_cmp`, `Value::total_cmp` for `Val`
//! lanes). When the governor refuses a buffer charge, what is buffered
//! is sorted the same way and written out as a run; the runs and the
//! resident tail are then k-way merged block by block on the comparator.

use std::cmp::Ordering;
use std::rc::Rc;

use orthopt_common::column::Column;
use orthopt_common::{ColId, Result};

use crate::governed::Governed;
use crate::pipeline::{
    concat_batches, Batch, BoxOp, ColumnBatches, ExecCtx, Operator, StatsHandle, DEFAULT_BATCH_SIZE,
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

/// Most key words a lane's sort row carries; the lane number rides
/// after them.
const WORD_CAP: usize = 4;

/// Which keys give which words of a lane's sort row.
struct WordPlan {
    /// `(position, desc, first word, words taken)` per contributing key.
    keys: Vec<(usize, bool, usize, usize)>,
    words: usize,
    /// How many leading keys the words order exactly; the comparator
    /// settles the rest on runs of equal words.
    exact_keys: usize,
}

impl WordPlan {
    /// Takes each key's [`Column::sort_key_words`] in turn until the
    /// cap is reached or a key is inexact: a string's head word is the
    /// last word, and a `Val` key gives none.
    fn new(columns: &[Column], by: &[(usize, bool)]) -> WordPlan {
        let mut plan = WordPlan {
            keys: Vec::new(),
            words: 0,
            exact_keys: 0,
        };
        for &(pos, desc) in by {
            let (words, exact) = columns[pos].sort_key_words();
            let take = words.min(WORD_CAP - plan.words);
            if take > 0 {
                plan.keys.push((pos, desc, plan.words, take));
                plan.words += take;
            }
            if take < words || !exact {
                break;
            }
            plan.exact_keys += 1;
        }
        plan
    }
}

/// Sorts lanes `0..len` on `N - 1` key words plus the lane number, so
/// equal keys keep arrival order and the order is total — a plain
/// `sort_unstable` of fixed-width rows. Runs of equal words are then
/// re-sorted on the keys past `plan.exact_keys`, stably (each run is
/// already in lane order). Zero words is one run: the comparator sort.
/// Returns the permutation and how many tie runs were re-sorted.
fn sort_rows<const N: usize>(
    columns: &[Column],
    len: usize,
    by: &[(usize, bool)],
    plan: &WordPlan,
) -> (Vec<usize>, u64) {
    let mut rows = vec![[0u64; N]; len];
    for (lane, row) in rows.iter_mut().enumerate() {
        row[N - 1] = lane as u64;
    }
    for &(pos, desc, at, take) in &plan.keys {
        columns[pos].write_sort_words(desc, &mut rows, at, take);
    }
    rows.sort_unstable();
    let rest = &by[plan.exact_keys..];
    let mut ties = Vec::new();
    if !rest.is_empty() {
        let mut start = 0;
        for run in rows.chunk_by(|a, b| a[..N - 1] == b[..N - 1]) {
            if run.len() > 1 {
                ties.push(start..start + run.len());
            }
            start += run.len();
        }
    }
    // Collected in place: the permutation reuses the rows' allocation.
    let mut perm: Vec<usize> = rows.into_iter().map(|row| row[N - 1] as usize).collect();
    for run in &ties {
        perm[run.clone()].sort_by(|&a, &b| cmp_keys(columns, a, columns, b, rest));
    }
    (perm, ties.len() as u64)
}

/// A sorted, memory-resident run: dense columns plus the permutation
/// that orders their lanes, handed out in `gather`ed windows.
struct SortedRun {
    columns: Vec<Column>,
    perm: Vec<usize>,
    cursor: usize,
    /// Key words per lane, and tie runs the comparator re-sorted.
    words: usize,
    tie_runs: u64,
}

impl SortedRun {
    /// Concatenates `batches` and stable-sorts their lanes on normalized
    /// key words ([`WordPlan`], [`sort_rows`]).
    fn sort(batches: ColumnBatches, width: usize, by: &[(usize, bool)]) -> SortedRun {
        let (columns, len) = concat_batches(&batches, width);
        let plan = WordPlan::new(&columns, by);
        let (perm, tie_runs) = match plan.words {
            0 => sort_rows::<1>(&columns, len, by, &plan),
            1 => sort_rows::<2>(&columns, len, by, &plan),
            2 => sort_rows::<3>(&columns, len, by, &plan),
            3 => sort_rows::<4>(&columns, len, by, &plan),
            _ => sort_rows::<{ WORD_CAP + 1 }>(&columns, len, by, &plan),
        };
        SortedRun {
            columns,
            perm,
            cursor: 0,
            words: plan.words,
            tie_runs,
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
    /// The buffer's charge; it degrades to an external merge sort when
    /// the pipeline may spill.
    gov: Governed,
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
        spill: bool,
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
            gov: Governed::spilling("Sort", true, spill, stats.clone()),
            runs: Vec::new(),
            merge: None,
            stats,
        }
    }

    /// Sorts `batches` into a run, noting its words and tie runs.
    fn sort_run(&self, batches: ColumnBatches) -> SortedRun {
        let run = SortedRun::sort(batches, self.cols.len(), &self.by_pos);
        self.stats.note_sort(run.words as u64, run.tie_runs);
        run
    }

    /// Sorts `batches` and writes them out as one run.
    fn spill_run(&mut self, ctx: &ExecCtx<'_>, batches: ColumnBatches) -> Result<()> {
        let mut run = self.sort_run(batches);
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
            if !self.gov.charge("sort.buffer", b.mem_bytes())? {
                // Write everything buffered so far as a sorted run and
                // release its charge, then retry the charge for this
                // batch.
                let buffered = std::mem::take(&mut self.buffered);
                self.spill_run(ctx, buffered)?;
                self.gov.reset();
                if !self.gov.grow(b.mem_bytes())? {
                    // The batch alone exceeds the budget: it becomes
                    // its own run without ever being resident past
                    // this point.
                    self.spill_run(ctx, vec![b.into_columns()])?;
                    continue;
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
        self.gov.open(ctx);
        self.input.open(ctx)
    }

    fn next_batch(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<Batch>> {
        if !self.input_done {
            self.drain_input(ctx)?;
            let buffered = std::mem::take(&mut self.buffered);
            let tail = self.sort_run(buffered);
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
                self.gov.reset();
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
}
