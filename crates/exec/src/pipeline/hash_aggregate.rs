//! Hash aggregation: typed accumulator lanes keyed by group ids, with
//! a partitioned spill to disk once the memory budget refuses the
//! group state.

use std::rc::Rc;

use orthopt_common::column::Column;
use orthopt_common::hash::hash_lanes;
use orthopt_common::{ColId, Error, Result};
use orthopt_ir::{AggDef, GroupKind};

use super::{concat_batches, op_name, positions, rc_cols, Batch, BoxOp, ColumnBatches, ExecCtx};
use super::{Operator, StatsHandle};
use crate::governed::{Governed, Refused};
use crate::spill::{partition_of, SpillFile, SpillPartitions, FANOUT};
use crate::vector::{eval_lanes, first_error, VecEval};
use crate::{aggregate::GroupedAggState, bindings::Bindings, eval::PosMap, physical::PhysExpr};

/// Disk-resident overflow of a spillable hash aggregation: lanes the
/// resident state refused are stored as already-evaluated
/// `key ++ present-args` lanes (no re-evaluation on restore),
/// partitioned by group-key hash.
struct SpilledAgg {
    parts: SpillPartitions,
    key_width: usize,
    /// Which aggregate specs carry an argument column in the spilled
    /// block (static per plan: `arg` is `Some` for everything but
    /// COUNT(*)).
    has_arg: Vec<bool>,
}

/// Each aggregate's argument over a batch (`None` for COUNT(*)), the
/// lanes `0..len` to feed, and the evaluation error that cut them
/// short, if any.
struct Args {
    cols: Vec<Option<Column>>,
    len: usize,
    err: Option<Error>,
}

pub(crate) struct HashAggregateOp {
    kind: GroupKind,
    input: BoxOp,
    in_width: usize,
    group_pos: Vec<usize>,
    aggs: Vec<AggDef>,
    in_pos: PosMap,
    out_cols: Rc<[ColId]>,
    /// Group state, created when the first lane arrives.
    state: Option<GroupedAggState>,
    /// The finished groups as columns, and how many lanes of them have
    /// been emitted.
    result: (Vec<Column>, usize),
    emitted: usize,
    done: bool,
    batch_size: usize,
    /// The group state's charge; it spills when the pipeline may.
    gov: Governed,
    /// Active spill state; once set, the resident group state is frozen
    /// and every further input lane goes to disk.
    spilled: Option<SpilledAgg>,
    stats: StatsHandle,
}

impl HashAggregateOp {
    /// The operator for hash aggregation `p` over its compiled `input`.
    pub(crate) fn new(
        p: &PhysExpr,
        input: BoxOp,
        batch_size: usize,
        gov: Governed,
        stats: StatsHandle,
    ) -> Result<HashAggregateOp> {
        let PhysExpr::HashAggregate {
            kind,
            input: child,
            group_cols,
            aggs,
        } = p
        else {
            unreachable!("{} is not a hash aggregation", op_name(p))
        };
        let in_layout = child.out_cols();
        Ok(HashAggregateOp {
            kind: *kind,
            input,
            in_width: in_layout.len(),
            group_pos: positions(&in_layout, group_cols)?,
            aggs: aggs.clone(),
            in_pos: PosMap::new(&in_layout),
            out_cols: rc_cols(&p.out_cols()),
            state: None,
            result: (Vec::new(), 0),
            emitted: 0,
            done: false,
            batch_size,
            gov,
            spilled: None,
            stats,
        })
    }

    /// Evaluates every aggregate argument over a batch as a whole
    /// column. A row evaluates its arguments in aggregate order, so the
    /// lanes before the first failing one are fed and then its error is
    /// raised, a tie going to the earlier aggregate — the row-ordered
    /// error precedence.
    fn eval_args(&self, columns: &[Column], len: usize, binds: &Bindings) -> Args {
        let cx = VecEval {
            pos: &self.in_pos,
            columns,
            len,
            binds,
        };
        let args: Vec<_> = self
            .aggs
            .iter()
            .map(|a| a.arg.as_ref().map(|e| eval_lanes(e, &cx)))
            .collect();
        self.stats.note_kernel();
        let failed = first_error(args.iter().flatten().map(|a| &a.errs[..])).cloned();
        Args {
            cols: args.into_iter().map(|a| a.map(|a| a.col)).collect(),
            len: failed.as_ref().map_or(len, |f| f.0),
            err: failed.map(|f| f.1),
        }
    }

    /// Feeds one batch into the resident state, or — once spilling —
    /// to disk. A refused charge stops the lane feed where it happened;
    /// the rest of the batch then spills.
    fn feed(&mut self, ctx: &ExecCtx<'_>, b: &Batch) -> Result<()> {
        b.check_width(self.in_width)?;
        let (columns, len) = b.columns();
        let args = self.eval_args(columns, len, &ctx.binds.borrow());
        let key_cols: Vec<&Column> = self.group_pos.iter().map(|&i| &columns[i]).collect();
        let hashes = hash_lanes(&key_cols, args.len);
        let mut applied = 0;
        if self.spilled.is_none() && args.len > 0 {
            let state = self
                .state
                .get_or_insert_with(|| GroupedAggState::new(&self.aggs));
            let (fed, refusal) = state.feed_lanes(&mut self.gov, &key_cols, &hashes, &args.cols)?;
            applied = fed;
            if refusal.is_some() {
                self.enter_spill(ctx)?;
            }
        }
        if applied < args.len {
            let sp = self.spilled.as_mut().expect("spill mode active");
            let lanes: Vec<Column> = key_cols
                .into_iter()
                .cloned()
                .chain(args.cols.into_iter().flatten())
                .collect();
            for (i, &h) in hashes.iter().enumerate().skip(applied) {
                sp.parts.push_lane(partition_of(h, 0), &lanes, i)?;
            }
            ctx.gov.check_cancelled(self.gov.label())?;
        }
        args.err.map_or(Ok(()), Err)
    }

    /// Enters spill mode (idempotent): the resident state freezes and
    /// further lanes are partitioned to disk by group-key hash.
    fn enter_spill(&mut self, ctx: &ExecCtx<'_>) -> Result<()> {
        if self.spilled.is_some() {
            return Ok(());
        }
        let has_arg: Vec<bool> = self.aggs.iter().map(|a| a.arg.is_some()).collect();
        let width = self.group_pos.len() + has_arg.iter().filter(|&&h| h).count();
        let parts = SpillPartitions::create(&ctx.spill, "agg-part", width)?;
        self.spilled = Some(SpilledAgg {
            parts,
            key_width: self.group_pos.len(),
            has_arg,
        });
        Ok(())
    }

    /// Pulls the whole input through the grouped state, degrading to
    /// disk partitions when the governor refuses a charge.
    fn drain_input(&mut self, ctx: &ExecCtx<'_>) -> Result<()> {
        while let Some(b) = self.input.next_batch(ctx)? {
            // The batch's lanes are charged one by one as they are fed.
            if !self.gov.charge("hashagg.state", 0)? {
                self.enter_spill(ctx)?;
            }
            self.feed(ctx, &b)?;
        }
        Ok(())
    }

    /// Replays one spilled partition file into `st` through the same
    /// lane feed; a refusal here cannot degrade any further.
    fn replay_file(
        ctx: &ExecCtx<'_>,
        gov: &mut Governed,
        st: &mut GroupedAggState,
        file: &mut SpillFile,
        key_width: usize,
        has_arg: &[bool],
    ) -> Result<()> {
        let mut r = file.reader()?;
        while let Some((columns, n)) = r.next_block_columns()? {
            let (keys, args) = columns.split_at(key_width);
            let key_cols: Vec<&Column> = keys.iter().collect();
            let mut args = args.iter().cloned();
            let args: Vec<Option<Column>> = has_arg
                .iter()
                .map(|&h| if h { args.next() } else { None })
                .collect();
            if let (_, Some(refused)) =
                st.feed_lanes(gov, &key_cols, &hash_lanes(&key_cols, n), &args)?
            {
                return Err(refused.fail());
            }
            ctx.gov.check_cancelled(gov.label())?;
        }
        Ok(())
    }

    /// Finishes a spilled aggregation: the frozen resident state is
    /// split by the partition its groups' key hashes route to — the
    /// function the disk lanes used — then each partition is finalized
    /// independently: charge the resident split, replay the partition
    /// file, emit. Peak memory is one partition's groups instead of
    /// all of them. The last partition's charge is the caller's to
    /// release.
    fn finish_spilled(
        &mut self,
        ctx: &ExecCtx<'_>,
        mut state: GroupedAggState,
        sp: SpilledAgg,
    ) -> Result<(Vec<Column>, usize)> {
        let SpilledAgg {
            parts,
            key_width,
            has_arg,
        } = sp;
        let files = parts.finish()?;
        self.stats.note_spill(&files);
        if matches!(self.kind, GroupKind::Scalar) {
            // Scalar aggregation has a single (empty) group key, so all
            // lanes live in one partition: replay everything into the
            // resident state and finish once, so `agg(∅)` fires exactly
            // when the whole input was empty.
            for mut f in files {
                Self::replay_file(ctx, &mut self.gov, &mut state, &mut f, key_width, &has_arg)?;
            }
            return Ok(state.finish(self.kind));
        }
        let mut out: ColumnBatches = Vec::new();
        for (mut st, mut file) in state
            .split(FANOUT, |h| partition_of(h, 0))
            .into_iter()
            .zip(files)
        {
            // Only this partition's groups are charged while it loads.
            self.gov.reset();
            st.attach(&mut self.gov).map_err(Refused::fail)?;
            Self::replay_file(ctx, &mut self.gov, &mut st, &mut file, key_width, &has_arg)?;
            let (columns, n) = st.finish(self.kind);
            if n > 0 {
                out.push((columns, n));
            }
            // The partition file is consumed; dropping it reclaims the
            // disk space before the next partition loads.
            drop(file);
            ctx.gov.check_cancelled(self.gov.label())?;
        }
        Ok(concat_batches(&out, self.out_cols.len()))
    }
}

impl Operator for HashAggregateOp {
    fn open(&mut self, ctx: &ExecCtx<'_>) -> Result<()> {
        self.state = None;
        self.result = (Vec::new(), 0);
        self.emitted = 0;
        self.done = false;
        self.gov.open(ctx);
        // Dropping stale spill partitions removes their files (left by
        // a previous errored execution of this cached pipeline).
        self.spilled = None;
        self.input.open(ctx)
    }

    fn next_batch(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<Batch>> {
        if !self.done {
            let fed = self.drain_input(ctx);
            let state = self
                .state
                .take()
                .unwrap_or_else(|| GroupedAggState::new(&self.aggs));
            let result = fed.and_then(|()| match self.spilled.take() {
                None => Ok(state.finish(self.kind)),
                Some(sp) => self.finish_spilled(ctx, state, sp),
            });
            // The groups are finished (or abandoned): their charge goes.
            self.gov.reset();
            self.result = result?;
            self.done = true;
        }
        let (columns, len) = &self.result;
        let take = self.batch_size.min(len - self.emitted);
        if take == 0 {
            return Ok(None);
        }
        let window = columns
            .iter()
            .map(|c| c.slice(self.emitted, take))
            .collect();
        self.emitted += take;
        if self.emitted == *len {
            // The last window: a cached pipeline must not keep the
            // groups alive until its next execution.
            self.result = (Vec::new(), 0);
            self.emitted = 0;
        }
        Ok(Some(Batch::from_columns(
            self.out_cols.clone(),
            window,
            take,
        )))
    }
}
