//! Rebind-and-rewind operators: the Apply, which runs its inner plan
//! once per distinct binding of the outer lanes' correlation
//! parameters; `SegmentExec`, which runs its inner plan once per
//! segment of its input; and the cache that replays an inner subtree
//! that depends on neither.

use std::cell::RefCell;
use std::rc::Rc;

use orthopt_common::column::{cols_bytes, Column};
use orthopt_common::hash::{hash_lanes, GroupTable};
use orthopt_common::{ColId, Error, Result, Value};
use orthopt_ir::ApplyKind;

use super::{concat_batches, op_name, pos_of, positions, rc_cols, Batch, BoxOp, ColumnBatches};
use super::{ExecCtx, Operator, StatsHandle};
use crate::{bindings::Bindings, governed::Governed, physical::PhysExpr};

/// One-time materialization of a parameter-invariant subtree: drains
/// its input on first demand, keeps the column batches it was handed,
/// and replays handle clones of them on every rewind.
///
/// When the memory budget refuses the materialization, the cache *sheds*
/// instead of failing: buffered batches are released and the operator
/// degrades to a passthrough that re-executes its input on every rewind
/// — the pre-cache behavior, slower but correct.
pub(crate) struct CacheOp {
    input: BoxOp,
    /// Output width of the compiled subtree; every batch is checked
    /// against it before it is kept.
    width: usize,
    filled: bool,
    /// Budget refusal during fill happened: operate as a passthrough.
    degraded: bool,
    batches: Vec<Batch>,
    cursor: usize,
    /// The cache is not itself a metered node — it charges into the
    /// cached subtree root's stats slot.
    gov: Governed,
}

impl CacheOp {
    pub(crate) fn new(input: BoxOp, width: usize, stats: StatsHandle) -> CacheOp {
        CacheOp {
            input,
            width,
            filled: false,
            degraded: false,
            batches: Vec::new(),
            cursor: 0,
            gov: Governed::degrading("Cache", stats),
        }
    }
}

impl Operator for CacheOp {
    fn open(&mut self, ctx: &ExecCtx<'_>) -> Result<()> {
        self.cursor = 0;
        if self.filled {
            return Ok(());
        }
        if self.degraded {
            // Passthrough mode: every rewind re-executes the input.
            self.batches.clear();
            return self.input.open(ctx);
        }
        self.gov.open(ctx);
        self.input.open(ctx)
    }

    fn next_batch(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<Batch>> {
        if !self.filled && !self.degraded {
            while let Some(b) = self.input.next_batch(ctx)? {
                b.check_width(self.width)?;
                let charged = self.gov.charge("cache.fill", b.mem_bytes())?;
                self.batches.push(b);
                if !charged {
                    // Shed: stream out what is buffered (plus the
                    // batch in hand), then abandon caching.
                    self.gov.reset();
                    self.degraded = true;
                    break;
                }
            }
            if !self.degraded {
                self.filled = true;
                self.input.close();
            }
        }
        if let Some(b) = self.batches.get(self.cursor) {
            self.cursor += 1;
            return Ok(Some(b.clone()));
        }
        if self.degraded {
            // Head drained; release it and stream the live input.
            self.batches = Vec::new();
            self.cursor = 0;
            return self.input.next_batch(ctx);
        }
        Ok(None)
    }
}

/// The Apply (§1.3, §4): correlated execution of `inner` under the
/// bindings of the correlation parameters the outer batches carry,
/// combined with the outer lanes under the `ApplyKind`. The inner plan
/// runs once per *distinct* binding: a [`GroupTable`] over the
/// parameter lanes, kept across outer batches, gives every binding a
/// dense id, and its result is kept by id in a governor-charged
/// binding cache — the invariant-subtree cache ([`CacheOp`], here the
/// zero-parameter case's one binding) generalized to parameterized
/// inners. A binding runs at its first lane, in lane order, so the
/// first error raised is the per-row loop's first error.
///
/// (`IndexLookupJoin` rewinds nothing: it is a join probe,
/// [`IndexJoinOp`](super::join::IndexJoinOp).)
///
/// The outer batch is never transposed: bindings are read off the
/// parameter lanes, and the output is a `gather` of the outer columns
/// beside a gather of the inner result columns (Semi/Anti select outer
/// lanes, touch no inner value, and keep only a result's lane count).
///
/// NULL binding semantics: bindings are grouped by `Value`'s grouping
/// equality, under which NULL equals NULL but no non-NULL value — so a
/// NULL binding never shares a non-NULL one's result, and two NULL
/// bindings sharing one run is sound because the inner side is
/// deterministic per binding tuple (an index seek under a NULL probe
/// yields empty on every execution, per SQL equality).
pub(crate) struct ApplyOp {
    kind: ApplyKind,
    left: BoxOp,
    inner: BoxOp,
    param_pos: Vec<(ColId, usize)>,
    left_width: usize,
    right_width: usize,
    out_cols: Rc<[ColId]>,
    /// Private bindings the inner side runs under; parameter slots are
    /// overwritten per binding, then the inner side is re-run.
    inner_binds: Rc<RefCell<Bindings>>,
    /// Binding ids: one group per distinct parameter tuple.
    bindings: GroupTable,
    /// Inner result per binding id: its columns (none for Semi/Anti)
    /// and lane count. Both are kept across batches within one
    /// execution and cleared on every `open` (rewinds under an outer
    /// apply re-parameterize the whole subtree).
    results: ColumnBatches,
    /// Set when the governor refused a result's charge: the cache is
    /// shed and reset at every outer batch from then on, so only lanes
    /// of one batch share a run.
    degraded: bool,
    gov: Governed,
    stats: StatsHandle,
}

impl ApplyOp {
    /// The operator for Apply `p` over its compiled outer side `left`
    /// and inner side `inner`.
    pub(crate) fn new(
        p: &PhysExpr,
        left: BoxOp,
        inner: BoxOp,
        gov: Governed,
        stats: StatsHandle,
    ) -> ApplyOp {
        let PhysExpr::ApplyLoop {
            kind,
            left: outer,
            right,
            params,
        } = p
        else {
            unreachable!("{} is not an Apply", op_name(p))
        };
        let outer_cols = outer.out_cols();
        ApplyOp {
            kind: *kind,
            left,
            inner,
            // Where each correlation parameter sits in the outer layout.
            param_pos: params
                .iter()
                .filter_map(|c| outer_cols.iter().position(|l| l == c).map(|i| (*c, i)))
                .collect(),
            left_width: outer_cols.len(),
            right_width: right.out_cols().len(),
            out_cols: rc_cols(&p.out_cols()),
            inner_binds: Rc::new(RefCell::new(Bindings::new())),
            bindings: GroupTable::new(),
            results: Vec::new(),
            degraded: false,
            gov,
            stats,
        }
    }

    /// Runs the inner side under the binding lane `i` of `key_cols`
    /// carries.
    fn run_inner(
        &mut self,
        ictx: &ExecCtx<'_>,
        key_cols: &[&Column],
        i: usize,
    ) -> Result<(Vec<Column>, usize)> {
        {
            let mut binds = self.inner_binds.borrow_mut();
            for ((p, _), c) in self.param_pos.iter().zip(key_cols) {
                binds.set(*p, c.value(i));
            }
        }
        self.stats.note_distinct_binding();
        self.inner.open(ictx)?;
        // Semi/Anti read only whether a result is empty.
        let count_only = matches!(self.kind, ApplyKind::Semi | ApplyKind::Anti);
        let mut parts: ColumnBatches = Vec::new();
        let mut n = 0;
        while let Some(b) = self.inner.next_batch(ictx)? {
            b.check_width(self.right_width)?;
            n += b.len;
            if !count_only {
                parts.push(b.into_columns());
            }
        }
        Ok(if count_only {
            (Vec::new(), n)
        } else {
            concat_batches(&parts, self.right_width)
        })
    }

    /// Charges one binding's result to the governor; on refusal the
    /// cache is shed (reset + degrade) and execution continues — results
    /// are identical either way.
    fn charge(&mut self, rs: &(Vec<Column>, usize)) -> Result<()> {
        if !self.gov.charge("apply.bindings", cols_bytes(&rs.0, rs.1))? {
            self.gov.reset();
            self.degraded = true;
        }
        Ok(())
    }

    /// The `ApplyKind` combination of one outer batch with its lanes'
    /// inner results (`ids[i]` is lane `i`'s binding).
    fn combine(&self, outer: &[Column], len: usize, ids: &[u32]) -> (Vec<Column>, usize) {
        let result = |i: usize| &self.results[ids[i] as usize];
        if matches!(self.kind, ApplyKind::Semi | ApplyKind::Anti) {
            let want_empty = self.kind == ApplyKind::Anti;
            let sel: Vec<usize> = (0..len)
                .filter(|&i| (result(i).1 == 0) == want_empty)
                .collect();
            return (outer.iter().map(|c| c.gather(&sel)).collect(), sel.len());
        }
        // Cross / LeftOuter: every (outer lane, inner lane) pair, the
        // inner lanes addressed within the concatenation of the batch's
        // bindings' results; an outer join pads an empty result with a
        // hole.
        let mut used = ids.to_vec();
        used.sort_unstable();
        used.dedup();
        let mut offsets = Vec::with_capacity(used.len());
        let mut total = 0;
        for &g in &used {
            offsets.push(total);
            total += self.results[g as usize].1;
        }
        let mut outer_idx: Vec<usize> = Vec::new();
        let mut inner_idx: Vec<Option<usize>> = Vec::new();
        for (i, g) in ids.iter().enumerate() {
            let at = offsets[used.binary_search(g).expect("binding in batch")];
            let n = result(i).1;
            if n == 0 && self.kind == ApplyKind::LeftOuter {
                outer_idx.push(i);
                inner_idx.push(None);
            }
            for j in 0..n {
                outer_idx.push(i);
                inner_idx.push(Some(at + j));
            }
        }
        let mut out: Vec<Column> = outer.iter().map(|c| c.gather(&outer_idx)).collect();
        out.extend((0..self.right_width).map(|c| {
            let parts: Vec<Column> = used
                .iter()
                .map(|&g| self.results[g as usize].0[c].clone())
                .collect();
            Column::concat(&parts).gather_opt(&inner_idx)
        }));
        (out, outer_idx.len())
    }
}

impl Operator for ApplyOp {
    fn open(&mut self, ctx: &ExecCtx<'_>) -> Result<()> {
        self.inner_binds = Rc::new(RefCell::new(ctx.binds.borrow().clone()));
        self.bindings = GroupTable::new();
        self.results.clear();
        self.degraded = false;
        self.gov.open(ctx);
        self.left.open(ctx)
    }

    fn next_batch(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<Batch>> {
        while let Some(batch) = self.left.next_batch(ctx)? {
            batch.check_width(self.left_width)?;
            if self.degraded {
                self.bindings = GroupTable::new();
                self.results.clear();
            }
            let (columns, len) = batch.columns();
            let key_cols: Vec<&Column> = self.param_pos.iter().map(|(_, i)| &columns[*i]).collect();
            self.stats.note_kernel();
            let ids = self.bindings.assign(&key_cols, &hash_lanes(&key_cols, len));
            let ictx = ctx.with_binds(self.inner_binds.clone());
            // Ids are dense and first-seen, so a binding's first lane is
            // the one whose id is the next result's.
            for (i, &g) in ids.iter().enumerate() {
                if g as usize == self.results.len() {
                    let rs = self.run_inner(&ictx, &key_cols, i)?;
                    if !self.degraded {
                        self.charge(&rs)?;
                    }
                    self.results.push(rs);
                }
            }
            let (out, n) = self.combine(columns, len, &ids);
            if n > 0 {
                return Ok(Some(Batch::from_columns(self.out_cols.clone(), out, n)));
            }
        }
        Ok(None)
    }
}

/// Where each `SegmentExec` output column comes from.
enum OutSrc {
    /// Position within the segment key.
    Seg(usize),
    /// Position within the inner plan's output.
    Inner(usize),
}

pub(crate) struct SegmentExecOp {
    input: BoxOp,
    inner: BoxOp,
    seg_pos: Vec<usize>,
    input_cols: Rc<[ColId]>,
    out_src: Vec<OutSrc>,
    out_cols: Rc<[ColId]>,
    inner_binds: Rc<RefCell<Bindings>>,
    /// The whole input as columns, and each segment's lanes of it and
    /// key (lane `g` of `keys` is segment `g`'s), in first-seen order.
    columns: Vec<Column>,
    segments: Vec<Vec<usize>>,
    keys: Vec<Column>,
    partitioned: bool,
    seg_cursor: usize,
    batch_size: usize,
    gov: Governed,
    stats: StatsHandle,
}

impl SegmentExecOp {
    /// The operator for segmented execution `p` over its compiled input
    /// and inner plan.
    pub(crate) fn new(
        p: &PhysExpr,
        input: BoxOp,
        inner: BoxOp,
        batch_size: usize,
        gov: Governed,
        stats: StatsHandle,
    ) -> Result<SegmentExecOp> {
        let PhysExpr::SegmentExec {
            input: child,
            segment_cols,
            inner: inner_plan,
            out_cols,
        } = p
        else {
            unreachable!("{} is not a segmented execution", op_name(p))
        };
        let in_layout = child.out_cols();
        let inner_layout = inner_plan.out_cols();
        let out_src = out_cols
            .iter()
            .map(|oc| {
                if let Some(i) = segment_cols.iter().position(|c| c == oc) {
                    Ok(OutSrc::Seg(i))
                } else {
                    pos_of(&inner_layout, *oc)
                        .map(OutSrc::Inner)
                        .map_err(|_| Error::internal("segment output column"))
                }
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(SegmentExecOp {
            input,
            inner,
            seg_pos: positions(&in_layout, segment_cols)?,
            input_cols: rc_cols(&in_layout),
            out_src,
            out_cols: rc_cols(out_cols),
            inner_binds: Rc::new(RefCell::new(Bindings::new())),
            columns: Vec::new(),
            segments: Vec::new(),
            keys: Vec::new(),
            partitioned: false,
            seg_cursor: 0,
            batch_size,
            gov,
            stats,
        })
    }
}

impl Operator for SegmentExecOp {
    fn open(&mut self, ctx: &ExecCtx<'_>) -> Result<()> {
        self.inner_binds = Rc::new(RefCell::new(ctx.binds.borrow().clone()));
        self.columns.clear();
        self.segments.clear();
        self.keys.clear();
        self.partitioned = false;
        self.seg_cursor = 0;
        self.gov.open(ctx);
        self.input.open(ctx)
    }

    fn next_batch(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<Batch>> {
        if !self.partitioned {
            // The partitioner is a pipeline breaker: it must see every
            // input lane before any segment runs. Segment ids are group
            // ids over the segmenting columns.
            let mut table = GroupTable::new();
            let mut parts: ColumnBatches = Vec::new();
            let mut seen = 0;
            while let Some(b) = self.input.next_batch(ctx)? {
                b.check_width(self.input_cols.len())?;
                self.gov.charge("segment.partition", b.mem_bytes())?;
                let key_cols: Vec<&Column> = self.seg_pos.iter().map(|&i| &b.columns[i]).collect();
                let ids = table.assign(&key_cols, &hash_lanes(&key_cols, b.len));
                self.segments.resize_with(table.len(), Vec::new);
                for (i, g) in ids.into_iter().enumerate() {
                    self.segments[g as usize].push(seen + i);
                }
                seen += b.len;
                parts.push(b.into_columns());
                self.stats.note_kernel();
            }
            self.columns = concat_batches(&parts, self.input_cols.len()).0;
            self.keys = table.into_keys();
            self.partitioned = true;
        }
        // Run segments until a batch's worth of output has gathered:
        // each inner result batch passes through as columns, beside the
        // segment key broadcast over its lanes.
        let mut out: ColumnBatches = Vec::new();
        let mut lanes = 0;
        while lanes < self.batch_size && self.seg_cursor < self.segments.len() {
            let g = self.seg_cursor;
            self.seg_cursor += 1;
            let key: Vec<Value> = self.keys.iter().map(|k| k.value(g)).collect();
            let seg_lanes = std::mem::take(&mut self.segments[g]);
            let segment = Rc::new(Batch::from_columns(
                self.input_cols.clone(),
                self.columns.iter().map(|c| c.gather(&seg_lanes)).collect(),
                seg_lanes.len(),
            ));
            self.inner_binds.borrow_mut().push_segment(segment);
            let ictx = ctx.with_binds(self.inner_binds.clone());
            let run = (|| -> Result<()> {
                self.inner.open(&ictx)?;
                while let Some(b) = self.inner.next_batch(&ictx)? {
                    let (columns, n) = b.columns();
                    let mapped = self
                        .out_src
                        .iter()
                        .map(|src| match src {
                            OutSrc::Seg(i) => Column::from_values(vec![key[*i].clone(); n]),
                            OutSrc::Inner(p) => columns[*p].clone(),
                        })
                        .collect();
                    out.push((mapped, n));
                    lanes += n;
                }
                Ok(())
            })();
            self.inner_binds.borrow_mut().pop_segment();
            run?;
        }
        if self.seg_cursor == self.segments.len() {
            // Every segment ran: release the partitioned input.
            self.columns.clear();
        }
        if lanes == 0 {
            return Ok(None);
        }
        let (columns, len) = concat_batches(&out, self.out_cols.len());
        Ok(Some(Batch::from_columns(
            self.out_cols.clone(),
            columns,
            len,
        )))
    }
}
