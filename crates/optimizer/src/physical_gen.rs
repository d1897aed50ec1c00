//! Best-plan extraction: implementation rules plus recursive costing.
//!
//! Costing comes first and builds nothing deep: every alternative is a
//! physical operator over *stub* inputs plus the groups those inputs
//! stand for, and each group keeps only its winner. The plan is then
//! assembled in one walk over the winners.

use std::collections::{BTreeSet, HashMap, HashSet};

use orthopt_common::{ColId, Error, Result};
use orthopt_exec::PhysExpr;
use orthopt_ir::{ApplyKind, ApplyStrategy, GroupKind, RelExpr, ScalarExpr};

use crate::cost::{apply_cost, coef, exchange_cost, index_lookup_cost};
use crate::memo::{GroupId, MExpr, Memo};

/// One implementation of a memo expression: `plan`'s inputs are stubs
/// for the best plans of `inputs` (in `children_mut()` order).
struct Alt {
    plan: PhysExpr,
    inputs: Vec<GroupId>,
    cost: f64,
}

impl Alt {
    fn new(plan: PhysExpr, inputs: Vec<GroupId>, cost: f64) -> Alt {
        Alt { plan, inputs, cost }
    }
}

/// Stands in for an input plan until [`Planner::build`] fills it in
/// (or a plan rewrite moves the real one into place).
pub(crate) fn stub() -> Box<PhysExpr> {
    Box::new(PhysExpr::const_rows(vec![], &[]))
}

/// The base positions and layout an index-lookup join fetches: those
/// of `fetch_cols` that it emits (`cols`) or its residual tests.
pub(crate) fn fetched(
    positions: &[usize],
    fetch_cols: &[ColId],
    cols: &[ColId],
    tested: &BTreeSet<ColId>,
) -> (Vec<usize>, Vec<ColId>) {
    positions
        .iter()
        .zip(fetch_cols)
        .filter(|(_, c)| cols.contains(c) || tested.contains(c))
        .map(|(&p, &c)| (p, c))
        .unzip()
}

/// Extracts the cheapest physical plan for a group.
pub struct Planner<'a> {
    memo: &'a Memo,
    /// Winning implementation per (surviving) group.
    winners: HashMap<usize, Alt>,
    in_progress: HashSet<usize>,
    /// Worker-pool size exchanges may fan out to (1 = plan serially).
    workers: usize,
    /// Which correlated-execution strategies the Apply arm may emit
    /// (`Auto` = all constructible ones, cost-raced).
    apply_strategy: ApplyStrategy,
}

impl<'a> Planner<'a> {
    /// Creates a planner over an explored memo. `workers > 1` lets the
    /// planner wrap eligible subtrees in `Exchange` nodes when the cost
    /// model says parallelism pays; `apply_strategy` restricts (or
    /// forces) what the Apply implementation rule emits.
    pub fn new(memo: &'a Memo, workers: usize, apply_strategy: ApplyStrategy) -> Self {
        Planner {
            memo,
            winners: HashMap::new(),
            in_progress: HashSet::new(),
            workers: workers.max(1),
            apply_strategy,
        }
    }

    /// Cheapest plan for a group, with its estimated cost.
    pub fn best(&mut self, gid: GroupId) -> Result<(PhysExpr, f64)> {
        let cost = self.cost(gid)?;
        Ok((self.build(gid), cost))
    }

    /// Cost of the cheapest plan for a group, recording its winner.
    fn cost(&mut self, gid: GroupId) -> Result<f64> {
        let gid = self.memo.find(gid);
        if let Some(w) = self.winners.get(&gid.0) {
            return Ok(w.cost);
        }
        if !self.in_progress.insert(gid.0) {
            // A cyclic alternative (a merge can close one): prune this path.
            // The groups costed below keep winners found without it — by
            // then possibly not their cheapest from elsewhere (DESIGN §14).
            return Err(Error::Plan("cyclic plan alternative".into()));
        }
        // A failed alternative is simply not implementable on this path;
        // other alternatives may still produce a plan. First of equals wins.
        let exprs = self.memo.exprs(gid);
        let alts = exprs.filter_map(|e| self.implementations(e).ok());
        let best = alts.flatten().min_by(|a, b| a.cost.total_cmp(&b.cost));
        self.in_progress.remove(&gid.0);
        let best = best.ok_or_else(|| Error::Plan("no implementable alternative".into()))?;
        let mut cost = best.cost;
        self.winners.insert(gid.0, best);
        // Consider a parallel boundary over the chosen plan: cheapest
        // serial plan, exchanged, if the Amdahl split beats the setup
        // cost. Children already wrapped make parents ineligible, so
        // this greedy bottom-up placement never nests exchanges.
        if self.workers > 1 {
            if let Some(wrapped) = orthopt_exec::wrap_exchange(&self.build(gid)) {
                let exchanged = exchange_cost(cost, self.card(gid), self.workers);
                if exchanged < cost {
                    cost = exchanged;
                    let whole = Alt::new(wrapped, vec![], cost);
                    self.winners.insert(gid.0, whole);
                }
            }
        }
        Ok(cost)
    }

    /// Assembles the winning plan of a costed group.
    fn build(&self, gid: GroupId) -> PhysExpr {
        let winner = &self.winners[&self.memo.find(gid).0];
        let mut plan = winner.plan.clone();
        for (slot, &input) in plan.children_mut().into_iter().zip(&winner.inputs) {
            *slot = self.build(input);
        }
        plan
    }

    fn card(&self, gid: GroupId) -> f64 {
        self.memo.props(gid).card
    }

    fn implementations(&mut self, expr: &MExpr) -> Result<Vec<Alt>> {
        let est = &self.memo.est;
        let children = &expr.children;
        let mut out = Vec::new();
        let over = |plan, cost| Alt::new(plan, children.clone(), cost);
        let leaf = |plan, cost| Alt::new(plan, vec![], cost);
        // One input: its cost and cardinality.
        let unary = |planner: &mut Self| -> Result<(f64, f64)> {
            Ok((planner.cost(children[0])?, planner.card(children[0])))
        };
        match &expr.shell {
            RelExpr::Get(g) => {
                let scan = PhysExpr::TableScan {
                    table: g.table,
                    positions: g.positions.clone(),
                    cols: g.cols.iter().map(|c| c.id).collect(),
                };
                out.push(leaf(scan, g.row_count * coef::SCAN_ROW));
            }
            RelExpr::ConstRel { cols, rows } => {
                let scan = PhysExpr::const_rows(cols.iter().map(|c| c.id).collect(), rows);
                out.push(leaf(scan, rows.len() as f64 * coef::TRIVIAL_ROW));
            }
            RelExpr::Select { predicate, .. } => {
                let (child, in_card) = unary(self)?;
                let filter = PhysExpr::Filter {
                    input: stub(),
                    predicate: predicate.clone(),
                };
                out.push(over(filter, child + in_card * coef::FILTER_ROW));
                // Index seek when the child is an indexed scan and the
                // predicate pins a full index with invocation constants.
                out.extend(self.index_seek_alternatives(predicate, children[0]));
            }
            RelExpr::Map { defs, .. } => {
                let (child, in_card) = unary(self)?;
                let compute = PhysExpr::Compute {
                    input: stub(),
                    defs: defs.iter().map(|d| (d.col.id, d.expr.clone())).collect(),
                };
                let cost = child + in_card * coef::COMPUTE_ROW * defs.len() as f64;
                out.push(over(compute, cost));
            }
            RelExpr::Project { cols, .. } => {
                let (child, in_card) = unary(self)?;
                let project = PhysExpr::ProjectCols {
                    input: stub(),
                    cols: cols.clone(),
                };
                out.push(over(project, child + in_card * coef::TRIVIAL_ROW));
            }
            RelExpr::Join {
                kind, predicate, ..
            } => {
                let inputs_cost = self.cost(children[0])? + self.cost(children[1])?;
                let selectivity = est.selectivity(predicate);
                // Either input of an inner join can be the build side.
                for (g_l, g_r) in expr.sides() {
                    let (card_l, card_r) = (self.card(g_l), self.card(g_r));
                    let out_card = card_l * card_r * selectivity;
                    // Hash join on equi-conjuncts.
                    let (left_ids, right_ids) = (self.outs(g_l), self.outs(g_r));
                    let mut lk = Vec::new();
                    let mut rk = Vec::new();
                    let mut residual = Vec::new();
                    for c in predicate.conjuncts() {
                        match orthopt_ir::props::col_eq(&c) {
                            Some((x, y)) if left_ids.contains(&x) && right_ids.contains(&y) => {
                                lk.push(x);
                                rk.push(y);
                            }
                            Some((x, y)) if left_ids.contains(&y) && right_ids.contains(&x) => {
                                lk.push(y);
                                rk.push(x);
                            }
                            _ => residual.push(c),
                        }
                    }
                    // No equi-conjunct: the keyless hash join is the
                    // nested-loops join, costed per candidate pair.
                    let (residual, work) = if lk.is_empty() {
                        (predicate.clone(), card_l * card_r * coef::NL_PAIR)
                    } else {
                        let work = card_r * coef::HASH_BUILD_ROW + card_l * coef::HASH_PROBE_ROW;
                        (ScalarExpr::and(residual), work)
                    };
                    let join = PhysExpr::HashJoin {
                        kind: *kind,
                        left: stub(),
                        right: stub(),
                        left_keys: lk,
                        right_keys: rk,
                        residual,
                    };
                    let cost = inputs_cost + work + out_card * coef::JOIN_OUT_ROW;
                    out.push(Alt::new(join, vec![g_l, g_r], cost));
                }
            }
            RelExpr::Apply { kind, .. } => {
                let (g_l, g_r) = (children[0], children[1]);
                let (left, right) = (self.cost(g_l)?, self.cost(g_r)?);
                let card_l = self.card(g_l);
                let params: Vec<ColId> = {
                    let left_outs = self.outs(g_l);
                    let free = self.memo.repr(g_r).free_cols();
                    free.into_iter().filter(|c| left_outs.contains(c)).collect()
                };
                // Estimated distinct binding tuples across the outer:
                // product of per-parameter NDVs, clamped to the outer
                // cardinality — dedup only pays when outer rows repeat
                // correlation keys.
                let distinct = if params.is_empty() {
                    1.0
                } else {
                    params
                        .iter()
                        .map(|c| est.stats.ndv(*c))
                        .product::<f64>()
                        .clamp(1.0, card_l.max(1.0))
                };
                let apply = PhysExpr::ApplyLoop {
                    kind: *kind,
                    left: stub(),
                    right: stub(),
                    params: params.clone(),
                };
                let apply_alt = over(apply, apply_cost(left, card_l, distinct, right));
                let index_alt =
                    self.index_lookup_alternative(*kind, left, (g_l, g_r), &params, distinct);
                match self.apply_strategy {
                    ApplyStrategy::Auto => {
                        out.push(apply_alt);
                        out.extend(index_alt);
                    }
                    ApplyStrategy::Loop => out.push(apply_alt),
                    // Forced index falls back to the Apply when the
                    // inner is not seek-shaped, so every forced run
                    // still executes (and stays oracle-comparable).
                    ApplyStrategy::Index => out.push(index_alt.unwrap_or(apply_alt)),
                }
            }
            RelExpr::SegmentApply { segment_cols, .. } => {
                let (g_in, g_inner) = (children[0], children[1]);
                let (input, inner) = (self.cost(g_in)?, self.cost(g_inner)?);
                let card_in = self.card(g_in);
                let segments = est.group_count(segment_cols, card_in);
                // Output layout: segmenting columns then inner extras.
                let mut out_cols = segment_cols.clone();
                for c in &self.memo.props(g_inner).cols {
                    if !out_cols.contains(&c.id) {
                        out_cols.push(c.id);
                    }
                }
                let exec = PhysExpr::SegmentExec {
                    input: stub(),
                    segment_cols: segment_cols.clone(),
                    inner: stub(),
                    out_cols,
                };
                let per_segment = coef::SEGMENT_INVOKE + inner;
                let cost = input + card_in * coef::SEGMENT_ROW + segments * per_segment;
                out.push(over(exec, cost));
            }
            RelExpr::SegmentRef { cols } => {
                let cols = cols.iter().map(|(m, src)| (m.id, *src)).collect();
                out.push(leaf(
                    PhysExpr::SegmentScan { cols },
                    10.0 * coef::TRIVIAL_ROW,
                ));
            }
            RelExpr::GroupBy {
                kind,
                group_cols,
                aggs,
                ..
            } => {
                let (child, card_in) = unary(self)?;
                let groups = match kind {
                    GroupKind::Scalar => 1.0,
                    _ => est.group_count(group_cols, card_in),
                };
                let aggregate = PhysExpr::HashAggregate {
                    kind: *kind,
                    input: stub(),
                    group_cols: group_cols.clone(),
                    aggs: aggs.clone(),
                };
                let cost = child + card_in * coef::AGG_ROW + groups * coef::GROUP_OUT;
                out.push(over(aggregate, cost));
            }
            RelExpr::UnionAll {
                cols,
                left_map,
                right_map,
                ..
            } => {
                let inputs_cost = self.cost(children[0])? + self.cost(children[1])?;
                let total = self.card(children[0]) + self.card(children[1]);
                let concat = PhysExpr::Concat {
                    left: stub(),
                    right: stub(),
                    cols: cols.iter().map(|c| c.id).collect(),
                    left_map: left_map.clone(),
                    right_map: right_map.clone(),
                };
                out.push(over(concat, inputs_cost + total * coef::CONCAT_ROW));
            }
            RelExpr::Except { right_map, .. } => {
                let inputs_cost = self.cost(children[0])? + self.cost(children[1])?;
                let (card_l, card_r) = (self.card(children[0]), self.card(children[1]));
                let except = PhysExpr::ExceptExec {
                    left: stub(),
                    right: stub(),
                    right_map: right_map.clone(),
                };
                let work = card_r * coef::HASH_BUILD_ROW + card_l * coef::HASH_PROBE_ROW;
                out.push(over(except, inputs_cost + work));
            }
            RelExpr::Max1Row { .. } => {
                let (child, _) = unary(self)?;
                out.push(over(PhysExpr::AssertMax1 { input: stub() }, child));
            }
            RelExpr::Enumerate { col, .. } => {
                let (child, card) = unary(self)?;
                let number = PhysExpr::RowNumber {
                    input: stub(),
                    col: col.id,
                };
                out.push(over(number, child + card * coef::TRIVIAL_ROW));
            }
        }
        Ok(out)
    }

    fn outs(&self, gid: GroupId) -> &'a BTreeSet<ColId> {
        &self.memo.props(gid).out
    }

    /// IndexSeek alternatives for `σ_p(Get)`: an index is usable when
    /// each indexed column has an equality conjunct against an
    /// *invocation constant* (literal or outer parameter).
    fn index_seek_alternatives(&self, predicate: &ScalarExpr, g_in: GroupId) -> Vec<Alt> {
        let est = &self.memo.est;
        let mut out = Vec::new();
        for expr in self.memo.exprs(g_in) {
            let RelExpr::Get(g) = &expr.shell else {
                continue;
            };
            // The index slot a column of this scan fills, if any.
            let base_of = |id: &ColId| Some(g.positions[g.cols.iter().position(|m| m.id == *id)?]);
            let is_own = |c: &ColId| g.cols.iter().any(|m| m.id == *c);
            for index in &g.indexes {
                // Find probes: base position → probe expression.
                let mut probes: Vec<Option<ScalarExpr>> = vec![None; index.len()];
                let mut residual: Vec<ScalarExpr> = Vec::new();
                for c in predicate.conjuncts() {
                    let sides = match &c {
                        ScalarExpr::Cmp {
                            op: orthopt_ir::CmpOp::Eq,
                            left,
                            right,
                        } => vec![(left, right), (right, left)],
                        _ => vec![],
                    };
                    let probe = sides.into_iter().find_map(|(col, probe)| {
                        let ScalarExpr::Column(id) = col.as_ref() else {
                            return None;
                        };
                        let base = base_of(id)?;
                        let slot = index.iter().position(|&b| b == base)?;
                        let constant = !probe.cols().iter().any(is_own) && !probe.has_subquery();
                        (constant && probes[slot].is_none()).then_some((slot, probe))
                    });
                    match probe {
                        Some((slot, probe)) => probes[slot] = Some((**probe).clone()),
                        None => residual.push(c),
                    }
                }
                if probes.iter().any(Option::is_none) {
                    continue;
                }
                let probes: Vec<ScalarExpr> = probes.into_iter().flatten().collect();
                let ndv: f64 = index
                    .iter()
                    .map(|&base| {
                        g.positions
                            .iter()
                            .position(|&p| p == base)
                            .map_or(100.0, |i| est.stats.ndv(g.cols[i].id))
                    })
                    .product();
                let matched = (g.row_count / ndv.max(1.0)).max(1.0);
                let seek = PhysExpr::IndexSeek {
                    table: g.table,
                    positions: g.positions.clone(),
                    cols: g.cols.iter().map(|c| c.id).collect(),
                    index_cols: index.clone(),
                    probes,
                };
                let mut cost = coef::INDEX_PROBE + matched * coef::INDEX_ROW;
                let plan = if residual.is_empty() {
                    seek
                } else {
                    cost += matched * coef::FILTER_ROW;
                    PhysExpr::Filter {
                        input: Box::new(seek),
                        predicate: ScalarExpr::and(residual),
                    }
                };
                out.push(Alt::new(plan, vec![], cost));
            }
        }
        out
    }

    /// Attempts to fuse a correlated Apply whose cheapest inner plan is
    /// seek-shaped — `[ProjectCols] ∘ [Filter] ∘ IndexSeek` with at
    /// least one probe referencing an outer parameter — into an
    /// [`PhysExpr::IndexLookupJoin`].
    ///
    /// Index columns are canonicalized to ascending base-position order
    /// (probes permuted in lockstep) so the executor can validate the
    /// probe-to-index pairing against the storage layer's canonical
    /// index selection.
    fn index_lookup_alternative(
        &self,
        kind: ApplyKind,
        left_cost: f64,
        (g_l, g_r): (GroupId, GroupId),
        params: &[ColId],
        distinct: f64,
    ) -> Option<Alt> {
        // Peel projection/filter wrappers down to the seek itself. The
        // outermost projection fixes the operator's output; filters
        // accumulate into the residual. For Semi/Anti the inner's
        // output is discarded entirely, so error-free 1:1 Compute nodes
        // (e.g. the `select 1` literal of EXISTS) peel away too.
        let is_semi = matches!(kind, ApplyKind::Semi | ApplyKind::Anti);
        let right = self.build(g_r);
        let mut node = &right;
        let mut proj_cols: Option<Vec<ColId>> = None;
        let mut residual_parts: Vec<ScalarExpr> = Vec::new();
        loop {
            match node {
                PhysExpr::ProjectCols { input, cols } => {
                    if proj_cols.is_none() {
                        proj_cols = Some(cols.clone());
                    }
                    node = input;
                }
                PhysExpr::Compute { input, defs }
                    if is_semi
                        && defs.iter().all(|(_, e)| {
                            matches!(e, ScalarExpr::Literal(_) | ScalarExpr::Column(_))
                        }) =>
                {
                    node = input;
                }
                PhysExpr::Filter { input, predicate } => {
                    residual_parts.extend(predicate.conjuncts());
                    node = input;
                }
                _ => break,
            }
        }
        let residual = ScalarExpr::and(residual_parts);
        let PhysExpr::IndexSeek {
            table,
            positions,
            cols: fetch_cols,
            index_cols,
            probes,
        } = node
        else {
            return None;
        };
        let param_set: BTreeSet<ColId> = params.iter().copied().collect();
        // Every probe must be evaluable from the outer row alone, and
        // at least one must actually consume a parameter — otherwise
        // the seek is invariant and caching strategies already cover it.
        let mut probe_cols = BTreeSet::new();
        for p in probes {
            probe_cols.extend(p.cols());
        }
        if probe_cols.is_empty() || !probe_cols.iter().all(|c| param_set.contains(c)) {
            return None;
        }
        // The residual runs over fetched rows with outer bindings.
        if residual.has_subquery() {
            return None;
        }
        let fetch_set: BTreeSet<ColId> = fetch_cols.iter().copied().collect();
        if !residual
            .cols()
            .iter()
            .all(|c| fetch_set.contains(c) || param_set.contains(c))
        {
            return None;
        }
        // Canonicalize: sort index columns ascending, probes in
        // lockstep. Duplicate index columns never pair cleanly.
        let mut order: Vec<usize> = (0..index_cols.len()).collect();
        order.sort_by_key(|&i| index_cols[i]);
        let index_cols: Vec<usize> = order.iter().map(|&i| index_cols[i]).collect();
        if index_cols.windows(2).any(|w| w[0] >= w[1]) {
            return None;
        }
        let probes: Vec<ScalarExpr> = order.iter().map(|&i| probes[i].clone()).collect();
        // Dedup key = the parameters the fused operator actually reads.
        let mut used: BTreeSet<ColId> = probe_cols;
        used.extend(
            residual
                .cols()
                .into_iter()
                .filter(|c| param_set.contains(c)),
        );
        let op_params: Vec<ColId> = params
            .iter()
            .copied()
            .filter(|c| used.contains(c))
            .collect();
        // Semi/Anti discard the inner's output (only row existence
        // matters — and the peeled projection may name computed columns
        // the fused operator cannot produce), so project nothing.
        let out_cols = if is_semi {
            Vec::new()
        } else {
            proj_cols.unwrap_or_else(|| fetch_cols.clone())
        };
        if !out_cols.iter().all(|c| fetch_cols.contains(c)) {
            return None;
        }
        let (positions, fetch_cols) = fetched(positions, fetch_cols, &out_cols, &residual.cols());
        // Rows fetched per probe: the inner group's estimated output
        // cardinality (a slight underestimate when a residual trims
        // it further, which only makes the race conservative).
        let matched = self.card(g_r).max(1.0);
        let cost = index_lookup_cost(
            left_cost,
            self.card(g_l),
            distinct,
            matched,
            !residual.is_true(),
        );
        Some(Alt {
            plan: PhysExpr::IndexLookupJoin {
                kind,
                left: stub(),
                table: *table,
                positions,
                fetch_cols,
                index_cols,
                probes,
                residual,
                cols: out_cols,
                params: op_params,
            },
            inputs: vec![g_l],
            cost,
        })
    }
}
