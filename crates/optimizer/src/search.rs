//! The exploration loop: rules to fixpoint, then best-plan extraction.

use orthopt_common::Result;
use orthopt_exec::PhysExpr;
use orthopt_ir::{ApplyStrategy, RelExpr};
use orthopt_plancheck::{self as plancheck, Check, RuleTag};

use crate::cardinality::Estimator;
use crate::memo::{ExprId, Memo, RuleState, MAX_EXPRS};
use crate::narrow::narrow_index_lookups;
use crate::physical_gen::Planner;
use crate::rules;

/// Which rule families participate — the knobs behind the benchmark
/// harness's ablated "systems".
#[derive(Debug, Clone, Copy)]
pub struct OptimizerConfig {
    /// Join commutativity + associativity.
    pub join_reorder: bool,
    /// GroupBy reordering around joins/semijoins/outerjoins (§3.1–3.2).
    pub groupby_reorder: bool,
    /// LocalGroupBy split + pushdown (§3.3).
    pub local_aggregate: bool,
    /// SegmentApply introduction + join pushdown (§3.4).
    pub segment_apply: bool,
    /// Correlated-execution re-introduction (index-lookup joins).
    pub correlated_execution: bool,
    /// Worker-pool size for parallel execution; above 1 the planner
    /// places `Exchange` nodes where the cost model says they pay.
    pub parallelism: usize,
    /// Which correlated-execution strategies the Apply implementation
    /// rule may emit (`Auto` = all constructible ones, cost-raced;
    /// anything else forces a single strategy for differential runs).
    pub apply_strategy: ApplyStrategy,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            join_reorder: true,
            groupby_reorder: true,
            local_aggregate: true,
            segment_apply: true,
            correlated_execution: true,
            parallelism: 1,
            apply_strategy: ApplyStrategy::Auto,
        }
    }
}

impl OptimizerConfig {
    /// No exploration at all: implement the normalized tree as-is.
    pub fn none() -> Self {
        OptimizerConfig {
            join_reorder: false,
            groupby_reorder: false,
            local_aggregate: false,
            segment_apply: false,
            correlated_execution: false,
            ..OptimizerConfig::default()
        }
    }
}

/// Exploration statistics, for tests and EXPLAIN output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchStats {
    /// Number of memo groups after exploration.
    pub groups: usize,
    /// Number of logical expressions after exploration.
    pub exprs: usize,
    /// Estimated cost of the winning plan.
    pub best_cost: f64,
    /// Whether exploration was cut short by the expression valve
    /// instead of reaching its fixpoint.
    pub valve_hit: bool,
}

/// Optimizes a normalized logical tree into a physical plan plus
/// exploration statistics; `order_by` appends a presentation sort.
pub fn optimize_with_stats(
    rel: RelExpr,
    order_by: Vec<(orthopt_common::ColId, bool)>,
    config: &OptimizerConfig,
) -> Result<(PhysExpr, SearchStats)> {
    optimize_with_presentation(rel, order_by, None, config)
}

/// Like [`optimize_with_stats`] with an optional LIMIT at the root.
///
/// With the plancheck runtime gate on, every rule output is
/// materialized and statically verified *before* it enters the memo —
/// a violating alternative aborts optimization with a blame report
/// naming the rule — and the winning physical plan is checked for
/// physical legality (Exchange grammar, operator wiring).
pub fn optimize_with_presentation(
    rel: RelExpr,
    order_by: Vec<(orthopt_common::ColId, bool)>,
    limit: Option<usize>,
    config: &OptimizerConfig,
) -> Result<(PhysExpr, SearchStats)> {
    let mut used = rel.produced_cols();
    used.extend(rel.referenced_cols());
    let mut state = RuleState::after(used);
    let mut memo = Memo::new(Estimator::new(&rel));
    let root = memo.insert_tree(rel);
    let valve_hit = explore(&mut memo, &mut state, config)?;
    let mut planner = Planner::new(&memo, config.parallelism, config.apply_strategy);
    let (mut plan, best_cost) = planner.best(root)?;
    let stats = SearchStats {
        groups: memo.group_count(),
        exprs: memo.expr_count(),
        best_cost,
        valve_hit,
    };
    // Presentation: ORDER BY and LIMIT sit on top of whatever plan won.
    if !order_by.is_empty() {
        let input = Box::new(plan);
        plan = PhysExpr::Sort {
            input,
            by: order_by,
        };
    }
    if let Some(n) = limit {
        let input = Box::new(plan);
        plan = PhysExpr::Limit { input, n };
    }
    narrow_index_lookups(&mut plan);
    plancheck::verify(
        RuleTag::pass("physical_gen::best"),
        Check::Physical(&plan),
        None,
    )?;
    Ok((plan, stats))
}

/// Bottom-up exploration to a global fixpoint: every expression fires
/// every enabled rule once, and the two-level rules again whenever one
/// of its input groups has gained alternatives since. Returns whether
/// the expression valve cut exploration short.
pub(crate) fn explore(
    memo: &mut Memo,
    state: &mut RuleState,
    config: &OptimizerConfig,
) -> Result<bool> {
    loop {
        let mut progress = false;
        let mut next = 0;
        while next < memo.expr_ids() {
            let id = ExprId(next);
            next += 1;
            let Some(gid) = memo.owner(id) else {
                continue;
            };
            let Some(first) = memo.begin_firing(id) else {
                continue;
            };
            progress = true;
            let outputs = rules::apply_all(memo, gid, memo.expr(id), first, state, config);
            if state.overflowed {
                return Ok(true);
            }
            for (rule, rtree) in outputs {
                // Fragment mode: memo groups may be inner fragments of
                // an Apply or SegmentApply, so free columns are legal.
                // Materializing is the per-rule cost; the gate skips it.
                if plancheck::enabled() {
                    let rel = memo.materialize(&rtree);
                    plancheck::verify(RuleTag::pass(rule), Check::Fragment(&rel), None)?;
                }
                memo.add_expr(gid, rtree);
                if memo.expr_count() > MAX_EXPRS {
                    return Ok(true);
                }
            }
        }
        if !progress {
            return Ok(false);
        }
    }
}
