//! The normalization pipeline (§4, "query normalization").

use orthopt_common::Result;
use orthopt_ir::RelExpr;
use orthopt_plancheck::{self as plancheck, Check, RuleTag};

use crate::{apply_removal, max1row, outerjoin, prune, simplify, subquery, RewriteCtx};

/// Feature toggles for normalization. The defaults mirror the paper's
/// implementation; the benchmark harness dials features down to build
/// the ablated "systems" of the Figure 8/9 reproduction.
#[derive(Debug, Clone, Copy)]
pub struct RewriteConfig {
    /// Replace subquery markers by Apply (always possible; §2.2).
    /// Disabling leaves the mutually recursive form — only the reference
    /// interpreter can run it.
    pub remove_mutual_recursion: bool,
    /// Remove correlations with identities (1)–(9) (§2.3).
    pub decorrelate: bool,
    /// Unnest Class 2 subqueries by introducing common subexpressions
    /// (identities (5)/(6)/(7)). Off by default, as in the paper.
    pub unnest_class2: bool,
    /// Simplify outerjoins under null-rejecting predicates, including
    /// derivation through GroupBy.
    pub simplify_outerjoin: bool,
    /// Push filters toward the leaves (§3.1's filter/GroupBy reorder).
    pub push_predicates: bool,
    /// Prune unused columns.
    pub prune_columns: bool,
}

impl Default for RewriteConfig {
    fn default() -> Self {
        RewriteConfig {
            remove_mutual_recursion: true,
            decorrelate: true,
            unnest_class2: false,
            simplify_outerjoin: true,
            push_predicates: true,
            prune_columns: true,
        }
    }
}

impl RewriteConfig {
    /// The "correlated execution" baseline: subqueries become Applies
    /// (so the physical engine can run them) but no flattening happens.
    pub fn correlated_baseline() -> Self {
        RewriteConfig {
            remove_mutual_recursion: true,
            decorrelate: false,
            unnest_class2: false,
            simplify_outerjoin: false,
            push_predicates: true,
            prune_columns: true,
        }
    }
}

/// Runs the full normalization pipeline over a bound tree.
///
/// With the plancheck runtime gate on, every pass is followed by a
/// static invariant check; `apply_removal` further verifies after every
/// individual identity push. A violation surfaces as
/// [`orthopt_common::Error::Plancheck`] blaming the offending pass.
pub fn normalize(rel: RelExpr, config: RewriteConfig) -> Result<RelExpr> {
    let mut ctx = RewriteCtx::for_tree(&rel, config);
    let mut rel = rel;

    // Composite aggregates first so every later pass sees splittable
    // aggregates only.
    rel = checked_pass("simplify::expand_composite_aggs", rel, |r| {
        Ok(simplify::expand_composite_aggs(r, &mut ctx))
    })?;

    if config.remove_mutual_recursion {
        rel = checked_pass("subquery::remove_mutual_recursion", rel, |r| {
            subquery::remove_mutual_recursion(r, &mut ctx)
        })?;
    }
    rel = checked_pass("max1row::eliminate_max1row", rel, |r| {
        Ok(max1row::eliminate_max1row(r))
    })?;
    if config.prune_columns {
        // Early pruning drops dead computed columns (e.g. the constant
        // of `EXISTS (SELECT 1 …)`) that would otherwise block Apply
        // pushes through non-strict Maps.
        rel = checked_pass("prune::prune_columns", rel, |r| Ok(prune::prune_columns(r)))?;
    }
    if config.decorrelate {
        // remove_applies self-verifies after every individual identity
        // push (with the identity number in the blame report).
        rel = apply_removal::remove_applies(rel, &mut ctx)?;
    }
    // Two rounds: outerjoin simplification can expose new pushdown
    // opportunities and vice versa.
    for _ in 0..2 {
        rel = checked_pass("simplify::simplify", rel, |r| Ok(simplify::simplify(r)))?;
        if config.simplify_outerjoin {
            let before = plancheck::enabled().then(|| rel.clone());
            let mut witnesses = Vec::new();
            rel = outerjoin::simplify_outerjoins_audited(rel, &mut witnesses);
            plancheck::verify(
                RuleTag::pass("outerjoin::simplify_outerjoins"),
                Check::Outerjoin(&rel, &witnesses),
                before.as_ref(),
            )?;
        }
        if config.push_predicates {
            rel = checked_pass("simplify::push_down_predicates", rel, |r| {
                Ok(simplify::push_down_predicates(r))
            })?;
        }
    }
    rel = checked_pass("simplify::simplify", rel, |r| Ok(simplify::simplify(r)))?;
    if config.prune_columns {
        rel = checked_pass("prune::prune_columns", rel, |r| Ok(prune::prune_columns(r)))?;
    }
    // The normalized tree must be self-contained: any residual outer
    // reference at this point is a correlation-scoping bug.
    plancheck::verify(
        RuleTag::pass("pipeline::normalize"),
        Check::Closed(&rel),
        None,
    )?;
    Ok(rel)
}

/// Runs the pass `rule` over `rel`, then verifies its output in fragment
/// mode; the `before` snapshot is cloned only with the gate on.
fn checked_pass<F>(rule: &'static str, rel: RelExpr, f: F) -> Result<RelExpr>
where
    F: FnOnce(RelExpr) -> Result<RelExpr>,
{
    let before = plancheck::enabled().then(|| rel.clone());
    let after = f(rel)?;
    plancheck::verify(
        RuleTag::pass(rule),
        Check::Fragment(&after),
        before.as_ref(),
    )?;
    Ok(after)
}

/// Diagnostic summary of what normalization left behind, used by tests
/// and the subquery-class reporting in examples.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NormalForm {
    /// Remaining Apply operators (Class 2 without the flag / Class 3).
    pub applies: usize,
    /// Remaining Max1Row operators (Class 3 markers).
    pub max1rows: usize,
    /// Remaining subquery markers (only when mutual recursion removal
    /// was disabled).
    pub subquery_markers: usize,
}

/// Counts the residual correlated constructs in a tree.
pub fn classify(rel: &RelExpr) -> NormalForm {
    let mut out = NormalForm::default();
    rel.walk(&mut |r| match r {
        RelExpr::Apply { .. } => out.applies += 1,
        RelExpr::Max1Row { .. } => out.max1rows += 1,
        _ => {}
    });
    rel.walk_scalars(&mut |e| {
        if matches!(
            e,
            orthopt_ir::ScalarExpr::Subquery(_)
                | orthopt_ir::ScalarExpr::Exists { .. }
                | orthopt_ir::ScalarExpr::InSubquery { .. }
                | orthopt_ir::ScalarExpr::QuantifiedCmp { .. }
        ) {
            out.subquery_markers += 1;
        }
    });
    out
}
