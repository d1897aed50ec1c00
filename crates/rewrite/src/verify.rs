//! Per-rule invocation of the static plan verifier.
//!
//! Every normalization pass and every individual Apply-removal push is
//! followed by a call into [`orthopt_plancheck`] (when the `plancheck`
//! cargo feature is compiled in *and* the runtime gate is on). A
//! violation aborts the rewrite with an [`orthopt_common::Error`]
//! carrying a blame report: rule name, identity number, first offending
//! node and before/after explains.
//!
//! Without the feature, every function here is a no-op that the
//! compiler removes entirely — release builds pay nothing.

use orthopt_common::Result;
use orthopt_ir::RelExpr;

/// Names the rule application being verified.
#[derive(Debug, Clone, Copy)]
pub struct RuleTag {
    /// Rewrite pass or rule name, e.g. `"apply_removal::push_once"`.
    pub rule: &'static str,
    /// Apply-removal identity number (1–9) when applicable.
    pub identity: Option<u8>,
}

impl RuleTag {
    /// Tag for a whole-tree normalization pass.
    pub const fn pass(rule: &'static str) -> Self {
        RuleTag {
            rule,
            identity: None,
        }
    }
}

#[cfg(feature = "plancheck")]
mod imp {
    use super::RuleTag;
    use orthopt_common::Result;
    use orthopt_ir::{explain, NullRejectWitness, RelExpr};
    use orthopt_plancheck as plancheck;
    use orthopt_plancheck::Violation;

    /// Whether verification should run right now (runtime gate).
    pub fn active() -> bool {
        plancheck::enabled()
    }

    fn blame(
        tag: RuleTag,
        before: Option<&RelExpr>,
        after: &RelExpr,
        violations: Vec<Violation>,
    ) -> Result<()> {
        plancheck::blame(tag.rule, tag.identity, violations, || {
            (
                before.map(explain::explain).unwrap_or_default(),
                explain::explain(after),
            )
        })
    }

    /// Fragment-mode check: outer references that resolve nowhere in the
    /// tree are treated as parameters (legal mid-rewrite).
    pub fn step(tag: RuleTag, before: Option<&RelExpr>, after: &RelExpr) -> Result<()> {
        if !active() {
            return Ok(());
        }
        blame(tag, before, after, plancheck::check_logical(after))
    }

    /// Closed-mode check: the tree must be self-contained — any residual
    /// outer reference is a correlation violation.
    pub fn step_closed(tag: RuleTag, before: Option<&RelExpr>, after: &RelExpr) -> Result<()> {
        if !active() {
            return Ok(());
        }
        blame(tag, before, after, plancheck::check_closed(after))
    }

    /// Outerjoin-simplification audit: structural check plus witness
    /// verification (conversion count must match recorded witnesses and
    /// each witness must be independently sound).
    pub fn step_outerjoin(
        tag: RuleTag,
        before: &RelExpr,
        after: &RelExpr,
        witnesses: &[NullRejectWitness],
    ) -> Result<()> {
        if !active() {
            return Ok(());
        }
        let mut violations = plancheck::check_logical(after);
        violations.extend(plancheck::check_witnesses(before, after, witnesses));
        blame(tag, Some(before), after, violations)
    }
}

#[cfg(not(feature = "plancheck"))]
mod imp {
    use super::RuleTag;
    use orthopt_common::Result;
    use orthopt_ir::{NullRejectWitness, RelExpr};

    /// Always false without the `plancheck` feature.
    pub fn active() -> bool {
        false
    }

    /// No-op without the `plancheck` feature.
    pub fn step(_tag: RuleTag, _before: Option<&RelExpr>, _after: &RelExpr) -> Result<()> {
        Ok(())
    }

    /// No-op without the `plancheck` feature.
    pub fn step_closed(_tag: RuleTag, _before: Option<&RelExpr>, _after: &RelExpr) -> Result<()> {
        Ok(())
    }

    /// No-op without the `plancheck` feature.
    pub fn step_outerjoin(
        _tag: RuleTag,
        _before: &RelExpr,
        _after: &RelExpr,
        _witnesses: &[NullRejectWitness],
    ) -> Result<()> {
        Ok(())
    }
}

pub use imp::{active, step, step_closed, step_outerjoin};

/// Clones `rel` only when verification is active, for use as the
/// `before` snapshot of a rule application.
pub fn snapshot(rel: &RelExpr) -> Option<RelExpr> {
    if active() {
        Some(rel.clone())
    } else {
        None
    }
}

/// Runs a named pass with before/after verification in fragment mode.
pub fn checked_pass<F>(rule: &'static str, rel: RelExpr, f: F) -> Result<RelExpr>
where
    F: FnOnce(RelExpr) -> Result<RelExpr>,
{
    let before = snapshot(&rel);
    let after = f(rel)?;
    step(RuleTag::pass(rule), before.as_ref(), &after)?;
    Ok(after)
}
