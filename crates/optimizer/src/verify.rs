//! Per-rule invocation of the static plan verifier during exploration.
//!
//! Every alternative a transformation rule emits is materialized
//! against the memo's group representatives and checked in fragment
//! mode *before* it enters the memo; the winning physical plan is
//! checked once more for physical legality. Violations blame the rule
//! by name. All of this compiles away without the `plancheck` feature.

use orthopt_exec::PhysExpr;

use crate::memo::{Memo, RTree};

#[cfg(feature = "plancheck")]
mod imp {
    use super::{Memo, PhysExpr, RTree};
    use orthopt_common::Result;
    use orthopt_ir::explain;
    use orthopt_plancheck as plancheck;

    /// Checks one rule output (fragment mode: memo groups may be inner
    /// fragments of `Apply`/`SegmentApply`, so free columns are legal).
    pub fn check_rule_output(memo: &Memo, rule: &'static str, rtree: &RTree) -> Result<()> {
        if !plancheck::enabled() {
            return Ok(());
        }
        let rel = memo.materialize(rtree);
        let violations = plancheck::check_logical(&rel);
        if violations.is_empty() {
            return Ok(());
        }
        Err(plancheck::BlameReport {
            rule: rule.to_owned(),
            identity: None,
            violations,
            before: String::new(),
            after: explain::explain(&rel),
        }
        .into_error())
    }

    /// Checks the extracted physical plan (Exchange grammar, widths,
    /// operator wiring).
    pub fn check_final_plan(plan: &PhysExpr) -> Result<()> {
        if !plancheck::enabled() {
            return Ok(());
        }
        let violations = plancheck::check_physical(plan);
        if violations.is_empty() {
            return Ok(());
        }
        Err(plancheck::BlameReport {
            rule: "physical_gen::best".to_owned(),
            identity: None,
            violations,
            before: String::new(),
            after: orthopt_exec::explain_phys(plan),
        }
        .into_error())
    }
}

#[cfg(not(feature = "plancheck"))]
mod imp {
    use super::{Memo, PhysExpr, RTree};
    use orthopt_common::Result;

    /// No-op without the `plancheck` feature.
    pub fn check_rule_output(_memo: &Memo, _rule: &'static str, _rtree: &RTree) -> Result<()> {
        Ok(())
    }

    /// No-op without the `plancheck` feature.
    pub fn check_final_plan(_plan: &PhysExpr) -> Result<()> {
        Ok(())
    }
}

pub use imp::{check_final_plan, check_rule_output};
