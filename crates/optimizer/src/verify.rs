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
        plancheck::blame(rule, None, plancheck::check_logical(&rel), || {
            (String::new(), explain::explain(&rel))
        })
    }

    /// Checks the extracted physical plan (Exchange grammar, widths,
    /// operator wiring).
    pub fn check_final_plan(plan: &PhysExpr) -> Result<()> {
        if !plancheck::enabled() {
            return Ok(());
        }
        plancheck::blame(
            "physical_gen::best",
            None,
            plancheck::check_physical(plan),
            || (String::new(), orthopt_exec::explain_phys(plan)),
        )
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
