#![warn(missing_docs)]
//! Static plan-invariant verifier for `orthopt`.
//!
//! The paper's claim is that many small orthogonal rewrites — the
//! Apply-removal identities (1)–(9), GroupBy reordering, LocalGroupBy
//! splits, outerjoin simplification — compose safely. That only holds
//! if every intermediate plan preserves a handful of invariants, and a
//! rule that silently breaks one is only caught much later as a wrong
//! answer. This crate checks the invariants *statically*, per node:
//!
//! * **(a) schema/arity propagation** — every column reference resolves
//!   in the node's visible scope; positional maps (`UnionAll`,
//!   `Except`, `Concat`) have matching widths.
//! * **(b) correlation scoping** — free variables of an `Apply` /
//!   `SegmentApply` inner side are a subset of the outer side's
//!   bindings, and fully decorrelated plans ([`check_closed`]) contain
//!   zero residual outer references.
//! * **(c) GroupBy soundness** — aggregate inputs and grouping keys are
//!   drawn from the child's output, and every LocalGroupBy is combined
//!   above by a global GroupBy that reconstructs the original aggregate
//!   through [`AggFunc::split`](orthopt_ir::AggFunc::split).
//! * **(d) outerjoin-simplification audit** — every `LOJ → Join`
//!   conversion carries a checkable null-rejecting witness
//!   ([`orthopt_ir::NullRejectWitness`]), re-verified here.
//! * **(e) physical legality** — `Exchange` placement obeys the shape
//!   grammar in `orthopt-exec::parallel`, and widths/scopes are
//!   consistent along pipelines.
//!
//! The rewrite pipeline and the optimizer call [`verify`] after every
//! individual rule application, naming the rule in a [`RuleTag`] and
//! the check to run in a [`Check`]; it does nothing unless the runtime
//! gate ([`enabled`]) is on. The plan cache's admission check runs the
//! same checks ungated through [`verify_ungated`]. A failure is reported
//! as a [`BlameReport`] naming the rule, the Apply-removal identity
//! number when applicable, the first offending node and before/after
//! plan explains.

use orthopt_synccheck::sync::atomic::{AtomicU8, Ordering};
use std::fmt;
use std::sync::OnceLock;

use orthopt_common::Error;
use orthopt_exec::PhysExpr;
use orthopt_ir::{explain, JoinKind, NullRejectWitness, RelExpr};

mod logical;
mod physical;

pub use logical::{check_closed, check_logical};
pub use physical::check_physical;

/// Which invariant family a violation belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckKind {
    /// A column reference that does not resolve in its visible scope.
    Scope,
    /// A positional map / width mismatch.
    Arity,
    /// Correlation scoping: a sibling leak or a residual outer reference.
    Correlation,
    /// GroupBy soundness, including LocalGroupBy reconstruction.
    GroupBy,
    /// An outerjoin conversion whose null-rejection witness fails.
    Witness,
    /// Physical plan legality (Exchange grammar, operator wiring).
    Physical,
}

impl fmt::Display for CheckKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CheckKind::Scope => "scope",
            CheckKind::Arity => "arity",
            CheckKind::Correlation => "correlation",
            CheckKind::GroupBy => "groupby",
            CheckKind::Witness => "witness",
            CheckKind::Physical => "physical",
        };
        f.write_str(s)
    }
}

/// One invariant violation, anchored at the first offending node.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Invariant family.
    pub kind: CheckKind,
    /// One-line description of the offending node.
    pub node: String,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] at {}: {}", self.kind, self.node, self.message)
    }
}

/// A violation report blaming the rule application that introduced it.
#[derive(Debug, Clone)]
pub struct BlameReport {
    /// Name of the rewrite pass or optimizer rule.
    pub rule: String,
    /// Apply-removal identity number (1–9) when the rule is one of the
    /// paper's identities.
    pub identity: Option<u8>,
    /// The violations, first offending node first.
    pub violations: Vec<Violation>,
    /// Plan explain before the rule ran (empty when not captured).
    pub before: String,
    /// Plan explain after the rule ran.
    pub after: String,
}

impl BlameReport {
    /// Wraps the report into the shared error type.
    pub fn into_error(self) -> Error {
        Error::Plancheck(self.to_string())
    }
}

/// Names the rule application being verified.
#[derive(Debug, Clone, Copy)]
pub struct RuleTag {
    /// Rewrite pass or rule name, e.g. `"apply_removal::push_once"`.
    pub rule: &'static str,
    /// Apply-removal identity number (1–9) when applicable.
    pub identity: Option<u8>,
}

impl RuleTag {
    /// Tag for a rule that is not one of the paper's identities.
    pub const fn pass(rule: &'static str) -> Self {
        RuleTag {
            rule,
            identity: None,
        }
    }
}

/// The check a rule application is verified with.
#[derive(Debug, Clone, Copy)]
pub enum Check<'a> {
    /// Fragment mode ([`check_logical`]): references to columns produced
    /// nowhere in the tree are outer parameters, legal mid-rewrite.
    Fragment(&'a RelExpr),
    /// Closed mode ([`check_closed`]): the tree must be self-contained.
    Closed(&'a RelExpr),
    /// Outerjoin simplification: the fragment check plus the witness
    /// audit ([`check_witnesses`]) of the recorded witnesses against the
    /// `before` tree (the audit needs it; without it only the fragment
    /// check runs).
    Outerjoin(&'a RelExpr, &'a [NullRejectWitness]),
    /// Physical legality ([`check_physical`]).
    Physical(&'a PhysExpr),
    /// A finished plan: its logical tree in closed mode and its physical
    /// tree for legality.
    Plan(&'a RelExpr, &'a PhysExpr),
}

/// Runs `check` for the rule application `tag` when the runtime gate
/// ([`enabled`]) is on; with it off, returns `Ok` at once. See
/// [`verify_ungated`] for what a violation reports.
pub fn verify(tag: RuleTag, check: Check<'_>, before: Option<&RelExpr>) -> Result<(), Error> {
    if !enabled() {
        return Ok(());
    }
    verify_ungated(tag, check, before)
}

/// Runs `check` regardless of the runtime gate. `Ok` when it finds no
/// violation; otherwise a [`BlameReport`] blaming `tag`, with the
/// explains of `before` (the tree the rule started from, when captured)
/// and of the checked tree — rendered only then.
pub fn verify_ungated(
    tag: RuleTag,
    check: Check<'_>,
    before: Option<&RelExpr>,
) -> Result<(), Error> {
    let violations = match check {
        Check::Fragment(rel) => check_logical(rel),
        Check::Closed(rel) => check_closed(rel),
        Check::Outerjoin(rel, witnesses) => {
            let mut violations = check_logical(rel);
            if let Some(before) = before {
                violations.extend(check_witnesses(before, rel, witnesses));
            }
            violations
        }
        Check::Physical(plan) => check_physical(plan),
        Check::Plan(rel, plan) => {
            let mut violations = check_closed(rel);
            violations.extend(check_physical(plan));
            violations
        }
    };
    if violations.is_empty() {
        return Ok(());
    }
    let after = match check {
        Check::Fragment(rel) | Check::Closed(rel) | Check::Outerjoin(rel, _) => {
            explain::explain(rel)
        }
        Check::Physical(plan) | Check::Plan(_, plan) => orthopt_exec::explain_phys(plan),
    };
    Err(BlameReport {
        rule: tag.rule.to_owned(),
        identity: tag.identity,
        violations,
        before: before.map(explain::explain).unwrap_or_default(),
        after,
    }
    .into_error())
}

impl fmt::Display for BlameReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rule `{}`", self.rule)?;
        if let Some(n) = self.identity {
            write!(f, " (identity ({n}))")?;
        }
        writeln!(f, " broke {} plan invariant(s):", self.violations.len())?;
        for v in &self.violations {
            writeln!(f, "  {v}")?;
        }
        if !self.before.is_empty() {
            writeln!(f, "before:")?;
            for line in self.before.lines() {
                writeln!(f, "  {line}")?;
            }
        }
        if !self.after.is_empty() {
            writeln!(f, "after:")?;
            for line in self.after.lines() {
                writeln!(f, "  {line}")?;
            }
        }
        Ok(())
    }
}

/// Audits outerjoin simplification: the number of `LOJ → Join`
/// conversions between `before` and `after` must equal the number of
/// recorded witnesses, and every witness must verify on its own.
pub fn check_witnesses(
    before: &RelExpr,
    after: &RelExpr,
    witnesses: &[NullRejectWitness],
) -> Vec<Violation> {
    let mut out = Vec::new();
    let converted = count_loj(before).saturating_sub(count_loj(after));
    if converted != witnesses.len() {
        out.push(Violation {
            kind: CheckKind::Witness,
            node: "Select/LeftOuterJoin".into(),
            message: format!(
                "{converted} LOJ→Join conversion(s) but {} null-rejection witness(es) recorded",
                witnesses.len()
            ),
        });
    }
    for w in witnesses {
        if let Err(reason) = w.verify() {
            out.push(Violation {
                kind: CheckKind::Witness,
                node: "LeftOuterJoin".into(),
                message: format!("unsound LOJ→Join witness: {reason}"),
            });
        }
    }
    out
}

/// Number of left-outer joins in the tree (including subquery bodies).
pub fn count_loj(rel: &RelExpr) -> usize {
    let mut n = 0;
    rel.walk(&mut |r| {
        if matches!(
            r,
            RelExpr::Join {
                kind: JoinKind::LeftOuter,
                ..
            }
        ) {
            n += 1;
        }
    });
    n
}

// --- runtime gate -------------------------------------------------------

/// 0 = unset (env / profile default), 1 = forced off, 2 = forced on.
static FORCE: AtomicU8 = AtomicU8::new(0);

/// Programmatic override of [`enabled`]; tests use this to exercise the
/// verifier in release builds.
pub fn set_enabled(on: bool) {
    // relaxed-ok: an isolated tri-state toggle; readers act on the value
    // alone and no other memory is published through it.
    FORCE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Whether per-rule verification should run. Defaults to on in debug
/// builds and off in release; the `ORTHOPT_PLANCHECK` environment
/// variable (`1`/`0`) overrides the profile default, and
/// [`set_enabled`] overrides both.
pub fn enabled() -> bool {
    // relaxed-ok: see set_enabled().
    match FORCE.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => {
            static ENV: OnceLock<Option<bool>> = OnceLock::new();
            let env = ENV.get_or_init(|| match std::env::var("ORTHOPT_PLANCHECK") {
                Ok(v) if v == "1" || v.eq_ignore_ascii_case("true") => Some(true),
                Ok(v) if v == "0" || v.eq_ignore_ascii_case("false") => Some(false),
                _ => None,
            });
            env.unwrap_or(cfg!(debug_assertions))
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use orthopt_common::{ColId, DataType, TableId, Value};
    use orthopt_exec::PhysExpr;
    use orthopt_ir::{AggDef, AggFunc, ColumnMeta, GroupKind, ScalarExpr};

    use super::*;

    fn const_rel(ids: &[u32]) -> RelExpr {
        RelExpr::ConstRel {
            cols: ids
                .iter()
                .map(|&id| ColumnMeta::new(ColId(id), format!("c{id}"), DataType::Int, true))
                .collect(),
            rows: vec![vec![Value::Int(0); ids.len()]],
        }
    }

    fn loj(left: RelExpr, right: RelExpr) -> RelExpr {
        RelExpr::Join {
            kind: JoinKind::LeftOuter,
            left: Box::new(left),
            right: Box::new(right),
            predicate: ScalarExpr::true_(),
        }
    }

    #[test]
    fn witness_audit_counts_conversions() {
        let before = loj(const_rel(&[1]), const_rel(&[2]));
        let after = RelExpr::Join {
            kind: JoinKind::Inner,
            left: Box::new(const_rel(&[1])),
            right: Box::new(const_rel(&[2])),
            predicate: ScalarExpr::true_(),
        };
        // One conversion, zero witnesses: the audit fires.
        let vs = check_witnesses(&before, &after, &[]);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].kind, CheckKind::Witness);
        // No conversion, no witnesses: clean.
        assert!(check_witnesses(&before, &before, &[]).is_empty());
    }

    #[test]
    fn witness_audit_reverifies_each_witness() {
        let before = loj(const_rel(&[1]), const_rel(&[2]));
        let after = const_rel(&[1]);
        // Count matches, but TRUE rejects no NULLs on the padded side.
        let bogus = NullRejectWitness {
            predicate: ScalarExpr::true_(),
            padded_cols: BTreeSet::from([ColId(2)]),
            via_groupby: None,
        };
        let vs = check_witnesses(&before, &after, &[bogus]);
        assert_eq!(vs.len(), 1);
        assert!(vs[0].message.contains("unsound"), "{}", vs[0].message);
        // A genuinely null-rejecting predicate passes.
        let sound = NullRejectWitness {
            predicate: ScalarExpr::eq(ScalarExpr::col(ColId(2)), ScalarExpr::lit(1i64)),
            padded_cols: BTreeSet::from([ColId(2)]),
            via_groupby: None,
        };
        assert!(check_witnesses(&before, &after, &[sound]).is_empty());
    }

    #[test]
    fn const_scan_columns_must_be_monotyped() {
        // NULLs fit any column; a mixed int/str column does not.
        let ok = PhysExpr::const_rows(
            vec![ColId(1), ColId(2)],
            &[
                vec![Value::Int(1), Value::Null],
                vec![Value::Null, Value::Str("x".into())],
            ],
        );
        assert!(check_physical(&ok).is_empty());
        let mixed = PhysExpr::const_rows(
            vec![ColId(1)],
            &[vec![Value::Int(1)], vec![Value::Str("x".into())]],
        );
        let vs = check_physical(&mixed);
        assert_eq!(vs.len(), 1);
        assert!(vs[0].message.contains("mixes"), "{}", vs[0].message);
    }

    #[test]
    fn count_loj_walks_the_whole_tree() {
        let nested = loj(loj(const_rel(&[1]), const_rel(&[2])), const_rel(&[3]));
        assert_eq!(count_loj(&nested), 2);
        assert_eq!(count_loj(&const_rel(&[1])), 0);
    }

    #[test]
    fn fragment_allows_outer_params_closed_does_not() {
        // A Select whose predicate references a column produced nowhere
        // in the fragment: an outer parameter in fragment mode, a
        // residual correlation in closed mode.
        let frag = RelExpr::Select {
            input: Box::new(const_rel(&[1])),
            predicate: ScalarExpr::eq(ScalarExpr::col(ColId(1)), ScalarExpr::col(ColId(99))),
        };
        assert!(check_logical(&frag).is_empty());
        let vs = check_closed(&frag);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].kind, CheckKind::Correlation);
    }

    #[test]
    fn local_groupby_split_pairs_are_checked() {
        let local = RelExpr::GroupBy {
            kind: GroupKind::Local,
            input: Box::new(const_rel(&[1, 2])),
            group_cols: vec![ColId(1)],
            aggs: vec![AggDef::new(
                ColumnMeta::new(ColId(3), "ln", DataType::Int, false),
                AggFunc::CountStar,
                None,
            )],
        };
        let global = |f: AggFunc| RelExpr::GroupBy {
            kind: GroupKind::Vector,
            input: Box::new(local.clone()),
            group_cols: vec![ColId(1)],
            aggs: vec![AggDef::new(
                ColumnMeta::new(ColId(4), "n", DataType::Int, false),
                f,
                Some(ScalarExpr::col(ColId(3))),
            )],
        };
        // COUNT(*) partials combine with SUM (AggFunc::split pair).
        assert!(check_closed(&global(AggFunc::Sum)).is_empty());
        // ...but not with MIN.
        let vs = check_closed(&global(AggFunc::Min));
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].kind, CheckKind::GroupBy);
        // A LocalGroupBy never combined at all is a closed-mode error.
        let orphan = check_closed(&local);
        assert!(orphan.iter().any(|v| v.kind == CheckKind::GroupBy));
        assert!(
            check_logical(&local).is_empty(),
            "fragments may defer combining"
        );
    }

    #[test]
    fn exchange_grammar_is_enforced() {
        let scan = PhysExpr::TableScan {
            table: TableId(0),
            positions: vec![0],
            cols: vec![ColId(1)],
        };
        let good = PhysExpr::Exchange {
            input: Box::new(scan.clone()),
        };
        assert!(check_physical(&good).is_empty());
        let bad = PhysExpr::Exchange {
            input: Box::new(good),
        };
        let vs = check_physical(&bad);
        assert_eq!(vs.len(), 1);
        assert!(vs[0].message.contains("shape grammar"), "{}", vs[0].message);
    }

    #[test]
    fn set_enabled_overrides_profile_default() {
        // The only test in this binary touching the FORCE gate.
        set_enabled(false);
        assert!(!enabled());
        set_enabled(true);
        assert!(enabled());
    }

    #[test]
    fn blame_report_renders_rule_identity_and_violations() {
        let report = BlameReport {
            rule: "apply_removal::push_once".into(),
            identity: Some(7),
            violations: vec![Violation {
                kind: CheckKind::Scope,
                node: "Select".into(),
                message: "predicate references c99".into(),
            }],
            before: "Apply".into(),
            after: "Join".into(),
        };
        let rendered = report.to_string();
        assert!(rendered.contains("rule `apply_removal::push_once`"));
        assert!(rendered.contains("identity (7)"));
        assert!(rendered.contains("[scope] at Select"));
        let err = report.into_error();
        assert!(matches!(err, Error::Plancheck(_)));
    }
}
