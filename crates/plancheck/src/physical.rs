//! Invariant checks over physical plans ([`PhysExpr`]).
//!
//! Physical plans are always complete when checked, so every column
//! reference must resolve: in the operator's input layouts, or — inside
//! an `ApplyLoop` inner plan — in the declared parameter set, or —
//! inside a `SegmentExec` inner plan — through a `SegmentScan` over the
//! enclosing segment. In addition, `Exchange` placement must obey the
//! shape grammar of `orthopt-exec::parallel` (invariant e): the checker
//! defers to [`orthopt_exec::exchange_eligible`], the same predicate the
//! planner uses, so an Exchange the runtime cannot execute in parallel
//! is flagged at plan time.

use std::collections::BTreeSet;

use orthopt_common::{ColData, ColId};
use orthopt_exec::PhysExpr;
use orthopt_ir::{AggFunc, GroupKind, ScalarExpr};

use crate::logical::valid_split_pair;
use crate::{CheckKind, Violation};

/// Checks a complete physical plan.
pub fn check_physical(p: &PhysExpr) -> Vec<Violation> {
    let mut cx = PhysCx { out: Vec::new() };
    let scope = PhysScope::default();
    cx.check(p, &scope);
    let mut ancestors: Vec<&PhysExpr> = Vec::new();
    cx.check_locals(p, &mut ancestors);
    cx.out
}

fn describe(p: &PhysExpr) -> String {
    match p {
        PhysExpr::TableScan { .. } => "TableScan".into(),
        PhysExpr::IndexSeek { .. } => "IndexSeek".into(),
        PhysExpr::Filter { .. } => "Filter".into(),
        PhysExpr::Compute { .. } => "Compute".into(),
        PhysExpr::ProjectCols { .. } => "ProjectCols".into(),
        PhysExpr::HashJoin { kind, .. } => format!("HashJoin({kind})"),
        PhysExpr::ApplyLoop { kind, .. } => format!("ApplyLoop({kind})"),
        PhysExpr::IndexLookupJoin { kind, .. } => format!("IndexLookupJoin({kind})"),
        PhysExpr::SegmentExec { .. } => "SegmentExec".into(),
        PhysExpr::SegmentScan { .. } => "SegmentScan".into(),
        PhysExpr::HashAggregate { kind, .. } => format!("HashAggregate({kind})"),
        PhysExpr::Concat { .. } => "Concat".into(),
        PhysExpr::ExceptExec { .. } => "ExceptExec".into(),
        PhysExpr::AssertMax1 { .. } => "AssertMax1".into(),
        PhysExpr::RowNumber { .. } => "RowNumber".into(),
        PhysExpr::ConstScan { .. } => "ConstScan".into(),
        PhysExpr::Sort { .. } => "Sort".into(),
        PhysExpr::Limit { .. } => "Limit".into(),
        PhysExpr::Exchange { .. } => "Exchange".into(),
        PhysExpr::MorselScan { .. } => "MorselScan".into(),
    }
}

#[derive(Clone, Default)]
struct PhysScope {
    /// Parameters bound by enclosing `ApplyLoop`s.
    params: BTreeSet<ColId>,
    /// Stack of segment layouts from enclosing `SegmentExec`s.
    segments: Vec<BTreeSet<ColId>>,
}

struct PhysCx {
    out: Vec<Violation>,
}

impl PhysCx {
    fn violation(&mut self, kind: CheckKind, p: &PhysExpr, message: String) {
        self.out.push(Violation {
            kind,
            node: describe(p),
            message,
        });
    }

    fn refs(
        &mut self,
        e: &ScalarExpr,
        visible: &BTreeSet<ColId>,
        scope: &PhysScope,
        p: &PhysExpr,
        what: &str,
    ) {
        for c in e.cols() {
            if !visible.contains(&c) && !scope.params.contains(&c) {
                self.violation(
                    CheckKind::Physical,
                    p,
                    format!("{what} references {c}, which no input or parameter provides"),
                );
            }
        }
    }

    fn cols_in(&mut self, cols: &[ColId], provided: &BTreeSet<ColId>, p: &PhysExpr, what: &str) {
        for c in cols {
            if !provided.contains(c) {
                self.violation(
                    CheckKind::Physical,
                    p,
                    format!("{what} column {c} is not produced by the corresponding input"),
                );
            }
        }
    }

    #[allow(clippy::too_many_lines)]
    fn check(&mut self, p: &PhysExpr, scope: &PhysScope) {
        // Duplicate ids in an operator's output layout break positional
        // lookup downstream.
        let outs = p.out_cols();
        let distinct: BTreeSet<ColId> = outs.iter().copied().collect();
        if distinct.len() != outs.len() {
            self.violation(
                CheckKind::Physical,
                p,
                format!("duplicate column ids in output layout {outs:?}"),
            );
        }

        match p {
            PhysExpr::TableScan {
                positions, cols, ..
            }
            | PhysExpr::MorselScan {
                positions, cols, ..
            } => {
                if positions.len() != cols.len() {
                    self.violation(
                        CheckKind::Physical,
                        p,
                        format!(
                            "{} output columns but {} base positions",
                            cols.len(),
                            positions.len()
                        ),
                    );
                }
                if matches!(p, PhysExpr::MorselScan { .. }) {
                    self.violation(
                        CheckKind::Physical,
                        p,
                        "MorselScan is runtime-internal and must not appear in a planned tree"
                            .into(),
                    );
                }
            }
            PhysExpr::IndexSeek {
                positions,
                cols,
                index_cols,
                probes,
                ..
            } => {
                if positions.len() != cols.len() {
                    self.violation(
                        CheckKind::Physical,
                        p,
                        format!(
                            "{} output columns but {} base positions",
                            cols.len(),
                            positions.len()
                        ),
                    );
                }
                if probes.len() != index_cols.len() {
                    self.violation(
                        CheckKind::Physical,
                        p,
                        format!(
                            "{} probes for an index over {} columns",
                            probes.len(),
                            index_cols.len()
                        ),
                    );
                }
                // Probes run before the scan produces anything: only
                // parameters and literals are available.
                let empty = BTreeSet::new();
                for pr in probes {
                    self.refs(pr, &empty, scope, p, "index probe");
                }
            }
            PhysExpr::Filter { input, predicate } => {
                let vis = id_set(input);
                self.refs(predicate, &vis, scope, p, "predicate");
                self.check(input, scope);
            }
            PhysExpr::Compute { input, defs } => {
                // Definitions see only the input layout (ComputeOp
                // appends values without re-exposing earlier defs).
                let vis = id_set(input);
                for (_, e) in defs {
                    self.refs(e, &vis, scope, p, "computed column");
                }
                self.check(input, scope);
            }
            PhysExpr::ProjectCols { input, cols } => {
                let vis = id_set(input);
                self.cols_in(cols, &vis, p, "retained");
                self.check(input, scope);
            }
            PhysExpr::HashJoin {
                left,
                right,
                left_keys,
                right_keys,
                residual,
                ..
            } => {
                if left_keys.len() != right_keys.len() {
                    self.violation(
                        CheckKind::Physical,
                        p,
                        format!(
                            "{} probe keys vs {} build keys",
                            left_keys.len(),
                            right_keys.len()
                        ),
                    );
                }
                let lvis = id_set(left);
                let rvis = id_set(right);
                self.cols_in(left_keys, &lvis, p, "probe key");
                self.cols_in(right_keys, &rvis, p, "build key");
                let mut vis = lvis;
                vis.extend(rvis);
                self.refs(residual, &vis, scope, p, "residual predicate");
                self.check(left, scope);
                self.check(right, scope);
            }
            PhysExpr::ApplyLoop {
                left,
                right,
                params,
                ..
            } => {
                let lvis = id_set(left);
                self.cols_in(params, &lvis, p, "parameter");
                self.check(left, scope);
                let mut rscope = scope.clone();
                rscope.params.extend(params.iter().copied());
                self.check(right, &rscope);
            }
            PhysExpr::IndexLookupJoin {
                left,
                positions,
                fetch_cols,
                index_cols,
                probes,
                residual,
                cols,
                params,
                ..
            } => {
                if positions.len() != fetch_cols.len() {
                    self.violation(
                        CheckKind::Physical,
                        p,
                        format!(
                            "{} fetched columns but {} base positions",
                            fetch_cols.len(),
                            positions.len()
                        ),
                    );
                }
                if probes.len() != index_cols.len() {
                    self.violation(
                        CheckKind::Physical,
                        p,
                        format!(
                            "{} probes for an index over {} columns",
                            probes.len(),
                            index_cols.len()
                        ),
                    );
                }
                // Canonical index order: probe expressions are matched
                // to index columns positionally, so the planner must
                // emit `index_cols` strictly ascending (sorting probes
                // in lockstep). A permuted or duplicated list means the
                // probe-to-column pairing is scrambled relative to the
                // storage index layout.
                if !index_cols.windows(2).all(|w| w[0] < w[1]) {
                    self.violation(
                        CheckKind::Physical,
                        p,
                        format!(
                            "index columns {index_cols:?} are not in canonical \
                             (strictly ascending) order; probe-to-index pairing is scrambled"
                        ),
                    );
                }
                let lvis = id_set(left);
                self.cols_in(params, &lvis, p, "parameter");
                // Probes run before anything is fetched: only this
                // operator's parameters (and the enclosing scope's) plus
                // literals are available.
                let mut pscope = scope.clone();
                pscope.params.extend(params.iter().copied());
                let empty = BTreeSet::new();
                for pr in probes {
                    self.refs(pr, &empty, &pscope, p, "index probe");
                }
                // The residual sees the fetched layout plus parameters.
                let fvis: BTreeSet<ColId> = fetch_cols.iter().copied().collect();
                self.refs(residual, &fvis, &pscope, p, "residual predicate");
                self.cols_in(cols, &fvis, p, "projected");
                // A fetched column nothing emits or tests is a gather
                // per matched lane for nothing.
                let read = residual.cols();
                for c in fetch_cols {
                    if !cols.contains(c) && !read.contains(c) {
                        self.violation(
                            CheckKind::Physical,
                            p,
                            format!("fetched column {c} is neither projected nor tested"),
                        );
                    }
                }
                self.check(left, scope);
            }
            PhysExpr::SegmentExec {
                input,
                segment_cols,
                inner,
                out_cols,
            } => {
                let inset = id_set(input);
                self.cols_in(segment_cols, &inset, p, "segmenting");
                self.check(input, scope);
                let mut iscope = scope.clone();
                iscope.segments.push(inset.clone());
                self.check(inner, &iscope);
                let mut provided: BTreeSet<ColId> = segment_cols.iter().copied().collect();
                provided.extend(inner.out_cols());
                self.cols_in(out_cols, &provided, p, "output");
            }
            PhysExpr::SegmentScan { cols } => match scope.segments.last() {
                None => self.violation(
                    CheckKind::Physical,
                    p,
                    "SegmentScan outside any SegmentExec inner plan".into(),
                ),
                Some(seg) => {
                    for (_, src) in cols {
                        if !seg.contains(src) {
                            self.violation(
                                CheckKind::Physical,
                                p,
                                format!(
                                    "segment source {src} is not produced by the segment input"
                                ),
                            );
                        }
                    }
                }
            },
            PhysExpr::HashAggregate {
                kind,
                input,
                group_cols,
                aggs,
            } => {
                let vis = id_set(input);
                if *kind == GroupKind::Scalar && !group_cols.is_empty() {
                    self.violation(
                        CheckKind::Physical,
                        p,
                        format!("scalar aggregation with grouping columns {group_cols:?}"),
                    );
                }
                self.cols_in(group_cols, &vis, p, "grouping");
                for a in aggs {
                    match (&a.arg, a.func) {
                        (None, AggFunc::CountStar) => {}
                        (None, f) => self.violation(
                            CheckKind::Physical,
                            p,
                            format!("aggregate {f:?} ({}) has no argument", a.out.id),
                        ),
                        (Some(arg), _) => self.refs(arg, &vis, scope, p, "aggregate argument"),
                    }
                }
                self.check(input, scope);
            }
            PhysExpr::Concat {
                left,
                right,
                cols,
                left_map,
                right_map,
            } => {
                if left_map.len() != cols.len() || right_map.len() != cols.len() {
                    self.violation(
                        CheckKind::Physical,
                        p,
                        format!(
                            "output width {} but branch maps have widths {}/{}",
                            cols.len(),
                            left_map.len(),
                            right_map.len()
                        ),
                    );
                }
                let lvis = id_set(left);
                let rvis = id_set(right);
                self.cols_in(left_map, &lvis, p, "left map");
                self.cols_in(right_map, &rvis, p, "right map");
                self.check(left, scope);
                self.check(right, scope);
            }
            PhysExpr::ExceptExec {
                left,
                right,
                right_map,
            } => {
                let lw = left.out_cols().len();
                if right_map.len() != lw {
                    self.violation(
                        CheckKind::Physical,
                        p,
                        format!("left width {lw} but right map width {}", right_map.len()),
                    );
                }
                let rvis = id_set(right);
                self.cols_in(right_map, &rvis, p, "right map");
                self.check(left, scope);
                self.check(right, scope);
            }
            PhysExpr::AssertMax1 { input } | PhysExpr::Limit { input, .. } => {
                self.check(input, scope);
            }
            PhysExpr::RowNumber { input, .. } => self.check(input, scope),
            PhysExpr::ConstScan { cols, columns, len } => {
                if columns.len() != cols.len() {
                    self.violation(
                        CheckKind::Physical,
                        p,
                        format!(
                            "row width {} != declared width {}",
                            columns.len(),
                            cols.len()
                        ),
                    );
                }
                if let Some(bad) = columns.iter().find(|c| c.len() != *len) {
                    self.violation(
                        CheckKind::Physical,
                        p,
                        format!("a column of {} lanes under {len} declared rows", bad.len()),
                    );
                }
                // Typed-schema half of the width check: every non-NULL
                // value down a ConstScan column must share a single
                // runtime type. Typed storage does by construction;
                // only the verbatim `Val` fallback can mix.
                for (col, column) in cols.iter().zip(columns) {
                    let (ColData::Val(vals), _, offset) = column.parts() else {
                        continue;
                    };
                    let mut seen: Option<&'static str> = None;
                    for v in &vals[offset..offset + column.len()] {
                        let Some(tag) = value_type(v) else {
                            continue;
                        };
                        match seen {
                            None => seen = Some(tag),
                            Some(t) if t != tag => {
                                self.violation(
                                    CheckKind::Physical,
                                    p,
                                    format!(
                                        "column {col} mixes {t} and {tag} values; a column \
                                         must have one type"
                                    ),
                                );
                                break;
                            }
                            Some(_) => {}
                        }
                    }
                }
            }
            PhysExpr::Sort { input, by } => {
                let vis = id_set(input);
                let by_cols: Vec<ColId> = by.iter().map(|(c, _)| *c).collect();
                self.cols_in(&by_cols, &vis, p, "sort");
                self.check(input, scope);
            }
            PhysExpr::Exchange { input } => {
                // Invariant (e): the planner may only place an Exchange
                // over subtrees the exchange runtime knows how to split;
                // anything else silently degrades or, worse, rebinds
                // non-invariant free inputs across workers.
                if !orthopt_exec::exchange_eligible(input) {
                    self.violation(
                        CheckKind::Physical,
                        p,
                        "Exchange input does not satisfy the parallel shape grammar \
                         (see orthopt-exec::parallel)"
                            .into(),
                    );
                }
                self.check(input, scope);
            }
        }
    }

    /// Physical half of invariant (c): a Local HashAggregate must be
    /// combined above by a global HashAggregate through a valid
    /// [`AggFunc::split`] pair.
    fn check_locals<'t>(&mut self, p: &'t PhysExpr, ancestors: &mut Vec<&'t PhysExpr>) {
        if let PhysExpr::HashAggregate {
            kind: GroupKind::Local,
            aggs,
            ..
        } = p
        {
            for la in aggs {
                match find_combiner(la.out.id, ancestors) {
                    Some(gf) => {
                        if !valid_split_pair(la.func, gf) {
                            self.violation(
                                CheckKind::GroupBy,
                                p,
                                format!(
                                    "global aggregate {gf:?} over local output {} does not \
                                     reconstruct any original aggregate (local part {:?})",
                                    la.out.id, la.func
                                ),
                            );
                        }
                    }
                    None => self.violation(
                        CheckKind::GroupBy,
                        p,
                        format!(
                            "local aggregate output {} ({:?}) is never combined by a global \
                             aggregation above",
                            la.out.id, la.func
                        ),
                    ),
                }
            }
        }
        ancestors.push(p);
        for c in p.children() {
            self.check_locals(c, ancestors);
        }
        ancestors.pop();
    }
}

fn id_set(p: &PhysExpr) -> BTreeSet<ColId> {
    p.out_cols().into_iter().collect()
}

/// Runtime type tag of a literal, `None` for NULL (NULL fits any
/// column type).
fn value_type(v: &orthopt_common::Value) -> Option<&'static str> {
    use orthopt_common::Value;
    match v {
        Value::Null => None,
        Value::Bool(_) => Some("bool"),
        Value::Int(_) => Some("int"),
        Value::Float(_) => Some("float"),
        Value::Str(_) => Some("str"),
        Value::Date(_) => Some("date"),
    }
}

fn find_combiner(local_out: ColId, ancestors: &[&PhysExpr]) -> Option<AggFunc> {
    for anc in ancestors.iter().rev() {
        if let PhysExpr::HashAggregate {
            kind: GroupKind::Vector | GroupKind::Scalar,
            aggs,
            ..
        } = anc
        {
            for g in aggs {
                if let Some(ScalarExpr::Column(c)) = &g.arg {
                    if *c == local_out {
                        return Some(g.func);
                    }
                }
            }
        }
    }
    None
}
