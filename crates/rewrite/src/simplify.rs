//! Normalization simplifications: composite-aggregate expansion,
//! select merging, predicate pushdown (the filter half of §3.1's
//! reordering), and empty-subexpression detection (§4).

use std::collections::BTreeSet;

use orthopt_common::{ColId, DataType, Value};
use orthopt_ir::{AggDef, AggFunc, ColumnMeta, GroupKind, JoinKind, MapDef, RelExpr, ScalarExpr};

use crate::RewriteCtx;

/// Expands composite aggregates: `AVG` has no local/global split of its
/// own (§3.3 footnote 3), so it is computed from `SUM` and `COUNT` plus
/// a computing project. After this pass every aggregate in the tree is
/// splittable.
pub fn expand_composite_aggs(mut rel: RelExpr, ctx: &mut RewriteCtx) -> RelExpr {
    for child in rel.children_mut() {
        let taken = take(child);
        *child = expand_composite_aggs(taken, ctx);
    }
    // Also walk into scalar subquery bodies.
    rel.transform_scalars(&mut |e| {
        let body = match e {
            ScalarExpr::Subquery(r) => Some(r),
            ScalarExpr::Exists { rel: r, .. } => Some(r),
            ScalarExpr::InSubquery { rel: r, .. } => Some(r),
            ScalarExpr::QuantifiedCmp { rel: r, .. } => Some(r),
            _ => None,
        };
        if let Some(body) = body {
            let taken = std::mem::replace(
                body.as_mut(),
                RelExpr::ConstRel {
                    cols: vec![],
                    rows: vec![],
                },
            );
            **body = expand_composite_aggs(taken, ctx);
        }
    });
    let RelExpr::GroupBy {
        kind,
        input,
        group_cols,
        aggs,
    } = rel
    else {
        return rel;
    };
    if !aggs.iter().any(|a| a.func == AggFunc::Avg) {
        return RelExpr::GroupBy {
            kind,
            input,
            group_cols,
            aggs,
        };
    }
    let mut new_aggs: Vec<AggDef> = Vec::with_capacity(aggs.len() + 1);
    let mut defs: Vec<MapDef> = Vec::new();
    let mut keep_cols: Vec<ColId> = group_cols.clone();
    for agg in aggs {
        if agg.func != AggFunc::Avg {
            keep_cols.push(agg.out.id);
            new_aggs.push(agg);
            continue;
        }
        let arg = agg.arg.expect("AVG has an argument");
        let sum_col = ColumnMeta::new(ctx.gen.fresh(), "avg_sum", DataType::Float, true);
        let cnt_col = ColumnMeta::new(ctx.gen.fresh(), "avg_cnt", DataType::Int, false);
        new_aggs.push(AggDef {
            out: sum_col.clone(),
            func: AggFunc::Sum,
            arg: Some(arg.clone()),
            distinct: agg.distinct,
        });
        new_aggs.push(AggDef {
            out: cnt_col.clone(),
            func: AggFunc::Count,
            arg: Some(arg),
            distinct: agg.distinct,
        });
        // avg = CASE WHEN cnt = 0 THEN NULL ELSE sum / cnt END
        defs.push(MapDef {
            col: agg.out.clone(),
            expr: ScalarExpr::Case {
                operand: None,
                whens: vec![(
                    ScalarExpr::eq(ScalarExpr::col(cnt_col.id), ScalarExpr::lit(0i64)),
                    ScalarExpr::Literal(Value::Null),
                )],
                else_: Some(Box::new(ScalarExpr::Arith {
                    op: orthopt_ir::ArithOp::Div,
                    left: Box::new(ScalarExpr::col(sum_col.id)),
                    right: Box::new(ScalarExpr::col(cnt_col.id)),
                })),
            },
        });
        keep_cols.push(agg.out.id);
    }
    let grouped = RelExpr::GroupBy {
        kind,
        input,
        group_cols,
        aggs: new_aggs,
    };
    RelExpr::Project {
        input: Box::new(RelExpr::Map {
            input: Box::new(grouped),
            defs,
        }),
        cols: keep_cols,
    }
}

/// Structural simplifications, applied bottom-up to fixpoint-ish:
/// select merging and elimination, empty-subexpression propagation,
/// trivial projection removal.
pub fn simplify(mut rel: RelExpr) -> RelExpr {
    for child in rel.children_mut() {
        let taken = take(child);
        *child = simplify(taken);
    }
    loop {
        match step(rel) {
            Step::Changed(r) => rel = r,
            Step::Done(r) => return r,
        }
    }
}

enum Step {
    Changed(RelExpr),
    Done(RelExpr),
}

fn is_empty_const(rel: &RelExpr) -> bool {
    matches!(rel, RelExpr::ConstRel { rows, .. } if rows.is_empty())
}

fn empty_like(rel: &RelExpr) -> RelExpr {
    RelExpr::ConstRel {
        cols: rel.output_cols(),
        rows: vec![],
    }
}

fn step(rel: RelExpr) -> Step {
    match rel {
        // σ_true(E) = E; σ_false(E) = ∅; merge stacked selects.
        RelExpr::Select { input, predicate } => {
            if predicate.is_true() {
                return Step::Changed(*input);
            }
            if matches!(&predicate, ScalarExpr::Literal(v) if !matches!(v, Value::Bool(true))) {
                // FALSE or NULL constant predicate: empty.
                let e = empty_like(&input);
                return Step::Changed(e);
            }
            if is_empty_const(&input) {
                return Step::Changed(*input);
            }
            if let RelExpr::Select {
                input: inner,
                predicate: p2,
            } = *input
            {
                return Step::Changed(RelExpr::Select {
                    input: inner,
                    predicate: ScalarExpr::and([p2, predicate]),
                });
            }
            Step::Done(RelExpr::Select { input, predicate })
        }
        RelExpr::Join {
            kind,
            left,
            right,
            predicate,
        } => {
            if is_empty_const(&left) {
                let e = empty_like(&RelExpr::Join {
                    kind,
                    left,
                    right,
                    predicate,
                });
                return Step::Changed(e);
            }
            if is_empty_const(&right) {
                return match kind {
                    JoinKind::Inner | JoinKind::LeftSemi => {
                        let e = empty_like(&RelExpr::Join {
                            kind,
                            left,
                            right,
                            predicate,
                        });
                        Step::Changed(e)
                    }
                    JoinKind::LeftAnti => Step::Changed(*left),
                    JoinKind::LeftOuter => {
                        // L LOJ ∅ = L padded with NULL columns.
                        let defs = right
                            .output_cols()
                            .into_iter()
                            .map(|c| MapDef {
                                col: ColumnMeta {
                                    nullable: true,
                                    ..c
                                },
                                expr: ScalarExpr::Literal(Value::Null),
                            })
                            .collect();
                        Step::Changed(RelExpr::Map { input: left, defs })
                    }
                };
            }
            Step::Done(RelExpr::Join {
                kind,
                left,
                right,
                predicate,
            })
        }
        RelExpr::GroupBy {
            kind,
            input,
            group_cols,
            aggs,
        } => {
            if is_empty_const(&input) && matches!(kind, GroupKind::Vector | GroupKind::Local) {
                let e = empty_like(&RelExpr::GroupBy {
                    kind,
                    input,
                    group_cols,
                    aggs,
                });
                return Step::Changed(e);
            }
            if is_empty_const(&input) && kind == GroupKind::Scalar {
                // Scalar aggregation of the empty relation is a constant.
                let cols: Vec<ColumnMeta> = aggs.iter().map(|a| a.out.clone()).collect();
                let row: Vec<Value> = aggs.iter().map(|a| a.func.on_empty()).collect();
                return Step::Changed(RelExpr::ConstRel {
                    cols,
                    rows: vec![row],
                });
            }
            Step::Done(RelExpr::GroupBy {
                kind,
                input,
                group_cols,
                aggs,
            })
        }
        // Identity projection removal; collapse stacked projects.
        RelExpr::Project { input, cols } => {
            if input.output_col_ids() == cols {
                return Step::Changed(*input);
            }
            if is_empty_const(&input) {
                let e = empty_like(&RelExpr::Project { input, cols });
                return Step::Changed(e);
            }
            if let RelExpr::Project { input: inner, .. } = *input {
                return Step::Changed(RelExpr::Project { input: inner, cols });
            }
            Step::Done(RelExpr::Project { input, cols })
        }
        RelExpr::Map { input, defs } => {
            if defs.is_empty() {
                return Step::Changed(*input);
            }
            if is_empty_const(&input) {
                let e = empty_like(&RelExpr::Map { input, defs });
                return Step::Changed(e);
            }
            Step::Done(RelExpr::Map { input, defs })
        }
        RelExpr::UnionAll {
            left,
            right,
            cols,
            left_map,
            right_map,
        } => {
            if is_empty_const(&left) && is_empty_const(&right) {
                return Step::Changed(RelExpr::ConstRel { cols, rows: vec![] });
            }
            Step::Done(RelExpr::UnionAll {
                left,
                right,
                cols,
                left_map,
                right_map,
            })
        }
        RelExpr::Apply { kind, left, right } => {
            if is_empty_const(&left) {
                let e = empty_like(&RelExpr::Apply { kind, left, right });
                return Step::Changed(e);
            }
            Step::Done(RelExpr::Apply { kind, left, right })
        }
        other => Step::Done(other),
    }
}

/// Predicate pushdown: moves filter conjuncts toward the tables they
/// constrain — through inner joins, the preserved side of outerjoins,
/// and GroupBy when the columns are functionally determined by the
/// grouping columns (the filter/GroupBy reorder of §3.1). An inner
/// join's own predicate is redistributed the same way (a decorrelated
/// subquery block arrives with its whole WHERE clause on the top join):
/// a conjunct over one input only sinks into that input.
pub fn push_down_predicates(mut rel: RelExpr) -> RelExpr {
    for child in rel.children_mut() {
        let taken = take(child);
        *child = push_down_predicates(taken);
    }
    let (predicate, mut current, is_join) = match rel {
        RelExpr::Select { input, predicate } => (predicate, *input, false),
        RelExpr::Join {
            kind: JoinKind::Inner,
            left,
            right,
            predicate,
        } => {
            let cross = RelExpr::Join {
                kind: JoinKind::Inner,
                left,
                right,
                predicate: ScalarExpr::true_(),
            };
            (predicate, cross, true)
        }
        other => return other,
    };
    let mut remaining: Vec<ScalarExpr> = Vec::new();
    for conjunct in predicate.conjuncts() {
        match try_push(conjunct.clone(), current) {
            Ok(updated) => current = updated,
            Err(unchanged) => {
                current = unchanged;
                remaining.push(conjunct);
            }
        }
    }
    let leftover = ScalarExpr::and(remaining);
    match current {
        // What an inner join could not place (a subquery marker) stays
        // on the join.
        RelExpr::Join {
            kind,
            left,
            right,
            predicate,
        } if is_join => RelExpr::Join {
            kind,
            left,
            right,
            predicate: ScalarExpr::and([predicate, leftover]),
        },
        current if leftover.is_true() => current,
        current => RelExpr::Select {
            input: Box::new(current),
            predicate: leftover,
        },
    }
}

/// Places one conjunct inside `rel` (as deep as it goes). `Ok` means the
/// conjunct was consumed; `Err` returns the tree unchanged so the caller
/// keeps the conjunct above.
#[allow(clippy::result_large_err)] // Err carries the tree back by design
fn try_push(conjunct: ScalarExpr, rel: RelExpr) -> std::result::Result<RelExpr, RelExpr> {
    if conjunct.has_subquery() {
        return Err(rel);
    }
    let cols = conjunct.cols();
    match rel {
        RelExpr::Join {
            kind,
            left,
            right,
            predicate,
        } => {
            let left_ids: BTreeSet<ColId> = left.output_col_ids().into_iter().collect();
            let right_ids: BTreeSet<ColId> = right.output_col_ids().into_iter().collect();
            let on_left = cols.iter().all(|c| left_ids.contains(c));
            let on_right = cols.iter().all(|c| right_ids.contains(c));
            if on_left {
                // Every join variant preserves or filters the left side's
                // rows; a left-only conjunct commutes below.
                let new_left = sink(conjunct, *left);
                return Ok(RelExpr::Join {
                    kind,
                    left: Box::new(new_left),
                    right,
                    predicate,
                });
            }
            match kind {
                JoinKind::Inner => {
                    if on_right {
                        let new_right = sink(conjunct, *right);
                        Ok(RelExpr::Join {
                            kind,
                            left,
                            right: Box::new(new_right),
                            predicate,
                        })
                    } else {
                        // Mixed columns: merge into the join predicate.
                        Ok(RelExpr::Join {
                            kind,
                            left,
                            right,
                            predicate: ScalarExpr::and([predicate, conjunct]),
                        })
                    }
                }
                JoinKind::LeftOuter | JoinKind::LeftSemi | JoinKind::LeftAnti => {
                    Err(RelExpr::Join {
                        kind,
                        left,
                        right,
                        predicate,
                    })
                }
            }
        }
        RelExpr::GroupBy {
            kind,
            input,
            group_cols,
            aggs,
        } => {
            // §3.1: a filter moves below a GroupBy iff its columns are
            // functionally determined by the grouping columns — here the
            // conservative, syntactic version: columns ⊆ grouping columns.
            if matches!(kind, GroupKind::Vector | GroupKind::Local)
                && !group_cols.is_empty()
                && cols.iter().all(|c| group_cols.contains(c))
            {
                let new_input = sink(conjunct, *input);
                Ok(RelExpr::GroupBy {
                    kind,
                    input: Box::new(new_input),
                    group_cols,
                    aggs,
                })
            } else {
                Err(RelExpr::GroupBy {
                    kind,
                    input,
                    group_cols,
                    aggs,
                })
            }
        }
        RelExpr::Select { input, predicate } => match try_push(conjunct, *input) {
            Ok(updated) => Ok(RelExpr::Select {
                input: Box::new(updated),
                predicate,
            }),
            Err(unchanged) => Err(RelExpr::Select {
                input: Box::new(unchanged),
                predicate,
            }),
        },
        RelExpr::Project { input, cols: pcols } => match try_push(conjunct, *input) {
            Ok(updated) => Ok(RelExpr::Project {
                input: Box::new(updated),
                cols: pcols,
            }),
            Err(unchanged) => Err(RelExpr::Project {
                input: Box::new(unchanged),
                cols: pcols,
            }),
        },
        // A conjunct over the outer side's columns commutes below any
        // Apply variant: σ_c(R A⊗ E) = (σ_c R) A⊗ E.
        RelExpr::Apply { kind, left, right } => {
            let left_ids: BTreeSet<ColId> = left.output_col_ids().into_iter().collect();
            if cols.iter().all(|c| left_ids.contains(c)) {
                let new_left = sink(conjunct, *left);
                Ok(RelExpr::Apply {
                    kind,
                    left: Box::new(new_left),
                    right,
                })
            } else {
                Err(RelExpr::Apply { kind, left, right })
            }
        }
        other => Err(other),
    }
}

/// Pushes as deep as possible; if nothing below consumes the conjunct,
/// wraps the subtree with a Select right here.
fn sink(conjunct: ScalarExpr, rel: RelExpr) -> RelExpr {
    match try_push(conjunct.clone(), rel) {
        Ok(updated) => updated,
        Err(unchanged) => RelExpr::Select {
            input: Box::new(unchanged),
            predicate: conjunct,
        },
    }
}

fn take(slot: &mut RelExpr) -> RelExpr {
    std::mem::replace(
        slot,
        RelExpr::ConstRel {
            cols: vec![],
            rows: vec![],
        },
    )
}
