//! Correlation removal: the Figure-4 identities (§2.3).
//!
//! `Apply` is pushed down the operator tree, towards the leaves, until
//! the right child is no longer parameterized off the left child — at
//! which point identities (1)/(2) replace it with an ordinary join
//! variant. Identities (7)–(9) require a key on the outer relation; a
//! key is *manufactured* with `Enumerate` when none is derivable.
//!
//! Identities that introduce additional common subexpressions — (5),
//! (6) and (7), the paper's **Class 2** — are gated behind
//! [`crate::RewriteConfig::unnest_class2`]; by default those subqueries
//! stay correlated, exactly as in the paper's implementation. `Max1Row`
//! that survived elimination marks **Class 3** and always stays
//! correlated.

use std::collections::BTreeSet;

use orthopt_common::{ColId, DataType, Result};
use orthopt_ir::props::{self};
use orthopt_ir::{
    AggDef, AggFunc, ApplyKind, ColumnMeta, GroupKind, JoinKind, MapDef, RelExpr, ScalarExpr,
};

use orthopt_plancheck::{self as plancheck, Check, RuleTag};

use crate::RewriteCtx;

/// Pushes down and removes Apply operators wherever the identities
/// permit; unremovable Applies (Class 2 without the flag, Class 3)
/// remain in the tree for correlated execution.
pub fn remove_applies(rel: RelExpr, ctx: &mut RewriteCtx) -> Result<RelExpr> {
    let mut rel = rel;
    for child in rel.children_mut() {
        let taken = take(child);
        *child = remove_applies(taken, ctx)?;
    }
    loop {
        match rel {
            RelExpr::Apply { kind, left, right } => {
                let before = plancheck::enabled().then(|| RelExpr::Apply {
                    kind,
                    left: left.clone(),
                    right: right.clone(),
                });
                match push_once(kind, *left, *right, ctx)? {
                    Pushed::Changed(new, identity) => {
                        plancheck::verify(
                            RuleTag {
                                rule: "apply_removal::push_once",
                                identity,
                            },
                            Check::Fragment(&new),
                            before.as_ref(),
                        )?;
                        // Re-run children that the rewrite may have
                        // created (e.g. an Apply pushed one level down).
                        let mut new = new;
                        for child in new.children_mut() {
                            let taken = take(child);
                            *child = remove_applies(taken, ctx)?;
                        }
                        rel = new;
                        if !matches!(rel, RelExpr::Apply { .. }) {
                            return Ok(rel);
                        }
                    }
                    Pushed::Stuck(l, r) => {
                        return Ok(RelExpr::Apply {
                            kind,
                            left: l,
                            right: r,
                        })
                    }
                }
            }
            other => return Ok(other),
        }
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

enum Pushed {
    /// A successful push, tagged with the Apply-removal identity number
    /// (1–9) that fired, when the rewrite is one of the paper's numbered
    /// identities; `None` for auxiliary canonicalizations.
    Changed(RelExpr, Option<u8>),
    Stuck(Box<RelExpr>, Box<RelExpr>),
}

/// True when `inner` is parameterized off `outer`.
fn correlated_with(inner: &RelExpr, outer_cols: &BTreeSet<ColId>) -> bool {
    inner.free_cols().iter().any(|c| outer_cols.contains(c))
}

/// Wraps `rel` with `Enumerate` when no key is derivable (the paper:
/// "if the relation does not have a key, one can always be manufactured
/// during execution").
fn ensure_key(rel: RelExpr, ctx: &mut RewriteCtx) -> RelExpr {
    if !props::keys(&rel).is_empty() {
        return rel;
    }
    let col = ColumnMeta::new(ctx.gen.fresh(), "rn", DataType::Int, false);
    RelExpr::Enumerate {
        input: Box::new(rel),
        col,
    }
}

fn apply(kind: ApplyKind, left: RelExpr, right: RelExpr) -> RelExpr {
    RelExpr::Apply {
        kind,
        left: Box::new(left),
        right: Box::new(right),
    }
}

fn push_once(
    kind: ApplyKind,
    outer: RelExpr,
    inner: RelExpr,
    ctx: &mut RewriteCtx,
) -> Result<Pushed> {
    let outer_cols: BTreeSet<ColId> = outer.output_col_ids().into_iter().collect();

    // Identity (1): no parameters resolved from the outer — plain join.
    if !correlated_with(&inner, &outer_cols) {
        return Ok(Pushed::Changed(
            RelExpr::Join {
                kind: kind.to_join_kind(),
                left: Box::new(outer),
                right: Box::new(inner),
                predicate: ScalarExpr::true_(),
            },
            Some(1),
        ));
    }

    match inner {
        // ---- Select ---------------------------------------------------
        RelExpr::Select { input, predicate } => {
            if !correlated_with(&input, &outer_cols) {
                // Identity (2): absorb the parameterized select as the
                // join predicate.
                return Ok(Pushed::Changed(
                    RelExpr::Join {
                        kind: kind.to_join_kind(),
                        left: Box::new(outer),
                        right: input,
                        predicate,
                    },
                    Some(2),
                ));
            }
            match kind {
                // Identity (3): pull the select above A×.
                ApplyKind::Cross => Ok(Pushed::Changed(
                    RelExpr::Select {
                        input: Box::new(apply(ApplyKind::Cross, outer, *input)),
                        predicate,
                    },
                    Some(3),
                )),
                ApplyKind::Semi | ApplyKind::Anti => {
                    match strip_for_existential(*input, vec![predicate], &outer_cols) {
                        Ok((base, preds)) => Ok(Pushed::Changed(
                            RelExpr::Join {
                                kind: kind.to_join_kind(),
                                left: Box::new(outer),
                                right: Box::new(base),
                                predicate: ScalarExpr::and(preds),
                            },
                            Some(2),
                        )),
                        Err((base, preds)) => Ok(Pushed::Stuck(
                            Box::new(outer),
                            Box::new(RelExpr::Select {
                                input: Box::new(base),
                                predicate: ScalarExpr::and(preds),
                            }),
                        )),
                    }
                }
                ApplyKind::LeftOuter => Ok(Pushed::Stuck(
                    Box::new(outer),
                    Box::new(RelExpr::Select { input, predicate }),
                )),
            }
        }

        // ---- Project (identity 4) -------------------------------------
        RelExpr::Project { input, cols } => match kind {
            ApplyKind::Cross | ApplyKind::LeftOuter => {
                let mut new_cols = outer.output_col_ids();
                new_cols.extend(cols);
                Ok(Pushed::Changed(
                    RelExpr::Project {
                        input: Box::new(apply(kind, outer, *input)),
                        cols: new_cols,
                    },
                    Some(4),
                ))
            }
            // Projection cannot change emptiness.
            ApplyKind::Semi | ApplyKind::Anti => {
                Ok(Pushed::Changed(apply(kind, outer, *input), Some(4)))
            }
        },

        // ---- Map (identity 4 for computed columns) --------------------
        RelExpr::Map { input, defs } => match kind {
            ApplyKind::Cross => Ok(Pushed::Changed(
                RelExpr::Map {
                    input: Box::new(apply(ApplyKind::Cross, outer, *input)),
                    defs,
                },
                Some(4),
            )),
            ApplyKind::LeftOuter => {
                // Pulling Map above an outerjoin-Apply is only valid when
                // each computed column is NULL on NULL-padded rows
                // (strictness) — otherwise padding would differ.
                let inner_cols: BTreeSet<ColId> = input.output_col_ids().into_iter().collect();
                if defs
                    .iter()
                    .all(|d| props::always_null_when(&d.expr, &inner_cols))
                {
                    Ok(Pushed::Changed(
                        RelExpr::Map {
                            input: Box::new(apply(ApplyKind::LeftOuter, outer, *input)),
                            defs,
                        },
                        Some(4),
                    ))
                } else {
                    Ok(Pushed::Stuck(
                        Box::new(outer),
                        Box::new(RelExpr::Map { input, defs }),
                    ))
                }
            }
            // Computed columns cannot change emptiness.
            ApplyKind::Semi | ApplyKind::Anti => {
                Ok(Pushed::Changed(apply(kind, outer, *input), Some(4)))
            }
        },

        // ---- Scalar GroupBy (identity 9) ------------------------------
        RelExpr::GroupBy {
            kind: GroupKind::Scalar,
            input,
            aggs,
            ..
        } if matches!(kind, ApplyKind::Cross | ApplyKind::LeftOuter) => {
            // Scalar aggregation returns exactly one row, so A× and
            // A^LOJ coincide here.
            let outer = ensure_key(outer, ctx);
            let group_cols = outer.output_col_ids();
            let (input, aggs) = fix_aggs_for_outerjoin(*input, aggs, ctx);
            Ok(Pushed::Changed(
                RelExpr::GroupBy {
                    kind: GroupKind::Vector,
                    input: Box::new(apply(ApplyKind::LeftOuter, outer, input)),
                    group_cols,
                    aggs,
                },
                Some(9),
            ))
        }

        // ---- Vector / Local GroupBy (identity 8) ----------------------
        RelExpr::GroupBy {
            kind: gk @ (GroupKind::Vector | GroupKind::Local),
            input,
            group_cols,
            aggs,
        } => match kind {
            ApplyKind::Cross => {
                let outer = ensure_key(outer, ctx);
                let mut new_groups = outer.output_col_ids();
                new_groups.extend(group_cols);
                Ok(Pushed::Changed(
                    RelExpr::GroupBy {
                        kind: gk,
                        input: Box::new(apply(ApplyKind::Cross, outer, *input)),
                        group_cols: new_groups,
                        aggs,
                    },
                    Some(8),
                ))
            }
            // Vector aggregation is empty exactly when its input is:
            // existential tests ignore the aggregates entirely.
            ApplyKind::Semi | ApplyKind::Anti => {
                Ok(Pushed::Changed(apply(kind, outer, *input), Some(8)))
            }
            ApplyKind::LeftOuter => Ok(Pushed::Stuck(
                Box::new(outer),
                Box::new(RelExpr::GroupBy {
                    kind: gk,
                    input,
                    group_cols,
                    aggs,
                }),
            )),
        },

        // ---- UnionAll (identity 5, Class 2) ---------------------------
        RelExpr::UnionAll {
            left,
            right,
            cols,
            left_map,
            right_map,
        } if kind == ApplyKind::Cross && ctx.config.unnest_class2 => {
            // (R A× E1) ∪ (R A× E2): R is duplicated verbatim — a common
            // subexpression. Output gains R's columns on both branches.
            let outer_ids = outer.output_col_ids();
            let outer_metas = outer.output_cols();
            let mut new_cols = outer_metas;
            new_cols.extend(cols);
            let mut new_left_map = outer_ids.clone();
            new_left_map.extend(left_map);
            let mut new_right_map = outer_ids;
            new_right_map.extend(right_map);
            Ok(Pushed::Changed(
                RelExpr::UnionAll {
                    left: Box::new(apply(ApplyKind::Cross, outer.clone(), *left)),
                    right: Box::new(apply(ApplyKind::Cross, outer, *right)),
                    cols: new_cols,
                    left_map: new_left_map,
                    right_map: new_right_map,
                },
                Some(5),
            ))
        }

        // ---- Except (identity 6, Class 2) ------------------------------
        RelExpr::Except {
            left,
            right,
            right_map,
        } if kind == ApplyKind::Cross && ctx.config.unnest_class2 => {
            let outer_ids = outer.output_col_ids();
            let mut new_right_map = outer_ids;
            new_right_map.extend(right_map);
            Ok(Pushed::Changed(
                RelExpr::Except {
                    left: Box::new(apply(ApplyKind::Cross, outer.clone(), *left)),
                    right: Box::new(apply(ApplyKind::Cross, outer, *right)),
                    right_map: new_right_map,
                },
                Some(6),
            ))
        }

        // ---- Join -----------------------------------------------------
        RelExpr::Join {
            kind: jk,
            left: e1,
            right: e2,
            predicate,
        } => push_through_join(kind, outer, jk, *e1, *e2, predicate, ctx),

        // Existential tests over UNION ALL distribute without touching
        // the aggregates: emptiness of a union is emptiness of both
        // branches (anti chains; semi via bag difference, Class 2).
        RelExpr::UnionAll { left, right, .. } if kind == ApplyKind::Anti => Ok(Pushed::Changed(
            apply(
                ApplyKind::Anti,
                apply(ApplyKind::Anti, outer, *left),
                *right,
            ),
            Some(5),
        )),
        RelExpr::UnionAll { left, right, .. }
            if kind == ApplyKind::Semi && ctx.config.unnest_class2 =>
        {
            // semi(R,E) = R ∖ anti(R,E): every R row is in exactly one.
            let anti = apply(
                ApplyKind::Anti,
                apply(ApplyKind::Anti, outer.clone(), *left),
                *right,
            );
            let right_map = outer.output_col_ids();
            Ok(Pushed::Changed(
                RelExpr::Except {
                    left: Box::new(outer),
                    right: Box::new(anti),
                    right_map,
                },
                Some(5),
            ))
        }

        // ---- Max1Row: Class 3, stays correlated ------------------------
        other @ (RelExpr::Max1Row { .. }
        | RelExpr::Apply { .. }
        | RelExpr::SegmentApply { .. }
        | RelExpr::SegmentRef { .. }
        | RelExpr::Enumerate { .. }
        | RelExpr::GroupBy { .. }
        | RelExpr::UnionAll { .. }
        | RelExpr::Except { .. }
        | RelExpr::Get(_)
        | RelExpr::ConstRel { .. }) => {
            // Last resort for outerjoin-Apply (Class 2): compensate the
            // padding explicitly —
            //   R A^LOJ E = (R A× E) ∪ ((R A^anti E) × NULLs)
            // — after which the A× and A^anti sides push further.
            if kind == ApplyKind::LeftOuter
                && ctx.config.unnest_class2
                && !matches!(other, RelExpr::Max1Row { .. } | RelExpr::Apply { .. })
            {
                return Ok(Pushed::Changed(loj_compensation(outer, other, ctx), None));
            }
            Ok(Pushed::Stuck(Box::new(outer), Box::new(other)))
        }
    }
}

/// `R A^LOJ E` as a union of the matching side and the NULL-padded
/// non-matching side (introduces common subexpressions — Class 2).
fn loj_compensation(outer: RelExpr, inner: RelExpr, ctx: &mut RewriteCtx) -> RelExpr {
    let outer_metas = outer.output_cols();
    let inner_metas = inner.output_cols();
    let matched = apply(ApplyKind::Cross, outer.clone(), inner.clone());
    let unmatched = apply(ApplyKind::Anti, outer, inner);
    // NULL columns for the padded side, under fresh ids.
    let null_defs: Vec<MapDef> = inner_metas
        .iter()
        .map(|m| MapDef {
            col: ColumnMeta::new(ctx.gen.fresh(), m.name.clone(), m.ty, true),
            expr: ScalarExpr::Literal(orthopt_common::Value::Null),
        })
        .collect();
    let padded_ids: Vec<ColId> = null_defs.iter().map(|d| d.col.id).collect();
    let padded = RelExpr::Map {
        input: Box::new(unmatched),
        defs: null_defs,
    };
    let mut cols: Vec<ColumnMeta> = outer_metas.clone();
    cols.extend(inner_metas.iter().cloned().map(|mut m| {
        m.nullable = true;
        m
    }));
    let outer_ids: Vec<ColId> = outer_metas.iter().map(|m| m.id).collect();
    let mut left_map = outer_ids.clone();
    left_map.extend(inner_metas.iter().map(|m| m.id));
    let mut right_map = outer_ids;
    right_map.extend(padded_ids);
    RelExpr::UnionAll {
        left: Box::new(matched),
        right: Box::new(padded),
        cols,
        left_map,
        right_map,
    }
}

/// Identity (9)'s aggregate fix-up: the rewrite is valid only for
/// aggregates with `agg(∅) = agg({NULL})`. `COUNT(*)` violates it, so a
/// non-nullable *probe* column is manufactured on the inner side and
/// `COUNT(*)` becomes `COUNT(probe)`; non-strict aggregate arguments
/// (e.g. constants) are guarded with `CASE WHEN probe IS NULL`.
fn fix_aggs_for_outerjoin(
    input: RelExpr,
    aggs: Vec<AggDef>,
    ctx: &mut RewriteCtx,
) -> (RelExpr, Vec<AggDef>) {
    let inner_cols: BTreeSet<ColId> = input.output_col_ids().into_iter().collect();
    let needs_probe = aggs.iter().any(|a| {
        a.func == AggFunc::CountStar
            || a.arg
                .as_ref()
                .is_some_and(|arg| !props::always_null_when(arg, &inner_cols))
    });
    if !needs_probe {
        return (input, aggs);
    }
    let probe = ColumnMeta::new(ctx.gen.fresh(), "probe", DataType::Int, false);
    // The probe Map is deliberately non-strict, so it must sit *below*
    // the correlated selects: otherwise it would block the Apply push
    // it exists to enable.
    let probed = insert_probe(
        input,
        MapDef {
            col: probe.clone(),
            expr: ScalarExpr::lit(1i64),
        },
    );
    let guarded = aggs
        .into_iter()
        .map(|mut a| {
            if a.func == AggFunc::CountStar {
                a.func = AggFunc::Count;
                a.arg = Some(ScalarExpr::col(probe.id));
            } else if let Some(arg) = a.arg.take() {
                if props::always_null_when(&arg, &inner_cols) {
                    a.arg = Some(arg);
                } else {
                    a.arg = Some(ScalarExpr::Case {
                        operand: None,
                        whens: vec![(
                            ScalarExpr::IsNull {
                                expr: Box::new(ScalarExpr::col(probe.id)),
                                negated: false,
                            },
                            ScalarExpr::Literal(orthopt_common::Value::Null),
                        )],
                        else_: Some(Box::new(arg)),
                    });
                }
            }
            a
        })
        .collect();
    (probed, guarded)
}

/// Sinks a probe-column definition below selects (and through projects)
/// so the remaining correlated operators above it can still be absorbed
/// by identity (2).
fn insert_probe(rel: RelExpr, def: MapDef) -> RelExpr {
    match rel {
        RelExpr::Select { input, predicate } => RelExpr::Select {
            input: Box::new(insert_probe(*input, def)),
            predicate,
        },
        RelExpr::Project { input, mut cols } => {
            cols.push(def.col.id);
            RelExpr::Project {
                input: Box::new(insert_probe(*input, def)),
                cols,
            }
        }
        RelExpr::Map { input, defs } => RelExpr::Map {
            input: Box::new(insert_probe(*input, def)),
            defs,
        },
        other => RelExpr::Map {
            input: Box::new(other),
            defs: vec![def],
        },
    }
}

/// Collects predicates through Select/Map/Project down to a base; for
/// semijoin/antijoin Applies row multiplicity is irrelevant, so Maps
/// are substituted away and Projects dropped. Returns `Ok` when the
/// base is uncorrelated with the outer, `Err` with the re-assembled
/// pieces otherwise.
#[allow(clippy::type_complexity, clippy::result_large_err)]
fn strip_for_existential(
    rel: RelExpr,
    mut preds: Vec<ScalarExpr>,
    outer_cols: &BTreeSet<ColId>,
) -> std::result::Result<(RelExpr, Vec<ScalarExpr>), (RelExpr, Vec<ScalarExpr>)> {
    let mut current = rel;
    loop {
        match current {
            RelExpr::Select { input, predicate } => {
                preds.extend(predicate.conjuncts());
                current = *input;
            }
            RelExpr::Project { input, .. } => {
                current = *input;
            }
            RelExpr::Map { input, defs } => {
                let map: std::collections::HashMap<ColId, ScalarExpr> =
                    defs.into_iter().map(|d| (d.col.id, d.expr)).collect();
                for p in &mut preds {
                    p.substitute(&map);
                }
                current = *input;
            }
            base => {
                if correlated_with(&base, outer_cols) || preds.iter().any(ScalarExpr::has_subquery)
                {
                    return Err((base, preds));
                }
                return Ok((base, preds));
            }
        }
    }
}

/// Apply pushed through a join child (the uncorrelated side commutes
/// out; two correlated sides form identity (7), Class 2).
fn push_through_join(
    kind: ApplyKind,
    outer: RelExpr,
    jk: JoinKind,
    e1: RelExpr,
    e2: RelExpr,
    predicate: ScalarExpr,
    ctx: &mut RewriteCtx,
) -> Result<Pushed> {
    let outer_cols: BTreeSet<ColId> = outer.output_col_ids().into_iter().collect();
    let c1 = correlated_with(&e1, &outer_cols);
    let c2 = correlated_with(&e2, &outer_cols)
        || predicate
            .cols()
            .iter()
            .any(|c| outer_cols.contains(c) && !e1.produced_cols().contains(c));

    match (kind, jk) {
        (ApplyKind::Cross, JoinKind::Inner) => {
            if c1 && !c2 && predicate_stays(&predicate, &outer_cols) {
                // (R A× E1) ⋈p E2
                return Ok(Pushed::Changed(
                    RelExpr::Join {
                        kind: JoinKind::Inner,
                        left: Box::new(apply(ApplyKind::Cross, outer, e1)),
                        right: Box::new(e2),
                        predicate,
                    },
                    Some(7),
                ));
            }
            if !c1 && c2 && predicate_stays(&predicate, &outer_cols) {
                // (R A× E2) ⋈p E1 — commute; column order restored above.
                return Ok(Pushed::Changed(
                    RelExpr::Join {
                        kind: JoinKind::Inner,
                        left: Box::new(apply(ApplyKind::Cross, outer, e2)),
                        right: Box::new(e1),
                        predicate,
                    },
                    Some(7),
                ));
            }
            if !predicate.is_true() {
                // Canonicalize σp(E1 × E2) and let identity (3) take it.
                return Ok(Pushed::Changed(
                    apply(
                        ApplyKind::Cross,
                        outer,
                        RelExpr::Select {
                            input: Box::new(RelExpr::Join {
                                kind: JoinKind::Inner,
                                left: Box::new(e1),
                                right: Box::new(e2),
                                predicate: ScalarExpr::true_(),
                            }),
                            predicate,
                        },
                    ),
                    None,
                ));
            }
            if ctx.config.unnest_class2 {
                // Identity (7): R A× (E1 × E2) =
                //   (R A× E1) ⋈_{R.key} (R' A× E2'), R' a fresh copy.
                let outer = ensure_key(outer, ctx);
                let key = props::keys(&outer)
                    .into_iter()
                    .min_by_key(BTreeSet::len)
                    .expect("ensure_key guarantees a key");
                let (outer2, rename) = outer.clone_with_fresh_cols(&mut ctx.gen);
                let mut e2 = e2;
                // Point E2's parameters at the copy.
                e2.remap_columns(&rename);
                let key_pred = ScalarExpr::and(
                    key.iter()
                        .map(|c| ScalarExpr::eq(ScalarExpr::col(*c), ScalarExpr::col(rename[c]))),
                );
                let left = apply(ApplyKind::Cross, outer, e1);
                let right = apply(ApplyKind::Cross, outer2, e2);
                let mut out_cols = left.output_col_ids();
                let left_width = out_cols.len();
                let right_out = right.output_col_ids();
                // Keep E2's columns, drop the duplicated outer copy.
                let copy_ids: BTreeSet<ColId> = rename.values().copied().collect();
                out_cols.extend(right_out.into_iter().filter(|c| !copy_ids.contains(c)));
                let _ = left_width;
                return Ok(Pushed::Changed(
                    RelExpr::Project {
                        input: Box::new(RelExpr::Join {
                            kind: JoinKind::Inner,
                            left: Box::new(left),
                            right: Box::new(right),
                            predicate: key_pred,
                        }),
                        cols: out_cols,
                    },
                    Some(7),
                ));
            }
            Ok(Pushed::Stuck(
                Box::new(outer),
                Box::new(RelExpr::Join {
                    kind: jk,
                    left: Box::new(e1),
                    right: Box::new(e2),
                    predicate,
                }),
            ))
        }
        (ApplyKind::Cross, JoinKind::LeftOuter) if c1 && !c2 => {
            // Padding happens per E1-row in both forms.
            Ok(Pushed::Changed(
                RelExpr::Join {
                    kind: JoinKind::LeftOuter,
                    left: Box::new(apply(ApplyKind::Cross, outer, e1)),
                    right: Box::new(e2),
                    predicate,
                },
                Some(7),
            ))
        }
        (ApplyKind::Cross, JoinKind::LeftSemi | JoinKind::LeftAnti) if c1 && !c2 => {
            Ok(Pushed::Changed(
                RelExpr::Join {
                    kind: jk,
                    left: Box::new(apply(ApplyKind::Cross, outer, e1)),
                    right: Box::new(e2),
                    predicate,
                },
                Some(7),
            ))
        }
        (ApplyKind::Semi | ApplyKind::Anti, JoinKind::Inner) => {
            // Canonicalize to σp(cross) and use the existential strip.
            let stripped = strip_for_existential(
                RelExpr::Select {
                    input: Box::new(RelExpr::Join {
                        kind: JoinKind::Inner,
                        left: Box::new(e1),
                        right: Box::new(e2),
                        predicate: ScalarExpr::true_(),
                    }),
                    predicate,
                },
                vec![],
                &outer_cols,
            );
            match stripped {
                Ok((base, preds)) => Ok(Pushed::Changed(
                    RelExpr::Join {
                        kind: kind.to_join_kind(),
                        left: Box::new(outer),
                        right: Box::new(base),
                        predicate: ScalarExpr::and(preds),
                    },
                    Some(2),
                )),
                Err((base, preds)) => Ok(Pushed::Stuck(
                    Box::new(outer),
                    Box::new(RelExpr::Select {
                        input: Box::new(base),
                        predicate: ScalarExpr::and(preds),
                    }),
                )),
            }
        }
        _ => Ok(Pushed::Stuck(
            Box::new(outer),
            Box::new(RelExpr::Join {
                kind: jk,
                left: Box::new(e1),
                right: Box::new(e2),
                predicate,
            }),
        )),
    }
}

/// The join predicate may reference outer parameters — after the push
/// they become plain references to the Apply side's columns, which is
/// fine as long as the predicate has no nested subqueries.
fn predicate_stays(predicate: &ScalarExpr, _outer: &BTreeSet<ColId>) -> bool {
    !predicate.has_subquery()
}
