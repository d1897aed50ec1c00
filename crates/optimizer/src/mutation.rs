//! Deliberately broken optimizer-rule variants, for testing the
//! verifier (see `orthopt_rewrite::mutation` for the rewrite-side
//! counterparts). Only compiled under the `plancheck` feature.

use orthopt_common::{ColIdGen, Result};
use orthopt_exec::PhysExpr;
use orthopt_ir::{explain, AggDef, AggFunc, ColumnMeta, GroupKind, RelExpr, ScalarExpr};
use orthopt_plancheck as plancheck;

/// Mutated §3.3 LocalGroupBy split: splits every aggregate but combines
/// `COUNT` partials with `COUNT` instead of `SUM` — the (local, global)
/// pair no longer matches any [`AggFunc::split`], so the reconstruction
/// invariant fails.
pub fn local_split_wrong_combiner(rel: RelExpr) -> Result<RelExpr> {
    let mut used = rel.produced_cols();
    used.extend(rel.referenced_cols());
    let mut gen = ColIdGen::after(used);
    let mut hit = false;
    let after = split_first(rel, &mut gen, &mut hit);
    plancheck::blame(
        "mutation::local_split_wrong_combiner",
        None,
        plancheck::check_logical(&after),
        || (String::new(), explain::explain(&after)),
    )?;
    Ok(after)
}

fn split_first(mut rel: RelExpr, gen: &mut ColIdGen, hit: &mut bool) -> RelExpr {
    if !*hit {
        if let RelExpr::GroupBy {
            kind: GroupKind::Vector,
            input,
            group_cols,
            aggs,
        } = rel
        {
            let splittable = aggs.iter().all(|a| a.func.split().is_some());
            let has_count = aggs
                .iter()
                .any(|a| matches!(a.func, AggFunc::Count | AggFunc::CountStar));
            if splittable && has_count {
                *hit = true;
                let mut local_aggs = Vec::new();
                let mut global_aggs = Vec::new();
                for a in aggs {
                    let (lf, gf) = a.func.split().expect("checked splittable");
                    let local_out = ColumnMeta::new(
                        gen.fresh(),
                        format!("l_{}", a.out.name),
                        a.out.ty,
                        a.out.nullable,
                    );
                    // The mutation: COUNT partials combined with COUNT.
                    let global_func = if matches!(a.func, AggFunc::Count | AggFunc::CountStar) {
                        lf
                    } else {
                        gf
                    };
                    global_aggs.push(AggDef {
                        out: a.out,
                        func: global_func,
                        arg: Some(ScalarExpr::col(local_out.id)),
                        distinct: false,
                    });
                    local_aggs.push(AggDef {
                        out: local_out,
                        func: lf,
                        arg: a.arg,
                        distinct: a.distinct,
                    });
                }
                return RelExpr::GroupBy {
                    kind: GroupKind::Vector,
                    input: Box::new(RelExpr::GroupBy {
                        kind: GroupKind::Local,
                        input,
                        group_cols: group_cols.clone(),
                        aggs: local_aggs,
                    }),
                    group_cols,
                    aggs: global_aggs,
                };
            }
            rel = RelExpr::GroupBy {
                kind: GroupKind::Vector,
                input,
                group_cols,
                aggs,
            };
        }
    }
    for child in rel.children_mut() {
        let taken = std::mem::replace(child, *crate::memo::stub());
        *child = split_first(taken, gen, hit);
        if *hit {
            break;
        }
    }
    rel
}

/// Mutated Exchange placement: wraps a subtree that does *not* satisfy
/// the parallel shape grammar (nesting a second Exchange when the plan
/// itself would be eligible), violating physical legality.
pub fn exchange_out_of_grammar(plan: PhysExpr) -> Result<PhysExpr> {
    let wrapped = if orthopt_exec::exchange_eligible(&plan) {
        PhysExpr::Exchange {
            input: Box::new(PhysExpr::Exchange {
                input: Box::new(plan),
            }),
        }
    } else {
        PhysExpr::Exchange {
            input: Box::new(plan),
        }
    };
    blame_physical("mutation::exchange_out_of_grammar", wrapped)
}

/// Applies `mutate` to the first node (preorder) for which it returns
/// `true`; reports whether any node was mutated.
fn mutate_first(plan: &mut PhysExpr, mutate: &mut dyn FnMut(&mut PhysExpr) -> bool) -> bool {
    if mutate(plan) {
        return true;
    }
    for child in plan.children_mut() {
        if mutate_first(child, mutate) {
            return true;
        }
    }
    false
}

fn blame_physical(rule: &str, plan: PhysExpr) -> Result<PhysExpr> {
    plancheck::blame(rule, None, plancheck::check_physical(&plan), || {
        (String::new(), orthopt_exec::explain_phys(&plan))
    })?;
    Ok(plan)
}

/// Mutated Exchange placement: wraps the first global (Vector or
/// Scalar) `HashAggregate` in an Exchange — every worker would emit its
/// own groups and nothing above would combine them. Only a `Local`
/// aggregate, whose combiner sits above the exchange, is in grammar.
pub fn exchange_over_global_aggregate(mut plan: PhysExpr) -> Result<PhysExpr> {
    mutate_first(&mut plan, &mut |node| {
        let global = matches!(
            node,
            PhysExpr::HashAggregate {
                kind: GroupKind::Vector | GroupKind::Scalar,
                ..
            }
        );
        if global {
            let aggregate = std::mem::replace(node, PhysExpr::const_rows(vec![], &[]));
            *node = PhysExpr::Exchange {
                input: Box::new(aggregate),
            };
        }
        global
    });
    blame_physical("mutation::exchange_over_global_aggregate", plan)
}

/// Mutated apply wiring: drops the last correlation parameter from the
/// first `ApplyLoop`, so the rebind arity no longer covers the inner
/// side's outer references — the inner subtree now reads a column
/// nobody provides.
pub fn apply_drop_param(mut plan: PhysExpr) -> Result<PhysExpr> {
    mutate_first(&mut plan, &mut |node| {
        if let PhysExpr::ApplyLoop { params, .. } = node {
            if !params.is_empty() {
                params.pop();
                return true;
            }
        }
        false
    });
    blame_physical("mutation::apply_drop_param", plan)
}

/// Mutated index-lookup fusion: swaps the first two index columns of
/// the first `IndexLookupJoin` without re-pairing the probes, breaking
/// the canonical (strictly ascending) probe-to-index ordering.
pub fn index_lookup_permute_index(mut plan: PhysExpr) -> Result<PhysExpr> {
    mutate_first(&mut plan, &mut |node| {
        if let PhysExpr::IndexLookupJoin { index_cols, .. } = node {
            if index_cols.len() >= 2 {
                index_cols.swap(0, 1);
                return true;
            }
        }
        false
    });
    blame_physical("mutation::index_lookup_permute_index", plan)
}
