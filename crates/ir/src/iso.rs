//! Structural isomorphism of operator trees modulo column ids.
//!
//! Two bound trees coming from the same SQL text (e.g. the two instances
//! of `lineitem` in TPC-H Q17 after decorrelation) have identical shape
//! but disjoint column ids. SegmentApply introduction (§3.4.1) needs to
//! detect exactly this: "two instances of an expression connected by a
//! join". The syntax-independence tests (§1.2) use it too — plans from
//! different SQL formulations must be isomorphic.
//!
//! Both questions are one comparison: rename each tree's produced
//! columns to a canonical form and compare the two forms with `==`.
//! Free columns (outer parameters) are not renamed, so they must match
//! as they are.

use std::collections::HashMap;

use orthopt_common::{ColId, ColIdGen};

use crate::relop::{ColumnMeta, GetMeta, RelExpr};

/// Compares two trees for structural equality modulo a bijective
/// renaming of the columns they produce; on success returns the
/// left→right mapping of produced columns.
pub fn rel_isomorphic(a: &RelExpr, b: &RelExpr) -> Option<HashMap<ColId, ColId>> {
    let ids = |r: &RelExpr| r.produced_cols().into_iter().chain(r.referenced_cols());
    let gen = ColIdGen::after(ids(a).chain(ids(b)));
    let (canon_a, to_canon_a) = canonical(a, gen.clone());
    let (canon_b, to_canon_b) = canonical(b, gen);
    if canon_a != canon_b {
        return None;
    }
    let from_canon_b: HashMap<ColId, ColId> =
        to_canon_b.into_iter().map(|(old, c)| (c, old)).collect();
    Some(
        to_canon_a
            .into_iter()
            .map(|(old, c)| (old, from_canon_b[&c]))
            .collect(),
    )
}

/// Instance matching for SegmentApply detection (§3.4.1): like
/// [`rel_isomorphic`], except that each `Get` of `b` may scan a subset of
/// the base-table columns its partner in `a` scans (the two instances of
/// an expression are usually pruned to different column sets). The
/// mapping still goes `a → b`; `a`-columns without a counterpart in `b`
/// stay unmapped. A consumer of whole rows (`Except`, `UnionAll`) lists
/// its columns, so a narrower scan under one still fails the comparison.
pub fn rel_instance(a: &RelExpr, b: &RelExpr) -> Option<HashMap<ColId, ColId>> {
    let (scans_a, scans_b) = (scans(a), scans(b));
    let fits = |(ga, gb): (&GetMeta, &GetMeta)| {
        ga.table == gb.table && gb.positions.iter().all(|p| ga.positions.contains(p))
    };
    if scans_a.len() != scans_b.len() || !scans_a.iter().zip(&scans_b).all(fits) {
        return None;
    }
    // Cut each scan of `a` to its partner's positions, in its order. A
    // scan finds its partner by its columns: `walk_mut` reaches nested
    // subqueries in another order than `walk`.
    let mut cut = a.clone();
    cut.walk_mut(&mut |r| {
        let RelExpr::Get(g) = r else { return };
        let Some((_, partner)) = scans_a
            .iter()
            .zip(&scans_b)
            .find(|(ga, _)| ga.cols == g.cols)
        else {
            return;
        };
        let at = |p: &usize| {
            g.positions
                .iter()
                .position(|q| q == p)
                .map(|i| g.cols[i].clone())
        };
        let cols = partner.positions.iter().filter_map(at).collect();
        g.cols = cols;
        g.positions = partner.positions.clone();
    });
    rel_isomorphic(&cut, b)
}

/// The tree's scans, in pre-order.
fn scans(rel: &RelExpr) -> Vec<GetMeta> {
    let mut out = Vec::new();
    rel.walk(&mut |r| {
        if let RelExpr::Get(g) = r {
            out.push(g.clone());
        }
    });
    out
}

/// A copy of `rel` whose produced columns are renamed, in pre-order of
/// production, to ids drawn from `gen`, with what the comparison ignores
/// blanked: column names and nullability, and a scan's keys, statistics
/// and row count. Also returns the old→canonical mapping.
fn canonical(rel: &RelExpr, mut gen: ColIdGen) -> (RelExpr, HashMap<ColId, ColId>) {
    let mut map = HashMap::new();
    for c in rel.produced_in_order() {
        map.entry(c).or_insert_with(|| gen.fresh());
    }
    let mut canon = rel.clone();
    canon.remap_columns(&map);
    let blank = |m: &mut ColumnMeta| {
        m.name.clear();
        m.nullable = false;
    };
    canon.walk_mut(&mut |r| match r {
        RelExpr::Get(g) => {
            g.cols.iter_mut().for_each(blank);
            g.keys.clear();
            g.col_stats.clear();
            g.row_count = 0.0;
        }
        RelExpr::ConstRel { cols, .. } | RelExpr::UnionAll { cols, .. } => {
            cols.iter_mut().for_each(blank);
        }
        RelExpr::Map { defs, .. } => defs.iter_mut().for_each(|d| blank(&mut d.col)),
        RelExpr::GroupBy { aggs, .. } => aggs.iter_mut().for_each(|a| blank(&mut a.out)),
        RelExpr::Enumerate { col, .. } => blank(col),
        RelExpr::SegmentRef { cols } => cols.iter_mut().for_each(|(m, _)| blank(m)),
        _ => {}
    });
    (canon, map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{self, t};
    use crate::relop::JoinKind;
    use crate::scalar::{CmpOp, ScalarExpr};

    #[test]
    fn tree_is_isomorphic_to_its_fresh_clone() {
        let rel = builder::select(
            builder::join(
                JoinKind::Inner,
                t::get_ab(),
                t::get_cd(),
                ScalarExpr::eq(ScalarExpr::col(t::COL_A), ScalarExpr::col(t::COL_C)),
            ),
            ScalarExpr::cmp(
                crate::scalar::CmpOp::Gt,
                ScalarExpr::col(t::COL_B),
                ScalarExpr::lit(0i64),
            ),
        );
        let mut gen = ColIdGen::starting_at(100);
        let (copy, map) = rel.clone_with_fresh_cols(&mut gen);
        let iso = rel_isomorphic(&rel, &copy).expect("isomorphic");
        assert_eq!(iso[&t::COL_A], map[&t::COL_A]);
    }

    #[test]
    fn different_tables_are_not_isomorphic() {
        assert!(rel_isomorphic(&t::get_ab(), &t::get_cd()).is_none());
    }

    #[test]
    fn different_literals_break_isomorphism() {
        let a = builder::select(
            t::get_ab(),
            ScalarExpr::eq(ScalarExpr::col(t::COL_A), ScalarExpr::lit(1i64)),
        );
        let b = builder::select(
            t::get_ab(),
            ScalarExpr::eq(ScalarExpr::col(t::COL_A), ScalarExpr::lit(2i64)),
        );
        assert!(rel_isomorphic(&a, &b).is_none());
    }

    #[test]
    fn bijection_rejects_many_to_one() {
        // a(x) compared with itself twice is fine; but mapping two
        // different left cols onto the same right col must fail.
        let left = builder::select(
            t::get_ab(),
            ScalarExpr::eq(ScalarExpr::col(t::COL_A), ScalarExpr::col(t::COL_B)),
        );
        // Right references COL_A twice where left used A and B.
        let right = builder::select(
            t::get_ab(),
            ScalarExpr::eq(ScalarExpr::col(t::COL_A), ScalarExpr::col(t::COL_A)),
        );
        assert!(rel_isomorphic(&left, &right).is_none());
    }

    #[test]
    fn pinned_params_must_map_to_themselves() {
        // Inner expressions referencing an outer parameter c77: a fresh
        // clone keeps it, a clone that renames it is another expression.
        let a = builder::select(
            t::get_ab(),
            ScalarExpr::eq(ScalarExpr::col(t::COL_A), ScalarExpr::col(ColId(77))),
        );
        let mut gen = ColIdGen::starting_at(200);
        let (b, _) = a.clone_with_fresh_cols(&mut gen);
        assert!(rel_isomorphic(&a, &b).is_some());
        let mut other_param = b;
        other_param.remap_columns(&[(ColId(77), ColId(78))].into_iter().collect());
        assert!(rel_isomorphic(&a, &other_param).is_none());
    }

    /// `Get ab` narrowed to its `a` column.
    fn get_a_only() -> RelExpr {
        let mut g = t::get_ab();
        if let RelExpr::Get(m) = &mut g {
            m.cols.truncate(1);
            m.positions.truncate(1);
        }
        g
    }

    fn a_gt(rel: RelExpr, v: i64) -> RelExpr {
        let pred = ScalarExpr::cmp(CmpOp::Gt, ScalarExpr::col(t::COL_A), ScalarExpr::lit(v));
        builder::select(rel, pred)
    }

    #[test]
    fn an_instance_may_scan_a_subset_of_the_columns() {
        // The aggregated instance of Q17's lineitem reads fewer columns
        // than the other one: the instance still matches, and the
        // unread column stays unmapped.
        let a = a_gt(
            builder::join(
                JoinKind::Inner,
                t::get_ab(),
                t::get_cd(),
                ScalarExpr::true_(),
            ),
            0,
        );
        let narrow = builder::join(
            JoinKind::Inner,
            get_a_only(),
            t::get_cd(),
            ScalarExpr::true_(),
        );
        let (b, fresh) = a_gt(narrow, 0).clone_with_fresh_cols(&mut ColIdGen::starting_at(100));
        assert!(rel_isomorphic(&a, &b).is_none());
        let map = rel_instance(&a, &b).expect("instance");
        assert_eq!(map[&t::COL_A], fresh[&t::COL_A]);
        assert_eq!(map[&t::COL_D], fresh[&t::COL_D]);
        assert!(!map.contains_key(&t::COL_B));
        // The wider side is no instance of the narrower one.
        assert!(rel_instance(&b, &a).is_none());
    }

    #[test]
    fn instances_differing_in_a_literal_are_rejected() {
        let a = a_gt(t::get_ab(), 0);
        let (b, _) = a_gt(get_a_only(), 1).clone_with_fresh_cols(&mut ColIdGen::starting_at(100));
        assert!(rel_instance(&a, &b).is_none());
    }

    #[test]
    fn whole_row_consumers_reject_narrower_scans() {
        // `Except` compares whole left rows and `UnionAll` maps every
        // column: the narrower scan changes the column lists they hold.
        let except = |left: RelExpr, right_map: Vec<ColId>| RelExpr::Except {
            left: Box::new(left),
            right: Box::new(t::get_cd()),
            right_map,
        };
        let a = except(t::get_ab(), vec![t::COL_C, t::COL_D]);
        let b = except(get_a_only(), vec![t::COL_C]);
        assert!(rel_instance(&a, &b).is_none());

        let union = |left: RelExpr, width: usize| {
            let cols = t::get_cd().output_cols()[..width].to_vec();
            RelExpr::UnionAll {
                left: Box::new(left),
                right: Box::new(t::get_cd()),
                left_map: [t::COL_A, t::COL_B][..width].to_vec(),
                right_map: cols.iter().map(|c| c.id).collect(),
                cols: cols
                    .into_iter()
                    .map(|c| ColumnMeta {
                        id: ColId(c.id.0 + 10),
                        ..c
                    })
                    .collect(),
            }
        };
        assert!(rel_instance(&union(t::get_ab(), 2), &union(get_a_only(), 1)).is_none());
    }

    #[test]
    fn a_produced_id_equal_to_a_free_id_is_not_conflated() {
        // `a` compares its column with the outer parameter c77; `b`
        // produces c77 itself and compares it with itself.
        let a = builder::select(
            t::get_ab(),
            ScalarExpr::eq(ScalarExpr::col(t::COL_A), ScalarExpr::col(ColId(77))),
        );
        let (b, fresh) = a.clone_with_fresh_cols(&mut ColIdGen::starting_at(77));
        assert_eq!(fresh[&t::COL_A], ColId(77));
        assert!(rel_isomorphic(&a, &b).is_none());
        assert!(rel_instance(&a, &b).is_none());
        // The same with a free id (c0) below every produced one, where
        // a canonical id counted from zero would land.
        let c_eq = |other| ScalarExpr::eq(ScalarExpr::col(t::COL_C), ScalarExpr::col(other));
        let a = builder::select(t::get_cd(), c_eq(ColId(0)));
        let b = builder::select(t::get_cd(), c_eq(t::COL_C));
        assert!(rel_isomorphic(&a, &b).is_none());
    }
}
