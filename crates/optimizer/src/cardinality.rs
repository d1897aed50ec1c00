//! Cardinality estimation.
//!
//! Statistics ride on the `Get` leaves (snapshotted at bind time), so
//! the estimator needs only the tree itself: a [`StatsEnv`] collects
//! per-column NDV/null-fraction/bounds from every scan, then standard
//! selectivity arithmetic estimates each operator.

use std::collections::HashMap;

use orthopt_common::{ColId, Value};
use orthopt_ir::{ApplyKind, CmpOp, ColStat, GroupKind, JoinKind, RelExpr, ScalarExpr};

/// Default selectivity of an opaque predicate.
const DEFAULT_SEL: f64 = 0.333;
/// Default selectivity of a range comparison.
const RANGE_SEL: f64 = 0.3;

/// Column statistics harvested from a tree's scans.
#[derive(Debug, Default, Clone)]
pub struct StatsEnv {
    cols: HashMap<ColId, ColStat>,
}

impl StatsEnv {
    /// Collects statistics from every `Get` (and `SegmentRef` aliasing)
    /// in the tree.
    pub fn build(rel: &RelExpr) -> StatsEnv {
        let mut env = StatsEnv::default();
        rel.walk(&mut |r| match r {
            RelExpr::Get(g) => {
                for (c, s) in g.cols.iter().zip(&g.col_stats) {
                    env.cols.insert(c.id, s.clone());
                }
            }
            RelExpr::SegmentRef { cols } => {
                // Re-exposed segment columns inherit source statistics
                // (filled lazily on lookup via the alias map).
                for (m, src) in cols {
                    if let Some(s) = env.cols.get(src).cloned() {
                        env.cols.insert(m.id, s);
                    }
                }
            }
            _ => {}
        });
        env
    }

    /// NDV of a column (pessimistic default when unknown).
    pub fn ndv(&self, col: ColId) -> f64 {
        self.cols.get(&col).map_or(100.0, |s| s.ndv.max(1.0))
    }

    fn null_frac(&self, col: ColId) -> f64 {
        self.cols.get(&col).map_or(0.0, |s| s.null_frac)
    }

    /// Fraction of a column's range below/above a literal, when bounds
    /// are known.
    fn range_fraction(&self, col: ColId, op: CmpOp, lit: &Value) -> Option<f64> {
        let stat = self.cols.get(&col)?;
        let (min, max) = (stat.min?, stat.max?);
        let v = match lit {
            Value::Int(i) => *i as f64,
            Value::Float(f) => *f,
            Value::Date(d) => *d as f64,
            _ => return None,
        };
        if max <= min {
            return Some(DEFAULT_SEL);
        }
        let frac = ((v - min) / (max - min)).clamp(0.0, 1.0);
        Some(match op {
            CmpOp::Lt | CmpOp::Le => frac,
            CmpOp::Gt | CmpOp::Ge => 1.0 - frac,
            CmpOp::Eq => 1.0 / self.ndv(col),
            CmpOp::Ne => 1.0 - 1.0 / self.ndv(col),
        })
    }
}

/// The estimator.
#[derive(Debug, Default)]
pub struct Estimator {
    /// Harvested statistics.
    pub stats: StatsEnv,
}

impl Estimator {
    /// Builds an estimator for (any subtree of) the given root.
    pub fn new(root: &RelExpr) -> Estimator {
        Estimator {
            stats: StatsEnv::build(root),
        }
    }

    /// Estimated output cardinality of a logical expression.
    pub fn card(&self, rel: &RelExpr) -> f64 {
        self.card_inner(rel, None).max(0.0)
    }

    fn card_inner(&self, rel: &RelExpr, seg: Option<f64>) -> f64 {
        if let RelExpr::SegmentApply {
            input,
            segment_cols,
            inner,
        } = rel
        {
            // The inner expression runs once per segment, over that
            // segment's share of the input.
            let in_card = self.card_inner(input, seg);
            let per_segment = in_card / self.group_count(segment_cols, in_card).max(1.0);
            let inner = self.card_inner(inner, Some(per_segment));
            return self.op_card(rel, &[in_card, inner], seg);
        }
        let kids: Vec<f64> = rel
            .children()
            .into_iter()
            .map(|c| self.card_inner(c, seg))
            .collect();
        self.op_card(rel, &kids, seg)
    }

    /// One operator's output cardinality from its inputs' (in
    /// `children()` order) — what the memo derives a group's estimate
    /// from. `seg` is the rows per segment a `SegmentRef` stands for, and
    /// a `SegmentApply`'s second input is its inner expression's rows *per
    /// segment* — which takes the inner subtree ([`Estimator::card`]).
    pub fn op_card(&self, op: &RelExpr, kids: &[f64], seg: Option<f64>) -> f64 {
        match op {
            RelExpr::Get(g) => g.row_count,
            RelExpr::ConstRel { rows, .. } => rows.len() as f64,
            RelExpr::Select { predicate, .. } => kids[0] * self.selectivity(predicate),
            RelExpr::Map { .. } | RelExpr::Enumerate { .. } | RelExpr::Project { .. } => kids[0],
            RelExpr::Join {
                kind, predicate, ..
            } => {
                let (l, r) = (kids[0], kids[1]);
                let sel = self.selectivity(predicate);
                match kind {
                    JoinKind::Inner => (l * r * sel).max(0.0),
                    JoinKind::LeftOuter => (l * r * sel).max(l),
                    JoinKind::LeftSemi => (l * (1.0 - (-r * sel).exp())).min(l),
                    JoinKind::LeftAnti => {
                        let semi = (l * (1.0 - (-r * sel).exp())).min(l);
                        (l - semi).max(0.0)
                    }
                }
            }
            RelExpr::Apply { kind, .. } => {
                let (l, r) = (kids[0], kids[1]);
                match kind {
                    ApplyKind::Cross => l * r,
                    ApplyKind::LeftOuter => l * r.max(1.0),
                    ApplyKind::Semi => l * 0.5,
                    ApplyKind::Anti => l * 0.5,
                }
            }
            RelExpr::SegmentApply { segment_cols, .. } => {
                self.group_count(segment_cols, kids[0]) * kids[1]
            }
            RelExpr::SegmentRef { .. } => seg.unwrap_or(100.0),
            RelExpr::GroupBy {
                kind, group_cols, ..
            } => match kind {
                GroupKind::Scalar => 1.0,
                GroupKind::Vector | GroupKind::Local => self.group_count(group_cols, kids[0]),
            },
            RelExpr::UnionAll { .. } => kids[0] + kids[1],
            RelExpr::Except { .. } => kids[0] * 0.5,
            RelExpr::Max1Row { .. } => 1.0,
        }
    }

    /// Estimated number of groups when grouping `card` rows by `cols`.
    pub fn group_count(&self, cols: &[ColId], card: f64) -> f64 {
        if cols.is_empty() {
            return 1.0;
        }
        let ndv_product: f64 = cols.iter().map(|c| self.stats.ndv(*c)).product();
        ndv_product.min(card).max(1.0)
    }

    /// Selectivity of a predicate.
    pub fn selectivity(&self, pred: &ScalarExpr) -> f64 {
        match pred {
            ScalarExpr::Literal(Value::Bool(true)) => 1.0,
            ScalarExpr::Literal(Value::Bool(false)) | ScalarExpr::Literal(Value::Null) => 0.0,
            ScalarExpr::And(parts) => parts.iter().map(|p| self.selectivity(p)).product(),
            ScalarExpr::Or(parts) => {
                let mut keep = 1.0;
                for p in parts {
                    keep *= 1.0 - self.selectivity(p);
                }
                1.0 - keep
            }
            ScalarExpr::Not(inner) => (1.0 - self.selectivity(inner)).max(0.0),
            ScalarExpr::Cmp { op, left, right } => self.cmp_selectivity(*op, left, right),
            ScalarExpr::IsNull { expr, negated } => {
                let f = match expr.as_ref() {
                    ScalarExpr::Column(c) => self.stats.null_frac(*c),
                    _ => 0.1,
                };
                if *negated {
                    1.0 - f
                } else {
                    f
                }
            }
            _ => DEFAULT_SEL,
        }
    }

    fn cmp_selectivity(&self, op: CmpOp, left: &ScalarExpr, right: &ScalarExpr) -> f64 {
        match (left, right) {
            (ScalarExpr::Column(a), ScalarExpr::Column(b)) => match op {
                CmpOp::Eq => 1.0 / self.stats.ndv(*a).max(self.stats.ndv(*b)),
                CmpOp::Ne => 1.0 - 1.0 / self.stats.ndv(*a).max(self.stats.ndv(*b)),
                _ => RANGE_SEL,
            },
            (ScalarExpr::Column(c), ScalarExpr::Literal(v)) => {
                self.stats.range_fraction(*c, op, v).unwrap_or(match op {
                    CmpOp::Eq => 1.0 / self.stats.ndv(*c),
                    CmpOp::Ne => 1.0 - 1.0 / self.stats.ndv(*c),
                    _ => RANGE_SEL,
                })
            }
            (ScalarExpr::Literal(v), ScalarExpr::Column(c)) => self.cmp_selectivity(
                op.flip(),
                &ScalarExpr::Column(*c),
                &ScalarExpr::Literal(v.clone()),
            ),
            _ => match op {
                CmpOp::Eq => 0.1,
                _ => RANGE_SEL,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orthopt_ir::builder::{self, t};

    fn est(rel: &RelExpr) -> Estimator {
        Estimator::new(rel)
    }

    #[test]
    fn scan_uses_row_count() {
        let g = t::get_ab();
        assert_eq!(est(&g).card(&g), 1000.0);
    }

    #[test]
    fn equality_selectivity_uses_ndv() {
        let sel = builder::select(
            t::get_ab(),
            ScalarExpr::eq(ScalarExpr::col(t::COL_A), ScalarExpr::lit(5i64)),
        );
        let e = est(&sel);
        // ColStat::unknown() has ndv 100 ⇒ 1000/100 = 10.
        assert!((e.card(&sel) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn join_estimate_composes() {
        let join = builder::join(
            JoinKind::Inner,
            t::get_ab(),
            t::get_cd(),
            ScalarExpr::eq(ScalarExpr::col(t::COL_A), ScalarExpr::col(t::COL_C)),
        );
        let e = est(&join);
        // 1000 × 1000 / max(ndv) = 10_000.
        assert!((e.card(&join) - 10_000.0).abs() < 1e-6);
    }

    #[test]
    fn groupby_capped_by_input() {
        let gb = t::groupby_sum_b_by_a(builder::select(
            t::get_ab(),
            ScalarExpr::eq(ScalarExpr::col(t::COL_B), ScalarExpr::lit(1i64)),
        ));
        let e = est(&gb);
        // Input ≈ 10 rows; 100 NDV capped at 10.
        assert!(e.card(&gb) <= 10.0 + 1e-9);
    }

    #[test]
    fn scalar_groupby_is_one() {
        let gb = t::scalar_sum_b(t::get_ab());
        assert_eq!(est(&gb).card(&gb), 1.0);
    }

    #[test]
    fn outerjoin_at_least_preserves_left() {
        let join = builder::join(
            JoinKind::LeftOuter,
            t::get_ab(),
            t::get_cd(),
            ScalarExpr::Literal(Value::Bool(false)),
        );
        let e = est(&join);
        assert!(e.card(&join) >= 1000.0);
    }

    #[test]
    fn and_or_selectivities() {
        let g = t::get_ab();
        let e = est(&g);
        let eq = ScalarExpr::eq(ScalarExpr::col(t::COL_A), ScalarExpr::lit(1i64));
        let both = ScalarExpr::and([eq.clone(), eq.clone()]);
        assert!(e.selectivity(&both) < e.selectivity(&eq));
        let either = ScalarExpr::Or(vec![eq.clone(), eq.clone()]);
        assert!(e.selectivity(&either) >= e.selectivity(&eq));
    }
}
