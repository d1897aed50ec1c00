//! Aggregate functions and their *abstract properties*.
//!
//! Following §1.2 of the paper, reordering rules operate "based on
//! abstract properties of aggregate functions, rather than considering
//! the five standard SQL aggregates":
//!
//! * [`AggFunc::on_empty`] — the scalar-aggregation result on empty
//!   input (§1.1: NULL for SUM, 0 for COUNT);
//! * [`AggFunc::empty_equals_all_null`] — whether `agg(∅) = agg({NULL})`,
//!   the validity condition of identity (9);
//! * [`AggFunc::split`] — the local/global decomposition of §3.3
//!   (`f(∪ Sᵢ) = f_global(∪ f_local(Sᵢ))`);
//! * [`AggFunc::duplicate_insensitive`] — MIN/MAX ignore multiplicity.
//!
//! `AVG` is a *composite* aggregate (footnote 3): it has no local/global
//! split of its own and is expanded by normalization into SUM/COUNT plus
//! a computing project.

use std::fmt;

use orthopt_common::{DataType, Value};

use crate::relop::ColumnMeta;
use crate::scalar::ScalarExpr;

/// Aggregate function.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AggFunc {
    /// `COUNT(*)` — counts rows.
    CountStar,
    /// `COUNT(expr)` — counts non-NULL values.
    Count,
    /// `SUM(expr)`.
    Sum,
    /// `MIN(expr)`.
    Min,
    /// `MAX(expr)`.
    Max,
    /// `AVG(expr)` — composite; expanded into SUM/COUNT by normalization.
    Avg,
}

impl AggFunc {
    /// Result of the aggregate over an empty input (scalar aggregation,
    /// §1.1): `SUM(∅) = NULL`, `COUNT(∅) = 0`.
    pub fn on_empty(self) -> Value {
        match self {
            AggFunc::CountStar | AggFunc::Count => Value::Int(0),
            AggFunc::Sum | AggFunc::Min | AggFunc::Max | AggFunc::Avg => Value::Null,
        }
    }

    /// Whether `agg(∅) = agg({NULL, …, NULL})` — the validity condition
    /// of identity (9). True for every SQL aggregate *applied to a
    /// column*; false for `COUNT(*)`, which is why the identity rewrites
    /// `COUNT(*)` into `COUNT(c)` over a non-nullable column of the
    /// inner relation.
    pub fn empty_equals_all_null(self) -> bool {
        !matches!(self, AggFunc::CountStar)
    }

    /// Local/global decomposition of §3.3: returns `(local, global)` so
    /// that `f(∪Sᵢ) = global(∪ local(Sᵢ))`, or `None` for composite
    /// aggregates (AVG).
    pub fn split(self) -> Option<(AggFunc, AggFunc)> {
        match self {
            AggFunc::CountStar => Some((AggFunc::CountStar, AggFunc::Sum)),
            AggFunc::Count => Some((AggFunc::Count, AggFunc::Sum)),
            AggFunc::Sum => Some((AggFunc::Sum, AggFunc::Sum)),
            AggFunc::Min => Some((AggFunc::Min, AggFunc::Min)),
            AggFunc::Max => Some((AggFunc::Max, AggFunc::Max)),
            AggFunc::Avg => None,
        }
    }

    /// MIN/MAX do not care about duplicate rows.
    pub fn duplicate_insensitive(self) -> bool {
        matches!(self, AggFunc::Min | AggFunc::Max)
    }

    /// Output type given the argument type (`None` for `COUNT(*)`).
    pub fn output_type(self, arg: Option<DataType>) -> DataType {
        match self {
            AggFunc::CountStar | AggFunc::Count => DataType::Int,
            AggFunc::Avg => DataType::Float,
            AggFunc::Sum | AggFunc::Min | AggFunc::Max => arg.unwrap_or(DataType::Int),
        }
    }

    /// Whether the output can be NULL: COUNT never is; the others are
    /// NULL on empty groups (scalar aggregation) or all-NULL inputs.
    pub fn output_nullable(self) -> bool {
        !matches!(self, AggFunc::CountStar | AggFunc::Count)
    }
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggFunc::CountStar => "count(*)",
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Avg => "avg",
        };
        f.write_str(s)
    }
}

/// One aggregate computation inside a GroupBy: `out := func(arg)`.
#[derive(Clone, PartialEq, Hash, Debug)]
pub struct AggDef {
    /// Output column (id, name, type, nullability).
    pub out: ColumnMeta,
    /// Function.
    pub func: AggFunc,
    /// Argument expression; `None` only for `COUNT(*)`.
    pub arg: Option<ScalarExpr>,
    /// `DISTINCT` modifier.
    pub distinct: bool,
}

impl AggDef {
    /// Builds an aggregate definition.
    pub fn new(out: ColumnMeta, func: AggFunc, arg: Option<ScalarExpr>) -> Self {
        AggDef {
            out,
            func,
            arg,
            distinct: false,
        }
    }
}

impl fmt::Display for AggDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (&self.func, &self.arg) {
            (AggFunc::CountStar, _) => write!(f, "{}:=count(*)", self.out.id),
            (func, Some(a)) => write!(
                f,
                "{}:={func}({}{a})",
                self.out.id,
                if self.distinct { "distinct " } else { "" }
            ),
            (func, None) => write!(f, "{}:={func}()", self.out.id),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_semantics_match_sql() {
        assert_eq!(AggFunc::Sum.on_empty(), Value::Null);
        assert_eq!(AggFunc::CountStar.on_empty(), Value::Int(0));
        assert_eq!(AggFunc::Count.on_empty(), Value::Int(0));
        assert_eq!(AggFunc::Min.on_empty(), Value::Null);
    }

    #[test]
    fn identity9_condition() {
        // COUNT(*) over a single all-NULL row is 1, not 0 — it must be
        // rewritten before identity (9) applies.
        assert!(!AggFunc::CountStar.empty_equals_all_null());
        assert!(AggFunc::Count.empty_equals_all_null());
        assert!(AggFunc::Sum.empty_equals_all_null());
    }

    #[test]
    fn splits_compose_correctly_by_type() {
        // count splits into local count + global sum.
        assert_eq!(AggFunc::Count.split(), Some((AggFunc::Count, AggFunc::Sum)));
        assert_eq!(AggFunc::Min.split(), Some((AggFunc::Min, AggFunc::Min)));
        assert_eq!(AggFunc::Avg.split(), None);
    }

    #[test]
    fn output_types() {
        assert_eq!(
            AggFunc::Sum.output_type(Some(DataType::Float)),
            DataType::Float
        );
        assert_eq!(
            AggFunc::Count.output_type(Some(DataType::Str)),
            DataType::Int
        );
        assert_eq!(
            AggFunc::Avg.output_type(Some(DataType::Int)),
            DataType::Float
        );
        assert_eq!(
            AggFunc::Min.output_type(Some(DataType::Date)),
            DataType::Date
        );
    }

    #[test]
    fn nullability() {
        assert!(!AggFunc::Count.output_nullable());
        assert!(AggFunc::Sum.output_nullable());
    }
}
