//! Relational operators.
//!
//! All operators are bag-oriented (§1.3: "we deal with SQL, all operators
//! used in this paper are bag-oriented"); `UNION` here is `UNION ALL`,
//! and duplicate removal is an explicit GroupBy.

use std::collections::BTreeSet;
use std::fmt;

use orthopt_common::{ColId, DataType, Row, TableId};

use crate::agg::AggDef;
use crate::scalar::ScalarExpr;

/// Metadata of one output column of an operator.
#[derive(Clone, PartialEq, Hash, Debug)]
pub struct ColumnMeta {
    /// Globally unique id.
    pub id: ColId,
    /// Human-readable name (for explain output and result headers).
    pub name: String,
    /// Type.
    pub ty: DataType,
    /// Whether NULL can appear.
    pub nullable: bool,
}

impl ColumnMeta {
    /// Builds column metadata.
    pub fn new(id: ColId, name: impl Into<String>, ty: DataType, nullable: bool) -> Self {
        ColumnMeta {
            id,
            name: name.into(),
            ty,
            nullable,
        }
    }
}

/// Statistics snapshot for one column of a base-table scan, captured at
/// bind time so the optimizer needs no catalog round-trips.
#[derive(Clone, PartialEq, Debug)]
pub struct ColStat {
    /// Distinct non-NULL values.
    pub ndv: f64,
    /// Fraction of NULLs.
    pub null_frac: f64,
    /// Numeric minimum (ints, floats and dates mapped to f64).
    pub min: Option<f64>,
    /// Numeric maximum.
    pub max: Option<f64>,
}

impl ColStat {
    /// Uninformed placeholder statistics.
    pub fn unknown() -> Self {
        ColStat {
            ndv: 100.0,
            null_frac: 0.0,
            min: None,
            max: None,
        }
    }
}

/// Everything a base-table scan needs: identity, bound columns, keys and
/// a statistics snapshot.
#[derive(Clone, PartialEq, Debug)]
pub struct GetMeta {
    /// Catalog id of the table.
    pub table: TableId,
    /// Table name, for explain output.
    pub table_name: String,
    /// Bound output columns (one per referenced base column).
    pub cols: Vec<ColumnMeta>,
    /// For each entry of `cols`, the column position in the base table.
    pub positions: Vec<usize>,
    /// Declared keys, expressed in output [`ColId`]s (only keys fully
    /// covered by the bound columns appear).
    pub keys: Vec<Vec<ColId>>,
    /// Table row count at bind time.
    pub row_count: f64,
    /// Per-bound-column statistics.
    pub col_stats: Vec<ColStat>,
    /// Base-column position sets that have a hash index.
    pub indexes: Vec<Vec<usize>>,
}

/// A scan hashes as its table and bound column ids: the float-valued
/// statistics stay out, and equal scans still hash alike.
impl std::hash::Hash for GetMeta {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.table.hash(state);
        for c in &self.cols {
            c.id.hash(state);
        }
    }
}

/// Join variants. Cross product is `Inner` with a TRUE predicate.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum JoinKind {
    /// Inner join.
    Inner,
    /// Left outer join — preserves left rows, NULL-padding the right.
    LeftOuter,
    /// Left semijoin — left rows with at least one match.
    LeftSemi,
    /// Left antijoin — left rows with no match.
    LeftAnti,
}

impl fmt::Display for JoinKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            JoinKind::Inner => "Join",
            JoinKind::LeftOuter => "LeftOuterJoin",
            JoinKind::LeftSemi => "SemiJoin",
            JoinKind::LeftAnti => "AntiJoin",
        };
        f.write_str(s)
    }
}

/// Apply variants (§1.3): `R A⊗ E` evaluates the parameterized
/// expression `E(r)` for every row `r ∈ R` and combines with `⊗`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ApplyKind {
    /// `⊗` = cross product (the most primitive form `A×`).
    Cross,
    /// `⊗` = left outerjoin: preserves `r` when `E(r)` is empty.
    LeftOuter,
    /// `⊗` = left semijoin: keeps `r` iff `E(r)` is non-empty.
    Semi,
    /// `⊗` = left antijoin: keeps `r` iff `E(r)` is empty.
    Anti,
}

impl ApplyKind {
    /// The plain-join analogue used by identities (1)/(2) once the inner
    /// expression no longer references the outer row.
    pub fn to_join_kind(self) -> JoinKind {
        match self {
            ApplyKind::Cross => JoinKind::Inner,
            ApplyKind::LeftOuter => JoinKind::LeftOuter,
            ApplyKind::Semi => JoinKind::LeftSemi,
            ApplyKind::Anti => JoinKind::LeftAnti,
        }
    }
}

/// Physical strategy hint for correlated (re-)introduction (§4): which
/// Apply implementation the planner may emit. `Auto` lets the cost
/// model race the Apply against the index-lookup join; the forced
/// variants pin one for isolation testing (`ORTHOPT_APPLY_STRATEGY` /
/// `SET apply_strategy`), falling back to the Apply when the index join
/// is not constructible for a given Apply.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum ApplyStrategy {
    /// Cost-based race (the default).
    #[default]
    Auto,
    /// `ApplyLoop`, never the index join: the inner plan runs once per
    /// distinct outer binding.
    Loop,
    /// `IndexLookupJoin`: probe a storage hash index with every outer
    /// lane, a join probe whose build the table holds (requires a
    /// seek-shaped inner over an indexed column).
    Index,
}

impl ApplyStrategy {
    /// Parses the knob's external spelling (env var / `SET` value).
    pub fn parse(s: &str) -> Option<ApplyStrategy> {
        match s.trim().to_ascii_lowercase().as_str() {
            "auto" => Some(ApplyStrategy::Auto),
            "loop" => Some(ApplyStrategy::Loop),
            "index" => Some(ApplyStrategy::Index),
            _ => None,
        }
    }

    /// The knob's external spelling.
    pub fn name(self) -> &'static str {
        match self {
            ApplyStrategy::Auto => "auto",
            ApplyStrategy::Loop => "loop",
            ApplyStrategy::Index => "index",
        }
    }
}

impl fmt::Display for ApplyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ApplyKind::Cross => "Apply",
            ApplyKind::LeftOuter => "ApplyLeftOuter",
            ApplyKind::Semi => "ApplySemi",
            ApplyKind::Anti => "ApplyAnti",
        };
        f.write_str(s)
    }
}

/// GroupBy flavours (§1.1, §3.3).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum GroupKind {
    /// Vector aggregation `G_{A,F}`: one row per group; empty input ⇒
    /// empty output.
    Vector,
    /// Scalar aggregation `G¹_F`: no grouping columns, always exactly one
    /// output row (NULL/0 aggregates on empty input).
    Scalar,
    /// LocalGroupBy `LG_{A,F}` (§3.3): partial aggregation whose grouping
    /// columns may be freely extended; must be followed (somewhere above)
    /// by a global GroupBy combining the partial results.
    Local,
}

impl fmt::Display for GroupKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            GroupKind::Vector => "GroupBy",
            GroupKind::Scalar => "ScalarGroupBy",
            GroupKind::Local => "LocalGroupBy",
        };
        f.write_str(s)
    }
}

/// One computed column of a `Map`: `col := expr`.
#[derive(Clone, PartialEq, Hash, Debug)]
pub struct MapDef {
    /// Output column metadata.
    pub col: ColumnMeta,
    /// Defining expression (over the input's columns, outer parameters,
    /// and — before normalization — subqueries).
    pub expr: ScalarExpr,
}

/// A relational operator tree.
#[derive(Clone, PartialEq, Hash, Debug)]
pub enum RelExpr {
    /// Base-table scan.
    Get(GetMeta),
    /// Inline constant relation (VALUES); also the empty relation.
    ConstRel {
        /// Output columns.
        cols: Vec<ColumnMeta>,
        /// Row data.
        rows: Vec<Row>,
    },
    /// Filter: keeps rows where the predicate evaluates to TRUE.
    Select {
        /// Input.
        input: Box<RelExpr>,
        /// Predicate (three-valued; NULL rejects).
        predicate: ScalarExpr,
    },
    /// Computes additional columns; passes input columns through.
    Map {
        /// Input.
        input: Box<RelExpr>,
        /// Computed columns.
        defs: Vec<MapDef>,
    },
    /// Pure column pruning/reordering.
    Project {
        /// Input.
        input: Box<RelExpr>,
        /// Retained columns, in output order.
        cols: Vec<ColId>,
    },
    /// Join of two independent inputs.
    Join {
        /// Variant.
        kind: JoinKind,
        /// Left input.
        left: Box<RelExpr>,
        /// Right input.
        right: Box<RelExpr>,
        /// Join predicate.
        predicate: ScalarExpr,
    },
    /// `R A⊗ E` — the right side may reference columns of the left
    /// (correlations / parameters).
    Apply {
        /// Combination variant `⊗`.
        kind: ApplyKind,
        /// Outer relation `R`.
        left: Box<RelExpr>,
        /// Parameterized expression `E(r)`.
        right: Box<RelExpr>,
    },
    /// `R SA_A E` (§3.4): segments the input by the segmenting columns
    /// and evaluates `inner` once per segment; `inner` reads the segment
    /// through [`RelExpr::SegmentRef`] leaves.
    SegmentApply {
        /// Input relation `R`.
        input: Box<RelExpr>,
        /// Segmenting columns `A` (⊆ columns of `R`).
        segment_cols: Vec<ColId>,
        /// Per-segment expression `E(S)`.
        inner: Box<RelExpr>,
    },
    /// Reference, inside a `SegmentApply`'s inner expression, to the
    /// current segment `S`. Each instance may re-expose the segment's
    /// columns under its own output ids (two instances of the segment in
    /// a self-join need distinct ids).
    SegmentRef {
        /// `(output column, source column of the SegmentApply input)`.
        cols: Vec<(ColumnMeta, ColId)>,
    },
    /// Grouping and aggregation.
    GroupBy {
        /// Vector / scalar / local.
        kind: GroupKind,
        /// Input.
        input: Box<RelExpr>,
        /// Grouping columns (empty for scalar).
        group_cols: Vec<ColId>,
        /// Aggregates to compute.
        aggs: Vec<AggDef>,
    },
    /// Bag union (`UNION ALL`). Output columns are fresh; each branch
    /// maps positionally onto them.
    UnionAll {
        /// Left branch.
        left: Box<RelExpr>,
        /// Right branch.
        right: Box<RelExpr>,
        /// Output columns.
        cols: Vec<ColumnMeta>,
        /// For each output column, the producing column in `left`.
        left_map: Vec<ColId>,
        /// For each output column, the producing column in `right`.
        right_map: Vec<ColId>,
    },
    /// Bag difference (`EXCEPT ALL`): each left row survives
    /// `max(0, count_left − count_right)` times. Output columns are the
    /// left branch's.
    Except {
        /// Left branch.
        left: Box<RelExpr>,
        /// Right branch.
        right: Box<RelExpr>,
        /// For each left output column, the corresponding right column.
        right_map: Vec<ColId>,
    },
    /// Passes rows through; raises a run-time error when the input has
    /// more than one row (§2.4, exception subqueries).
    Max1Row {
        /// Input.
        input: Box<RelExpr>,
    },
    /// Extends each row with a unique integer — manufactures a key
    /// (required by identities (7)–(9) when the outer relation has none).
    Enumerate {
        /// Input.
        input: Box<RelExpr>,
        /// The manufactured key column (type Int, non-nullable).
        col: ColumnMeta,
    },
}

impl RelExpr {
    /// Output columns, in order.
    pub fn output_cols(&self) -> Vec<ColumnMeta> {
        let kids = self.children().into_iter().map(RelExpr::output_cols);
        self.op_output_cols(kids.collect())
    }

    /// [`RelExpr::output_cols`] of this operator alone, given its inputs'
    /// output columns in `children()` order (a memo's inputs are groups,
    /// not subtrees).
    pub fn op_output_cols(&self, mut kids: Vec<Vec<ColumnMeta>>) -> Vec<ColumnMeta> {
        let nullable = |cols: Vec<ColumnMeta>| {
            cols.into_iter().map(|mut c| {
                c.nullable = true;
                c
            })
        };
        let mut kid = |i: usize| std::mem::take(&mut kids[i]);
        let pick = |from: &[ColumnMeta], ids: &[ColId]| -> Vec<ColumnMeta> {
            ids.iter()
                .filter_map(|c| from.iter().find(|m| m.id == *c).cloned())
                .collect()
        };
        match self {
            RelExpr::Get(g) => g.cols.clone(),
            RelExpr::ConstRel { cols, .. } | RelExpr::UnionAll { cols, .. } => cols.clone(),
            RelExpr::Select { .. } | RelExpr::Except { .. } | RelExpr::Max1Row { .. } => kid(0),
            RelExpr::Map { defs, .. } => {
                let mut cols = kid(0);
                cols.extend(defs.iter().map(|d| d.col.clone()));
                cols
            }
            RelExpr::Project { cols, .. } => pick(&kid(0), cols),
            RelExpr::Join {
                kind: JoinKind::LeftSemi | JoinKind::LeftAnti,
                ..
            }
            | RelExpr::Apply {
                kind: ApplyKind::Semi | ApplyKind::Anti,
                ..
            } => kid(0),
            RelExpr::Join {
                kind: JoinKind::Inner,
                ..
            }
            | RelExpr::Apply {
                kind: ApplyKind::Cross,
                ..
            } => {
                let mut cols = kid(0);
                cols.extend(kid(1));
                cols
            }
            RelExpr::Join {
                kind: JoinKind::LeftOuter,
                ..
            }
            | RelExpr::Apply {
                kind: ApplyKind::LeftOuter,
                ..
            } => {
                let mut cols = kid(0);
                cols.extend(nullable(kid(1)));
                cols
            }
            RelExpr::SegmentApply { segment_cols, .. } => {
                let mut out = pick(&kid(0), segment_cols);
                for c in kid(1) {
                    if !out.iter().any(|m| m.id == c.id) {
                        out.push(c);
                    }
                }
                out
            }
            RelExpr::SegmentRef { cols } => cols.iter().map(|(m, _)| m.clone()).collect(),
            RelExpr::GroupBy {
                group_cols, aggs, ..
            } => {
                let mut out = pick(&kid(0), group_cols);
                out.extend(aggs.iter().map(|a| a.out.clone()));
                out
            }
            RelExpr::Enumerate { col, .. } => {
                let mut cols = kid(0);
                cols.push(col.clone());
                cols
            }
        }
    }

    /// How many columns this operator produces over inputs producing
    /// the given column sets — `op_output_cols(..).len()` without building
    /// the columns.
    pub fn op_width(&self, kids: &[&BTreeSet<ColId>]) -> usize {
        let kid = |i: usize| kids[i].len();
        match self {
            RelExpr::Get(g) => g.cols.len(),
            RelExpr::ConstRel { cols, .. } | RelExpr::UnionAll { cols, .. } => cols.len(),
            RelExpr::SegmentRef { cols } => cols.len(),
            RelExpr::Project { cols, .. } => cols.len(),
            RelExpr::Select { .. } | RelExpr::Max1Row { .. } | RelExpr::Except { .. } => kid(0),
            RelExpr::Map { defs, .. } => kid(0) + defs.len(),
            RelExpr::Enumerate { .. } => kid(0) + 1,
            RelExpr::Join { kind, .. } => match kind {
                JoinKind::LeftSemi | JoinKind::LeftAnti => kid(0),
                JoinKind::Inner | JoinKind::LeftOuter => kid(0) + kid(1),
            },
            RelExpr::Apply { kind, .. } => match kind {
                ApplyKind::Semi | ApplyKind::Anti => kid(0),
                ApplyKind::Cross | ApplyKind::LeftOuter => kid(0) + kid(1),
            },
            RelExpr::GroupBy {
                group_cols, aggs, ..
            } => group_cols.len() + aggs.len(),
            RelExpr::SegmentApply { segment_cols, .. } => {
                let extras = kids[1].iter().filter(|c| !segment_cols.contains(c));
                segment_cols.len() + extras.count()
            }
        }
    }

    /// Output column ids, in order.
    pub fn output_col_ids(&self) -> Vec<ColId> {
        self.output_cols().into_iter().map(|c| c.id).collect()
    }

    /// Immutable child operators (not descending into scalar subqueries).
    pub fn children(&self) -> Vec<&RelExpr> {
        match self {
            RelExpr::Get(_) | RelExpr::ConstRel { .. } | RelExpr::SegmentRef { .. } => vec![],
            RelExpr::Select { input, .. }
            | RelExpr::Map { input, .. }
            | RelExpr::Project { input, .. }
            | RelExpr::Max1Row { input }
            | RelExpr::Enumerate { input, .. } => vec![input],
            RelExpr::GroupBy { input, .. } => vec![input],
            RelExpr::Join { left, right, .. }
            | RelExpr::Apply { left, right, .. }
            | RelExpr::UnionAll { left, right, .. }
            | RelExpr::Except { left, right, .. } => vec![left, right],
            RelExpr::SegmentApply { input, inner, .. } => vec![input, inner],
        }
    }

    /// Mutable child operators.
    pub fn children_mut(&mut self) -> Vec<&mut RelExpr> {
        match self {
            RelExpr::Get(_) | RelExpr::ConstRel { .. } | RelExpr::SegmentRef { .. } => vec![],
            RelExpr::Select { input, .. }
            | RelExpr::Map { input, .. }
            | RelExpr::Project { input, .. }
            | RelExpr::Max1Row { input }
            | RelExpr::Enumerate { input, .. } => vec![input],
            RelExpr::GroupBy { input, .. } => vec![input],
            RelExpr::Join { left, right, .. }
            | RelExpr::Apply { left, right, .. }
            | RelExpr::UnionAll { left, right, .. }
            | RelExpr::Except { left, right, .. } => vec![left, right],
            RelExpr::SegmentApply { input, inner, .. } => vec![input, inner],
        }
    }

    /// Scalar expressions owned directly by this operator (not by
    /// descendants).
    pub fn own_scalars(&self) -> Vec<&ScalarExpr> {
        match self {
            RelExpr::Select { predicate, .. } | RelExpr::Join { predicate, .. } => {
                vec![predicate]
            }
            RelExpr::Map { defs, .. } => defs.iter().map(|d| &d.expr).collect(),
            RelExpr::GroupBy { aggs, .. } => aggs.iter().filter_map(|a| a.arg.as_ref()).collect(),
            _ => vec![],
        }
    }

    /// Mutable variant of [`RelExpr::own_scalars`].
    pub fn own_scalars_mut(&mut self) -> Vec<&mut ScalarExpr> {
        match self {
            RelExpr::Select { predicate, .. } | RelExpr::Join { predicate, .. } => {
                vec![predicate]
            }
            RelExpr::Map { defs, .. } => defs.iter_mut().map(|d| &mut d.expr).collect(),
            RelExpr::GroupBy { aggs, .. } => {
                aggs.iter_mut().filter_map(|a| a.arg.as_mut()).collect()
            }
            _ => vec![],
        }
    }

    /// Visits every scalar expression in the whole tree (pre-order over
    /// operators), descending into scalar subqueries.
    pub fn walk_scalars(&self, f: &mut dyn FnMut(&ScalarExpr)) {
        for s in self.own_scalars() {
            s.walk(f);
        }
        for c in self.children() {
            c.walk_scalars(f);
        }
    }

    /// Mutably visits every scalar expression in the whole tree.
    pub fn transform_scalars(&mut self, f: &mut dyn FnMut(&mut ScalarExpr)) {
        for s in self.own_scalars_mut() {
            s.transform(f);
        }
        for c in self.children_mut() {
            c.transform_scalars(f);
        }
    }

    /// Pre-order traversal over relational operators (including the
    /// relational bodies of scalar subqueries).
    pub fn walk(&self, f: &mut dyn FnMut(&RelExpr)) {
        f(self);
        for s in self.own_scalars() {
            s.walk(&mut |e| {
                let rel = match e {
                    ScalarExpr::Subquery(rel) => Some(rel),
                    ScalarExpr::Exists { rel, .. } => Some(rel),
                    ScalarExpr::InSubquery { rel, .. } => Some(rel),
                    ScalarExpr::QuantifiedCmp { rel, .. } => Some(rel),
                    _ => None,
                };
                if let Some(rel) = rel {
                    rel.walk(f);
                }
            });
        }
        for c in self.children() {
            c.walk(f);
        }
    }

    /// Column ids *produced* anywhere in this subtree (ids are globally
    /// unique, so this is a plain union over all producing operators).
    pub fn produced_cols(&self) -> BTreeSet<ColId> {
        let mut out = BTreeSet::new();
        self.walk(&mut |r| match r {
            RelExpr::Get(g) => out.extend(g.cols.iter().map(|c| c.id)),
            RelExpr::ConstRel { cols, .. } => out.extend(cols.iter().map(|c| c.id)),
            RelExpr::Map { defs, .. } => out.extend(defs.iter().map(|d| d.col.id)),
            RelExpr::GroupBy { aggs, .. } => out.extend(aggs.iter().map(|a| a.out.id)),
            RelExpr::UnionAll { cols, .. } => out.extend(cols.iter().map(|c| c.id)),
            RelExpr::Enumerate { col, .. } => {
                out.insert(col.id);
            }
            RelExpr::SegmentRef { cols } => out.extend(cols.iter().map(|(m, _)| m.id)),
            _ => {}
        });
        out
    }

    /// Column ids *referenced* anywhere in this subtree (by scalar
    /// expressions, grouping lists, projections, union maps, …).
    pub fn referenced_cols(&self) -> BTreeSet<ColId> {
        let mut out = BTreeSet::new();
        self.walk(&mut |r| {
            for s in r.own_scalars() {
                s.referenced_cols(&mut out);
            }
            match r {
                RelExpr::Project { cols, .. } => out.extend(cols.iter().copied()),
                RelExpr::GroupBy { group_cols, .. } => out.extend(group_cols.iter().copied()),
                RelExpr::SegmentApply { segment_cols, .. } => {
                    out.extend(segment_cols.iter().copied());
                }
                RelExpr::SegmentRef { cols } => out.extend(cols.iter().map(|(_, src)| *src)),
                RelExpr::UnionAll {
                    left_map,
                    right_map,
                    ..
                } => {
                    out.extend(left_map.iter().copied());
                    out.extend(right_map.iter().copied());
                }
                RelExpr::Except {
                    right_map, left, ..
                } => {
                    out.extend(right_map.iter().copied());
                    // Except compares full left rows against the right map.
                    out.extend(left.output_col_ids());
                }
                _ => {}
            }
        });
        out
    }

    /// *Free* columns: referenced but not produced in this subtree —
    /// i.e. parameters resolved from an enclosing expression. An
    /// expression with free columns is exactly a "correlated"
    /// (parameterized) expression in the paper's sense.
    pub fn free_cols(&self) -> BTreeSet<ColId> {
        let produced = self.produced_cols();
        self.referenced_cols()
            .into_iter()
            .filter(|c| !produced.contains(c))
            .collect()
    }

    /// Number of operators in the tree (explain/statistics helper).
    pub fn node_count(&self) -> usize {
        let mut n = 0;
        self.walk(&mut |_| n += 1);
        n
    }
}
