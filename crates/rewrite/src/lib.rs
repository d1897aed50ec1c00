#![warn(missing_docs)]
//! Query normalization — §2 and §4 ("query normalization") of the paper.
//!
//! The pipeline takes the binder's mutually recursive operator tree and
//! produces a normal form free of correlations wherever possible:
//!
//! 1. [`subquery`] — *remove mutual recursion* (§2.2): every subquery
//!    marker in a scalar expression becomes an explicit `Apply`
//!    (`RelExpr::Apply`) computing the subquery result into a column;
//!    boolean subqueries become semijoin/antijoin Applies or count
//!    aggregates (§2.4); subqueries under `CASE` guards get conditional
//!    execution via a correlated filter.
//! 2. [`max1row`] — eliminate `Max1Row` when key information bounds the
//!    subquery to one row (§2.4).
//! 3. [`apply_removal`] — *remove correlations* (§2.3): push `Apply`
//!    toward the leaves with identities (1)–(9) of Figure 4 until the
//!    inner side no longer references the outer. Class 2 identities
//!    ((5)/(6)/(7), which duplicate the outer relation) run only when
//!    [`RewriteConfig::unnest_class2`] is set, mirroring the paper.
//! 4. [`outerjoin`] — simplify outerjoins under null-rejecting
//!    predicates, including rejection derived *through GroupBy* (the
//!    paper's extension of \[7\]).
//! 5. [`simplify`] — predicate pushdown (the §3.1 filter/GroupBy
//!    reorder), select merging, empty-subexpression detection, AVG
//!    expansion into primitive aggregates, and column pruning.

pub mod apply_removal;
pub mod max1row;
pub mod outerjoin;
pub mod pipeline;
pub mod prune;
pub mod simplify;
pub mod subquery;
pub mod testgen;

pub use pipeline::{normalize, RewriteConfig};

use orthopt_common::ColIdGen;
use orthopt_ir::RelExpr;

/// Shared state threaded through all rewrite passes.
pub struct RewriteCtx {
    /// Fresh-column generator, seeded past every id in the input tree.
    pub gen: ColIdGen,
    /// Feature toggles.
    pub config: RewriteConfig,
}

impl RewriteCtx {
    /// Builds a context whose generator cannot collide with `rel`.
    pub fn for_tree(rel: &RelExpr, config: RewriteConfig) -> Self {
        let mut used = rel.produced_cols();
        used.extend(rel.referenced_cols());
        RewriteCtx {
            gen: ColIdGen::after(used),
            config,
        }
    }
}
