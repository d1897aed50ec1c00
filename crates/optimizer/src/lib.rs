#![warn(missing_docs)]
//! Cost-based optimizer — §3 and §4 of the paper.
//!
//! Architecture "along the main lines of the Volcano optimizer \[9\]":
//! a [`memo::Memo`] of equivalence groups, transformation rules applied
//! to fixpoint, and a recursive best-plan extraction with a simple cost
//! model. The rule set is exactly the paper's toolbox:
//!
//! * join commutativity/associativity (the substrate everything else
//!   composes with);
//! * **GroupBy reordering** around joins, semijoins and outerjoins
//!   (§3.1/§3.2, including the NULL-compensating project);
//! * **LocalGroupBy** split and pushdown (§3.3);
//! * **SegmentApply** introduction and join pushdown (§3.4);
//! * **correlated-execution re-introduction** — a join whose inner side
//!   can be probed through an index becomes an Apply again (§4:
//!   "the simplest and most common being index-lookup-join").

pub mod cardinality;
pub mod cost;
pub mod memo;
mod narrow;
pub mod physical_gen;
pub mod rules;
pub mod search;

pub use search::OptimizerConfig;
