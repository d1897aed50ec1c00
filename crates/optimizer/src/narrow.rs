//! Trims each index-lookup join to the columns the plan reads.
//!
//! The search picks an `IndexLookupJoin` for its cost, which does not
//! depend on how many columns the join carries; this pass runs once on
//! the chosen plan, top down, and keeps the join from gathering columns
//! nothing above it reads. It narrows the join's fetched and emitted
//! columns, and projects its outer input down to what the join and its
//! ancestors read. It moves no plan choice and no cost.

use std::collections::BTreeSet;

use orthopt_common::ColId;
use orthopt_exec::PhysExpr;
use orthopt_ir::ScalarExpr;

use crate::physical_gen::{fetched, stub};

/// The columns some ancestor of a node reads; `None` is every column.
type Read = Option<BTreeSet<ColId>>;

/// Narrows every `IndexLookupJoin` in `plan`. The root's own output is
/// read whole.
pub(crate) fn narrow_index_lookups(plan: &mut PhysExpr) {
    narrow(plan, None);
}

/// `read` plus the columns `more`.
fn with(read: &Read, more: impl IntoIterator<Item = ColId>) -> Read {
    read.clone().map(|mut r| {
        r.extend(more);
        r
    })
}

fn narrow(p: &mut PhysExpr, read: Read) {
    match p {
        PhysExpr::Filter { input, predicate } => narrow(input, with(&read, predicate.cols())),
        PhysExpr::Compute { input, defs } => {
            let used = defs.iter().flat_map(|(_, e)| e.cols());
            narrow(input, with(&read, used));
        }
        PhysExpr::ProjectCols { input, cols } => {
            narrow(input, Some(cols.iter().copied().collect()));
        }
        PhysExpr::Sort { input, by } => narrow(input, with(&read, by.iter().map(|(c, _)| *c))),
        PhysExpr::Limit { input, .. }
        | PhysExpr::AssertMax1 { input }
        | PhysExpr::RowNumber { input, .. } => narrow(input, read),
        PhysExpr::HashAggregate {
            input,
            group_cols,
            aggs,
            ..
        } => {
            let mut used: BTreeSet<ColId> = group_cols.iter().copied().collect();
            used.extend(
                aggs.iter()
                    .filter_map(|a| a.arg.as_ref())
                    .flat_map(ScalarExpr::cols),
            );
            narrow(input, Some(used));
        }
        PhysExpr::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            residual,
            ..
        } => {
            let keys = left_keys.iter().chain(right_keys.iter()).copied();
            let r = with(&read, keys.chain(residual.cols()));
            narrow(left, r.clone());
            narrow(right, r);
        }
        // The Apply binds `params` from its outer rows; its inner plan
        // is not modeled.
        PhysExpr::ApplyLoop {
            left,
            right,
            params,
            ..
        } => {
            narrow(left, with(&read, params.iter().copied()));
            narrow(right, None);
        }
        PhysExpr::IndexLookupJoin {
            left,
            positions,
            fetch_cols,
            probes,
            residual,
            cols,
            params,
            ..
        } => {
            let tested = residual.cols();
            if let Some(read) = &read {
                cols.retain(|c| read.contains(c));
                (*positions, *fetch_cols) = fetched(positions, fetch_cols, cols, &tested);
            }
            let probed = probes.iter().flat_map(ScalarExpr::cols);
            let outer = with(&read, probed.chain(tested).chain(params.iter().copied()));
            if let Some(outer) = &outer {
                let out = left.out_cols();
                if out.iter().any(|c| !outer.contains(c)) {
                    let kept: Vec<ColId> = out.into_iter().filter(|c| outer.contains(c)).collect();
                    match &mut **left {
                        PhysExpr::ProjectCols { cols, .. } => *cols = kept,
                        _ => {
                            let input = std::mem::replace(left, stub());
                            **left = PhysExpr::ProjectCols { input, cols: kept };
                        }
                    }
                }
            }
            narrow(left, outer);
        }
        // Operators the pass does not model read every column of their
        // inputs.
        PhysExpr::SegmentExec { .. }
        | PhysExpr::Concat { .. }
        | PhysExpr::ExceptExec { .. }
        | PhysExpr::Exchange { .. }
        | PhysExpr::TableScan { .. }
        | PhysExpr::IndexSeek { .. }
        | PhysExpr::SegmentScan { .. }
        | PhysExpr::ConstScan { .. }
        | PhysExpr::MorselScan { .. } => {
            for c in p.children_mut() {
                narrow(c, None);
            }
        }
    }
}
