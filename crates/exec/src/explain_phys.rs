//! Compact physical-plan printer (EXPLAIN / EXPLAIN ANALYZE output).
//!
//! Nodes are numbered and walked in pre-order — parent, then left
//! input, then right/inner input — exactly the order
//! [`Pipeline::compile`](crate::pipeline::Pipeline::compile) assigns
//! operator ids, so [`OpStats`] from a pipeline run can be zipped onto
//! the rendered tree by position.

use std::fmt::Write as _;

use crate::physical::PhysExpr;
use crate::stats::OpStats;

/// Renders a physical plan as an indented outline.
pub fn explain_phys(plan: &PhysExpr) -> String {
    let mut out = String::new();
    let mut walker = Walker {
        stats: None,
        cached: &[],
        next_id: 0,
    };
    walker.fmt(plan, 0, &mut out);
    out
}

/// Renders a physical plan with per-operator runtime statistics, as
/// collected by a [`Pipeline`](crate::pipeline::Pipeline) run. `stats`
/// is indexed by pre-order node id; `cached` lists ids of subtrees the
/// compiler put behind a one-time materialization cache.
pub fn explain_phys_analyze(plan: &PhysExpr, stats: &[OpStats], cached: &[usize]) -> String {
    let mut out = String::new();
    let mut walker = Walker {
        stats: Some(stats),
        cached,
        next_id: 0,
    };
    walker.fmt(plan, 0, &mut out);
    out
}

/// One-line operator labels in pre-order (the pipeline's node-id
/// order), with the depth of each node — for tools that pair plan
/// shape with [`OpStats`] outside the text renderer (e.g. the JSON
/// benchmark emitter).
pub fn phys_node_labels(plan: &PhysExpr) -> Vec<(usize, String)> {
    fn walk(plan: &PhysExpr, depth: usize, out: &mut Vec<(usize, String)>) {
        out.push((depth, label(plan)));
        for child in plan.children() {
            walk(child, depth + 1, out);
        }
    }
    let mut out = Vec::new();
    walk(plan, 0, &mut out);
    out
}

struct Walker<'a> {
    stats: Option<&'a [OpStats]>,
    cached: &'a [usize],
    next_id: usize,
}

impl Walker<'_> {
    fn fmt(&mut self, plan: &PhysExpr, depth: usize, out: &mut String) {
        let id = self.next_id;
        self.next_id += 1;
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(&label(plan));
        if let Some(stats) = self.stats {
            if let Some(s) = stats.get(id) {
                let _ = write!(out, "  [{}", s.render());
                if self.cached.contains(&id) {
                    out.push_str(" cached");
                }
                out.push(']');
            }
        }
        out.push('\n');
        for child in plan.children() {
            self.fmt(child, depth + 1, out);
        }
    }
}

/// One-line description of a node (no children, no newline).
fn label(plan: &PhysExpr) -> String {
    match plan {
        PhysExpr::TableScan { table, cols, .. } => {
            format!("TableScan {table} [{} cols]", cols.len())
        }
        PhysExpr::IndexSeek {
            table,
            index_cols,
            probes,
            ..
        } => {
            let ps: Vec<String> = probes.iter().map(ToString::to_string).collect();
            format!(
                "IndexSeek {table} on {index_cols:?} probe ({})",
                ps.join(", ")
            )
        }
        PhysExpr::Filter { predicate, .. } => format!("Filter {predicate}"),
        PhysExpr::Compute { defs, .. } => {
            let ds: Vec<String> = defs.iter().map(|(c, e)| format!("{c}:={e}")).collect();
            format!("Compute [{}]", ds.join(", "))
        }
        PhysExpr::ProjectCols { cols, .. } => {
            let cs: Vec<String> = cols.iter().map(ToString::to_string).collect();
            format!("Project [{}]", cs.join(", "))
        }
        // A join with no keys is the nested-loops join, and prints as one.
        PhysExpr::HashJoin {
            kind,
            left_keys,
            residual,
            ..
        } if left_keys.is_empty() => format!("NestedLoop{kind:?} {residual}"),
        PhysExpr::HashJoin {
            kind,
            left_keys,
            right_keys,
            residual,
            ..
        } => {
            let keys: Vec<String> = left_keys
                .iter()
                .zip(right_keys)
                .map(|(l, r)| format!("{l}={r}"))
                .collect();
            let res = if residual.is_true() {
                String::new()
            } else {
                format!(" residual {residual}")
            };
            format!("Hash{kind:?} on {}{res}", keys.join(" AND "))
        }
        PhysExpr::ApplyLoop { kind, params, .. } => {
            let ps: Vec<String> = params.iter().map(ToString::to_string).collect();
            format!("ApplyLoop{kind:?} (bind: {})", ps.join(", "))
        }
        PhysExpr::IndexLookupJoin {
            kind,
            table,
            index_cols,
            probes,
            residual,
            params,
            ..
        } => {
            let ps: Vec<String> = params.iter().map(ToString::to_string).collect();
            let pr: Vec<String> = probes.iter().map(ToString::to_string).collect();
            let res = if residual.is_true() {
                String::new()
            } else {
                format!(" residual {residual}")
            };
            format!(
                "IndexLookupJoin{kind:?} {table} on {index_cols:?} probe ({}) (bind: {}){res}",
                pr.join(", "),
                ps.join(", ")
            )
        }
        PhysExpr::SegmentExec { segment_cols, .. } => {
            let cs: Vec<String> = segment_cols.iter().map(ToString::to_string).collect();
            format!("SegmentExec [{}]", cs.join(", "))
        }
        PhysExpr::SegmentScan { cols } => {
            let cs: Vec<String> = cols.iter().map(|(o, s)| format!("{o}←{s}")).collect();
            format!("SegmentScan [{}]", cs.join(", "))
        }
        PhysExpr::HashAggregate {
            kind,
            group_cols,
            aggs,
            ..
        } => {
            let gs: Vec<String> = group_cols.iter().map(ToString::to_string).collect();
            let as_: Vec<String> = aggs.iter().map(ToString::to_string).collect();
            format!(
                "HashAggregate({kind:?}) [{}] [{}]",
                gs.join(", "),
                as_.join(", ")
            )
        }
        PhysExpr::Concat { .. } => "Concat".to_string(),
        PhysExpr::ExceptExec { .. } => "Except".to_string(),
        PhysExpr::AssertMax1 { .. } => "AssertMax1Row".to_string(),
        PhysExpr::RowNumber { col, .. } => format!("RowNumber [{col}]"),
        PhysExpr::ConstScan { len, .. } => format!("ConstScan ({len} rows)"),
        PhysExpr::Sort { by, .. } => {
            let bs: Vec<String> = by
                .iter()
                .map(|(c, desc)| format!("{c}{}", if *desc { " desc" } else { "" }))
                .collect();
            format!("Sort [{}]", bs.join(", "))
        }
        PhysExpr::Limit { n, .. } => format!("Limit {n}"),
        PhysExpr::Exchange { .. } => "Exchange".to_string(),
        PhysExpr::MorselScan { table, ranges, .. } => {
            format!("MorselScan {table} [{} ranges]", ranges.len())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orthopt_common::{ColId, TableId};
    use orthopt_ir::ScalarExpr;

    #[test]
    fn renders_indented_tree() {
        let plan = PhysExpr::Filter {
            input: Box::new(PhysExpr::TableScan {
                table: TableId(0),
                positions: vec![0],
                cols: vec![ColId(1)],
            }),
            predicate: ScalarExpr::eq(ScalarExpr::col(ColId(1)), ScalarExpr::lit(3i64)),
        };
        let s = explain_phys(&plan);
        assert!(s.contains("Filter"));
        assert!(s.contains("  TableScan"));
    }

    #[test]
    fn shows_hash_join_keys() {
        let scan = |t: u32, c: u32| PhysExpr::TableScan {
            table: TableId(t),
            positions: vec![0],
            cols: vec![ColId(c)],
        };
        let plan = PhysExpr::HashJoin {
            kind: orthopt_ir::JoinKind::Inner,
            left: Box::new(scan(0, 1)),
            right: Box::new(scan(1, 2)),
            left_keys: vec![ColId(1)],
            right_keys: vec![ColId(2)],
            residual: ScalarExpr::true_(),
        };
        let s = explain_phys(&plan);
        assert!(s.contains("c1=c2"), "{s}");
    }

    #[test]
    fn analyze_zips_stats_by_preorder_id() {
        let plan = PhysExpr::Filter {
            input: Box::new(PhysExpr::TableScan {
                table: TableId(0),
                positions: vec![0],
                cols: vec![ColId(1)],
            }),
            predicate: ScalarExpr::true_(),
        };
        let stats = vec![
            OpStats {
                rows: 1,
                batches: 1,
                opens: 1,
                ..Default::default()
            },
            OpStats {
                rows: 7,
                batches: 2,
                opens: 1,
                ..Default::default()
            },
        ];
        let s = explain_phys_analyze(&plan, &stats, &[1]);
        let lines: Vec<&str> = s.lines().collect();
        assert!(
            lines[0].starts_with("Filter") && lines[0].contains("rows=1"),
            "{s}"
        );
        assert!(
            lines[1].contains("rows=7") && lines[1].contains("cached"),
            "{s}"
        );
    }
}
