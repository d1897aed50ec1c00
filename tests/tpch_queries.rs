//! The paper's benchmark queries on generated TPC-H data: every
//! optimizer level must agree on every query, and the paper's claims
//! about plan choice hold as plan shapes, estimated costs and exact
//! per-operator counts (the `claim_*` tests, with the claims that fail
//! today named in [`FAILING_CLAIMS`]).

use std::sync::Arc;

use orthopt::common::row::bag_eq_approx;
use orthopt::common::Value;
use orthopt::exec::{phys_node_labels, Bindings, OpStats, PhysExpr, Pipeline};
use orthopt::ir::{ApplyKind, GroupKind, JoinKind};
use orthopt::tpch::queries;
use orthopt::{Database, OptimizerLevel, Plan};

fn tpch() -> Database {
    Database::tpch(0.002).unwrap()
}

fn check_levels_agree(db: &Database, sql: &str) -> Vec<Vec<Value>> {
    let mut baseline: Option<Vec<Vec<Value>>> = None;
    for level in OptimizerLevel::ALL {
        let got = db.execute_with(sql, level).expect(sql);
        match &baseline {
            None => baseline = Some(got.rows),
            Some(expect) => assert!(
                bag_eq_approx(expect, &got.rows, 1e-6),
                "{sql}\nlevel {level:?} diverged:\n{:?}\nvs\n{:?}",
                expect,
                got.rows
            ),
        }
    }
    baseline.unwrap()
}

#[test]
fn paper_q1_levels_agree_and_find_spenders() {
    let db = tpch();
    let rows = check_levels_agree(&db, &queries::paper_q1(800_000.0));
    assert!(!rows.is_empty());
}

#[test]
fn q2_levels_agree() {
    let db = tpch();
    // The classic parameters may select zero parts at tiny scale; that
    // is fine for agreement, but also run a relaxed variant that is
    // guaranteed non-empty.
    check_levels_agree(&db, &queries::q2_default());
    let relaxed = "select s_acctbal, s_name, p_partkey \
        from part, supplier, partsupp \
        where p_partkey = ps_partkey and s_suppkey = ps_suppkey \
          and p_size < 10 \
          and ps_supplycost = (select min(ps_supplycost) from partsupp \
                               where p_partkey = ps_partkey) \
        order by s_acctbal, s_name, p_partkey";
    let rows = check_levels_agree(&db, relaxed);
    assert!(!rows.is_empty());
}

#[test]
fn q4_levels_agree_and_group_by_priority() {
    let db = tpch();
    let rows = check_levels_agree(&db, &queries::q4("1992-01-01", "1999-01-01"));
    assert!(!rows.is_empty() && rows.len() <= 5);
    // Counts are positive.
    for r in &rows {
        match &r[1] {
            Value::Int(n) => assert!(*n > 0),
            other => panic!("bad count {other:?}"),
        }
    }
}

#[test]
fn q17_levels_agree() {
    let db = tpch();
    let rows = check_levels_agree(&db, &queries::q17_brand_only("brand#23"));
    // Scalar aggregate: exactly one row, possibly NULL at tiny scale.
    assert_eq!(rows.len(), 1);
}

#[test]
fn q17_normalizes_flat() {
    let db = tpch();
    let plan = db
        .plan(&queries::q17_default(), OptimizerLevel::Full)
        .unwrap();
    assert_eq!(plan.normal_form.applies, 0, "Q17 should fully flatten");
}

#[test]
fn power_run_is_deterministic() {
    let a = tpch();
    let b = tpch();
    for (name, sql) in queries::power_run() {
        let ra = a.execute(&sql).expect(name);
        let rb = b.execute(&sql).expect(name);
        assert_eq!(ra.rows, rb.rows, "{name}");
    }
}

#[test]
fn q22ish_levels_agree_and_flatten() {
    let db = tpch();
    let rows = check_levels_agree(&db, &queries::q22ish());
    assert!(!rows.is_empty());
    let plan = db.plan(&queries::q22ish(), OptimizerLevel::Full).unwrap();
    assert_eq!(plan.normal_form.applies, 0);
    assert_eq!(plan.normal_form.max1rows, 0);
}

#[test]
fn explain_analyze_covers_q2_and_q17_at_every_level() {
    let db = tpch();
    for sql in [
        queries::q2(15, "standard anodized", "europe"),
        queries::q17_brand_only("brand#23"),
    ] {
        for level in OptimizerLevel::ALL {
            let rendered = db.explain_analyze(&sql, level).expect(&sql);
            assert!(rendered.contains("analyzed:"), "{level:?}\n{rendered}");
            assert!(rendered.contains("rows="), "{level:?}\n{rendered}");
            assert!(rendered.contains("opens="), "{level:?}\n{rendered}");
            // The static verifier signs off on every compiled plan.
            assert!(rendered.contains("plancheck: ok"), "{level:?}\n{rendered}");
            // Every operator line carries a stats block.
            for line in rendered.lines().skip(1) {
                assert!(
                    line.contains("[rows=") || line.contains("plancheck:"),
                    "unannotated line: {line}"
                );
            }
        }
    }
}

/// Normal form of predicate pushdown: after `normalize`, no inner-join
/// predicate holds a conjunct whose columns all come from one input — a
/// decorrelated subquery block used to arrive with its whole WHERE
/// clause (`r_name = 'europe'` included) on its top join, over three
/// cross products. Checked over the TPC-H corpus and the `testgen`
/// family, at both rewrite configurations.
#[test]
fn inner_join_predicates_hold_no_one_sided_conjunct() {
    use orthopt::ir::{JoinKind, RelExpr};
    use std::collections::BTreeSet;

    fn one_sided(rel: &RelExpr, found: &mut Vec<String>) {
        rel.walk(&mut |r| {
            let RelExpr::Join {
                kind: JoinKind::Inner,
                left,
                right,
                predicate,
            } = r
            else {
                return;
            };
            let l: BTreeSet<_> = left.output_col_ids().into_iter().collect();
            let r: BTreeSet<_> = right.output_col_ids().into_iter().collect();
            for c in predicate.conjuncts() {
                let cols = c.cols();
                if !cols.is_empty() && (cols.is_subset(&l) || cols.is_subset(&r)) {
                    found.push(format!("{c:?}"));
                }
            }
        });
    }

    let check = |db: &Database, sql: &str| {
        for level in [OptimizerLevel::Correlated, OptimizerLevel::Full] {
            let mut found = Vec::new();
            one_sided(&db.plan(sql, level).expect(sql).logical, &mut found);
            assert!(found.is_empty(), "{sql}\nat {level:?}: {found:?}");
        }
    };
    let db = tpch();
    let mut corpus: Vec<String> = queries::power_run().into_iter().map(|(_, q)| q).collect();
    corpus.extend([
        queries::q17_brand_only("brand#23"),
        queries::q22ish(),
        queries::paper_q1_outerjoin(800_000.0),
        queries::paper_q1_derived(800_000.0),
    ]);
    for sql in &corpus {
        check(&db, sql);
    }
    let rs =
        orthopt::rewrite::testgen::build_catalog(&[(0, Some(1)), (1, None)], &[(0, 0, Some(2))]);
    let rs = Database::from_catalog(rs);
    for sql in orthopt::rewrite::testgen::query_templates(1) {
        check(&rs, &sql);
    }
}

// The paper's claims about plan choice. A choice is deterministic, so
// each claim is judged on the plan `Full` picks, its estimated cost and
// the exact counts one run leaves in `OpStats`; no timing enters.

/// §1.1's query (Figure 1) with its outer side cut to `c_custkey < k`:
/// customer keys are dense from 0, so `k` outer rows qualify.
fn fig1_query(k: i64) -> String {
    format!(
        "select c_custkey from customer where c_custkey < {k} and 1000000 < \
         (select sum(o_totalprice) from orders where o_custkey = c_custkey)"
    )
}

/// TPC-H 0.002 planned serially, as the paper's plans run, without the
/// index on `drop`'s table and column when one is named.
fn claims_db(drop: Option<(&str, usize)>) -> Database {
    let mut db = tpch();
    db.session_mut().settings_mut().parallelism = 1;
    if let Some((table, col)) = drop {
        let id = db.catalog().resolve(table).unwrap();
        db.catalog_mut().table_mut(id).drop_index(&[col]);
        db.analyze();
    }
    db
}

/// A plan's nodes in pre-order, the order `Pipeline::stats` numbers them.
fn nodes(plan: &PhysExpr) -> Vec<&PhysExpr> {
    let mut out = vec![plan];
    out.extend(plan.children().into_iter().flat_map(nodes));
    out
}

/// Plans `sql` at `level` and runs it once: the plan, with one
/// `OpStats` per node.
fn run_with_stats(db: &Database, sql: &str, level: OptimizerLevel) -> (Arc<Plan>, Vec<OpStats>) {
    let plan = db.plan(sql, level).expect(sql);
    let mut pipeline = Pipeline::compile(&plan.physical).expect(sql);
    pipeline.execute(db.catalog(), &Bindings::new()).expect(sql);
    (plan, pipeline.stats())
}

/// Whether the plan executes correlated: an Apply, an index-lookup
/// join or an index seek.
fn correlated(plan: &PhysExpr) -> bool {
    let ops = ["ApplyLoop", "IndexLookupJoin", "IndexSeek"];
    phys_node_labels(plan)
        .iter()
        .any(|(_, l)| ops.iter().any(|op| l.starts_with(op)))
}

/// Figure 1 / §2.5: correlated execution "can actually be the best
/// strategy, if the outer table is small, and appropriate indices
/// exist". With the `o_custkey` index, `Full` aggregates per customer
/// over an index-lookup join that probes once per outer row.
#[test]
fn claim_fig1_small_outer_probes_the_index() {
    let db = claims_db(None);
    let orders = db.catalog().resolve("orders").unwrap();
    for k in [1, 3, 15, 60] {
        let (plan, stats) = run_with_stats(&db, &fig1_query(k), OptimizerLevel::Full);
        let lookup = nodes(&plan.physical).iter().position(|n| {
            matches!(n, PhysExpr::HashAggregate { kind: GroupKind::Vector, input, .. }
                if matches!(**input, PhysExpr::IndexLookupJoin { kind: ApplyKind::Cross, table, .. }
                    if table == orders))
        });
        let lookup =
            lookup.unwrap_or_else(|| panic!("k={k}: no GroupBy over an index lookup\n{plan:?}"));
        assert_eq!(stats[lookup + 1].index_probes, k as u64, "k={k}");
    }
}

/// Figure 1 with the whole outer side: `Full` joins customers to the
/// aggregated orders (Kim's aggregate-then-join), and nothing re-runs.
#[test]
fn claim_fig1_whole_outer_runs_set_oriented() {
    let db = claims_db(None);
    let customers = db.catalog().table_by_name("customer").unwrap().row_count() as i64;
    let (plan, stats) = run_with_stats(&db, &fig1_query(customers), OptimizerLevel::Full);
    let aggregated = |n: &PhysExpr| {
        nodes(n)
            .iter()
            .any(|m| matches!(m, PhysExpr::HashAggregate { .. }))
    };
    let joins_aggregate = nodes(&plan.physical).into_iter().any(|n| {
        matches!(n, PhysExpr::HashJoin { kind: JoinKind::Inner, right, .. } if aggregated(right))
    });
    assert!(
        joins_aggregate,
        "no inner hash join over the aggregated orders\n{plan:?}"
    );
    assert!(!correlated(&plan.physical), "{plan:?}");
    assert!(stats.iter().all(|s| s.opens == 1), "{stats:?}");
}

/// Figure 1 without the index: no level that may decorrelate picks a
/// correlated form, at any outer size.
#[test]
fn claim_fig1_without_index_never_correlates() {
    let db = claims_db(Some(("orders", 1)));
    for k in [1, 3, 15, 60, 300] {
        for level in &OptimizerLevel::ALL[1..] {
            let plan = db.plan(&fig1_query(k), *level).unwrap();
            assert!(!correlated(&plan.physical), "k={k} {level:?}\n{plan:?}");
        }
    }
}

/// Figures 8–9: the full technique set never loses to a weaker one, in
/// estimated cost against every level and in exact work (rows every
/// base scan produced, plus index probes) against `Decorrelated`.
#[test]
fn claim_fig9_full_never_loses() {
    let db = claims_db(None);
    let work = |(plan, stats): (Arc<Plan>, Vec<OpStats>)| -> u64 {
        let scans = nodes(&plan.physical).into_iter().zip(&stats);
        let scanned = scans.filter(|(n, _)| matches!(n, PhysExpr::TableScan { .. }));
        scanned.map(|(_, s)| s.rows).sum::<u64>()
            + stats.iter().map(|s| s.index_probes).sum::<u64>()
    };
    let sqls = [queries::q2_default(), queries::q17_default()];
    for sql in sqls
        .into_iter()
        .chain([queries::q17_brand_only("brand#23")])
    {
        let cost = |level| db.plan(&sql, level).unwrap().search.best_cost;
        let full = cost(OptimizerLevel::Full);
        for level in OptimizerLevel::ALL {
            assert!(full <= cost(level), "{sql}\n{level:?} is cheaper");
        }
        let full = work(run_with_stats(&db, &sql, OptimizerLevel::Full));
        let decorrelated = work(run_with_stats(&db, &sql, OptimizerLevel::Decorrelated));
        assert!(full <= decorrelated, "{sql}\nwork {full} > {decorrelated}");
    }
}

/// Whether the plan at `level` runs a SegmentApply whose input scans
/// `part`: the part join pushed below SegmentApply (Figure 7).
fn segments_over_part_join(db: &Database, sql: &str, level: OptimizerLevel) -> bool {
    let part = db.catalog().resolve("part").unwrap();
    let scans_part =
        |n: &&PhysExpr| matches!(n, PhysExpr::TableScan { table, .. } if *table == part);
    let plan = db.plan(sql, level).unwrap();
    nodes(&plan.physical).iter().any(|n| match n {
        PhysExpr::SegmentExec { input, .. } => nodes(input).iter().any(scans_part),
        _ => false,
    })
}

/// §3.4, Figures 6–7: on Q17 with the paper's brand and container
/// filter, and without `lineitem`'s `l_partkey` index (so the
/// set-oriented strategies decide), `Full` runs SegmentApply with the
/// filtered `part` join pushed into its input, at a lower cost than the
/// best plan without SegmentApply (`GroupByReorder`).
#[test]
fn claim_segment_apply_wins_q17() {
    let db = claims_db(Some(("lineitem", 1)));
    let sql = queries::q17_default();
    assert!(segments_over_part_join(&db, &sql, OptimizerLevel::Full));
    assert!(!segments_over_part_join(
        &db,
        &sql,
        OptimizerLevel::GroupByReorder
    ));
    let cost = |level| db.plan(&sql, level).unwrap().search.best_cost;
    assert!(cost(OptimizerLevel::Full) < cost(OptimizerLevel::GroupByReorder));
}

/// The paper's claims this engine fails today. Each must still fail,
/// so fixing one fails [`named_failures_still_fail`] until its entry
/// goes: the list only shrinks.
/// A failing claim, the ROADMAP item that owns it, and a check that
/// holds once the claim does.
type FailingClaim = (&'static str, &'static str, fn() -> bool);

const FAILING_CLAIMS: &[FailingClaim] = &[
    (
        "Figure 1, small outer: Full costs no more than Correlated. Full never builds \
         Correlated's Apply over a scalar aggregate on an IndexSeek (393.6 vs 389.7 at k = 1, \
         2 188.0 vs 2 142.8 at k = 60), though its plan runs faster",
        "ROADMAP item 3",
        || {
            let db = claims_db(None);
            [1, 60].into_iter().all(|k| {
                let cost = |level| db.plan(&fig1_query(k), level).unwrap().search.best_cost;
                cost(OptimizerLevel::Full) <= cost(OptimizerLevel::Correlated)
            })
        },
    ),
    (
        "§3.4, brand-only Q17: Full runs SegmentApply over the part join; the costs tie at \
         67 002.8 and the tie breaks the other way",
        "ROADMAP item 3",
        || {
            let db = claims_db(Some(("lineitem", 1)));
            segments_over_part_join(
                &db,
                &queries::q17_brand_only("brand#23"),
                OptimizerLevel::Full,
            )
        },
    ),
];

#[test]
fn named_failures_still_fail() {
    for (claim, item, holds) in FAILING_CLAIMS {
        assert!(
            !holds(),
            "now holds; delete it from FAILING_CLAIMS and close it in {item}: {claim}"
        );
    }
}
