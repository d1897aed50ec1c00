//! `PhysExpr::children` / `children_mut` are the only two functions that
//! enumerate a plan node's inputs; everything else that walks a plan
//! (node counting, EXPLAIN, plancheck, exchange placement) goes through
//! them. Checked over every corpus plan at every optimizer level, with
//! a handful of exchange placements pinned to the text the hand-written
//! per-variant walkers used to produce. A last walk checks that every
//! index-lookup join emits only columns some ancestor reads.

use std::collections::BTreeSet;

use orthopt::common::ColId;
use orthopt::exec::{explain_phys, phys_node_labels, place_exchanges, wrap_exchange, PhysExpr};
use orthopt::ir::ScalarExpr;
use orthopt::{ApplyStrategy, Database, OptimizerLevel};
use orthopt_tpch::queries;

/// Serial, cost-raced apply strategies, whatever the environment says:
/// the pinned plans are the ones those settings choose.
fn db() -> Database {
    let mut db = Database::tpch(0.002).unwrap();
    db.analyze();
    db.session_mut().settings_mut().parallelism = 1;
    db.session_mut().settings_mut().apply_strategy = ApplyStrategy::Auto;
    db
}

fn corpus() -> Vec<(&'static str, String)> {
    let mut corpus = queries::power_run();
    corpus.push(("q22ish", queries::q22ish()));
    corpus.push(("q17brand", queries::q17_brand_only("brand#23")));
    corpus
}

/// Both walkers list the same subtrees in the same order, at every node.
fn walkers_agree(p: &PhysExpr) {
    let mut copy = p.clone();
    let shared = p.children();
    let unique = copy.children_mut();
    assert_eq!(shared.len(), unique.len(), "{p:?}");
    for (a, b) in shared.iter().zip(&unique) {
        assert_eq!(*a, &**b);
    }
    shared.into_iter().for_each(walkers_agree);
}

#[test]
fn one_walker_serves_every_corpus_plan() {
    let mut db = db();
    for (name, sql) in corpus() {
        for level in OptimizerLevel::ALL {
            for parallelism in [1, 4] {
                db.session_mut().settings_mut().parallelism = parallelism;
                let plan = db.plan(&sql, level).unwrap().physical.clone();
                for p in [plan.clone(), place_exchanges(&plan)] {
                    walkers_agree(&p);
                    assert_eq!(
                        p.node_count(),
                        phys_node_labels(&p).len(),
                        "{name} {level:?} x{parallelism}"
                    );
                    assert_eq!(p.node_count(), explain_phys(&p).lines().count());
                }
            }
        }
    }
}

/// The keyless join prints as the nested-loops join it is and is not a
/// shape the exchange splits, and neither is a global aggregate: their
/// inputs get their own exchanges and they run serially, at any
/// parallelism.
#[test]
fn forced_exchanges_leave_the_keyless_join_serial() {
    let db = db();
    let plan = db.plan(&queries::q22ish(), OptimizerLevel::Full).unwrap();
    assert_eq!(
        explain_phys(&place_exchanges(&plan.physical)),
        "\
Sort [c2]
  HashAggregate(Vector) [c2] [c18:=count(*), c19:=sum(c3)]
    IndexLookupJoinAnti t6 on [1] probe (c0) (bind: c0) residual (c14 > 200000)
      Project [c0, c2, c3]
        NestedLoopInner (c3 > c10)
          Exchange
            TableScan t5 [3 cols]
          Project [c10]
            Compute [c10:=CASE WHEN (c21 = 0) THEN NULL ELSE (c20 / c21) END]
              HashAggregate(Scalar) [] [c20:=sum(c8), c21:=count(c8)]
                Exchange
                  Filter (c8 > 0)
                    TableScan t5 [2 cols]
"
    );
    assert_eq!(wrap_exchange(&plan.physical), None);
}

/// A maximal eligible subtree gets one exchange, build side included;
/// re-wrapping a subtree the optimizer already exchanged strips the
/// exchange on the driving path and keeps the build side's.
#[test]
fn exchange_placement_matches_the_pinned_plans() {
    let mut db = db();
    let sql = queries::paper_q1(1_000_000.0);
    let serial = db
        .plan(&sql, OptimizerLevel::Full)
        .unwrap()
        .physical
        .clone();
    let placed = "\
Exchange
  Project [c0]
    HashInner on c0=c6
      TableScan t5 [1 cols]
      Filter (1000000 < c11)
        HashAggregate(Vector) [c6] [c11:=sum(c8)]
          TableScan t6 [3 cols]
";
    assert_eq!(explain_phys(&place_exchanges(&serial)), placed);
    assert_eq!(explain_phys(&wrap_exchange(&serial).unwrap()), placed);

    db.session_mut().settings_mut().parallelism = 4;
    let parallel = db
        .plan(&sql, OptimizerLevel::Full)
        .unwrap()
        .physical
        .clone();
    let exchanged = "\
Project [c0]
  Filter (1000000 < c11)
    HashAggregate(Vector) [c0] [c11:=sum(c13)]
      Exchange
        HashInner on c0=c6
          TableScan t5 [1 cols]
          Exchange
            HashAggregate(Local) [c6] [c13:=sum(c8)]
              TableScan t6 [3 cols]
";
    assert_eq!(explain_phys(&parallel), exchanged);
    // Already-placed exchanges are left alone, a global aggregate is
    // not something to wrap...
    assert_eq!(explain_phys(&place_exchanges(&parallel)), exchanged);
    assert_eq!(wrap_exchange(&parallel), None);
    // ...and a re-wrap of the exchanged join subsumes its exchange
    // while the build side keeps its own.
    let aggregate = parallel.children()[0].children()[0];
    let join = aggregate.children()[0];
    assert_eq!(wrap_exchange(join).as_ref(), Some(join));
}

/// Each corpus plan's `best_cost` per level (`OptimizerLevel::ALL`
/// order) at parallelism 1, as the search priced it before index-lookup
/// joins were trimmed to the columns they read.
const BEST_COSTS: &[(&str, [f64; 4])] = &[
    ("Q1-paper", [9184.5, 12034.5, 8437.5, 8437.5]),
    (
        "Q2",
        [
            5300.147473375261,
            7074.398164779873,
            644.3741912788262,
            644.3741912788262,
        ],
    ),
    (
        "Q4",
        [
            6373.612592766908,
            35309.751326851045,
            6560.375041486386,
            6560.375041486386,
        ],
    ),
    (
        "Q17",
        [
            25704.715524999996,
            50166.97373249999,
            953.2922315,
            953.2922315,
        ],
    ),
    (
        "q22ish",
        [
            1771.5444112519142,
            8861.230966649915,
            1695.363240426582,
            1695.363240426582,
        ],
    ),
    (
        "q17brand",
        [
            57553.078000000016,
            97525.59929999999,
            19331.93926,
            19331.93926,
        ],
    ),
];

/// The columns `p` itself reads of its inputs, or `None` for an
/// operator that reads them whole.
fn reads(p: &PhysExpr) -> Option<BTreeSet<ColId>> {
    let mut r = BTreeSet::new();
    match p {
        PhysExpr::Filter { predicate, .. } => r.extend(predicate.cols()),
        PhysExpr::Compute { defs, .. } => r.extend(defs.iter().flat_map(|(_, e)| e.cols())),
        PhysExpr::ProjectCols { cols, .. } => r.extend(cols),
        PhysExpr::Sort { by, .. } => r.extend(by.iter().map(|(c, _)| *c)),
        PhysExpr::HashAggregate {
            group_cols, aggs, ..
        } => {
            r.extend(group_cols);
            r.extend(
                aggs.iter()
                    .filter_map(|a| a.arg.as_ref())
                    .flat_map(ScalarExpr::cols),
            );
        }
        PhysExpr::HashJoin {
            left_keys,
            right_keys,
            residual,
            ..
        } => {
            r.extend(left_keys.iter().chain(right_keys));
            r.extend(residual.cols());
        }
        PhysExpr::ApplyLoop { params, .. } => r.extend(params),
        PhysExpr::IndexLookupJoin {
            probes,
            residual,
            params,
            ..
        } => {
            r.extend(probes.iter().flat_map(ScalarExpr::cols));
            r.extend(residual.cols());
            r.extend(params);
        }
        PhysExpr::Limit { .. } | PhysExpr::AssertMax1 { .. } | PhysExpr::RowNumber { .. } => {}
        _ => return None,
    }
    Some(r)
}

/// Every column an `IndexLookupJoin` under `p` emits is read by one of
/// its ancestors (`read`: their reads and the root's output, `None`
/// once one reads whole inputs).
fn emits_only_what_is_read(p: &PhysExpr, read: Option<&BTreeSet<ColId>>, name: &str) {
    if let (PhysExpr::IndexLookupJoin { cols, .. }, Some(read)) = (p, read) {
        let unread: Vec<&ColId> = cols.iter().filter(|c| !read.contains(c)).collect();
        assert!(
            unread.is_empty(),
            "{name}: {unread:?} emitted, never read\n{p:?}"
        );
    }
    let below = read.zip(reads(p)).map(|(r, mine)| &mine | r);
    for c in p.children() {
        emits_only_what_is_read(c, below.as_ref(), name);
    }
}

/// Index-lookup joins are trimmed after the search has priced the
/// plan: no corpus plan emits a fetched column nobody reads, and every
/// `best_cost` is the one the search found before the trim, bit for bit.
#[test]
fn index_lookup_joins_emit_only_what_is_read_at_unchanged_cost() {
    let db = db();
    for (name, sql) in corpus() {
        let pinned = BEST_COSTS.iter().find(|(n, _)| *n == name).unwrap().1;
        for (level, cost) in OptimizerLevel::ALL.into_iter().zip(pinned) {
            let plan = db.plan(&sql, level).unwrap();
            let root: BTreeSet<ColId> = plan.physical.out_cols().into_iter().collect();
            emits_only_what_is_read(&plan.physical, Some(&root), name);
            let best = plan.search.best_cost;
            assert_eq!(best.to_bits(), cost.to_bits(), "{name} {level:?}: {best}");
        }
    }
}
