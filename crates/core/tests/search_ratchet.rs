//! Search ratchet: how many memo expressions each corpus query explores
//! at `Full`, pinned per query so the count can only go down, plus two
//! things that must hold for the whole corpus at every level — the
//! search reaches its fixpoint on its own (the expression valve never
//! trips) and is deterministic — and, for a join no valve-sized memo can
//! hold, that the valve does trip, at once. Counts, never times: the
//! numbers are the same in debug and release, so both `cargo test` legs
//! run this.
//!
//! A rule change that grows a query's search space raises a ceiling here
//! in the same change and says why; the valve assertion never loosens.

use orthopt::{Database, OptimizerLevel};
use orthopt_tpch::queries;
use std::sync::Arc;

/// The benchmark's subquery classes and the three §1.1 spellings of the
/// running example, each with its ceiling planned serially and planned
/// for a worker pool. The two differ where the query has a scalar
/// aggregate: only a planner that may place exchanges is offered the
/// `G¹ = π ∘ G¹ ∘ LG` split of it (the local half under an exchange is
/// what parallelizes a scalar aggregate; without one it only costs).
fn corpus() -> Vec<(&'static str, String, [usize; 2])> {
    vec![
        ("q2", queries::q2_default(), [1936, 1936]),
        ("q17", queries::q17_default(), [106, 108]),
        ("q17brand", queries::q17_brand_only("brand#23"), [106, 108]),
        ("q4", queries::q4_default(), [12, 12]),
        ("q22ish", queries::q22ish(), [14, 17]),
        ("paper_q1", queries::paper_q1(1_000_000.0), [21, 21]),
        (
            "paper_q1_outerjoin",
            queries::paper_q1_outerjoin(1_000_000.0),
            [21, 21],
        ),
        (
            "paper_q1_derived",
            queries::paper_q1_derived(1_000_000.0),
            [9, 9],
        ),
    ]
}

#[test]
fn memo_expressions_only_go_down() {
    let mut db = Database::tpch(0.002).unwrap();
    for (name, sql, ceilings) in corpus() {
        for (parallelism, max_exprs) in [1, 4].into_iter().zip(ceilings) {
            db.session_mut().settings_mut().parallelism = parallelism;
            let search = db.plan(&sql, OptimizerLevel::Full).unwrap().search;
            assert!(
                search.exprs <= max_exprs,
                "{name} x{parallelism}: {} memo expressions in {} groups, ceiling {max_exprs}",
                search.exprs,
                search.groups
            );
        }
    }
}

#[test]
fn every_search_reaches_its_fixpoint() {
    let db = Database::tpch(0.002).unwrap();
    for (name, sql, _) in corpus() {
        for level in OptimizerLevel::ALL {
            let search = db.plan(&sql, level).unwrap().search;
            assert!(!search.valve_hit, "{name} at {level:?}: {search:?}");
        }
    }
}

#[test]
fn planning_twice_gives_the_same_search_and_plan() {
    // Nothing in the memo iterates a hash map, so two runs agree on every
    // count, on the cost to the last bit, and on the normalized tree
    // exactly, column ids included: they are assigned the same way.
    // Each side compiles on an engine of its own: a plan-cache hit would
    // only compare one plan with itself.
    let catalog = Database::tpch(0.002).unwrap().shared_catalog();
    let compile = |sql: &str, level| {
        Database::from_shared(Arc::clone(&catalog))
            .plan(sql, level)
            .unwrap()
    };
    for (name, sql, _) in corpus() {
        for level in OptimizerLevel::ALL {
            let (a, b) = (compile(&sql, level), compile(&sql, level));
            assert!(!Arc::ptr_eq(&a, &b), "{name} at {level:?}: one plan");
            assert_eq!(a.search, b.search, "{name} at {level:?}");
            assert_eq!(
                a.logical, b.logical,
                "{name} at {level:?}: normalized trees differ"
            );
            assert_eq!(
                orthopt::exec::explain_phys::explain_phys(&a.physical),
                orthopt::exec::explain_phys::explain_phys(&b.physical),
                "{name} at {level:?}"
            );
        }
    }
}

#[test]
fn q2_plans_without_an_invented_cross_product() {
    // Q2's join graph is connected (one path through nine tables), so no
    // plan for it needs a predicate-less join. The only one the search
    // may still pick is the normalized tree's own `σ(part) × supplier` —
    // one part row at this scale, and at `Decorrelated` the cheapest
    // start; it never *generates* another.
    let db = Database::tpch(0.002).unwrap();
    let cross_products = |level| {
        let plan = db.plan(&queries::q2_default(), level).unwrap();
        let text = orthopt::exec::explain_phys::explain_phys(&plan.physical);
        text.matches("NestedLoop").count()
    };
    assert!(cross_products(OptimizerLevel::Decorrelated) <= 1);
    assert_eq!(cross_products(OptimizerLevel::GroupByReorder), 0);
    assert_eq!(cross_products(OptimizerLevel::Full), 0);
}

#[test]
fn a_pathological_join_stops_at_the_valve() {
    // Eighteen tables on one key, spelled as a join of two nine-table
    // halves: each half explores well under the valve, the whole has 2^17
    // bipartitions. The search must give up on it as soon as it meets it
    // — counts, so also in debug — and still hand back a plan.
    let half = |from: usize| {
        let first = format!("nation n{from}");
        (from + 1..from + 9).fold(first, |sql, i| {
            format!(
                "{sql} join nation n{i} on n{}.n_nationkey = n{i}.n_nationkey",
                i - 1
            )
        })
    };
    let sql = format!(
        "select count(*) from ({}) join ({}) on n0.n_nationkey = n9.n_nationkey",
        half(0),
        half(9)
    );
    let db = Database::tpch(0.002).unwrap();
    for level in OptimizerLevel::ALL {
        let search = db.plan(&sql, level).unwrap().search;
        assert!(search.exprs <= 20_000, "{level:?}: {search:?}");
    }
    let full = db.plan(&sql, OptimizerLevel::Full).unwrap().search;
    assert!(full.valve_hit, "{full:?}");
    assert_eq!(db.execute(&sql).unwrap().rows.len(), 1);
}
