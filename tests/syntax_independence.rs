//! E-SYNTAX: §1.2's syntax-independence claim. "The query processor
//! should then produce the same efficient execution plan for the
//! various equivalent SQL formulations" — verified on the three Q1
//! formulations from §1.1 of the paper.

use orthopt::common::row::bag_eq;
use orthopt::ir::iso;
use orthopt::tpch::queries;
use orthopt::{Database, OptimizerLevel};

fn formulations(threshold: f64) -> [(&'static str, String); 3] {
    [
        ("subquery", queries::paper_q1(threshold)),
        ("outerjoin+having", queries::paper_q1_outerjoin(threshold)),
        ("derived-table", queries::paper_q1_derived(threshold)),
    ]
}

#[test]
fn all_formulations_return_identical_results_at_all_levels() {
    let db = Database::tpch(0.002).unwrap();
    let forms = formulations(800_000.0);
    let reference = db.execute_reference(&forms[0].1).unwrap();
    assert!(!reference.rows.is_empty(), "threshold too high for fixture");
    for (name, sql) in &forms {
        for level in OptimizerLevel::ALL {
            let got = db.execute_with(sql, level).unwrap();
            assert!(
                bag_eq(&reference.rows, &got.rows),
                "{name} at {level:?} diverged"
            );
        }
    }
}

#[test]
fn subquery_and_outerjoin_forms_normalize_to_isomorphic_plans() {
    let db = Database::tpch(0.002).unwrap();
    let forms = formulations(800_000.0);
    let a = db.plan(&forms[0].1, OptimizerLevel::Full).unwrap();
    let b = db.plan(&forms[1].1, OptimizerLevel::Full).unwrap();
    assert!(
        iso::rel_isomorphic(&a.logical, &b.logical).is_some(),
        "normalized plans differ:\n{}\nvs\n{}",
        orthopt::ir::explain::explain(&a.logical),
        orthopt::ir::explain::explain(&b.logical)
    );
}

#[test]
fn derived_table_form_flattens_completely_too() {
    let db = Database::tpch(0.002).unwrap();
    let forms = formulations(800_000.0);
    let c = db.plan(&forms[2].1, OptimizerLevel::Full).unwrap();
    assert_eq!(c.normal_form.applies, 0);
    assert_eq!(c.normal_form.max1rows, 0);
}

#[test]
fn search_costs_converge_across_formulations() {
    // Beyond isomorphic normal forms: with the full rule set, the
    // *chosen* plans of all three formulations cost the same (the rules
    // connect the Figure-1 lattice in both directions). Pinned to
    // serial planning: exchange placement is a greedy post-pass whose
    // opportunities depend on physical plan shape, so its savings are
    // not covered by the §1.2 convergence claim.
    let mut db = Database::tpch(0.002).unwrap();
    db.session_mut().settings_mut().parallelism = 1;
    let forms = formulations(800_000.0);
    let costs: Vec<f64> = forms
        .iter()
        .map(|(_, sql)| db.plan(sql, OptimizerLevel::Full).unwrap().search.best_cost)
        .collect();
    let max = costs.iter().copied().fold(f64::MIN, f64::max);
    let min = costs.iter().copied().fold(f64::MAX, f64::min);
    assert!((max - min) / max < 0.05, "best costs diverge: {costs:?}");
    // The subquery and the outerjoin spellings normalize to isomorphic
    // trees, so the search must price them identically, to the bit. The
    // derived-table spelling keeps the pruning Project its FROM-clause
    // boundary introduced (one trivial operator dearer): the memo has no
    // rule that drops a Project whose consumer ignores the extra columns.
    assert_eq!(costs[0], costs[1], "subquery vs outerjoin+having");
    assert!(costs[2] >= costs[0], "derived-table: {costs:?}");
}
