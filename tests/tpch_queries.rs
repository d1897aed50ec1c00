//! The paper's benchmark queries on generated TPC-H data: every
//! optimizer level must agree on every query, and the marquee plan
//! features (index-lookup Apply for Q2's baseline, SegmentApply
//! availability for Q17) must be present where the paper says they
//! matter.

use orthopt::common::row::bag_eq_approx;
use orthopt::common::Value;
use orthopt::tpch::queries;
use orthopt::{Database, OptimizerLevel};

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
fn q17_full_level_explores_segment_apply() {
    let db = tpch();
    let sql = queries::q17_brand_only("brand#23");
    let full = db.plan(&sql, OptimizerLevel::Full).unwrap();
    let without = db.plan(&sql, OptimizerLevel::GroupByReorder).unwrap();
    assert!(
        full.search.exprs > without.search.exprs,
        "SegmentApply rule added nothing: {} vs {} exprs",
        full.search.exprs,
        without.search.exprs
    );
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
