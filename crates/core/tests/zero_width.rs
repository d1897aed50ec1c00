//! Zero-width batches. A batch with no columns still has a cardinality,
//! and `Batch::len` is the only place it lives: there is no row vector
//! whose length could stand in for it. Every operator a zero-column
//! batch can reach must carry that count through — checked against the
//! `Reference` interpreter on the logical twin of each plan, at batch
//! sizes that cut the input into one-lane, two-lane and single batches.

use orthopt::{Database, OptimizerLevel};
use orthopt_common::row::bag_eq;
use orthopt_common::{ColId, DataType, Error, Row, TableId};
use orthopt_exec::{Bindings, Chunk, PhysExpr, Pipeline, Reference};
use orthopt_ir::{
    builder, AggDef, AggFunc, ApplyKind, ColumnMeta, GroupKind, JoinKind, RelExpr, ScalarExpr,
};
use orthopt_rewrite::testgen::build_catalog;

const BATCH_SIZES: [usize; 3] = [1, 2, 1024];

const RK: ColId = ColId(1);
const RV: ColId = ColId(2);

/// `r` with five rows, `s` with seven over three correlation groups.
fn db() -> Database {
    let r_rows: Vec<(i64, Option<i64>)> = (0..5).map(|i| (i, Some(i % 2))).collect();
    let s_rows: Vec<(i64, i64, Option<i64>)> = (0..7).map(|i| (i, i % 3, Some(i))).collect();
    Database::from_catalog(build_catalog(&r_rows, &s_rows))
}

/// `n` rows of no columns, physically and logically.
fn empty_rows(n: usize) -> (PhysExpr, RelExpr) {
    let rows: Vec<Row> = vec![vec![]; n];
    (
        PhysExpr::const_rows(vec![], &rows),
        RelExpr::ConstRel { cols: vec![], rows },
    )
}

fn scan_r() -> (PhysExpr, RelExpr) {
    (
        PhysExpr::TableScan {
            table: TableId(0),
            positions: vec![0, 1],
            cols: vec![RK, RV],
        },
        builder::get(
            TableId(0),
            "r",
            &[
                (RK, "rk", DataType::Int, false),
                (RV, "rv", DataType::Int, true),
            ],
            &[&[0]],
            5.0,
        ),
    )
}

/// Runs `phys` at every batch size and compares with the oracle's
/// answer for `logical`: the same rows (for a zero-column result, the
/// same number of them) or the same error.
fn check(db: &Database, what: &str, phys: &PhysExpr, logical: &RelExpr) {
    let oracle = Reference::new(db.catalog()).run(logical);
    for bs in BATCH_SIZES {
        let got = Pipeline::with_batch_size(phys, bs)
            .unwrap()
            .execute(db.catalog(), &Bindings::new());
        match (&oracle, got) {
            (Ok(want), Ok(got)) => {
                assert_eq!(want.cols, got.cols, "{what} bs={bs}");
                assert!(
                    bag_eq(&want.rows, &got.rows),
                    "{what} bs={bs}: oracle has {} rows, pipeline {}",
                    want.len(),
                    got.len()
                );
            }
            (Err(e), Err(g)) => assert_eq!(e, &g, "{what} bs={bs}"),
            (o, g) => panic!("{what} bs={bs}: oracle={o:?} pipeline={g:?}"),
        }
    }
}

#[test]
fn const_scan_limit_and_max1row_keep_the_count() {
    let db = db();
    for n in [1, 3] {
        let (phys, logical) = empty_rows(n);
        check(&db, &format!("ConstScan x{n}"), &phys, &logical);
        // The oracle has no Limit: its twin is the cut relation itself.
        for limit in [0, 2, 5] {
            let cut = PhysExpr::Limit {
                input: Box::new(phys.clone()),
                n: limit,
            };
            let (_, want) = empty_rows(n.min(limit));
            check(&db, &format!("Limit {limit} of x{n}"), &cut, &want);
        }
        // One row passes; three are the cardinality violation, seen
        // only in lane counts.
        let max1 = PhysExpr::AssertMax1 {
            input: Box::new(phys.clone()),
        };
        let want = RelExpr::Max1Row {
            input: Box::new(logical.clone()),
        };
        check(&db, &format!("Max1Row of x{n}"), &max1, &want);
    }
    let (three, _) = empty_rows(3);
    let err = Pipeline::compile(&PhysExpr::AssertMax1 {
        input: Box::new(three),
    })
    .unwrap()
    .execute(db.catalog(), &Bindings::new());
    assert_eq!(err.err(), Some(Error::SubqueryReturnedMoreThanOneRow));
}

#[test]
fn concat_appends_counts() {
    let db = db();
    let ((p1, l1), (p3, l3)) = (empty_rows(1), empty_rows(3));
    let phys = PhysExpr::Concat {
        left: Box::new(p1),
        right: Box::new(p3),
        cols: vec![],
        left_map: vec![],
        right_map: vec![],
    };
    let logical = RelExpr::UnionAll {
        left: Box::new(l1),
        right: Box::new(l3),
        cols: vec![],
        left_map: vec![],
        right_map: vec![],
    };
    check(&db, "Concat x1 + x3", &phys, &logical);
}

/// A zero-column probe side through the keyless (nested-loops) join and
/// every join kind: with no key and a true predicate each probe lane
/// meets every build row, or none when the build side is empty.
#[test]
fn joins_probe_zero_column_batches() {
    let db = db();
    let (build_phys, build_logical) = scan_r();
    let empty_build = (
        PhysExpr::Filter {
            input: Box::new(build_phys.clone()),
            predicate: ScalarExpr::lit(false),
        },
        RelExpr::Select {
            input: Box::new(build_logical.clone()),
            predicate: ScalarExpr::lit(false),
        },
    );
    for (build_name, (right, right_logical)) in
        [("r", (build_phys, build_logical)), ("nothing", empty_build)]
    {
        for kind in [
            JoinKind::Inner,
            JoinKind::LeftOuter,
            JoinKind::LeftSemi,
            JoinKind::LeftAnti,
        ] {
            let (probe, probe_logical) = empty_rows(3);
            let logical = RelExpr::Join {
                kind,
                left: Box::new(probe_logical),
                right: Box::new(right_logical.clone()),
                predicate: ScalarExpr::lit(true),
            };
            let nl = PhysExpr::HashJoin {
                kind,
                left: Box::new(probe),
                right: Box::new(right.clone()),
                left_keys: vec![],
                right_keys: vec![],
                residual: ScalarExpr::lit(true),
            };
            check(
                &db,
                &format!("NestedLoop{kind:?} x3 with {build_name}"),
                &nl,
                &logical,
            );
        }
    }
}

/// An invariant zero-column inner under an `ApplyLoop` is materialized
/// once by the rewind cache and replayed for every outer row: the
/// replay has to reproduce the lane count, not just the (absent)
/// columns.
#[test]
fn rewind_cache_replays_zero_column_batches() {
    let db = db();
    let (outer, outer_logical) = scan_r();
    for kind in [
        ApplyKind::Cross,
        ApplyKind::LeftOuter,
        ApplyKind::Semi,
        ApplyKind::Anti,
    ] {
        for inner_rows in [0, 2] {
            // A Limit over the literal: a non-leaf invariant subtree,
            // which is what gets a cache.
            let (three, _) = empty_rows(3);
            let inner = PhysExpr::Limit {
                input: Box::new(three),
                n: inner_rows,
            };
            let phys = PhysExpr::ApplyLoop {
                kind,
                left: Box::new(outer.clone()),
                right: Box::new(inner),
                params: vec![],
            };
            let mut pipeline = Pipeline::compile(&phys).unwrap();
            assert_eq!(pipeline.cached_nodes(), &[2], "the inner Limit is cached");
            pipeline.execute(db.catalog(), &Bindings::new()).unwrap();
            assert_eq!(
                pipeline.stats()[2].opens,
                1,
                "filled once, replayed 5 times"
            );
            let (_, inner_logical) = empty_rows(inner_rows);
            let logical = RelExpr::Apply {
                kind,
                left: Box::new(outer_logical.clone()),
                right: Box::new(inner_logical),
            };
            check(
                &db,
                &format!("ApplyLoop{kind:?} x{inner_rows}"),
                &phys,
                &logical,
            );
        }
    }
}

/// `count(*)` needs no column of its input: a scan pruned to nothing
/// still has to deliver one lane per stored row, a batch at a time.
#[test]
fn fully_pruned_scan_under_count_star() {
    let db = db();
    let count = AggDef::new(
        ColumnMeta::new(ColId(10), "n", DataType::Int, false),
        AggFunc::CountStar,
        None,
    );
    let phys = PhysExpr::HashAggregate {
        kind: GroupKind::Scalar,
        input: Box::new(PhysExpr::TableScan {
            table: TableId(0),
            positions: vec![],
            cols: vec![],
        }),
        group_cols: vec![],
        aggs: vec![count.clone()],
    };
    let (_, get_r) = scan_r();
    let logical = builder::scalar_groupby(
        RelExpr::Project {
            input: Box::new(get_r),
            cols: vec![],
        },
        vec![count],
    );
    check(&db, "count(*) over a zero-column scan", &phys, &logical);
}

/// The same shapes reached through SQL: `count(*)` and EXISTS need no
/// column of the input they count or test (how far the planner prunes
/// it is its business; the answers must not depend on it).
#[test]
fn pruned_scans_and_exists_match_reference() {
    let db = db();
    for sql in [
        "select count(*) from r",
        "select count(*) from r, s",
        "select rk from r where exists (select 1 from s)",
        "select rk from r where exists (select 1 from s where sr = rk)",
        "select rk from r where not exists (select 1 from s where sr = rk)",
    ] {
        let bound = orthopt_sql::compile(sql, db.catalog()).unwrap();
        let oracle = Reference::new(db.catalog()).run(&bound.rel).unwrap();
        for level in OptimizerLevel::ALL {
            let plan = db.plan(sql, level).unwrap();
            let out_ids: Vec<_> = plan.output.iter().map(|c| c.id).collect();
            let want: Chunk = oracle.project(&out_ids).unwrap();
            for bs in BATCH_SIZES {
                let got = Pipeline::with_batch_size(&plan.physical, bs)
                    .unwrap()
                    .execute(db.catalog(), &Bindings::new())
                    .and_then(|chunk| chunk.project(&out_ids))
                    .unwrap();
                assert!(
                    bag_eq(&want.rows, &got.rows),
                    "{sql} level={level:?} bs={bs}: {:?} vs {:?}",
                    want.rows,
                    got.rows
                );
            }
        }
    }
}
