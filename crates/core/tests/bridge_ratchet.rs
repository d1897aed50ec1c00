//! The benchmark's plans at a small scale: each of the `bulk_wire`
//! classes and the paper's subquery queries runs to completion at
//! `Full` through the pipeline, the budgeted sort still spills, and no
//! spill directory outlives its query. (Every operator works on lanes,
//! so there is no row bridge left to count.)

use orthopt::common::QueryContext;
use orthopt::exec::{spill, Bindings, Pipeline};
use orthopt::{Database, OptimizerLevel};
use orthopt_tpch::queries;

const SORT_SQL: &str =
    "select l_orderkey, l_extendedprice from lineitem order by l_extendedprice, l_orderkey";
const AGG_LOWCARD_SQL: &str =
    "select l_returnflag, count(*), sum(l_quantity) from lineitem group by l_returnflag";

struct Case {
    name: &'static str,
    sql: String,
    parallelism: usize,
    mem_limit: Option<u64>,
}

/// The benchmark's six `bulk_wire` classes plus the paper's subquery
/// queries, at SF 0.002. `sort_spill`'s budget is scaled with the data
/// (16 MiB at SF 0.1) so the sort still spills.
fn cases() -> Vec<Case> {
    let case = |name, sql: &str| Case {
        name,
        sql: sql.to_string(),
        parallelism: 1,
        mem_limit: None,
    };
    vec![
        case("sort_all", SORT_SQL),
        Case {
            mem_limit: Some(320 << 10),
            ..case("sort_spill", SORT_SQL)
        },
        case("agg_lowcard", AGG_LOWCARD_SQL),
        case(
            "agg_highcard",
            "select l_partkey, count(*), sum(l_quantity) from lineitem group by l_partkey",
        ),
        case(
            "scan_filter_wide",
            "select l_orderkey, l_partkey, l_quantity, l_extendedprice \
             from lineitem where l_quantity < 6",
        ),
        Case {
            parallelism: 2,
            ..case("agg_par2", AGG_LOWCARD_SQL)
        },
        // The Q22-like query's one NestedLoopInner is the keyless hash
        // join: its predicate is a kernel over the candidate pairs.
        case("q2", &queries::q2_default()),
        case("q4", &queries::q4_default()),
        case("q17", &queries::q17_default()),
        case("q17brand", &queries::q17_brand_only("brand#23")),
        case("q22ish", &queries::q22ish()),
        case("paper_q1", &queries::paper_q1(1_000_000.0)),
    ]
}

#[test]
fn benchmark_plans_run_and_leave_no_spill_dirs() {
    let mut db = Database::tpch(0.002).unwrap();
    db.analyze();
    for case in cases() {
        db.session_mut().settings_mut().parallelism = case.parallelism;
        let plan = db.plan(&case.sql, OptimizerLevel::Full).unwrap();
        let mut pipeline = Pipeline::compile(&plan.physical).unwrap();
        pipeline.set_parallelism(case.parallelism);
        pipeline.set_shared_catalog(db.shared_catalog());
        if let Some(limit) = case.mem_limit {
            pipeline.set_governor(QueryContext::new().with_memory_limit(limit));
        }
        pipeline
            .execute(db.catalog(), &Bindings::new())
            .unwrap_or_else(|e| panic!("{}: {e}", case.name));
        let stats = pipeline.stats();
        if case.mem_limit.is_some() {
            assert!(
                stats.iter().any(|s| s.spilled_bytes > 0),
                "{}: the budget no longer makes the sort spill",
                case.name
            );
        }
        assert_eq!(spill::live_dirs(), 0, "{}", case.name);
    }
}
