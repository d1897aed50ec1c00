//! Run-time error propagation through physical plans: SQL's data-
//! dependent errors (division by zero, integer overflow, Max1Row) must
//! surface as `Err`, not panics or wrong answers — and must not fire
//! for rows that filters have already rejected.

mod fixtures;

use fixtures::*;
use orthopt_common::{ColId, Error, TableId};
use orthopt_exec::physical::Executor;
use orthopt_exec::{Bindings, PhysExpr};
use orthopt_ir::{ArithOp, CmpOp, ScalarExpr};

fn scan_orders() -> PhysExpr {
    PhysExpr::TableScan {
        table: TableId(1),
        positions: vec![0, 1, 2],
        cols: vec![O_ORDERKEY, O_CUSTKEY, O_TOTALPRICE],
    }
}

#[test]
fn division_by_zero_in_compute_propagates() {
    let catalog = customers_orders();
    let ex = Executor { catalog: &catalog };
    let plan = PhysExpr::Compute {
        input: Box::new(scan_orders()),
        defs: vec![(
            ColId(90),
            ScalarExpr::Arith {
                op: ArithOp::Div,
                left: Box::new(ScalarExpr::col(O_TOTALPRICE)),
                right: Box::new(ScalarExpr::lit(0i64)),
            },
        )],
    };
    assert_eq!(
        ex.exec(&plan, &Bindings::new()).unwrap_err(),
        Error::DivideByZero
    );
}

#[test]
fn filter_prevents_error_on_rejected_rows() {
    // 100 / (o_orderkey - 10) divides by zero only for orderkey 10; a
    // filter removing that row first must suppress the error.
    let catalog = customers_orders();
    let ex = Executor { catalog: &catalog };
    let risky = |input: PhysExpr| PhysExpr::Compute {
        input: Box::new(input),
        defs: vec![(
            ColId(91),
            ScalarExpr::Arith {
                op: ArithOp::Div,
                left: Box::new(ScalarExpr::lit(100i64)),
                right: Box::new(ScalarExpr::Arith {
                    op: ArithOp::Sub,
                    left: Box::new(ScalarExpr::col(O_ORDERKEY)),
                    right: Box::new(ScalarExpr::lit(10i64)),
                }),
            },
        )],
    };
    // Unguarded: errors.
    assert!(ex.exec(&risky(scan_orders()), &Bindings::new()).is_err());
    // Guarded: fine.
    let guarded = risky(PhysExpr::Filter {
        input: Box::new(scan_orders()),
        predicate: ScalarExpr::cmp(
            CmpOp::Ne,
            ScalarExpr::col(O_ORDERKEY),
            ScalarExpr::lit(10i64),
        ),
    });
    let out = ex.exec(&guarded, &Bindings::new()).unwrap();
    assert_eq!(out.len(), 3);
}

#[test]
fn overflow_in_aggregate_propagates() {
    let catalog = customers_orders();
    let ex = Executor { catalog: &catalog };
    // SUM of (i64::MAX interpreted per row) overflows after row two.
    let big = PhysExpr::Compute {
        input: Box::new(scan_orders()),
        defs: vec![(ColId(92), ScalarExpr::lit(i64::MAX))],
    };
    let agg = PhysExpr::HashAggregate {
        kind: orthopt_ir::GroupKind::Scalar,
        input: Box::new(big),
        group_cols: vec![],
        aggs: vec![orthopt_ir::AggDef::new(
            orthopt_ir::ColumnMeta::new(ColId(93), "s", orthopt_common::DataType::Int, true),
            orthopt_ir::AggFunc::Sum,
            Some(ScalarExpr::col(ColId(92))),
        )],
    };
    assert_eq!(
        ex.exec(&agg, &Bindings::new()).unwrap_err(),
        Error::NumericOverflow
    );
}

#[test]
fn error_inside_apply_inner_surfaces_once() {
    // The inner plan errors on some invocation: the whole query errors.
    let catalog = customers_orders();
    let ex = Executor { catalog: &catalog };
    let inner = PhysExpr::Compute {
        input: Box::new(PhysExpr::IndexSeek {
            table: TableId(1),
            positions: vec![0],
            cols: vec![ColId(94)],
            index_cols: vec![1],
            probes: vec![ScalarExpr::col(C_CUSTKEY)],
        }),
        defs: vec![(
            ColId(95),
            ScalarExpr::Arith {
                op: ArithOp::Div,
                left: Box::new(ScalarExpr::lit(1i64)),
                right: Box::new(ScalarExpr::lit(0i64)),
            },
        )],
    };
    let apply = PhysExpr::ApplyLoop {
        kind: orthopt_ir::ApplyKind::LeftOuter,
        left: Box::new(PhysExpr::TableScan {
            table: TableId(0),
            positions: vec![0],
            cols: vec![C_CUSTKEY],
        }),
        right: Box::new(inner),
        params: vec![C_CUSTKEY],
    };
    assert_eq!(
        ex.exec(&apply, &Bindings::new()).unwrap_err(),
        Error::DivideByZero
    );
}

#[test]
fn conditional_execution_suppresses_inner_errors() {
    // Carol (custkey 3) has no orders: the index seek returns nothing,
    // so the Compute above it never runs for her; but for customers
    // *with* orders it errors. Restricting the outer side to carol must
    // succeed — the execution-side half of §2.4's conditional execution.
    let catalog = customers_orders();
    let ex = Executor { catalog: &catalog };
    let inner = PhysExpr::Compute {
        input: Box::new(PhysExpr::IndexSeek {
            table: TableId(1),
            positions: vec![0],
            cols: vec![ColId(96)],
            index_cols: vec![1],
            probes: vec![ScalarExpr::col(C_CUSTKEY)],
        }),
        defs: vec![(
            ColId(97),
            ScalarExpr::Arith {
                op: ArithOp::Div,
                left: Box::new(ScalarExpr::lit(1i64)),
                right: Box::new(ScalarExpr::lit(0i64)),
            },
        )],
    };
    let only_carol = PhysExpr::Filter {
        input: Box::new(PhysExpr::TableScan {
            table: TableId(0),
            positions: vec![0],
            cols: vec![C_CUSTKEY],
        }),
        predicate: ScalarExpr::eq(ScalarExpr::col(C_CUSTKEY), ScalarExpr::lit(3i64)),
    };
    let apply = PhysExpr::ApplyLoop {
        kind: orthopt_ir::ApplyKind::LeftOuter,
        left: Box::new(only_carol),
        right: Box::new(inner),
        params: vec![C_CUSTKEY],
    };
    let out = ex.exec(&apply, &Bindings::new()).unwrap();
    assert_eq!(out.len(), 1);
    assert!(out.rows[0][1].is_null());
}

#[test]
fn assert_max1_errors_with_sql_error_kind() {
    let catalog = customers_orders();
    let ex = Executor { catalog: &catalog };
    let plan = PhysExpr::AssertMax1 {
        input: Box::new(scan_orders()),
    };
    assert_eq!(
        ex.exec(&plan, &Bindings::new()).unwrap_err(),
        Error::SubqueryReturnedMoreThanOneRow
    );
}

// ---------------------------------------------------------------------
// Resource governor: memory budgets, cancellation, reuse after failure.
// ---------------------------------------------------------------------

mod governor {
    use super::*;
    use orthopt_common::{QueryContext, Result};
    use orthopt_exec::{Chunk, Pipeline};
    use orthopt_ir::JoinKind;
    use orthopt_storage::Catalog;
    use std::sync::Arc;
    use std::time::Duration;

    fn scan_customer() -> PhysExpr {
        PhysExpr::TableScan {
            table: TableId(0),
            positions: vec![0, 1],
            cols: vec![C_CUSTKEY, C_NAME],
        }
    }

    fn join_plan() -> PhysExpr {
        PhysExpr::HashJoin {
            kind: JoinKind::Inner,
            left: Box::new(scan_customer()),
            right: Box::new(scan_orders()),
            left_keys: vec![C_CUSTKEY],
            right_keys: vec![O_CUSTKEY],
            residual: ScalarExpr::lit(true),
        }
    }

    fn run_governed(plan: &PhysExpr, catalog: &Catalog, gov: QueryContext) -> Result<Chunk> {
        let mut pipe = Pipeline::compile(plan)?;
        pipe.set_governor(gov);
        pipe.execute(catalog, &Bindings::new())
    }

    /// Budget-trip tests assert the *refusal* contract, so they pin
    /// spilling off per pipeline (it is on by default).
    fn run_governed_no_spill(
        plan: &PhysExpr,
        catalog: &Catalog,
        gov: QueryContext,
    ) -> Result<Chunk> {
        let opts = orthopt_exec::PipelineOptions {
            spill: false,
            ..Default::default()
        };
        let mut pipe = Pipeline::with_options(plan, opts)?;
        pipe.set_governor(gov);
        pipe.execute(catalog, &Bindings::new())
    }

    fn expect_exhausted(r: Result<Chunk>, operator: &str) {
        match r {
            Err(Error::ResourceExhausted {
                operator: op,
                limit,
                ..
            }) => {
                assert_eq!(op, operator, "blame names the buffering operator");
                assert!(limit > 0, "limit carried through");
            }
            other => panic!("expected ResourceExhausted at {operator}, got {other:?}"),
        }
    }

    #[test]
    fn budget_trips_hash_join_build_with_blame() {
        let catalog = customers_orders();
        let gov = QueryContext::new().with_memory_limit(16);
        expect_exhausted(
            run_governed_no_spill(&join_plan(), &catalog, gov),
            "HashJoin",
        );
    }

    fn sort_plan() -> PhysExpr {
        PhysExpr::Sort {
            input: Box::new(scan_orders()),
            by: vec![(O_TOTALPRICE, false)],
        }
    }

    fn agg_plan() -> PhysExpr {
        PhysExpr::HashAggregate {
            kind: orthopt_ir::GroupKind::Vector,
            input: Box::new(scan_orders()),
            group_cols: vec![O_CUSTKEY],
            aggs: vec![orthopt_ir::AggDef::new(
                orthopt_ir::ColumnMeta::new(ColId(80), "n", orthopt_common::DataType::Int, false),
                orthopt_ir::AggFunc::CountStar,
                None,
            )],
        }
    }

    #[test]
    fn budget_trips_sort_buffer() {
        let catalog = customers_orders();
        let gov = QueryContext::new().with_memory_limit(16);
        expect_exhausted(run_governed_no_spill(&sort_plan(), &catalog, gov), "Sort");
    }

    #[test]
    fn budget_trips_aggregate_state() {
        let catalog = customers_orders();
        let gov = QueryContext::new().with_memory_limit(16);
        expect_exhausted(
            run_governed_no_spill(&agg_plan(), &catalog, gov),
            "HashAggregate",
        );
    }

    /// With spilling left on (the default), a starvation budget makes
    /// the sort degrade to disk runs instead of tripping — and the
    /// merged output is byte-identical to the unconstrained run.
    #[test]
    fn tiny_budget_with_spill_degrades_instead_of_tripping() {
        let catalog = customers_orders();
        let free = run_governed(&sort_plan(), &catalog, QueryContext::new()).unwrap();
        let gov = QueryContext::new().with_memory_limit(16);
        let spilled = run_governed(&sort_plan(), &catalog, gov).unwrap();
        assert_eq!(free.rows, spilled.rows, "external sort preserves order");
    }

    /// A wider aggregation (many groups) under a budget that holds a
    /// fraction of the state spills partitions, then replays each one
    /// within budget; the result matches the unconstrained run.
    #[test]
    fn aggregation_spills_partitions_and_stays_exact() {
        use orthopt_common::{DataType, Value};
        use orthopt_storage::{ColumnDef, TableDef};

        let mut catalog = orthopt_storage::Catalog::new();
        let t = catalog
            .create_table(TableDef::new(
                "wide",
                vec![
                    ColumnDef::new("k", DataType::Int),
                    ColumnDef::new("v", DataType::Int),
                ],
                vec![],
            ))
            .unwrap();
        catalog
            .table_mut(t)
            .insert_all((0..960).map(|i| vec![Value::Int(i % 160), Value::Int(i)]))
            .unwrap();
        let plan = PhysExpr::HashAggregate {
            kind: orthopt_ir::GroupKind::Vector,
            input: Box::new(PhysExpr::TableScan {
                table: t,
                positions: vec![0, 1],
                cols: vec![ColId(200), ColId(201)],
            }),
            group_cols: vec![ColId(200)],
            aggs: vec![orthopt_ir::AggDef::new(
                orthopt_ir::ColumnMeta::new(ColId(202), "n", orthopt_common::DataType::Int, false),
                orthopt_ir::AggFunc::CountStar,
                None,
            )],
        };
        let free = run_governed(&plan, &catalog, QueryContext::new()).unwrap();
        assert_eq!(free.rows.len(), 160);

        // Budget sized to hold well under 160 groups (~48 bytes each:
        // table share, key lane, count lane) but comfortably more than
        // one partition's (~160/8 groups) replay state.
        let mut pipe = Pipeline::compile(&plan).unwrap();
        pipe.set_governor(QueryContext::new().with_memory_limit(4 << 10));
        let mut spilled = pipe.execute(&catalog, &Bindings::new()).unwrap();
        let key = |r: &Vec<Value>| match r[0] {
            Value::Int(i) => i,
            _ => unreachable!(),
        };
        let mut want = free.rows.clone();
        spilled.rows.sort_by_key(key);
        want.sort_by_key(key);
        assert_eq!(want, spilled.rows, "partitioned aggregation is exact");
        let stats = pipe.stats();
        assert!(
            stats
                .iter()
                .any(|s| s.spill_partitions > 0 && s.spilled_bytes > 0),
            "aggregate actually spilled: {stats:?}"
        );
    }

    /// Every hard-fail buffering site (no spill path, no cache to shed)
    /// reports its refusal with a hint naming the memory knob, and
    /// blames the right operator; ungoverned, the blamed node's stats
    /// slot (pre-order id) reports the operator's memory peak.
    #[test]
    fn hard_fail_sites_hint_the_memory_knob() {
        let catalog = customers_orders();
        let cases: Vec<(PhysExpr, &str, usize)> = vec![
            (
                // A keyless (nested-loops) join has no hash to
                // partition on, so its build never spills.
                PhysExpr::HashJoin {
                    kind: JoinKind::Inner,
                    left: Box::new(scan_customer()),
                    right: Box::new(scan_orders()),
                    left_keys: vec![],
                    right_keys: vec![],
                    residual: orthopt_ir::ScalarExpr::lit(true),
                },
                "HashJoin",
                0,
            ),
            (
                // A keyed join whose build side is invariant under an
                // Apply keeps its build across rewinds, so it never
                // spills either — though spilling is on.
                PhysExpr::ApplyLoop {
                    kind: orthopt_ir::ApplyKind::Cross,
                    left: Box::new(scan_customer()),
                    right: Box::new(PhysExpr::HashJoin {
                        kind: JoinKind::Inner,
                        left: Box::new(PhysExpr::Filter {
                            input: Box::new(scan_orders()),
                            predicate: ScalarExpr::eq(
                                ScalarExpr::col(O_CUSTKEY),
                                ScalarExpr::col(C_CUSTKEY),
                            ),
                        }),
                        right: Box::new(PhysExpr::TableScan {
                            table: TableId(0),
                            positions: vec![0],
                            cols: vec![ColId(310)],
                        }),
                        left_keys: vec![O_CUSTKEY],
                        right_keys: vec![ColId(310)],
                        residual: ScalarExpr::lit(true),
                    }),
                    params: vec![C_CUSTKEY],
                },
                "HashJoin",
                2,
            ),
            (
                PhysExpr::Limit {
                    input: Box::new(scan_orders()),
                    n: 2,
                },
                "Limit",
                0,
            ),
            (
                PhysExpr::AssertMax1 {
                    input: Box::new(PhysExpr::Filter {
                        input: Box::new(scan_orders()),
                        predicate: orthopt_ir::ScalarExpr::eq(
                            orthopt_ir::ScalarExpr::col(O_ORDERKEY),
                            orthopt_ir::ScalarExpr::lit(10i64),
                        ),
                    }),
                },
                "Max1Row",
                0,
            ),
            (
                PhysExpr::ExceptExec {
                    left: Box::new(PhysExpr::TableScan {
                        table: TableId(0),
                        positions: vec![0],
                        cols: vec![C_CUSTKEY],
                    }),
                    right: Box::new(PhysExpr::TableScan {
                        table: TableId(1),
                        positions: vec![1],
                        cols: vec![O_CUSTKEY],
                    }),
                    right_map: vec![O_CUSTKEY],
                },
                "Except",
                0,
            ),
            (
                PhysExpr::SegmentExec {
                    input: Box::new(scan_orders()),
                    segment_cols: vec![O_CUSTKEY],
                    inner: Box::new(PhysExpr::SegmentScan {
                        cols: vec![(ColId(300), O_TOTALPRICE)],
                    }),
                    out_cols: vec![O_CUSTKEY, ColId(300)],
                },
                "SegmentExec",
                0,
            ),
        ];
        for (plan, op, slot) in cases {
            let mut pipe = Pipeline::compile(&plan).unwrap();
            pipe.execute(&catalog, &Bindings::new()).unwrap();
            let peak = pipe.stats()[slot].mem_peak;
            assert!(peak > 0, "{op}: ungoverned run reported no peak at #{slot}");
            let gov = QueryContext::new().with_memory_limit(1);
            match run_governed(&plan, &catalog, gov) {
                Err(e) => match e.root_cause() {
                    Error::ResourceExhausted { operator, hint, .. } => {
                        assert_eq!(operator.as_str(), op, "blame names the buffering operator");
                        let Some(h) = hint else {
                            panic!("{op}: refusal carried no hint")
                        };
                        assert!(h.contains("ORTHOPT_MEM_LIMIT"), "{op}: {h}");
                        assert!(!h.contains("spill"), "{op} cannot spill: {h}");
                    }
                    other => panic!("{op}: expected ResourceExhausted, got {other:?}"),
                },
                Ok(_) => panic!("{op}: one-byte budget did not trip"),
            }
        }

        // The exchange gather buffer is the same contract, one layer up:
        // workers stream an uncharged scan, the gather charge trips.
        let plan = PhysExpr::Exchange {
            input: Box::new(scan_orders()),
        };
        let catalog = Arc::new(catalog);
        let mut pipe = Pipeline::compile(&plan).unwrap();
        pipe.set_parallelism(2);
        pipe.set_shared_catalog(Arc::clone(&catalog));
        pipe.execute(&catalog, &Bindings::new()).unwrap();
        assert!(pipe.stats()[0].mem_peak > 0, "Exchange: no peak ungoverned");
        pipe.set_governor(QueryContext::new().with_memory_limit(1));
        match pipe.execute(&catalog, &Bindings::new()) {
            Err(e) => match e.root_cause() {
                Error::ResourceExhausted { operator, hint, .. } => {
                    assert_eq!(operator.as_str(), "Exchange");
                    let Some(h) = hint else {
                        panic!("Exchange: refusal carried no hint")
                    };
                    assert!(h.contains("ORTHOPT_MEM_LIMIT"), "{h}");
                }
                other => panic!("Exchange: expected ResourceExhausted, got {other:?}"),
            },
            Ok(_) => panic!("Exchange: one-byte budget did not trip"),
        }
    }

    /// Refusals at spillable operators carry a hint naming both escape
    /// hatches; spilling was pinned off, so the message must say how to
    /// turn it back on.
    #[test]
    fn refusal_hint_names_the_knobs() {
        let catalog = customers_orders();
        let gov = QueryContext::new().with_memory_limit(16);
        match run_governed_no_spill(&sort_plan(), &catalog, gov) {
            Err(Error::ResourceExhausted { hint: Some(h), .. }) => {
                assert!(h.contains("ORTHOPT_MEM_LIMIT"), "{h}");
                assert!(h.contains("spill"), "{h}");
            }
            other => panic!("expected hinted refusal, got {other:?}"),
        }
    }

    #[test]
    fn generous_budget_passes_and_records_peaks() {
        let catalog = customers_orders();
        let mut pipe = Pipeline::compile(&join_plan()).unwrap();
        let gov = QueryContext::new().with_memory_limit(1 << 20);
        pipe.set_governor(gov);
        let chunk = pipe.execute(&catalog, &Bindings::new()).unwrap();
        assert_eq!(chunk.rows.len(), 4);
        let peak = pipe.governor().mem_peak().unwrap();
        assert!(peak > 0, "pool saw the build bytes");
        let stats = pipe.stats();
        assert!(
            stats.iter().any(|s| s.mem_peak > 0),
            "some operator reported a memory peak: {stats:?}"
        );
    }

    #[test]
    fn apply_cache_sheds_and_falls_back_to_reexecution() {
        // The inner side is parameter-invariant (no params), so the
        // compiler wraps it in a cache. Under a budget too small for the
        // cached rows the cache must shed and re-execute per outer row
        // instead of failing the query.
        let catalog = customers_orders();
        let inner = PhysExpr::Filter {
            input: Box::new(scan_orders()),
            predicate: ScalarExpr::cmp(
                CmpOp::Gt,
                ScalarExpr::col(O_ORDERKEY),
                ScalarExpr::lit(0i64),
            ),
        };
        let plan = PhysExpr::ApplyLoop {
            kind: orthopt_ir::ApplyKind::Cross,
            left: Box::new(scan_customer()),
            right: Box::new(inner),
            params: vec![],
        };
        let ungoverned = run_governed(&plan, &catalog, QueryContext::new()).unwrap();
        assert_eq!(ungoverned.rows.len(), 12);
        // 16 bytes cannot hold even one cached row.
        let gov = QueryContext::new().with_memory_limit(16);
        let governed = run_governed(&plan, &catalog, gov).expect("cache sheds, query survives");
        assert!(orthopt_common::row::bag_eq(
            &ungoverned.rows,
            &governed.rows
        ));
    }

    #[test]
    fn pre_cancelled_token_fails_fast() {
        let catalog = customers_orders();
        let gov = QueryContext::new().with_cancellation();
        gov.cancel_token().cancel();
        match run_governed(&join_plan(), &catalog, gov) {
            Err(Error::Cancelled { .. }) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn zero_deadline_cancels_at_first_boundary() {
        let catalog = customers_orders();
        let gov = QueryContext::new().with_timeout(Duration::ZERO);
        match run_governed(&join_plan(), &catalog, gov) {
            Err(Error::Cancelled { ref operator, .. }) => {
                assert!(!operator.is_empty(), "cancellation blames an operator");
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn pipeline_reusable_after_governor_failure() {
        let catalog = customers_orders();
        let mut pipe = Pipeline::compile(&join_plan()).unwrap();
        pipe.set_governor(QueryContext::new().with_memory_limit(16));
        assert!(pipe.execute(&catalog, &Bindings::new()).is_err());
        // Same compiled pipeline, governor lifted: clean answer.
        pipe.set_governor(QueryContext::new());
        let chunk = pipe.execute(&catalog, &Bindings::new()).unwrap();
        assert_eq!(chunk.rows.len(), 4);
    }

    #[test]
    fn parallel_exchange_respects_budget_and_cancellation() {
        let catalog = Arc::new(customers_orders());
        let plan = PhysExpr::Exchange {
            input: Box::new(scan_orders()),
        };
        let mut pipe = Pipeline::compile(&plan).unwrap();
        pipe.set_parallelism(4);
        pipe.set_shared_catalog(Arc::clone(&catalog));
        pipe.set_governor(QueryContext::new().with_memory_limit(16));
        match pipe.execute(&catalog, &Bindings::new()) {
            Err(Error::ResourceExhausted { .. }) => {}
            other => panic!("expected ResourceExhausted, got {other:?}"),
        }
        let gov = QueryContext::new().with_cancellation();
        gov.cancel_token().cancel();
        pipe.set_governor(gov);
        match pipe.execute(&catalog, &Bindings::new()) {
            Err(Error::Cancelled { .. }) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
        // And clean afterwards.
        pipe.set_governor(QueryContext::new());
        assert_eq!(pipe.execute(&catalog, &Bindings::new()).unwrap().len(), 4);
    }
}
