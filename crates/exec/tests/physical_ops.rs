//! Physical-operator tests: each execution-time operator the optimizer
//! can emit, exercised directly against the fixture catalog.

mod fixtures;

use fixtures::*;
use orthopt_common::row::bag_eq;
use orthopt_common::{ColId, TableId, Value};
use orthopt_exec::physical::Executor;
use orthopt_exec::{Bindings, PhysExpr};
use orthopt_ir::{AggFunc, ApplyKind, CmpOp, GroupKind, JoinKind, ScalarExpr};

fn scan_customer() -> PhysExpr {
    PhysExpr::TableScan {
        table: TableId(0),
        positions: vec![0, 1],
        cols: vec![C_CUSTKEY, C_NAME],
    }
}

fn scan_orders() -> PhysExpr {
    PhysExpr::TableScan {
        table: TableId(1),
        positions: vec![0, 1, 2],
        cols: vec![O_ORDERKEY, O_CUSTKEY, O_TOTALPRICE],
    }
}

fn agg_def(out: ColId, func: AggFunc, arg: Option<ScalarExpr>) -> orthopt_ir::AggDef {
    orthopt_ir::AggDef::new(
        orthopt_ir::ColumnMeta::new(
            out,
            "agg",
            func.output_type(Some(orthopt_common::DataType::Float)),
            true,
        ),
        func,
        arg,
    )
}

#[test]
fn table_scan_reads_all_rows() {
    let catalog = customers_orders();
    let ex = Executor { catalog: &catalog };
    let out = ex.exec(&scan_customer(), &Bindings::new()).unwrap();
    assert_eq!(out.len(), 3);
    assert_eq!(out.cols, vec![C_CUSTKEY, C_NAME]);
}

#[test]
fn index_seek_probes_by_parameter() {
    let catalog = customers_orders();
    let ex = Executor { catalog: &catalog };
    let mut binds = Bindings::new();
    binds.set(C_CUSTKEY, Value::Int(1));
    let seek = PhysExpr::IndexSeek {
        table: TableId(1),
        positions: vec![0, 1, 2],
        cols: vec![O_ORDERKEY, O_CUSTKEY, O_TOTALPRICE],
        index_cols: vec![1],
        probes: vec![ScalarExpr::col(C_CUSTKEY)],
    };
    let out = ex.exec(&seek, &binds).unwrap();
    assert_eq!(out.len(), 2);
    // NULL probe matches nothing.
    binds.set(C_CUSTKEY, Value::Null);
    assert!(ex.exec(&seek, &binds).unwrap().is_empty());
}

#[test]
fn hash_join_variants_match_nested_loop_semantics() {
    let catalog = customers_orders();
    let ex = Executor { catalog: &catalog };
    for kind in [
        JoinKind::Inner,
        JoinKind::LeftOuter,
        JoinKind::LeftSemi,
        JoinKind::LeftAnti,
    ] {
        let hash = PhysExpr::HashJoin {
            kind,
            left: Box::new(scan_customer()),
            right: Box::new(scan_orders()),
            left_keys: vec![C_CUSTKEY],
            right_keys: vec![O_CUSTKEY],
            residual: ScalarExpr::true_(),
        };
        // The same join with no keys: nested loops over the predicate.
        let nl = PhysExpr::HashJoin {
            kind,
            left: Box::new(scan_customer()),
            right: Box::new(scan_orders()),
            left_keys: vec![],
            right_keys: vec![],
            residual: ScalarExpr::eq(ScalarExpr::col(C_CUSTKEY), ScalarExpr::col(O_CUSTKEY)),
        };
        let h = ex.exec(&hash, &Bindings::new()).unwrap();
        let n = ex.exec(&nl, &Bindings::new()).unwrap();
        assert!(bag_eq(&h.rows, &n.rows), "kind {kind:?}");
    }
}

#[test]
fn hash_join_residual_filters_matches() {
    let catalog = customers_orders();
    let ex = Executor { catalog: &catalog };
    let join = PhysExpr::HashJoin {
        kind: JoinKind::Inner,
        left: Box::new(scan_customer()),
        right: Box::new(scan_orders()),
        left_keys: vec![C_CUSTKEY],
        right_keys: vec![O_CUSTKEY],
        residual: ScalarExpr::cmp(
            CmpOp::Gt,
            ScalarExpr::col(O_TOTALPRICE),
            ScalarExpr::lit(150.0f64),
        ),
    };
    let out = ex.exec(&join, &Bindings::new()).unwrap();
    assert_eq!(out.len(), 1); // only the 200.0 order
}

#[test]
fn hash_join_null_keys_never_match() {
    let catalog = customers_orders();
    let ex = Executor { catalog: &catalog };
    // Join orders to itself on totalprice; the NULL price must not
    // match the other NULL price.
    let left = scan_orders();
    let right = PhysExpr::TableScan {
        table: TableId(1),
        positions: vec![0, 2],
        cols: vec![ColId(80), ColId(81)],
    };
    let join = PhysExpr::HashJoin {
        kind: JoinKind::Inner,
        left: Box::new(left),
        right: Box::new(right),
        left_keys: vec![O_TOTALPRICE],
        right_keys: vec![ColId(81)],
        residual: ScalarExpr::true_(),
    };
    let out = ex.exec(&join, &Bindings::new()).unwrap();
    // Three non-NULL prices, all distinct → 3 self-matches.
    assert_eq!(out.len(), 3);
}

#[test]
fn apply_loop_with_index_seek_is_index_lookup_join() {
    let catalog = customers_orders();
    let ex = Executor { catalog: &catalog };
    let inner = PhysExpr::IndexSeek {
        table: TableId(1),
        positions: vec![0, 1, 2],
        cols: vec![O_ORDERKEY, O_CUSTKEY, O_TOTALPRICE],
        index_cols: vec![1],
        probes: vec![ScalarExpr::col(C_CUSTKEY)],
    };
    let apply = PhysExpr::ApplyLoop {
        kind: ApplyKind::LeftOuter,
        left: Box::new(scan_customer()),
        right: Box::new(inner),
        params: vec![C_CUSTKEY],
    };
    let out = ex.exec(&apply, &Bindings::new()).unwrap();
    assert_eq!(out.len(), 5); // 2 + 2 + padded carol
    let padded = out
        .rows
        .iter()
        .find(|r| r[0] == Value::Int(3))
        .expect("carol");
    assert!(padded[2].is_null() && padded[4].is_null());
}

#[test]
fn apply_semi_and_anti() {
    let catalog = customers_orders();
    let ex = Executor { catalog: &catalog };
    let inner = PhysExpr::IndexSeek {
        table: TableId(1),
        positions: vec![0],
        cols: vec![O_ORDERKEY],
        index_cols: vec![1],
        probes: vec![ScalarExpr::col(C_CUSTKEY)],
    };
    for (kind, expect) in [(ApplyKind::Semi, 2usize), (ApplyKind::Anti, 1usize)] {
        let apply = PhysExpr::ApplyLoop {
            kind,
            left: Box::new(scan_customer()),
            right: Box::new(inner.clone()),
            params: vec![C_CUSTKEY],
        };
        assert_eq!(ex.exec(&apply, &Bindings::new()).unwrap().len(), expect);
    }
}

#[test]
fn hash_aggregate_vector_scalar_and_having_shape() {
    let catalog = customers_orders();
    let ex = Executor { catalog: &catalog };
    let sum = ColId(90);
    let agg = PhysExpr::HashAggregate {
        kind: GroupKind::Vector,
        input: Box::new(scan_orders()),
        group_cols: vec![O_CUSTKEY],
        aggs: vec![agg_def(
            sum,
            AggFunc::Sum,
            Some(ScalarExpr::col(O_TOTALPRICE)),
        )],
    };
    let having = PhysExpr::Filter {
        input: Box::new(agg),
        predicate: ScalarExpr::cmp(CmpOp::Lt, ScalarExpr::lit(150.0f64), ScalarExpr::col(sum)),
    };
    let out = ex.exec(&having, &Bindings::new()).unwrap();
    assert_eq!(out.len(), 1);
    assert_eq!(out.rows[0][0], Value::Int(1));
}

#[test]
fn segment_exec_matches_reference_segment_apply() {
    let catalog = customers_orders();
    let ex = Executor { catalog: &catalog };
    let p1 = ColId(91);
    let p2 = ColId(92);
    let avg = ColId(93);
    let inner = PhysExpr::HashJoin {
        kind: JoinKind::Inner,
        left_keys: vec![],
        right_keys: vec![],
        left: Box::new(PhysExpr::SegmentScan {
            cols: vec![(p1, O_TOTALPRICE)],
        }),
        right: Box::new(PhysExpr::HashAggregate {
            kind: GroupKind::Scalar,
            input: Box::new(PhysExpr::SegmentScan {
                cols: vec![(p2, O_TOTALPRICE)],
            }),
            group_cols: vec![],
            aggs: vec![agg_def(avg, AggFunc::Avg, Some(ScalarExpr::col(p2)))],
        }),
        residual: ScalarExpr::cmp(CmpOp::Gt, ScalarExpr::col(p1), ScalarExpr::col(avg)),
    };
    let seg = PhysExpr::SegmentExec {
        input: Box::new(scan_orders()),
        segment_cols: vec![O_CUSTKEY],
        inner: Box::new(inner),
        out_cols: vec![O_CUSTKEY, p1, avg],
    };
    let out = ex.exec(&seg, &Bindings::new()).unwrap();
    assert_eq!(out.len(), 1);
    assert_eq!(out.rows[0][0], Value::Int(1));
    assert_eq!(out.rows[0][1], Value::Float(200.0));
}

#[test]
fn concat_except_assert_rownumber_sort() {
    let catalog = customers_orders();
    let ex = Executor { catalog: &catalog };
    let keys = PhysExpr::ProjectCols {
        input: Box::new(scan_customer()),
        cols: vec![C_CUSTKEY],
    };
    let out_col = ColId(94);
    let concat = PhysExpr::Concat {
        left: Box::new(keys.clone()),
        right: Box::new(keys.clone()),
        cols: vec![out_col],
        left_map: vec![C_CUSTKEY],
        right_map: vec![C_CUSTKEY],
    };
    assert_eq!(ex.exec(&concat, &Bindings::new()).unwrap().len(), 6);

    let two = PhysExpr::Filter {
        input: Box::new(PhysExpr::TableScan {
            table: TableId(0),
            positions: vec![0],
            cols: vec![ColId(95)],
        }),
        predicate: ScalarExpr::eq(ScalarExpr::col(ColId(95)), ScalarExpr::lit(2i64)),
    };
    let except = PhysExpr::ExceptExec {
        left: Box::new(keys.clone()),
        right: Box::new(two),
        right_map: vec![ColId(95)],
    };
    let out = ex.exec(&except, &Bindings::new()).unwrap();
    assert!(bag_eq(
        &out.rows,
        &[vec![Value::Int(1)], vec![Value::Int(3)]]
    ));

    let assert1 = PhysExpr::AssertMax1 {
        input: Box::new(keys.clone()),
    };
    assert!(ex.exec(&assert1, &Bindings::new()).is_err());

    let rn = PhysExpr::RowNumber {
        input: Box::new(keys.clone()),
        col: ColId(96),
    };
    let out = ex.exec(&rn, &Bindings::new()).unwrap();
    assert_eq!(out.cols, vec![C_CUSTKEY, ColId(96)]);

    let sort = PhysExpr::Sort {
        input: Box::new(keys),
        by: vec![(C_CUSTKEY, false)],
    };
    let out = ex.exec(&sort, &Bindings::new()).unwrap();
    let got: Vec<&Value> = out.rows.iter().map(|r| &r[0]).collect();
    assert_eq!(got, vec![&Value::Int(1), &Value::Int(2), &Value::Int(3)]);
}

#[test]
fn compute_appends_expressions() {
    let catalog = customers_orders();
    let ex = Executor { catalog: &catalog };
    let doubled = ColId(97);
    let compute = PhysExpr::Compute {
        input: Box::new(scan_orders()),
        defs: vec![(
            doubled,
            ScalarExpr::Arith {
                op: orthopt_ir::ArithOp::Mul,
                left: Box::new(ScalarExpr::col(O_TOTALPRICE)),
                right: Box::new(ScalarExpr::lit(2.0f64)),
            },
        )],
    };
    let out = ex.exec(&compute, &Bindings::new()).unwrap();
    let pos = out.col_pos(doubled).unwrap();
    let first = out.rows.iter().find(|r| r[0] == Value::Int(10)).unwrap();
    assert_eq!(first[pos], Value::Float(200.0));
    // NULL input propagates.
    let null_row = out.rows.iter().find(|r| r[0] == Value::Int(13)).unwrap();
    assert!(null_row[pos].is_null());
}
