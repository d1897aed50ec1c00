//! The nested-loops join is the hash join with no keys: every build
//! row is a candidate for every probe row and the residual is the whole
//! predicate. Its answers against the reference interpreter, its error
//! behaviour, and the bounded pair window that keeps `probe × build`
//! from being materialised at once.

mod fixtures;

use fixtures::*;
use orthopt_common::row::bag_eq;
use orthopt_common::{ColId, DataType, Error, Row, TableId, Value};
use orthopt_exec::{Bindings, PhysExpr, Pipeline, Reference, DEFAULT_BATCH_SIZE};
use orthopt_ir::{builder, ArithOp, CmpOp, JoinKind, RelExpr, ScalarExpr};
use orthopt_storage::{Catalog, ColumnDef, TableDef};

const KINDS: [JoinKind; 4] = [
    JoinKind::Inner,
    JoinKind::LeftOuter,
    JoinKind::LeftSemi,
    JoinKind::LeftAnti,
];

fn scan(table: u32, cols: &[ColId]) -> PhysExpr {
    PhysExpr::TableScan {
        table: TableId(table),
        positions: (0..cols.len()).collect(),
        cols: cols.to_vec(),
    }
}

fn join(
    kind: JoinKind,
    left: PhysExpr,
    right: PhysExpr,
    keys: (Vec<ColId>, Vec<ColId>),
    residual: ScalarExpr,
) -> PhysExpr {
    PhysExpr::HashJoin {
        kind,
        left: Box::new(left),
        right: Box::new(right),
        left_keys: keys.0,
        right_keys: keys.1,
        residual,
    }
}

fn keyless(kind: JoinKind, left: PhysExpr, right: PhysExpr, predicate: ScalarExpr) -> PhysExpr {
    join(kind, left, right, (vec![], vec![]), predicate)
}

#[test]
fn matches_the_reference_for_every_kind() {
    let catalog = customers_orders();
    let customer = || scan(0, &[C_CUSTKEY, C_NAME]);
    let orders = || scan(1, &[O_ORDERKEY, O_CUSTKEY, O_TOTALPRICE]);
    let no_orders = (
        PhysExpr::Filter {
            input: Box::new(orders()),
            predicate: ScalarExpr::lit(false),
        },
        builder::select(get_orders(), ScalarExpr::lit(false)),
    );
    // NULL for order 13's price: unknown is not a match.
    let pricey_and_foreign = ScalarExpr::and([
        ScalarExpr::cmp(
            CmpOp::Gt,
            ScalarExpr::col(O_TOTALPRICE),
            ScalarExpr::lit(60.0f64),
        ),
        ScalarExpr::cmp(
            CmpOp::Ne,
            ScalarExpr::col(C_CUSTKEY),
            ScalarExpr::col(O_CUSTKEY),
        ),
    ]);
    let cases: [(&str, (PhysExpr, RelExpr), ScalarExpr); 3] = [
        ("empty build", no_orders, ScalarExpr::true_()),
        (
            "NULLs in the predicate",
            (orders(), get_orders()),
            pricey_and_foreign,
        ),
        (
            "always false",
            (orders(), get_orders()),
            ScalarExpr::lit(false),
        ),
    ];
    for (what, (build, build_logical), predicate) in cases {
        for kind in KINDS {
            let logical = builder::join(
                kind,
                get_customer(),
                build_logical.clone(),
                predicate.clone(),
            );
            let want = Reference::new(&catalog).run(&logical).unwrap();
            let plan = keyless(kind, customer(), build.clone(), predicate.clone());
            for batch_size in [1, 2, DEFAULT_BATCH_SIZE] {
                let got = Pipeline::with_batch_size(&plan, batch_size)
                    .unwrap()
                    .execute(&catalog, &Bindings::new())
                    .unwrap();
                assert_eq!(want.cols, got.cols, "{what} {kind:?}");
                assert!(
                    bag_eq(&want.rows, &got.rows),
                    "{what} {kind:?} bs={batch_size}: want {:?} got {:?}",
                    want.rows,
                    got.rows
                );
            }
        }
    }
}

/// `100 / (o_orderkey - 11) < 0` holds for every customer's first
/// candidate (order 10) and divides by zero on the second (order 11). A
/// semi or anti join is done with a probe row at its first match and
/// never evaluates the second pair; an inner or outer join evaluates
/// every pair and must raise.
#[test]
fn an_error_past_a_lanes_first_match_is_raised_only_by_joins_that_look() {
    let catalog = customers_orders();
    let predicate = ScalarExpr::cmp(
        CmpOp::Lt,
        ScalarExpr::Arith {
            op: ArithOp::Div,
            left: Box::new(ScalarExpr::lit(100i64)),
            right: Box::new(ScalarExpr::Arith {
                op: ArithOp::Sub,
                left: Box::new(ScalarExpr::col(O_ORDERKEY)),
                right: Box::new(ScalarExpr::lit(11i64)),
            }),
        },
        ScalarExpr::lit(0i64),
    );
    for kind in KINDS {
        let plan = keyless(
            kind,
            scan(0, &[C_CUSTKEY, C_NAME]),
            scan(1, &[O_ORDERKEY, O_CUSTKEY, O_TOTALPRICE]),
            predicate.clone(),
        );
        let mut pipe = Pipeline::compile(&plan).unwrap();
        let got = pipe.execute(&catalog, &Bindings::new());
        match kind {
            JoinKind::LeftSemi => assert_eq!(got.unwrap().len(), 3, "every customer matches"),
            JoinKind::LeftAnti => assert!(got.unwrap().is_empty()),
            JoinKind::Inner | JoinKind::LeftOuter => {
                let err = got.unwrap_err();
                assert_eq!(err.root_cause(), &Error::DivideByZero, "{kind:?}");
            }
        }
        // The kernel hit the error and the pairs were re-walked a lane
        // at a time.
        assert_eq!(pipe.stats()[0].bridged, 1, "{kind:?}");
    }
}

/// `l(a, hot)` with 3 000 rows and `r(b, hot)` with 5 000; `hot` is 7
/// on every row of both.
fn wide_catalog() -> Catalog {
    let mut catalog = Catalog::new();
    for (name, rows) in [("l", 3_000), ("r", 5_000)] {
        let cols = vec![
            ColumnDef::new("k", DataType::Int),
            ColumnDef::new("hot", DataType::Int),
        ];
        let t = catalog
            .create_table(TableDef::new(name, cols, vec![vec![0]]))
            .unwrap();
        catalog
            .table_mut(t)
            .insert_all((0..rows).map(|i| vec![Value::Int(i), Value::Int(7)]))
            .unwrap();
    }
    catalog
}

/// 15 million candidate pairs, 3 000 of which survive `a = b`: whether
/// they come from no key at all or from one hot key, they are evaluated
/// a bounded window at a time — more kernel calls than probe batches —
/// and the answer is the one an index on `a = b` gives.
#[test]
fn candidate_pairs_are_evaluated_in_bounded_windows() {
    let catalog = wide_catalog();
    let (a, lhot, b, rhot) = (ColId(1), ColId(2), ColId(3), ColId(4));
    let same = ScalarExpr::eq(ScalarExpr::col(a), ScalarExpr::col(b));
    let run = |keys: (Vec<ColId>, Vec<ColId>), residual: ScalarExpr| {
        let plan = join(
            JoinKind::Inner,
            scan(0, &[a, lhot]),
            scan(1, &[b, rhot]),
            keys,
            residual,
        );
        let mut pipe = Pipeline::compile(&plan).unwrap();
        let out = pipe.execute(&catalog, &Bindings::new()).unwrap();
        (out.rows, pipe.stats()[0])
    };
    let want: Vec<Row> = (0..3_000)
        .map(|i| vec![Value::Int(i), Value::Int(7), Value::Int(i), Value::Int(7)])
        .collect();
    let probe_batches = 3_000u64.div_ceil(DEFAULT_BATCH_SIZE as u64);

    let (indexed, stats) = run((vec![a], vec![b]), ScalarExpr::true_());
    assert_eq!(indexed, want, "probe order, then build order");
    assert_eq!(
        stats.kernels,
        1 + probe_batches,
        "one build, one window a batch"
    );

    for (what, keys) in [
        ("keyless", (vec![], vec![])),
        ("hot key", (vec![lhot], vec![rhot])),
    ] {
        let (rows, stats) = run(keys, same.clone());
        assert_eq!(rows, want, "{what}");
        assert_eq!(stats.bridged, 0, "{what}");
        // 5 000 candidates a lane: a window closes every few lanes.
        assert!(
            stats.kernels > 100 * probe_batches,
            "{what}: {} kernels over {probe_batches} probe batches",
            stats.kernels
        );
    }
}
