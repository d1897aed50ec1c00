//! The hash aggregate's group table and accumulator lanes against
//! independent models: group ids against a plain first-seen
//! `HashMap<Vec<Value>, usize>`, and whole aggregations against the
//! `Reference` oracle exactly where a batched, column-at-a-time
//! aggregate could part ways with a row-at-a-time one — which of two
//! failing aggregates raises its error, and a memory refusal in the
//! middle of a batch.

use std::collections::HashMap;

use orthopt_common::column::{rows_to_columns, Bitmap, ColData, ColumnData};
use orthopt_common::hash::{hash_lanes, GroupTable};
use orthopt_common::row::bag_eq;
use orthopt_common::{ColId, Column, DataType, Error, Prng, QueryContext, Result, Row, Value};
use orthopt_exec::{Bindings, Chunk, PhysExpr, Pipeline, Reference};
use orthopt_ir::{AggDef, AggFunc, ColumnMeta, GroupKind, RelExpr, ScalarExpr};
use orthopt_storage::Catalog;

const BATCH_SIZES: [usize; 3] = [1, 7, 1024];

const P53: i64 = 1 << 53;

/// Value pools per key kind: few enough values that keys repeat, and
/// every equality corner `Value`'s `Eq` has.
fn pools() -> Vec<Vec<Value>> {
    vec![
        // Int.
        vec![Value::Int(0), Value::Int(-3), Value::Int(3), Value::Null],
        // Float: signed zeros, NaNs of both signs, an integral value.
        vec![
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(f64::NAN),
            Value::Float(-f64::NAN),
            Value::Float(3.0),
            Value::Float(1.5),
            Value::Null,
        ],
        // Str.
        vec![
            Value::str("a"),
            Value::str(""),
            Value::str("b"),
            Value::Null,
        ],
        // Date.
        vec![
            Value::Date(0),
            Value::Date(-1),
            Value::Date(19_000),
            Value::Null,
        ],
        // Mixed, stored as `Val`: `3` is `3.0`, `"3"` is neither; the
        // float 2^53 is the integer 2^53 but not 2^53 + 1, which
        // rounds to it.
        vec![
            Value::Int(3),
            Value::Float(3.0),
            Value::str("3"),
            Value::Float(-0.0),
            Value::Int(0),
            Value::Null,
            Value::Int(P53 + 1),
            Value::Float(P53 as f64),
            Value::Int(P53),
        ],
    ]
}

/// Group ids from an independent grouping: a first-seen `HashMap`.
fn model_ids(rows: &[Row]) -> (Vec<u32>, Vec<Row>) {
    let mut index: HashMap<Row, u32> = HashMap::new();
    let mut keys = Vec::new();
    let ids = rows
        .iter()
        .map(|r| {
            *index.entry(r.clone()).or_insert_with(|| {
                keys.push(r.clone());
                keys.len() as u32 - 1
            })
        })
        .collect();
    (ids, keys)
}

/// Group ids and first-seen key order equal the `HashMap` grouping's,
/// for single and multi-column keys of every kind, fed in batches of
/// 1, 7 and 1024 lanes (each batch typing its own columns, so one key
/// column arrives both typed and as `Val`), with real hashes and with
/// every lane hashing alike.
#[test]
fn group_ids_match_first_seen_hash_map_grouping() {
    let pools = pools();
    let shapes: Vec<Vec<usize>> = vec![
        vec![],
        vec![0],
        vec![1],
        vec![2],
        vec![3],
        vec![4],
        vec![0, 2],
        vec![4, 1],
        vec![3, 4, 0],
    ];
    let mut rng = Prng::new(23);
    for shape in &shapes {
        let rows: Vec<Row> = (0..3000)
            .map(|_| shape.iter().map(|&k| rng.pick(&pools[k]).clone()).collect())
            .collect();
        let (want_ids, want_keys) = model_ids(&rows);
        // Every lane also hashing alike makes each probe compare its key
        // with every group's: equality alone must tell them apart.
        for (bs, collide) in BATCH_SIZES
            .into_iter()
            .flat_map(|bs| [(bs, false), (bs, true)])
        {
            let mut table = GroupTable::new();
            let mut ids = Vec::new();
            for chunk in rows.chunks(bs) {
                let cols = rows_to_columns(chunk, shape.len());
                let refs: Vec<&Column> = cols.iter().collect();
                let hashes = if collide {
                    vec![0; chunk.len()]
                } else {
                    hash_lanes(&refs, chunk.len())
                };
                ids.extend(table.assign(&refs, &hashes));
            }
            let ctx = format!("key kinds {shape:?}, batch size {bs}, colliding {collide}");
            assert_eq!(ids, want_ids, "{ctx}");
            assert_eq!(table.len(), want_keys.len(), "{ctx}");
            for (g, key) in want_keys.iter().enumerate() {
                let got: Row = table.keys().iter().map(|c| c.value(g)).collect();
                // Debug tells -0.0 from 0.0: the first-seen spelling is kept.
                assert_eq!(format!("{got:?}"), format!("{key:?}"), "{ctx}: group {g}");
            }
        }
    }
}

/// `vals` stored as a `Val` column, whatever they hold.
fn val_column(vals: Vec<Value>) -> Column {
    let validity = Bitmap::from_flags(vals.iter().map(|v| !v.is_null()));
    Column::from_data(ColumnData {
        data: ColData::Val(vals),
        validity,
    })
}

/// One key column that changes representation from batch to batch —
/// `Int`, then `Float`, then `Val`, each all-valid and then with NULLs,
/// as whole columns and as windows — gets the first-seen ids of the
/// `HashMap` grouping, alone and beside a string key, with real hashes
/// and with every lane hashing alike: the key compare's typed arms
/// hold only where both lanes share a representation and hold values,
/// and grouping equality decides everywhere else.
#[test]
fn group_ids_survive_representation_changes_between_batches() {
    let int = |xs: &[i64]| xs.iter().map(|&x| Value::Int(x)).collect::<Vec<_>>();
    let float = |xs: &[f64]| xs.iter().map(|&x| Value::Float(x)).collect::<Vec<_>>();
    let batches: Vec<(Vec<Value>, bool)> = vec![
        (int(&[1, 2, 0, P53 + 1, 1]), false),
        (float(&[1.0, 2.5, -0.0, P53 as f64, 3.0]), false),
        (int(&[3, P53, 7]), true),
        (
            vec![
                Value::Int(2),
                Value::Float(2.5),
                Value::str("x"),
                Value::Null,
            ],
            false,
        ),
        (
            vec![Value::Null, Value::Int(0), Value::Int(7), Value::Null],
            false,
        ),
        (
            vec![
                Value::Float(f64::NAN),
                Value::Null,
                Value::Float(7.0),
                Value::Float(1.5),
            ],
            false,
        ),
        (vec![Value::Null, Value::Int(P53 + 1), Value::Int(9)], true),
        (int(&[9, 0, 2]), false),
    ];
    let column = |vals: &[Value], as_val: bool| {
        if as_val {
            val_column(vals.to_vec())
        } else {
            Column::from_values(vals.to_vec())
        }
    };
    for (wide, collide) in [(false, false), (true, false), (false, true), (true, true)] {
        for windowed in [false, true] {
            let mut rows: Vec<Row> = Vec::new();
            let mut table = GroupTable::new();
            let mut ids = Vec::new();
            for (b, (vals, as_val)) in batches.iter().enumerate() {
                let tags: Vec<Value> = (0..vals.len())
                    .map(|i| Value::str(["p", "q"][(b + i) % 2]))
                    .collect();
                let mut cols = vec![column(vals, *as_val)];
                if wide {
                    cols.push(Column::from_values(tags.clone()));
                }
                if windowed {
                    // The same lanes behind a one-lane offset.
                    cols = cols
                        .iter()
                        .map(|c| {
                            Column::concat(&[column(&[Value::Int(-5)], false), c.clone()])
                                .slice(1, c.len())
                        })
                        .collect();
                }
                let refs: Vec<&Column> = cols.iter().collect();
                let hashes = if collide {
                    vec![0; vals.len()]
                } else {
                    hash_lanes(&refs, vals.len())
                };
                ids.extend(table.assign(&refs, &hashes));
                rows.extend(vals.iter().zip(&tags).map(|(v, t)| {
                    let mut r = vec![v.clone()];
                    if wide {
                        r.push(t.clone());
                    }
                    r
                }));
            }
            let (want_ids, want_keys) = model_ids(&rows);
            let ctx = format!("wide {wide}, windowed {windowed}, colliding {collide}");
            assert_eq!(ids, want_ids, "{ctx}");
            assert_eq!(table.len(), want_keys.len(), "{ctx}");
            for (g, key) in want_keys.iter().enumerate() {
                let got: Row = table.keys().iter().map(|c| c.value(g)).collect();
                assert_eq!(format!("{got:?}"), format!("{key:?}"), "{ctx}: group {g}");
            }
        }
    }
}

/// `ConstRel` / `ConstScan` over `rows`, columns `ColId(1..)`.
fn source(rows: &[Row]) -> (RelExpr, PhysExpr) {
    let width = rows.first().map_or(0, Vec::len);
    let ids: Vec<ColId> = (1..=width).map(|i| ColId(i as u32)).collect();
    let rel = RelExpr::ConstRel {
        cols: ids
            .iter()
            .map(|&id| ColumnMeta::new(id, format!("c{id}"), DataType::Int, true))
            .collect(),
        rows: rows.to_vec(),
    };
    (rel, PhysExpr::const_rows(ids, rows))
}

/// `func([DISTINCT] c<col>)`, output `ColId(100 + i)`.
fn agg(i: u32, func: AggFunc, col: Option<u32>, distinct: bool) -> AggDef {
    let mut def = AggDef::new(
        ColumnMeta::new(ColId(100 + i), format!("a{i}"), DataType::Int, true),
        func,
        col.map(|c| ScalarExpr::col(ColId(c))),
    );
    def.distinct = distinct;
    def
}

/// The same grouping as a logical plan (for `Reference`) and a
/// physical one (for the engine).
fn group_by(rows: &[Row], keys: &[u32], aggs: Vec<AggDef>) -> (RelExpr, PhysExpr) {
    let (rel, phys) = source(rows);
    let group_cols: Vec<ColId> = keys.iter().map(|&k| ColId(k)).collect();
    let kind = if keys.is_empty() {
        GroupKind::Scalar
    } else {
        GroupKind::Vector
    };
    (
        RelExpr::GroupBy {
            kind,
            input: Box::new(rel),
            group_cols: group_cols.clone(),
            aggs: aggs.clone(),
        },
        PhysExpr::HashAggregate {
            kind,
            input: Box::new(phys),
            group_cols,
            aggs,
        },
    )
}

fn run(plan: &PhysExpr, bs: usize, gov: QueryContext) -> (Result<Chunk>, Pipeline) {
    let mut pipe = Pipeline::with_batch_size(plan, bs).expect("compiles");
    pipe.set_governor(gov);
    let out = pipe.execute(&Catalog::new(), &Bindings::new());
    (out, pipe)
}

/// Two aggregates fail at different lanes — an `Int` SUM overflowing
/// and a SUM over a `Val` argument meeting a string — or at the same
/// one. Whichever order the aggregates are listed in, and at every
/// batch size, the engine raises the error a row-at-a-time feed raises
/// first: the smallest lane, ties to the aggregate listed first.
#[test]
fn first_failing_lane_wins_like_the_reference() {
    // (overflow lane, type-error lane); both in group 0 (lane % 3 == 0)
    // after the group has a running value.
    for (overflow_at, mistyped_at) in [(30, 60), (60, 30), (45, 45)] {
        let rows: Vec<Row> = (0..200usize)
            .map(|i| {
                let big = match i {
                    0 => Value::Int(i64::MAX),
                    _ if i == overflow_at => Value::Int(1),
                    _ => Value::Int(0),
                };
                let mixed = if i == mistyped_at {
                    Value::str("x")
                } else {
                    Value::Int(1)
                };
                vec![Value::Int((i % 3) as i64), big, mixed]
            })
            .collect();
        for (first, second) in [(2, 3), (3, 2)] {
            let aggs = vec![
                agg(0, AggFunc::CountStar, None, false),
                agg(1, AggFunc::Sum, Some(first), false),
                agg(2, AggFunc::Sum, Some(second), false),
            ];
            let (rel, phys) = group_by(&rows, &[1], aggs);
            let want = Reference::new(&Catalog::new())
                .run(&rel)
                .expect_err("the oracle fails");
            let expected =
                if overflow_at < mistyped_at || (overflow_at == mistyped_at && first == 2) {
                    Error::NumericOverflow
                } else {
                    Error::TypeMismatch("operand of + is not numeric: Str(\"x\")".into())
                };
            assert_eq!(want, expected, "oracle at {overflow_at}/{mistyped_at}");
            for bs in BATCH_SIZES {
                let (got, _) = run(&phys, bs, QueryContext::new());
                assert_eq!(
                    got.expect_err("the engine fails"),
                    want,
                    "overflow at {overflow_at}, type error at {mistyped_at}, \
                     column {first} first, batch size {bs}"
                );
            }
        }
    }
}

/// A budget that refuses the group state partway through a batch makes
/// the aggregate spill the rest and replay it per partition — with
/// DISTINCT filters and a NULL group in play — and the answer is the
/// oracle's.
#[test]
fn budget_refusal_mid_batch_spills_and_stays_exact() {
    let mut rng = Prng::new(7);
    let rows: Vec<Row> = (0..5000i64)
        .map(|i| {
            let k = if i % 37 == 0 {
                Value::Null
            } else {
                Value::Int(rng.int_range(0, 600))
            };
            let s = Value::str(["p", "q", "r"][(i % 3) as usize]);
            let v = if i % 11 == 0 {
                Value::Null
            } else {
                Value::Int(rng.int_range(-20, 20))
            };
            vec![k, s, v]
        })
        .collect();
    let aggs = vec![
        agg(0, AggFunc::CountStar, None, false),
        agg(1, AggFunc::Sum, Some(3), false),
        agg(2, AggFunc::Count, Some(3), true),
        agg(3, AggFunc::Sum, Some(3), true),
        agg(4, AggFunc::Min, Some(3), false),
        agg(5, AggFunc::Avg, Some(3), true),
    ];
    let (rel, phys) = group_by(&rows, &[1, 2], aggs);
    let want = Reference::new(&Catalog::new()).run(&rel).expect("oracle");
    assert!(
        want.rows.iter().any(|r| r[0].is_null()),
        "a NULL group is in play"
    );
    for bs in [1024, 333] {
        let (free, pipe) = run(&phys, bs, QueryContext::new());
        assert_eq!(free.expect("unlimited").rows, want.rows, "first-seen order");
        let peak = pipe.stats().iter().map(|s| s.mem_peak).max().unwrap_or(0);
        let budget = peak / 3;
        let (tight, pipe) = run(&phys, bs, QueryContext::new().with_memory_limit(budget));
        let tight = tight.expect("a refused aggregate spills instead of failing");
        assert!(
            bag_eq(&tight.rows, &want.rows),
            "spilled run is exact at {bs}"
        );
        let stats = pipe.stats();
        assert!(
            stats
                .iter()
                .any(|s| s.spill_partitions > 0 && s.spilled_bytes > 0),
            "budget {budget} of peak {peak} spilled at {bs}: {stats:?}"
        );
    }
}
