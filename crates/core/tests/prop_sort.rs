//! Sort conformance: the typed columnar sort against its definition.
//!
//! `Sort` orders a permutation of column lanes on normalized key words
//! (re-sorting runs of equal words on the comparator where a key is
//! inexact or the word cap cut the words short) and, under memory
//! pressure, merges spilled runs block by block. Its definition is the
//! old implementation: transpose to rows and `sort_by` (stable) under
//! `Value::total_cmp` per `(position, desc)` key. The two must agree
//! **row for row** — every row carries a unique sequence number, so a
//! stability slip among equal keys is visible — for typed lanes with
//! NULLs, `Val` lanes mixing `Int` and `Float`, strings that tie on
//! their 8-byte head word, the extremes of every word encoding, specs
//! with more keys than the word cap, every batch size, in memory and
//! through a forced multi-run spill.

use std::cmp::Ordering;
use std::sync::Arc;

use orthopt::common::{ColId, DataType, QueryContext, Row, TableId, Value};
use orthopt::exec::{
    explain_phys_analyze, spill, Bindings, OpStats, PhysExpr, Pipeline, PipelineOptions,
};
use orthopt::ir::{ApplyKind, ScalarExpr};
use orthopt::storage::{Catalog, ColumnDef, TableDef};
use orthopt::{Database, OptimizerLevel};
use orthopt_synccheck::sync::{Mutex, MutexGuard};
use proptest::prelude::*;

/// The spilling legs assert the process-wide `spill::live_dirs() == 0`,
/// so tests of this binary must not overlap.
fn spill_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
}

/// Key columns of the generated rows; the sequence number follows them.
const KEYS: usize = 6;
/// Keys a base table can store (its columns are typed, so the mixed
/// `Int`/`Float` column exists only in the `ConstScan` source).
const TABLE_KEYS: usize = 5;

/// One generated row from small per-column draws: few distinct values,
/// so duplicate keys (and whole duplicate key tuples) are the norm.
fn row_of(draw: (i64, i64, i64, i64, i64, i64), seq: usize) -> Row {
    let int = match draw.0 {
        0 => Value::Null,
        1 => Value::Int(i64::MIN),
        2 => Value::Int(i64::MAX),
        n => Value::Int(n - 5),
    };
    let float = match draw.1 {
        0 => Value::Null,
        1 => Value::Float(f64::NAN),
        2 => Value::Float(-0.0),
        3 => Value::Float(0.0),
        4 => Value::Float(-2.5),
        5 => Value::Float(f64::INFINITY),
        6 => Value::Float(f64::NEG_INFINITY),
        7 => Value::Float(f64::from_bits(1)),
        _ => Value::Float(1.5),
    };
    // Three strings share one 8-byte head word and differ after it.
    let string = match draw.2 {
        0 => Value::Null,
        1 => Value::str(""),
        2 => Value::str("a"),
        3 => Value::str("ab"),
        4 => Value::str("abcdefgh"),
        5 => Value::str("abcdefgh1"),
        6 => Value::str("abcdefgh0"),
        _ => Value::str("b"),
    };
    let date = match draw.3 {
        0 => Value::Null,
        n => Value::Date((n as i32 - 2) * 400),
    };
    let boolean = match draw.4 {
        0 => Value::Null,
        n => Value::Bool(n % 2 == 0),
    };
    let mixed = match draw.5 {
        0 => Value::Null,
        1 => Value::Int(1),
        2 => Value::Float(1.0),
        3 => Value::Float(0.5),
        4 => Value::Int(-1),
        _ => Value::Float(-1.5),
    };
    vec![
        int,
        float,
        string,
        date,
        boolean,
        mixed,
        Value::Int(seq as i64),
    ]
}

fn rows_strategy(max: usize) -> impl Strategy<Value = Vec<Row>> {
    prop::collection::vec(
        (0i64..8, 0i64..9, 0i64..8, 0i64..4, 0i64..3, 0i64..6),
        0..max,
    )
    .prop_map(|draws| {
        draws
            .into_iter()
            .enumerate()
            .map(|(seq, d)| row_of(d, seq))
            .collect()
    })
}

/// Exact text of a result: `Value`'s `==` is grouping equality
/// (`-0.0 == 0.0`, `Int(1) == Float(1.0)`), too lenient to compare
/// orderings of exactly those values.
fn exact(rows: &[Row]) -> String {
    format!("{rows:?}")
}

/// The definition: a stable row sort under `Value::total_cmp`.
fn sort_rows_by(rows: &mut [Row], by: &[(usize, bool)]) {
    rows.sort_by(|a, b| {
        for &(i, desc) in by {
            let o = a[i].total_cmp(&b[i]);
            if o != Ordering::Equal {
                return if desc { o.reverse() } else { o };
            }
        }
        Ordering::Equal
    });
}

/// `Sort` over the rows as a `ConstScan` (transposed once; the mixed
/// column becomes a `Val` lane).
fn const_source(rows: &[Row]) -> PhysExpr {
    PhysExpr::const_rows((1..=KEYS as u32 + 1).map(ColId).collect(), rows)
}

/// A generated row as the table stores it: the typed keys and the
/// sequence number.
fn table_row(r: &Row) -> Row {
    let mut typed = r[..TABLE_KEYS].to_vec();
    typed.push(r[KEYS].clone());
    typed
}

/// A one-table catalog holding the rows' typed columns (all nullable)
/// plus the sequence number, and the scan over it (typed column lanes
/// with validity, sliced zero-copy from the stored columns).
fn table_source(rows: &[Row]) -> (Catalog, PhysExpr) {
    let mut catalog = Catalog::new();
    let t = catalog
        .create_table(TableDef::new(
            "t",
            vec![
                ColumnDef::nullable("i", DataType::Int),
                ColumnDef::nullable("f", DataType::Float),
                ColumnDef::nullable("s", DataType::Str),
                ColumnDef::nullable("d", DataType::Date),
                ColumnDef::nullable("b", DataType::Bool),
                ColumnDef::new("seq", DataType::Int),
            ],
            vec![vec![TABLE_KEYS]],
        ))
        .expect("table definition is valid");
    catalog
        .table_mut(t)
        .insert_all(rows.iter().map(table_row))
        .expect("rows match the schema");
    let scan = PhysExpr::TableScan {
        table: t,
        positions: (0..=TABLE_KEYS).collect(),
        cols: (1..=TABLE_KEYS as u32 + 1).map(ColId).collect(),
    };
    (catalog, scan)
}

/// Runs `Sort(source)` at `batch_size` under `gov`; returns the rows
/// and the Sort node's stats.
fn run_sort(
    catalog: &Catalog,
    source: PhysExpr,
    by: &[(ColId, bool)],
    batch_size: usize,
    gov: QueryContext,
) -> (Vec<Row>, OpStats) {
    let plan = PhysExpr::Sort {
        input: Box::new(source),
        by: by.to_vec(),
    };
    let mut pipeline = Pipeline::with_options(
        &plan,
        PipelineOptions {
            batch_size,
            spill: true,
        },
    )
    .expect("sort plan compiles");
    pipeline.set_governor(gov);
    let chunk = pipeline
        .execute(catalog, &Bindings::new())
        .expect("sort runs");
    let stats = pipeline.stats();
    assert_eq!(spill::live_dirs(), 0, "spill directory outlived the sort");
    (chunk.rows, stats[0])
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 40,
        .. ProptestConfig::default()
    })]

    #[test]
    fn typed_sort_matches_stable_row_sort(
        rows in rows_strategy(64),
        spec in prop::collection::vec((0usize..KEYS, any::<bool>()), 1..4),
        from_table in any::<bool>(),
    ) {
        let _g = spill_lock();
        let keys = if from_table { TABLE_KEYS } else { KEYS };
        let by_pos: Vec<(usize, bool)> = spec.iter().map(|&(k, desc)| (k % keys, desc)).collect();
        let by: Vec<(ColId, bool)> =
            by_pos.iter().map(|&(k, desc)| (ColId(k as u32 + 1), desc)).collect();
        let (catalog, source, mut expected) = if from_table {
            let (catalog, scan) = table_source(&rows);
            (catalog, scan, rows.iter().map(table_row).collect())
        } else {
            (Catalog::new(), const_source(&rows), rows.clone())
        };
        sort_rows_by(&mut expected, &by_pos);
        for batch_size in [1, 2, 7, 1024] {
            let (got, stats) =
                run_sort(&catalog, source.clone(), &by, batch_size, QueryContext::new());
            prop_assert_eq!(exact(&got), exact(&expected), "in memory, batch size {}, by {:?}", batch_size, by_pos);
            prop_assert_eq!(stats.spill_partitions, 0, "an unlimited sort spilled");
            // A budget of about three batches: every few batches the
            // buffer is cut into a run, so the answer comes off the
            // k-way merge of many runs plus the resident tail.
            let budget = 3 * batch_size as u64 * 250;
            let gov = QueryContext::new().with_memory_limit(budget);
            let (got, stats) = run_sort(&catalog, source.clone(), &by, batch_size, gov);
            prop_assert_eq!(exact(&got), exact(&expected), "spilled, batch size {}, by {:?}", batch_size, by_pos);
            if rows.len() >= 16 * batch_size {
                let runs = stats.spill_partitions;
                prop_assert!(runs >= 2, "expected a multi-run spill, got {} runs", runs);
            }
        }
    }
}

/// `n` rows drawn as `rows_strategy` draws them, from a fixed hash of
/// the sequence number; `dense` rows have no NULL.
fn hashed_rows(n: usize, dense: bool) -> Vec<Row> {
    (0..n)
        .map(|i| {
            let mut h = i.wrapping_mul(2_654_435_761) >> 7;
            let mut pick = |m: usize| {
                let k = if dense { 1 + h % (m - 1) } else { h % m };
                h /= m;
                k as i64
            };
            let draw = (pick(8), pick(9), pick(8), pick(4), pick(3), pick(6));
            row_of(draw, i)
        })
        .collect()
}

/// A larger fixed input through the spill path at the default batch
/// size: many full blocks per run, so the merge refills its cursors
/// mid-batch many times.
#[test]
fn multi_run_merge_of_full_blocks_is_stable() {
    let _g = spill_lock();
    let rows = hashed_rows(20_000, false);
    let by_pos = [(1, true), (5, false), (2, true)];
    let by: Vec<(ColId, bool)> = by_pos
        .iter()
        .map(|&(k, desc)| (ColId(k as u32 + 1), desc))
        .collect();
    let mut expected = rows.clone();
    sort_rows_by(&mut expected, &by_pos);
    let gov = QueryContext::new().with_memory_limit(1 << 20);
    let (got, stats) = run_sort(&Catalog::new(), const_source(&rows), &by, 1024, gov);
    let runs = stats.spill_partitions;
    assert!(runs >= 3, "expected several runs, got {runs}");
    assert!(exact(&got) == exact(&expected), "merged order diverged");
}

/// The edges of the word path, each against the stable row sort from
/// both sources, at two batch sizes, in memory and spilled: a string
/// key whose 8-byte head ties (followed by another key), more keys than
/// the word cap, one column both all-valid (a value word alone) and
/// NULL-bearing (a validity word first), and a `Val` key (no word: the
/// comparator sort). The in-memory Sort's `sort_words` / `tie_runs`
/// pin which path ran, so no case passes vacuously.
#[test]
fn word_path_edges_match_stable_row_sort() {
    let _g = spill_lock();
    type Spec = &'static [(usize, bool)];
    let cap_spec: Spec = &[(0, false), (1, true), (3, false), (4, true), (2, false)];
    // (spec, dense rows, sort words, tie runs re-sorted)
    let cases: [(Spec, bool, u64, bool); 7] = [
        (&[(2, false), (0, true)], false, 2, true),
        (&[(2, true), (1, false)], false, 2, true),
        (cap_spec, true, 4, true),
        (cap_spec, false, 4, true),
        (&[(0, true)], true, 1, false),
        (&[(0, true)], false, 2, false),
        (&[(5, false), (0, false)], false, 0, true),
    ];
    for (by_pos, dense, words, ties) in cases {
        let rows = hashed_rows(3_000, dense);
        let by: Vec<(ColId, bool)> = by_pos
            .iter()
            .map(|&(k, desc)| (ColId(k as u32 + 1), desc))
            .collect();
        let mut sources = vec![(Catalog::new(), const_source(&rows), rows.clone())];
        if by_pos.iter().all(|&(k, _)| k < TABLE_KEYS) {
            let (catalog, scan) = table_source(&rows);
            sources.push((catalog, scan, rows.iter().map(table_row).collect()));
        }
        for (catalog, source, mut expected) in sources {
            sort_rows_by(&mut expected, by_pos);
            for batch_size in [7, 1024] {
                let what = format!("by {by_pos:?}, dense {dense}, batch size {batch_size}");
                let (got, stats) = run_sort(
                    &catalog,
                    source.clone(),
                    &by,
                    batch_size,
                    QueryContext::new(),
                );
                assert!(exact(&got) == exact(&expected), "in memory, {what}");
                assert_eq!(stats.sort_words, Some(words), "{what}");
                assert_eq!(
                    stats.tie_runs > 0,
                    ties,
                    "{what}: {} tie runs",
                    stats.tie_runs
                );
                let gov = QueryContext::new().with_memory_limit(64 << 10);
                let (got, stats) = run_sort(&catalog, source.clone(), &by, batch_size, gov);
                assert!(exact(&got) == exact(&expected), "spilled, {what}");
                assert!(
                    stats.spill_partitions >= 2,
                    "{what}: expected a multi-run spill"
                );
            }
        }
    }
}

/// The Sort line of EXPLAIN ANALYZE says which sort ran:
/// `sort_words=<w> tie_runs=<n>`.
#[test]
fn explain_analyze_shows_which_sort_ran() {
    let db = Database::tpch(0.002).expect("TPC-H loads");
    let sort_line = |sql: &str| {
        let text = db
            .explain_analyze(sql, OptimizerLevel::Full)
            .expect("query runs");
        let line = text.lines().find(|l| l.trim_start().starts_with("Sort"));
        line.unwrap_or_else(|| panic!("no Sort line in\n{text}"))
            .to_string()
    };
    // `bulk_wire`'s sort: an all-valid float then an int — two exact
    // words, so the comparator never runs.
    let line = sort_line(
        "select l_orderkey, l_extendedprice from lineitem order by l_extendedprice, l_orderkey",
    );
    assert!(line.contains(" sort_words=2 tie_runs=0"), "{line}");
    // Q2's ORDER BY (over its join, without the part filters that leave
    // no row at this scale): `s_acctbal` is one word and `n_name` gives
    // its 8-byte head as the last; a supplier's parts tie on both and
    // are settled by `s_name`, `p_partkey` on the comparator.
    let line = sort_line(
        "select s_acctbal, s_name, n_name, p_partkey \
         from part, supplier, partsupp, nation, region \
         where p_partkey = ps_partkey and s_suppkey = ps_suppkey \
           and s_nationkey = n_nationkey and n_regionkey = r_regionkey \
           and r_name = 'europe' \
         order by s_acctbal, n_name, s_name, p_partkey",
    );
    let ties: u64 = line
        .split(" sort_words=2 tie_runs=")
        .nth(1)
        .and_then(|rest| rest.split(']').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("expected two sort words: {line}"));
    assert!(ties > 0, "{line}");
    // A `Val` key (mixed `Int` / `Float`) gives no word: the comparator
    // sort.
    let rows: Vec<Row> = [Value::Int(2), Value::Float(0.5), Value::Int(1)]
        .into_iter()
        .map(|v| vec![v])
        .collect();
    let plan = PhysExpr::Sort {
        input: Box::new(PhysExpr::const_rows(vec![ColId(1)], &rows)),
        by: vec![(ColId(1), false)],
    };
    let mut pipeline = Pipeline::with_batch_size(&plan, 1024).expect("sort plan compiles");
    pipeline
        .execute(&Catalog::new(), &Bindings::new())
        .expect("sort runs");
    let text = explain_phys_analyze(&plan, &pipeline.stats(), &[]);
    assert!(
        text.lines()
            .next()
            .is_some_and(|l| l.contains(" sort_words=0 tie_runs=1")),
        "{text}"
    );
}

/// Rewind: a `Sort` on the inner side of an `ApplyLoop` is re-opened
/// once per outer row under a different binding, and must answer each
/// from scratch — nothing of the previous binding's buffer, permutation
/// or cursor may survive `open`.
#[test]
fn sort_rewinds_under_apply_with_fresh_bindings() {
    let _g = spill_lock();
    let mut catalog = Catalog::new();
    let outer = catalog
        .create_table(TableDef::new(
            "o",
            vec![ColumnDef::new("k", DataType::Int)],
            vec![vec![0]],
        ))
        .unwrap();
    let inner = catalog
        .create_table(TableDef::new(
            "i",
            vec![
                ColumnDef::new("k", DataType::Int),
                ColumnDef::new("v", DataType::Int),
            ],
            vec![],
        ))
        .unwrap();
    catalog
        .table_mut(outer)
        .insert_all((0..5).map(|k| vec![Value::Int(k)]))
        .unwrap();
    // Key 3 has no inner rows; the others get 1..=4 rows in shuffled
    // `v` order.
    let inner_rows: Vec<Row> = (0..40)
        .filter(|n| n % 5 != 3 && n / 5 <= n % 5)
        .map(|n| vec![Value::Int(n % 5), Value::Int((n * 7) % 11)])
        .collect();
    catalog
        .table_mut(inner)
        .insert_all(inner_rows.iter().cloned())
        .unwrap();
    let scan = |table: TableId, cols: Vec<ColId>| PhysExpr::TableScan {
        table,
        positions: (0..cols.len()).collect(),
        cols,
    };
    let plan = PhysExpr::ApplyLoop {
        kind: ApplyKind::Cross,
        left: Box::new(scan(outer, vec![ColId(1)])),
        right: Box::new(PhysExpr::Sort {
            input: Box::new(PhysExpr::Filter {
                input: Box::new(scan(inner, vec![ColId(2), ColId(3)])),
                predicate: ScalarExpr::eq(ScalarExpr::col(ColId(2)), ScalarExpr::col(ColId(1))),
            }),
            by: vec![(ColId(3), true)],
        }),
        params: vec![ColId(1)],
    };
    let mut expected: Vec<Row> = Vec::new();
    for k in 0..5 {
        let mut matches: Vec<Row> = inner_rows
            .iter()
            .filter(|r| r[0] == Value::Int(k))
            .cloned()
            .collect();
        sort_rows_by(&mut matches, &[(1, true)]);
        expected.extend(matches.into_iter().map(|r| {
            let mut row = vec![Value::Int(k)];
            row.extend(r);
            row
        }));
    }
    let catalog = Arc::new(catalog);
    for batch_size in [1, 2, 1024] {
        let mut pipeline = Pipeline::with_batch_size(&plan, batch_size).unwrap();
        let got = pipeline.execute(&catalog, &Bindings::new()).unwrap();
        assert_eq!(got.rows, expected, "batch size {batch_size}");
        // ApplyLoop is node 0, the outer scan 1, the inner Sort 2.
        assert_eq!(
            pipeline.stats()[2].opens,
            5,
            "Sort re-opened once per outer row"
        );
        // A second execution of the same compiled pipeline starts clean.
        let again = pipeline.execute(&catalog, &Bindings::new()).unwrap();
        assert_eq!(
            again.rows, expected,
            "re-execution, batch size {batch_size}"
        );
    }
}
