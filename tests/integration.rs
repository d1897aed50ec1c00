//! Cross-crate integration tests: the full SQL → parse → bind →
//! normalize → optimize → execute pipeline through the `Database`
//! facade, validated against the reference interpreter.

use orthopt::common::row::{bag_eq, bag_eq_approx};
use orthopt::common::{DataType, Error, Prng, Value};
use orthopt::storage::{ColumnDef, TableDef};
use orthopt::{Database, OptimizerLevel};

/// A richer schema than the unit fixtures: three tables, nullable
/// columns, an index, and deterministic pseudo-random content.
fn db(seed: u64, customers: usize) -> Database {
    let mut db = Database::new();
    db.catalog_mut()
        .create_table(TableDef::new(
            "customer",
            vec![
                ColumnDef::new("c_custkey", DataType::Int),
                ColumnDef::new("c_nation", DataType::Int),
                ColumnDef::nullable("c_acctbal", DataType::Float),
            ],
            vec![vec![0]],
        ))
        .unwrap();
    db.catalog_mut()
        .create_table(TableDef::new(
            "orders",
            vec![
                ColumnDef::new("o_orderkey", DataType::Int),
                ColumnDef::new("o_custkey", DataType::Int),
                ColumnDef::nullable("o_totalprice", DataType::Float),
            ],
            vec![vec![0]],
        ))
        .unwrap();
    db.catalog_mut()
        .create_table(TableDef::new(
            "nation",
            vec![
                ColumnDef::new("n_nationkey", DataType::Int),
                ColumnDef::new("n_name", DataType::Str),
            ],
            vec![vec![0]],
        ))
        .unwrap();
    let mut rng = Prng::new(seed);
    let c = db.catalog().resolve("customer").unwrap();
    let o = db.catalog().resolve("orders").unwrap();
    let n = db.catalog().resolve("nation").unwrap();
    for i in 0..5i64 {
        db.catalog_mut()
            .table_mut(n)
            .insert(vec![Value::Int(i), Value::str(format!("nation{i}"))])
            .unwrap();
    }
    let mut orderkey = 0i64;
    for i in 0..customers as i64 {
        let bal = if rng.chance(0.15) {
            Value::Null
        } else {
            Value::Float(rng.float_range(-500.0, 5000.0))
        };
        db.catalog_mut()
            .table_mut(c)
            .insert(vec![Value::Int(i), Value::Int(rng.int_range(0, 4)), bal])
            .unwrap();
        for _ in 0..rng.int_range(0, 5) {
            let price = if rng.chance(0.1) {
                Value::Null
            } else {
                Value::Float(rng.float_range(1.0, 900.0))
            };
            db.catalog_mut()
                .table_mut(o)
                .insert(vec![Value::Int(orderkey), Value::Int(i), price])
                .unwrap();
            orderkey += 1;
        }
    }
    db.catalog_mut().table_mut(o).build_index(vec![1]).unwrap();
    db.analyze();
    db
}

/// All levels must agree with the naive reference execution.
fn check_all_levels(db: &Database, sql: &str) {
    let oracle = db.execute_reference(sql).expect(sql);
    for level in OptimizerLevel::ALL {
        let got = db.execute_with(sql, level).expect(sql);
        assert!(
            bag_eq_approx(&oracle.rows, &got.rows, 1e-9),
            "{sql} at {level:?}:\noracle={:?}\ngot={:?}",
            oracle.rows,
            got.rows
        );
    }
}

#[test]
fn scalar_aggregate_subqueries() {
    let db = db(11, 40);
    for sql in [
        "select c_custkey from customer where 800 < \
         (select sum(o_totalprice) from orders where o_custkey = c_custkey)",
        "select c_custkey from customer where 2 <= \
         (select count(*) from orders where o_custkey = c_custkey)",
        "select c_custkey, (select max(o_totalprice) from orders \
         where o_custkey = c_custkey) as biggest from customer",
        "select c_custkey from customer where \
         (select min(o_totalprice) from orders where o_custkey = c_custkey) < 100",
        "select c_custkey from customer where \
         (select avg(o_totalprice) from orders where o_custkey = c_custkey) > 400",
    ] {
        check_all_levels(&db, sql);
    }
}

#[test]
fn existential_subqueries() {
    let db = db(12, 40);
    for sql in [
        "select c_custkey from customer where exists \
         (select 1 from orders where o_custkey = c_custkey and o_totalprice > 500)",
        "select c_custkey from customer where not exists \
         (select 1 from orders where o_custkey = c_custkey)",
        "select c_custkey from customer where c_custkey in \
         (select o_custkey from orders where o_totalprice > 700)",
        "select c_custkey from customer where c_acctbal not in \
         (select o_totalprice from orders where o_custkey = c_custkey)",
        "select c_custkey from customer where c_acctbal > any \
         (select o_totalprice from orders where o_custkey = c_custkey)",
        "select c_custkey from customer where c_acctbal <= all \
         (select o_totalprice from orders where o_custkey = c_custkey)",
    ] {
        check_all_levels(&db, sql);
    }
}

#[test]
fn aggregation_queries() {
    let db = db(13, 60);
    for sql in [
        "select c_nation, count(*) from customer group by c_nation",
        "select o_custkey, sum(o_totalprice), count(o_totalprice), count(*) \
         from orders group by o_custkey having count(*) >= 2",
        "select c_nation, sum(o_totalprice) from customer, orders \
         where c_custkey = o_custkey group by c_nation",
        "select n_name, count(*) from nation, customer \
         where n_nationkey = c_nation group by n_name",
        "select count(*), sum(o_totalprice), avg(o_totalprice) from orders",
        "select distinct c_nation from customer",
        "select count(distinct o_custkey) from orders",
    ] {
        check_all_levels(&db, sql);
    }
}

#[test]
fn joins_and_outerjoins() {
    let db = db(14, 40);
    for sql in [
        "select c_custkey, o_orderkey from customer, orders \
         where c_custkey = o_custkey and o_totalprice > 300",
        "select c_custkey, o_orderkey from customer left outer join orders \
         on o_custkey = c_custkey",
        "select c_custkey from customer left outer join orders \
         on o_custkey = c_custkey and o_totalprice > 600 \
         where o_orderkey is null",
        "select n_name, c_custkey, o_orderkey from nation, customer, orders \
         where n_nationkey = c_nation and c_custkey = o_custkey",
    ] {
        check_all_levels(&db, sql);
    }
}

#[test]
fn set_operations_and_case() {
    let db = db(15, 30);
    for sql in [
        "select c_custkey from customer where c_nation = 1 \
         union all select c_custkey from customer where c_acctbal > 1000",
        "select c_custkey, case when c_acctbal is null then 'unknown' \
         when c_acctbal < 0 then 'debt' else 'ok' end as status from customer",
        "select c_custkey from customer where c_nation in (1, 2, 3)",
        "select c_custkey from customer where c_acctbal between 100 and 2000",
    ] {
        check_all_levels(&db, sql);
    }
}

#[test]
fn nested_subqueries_two_levels() {
    let db = db(16, 25);
    check_all_levels(
        &db,
        "select c_custkey from customer where 1 <= \
         (select count(*) from orders where o_custkey = c_custkey and o_totalprice > \
            (select avg(o_totalprice) from orders where o_custkey = c_custkey))",
    );
}

#[test]
fn exception_subquery_error_matches_reference() {
    let db = db(17, 30);
    // Multiple orders per customer exist, so the scalar subquery without
    // aggregation errors at run time at every level.
    let sql = "select c_custkey, (select o_orderkey from orders \
               where o_custkey = c_custkey) from customer";
    let oracle = db.execute_reference(sql);
    assert_eq!(oracle.unwrap_err(), Error::SubqueryReturnedMoreThanOneRow);
    for level in OptimizerLevel::ALL {
        assert_eq!(
            db.execute_with(sql, level).unwrap_err(),
            Error::SubqueryReturnedMoreThanOneRow,
            "{level:?}"
        );
    }
}

#[test]
fn order_by_is_respected() {
    let db = db(18, 20);
    let r = db
        .execute("select c_custkey, c_acctbal from customer order by c_acctbal, c_custkey")
        .unwrap();
    for w in r.rows.windows(2) {
        let cmp = w[0][1].total_cmp(&w[1][1]);
        assert!(cmp != std::cmp::Ordering::Greater);
    }
}

#[test]
fn empty_inputs_everywhere() {
    let mut empty = Database::new();
    empty
        .catalog_mut()
        .create_table(TableDef::new(
            "t",
            vec![
                ColumnDef::new("a", DataType::Int),
                ColumnDef::nullable("b", DataType::Int),
            ],
            vec![vec![0]],
        ))
        .unwrap();
    empty.analyze();
    for sql in [
        "select a from t",
        "select count(*), sum(b) from t",
        "select a from t where 1 < (select sum(b) from t as u where u.a = t.a)",
        "select a from t where exists (select 1 from t as u where u.a = t.a)",
        "select a, count(*) from t group by a",
    ] {
        let oracle = empty.execute_reference(sql).expect(sql);
        for level in OptimizerLevel::ALL {
            let got = empty.execute_with(sql, level).expect(sql);
            assert!(bag_eq(&oracle.rows, &got.rows), "{sql} at {level:?}");
        }
    }
}

#[test]
fn reproducible_across_identical_databases() {
    let a = db(21, 35);
    let b = db(21, 35);
    let sql = "select c_nation, sum(o_totalprice) from customer, orders \
               where c_custkey = o_custkey group by c_nation";
    assert_eq!(a.execute(sql).unwrap().rows, b.execute(sql).unwrap().rows);
}

#[test]
fn order_by_desc_and_limit() {
    let db = db(22, 25);
    let r = db
        .execute(
            "select c_custkey, c_acctbal from customer order by c_acctbal desc, c_custkey limit 5",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 5);
    for w in r.rows.windows(2) {
        assert!(w[0][1].total_cmp(&w[1][1]) != std::cmp::Ordering::Less);
    }
    // Matches the reference path (which applies order + limit too).
    let oracle = db
        .execute_reference(
            "select c_custkey, c_acctbal from customer order by c_acctbal desc, c_custkey limit 5",
        )
        .unwrap();
    assert_eq!(r.rows, oracle.rows);
    // limit 0 yields nothing.
    let empty = db
        .execute("select c_custkey from customer limit 0")
        .unwrap();
    assert!(empty.rows.is_empty());
}

#[test]
fn planning_is_deterministic() {
    let db = db(23, 30);
    let sql = "select c_custkey from customer where 400 < \
               (select sum(o_totalprice) from orders where o_custkey = c_custkey)";
    // Two engines, two compiles: one engine would serve the second plan
    // from its cache.
    let compile = || {
        Database::from_shared(db.shared_catalog())
            .plan(sql, OptimizerLevel::Full)
            .unwrap()
    };
    let (a, b) = (compile(), compile());
    assert!(!std::sync::Arc::ptr_eq(&a, &b));
    assert_eq!(a.physical, b.physical);
    assert_eq!(a.search.best_cost, b.search.best_cost);
}

#[test]
fn query_result_renders_as_table() {
    let db = db(24, 5);
    let r = db
        .execute("select c_custkey, c_nation from customer order by c_custkey limit 2")
        .unwrap();
    let table = r.to_table();
    assert!(table.contains("c_custkey"));
    assert!(table.lines().count() >= 4); // header + separator + 2 rows
}

#[test]
fn multiple_subqueries_in_one_predicate() {
    // "a sequence of Apply operators compute the various subqueries
    // over the relational input" (§2.2) — two and three subqueries per
    // predicate, mixing scalar and existential forms.
    let db = db(25, 30);
    for sql in [
        "select c_custkey from customer where \
         (select count(*) from orders where o_custkey = c_custkey) >= 1 and \
         (select max(o_totalprice) from orders where o_custkey = c_custkey) > 300",
        "select c_custkey from customer where exists \
         (select 1 from orders where o_custkey = c_custkey) and \
         c_acctbal > (select avg(o_totalprice) from orders where o_custkey = c_custkey)",
        "select c_custkey, \
         (select min(o_totalprice) from orders where o_custkey = c_custkey) as lo, \
         (select max(o_totalprice) from orders where o_custkey = c_custkey) as hi \
         from customer",
        "select c_custkey from customer where \
         (select count(*) from orders where o_custkey = c_custkey) > \
         (select count(*) from orders where o_custkey = c_custkey and o_totalprice > 400)",
    ] {
        check_all_levels(&db, sql);
    }
}

#[test]
fn subquery_inside_aggregate_argument() {
    let db = db(26, 20);
    check_all_levels(
        &db,
        "select c_nation, sum(c_acctbal) from customer \
         where c_custkey in (select o_custkey from orders) group by c_nation",
    );
}

#[test]
fn correlated_subquery_in_having() {
    // HAVING over a grouped query referencing a second aggregate level.
    let db = db(27, 25);
    check_all_levels(
        &db,
        "select o_custkey, sum(o_totalprice) as total from orders \
         group by o_custkey having sum(o_totalprice) > \
         (select avg(o_totalprice) from orders)",
    );
}
