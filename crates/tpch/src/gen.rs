//! Deterministic TPC-H data generation.

use orthopt_common::{DataType, Prng, Result, Value};
use orthopt_storage::{Catalog, ColumnDef, TableDef};

/// Generation parameters.
#[derive(Debug, Clone, Copy)]
pub struct TpchConfig {
    /// Scale factor: 1.0 ≈ classic TPC-H sizes (150k customers, 6M
    /// lineitems). Benchmarks run at 0.002–0.05.
    pub scale: f64,
    /// PRNG seed; equal seeds yield byte-identical databases.
    pub seed: u64,
}

impl Default for TpchConfig {
    fn default() -> Self {
        TpchConfig {
            scale: 0.01,
            seed: 42,
        }
    }
}

impl TpchConfig {
    /// Convenience constructor.
    pub fn at_scale(scale: f64) -> Self {
        TpchConfig {
            scale,
            ..Default::default()
        }
    }

    fn customers(&self) -> usize {
        ((150_000.0 * self.scale) as usize).max(20)
    }
    fn suppliers(&self) -> usize {
        ((10_000.0 * self.scale) as usize).max(10)
    }
    fn parts(&self) -> usize {
        ((200_000.0 * self.scale) as usize).max(40)
    }
    fn orders(&self) -> usize {
        self.customers() * 10
    }
}

/// Categorical vocabularies (scaled-down but proportioned like dbgen's).
pub mod vocab {
    /// Region names.
    pub const REGIONS: [&str; 5] = ["africa", "america", "asia", "europe", "mideast"];
    /// `p_brand` values: brand#NM for N,M in 1..=5 (25 values).
    pub fn brands() -> Vec<String> {
        let mut out = Vec::with_capacity(25);
        for n in 1..=5 {
            for m in 1..=5 {
                out.push(format!("brand#{n}{m}"));
            }
        }
        out
    }
    /// `p_container` values (40 combinations, as in dbgen).
    pub fn containers() -> Vec<String> {
        let sizes = ["sm", "lg", "med", "jumbo", "wrap"];
        let kinds = ["case", "box", "bag", "jar", "pkg", "pack", "can", "drum"];
        let mut out = Vec::with_capacity(40);
        for s in sizes {
            for k in kinds {
                out.push(format!("{s} {k}"));
            }
        }
        out
    }
    /// `p_type` values (simplified to 30).
    pub fn types() -> Vec<String> {
        let a = ["standard", "small", "medium", "large", "economy", "promo"];
        let b = ["anodized", "burnished", "plated", "polished", "brushed"];
        let mut out = Vec::with_capacity(30);
        for x in a {
            for y in b {
                out.push(format!("{x} {y}"));
            }
        }
        out
    }
    /// `o_orderpriority` values.
    pub const PRIORITIES: [&str; 5] = ["1-urgent", "2-high", "3-medium", "4-low", "5-lowest"];
    /// `c_mktsegment` values.
    pub const SEGMENTS: [&str; 5] = [
        "automobile",
        "building",
        "furniture",
        "household",
        "machinery",
    ];
}

/// Days since the epoch for 1992-01-01 / 1998-08-02 (order-date range).
const DATE_LO: i32 = 8035;
const DATE_HI: i32 = 10440;

/// Interns a closed vocabulary as ready-made `Value::Str`s: picking
/// then clones an `Arc` refcount instead of allocating a fresh string
/// per row. Draw sequences are unchanged — `Prng::pick` consumes one
/// draw per call either way, keyed only on slice length.
fn intern<S: AsRef<str>>(words: &[S]) -> Vec<Value> {
    words.iter().map(|w| Value::str(w.as_ref())).collect()
}

/// Generates a full TPC-H catalog: tables, keys, indexes, statistics.
pub fn generate(config: TpchConfig) -> Result<Catalog> {
    let mut catalog = Catalog::new();

    // ---- region -----------------------------------------------------
    let region = catalog.create_table(TableDef::new(
        "region",
        vec![
            ColumnDef::new("r_regionkey", DataType::Int),
            ColumnDef::new("r_name", DataType::Str),
        ],
        vec![vec![0]],
    ))?;
    for (i, name) in vocab::REGIONS.iter().enumerate() {
        catalog
            .table_mut(region)
            .insert(vec![Value::Int(i as i64), Value::str(name)])?;
    }

    // ---- nation -----------------------------------------------------
    let nation = catalog.create_table(TableDef::new(
        "nation",
        vec![
            ColumnDef::new("n_nationkey", DataType::Int),
            ColumnDef::new("n_name", DataType::Str),
            ColumnDef::new("n_regionkey", DataType::Int),
        ],
        vec![vec![0]],
    ))?;
    for i in 0..25i64 {
        catalog.table_mut(nation).insert(vec![
            Value::Int(i),
            Value::str(format!("nation{i:02}")),
            Value::Int(i % 5),
        ])?;
    }

    // ---- supplier ---------------------------------------------------
    let mut rng = Prng::new(config.seed ^ 0x5001);
    let supplier = catalog.create_table(TableDef::new(
        "supplier",
        vec![
            ColumnDef::new("s_suppkey", DataType::Int),
            ColumnDef::new("s_name", DataType::Str),
            ColumnDef::new("s_nationkey", DataType::Int),
            ColumnDef::new("s_acctbal", DataType::Float),
        ],
        vec![vec![0]],
    ))?;
    catalog.table_mut(supplier).reserve(config.suppliers());
    for i in 0..config.suppliers() as i64 {
        catalog.table_mut(supplier).insert(vec![
            Value::Int(i),
            Value::str(format!("supplier{i:06}")),
            Value::Int(rng.int_range(0, 24)),
            Value::Float((rng.float_range(-999.0, 9999.0) * 100.0).round() / 100.0),
        ])?;
    }

    // ---- part -------------------------------------------------------
    let mut rng = Prng::new(config.seed ^ 0x9A47);
    let brands = intern(&vocab::brands());
    let containers = intern(&vocab::containers());
    let types = intern(&vocab::types());
    let part = catalog.create_table(TableDef::new(
        "part",
        vec![
            ColumnDef::new("p_partkey", DataType::Int),
            ColumnDef::new("p_name", DataType::Str),
            ColumnDef::new("p_brand", DataType::Str),
            ColumnDef::new("p_type", DataType::Str),
            ColumnDef::new("p_size", DataType::Int),
            ColumnDef::new("p_container", DataType::Str),
            ColumnDef::new("p_retailprice", DataType::Float),
        ],
        vec![vec![0]],
    ))?;
    let n_parts = config.parts();
    let mut retail = Vec::with_capacity(n_parts);
    catalog.table_mut(part).reserve(n_parts);
    for i in 0..n_parts as i64 {
        let price = 900.0 + (i % 1000) as f64 / 10.0 + rng.float_range(0.0, 100.0);
        retail.push(price);
        catalog.table_mut(part).insert(vec![
            Value::Int(i),
            Value::str(format!("part {}", rng.word(8))),
            rng.pick(&brands).clone(),
            rng.pick(&types).clone(),
            Value::Int(rng.int_range(1, 50)),
            rng.pick(&containers).clone(),
            Value::Float((price * 100.0).round() / 100.0),
        ])?;
    }

    // ---- partsupp (4 suppliers per part) ------------------------------
    let mut rng = Prng::new(config.seed ^ 0x77AA);
    let partsupp = catalog.create_table(TableDef::new(
        "partsupp",
        vec![
            ColumnDef::new("ps_partkey", DataType::Int),
            ColumnDef::new("ps_suppkey", DataType::Int),
            ColumnDef::new("ps_availqty", DataType::Int),
            ColumnDef::new("ps_supplycost", DataType::Float),
        ],
        vec![vec![0, 1]],
    ))?;
    let n_supp = config.suppliers() as i64;
    catalog.table_mut(partsupp).reserve(4 * n_parts);
    for p in 0..n_parts as i64 {
        for j in 0..4i64 {
            let supp = (p + j * (n_supp / 4).max(1)) % n_supp;
            catalog.table_mut(partsupp).insert(vec![
                Value::Int(p),
                Value::Int(supp),
                Value::Int(rng.int_range(1, 9999)),
                Value::Float((rng.float_range(1.0, 1000.0) * 100.0).round() / 100.0),
            ])?;
        }
    }

    // ---- customer -----------------------------------------------------
    let mut rng = Prng::new(config.seed ^ 0xC057);
    let customer = catalog.create_table(TableDef::new(
        "customer",
        vec![
            ColumnDef::new("c_custkey", DataType::Int),
            ColumnDef::new("c_name", DataType::Str),
            ColumnDef::new("c_nationkey", DataType::Int),
            ColumnDef::new("c_acctbal", DataType::Float),
            ColumnDef::new("c_mktsegment", DataType::Str),
        ],
        vec![vec![0]],
    ))?;
    let n_cust = config.customers();
    let segments = intern(&vocab::SEGMENTS);
    catalog.table_mut(customer).reserve(n_cust);
    for i in 0..n_cust as i64 {
        catalog.table_mut(customer).insert(vec![
            Value::Int(i),
            Value::str(format!("customer{i:08}")),
            Value::Int(rng.int_range(0, 24)),
            Value::Float((rng.float_range(-999.0, 9999.0) * 100.0).round() / 100.0),
            rng.pick(&segments).clone(),
        ])?;
    }

    // ---- orders + lineitem -------------------------------------------
    let mut rng = Prng::new(config.seed ^ 0x0D3E);
    let orders = catalog.create_table(TableDef::new(
        "orders",
        vec![
            ColumnDef::new("o_orderkey", DataType::Int),
            ColumnDef::new("o_custkey", DataType::Int),
            ColumnDef::new("o_orderstatus", DataType::Str),
            ColumnDef::new("o_totalprice", DataType::Float),
            ColumnDef::new("o_orderdate", DataType::Date),
            ColumnDef::new("o_orderpriority", DataType::Str),
        ],
        vec![vec![0]],
    ))?;
    let lineitem = catalog.create_table(TableDef::new(
        "lineitem",
        vec![
            ColumnDef::new("l_orderkey", DataType::Int),
            ColumnDef::new("l_partkey", DataType::Int),
            ColumnDef::new("l_suppkey", DataType::Int),
            ColumnDef::new("l_linenumber", DataType::Int),
            ColumnDef::new("l_quantity", DataType::Float),
            ColumnDef::new("l_extendedprice", DataType::Float),
            ColumnDef::new("l_discount", DataType::Float),
            ColumnDef::new("l_returnflag", DataType::Str),
            ColumnDef::new("l_linestatus", DataType::Str),
            ColumnDef::new("l_shipdate", DataType::Date),
            ColumnDef::new("l_commitdate", DataType::Date),
            ColumnDef::new("l_receiptdate", DataType::Date),
        ],
        vec![vec![0, 3]],
    ))?;
    let n_orders = config.orders();
    catalog.table_mut(orders).reserve(n_orders);
    // 1–7 lines an order: the bound, so no column reallocates mid-load
    // (the untouched tail of a reservation is never resident).
    catalog.table_mut(lineitem).reserve(7 * n_orders);
    let priorities = intern(&vocab::PRIORITIES);
    let flags = intern(&["r", "n", "o", "f"]);
    let (flag_r, flag_n, flag_o, flag_f) = (&flags[0], &flags[1], &flags[2], &flags[3]);
    for o in 0..n_orders as i64 {
        let custkey = rng.int_range(0, n_cust as i64 - 1);
        let orderdate = rng.int_range(DATE_LO as i64, DATE_HI as i64) as i32;
        let lines = rng.int_range(1, 7);
        let mut total = 0.0;
        for line in 1..=lines {
            let partkey = rng.int_range(0, n_parts as i64 - 1);
            let suppkey = (partkey + (line - 1) * (n_supp / 4).max(1)) % n_supp;
            let quantity = rng.int_range(1, 50) as f64;
            let extended = (quantity * retail[partkey as usize] * 100.0).round() / 100.0;
            total += extended;
            let shipdate = orderdate + rng.int_range(1, 121) as i32;
            let commitdate = orderdate + rng.int_range(30, 90) as i32;
            let receiptdate = shipdate + rng.int_range(1, 30) as i32;
            catalog.table_mut(lineitem).insert(vec![
                Value::Int(o),
                Value::Int(partkey),
                Value::Int(suppkey),
                Value::Int(line),
                Value::Float(quantity),
                Value::Float(extended),
                Value::Float((rng.int_range(0, 10) as f64) / 100.0),
                if rng.chance(0.25) { flag_r } else { flag_n }.clone(),
                if rng.chance(0.5) { flag_o } else { flag_f }.clone(),
                Value::Date(shipdate),
                Value::Date(commitdate),
                Value::Date(receiptdate),
            ])?;
        }
        catalog.table_mut(orders).insert(vec![
            Value::Int(o),
            Value::Int(custkey),
            if rng.chance(0.5) { flag_o } else { flag_f }.clone(),
            Value::Float((total * 100.0).round() / 100.0),
            Value::Date(orderdate),
            rng.pick(&priorities).clone(),
        ])?;
    }

    // Foreign-key hash indexes (TPC-H permits indexes on keys and FKs).
    catalog.table_mut(orders).build_index(vec![1])?; // o_custkey
    catalog.table_mut(lineitem).build_index(vec![0])?; // l_orderkey
    catalog.table_mut(lineitem).build_index(vec![1])?; // l_partkey
    catalog.table_mut(partsupp).build_index(vec![0])?; // ps_partkey
    catalog.table_mut(partsupp).build_index(vec![1])?; // ps_suppkey
    catalog.table_mut(customer).build_index(vec![2])?; // c_nationkey
    catalog.table_mut(supplier).build_index(vec![2])?; // s_nationkey

    catalog.analyze_all();
    Ok(catalog)
}

#[cfg(test)]
mod tests {
    use super::*;
    use orthopt_common::{ColData, Column};

    /// The typed lanes of a stored column.
    fn ints(c: &Column) -> &[i64] {
        match c.parts() {
            (ColData::Int(v), _, 0) => v,
            other => panic!("not a stored int column: {other:?}"),
        }
    }

    fn floats(c: &Column) -> &[f64] {
        match c.parts() {
            (ColData::Float(v), _, 0) => v,
            other => panic!("not a stored float column: {other:?}"),
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(TpchConfig::at_scale(0.002)).unwrap();
        let b = generate(TpchConfig::at_scale(0.002)).unwrap();
        for name in ["customer", "orders", "lineitem", "part", "partsupp"] {
            let ta = a.table_by_name(name).unwrap();
            let tb = b.table_by_name(name).unwrap();
            assert_eq!(ta.columns(), tb.columns(), "{name}");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(TpchConfig {
            scale: 0.002,
            seed: 1,
        })
        .unwrap();
        let b = generate(TpchConfig {
            scale: 0.002,
            seed: 2,
        })
        .unwrap();
        assert_ne!(
            a.table_by_name("orders").unwrap().columns(),
            b.table_by_name("orders").unwrap().columns()
        );
    }

    #[test]
    fn row_counts_scale() {
        let c = generate(TpchConfig::at_scale(0.002)).unwrap();
        let customers = c.table_by_name("customer").unwrap().row_count();
        let orders = c.table_by_name("orders").unwrap().row_count();
        assert_eq!(customers, 300);
        assert_eq!(orders, 3000);
        let lineitems = c.table_by_name("lineitem").unwrap().row_count();
        assert!(lineitems >= orders && lineitems <= orders * 7);
        assert_eq!(c.table_by_name("region").unwrap().row_count(), 5);
        assert_eq!(c.table_by_name("nation").unwrap().row_count(), 25);
    }

    #[test]
    fn referential_integrity_holds() {
        let c = generate(TpchConfig::at_scale(0.002)).unwrap();
        let n_cust = c.table_by_name("customer").unwrap().row_count() as i64;
        let custkeys = ints(&c.table_by_name("orders").unwrap().columns()[1]);
        assert_eq!(custkeys.len(), 3000);
        assert!(custkeys.iter().all(|k| (0..n_cust).contains(k)));
        let n_parts = c.table_by_name("part").unwrap().row_count() as i64;
        let partkeys = ints(&c.table_by_name("lineitem").unwrap().columns()[1]);
        assert!(partkeys.len() >= 3000);
        assert!(partkeys.iter().all(|k| (0..n_parts).contains(k)));
    }

    #[test]
    fn totalprice_matches_lineitems() {
        let c = generate(TpchConfig::at_scale(0.002)).unwrap();
        let lineitem = c.table_by_name("lineitem").unwrap().columns();
        let mut sums: std::collections::HashMap<i64, f64> = std::collections::HashMap::new();
        for (ok, ep) in ints(&lineitem[0]).iter().zip(floats(&lineitem[5])) {
            *sums.entry(*ok).or_default() += ep;
        }
        let orders = c.table_by_name("orders").unwrap().columns();
        for (ok, total) in ints(&orders[0]).iter().zip(floats(&orders[3])) {
            let expect = sums.get(ok).copied().unwrap_or(0.0);
            assert!((expect - total).abs() < 0.5, "order {ok}");
        }
    }

    #[test]
    fn indexes_and_stats_are_ready() {
        let c = generate(TpchConfig::at_scale(0.002)).unwrap();
        assert!(c.table_by_name("orders").unwrap().index_on(&[1]).is_some());
        assert!(c
            .table_by_name("lineitem")
            .unwrap()
            .index_on(&[1])
            .is_some());
        for (_, t) in c.iter() {
            assert!(t.stats().is_some(), "{} missing stats", t.def.name);
        }
    }

    /// The statistics at SF 0.01, pinned: every corpus `best_cost`
    /// depends on them, so a change to how they are computed must
    /// reproduce these numbers.
    #[test]
    fn stats_over_lanes_are_pinned() {
        let c = generate(TpchConfig::at_scale(0.01)).unwrap();
        let pin = |table: &str, j: usize, rows, ndv, min, max| {
            let stats = c.table_by_name(table).unwrap().stats().unwrap();
            let col = &stats.columns[j];
            assert_eq!(stats.row_count, rows, "{table}");
            assert_eq!(
                (col.ndv, col.null_count, &col.min, &col.max),
                (ndv, 0, &Some(min), &Some(max)),
                "{table}.{j}"
            );
        };
        let (float, date) = (Value::Float, Value::Date);
        pin("supplier", 3, 100, 100, float(-868.48), float(9993.62));
        pin(
            "part",
            2,
            2000,
            25,
            Value::str("brand#11"),
            Value::str("brand#55"),
        );
        pin("orders", 3, 15000, 14969, float(925.75), float(292806.12));
        pin("orders", 4, 15000, 2401, date(8035), date(10440));
        pin("lineitem", 1, 60185, 2000, Value::Int(0), Value::Int(1999));
        pin("lineitem", 5, 60185, 45128, float(904.2), float(54603.03));
        pin("lineitem", 7, 60185, 2, Value::str("n"), Value::str("r"));
        pin("lineitem", 9, 60185, 2513, date(8037), date(10557));
    }

    #[test]
    fn categorical_distributions_look_right() {
        let c = generate(TpchConfig::at_scale(0.002)).unwrap();
        let (ColData::Str(brands), ..) = c.table_by_name("part").unwrap().columns()[2].parts()
        else {
            panic!("p_brand is stored as strings")
        };
        let brands: std::collections::HashSet<_> = brands.iter().collect();
        assert!(
            brands.len() > 15,
            "expected most of 25 brands, got {}",
            brands.len()
        );
    }
}
