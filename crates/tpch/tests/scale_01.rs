//! TPC-H scale-factor 0.1 generation: the repo's benchmark
//! (`benchmark/run.sh`) runs its `subquery_warm`, `bulk_wire` and
//! `concurrent_mixed` workloads at this scale, so it must generate
//! correctly — proportioned row counts, intact foreign keys, and
//! statistics ready for the cost model.

use orthopt_common::ColData;
use orthopt_tpch::{generate, TpchConfig};

#[test]
fn scale_01_generates_proportioned_and_consistent() {
    let c = generate(TpchConfig::at_scale(0.1)).expect("generation");

    let count = |t: &str| c.table_by_name(t).expect(t).row_count();
    assert_eq!(count("customer"), 15_000);
    assert_eq!(count("orders"), 150_000);
    assert_eq!(count("part"), 20_000);
    assert_eq!(count("supplier"), 1_000);
    assert_eq!(count("region"), 5);
    assert_eq!(count("nation"), 25);
    let lineitems = count("lineitem");
    assert!(
        (150_000..=150_000 * 7).contains(&lineitems),
        "lineitem count {lineitems} out of proportion"
    );

    // Foreign keys stay in range at the bigger scale (the generators
    // derive keys modulo the parent cardinality — an off-by-one there
    // would only show up once the parents outgrow the small scales).
    let ints = |t: &str, j: usize| match c.table_by_name(t).unwrap().columns()[j].parts() {
        (ColData::Int(v), validity, 0) if validity.all_valid() => v,
        other => panic!("{t}.{j} is not a stored NULL-free int column: {other:?}"),
    };
    let n_cust = count("customer") as i64;
    let custkeys = ints("orders", 1);
    assert_eq!(custkeys.len(), 150_000);
    assert!(
        custkeys.iter().all(|k| (0..n_cust).contains(k)),
        "o_custkey"
    );
    let (n_part, n_supp) = (count("part") as i64, count("supplier") as i64);
    assert_eq!(ints("lineitem", 1).len(), lineitems);
    assert!(
        ints("lineitem", 1).iter().all(|k| (0..n_part).contains(k)),
        "l_partkey"
    );
    assert!(
        ints("lineitem", 2).iter().all(|k| (0..n_supp).contains(k)),
        "l_suppkey"
    );

    // The cost model needs stats on every table.
    for (_, t) in c.iter() {
        assert!(t.stats().is_some(), "{} missing stats", t.def.name);
    }
}
