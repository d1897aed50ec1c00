//! The four workloads, their query classes, and the seeded generator of
//! query texts. The database itself is always `Database::tpch(sf)` (one
//! fixed data set, so fixed-parameter answers can be committed under
//! `expected/`); `--seed` decides the order of queries, the point keys
//! and every parameter of the `*_cold` classes.

use orthopt::common::Prng;
use orthopt::tpch::gen::vocab;
use orthopt::tpch::queries;

/// Session settings a class runs under. The client sends them as `SET`s
/// before the timed interval and resets them after it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Settings {
    pub parallelism: usize,
    pub mem_limit: Option<u64>,
}

pub const DEFAULTS: Settings = Settings {
    parallelism: 1,
    mem_limit: None,
};

/// Templates whose every text is unique, so each one misses the plan cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cold {
    Q1Paper,
    Q2,
    Q4,
    Q17,
    Q17Brand,
    Q22ish,
}

#[derive(Debug, Clone)]
pub enum Text {
    Fixed(String),
    Cold(Cold),
    /// `customer where c_custkey = k`, k from a small seeded key set so
    /// every key's plan stays cached.
    Point,
}

#[derive(Debug, Clone)]
pub struct Class {
    pub name: &'static str,
    pub text: Text,
    /// Output positions of the ORDER BY keys (all ascending); empty for
    /// an unordered result.
    pub order_by: &'static [usize],
    pub settings: Settings,
    /// Queries of this class in a round that issues it.
    pub per_round: usize,
    /// Issued on rounds divisible by this.
    pub every: usize,
}

impl Class {
    fn new(name: &'static str, text: Text) -> Class {
        Class {
            name,
            text,
            order_by: &[],
            settings: DEFAULTS,
            per_round: 1,
            every: 1,
        }
    }

    fn fixed(name: &'static str, sql: impl Into<String>) -> Class {
        Class::new(name, Text::Fixed(sql.into()))
    }

    fn order_by(mut self, cols: &'static [usize]) -> Class {
        self.order_by = cols;
        self
    }

    fn times(mut self, n: usize) -> Class {
        self.per_round = n;
        self
    }

    pub fn is_cold(&self) -> bool {
        matches!(self.text, Text::Cold(_))
    }
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub sf: f64,
    pub clients: usize,
    /// `Some` turns global admission control on.
    pub global_mem_limit: Option<u64>,
    pub classes: Vec<Class>,
}

pub const NAMES: [&str; 4] = [
    "subquery_warm",
    "adhoc_cold",
    "bulk_wire",
    "concurrent_mixed",
];

/// Scale factor of `--smoke` runs.
pub const SMOKE_SF: f64 = 0.002;

/// Scale factor of the oracle gate. The reference interpreter evaluates
/// FROM lists as cross products: Q17 takes 0.4 s here, 6 s at SF 0.002,
/// and runs out of memory from SF 0.01 up.
pub const GATE_SF: f64 = 0.0005;

/// Parameters of `tpch::queries::q2`.
pub type Q2Params = (i64, String, &'static str);

pub fn q2_default_params() -> Q2Params {
    (15, "standard anodized".to_string(), "europe")
}

const Q2_ORDER: &[usize] = &[0, 2, 1, 3];
const SORT_SQL: &str =
    "select l_orderkey, l_extendedprice from lineitem order by l_extendedprice, l_orderkey";
const AGG_LOWCARD_SQL: &str =
    "select l_returnflag, count(*), sum(l_quantity) from lineitem group by l_returnflag";

fn agg_lowcard() -> Class {
    Class::fixed("agg_lowcard", AGG_LOWCARD_SQL)
}

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        let w = match name {
            "subquery_warm" => Workload {
                name: "subquery_warm",
                sf: 0.1,
                clients: 1,
                global_mem_limit: None,
                classes: vec![
                    Class::fixed("q1paper", queries::paper_q1(1_000_000.0)),
                    Class::fixed("q2", queries::q2_default()).order_by(Q2_ORDER),
                    Class::fixed("q4", queries::q4_default()).order_by(&[0]),
                    Class::fixed("q17", queries::q17_default()),
                    Class::fixed("q17brand", queries::q17_brand_only("brand#23")),
                    Class::fixed("q22ish", queries::q22ish()).order_by(&[0]),
                ],
            },
            "adhoc_cold" => {
                let cold = |name, kind| Class::new(name, Text::Cold(kind));
                let mut q2 = cold("q2_cold", Cold::Q2).order_by(Q2_ORDER);
                // One Q2 plan costs as much as ~40 rounds of the other
                // five; every tenth round keeps it ~3/4 of the window.
                q2.every = 10;
                Workload {
                    name: "adhoc_cold",
                    sf: 0.01,
                    clients: 1,
                    global_mem_limit: None,
                    classes: vec![
                        cold("q1paper_cold", Cold::Q1Paper),
                        cold("q4_cold", Cold::Q4).order_by(&[0]),
                        cold("q17_cold", Cold::Q17),
                        cold("q17brand_cold", Cold::Q17Brand),
                        cold("q22ish_cold", Cold::Q22ish).order_by(&[0]),
                        q2,
                    ],
                }
            }
            "bulk_wire" => {
                let mut sort_spill = Class::fixed("sort_spill", SORT_SQL).order_by(&[1, 0]);
                sort_spill.settings.mem_limit = Some(16 << 20);
                let mut agg_par2 = Class::fixed("agg_par2", AGG_LOWCARD_SQL);
                agg_par2.settings.parallelism = 2;
                Workload {
                    name: "bulk_wire",
                    sf: 0.1,
                    clients: 1,
                    global_mem_limit: None,
                    classes: vec![
                        Class::fixed("sort_all", SORT_SQL).order_by(&[1, 0]),
                        sort_spill,
                        agg_lowcard(),
                        Class::fixed(
                            "agg_highcard",
                            "select l_partkey, count(*), sum(l_quantity) from lineitem \
                             group by l_partkey",
                        ),
                        Class::fixed(
                            "scan_filter_wide",
                            "select l_orderkey, l_partkey, l_quantity, l_extendedprice \
                             from lineitem where l_quantity < 6",
                        ),
                        agg_par2,
                    ],
                }
            }
            "concurrent_mixed" => Workload {
                name: "concurrent_mixed",
                sf: 0.1,
                // Fixed, not nproc: the load must not change with the host.
                clients: 2,
                global_mem_limit: Some(256 << 20),
                classes: vec![
                    Class::new("point", Text::Point).times(8),
                    Class::fixed("q17", queries::q17_default()).times(4),
                    Class::fixed("q2", queries::q2_default())
                        .order_by(Q2_ORDER)
                        .times(4),
                    Class::fixed("q4", queries::q4_default()).order_by(&[0]),
                    Class::fixed("q1paper", queries::paper_q1(1_000_000.0)),
                    agg_lowcard(),
                ],
            },
            _ => return None,
        };
        Some(w)
    }

    /// Class indices of one round, in class order (the client shuffles).
    pub fn round_ops(&self, round: usize) -> Vec<usize> {
        let mut ops = Vec::new();
        for (i, c) in self.classes.iter().enumerate() {
            if round.is_multiple_of(c.every) {
                ops.extend(std::iter::repeat_n(i, c.per_round));
            }
        }
        ops
    }

    /// The timed window ends only on a multiple of this many rounds, so
    /// every window holds the classes in the same proportion.
    pub fn block_rounds(&self) -> usize {
        self.classes.iter().map(|c| c.every).max().unwrap_or(1)
    }

    /// Customers at scale factor `sf` (the generator's own formula).
    pub fn customers(sf: f64) -> i64 {
        ((150_000.0 * sf) as i64).max(20)
    }
}

pub fn point_sql(key: i64) -> String {
    format!("select c_custkey, c_name, c_acctbal from customer where c_custkey = {key}")
}

/// How many distinct point keys a run uses: few enough that their plans
/// and the fixed classes' all fit the 64-entry plan cache.
pub const POINT_KEYS: usize = 16;

/// A seeded walk `i → (start + i·stride) mod n` with `stride` coprime to
/// `n`: distinct for every `i < n`, so distinct texts by construction
/// rather than by luck of the draw.
#[derive(Debug, Clone, Copy)]
struct Walk {
    start: u64,
    stride: u64,
    n: u64,
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

impl Walk {
    fn new(rng: &mut Prng, n: u64) -> Walk {
        let stride = loop {
            let s = 1 + rng.next_u64() % (n - 1);
            if gcd(s, n) == 1 {
                break s;
            }
        };
        Walk {
            start: rng.next_u64() % n,
            stride,
            n,
        }
    }

    fn at(&self, i: u64) -> u64 {
        assert!(i < self.n, "parameter space of {} texts exhausted", self.n);
        ((self.start as u128 + i as u128 * self.stride as u128) % self.n as u128) as u64
    }
}

/// The query texts of one run: a pure function of `(seed, class, i)`.
#[derive(Debug, Clone)]
pub struct Texts {
    walks: Vec<(Cold, Walk)>,
    pub point_keys: Vec<i64>,
}

impl Texts {
    pub fn new(seed: u64, sf: f64) -> Texts {
        let mut rng = Prng::new(seed ^ 0x7465_7874_7321);
        let walks = [
            (Cold::Q1Paper, 400_000),
            (Cold::Q2, 50 * 30 * 5),
            (Cold::Q4, 5 * 12 * 28),
            (Cold::Q17, 25 * 40 * 100),
            (Cold::Q17Brand, 25 * 1000),
            (Cold::Q22ish, 10_000),
        ]
        .map(|(kind, n)| (kind, Walk::new(&mut rng, n)))
        .to_vec();
        let customers = Workload::customers(sf);
        let mut point_keys = Vec::new();
        while point_keys.len() < POINT_KEYS {
            let k = rng.int_range(0, customers - 1);
            if !point_keys.contains(&k) {
                point_keys.push(k);
            }
        }
        Texts { walks, point_keys }
    }

    fn walk_at(&self, kind: Cold, i: u64) -> usize {
        let walk = self.walks.iter().find(|(k, _)| *k == kind);
        walk.expect("every template has a walk").1.at(i) as usize
    }

    fn q2_params(x: usize) -> Q2Params {
        (
            (x % 50) as i64 + 1,
            vocab::types()[x / 50 % 30].clone(),
            vocab::REGIONS[x / 1500],
        )
    }

    /// Parameters of the `i`-th Q2 text, for the by-hand check.
    pub fn cold_q2_params(&self, i: u64) -> Q2Params {
        Self::q2_params(self.walk_at(Cold::Q2, i))
    }

    /// The `i`-th text of a cold template.
    pub fn cold(&self, kind: Cold, i: u64) -> String {
        let x = self.walk_at(kind, i);
        match kind {
            Cold::Q1Paper => queries::paper_q1(800_000.0 + x as f64),
            Cold::Q2 => {
                let (size, ptype, region) = Self::q2_params(x);
                queries::q2(size, &ptype, region)
            }
            Cold::Q4 => {
                let (year, month, day) = (1993 + x / 336, x / 28 % 12 + 1, x % 28 + 1);
                let (hi_year, hi_month) = if month > 9 {
                    (year + 1, month - 9)
                } else {
                    (year, month + 3)
                };
                queries::q4(
                    &format!("{year}-{month:02}-{day:02}"),
                    &format!("{hi_year}-{hi_month:02}-{day:02}"),
                )
            }
            Cold::Q17 => q17_sql(
                &vocab::brands()[x % 25],
                Some(&vocab::containers()[x / 25 % 40]),
                &format!("{:.3}", 0.15 + 0.001 * (x / 1000) as f64),
            ),
            Cold::Q17Brand => q17_sql(
                &vocab::brands()[x % 25],
                None,
                &format!("{:.4}", 0.15 + 0.0001 * (x / 25) as f64),
            ),
            Cold::Q22ish => q22ish_sql(&format!("{:.2}", x as f64 * 0.01)),
        }
    }
}

/// `tpch::queries::q17` / `q17_brand_only` with the 0.2 of the subquery
/// as a parameter.
fn q17_sql(brand: &str, container: Option<&str>, factor: &str) -> String {
    let container = container.map_or_else(String::new, |c| format!("and p_container = '{c}' "));
    format!(
        "select sum(l_extendedprice) / 7.0 as avg_yearly from lineitem, part \
         where p_partkey = l_partkey and p_brand = '{brand}' {container}\
           and l_quantity < \
             (select {factor} * avg(l_quantity) from lineitem \
              where l_partkey = p_partkey)"
    )
}

/// `tpch::queries::q22ish` with the balance floor of the inner average
/// as a parameter.
fn q22ish_sql(floor: &str) -> String {
    format!(
        "select c_nationkey, count(*) as numcust, sum(c_acctbal) as totacctbal \
         from customer \
         where c_acctbal > (select avg(c_acctbal) from customer where c_acctbal > {floor}) \
           and not exists (select 1 from orders \
                           where o_custkey = c_custkey and o_totalprice > 200000) \
         group by c_nationkey order by c_nationkey"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    const KINDS: [Cold; 6] = [
        Cold::Q1Paper,
        Cold::Q2,
        Cold::Q4,
        Cold::Q17,
        Cold::Q17Brand,
        Cold::Q22ish,
    ];

    fn texts(seed: u64, n: u64) -> Vec<String> {
        let t = Texts::new(seed, 0.01);
        let mut all: Vec<String> = KINDS
            .iter()
            .flat_map(|k| (0..n).map(|i| t.cold(*k, i)).collect::<Vec<_>>())
            .collect();
        all.extend(t.point_keys.iter().map(|k| point_sql(*k)));
        all
    }

    #[test]
    fn texts_are_a_pure_function_of_the_seed() {
        assert_eq!(texts(7, 300), texts(7, 300));
        assert_ne!(texts(7, 300), texts(8, 300));
    }

    #[test]
    fn texts_are_distinct_within_a_run() {
        // Distinct after whitespace normalization too: that is the plan
        // cache's key, and a repeat would be a cache hit on adhoc_cold.
        let all = texts(3, 1500);
        let distinct: HashSet<String> = all
            .iter()
            .map(|s| s.split_whitespace().collect::<Vec<_>>().join(" "))
            .collect();
        assert_eq!(distinct.len(), all.len());
    }

    #[test]
    fn every_text_binds() {
        let db = orthopt::Database::tpch(GATE_SF).unwrap();
        let t = Texts::new(11, GATE_SF);
        for kind in KINDS {
            for i in [0, 1, 999] {
                let sql = t.cold(kind, i);
                orthopt::sql::compile(&sql, db.catalog())
                    .unwrap_or_else(|e| panic!("{kind:?} #{i}: {e}\n{sql}"));
            }
        }
        for name in NAMES {
            let w = Workload::by_name(name).unwrap();
            for c in &w.classes {
                if let Text::Fixed(sql) = &c.text {
                    orthopt::sql::compile(sql, db.catalog())
                        .unwrap_or_else(|e| panic!("{}: {e}", c.name));
                }
            }
        }
    }

    #[test]
    fn rounds_hold_the_stated_mix() {
        let w = Workload::by_name("concurrent_mixed").unwrap();
        assert_eq!(w.round_ops(0).len(), 19);
        let w = Workload::by_name("adhoc_cold").unwrap();
        assert_eq!(w.block_rounds(), 10);
        assert_eq!(w.round_ops(0).len(), 6);
        assert_eq!(w.round_ops(3).len(), 5);
    }
}
