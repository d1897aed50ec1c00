//! Correctness checks that do not trust the system under test: replies
//! are compared with the reference interpreter at a small scale and
//! with committed answers at workload scale.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;

use orthopt::common::Value;
use orthopt::storage::Catalog;
use orthopt::{Database, OptimizerLevel, QueryResult};

use crate::workload::{q2_default_params, Q2Params, Text, Workload};

/// A result as text cells, the form both a wire reply and a rendered
/// `QueryResult` reduce to.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    pub rows: Vec<Vec<String>>,
}

/// Parses a `T <n>\n<cols>\n<row>…` reply.
pub fn parse_reply(reply: &str) -> Result<Table, String> {
    let mut lines = reply.split('\n');
    let head = lines.next().unwrap_or("");
    let n: usize = head
        .strip_prefix("T ")
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| format!("not a result reply: {:?}", &head[..head.len().min(80)]))?;
    lines.next().ok_or("reply has no column line")?;
    let rows: Vec<Vec<String>> = lines
        .map(|l| l.split('\t').map(str::to_owned).collect())
        .collect();
    if rows.len() != n {
        return Err(format!(
            "reply announces {n} rows and carries {}",
            rows.len()
        ));
    }
    Ok(Table { rows })
}

/// Renders an in-process result the way the server renders cells.
pub fn render(result: &QueryResult) -> Table {
    Table {
        rows: result
            .rows
            .iter()
            .map(|r| r.iter().map(ToString::to_string).collect())
            .collect(),
    }
}

const REL_EPS: f64 = 1e-9;

fn cells_eq(a: &str, b: &str) -> bool {
    if a == b {
        return true;
    }
    // Integers must match exactly; only genuine floats get a tolerance
    // (plans may reassociate floating-point sums).
    if a.parse::<i64>().is_ok() && b.parse::<i64>().is_ok() {
        return false;
    }
    match (a.parse::<f64>(), b.parse::<f64>()) {
        (Ok(x), Ok(y)) => (x - y).abs() <= REL_EPS * x.abs().max(y.abs()).max(1.0),
        _ => false,
    }
}

/// Total order on cells: NULL first, numbers and `date(n)` by value,
/// everything else as text.
fn cmp_cells(a: &str, b: &str) -> Ordering {
    let num = |s: &str| {
        s.strip_prefix("date(")
            .and_then(|d| d.strip_suffix(')'))
            .unwrap_or(s)
            .parse::<f64>()
            .ok()
    };
    match (a == "NULL", b == "NULL") {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Less,
        (false, true) => Ordering::Greater,
        _ => match (num(a), num(b)) {
            (Some(x), Some(y)) => x.total_cmp(&y),
            _ => a.cmp(b),
        },
    }
}

fn cmp_rows(a: &[String], b: &[String]) -> Ordering {
    a.iter()
        .zip(b)
        .map(|(x, y)| cmp_cells(x, y))
        .find(|o| o.is_ne())
        .unwrap_or(Ordering::Equal)
}

/// `got` is sorted on the ORDER BY positions.
pub fn check_order(got: &Table, order_by: &[usize]) -> Result<(), String> {
    for (i, w) in got.rows.windows(2).enumerate() {
        let out_of_order = order_by
            .iter()
            .map(|&c| cmp_cells(&w[0][c], &w[1][c]))
            .find(|o| o.is_ne())
            .is_some_and(Ordering::is_gt);
        if out_of_order {
            return Err(format!("rows {i} and {} are out of order", i + 1));
        }
    }
    Ok(())
}

/// Bag equality (floats at relative 1e-9) plus, for ORDER BY classes, a
/// check that `got` is sorted on the keys; ties may fall either way, so
/// positions are not compared.
pub fn same_answer(got: &Table, want: &Table, order_by: &[usize]) -> Result<(), String> {
    if got.rows.len() != want.rows.len() {
        return Err(format!(
            "{} rows, expected {}",
            got.rows.len(),
            want.rows.len()
        ));
    }
    let sort = |t: &Table| {
        let mut rows = t.rows.clone();
        rows.sort_by(|a, b| cmp_rows(a, b));
        rows
    };
    for (i, (g, w)) in sort(got).iter().zip(&sort(want)).enumerate() {
        if g.len() != w.len() || !g.iter().zip(w).all(|(a, b)| cells_eq(a, b)) {
            return Err(format!("sorted row {i}: got {g:?}, expected {w:?}"));
        }
    }
    check_order(got, order_by)
}

/// A point reply is one row that starts with the key it asked for.
pub fn check_point(reply: &str, key: i64) -> Result<(), String> {
    let t = parse_reply(reply)?;
    match t.rows.as_slice() {
        [row] if row[0] == key.to_string() => Ok(()),
        rows => Err(format!("point {key}: got {} rows", rows.len())),
    }
}

/// TPC-H Q2 evaluated by hand over the stored rows. The reference
/// interpreter cannot serve as Q2's oracle: it would materialise the
/// five-table cross product (50 M rows even at the gate's scale).
pub fn q2_by_hand(catalog: &Catalog, (size, ptype, region): &Q2Params) -> Table {
    let table = |name: &str| catalog.table_by_name(name).expect("TPC-H table");
    let col = |t: &str, c: &str| table(t).def.column_index(c).expect("TPC-H column");
    let int = |v: &Value| match v {
        Value::Int(i) => *i,
        other => panic!("expected an integer key, found {other}"),
    };
    let is_str = |v: &Value, s: &str| matches!(v, Value::Str(x) if &**x == s);

    let (r_key, r_name) = (col("region", "r_regionkey"), col("region", "r_name"));
    let regions: Vec<i64> = table("region")
        .rows()
        .iter()
        .filter(|r| is_str(&r[r_name], region))
        .map(|r| int(&r[r_key]))
        .collect();
    let (n_key, n_name, n_region) = (
        col("nation", "n_nationkey"),
        col("nation", "n_name"),
        col("nation", "n_regionkey"),
    );
    let nations: HashMap<i64, &Value> = table("nation")
        .rows()
        .iter()
        .filter(|n| regions.contains(&int(&n[n_region])))
        .map(|n| (int(&n[n_key]), &n[n_name]))
        .collect();
    let (s_key, s_name, s_nation, s_bal) = (
        col("supplier", "s_suppkey"),
        col("supplier", "s_name"),
        col("supplier", "s_nationkey"),
        col("supplier", "s_acctbal"),
    );
    // suppkey → (s_acctbal, s_name, n_name), suppliers of the region only.
    let suppliers: HashMap<i64, [&Value; 3]> = table("supplier")
        .rows()
        .iter()
        .filter_map(|s| {
            let nation = nations.get(&int(&s[s_nation]))?;
            Some((int(&s[s_key]), [&s[s_bal], &s[s_name], *nation]))
        })
        .collect();
    let (ps_part, ps_supp, ps_cost) = (
        col("partsupp", "ps_partkey"),
        col("partsupp", "ps_suppkey"),
        col("partsupp", "ps_supplycost"),
    );
    let mut offers: HashMap<i64, Vec<(&Value, i64)>> = HashMap::new();
    for ps in table("partsupp").rows() {
        let supp = int(&ps[ps_supp]);
        if suppliers.contains_key(&supp) {
            let offer = (&ps[ps_cost], supp);
            offers.entry(int(&ps[ps_part])).or_default().push(offer);
        }
    }
    let (p_key, p_size, p_type) = (
        col("part", "p_partkey"),
        col("part", "p_size"),
        col("part", "p_type"),
    );
    let mut rows = Vec::new();
    for p in table("part").rows() {
        if int(&p[p_size]) != *size || !is_str(&p[p_type], ptype) {
            continue;
        }
        let offers = offers.get(&int(&p[p_key])).map_or(&[][..], Vec::as_slice);
        let Some(min) = offers.iter().map(|(c, _)| *c).min_by(|a, b| a.total_cmp(b)) else {
            continue;
        };
        for (_, supp) in offers.iter().filter(|(c, _)| *c == min) {
            let [bal, name, nation] = suppliers[supp];
            rows.push(
                [bal, name, nation, &p[p_key]]
                    .iter()
                    .map(ToString::to_string)
                    .collect(),
            );
        }
    }
    Table { rows }
}

// -----------------------------------------------------------------
// Committed answers at workload scale.
// -----------------------------------------------------------------

/// Results with at most this many rows are committed in full; larger
/// ones as a row count plus the sum of every integer column.
const FULL_ROWS: usize = 64;

/// What `expected/<workload>.txt` holds for one class.
#[derive(Debug, Clone, PartialEq)]
pub enum Expected {
    Full(Table),
    Digest {
        rows: usize,
        int_sums: Vec<(usize, i128)>,
    },
}

fn int_sums(t: &Table) -> Vec<(usize, i128)> {
    let width = t.rows.first().map_or(0, Vec::len);
    (0..width)
        .filter_map(|c| {
            let mut sum = 0i128;
            for r in &t.rows {
                sum += i128::from(r[c].parse::<i64>().ok()?);
            }
            Some((c, sum))
        })
        .collect()
}

impl Expected {
    pub fn of(t: &Table) -> Expected {
        if t.rows.len() <= FULL_ROWS {
            Expected::Full(t.clone())
        } else {
            Expected::Digest {
                rows: t.rows.len(),
                int_sums: int_sums(t),
            }
        }
    }

    pub fn check(&self, got: &Table, order_by: &[usize]) -> Result<(), String> {
        match self {
            Expected::Full(want) => same_answer(got, want, order_by),
            Expected::Digest {
                rows,
                int_sums: want,
            } => {
                if got.rows.len() != *rows {
                    return Err(format!("{} rows, expected {rows}", got.rows.len()));
                }
                if int_sums(got) != *want {
                    return Err("integer column sums differ".to_string());
                }
                check_order(got, order_by)
            }
        }
    }
}

pub fn expected_path(bench_dir: &Path, workload: &str) -> std::path::PathBuf {
    bench_dir.join("expected").join(format!("{workload}.txt"))
}

/// Reads `expected/<workload>.txt`.
pub fn load_expected(path: &Path) -> Result<Vec<(String, Expected)>, String> {
    std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| parse_expected(&text))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// `class <name> rows <n>` followed by `row\t<cells>` lines or
/// `intsum <column> <sum>` lines.
fn parse_expected(text: &str) -> Result<Vec<(String, Expected)>, String> {
    let mut out: Vec<(String, Expected)> = Vec::new();
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let bad = || format!("bad line {line:?}");
        if let Some(rest) = line.strip_prefix("class ") {
            let mut it = rest.split(' ');
            let (Some(name), Some("rows"), Some(n)) = (it.next(), it.next(), it.next()) else {
                return Err(bad());
            };
            let rows: usize = n.parse().map_err(|_| bad())?;
            let body = if rows <= FULL_ROWS {
                Expected::Full(Table { rows: Vec::new() })
            } else {
                Expected::Digest {
                    rows,
                    int_sums: Vec::new(),
                }
            };
            out.push((name.to_owned(), body));
        } else if let Some(cells) = line.strip_prefix("row\t") {
            match out.last_mut() {
                Some((_, Expected::Full(t))) => {
                    t.rows.push(cells.split('\t').map(str::to_owned).collect());
                }
                _ => return Err(bad()),
            }
        } else if let Some(rest) = line.strip_prefix("intsum ") {
            let (col, sum) = rest.split_once(' ').ok_or_else(bad)?;
            match out.last_mut() {
                Some((_, Expected::Digest { int_sums, .. })) => int_sums.push((
                    col.parse().map_err(|_| bad())?,
                    sum.parse().map_err(|_| bad())?,
                )),
                _ => return Err(bad()),
            }
        } else {
            return Err(bad());
        }
    }
    Ok(out)
}

fn write_expected(out: &mut String, class: &str, t: &Table) {
    let _ = writeln!(out, "class {class} rows {}", t.rows.len());
    match Expected::of(t) {
        Expected::Full(t) => {
            for r in &t.rows {
                let _ = writeln!(out, "row\t{}", r.join("\t"));
            }
        }
        Expected::Digest { int_sums, .. } => {
            for (c, s) in int_sums {
                let _ = writeln!(out, "intsum {c} {s}");
            }
        }
    }
}

/// `orthobench expected`: answers every fixed-parameter class at all
/// four optimizer levels and writes the file only if they agree (and,
/// for Q2, agree with the by-hand evaluation), so a committed answer
/// never rests on one plan shape.
pub fn generate_expected(bench_dir: &Path) -> Result<(), String> {
    for name in crate::workload::NAMES {
        let w = Workload::by_name(name).expect("listed workload");
        let fixed: Vec<_> = w
            .classes
            .iter()
            .filter_map(|c| match &c.text {
                Text::Fixed(sql) => Some((c, sql)),
                _ => None,
            })
            .collect();
        if fixed.is_empty() {
            continue;
        }
        let db = Database::tpch(w.sf).map_err(|e| e.to_string())?;
        let mut out = format!(
            "# {name} at SF {}: answers of the fixed-parameter classes, written by\n\
             # `orthobench expected` after all four optimizer levels agreed.\n",
            w.sf
        );
        for (class, sql) in fixed {
            let mut answers = OptimizerLevel::ALL.iter().map(|level| {
                db.execute_with(sql, *level)
                    .map(|r| render(&r))
                    .map_err(|e| format!("{}/{} at {level:?}: {e}", name, class.name))
            });
            let first = answers.next().expect("four levels")?;
            check_order(&first, class.order_by)?;
            for other in answers {
                same_answer(&other?, &first, class.order_by)
                    .map_err(|e| format!("{}/{}: levels disagree: {e}", name, class.name))?;
            }
            if class.name == "q2" {
                same_answer(&first, &q2_by_hand(db.catalog(), &q2_default_params()), &[])
                    .map_err(|e| format!("{name}/q2: by-hand evaluation disagrees: {e}"))?;
            }
            eprintln!(
                "{name}/{}: {} rows, four levels agree",
                class.name,
                first.rows.len()
            );
            write_expected(&mut out, class.name, &first);
        }
        let path = expected_path(bench_dir, name);
        std::fs::write(&path, out).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(rows: &[&[&str]]) -> Table {
        Table {
            rows: rows
                .iter()
                .map(|r| r.iter().map(|c| (*c).to_string()).collect())
                .collect(),
        }
    }

    #[test]
    fn parses_a_reply_and_checks_its_count() {
        let t = parse_reply("T 2\na\tb\n1\t'x'\n2\tNULL").unwrap();
        assert_eq!(t, table(&[&["1", "'x'"], &["2", "NULL"]]));
        assert_eq!(parse_reply("T 0\na").unwrap().rows.len(), 0);
        assert!(parse_reply("T 3\na\n1").is_err());
        assert!(parse_reply("OK pong").is_err());
    }

    #[test]
    fn answers_compare_as_bags_with_float_tolerance() {
        let want = table(&[&["1", "2.5"], &["2", "100"]]);
        let got = table(&[&["2", "100.00000000001"], &["1", "2.5"]]);
        assert!(same_answer(&got, &want, &[]).is_ok());
        let off = table(&[&["2", "101"], &["1", "2.5"]]);
        assert!(same_answer(&off, &want, &[]).is_err());
        // Integers get no tolerance, however large.
        let a = table(&[&["10000000000001"]]);
        let b = table(&[&["10000000000002"]]);
        assert!(same_answer(&a, &b, &[]).is_err());
    }

    #[test]
    fn order_check_reads_numbers_as_numbers() {
        let got = table(&[&["9", "'a'"], &["10", "'b'"]]);
        assert!(check_order(&got, &[0]).is_ok());
        assert!(check_order(&got, &[1, 0]).is_ok());
        let got = table(&[&["10", "'a'"], &["9", "'b'"]]);
        assert!(check_order(&got, &[0]).is_err());
        assert!(same_answer(&got, &got, &[0]).is_err());
    }

    #[test]
    fn large_results_reduce_to_count_and_integer_sums() {
        let rows: Vec<Vec<String>> = (0..100)
            .map(|i| vec![i.to_string(), format!("{}.5", i)])
            .collect();
        let t = Table { rows };
        let e = Expected::of(&t);
        assert_eq!(
            e,
            Expected::Digest {
                rows: 100,
                int_sums: vec![(0, 4950)]
            }
        );
        assert!(e.check(&t, &[0]).is_ok());
        let mut wrong = t.clone();
        wrong.rows[3][0] = "4".to_string();
        assert!(e.check(&wrong, &[]).is_err());
    }

    #[test]
    fn expected_files_roundtrip() {
        let small = table(&[&["1", "'x y'"], &["2", "NULL"]]);
        let big = Table {
            rows: (0..70).map(|i| vec![i.to_string()]).collect(),
        };
        let mut text = String::from("# comment\n");
        write_expected(&mut text, "small", &small);
        write_expected(&mut text, "big", &big);
        let loaded = parse_expected(&text).unwrap();
        assert_eq!(loaded[0], ("small".to_string(), Expected::Full(small)));
        assert_eq!(loaded[1], ("big".to_string(), Expected::of(&big)));
    }
}
