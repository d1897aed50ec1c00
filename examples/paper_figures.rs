//! Regenerates the paper's figure tables into `results/`: Figure 1's
//! strategy crossover (E-FIG1), the Figure 8 power run (E-FIG8), the
//! Figure 9 Q2/Q17 series (E-FIG9) and the three ablations of §3
//! (E-ABL-GB, E-ABL-LG, E-ABL-SEG).
//!
//! Every query runs through an `Engine` behind a `Server`, driven by a
//! `Client` over loopback TCP with its plan cached, so a cell times
//! execution, reply rendering and the wire. A cell is the median
//! per-query latency in ms over five windows of at least 25 ms (and at
//! least one query), with the quartiles in brackets. Each row names the
//! plan shape `Full` chose: its operators by the first word of their
//! EXPLAIN labels, pass-through ones (filters, projections, sorts) left
//! out. The claims these tables illustrate are asserted on plan shape and
//! exact counts by `tests/tpch_queries.rs`.
//!
//! ```text
//! cargo run --release --example paper_figures [max_scale]
//! ```
//!
//! `max_scale` (default 0.05) is the largest TPC-H scale factor the
//! Figure 1 and Figure 9 sweeps reach; Figure 8 and the ablations run at
//! 0.005, or at `max_scale` when it is smaller.

use std::error::Error;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use orthopt::exec::{phys_node_labels, PhysExpr};
use orthopt::tpch::queries;
use orthopt::OptimizerLevel::{self, Correlated, Decorrelated, Full, GroupByReorder};
use orthopt::{Client, Database, Server, ServerHandle};

type Result<T> = std::result::Result<T, Box<dyn Error>>;

const LEVELS: [OptimizerLevel; 4] = OptimizerLevel::ALL;
const WINDOWS: usize = 5;
const WINDOW: Duration = Duration::from_millis(25);

/// A TPC-H database served over loopback, with one client connected.
struct Served {
    // Declared first so it closes before the server stops.
    conn: Client,
    _server: ServerHandle,
    db: Database,
}

impl Served {
    /// TPC-H at `scale`, without the index on `table`'s column `col`
    /// when one is named.
    fn tpch(scale: f64, drop_index: Option<(&str, usize)>) -> Result<Self> {
        let mut db = Database::tpch(scale)?;
        if let Some((table, col)) = drop_index {
            let id = db.catalog().resolve(table)?;
            db.catalog_mut().table_mut(id).drop_index(&[col]);
            db.analyze();
        }
        let _server = Server::bind(Arc::clone(db.engine()), "127.0.0.1:0")?.spawn()?;
        let conn = Client::connect(_server.addr())?;
        Ok(Self { conn, _server, db })
    }

    fn rows(&self, table: &str) -> Result<usize> {
        Ok(self.db.catalog().table_by_name(table)?.row_count())
    }

    /// `sql`'s per-query latency at `level` in ms, one sample per
    /// window: the median, then the quartiles.
    fn time(&mut self, sql: &str, level: OptimizerLevel) -> Result<[f64; 3]> {
        self.conn.set("level", level.name())?;
        self.conn.query(sql)?; // plans and caches
        let mut windows = Vec::with_capacity(WINDOWS);
        for _ in 0..WINDOWS {
            let (start, mut runs) = (Instant::now(), 0u32);
            while runs == 0 || start.elapsed() < WINDOW {
                self.conn.query(sql)?;
                runs += 1;
            }
            windows.push(start.elapsed().as_secs_f64() * 1e3 / f64::from(runs));
        }
        windows.sort_by(f64::total_cmp);
        Ok([0.5, 0.25, 0.75].map(|p| windows[(p * (WINDOWS - 1) as f64).round() as usize]))
    }

    /// One table row: `cells`, then `sql` timed at each of `levels`, the
    /// fastest of them and the shape of `Full`'s plan; and the medians.
    fn row(&mut self, mut cells: Vec<String>, sql: &str, levels: &[OptimizerLevel]) -> Result<Row> {
        let mut medians = Vec::new();
        for level in levels {
            let t = self.time(sql, *level)?;
            cells.push(cell(t));
            medians.push(t[0]);
        }
        let fastest = (0..levels.len()).min_by(|a, b| medians[*a].total_cmp(&medians[*b]));
        cells.push(fastest.map_or("-", |i| levels[i].name()).to_string());
        cells.push(self.full_shape(sql)?);
        Ok((cells, medians))
    }

    fn full_shape(&self, sql: &str) -> Result<String> {
        let plan = self.db.plan(sql, Full)?;
        Ok(shape(&self.db, &plan.physical).join(", "))
    }
}

type Row = (Vec<String>, Vec<f64>);

fn cell([median, q1, q3]: [f64; 3]) -> String {
    format!("{median:.3} [{q1:.3}–{q3:.3}]")
}

/// A plan as nested operators, each by the first word of its EXPLAIN
/// label and, reading a table, that table's name; pass-through
/// operators yield their inputs' shapes.
fn shape(db: &Database, plan: &PhysExpr) -> Vec<String> {
    let inputs = plan.children().into_iter().flat_map(|c| shape(db, c));
    let inputs: Vec<String> = inputs.collect();
    let label = phys_node_labels(plan).swap_remove(0).1;
    let op = label.split(' ').next().unwrap_or_default();
    let op = match plan {
        PhysExpr::Filter { .. }
        | PhysExpr::Compute { .. }
        | PhysExpr::ProjectCols { .. }
        | PhysExpr::Sort { .. }
        | PhysExpr::Limit { .. }
        | PhysExpr::Exchange { .. } => return inputs,
        PhysExpr::TableScan { table, .. }
        | PhysExpr::MorselScan { table, .. }
        | PhysExpr::IndexSeek { table, .. }
        | PhysExpr::IndexLookupJoin { table, .. } => {
            format!("{op}[{}]", db.catalog().table(*table).def.name)
        }
        _ => op.to_string(),
    };
    match inputs.is_empty() {
        true => vec![op],
        false => vec![format!("{op}({})", inputs.join(", "))],
    }
}

/// A markdown table: `title`, a header of `first`, one column per level
/// of `levels`, `fastest` and `Full's plan`; then `rows` and `note`.
fn table(
    title: &str,
    first: &[&str],
    levels: &[OptimizerLevel],
    rows: &[Row],
    note: &str,
) -> String {
    let mut header: Vec<String> = first.iter().map(ToString::to_string).collect();
    header.extend(levels.iter().map(|l| format!("{} (ms)", l.name())));
    header.extend(["fastest".into(), "Full's plan".into()]);
    let rule = " --- |".repeat(header.len());
    let mut out = format!("# {title}\n\n| {} |\n|{rule}\n", header.join(" | "));
    for (cells, _) in rows {
        let _ = writeln!(out, "| {} |", cells.join(" | "));
    }
    let _ = writeln!(out, "\n{note}");
    out
}

/// Writes `text` to `results/<file>` and echoes it.
fn save(file: &str, text: &str) -> Result<()> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&dir)?;
    std::fs::write(dir.join(file), text)?;
    println!("{text}\n(wrote results/{file})\n");
    Ok(())
}

/// E-FIG1: §1.1's query with its outer side cut to `c_custkey < k`,
/// from one outer row to all of them, at 0.005 and 0.05.
fn fig1(max_scale: f64) -> Result<String> {
    let query = |k: usize| {
        format!(
            "select c_custkey from customer where c_custkey < {k} and 1000000 < \
             (select sum(o_totalprice) from orders where o_custkey = c_custkey)"
        )
    };
    let mut note = String::from(
        "Paper (§1.1, §2.5): correlated execution \"can actually be the best strategy, if the \
         outer table is small, and appropriate indices exist\". `Full` picks an index-lookup \
         join (correlated execution re-introduced) for a small outer side and Kim's \
         aggregate-then-join for a large one.\n",
    );
    let mut rows = Vec::new();
    for scale in [0.005, 0.05].into_iter().filter(|s| *s <= max_scale) {
        let mut served = Served::tpch(scale, None)?;
        let mut noidx = Served::tpch(scale, Some(("orders", 1)))?;
        let customers = served.rows("customer")?;
        // Full's form at every outer size, so a switch back would show.
        let correlates = (1..=customers).map(|k| {
            let shape = served.full_shape(&query(k))?;
            let correlated = ["ApplyLoop", "IndexLookupJoin", "IndexSeek"];
            Ok(correlated.iter().any(|op| shape.contains(op)))
        });
        let correlates: Vec<bool> = correlates.collect::<Result<_>>()?;
        let flips = correlates.windows(2).filter(|w| w[0] != w[1]).count();
        let switch = correlates.iter().position(|c| !c).map_or(0, |i| i + 1);
        let _ = writeln!(
            note,
            "\nAt scale {scale} ({customers} customers) `Full` switches from the index-lookup \
             form to the set-oriented one at {switch} outer rows (0: never), and its form changes \
             {flips} time(s) over 1..={customers} outer rows."
        );
        let mut sizes = vec![1, 3, customers / 100, customers / 20, customers / 5];
        sizes.extend([customers, switch.saturating_sub(1), switch]);
        sizes.retain(|k| *k >= 1);
        sizes.sort_unstable();
        sizes.dedup();
        for k in sizes {
            let sql = query(k);
            let alone = cell(noidx.time(&sql, Correlated)?);
            let first = vec![format!("{scale}"), format!("{k}"), alone];
            rows.push(served.row(first, &sql, &LEVELS)?);
        }
    }
    let first = ["scale", "outer rows", "Correlated, no index (ms)"];
    let title = "Figure 1 — §1.1's query over a growing outer side";
    Ok(table(title, &first, &LEVELS, &rows, &note))
}

/// E-FIG8: the power run at every level, with the geometric mean of
/// each level's medians (the QphH analogue).
fn fig8(scale: f64) -> Result<String> {
    let mut served = Served::tpch(scale, None)?;
    let suite = queries::power_run();
    let mut rows = Vec::new();
    for (name, sql) in &suite {
        rows.push(served.row(vec![(*name).to_string()], sql, &LEVELS)?);
    }
    let mut geomean = vec!["geomean".to_string()];
    for level in 0..LEVELS.len() {
        let logs: f64 = rows.iter().map(|(_, medians)| medians[level].ln()).sum();
        geomean.push(format!("{:.3}", (logs / suite.len() as f64).exp()));
    }
    rows.push((geomean, Vec::new()));
    let title = format!("Figure 8 — power run at TPC-H scale {scale}");
    let note = "The paper's Figure 8 lists published TPC-H results across vendors; here one \
                engine runs the same power run at four feature levels, and `Full` should lead.";
    Ok(table(&title, &["query"], &LEVELS, &rows, note))
}

/// E-FIG9: Q2 and Q17 (brand only) across scales and levels.
fn fig9(max_scale: f64) -> Result<String> {
    let q2 = queries::q2_default();
    let q17 = queries::q17_brand_only("brand#23");
    let (mut q2_rows, mut q17_rows) = (Vec::new(), Vec::new());
    let scales = [0.002, 0.005, 0.01, 0.02, 0.05];
    for scale in scales.into_iter().filter(|s| *s <= max_scale) {
        let mut served = Served::tpch(scale, None)?;
        let first = vec![format!("{scale}"), served.rows("lineitem")?.to_string()];
        q2_rows.push(served.row(first.clone(), &q2, &LEVELS)?);
        q17_rows.push(served.row(first, &q17, &LEVELS)?);
    }
    let first = ["scale", "lineitems"];
    let note = "Paper (§5): \"On these two queries, SQL Server has published the fastest \
                results, even on a fraction of the processors used by other systems\". The \
                paper's x-axis is processors across vendors; here it is data scale across \
                feature levels.";
    let q2 = table("Figure 9 — Query 2", &first, &LEVELS, &q2_rows, note);
    let title = "Figure 9 — Query 17 (brand only)";
    Ok(format!(
        "{q2}\n{}",
        table(title, &first, &LEVELS, &q17_rows, note)
    ))
}

/// An ablation table: each `(case, sql)` timed at the two compared
/// `levels`.
fn ablation(
    served: &mut Served,
    levels: &[OptimizerLevel; 2],
    cases: &[(&str, String)],
    title: &str,
    note: &str,
) -> Result<String> {
    let mut rows = Vec::new();
    for (case, sql) in cases {
        rows.push(served.row(vec![case.to_string()], sql, levels)?);
    }
    Ok(table(title, &["case"], levels, &rows, note))
}

fn main() -> Result<()> {
    let arg = std::env::args().nth(1).and_then(|s| s.parse().ok());
    let max_scale: f64 = arg.unwrap_or(0.05);
    let base = max_scale.min(0.005);
    save("fig1_table.txt", &fig1(max_scale)?)?;
    save("fig8_table.txt", &fig8(base)?)?;
    save("fig9_table.txt", &fig9(max_scale)?)?;

    // E-ABL-GB, §3.1/§3.2: an aggregate-join query whose best GroupBy
    // placement flips with the join's selectivity.
    let mut served = Served::tpch(base, None)?;
    let customers = served.rows("customer")?;
    let groupby = |cut: usize| {
        format!(
            "select c_custkey, total from customer, (select o_custkey, sum(o_totalprice) \
             as total from orders group by o_custkey) as t \
             where o_custkey = c_custkey and c_custkey < {cut}"
        )
    };
    let cases = [
        ("1% of customers", groupby(customers / 100)),
        ("half", groupby(customers / 2)),
        ("all", groupby(customers)),
    ];
    let title = format!("E-ABL-GB — GroupBy reordering (§3.1, §3.2) at TPC-H scale {base}");
    let note = "Paper: \"it is best to generate both the alternatives and leave the choice to \
                the cost based optimizer\". `Decorrelated` keeps the GroupBy where the query \
                wrote it; `+GroupByReorder` may move it across the join.";
    let gb = ablation(
        &mut served,
        &[Decorrelated, GroupByReorder],
        &cases,
        &title,
        note,
    )?;
    save("abl_groupby_table.txt", &gb)?;

    // E-ABL-LG, §3.3: LocalGroupBy below a join the GroupBy cannot pass,
    // without the l_orderkey index so the join runs set-oriented.
    let mut served = Served::tpch(base, Some(("lineitem", 0)))?;
    let sql = "select o_orderpriority, sum(l_extendedprice) from orders, lineitem \
               where o_orderkey = l_orderkey group by o_orderpriority";
    let cases = [("revenue per order priority", sql.to_string())];
    let title = format!(
        "E-ABL-LG — LocalGroupBy (§3.3) at TPC-H scale {base}, without the l_orderkey index"
    );
    let note = "The grouping column comes from `orders` and the summed one from `lineitem`, so \
                the GroupBy cannot pass the join; a LocalGroupBy can pre-aggregate `lineitem` \
                below it.";
    let levels = [GroupByReorder, Full];
    let lg = ablation(&mut served, &levels, &cases, &title, note)?;
    save("abl_localagg_table.txt", &lg)?;

    // E-ABL-SEG, §3.4: SegmentApply with the part join pushed into its
    // input (Figure 7), without the l_partkey index so the set-oriented
    // strategies decide.
    let mut served = Served::tpch(base, Some(("lineitem", 1)))?;
    let cases = [
        ("brand + container", queries::q17("brand#23", "med box")),
        ("brand only", queries::q17_brand_only("brand#23")),
    ];
    let title = format!("E-ABL-SEG — SegmentApply on Q17 (§3.4, Figures 6–7) at TPC-H scale {base}, without the l_partkey index");
    let note = "`+GroupByReorder` has no SegmentApply. On the brand-only variant the two plans' \
                costs tie and `Full` keeps the join-then-aggregate plan (ROADMAP item 3).";
    let seg = ablation(&mut served, &levels, &cases, &title, note)?;
    save("abl_segment_table.txt", &seg)
}
