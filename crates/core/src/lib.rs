#![warn(missing_docs)]
//! # orthopt — Orthogonal Optimization of Subqueries and Aggregation
//!
//! A from-scratch reproduction of Galindo-Legaria & Joshi,
//! *"Orthogonal Optimization of Subqueries and Aggregation"*
//! (SIGMOD 2001): the subquery/aggregation query-processing
//! architecture of Microsoft SQL Server 7.0/8.0, as a complete Rust
//! stack — SQL front end, algebra with `Apply`/`SegmentApply`,
//! normalization (correlation removal), a Volcano-style cost-based
//! optimizer with the paper's GroupBy-reordering / LocalGroupBy /
//! SegmentApply rules, and an execution engine.
//!
//! ```
//! use orthopt::{Database, OptimizerLevel};
//! use orthopt::storage::{ColumnDef, TableDef};
//! use orthopt::common::{DataType, Value};
//!
//! let mut db = Database::new();
//! db.catalog_mut()
//!     .create_table(TableDef::new(
//!         "t",
//!         vec![ColumnDef::new("k", DataType::Int),
//!              ColumnDef::new("v", DataType::Int)],
//!         vec![vec![0]],
//!     ))
//!     .unwrap();
//! let t = db.catalog().resolve("t").unwrap();
//! db.catalog_mut().table_mut(t)
//!     .insert(vec![Value::Int(1), Value::Int(10)]).unwrap();
//! db.analyze();
//!
//! let result = db.execute("select k from t where v > 5").unwrap();
//! assert_eq!(result.rows.len(), 1);
//!
//! // Same query, correlated-baseline planning:
//! let baseline = db
//!     .execute_with("select k from t where v > 5", OptimizerLevel::Correlated)
//!     .unwrap();
//! assert_eq!(baseline.rows, result.rows);
//! ```

pub use orthopt_common as common;
pub use orthopt_exec as exec;
pub use orthopt_ir as ir;
pub use orthopt_optimizer as optimizer;
pub use orthopt_plancheck as plancheck;
pub use orthopt_rewrite as rewrite;
pub use orthopt_sql as sql;
pub use orthopt_storage as storage;
pub use orthopt_tpch as tpch;

use orthopt_common::column::Column;
use orthopt_common::{Error, QueryContext, Result, Row};
use orthopt_exec::{Batch, Bindings, PhysExpr, Pipeline, Reference};
use orthopt_ir::{ColumnMeta, RelExpr};
use orthopt_optimizer::search::{optimize_with_presentation, OptimizerConfig, SearchStats};
use orthopt_plancheck::{Check, RuleTag};
use orthopt_rewrite::pipeline::{classify, normalize, NormalForm, RewriteConfig};
use orthopt_storage::Catalog;
use std::sync::Arc;

pub mod server;
pub mod session;

pub use orthopt_ir::ApplyStrategy;
pub use server::{Client, Server, ServerHandle};
pub use session::{Engine, EngineConfig, Session, SessionSettings};

/// Optimization levels — the ablation ladder used to reproduce the
/// paper's Figure 8/9 comparisons with one engine instead of four
/// vendors. Each level strictly contains the previous one's techniques.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OptimizerLevel {
    /// Subqueries execute as correlated Apply loops (no flattening).
    /// Index-lookup inner plans are still allowed — this is the
    /// "correlated execution" strategy of §1.1.
    Correlated,
    /// Correlation removal (§2) and outerjoin simplification, with basic
    /// join reordering — Dayal-style flattened plans.
    Decorrelated,
    /// Plus GroupBy reordering around joins and outerjoins (§3.1–3.2)
    /// and re-introduction of correlated execution (§4).
    GroupByReorder,
    /// Everything: plus LocalGroupBy (§3.3) and SegmentApply (§3.4).
    Full,
}

impl OptimizerLevel {
    /// All levels, weakest first.
    pub const ALL: [OptimizerLevel; 4] = [
        OptimizerLevel::Correlated,
        OptimizerLevel::Decorrelated,
        OptimizerLevel::GroupByReorder,
        OptimizerLevel::Full,
    ];

    /// Parses a level from its wire/CLI spelling (case-insensitive):
    /// `correlated`, `decorrelated`, `groupby` / `groupbyreorder`, or
    /// `full`.
    pub fn parse(s: &str) -> Option<OptimizerLevel> {
        match s.trim().to_ascii_lowercase().as_str() {
            "correlated" => Some(OptimizerLevel::Correlated),
            "decorrelated" => Some(OptimizerLevel::Decorrelated),
            "groupby" | "groupbyreorder" | "+groupbyreorder" => {
                Some(OptimizerLevel::GroupByReorder)
            }
            "full" => Some(OptimizerLevel::Full),
            _ => None,
        }
    }

    /// Display name used in benchmark tables.
    pub fn name(self) -> &'static str {
        match self {
            OptimizerLevel::Correlated => "Correlated",
            OptimizerLevel::Decorrelated => "Decorrelated",
            OptimizerLevel::GroupByReorder => "+GroupByReorder",
            OptimizerLevel::Full => "Full",
        }
    }

    /// Normalization configuration for this level.
    pub fn rewrite_config(self) -> RewriteConfig {
        match self {
            OptimizerLevel::Correlated => RewriteConfig::correlated_baseline(),
            _ => RewriteConfig::default(),
        }
    }

    /// Cost-based search configuration for this level.
    pub fn optimizer_config(self) -> OptimizerConfig {
        match self {
            OptimizerLevel::Correlated => OptimizerConfig {
                join_reorder: false,
                groupby_reorder: false,
                local_aggregate: false,
                segment_apply: false,
                correlated_execution: false,
                parallelism: 1,
                apply_strategy: ApplyStrategy::Auto,
            },
            OptimizerLevel::Decorrelated => OptimizerConfig {
                join_reorder: true,
                groupby_reorder: false,
                local_aggregate: false,
                segment_apply: false,
                correlated_execution: false,
                parallelism: 1,
                apply_strategy: ApplyStrategy::Auto,
            },
            OptimizerLevel::GroupByReorder => OptimizerConfig {
                join_reorder: true,
                groupby_reorder: true,
                local_aggregate: false,
                segment_apply: false,
                correlated_execution: true,
                parallelism: 1,
                apply_strategy: ApplyStrategy::Auto,
            },
            OptimizerLevel::Full => OptimizerConfig::default(),
        }
    }
}

/// A compiled plan, carrying everything EXPLAIN wants to show.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The physical operator tree.
    pub physical: PhysExpr,
    /// The normalized logical tree it was extracted from.
    pub logical: RelExpr,
    /// Output column metadata (names for presentation).
    pub output: Vec<ColumnMeta>,
    /// Residual correlated constructs after normalization (subquery
    /// classes 2/3 diagnostics).
    pub normal_form: NormalForm,
    /// Optimizer search statistics.
    pub search: SearchStats,
}

impl Plan {
    /// Statically verifies the plan: the normalized logical tree is
    /// checked in closed mode (schema/arity propagation, correlation
    /// scoping, GroupBy soundness) and the physical tree for legality
    /// (Exchange shape grammar, operator wiring). Returns a one-line
    /// summary on success; violations come back as
    /// [`Error::Plancheck`](orthopt_common::Error::Plancheck) with the
    /// full report. The plan cache runs this on every plan it admits.
    pub fn check(&self) -> Result<String> {
        orthopt_plancheck::verify_ungated(
            RuleTag::pass("Plan::check"),
            Check::Plan(&self.logical, &self.physical),
            Some(&self.logical),
        )?;
        let mut logical_nodes = 0usize;
        self.logical.walk(&mut |_| logical_nodes += 1);
        Ok(format!(
            "plancheck: ok ({logical_nodes} logical nodes, {} physical nodes verified)",
            self.physical.node_count()
        ))
    }
}

/// Query results with presentation metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Output column names.
    pub columns: Vec<String>,
    /// Row data.
    pub rows: Vec<Row>,
}

impl QueryResult {
    /// Renders the result as a fixed-width text table (examples, REPLs).
    pub fn to_table(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        let cells: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(ToString::to_string).collect())
            .collect();
        for row in &cells {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |vals: &[String], out: &mut String| {
            for (i, v) in vals.iter().enumerate() {
                out.push_str(&format!("| {:<w$} ", v, w = widths[i]));
            }
            out.push_str("|\n");
        };
        fmt_row(&self.columns, &mut out);
        for (i, w) in widths.iter().enumerate() {
            out.push_str(&format!("|{:-<w$}", "", w = w + 2));
            if i + 1 == widths.len() {
                out.push_str("|\n");
            }
        }
        for row in &cells {
            fmt_row(row, &mut out);
        }
        out
    }
}

/// Parses a byte count with an optional `k`/`m`/`g` suffix (binary
/// multiples, case-insensitive), e.g. `64m` = 64 MiB.
pub(crate) fn parse_bytes(s: &str) -> Option<u64> {
    let s = s.trim().to_ascii_lowercase();
    let (digits, mult) = match s.strip_suffix(['k', 'm', 'g']) {
        Some(d) => {
            let mult = match s.as_bytes()[s.len() - 1] {
                b'k' => 1u64 << 10,
                b'm' => 1 << 20,
                _ => 1 << 30,
            };
            (d, mult)
        }
        None => (s.as_str(), 1),
    };
    digits.trim().parse::<u64>().ok()?.checked_mul(mult)
}

/// The façade: one [`Session`] over an [`Engine`] it owns alone, built
/// from [`EngineConfig::default`]. Plans come from the engine's plan
/// cache (verified when inserted) and run through the session's one run
/// entry, under its settings — change them with
/// [`session_mut`](Self::session_mut)`().set(..)`, as `SET` does on the
/// wire.
///
/// The catalog is held behind an [`Arc`] so in-flight queries can hand
/// `'static` tasks to the process-wide worker scheduler.
#[derive(Debug)]
pub struct Database {
    session: Session,
}

impl Default for Database {
    fn default() -> Self {
        Database::from_catalog(Catalog::default())
    }
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Wraps an existing catalog (e.g. a generated TPC-H database).
    pub fn from_catalog(catalog: Catalog) -> Self {
        Database::from_shared(Arc::new(catalog))
    }

    /// Wraps a catalog already shared behind an `Arc` (e.g. an oracle
    /// over an [`Engine`]'s catalog); [`catalog_mut`](Self::catalog_mut)
    /// panics while it stays shared.
    pub fn from_shared(catalog: Arc<Catalog>) -> Self {
        Database {
            session: Engine::from_shared(catalog, EngineConfig::default()).session(),
        }
    }

    /// A TPC-H database at the given scale factor.
    pub fn tpch(scale: f64) -> Result<Self> {
        Ok(Database::from_catalog(orthopt_tpch::generate(
            orthopt_tpch::TpchConfig::at_scale(scale),
        )?))
    }

    /// The session queries run in, for its settings ([`Session::set`],
    /// [`Session::settings_mut`]).
    pub fn session_mut(&mut self) -> &mut Session {
        &mut self.session
    }

    /// The engine: plan cache, admission control, catalog.
    pub fn engine(&self) -> &Arc<Engine> {
        self.session.engine()
    }

    /// Read access to the catalog.
    pub fn catalog(&self) -> &Catalog {
        self.engine().catalog()
    }

    /// Shared-ownership handle on the catalog — what the exchange
    /// runtime captures into scheduler tasks.
    pub fn shared_catalog(&self) -> Arc<Catalog> {
        self.engine().shared_catalog()
    }

    /// Write access to the catalog (table creation, loading, indexing);
    /// every cached plan is invalidated.
    ///
    /// # Panics
    /// Panics if the catalog is currently shared — an in-flight query or
    /// a [`shared_catalog`](Self::shared_catalog) handle holds it, or an
    /// [`engine`](Self::engine) handle was cloned. Mutate before sharing
    /// (the usual load-then-serve flow).
    pub fn catalog_mut(&mut self) -> &mut Catalog {
        self.session.catalog_mut()
    }

    /// Recomputes statistics on every table; run after bulk loads.
    pub fn analyze(&mut self) {
        self.catalog_mut().analyze_all();
    }

    /// The plan for `sql` at the given level under the session's other
    /// settings, from the engine's plan cache ([`Engine::prepare`]).
    pub fn plan(&self, sql: &str, level: OptimizerLevel) -> Result<Arc<Plan>> {
        let settings = SessionSettings {
            level,
            ..*self.session.settings()
        };
        self.engine().prepare(sql, &settings)
    }

    /// Executes a compiled plan under the session's governance (memory
    /// budget and timeout, if set).
    pub fn run(&self, plan: &Plan) -> Result<QueryResult> {
        self.session.collect(plan, None)
    }

    /// Executes a compiled plan under an explicit [`QueryContext`] —
    /// the caller controls budget, deadline, and cancellation handle;
    /// admission control declares that budget like any query's.
    /// Operator panics are isolated: they surface as
    /// [`Error::Exec`](orthopt_common::Error::Exec) naming the operator
    /// the panic unwound out of, and the database stays usable.
    pub fn run_with_context(&self, plan: &Plan, gov: QueryContext) -> Result<QueryResult> {
        self.session.collect(plan, Some(gov))
    }

    /// Compiles and executes at [`OptimizerLevel::Full`].
    pub fn execute(&self, sql: &str) -> Result<QueryResult> {
        self.execute_with(sql, OptimizerLevel::Full)
    }

    /// Compiles and executes at a chosen level.
    pub fn execute_with(&self, sql: &str, level: OptimizerLevel) -> Result<QueryResult> {
        self.run(&*self.plan(sql, level)?)
    }

    /// Executes through the naive reference interpreter (the §2.1
    /// mutually recursive form, no rewriting at all) — the semantics
    /// oracle.
    pub fn execute_reference(&self, sql: &str) -> Result<QueryResult> {
        let bound = orthopt_sql::compile(sql, self.catalog())?;
        let mut chunk = Reference::new(self.catalog()).run(&bound.rel)?;
        if !bound.order_by.is_empty() {
            let positions: Vec<(usize, bool)> = bound
                .order_by
                .iter()
                .map(|(c, desc)| Ok((chunk.require_pos(*c)?, *desc)))
                .collect::<Result<_>>()?;
            chunk.rows.sort_by(|a, b| {
                positions
                    .iter()
                    .map(|&(i, desc)| {
                        let o = a[i].total_cmp(&b[i]);
                        if desc {
                            o.reverse()
                        } else {
                            o
                        }
                    })
                    .find(|o| *o != std::cmp::Ordering::Equal)
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
        }
        if let Some(n) = bound.limit {
            chunk.rows.truncate(n);
        }
        let ids: Vec<_> = bound.output.iter().map(|c| c.id).collect();
        Ok(QueryResult {
            columns: column_names(&bound.output),
            rows: chunk.project(&ids)?.rows,
        })
    }

    /// Statically verifies a compiled plan: [`Plan::check`].
    pub fn check_plan(&self, plan: &Plan) -> Result<String> {
        plan.check()
    }

    /// EXPLAIN ANALYZE: compiles the query, runs it through the
    /// streaming pipeline, and renders the physical plan annotated with
    /// per-operator rows / batches / opens / time (plus which subtrees
    /// were cached as parameter-invariant) and a plancheck summary.
    pub fn explain_analyze(&self, sql: &str, level: OptimizerLevel) -> Result<String> {
        let plan = self.plan(sql, level)?;
        let check = match self.check_plan(&plan) {
            Ok(summary) => summary,
            Err(e) => format!("plancheck: FAILED — {e}"),
        };
        let started = std::time::Instant::now();
        let mut rows = 0;
        let pipeline = self.session.run(&plan, None, &mut |_, len| {
            rows += len;
            Ok(())
        })?;
        let elapsed = started.elapsed();
        let governor = match (
            pipeline.governor().mem_peak(),
            pipeline.governor().mem_limit(),
        ) {
            (Some(peak), Some(limit)) => {
                format!("\n== governor: peak {peak}B of {limit}B budget ==")
            }
            _ => String::new(),
        };
        let rendered = orthopt_exec::explain_phys::explain_phys_analyze(
            &plan.physical,
            &pipeline.stats(),
            pipeline.cached_nodes(),
        );
        Ok(format!(
            "== physical (analyzed: {rows} rows, {:.3}ms total, batch size {}) ==\n{}== {check} =={governor}",
            elapsed.as_secs_f64() * 1e3,
            pipeline.batch_size(),
            rendered,
        ))
    }

    /// EXPLAIN: normalized logical plan, physical plan summary, and
    /// search statistics.
    pub fn explain(&self, sql: &str, level: OptimizerLevel) -> Result<String> {
        let plan = self.plan(sql, level)?;
        Ok(format!(
            "== logical (normalized, {} residual applies) ==\n{}\n\
             == search: {} groups, {} expressions, best cost {:.1}{} ==\n\
             == physical ==\n{}",
            plan.normal_form.applies,
            orthopt_ir::explain::explain(&plan.logical),
            plan.search.groups,
            plan.search.exprs,
            plan.search.best_cost,
            if plan.search.valve_hit {
                ", cut short by the expression valve"
            } else {
                ", fixpoint reached"
            },
            orthopt_exec::explain_phys::explain_phys(&plan.physical),
        ))
    }
}

/// Compiles SQL against a catalog into a physical plan: parse/bind →
/// normalize (correlation removal per the level) → classify residuals →
/// cost-based search under the settings' parallelism and apply
/// strategy. The plan cache's miss path.
pub(crate) fn compile_plan(
    catalog: &Catalog,
    sql: &str,
    settings: &SessionSettings,
) -> Result<Plan> {
    let level = settings.level;
    let bound = orthopt_sql::compile(sql, catalog)?;
    let normalized = normalize(bound.rel, level.rewrite_config())?;
    let normal_form = classify(&normalized);
    if normal_form.subquery_markers > 0 {
        return Err(Error::Plan(
            "subquery markers survived normalization".into(),
        ));
    }
    let mut config = level.optimizer_config();
    config.parallelism = settings.parallelism;
    config.apply_strategy = settings.apply_strategy;
    let (physical, search) =
        optimize_with_presentation(normalized.clone(), bound.order_by, bound.limit, &config)?;
    Ok(Plan {
        physical,
        logical: normalized,
        output: bound.output,
        normal_form,
        search,
    })
}

/// Where a query's result goes: called once per root batch with the
/// presentation columns (`plan.output` order) and the batch's row count.
/// [`QueryResult`] builders transpose into rows here; the server's `Q`
/// handler renders lanes straight into the reply text.
pub(crate) type BatchSink<'a> = dyn FnMut(&[Column], usize) -> Result<()> + 'a;

pub(crate) fn column_names(output: &[ColumnMeta]) -> Vec<String> {
    output.iter().map(|c| c.name.clone()).collect()
}

/// Where a compiled plan becomes a result, for [`Session`]'s run entry:
/// compile the physical tree into a [`Pipeline`], configure it from
/// `settings` (worker-pool size) plus the governance
/// context, and hand each root batch, projected onto the presentation
/// columns, to `sink`. A panic unwinding out of an operator (serial path
/// — parallel workers catch their own) becomes [`Error::Exec`] blaming
/// the operator the executor was inside, so a buggy or fault-injected
/// operator cannot tear down the caller; the pipeline's own error path
/// already closed operators and recorded stats.
pub(crate) fn run_plan(
    catalog: &Arc<Catalog>,
    plan: &Plan,
    settings: &SessionSettings,
    gov: QueryContext,
    sink: &mut BatchSink<'_>,
) -> Result<Pipeline> {
    let mut pipeline = Pipeline::compile(&plan.physical)?;
    pipeline.set_parallelism(settings.parallelism);
    pipeline.set_governor(gov);
    pipeline.set_shared_catalog(Arc::clone(catalog));
    let positions: Vec<usize> = plan
        .output
        .iter()
        .map(|c| {
            let id = c.id;
            pipeline
                .out_cols()
                .iter()
                .position(|o| *o == id)
                .ok_or_else(|| Error::internal(format!("column {id} missing from plan output")))
        })
        .collect::<Result<_>>()?;
    let each = |batch: Batch| {
        let (columns, len) = batch.into_columns();
        let projected: Vec<Column> = positions.iter().map(|&p| columns[p].clone()).collect();
        sink(&projected, len)
    };
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        pipeline.execute_each(catalog, &Bindings::new(), each)
    }))
    .unwrap_or_else(|payload| {
        let at = orthopt_exec::current_op().map_or_else(String::new, |(id, name)| {
            format!(" in operator {name}#{id}")
        });
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        Err(Error::Exec(format!("panic{at}: {msg}")))
    })?;
    Ok(pipeline)
}

#[cfg(test)]
mod tests {
    use super::*;
    use orthopt_common::{DataType, Value};
    use orthopt_storage::{ColumnDef, TableDef};

    fn tiny_db() -> Database {
        let mut db = Database::new();
        db.catalog_mut()
            .create_table(TableDef::new(
                "t",
                vec![
                    ColumnDef::new("k", DataType::Int),
                    ColumnDef::nullable("v", DataType::Int),
                ],
                vec![vec![0]],
            ))
            .unwrap();
        let t = db.catalog().resolve("t").unwrap();
        db.catalog_mut()
            .table_mut(t)
            .insert_all([
                vec![Value::Int(1), Value::Int(10)],
                vec![Value::Int(2), Value::Null],
                vec![Value::Int(3), Value::Int(30)],
            ])
            .unwrap();
        db.analyze();
        db
    }

    #[test]
    fn execute_roundtrip() {
        let db = tiny_db();
        let r = db
            .execute("select k, v from t where v >= 10 order by k")
            .unwrap();
        assert_eq!(r.columns, vec!["k", "v"]);
        assert_eq!(
            r.rows,
            vec![
                vec![Value::Int(1), Value::Int(10)],
                vec![Value::Int(3), Value::Int(30)],
            ]
        );
    }

    #[test]
    fn all_levels_agree_with_reference() {
        let db = tiny_db();
        let sql = "select k from t where v > 5";
        let oracle = db.execute_reference(sql).unwrap();
        for level in OptimizerLevel::ALL {
            let got = db.execute_with(sql, level).unwrap();
            assert!(
                orthopt_common::row::bag_eq(&oracle.rows, &got.rows),
                "{level:?}"
            );
        }
    }

    #[test]
    fn explain_mentions_the_plan() {
        let db = tiny_db();
        let s = db.explain("select k from t", OptimizerLevel::Full).unwrap();
        assert!(s.contains("logical"));
        assert!(s.contains("TableScan"));
    }

    #[test]
    fn explain_analyze_reports_operator_stats() {
        let db = tiny_db();
        for level in OptimizerLevel::ALL {
            let s = db
                .explain_analyze("select k from t where v > 5", level)
                .unwrap();
            assert!(s.contains("analyzed: "), "{level:?}: {s}");
            assert!(s.contains("rows="), "{level:?}: {s}");
            assert!(s.contains("batches="), "{level:?}: {s}");
            assert!(s.contains("time="), "{level:?}: {s}");
        }
    }

    #[test]
    fn plan_reports_normal_form() {
        let db = tiny_db();
        let plan = db
            .plan(
                "select k, (select v from t as u where u.k = t.k) from t",
                OptimizerLevel::Full,
            )
            .unwrap();
        // k is a key: Max1Row eliminated, everything flattened.
        assert_eq!(plan.normal_form.applies, 0);
    }

    #[test]
    fn errors_propagate() {
        let db = tiny_db();
        assert!(matches!(
            db.execute("select nope from t"),
            Err(Error::UnknownColumn(_))
        ));
        assert!(db.execute("selec k from t").is_err());
    }

    #[test]
    fn tpch_database_builds_and_answers() {
        let db = Database::tpch(0.002).unwrap();
        let r = db.execute("select count(*) from customer").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(300)]]);
    }

    /// `Database::plan` is the engine's plan cache: the second call is a
    /// hit on the very plan the first compiled.
    #[test]
    fn database_plans_through_the_engine_cache() {
        let db = tiny_db();
        let sql = "select k from t where v > 5";
        let a = db.plan(sql, OptimizerLevel::Full).unwrap();
        let b = db.plan(sql, OptimizerLevel::Full).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(
            db.engine().cache_stats(),
            session::CacheStats { hits: 1, misses: 1 }
        );
    }

    /// A catalog write between two plans of one text invalidates the
    /// cached plan: the second plan sees the new index.
    #[test]
    fn catalog_writes_invalidate_cached_plans() {
        let mut db = Database::new();
        let t = db
            .catalog_mut()
            .create_table(TableDef::new(
                "t",
                vec![
                    ColumnDef::new("k", DataType::Int),
                    ColumnDef::new("v", DataType::Int),
                ],
                vec![vec![0]],
            ))
            .unwrap();
        db.catalog_mut()
            .table_mut(t)
            .insert_all((0..200).map(|i| vec![Value::Int(i), Value::Int(i % 50)]))
            .unwrap();
        db.analyze();
        let sql = "select k from t where v = 7";
        let text = |p: &Plan| orthopt_exec::explain_phys::explain_phys(&p.physical);
        let scan = db.plan(sql, OptimizerLevel::Full).unwrap();
        db.catalog_mut().table_mut(t).build_index(vec![1]).unwrap();
        let seek = db.plan(sql, OptimizerLevel::Full).unwrap();
        assert!(!text(&scan).contains("IndexSeek"), "{}", text(&scan));
        assert!(text(&seek).contains("IndexSeek"), "{}", text(&seek));
        assert_eq!(db.engine().cache_stats().misses, 2);
        let got = db.run(&seek).unwrap();
        let oracle = db.execute_reference(sql).unwrap();
        assert!(orthopt_common::row::bag_eq(&oracle.rows, &got.rows));
        assert_eq!(got.rows.len(), 4);
    }

    /// `SET parallelism` on the façade's session reaches `Database::plan`:
    /// a fresh engine's session with the same `SET` compiles the same
    /// text to the same physical plan, and it is a parallel one.
    #[test]
    fn session_set_reaches_database_plan() {
        let mut db = Database::tpch(0.002).unwrap();
        db.session_mut().set("parallelism", "4").unwrap();
        let sql = "select l_returnflag, count(*), sum(l_quantity) from lineitem \
                   group by l_returnflag";
        let text = |p: &Plan| orthopt_exec::explain_phys::explain_phys(&p.physical);
        let via_db = text(&db.plan(sql, OptimizerLevel::Full).unwrap());
        let mut fresh = Engine::from_shared(db.shared_catalog(), EngineConfig::default()).session();
        fresh.set("parallelism", "4").unwrap();
        let via_session = text(&fresh.engine().prepare(sql, fresh.settings()).unwrap());
        assert_eq!(via_db, via_session);
        assert!(via_db.contains("Exchange"), "{via_db}");
    }
}
