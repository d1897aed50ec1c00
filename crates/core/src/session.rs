//! Multi-session engine: one shared catalog served to many concurrent
//! sessions under global admission control, with a per-engine plan
//! cache.
//!
//! The split of responsibilities:
//!
//! * [`Engine`] — process-wide: owns the shared catalog (`Arc`, so
//!   queries can hand `'static` tasks to the shared worker
//!   [`Scheduler`](orthopt_exec::Scheduler)), the global
//!   [`AdmissionController`] (queries declare a memory budget up front;
//!   aggregate demand beyond the global limit queues, a full queue
//!   sheds), and the plan cache.
//! * [`Session`] — per connection: owns its settings (parallelism,
//!   memory/timeout defaults, optimizer level, apply strategy) and a
//!   session-level [`CancellationToken`]. Closing or dropping a session
//!   cancels whatever query it has in flight; each query runs under a
//!   *child* token so per-query timeouts stay private to the query.
//!
//! Plan cache: keyed by the SQL text's token stream (so layout, case
//! of keywords and comments do not split entries, while string literals
//! stay exact) plus the settings that shape the plan (optimizer level,
//! parallelism, apply strategy). Entries are invalidated by the engine's
//! table-stats version ([`Engine::bump_stats_version`]) and verified by
//! plancheck once, before they are inserted: a plan that fails is an
//! error, never cached. An entry is an immutable `Arc<Plan>`, so a hit
//! is a map lookup; builds with plancheck enabled (debug,
//! `ORTHOPT_PLANCHECK=1`) check the plan again on every hit, after the
//! cache lock is dropped.
//!
//! Settings resolve through one ladder: the `ORTHOPT_*` environment
//! seeds [`EngineConfig::default`], whose [`SessionSettings`] seed every
//! [`Session`]; `SET` changes one session's copy; a query's pipeline is
//! compiled from that copy.

use orthopt_synccheck::sync::atomic::{AtomicU64, Ordering};
use orthopt_synccheck::sync::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

use orthopt_common::column::columns_to_rows;
use orthopt_common::{
    AdmissionController, AdmissionGuard, AdmissionStats, CancellationToken, QueryContext, Result,
};
use orthopt_exec::Pipeline;
use orthopt_ir::ApplyStrategy;
use orthopt_sql::lexer::fingerprint;
use orthopt_storage::Catalog;

use crate::{
    column_names, compile_plan, run_plan, BatchSink, Error, OptimizerLevel, Plan, QueryResult,
};

/// Default per-query admission budget when neither the session nor the
/// engine configures a per-query memory limit: 16 MiB.
const DEFAULT_QUERY_MEM: u64 = 16 << 20;

/// Engine-wide configuration. All fields are public so embedders and
/// tests can construct configs directly; [`EngineConfig::default`] is
/// the one place the `ORTHOPT_*` query-default variables are read.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Global memory limit shared by *all* concurrent queries. When
    /// set, every query passes admission control: its declared budget
    /// is reserved against this limit, demand beyond it queues, and a
    /// full queue sheds with `ResourceExhausted`. `None` disables
    /// admission entirely. Seeded from `ORTHOPT_GLOBAL_MEM_LIMIT`
    /// (bytes, optional `k`/`m`/`g` suffix).
    pub global_mem_limit: Option<u64>,
    /// Maximum queries waiting in the admission queue before new
    /// arrivals are shed (default 32).
    pub admission_queue: usize,
    /// Budget a query declares at admission when no per-query memory
    /// limit is configured (default 16 MiB). Only used when
    /// `global_mem_limit` is set.
    pub default_query_mem: u64,
    /// Plan-cache capacity in entries (default 64; 0 disables caching).
    pub plan_cache_cap: usize,
    /// The settings every [`Session`] starts from, seeded from
    /// `ORTHOPT_PARALLELISM`, `ORTHOPT_MEM_LIMIT`, `ORTHOPT_TIMEOUT_MS`
    /// and `ORTHOPT_APPLY_STRATEGY`.
    pub session: SessionSettings,
}

impl Default for EngineConfig {
    /// Unset or unparseable variables fall back to: no admission,
    /// serial, unlimited, no timeout, `auto`.
    fn default() -> EngineConfig {
        let var = |name: &str| std::env::var(name).ok();
        EngineConfig {
            global_mem_limit: var("ORTHOPT_GLOBAL_MEM_LIMIT").and_then(|s| crate::parse_bytes(&s)),
            admission_queue: 32,
            default_query_mem: DEFAULT_QUERY_MEM,
            plan_cache_cap: 64,
            session: SessionSettings {
                parallelism: var("ORTHOPT_PARALLELISM")
                    .and_then(|s| s.trim().parse::<usize>().ok())
                    .unwrap_or(1)
                    .clamp(1, orthopt_exec::parallel::MAX_WORKERS),
                mem_limit: var("ORTHOPT_MEM_LIMIT").and_then(|s| crate::parse_bytes(&s)),
                timeout: var("ORTHOPT_TIMEOUT_MS")
                    .and_then(|s| s.trim().parse::<u64>().ok())
                    .map(Duration::from_millis),
                level: OptimizerLevel::Full,
                apply_strategy: var("ORTHOPT_APPLY_STRATEGY")
                    .and_then(|s| ApplyStrategy::parse(&s))
                    .unwrap_or_default(),
            },
        }
    }
}

/// Per-session settings, seeded from [`EngineConfig::session`] at
/// [`Engine::session`] and adjustable per session (the wire protocol's
/// `SET` command lands here).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionSettings {
    /// Worker-pool size exchanges fan out to (also steers the optimizer
    /// toward or away from `Exchange` placement).
    pub parallelism: usize,
    /// Per-query memory budget. A sort, an aggregate or a keyed hash
    /// join that outgrows it spills to disk; any other buffer that
    /// outgrows it fails the query.
    pub mem_limit: Option<u64>,
    /// Per-query timeout.
    pub timeout: Option<Duration>,
    /// Optimizer level queries compile at.
    pub level: OptimizerLevel,
    /// Correlated-execution strategy queries compile with (part of the
    /// plan-cache fingerprint — sessions forcing different strategies
    /// must never share cached plans).
    pub apply_strategy: ApplyStrategy,
}

// -----------------------------------------------------------------
// Plan cache.
// -----------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    /// The SQL text's token stream ([`fingerprint`]) — exactly what the
    /// parser reads, so equal keys compile to equal plans.
    tokens: Vec<u8>,
    level: OptimizerLevel,
    parallelism: usize,
    apply_strategy: ApplyStrategy,
}

struct CacheEntry {
    plan: Arc<Plan>,
    /// Engine stats version at compile time; a bump invalidates.
    stats_version: u64,
}

/// A small LRU keyed by SQL tokens + plan-shaping settings.
struct PlanCache {
    cap: usize,
    map: HashMap<CacheKey, CacheEntry>,
    /// Keys in least-recently-used-first order.
    order: VecDeque<CacheKey>,
}

impl PlanCache {
    fn new(cap: usize) -> PlanCache {
        PlanCache {
            cap,
            map: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    fn touch(&mut self, key: &CacheKey) {
        if let Some(pos) = self.order.iter().position(|k| k == key) {
            let k = self.order.remove(pos).expect("position is in range");
            self.order.push_back(k);
        }
    }

    fn remove(&mut self, key: &CacheKey) {
        self.map.remove(key);
        if let Some(pos) = self.order.iter().position(|k| k == key) {
            self.order.remove(pos);
        }
    }

    fn insert(&mut self, key: CacheKey, entry: CacheEntry) {
        if self.cap == 0 {
            return;
        }
        self.remove(&key);
        self.map.insert(key.clone(), entry);
        self.order.push_back(key);
        while self.map.len() > self.cap {
            let Some(evict) = self.order.pop_front() else {
                break;
            };
            self.map.remove(&evict);
        }
    }
}

/// Cache-effectiveness counters, via [`Engine::cache_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Plans served from cache (verified when they were inserted).
    pub hits: u64,
    /// Plans compiled fresh (cold or invalidated).
    pub misses: u64,
}

// -----------------------------------------------------------------
// Engine.
// -----------------------------------------------------------------

/// Process-wide shared state behind every [`Session`]: catalog,
/// admission control, plan cache. Construct once, share via `Arc`.
pub struct Engine {
    catalog: Arc<Catalog>,
    config: EngineConfig,
    admission: Option<Arc<AdmissionController>>,
    cache: Mutex<PlanCache>,
    stats_version: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("config", &self.config)
            .field("stats_version", &self.stats_version)
            .finish_non_exhaustive()
    }
}

impl Engine {
    /// Builds an engine over a loaded catalog. The catalog is frozen:
    /// load and `analyze_all` *before* constructing the engine.
    pub fn new(catalog: Catalog, config: EngineConfig) -> Arc<Engine> {
        Engine::from_shared(Arc::new(catalog), config)
    }

    /// Builds an engine over an already-shared catalog.
    pub fn from_shared(catalog: Arc<Catalog>, config: EngineConfig) -> Arc<Engine> {
        let admission = config
            .global_mem_limit
            .map(|limit| AdmissionController::new(limit, config.admission_queue));
        let cache = Mutex::new(PlanCache::new(config.plan_cache_cap));
        Arc::new(Engine {
            catalog,
            config,
            admission,
            cache,
            stats_version: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
        })
    }

    /// An engine with environment-default configuration.
    pub fn with_defaults(catalog: Catalog) -> Arc<Engine> {
        Engine::new(catalog, EngineConfig::default())
    }

    /// Opens a session with settings seeded from the engine config.
    pub fn session(self: &Arc<Self>) -> Session {
        Session {
            engine: Arc::clone(self),
            settings: self.config.session,
            cancel: CancellationToken::new(None),
        }
    }

    /// Read access to the shared catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Shared-ownership handle on the catalog.
    pub fn shared_catalog(&self) -> Arc<Catalog> {
        Arc::clone(&self.catalog)
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Admission counters, when global admission control is enabled.
    pub fn admission_stats(&self) -> Option<AdmissionStats> {
        self.admission.as_ref().map(|a| a.stats())
    }

    /// The admission controller, when enabled (tests pin its queue).
    pub fn admission(&self) -> Option<&Arc<AdmissionController>> {
        self.admission.as_ref()
    }

    /// Current table-stats version; cached plans compiled under an
    /// older version are invalidated on lookup.
    pub fn stats_version(&self) -> u64 {
        // relaxed-ok: a monotonic invalidation counter; the cache lock
        // orders it against entry reads (see cached_plan), and a read
        // that races a bump at worst recompiles one extra plan.
        self.stats_version.load(Ordering::Relaxed)
    }

    /// Bumps the table-stats version, invalidating every cached plan
    /// (call after statistics refresh or data-distribution changes).
    pub fn bump_stats_version(&self) {
        // relaxed-ok: see stats_version().
        self.stats_version.fetch_add(1, Ordering::Relaxed);
    }

    /// Plan-cache hit/miss counters.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            // relaxed-ok: monitoring counters, no memory is published
            // through them.
            hits: self.cache_hits.load(Ordering::Relaxed),
            // relaxed-ok: see above.
            misses: self.cache_misses.load(Ordering::Relaxed),
        }
    }

    /// Looks up (or compiles, verifies and caches) a plan for `sql`
    /// under the given settings. A hit must have been compiled at the
    /// current stats version; it was plancheck-clean when inserted and
    /// has been immutable since.
    fn cached_plan(&self, sql: &str, settings: &SessionSettings) -> Result<Arc<Plan>> {
        let key = CacheKey {
            tokens: fingerprint(sql)?,
            level: settings.level,
            parallelism: settings.parallelism,
            apply_strategy: settings.apply_strategy,
        };
        let version = self.stats_version();
        let hit = {
            let mut cache = self.cache.lock();
            let hit = match cache.map.get(&key) {
                Some(entry) if entry.stats_version == version => Some(Arc::clone(&entry.plan)),
                // Stale version: recompile.
                Some(_) => {
                    cache.remove(&key);
                    None
                }
                None => None,
            };
            if hit.is_some() {
                cache.touch(&key);
            }
            hit
        };
        if let Some(plan) = hit {
            if orthopt_plancheck::enabled() {
                plan.check()?;
            }
            // relaxed-ok: monitoring counter.
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(plan);
        }
        // relaxed-ok: monitoring counter.
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
        let plan = Arc::new(compile_plan(&self.catalog, sql, settings)?);
        plan.check()?;
        self.cache.lock().insert(
            key,
            CacheEntry {
                plan: Arc::clone(&plan),
                stats_version: version,
            },
        );
        Ok(plan)
    }

    /// Looks up (or compiles and caches) the plan for `sql` under the
    /// given settings, without executing it. This is the same path
    /// [`Session::execute`] and [`Database::plan`](crate::Database::plan)
    /// take — exposed so tools and the model-checking harnesses can
    /// drive the cache protocol (stale-hit invalidation, concurrent
    /// compile races) directly.
    pub fn prepare(&self, sql: &str, settings: &SessionSettings) -> Result<Arc<Plan>> {
        self.cached_plan(sql, settings)
    }

    /// Passes a query through admission control, blocking in the
    /// bounded wait queue while the global budget is oversubscribed.
    /// Returns `None` when admission is disabled.
    fn admit(&self, budget: u64, cancel: &CancellationToken) -> Result<Option<AdmissionGuard>> {
        match &self.admission {
            None => Ok(None),
            Some(ctrl) => ctrl.admit(budget, cancel).map(Some),
        }
    }
}

// -----------------------------------------------------------------
// Session.
// -----------------------------------------------------------------

/// One client's view of a shared [`Engine`]: settings plus a
/// session-level cancellation handle. Dropping (or [`close`]
/// (Session::close)-ing) the session cancels any query it has in
/// flight — the networked server relies on this when a connection
/// disappears mid-query.
#[derive(Debug)]
pub struct Session {
    engine: Arc<Engine>,
    settings: SessionSettings,
    cancel: CancellationToken,
}

impl Session {
    /// The owning engine.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Current settings.
    pub fn settings(&self) -> &SessionSettings {
        &self.settings
    }

    /// Mutable settings access (embedders; the wire protocol goes
    /// through [`set`](Self::set)).
    pub fn settings_mut(&mut self) -> &mut SessionSettings {
        &mut self.settings
    }

    /// A clone of the session-level cancellation handle; firing it
    /// aborts the session's in-flight query from any thread.
    pub fn cancel_handle(&self) -> CancellationToken {
        self.cancel.clone()
    }

    /// Cancels any in-flight query and marks the session closed.
    /// Subsequent `execute` calls fail with `Cancelled`.
    pub fn close(&self) {
        self.cancel.cancel();
    }

    /// Applies a `SET <name> <value>` assignment. Names:
    /// `parallelism`, `mem_limit` (bytes, `k`/`m`/`g` suffix,
    /// `none`), `timeout_ms` (`none` to clear), `level`
    /// (`correlated`/`decorrelated`/`groupby`/`full`),
    /// `apply_strategy` (`auto`/`loop`/`index`).
    pub fn set(&mut self, name: &str, value: &str) -> Result<()> {
        let v = value.trim();
        match name.trim().to_ascii_lowercase().as_str() {
            "parallelism" => {
                let n: usize = v
                    .parse()
                    .map_err(|_| Error::Plan(format!("invalid parallelism: {v}")))?;
                self.settings.parallelism = n.clamp(1, orthopt_exec::parallel::MAX_WORKERS);
            }
            "mem_limit" => {
                self.settings.mem_limit = if v.eq_ignore_ascii_case("none") {
                    None
                } else {
                    Some(
                        crate::parse_bytes(v)
                            .ok_or_else(|| Error::Plan(format!("invalid mem_limit: {v}")))?,
                    )
                };
            }
            "timeout_ms" => {
                self.settings.timeout = if v.eq_ignore_ascii_case("none") {
                    None
                } else {
                    Some(Duration::from_millis(v.parse().map_err(|_| {
                        Error::Plan(format!("invalid timeout_ms: {v}"))
                    })?))
                };
            }
            "level" => {
                self.settings.level = OptimizerLevel::parse(v)
                    .ok_or_else(|| Error::Plan(format!("invalid level: {v}")))?;
            }
            "apply_strategy" => {
                self.settings.apply_strategy = ApplyStrategy::parse(v)
                    .ok_or_else(|| Error::Plan(format!("invalid apply_strategy: {v}")))?;
            }
            other => return Err(Error::Plan(format!("unknown setting: {other}"))),
        }
        Ok(())
    }

    /// Write access to the catalog of an engine only this session
    /// holds; every cached plan is invalidated.
    ///
    /// # Panics
    /// Panics if the engine or its catalog is shared — another session,
    /// an in-flight query or a `shared_catalog` handle holds it.
    pub(crate) fn catalog_mut(&mut self) -> &mut Catalog {
        let engine = Arc::get_mut(&mut self.engine)
            .expect("engine mutated while shared with other sessions");
        engine.bump_stats_version();
        Arc::get_mut(&mut engine.catalog)
            .expect("catalog mutated while shared with sessions or in-flight queries")
    }

    /// The cached plan for `sql` at the session's settings; a closed
    /// session refuses before compiling anything.
    fn plan(&self, sql: &str) -> Result<Arc<Plan>> {
        self.cancel.check("session")?;
        self.engine.cached_plan(sql, &self.settings)
    }

    /// Compiles (or fetches from the plan cache) and executes `sql` at
    /// the session's optimizer level, under admission control and the
    /// session's governance settings.
    pub fn execute(&self, sql: &str) -> Result<QueryResult> {
        self.collect(&*self.plan(sql)?, None)
    }

    /// [`execute`](Self::execute) without the materialization: each
    /// result batch goes to `sink` as presentation columns, and the plan
    /// comes back for its output names.
    pub(crate) fn execute_each(&self, sql: &str, sink: &mut BatchSink<'_>) -> Result<Arc<Plan>> {
        let plan = self.plan(sql)?;
        self.run(&plan, None, sink)?;
        Ok(plan)
    }

    /// [`run`](Self::run)s `plan` and materializes its result rows.
    pub(crate) fn collect(&self, plan: &Plan, gov: Option<QueryContext>) -> Result<QueryResult> {
        let mut rows = Vec::new();
        self.run(plan, gov, &mut |columns, len| {
            rows.extend(columns_to_rows(columns, len));
            Ok(())
        })?;
        Ok(QueryResult {
            columns: column_names(&plan.output),
            rows,
        })
    }

    /// The one place a query runs. Under `gov` when the caller brings
    /// one (its own budget, deadline and cancellation handle), otherwise
    /// under the session's: a child of the session token — close/drop
    /// aborts the query, the `timeout` deadline stays private to it —
    /// plus `mem_limit`. Admission reserves the declared budget against
    /// the engine's global limit for the whole execution; the guard
    /// releases (and wakes queued queries) on every exit path. The
    /// finished pipeline comes back for `EXPLAIN ANALYZE`'s stats.
    pub(crate) fn run(
        &self,
        plan: &Plan,
        gov: Option<QueryContext>,
        sink: &mut BatchSink<'_>,
    ) -> Result<Pipeline> {
        let gov = gov.unwrap_or_else(|| {
            let token = self.cancel.child_with_deadline(self.settings.timeout);
            let gov = QueryContext::new().with_cancel_token(token);
            match self.settings.mem_limit {
                Some(limit) => gov.with_memory_limit(limit),
                None => gov,
            }
        });
        let budget = gov
            .mem_limit()
            .unwrap_or(self.engine.config.default_query_mem);
        let _admitted = self.engine.admit(budget, gov.cancel_token())?;
        run_plan(&self.engine.catalog, plan, &self.settings, gov, sink)
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        // A dropped session (connection gone) must not leave its query
        // running against the shared engine.
        self.cancel.cancel();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orthopt_common::{DataType, Value};
    use orthopt_storage::{ColumnDef, TableDef};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let t = c
            .create_table(TableDef::new(
                "t",
                vec![
                    ColumnDef::new("k", DataType::Int),
                    ColumnDef::new("v", DataType::Int),
                ],
                vec![vec![0]],
            ))
            .unwrap();
        c.table_mut(t)
            .insert_all((0..100).map(|i| vec![Value::Int(i), Value::Int(i % 7)]))
            .unwrap();
        c.analyze_all();
        c
    }

    #[test]
    fn session_executes_and_caches_plans() {
        let engine = Engine::with_defaults(catalog());
        let s = engine.session();
        let a = s.execute("select count(*) from t where v = 3").unwrap();
        let b = s
            .execute("SELECT  count(*)  FROM t  -- v = 4\nwhere v = 3")
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(a.rows, vec![vec![Value::Int(14)]]);
        let stats = engine.cache_stats();
        assert_eq!(stats.misses, 1, "one token stream, one entry");
        assert_eq!(stats.hits, 1);
    }

    /// Texts that differ only inside a string literal (plain or with a
    /// `''` escape) or in where a `--` comment ends are different
    /// queries: each gets its own plan and its own answer, through a
    /// session and through a `Database` alike.
    #[test]
    fn cache_keeps_literals_and_comment_ends_apart() {
        let mut c = Catalog::new();
        let t = c
            .create_table(TableDef::new(
                "t",
                vec![ColumnDef::new("s", DataType::Str)],
                vec![],
            ))
            .unwrap();
        for (text, n) in [("a b", 1), ("a  b", 2), ("it's x", 3), ("it's  x", 4)] {
            c.table_mut(t)
                .insert_all((0..n).map(|_| vec![Value::str(text)]))
                .unwrap();
        }
        c.analyze_all();
        let cases = [
            ("select count(*) from t where s = 'a  b'", 2),
            ("select count(*) from t where s = 'a b'", 1),
            ("select count(*) from t where s = 'it''s  x'", 4),
            ("select count(*) from t where s = 'it''s x'", 3),
            ("select count(*) from t -- x\nwhere s = 'a b'", 1),
            ("select count(*) from t -- x where s = 'a b'", 10),
        ];
        let db = crate::Database::from_catalog(c);
        let session = db.engine().session();
        for (sql, n) in cases {
            let want = vec![vec![Value::Int(n)]];
            assert_eq!(session.execute(sql).unwrap().rows, want, "session: {sql}");
            assert_eq!(db.execute(sql).unwrap().rows, want, "database: {sql}");
        }
        // Five queries; the commented spelling of `s = 'a b'` is the same
        // token stream as the plain one.
        assert_eq!(db.engine().cache_stats().misses, 5);
    }

    #[test]
    fn stats_version_bump_invalidates_cache() {
        let engine = Engine::with_defaults(catalog());
        let s = engine.session();
        s.execute("select k from t where v = 1").unwrap();
        engine.bump_stats_version();
        s.execute("select k from t where v = 1").unwrap();
        let stats = engine.cache_stats();
        assert_eq!(stats.misses, 2, "bump forces recompilation");
        assert_eq!(stats.hits, 0);
    }

    #[test]
    fn settings_fingerprint_splits_cache_entries() {
        let engine = Engine::with_defaults(catalog());
        let mut s = engine.session();
        s.set("parallelism", "1").unwrap(); // whatever ORTHOPT_PARALLELISM says
        s.execute("select k from t").unwrap();
        s.set("parallelism", "4").unwrap();
        s.execute("select k from t").unwrap();
        assert_eq!(engine.cache_stats().misses, 2);
    }

    #[test]
    fn closed_session_refuses_queries() {
        let engine = Engine::with_defaults(catalog());
        let s = engine.session();
        s.close();
        assert!(matches!(
            s.execute("select k from t"),
            Err(Error::Cancelled { .. })
        ));
    }

    #[test]
    fn set_rejects_nonsense() {
        let engine = Engine::with_defaults(catalog());
        let mut s = engine.session();
        assert!(s.set("parallelism", "banana").is_err());
        assert!(s.set("no_such_knob", "1").is_err());
        s.set("level", "correlated").unwrap();
        assert_eq!(s.settings().level, OptimizerLevel::Correlated);
        for knob in ["columnar", "spill"] {
            assert_eq!(
                s.set(knob, "on"),
                Err(Error::Plan(format!("unknown setting: {knob}")))
            );
        }
        s.set("mem_limit", "4m").unwrap();
        assert_eq!(s.settings().mem_limit, Some(4 << 20));
        s.set("mem_limit", "none").unwrap();
        assert_eq!(s.settings().mem_limit, None);
    }

    /// `apply_strategy` takes `auto`, `loop` and `index`; `batched`,
    /// whose operator is gone, is refused like any unknown value.
    #[test]
    fn set_apply_strategy_refuses_batched() {
        let engine = Engine::with_defaults(catalog());
        let mut s = engine.session();
        for v in ["auto", "loop", "index"] {
            s.set("apply_strategy", v).unwrap();
            assert_eq!(s.settings().apply_strategy.name(), v);
        }
        assert_eq!(
            s.set("apply_strategy", "batched"),
            Err(Error::Plan("invalid apply_strategy: batched".into()))
        );
        assert_eq!(s.settings().apply_strategy, ApplyStrategy::Index);
    }

    #[test]
    fn cache_evicts_least_recently_used() {
        let engine = Engine::new(
            catalog(),
            EngineConfig {
                plan_cache_cap: 2,
                ..EngineConfig::default()
            },
        );
        let s = engine.session();
        s.execute("select k from t where v = 0").unwrap();
        s.execute("select k from t where v = 1").unwrap();
        // Touch the first so the second is the LRU victim.
        s.execute("select k from t where v = 0").unwrap();
        s.execute("select k from t where v = 2").unwrap();
        s.execute("select k from t where v = 0").unwrap();
        let stats = engine.cache_stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 3);
    }
}
