//! The traced pass: after the timed window, every class is taken apart
//! in-process — parse → bind → normalize → search → plancheck → compile
//! → execute → `Session::execute` → `Client::query` — with a span around
//! each call. The spans are recorded here, outside the engine, around
//! calls into public functions only; spans inside the engine are a
//! later change.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use orthopt::common::QueryContext;
use orthopt::exec::{phys_node_labels, spill, Bindings, OpStats, Pipeline, PipelineOptions};
use orthopt::optimizer::search::optimize_with_presentation;
use orthopt::rewrite::pipeline::{classify, normalize};
use orthopt::{Client, OptimizerLevel, Plan};

use crate::bench::Metric;
use crate::json::Json;
use crate::run::{query_under, Env, Feeder};
use crate::stats;
use crate::workload::{Class, Settings, DEFAULTS};

/// Operator kinds self time is reported by.
pub const OP_KINDS: [&str; 9] = [
    "scan",
    "filter_project",
    "hash_join",
    "hash_agg",
    "sort",
    "apply",
    "segment",
    "exchange",
    "other",
];

/// Kind of an operator from its `phys_node_labels` label.
fn op_kind(label: &str) -> usize {
    const PREFIXES: [(&str, usize); 15] = [
        ("TableScan", 0),
        ("IndexSeek", 0),
        ("SegmentScan", 0),
        ("ConstScan", 0),
        ("MorselScan", 0),
        ("Filter", 1),
        ("Compute", 1),
        ("Project", 1),
        ("HashAggregate", 3),
        ("Hash", 2),
        ("Sort", 4),
        ("ApplyLoop", 5),
        ("BatchedApply", 5),
        ("IndexLookupJoin", 5),
        ("SegmentExec", 6),
    ];
    if label == "Exchange" {
        return 7;
    }
    PREFIXES
        .iter()
        .find(|(p, _)| label.starts_with(p))
        .map_or(8, |(_, k)| *k)
}

/// Self time per operator kind in milliseconds. `OpStats::elapsed` is
/// inclusive, so an operator's own time is its elapsed minus its
/// children's; `labels` carries each node's depth in pre-order, which
/// is all the tree shape this needs.
pub fn op_self_ms(labels: &[(usize, String)], stats: &[OpStats]) -> [f64; OP_KINDS.len()] {
    let mut out = [0.0; OP_KINDS.len()];
    for (i, ((depth, label), s)) in labels.iter().zip(stats).enumerate() {
        let children: Duration = labels[i + 1..]
            .iter()
            .zip(&stats[i + 1..])
            .take_while(|((d, _), _)| d > depth)
            .filter(|((d, _), _)| *d == depth + 1)
            .map(|(_, c)| c.elapsed)
            .sum();
        out[op_kind(label)] += s.elapsed.saturating_sub(children).as_secs_f64() * 1e3;
    }
    out
}

/// One timed call. `parent` and `query_id` tie the spans of one
/// repetition together.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub class: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub query_id: usize,
}

/// Spans are kept in memory and written out when the run ends.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    class: &'static str,
    queries: usize,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens the root span of a new repetition.
    fn root(&mut self, name: &'static str) -> usize {
        self.queries += 1;
        self.spans.push(Span {
            name,
            class: self.class,
            start_ns: self.now(),
            end_ns: 0,
            parent: None,
            query_id: self.queries,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Times one call as a child of `parent`.
    fn child<T>(&mut self, parent: usize, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        self.spans.push(Span {
            name,
            class: self.class,
            start_ns,
            end_ns,
            parent: Some(parent),
            query_id: self.spans[parent].query_id,
        });
        out
    }

    /// Median microseconds of each span name recorded for `class`.
    fn medians_us(&self, class: &str) -> BTreeMap<&'static str, f64> {
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.class == class) {
            let us = (s.end_ns - s.start_ns) as f64 / 1e3;
            by_name.entry(s.name).or_default().push(us);
        }
        by_name
            .into_iter()
            .filter_map(|(name, us)| Some((name, stats::median(&us)?)))
            .collect()
    }
}

/// What the traced pass learned about one class: median microseconds of
/// each span, and the exact counts of one execution.
pub struct ClassTrace {
    pub name: &'static str,
    pub cold: bool,
    pub settings: Settings,
    pub per_round: f64,
    pub us: BTreeMap<&'static str, f64>,
    pub counts: BTreeMap<&'static str, f64>,
    pub self_ms: [f64; OP_KINDS.len()],
}

impl ClassTrace {
    pub fn us(&self, name: &str) -> f64 {
        self.us.get(name).copied().unwrap_or(0.0)
    }

    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// `Session::execute` minus the stages it runs: compile + execute
    /// on a plan-cache hit, and the whole plan path too on a miss. What
    /// is left is cache lookup (with its plancheck re-verification of a
    /// hit), admission and `present`.
    fn session_overhead_us(&self) -> f64 {
        let planning: f64 = ["parse", "bind", "normalize", "search"]
            .iter()
            .map(|s| self.us(s))
            .sum();
        let stages =
            self.us("compile") + self.us("execute") + if self.cold { planning } else { 0.0 };
        self.us("session_execute") - stages
    }

    /// `Client::query` minus `Session::execute`: rendering, framing and
    /// the loopback. Not measured for a cold class.
    fn wire_overhead_us(&self) -> f64 {
        if self.cold {
            0.0
        } else {
            self.us("client_query") - self.us("session_execute")
        }
    }

    pub fn to_json(&self) -> Json {
        let nums =
            |m: &BTreeMap<&'static str, f64>| Json::obj(m.iter().map(|(k, v)| (*k, Json::Num(*v))));
        Json::obj([
            ("median_us", nums(&self.us)),
            ("counts", nums(&self.counts)),
            (
                "op_self_ms",
                Json::obj(
                    OP_KINDS
                        .iter()
                        .zip(self.self_ms)
                        .map(|(k, v)| (*k, Json::Num(v))),
                ),
            ),
        ])
    }
}

pub struct Traced {
    pub spans: Vec<Span>,
    pub classes: Vec<ClassTrace>,
    pub ping_rtt_us: f64,
    pub connect_us: f64,
    pub errors: Vec<String>,
}

/// Repetitions of a traced step: about a second's worth, at least 3 and
/// at most 20 (`cap` lowers both for `--smoke`).
fn reps(first: Duration, cap: usize) -> usize {
    ((1.0 / first.as_secs_f64().max(1e-9)) as usize).clamp(3.min(cap), cap)
}

fn repeat(cap: usize, mut body: impl FnMut() -> Result<(), String>) -> Result<(), String> {
    let t = Instant::now();
    body()?;
    for _ in 1..reps(t.elapsed(), cap) {
        body()?;
    }
    Ok(())
}

fn governor(limit: Option<u64>) -> QueryContext {
    limit.map_or_else(QueryContext::new, |b| {
        QueryContext::new().with_memory_limit(b)
    })
}

/// A budget no query here reaches: what the accounting alone costs.
const NON_BINDING_LIMIT: u64 = 1 << 30;

pub fn traced_pass(
    classes: &[Class],
    env: &Env,
    client: &mut Client,
    feeder: &mut Feeder,
    smoke: bool,
) -> Traced {
    let cap = if smoke { 1 } else { 20 };
    let mut tr = Tracer {
        origin: Instant::now(),
        spans: Vec::new(),
        class: "",
        queries: 0,
    };
    let mut out = Vec::new();
    let mut errors = Vec::new();
    for class in classes {
        tr.class = class.name;
        match trace_class(class, env, client, feeder, &mut tr, cap) {
            Ok(ct) => out.push(ct),
            Err(e) => errors.push(format!("trace {}: {e}", class.name)),
        }
    }

    let pings: Vec<f64> = (0..200)
        .map(|_| {
            let t = Instant::now();
            let _ = client.ping();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    let connects: Vec<f64> = (0..20)
        .map(|_| {
            let t = Instant::now();
            let c = env.connect();
            let us = t.elapsed().as_secs_f64() * 1e6;
            let _ = c.close();
            us
        })
        .collect();
    Traced {
        spans: tr.spans,
        classes: out,
        ping_rtt_us: stats::median(&pings).unwrap_or(0.0),
        connect_us: stats::median(&connects).unwrap_or(0.0),
        errors,
    }
}

fn trace_class(
    class: &Class,
    env: &Env,
    client: &mut Client,
    feeder: &mut Feeder,
    tr: &mut Tracer,
    cap: usize,
) -> Result<ClassTrace, String> {
    let catalog = env.db.catalog();
    let level = OptimizerLevel::Full;
    let settings = class.settings;
    let err = |e: orthopt::common::Error| e.to_string();
    let mut counts: BTreeMap<&'static str, f64> = BTreeMap::new();

    // Plan: the path a plan-cache miss pays. A cold class plans a fresh
    // text every repetition, as its clients do.
    let mut plan: Option<Plan> = None;
    let mut violations = 0.0;
    repeat(cap, || {
        let (sql, _) = feeder.next(&class.text);
        let root = tr.root("plan");
        let ast = tr
            .child(root, "parse", || orthopt::sql::parse(&sql))
            .map_err(err)?;
        let bound = tr
            .child(root, "bind", || orthopt::sql::bind(&ast, catalog))
            .map_err(err)?;
        let (logical, normal_form) = tr
            .child(root, "normalize", || {
                normalize(bound.rel, level.rewrite_config()).map(|n| {
                    let nf = classify(&n);
                    (n, nf)
                })
            })
            .map_err(err)?;
        let mut config = level.optimizer_config();
        config.parallelism = settings.parallelism;
        let (physical, search) = tr
            .child(root, "search", || {
                optimize_with_presentation(logical.clone(), bound.order_by, bound.limit, &config)
            })
            .map_err(err)?;
        let p = Plan {
            physical,
            logical,
            output: bound.output,
            normal_form,
            search,
        };
        if tr
            .child(root, "plancheck", || env.db.check_plan(&p))
            .is_err()
        {
            violations += 1.0;
        }
        tr.close(root);
        // Counts come off the first text's plan, so they repeat exactly
        // however many repetitions the clock allowed.
        plan.get_or_insert(p);
        Ok(())
    })?;
    let plan = plan.expect("at least one repetition ran");
    let labels = phys_node_labels(&plan.physical);
    let starts = |p: &str| labels.iter().filter(|(_, l)| l.starts_with(p)).count() as f64;
    counts.insert("residual_applies", plan.normal_form.applies as f64);
    counts.insert("memo_groups", plan.search.groups as f64);
    counts.insert("memo_exprs", plan.search.exprs as f64);
    counts.insert("exchanges_placed", starts("Exchange"));
    counts.insert("apply_loop", starts("ApplyLoop"));
    counts.insert("apply_batched", starts("BatchedApply"));
    counts.insert("apply_index", starts("IndexLookupJoin"));
    counts.insert("plancheck_violations", violations);

    // Run: what a plan-cache hit still pays.
    let compile = |tr: &mut Tracer, root, limit| {
        tr.child(root, "compile", || {
            Pipeline::with_options(&plan.physical, PipelineOptions::default()).map(|mut p| {
                p.set_parallelism(settings.parallelism);
                p.set_governor(governor(limit));
                p.set_shared_catalog(env.engine.shared_catalog());
                p
            })
        })
        .map_err(err)
    };
    let mut first_stats: Option<Vec<OpStats>> = None;
    let mut result_rows = 0;
    let mut restored = 0;
    repeat(cap, || {
        let root = tr.root("run");
        let mut pipeline = compile(tr, root, settings.mem_limit)?;
        let restored_before = spill::total_restored_bytes();
        let chunk = tr
            .child(root, "execute", || {
                pipeline.execute(catalog, &Bindings::new())
            })
            .map_err(err)?;
        tr.close(root);
        if first_stats.is_none() {
            restored = spill::total_restored_bytes() - restored_before;
            result_rows = chunk.len();
            first_stats = Some(pipeline.stats());
        }
        Ok(())
    })?;
    // The same under a budget it never reaches: what the accounting
    // alone costs. Its own loop, so both executions meet the allocator
    // in the same state.
    let mut mem_peak = 0;
    repeat(cap, || {
        let root = tr.root("run_governed");
        let mut pipeline = compile(tr, root, Some(NON_BINDING_LIMIT))?;
        tr.child(root, "execute_governed", || {
            pipeline.execute(catalog, &Bindings::new())
        })
        .map_err(err)?;
        tr.close(root);
        mem_peak = pipeline.governor().mem_peak().unwrap_or(0);
        Ok(())
    })?;
    let op_stats = first_stats.expect("at least one repetition ran");
    let sum = |f: fn(&OpStats) -> u64| op_stats.iter().map(f).sum::<u64>() as f64;
    let scan_rows: u64 = labels
        .iter()
        .zip(&op_stats)
        .filter(|((_, l), _)| op_kind(l) == 0)
        .map(|(_, s)| s.rows)
        .sum();
    counts.insert("scan_rows", scan_rows as f64);
    counts.insert("result_rows", result_rows as f64);
    counts.insert("op_opens", sum(|s| s.opens));
    counts.insert("kernel_calls", sum(|s| s.kernels));
    counts.insert("bridged_batches", sum(|s| s.bridged));
    counts.insert("distinct_bindings", sum(|s| s.distinct_bindings));
    counts.insert("index_probes", sum(|s| s.index_probes));
    counts.insert("mem_peak_bytes", mem_peak as f64);
    counts.insert("spilled_bytes", sum(|s| s.spilled_bytes));
    counts.insert("spill_partitions", sum(|s| s.spill_partitions));
    counts.insert("restored_bytes", restored as f64);
    let workers = op_stats.iter().map(|s| s.workers).max().unwrap_or(0);
    counts.insert("workers_used", workers as f64);
    let skew = op_stats
        .iter()
        .filter(|s| s.workers > 0 && s.rows > 0)
        .map(|s| s.worker_rows_max as f64 / (s.rows as f64 / s.workers as f64))
        .fold(0.0, f64::max);
    counts.insert("worker_skew", skew);

    // Session: the whole in-process path, then a bare cache lookup on
    // the key it just filled.
    let mut session = env.engine.session();
    session.settings_mut().parallelism = settings.parallelism;
    session.settings_mut().mem_limit = settings.mem_limit;
    repeat(cap, || {
        let (sql, _) = feeder.next(&class.text);
        let root = tr.root("session");
        tr.child(root, "session_execute", || session.execute(&sql))
            .map_err(err)?;
        tr.child(root, "prepare_hit", || {
            env.engine.prepare(&sql, session.settings())
        })
        .map_err(err)?;
        tr.close(root);
        Ok(())
    })?;

    // Client: the same query through TCP, alternately with and without
    // a span, which is what tracing itself costs. A cold class would
    // need one more plan per repetition for it and is left out.
    let mut untraced_us = Vec::new();
    let mut reply_bytes = 0;
    if !class.is_cold() {
        repeat(cap, || {
            let (sql, _) = feeder.next(&class.text);
            let root = tr.root("client");
            let (reply, sent, received) = query_under(client, settings, &sql);
            tr.spans.push(Span {
                name: "client_query",
                class: class.name,
                start_ns: (sent - tr.origin).as_nanos() as u64,
                end_ns: (received - tr.origin).as_nanos() as u64,
                parent: Some(root),
                query_id: tr.spans[root].query_id,
            });
            tr.close(root);
            reply_bytes = reply?.len();
            let (reply, sent, received) = query_under(client, settings, &sql);
            reply?;
            untraced_us.push((received - sent).as_secs_f64() * 1e6);
            Ok(())
        })?;
    }
    counts.insert("reply_bytes", reply_bytes as f64);

    let mut us = tr.medians_us(class.name);
    if let Some(m) = stats::median(&untraced_us) {
        us.insert("client_query_untraced", m);
    }
    Ok(ClassTrace {
        name: class.name,
        cold: class.is_cold(),
        settings,
        per_round: class.per_round as f64 / class.every as f64,
        us,
        counts,
        self_ms: op_self_ms(&labels, &op_stats),
    })
}

impl Traced {
    fn class(&self, name: &str) -> Option<&ClassTrace> {
        self.classes.iter().find(|c| c.name == name)
    }

    /// Geometric mean over classes of a span's median.
    fn geomean_us(&self, name: &str) -> f64 {
        let xs: Vec<f64> = self.classes.iter().map(|c| c.us(name)).collect();
        stats::geomean(&xs).unwrap_or(0.0)
    }

    fn sum(&self, name: &str) -> f64 {
        self.classes.iter().map(|c| c.count(name)).sum()
    }

    fn ratio_us(&self, over: &str, under: &str, span: &str) -> f64 {
        match (self.class(over), self.class(under)) {
            (Some(a), Some(b)) if b.us(span) > 0.0 => a.us(span) / b.us(span),
            _ => 0.0,
        }
    }

    /// The per-layer metrics the traced pass yields, as `(name, unit,
    /// value)`. Times are geometric means over the workload's classes of
    /// each class's median; counts are sums over the classes of one
    /// execution each; the two overheads are differences of medians,
    /// which can be negative for one class, so they are summed. A metric
    /// whose classes the workload does not have reads 0.
    pub fn metrics(&self) -> Vec<Metric> {
        // Geometric mean over the classes of a span's median.
        const TIMES: [(&str, &str); 8] = [
            ("sql.parse_us", "parse"),
            ("sql.bind_us", "bind"),
            ("rewrite.normalize_us", "normalize"),
            ("optimizer.search_us", "search"),
            ("plancheck.check_us", "plancheck"),
            ("exec.compile_us", "compile"),
            ("exec.execute_us", "execute"),
            ("core.session.prepare_hit_us", "prepare_hit"),
        ];
        // Sum over the classes of one execution's count.
        const COUNTS: [(&str, &str); 18] = [
            ("rewrite.residual_applies", "residual_applies"),
            ("optimizer.memo_groups", "memo_groups"),
            ("optimizer.memo_exprs", "memo_exprs"),
            ("optimizer.exchanges_placed", "exchanges_placed"),
            ("optimizer.apply_loop", "apply_loop"),
            ("optimizer.apply_batched", "apply_batched"),
            ("optimizer.apply_index", "apply_index"),
            ("plancheck.violations", "plancheck_violations"),
            ("exec.scan_rows", "scan_rows"),
            ("exec.op_opens", "op_opens"),
            ("exec.kernel_calls", "kernel_calls"),
            ("exec.bridged_batches", "bridged_batches"),
            ("exec.distinct_bindings", "distinct_bindings"),
            ("exec.index_probes", "index_probes"),
            ("exec.mem_peak_bytes", "mem_peak_bytes"),
            ("exec.spill.spilled_bytes", "spilled_bytes"),
            ("exec.spill.restored_bytes", "restored_bytes"),
            ("exec.spill.partitions", "spill_partitions"),
        ];
        let mut m: Vec<Metric> = Vec::new();
        let mut put = |name: &str, unit: &'static str, v: f64| m.push((name.to_string(), unit, v));
        for (name, span) in TIMES {
            put(name, "us", self.geomean_us(span));
        }
        for (name, count) in COUNTS {
            put(name, "count", self.sum(count));
        }
        put(
            "exec.rows_examined_per_result",
            "ratio",
            self.sum("scan_rows") / self.sum("result_rows").max(1.0),
        );
        for (k, kind) in OP_KINDS.iter().enumerate() {
            let total: f64 = self.classes.iter().map(|c| c.self_ms[k]).sum();
            put(&format!("exec.self_ms.{kind}"), "ms", total);
        }
        // Base: the serial class's execute median over the parallel one's.
        put(
            "exec.parallel.par2_speedup",
            "ratio",
            self.ratio_us("agg_lowcard", "agg_par2", "execute"),
        );
        let par = self.class("agg_par2");
        put(
            "exec.parallel.workers_used",
            "count",
            par.map_or(0.0, |c| c.count("workers_used")),
        );
        put(
            "exec.parallel.worker_skew",
            "ratio",
            par.map_or(0.0, |c| c.count("worker_skew")),
        );
        put(
            "exec.spill.live_dirs_after",
            "count",
            spill::live_dirs() as f64,
        );
        // Base: the in-memory sort's execute median under the spilled one's.
        put(
            "exec.spill.sort_ratio",
            "ratio",
            self.ratio_us("sort_spill", "sort_all", "execute"),
        );
        put(
            "core.session.overhead_us",
            "us",
            self.classes
                .iter()
                .map(ClassTrace::session_overhead_us)
                .sum(),
        );
        // Governed vs. ungoverned execute, over default-settings classes
        // long enough (>= 30 ms) for the difference to clear timer noise.
        let (governed, plain) = self
            .classes
            .iter()
            .filter(|c| c.settings == DEFAULTS && c.us("execute") >= 30_000.0)
            .fold((0.0, 0.0), |(g, p), c| {
                (g + c.us("execute_governed"), p + c.us("execute"))
            });
        put(
            "common.governor.governed_overhead_pct",
            "%",
            if plain > 0.0 {
                (governed / plain - 1.0) * 100.0
            } else {
                0.0
            },
        );
        put("core.server.ping_rtt_us", "us", self.ping_rtt_us);
        put("core.server.connect_us", "us", self.connect_us);
        put(
            "core.server.wire_overhead_us",
            "us",
            self.classes.iter().map(ClassTrace::wire_overhead_us).sum(),
        );
        let bulk = || {
            ["sort_all", "scan_filter_wide"]
                .iter()
                .filter_map(|n| self.class(n))
        };
        let bulk_us: f64 = bulk().map(ClassTrace::wire_overhead_us).sum();
        put(
            "core.server.reply_mb_per_s",
            "MB/s",
            if bulk_us > 0.0 {
                bulk().map(|c| c.count("reply_bytes")).sum::<f64>() / bulk_us
            } else {
                0.0
            },
        );
        let overhead: Vec<f64> = self
            .classes
            .iter()
            .filter(|c| c.us("client_query_untraced") > 0.0)
            .map(|c| c.us("client_query") / c.us("client_query_untraced"))
            .collect();
        put(
            "client.trace_overhead_pct",
            "%",
            stats::geomean(&overhead).map_or(0.0, |g| (g - 1.0) * 100.0),
        );
        m
    }

    /// Share of the traced per-round time each layer holds: every
    /// class's median weighted by how often a round issues it. This is
    /// the table that says which layer dominates a workload.
    /// `exec.sort` is a part of `exec`, not a layer beside it.
    pub fn shares(&self) -> Vec<(&'static str, f64)> {
        let per_round = |f: &dyn Fn(&ClassTrace) -> f64| -> f64 {
            self.classes.iter().map(|c| c.per_round * f(c)).sum()
        };
        // A warm class plans once per run, not once per round.
        let planning = |spans: &'static [&'static str]| {
            per_round(&|c| {
                if c.cold {
                    spans.iter().map(|s| c.us(s)).sum()
                } else {
                    0.0
                }
            })
        };
        let exec = per_round(&|c| c.us("compile") + c.us("execute"));
        let layers = [
            ("sql", planning(&["parse", "bind"])),
            ("rewrite", planning(&["normalize"])),
            ("optimizer", planning(&["search"])),
            ("exec", exec),
            ("core.session", per_round(&ClassTrace::session_overhead_us)),
            ("core.server", per_round(&ClassTrace::wire_overhead_us)),
        ];
        let total: f64 = layers.iter().map(|(_, v)| v).sum();
        let sort_kind = OP_KINDS.iter().position(|k| *k == "sort").expect("a kind");
        let sort = per_round(&|c| c.self_ms[sort_kind] * 1e3);
        layers
            .into_iter()
            .chain([("exec.sort", sort)])
            .map(|(n, v)| (n, if total > 0.0 { v / total } else { 0.0 }))
            .collect()
    }

    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        Json::obj([
            ("workload", Json::str(workload)),
            ("seed", Json::Num(seed as f64)),
            (
                "classes",
                Json::obj(self.classes.iter().map(|c| (c.name, c.to_json()))),
            ),
            (
                "spans",
                Json::Arr(
                    self.spans
                        .iter()
                        .enumerate()
                        .map(|(id, s)| {
                            Json::obj([
                                ("id", Json::Num(id as f64)),
                                ("name", Json::str(s.name)),
                                ("class", Json::str(s.class)),
                                ("start_ns", Json::Num(s.start_ns as f64)),
                                ("end_ns", Json::Num(s.end_ns as f64)),
                                (
                                    "parent",
                                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                                ),
                                ("query_id", Json::Num(s.query_id as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(ms: u64) -> OpStats {
        OpStats {
            elapsed: Duration::from_millis(ms),
            ..OpStats::default()
        }
    }

    #[test]
    fn self_time_is_elapsed_minus_children() {
        // Sort(100) ─ HashInner(80) ─┬─ TableScan(30)
        //                            └─ Filter(25) ─ TableScan(20)
        let labels: Vec<(usize, String)> = [
            (0, "Sort [c1]"),
            (1, "HashInner on c1=c2"),
            (2, "TableScan t0 [2 cols]"),
            (2, "Filter c3 > 1"),
            (3, "TableScan t1 [1 cols]"),
        ]
        .map(|(d, l)| (d, l.to_string()))
        .to_vec();
        let stats = [op(100), op(80), op(30), op(25), op(20)];
        let got = op_self_ms(&labels, &stats);
        let want = |k: &str| got[OP_KINDS.iter().position(|x| *x == k).unwrap()];
        assert!((want("sort") - 20.0).abs() < 1e-9);
        assert!((want("hash_join") - 25.0).abs() < 1e-9);
        assert!((want("scan") - 50.0).abs() < 1e-9);
        assert!((want("filter_project") - 5.0).abs() < 1e-9);
        assert!((got.iter().sum::<f64>() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn self_time_never_goes_negative() {
        // Workers overlap, so children can sum past their parent.
        let labels = vec![
            (0, "Exchange".to_string()),
            (1, "MorselScan t0 [4 ranges]".to_string()),
        ];
        let got = op_self_ms(&labels, &[op(10), op(12)]);
        assert_eq!(got[7], 0.0);
        assert!((got[0] - 12.0).abs() < 1e-9);
    }

    #[test]
    fn kinds_follow_the_explain_labels() {
        assert_eq!(
            OP_KINDS[op_kind("HashAggregate(Global) [c1] [sum(c2)]")],
            "hash_agg"
        );
        assert_eq!(OP_KINDS[op_kind("HashLeftSemi on c1=c2")], "hash_join");
        assert_eq!(OP_KINDS[op_kind("IndexLookupJoinInner t3 on [1]")], "apply");
        assert_eq!(OP_KINDS[op_kind("SegmentExec [c1]")], "segment");
        assert_eq!(OP_KINDS[op_kind("SegmentScan [c1←c2]")], "scan");
        assert_eq!(OP_KINDS[op_kind("Limit 3")], "other");
    }

    #[test]
    fn repetitions_fill_about_a_second() {
        assert_eq!(reps(Duration::from_millis(1), 20), 20);
        assert_eq!(reps(Duration::from_millis(100), 20), 10);
        assert_eq!(reps(Duration::from_secs(3), 20), 3);
        assert_eq!(reps(Duration::from_secs(3), 1), 1);
    }
}
