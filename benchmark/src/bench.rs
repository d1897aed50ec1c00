//! One workload, start to finish: oracle gate, set-up, timed window,
//! traced pass, and the metrics each yields under the names
//! `BENCHMARK.json` fixes.

use std::path::{Path, PathBuf};
use std::time::Instant;

use orthopt::exec::Scheduler;

use crate::check;
use crate::json::Json;
use crate::run::{
    oracle_gate, rss_mb, secs_since, timed_window, warm_up, Env, Feeder, KeepAwake, Sample, Tally,
    Window,
};
use crate::stats;
use crate::trace::{traced_pass, Traced, OP_KINDS};
use crate::workload::{Text, Texts, Workload, SMOKE_SF};

/// Default length of the timed window; `BENCHMARK.json`'s `run_seconds`.
pub const RUN_SECONDS: f64 = 15.0;

/// Times set-up is repeated; `setup_s` takes the median.
const SETUP_REPS: usize = 3;

pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub out: PathBuf,
}

/// The end-to-end metrics: what a client of the service sees, measured
/// with tracing off. Name, unit.
pub const END_TO_END: [(&str, &str); 4] = [
    ("latency_geomean_ms", "ms"),
    ("throughput_qps", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Every query class of every workload, for `client.class_p50_ms.*`.
const ALL_CLASSES: [&str; 19] = [
    "q1paper",
    "q2",
    "q4",
    "q17",
    "q17brand",
    "q22ish",
    "q1paper_cold",
    "q4_cold",
    "q17_cold",
    "q17brand_cold",
    "q22ish_cold",
    "q2_cold",
    "sort_all",
    "sort_spill",
    "agg_lowcard",
    "agg_highcard",
    "scan_filter_wide",
    "agg_par2",
    "point",
];

pub type Metric = (String, &'static str, f64);

fn put(m: &mut Vec<Metric>, name: &str, unit: &'static str, value: f64) {
    m.push((name.to_string(), unit, value));
}

/// Names of the per-layer metrics, in the order they are printed.
pub fn per_layer_names() -> Vec<String> {
    let mut names: Vec<String> = [
        "sql.parse_us",
        "sql.bind_us",
        "rewrite.normalize_us",
        "rewrite.residual_applies",
        "optimizer.search_us",
        "optimizer.memo_groups",
        "optimizer.memo_exprs",
        "optimizer.exchanges_placed",
        "optimizer.apply_loop",
        "optimizer.apply_batched",
        "optimizer.apply_index",
        "plancheck.check_us",
        "plancheck.violations",
        "exec.compile_us",
        "exec.execute_us",
        "exec.scan_rows",
        "exec.rows_examined_per_result",
        "exec.op_opens",
        "exec.kernel_calls",
        "exec.bridged_batches",
        "exec.distinct_bindings",
        "exec.index_probes",
        "exec.mem_peak_bytes",
    ]
    .map(String::from)
    .to_vec();
    names.extend(OP_KINDS.iter().map(|k| format!("exec.self_ms.{k}")));
    names.extend(
        [
            "exec.parallel.par2_speedup",
            "exec.parallel.workers_used",
            "exec.parallel.worker_skew",
            "exec.spill.spilled_bytes",
            "exec.spill.restored_bytes",
            "exec.spill.partitions",
            "exec.spill.live_dirs_after",
            "exec.spill.sort_ratio",
            "core.session.prepare_hit_us",
            "core.session.overhead_us",
            "common.governor.governed_overhead_pct",
            "core.server.ping_rtt_us",
            "core.server.connect_us",
            "core.server.wire_overhead_us",
            "core.server.reply_mb_per_s",
            "client.trace_overhead_pct",
            "storage.mirror_build_ms",
            "storage.rss_after_load_mb",
            "storage.rss_after_mirror_mb",
            "storage.rss_bytes_per_row",
            "tpch.generate_s",
            "core.session.plan_cache_hits",
            "core.session.plan_cache_misses",
            "core.session.plan_cache_hit_share",
            "common.governor.admitted",
            "common.governor.queued",
            "common.governor.shed",
            "common.governor.admission_peak_bytes",
            "core.server.reply_bytes",
        ]
        .map(String::from),
    );
    names.extend(
        ALL_CLASSES
            .iter()
            .map(|c| format!("client.class_p50_ms.{c}")),
    );
    names.extend(
        [
            "client.latency_p95_ms",
            "client.p95_samples_beyond",
            "client.latency_p99_ms",
            "client.max_ms",
            "client.samples",
            "client.throughput_mean_qps",
            "client.mad_pct",
            "client.fairness_ratio",
            "client.short_class_slowdown",
            "client.verify_s",
            "client.failed_share",
        ]
        .map(String::from),
    );
    names
}

/// The repeatable half of set-up — generate + index + ANALYZE, engine
/// and server start, connect — run `SETUP_REPS` times; returns the last
/// environment and the median duration.
fn build_repeatedly(w: &Workload) -> (Env, f64) {
    let mut times = Vec::new();
    let mut env = None;
    for _ in 0..SETUP_REPS {
        drop(env.take());
        let t = Instant::now();
        let e = Env::build(w, w.sf);
        drop(e.connect());
        times.push(secs_since(t));
        env = Some(e);
    }
    (
        env.expect("SETUP_REPS > 0"),
        stats::median(&times).expect("SETUP_REPS > 0"),
    )
}

struct Windowed {
    metrics: Vec<Metric>,
    end_to_end: Vec<Metric>,
}

fn window_metrics(
    w: &Workload,
    samples: &[Sample],
    setup_s: f64,
    point_solo_ms: Option<f64>,
) -> Windowed {
    let ms_of = |pred: &dyn Fn(&Sample) -> bool| -> Vec<f64> {
        samples.iter().filter(|s| pred(s)).map(Sample::ms).collect()
    };
    let pooled = ms_of(&|_| true);
    let class_ms: Vec<Vec<f64>> = (0..w.classes.len())
        .map(|i| ms_of(&|s| s.class == i))
        .collect();
    let class_p50: Vec<f64> = class_ms
        .iter()
        .map(|ms| stats::median(ms).unwrap_or(0.0))
        .collect();
    let p50_of = |name: &str| {
        w.classes
            .iter()
            .position(|c| c.name == name)
            .map_or(0.0, |i| class_p50[i])
    };
    let span_s = |ss: &mut dyn Iterator<Item = &Sample>| -> f64 {
        let (first, last) = ss.fold((u64::MAX, 0), |(lo, hi), s| {
            (lo.min(s.sent_ns), hi.max(s.received_ns))
        });
        last.saturating_sub(first) as f64 / 1e9
    };
    let of_client = |c: usize| samples.iter().filter(move |s| s.client == c);
    // A client's throughput is that of its median block of rounds (a
    // block holds the classes in their stated proportion), so a stall
    // of the host during one block does not move it; the clients' add.
    let block = w.block_rounds();
    let median_qps: f64 = (0..w.clients)
        .map(|c| {
            let blocks = of_client(c)
                .map(|s| s.round / block)
                .max()
                .map_or(0, |b| b + 1);
            let qps: Vec<f64> = (0..blocks)
                .map(|b| {
                    let n = of_client(c).filter(|s| s.round / block == b).count() as f64;
                    n / span_s(&mut of_client(c).filter(|s| s.round / block == b))
                })
                .collect();
            stats::median(&qps).unwrap_or(0.0)
        })
        .sum();
    let mean_qps: Vec<f64> = (0..w.clients)
        .map(|c| of_client(c).count() as f64 / span_s(&mut of_client(c)))
        .collect();

    let values = [
        // Geomean of class medians, not a pooled median: the mixes are
        // bimodal (0.1 ms … 1 s) and a pooled median sits on a class
        // boundary.
        stats::geomean(&class_p50).unwrap_or(0.0),
        median_qps,
        rss_mb().1,
        setup_s,
    ];
    let end_to_end = END_TO_END
        .iter()
        .zip(values)
        .map(|((name, unit), v)| (name.to_string(), *unit, v))
        .collect();

    let mut m = Vec::new();
    for name in ALL_CLASSES {
        put(
            &mut m,
            &format!("client.class_p50_ms.{name}"),
            "ms",
            p50_of(name),
        );
    }
    // The tail: too few samples lie beyond it on the short workloads
    // (see p95_samples_beyond) for it to be an end-to-end metric.
    let (p95, beyond) = stats::nearest_rank(&pooled, 95.0).unwrap_or((0.0, 0));
    put(&mut m, "client.latency_p95_ms", "ms", p95);
    put(&mut m, "client.p95_samples_beyond", "count", beyond as f64);
    // 0 when fewer than ten samples lie beyond it.
    put(
        &mut m,
        "client.latency_p99_ms",
        "ms",
        stats::percentile(&pooled, 99.0).unwrap_or(0.0),
    );
    put(
        &mut m,
        "client.max_ms",
        "ms",
        pooled.iter().copied().fold(0.0, f64::max),
    );
    put(&mut m, "client.samples", "count", pooled.len() as f64);
    // Completed ÷ wall clock of the whole window, every stall included.
    put(
        &mut m,
        "client.throughput_mean_qps",
        "1/s",
        pooled.len() as f64 / span_s(&mut samples.iter()),
    );
    let mads: Vec<f64> = class_ms
        .iter()
        .filter_map(|ms| stats::mad_share(ms))
        .map(|s| s.max(1e-9))
        .collect();
    put(
        &mut m,
        "client.mad_pct",
        "%",
        stats::geomean(&mads).unwrap_or(0.0) * 100.0,
    );
    let (slow, fast) = mean_qps
        .iter()
        .fold((f64::MAX, 0.0_f64), |(lo, hi), q| (lo.min(*q), hi.max(*q)));
    put(&mut m, "client.fairness_ratio", "ratio", slow / fast);
    put(
        &mut m,
        "client.short_class_slowdown",
        "ratio",
        point_solo_ms.map_or(0.0, |solo| p50_of("point") / solo),
    );
    Windowed {
        metrics: m,
        end_to_end,
    }
}

fn host_facts() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        (
            "pool_workers",
            Json::Num(Scheduler::global().workers() as f64),
        ),
        (
            "build_profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        (
            "git_sha",
            Json::str(std::env::var("ORTHOBENCH_GIT_SHA").unwrap_or_else(|_| "unknown".into())),
        ),
    ])
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::obj(metrics.iter().map(|(name, unit, value)| {
        (
            name.clone(),
            Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]),
        )
    }))
}

/// Runs one workload in this process. Returns whether every checked
/// answer was right.
pub fn run_workload(opts: &Opts, cleared_env: &[String], bench_dir: &Path) -> Result<bool, String> {
    let mut w = Workload::by_name(&opts.workload)
        .ok_or_else(|| format!("unknown workload {:?}", opts.workload))?;
    let window = if opts.smoke {
        w.sf = SMOKE_SF;
        Window::Rounds(3)
    } else {
        Window::Seconds(opts.seconds)
    };
    // `expected/` holds the fixed-parameter answers at workload scale; a
    // smoke run has only the oracle gate, at its own scale.
    let has_fixed = w.classes.iter().any(|c| matches!(c.text, Text::Fixed(_)));
    let expected = if opts.smoke || !has_fixed {
        None
    } else {
        Some(check::load_expected(&check::expected_path(
            bench_dir, w.name,
        ))?)
    };
    let mut tally = Tally::default();
    let _awake = KeepAwake::start();

    // Set-up: everything before the first timed query except the
    // oracle gate. The build half is cheap to repeat and is; the rest
    // (which at SF 0.1 holds a multi-second Q2 plan) runs once.
    let rss_before_mb = rss_mb().0;
    let (env, build_s) = build_repeatedly(&w);
    let rss_after_load_mb = rss_mb().0;
    let t = Instant::now();
    // First touch of lineitem builds its columnar mirror; the same
    // query again is the warm cost, and the difference is the build.
    let mirror_sql = "select l_returnflag, count(*), sum(l_quantity) from lineitem \
                      group by l_returnflag";
    let timed_ms = |sql: &str| -> Result<f64, String> {
        let t = Instant::now();
        env.engine
            .session()
            .execute(sql)
            .map_err(|e| e.to_string())?;
        Ok(secs_since(t) * 1e3)
    };
    let first_touch_ms = timed_ms(mirror_sql)?;
    let mirror_build_ms = first_touch_ms - timed_ms(mirror_sql)?;
    let rss_after_mirror_mb = rss_mb().0;

    let texts = Texts::new(opts.seed, w.sf);
    let mut clients: Vec<_> = (0..w.clients).map(|_| env.connect()).collect();
    let mut feeders: Vec<Feeder> = (0..w.clients)
        .map(|c| Feeder::new(&texts, opts.seed, c, w.clients))
        .collect();
    let warm = warm_up(
        &w,
        &mut clients[0],
        &mut feeders[0],
        expected.as_deref(),
        &texts,
    );
    let setup_s = build_s + secs_since(t);
    tally.absorb(warm.tally);

    let t = Instant::now();
    tally.absorb(oracle_gate(&w, opts.seed));
    let verify_s = secs_since(t);

    let cache_before = env.engine.cache_stats();
    let timed = timed_window(&w, &mut clients, &mut feeders, &warm.baselines, window);
    let cache_after = env.engine.cache_stats();
    let Windowed {
        metrics: client_metrics,
        end_to_end,
    } = window_metrics(&w, &timed.samples, setup_s, warm.point_solo_ms);
    // Per-layer metrics that need no spans: counters read at the
    // window's boundaries and what set-up measured.
    let total_rows: usize = env.db.catalog().iter().map(|(_, t)| t.row_count()).sum();
    let hits = (cache_after.hits - cache_before.hits) as f64;
    let misses = (cache_after.misses - cache_before.misses) as f64;
    // All 0 when admission control is off.
    let (admitted, queued, shed) = env
        .engine
        .admission_stats()
        .map_or((0, 0, 0), |a| (a.admitted, a.queued, a.shed));
    let admission_peak = env.engine.admission().map_or(0, |a| a.peak());
    let rss_per_row = (rss_after_mirror_mb - rss_before_mb) * 1048576.0 / total_rows as f64;
    let mut layer: Vec<Metric> = [
        ("storage.mirror_build_ms", "ms", mirror_build_ms),
        ("storage.rss_after_load_mb", "MiB", rss_after_load_mb),
        ("storage.rss_after_mirror_mb", "MiB", rss_after_mirror_mb),
        ("storage.rss_bytes_per_row", "B", rss_per_row),
        ("tpch.generate_s", "s", env.generate_s),
        ("core.session.plan_cache_hits", "count", hits),
        ("core.session.plan_cache_misses", "count", misses),
        (
            "core.session.plan_cache_hit_share",
            "ratio",
            hits / (hits + misses),
        ),
        ("common.governor.admitted", "count", admitted as f64),
        ("common.governor.queued", "count", queued as f64),
        ("common.governor.shed", "count", shed as f64),
        (
            "common.governor.admission_peak_bytes",
            "count",
            admission_peak as f64,
        ),
        ("core.server.reply_bytes", "count", warm.reply_bytes as f64),
        ("client.verify_s", "s", verify_s),
        (
            "client.failed_share",
            "ratio",
            timed.tally.failed as f64 / timed.tally.attempted as f64,
        ),
    ]
    .map(|(name, unit, value)| (name.to_string(), unit, value))
    .to_vec();
    layer.extend(client_metrics);
    tally.absorb(timed.tally);

    let mut traced: Option<Traced> = None;
    if opts.trace {
        // Its own range of cold texts, so its counts repeat exactly
        // however many rounds the timed window got through.
        let mut feeder = Feeder::for_trace(&texts, opts.seed);
        let t = traced_pass(&w.classes, &env, &mut clients[0], &mut feeder, opts.smoke);
        for e in &t.errors {
            tally.record("traced pass", Err(e.clone()));
        }
        let mut all = t.metrics();
        all.extend(layer);
        layer = all;
        traced = Some(t);
    }
    for c in clients {
        let _ = c.close();
    }

    // Print in the fixed order, and hold the names to the contract.
    let names = per_layer_names();
    if opts.trace {
        let mut emitted: Vec<&String> = layer.iter().map(|(n, _, _)| n).collect();
        let mut wanted: Vec<&String> = names.iter().collect();
        emitted.sort();
        wanted.sort();
        assert_eq!(emitted, wanted, "per-layer metrics drifted from their list");
        layer.sort_by_key(|(n, _, _)| names.iter().position(|x| x == n));
    }
    let correct = tally.failed == 0;
    for (name, unit, value) in end_to_end.iter().chain(&layer) {
        println!("{name} {unit} {value}");
    }
    if let Some(t) = &traced {
        for (layer, share) in t.shares() {
            println!("traced_share.{layer} % {}", share * 100.0);
        }
    }
    for e in &tally.errors {
        eprintln!("orthobench: FAILED {e}");
    }

    std::fs::create_dir_all(&opts.out).map_err(|e| format!("{}: {e}", opts.out.display()))?;
    let write = |file: String, json: &Json| -> Result<(), String> {
        let path = opts.out.join(file);
        std::fs::write(&path, json.render() + "\n").map_err(|e| format!("{}: {e}", path.display()))
    };
    let config = Json::obj([
        ("sf", Json::Num(w.sf)),
        ("clients", Json::Num(w.clients as f64)),
        (
            "rounds_per_client",
            Json::Arr(timed.rounds.iter().map(|r| Json::Num(*r as f64)).collect()),
        ),
        ("seconds", Json::Num(opts.seconds)),
        ("smoke", Json::Bool(opts.smoke)),
        ("transport", Json::str("loopback")),
        ("loop", Json::str("closed")),
        (
            "global_mem_limit",
            w.global_mem_limit
                .map_or(Json::Null, |b| Json::Num(b as f64)),
        ),
    ]);
    let mut result = vec![
        ("workload".to_string(), Json::str(w.name)),
        ("seed".to_string(), Json::Num(opts.seed as f64)),
        ("config".to_string(), config),
        ("host".to_string(), host_facts()),
        (
            "cleared_env".to_string(),
            Json::Arr(cleared_env.iter().map(Json::str).collect()),
        ),
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::Num(tally.attempted as f64)),
        ("failed".to_string(), Json::Num(tally.failed as f64)),
        ("end_to_end".to_string(), metrics_json(&end_to_end)),
        ("per_layer".to_string(), metrics_json(&layer)),
    ];
    // Every timed round trip, so any statistic can be recomputed:
    // [class, client, round, sent µs since the window opened, round-trip µs].
    result.push((
        "classes".to_string(),
        Json::Arr(w.classes.iter().map(|c| Json::str(c.name)).collect()),
    ));
    result.push((
        "samples".to_string(),
        Json::Arr(
            timed
                .samples
                .iter()
                .map(|s| {
                    let us = |ns: u64| Json::Num((ns / 1000) as f64);
                    Json::Arr(vec![
                        Json::Num(s.class as f64),
                        Json::Num(s.client as f64),
                        Json::Num(s.round as f64),
                        us(s.sent_ns),
                        us(s.received_ns - s.sent_ns),
                    ])
                })
                .collect(),
        ),
    ));
    if let Some(t) = &traced {
        result.push((
            "traced_share".to_string(),
            Json::obj(t.shares().into_iter().map(|(l, s)| (l, Json::Num(s)))),
        ));
        write(
            format!("{}.trace.json", w.name),
            &t.to_json(w.name, opts.seed),
        )?;
    }
    write(format!("{}.json", w.name), &Json::Obj(result))?;

    // The driver's line: the last of standard output.
    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(tally.attempted as f64)),
        ("failed", Json::Num(tally.failed as f64)),
        (
            "metrics",
            metrics_json(if opts.trace { &layer } else { &end_to_end }),
        ),
    ]);
    println!("{}", line.render());
    Ok(correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(class: usize, round: usize, sent_ms: u64, ms: u64) -> Sample {
        Sample {
            class,
            client: 0,
            round,
            sent_ns: sent_ms * 1_000_000,
            received_ns: (sent_ms + ms) * 1_000_000,
        }
    }

    #[test]
    fn window_metrics_follow_their_definitions() {
        let mut w = Workload::by_name("subquery_warm").unwrap();
        w.classes.truncate(2);
        // Class 0: 1, 1, 4 ms (median 1); class 1: 100 ms each round.
        // Rounds take 101, 101 and 404 ms: the stall in the third moves
        // the mean throughput, not the median round's.
        let samples = [
            sample(0, 0, 0, 1),
            sample(1, 0, 1, 100),
            sample(0, 1, 101, 1),
            sample(1, 1, 102, 100),
            sample(0, 2, 202, 4),
            sample(1, 2, 206, 400),
        ];
        let out = window_metrics(&w, &samples, 2.5, None);
        let get = |ms: &[Metric], n: &str| ms.iter().find(|m| m.0 == n).unwrap().2;
        assert!((get(&out.end_to_end, "latency_geomean_ms") - 10.0).abs() < 1e-9);
        assert!((get(&out.end_to_end, "throughput_qps") - 2.0 / 0.101).abs() < 1e-9);
        assert_eq!(get(&out.end_to_end, "setup_s"), 2.5);
        assert!((get(&out.metrics, "client.throughput_mean_qps") - 6.0 / 0.606).abs() < 1e-9);
        assert_eq!(get(&out.metrics, "client.latency_p95_ms"), 400.0);
        assert_eq!(get(&out.metrics, "client.p95_samples_beyond"), 0.0);
        assert_eq!(get(&out.metrics, "client.class_p50_ms.q1paper"), 1.0);
        assert_eq!(get(&out.metrics, "client.class_p50_ms.point"), 0.0);
        assert_eq!(get(&out.metrics, "client.latency_p99_ms"), 0.0);
        assert_eq!(get(&out.metrics, "client.samples"), 6.0);
        assert_eq!(get(&out.metrics, "client.fairness_ratio"), 1.0);
    }

    /// `BENCHMARK.json` and this file name the same metrics.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let spec = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<String> {
            spec.get(key)
                .unwrap()
                .as_arr()
                .iter()
                .map(|m| m.get("name").unwrap().as_str().unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), crate::workload::NAMES);
        assert_eq!(
            names("end_to_end"),
            END_TO_END.iter().map(|(n, _)| *n).collect::<Vec<_>>()
        );
        assert_eq!(names("per_layer"), per_layer_names());
        assert_eq!(spec.get("run_seconds").unwrap().as_f64(), Some(RUN_SECONDS));
        for m in spec.get("end_to_end").unwrap().as_arr() {
            let name = m.get("name").unwrap().as_str().unwrap();
            let unit = END_TO_END.iter().find(|(n, _)| *n == name).unwrap().1;
            assert_eq!(m.get("unit").unwrap().as_str(), Some(unit));
        }
    }
}
