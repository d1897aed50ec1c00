//! Machine-readable benchmark emitter: runs the Figure-9 queries (Q2
//! and Q17) at every optimizer level and writes per-query elapsed
//! times, pipeline row throughput (`rows_per_sec`), and per-operator
//! pipeline statistics (rows, batches, opens, inclusive time,
//! vector-kernel and row-bridge counts) to `results/bench.json` — for
//! CI tracking and regression diffing, where the human-oriented table
//! binaries don't compose. Each level also records wall-clock medians at 1, 2, and 4
//! exchange workers (replanned per worker count, since exchange
//! placement is cost-based).
//!
//! ```text
//! cargo run --release -p orthopt-bench --bin bench_json [scale] [out.json]
//! ```

use orthopt_synccheck::sync::{thread, Barrier};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use orthopt::common::QueryContext;
use orthopt::exec::{phys_node_labels, Bindings, Pipeline};
use orthopt::tpch::queries;
use orthopt::{Client, Engine, EngineConfig, OptimizerLevel, Server};
use orthopt_bench::{median_ms, median_ms_governed, percentile_ms, plan, tpch};

/// Minimal JSON string escaping (labels contain no exotic characters,
/// but quotes and backslashes must not corrupt the document).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// One row of the concurrent-client sweep.
struct ConcurrentRow {
    clients: usize,
    qps: f64,
    p50_ms: f64,
    p99_ms: f64,
    total_queries: usize,
}

/// Drives the networked session layer with `clients` concurrent TCP
/// connections, each running `rounds` passes over the workload.
/// Every reply is asserted byte-identical to the solo `baseline` —
/// concurrency must not change results — and per-query latencies feed
/// the p50/p99 columns.
fn drive_clients(
    addr: std::net::SocketAddr,
    workload: &Arc<Vec<String>>,
    baseline: &Arc<Vec<String>>,
    clients: usize,
    rounds: usize,
) -> ConcurrentRow {
    let barrier = Arc::new(Barrier::new(clients + 1));
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            let workload = Arc::clone(workload);
            let baseline = Arc::clone(baseline);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                let mut c = Client::connect(addr).expect("client connects");
                barrier.wait();
                let mut latencies = Vec::with_capacity(rounds * workload.len());
                for _ in 0..rounds {
                    for (sql, expect) in workload.iter().zip(baseline.iter()) {
                        let t = Instant::now();
                        let reply = c.query(sql).expect("client query");
                        latencies.push(t.elapsed().as_secs_f64() * 1e3);
                        assert_eq!(
                            &reply, expect,
                            "concurrent reply diverged from solo baseline"
                        );
                    }
                }
                let _ = c.close();
                latencies
            })
        })
        .collect();
    barrier.wait();
    let t = Instant::now();
    let mut latencies = Vec::new();
    for h in handles {
        latencies.extend(h.join().expect("client thread"));
    }
    let wall_s = t.elapsed().as_secs_f64();
    ConcurrentRow {
        clients,
        qps: latencies.len() as f64 / wall_s.max(1e-9),
        p50_ms: percentile_ms(&latencies, 50.0),
        p99_ms: percentile_ms(&latencies, 99.0),
        total_queries: latencies.len(),
    }
}

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.01);
    let out_path = std::env::args()
        .nth(2)
        .unwrap_or_else(|| "results/bench.json".to_string());

    let mut db = tpch(scale);
    type QueryFn = fn() -> String;
    let queries: [(&str, QueryFn); 2] = [
        ("Q2", || queries::q2(15, "standard anodized", "europe")),
        ("Q17", || queries::q17_brand_only("brand#23")),
    ];

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"scale\": {scale},");
    let _ = writeln!(json, "  \"queries\": [");
    for (qi, (name, sql_of)) in queries.iter().enumerate() {
        let sql = sql_of();
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"name\": \"{}\",", esc(name));
        let _ = writeln!(json, "      \"sql\": \"{}\",", esc(&sql));
        let _ = writeln!(json, "      \"levels\": [");
        for (li, level) in OptimizerLevel::ALL.into_iter().enumerate() {
            db.session_mut().settings_mut().parallelism = 1;
            let p = plan(&db, &sql, level);
            let elapsed = median_ms(&db, &p, 5);
            // Wall clock at 1/2/4 exchange workers, replanning each
            // time so the cost model can place exchanges for that pool.
            let mut worker_runs = Vec::new();
            for workers in [1usize, 2, 4] {
                db.session_mut().settings_mut().parallelism = workers;
                let pw = plan(&db, &sql, level);
                let exchanges = orthopt::exec::explain_phys(&pw.physical)
                    .matches("Exchange")
                    .count();
                worker_runs.push((workers, median_ms(&db, &pw, 5), exchanges));
            }
            db.session_mut().settings_mut().parallelism = 1;
            // Governor-on median on the same plan: a generous budget (so
            // nothing trips, yet one the engine's admission control can
            // grant) exposes the accounting overhead vs. the ungoverned
            // `elapsed` above.
            let generous = db
                .engine()
                .config()
                .global_mem_limit
                .map_or(1 << 30, |limit| limit.min(1 << 30));
            let gov = QueryContext::new().with_memory_limit(generous);
            let governed_ms = median_ms_governed(&db, &p, 5, &gov);
            let overhead_pct = if elapsed > 0.0 {
                (governed_ms - elapsed) / elapsed * 100.0
            } else {
                0.0
            };
            // One instrumented, budgeted run for the operator-level
            // counters and the query-wide peak of live buffered bytes.
            let mut pipeline = Pipeline::compile(&p.physical).expect("pipeline compiles");
            pipeline.set_governor(QueryContext::new().with_memory_limit(1 << 30));
            let chunk = pipeline
                .execute(db.catalog(), &Bindings::new())
                .expect("execution");
            let mem_peak = pipeline.governor().mem_peak().unwrap_or(0);
            let labels = phys_node_labels(&p.physical);
            let stats = pipeline.stats();
            let cached = pipeline.cached_nodes();
            eprintln!(
                "{name} {level:>16?}: {elapsed:.2} ms ({governed_ms:.2} governed), \
                 {} rows, peak {mem_peak}B",
                chunk.len()
            );
            let _ = writeln!(json, "        {{");
            let _ = writeln!(json, "          \"level\": \"{}\",", esc(level.name()));
            let _ = writeln!(json, "          \"elapsed_ms\": {elapsed:.4},");
            let _ = writeln!(json, "          \"governed_ms\": {governed_ms:.4},");
            let _ = writeln!(
                json,
                "          \"governed_overhead_pct\": {overhead_pct:.2},"
            );
            let _ = writeln!(json, "          \"mem_peak_bytes\": {mem_peak},");
            let _ = writeln!(json, "          \"rows\": {},", chunk.len());
            // Pipeline throughput: total rows crossing all operator
            // boundaries (from the instrumented run) over the median
            // ungoverned wall clock.
            let total_rows: u64 = stats.iter().map(|s| s.rows).sum();
            let rows_per_sec = if elapsed > 0.0 {
                total_rows as f64 / (elapsed / 1e3)
            } else {
                0.0
            };
            let _ = writeln!(json, "          \"rows_per_sec\": {rows_per_sec:.0},");
            let _ = writeln!(json, "          \"workers\": [");
            for (wi, (workers, ms, exchanges)) in worker_runs.iter().enumerate() {
                let _ = writeln!(
                    json,
                    "            {{\"workers\": {workers}, \"elapsed_ms\": {ms:.4}, \
                     \"exchanges\": {exchanges}}}{}",
                    if wi + 1 == worker_runs.len() { "" } else { "," },
                );
            }
            let _ = writeln!(json, "          ],");
            let _ = writeln!(json, "          \"operators\": [");
            for (id, ((depth, label), s)) in labels.iter().zip(stats.iter()).enumerate() {
                let _ = writeln!(
                    json,
                    "            {{\"id\": {id}, \"depth\": {depth}, \"op\": \"{}\", \
                     \"rows\": {}, \"batches\": {}, \"opens\": {}, \"time_ms\": {:.4}, \
                     \"mem_peak\": {}, \"kernels\": {}, \"bridged\": {}, \"cached\": {}}}{}",
                    esc(label),
                    s.rows,
                    s.batches,
                    s.opens,
                    s.elapsed.as_secs_f64() * 1e3,
                    s.mem_peak,
                    s.kernels,
                    s.bridged,
                    cached.contains(&id),
                    if id + 1 == labels.len() { "" } else { "," },
                );
            }
            let _ = writeln!(json, "          ]");
            let _ = writeln!(
                json,
                "        }}{}",
                if li + 1 == OptimizerLevel::ALL.len() {
                    ""
                } else {
                    ","
                }
            );
        }
        let _ = writeln!(json, "      ]");
        let _ = writeln!(
            json,
            "    }}{}",
            if qi + 1 == queries.len() { "" } else { "," }
        );
    }
    let _ = writeln!(json, "  ],");

    // Correlated-strategy sweep: the benched queries kept at the
    // Correlated level (so the Apply survives), re-planned under each
    // forced apply strategy plus cost-based `auto`, recording the
    // median wall clock and which apply operator the plan actually
    // uses. `auto_vs_loop_speedup_pct` is how much the cost-based choice
    // beats the Apply forced everywhere (`loop`: never the index join).
    let strategy_queries: [(&str, String); 3] = [
        ("Q2", queries::q2(15, "standard anodized", "europe")),
        ("Q17", queries::q17_brand_only("brand#23")),
        ("Q4", queries::q4_default()),
    ];
    let strategies = [
        orthopt::ApplyStrategy::Auto,
        orthopt::ApplyStrategy::Loop,
        orthopt::ApplyStrategy::Index,
    ];
    let apply_ops = |text: &str| -> String {
        ["IndexLookupJoin", "ApplyLoop"]
            .iter()
            .filter(|op| text.contains(*op))
            .copied()
            .collect::<Vec<_>>()
            .join("+")
    };
    let _ = writeln!(json, "  \"apply_strategies\": [");
    for (si, (name, sql)) in strategy_queries.iter().enumerate() {
        let mut rows = Vec::new();
        for strategy in strategies {
            db.session_mut().settings_mut().apply_strategy = strategy;
            let p = plan(&db, sql, OptimizerLevel::Correlated);
            let ops = apply_ops(&orthopt::exec::explain_phys(&p.physical));
            let ms = median_ms(&db, &p, 5);
            eprintln!(
                "{name} correlated {:>7}: {ms:.2} ms ({ops})",
                strategy.name()
            );
            rows.push((strategy, ms, ops));
        }
        db.session_mut().settings_mut().apply_strategy = orthopt::ApplyStrategy::Auto;
        let auto_ms = rows[0].1;
        let loop_ms = rows[1].1;
        let speedup_pct = if loop_ms > 0.0 {
            (loop_ms - auto_ms) / loop_ms * 100.0
        } else {
            0.0
        };
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"name\": \"{}\",", esc(name));
        let _ = writeln!(json, "      \"level\": \"correlated\",");
        let _ = writeln!(json, "      \"strategies\": [");
        for (ri, (strategy, ms, ops)) in rows.iter().enumerate() {
            let _ = writeln!(
                json,
                "        {{\"strategy\": \"{}\", \"elapsed_ms\": {ms:.4}, \
                 \"apply_operators\": \"{}\"}}{}",
                strategy.name(),
                esc(ops),
                if ri + 1 == rows.len() { "" } else { "," },
            );
        }
        let _ = writeln!(json, "      ],");
        let _ = writeln!(json, "      \"auto_vs_loop_speedup_pct\": {speedup_pct:.2}");
        let _ = writeln!(
            json,
            "    }}{}",
            if si + 1 == strategy_queries.len() {
                ""
            } else {
                ","
            }
        );
    }
    let _ = writeln!(json, "  ],");

    // Concurrent-client sweep over the networked session layer: one
    // shared engine behind a TCP server, swept client counts, every
    // reply checked byte-identical to the solo baseline.
    let engine = Engine::from_shared(db.shared_catalog(), EngineConfig::default());
    let handle = Server::bind(Arc::clone(&engine), "127.0.0.1:0")
        .expect("server binds")
        .spawn()
        .expect("server spawns");
    let addr = handle.addr();
    let workload: Arc<Vec<String>> = Arc::new(queries.iter().map(|(_, f)| f()).collect());
    let baseline: Arc<Vec<String>> = {
        let mut solo = Client::connect(addr).expect("solo client connects");
        let replies = workload
            .iter()
            .map(|sql| solo.query(sql).expect("solo query"))
            .collect();
        let _ = solo.close();
        Arc::new(replies)
    };
    let rounds = 5;
    let _ = writeln!(json, "  \"concurrent\": [");
    let sweep = [1usize, 2, 4, 8];
    for (ci, clients) in sweep.into_iter().enumerate() {
        let r = drive_clients(addr, &workload, &baseline, clients, rounds);
        eprintln!(
            "concurrent {clients:>2} clients: {:.1} qps, p50 {:.2} ms, p99 {:.2} ms \
             ({} queries, byte-identical)",
            r.qps, r.p50_ms, r.p99_ms, r.total_queries
        );
        let _ = writeln!(
            json,
            "    {{\"clients\": {}, \"qps\": {:.2}, \"p50_ms\": {:.4}, \
             \"p99_ms\": {:.4}, \"total_queries\": {}, \"byte_identical\": true}}{}",
            r.clients,
            r.qps,
            r.p50_ms,
            r.p99_ms,
            r.total_queries,
            if ci + 1 == sweep.len() { "" } else { "," },
        );
    }
    handle.shutdown();
    let _ = writeln!(json, "  ],");

    // Spill sweep: Q17-class queries on a fresh TPC-H 0.1 catalog (real
    // data volumes, not the unit-test corpus) at memory limits from
    // unlimited down to starvation. Each budgeted run must stay
    // bag-identical to the unlimited one; `spilled_bytes` proves the
    // disk path actually ran and `governed_overhead_pct` prices it.
    let spill_scale: f64 = 0.1;
    let mut sdb = tpch(spill_scale);
    sdb.session_mut().settings_mut().parallelism = 1; // exchange gather buffers are hard-fail sites
    let spill_queries: [(&str, String); 3] = [
        // Grace hash join + aggregation over part ⋈ lineitem.
        ("Q17", queries::q17_brand_only("brand#23")),
        // External sort: presentation order over the whole lineitem.
        (
            "SortL",
            "select l_orderkey, l_extendedprice from lineitem \
             order by l_extendedprice, l_orderkey"
                .to_string(),
        ),
        // Spillable aggregation: one group per part key.
        (
            "AggL",
            "select l_partkey, count(*), sum(l_quantity) from lineitem \
             group by l_partkey"
                .to_string(),
        ),
    ];
    let limits: [(&str, Option<u64>); 3] = [
        ("unlimited", None),
        ("16M", Some(16 << 20)),
        ("4M", Some(4 << 20)),
    ];
    let _ = writeln!(json, "  \"spill\": {{");
    let _ = writeln!(json, "    \"scale\": {spill_scale},");
    let _ = writeln!(json, "    \"queries\": [");
    for (qi, (name, sql)) in spill_queries.iter().enumerate() {
        let p = plan(&sdb, sql, OptimizerLevel::Full);
        let mut baseline: Option<(Vec<orthopt::common::Row>, f64)> = None;
        let _ = writeln!(json, "      {{");
        let _ = writeln!(json, "        \"name\": \"{}\",", esc(name));
        let _ = writeln!(json, "        \"sweep\": [");
        for (li, (label, limit)) in limits.iter().enumerate() {
            let gov = || match limit {
                Some(b) => QueryContext::new().with_memory_limit(*b),
                None => QueryContext::new(),
            };
            let ms = median_ms_governed(&sdb, &p, 3, &gov());
            // One instrumented run for the spill counters and the
            // bag-identity check against the unlimited leg.
            let mut pipe = Pipeline::compile(&p.physical).expect("pipeline compiles");
            pipe.set_governor(gov());
            let chunk = pipe
                .execute(sdb.catalog(), &Bindings::new())
                .unwrap_or_else(|e| panic!("{name} at {label}: {e}"));
            let spilled: u64 = pipe.stats().iter().map(|s| s.spilled_bytes).sum();
            let partitions: u64 = pipe.stats().iter().map(|s| s.spill_partitions).sum();
            let rows_per_sec = if ms > 0.0 {
                chunk.rows.len() as f64 / (ms / 1e3)
            } else {
                0.0
            };
            let (identical, overhead_pct) = match &baseline {
                None => {
                    assert_eq!(spilled, 0, "{name}: unlimited run touched disk");
                    baseline = Some((chunk.rows.clone(), ms));
                    (true, 0.0)
                }
                Some((rows, base_ms)) => (
                    orthopt::common::row::bag_eq(rows, &chunk.rows),
                    if *base_ms > 0.0 {
                        (ms - base_ms) / base_ms * 100.0
                    } else {
                        0.0
                    },
                ),
            };
            assert!(identical, "{name} at {label}: budgeted run diverged");
            eprintln!(
                "spill {name} {label:>9}: {ms:.2} ms, {spilled} B spilled \
                 in {partitions} partitions ({} rows, bag-identical)",
                chunk.rows.len()
            );
            let _ = writeln!(
                json,
                "          {{\"limit\": \"{}\", \"limit_bytes\": {}, \
                 \"elapsed_ms\": {ms:.4}, \"rows\": {}, \
                 \"rows_per_sec\": {rows_per_sec:.0}, \"spilled_bytes\": {spilled}, \
                 \"spill_partitions\": {partitions}, \
                 \"governed_overhead_pct\": {overhead_pct:.2}, \
                 \"bag_identical\": true}}{}",
                esc(label),
                limit.map_or_else(|| "null".to_string(), |b| b.to_string()),
                chunk.rows.len(),
                if li + 1 == limits.len() { "" } else { "," },
            );
        }
        let _ = writeln!(json, "        ]");
        let _ = writeln!(
            json,
            "      }}{}",
            if qi + 1 == spill_queries.len() {
                ""
            } else {
                ","
            }
        );
    }
    let _ = writeln!(json, "    ]");
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");

    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        std::fs::create_dir_all(dir).expect("create results dir");
    }
    std::fs::write(&out_path, &json).expect("write bench.json");
    eprintln!("wrote {out_path}");
}
