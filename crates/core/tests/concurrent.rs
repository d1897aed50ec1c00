//! Concurrent multi-session conformance.
//!
//! One engine, many sessions: N client threads drive the shared-pool
//! scheduler and admission controller at once, and every result must be
//! *byte-identical* to a solo run with the same settings — concurrency
//! may interleave pool workers but must never reorder or corrupt a
//! query's output. The same holds over TCP through the wire protocol.
//! Admission control must queue (not fail) when the global budget is
//! oversubscribed, shed only when the wait queue is full, and a closed
//! session must abort its in-flight query.

use orthopt_synccheck::sync::atomic::{AtomicUsize, Ordering};
use orthopt_synccheck::sync::{thread, Barrier};
use std::sync::Arc;
use std::time::{Duration, Instant};

use orthopt::{Client, Database, Engine, EngineConfig, OptimizerLevel, Server, Session};
use orthopt_common::row::bag_eq;
use orthopt_common::{CancellationToken, Error, Value};
use orthopt_exec::{place_exchanges, Bindings, Pipeline};
use orthopt_rewrite::testgen::{build_catalog, query_templates};
use orthopt_storage::{Catalog, ColumnDef, TableDef};

/// Deterministic r/s catalog from the shared testgen family.
fn corpus_catalog() -> Catalog {
    let r: Vec<(i64, Option<i64>)> = (0..61)
        .map(|i| (i, if i % 11 == 3 { None } else { Some(i % 6) }))
        .collect();
    let s: Vec<(i64, i64, Option<i64>)> = (0..83)
        .map(|i| (i, i % 13, if i % 7 == 5 { None } else { Some(i % 5) }))
        .collect();
    let mut c = build_catalog(&r, &s);
    c.analyze_all();
    c
}

/// A moderate slice of the testgen query family — enough shape variety
/// (scalar aggregates, EXISTS/IN, GroupBy reordering fodder) without
/// blowing up debug-mode wall clock across N threads.
fn corpus() -> Vec<String> {
    query_templates(2).into_iter().take(8).collect()
}

const CLIENTS: usize = 4;

/// N session threads over one engine, every query byte-identical to the
/// solo baseline and bag-equal to the Reference oracle.
#[test]
fn concurrent_sessions_match_solo_and_oracle() {
    let engine = Engine::with_defaults(corpus_catalog());
    let queries = corpus();

    // Solo baseline + oracle, one query at a time.
    let oracle_db = Database::from_shared(engine.shared_catalog());
    let mut baseline = Vec::new();
    {
        let mut s = engine.session();
        s.set("parallelism", "4").unwrap();
        for q in &queries {
            let got = s.execute(q).expect("baseline executes");
            let oracle = oracle_db.execute_reference(q).expect("oracle executes");
            assert!(
                bag_eq(&oracle.rows, &got.rows),
                "session result diverges from Reference oracle for {q}"
            );
            baseline.push(got);
        }
    }

    let baseline = Arc::new(baseline);
    let queries = Arc::new(queries);
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let handles: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let engine = Arc::clone(&engine);
            let queries = Arc::clone(&queries);
            let baseline = Arc::clone(&baseline);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                let mut s = engine.session();
                s.set("parallelism", "4").unwrap();
                barrier.wait();
                for (q, expect) in queries.iter().zip(baseline.iter()) {
                    let got = s.execute(q).expect("concurrent execute");
                    assert_eq!(&got, expect, "not byte-identical under concurrency: {q}");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    // The corpus ran once solo and CLIENTS more times concurrently —
    // after the first compilation every repeat must hit the plan cache.
    let stats = engine.cache_stats();
    assert_eq!(stats.misses as usize, corpus().len());
    assert_eq!(stats.hits as usize, corpus().len() * CLIENTS);
}

/// The apply-strategy knob is part of the plan-cache fingerprint: two
/// sessions of one engine that `SET apply_strategy` differently must
/// compile separately (a shared entry would hand one session the other's
/// forced operator), while sessions agreeing on the knob share, and both
/// strategies return identical rows.
#[test]
fn apply_strategy_splits_plan_cache_fingerprint() {
    let mut catalog = corpus_catalog();
    let s = catalog.resolve("s").unwrap();
    catalog.table_mut(s).build_index(vec![1]).unwrap();
    catalog.analyze_all();
    let engine = Engine::with_defaults(catalog);
    let sql = "select rk from r where exists (select 1 from s where sr = rk)";

    let mut looped = engine.session();
    looped.set("apply_strategy", "loop").unwrap();
    looped.set("level", "correlated").unwrap();
    let mut indexed = engine.session();
    indexed.set("apply_strategy", "index").unwrap();
    indexed.set("level", "correlated").unwrap();

    let a = looped.execute(sql).unwrap();
    let b = indexed.execute(sql).unwrap();
    assert!(bag_eq(&a.rows, &b.rows), "strategies must agree on rows");
    assert_eq!(
        engine.cache_stats().misses,
        2,
        "different apply_strategy settings must not share a cached plan"
    );

    // A third session agreeing with the first shares its entry.
    let mut also_looped = engine.session();
    also_looped.set("apply_strategy", "loop").unwrap();
    also_looped.set("level", "correlated").unwrap();
    let c = also_looped.execute(sql).unwrap();
    assert!(bag_eq(&a.rows, &c.rows));
    let stats = engine.cache_stats();
    assert_eq!(stats.misses, 2, "matching fingerprints share one entry");
    assert_eq!(stats.hits, 1);

    // Rejects nonsense like every other knob.
    assert!(also_looped.set("apply_strategy", "nested").is_err());
}

/// Forced-exchange pipelines (every eligible subtree parallelized)
/// executed from N threads at once through the shared scheduler stay
/// byte-identical to a solo run of the same compiled plan.
#[test]
fn forced_exchange_concurrency_is_byte_identical() {
    let db = Database::from_catalog(corpus_catalog());
    let shared = db.shared_catalog();
    for sql in corpus().iter().take(4) {
        let plan = db.plan(sql, OptimizerLevel::Full).expect("plans");
        let forced = place_exchanges(&plan.physical);
        let out_ids: Vec<_> = plan.output.iter().map(|c| c.id).collect();
        let run_once = |catalog: &Catalog, shared: Arc<Catalog>| {
            let mut p = Pipeline::compile(&forced).expect("forced plan compiles");
            p.set_parallelism(4);
            p.set_shared_catalog(shared);
            p.execute(catalog, &Bindings::new())
                .and_then(|c| c.project(&out_ids))
                .map(|c| c.rows)
        };
        let expected = run_once(db.catalog(), Arc::clone(&shared)).expect("solo run");
        let barrier = Arc::new(Barrier::new(CLIENTS));
        // sync-ok: scoped threads borrow the test's catalog and closure;
        // the 'static shim spawn cannot express that.
        std::thread::scope(|scope| {
            for _ in 0..CLIENTS {
                let barrier = Arc::clone(&barrier);
                let shared = Arc::clone(&shared);
                let expected = &expected;
                let run_once = &run_once;
                let catalog = db.catalog();
                scope.spawn(move || {
                    barrier.wait();
                    for _ in 0..3 {
                        let got = run_once(catalog, Arc::clone(&shared)).expect("concurrent run");
                        assert_eq!(&got, expected, "forced-exchange divergence for {sql}");
                    }
                });
            }
        });
    }
}

/// 1, 2, 4 and 8 concurrent TCP clients receive wire replies
/// byte-identical to a solo client running the same corpus.
#[test]
fn tcp_multi_client_byte_identical() {
    [1, 2, 4, 8].into_iter().for_each(tcp_clients_match_solo);
}

fn tcp_clients_match_solo(clients: usize) {
    let engine = Engine::with_defaults(corpus_catalog());
    let handle = Server::bind(Arc::clone(&engine), "127.0.0.1:0")
        .expect("bind")
        .spawn()
        .expect("spawn");
    let addr = handle.addr();
    let queries = corpus();

    let mut solo = Client::connect(addr).expect("connect");
    solo.set("parallelism", "4").expect("set");
    let baseline: Vec<String> = queries
        .iter()
        .map(|q| solo.query(q).expect("baseline query"))
        .collect();
    solo.close().expect("close");

    let baseline = Arc::new(baseline);
    let queries = Arc::new(queries);
    let barrier = Arc::new(Barrier::new(clients));
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            let baseline = Arc::clone(&baseline);
            let queries = Arc::clone(&queries);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                c.ping().expect("ping");
                c.set("parallelism", "4").expect("set");
                barrier.wait();
                for (q, expect) in queries.iter().zip(baseline.iter()) {
                    let reply = c.query(q).expect("query");
                    assert_eq!(
                        &reply, expect,
                        "{clients} clients: wire reply diverged for {q}"
                    );
                }
                c.close().expect("close");
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    handle.shutdown();
}

/// When aggregate declared demand exceeds the global limit, queries
/// QUEUE and then complete — none fail. Deterministic: the main thread
/// holds the whole budget until all clients are parked in the queue.
#[test]
fn admission_queues_rather_than_fails() {
    let engine = Engine::new(
        corpus_catalog(),
        EngineConfig {
            global_mem_limit: Some(1 << 20),
            default_query_mem: 768 << 10, // one query at a time
            admission_queue: 32,
            ..EngineConfig::default()
        },
    );
    let ctrl = Arc::clone(engine.admission().expect("admission enabled"));
    let blocker = ctrl
        .admit(1 << 20, &CancellationToken::new(None))
        .expect("blocker admits");

    let done = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let engine = Arc::clone(&engine);
            let done = Arc::clone(&done);
            thread::spawn(move || {
                let s = engine.session();
                let r = s
                    .execute("select count(*) from r")
                    .expect("queued, not shed");
                done.fetch_add(1, Ordering::SeqCst);
                r
            })
        })
        .collect();

    // Every client must reach the wait queue while the budget is held.
    let deadline = Instant::now() + Duration::from_secs(10);
    while ctrl.waiting() < CLIENTS {
        assert!(Instant::now() < deadline, "clients never queued");
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(done.load(Ordering::SeqCst), 0, "nothing ran while blocked");
    drop(blocker);

    let mut results = Vec::new();
    for h in handles {
        results.push(h.join().expect("client thread"));
    }
    assert!(results.windows(2).all(|w| w[0] == w[1]));
    let stats = engine.admission_stats().expect("stats");
    assert_eq!(stats.shed, 0, "queueing must not shed");
    assert!(stats.queued >= CLIENTS as u64);
    assert_eq!(stats.admitted, 1 + CLIENTS as u64);
}

/// A full wait queue sheds with `ResourceExhausted` blaming admission —
/// the documented overload response — while the engine stays usable.
#[test]
fn admission_sheds_when_queue_is_full() {
    let engine = Engine::new(
        corpus_catalog(),
        EngineConfig {
            global_mem_limit: Some(1 << 20),
            default_query_mem: 1 << 20,
            admission_queue: 0, // no waiting room: oversubscription sheds
            ..EngineConfig::default()
        },
    );
    let ctrl = Arc::clone(engine.admission().expect("admission enabled"));
    let blocker = ctrl
        .admit(1 << 20, &CancellationToken::new(None))
        .expect("blocker admits");
    let s = engine.session();
    match s.execute("select count(*) from r") {
        Err(Error::ResourceExhausted { operator, .. }) => {
            assert_eq!(operator, "admission");
        }
        other => panic!("expected admission shed, got {other:?}"),
    }
    drop(blocker);
    // Budget released: the same session works again.
    s.execute("select count(*) from r").expect("recovers");
    assert_eq!(engine.admission_stats().expect("stats").shed, 1);
}

/// Closing a session from another thread aborts its in-flight query
/// promptly (the networked server relies on this when a connection
/// drops mid-query).
#[test]
fn session_close_aborts_in_flight_query() {
    let mut c = Catalog::new();
    let t = c
        .create_table(TableDef::new(
            "big",
            vec![
                ColumnDef::new("k", orthopt_common::DataType::Int),
                ColumnDef::new("v", orthopt_common::DataType::Int),
            ],
            vec![vec![0]],
        ))
        .expect("create");
    c.table_mut(t)
        .insert_all((0..3000).map(|i| vec![Value::Int(i), Value::Int(i % 97)]))
        .expect("insert");
    c.analyze_all();
    let engine = Engine::with_defaults(c);

    let mut session: Session = engine.session();
    // Correlated level with the loop strategy forced: the subquery runs
    // as an Apply correlated on the unique `k` — 3000 distinct bindings,
    // ~3000 inner scans of 3000 rows, far longer than the cancel delay.
    // (Correlated on `v`, the Apply would run the 97 distinct bindings
    // once each and finish before the cancel arrives.)
    session.set("level", "correlated").unwrap();
    session.set("apply_strategy", "loop").unwrap();
    let cancel = session.cancel_handle();
    let started = Arc::new(Barrier::new(2));
    let gate = Arc::clone(&started);
    let worker = thread::spawn(move || {
        gate.wait();
        session.execute(
            "select count(*) from big where 0 < \
             (select count(*) from big as u where u.v >= big.k)",
        )
    });
    started.wait();
    std::thread::sleep(Duration::from_millis(30));
    cancel.cancel();
    let aborted = Instant::now();
    let result = worker.join().expect("worker thread");
    assert!(
        matches!(result, Err(Error::Cancelled { .. })),
        "expected cancellation, got {result:?}"
    );
    assert!(
        aborted.elapsed() < Duration::from_secs(5),
        "cancellation was not prompt"
    );
}

/// Wire-protocol smoke: PING, SET (good and bad), a query, an error
/// reply that leaves the connection usable, CLOSE.
#[test]
fn server_round_trip_smoke() {
    let engine = Engine::with_defaults(corpus_catalog());
    let handle = Server::bind(Arc::clone(&engine), "127.0.0.1:0")
        .expect("bind")
        .spawn()
        .expect("spawn");
    let mut c = Client::connect(handle.addr()).expect("connect");
    c.ping().expect("ping");
    c.set("level", "full").expect("set level");
    assert!(c.set("level", "nonsense").is_err());
    let reply = c.query("select count(*) from r").expect("query");
    assert_eq!(reply, "T 1\ncount_c2\n61");
    // Errors come back as E frames and do not poison the session.
    assert!(c.query("select nope from r").is_err());
    let reply = c.query("select count(*) from s").expect("still usable");
    assert!(reply.starts_with("T 1\n"));
    c.close().expect("close");
    handle.shutdown();
}

/// A result too large for one frame is an `E` reply, not a dead
/// connection: the streamed render stops at the 16 MiB cap, and the
/// same connection then answers a `PING` and further queries —
/// including one just under the cap.
#[test]
fn oversized_reply_is_an_error_and_the_connection_survives() {
    let mut catalog = Catalog::new();
    let t = catalog
        .create_table(TableDef::new(
            "big",
            vec![
                ColumnDef::new("k", orthopt_common::DataType::Int),
                ColumnDef::new("s", orthopt_common::DataType::Str),
            ],
            vec![vec![0]],
        ))
        .unwrap();
    let mib = "x".repeat(1 << 20);
    catalog
        .table_mut(t)
        .insert_all((0..18).map(|k| vec![Value::Int(k), Value::str(&mib)]))
        .unwrap();
    catalog.analyze_all();
    let engine = Engine::with_defaults(catalog);
    let handle = Server::bind(Arc::clone(&engine), "127.0.0.1:0")
        .expect("bind")
        .spawn()
        .expect("spawn");
    let mut c = Client::connect(handle.addr()).expect("connect");
    match c.query("select s from big") {
        Err(Error::Exec(msg)) => assert_eq!(
            msg,
            "server: result exceeds the 16 MiB frame cap (add LIMIT or narrow the select list)"
        ),
        other => panic!(
            "expected the frame-cap error, got {:?}",
            other.map(|r| r.len())
        ),
    }
    c.ping()
        .expect("the connection outlives the oversized reply");
    assert_eq!(
        c.query("select k from big where k < 2")
            .expect("small query"),
        "T 2\nk\n0\n1"
    );
    let reply = c
        .query("select s from big where k < 15")
        .expect("15 MiB fits the frame");
    assert!(reply.starts_with("T 15\ns\n'xxx"));
    assert_eq!(reply.len(), "T 15\ns".len() + 15 * ((1 << 20) + 3));
    c.close().expect("close");
    handle.shutdown();
}
