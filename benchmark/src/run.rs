//! Set-up, the oracle gate, and the timed window of one workload.
//!
//! The load generator is this process: the engine and its TCP server
//! run here too, and `clients` blocking connections drive it over
//! loopback in a closed loop (a client's next query waits for its last
//! reply).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use orthopt::common::Prng;
use orthopt::{Client, Database, Engine, EngineConfig, Server, ServerHandle};

use crate::check::{self, Expected};
use crate::stats;
use crate::workload::{
    point_sql, q2_default_params, Cold, Q2Params, Settings, Text, Texts, Workload, DEFAULTS,
    GATE_SF,
};

pub fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// `(VmRSS, VmHWM)` of this process in MiB.
pub fn rss_mb() -> (f64, f64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |key: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    };
    (field("VmRSS:"), field("VmHWM:"))
}

extern "C" {
    /// POSIX `setpriority(2)` from the C library std already links.
    fn setpriority(which: i32, who: u32, prio: i32) -> i32;
}

/// One spinning thread per CPU at the lowest priority (nice 19), alive
/// as long as this value is.
///
/// In a virtual machine a CPU that goes idle is handed back to the
/// host, and getting it back takes from 0.1 ms to several ms depending
/// on what else the host is doing. A closed-loop client and its server
/// thread hand the turn to each other twice per query, so on an
/// otherwise idle guest that wake-up cost lands on every round trip:
/// measured here, the same 3 ms query read 3 ms or 15 ms from one run
/// to the next. The spinners keep the CPUs from ever going idle, which
/// is what `idle=poll` would do; at nice 19 they get about 1.5 % of a
/// CPU that something else wants.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl KeepAwake {
    pub fn start() -> KeepAwake {
        let stop = Arc::new(AtomicBool::new(false));
        let cpus = std::thread::available_parallelism().map_or(1, usize::from);
        let threads = (0..cpus)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    const PRIO_PROCESS: i32 = 0;
                    // SAFETY: setpriority takes three integers by value
                    // and touches no memory of ours. On Linux `who` 0
                    // with PRIO_PROCESS means the calling thread alone.
                    // If it fails the spinner runs at normal priority
                    // for this run, which is slower, not wrong.
                    unsafe { setpriority(PRIO_PROCESS, 0, 19) };
                    // Relaxed: the flag publishes nothing but itself.
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        KeepAwake { stop, threads }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Checked operations and the first few mismatches, for the verdict.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(format!("{what}: {e}"));
            }
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        self.errors.truncate(8);
    }
}

/// A loaded database served over loopback TCP.
pub struct Env {
    pub db: Database,
    pub engine: Arc<Engine>,
    server: Option<ServerHandle>,
    /// Seconds `Database::tpch` took (generation, indexes, ANALYZE).
    pub generate_s: f64,
}

impl Env {
    pub fn build(w: &Workload, sf: f64) -> Env {
        let t = Instant::now();
        let db = Database::tpch(sf).expect("TPC-H generation");
        let generate_s = secs_since(t);
        let engine = Engine::from_shared(
            db.shared_catalog(),
            EngineConfig {
                global_mem_limit: w.global_mem_limit,
                ..EngineConfig::default()
            },
        );
        let server = Server::bind(Arc::clone(&engine), "127.0.0.1:0")
            .and_then(Server::spawn)
            .expect("server starts on loopback");
        Env {
            db,
            engine,
            server: Some(server),
            generate_s,
        }
    }

    pub fn connect(&self) -> Client {
        let addr = self.server.as_ref().expect("server is running").addr();
        let mut c = Client::connect(addr).expect("client connects");
        c.ping().expect("server answers a ping");
        c
    }
}

impl Drop for Env {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

/// Runs one query under a class's settings. The `SET`s travel outside
/// the timed interval; the returned instants bracket `Client::query`
/// alone.
pub fn query_under(
    client: &mut Client,
    settings: Settings,
    sql: &str,
) -> (Result<String, String>, Instant, Instant) {
    let set = |client: &mut Client, s: Settings| -> Result<(), String> {
        client
            .set("parallelism", &s.parallelism.to_string())
            .and_then(|()| {
                let limit = s.mem_limit.map_or("none".to_string(), |b| b.to_string());
                client.set("mem_limit", &limit)
            })
            .map_err(|e| e.to_string())
    };
    let custom = settings != DEFAULTS;
    if custom {
        if let Err(e) = set(client, settings) {
            let now = Instant::now();
            return (Err(e), now, now);
        }
    }
    let sent = Instant::now();
    let reply = client.query(sql).map_err(|e| e.to_string());
    let received = Instant::now();
    if custom {
        if let Err(e) = set(client, DEFAULTS) {
            return (Err(e), sent, received);
        }
    }
    (reply, sent, received)
}

/// One client's source of queries: the texts of the run plus this
/// client's own shuffle stream. Cold texts are dealt round-robin, client
/// `c` of `n` taking texts `c, c+n, …`, so no two clients share one.
pub struct Feeder {
    texts: Texts,
    rng: Prng,
    /// Next text index of each cold template.
    next_cold: [u64; 6],
    clients: u64,
    /// One past the last cold text this feeder may deal.
    end_cold: u64,
}

/// Cold texts from here on belong to the traced pass, so the texts it
/// plans (and the counts it reads off them) do not depend on how many
/// rounds the timed window got through.
const TRACE_FIRST_TEXT: u64 = 1200;

impl Feeder {
    pub fn new(texts: &Texts, seed: u64, client: usize, clients: usize) -> Feeder {
        Feeder {
            texts: texts.clone(),
            rng: Prng::new(seed.wrapping_mul(0x9E37_79B9).wrapping_add(client as u64)),
            next_cold: [client as u64; 6],
            clients: clients as u64,
            end_cold: TRACE_FIRST_TEXT,
        }
    }

    pub fn for_trace(texts: &Texts, seed: u64) -> Feeder {
        Feeder {
            next_cold: [TRACE_FIRST_TEXT; 6],
            clients: 1,
            end_cold: u64::MAX,
            ..Feeder::new(texts, !seed, 0, 1)
        }
    }

    /// The next text of a class, and the key when it is a point query.
    pub fn next(&mut self, text: &Text) -> (String, Option<i64>) {
        match text {
            Text::Fixed(sql) => (sql.clone(), None),
            Text::Cold(kind) => {
                let next = &mut self.next_cold[*kind as usize];
                let i = *next;
                assert!(
                    i < self.end_cold,
                    "timed window ran into the traced pass's texts"
                );
                *next += self.clients;
                (self.texts.cold(*kind, i), None)
            }
            Text::Point => {
                let key = *self.rng.pick(&self.texts.point_keys);
                (point_sql(key), Some(key))
            }
        }
    }
}

// -----------------------------------------------------------------
// Oracle gate.
// -----------------------------------------------------------------

/// Before anything is timed, every class runs over TCP at the gate's
/// small scale and its reply is compared with an answer the optimizer
/// and the pipeline had no part in: the reference interpreter's, or for
/// Q2 a by-hand evaluation. (Neither scales; `expected/` covers
/// workload scale.)
pub fn oracle_gate(w: &Workload, seed: u64) -> Tally {
    let env = Env::build(w, GATE_SF);
    let mut client = env.connect();
    let texts = Texts::new(seed, GATE_SF);
    let mut tally = Tally::default();
    for class in &w.classes {
        // One Q2 plan costs ~2.5 s, so cold Q2 gets one draw, not three.
        let sqls: Vec<(String, Option<Q2Params>)> = match &class.text {
            Text::Fixed(sql) if class.name == "q2" => {
                vec![(sql.clone(), Some(q2_default_params()))]
            }
            Text::Fixed(sql) => vec![(sql.clone(), None)],
            Text::Cold(Cold::Q2) => vec![(texts.cold(Cold::Q2, 0), Some(texts.cold_q2_params(0)))],
            Text::Cold(kind) => (0..3).map(|i| (texts.cold(*kind, i), None)).collect(),
            Text::Point => texts.point_keys[..5]
                .iter()
                .map(|k| (point_sql(*k), None))
                .collect(),
        };
        for (sql, q2) in sqls {
            let (reply, _, _) = query_under(&mut client, class.settings, &sql);
            let outcome = reply.and_then(|r| {
                let got = check::parse_reply(&r)?;
                let want = match &q2 {
                    Some(params) => check::q2_by_hand(env.db.catalog(), params),
                    None => {
                        check::render(&env.db.execute_reference(&sql).map_err(|e| e.to_string())?)
                    }
                };
                check::same_answer(&got, &want, class.order_by)
            });
            tally.record(&format!("oracle {}", class.name), outcome);
        }
    }
    tally
}

// -----------------------------------------------------------------
// Warm-up.
// -----------------------------------------------------------------

pub struct Warm {
    /// First reply of each fixed-parameter class; every later reply
    /// must equal it byte for byte.
    pub baselines: Vec<Option<String>>,
    /// Bytes of one round's replies.
    pub reply_bytes: u64,
    /// Solo round-trip median of the point class, for the slowdown
    /// under contention.
    pub point_solo_ms: Option<f64>,
    pub tally: Tally,
}

/// Two passes over every class (and every point key): the first fills
/// the plan cache and the storage mirrors and is checked against
/// `expected/`, the second reaches the steady hit path.
pub fn warm_up(
    w: &Workload,
    client: &mut Client,
    feeder: &mut Feeder,
    expected: Option<&[(String, Expected)]>,
    texts: &Texts,
) -> Warm {
    let mut warm = Warm {
        baselines: vec![None; w.classes.len()],
        reply_bytes: 0,
        point_solo_ms: None,
        tally: Tally::default(),
    };
    for pass in 0..2 {
        for (i, class) in w.classes.iter().enumerate() {
            // A cold text never repeats, so it has no hit path to reach.
            if pass == 1 && class.is_cold() {
                continue;
            }
            let ops: Vec<(String, Option<i64>)> = match &class.text {
                Text::Point => texts
                    .point_keys
                    .iter()
                    .map(|k| (point_sql(*k), Some(*k)))
                    .collect(),
                text => vec![feeder.next(text)],
            };
            let mut bytes = 0;
            for (sql, key) in &ops {
                let (reply, _, _) = query_under(client, class.settings, sql);
                let what = format!("warm-up {}", class.name);
                let reply = match reply {
                    Ok(r) => r,
                    Err(e) => {
                        warm.tally.record(&what, Err(e));
                        continue;
                    }
                };
                bytes += reply.len() as u64;
                let outcome = match (&class.text, &warm.baselines[i]) {
                    (Text::Point, _) => check::check_point(&reply, key.expect("point key")),
                    (Text::Cold(_), _) => check::parse_reply(&reply).map(|_| ()),
                    (Text::Fixed(_), Some(first)) => same_bytes(&reply, first),
                    (Text::Fixed(_), None) => {
                        let outcome = check::parse_reply(&reply).and_then(|got| {
                            let Some(expected) = expected else {
                                return Ok(());
                            };
                            match expected.iter().find(|(n, _)| n == class.name) {
                                Some((_, want)) => want.check(&got, class.order_by),
                                None => Err("no committed answer".to_string()),
                            }
                        });
                        warm.baselines[i] = Some(reply);
                        outcome
                    }
                };
                warm.tally.record(&what, outcome);
            }
            if pass == 0 {
                warm.reply_bytes += bytes * class.per_round as u64 / ops.len() as u64;
            }
        }
    }
    if let Some(class) = w.classes.iter().find(|c| matches!(c.text, Text::Point)) {
        let sql = point_sql(texts.point_keys[0]);
        let ms: Vec<f64> = (0..200)
            .map(|_| {
                let (_, sent, received) = query_under(client, class.settings, &sql);
                (received - sent).as_secs_f64() * 1e3
            })
            .collect();
        warm.point_solo_ms = stats::median(&ms);
    }
    warm
}

fn same_bytes(reply: &str, first: &str) -> Result<(), String> {
    if reply == first {
        Ok(())
    } else {
        Err("reply differs from the class's first reply".to_string())
    }
}

// -----------------------------------------------------------------
// Timed window.
// -----------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
pub enum Window {
    Seconds(f64),
    /// `--smoke`: a fixed number of rounds.
    Rounds(usize),
}

#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub class: usize,
    pub client: usize,
    /// The client's round this query belongs to.
    pub round: usize,
    /// Nanoseconds since the window opened.
    pub sent_ns: u64,
    pub received_ns: u64,
}

impl Sample {
    pub fn ms(&self) -> f64 {
        (self.received_ns - self.sent_ns) as f64 / 1e6
    }
}

pub struct Timed {
    pub samples: Vec<Sample>,
    pub rounds: Vec<usize>,
    pub tally: Tally,
}

/// The timed window: every client runs whole rounds, each its own
/// seeded shuffle, until the window's time is up. Nothing is recorded
/// but the instants around `Client::query`; replies are checked between
/// queries, outside those instants.
pub fn timed_window(
    w: &Workload,
    clients: &mut [Client],
    feeders: &mut [Feeder],
    baselines: &[Option<String>],
    window: Window,
) -> Timed {
    let barrier = Barrier::new(clients.len());
    let opened = Instant::now();
    let block = w.block_rounds();
    let per_client: Vec<(Vec<Sample>, usize, Tally)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(feeders.iter_mut())
            .enumerate()
            .map(|(id, (client, feeder))| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    let mut tally = Tally::default();
                    let mut round = 0;
                    barrier.wait();
                    loop {
                        let mut ops = w.round_ops(round);
                        feeder.rng.shuffle(&mut ops);
                        for class_id in ops {
                            let class = &w.classes[class_id];
                            let (sql, key) = feeder.next(&class.text);
                            let (reply, sent, received) = query_under(client, class.settings, &sql);
                            samples.push(Sample {
                                class: class_id,
                                client: id,
                                round,
                                sent_ns: (sent - opened).as_nanos() as u64,
                                received_ns: (received - opened).as_nanos() as u64,
                            });
                            let outcome = reply.and_then(|r| match &class.text {
                                Text::Point => check::check_point(&r, key.expect("point key")),
                                Text::Cold(_) => check::parse_reply(&r).map(|_| ()),
                                Text::Fixed(_) => same_bytes(
                                    &r,
                                    baselines[class_id].as_deref().unwrap_or_default(),
                                ),
                            });
                            tally.record(class.name, outcome);
                        }
                        round += 1;
                        let done = match window {
                            Window::Rounds(n) => round >= n,
                            Window::Seconds(s) => round % block == 0 && secs_since(opened) >= s,
                        };
                        if done {
                            break;
                        }
                    }
                    (samples, round, tally)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut timed = Timed {
        samples: Vec::new(),
        rounds: Vec::new(),
        tally: Tally::default(),
    };
    for (samples, rounds, tally) in per_client {
        timed.samples.extend(samples);
        timed.rounds.push(rounds);
        timed.tally.absorb(tally);
    }
    timed
}
