//! Deterministic interleaving model checker (the `model` feature).
//!
//! [`Model::check`] runs a closure many times, each under a different
//! thread schedule. Threads created through [`crate::sync::thread`] are
//! real OS threads, but the runtime permits exactly **one** of them to
//! advance at a time: every shim operation (mutex acquire, condvar
//! wait/notify, rwlock acquire, atomic access, spawn, join, yield) is a
//! *decision point* where the scheduler picks which thread runs next.
//! Because user code only interacts across threads through the shim, the
//! chosen decision sequence fully determines the execution — so failing
//! schedules replay exactly.
//!
//! Two exploration strategies:
//!
//! * [`Strategy::Dfs`] — systematic depth-first search over scheduling
//!   choices with a **bounded number of preemptions** (switching away
//!   from a still-runnable thread). Most concurrency bugs need very few
//!   preemptions, so a bound of 2-3 explores the interesting space and
//!   terminates; when the bounded space is exhausted the report says so.
//! * [`Strategy::Random`] — seeded random schedules drawn from the same
//!   SplitMix64 generator as `common/prng`; iteration *i* uses
//!   `seed + i`, so any failure names a reproducible seed.
//!
//! On failure (panic in any thread, deadlock, step-budget livelock) the
//! run stops and [`Failure`] carries the panic message, the decision
//! sequence (replayable via [`Model::replay`]), and a human-readable
//! step trace naming every thread, operation, and the source location of
//! the synchronization object involved.
//!
//! Timed condvar waits are modelled by [`TimeoutPolicy`]:
//! `Never` turns `wait_timeout` into a plain `wait`, so a *lost wakeup*
//! manifests as a detectable deadlock instead of hiding behind a retry
//! loop; `WhenIdle` (default) lets a timed waiter wake spuriously, but
//! only when no other thread can run — enough to model "the 20ms poll
//! eventually fires" without making the schedule space diverge.
//!
//! The model explores *scheduling* nondeterminism under sequential
//! consistency; weak-memory reorderings are out of scope (the
//! `// relaxed-ok:` lint in [`crate::lint`] is the discipline for those).

use crate::prng::Prng;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard};

type Loc = &'static std::panic::Location<'static>;

/// Panic payload used to unwind victim threads when an execution aborts
/// (another thread failed, or a deadlock was detected). Never reported
/// as a failure itself.
struct ModelAbort;

// ---------------------------------------------------------------------
// Public configuration & results.
// ---------------------------------------------------------------------

/// How timed condvar waits behave under the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeoutPolicy {
    /// `wait_timeout` never times out — it is a plain `wait`. Lost
    /// wakeups then show up as deadlocks instead of being papered over
    /// by a retry loop.
    Never,
    /// A timed waiter may wake spuriously (reporting "timed out"), but
    /// only at points where no other thread is runnable. Models "the
    /// poll eventually fires" without unbounded schedule divergence.
    WhenIdle,
}

/// Schedule exploration strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Depth-first search over scheduling decisions, bounded by
    /// [`Model::preemption_bound`]. Exhausts the bounded space.
    Dfs,
    /// Seeded random schedules (SplitMix64); iteration `i` uses
    /// `seed + i`.
    Random,
}

/// Builder for a model-checking run.
#[derive(Debug, Clone)]
pub struct Model {
    strategy: Strategy,
    seed: u64,
    max_schedules: usize,
    preemption_bound: usize,
    timeout_policy: TimeoutPolicy,
    max_steps: usize,
}

impl Default for Model {
    fn default() -> Model {
        Model {
            strategy: Strategy::Dfs,
            seed: env_u64("ORTHOPT_MODEL_SEED").unwrap_or(0x5EED_C0DE),
            max_schedules: env_u64("ORTHOPT_MODEL_SCHEDULES").map_or(4096, |n| (n as usize).max(1)),
            preemption_bound: 2,
            timeout_policy: TimeoutPolicy::WhenIdle,
            max_steps: 50_000,
        }
    }
}

/// Environment override used by [`Model::default`]: `ORTHOPT_MODEL_SEED`
/// re-seeds random exploration (reproducing a CI run locally) and
/// `ORTHOPT_MODEL_SCHEDULES` scales the schedule budget (a deeper
/// nightly sweep) without touching the harnesses. Explicit builder calls
/// always win over the environment.
fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.trim().parse().ok()
}

/// What a completed (non-failing) exploration covered.
#[derive(Debug, Clone, Copy)]
pub struct Report {
    /// Schedules executed.
    pub schedules: usize,
    /// Distinct decision sequences among them (random schedules can
    /// collide; DFS schedules never do).
    pub distinct: usize,
    /// True when DFS exhausted the bounded-preemption schedule space.
    pub exhausted: bool,
}

impl Report {
    /// The acceptance bar used by the invariant harnesses: either the
    /// bounded-preemption space was exhausted or at least `n` distinct
    /// schedules ran.
    pub fn covered(&self, n: usize) -> bool {
        self.exhausted || self.distinct >= n
    }
}

/// A failing schedule: the message, the replayable decision sequence,
/// and the full step trace.
pub struct Failure {
    /// Panic message / deadlock description, with thread blame.
    pub message: String,
    /// The decision sequence (chosen thread id per decision point);
    /// feed back through [`Model::replay`] to reproduce.
    pub schedule: Vec<usize>,
    /// Human-readable step trace of the failing execution.
    pub trace: String,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "model check failed: {}", self.message)?;
        writeln!(f, "schedule (replayable): {:?}", self.schedule)?;
        writeln!(f, "trace:")?;
        write!(f, "{}", self.trace)
    }
}

impl fmt::Debug for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl Model {
    /// A model with default configuration (DFS, preemption bound 2).
    pub fn new() -> Model {
        Model::default()
    }

    /// Sets the exploration strategy.
    #[must_use]
    pub fn strategy(mut self, s: Strategy) -> Model {
        self.strategy = s;
        self
    }

    /// Base seed for [`Strategy::Random`].
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Model {
        self.seed = seed;
        self
    }

    /// Maximum schedules to execute before stopping.
    #[must_use]
    pub fn max_schedules(mut self, n: usize) -> Model {
        self.max_schedules = n.max(1);
        self
    }

    /// DFS preemption bound: how many times a schedule may switch away
    /// from a thread that could have kept running.
    #[must_use]
    pub fn preemption_bound(mut self, n: usize) -> Model {
        self.preemption_bound = n;
        self
    }

    /// Timed-wait behaviour (see [`TimeoutPolicy`]).
    #[must_use]
    pub fn timeouts(mut self, p: TimeoutPolicy) -> Model {
        self.timeout_policy = p;
        self
    }

    /// Per-schedule step budget; exceeding it is reported as a livelock.
    #[must_use]
    pub fn max_steps(mut self, n: usize) -> Model {
        self.max_steps = n.max(16);
        self
    }

    /// Explores schedules of `f`, returning a coverage [`Report`] or the
    /// first failing schedule.
    pub fn check<F: Fn()>(&self, f: F) -> Result<Report, Box<Failure>> {
        install_panic_silencer();
        let mut distinct: HashSet<u64> = HashSet::new();
        let mut schedules = 0usize;
        let mut exhausted = false;
        // DFS state: the forced decision prefix for the next run.
        let mut prefix: Vec<usize> = Vec::new();
        let mut prng_seed = self.seed;
        while schedules < self.max_schedules {
            let outcome = self.run_once(&f, &prefix, prng_seed);
            schedules += 1;
            prng_seed = prng_seed.wrapping_add(1);
            distinct.insert(hash_schedule(
                &outcome.choices.iter().map(|c| c.chosen).collect::<Vec<_>>(),
            ));
            if let Some(mut failure) = outcome.failure {
                failure.schedule = outcome.choices.iter().map(|c| c.chosen).collect();
                return Err(Box::new(failure));
            }
            match self.strategy {
                Strategy::Random => {}
                Strategy::Dfs => match next_prefix(&outcome.choices, self.preemption_bound) {
                    Some(next) => prefix = next,
                    None => {
                        exhausted = true;
                        break;
                    }
                },
            }
        }
        Ok(Report {
            schedules,
            distinct: distinct.len(),
            exhausted,
        })
    }

    /// Like [`check`](Model::check) but panics with the printable trace
    /// on failure.
    pub fn run<F: Fn()>(&self, f: F) -> Report {
        match self.check(f) {
            Ok(report) => report,
            Err(failure) => panic!("{failure}"),
        }
    }

    /// Re-executes exactly one schedule (a [`Failure::schedule`]).
    pub fn replay<F: Fn()>(&self, schedule: &[usize], f: F) -> Result<(), Box<Failure>> {
        install_panic_silencer();
        let outcome = self.run_once(&f, schedule, self.seed);
        match outcome.failure {
            None => Ok(()),
            Some(mut failure) => {
                failure.schedule = outcome.choices.iter().map(|c| c.chosen).collect();
                Err(Box::new(failure))
            }
        }
    }

    fn run_once<F: Fn()>(&self, f: &F, prefix: &[usize], seed: u64) -> RunOutcome {
        let ex = Arc::new(Execution {
            mx: StdMutex::new(ExecState::new(self, prefix.to_vec(), seed)),
            cv: StdCondvar::new(),
        });
        let _tls = TlsScope::enter(Arc::clone(&ex), 0);
        let result = catch_unwind(AssertUnwindSafe(f));
        if let Err(payload) = result {
            if !payload.is::<ModelAbort>() {
                record_failure(
                    &ex,
                    &format!("thread t0(main) panicked: {}", payload_str(&*payload)),
                );
            }
        }
        finish_thread(&ex, 0);
        drop(_tls);
        // Run every remaining thread to completion (they schedule among
        // themselves); a spawner always pushes the OS handle before its
        // own exit, so draining until empty joins everything.
        loop {
            let handle = {
                ex.mx
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .handles
                    .pop()
            };
            match handle {
                Some(h) => {
                    let _ = h.join();
                }
                None => break,
            }
        }
        let mut st = ex
            .mx
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        RunOutcome {
            failure: st.failure.take().map(|message| Failure {
                message,
                schedule: Vec::new(),
                trace: st.trace.join("\n"),
            }),
            choices: std::mem::take(&mut st.choices),
        }
    }
}

struct RunOutcome {
    failure: Option<Failure>,
    choices: Vec<Choice>,
}

/// Computes the next DFS prefix: the deepest decision point with an
/// untried alternative whose preemption cost stays within `bound`.
fn next_prefix(choices: &[Choice], bound: usize) -> Option<Vec<usize>> {
    let mut depth = choices.len();
    while depth > 0 {
        depth -= 1;
        let c = &choices[depth];
        let pos = c
            .cands
            .iter()
            .position(|&t| t == c.chosen)
            .unwrap_or(c.cands.len());
        for &alt in &c.cands[pos + 1..] {
            let cost =
                c.preemptions_before + usize::from(alt != c.prev && c.cands.contains(&c.prev));
            if cost <= bound {
                let mut prefix: Vec<usize> = choices[..depth].iter().map(|p| p.chosen).collect();
                prefix.push(alt);
                return Some(prefix);
            }
        }
    }
    None
}

fn hash_schedule(choices: &[usize]) -> u64 {
    // SplitMix64-style accumulation; collisions are statistically
    // irrelevant for coverage counting.
    let mut h: u64 = 0x9E37_79B9_7F4A_7C15;
    for &c in choices {
        h = h.wrapping_add(c as u64 + 1);
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
    }
    h
}

fn payload_str(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Silences the default panic printer for panics raised *inside* model
/// threads (they are captured and reported through [`Failure`] instead);
/// panics anywhere else keep the previous hook's behaviour.
fn install_panic_silencer() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let in_model = CURRENT.try_with(|c| c.borrow().is_some()).unwrap_or(false);
            if !in_model {
                prev(info);
            }
        }));
    });
}

// ---------------------------------------------------------------------
// Execution state.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Block {
    Mutex(usize),
    Cv(usize),
    RwRead(usize),
    RwWrite(usize),
    Join(usize),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Runnable,
    Blocked(Block),
    Finished,
}

struct ThreadSt {
    status: Status,
    name: String,
    last_op: String,
    /// Set when the scheduler woke this thread out of a timed condvar
    /// wait via the timeout path (so `wait_timeout` reports "timed out").
    woke_by_timeout: bool,
}

struct MutexSt {
    owner: Option<usize>,
    label: Loc,
}

struct RwSt {
    readers: Vec<usize>,
    writer: Option<usize>,
    label: Loc,
}

struct CvWaiter {
    tid: usize,
    timed: bool,
}

struct CvSt {
    waiters: Vec<CvWaiter>,
    label: Loc,
}

/// One scheduling decision, recorded for DFS backtracking and replay.
struct Choice {
    chosen: usize,
    cands: Vec<usize>,
    prev: usize,
    preemptions_before: usize,
}

struct ExecState {
    threads: Vec<ThreadSt>,
    active: usize,
    mutexes: Vec<MutexSt>,
    mutex_ids: HashMap<usize, usize>,
    condvars: Vec<CvSt>,
    cv_ids: HashMap<usize, usize>,
    rwlocks: Vec<RwSt>,
    rw_ids: HashMap<usize, usize>,
    handles: Vec<std::thread::JoinHandle<()>>,
    trace: Vec<String>,
    choices: Vec<Choice>,
    prefix: Vec<usize>,
    prng: Prng,
    random: bool,
    preemptions: usize,
    timeout_policy: TimeoutPolicy,
    max_steps: usize,
    steps: usize,
    failure: Option<String>,
}

impl ExecState {
    fn new(model: &Model, prefix: Vec<usize>, seed: u64) -> ExecState {
        ExecState {
            threads: vec![ThreadSt {
                status: Status::Runnable,
                name: "main".to_string(),
                last_op: "start".to_string(),
                woke_by_timeout: false,
            }],
            active: 0,
            mutexes: Vec::new(),
            mutex_ids: HashMap::new(),
            condvars: Vec::new(),
            cv_ids: HashMap::new(),
            rwlocks: Vec::new(),
            rw_ids: HashMap::new(),
            handles: Vec::new(),
            trace: Vec::new(),
            choices: Vec::new(),
            prefix,
            prng: Prng::new(seed),
            random: model.strategy == Strategy::Random,
            preemptions: 0,
            timeout_policy: model.timeout_policy,
            max_steps: model.max_steps,
            steps: 0,
            failure: None,
        }
    }

    fn trace_op(&mut self, tid: usize, op: &str) {
        if self.trace.len() < 20_000 {
            let name = &self.threads[tid].name;
            self.trace
                .push(format!("  #{:05} t{tid}({name}) {op}", self.steps));
        }
        self.threads[tid].last_op = op.to_string();
    }

    fn mutex_id(&mut self, addr: usize, label: Loc) -> usize {
        if let Some(&id) = self.mutex_ids.get(&addr) {
            return id;
        }
        let id = self.mutexes.len();
        self.mutexes.push(MutexSt { owner: None, label });
        self.mutex_ids.insert(addr, id);
        id
    }

    fn cv_id(&mut self, addr: usize, label: Loc) -> usize {
        if let Some(&id) = self.cv_ids.get(&addr) {
            return id;
        }
        let id = self.condvars.len();
        self.condvars.push(CvSt {
            waiters: Vec::new(),
            label,
        });
        self.cv_ids.insert(addr, id);
        id
    }

    fn rw_id(&mut self, addr: usize, label: Loc) -> usize {
        if let Some(&id) = self.rw_ids.get(&addr) {
            return id;
        }
        let id = self.rwlocks.len();
        self.rwlocks.push(RwSt {
            readers: Vec::new(),
            writer: None,
            label,
        });
        self.rw_ids.insert(addr, id);
        id
    }

    fn wake_mutex_waiters(&mut self, id: usize) {
        for t in &mut self.threads {
            if t.status == Status::Blocked(Block::Mutex(id)) {
                t.status = Status::Runnable;
            }
        }
    }

    fn wake_rw_waiters(&mut self, id: usize) {
        for t in &mut self.threads {
            if t.status == Status::Blocked(Block::RwRead(id))
                || t.status == Status::Blocked(Block::RwWrite(id))
            {
                t.status = Status::Runnable;
            }
        }
    }

    fn deadlock_report(&self) -> String {
        let mut parts = Vec::new();
        for (tid, t) in self.threads.iter().enumerate() {
            let Status::Blocked(b) = t.status else {
                continue;
            };
            let what = match b {
                Block::Mutex(id) => format!("Mutex created at {}", self.mutexes[id].label),
                Block::Cv(id) => format!("Condvar created at {}", self.condvars[id].label),
                Block::RwRead(id) | Block::RwWrite(id) => {
                    format!("RwLock created at {}", self.rwlocks[id].label)
                }
                Block::Join(other) => {
                    format!("join of t{other}({})", self.threads[other].name)
                }
            };
            parts.push(format!(
                "t{tid}({}) blocked on {what} (last op: {})",
                t.name, t.last_op
            ));
        }
        format!("deadlock: {}", parts.join("; "))
    }
}

struct Execution {
    mx: StdMutex<ExecState>,
    cv: StdCondvar,
}

// ---------------------------------------------------------------------
// Thread-local execution context.
// ---------------------------------------------------------------------

thread_local! {
    static CURRENT: RefCell<Option<(Arc<Execution>, usize)>> = const { RefCell::new(None) };
}

struct TlsScope;

impl TlsScope {
    fn enter(ex: Arc<Execution>, tid: usize) -> TlsScope {
        CURRENT.with(|c| *c.borrow_mut() = Some((ex, tid)));
        TlsScope
    }
}

impl Drop for TlsScope {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = None);
    }
}

fn current() -> Option<(Arc<Execution>, usize)> {
    CURRENT
        .try_with(|c| c.borrow().as_ref().map(|(e, t)| (Arc::clone(e), *t)))
        .ok()
        .flatten()
}

/// True when the calling thread is executing inside a model run; the
/// shim uses this to decide between the model and passthrough paths.
pub fn is_modeled() -> bool {
    CURRENT.try_with(|c| c.borrow().is_some()).unwrap_or(false)
}

fn lock_state(ex: &Execution) -> StdMutexGuard<'_, ExecState> {
    ex.mx
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn record_failure(ex: &Execution, message: &str) {
    let mut st = lock_state(ex);
    if st.failure.is_none() {
        st.failure = Some(message.to_string());
    }
    ex.cv.notify_all();
}

/// Panics with [`ModelAbort`] to unwind a victim thread — but never
/// while the thread is already unwinding (a double panic aborts the
/// process); in that case the caller degrades to passthrough behaviour.
fn abort_if_failed(st: &StdMutexGuard<'_, ExecState>) -> bool {
    if st.failure.is_some() {
        if std::thread::panicking() {
            return true; // degrade silently, the execution is tearing down
        }
        std::panic::panic_any(ModelAbort);
    }
    false
}

// ---------------------------------------------------------------------
// The scheduler core.
// ---------------------------------------------------------------------

/// Picks the next thread to run. Called with the state lock held, by the
/// thread that was active. Returns `Err(())` when the execution aborted.
fn schedule(ex: &Execution, st: &mut StdMutexGuard<'_, ExecState>, me: usize) -> Result<(), ()> {
    if st.failure.is_some() {
        ex.cv.notify_all();
        return Err(());
    }
    st.steps += 1;
    if st.steps > st.max_steps {
        st.failure = Some(format!(
            "step budget of {} exceeded (possible livelock); last op of t{me}: {}",
            st.max_steps, st.threads[me].last_op
        ));
        ex.cv.notify_all();
        return Err(());
    }
    let prev = st.active;
    let mut cands: Vec<usize> = (0..st.threads.len())
        .filter(|&t| st.threads[t].status == Status::Runnable)
        .collect();
    // Prefer continuing the previously active thread: DFS's first path
    // is then "run to completion", and every alternative at a decision
    // point is a measured preemption.
    cands.sort_unstable_by_key(|&t| (t != prev, t));
    let mut timeout_wake = false;
    if cands.is_empty() && st.timeout_policy == TimeoutPolicy::WhenIdle {
        cands = (0..st.threads.len())
            .filter(|&t| {
                matches!(st.threads[t].status, Status::Blocked(Block::Cv(cv))
                    if st.condvars[cv].waiters.iter().any(|w| w.tid == t && w.timed))
            })
            .collect();
        timeout_wake = true;
    }
    if cands.is_empty() {
        if st.threads.iter().all(|t| t.status == Status::Finished) {
            st.active = usize::MAX;
            ex.cv.notify_all();
            return Ok(());
        }
        let report = st.deadlock_report();
        st.failure = Some(report);
        ex.cv.notify_all();
        return Err(());
    }
    let idx = st.choices.len();
    let chosen = if idx < st.prefix.len() && cands.contains(&st.prefix[idx]) {
        st.prefix[idx]
    } else if st.random && cands.len() > 1 {
        cands[(st.prng.next_u64() % cands.len() as u64) as usize]
    } else {
        cands[0]
    };
    let preemptions_before = st.preemptions;
    if chosen != prev && cands.contains(&prev) {
        st.preemptions += 1;
    }
    st.choices.push(Choice {
        chosen,
        cands,
        prev,
        preemptions_before,
    });
    if timeout_wake {
        // Waking out of a timed condvar wait: leave the wait queue and
        // report the wake as a timeout.
        if let Status::Blocked(Block::Cv(cv)) = st.threads[chosen].status {
            st.condvars[cv].waiters.retain(|w| w.tid != chosen);
        }
        st.threads[chosen].status = Status::Runnable;
        st.threads[chosen].woke_by_timeout = true;
        let step = st.steps;
        if st.trace.len() < 20_000 {
            st.trace
                .push(format!("  #{step:05} t{chosen} wakes by timeout"));
        }
    }
    st.active = chosen;
    ex.cv.notify_all();
    Ok(())
}

/// Blocks until this thread is scheduled again (or the execution fails).
fn wait_active<'a>(
    ex: &'a Execution,
    mut st: StdMutexGuard<'a, ExecState>,
    me: usize,
) -> StdMutexGuard<'a, ExecState> {
    while st.active != me {
        if abort_if_failed(&st) {
            return st;
        }
        st = ex
            .cv
            .wait(st)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
    }
    let _ = abort_if_failed(&st);
    st
}

/// A plain decision point: trace the op, let the scheduler pick, block
/// until scheduled again.
fn switch_point(ex: &Execution, me: usize, op: &str) {
    let mut st = lock_state(ex);
    if abort_if_failed(&st) {
        return;
    }
    st.trace_op(me, op);
    if schedule(ex, &mut st, me).is_err() {
        let _ = abort_if_failed(&st);
        return;
    }
    drop(wait_active(ex, st, me));
}

fn finish_thread(ex: &Execution, me: usize) {
    let mut st = lock_state(ex);
    st.threads[me].status = Status::Finished;
    let step = st.steps;
    if st.trace.len() < 20_000 {
        st.trace.push(format!("  #{step:05} t{me} finished"));
    }
    // Wake joiners.
    for t in &mut st.threads {
        if t.status == Status::Blocked(Block::Join(me)) {
            t.status = Status::Runnable;
        }
    }
    let _ = schedule(ex, &mut st, me);
}

// ---------------------------------------------------------------------
// Shim entry points (crate-internal).
// ---------------------------------------------------------------------

/// Model path of `Mutex::lock`. Returns `false` when the execution is
/// tearing down (the shim then falls back to a real blocking lock).
pub(crate) fn mutex_lock(addr: usize, label: Loc) -> bool {
    let Some((ex, me)) = current() else {
        return false;
    };
    switch_point(&ex, me, &format!("lock Mutex@{label}"));
    let mut st = lock_state(&ex);
    loop {
        if st.failure.is_some() {
            let _ = abort_if_failed(&st);
            drop(st);
            return false;
        }
        let id = st.mutex_id(addr, label);
        if st.mutexes[id].owner.is_none() {
            st.mutexes[id].owner = Some(me);
            return true;
        }
        st.threads[me].status = Status::Blocked(Block::Mutex(id));
        if schedule(&ex, &mut st, me).is_err() {
            let _ = abort_if_failed(&st);
            drop(st);
            return false;
        }
        st = wait_active(&ex, st, me);
    }
}

pub(crate) fn mutex_unlock(addr: usize, label: Loc) {
    let Some((ex, me)) = current() else {
        return;
    };
    let mut st = lock_state(&ex);
    let id = st.mutex_id(addr, label);
    if st.mutexes[id].owner == Some(me) {
        st.mutexes[id].owner = None;
        st.wake_mutex_waiters(id);
        st.trace_op(me, &format!("unlock Mutex@{label}"));
    }
}

/// Model path of a condvar wait: releases the model mutex, blocks until
/// notified (or woken by the timeout policy for timed waits), then
/// re-acquires the mutex. Returns `Some(timed_out)`, or `None` when the
/// execution is tearing down.
pub(crate) fn cv_wait(
    cv_addr: usize,
    cv_label: Loc,
    mutex_addr: usize,
    mutex_label: Loc,
    timed: bool,
) -> Option<bool> {
    let (ex, me) = current()?;
    {
        let mut st = lock_state(&ex);
        if abort_if_failed(&st) {
            return None;
        }
        let cv = st.cv_id(cv_addr, cv_label);
        let m = st.mutex_id(mutex_addr, mutex_label);
        // Atomically (we hold the scheduler lock) release the mutex and
        // join the wait queue — the lost-wakeup window the real condvar
        // protocol closes, reproduced faithfully here.
        if st.mutexes[m].owner == Some(me) {
            st.mutexes[m].owner = None;
            st.wake_mutex_waiters(m);
        }
        st.condvars[cv].waiters.push(CvWaiter { tid: me, timed });
        st.threads[me].status = Status::Blocked(Block::Cv(cv));
        st.threads[me].woke_by_timeout = false;
        let op = if timed {
            format!("wait_timeout Condvar@{cv_label}")
        } else {
            format!("wait Condvar@{cv_label}")
        };
        st.trace_op(me, &op);
        if schedule(&ex, &mut st, me).is_err() {
            let _ = abort_if_failed(&st);
            return None;
        }
        st = wait_active(&ex, st, me);
        if st.failure.is_some() {
            let _ = abort_if_failed(&st);
            return None;
        }
    }
    let timed_out = {
        let st = lock_state(&ex);
        st.threads[me].woke_by_timeout
    };
    // Re-acquire the mutex through the regular model path.
    if !mutex_lock(mutex_addr, mutex_label) {
        return None;
    }
    Some(timed_out)
}

pub(crate) fn cv_notify(addr: usize, label: Loc, all: bool) {
    let Some((ex, me)) = current() else {
        return;
    };
    let mut st = lock_state(&ex);
    let cv = st.cv_id(addr, label);
    let woken: Vec<usize> = if all {
        st.condvars[cv].waiters.drain(..).map(|w| w.tid).collect()
    } else if st.condvars[cv].waiters.is_empty() {
        Vec::new()
    } else {
        vec![st.condvars[cv].waiters.remove(0).tid]
    };
    for tid in &woken {
        st.threads[*tid].status = Status::Runnable;
    }
    let op = format!(
        "notify_{} Condvar@{label} (woke {:?})",
        if all { "all" } else { "one" },
        woken
    );
    st.trace_op(me, &op);
}

/// Model path of `RwLock::read`/`write`. Returns `false` during
/// teardown.
pub(crate) fn rw_lock(addr: usize, label: Loc, write: bool) -> bool {
    let Some((ex, me)) = current() else {
        return false;
    };
    let op = if write { "write" } else { "read" };
    switch_point(&ex, me, &format!("{op} RwLock@{label}"));
    let mut st = lock_state(&ex);
    loop {
        if st.failure.is_some() {
            let _ = abort_if_failed(&st);
            return false;
        }
        let id = st.rw_id(addr, label);
        let free = if write {
            st.rwlocks[id].writer.is_none() && st.rwlocks[id].readers.is_empty()
        } else {
            st.rwlocks[id].writer.is_none()
        };
        if free {
            if write {
                st.rwlocks[id].writer = Some(me);
            } else {
                st.rwlocks[id].readers.push(me);
            }
            return true;
        }
        st.threads[me].status = Status::Blocked(if write {
            Block::RwWrite(id)
        } else {
            Block::RwRead(id)
        });
        if schedule(&ex, &mut st, me).is_err() {
            let _ = abort_if_failed(&st);
            return false;
        }
        st = wait_active(&ex, st, me);
    }
}

pub(crate) fn rw_unlock(addr: usize, label: Loc, write: bool) {
    let Some((ex, me)) = current() else {
        return;
    };
    let mut st = lock_state(&ex);
    let id = st.rw_id(addr, label);
    if write {
        if st.rwlocks[id].writer == Some(me) {
            st.rwlocks[id].writer = None;
            st.wake_rw_waiters(id);
        }
    } else {
        st.rwlocks[id].readers.retain(|&r| r != me);
        if st.rwlocks[id].readers.is_empty() {
            st.wake_rw_waiters(id);
        }
    }
    let op = if write { "write-unlock" } else { "read-unlock" };
    st.trace_op(me, &format!("{op} RwLock@{label}"));
}

/// A decision point for an atomic access (sequentially consistent under
/// the model; the access itself happens on the real atomic).
pub(crate) fn atomic_point(op: &str, label: Loc) {
    let Some((ex, me)) = current() else {
        return;
    };
    switch_point(&ex, me, &format!("{op}@{label}"));
}

/// Model path of `thread::yield_now`.
pub(crate) fn yield_point() {
    let Some((ex, me)) = current() else {
        return;
    };
    switch_point(&ex, me, "yield");
}

// ---------------------------------------------------------------------
// Model threads.
// ---------------------------------------------------------------------

/// Join handle for a thread spawned inside a model run.
pub(crate) struct ModelJoin<T> {
    ex: Arc<Execution>,
    tid: usize,
    slot: Arc<StdMutex<Option<std::thread::Result<T>>>>,
}

pub(crate) fn spawn<T, F>(name: &str, f: F) -> ModelJoin<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let (ex, me) = current().expect("model spawn outside a model run");
    let slot: Arc<StdMutex<Option<std::thread::Result<T>>>> = Arc::new(StdMutex::new(None));
    let tid = {
        let mut st = lock_state(&ex);
        let tid = st.threads.len();
        st.threads.push(ThreadSt {
            status: Status::Runnable,
            name: name.to_string(),
            last_op: "spawned".to_string(),
            woke_by_timeout: false,
        });
        tid
    };
    let ex2 = Arc::clone(&ex);
    let slot2 = Arc::clone(&slot);
    let os = std::thread::Builder::new()
        .name(format!("model-{name}"))
        .spawn(move || {
            let _tls = TlsScope::enter(Arc::clone(&ex2), tid);
            // Wait for the scheduler to hand this thread its first turn.
            {
                let st = lock_state(&ex2);
                drop(wait_active(&ex2, st, tid));
            }
            let out = catch_unwind(AssertUnwindSafe(f));
            match out {
                Ok(v) => {
                    *slot2
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(Ok(v));
                }
                Err(payload) => {
                    if !payload.is::<ModelAbort>() {
                        record_failure(
                            &ex2,
                            &format!("thread t{tid} panicked: {}", payload_str(&*payload)),
                        );
                    }
                    *slot2
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(Err(payload));
                }
            }
            finish_thread(&ex2, tid);
        })
        .expect("spawning model thread");
    {
        let mut st = lock_state(&ex);
        st.handles.push(os);
    }
    switch_point(&ex, me, &format!("spawn t{tid}({name})"));
    ModelJoin { ex, tid, slot }
}

impl<T> ModelJoin<T> {
    pub(crate) fn join(self) -> std::thread::Result<T> {
        let Some((ex, me)) = current() else {
            // Joining from outside the run (teardown paths): the OS
            // handle is joined by the runtime, so the slot is filled
            // once the run completes.
            return take_slot(&self.slot);
        };
        debug_assert!(Arc::ptr_eq(&ex, &self.ex), "join across model runs");
        switch_point(&ex, me, &format!("join t{}", self.tid));
        loop {
            let mut st = lock_state(&ex);
            if st.failure.is_some() {
                let _ = abort_if_failed(&st);
                drop(st);
                return take_slot(&self.slot);
            }
            if st.threads[self.tid].status == Status::Finished {
                break;
            }
            st.threads[me].status = Status::Blocked(Block::Join(self.tid));
            if schedule(&ex, &mut st, me).is_err() {
                let _ = abort_if_failed(&st);
                drop(st);
                return take_slot(&self.slot);
            }
            drop(wait_active(&ex, st, me));
        }
        take_slot(&self.slot)
    }
}

fn take_slot<T>(slot: &Arc<StdMutex<Option<std::thread::Result<T>>>>) -> std::thread::Result<T> {
    slot.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .take()
        .unwrap_or_else(|| Err(Box::new("model thread produced no result (aborted)")))
}
