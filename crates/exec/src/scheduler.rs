//! Shared morsel-worker scheduler.
//!
//! Before the multi-session refactor every `Exchange` node built and
//! tore down its own `std::thread::scope` pool, so N concurrent queries
//! spawned N×workers short-lived threads and competed blindly for the
//! CPU. The [`Scheduler`] replaces that with one long-lived, fixed-size
//! worker pool shared by every query in the process:
//!
//! * **Per-query task queues** — a query submits its worker closures as
//!   one *group*; the group's tasks enter a queue private to that query.
//! * **Fair round-robin dispatch** — pool workers take one task at a
//!   time from the next query in a rotating order, so a 64-morsel scan
//!   cannot starve a 2-morsel point query that arrived later.
//! * **Deterministic gather** — results are delivered indexed by task
//!   (submission) position, not completion order. Exchange strategies
//!   assign morsel ranges to task slots exactly as they used to assign
//!   them to dedicated workers, so parallel results remain byte-identical
//!   to the serial engine no matter how the pool interleaves queries.
//!
//! Tasks must be `'static`: they capture an `Arc<Catalog>` (and other
//! owned state) rather than borrowing the caller's stack, which is why
//! direct [`Pipeline`](crate::Pipeline) embedders install one with
//! [`Pipeline::set_shared_catalog`](crate::Pipeline::set_shared_catalog)
//! before running exchanges in parallel.
//!
//! Deadlock freedom: a pool worker never blocks on the scheduler. Worker
//! plans are produced by exchange plan surgery, whose shape grammar
//! excludes nested `Exchange` nodes, so a task never submits a group of
//! its own; only query threads wait for groups, and every task they wait
//! on is runnable by any free worker.

use orthopt_synccheck::sync::{thread, Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};

/// Hard cap on the pool, mirroring
/// [`parallel::MAX_WORKERS`](crate::parallel::MAX_WORKERS).
const MAX_POOL: usize = 64;

/// A unit of work: runs on one pool worker, receives that worker's
/// stable index (0-based) for stats attribution.
type Task = Box<dyn FnOnce(usize) + Send + 'static>;

/// Outcome of one task: the value it returned, or the panic payload the
/// scheduler caught (pool workers survive task panics).
pub type TaskResult<T> = std::thread::Result<T>;

#[derive(Default)]
struct State {
    /// Pending tasks, one queue per active query group.
    queues: HashMap<u64, VecDeque<Task>>,
    /// Queries with at least one pending task, in dispatch rotation.
    rotation: VecDeque<u64>,
    next_group: u64,
    shutdown: bool,
}

struct Inner {
    state: Mutex<State>,
    /// Signalled when tasks arrive or shutdown is requested.
    work: Condvar,
    workers: usize,
}

/// A fixed pool of long-lived worker threads executing tasks from
/// per-query queues under fair round-robin dispatch. See the module
/// docs for the design; most callers want [`Scheduler::global`].
pub struct Scheduler {
    inner: Arc<Inner>,
}

impl Scheduler {
    /// Builds a pool with `workers` threads (clamped to 1..=64). Worker
    /// threads exit when the `Scheduler` is dropped.
    pub fn new(workers: usize) -> Scheduler {
        let workers = workers.clamp(1, MAX_POOL);
        let inner = Arc::new(Inner {
            state: Mutex::new(State::default()),
            work: Condvar::new(),
            workers,
        });
        for idx in 0..workers {
            let inner = Arc::clone(&inner);
            thread::spawn_named(&format!("orthopt-worker-{idx}"), move || {
                worker_loop(&inner, idx);
            });
        }
        Scheduler { inner }
    }

    /// The process-wide pool every query's exchanges dispatch to. Sized
    /// once, on first use: `ORTHOPT_POOL_WORKERS` if set, otherwise the
    /// machine's available parallelism. A per-query fan-out wider than
    /// the pool still runs — its tasks queue on the lanes there are.
    pub fn global() -> &'static Scheduler {
        static GLOBAL: OnceLock<Scheduler> = OnceLock::new();
        GLOBAL.get_or_init(|| Scheduler::new(global_pool_size()))
    }

    /// Number of worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.inner.workers
    }

    /// Runs a group of tasks to completion and returns their outcomes
    /// in submission order. The calling thread blocks until every task
    /// of the group has finished; tasks of concurrently submitted
    /// groups interleave with this one's under round-robin dispatch.
    ///
    /// Each closure receives the executing pool worker's index. A
    /// panicking task is reported as `Err(payload)` in its slot without
    /// harming the pool or the other tasks.
    pub fn run_group<T, F>(&self, tasks: Vec<F>) -> Vec<TaskResult<T>>
    where
        T: Send + 'static,
        F: FnOnce(usize) -> T + Send + 'static,
    {
        if tasks.is_empty() {
            return Vec::new();
        }
        struct Group<T> {
            done: Mutex<(Vec<Option<TaskResult<T>>>, usize)>,
            cv: Condvar,
        }
        let n = tasks.len();
        let group = Arc::new(Group {
            done: Mutex::new((std::iter::repeat_with(|| None).take(n).collect(), n)),
            cv: Condvar::new(),
        });
        {
            let mut st = self.inner.state.lock();
            let id = st.next_group;
            st.next_group += 1;
            let queue: VecDeque<Task> = tasks
                .into_iter()
                .enumerate()
                .map(|(slot, f)| {
                    let group = Arc::clone(&group);
                    let task: Task = Box::new(move |worker: usize| {
                        let out = catch_unwind(AssertUnwindSafe(|| f(worker)));
                        // The shim lock recovers from poisoning, so even a
                        // panicking sibling task cannot wedge the group.
                        let mut done = group.done.lock();
                        done.0[slot] = Some(out);
                        done.1 -= 1;
                        if done.1 == 0 {
                            group.cv.notify_all();
                        }
                    });
                    task
                })
                .collect();
            st.queues.insert(id, queue);
            st.rotation.push_back(id);
            drop(st);
            self.inner.work.notify_all();
        }
        let mut done = group.done.lock();
        while done.1 > 0 {
            done = group.cv.wait(done);
        }
        done.0
            .iter_mut()
            .map(|s| s.take().expect("task slot filled"))
            .collect()
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.inner.state.lock().shutdown = true;
        self.inner.work.notify_all();
        // Workers drain remaining queues before exiting; nothing to join
        // explicitly — the threads hold their own Arc<Inner>.
    }
}

fn worker_loop(inner: &Inner, worker_idx: usize) {
    loop {
        let task = {
            let mut st = inner.state.lock();
            loop {
                if let Some(id) = st.rotation.pop_front() {
                    let queue = st.queues.get_mut(&id).expect("rotation entry has queue");
                    let task = queue.pop_front().expect("queued group is non-empty");
                    if queue.is_empty() {
                        st.queues.remove(&id);
                    } else {
                        // One task per turn: rotate the query to the back
                        // so other active queries get the next slot.
                        st.rotation.push_back(id);
                    }
                    break task;
                }
                if st.shutdown {
                    return;
                }
                st = inner.work.wait(st);
            }
        };
        task(worker_idx);
    }
}

/// Pool size policy for [`Scheduler::global`].
fn global_pool_size() -> usize {
    std::env::var("ORTHOPT_POOL_WORKERS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        })
        .clamp(1, MAX_POOL)
}

#[cfg(test)]
mod tests {
    use super::*;
    use orthopt_synccheck::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_come_back_in_submission_order() {
        let s = Scheduler::new(4);
        let tasks: Vec<_> = (0..32)
            .map(|i| {
                move |_w: usize| {
                    if i % 3 == 0 {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                    i * 10
                }
            })
            .collect();
        let out = s.run_group(tasks);
        let vals: Vec<i32> = out.into_iter().map(|r| r.expect("no panic")).collect();
        assert_eq!(vals, (0..32).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn panicking_task_reported_without_killing_pool() {
        let s = Scheduler::new(2);
        let out = s.run_group(vec![
            Box::new(|_| 1) as Box<dyn FnOnce(usize) -> i32 + Send>,
            Box::new(|_| panic!("boom")),
            Box::new(|_| 3),
        ]);
        assert_eq!(*out[0].as_ref().expect("ok"), 1);
        assert!(out[1].is_err());
        assert_eq!(*out[2].as_ref().expect("ok"), 3);
        // Pool still serves new groups after the panic.
        let again = s.run_group(vec![|_w: usize| 7]);
        assert_eq!(*again[0].as_ref().expect("ok"), 7);
    }

    #[test]
    fn concurrent_groups_interleave_and_complete() {
        let s = Arc::new(Scheduler::new(2));
        let peak = Arc::new(AtomicUsize::new(0));
        let live = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..4)
            .map(|q| {
                let s = Arc::clone(&s);
                let peak = Arc::clone(&peak);
                let live = Arc::clone(&live);
                thread::spawn(move || {
                    let tasks: Vec<_> = (0..8)
                        .map(|i| {
                            let peak = Arc::clone(&peak);
                            let live = Arc::clone(&live);
                            move |_w: usize| {
                                let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                                peak.fetch_max(now, Ordering::SeqCst);
                                std::thread::sleep(std::time::Duration::from_micros(200));
                                live.fetch_sub(1, Ordering::SeqCst);
                                q * 100 + i
                            }
                        })
                        .collect();
                    let out = s.run_group(tasks);
                    out.into_iter()
                        .map(|r| r.expect("no panic"))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for (q, h) in handles.into_iter().enumerate() {
            let got = h.join().expect("query thread");
            assert_eq!(got, (0..8).map(|i| q * 100 + i).collect::<Vec<_>>());
        }
        // The fixed pool bounds concurrency at its worker count.
        assert!(peak.load(Ordering::SeqCst) <= 2);
    }

    #[test]
    fn worker_indices_are_within_pool() {
        let s = Scheduler::new(3);
        let out = s.run_group((0..16).map(|_| |w: usize| w).collect::<Vec<_>>());
        for r in out {
            assert!(r.expect("ok") < 3);
        }
    }

    #[test]
    fn empty_group_returns_immediately() {
        let s = Scheduler::new(1);
        let out: Vec<TaskResult<()>> = s.run_group(Vec::<fn(usize)>::new());
        assert!(out.is_empty());
    }
}
