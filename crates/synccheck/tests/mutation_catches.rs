//! Mutation harness: five deliberately broken variants of the engine's
//! synchronization protocols, each a faithful miniature of the real
//! code path with one bug injected. The model checker must catch every
//! one — with blame naming the actual defect — or the invariant
//! harnesses are weaker than they claim.
//!
//! | variant | real-code analogue |
//! |---|---|
//! | release without notify        | `AdmissionGuard::drop` forgetting `cv.notify_all()` |
//! | non-atomic budget check       | admission's `used + bytes <= limit` done without the state lock |
//! | stale cache read, no version  | `Engine::cached_plan` skipping the `stats_version` compare |
//! | completion-order gather       | `Scheduler::run_group` pushing results instead of slotting them |
//! | double-release on guard drop  | `AdmissionGuard::drop` releasing its grant twice |

use orthopt_synccheck::model::{Model, TimeoutPolicy};
use orthopt_synccheck::sync::atomic::{AtomicU64, Ordering};
use orthopt_synccheck::sync::{thread, Condvar, Mutex};
use std::sync::Arc;

/// Mutation 1 — lost wakeup: the release path decrements `used` but
/// never notifies, exactly the bug `AdmissionGuard::drop` would have
/// without its `notify_all`. Under `TimeoutPolicy::Never` (no 20 ms
/// poll to paper over it) the queued waiter sleeps forever and the
/// model must report a deadlock blaming the condvar wait.
#[test]
fn catches_lost_wakeup_in_admission_release() {
    struct Ctrl {
        state: Mutex<u64>, // used bytes
        cv: Condvar,
        limit: u64,
    }
    let failure = Model::new()
        .timeouts(TimeoutPolicy::Never)
        .check(|| {
            let ctrl = Arc::new(Ctrl {
                state: Mutex::new(0),
                cv: Condvar::new(),
                limit: 100,
            });
            let c2 = Arc::clone(&ctrl);
            // Holder grabs the whole budget...
            *ctrl.state.lock() = 100;
            let waiter = thread::spawn(move || {
                let mut used = c2.state.lock();
                while *used + 50 > c2.limit {
                    used = c2.cv.wait(used);
                }
                *used += 50;
            });
            // ... and releases it WITHOUT notifying (the mutation).
            {
                let mut used = ctrl.state.lock();
                *used -= 100;
                // BUG: missing ctrl.cv.notify_all();
            }
            waiter.join().expect("waiter");
        })
        .expect_err("the lost wakeup must be caught");
    assert!(
        failure.message.contains("deadlock"),
        "blame must be a deadlock, got: {}",
        failure.message
    );
    assert!(
        failure.message.contains("Condvar"),
        "blame must name the condvar wait, got: {}",
        failure.message
    );
    // The failing schedule is replayable evidence, not a fluke.
    assert!(!failure.schedule.is_empty());
}

/// Mutation 2 — over-admission: the budget check runs as an unlocked
/// load/compare/store instead of under the state lock (the moral
/// equivalent of a missing CAS). Two 60-byte admits against a 100-byte
/// limit can then both pass, and the checker must surface the schedule
/// where the budget is breached.
#[test]
fn catches_over_admission_on_unlocked_budget_check() {
    let failure = Model::new()
        .check(|| {
            let used = Arc::new(AtomicU64::new(0));
            let limit = 100u64;
            let admit = move |used: &AtomicU64| {
                // BUG: check-then-act without atomicity — both admits
                // can observe `cur == 0` and then both take the grant.
                let cur = used.load(Ordering::SeqCst);
                if cur + 60 <= limit {
                    used.fetch_add(60, Ordering::SeqCst);
                    true
                } else {
                    false
                }
            };
            let u2 = Arc::clone(&used);
            let t = thread::spawn(move || admit(&u2));
            admit(&used);
            t.join().expect("admitting thread");
            assert!(
                used.load(Ordering::SeqCst) <= limit,
                "over-admitted past the global limit"
            );
        })
        .expect_err("the over-admission race must be caught");
    assert!(
        failure
            .message
            .contains("over-admitted past the global limit"),
        "blame must name the breached budget, got: {}",
        failure.message
    );
}

/// Mutation 3 — stale cache hit: the lookup returns whatever entry is
/// cached without comparing its stamped stats version against the
/// current one (the `entry.stats_version == version` check deleted).
/// After a visible bump the reader gets a plan compiled under the old
/// statistics, and the checker must find the schedule exhibiting it.
#[test]
fn catches_stale_plan_cache_read_without_version_check() {
    struct Cache {
        version: AtomicU64,
        // (stamped version, payload) — the cached "plan".
        entry: Mutex<Option<(u64, u64)>>,
    }
    let failure = Model::new()
        .check(|| {
            let cache = Arc::new(Cache {
                version: AtomicU64::new(0),
                entry: Mutex::new(Some((0, 41))),
            });
            let c2 = Arc::clone(&cache);
            let bumper = thread::spawn(move || {
                c2.version.fetch_add(1, Ordering::SeqCst);
            });
            bumper.join().expect("bumper");
            // The bump is visible (join = happens-before). A correct
            // cache now recompiles; the mutated one serves the entry.
            let lookup = {
                let guard = cache.entry.lock();
                // BUG: no `stamped == version.load()` comparison.
                guard.map(|(stamped, payload)| (stamped, payload))
            };
            let (stamped, payload) = lookup.expect("entry present");
            assert_eq!(payload, 41);
            assert_eq!(
                stamped,
                cache.version.load(Ordering::SeqCst),
                "stale plan served across a stats-version bump"
            );
        })
        .expect_err("the stale read must be caught");
    assert!(
        failure.message.contains("stale plan served"),
        "blame must name the stale cache entry, got: {}",
        failure.message
    );
}

/// Mutation 4 — gather-order race: workers append results in completion
/// order instead of writing them into their submission slot (the
/// scheduler's `done.0[slot] = ...` replaced by a push). Some schedule
/// completes task 1 before task 0 and the gathered vector comes back
/// permuted; the checker must find it.
#[test]
fn catches_completion_order_gather_in_scheduler() {
    struct Group {
        results: Mutex<Vec<u64>>,
        cv: Condvar,
    }
    let failure = Model::new()
        .check(|| {
            let group = Arc::new(Group {
                results: Mutex::new(Vec::new()),
                cv: Condvar::new(),
            });
            for task in [0u64, 1] {
                let g = Arc::clone(&group);
                thread::spawn(move || {
                    // BUG: completion-order push instead of slot write.
                    let mut res = g.results.lock();
                    res.push(task * 10);
                    if res.len() == 2 {
                        g.cv.notify_all();
                    }
                });
            }
            let mut res = group.results.lock();
            while res.len() < 2 {
                res = group.cv.wait(res);
            }
            assert_eq!(
                *res,
                vec![0, 10],
                "results gathered out of submission order"
            );
        })
        .expect_err("the gather-order race must be caught");
    assert!(
        failure.message.contains("out of submission order"),
        "blame must name the reordering, got: {}",
        failure.message
    );
}

/// Mutation 5 — double release: the guard's drop path releases its
/// grant twice (`AdmissionGuard::drop` running its decrement twice, or
/// a clone of the guard escaping). A second admit then sees a budget
/// that was never really freed and the accounting goes negative /
/// over-admits; the checker must catch the corrupted ledger.
#[test]
fn catches_double_release_in_guard_drop() {
    let failure = Model::new()
        .check(|| {
            let state = Arc::new((Mutex::new(0i64), Condvar::new()));
            let limit = 100i64;
            let admit = move |st: &(Mutex<i64>, Condvar), bytes: i64| {
                let mut used = st.0.lock();
                while *used + bytes > limit {
                    used = st.1.wait(used);
                }
                *used += bytes;
            };
            let release = |st: &(Mutex<i64>, Condvar), bytes: i64| {
                let mut used = st.0.lock();
                *used -= bytes;
                drop(used);
                st.1.notify_all();
            };
            admit(&state, 60);
            let s2 = Arc::clone(&state);
            let other = thread::spawn(move || {
                admit(&s2, 60);
                release(&s2, 60);
            });
            // BUG: the guard's grant is released twice.
            release(&state, 60);
            release(&state, 60);
            other.join().expect("other admitter");
            let used = *state.0.lock();
            assert!(
                used >= 0,
                "double release: budget ledger went negative ({used})"
            );
        })
        .expect_err("the double release must be caught");
    assert!(
        failure.message.contains("double release"),
        "blame must name the double release, got: {}",
        failure.message
    );
}
