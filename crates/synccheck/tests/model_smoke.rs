//! Self-tests of the model-check runtime: the scheduler must find
//! textbook races, report deadlocks with blame, replay failing
//! schedules, and leave correct programs alone.

use orthopt_synccheck::model::{Model, Strategy, TimeoutPolicy};
use orthopt_synccheck::sync::atomic::{AtomicU64, Ordering};
use orthopt_synccheck::sync::{thread, Condvar, Mutex};
use std::sync::Arc;

/// A mutex-protected counter is race-free: every schedule sees 2.
#[test]
fn mutex_counter_is_race_free() {
    let report = Model::new().run(|| {
        let counter = Arc::new(Mutex::new(0u64));
        let c2 = Arc::clone(&counter);
        let t = thread::spawn(move || {
            *c2.lock() += 1;
        });
        *counter.lock() += 1;
        t.join().expect("joining incrementer");
        assert_eq!(*counter.lock(), 2);
    });
    assert!(report.schedules >= 1);
}

/// The classic load/store race: two threads doing read-modify-write on
/// an atomic without CAS lose an update under some interleaving. The
/// checker must find it.
#[test]
fn finds_lost_update_race() {
    let failure = Model::new()
        .check(|| {
            let v = Arc::new(AtomicU64::new(0));
            let v2 = Arc::clone(&v);
            let t = thread::spawn(move || {
                let x = v2.load(Ordering::SeqCst);
                v2.store(x + 1, Ordering::SeqCst);
            });
            let x = v.load(Ordering::SeqCst);
            v.store(x + 1, Ordering::SeqCst);
            t.join().expect("joining racer");
            assert_eq!(v.load(Ordering::SeqCst), 2, "lost update");
        })
        .expect_err("the lost-update race must be found");
    assert!(
        failure.message.contains("lost update"),
        "blame should quote the failing assertion, got: {}",
        failure.message
    );
    assert!(!failure.schedule.is_empty());
}

/// The same failing schedule replays deterministically.
#[test]
fn failing_schedule_replays() {
    let body = || {
        let v = Arc::new(AtomicU64::new(0));
        let v2 = Arc::clone(&v);
        let t = thread::spawn(move || {
            let x = v2.load(Ordering::SeqCst);
            v2.store(x + 1, Ordering::SeqCst);
        });
        let x = v.load(Ordering::SeqCst);
        v.store(x + 1, Ordering::SeqCst);
        t.join().expect("joining racer");
        assert_eq!(v.load(Ordering::SeqCst), 2, "lost update");
    };
    let failure = Model::new().check(body).expect_err("race must be found");
    let replayed = Model::new()
        .replay(&failure.schedule, body)
        .expect_err("replay must reproduce the failure");
    assert_eq!(replayed.message, failure.message);
}

/// A condvar wait with no notifier deadlocks; the report must blame the
/// waiting thread and the condvar site.
#[test]
fn reports_deadlock_with_blame() {
    let failure = Model::new()
        .timeouts(TimeoutPolicy::Never)
        .check(|| {
            static STATE: Mutex<bool> = Mutex::new(false);
            static CV: Condvar = Condvar::new();
            let mut ready = STATE.lock();
            while !*ready {
                ready = CV.wait(ready);
            }
        })
        .expect_err("waiting forever must be reported as deadlock");
    assert!(
        failure.message.contains("deadlock"),
        "got: {}",
        failure.message
    );
    assert!(
        failure.message.contains("Condvar"),
        "blame should name the condvar, got: {}",
        failure.message
    );
}

/// Condvar wakeups work: a correct producer/consumer passes every
/// schedule, and DFS exhausts the space.
#[test]
fn condvar_handshake_passes_all_schedules() {
    let report = Model::new().timeouts(TimeoutPolicy::Never).run(|| {
        let shared = Arc::new((Mutex::new(false), Condvar::new()));
        let s2 = Arc::clone(&shared);
        let t = thread::spawn(move || {
            *s2.0.lock() = true;
            s2.1.notify_all();
        });
        {
            let mut ready = shared.0.lock();
            while !*ready {
                ready = shared.1.wait(ready);
            }
        }
        t.join().expect("joining producer");
    });
    assert!(report.exhausted, "DFS should exhaust this tiny space");
    assert!(report.distinct >= 2, "must explore both wait/no-wait paths");
}

/// `WhenIdle` lets a timed waiter escape when nothing else can run, so
/// a poll loop that rechecks a predicate terminates without a notify.
#[test]
fn timed_wait_wakes_when_idle() {
    let report = Model::new()
        .timeouts(TimeoutPolicy::WhenIdle)
        .max_schedules(64)
        .run(|| {
            let shared = Arc::new((Mutex::new(false), Condvar::new()));
            let s2 = Arc::clone(&shared);
            // Producer sets the flag but (bug-like) never notifies;
            // the timed poll loop must still make progress.
            let t = thread::spawn(move || {
                *s2.0.lock() = true;
            });
            let mut ready = shared.0.lock();
            while !*ready {
                let (guard, _timed_out) = shared
                    .1
                    .wait_timeout(ready, std::time::Duration::from_millis(20));
                ready = guard;
            }
            drop(ready);
            t.join().expect("joining producer");
        });
    assert!(report.schedules >= 1);
}

/// Random strategy explores many distinct schedules with three racing
/// threads.
#[test]
fn random_strategy_covers_many_schedules() {
    let report = Model::new()
        .strategy(Strategy::Random)
        .seed(7)
        .max_schedules(300)
        .run(|| {
            let v = Arc::new(AtomicU64::new(0));
            let mut joins = Vec::new();
            for _ in 0..3 {
                let v2 = Arc::clone(&v);
                joins.push(thread::spawn(move || {
                    v2.fetch_add(1, Ordering::SeqCst);
                }));
            }
            for j in joins {
                j.join().expect("joining adder");
            }
            assert_eq!(v.load(Ordering::SeqCst), 3);
        });
    assert!(
        report.distinct > 50,
        "expected many distinct schedules, got {}",
        report.distinct
    );
}

/// A panic inside a spawned model thread is captured as a failure with
/// the thread's blame, not a process abort.
#[test]
fn spawned_thread_panic_is_reported() {
    let failure = Model::new()
        .check(|| {
            let t = thread::spawn(|| {
                panic!("boom in worker");
            });
            let _ = t.join();
        })
        .expect_err("worker panic must fail the check");
    assert!(
        failure.message.contains("boom in worker"),
        "got: {}",
        failure.message
    );
}

/// Step budget catches livelocks (a spin loop that never terminates).
#[test]
fn step_budget_catches_livelock() {
    let failure = Model::new()
        .max_steps(200)
        .check(|| {
            let flag = Arc::new(AtomicU64::new(0));
            // No thread ever sets the flag; spinning forever must be
            // reported rather than hanging the test.
            while flag.load(Ordering::SeqCst) == 0 {
                thread::yield_now();
            }
        })
        .expect_err("livelock must be reported");
    assert!(
        failure.message.contains("step budget"),
        "got: {}",
        failure.message
    );
}
