//! Lock-order detector conformance: consistent nesting passes, an
//! inconsistent order panics at first exhibition with acquisition-site
//! and held-lock blame, and condvar re-acquisition never reads as a
//! self-nested lock.
//!
//! The acquisition graph is process-global, so every test uses lock
//! classes of its own (each `Mutex::new` call site is one class) and no
//! test asserts exact global edge counts.
#![cfg(debug_assertions)]

use orthopt_synccheck::lockorder;
use orthopt_synccheck::sync::{thread, Condvar, Mutex};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

/// Runs `f` with the panic printer silenced, restoring it afterwards;
/// returns the panic message.
fn expect_panic(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let err = catch_unwind(f).expect_err("expected a lock-order panic");
    std::panic::set_hook(prev);
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(ToString::to_string))
        .unwrap_or_default()
}

#[test]
fn consistent_nesting_is_clean() {
    let a = Arc::new(Mutex::new(0u32));
    let b = Arc::new(Mutex::new(0u32));
    let before = lockorder::edge_count();
    // A -> B from two threads, many times: one recorded edge, no panic.
    for _ in 0..3 {
        let ga = a.lock();
        let _gb = b.lock();
        drop(ga);
    }
    let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
    thread::spawn(move || {
        let _ga = a2.lock();
        let _gb = b2.lock();
    })
    .join()
    .expect("nested locker");
    assert!(lockorder::edge_count() > before);
}

#[test]
fn inconsistent_order_panics_with_blame() {
    let c = Mutex::new(0u32);
    let d = Mutex::new(0u32);
    {
        let _gc = c.lock();
        let _gd = d.lock(); // establishes C -> D
    }
    let msg = expect_panic(AssertUnwindSafe(|| {
        let _gd = d.lock();
        let _gc = c.lock(); // closes the cycle: D -> C
    }));
    assert!(
        msg.contains("lock-order cycle"),
        "panic should name the cycle, got: {msg}"
    );
    assert!(
        msg.contains("lockorder.rs"),
        "panic should carry the acquisition sites, got: {msg}"
    );
    assert!(
        msg.contains("while holding ["),
        "panic should list held locks, got: {msg}"
    );
}

#[test]
fn two_instances_of_one_class_must_not_nest() {
    // Both mutexes come from the same `new` call site = one class
    // (think: two sessions' admission states locked by one thread).
    let locks: Vec<Mutex<u32>> = (0..2).map(|_| Mutex::new(0)).collect();
    let msg = expect_panic(AssertUnwindSafe(|| {
        let _g0 = locks[0].lock();
        let _g1 = locks[1].lock();
    }));
    assert!(
        msg.contains("re-acquiring lock class"),
        "self-nesting blame expected, got: {msg}"
    );
}

#[test]
fn condvar_wait_reacquire_is_not_self_nesting() {
    let m = Mutex::new(false);
    let cv = Condvar::new();
    let guard = m.lock();
    // wait_timeout releases, parks briefly, re-acquires: must not read
    // as the class nesting under itself.
    let (guard, timed_out) = cv.wait_timeout(guard, Duration::from_millis(1));
    assert!(timed_out);
    drop(guard);
    assert!(lockorder::held_by_current_thread().is_empty());
}

#[test]
fn release_untracks_in_any_order() {
    let x = Mutex::new(0u32);
    let y = Mutex::new(0u32);
    let gx = x.lock();
    let gy = y.lock();
    assert_eq!(lockorder::held_by_current_thread().len(), 2);
    drop(gx); // outer released first
    assert_eq!(lockorder::held_by_current_thread().len(), 1);
    drop(gy);
    assert!(lockorder::held_by_current_thread().is_empty());
    // The pair nests cleanly again afterwards.
    let _gx = x.lock();
    let _gy = y.lock();
}
