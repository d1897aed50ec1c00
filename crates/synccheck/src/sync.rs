//! The synchronization shim: drop-in replacements for the `std::sync`
//! primitives and `std::thread::spawn`, used by every engine crate.
//!
//! Outside a model run: passthroughs to `std`, with two deliberate
//! behaviour changes over raw `std::sync`:
//!
//! * **Poison recovery.** `Mutex::lock` / `RwLock::read` / `write`
//!   return guards directly — a panicking holder never wedges shared
//!   state into an unrecoverable `Err` (the engine's shared state is
//!   kept consistent *before* any panic can escape a critical section;
//!   see DESIGN.md §12). This retires the `.lock().unwrap()` poisoning
//!   footgun wholesale.
//! * **Lock-order tracking.** Every acquisition site (the
//!   `Mutex::new` / `RwLock::new` call site, captured via
//!   `#[track_caller]`) feeds the global acquisition-order graph in
//!   [`crate::lockorder`] under `debug_assertions`; an inconsistent
//!   order panics with blame at the moment it is first exhibited, long
//!   before it deadlocks in production.
//!
//! When the calling thread is inside a [`crate::model::Model`] run,
//! every acquire/release/wait/notify/load/store additionally becomes a
//! scheduler decision point of the deterministic model-check runtime.
//! Outside a run that check is one load of the model's count of live
//! runs, and the shim is the passthrough above: the model harnesses and
//! the engine share one build.

use std::panic::Location;
use std::sync::{Condvar as StdCondvar, Mutex as StdMutex, RwLock as StdRwLock};
use std::time::Duration;

use crate::lockorder;
use crate::model;

type Loc = &'static Location<'static>;

fn recover<T>(r: Result<T, std::sync::PoisonError<T>>) -> T {
    r.unwrap_or_else(std::sync::PoisonError::into_inner)
}

// ---------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------

/// A mutual-exclusion lock; `std::sync::Mutex` semantics with poison
/// recovery, lock-order tracking, and model-check instrumentation.
pub struct Mutex<T: ?Sized> {
    label: Loc,
    inner: StdMutex<T>,
}

/// RAII guard returned by [`Mutex::lock`]; releases on drop.
pub struct MutexGuard<'a, T: ?Sized> {
    lock: &'a Mutex<T>,
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// Creates a mutex. The call site becomes the lock's *class* for
    /// lock-order analysis and model traces.
    #[track_caller]
    pub const fn new(value: T) -> Mutex<T> {
        Mutex {
            label: Location::caller(),
            inner: StdMutex::new(value),
        }
    }

    /// Consumes the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        recover(self.inner.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    fn addr(&self) -> usize {
        std::ptr::from_ref(&self.inner).cast::<()>() as usize
    }

    /// Acquires the lock, blocking until available. Recovers from
    /// poisoning instead of returning a `Result`.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        lockorder::on_acquire(self.label);
        if model::is_modeled() {
            model::mutex_lock(self.addr(), self.label);
            return MutexGuard {
                lock: self,
                inner: Some(self.relock_raw()),
            };
        }
        MutexGuard {
            lock: self,
            inner: Some(recover(self.inner.lock())),
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        recover(self.inner.get_mut())
    }

    /// Acquires the real lock after the model runtime granted (or, on
    /// teardown, stopped tracking) ownership. The model guarantees the
    /// holder released before we were scheduled, so `try_lock` succeeds
    /// except while an aborted execution unwinds — then we block
    /// briefly on the real lock.
    fn relock_raw(&self) -> std::sync::MutexGuard<'_, T> {
        match self.inner.try_lock() {
            Ok(g) => g,
            Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => recover(self.inner.lock()),
        }
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard already released")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard already released")
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if self.inner.is_some() {
            model::mutex_unlock(self.lock.addr(), self.lock.label);
            lockorder::on_release(self.lock.label);
        }
        // The std guard (the `inner` field) drops after this body,
        // releasing the real lock — still within this thread's active
        // window under the model, so no other thread observes the gap.
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mutex").field("label", &self.label).finish()
    }
}

impl<T: Default> Default for Mutex<T> {
    #[track_caller]
    fn default() -> Mutex<T> {
        Mutex::new(T::default())
    }
}

// ---------------------------------------------------------------------
// Condvar
// ---------------------------------------------------------------------

/// A condition variable paired with [`Mutex`]; `std::sync::Condvar`
/// semantics with model-check instrumentation.
pub struct Condvar {
    label: Loc,
    inner: StdCondvar,
}

impl Condvar {
    /// Creates a condition variable; the call site labels it in model
    /// traces.
    #[track_caller]
    pub const fn new() -> Condvar {
        Condvar {
            label: Location::caller(),
            inner: StdCondvar::new(),
        }
    }

    fn addr(&self) -> usize {
        std::ptr::from_ref(&self.inner).cast::<()>() as usize
    }

    /// Releases the guard's mutex, blocks until notified, re-acquires.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        self.do_wait(guard, None).0
    }

    /// Like [`wait`](Condvar::wait) with a timeout; returns the
    /// re-acquired guard and whether the wait timed out. Under the
    /// model runtime the duration is ignored and the
    /// [`crate::model::TimeoutPolicy`] decides when (if ever) a timed
    /// waiter wakes spuriously.
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        dur: Duration,
    ) -> (MutexGuard<'a, T>, bool) {
        self.do_wait(guard, Some(dur))
    }

    fn do_wait<'a, T>(
        &self,
        mut guard: MutexGuard<'a, T>,
        timeout: Option<Duration>,
    ) -> (MutexGuard<'a, T>, bool) {
        let lock = guard.lock;
        // Release before / re-acquire after, so the detector never sees
        // the re-acquisition as a nested lock under itself.
        lockorder::on_release(lock.label);
        let std_guard = guard.inner.take().expect("guard already released");
        drop(guard);
        if model::is_modeled() {
            drop(std_guard);
            let timed_out = model::cv_wait(
                self.addr(),
                self.label,
                lock.addr(),
                lock.label,
                timeout.is_some(),
            )
            .unwrap_or(false);
            lockorder::on_acquire(lock.label);
            return (
                MutexGuard {
                    lock,
                    inner: Some(lock.relock_raw()),
                },
                timed_out,
            );
        }
        let (std_guard, timed_out) = match timeout {
            None => (recover(self.inner.wait(std_guard)), false),
            Some(dur) => match self.inner.wait_timeout(std_guard, dur) {
                Ok((g, t)) => (g, t.timed_out()),
                Err(poison) => {
                    let (g, t) = poison.into_inner();
                    (g, t.timed_out())
                }
            },
        };
        lockorder::on_acquire(lock.label);
        (
            MutexGuard {
                lock,
                inner: Some(std_guard),
            },
            timed_out,
        )
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        model::cv_notify(self.addr(), self.label, false);
        self.inner.notify_one();
    }

    /// Wakes all waiters.
    pub fn notify_all(&self) {
        model::cv_notify(self.addr(), self.label, true);
        self.inner.notify_all();
    }
}

impl Default for Condvar {
    #[track_caller]
    fn default() -> Condvar {
        Condvar::new()
    }
}

impl std::fmt::Debug for Condvar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Condvar")
            .field("label", &self.label)
            .finish()
    }
}

// ---------------------------------------------------------------------
// RwLock
// ---------------------------------------------------------------------

/// A reader-writer lock; `std::sync::RwLock` semantics with poison
/// recovery, lock-order tracking (one class per `new` site, shared by
/// readers and writers), and model-check instrumentation.
pub struct RwLock<T: ?Sized> {
    label: Loc,
    inner: StdRwLock<T>,
}

/// RAII shared-read guard returned by [`RwLock::read`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    lock: &'a RwLock<T>,
    inner: Option<std::sync::RwLockReadGuard<'a, T>>,
}

/// RAII exclusive-write guard returned by [`RwLock::write`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    lock: &'a RwLock<T>,
    inner: Option<std::sync::RwLockWriteGuard<'a, T>>,
}

impl<T> RwLock<T> {
    /// Creates a reader-writer lock; the call site becomes its
    /// lock-order class.
    #[track_caller]
    pub const fn new(value: T) -> RwLock<T> {
        RwLock {
            label: Location::caller(),
            inner: StdRwLock::new(value),
        }
    }

    /// Consumes the lock, returning the protected value.
    pub fn into_inner(self) -> T {
        recover(self.inner.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    fn addr(&self) -> usize {
        std::ptr::from_ref(&self.inner).cast::<()>() as usize
    }

    /// Acquires shared read access, recovering from poisoning.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        lockorder::on_acquire(self.label);
        if model::is_modeled() {
            model::rw_lock(self.addr(), self.label, false);
            let inner = match self.inner.try_read() {
                Ok(g) => g,
                Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
                Err(std::sync::TryLockError::WouldBlock) => recover(self.inner.read()),
            };
            return RwLockReadGuard {
                lock: self,
                inner: Some(inner),
            };
        }
        RwLockReadGuard {
            lock: self,
            inner: Some(recover(self.inner.read())),
        }
    }

    /// Acquires exclusive write access, recovering from poisoning.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        lockorder::on_acquire(self.label);
        if model::is_modeled() {
            model::rw_lock(self.addr(), self.label, true);
            let inner = match self.inner.try_write() {
                Ok(g) => g,
                Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
                Err(std::sync::TryLockError::WouldBlock) => recover(self.inner.write()),
            };
            return RwLockWriteGuard {
                lock: self,
                inner: Some(inner),
            };
        }
        RwLockWriteGuard {
            lock: self,
            inner: Some(recover(self.inner.write())),
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        recover(self.inner.get_mut())
    }
}

impl<T: ?Sized> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard already released")
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        if self.inner.is_some() {
            model::rw_unlock(self.lock.addr(), self.lock.label, false);
            lockorder::on_release(self.lock.label);
        }
    }
}

impl<T: ?Sized> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard already released")
    }
}

impl<T: ?Sized> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard already released")
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        if self.inner.is_some() {
            model::rw_unlock(self.lock.addr(), self.lock.label, true);
            lockorder::on_release(self.lock.label);
        }
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RwLock")
            .field("label", &self.label)
            .finish()
    }
}

// ---------------------------------------------------------------------
// Barrier
// ---------------------------------------------------------------------

/// A reusable N-thread rendezvous, built on the shim's own [`Mutex`] and
/// [`Condvar`] so it is model-checkable like everything else.
pub struct Barrier {
    n: usize,
    state: Mutex<BarrierState>,
    cv: Condvar,
}

struct BarrierState {
    count: usize,
    generation: u64,
}

impl Barrier {
    /// A barrier that releases once `n` threads have called
    /// [`wait`](Barrier::wait).
    #[track_caller]
    pub const fn new(n: usize) -> Barrier {
        Barrier {
            n,
            state: Mutex::new(BarrierState {
                count: 0,
                generation: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// Blocks until `n` threads have arrived; returns `true` on exactly
    /// one of them (the leader), like `std::sync::Barrier`.
    pub fn wait(&self) -> bool {
        let mut st = self.state.lock();
        let generation = st.generation;
        st.count += 1;
        if st.count == self.n {
            st.count = 0;
            st.generation += 1;
            drop(st);
            self.cv.notify_all();
            return true;
        }
        while st.generation == generation {
            st = self.cv.wait(st);
        }
        false
    }
}

impl std::fmt::Debug for Barrier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Barrier").field("n", &self.n).finish()
    }
}

// ---------------------------------------------------------------------
// Atomics
// ---------------------------------------------------------------------

/// Shimmed atomic types. Same operation signatures as
/// `std::sync::atomic` (including `Ordering` parameters); under the
/// model runtime every access is a scheduler decision point and executes
/// sequentially consistently regardless of the requested ordering —
/// weak-memory reorderings are out of the model's scope (that is what
/// the `// relaxed-ok:` lint discipline is for).
pub mod atomic {
    use std::panic::Location;
    pub use std::sync::atomic::Ordering;

    use crate::model::atomic_point as point;

    type Loc = &'static Location<'static>;

    macro_rules! atomic_int {
        ($(#[$meta:meta])* $name:ident, $std:ty, $ty:ty) => {
            $(#[$meta])*
            pub struct $name {
                label: Loc,
                inner: $std,
            }

            impl $name {
                /// Creates the atomic; the call site labels it in model
                /// traces.
                #[track_caller]
                pub const fn new(value: $ty) -> $name {
                    $name {
                        label: Location::caller(),
                        inner: <$std>::new(value),
                    }
                }

                /// Atomic load.
                #[inline]
                pub fn load(&self, order: Ordering) -> $ty {
                    point("load", self.label);
                    self.inner.load(order)
                }

                /// Atomic store.
                #[inline]
                pub fn store(&self, value: $ty, order: Ordering) {
                    point("store", self.label);
                    self.inner.store(value, order);
                }

                /// Atomic swap, returning the previous value.
                #[inline]
                pub fn swap(&self, value: $ty, order: Ordering) -> $ty {
                    point("swap", self.label);
                    self.inner.swap(value, order)
                }

                /// Atomic add, returning the previous value.
                #[inline]
                pub fn fetch_add(&self, value: $ty, order: Ordering) -> $ty {
                    point("fetch_add", self.label);
                    self.inner.fetch_add(value, order)
                }

                /// Atomic subtract, returning the previous value.
                #[inline]
                pub fn fetch_sub(&self, value: $ty, order: Ordering) -> $ty {
                    point("fetch_sub", self.label);
                    self.inner.fetch_sub(value, order)
                }

                /// Atomic maximum, returning the previous value.
                #[inline]
                pub fn fetch_max(&self, value: $ty, order: Ordering) -> $ty {
                    point("fetch_max", self.label);
                    self.inner.fetch_max(value, order)
                }

                /// Atomic minimum, returning the previous value.
                #[inline]
                pub fn fetch_min(&self, value: $ty, order: Ordering) -> $ty {
                    point("fetch_min", self.label);
                    self.inner.fetch_min(value, order)
                }

                /// Atomic compare-and-exchange.
                #[inline]
                pub fn compare_exchange(
                    &self,
                    current: $ty,
                    new: $ty,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$ty, $ty> {
                    point("compare_exchange", self.label);
                    self.inner.compare_exchange(current, new, success, failure)
                }

                /// Unsynchronized mutable access (requires exclusive
                /// ownership).
                #[inline]
                pub fn get_mut(&mut self) -> &mut $ty {
                    self.inner.get_mut()
                }

                /// Consumes the atomic, returning the value.
                #[inline]
                pub fn into_inner(self) -> $ty {
                    self.inner.into_inner()
                }
            }

            impl std::fmt::Debug for $name {
                fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                    // relaxed-ok: Debug printing makes no synchronization claim.
                    f.debug_tuple(stringify!($name))
                        .field(&self.inner.load(Ordering::Relaxed))
                        .finish()
                }
            }
        };
    }

    atomic_int!(
        /// Shimmed `std::sync::atomic::AtomicU8`.
        AtomicU8,
        std::sync::atomic::AtomicU8,
        u8
    );
    atomic_int!(
        /// Shimmed `std::sync::atomic::AtomicU64`.
        AtomicU64,
        std::sync::atomic::AtomicU64,
        u64
    );
    atomic_int!(
        /// Shimmed `std::sync::atomic::AtomicUsize`.
        AtomicUsize,
        std::sync::atomic::AtomicUsize,
        usize
    );

    /// Shimmed `std::sync::atomic::AtomicBool`.
    pub struct AtomicBool {
        label: Loc,
        inner: std::sync::atomic::AtomicBool,
    }

    impl AtomicBool {
        /// Creates the atomic; the call site labels it in model traces.
        #[track_caller]
        pub const fn new(value: bool) -> AtomicBool {
            AtomicBool {
                label: Location::caller(),
                inner: std::sync::atomic::AtomicBool::new(value),
            }
        }

        /// Atomic load.
        #[inline]
        pub fn load(&self, order: Ordering) -> bool {
            point("load", self.label);
            self.inner.load(order)
        }

        /// Atomic store.
        #[inline]
        pub fn store(&self, value: bool, order: Ordering) {
            point("store", self.label);
            self.inner.store(value, order);
        }

        /// Atomic swap, returning the previous value.
        #[inline]
        pub fn swap(&self, value: bool, order: Ordering) -> bool {
            point("swap", self.label);
            self.inner.swap(value, order)
        }

        /// Atomic OR, returning the previous value.
        #[inline]
        pub fn fetch_or(&self, value: bool, order: Ordering) -> bool {
            point("fetch_or", self.label);
            self.inner.fetch_or(value, order)
        }

        /// Atomic AND, returning the previous value.
        #[inline]
        pub fn fetch_and(&self, value: bool, order: Ordering) -> bool {
            point("fetch_and", self.label);
            self.inner.fetch_and(value, order)
        }

        /// Atomic compare-and-exchange.
        #[inline]
        pub fn compare_exchange(
            &self,
            current: bool,
            new: bool,
            success: Ordering,
            failure: Ordering,
        ) -> Result<bool, bool> {
            point("compare_exchange", self.label);
            self.inner.compare_exchange(current, new, success, failure)
        }
    }

    impl std::fmt::Debug for AtomicBool {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            // relaxed-ok: Debug printing makes no synchronization claim.
            f.debug_tuple("AtomicBool")
                .field(&self.inner.load(Ordering::Relaxed))
                .finish()
        }
    }
}

// ---------------------------------------------------------------------
// Threads
// ---------------------------------------------------------------------

/// Shimmed thread spawning. Under the model runtime, spawned threads
/// are registered with the deterministic scheduler and only run when
/// granted a turn.
pub mod thread {
    use crate::model;

    enum Imp<T> {
        Std(std::thread::JoinHandle<T>),
        Model(model::ModelJoin<T>),
    }

    /// Handle to a shim-spawned thread; mirrors
    /// `std::thread::JoinHandle`.
    pub struct JoinHandle<T> {
        imp: Imp<T>,
    }

    impl<T> JoinHandle<T> {
        /// Waits for the thread to finish, returning its result (or the
        /// panic payload, like `std::thread::JoinHandle::join`).
        pub fn join(self) -> std::thread::Result<T> {
            match self.imp {
                Imp::Std(h) => h.join(),
                Imp::Model(m) => m.join(),
            }
        }

        /// Whether the thread has finished. Always `false` under the
        /// model runtime (use [`join`](JoinHandle::join) there — polling
        /// is not a scheduling construct the model orders).
        pub fn is_finished(&self) -> bool {
            match &self.imp {
                Imp::Std(h) => h.is_finished(),
                Imp::Model(_) => false,
            }
        }
    }

    impl<T> std::fmt::Debug for JoinHandle<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("JoinHandle").finish_non_exhaustive()
        }
    }

    /// Spawns a thread (named `worker`). See [`spawn_named`].
    pub fn spawn<T, F>(f: F) -> JoinHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        spawn_named("worker", f)
    }

    /// Spawns a named thread. Panics if the OS refuses to create a
    /// thread (the engine treats that as unrecoverable, matching the
    /// previous `Builder::spawn(..).expect(..)` call sites).
    pub fn spawn_named<T, F>(name: &str, f: F) -> JoinHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        if model::is_modeled() {
            return JoinHandle {
                imp: Imp::Model(model::spawn(name, f)),
            };
        }
        let handle = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(f)
            .unwrap_or_else(|e| panic!("failed to spawn thread {name:?}: {e}"));
        JoinHandle {
            imp: Imp::Std(handle),
        }
    }

    /// Yields the processor — a pure scheduler decision point under the
    /// model runtime.
    pub fn yield_now() {
        if model::is_modeled() {
            model::yield_point();
            return;
        }
        std::thread::yield_now();
    }

    /// Sleeps for `dur` — under the model runtime, a plain yield (model
    /// time does not advance; ordering, not duration, is what the model
    /// explores).
    pub fn sleep(dur: std::time::Duration) {
        if model::is_modeled() {
            model::yield_point();
            return;
        }
        std::thread::sleep(dur);
    }
}
