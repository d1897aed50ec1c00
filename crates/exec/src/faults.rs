//! Deterministic fault injection at named operator sites.
//!
//! A *failpoint* is a named hook compiled into the executor at the
//! places where things can go wrong: buffer growth (`"hashjoin.build"`,
//! `"sort.buffer"`, …) and operator batch boundaries (the plain operator
//! name: `"HashJoin"`, `"Sort"`, …). Tests arm a site with a
//! [`FaultAction`] and the next
//! execution that crosses it fails in the requested way — an
//! allocation refusal ([`Error::ResourceExhausted`]), a forced panic, a
//! plain [`Error::Exec`], or a synthetic slowdown.
//!
//! Every build carries the facility. While no site is armed, [`hit`]
//! reads one atomic count and returns: no lock, no allocation, no
//! string hashing.
//!
//! Schedules can be derived deterministically from a seed via
//! [`install_seeded`], using the workspace PRNG (`common::prng`), so two
//! runs with the same seed arm the same sites with the same actions and
//! fail identically — the property the fault-matrix suite asserts.

use orthopt_common::{Error, Prng, Result};
use orthopt_synccheck::sync::{Mutex, MutexGuard};
use std::collections::HashMap;
// sync-ok: the armed count is a plain std atomic so that a disarmed
// failpoint adds no scheduler decision point under the model runtime.
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// What an armed failpoint does when execution crosses it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultAction {
    /// Fail the site with [`orthopt_common::Error::ResourceExhausted`]
    /// as if the memory pool had refused the site's request.
    RefuseAlloc,
    /// Panic with a recognizable payload; exercises the panic-isolation
    /// boundaries (worker `catch_unwind`, top-level `catch_unwind`).
    Panic,
    /// Fail the site with a plain [`orthopt_common::Error::Exec`].
    Error,
    /// Sleep for the given number of milliseconds, then continue;
    /// used to force deadline expiry deterministically.
    SlowMs(u64),
}

struct FaultState {
    action: FaultAction,
    /// Number of hits to let pass before firing.
    after: u64,
    hits: u64,
    fired: u64,
}

/// Sites in the registry, written under its lock. A disarmed [`hit`]
/// reads only this.
static ARMED: AtomicUsize = AtomicUsize::new(0);

fn registry() -> &'static Mutex<HashMap<String, FaultState>> {
    static REG: OnceLock<Mutex<HashMap<String, FaultState>>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(HashMap::new()))
}

fn lock() -> MutexGuard<'static, HashMap<String, FaultState>> {
    // A test that panics *on purpose* (FaultAction::Panic) would
    // poison a std mutex; the shim lock recovers, and the registry
    // stays structurally valid across such panics.
    registry().lock()
}

/// Arms `site` with `action`, firing on every hit after skipping
/// `after` of them. Re-installing a site replaces its previous state.
pub fn install(site: &str, action: FaultAction, after: u64) {
    let mut reg = lock();
    let state = FaultState {
        action,
        after,
        hits: 0,
        fired: 0,
    };
    if reg.insert(site.to_string(), state).is_none() {
        ARMED.fetch_add(1, Ordering::Release);
    }
}

/// Disarms every failpoint and forgets all counters.
pub fn clear() {
    let mut reg = lock();
    reg.clear();
    ARMED.store(0, Ordering::Release);
}

/// How many times `site` actually fired since it was installed.
pub fn fired(site: &str) -> u64 {
    lock().get(site).map_or(0, |s| s.fired)
}

/// Derives a deterministic schedule from `seed`: picks one of
/// `sites` and one action, arms it, and returns a description
/// (`"site=… action=… after=…"`) so a second run can be compared.
/// Panics are excluded from seeded schedules — they are exercised
/// separately — so a seeded run always fails with an `Err`.
pub fn install_seeded(seed: u64, sites: &[&str]) -> String {
    let mut rng = Prng::new(seed);
    let site = sites[(rng.next_u64() % sites.len() as u64) as usize];
    let action = match rng.next_u64() % 3 {
        0 => FaultAction::RefuseAlloc,
        1 => FaultAction::Error,
        _ => FaultAction::SlowMs(30),
    };
    let after = rng.next_u64() % 3;
    install(site, action.clone(), after);
    format!("site={site} action={action:?} after={after}")
}

/// The hook compiled into every instrumented site. Returns `Err`
/// (or panics, or sleeps) when the site is armed and due.
#[inline]
pub fn hit(site: &str) -> Result<()> {
    if ARMED.load(Ordering::Acquire) == 0 {
        return Ok(());
    }
    hit_armed(site)
}

#[cold]
fn hit_armed(site: &str) -> Result<()> {
    let action = {
        let mut reg = lock();
        let Some(state) = reg.get_mut(site) else {
            return Ok(());
        };
        state.hits += 1;
        if state.hits <= state.after {
            return Ok(());
        }
        state.fired += 1;
        state.action.clone()
    };
    match action {
        FaultAction::RefuseAlloc => Err(Error::ResourceExhausted {
            operator: format!("fault:{site}"),
            requested: 0,
            limit: 0,
            hint: None,
        }),
        FaultAction::Error => Err(Error::Exec(format!("injected fault at {site}"))),
        FaultAction::Panic => panic!("injected panic at {site}"),
        FaultAction::SlowMs(ms) => {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry is process-global; tests that touch it take this
    /// lock so `clear()` in one test can't disarm another's site.
    fn test_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock()
    }

    #[test]
    fn unarmed_hit_passes_and_clear_disarms() {
        let _g = test_lock();
        let site = "test.unarmed";
        assert!(hit(site).is_ok());
        assert_eq!(fired(site), 0);
        install(site, FaultAction::Error, 0);
        install(site, FaultAction::Error, 0);
        assert_eq!(
            ARMED.load(Ordering::Acquire),
            1,
            "re-installing arms one site"
        );
        clear();
        assert_eq!(ARMED.load(Ordering::Acquire), 0);
        assert!(hit(site).is_ok());
        assert_eq!(fired(site), 0);
    }

    #[test]
    fn after_counter_skips_then_fires() {
        let _g = test_lock();
        let site = "test.after_counter";
        install(site, FaultAction::Error, 2);
        assert!(hit(site).is_ok());
        assert!(hit(site).is_ok());
        assert!(hit(site).is_err());
        assert_eq!(fired(site), 1);
        clear();
    }

    #[test]
    fn seeded_schedules_are_reproducible() {
        let _g = test_lock();
        let sites = ["test.seed_a", "test.seed_b", "test.seed_c"];
        let one = install_seeded(0xfeed, &sites);
        clear();
        let two = install_seeded(0xfeed, &sites);
        clear();
        assert_eq!(one, two);
        assert_ne!(one, install_seeded(0xbeef, &sites));
        clear();
    }
}
