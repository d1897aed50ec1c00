#![warn(missing_docs)]
//! `synccheck` — the concurrency-correctness toolkit for the orthopt
//! engine, in the same per-rule-blame spirit `plancheck` brought to plan
//! invariants.
//!
//! Three layers, one crate:
//!
//! 1. **Sync shim** ([`sync`]): drop-in `Mutex` / `RwLock` / `Condvar` /
//!    `Atomic*` / `Barrier` / `thread::spawn` wrappers. In normal builds
//!    they are zero-cost passthroughs to `std::sync` (poison-recovering,
//!    so a panicking worker can never wedge shared state into
//!    unrecoverable `Err`s). Under the `model` cargo feature every
//!    acquire/release/wait/notify/load/store additionally routes through
//!    the model-check runtime.
//! 2. **Model checker** ([`model`], `model` feature): runs a closure
//!    under a deterministic scheduler that permits exactly one thread to
//!    advance at a time and systematically explores interleavings — DFS
//!    with bounded preemptions, or seeded random schedules via the same
//!    SplitMix64 PRNG as `common/prng` — replaying any failing schedule
//!    as a printable step trace.
//! 3. **Lock-order detector** ([`lockorder`]) and **workspace lint**
//!    ([`lint`]): a global acquisition-order graph with cycle
//!    detection (live under `debug_assertions`), and a source-scanning
//!    lint pass. Its sync rules forbid raw `std::sync` primitives
//!    outside this shim, require
//!    `// relaxed-ok:` justifications on `Ordering::Relaxed`, and flag
//!    `.lock().unwrap()` poisoning footguns; its design rules
//!    ([`lint::DESIGN_RULES`]) keep every mechanism an earlier change
//!    deleted from growing back.
//!
//! The engine crates (`common`, `exec`, `core`, `plancheck`)
//! import their synchronization exclusively from [`sync`]; the lint pass
//! (run as a test in this crate, and so in tier-1) keeps it that way.

pub mod lint;
pub mod lockorder;
#[cfg(feature = "model")]
pub mod model;
pub mod sync;

// The model scheduler draws seeded random schedules from the workspace's
// SplitMix64 generator. `common` sits *above* this crate in the
// dependency graph (its governor uses the shim), so the generator is
// shared at the source level rather than through a cargo dependency —
// same bits, no cycle.
#[cfg(feature = "model")]
#[path = "../../common/src/prng.rs"]
#[allow(dead_code)] // the model only draws next_u64; common uses the rest
mod prng;
