#![warn(missing_docs)]
//! `synccheck` — the concurrency-correctness toolkit for the orthopt
//! engine, in the same per-rule-blame spirit `plancheck` brought to plan
//! invariants.
//!
//! Three layers, one crate:
//!
//! 1. **Sync shim** ([`sync`]): drop-in `Mutex` / `RwLock` / `Condvar` /
//!    `Atomic*` / `Barrier` / `thread::spawn` wrappers. Outside a model
//!    run they are passthroughs to `std::sync` (poison-recovering, so a
//!    panicking worker can never wedge shared state into unrecoverable
//!    `Err`s). Inside one, every acquire/release/wait/notify/load/store
//!    additionally routes through the model-check runtime; telling the
//!    two apart costs one atomic load outside a run.
//! 2. **Model checker** ([`model`], in every build): runs a closure
//!    under a deterministic scheduler that permits exactly one thread to
//!    advance at a time and systematically explores interleavings — DFS
//!    with bounded preemptions, or seeded random schedules via the same
//!    SplitMix64 PRNG ([`prng`]) as the TPC-H generator — replaying any
//!    failing schedule as a printable step trace.
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
pub mod model;
pub mod sync;

// The workspace's one SplitMix64 generator lives here, the lowest crate
// that draws from it: the model scheduler seeds its random schedules
// with it, and `common` (which sits above this crate) re-exports it as
// `common::prng` for the TPC-H generator and randomized tests.
pub mod prng;
