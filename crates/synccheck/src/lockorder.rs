//! Global lock-acquisition-order detector.
//!
//! Every [`crate::sync::Mutex`] / [`crate::sync::RwLock`] belongs to a
//! *class*: the source location of its `new` call (captured with
//! `#[track_caller]`), so all instances created at one site — e.g.
//! every per-query admission state — share a class. Each acquisition
//! while other shim locks are held adds directed edges
//! `held-class -> acquired-class` to a process-global graph; an edge
//! that closes a cycle is an inconsistent lock order (two code paths
//! that could deadlock under the right interleaving), and the detector
//! panics **at first exhibition** — no actual deadlock required — with
//! the acquisition site, the locks held, and the established order it
//! contradicts.
//!
//! Active exactly under `debug_assertions`: release builds compile the
//! hooks to empty inline functions. Condvar waits release the mutex
//! before blocking and re-register it after waking, so the
//! re-acquisition never reads as a nested lock under itself.

/// A lock class / acquisition site.
pub(crate) type Loc = &'static std::panic::Location<'static>;

#[cfg(debug_assertions)]
mod imp {
    use super::Loc;
    use std::collections::{HashMap, HashSet};
    use std::sync::{Mutex as StdMutex, OnceLock};

    /// Class identity by source coordinates, not `Location` address:
    /// codegen may duplicate caller-location statics across units, and
    /// merging duplicates keeps the graph sound.
    #[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
    struct Key(&'static str, u32, u32);

    impl Key {
        fn of(loc: Loc) -> Key {
            Key(loc.file(), loc.line(), loc.column())
        }

        fn display(self) -> String {
            format!("{}:{}:{}", self.0, self.1, self.2)
        }
    }

    #[derive(Default)]
    struct Graph {
        edges: HashMap<Key, HashSet<Key>>,
    }

    impl Graph {
        /// Is `to` reachable from `from` via recorded edges?
        fn reachable(&self, from: Key, to: Key, seen: &mut HashSet<Key>) -> bool {
            if from == to {
                return true;
            }
            if !seen.insert(from) {
                return false;
            }
            self.edges
                .get(&from)
                .is_some_and(|next| next.iter().any(|&n| self.reachable(n, to, seen)))
        }

        /// One witness path `from -> .. -> to`, for the panic message.
        fn path(&self, from: Key, to: Key) -> Vec<Key> {
            fn dfs(
                g: &Graph,
                at: Key,
                to: Key,
                seen: &mut HashSet<Key>,
                out: &mut Vec<Key>,
            ) -> bool {
                out.push(at);
                if at == to {
                    return true;
                }
                if seen.insert(at) {
                    if let Some(next) = g.edges.get(&at) {
                        let mut sorted: Vec<Key> = next.iter().copied().collect();
                        sorted.sort_unstable();
                        for n in sorted {
                            if dfs(g, n, to, seen, out) {
                                return true;
                            }
                        }
                    }
                }
                out.pop();
                false
            }
            let mut out = Vec::new();
            dfs(self, from, to, &mut HashSet::new(), &mut out);
            out
        }
    }

    fn graph() -> &'static StdMutex<Graph> {
        static GRAPH: OnceLock<StdMutex<Graph>> = OnceLock::new();
        GRAPH.get_or_init(|| StdMutex::new(Graph::default()))
    }

    thread_local! {
        static HELD: std::cell::RefCell<Vec<Key>> = const { std::cell::RefCell::new(Vec::new()) };
    }

    /// Records an acquisition of `label`'s class. Called *before* the
    /// underlying lock blocks, so an inconsistent order panics instead
    /// of deadlocking. Panics with held-lock blame on a cycle.
    pub fn on_acquire(label: Loc) {
        let key = Key::of(label);
        HELD.with(|h| {
            let mut held = h.borrow_mut();
            if !held.is_empty() && !std::thread::panicking() {
                let mut g = graph()
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                for &outer in held.iter() {
                    if outer == key || g.edges.get(&outer).is_some_and(|s| s.contains(&key)) {
                        continue; // self-nesting is caught below; known edges are fine
                    }
                    if g.reachable(key, outer, &mut HashSet::new()) {
                        let witness = g.path(key, outer);
                        let chain = witness
                            .iter()
                            .map(|k| k.display())
                            .collect::<Vec<_>>()
                            .join(" -> ");
                        let holding = held
                            .iter()
                            .map(|k| k.display())
                            .collect::<Vec<_>>()
                            .join(", ");
                        drop(g);
                        panic!(
                            "lock-order cycle: acquiring lock class {} while holding [{holding}] \
                             contradicts the established order {chain} (each `->` is an \
                             acquired-while-held edge recorded earlier in this process)",
                            key.display(),
                        );
                    }
                    g.edges.entry(outer).or_default().insert(key);
                }
                if held.contains(&key) {
                    let holding = held
                        .iter()
                        .map(|k| k.display())
                        .collect::<Vec<_>>()
                        .join(", ");
                    drop(g);
                    panic!(
                        "lock-order cycle: re-acquiring lock class {} already held by this \
                         thread (held: [{holding}]); two instances of one class must not nest",
                        key.display(),
                    );
                }
            }
            held.push(key);
        });
    }

    /// Records the release of `label`'s class (the innermost matching
    /// hold).
    pub fn on_release(label: Loc) {
        let key = Key::of(label);
        HELD.with(|h| {
            let mut held = h.borrow_mut();
            if let Some(pos) = held.iter().rposition(|&k| k == key) {
                held.remove(pos);
            }
        });
    }

    /// Number of distinct acquired-while-held edges recorded so far.
    pub fn edge_count() -> usize {
        graph()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .edges
            .values()
            .map(HashSet::len)
            .sum()
    }

    /// Locks currently held by the calling thread (display form), for
    /// tests and diagnostics.
    pub fn held_by_current_thread() -> Vec<String> {
        HELD.with(|h| h.borrow().iter().map(|k| k.display()).collect())
    }
}

#[cfg(debug_assertions)]
pub use imp::{edge_count, held_by_current_thread, on_acquire, on_release};

#[cfg(not(debug_assertions))]
mod noop {
    use super::Loc;

    /// No-op in release builds.
    #[inline(always)]
    pub fn on_acquire(_label: Loc) {}

    /// No-op in release builds.
    #[inline(always)]
    pub fn on_release(_label: Loc) {}

    /// Always zero in release builds.
    #[inline(always)]
    pub fn edge_count() -> usize {
        0
    }

    /// Always empty in release builds.
    #[inline(always)]
    pub fn held_by_current_thread() -> Vec<String> {
        Vec::new()
    }
}

#[cfg(not(debug_assertions))]
pub use noop::{edge_count, held_by_current_thread, on_acquire, on_release};
