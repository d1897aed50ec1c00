//! What operators share at run time: the [`ExecCtx`], the handle each
//! operator counts into its stats slot with, and the operator the
//! calling thread last entered.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::Arc;

use orthopt_common::QueryContext;
use orthopt_storage::Catalog;

use crate::bindings::Bindings;
use crate::spill::{SpillFile, SpillManager};
use crate::stats::OpStats;

/// A cheap clonable handle onto one operator's [`OpStats`] slot.
/// Operators use it to count vectorized kernel invocations (`kernels`)
/// without holding a borrow on the shared registry.
#[derive(Clone)]
pub(crate) struct StatsHandle {
    stats: Rc<RefCell<Vec<OpStats>>>,
    id: usize,
}

impl StatsHandle {
    pub(crate) fn new(stats: Rc<RefCell<Vec<OpStats>>>, id: usize) -> StatsHandle {
        StatsHandle { stats, id }
    }

    /// Counts one vectorized kernel invocation.
    pub(crate) fn note_kernel(&self) {
        self.stats.borrow_mut()[self.id].kernels += 1;
    }

    /// Adds the kernel and index-probe counts a join probe noted.
    pub(crate) fn note_probe(&self, noted: &OpStats) {
        let mut stats = self.stats.borrow_mut();
        stats[self.id].kernels += noted.kernels;
        stats[self.id].index_probes += noted.index_probes;
    }

    /// Counts one distinct correlation binding an Apply actually
    /// executed (a binding-cache miss).
    pub(crate) fn note_distinct_binding(&self) {
        self.stats.borrow_mut()[self.id].distinct_bindings += 1;
    }

    /// Counts one hash-index probe (an `IndexSeek`'s).
    pub(crate) fn note_index_probe(&self) {
        self.stats.borrow_mut()[self.id].index_probes += 1;
    }

    /// Records a sealed set of spill files: the non-empty ones as
    /// partitions written, and the bytes that went to disk.
    pub(crate) fn note_spill<'f>(&self, files: impl IntoIterator<Item = &'f SpillFile>) {
        let mut stats = self.stats.borrow_mut();
        let s = &mut stats[self.id];
        for f in files {
            s.spill_partitions += u64::from(!f.is_empty());
            s.spilled_bytes += f.bytes();
        }
    }

    /// Records one sorted run: its key words per lane (the most over
    /// the slot's runs) and the tie runs the comparator re-sorted.
    pub(crate) fn note_sort(&self, words: u64, tie_runs: u64) {
        let mut stats = self.stats.borrow_mut();
        let s = &mut stats[self.id];
        s.sort_words = s.sort_words.max(Some(words));
        s.tie_runs += tie_runs;
    }

    /// Max-folds a memory peak into the slot.
    pub(crate) fn note_mem_peak(&self, peak: u64) {
        let mut stats = self.stats.borrow_mut();
        let s = &mut stats[self.id];
        s.mem_peak = s.mem_peak.max(peak);
    }
}

/// Everything an operator needs at run time: the catalog plus the
/// current parameter bindings (shared so parameterized parents can
/// rebind between re-opens).
pub struct ExecCtx<'a> {
    /// The database.
    pub catalog: &'a Catalog,
    /// Scalar parameters and segment stack.
    pub binds: Rc<RefCell<Bindings>>,
    /// Worker-pool size exchange operators may fan out to (1 = serial).
    pub parallelism: usize,
    /// Per-query resource governance (memory budget + cancellation);
    /// ungoverned by default.
    pub gov: QueryContext,
    /// Shared-ownership handle on the same catalog, when the caller has
    /// one (the `Database`/session path). Exchange operators need it to
    /// hand `'static` tasks to the process-wide
    /// [`Scheduler`](crate::scheduler::Scheduler); without it an
    /// exchange at `parallelism > 1` is an internal error.
    pub shared_catalog: Option<Arc<Catalog>>,
    /// This execution's spill scope. Created fresh per execution and
    /// dropped when it ends, so partition files never outlive the query
    /// — including on error, cancellation, and panic paths (unwinding
    /// drops the context). Inner scopes (`ApplyLoop`, `SegmentExec`)
    /// share the parent's scope.
    pub spill: Rc<SpillManager>,
}

impl<'a> ExecCtx<'a> {
    /// A context over fresh bindings, serial and ungoverned by default.
    pub fn new(catalog: &'a Catalog, binds: Bindings) -> ExecCtx<'a> {
        ExecCtx {
            catalog,
            binds: Rc::new(RefCell::new(binds)),
            parallelism: 1,
            gov: QueryContext::default(),
            shared_catalog: None,
            spill: Rc::new(SpillManager::new()),
        }
    }

    /// This context under `binds`: what a rebind-and-rewind parent
    /// runs its inner side with.
    pub(crate) fn with_binds(&self, binds: Rc<RefCell<Bindings>>) -> ExecCtx<'a> {
        ExecCtx {
            catalog: self.catalog,
            binds,
            parallelism: self.parallelism,
            gov: self.gov.clone(),
            shared_catalog: self.shared_catalog.clone(),
            spill: Rc::clone(&self.spill),
        }
    }
}

thread_local! {
    /// `(pre-order id, operator name)` of the operator most recently
    /// entered on this thread — consulted by panic handlers to attach
    /// an operator path to converted panics.
    static CURRENT_OP: Cell<Option<(usize, &'static str)>> = const { Cell::new(None) };
}

/// The `(pre-order id, name)` of the operator most recently entered on
/// the calling thread, if any. Panic-isolation boundaries read this to
/// blame the operator a caught panic unwound out of.
pub fn current_op() -> Option<(usize, &'static str)> {
    CURRENT_OP.with(Cell::get)
}

pub(crate) fn note_current_op(id: usize, name: &'static str) {
    CURRENT_OP.with(|c| c.set(Some((id, name))));
}
