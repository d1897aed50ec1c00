//! One governed buffer: how a buffering operator charges the query's
//! memory pool, what it does when the pool refuses, and where its peak
//! is reported.
//!
//! Every operator that keeps batches past the `next_batch` call that
//! handed them over owns one [`Governed`]. It holds the operator's
//! blame label and reservation, hits the site's failpoint before every
//! batch-level charge, applies the refusal policy the operator was
//! compiled with — *fail* with a hint, *shed* or *spill* — and
//! max-folds the reservation's peak into the operator's `OpStats` slot
//! at every batch-level charge and release, budget or not.

use orthopt_common::{Error, MemoryReservation, Result};

use crate::pipeline::{ExecCtx, StatsHandle};

/// Hint for a refusal only more memory could have avoided.
const MEM_HINT: &str = "raise ORTHOPT_MEM_LIMIT / SET mem_limit";

/// A charge the pool refused. The operator either degrades past it
/// ([`Governed::refused`]) or, having no degradation left, fails with it
/// ([`Refused::fail`]).
pub(crate) struct Refused(Error);

impl Refused {
    /// The refusal as the query's error, for an operator that has
    /// already degraded as far as it can: only more memory helps.
    pub(crate) fn fail(self) -> Error {
        self.0.with_hint(MEM_HINT)
    }
}

/// A buffering operator's share of the query's memory budget.
pub(crate) struct Governed {
    label: &'static str,
    /// The policy: the hint a refusal fails the query with, or `None`
    /// when the operator sheds or spills instead.
    fail_hint: Option<&'static str>,
    mem: MemoryReservation,
    stats: StatsHandle,
}

impl Governed {
    fn new(label: &'static str, fail_hint: Option<&'static str>, stats: StatsHandle) -> Governed {
        Governed {
            label,
            fail_hint,
            mem: MemoryReservation::detached(label),
            stats,
        }
    }

    /// A buffer with no fallback: a refusal fails the query, hinting
    /// the memory knob.
    pub(crate) fn failing(label: &'static str, stats: StatsHandle) -> Governed {
        Governed::new(label, Some(MEM_HINT), stats)
    }

    /// A buffer that degrades past a refusal: a cache sheds, a
    /// partitioned or sorted buffer spills.
    pub(crate) fn degrading(label: &'static str, stats: StatsHandle) -> Governed {
        Governed::new(label, None, stats)
    }

    /// The operator's name (the compiler's `op_name`): what a refusal
    /// or a cancellation inside the operator blames.
    pub(crate) fn label(&self) -> &'static str {
        self.label
    }

    /// Starts charging the query's pool afresh; whatever the previous
    /// reservation held goes back to its pool.
    pub(crate) fn open(&mut self, ctx: &ExecCtx<'_>) {
        self.mem = ctx.gov.reservation(self.label);
    }

    /// Charges one batch's `bytes` after failpoint `site`. `Ok(true)`:
    /// charged. `Ok(false)`: refused, and the operator sheds or spills.
    /// `Err`: a refusal under the fail policy, hinted, or an injected
    /// fault.
    pub(crate) fn charge(&mut self, site: &str, bytes: u64) -> Result<bool> {
        match crate::faults::hit(site) {
            Ok(()) => self.grow(bytes),
            Err(e @ Error::ResourceExhausted { .. }) => self.refused(Refused(e)).map(|()| false),
            Err(e) => Err(e),
        }
    }

    /// [`charge`](Governed::charge) without the failpoint, for a retry.
    pub(crate) fn grow(&mut self, bytes: u64) -> Result<bool> {
        let charged = self.try_grow(bytes);
        self.stats.note_mem_peak(self.mem.peak());
        match charged {
            Ok(()) => Ok(true),
            Err(r) => self.refused(r).map(|()| false),
        }
    }

    /// A charge below batch level (a lane, a restored block): no
    /// failpoint, no policy, no stats write. The peak reaches the slot
    /// at the next charge or release.
    pub(crate) fn try_grow(&mut self, bytes: u64) -> std::result::Result<(), Refused> {
        self.mem.grow(bytes).map_err(Refused)
    }

    /// Applies the policy to a refusal: `Ok` to degrade, or the hinted
    /// error.
    pub(crate) fn refused(&self, r: Refused) -> Result<()> {
        match self.fail_hint {
            Some(hint) => Err(r.0.with_hint(hint)),
            None => Ok(()),
        }
    }

    /// Returns `bytes` to the pool: a buffer handed on, a partition
    /// done with.
    pub(crate) fn release(&mut self, bytes: u64) {
        self.mem.shrink(bytes);
        self.stats.note_mem_peak(self.mem.peak());
    }

    /// Returns everything held to the pool.
    pub(crate) fn reset(&mut self) {
        self.release(self.mem.held());
    }
}
