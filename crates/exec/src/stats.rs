//! Per-operator runtime statistics for `EXPLAIN ANALYZE`.

use std::time::Duration;

/// Counters recorded by one pipeline operator over one execution.
///
/// Times are *inclusive*: an operator's `elapsed` covers the time spent
/// inside its whole subtree, because a pull-based parent blocks on its
/// children inside `next_batch`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpStats {
    /// Number of `open` calls (re-opens under `ApplyLoop`/`SegmentExec`
    /// count; a cached subtree stays at 1).
    pub opens: u64,
    /// Non-empty batches produced.
    pub batches: u64,
    /// Total rows produced.
    pub rows: u64,
    /// Inclusive wall-clock time spent in `open` + `next_batch`.
    pub elapsed: Duration,
    /// Number of workers that contributed to these counters (0 for
    /// purely serial execution; set by the exchange runtime when
    /// per-worker counters are merged).
    pub workers: u64,
    /// Largest per-worker row count folded into `rows` — exposes skew
    /// across morsel assignments.
    pub worker_rows_max: u64,
    /// Peak bytes held by this operator's memory reservation (0 for
    /// non-buffering operators). Recorded whether or not a budget is
    /// set, so `explain_analyze` always shows where memory concentrates.
    pub mem_peak: u64,
    /// Vectorized kernel invocations: how many columnar batches this
    /// operator processed natively (typed kernels, no row
    /// materialization) — for a join, one per probe window.
    pub kernels: u64,
    /// Batches transposed to rows inside the operator. Nothing writes
    /// it any more — every operator works on lanes — so it stays zero;
    /// the field remains while the benchmark's trace reads it.
    pub bridged: u64,
    /// Distinct correlation bindings `BatchedApply` actually executed
    /// its inner plan for — the dedup ratio vs. the outer row count is
    /// the win it delivers. `IndexLookupJoin` runs no inner plan and
    /// reports none.
    pub distinct_bindings: u64,
    /// Hash-index probes issued: by `IndexSeek` one per open with a
    /// non-NULL key, by `IndexLookupJoin` one per outer lane with a
    /// non-NULL key.
    pub index_probes: u64,
    /// Spill partition files this operator wrote (grace-join partitions
    /// across all recursion levels, sort runs, aggregation partitions).
    /// Zero means the operator stayed in memory.
    pub spill_partitions: u64,
    /// Bytes this operator wrote to spill files.
    pub spilled_bytes: u64,
    /// Normalized key words per lane a `Sort` sorted on (the most over
    /// its runs); `None` for an operator that did not sort. Zero words
    /// is the comparator sort.
    pub sort_words: Option<u64>,
    /// Runs of lanes equal on every sort word that the comparator
    /// re-sorted on the keys the words do not order exactly.
    pub tie_runs: u64,
}

impl OpStats {
    /// Renders the stats as a compact bracketed annotation.
    pub fn render(&self) -> String {
        let mut s = format!(
            "rows={} batches={} opens={} time={:.3}ms",
            self.rows,
            self.batches,
            self.opens,
            self.elapsed.as_secs_f64() * 1e3,
        );
        if self.workers > 0 {
            s.push_str(&format!(
                " workers={} max/worker={}",
                self.workers, self.worker_rows_max
            ));
        }
        if self.mem_peak > 0 {
            s.push_str(&format!(" mem={}B", self.mem_peak));
        }
        if self.kernels > 0 {
            s.push_str(&format!(" kernels={}", self.kernels));
        }
        if self.distinct_bindings > 0 {
            s.push_str(&format!(" distinct_bindings={}", self.distinct_bindings));
        }
        if self.index_probes > 0 {
            s.push_str(&format!(" index_probes={}", self.index_probes));
        }
        if let Some(words) = self.sort_words {
            s.push_str(&format!(" sort_words={words} tie_runs={}", self.tie_runs));
        }
        if self.spill_partitions > 0 {
            s.push_str(&format!(
                " spill_partitions={} spilled_bytes={}",
                self.spill_partitions, self.spilled_bytes
            ));
        }
        s
    }

    /// Folds one task's counters into a per-pool-worker accumulator.
    /// A query may submit several tasks that land on the *same* shared
    /// scheduler worker; those run sequentially there, so counts and
    /// elapsed add while the memory peak takes the max.
    pub fn add_task(&mut self, t: &OpStats) {
        self.opens += t.opens;
        self.batches += t.batches;
        self.rows += t.rows;
        self.elapsed += t.elapsed;
        self.mem_peak = self.mem_peak.max(t.mem_peak);
        self.kernels += t.kernels;
        self.distinct_bindings += t.distinct_bindings;
        self.index_probes += t.index_probes;
        self.spill_partitions += t.spill_partitions;
        self.spilled_bytes += t.spilled_bytes;
        self.sort_words = self.sort_words.max(t.sort_words);
        self.tie_runs += t.tie_runs;
    }

    /// Folds one worker's counters into this (merged) entry: additive
    /// counts, max elapsed (workers run concurrently, so the slowest
    /// worker bounds the wall clock).
    pub fn absorb_worker(&mut self, w: &OpStats) {
        self.opens += w.opens;
        self.batches += w.batches;
        self.rows += w.rows;
        self.elapsed = self.elapsed.max(w.elapsed);
        self.workers += 1;
        self.worker_rows_max = self.worker_rows_max.max(w.rows);
        self.mem_peak += w.mem_peak;
        self.kernels += w.kernels;
        self.distinct_bindings += w.distinct_bindings;
        self.index_probes += w.index_probes;
        self.spill_partitions += w.spill_partitions;
        self.spilled_bytes += w.spilled_bytes;
        self.sort_words = self.sort_words.max(w.sort_words);
        self.tie_runs += w.tie_runs;
    }
}
