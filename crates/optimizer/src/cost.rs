//! Cost model: simple per-row coefficients over estimated cardinalities.
//!
//! Absolute values are arbitrary; what matters for the paper's
//! experiments is the *relative* ordering of hash/set-oriented plans,
//! correlated index-lookup plans, and segmented plans across data sizes.

/// Per-row cost coefficients (tuned roughly to the in-memory engine).
pub mod coef {
    /// Scanning one stored row.
    pub const SCAN_ROW: f64 = 1.0;
    /// One hash-index probe (fixed).
    pub const INDEX_PROBE: f64 = 2.0;
    /// Emitting one matched index row.
    pub const INDEX_ROW: f64 = 1.0;
    /// Evaluating a filter on one row.
    pub const FILTER_ROW: f64 = 0.2;
    /// Computing one expression on one row.
    pub const COMPUTE_ROW: f64 = 0.2;
    /// Inserting one row into a hash build side.
    pub const HASH_BUILD_ROW: f64 = 1.5;
    /// Probing one row against a hash table.
    pub const HASH_PROBE_ROW: f64 = 1.0;
    /// Emitting one join result row.
    pub const JOIN_OUT_ROW: f64 = 0.2;
    /// Nested-loop pair evaluation.
    pub const NL_PAIR: f64 = 0.4;
    /// Fixed overhead per Apply invocation (rebind + dispatch).
    pub const APPLY_INVOKE: f64 = 2.0;
    /// Hash aggregation input row.
    pub const AGG_ROW: f64 = 1.5;
    /// Emitting one group.
    pub const GROUP_OUT: f64 = 0.4;
    /// Partitioning one row into segments.
    pub const SEGMENT_ROW: f64 = 1.2;
    /// Fixed overhead per segment evaluation.
    pub const SEGMENT_INVOKE: f64 = 2.0;
    /// Concatenation per row.
    pub const CONCAT_ROW: f64 = 0.1;
    /// Row-number / assert per row.
    pub const TRIVIAL_ROW: f64 = 0.05;
    /// Fixed cost of spinning up one exchange worker (thread spawn,
    /// plan clone, broadcast of the build side).
    pub const EXCHANGE_SETUP: f64 = 500.0;
    /// Gathering one row through the exchange.
    pub const EXCHANGE_ROW: f64 = 0.1;
    /// Per outer row overhead of binding dedup: binding key hashing plus
    /// the binding-cache probe. When every outer row carries a distinct
    /// binding, dedup buys nothing and the per-row estimate is cheaper.
    pub const BATCH_BIND_ROW: f64 = 0.3;
}

/// Fraction of a subtree's work the exchange runtime can actually
/// spread across workers (the rest — build sides, merge, gather —
/// stays serial; a crude Amdahl split).
const EXCHANGE_PARALLEL_FRACTION: f64 = 0.85;

/// Cost of running a subtree of serial cost `serial` under an exchange
/// with `workers` workers, gathering `rows_out` result rows.
pub fn exchange_cost(serial: f64, rows_out: f64, workers: usize) -> f64 {
    let w = workers.max(1) as f64;
    serial * ((1.0 - EXCHANGE_PARALLEL_FRACTION) + EXCHANGE_PARALLEL_FRACTION / w)
        + coef::EXCHANGE_SETUP * w
        + rows_out.max(0.0) * coef::EXCHANGE_ROW
}

/// Cost of the Apply (`ApplyLoop`): the outer plus the cheaper of one
/// inner execution per outer row, and the per-row binding dedup plus one
/// execution per estimated *distinct* binding tuple. The operator always
/// dedups, so the honest figure is the second; the `min` keeps exactly
/// the race the planner ran when the per-row loop and the deduping Apply
/// were two operators, so no plan moves. Costing the dedup alone moves
/// plans (Q2 and Q17 at `Full` take an index join), which is for the
/// plan-choice regret sweep to judge, together with
/// [`index_lookup_cost`]'s `distinct` term.
pub fn apply_cost(left_cost: f64, card_l: f64, distinct: f64, inner_cost: f64) -> f64 {
    let per_row = left_cost + card_l * (coef::APPLY_INVOKE + inner_cost);
    let per_binding = left_cost
        + card_l.max(0.0) * coef::BATCH_BIND_ROW
        + distinct.max(1.0) * (coef::APPLY_INVOKE + inner_cost);
    per_row.min(per_binding)
}

/// Cost of a correlated index-lookup join (`IndexLookupJoin`): the
/// outer, per-row binding dedup, and one hash-index probe per
/// estimated distinct binding, each fetching `matched` rows (plus the
/// residual evaluation over them when present). The operator no longer
/// dedups — it probes once per outer lane — so the `distinct` term
/// credits work it does not save; the formula is kept as it was so
/// plans do not move, for the plan-choice regret sweep to judge.
pub fn index_lookup_cost(
    left_cost: f64,
    card_l: f64,
    distinct: f64,
    matched: f64,
    has_residual: bool,
) -> f64 {
    let matched = matched.max(1.0);
    let per_probe = coef::INDEX_PROBE
        + matched * coef::INDEX_ROW
        + if has_residual {
            matched * coef::FILTER_ROW
        } else {
            0.0
        };
    left_cost + card_l.max(0.0) * coef::BATCH_BIND_ROW + distinct.max(1.0) * per_probe
}
