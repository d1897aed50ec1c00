//! The workspace lint: a source-scanning check, run as a test
//! (`tests/lint_workspace.rs`) in tier-1 and in CI, that keeps the
//! workspace on the sync shim and on the designs earlier changes
//! settled on.
//!
//! Sync-discipline rules:
//!
//! * **`raw-std-sync`** — `std::sync::{Mutex, RwLock, Condvar, Barrier,
//!   Once, mpsc, atomic, ...}` and other blocking/atomic primitives must
//!   come from [`crate::sync`], never from `std`, anywhere outside this
//!   crate. (`Arc`, `Weak`, `OnceLock`, `LazyLock` stay allowed: they
//!   are not schedulable blocking points, so the model gains nothing by
//!   interposing on them.)
//! * **`raw-thread-spawn`** — `std::thread::{spawn, Builder, scope,
//!   JoinHandle}` are forbidden for the same reason; use
//!   [`crate::sync::thread`]. (`sleep`, `yield_now`,
//!   `available_parallelism` and friends stay allowed.) A call site may
//!   opt out with a `// sync-ok: <reason>` comment on the same line or
//!   in the comment block immediately above.
//! * **`relaxed-needs-justification`** — every `Ordering::Relaxed` must
//!   carry a `// relaxed-ok: <reason>` comment on the same line or in
//!   the comment block immediately above; the model checker only
//!   explores sequentially
//!   consistent interleavings, so a Relaxed access is a claim the
//!   author must defend in writing.
//! * **`poison-footgun`** — `.lock().unwrap()` / `.lock().expect(..)` /
//!   `.read().unwrap()` / `.write().unwrap()` / `PoisonError::into_inner`
//!   indicate raw poisoning handling; the shim's poison-recovering
//!   `lock()` makes all of them unnecessary. Waivable with
//!   `// sync-ok: <reason>`.
//!
//! For these four, comments and string literals are stripped before
//! matching, so prose *about* `std::sync` never trips the pass; waiver
//! and justification markers are matched against the raw line.
//!
//! Design rules ([`DESIGN_RULES`]) keep a deleted mechanism deleted: a
//! second batch representation, a row fallback, a second Apply and the
//! like. Each is a row of literal patterns matched against the raw
//! line, comments included, over the files under its path prefixes.

use std::fmt;
use std::path::{Path, PathBuf};

/// A single lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Path of the offending file, relative to the workspace root.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (`raw-std-sync`, `raw-thread-spawn`,
    /// `relaxed-needs-justification`, `poison-footgun`, or a design
    /// rule's [`Rule::name`]).
    pub rule: &'static str,
    /// Human-readable explanation with the remedy.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}\n    {}",
            self.file, self.line, self.rule, self.message, self.snippet
        )
    }
}

/// `std::sync` members that must come from the shim instead.
const FORBIDDEN_SYNC: &[&str] = &[
    "Mutex",
    "MutexGuard",
    "RwLock",
    "RwLockReadGuard",
    "RwLockWriteGuard",
    "Condvar",
    "Barrier",
    "BarrierWaitResult",
    "Once",
    "OnceState",
    "mpsc",
    "atomic",
    "PoisonError",
    "TryLockError",
    "TryLockResult",
    "LockResult",
    "WaitTimeoutResult",
];

/// `std::thread` members that must come from the shim instead.
const FORBIDDEN_THREAD: &[&str] = &[
    "spawn",
    "Builder",
    "scope",
    "JoinHandle",
    "ScopedJoinHandle",
];

/// A design rule. A line violates it when it holds any of `any` and
/// all of `all`, and none of `exempt_lines`; a pattern that starts with
/// `^` must start the line's trimmed text.
pub struct Rule {
    /// Rule identifier, reported as [`Violation::rule`].
    pub name: &'static str,
    /// Patterns of which a violating line holds at least one.
    pub any: &'static [&'static str],
    /// Patterns a violating line holds every one of.
    pub all: &'static [&'static str],
    /// Workspace-relative path prefixes the rule scans; a `*` segment
    /// stands for any one segment (see [`under`]).
    pub paths: &'static [&'static str],
    /// Path prefixes under `paths` the rule skips.
    pub exempt: &'static [&'static str],
    /// Substrings that exempt the line holding one.
    pub exempt_lines: &'static [&'static str],
    /// Stop reading each file at its first `#[cfg(test)]`.
    pub cut_tests: bool,
    /// A line the rule must flag under every one of `paths`.
    pub seed: &'static str,
    /// What to do instead.
    pub message: &'static str,
}

#[rustfmt::skip]
const RULE: Rule = Rule { name: "", any: &[], all: &[], paths: &[], exempt: &[], exempt_lines: &[],
    cut_tests: false, seed: "", message: "" };

const CRATES: &str = "crates/";
const EXEC: &str = "crates/exec/src/";

/// The design ratchets: one row per deleted mechanism, grouped by the
/// change that deleted it.
#[rustfmt::skip]
pub const DESIGN_RULES: &[Rule] = &[
    // One batch representation.
    Rule { name: "batch-repr", any: &["enum Repr", "Repr::"], paths: &[EXEC],
        seed: "enum Repr { Rows, Columns }",
        message: "exec::Batch is columns-only: do not reintroduce Repr", ..RULE },
    // One PhysExpr walker, one join.
    Rule { name: "nl-join", paths: &[CRATES], seed: "struct ScanOp {",
        any: &["PhysExpr::NLJoin", "struct NLJoinOp", "struct ScanOp {", "struct ScanOp<"],
        message: "a keyless HashJoin is the nested-loops join; TableScan compiles to MorselScanOp",
        ..RULE },
    Rule { name: "phys-walker", any: &["fn children", "fn phys_children"], all: &["PhysExpr"],
        paths: &[CRATES], exempt: &["crates/exec/src/physical.rs"],
        seed: "fn phys_children(p: &PhysExpr) -> Vec<&PhysExpr> {",
        message: "walk plans with PhysExpr::children / children_mut", ..RULE },
    // One exchange strategy.
    Rule { name: "exchange-modes", paths: &[EXEC], seed: "fn run_partial_agg(&mut self) {",
        any: &["run_partial_agg", "run_repartition", "synthesize_root", "\"PartialAgg\""],
        message: "ExchangeOp::compute is run_serial or run_pipelined; aggregate partials combine \
                  above the exchange", ..RULE },
    // One storage format.
    Rule { name: "row-heap", any: &[": Vec<Row>,", "OnceLock<Vec<Column>>"],
        paths: &["crates/storage/src/table.rs"], seed: "    rows: Vec<Row>,",
        message: "storage::Table stores columns only: no Vec<Row> field, no mirror", ..RULE },
    Rule { name: "table-rows", any: &[".rows()"], paths: &["crates/*/src/"], cut_tests: true,
        seed: "let rows = table.rows();",
        message: "engine code reads Table::columns(); rows() is for checks and tests", ..RULE },
    // Memo expressions are interned by structural hash.
    Rule { name: "memo-debug-key", any: &["format!(\""], all: &[":?}"],
        paths: &["crates/optimizer/src/memo.rs"], seed: "format!(\"{shell:?}|{children:?}\")",
        message: "intern memo expressions by Hash, not by a Debug string", ..RULE },
    // One settings ladder, and no spill switch on it.
    Rule { name: "spill-toggle", paths: &[CRATES, "tests/"], seed: "pub fn set_spill(on: bool) {",
        any: &["spill_enabled", "set_spill", "spill: Option<bool>", "spill: bool",
               "\"ORTHOPT_SPILL\"", "\"spill\" =>"],
        message: "spilling has no switch: a spillable governed buffer spills whenever the pool \
                  refuses it (Governed::degrading)", ..RULE },
    Rule { name: "env-defaults", any: &["var(\"ORTHOPT_"], paths: &["crates/*/src/"],
        exempt: &["crates/core/src/session.rs"], seed: "std::env::var(\"ORTHOPT_PARALLELISM\")",
        exempt_lines: &["env::var(\"ORTHOPT_POOL_WORKERS\")", "env::var(\"ORTHOPT_SPILL_DIR\")",
                        "env::var(\"ORTHOPT_PLANCHECK\")"],
        message: "read ORTHOPT_* query defaults in EngineConfig::default only", ..RULE },
    // One group table, one hash index.
    Rule { name: "bucket-map", any: &["HashMap<u64, Vec<"], paths: &["crates/common/src/", EXEC],
        seed: "let mut buckets: HashMap<u64, Vec<usize>> = HashMap::new();",
        message: "group lanes with common::hash::GroupTable and index them with storage::Index, \
                  not a map of hash buckets", ..RULE },
    Rule { name: "group-table", any: &["struct GroupTable"], paths: &[CRATES],
        exempt: &["crates/common/src/hash.rs"], seed: "pub struct GroupTable {",
        message: "there is one GroupTable, in crates/common/src/hash.rs", ..RULE },
    Rule { name: "row-feed", any: &["feed_or_reject", "FeedOutcome"], paths: &[EXEC],
        seed: "match state.feed_or_reject(row) {",
        message: "hash aggregation feeds lanes (GroupedAggState::feed_lanes), not rows", ..RULE },
    Rule { name: "oracle-aggregation", any: &["use crate::aggregate"],
        paths: &["crates/exec/src/reference.rs"], seed: "use crate::aggregate::GroupedAggState;",
        message: "the Reference oracle does its own grouping, not the engine's", ..RULE },
    Rule { name: "row-keyed-map", any: &["HashMap<Vec<Value>", "HashMap<Row"], cut_tests: true,
        paths: &["crates/storage/src/index.rs", EXEC], exempt: &["crates/exec/src/reference.rs"],
        seed: "let mut keys: HashMap<Vec<Value>, usize> = HashMap::new();",
        message: "key lanes with common::hash::GroupTable (an index: storage::Index's GroupTable \
                  and per-key lane lists), not a map of rows or key tuples", ..RULE },
    Rule { name: "index-fetch", any: &["IndexFetch", "indexjoin.fetch"], paths: &[CRATES],
        seed: "struct IndexFetch;", message: "IndexLookupJoin is JoinProbe::probe_keys against \
                  the table's index; there is no fetch", ..RULE },
    // One sort order, one formatter.
    Rule { name: "sort-prefix", any: &["sort_prefixes"], paths: &[CRATES],
        seed: "let words = sort_prefixes(&columns);",
        message: "sort on Column::sort_key_words / write_sort_words, not a prefix word", ..RULE },
    Rule { name: "value-write", any: &["write!("], paths: &["crates/common/src/value.rs"],
        exempt_lines: &["write!(w, \"{x}\")"], seed: "write!(w, \"{i}\")",
        message: "ValueRef::write_to renders numbers without core::fmt; its only write! is the \
                  float fallback", ..RULE },
    // One evaluator.
    Rule { name: "row-bridge", paths: &[EXEC], seed: "let rows = bridge_rows(&batch);",
        any: &["bridge_rows", "note_bridge", "EvalCtx::mapped", "lane_row", "residual_by_lane"],
        message: "kernel errors are lane values (exec::vector::Lanes); there is no row fallback or \
                  bridge", ..RULE },
    Rule { name: "row-evaluator", any: &["crate::eval::{eval", "eval_predicate"], cut_tests: true,
        paths: &[EXEC], exempt: &["crates/exec/src/eval.rs", "crates/exec/src/reference.rs"],
        seed: "use crate::eval::{eval_predicate, EvalCtx};",
        message: "pipeline operators evaluate with exec::vector (eval_lanes / eval_truth), not the \
                  row evaluator", ..RULE },
    // One Apply.
    Rule { name: "batched-apply", paths: &[CRATES], seed: "PhysExpr::BatchedApply { .. } => {",
        any: &["BatchedApply", "batched_apply", "ApplyStrategy::Batched", "dedup_lanes",
               "batched.bindings"],
        message: "there is one Apply (ApplyLoop): it dedups bindings itself; apply_strategy is \
                  auto | loop | index", ..RULE },
    // One governed buffer (spill.rs's I/O failpoints are not buffers).
    Rule { name: "governed-buffer", paths: &[EXEC], exempt: &["crates/exec/src/governed.rs"],
        any: &["MemoryReservation", "with_hint(", "MEM_HINT", "MEM_OR_SPILL_HINT", "allow_spill",
               "fn mem_peak", "faults::hit(\""],
        exempt_lines: &["faults::hit(\"spill.open\"", "faults::hit(\"spill.write\"",
                        "faults::hit(\"spill.read\""],
        cut_tests: true, seed: "mem: MemoryReservation,",
        message: "buffer charges go through exec::governed::Governed: charge, grow, try_grow, \
                  release", ..RULE },
    // One build: no switch that only tests flip.
    Rule { name: "test-switch", paths: &[CRATES, "tests/"],
        seed: "#[cfg(feature = \"fault-injection\")]",
        any: &["feature = \"fault-injection\"", "faults::COMPILED", "feature = \"lockorder\"",
               "ORTHOPT_LOCKORDER"],
        message: "failpoints ship in every build (a disarmed exec::faults::hit is one atomic \
                  load), and the lock-order detector runs exactly under debug_assertions",
        ..RULE },
    Rule { name: "cargo-feature", paths: &["Cargo.toml", CRATES, "tests/"],
        any: &["^[features]", "feature = \""], seed: "[features]",
        message: "there are no cargo features: the model checker, failpoints and the lock-order \
                  detector are in every build, each behind a run-time gate", ..RULE },
    // One key hash: typed lanes and values hash through common::hash.
    Rule { name: "key-hash", any: &["DefaultHasher", "SipHasher"], cut_tests: true,
        paths: &["crates/common/src/", EXEC, "crates/storage/src/"],
        seed: "let mut h = std::collections::hash_map::DefaultHasher::new();",
        message: "hash keys with common::hash::hash_lanes / hash_values, the one key hash", ..RULE },
    // One verifier entry.
    Rule { name: "plancheck-bypass", paths: &["crates/*/src/"], exempt: &["crates/plancheck/src/"],
        any: &["feature = \"plancheck\"", "mod mutation", "check_logical(", "check_closed(",
               "check_physical(", "check_witnesses(", "blame("],
        seed: "#[cfg(feature = \"plancheck\")]",
        message: "verify through plancheck::verify(tag, check, before); mutations live in \
                  crates/core/tests/prop_plancheck.rs", ..RULE },
    // One harness: the paper's claims are tests, its figures one example.
    Rule { name: "second-harness", any: &["criterion", "^[[bench]]"],
        paths: &["Cargo.toml", "crates/*/Cargo.toml"],
        seed: "criterion = { path = \"vendor/criterion\"",
        message: "time through benchmark/run.sh and examples/paper_figures.rs; plan-choice claims \
                  are tests in tests/tpch_queries.rs", ..RULE },
];

impl Rule {
    /// Whether the rule scans the workspace-relative `file`.
    fn scans(&self, file: &str) -> bool {
        self.paths.iter().any(|p| under(file, p)) && !self.exempt.iter().any(|p| under(file, p))
    }

    /// Whether the raw `line` violates the rule.
    fn flags(&self, line: &str) -> bool {
        let holds = |pat: &&str| match pat.strip_prefix('^') {
            Some(head) => line.trim_start().starts_with(head),
            None => line.contains(pat),
        };
        self.any.iter().any(holds)
            && self.all.iter().all(holds)
            && !self.exempt_lines.iter().any(|p| line.contains(p))
    }
}

/// Whether the workspace-relative `path` lies under `prefix`, segment
/// by segment: `*` matches any one segment, and a trailing `/` any
/// rest.
pub fn under(path: &str, prefix: &str) -> bool {
    let mut segments = path.split('/');
    prefix.split('/').all(|want| {
        segments
            .next()
            .is_some_and(|s| want.is_empty() || want == "*" || want == s)
    })
}

/// Scans the whole workspace ([`workspace_files`]) and returns every
/// violation found.
pub fn check_workspace(root: &Path) -> Vec<Violation> {
    let mut violations = Vec::new();
    for rel in workspace_files(root) {
        if let Ok(source) = std::fs::read_to_string(root.join(&rel)) {
            check_source(&rel, &source, &mut violations);
        }
    }
    violations
}

/// The files the lint reads, relative to `root` and sorted: every
/// manifest, every crate's sources, tests, examples and benches except
/// `synccheck`'s own (its rule table spells every pattern), and the
/// top-level `tests/` and `examples/`.
pub fn workspace_files(root: &Path) -> Vec<String> {
    let mut files = vec![root.join("Cargo.toml")];
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        for entry in entries.flatten() {
            let path = entry.path();
            files.push(path.join("Cargo.toml"));
            if !path.is_dir() || path.file_name().is_some_and(|n| n == "synccheck") {
                continue;
            }
            for sub in ["src", "tests", "examples", "benches"] {
                collect_rs(&path.join(sub), &mut files);
            }
        }
    }
    collect_rs(&root.join("tests"), &mut files);
    collect_rs(&root.join("examples"), &mut files);
    let mut rel: Vec<String> = files
        .iter()
        .filter(|f| f.is_file())
        .map(|f| f.strip_prefix(root).unwrap_or(f).display().to_string())
        .collect();
    rel.sort();
    rel
}

/// The workspace root, resolved from this crate's manifest directory.
pub fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map_or(manifest.clone(), Path::to_path_buf)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path
                .file_name()
                .is_some_and(|n| n == "target" || n == "vendor")
            {
                continue;
            }
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Lints one file's source text, appending violations: the design
/// rules that scan `file`, then, for Rust sources, the sync rules.
pub fn check_source(file: &str, source: &str, out: &mut Vec<Violation>) {
    for rule in DESIGN_RULES.iter().filter(|r| r.scans(file)) {
        for (idx, raw) in source.lines().enumerate() {
            if rule.cut_tests && raw.trim_start().starts_with("#[cfg(test)]") {
                break;
            }
            if rule.flags(raw) {
                out.push(Violation {
                    file: file.to_string(),
                    line: idx + 1,
                    rule: rule.name,
                    message: rule.message.to_string(),
                    snippet: raw.trim().to_string(),
                });
            }
        }
    }
    if !file.ends_with(".rs") {
        return;
    }
    let code_lines = strip_comments_and_strings(source);
    let raw_lines: Vec<&str> = source.lines().collect();
    for (idx, code) in code_lines.iter().enumerate() {
        let raw = raw_lines.get(idx).copied().unwrap_or("");
        let lineno = idx + 1;
        let waived = marker_applies(&raw_lines, idx, "sync-ok:");

        for segment in find_path_uses(code, "std::sync::") {
            if segment_hits(&segment, FORBIDDEN_SYNC) && !waived {
                out.push(Violation {
                    file: file.to_string(),
                    line: lineno,
                    rule: "raw-std-sync",
                    message: format!(
                        "raw std::sync::{segment} — import it from synccheck::sync instead \
                         (or waive with `// sync-ok: <reason>`)"
                    ),
                    snippet: raw.trim().to_string(),
                });
            }
        }

        for segment in find_path_uses(code, "std::thread::") {
            if segment_hits(&segment, FORBIDDEN_THREAD) && !waived {
                out.push(Violation {
                    file: file.to_string(),
                    line: lineno,
                    rule: "raw-thread-spawn",
                    message: format!(
                        "raw std::thread::{segment} — spawn through synccheck::sync::thread \
                         so the model checker can schedule it (or waive with \
                         `// sync-ok: <reason>`)"
                    ),
                    snippet: raw.trim().to_string(),
                });
            }
        }

        if code.contains("Ordering::Relaxed") && !marker_applies(&raw_lines, idx, "relaxed-ok:") {
            out.push(Violation {
                file: file.to_string(),
                line: lineno,
                rule: "relaxed-needs-justification",
                message: "Ordering::Relaxed without a `// relaxed-ok: <reason>` comment on \
                          this or the preceding line — the model checker only explores \
                          sequentially consistent interleavings, so Relaxed is a claim that \
                          must be defended in writing"
                    .to_string(),
                snippet: raw.trim().to_string(),
            });
        }

        if !waived {
            for pat in [
                ".lock().unwrap()",
                ".lock().expect(",
                ".read().unwrap()",
                ".write().unwrap()",
                "PoisonError::into_inner",
            ] {
                if code.contains(pat) {
                    out.push(Violation {
                        file: file.to_string(),
                        line: lineno,
                        rule: "poison-footgun",
                        message: format!(
                            "`{pat}` handles lock poisoning by panicking — the shim's \
                             poison-recovering lock() returns the guard directly (or waive \
                             with `// sync-ok: <reason>`)"
                        ),
                        snippet: raw.trim().to_string(),
                    });
                }
            }
        }
    }
}

/// True when line `idx` carries `marker` (`sync-ok:` / `relaxed-ok:`)
/// either on the line itself or anywhere in the contiguous run of
/// comment-only lines immediately above it — so a multi-line
/// justification comment covers the code line it precedes.
fn marker_applies(raw_lines: &[&str], idx: usize, marker: &str) -> bool {
    if raw_lines.get(idx).is_some_and(|l| l.contains(marker)) {
        return true;
    }
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let trimmed = raw_lines[i].trim_start();
        if !trimmed.starts_with("//") {
            return false;
        }
        if trimmed.contains(marker) {
            return true;
        }
    }
    false
}

/// True when `segment` starts with one of the forbidden member names
/// (so `atomic::AtomicU64` trips on `atomic`), or is a brace list that
/// mentions one.
fn segment_hits(segment: &str, forbidden: &[&str]) -> bool {
    if let Some(list) = segment.strip_prefix('{') {
        return list
            .trim_end_matches('}')
            .split(',')
            .map(|item| item.split_whitespace().next().unwrap_or(""))
            .any(|item| forbidden.contains(&item.split("::").next().unwrap_or("")));
    }
    let head = segment.split("::").next().unwrap_or("");
    forbidden.contains(&head)
}

/// Finds what follows each occurrence of `prefix` in a code line: a
/// path segment (possibly `a::b`) or a `{...}` import list.
fn find_path_uses(code: &str, prefix: &str) -> Vec<String> {
    let mut found = Vec::new();
    let mut rest = code;
    while let Some(pos) = rest.find(prefix) {
        let after = &rest[pos + prefix.len()..];
        if after.starts_with('{') {
            let end = after.find('}').map_or(after.len(), |e| e + 1);
            found.push(after[..end].to_string());
        } else {
            let end = after
                .find(|c: char| !(c.is_alphanumeric() || c == '_' || c == ':'))
                .unwrap_or(after.len());
            found.push(after[..end].trim_end_matches(':').to_string());
        }
        rest = &rest[pos + prefix.len()..];
    }
    found
}

/// Replaces comments and the contents of string/char literals with
/// spaces, preserving line structure, so lint patterns only match real
/// code. Handles `//`, nested `/* */`, `"..."` with escapes, and
/// `r#"..."#` raw strings; lifetimes (`'a`) are not confused with char
/// literals.
pub fn strip_comments_and_strings(source: &str) -> Vec<String> {
    #[derive(PartialEq)]
    enum St {
        Code,
        Block(usize),
        Str,
        RawStr(usize),
    }
    let mut state = St::Code;
    let mut lines = Vec::new();
    for line in source.lines() {
        let bytes = line.as_bytes();
        let mut out = String::with_capacity(line.len());
        let mut i = 0;
        while i < bytes.len() {
            match state {
                St::Code => {
                    if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'/') {
                        break; // rest of line is a comment
                    }
                    if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        state = St::Block(1);
                        out.push_str("  ");
                        i += 2;
                        continue;
                    }
                    if bytes[i] == b'"' {
                        state = St::Str;
                        out.push('"');
                        i += 1;
                        continue;
                    }
                    if bytes[i] == b'r' {
                        // r"..." / r#"..."# raw string start?
                        let mut j = i + 1;
                        while bytes.get(j) == Some(&b'#') {
                            j += 1;
                        }
                        if bytes.get(j) == Some(&b'"')
                            && (i == 0
                                || !(bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_'))
                        {
                            state = St::RawStr(j - i - 1);
                            for _ in i..=j {
                                out.push(' ');
                            }
                            i = j + 1;
                            continue;
                        }
                    }
                    if bytes[i] == b'\'' {
                        // Char literal (skip it) vs lifetime (keep going).
                        let is_char = matches!(
                            (bytes.get(i + 1), bytes.get(i + 2)),
                            (Some(&b'\\'), _) | (Some(_), Some(&b'\''))
                        );
                        if is_char {
                            let mut j = i + 1;
                            if bytes.get(j) == Some(&b'\\') {
                                j += 2;
                            } else {
                                j += 1;
                            }
                            while j < bytes.len() && bytes[j] != b'\'' {
                                j += 1;
                            }
                            for _ in i..=j.min(bytes.len() - 1) {
                                out.push(' ');
                            }
                            i = j + 1;
                            continue;
                        }
                    }
                    out.push(bytes[i] as char);
                    i += 1;
                }
                St::Block(depth) => {
                    if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        state = if depth == 1 {
                            St::Code
                        } else {
                            St::Block(depth - 1)
                        };
                        i += 2;
                    } else if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        state = St::Block(depth + 1);
                        i += 2;
                    } else {
                        i += 1;
                    }
                    out.push(' ');
                }
                St::Str => {
                    if bytes[i] == b'\\' {
                        i += 2;
                        out.push_str("  ");
                    } else if bytes[i] == b'"' {
                        state = St::Code;
                        out.push('"');
                        i += 1;
                    } else {
                        out.push(' ');
                        i += 1;
                    }
                }
                St::RawStr(hashes) => {
                    if bytes[i] == b'"' {
                        let mut j = i + 1;
                        let mut seen = 0;
                        while seen < hashes && bytes.get(j) == Some(&b'#') {
                            seen += 1;
                            j += 1;
                        }
                        if seen == hashes {
                            state = St::Code;
                            for _ in i..j {
                                out.push(' ');
                            }
                            i = j;
                            continue;
                        }
                    }
                    out.push(' ');
                    i += 1;
                }
            }
        }
        lines.push(out);
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(source: &str) -> Vec<Violation> {
        let mut out = Vec::new();
        check_source("test.rs", source, &mut out);
        out
    }

    fn rules(source: &str) -> Vec<&'static str> {
        lint(source).into_iter().map(|v| v.rule).collect()
    }

    #[test]
    fn flags_raw_sync_imports_and_paths() {
        assert_eq!(rules("use std::sync::Mutex;"), ["raw-std-sync"]);
        assert_eq!(rules("use std::sync::{Arc, Mutex};"), ["raw-std-sync"]);
        assert_eq!(
            rules("use std::sync::atomic::{AtomicU64, Ordering};"),
            ["raw-std-sync"]
        );
        assert_eq!(
            rules("let m: std::sync::RwLock<u32> = std::sync::RwLock::new(0);"),
            ["raw-std-sync", "raw-std-sync"]
        );
    }

    #[test]
    fn allows_arc_and_oncelock() {
        assert!(rules("use std::sync::Arc;").is_empty());
        assert!(rules("use std::sync::{Arc, OnceLock, LazyLock, Weak};").is_empty());
        assert!(
            rules("static X: std::sync::OnceLock<u8> = std::sync::OnceLock::new();").is_empty()
        );
    }

    #[test]
    fn flags_raw_thread_spawn_but_not_sleep() {
        assert_eq!(rules("std::thread::spawn(|| ());"), ["raw-thread-spawn"]);
        assert_eq!(
            rules("std::thread::Builder::new().spawn(f);"),
            ["raw-thread-spawn"]
        );
        assert_eq!(rules("std::thread::scope(|s| ());"), ["raw-thread-spawn"]);
        assert!(rules("std::thread::sleep(d);").is_empty());
        assert!(rules("std::thread::yield_now();").is_empty());
        assert!(rules("std::thread::available_parallelism();").is_empty());
    }

    #[test]
    fn sync_ok_waiver_on_line_or_block_above() {
        assert!(rules("std::thread::scope(|s| ()); // sync-ok: borrows the stack").is_empty());
        assert!(rules(
            "// sync-ok: scoped threads borrow locals, the shim\n\
             // cannot express that.\n\
             std::thread::scope(|s| ());"
        )
        .is_empty());
        // The waiver covers only the line directly below the block.
        assert_eq!(
            rules(
                "// sync-ok: only for the next line\n\
                 let x = 1;\n\
                 std::thread::spawn(|| ());"
            ),
            ["raw-thread-spawn"]
        );
    }

    #[test]
    fn relaxed_requires_justification() {
        assert_eq!(
            rules("x.load(Ordering::Relaxed);"),
            ["relaxed-needs-justification"]
        );
        assert!(rules("x.load(Ordering::Relaxed); // relaxed-ok: isolated flag").is_empty());
        assert!(rules(
            "// relaxed-ok: an isolated counter; nothing is published\n\
             // through it.\n\
             x.fetch_add(1, Ordering::Relaxed);"
        )
        .is_empty());
        assert!(rules("x.load(Ordering::SeqCst);").is_empty());
    }

    #[test]
    fn flags_poisoning_footguns() {
        assert_eq!(rules("let g = m.lock().unwrap();"), ["poison-footgun"]);
        assert_eq!(
            rules("let g = m.lock().expect(\"poisoned\");"),
            ["poison-footgun"]
        );
        assert_eq!(rules("let g = rw.read().unwrap();"), ["poison-footgun"]);
        assert_eq!(rules("let g = rw.write().unwrap();"), ["poison-footgun"]);
        assert_eq!(
            rules("m.lock().unwrap_or_else(PoisonError::into_inner)"),
            ["poison-footgun"]
        );
        assert!(
            rules("let g = m.lock().unwrap(); // sync-ok: std mutex in build script").is_empty()
        );
    }

    #[test]
    fn prose_and_strings_never_trip() {
        assert!(rules("// std::sync::Mutex is forbidden; Ordering::Relaxed too").is_empty());
        assert!(rules("/* std::thread::spawn inside a block comment */").is_empty());
        assert!(rules("let s = \"std::sync::Mutex and .lock().unwrap()\";").is_empty());
        assert!(rules("let s = r#\"std::thread::spawn(Ordering::Relaxed)\"#;").is_empty());
        assert!(rules("//! std::sync::Condvar in module docs").is_empty());
    }

    #[test]
    fn violation_carries_location_and_snippet() {
        let vs = lint("fn f() {}\nuse std::sync::Mutex;\n");
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].file, "test.rs");
        assert_eq!(vs[0].line, 2);
        assert_eq!(vs[0].snippet, "use std::sync::Mutex;");
        assert!(vs[0].to_string().contains("test.rs:2"));
    }

    #[test]
    fn strip_preserves_line_structure() {
        let out = strip_comments_and_strings(
            "let a = \"x\"; // trailing\n/* one\n   two */ let b = 'c';\nlet l: &'static str = s;",
        );
        assert_eq!(out.len(), 4);
        assert_eq!(out[0], "let a = \" \"; ");
        assert!(out[1].trim().is_empty());
        assert!(out[2].contains("let b ="));
        assert!(!out[2].contains('c'));
        // A lifetime is not a char literal: the code survives.
        assert!(out[3].contains("&'static str"));
    }

    #[test]
    fn nested_block_comments_and_raw_strings() {
        let out = strip_comments_and_strings(
            "/* a /* nested */ still comment */ code();\nlet r = r##\"raw \"# inner\"##; tail();",
        );
        assert!(out[0].contains("code();"));
        assert!(!out[0].contains("nested"));
        assert!(out[1].contains("tail();"));
        assert!(!out[1].contains("inner"));
    }
}
