//! `orthobench compare A/ B/`: two sets of result files, one row per
//! (workload, end-to-end metric). No combined score.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::Json;
use crate::stats;
use crate::workload::NAMES;

/// Per-layer counts that must repeat exactly between two sets of runs
/// of one commit with one seed.
const EXACT_COUNTS: [&str; 7] = [
    "optimizer.memo_groups",
    "optimizer.memo_exprs",
    "exec.scan_rows",
    "exec.op_opens",
    "exec.spill.spilled_bytes",
    "core.server.reply_bytes",
    "core.session.plan_cache_hit_share",
];

/// `workload → metric → one value per run`.
type Set = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// The `end_to_end` and `per_layer` sections of every result file in
/// `dir` and its immediate subdirectories.
fn load(dir: &Path) -> Result<(Set, Set), String> {
    let mut files = Vec::new();
    let mut dirs = vec![dir.to_path_buf()];
    while let Some(d) = dirs.pop() {
        let entries = std::fs::read_dir(&d).map_err(|e| format!("{}: {e}", d.display()))?;
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name().to_string_lossy().into_owned();
            if path.is_dir() && d == dir {
                dirs.push(path);
            } else if name.ends_with(".json") && !name.ends_with(".trace.json") {
                files.push(path);
            }
        }
    }
    let (mut end_to_end, mut per_layer) = (Set::new(), Set::new());
    for path in files {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let Some(workload) = json.get("workload").and_then(Json::as_str) else {
            continue;
        };
        for (set, section) in [
            (&mut end_to_end, "end_to_end"),
            (&mut per_layer, "per_layer"),
        ] {
            let by_metric = set.entry(workload.to_string()).or_default();
            for (name, value) in json
                .get(section)
                .map(Json::metric_values)
                .unwrap_or_default()
            {
                by_metric.entry(name).or_default().push(value);
            }
        }
    }
    Ok((end_to_end, per_layer))
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Better,
    Worse,
    WithinBound,
    /// The runs of one side spread wider than the bound, so the medians
    /// cannot be told apart at that resolution.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within-bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let (ma, mb) = (
        stats::median(a).unwrap_or(f64::NAN),
        stats::median(b).unwrap_or(f64::NAN),
    );
    let spread = [a, b]
        .iter()
        .filter_map(|xs| stats::quartile_spread(xs))
        .fold(0.0, f64::max);
    let worse_by = if lower_is_better { mb - ma } else { ma - mb } / ma;
    if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

/// Prints the comparison; `Ok(false)` when any row is worse or
/// unresolved, or any exact count differs.
pub fn compare(spec_path: &Path, a: &Path, b: &Path) -> Result<bool, String> {
    let spec = std::fs::read_to_string(spec_path)
        .map_err(|e| format!("{}: {e}", spec_path.display()))
        .and_then(|t| Json::parse(&t))?;
    let ((set_a, layers_a), (set_b, layers_b)) = (load(a)?, load(b)?);
    let mut clean = true;
    println!("workload metric unit A B B/A spread_A spread_B bound verdict");
    for workload in NAMES {
        for m in spec.get("end_to_end").map(Json::as_arr).unwrap_or_default() {
            let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or_default();
            let (name, unit) = (field("name"), field("unit"));
            let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let runs = |set: &Set| -> Vec<f64> {
                set.get(workload)
                    .and_then(|ms| ms.get(name))
                    .cloned()
                    .unwrap_or_default()
            };
            let (ra, rb) = (runs(&set_a), runs(&set_b));
            if ra.is_empty() || rb.is_empty() {
                println!("{workload} {name} {unit} missing");
                clean = false;
                continue;
            }
            let v = verdict(&ra, &rb, field("better") == "lower", bound);
            clean &= matches!(v, Verdict::Better | Verdict::WithinBound);
            let (ma, mb) = (stats::median(&ra).unwrap(), stats::median(&rb).unwrap());
            let spread = |xs: &[f64]| {
                stats::quartile_spread(xs).map_or("n/a".to_string(), |s| format!("{s:.4}"))
            };
            println!(
                "{workload} {name} {unit} {ma:.4} {mb:.4} {:.4} {} {} {bound} {}",
                mb / ma,
                spread(&ra),
                spread(&rb),
                v.name()
            );
        }
    }
    for workload in NAMES {
        for name in EXACT_COUNTS {
            let runs = |set: &Set| set.get(workload).and_then(|ms| ms.get(name)).cloned();
            let (Some(mut ra), Some(mut rb)) = (runs(&layers_a), runs(&layers_b)) else {
                continue;
            };
            ra.append(&mut rb);
            let same = ra.iter().all(|v| *v == ra[0]);
            clean &= same;
            println!(
                "{workload} {name} count {} {}",
                ra[0],
                if same { "same" } else { "differs" }
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_use_the_bound_in_both_directions() {
        let a = [100.0, 101.0, 99.0, 100.0];
        assert_eq!(
            verdict(&a, &[103.0, 104.0, 103.0, 104.0], true, 0.05),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(&a, &[110.0, 111.0, 110.0, 111.0], true, 0.05),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&a, &[90.0, 91.0, 90.0, 91.0], true, 0.05),
            Verdict::Better
        );
        // Higher is better: the same drop is a regression.
        assert_eq!(
            verdict(&a, &[90.0, 91.0, 90.0, 91.0], false, 0.05),
            Verdict::Worse
        );
    }

    #[test]
    fn a_wide_spread_is_unresolved_not_unchanged() {
        let noisy = [80.0, 100.0, 120.0, 140.0];
        assert_eq!(
            verdict(&noisy, &[100.0; 4], true, 0.05),
            Verdict::Unresolved
        );
        // A single run per side has no spread to judge by.
        assert_eq!(
            verdict(&[100.0], &[101.0], true, 0.05),
            Verdict::WithinBound
        );
    }
}
