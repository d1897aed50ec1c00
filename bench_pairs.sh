#!/usr/bin/env bash
# Runs the repo's benchmark on a parent commit and on this checkout in
# alternating pairs, and writes BENCH_<pr>.json at the repo root.
#
#   ./bench_pairs.sh PR [PAIRS] [PARENT]
#
# PAIRS defaults to 10. PARENT is any revision and defaults to HEAD~1,
# the commit the change sits on once committed; pass HEAD while the
# change is still uncommitted. The parent is exported with `git archive`
# (no worktree is registered in .git, so an interrupted run leaves
# nothing behind in the repo) and each side builds into its own target
# directory under a fresh `mktemp -d` scratch directory (in $TMPDIR, or
# /tmp), which is kept for inspection. Every pair runs all four
# workloads of `benchmark/run.sh --out`, the side that goes first
# alternating, then `benchmark/run.sh compare PARENT CHANGE` judges the
# two sets against BENCHMARK.json's bounds.
#
# BENCH_<pr>.json holds, per workload and end-to-end metric, each side's
# median and quartiles (Python's statistics.quantiles, as the compare
# step uses), the change/parent ratio of the medians and the pairs the
# change won; the benchmark's exact counts on both sides; the compare
# verdicts; nproc and pool_workers; and both git SHAs.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"

pr="${1:?usage: bench_pairs.sh PR [PAIRS] [PARENT]}"
pairs="${2:-10}"
parent_rev="${3:-HEAD~1}"
root="$PWD"
work="$(mktemp -d "${TMPDIR:-/tmp}/bench_pairs.XXXXXX")"
mkdir -p "$work/parent-tree" "$work/parent" "$work/change"

parent_sha="$(git rev-parse "$parent_rev")"
change_sha="$(git rev-parse HEAD)"
if [ -n "$(git status --porcelain --untracked-files=no)" ]; then
    change_sha="$change_sha-dirty"
fi
git archive "$parent_sha" | tar -x -C "$work/parent-tree"

# One side's run of every workload into $work/<side>/pair<i>.
run_side() {
    local side="$1" pair="$2" tree
    if [ "$side" = parent ]; then tree="$work/parent-tree"; else tree="$root"; fi
    echo "== pair $pair: $side" >&2
    (cd "$tree" && CARGO_TARGET_DIR="$work/target-$side" \
        bash benchmark/run.sh --out "$work/$side/pair$pair" >"$work/$side/pair$pair.log")
}

for ((i = 0; i < pairs; i++)); do
    if ((i % 2 == 0)); then
        run_side parent "$i"
        run_side change "$i"
    else
        run_side change "$i"
        run_side parent "$i"
    fi
done

compare_ok=true
CARGO_TARGET_DIR="$work/target-change" bash benchmark/run.sh compare \
    "$work/parent" "$work/change" >"$work/compare.txt" || compare_ok=false
cat "$work/compare.txt"

python3 - "$work" "$root/BENCHMARK.json" "$root/BENCH_$pr.json" \
    "$parent_sha" "$change_sha" "$pairs" "$compare_ok" <<'EOF'
import glob, json, os, statistics, sys

work, spec_path, out_path, parent_sha, change_sha, pairs, compare_ok = sys.argv[1:]
spec = json.load(open(spec_path))
EXACT = ["optimizer.memo_groups", "optimizer.memo_exprs", "exec.scan_rows",
         "exec.op_opens", "exec.spill.spilled_bytes", "core.server.reply_bytes",
         "core.session.plan_cache_hit_share"]

def load(side):
    """workload -> list of result files in pair order."""
    runs = {}
    for i in range(int(pairs)):
        for path in sorted(glob.glob(os.path.join(work, side, f"pair{i}", "*.json"))):
            if path.endswith(".trace.json"):
                continue
            r = json.load(open(path))
            runs.setdefault(r["workload"], []).append(r)
    return runs

def summary(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
    return {"median": statistics.median(xs), "q1": q1, "q3": q3, "runs": xs}

parent, change = load("parent"), load("change")
host = next(iter(change.values()))[0]["host"]
workloads = {}
for w in sorted(set(parent) | set(change)):
    p_runs, c_runs = parent.get(w, []), change.get(w, [])
    end_to_end = {}
    for m in spec["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        p = [r["end_to_end"][name]["value"] for r in p_runs if name in r["end_to_end"]]
        c = [r["end_to_end"][name]["value"] for r in c_runs if name in r["end_to_end"]]
        if not p or not c:
            continue
        won = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
        end_to_end[name] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            "parent": summary(p), "change": summary(c),
            "ratio": statistics.median(c) / statistics.median(p),
            "change_won_pairs": won,
        }
    exact = {}
    for name in EXACT:
        p = [r["per_layer"][name]["value"] for r in p_runs if name in r.get("per_layer", {})]
        c = [r["per_layer"][name]["value"] for r in c_runs if name in r.get("per_layer", {})]
        if p or c:
            exact[name] = {"parent": p, "change": c, "identical": len(set(p + c)) == 1}
    workloads[w] = {
        "failed": {"parent": sum(r["failed"] for r in p_runs),
                   "change": sum(r["failed"] for r in c_runs)},
        "end_to_end": end_to_end,
        "exact_counts": exact,
    }

verdicts = []
for line in open(os.path.join(work, "compare.txt")):
    f = line.split()
    if len(f) == 10 and f[0] != "workload":
        verdicts.append({"workload": f[0], "metric": f[1], "verdict": f[9]})

json.dump({
    "parent_sha": parent_sha, "change_sha": change_sha, "pairs": int(pairs),
    "nproc": host["nproc"], "pool_workers": host["pool_workers"],
    "compare_clean": compare_ok == "true", "compare": verdicts,
    "workloads": workloads,
}, open(out_path, "w"), indent=1)
print(f"wrote {out_path}; runs kept in {work}")
EOF
