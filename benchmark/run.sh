#!/usr/bin/env bash
# One command: build the benchmark in release mode, then run it.
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1]
#                    [--smoke] [--out DIR] [--repeat R]
#   benchmark/run.sh compare A/ B/
#   benchmark/run.sh expected
#
# Without --workload every workload runs, each in a fresh process.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
ORTHOBENCH_GIT_SHA="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
export ORTHOBENCH_GIT_SHA
exec "$CARGO_TARGET_DIR/release/orthobench" "$@"
