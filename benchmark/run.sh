#!/usr/bin/env bash
# The one command of the repo benchmark: builds benchmark/ in release
# (offline), then runs it from the repo root.
#
#   benchmark/run.sh [--seed N] [--reps N] [--workload NAME] [--smoke]
#       end-to-end passes, one layered pass per workload, every check;
#       writes benchmark/out/results.json and benchmark/out/<w>.layers.json
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one workload, one kind of pass, measured for S seconds; the last
#       line of stdout is the result object (the BENCHMARK.json command)
#   benchmark/run.sh --compare A.json B.json     (paths relative to the repo root)
#   benchmark/run.sh --bless                     rewrite benchmark/expected/
#
# Exits non-zero when the build or any check fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# Single-threaded by definition: no pool size may leak in from the caller.
unset KOLLAPS_THREADS

# A relative CARGO_TARGET_DIR means "relative to the repo root".
target="${CARGO_TARGET_DIR:-benchmark/target}"
case "$target" in
    /*) ;;
    *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$target/release/kollaps-benchmark" "$@"
