#!/usr/bin/env bash
# Run N full sets of the benchmark and print, per (workload, end-to-end
# metric), min / median / max and the spread against the metric's bound.
#
#   benchmark/repeat.sh N [run.sh flags, e.g. --seed 7 --untraced]
#
# Set each bound to max(2 x the spread seen over >= 5 sets, 5 %); exits
# non-zero when a spread is wider than its bound.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
n="${1:?usage: benchmark/repeat.sh N [run.sh flags]}"
shift
sets=()
for i in $(seq 1 "$n"); do
    echo "#### set $i of $n"
    benchmark/run.sh "$@" --results "benchmark/out/set-$i.json"
    sets+=("benchmark/out/set-$i.json")
done
"${CARGO_TARGET_DIR:-benchmark/target}/release/dprbg-benchmark" summarize "${sets[@]}"
