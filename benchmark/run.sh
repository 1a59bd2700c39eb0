#!/usr/bin/env bash
# The repo benchmark's one command.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload (the form BENCHMARK.json's command takes);
#       the last line of stdout is the result object
#   benchmark/run.sh [--seed N] [--workload W] [--traced|--untraced]
#       every workload (or W): an untraced and a traced pass, each in a
#       fresh child process; prints every metric, writes out/results.json
#   benchmark/run.sh --check [--seed N] [--workload W]
#       determinism check at 1/20 op count, then the unit tests
#   benchmark/run.sh --manifest | --describe
#       print BENCHMARK.json / the README's metric tables
#
# Builds `--release --offline` (hermetic policy: path dependencies only).
# Run from anywhere; paths in the output are relative to the repo root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."

# The driver names a target directory relative to the checkout; without
# one, build inside the benchmark's own (git-ignored) directory.
target="${CARGO_TARGET_DIR:-benchmark/target}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="$target/release/dprbg-benchmark"

case "${1:-}" in
--check)
    shift
    "$bin" check "$@"
    cargo test --release --offline --quiet --manifest-path benchmark/Cargo.toml
    ;;
--manifest) "$bin" manifest ;;
--describe) "$bin" describe ;;
*) "$bin" "$@" --rustc "$(rustc --version)" ;;
esac
