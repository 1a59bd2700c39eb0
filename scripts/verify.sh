#!/usr/bin/env bash
# Hermetic-build verification: offline build + tests + clippy + smokes.
#
# Usage: scripts/verify.sh
# Exits non-zero if the build fails, a test fails (`tests/hermetic.rs`
# fails on any lock-file package that is not an in-tree path crate), or
# clippy reports anything.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release, offline) =="
cargo build --release --offline

echo "== tests (workspace, offline) =="
cargo test -q --workspace --offline

echo "== lint (clippy, workspace, offline: the static invariants of LINTS.md) =="
# Lints are errors under -D warnings; what remains a warning is clippy's
# own config check (a clippy.toml ban path that names no reachable item
# prints a warning and still exits 0), so any warning fails the stage.
clippy_log="$(cargo clippy --workspace --offline -- -D warnings 2>&1)" || {
    printf '%s\n' "$clippy_log" >&2
    exit 1
}
printf '%s\n' "$clippy_log"
if grep -q '^warning' <<<"$clippy_log"; then
    echo "clippy FAILED: warnings in the output (see LINTS.md)" >&2
    exit 1
fi

echo "== docs (no warnings, offline) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline -q

echo "== chaos campaign smoke (fixed seed, quick) =="
cargo run -p dprbg-bench --release --offline -q --bin report -- e12 --quick

echo "== backend & executor parity smoke (E8 + E13, fixed seed, quick) =="
# E8 checks the dispatched carry-less multiply, and the GF(2^k) slice
# kernels built on it, against the portable reference ladder; E13 asserts ParRunner transcripts/traces are
# byte-identical to StepRunner, that its Chrome export round-trips, that
# per-call and shared-basis decoding agree on clean and dirty words, and
# that a grade-cast value reaches every grade as the sender's one handle.
parity_report="$(cargo run -p dprbg-bench --release --offline -q --bin report -- e8 e13 --quick)"
printf '%s\n' "$parity_report"
for needle in "backend parity OK" "kernel parity OK" "executor parity OK" \
    "par trace round-trip OK" "decode parity OK" "gradecast handle parity OK"; do
    if ! grep -q "$needle" <<<"$parity_report"; then
        echo "parity smoke FAILED: missing \"$needle\"" >&2
        exit 1
    fi
done

echo "== committee smoke (E14, fixed seed, quick) =="
# Committee-sampled Coin-Gen at n = 129, c = 31: `run` asserts
# StepRunner/ParRunner parity on trial 0 and that at least one chained
# election reaches the t_c + 1 quorum before rendering the table.
committee_report="$(cargo run -p dprbg-bench --release --offline -q --bin report -- e14 --quick)"
printf '%s\n' "$committee_report"
if ! grep -q "committee n=129" <<<"$committee_report"; then
    echo "committee smoke FAILED: E14 row for n=129 missing" >&2
    exit 1
fi

echo "== beacon soak smoke (E15, fixed seed, kill/restore determinism) =="
# Crash-recoverable beacon under a composite fault schedule: `run`
# asserts zero unsound epochs, and the kill/restore replay's final
# snapshot must be byte-identical to the uninterrupted soak's.
beacon_report="$(cargo run -p dprbg-bench --release --offline -q --bin report -- e15 --quick)"
printf '%s\n' "$beacon_report"
if ! grep -q "restore determinism OK" <<<"$beacon_report"; then
    echo "beacon smoke FAILED: kill/restore replay diverged from the base soak" >&2
    exit 1
fi

echo "== health-plane smoke (fixed-seed soak, exporters, flight recorder) =="
# The dprbg-metrics health plane over a short E15-style soak: JSON-lines
# export must round-trip losslessly, exports must be byte-identical
# across executors and thread counts, a kill/restore must preserve the
# flight recorder byte-identically, and the rollback fire-drill must
# come back with the forensic dump attached.
health_report="$(cargo run -p dprbg-bench --release --offline -q --bin report -- --health --quick)"
printf '%s\n' "$health_report"
for needle in \
    "health export round-trip OK" \
    "health export executor parity OK" \
    "flight recorder kill/restore OK" \
    "forensic dump OK"; do
    if ! grep -q "$needle" <<<"$health_report"; then
        echo "health smoke FAILED: missing \"$needle\"" >&2
        exit 1
    fi
done

echo "== traced E2 smoke (fixed seed, Chrome-trace round trip) =="
trace_out="$(mktemp -t dprbg-trace-XXXXXX.json)"
trap 'rm -f "$trace_out"' EXIT
# (Captured rather than piped into `grep -q`: under pipefail an early
# grep exit would SIGPIPE the producer and fail a green run.)
trace_report="$(cargo run -p dprbg-bench --release --offline -q --bin report -- --quick --trace "$trace_out")"
printf '%s\n' "$trace_report"
if ! grep -q "trace round-trip OK" <<<"$trace_report"; then
    echo "traced E2 smoke FAILED: Chrome trace did not round-trip" >&2
    exit 1
fi

echo "== benchmark package check (builds against the crates, digests + exact counts, <60s budget) =="
# `benchmark/` is a separate hermetic package that consumes the crates'
# public API from outside (BENCHMARK.json's command). A change to
# `dprbg-sim` / `dprbg-protocols` / `dprbg-core` / `dprbg-beacon` that
# stops it building — or moves a digest or an exact count between two
# runs of one seed — must fail here, not in the benchmark pipeline.
# Build first so the budget times the check (1/20-size workloads run
# twice per seed, plus the package's unit tests), not the compiler.
bench_cargo=(--release --offline --quiet --manifest-path benchmark/Cargo.toml
    --target-dir "${CARGO_TARGET_DIR:-benchmark/target}")
if ! { cargo build "${bench_cargo[@]}" && cargo test --no-run "${bench_cargo[@]}"; }; then
    echo "benchmark build FAILED: benchmark/ is a frozen consumer of dprbg-sim's public bounds" >&2
    echo "(no other PR may edit it, and this stage is the only automated place a bound drift shows:" >&2
    echo " e.g. benchmark/src/layers.rs runs StepRunner with a payload that is Send but not Sync." >&2
    echo " Restore the crate's signature; do not touch benchmark/.)" >&2
    exit 1
fi
bench_t0="$(date +%s%N)"
bench_report="$(bash benchmark/run.sh --check)"
bench_t1="$(date +%s%N)"
bench_ms=$(( (bench_t1 - bench_t0) / 1000000 ))
printf '%s\n' "$bench_report" | tail -n 12
if ! grep -q "^check OK" <<<"$bench_report"; then
    echo "benchmark check FAILED: missing \"check OK\"" >&2
    exit 1
fi
echo "ok: benchmark package check green in ${bench_ms}ms"
if [ "$bench_ms" -ge 60000 ]; then
    echo "benchmark check FAILED: ${bench_ms}ms exceeds the 60s budget" >&2
    echo "(the 1/20-size workloads got slower by a multiple; look at benchmark/README.md's ledger)" >&2
    exit 1
fi

echo "verify.sh: all green"
