#!/usr/bin/env bash
# Hermetic-build verification: offline build + tests + examples + clippy
# + docs + the full experiment report + the benchmark package check.
#
# Usage: scripts/verify.sh
# Exits non-zero if the build fails, a test fails (`tests/hermetic.rs`
# fails on any lock-file package that is not an in-tree path crate;
# crates/bench/tests/report_cli.rs fails on any byte of a `--quick`
# report that differs from its golden file), an example exits non-zero,
# clippy reports anything, the full report differs from report_full.txt,
# or the benchmark package stops building or moves a digest.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release, offline) =="
cargo build --release --offline

echo "== tests (workspace, offline) =="
cargo test -q --workspace --offline

echo "== examples (release, offline: every runnable demo exits 0) =="
# `cargo test` only compiles the examples; they are the tree's only
# runnable demos, so each one runs here.
for example in examples/*.rs; do
    name="$(basename "$example" .rs)"
    if ! cargo run --release --offline -q --example "$name" >/dev/null; then
        echo "example FAILED: $name exited non-zero" >&2
        exit 1
    fi
    echo "ok: example $name"
done

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

echo "== full report (release, offline: byte-identical to report_full.txt) =="
# Every report prints counted units only, so its stdout is a pure
# function of its arguments. The workspace test stage pins the three
# `--quick` reports (crates/bench/tests/golden/, every verdict line
# included); this stage pins the full sweeps, which alone run E11 at
# n = 61 and E14's n = 201 committee.
full_report="$(mktemp -t dprbg-report-XXXXXX.txt)"
trap 'rm -f "$full_report"' EXIT
cargo run -p dprbg-bench --release --offline -q --bin report >"$full_report"
if ! diff -u report_full.txt "$full_report"; then
    echo "full report FAILED: stdout differs from report_full.txt" >&2
    echo "(after a deliberate table change, regenerate it: cargo run -p dprbg-bench --release --bin report > report_full.txt)" >&2
    exit 1
fi
echo "ok: full report byte-identical to report_full.txt"

echo "== benchmark package check (builds against the crates, digests + exact counts, <60s budget) =="
# `benchmark/` is a separate hermetic package that consumes the crates'
# public API from outside (BENCHMARK.json's command). A change to
# `dprbg-sim` / `dprbg-protocols` / `dprbg-core` / `dprbg-beacon` that
# stops it building — or moves a digest or an exact count between two
# runs of one seed — must fail here, not in the benchmark pipeline.
# Build first so the budget times the check (1/20-size workloads run
# twice per seed, plus the package's unit tests), not the compiler.
# Building re-resolves the package's frozen `Cargo.lock` whenever a crate
# gained a dependency since it was written; restore it on any exit, so a
# verify run leaves `benchmark/` as committed.
bench_lock="$(mktemp -t dprbg-bench-lock-XXXXXX)"
cp benchmark/Cargo.lock "$bench_lock"
trap 'cp "$bench_lock" benchmark/Cargo.lock; rm -f "$bench_lock" "$full_report"' EXIT
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
