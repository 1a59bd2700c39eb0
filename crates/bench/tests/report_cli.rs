//! The `report` binary's contract: a name it does not know, or a mix of
//! reports, is a usage error, not an empty report; and every `--quick`
//! report's stdout is pinned byte for byte by a golden file in
//! `tests/golden/`.
//!
//! After a deliberate change to a table, regenerate its golden file from
//! the repository root with
//!
//! ```text
//! cargo run -q -p dprbg-bench --bin report -- --quick > crates/bench/tests/golden/report_quick.txt
//! cargo run -q -p dprbg-bench --bin report -- --quick --health > crates/bench/tests/golden/health_quick.txt
//! cargo run -q -p dprbg-bench --bin report -- --quick --trace /tmp/t.json > crates/bench/tests/golden/trace_quick.txt
//! ```
//!
//! and review the diff.

use std::path::PathBuf;
use std::process::{Command, Output};

fn report(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_report")).args(args).output().expect("run report")
}

/// A scratch path for a Chrome trace export, unique per test.
fn trace_path(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_file(&path);
    path.to_str().expect("UTF-8 target dir").to_owned()
}

/// Run `report args` and compare its stdout with `golden` byte for byte;
/// on a mismatch, name the first differing line.
fn assert_golden(args: &[&str], golden: &str, name: &str) {
    let out = report(args);
    assert!(out.status.success(), "report {args:?} failed: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("report prints UTF-8");
    if stdout != golden {
        let line = stdout.lines().zip(golden.lines()).position(|(a, b)| a != b);
        let line = line.unwrap_or_else(|| stdout.lines().count().min(golden.lines().count()));
        panic!(
            "report {args:?} differs from tests/golden/{name} at line {}:\n  got:    {:?}\n  golden: {:?}\n\
             (regenerate the file as this test's module doc says, and review the diff)",
            line + 1,
            stdout.lines().nth(line),
            golden.lines().nth(line),
        );
    }
}

#[test]
fn report_quick_matches_golden() {
    assert_golden(&["--quick"], include_str!("golden/report_quick.txt"), "report_quick.txt");
}

#[test]
fn health_quick_matches_golden() {
    assert_golden(
        &["--quick", "--health"],
        include_str!("golden/health_quick.txt"),
        "health_quick.txt",
    );
}

#[test]
fn trace_quick_matches_golden() {
    let path = trace_path("golden-trace.json");
    assert_golden(
        &["--quick", "--trace", &path],
        include_str!("golden/trace_quick.txt"),
        "trace_quick.txt",
    );
    let json = std::fs::read_to_string(&path).expect("--trace writes its export");
    assert!(json.starts_with("{\"traceEvents\":["), "{}", &json[..json.len().min(64)]);
}

#[test]
fn unknown_experiment_or_flag_is_a_usage_error() {
    let trace = trace_path("usage-trace.json");
    let mixed = "experiment names, `--health` and `--trace` are separate reports";
    for (args, what) in [
        (&["--quick", "e3", "e16"][..], "unknown experiment `e16`"),
        (&["e13"][..], "unknown experiment `e13`"),
        (&["--quick", "e3", "--timng"], "unknown flag `--timng`"),
        (&["--quick", "e3", "--health"], mixed),
        (&["--health", "--trace", &trace], mixed),
        (&["--trace", &trace, "e4"], mixed),
        (&["--health", "--health"], mixed),
    ] {
        let out = report(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2: {out:?}");
        assert!(out.stdout.is_empty(), "{args:?} must not start a report: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(what) && stderr.contains("usage: report"), "{stderr}");
    }
    assert!(!PathBuf::from(trace).exists(), "a usage error must not write the trace");
}
