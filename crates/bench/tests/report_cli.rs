//! The `report` binary's argument contract: a name it does not know is
//! a usage error, not an empty report.

use std::process::Command;

#[test]
fn unknown_experiment_or_flag_is_a_usage_error() {
    for (bad, what) in [("e16", "unknown experiment `e16`"), ("--timng", "unknown flag `--timng`")] {
        let out = Command::new(env!("CARGO_BIN_EXE_report"))
            .args(["--quick", "e3", bad])
            .output()
            .expect("run report");
        assert_eq!(out.status.code(), Some(2), "`{bad}` must exit 2: {out:?}");
        assert!(out.stdout.is_empty(), "`{bad}` must not start a report: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(what) && stderr.contains("usage: report"), "{stderr}");
    }
}
