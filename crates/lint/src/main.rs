//! `dprbg-lint` CLI: `cargo run -p dprbg-lint -- --workspace`.
//!
//! Exit status: 0 clean, 1 diagnostics found, 2 usage or I/O error.
//! `scripts/verify.sh` runs `--manifests` as the dependency-policy guard
//! and `--workspace` as the full invariant pass (see LINTS.md).

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use dprbg_lint::{lint_manifests, scan_workspace};

struct Options {
    manifests_only: bool,
    root: PathBuf,
}

fn parse_args() -> Result<Option<Options>, String> {
    let mut opts = Options { manifests_only: false, root: PathBuf::from(".") };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace" => opts.manifests_only = false,
            "--manifests" => opts.manifests_only = true,
            "--root" => match args.next() {
                Some(p) => opts.root = PathBuf::from(p),
                None => return Err("--root needs a path".to_string()),
            },
            "--help" | "-h" => {
                println!(
                    "usage: dprbg-lint [--workspace | --manifests] [--root <dir>]\n\
                     \n\
                     --workspace  lint every manifest and Rust source (default)\n\
                     --manifests  hermetic dependency-policy rule only\n\
                     --root       workspace root to scan (default: .)\n\
                     \n\
                     Rules and suppression syntax: see LINTS.md."
                );
                return Ok(None);
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(Some(opts))
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(Some(o)) => o,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dprbg-lint: {e}");
            return ExitCode::from(2);
        }
    };

    if opts.manifests_only {
        let diags = match lint_manifests(&opts.root) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("dprbg-lint: {e}");
                return ExitCode::from(2);
            }
        };
        if diags.is_empty() {
            println!("dprbg-lint: manifests clean");
            return ExitCode::SUCCESS;
        }
        for d in &diags {
            println!("{d}");
        }
        return ExitCode::FAILURE;
    }

    let report = match scan_workspace(&opts.root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("dprbg-lint: {e}");
            return ExitCode::from(2);
        }
    };

    for d in &report.diags {
        println!("{d}");
    }

    // The census lines: how many transport pins exist (the invariant
    // requires zero) and how many pins are stale (likewise) — printed
    // even when clean so the zeros stay visible.
    println!(
        "dprbg-lint: {} transport suppression{} (required: 0)",
        report.transport_suppressions,
        if report.transport_suppressions == 1 { "" } else { "s" }
    );
    println!(
        "dprbg-lint: {} stale suppression{} of {} allow pin{} (required: 0)",
        report.stale_suppressions,
        if report.stale_suppressions == 1 { "" } else { "s" },
        report.suppressions,
        if report.suppressions == 1 { "" } else { "s" }
    );

    if report.diags.is_empty() {
        println!("dprbg-lint: workspace clean");
        return ExitCode::SUCCESS;
    }
    eprintln!(
        "dprbg-lint: {} diagnostic{} (suppress with `// lint: allow(<rule>) — <reason>`, see LINTS.md)",
        report.diags.len(),
        if report.diags.len() == 1 { "" } else { "s" }
    );
    ExitCode::FAILURE
}
