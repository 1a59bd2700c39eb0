//! The experiment report generator: regenerates every table of the
//! paper's evaluation in the paper's own cost units.
//!
//! ```text
//! cargo run -p dprbg-bench --release --bin report               # all, full sweeps
//! cargo run -p dprbg-bench --release --bin report -- --quick    # all, small sweeps
//! cargo run -p dprbg-bench --release --bin report -- e4 e5      # selected experiments
//! ```
//!
//! An argument that is neither an experiment name nor one of the flags
//! below is a usage error (exit status 2), not an empty report.
//!
//! `--trace <path>` runs the fixed-seed traced E2 smoke, prints its
//! per-(round, phase) cost breakdown, writes the Chrome trace-event JSON
//! to `<path>` (load it in Perfetto or `chrome://tracing`), and reports
//! the E11 tracing-overhead timing. Combine with `--quick` for the small
//! sweep.
//!
//! `--health` runs the health-plane smoke: a fixed-seed E15 short soak
//! rendered as the registry's dashboard, with the registry bytes' decode
//! round trip, cross-executor parity, kill/restore byte-identity, and
//! forced-rollback forensics asserted inline. Combine with `--quick` for
//! the short soak.

use std::time::Instant;

use dprbg_bench::experiments::{self as ex, ExperimentCtx};
use dprbg_metrics::Table;

type Experiment = fn(&ExperimentCtx) -> Vec<Table>;

/// Every experiment the report can run, in print order.
const EXPERIMENTS: [(&str, Experiment); 15] = [
    ("e1", |c| vec![ex::e1::run(c)]),
    ("e2", |c| vec![ex::e2::run(c), ex::e2::run_k_sweep(c)]),
    ("e3", |c| vec![ex::e3::run(c)]),
    ("e4", ex::e4::run),
    ("e5", |c| vec![ex::e5::run(c)]),
    ("e6", ex::e6::run),
    ("e7", |c| vec![ex::e7::run(c)]),
    ("e8", |c| vec![ex::e8::run(c)]),
    ("e9", |c| vec![ex::e9::run(c)]),
    ("e10", |c| vec![ex::e10::run(c)]),
    ("e11", |c| vec![ex::e11::run(c)]),
    ("e12", ex::e12::run),
    ("e13", |c| vec![ex::e13::run(c)]),
    ("e14", |c| vec![ex::e14::run(c)]),
    ("e15", ex::e15::run),
];

fn usage_error(what: &str) -> ! {
    eprintln!(
        "report: {what}\n\
         usage: report [--quick] [e1 .. e15]...\n\
         \x20      report [--quick] --health\n\
         \x20      report [--quick] --trace <chrome-trace.json>"
    );
    std::process::exit(2);
}

fn main() {
    let (mut quick, mut health, mut trace) = (false, false, None);
    let mut selected: Vec<&str> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" | "-q" => quick = true,
            "--health" => health = true,
            "--trace" => match args.next() {
                Some(path) => trace = Some(path),
                None => usage_error("--trace requires an output path for the Chrome trace JSON"),
            },
            name => match EXPERIMENTS.iter().find(|(n, _)| n.eq_ignore_ascii_case(name)) {
                Some((n, _)) => selected.push(n),
                None if name.starts_with('-') => usage_error(&format!("unknown flag `{name}`")),
                None => usage_error(&format!("unknown experiment `{name}`")),
            },
        }
    }
    if health {
        dprbg_bench::health::run_health_report(quick);
        return;
    }
    if let Some(path) = trace {
        dprbg_bench::traced::run_traced_report(&path, quick);
        return;
    }
    let ctx = ExperimentCtx::new(quick);

    println!("dprbg experiment report — Bellare–Garay–Rabin, PODC 1996");
    println!(
        "mode: {}  (cost units: field ops / interpolations / messages / bytes / rounds)\n",
        if quick { "quick" } else { "full" }
    );

    let t0 = Instant::now();
    for (name, run) in EXPERIMENTS {
        if selected.is_empty() || selected.contains(&name) {
            for table in run(&ctx) {
                println!("{}", table.render());
            }
        }
    }
    println!("report generated in {:.1}s", t0.elapsed().as_secs_f64());
}
