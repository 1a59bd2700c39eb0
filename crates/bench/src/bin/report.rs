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
//! below is a usage error (exit status 2), not an empty report; so is
//! mixing experiment names, `--health` and `--trace`, which are three
//! separate reports.
//!
//! `--trace <path>` runs the fixed-seed traced E2 smoke, prints its
//! per-(round, phase) cost breakdown, and writes the Chrome trace-event
//! JSON to `<path>` (load it in Perfetto or `chrome://tracing`). Combine
//! with `--quick` for the small sweep.
//!
//! `--health` runs the health-plane smoke: a fixed-seed E15 short soak
//! rendered as the registry's dashboard, with the registry bytes' decode
//! round trip, cross-executor parity, kill/restore byte-identity, and
//! forced-rollback forensics asserted inline. Combine with `--quick` for
//! the short soak.
//!
//! Every report prints counted units only, so its stdout is a pure
//! function of the arguments: `tests/golden/` pins the three `--quick`
//! reports byte for byte, and the repository root's `report_full.txt`
//! the full one.

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

/// Which report to print; exactly one per invocation.
enum Mode {
    /// The experiment tables; an empty selection means all of them.
    Tables(Vec<&'static str>),
    /// `--health`: the health-plane smoke.
    Health,
    /// `--trace <path>`: the traced E2 smoke, exporting to `path`.
    Trace(String),
}

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
    let mut quick = false;
    let mut mode = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let next = match arg.as_str() {
            "--quick" | "-q" => {
                quick = true;
                continue;
            }
            "--health" => Mode::Health,
            "--trace" => match args.next() {
                Some(path) => Mode::Trace(path),
                None => usage_error("--trace requires an output path for the Chrome trace JSON"),
            },
            name => match EXPERIMENTS.iter().find(|(n, _)| n.eq_ignore_ascii_case(name)) {
                Some((n, _)) => Mode::Tables(vec![n]),
                None if name.starts_with('-') => usage_error(&format!("unknown flag `{name}`")),
                None => usage_error(&format!("unknown experiment `{name}`")),
            },
        };
        mode = Some(match (mode, next) {
            (None, next) => next,
            (Some(Mode::Tables(mut names)), Mode::Tables(more)) => {
                names.extend(more);
                Mode::Tables(names)
            }
            _ => usage_error("experiment names, `--health` and `--trace` are separate reports"),
        });
    }
    let selected = match mode.unwrap_or(Mode::Tables(Vec::new())) {
        Mode::Health => return dprbg_bench::health::run_health_report(quick),
        Mode::Trace(path) => return dprbg_bench::traced::run_traced_report(&path, quick),
        Mode::Tables(names) => names,
    };
    let ctx = ExperimentCtx::new(quick);

    println!("dprbg experiment report — Bellare–Garay–Rabin, PODC 1996");
    println!(
        "mode: {}  (cost units: field ops / interpolations / messages / bytes / rounds)\n",
        if quick { "quick" } else { "full" }
    );

    for (name, run) in EXPERIMENTS {
        if selected.is_empty() || selected.contains(&name) {
            for table in run(&ctx) {
                println!("{}", table.render());
            }
        }
    }
}
