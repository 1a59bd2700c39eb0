//! The repo benchmark. One binary, three ways in:
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one run of one
//!   workload in this process (what `BENCHMARK.json`'s command reaches
//!   through `run.sh`); the last line of stdout is the result object;
//! * no `--trace` — every workload (or `--workload W`), each pass in a
//!   fresh child process, all metrics printed and written as JSON;
//! * `check`, `summarize`, `compare`, `describe`, `manifest` — determinism
//!   check, spread over repeated sets, one set against another within the
//!   bounds, the metric tables, and `BENCHMARK.json` itself.

mod beacon;
mod coingen;
mod common;
mod defs;
mod json;
mod layers;
mod proc;
mod spans;
mod stats;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use dprbg_field::Gf2k;

use common::{RunArgs, RunOutput};
use defs::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use json::Json;

#[global_allocator]
static ALLOC: proc::CountingAlloc = proc::CountingAlloc;

const DEFAULT_SEED: u64 = 1;

/// `--key value` pairs and bare words, in order.
struct Cli {
    words: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Cli {
    fn parse(args: impl Iterator<Item = String>) -> Result<Cli, String> {
        const BARE: [&str; 2] = ["--traced", "--untraced"];
        let mut cli = Cli {
            words: Vec::new(),
            flags: Vec::new(),
        };
        let mut args = args.peekable();
        while let Some(a) = args.next() {
            if BARE.contains(&a.as_str()) {
                cli.flags.push((a, String::new()));
            } else if a.starts_with("--") {
                let v = args.next().ok_or_else(|| format!("{a} needs a value"))?;
                cli.flags.push((a, v));
            } else {
                cli.words.push(a);
            }
        }
        Ok(cli)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn number(&self, key: &str, default: u64) -> Result<u64, String> {
        self.get(key).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("{key}: not a whole number: {v}"))
        })
    }

    fn out_dir(&self) -> PathBuf {
        self.get("--out")
            .map_or_else(|| PathBuf::from("benchmark/out"), PathBuf::from)
    }
}

fn main() -> ExitCode {
    let outcome = Cli::parse(std::env::args().skip(1)).and_then(|cli| {
        match cli.words.first().map(String::as_str) {
            _ if cli.get("--trace").is_some() => child(&cli),
            None | Some("all") => all(&cli),
            Some("check") => check(&cli),
            Some("summarize") => summarize(&cli.words[1..]),
            Some("compare") => compare(&cli.words[1..]),
            Some("describe") => {
                describe();
                Ok(())
            }
            Some("manifest") => {
                print!("{}", defs::manifest().pretty());
                Ok(())
            }
            Some(other) => Err(format!("unknown command {other}")),
        }
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dprbg-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_workload(args: &RunArgs) -> Result<RunOutput, String> {
    Ok(match args.workload.as_str() {
        "soak_n7" => beacon::run(&beacon::SOAK, args),
        "serve_n31" => beacon::run(&beacon::SERVE, args),
        "coingen_n61" => coingen::run::<Gf2k<8>>(&coingen::N61, args),
        "bigbatch_n13" => coingen::run::<Gf2k<64>>(&coingen::BIGBATCH, args),
        other => return Err(format!("unknown workload {other}")),
    })
}

/// `(unit, bound)` of a metric of either table.
fn unit_and_bound(name: &str) -> (&'static str, Option<f64>) {
    END_TO_END
        .iter()
        .find(|d| d.name == name)
        .map(|d| (d.unit, Some(d.bound)))
        .or_else(|| {
            PER_LAYER
                .iter()
                .find(|d| d.name == name)
                .map(|d| (d.unit, None))
        })
        .unwrap_or(("", None))
}

/// One run in this process: print every metric by name, then the result
/// object as the last line.
fn child(cli: &Cli) -> Result<(), String> {
    let args = RunArgs {
        workload: cli
            .get("--workload")
            .ok_or("--workload is required with --trace")?
            .to_string(),
        seed: cli.number("--seed", DEFAULT_SEED)?,
        seconds: cli.number("--seconds", RUN_SECONDS)?.clamp(1, 60),
        trace: cli.number("--trace", 0)? != 0,
        scale_div: cli.number("--scale-div", 1)?,
        out_dir: cli.out_dir(),
    };
    let out = run_workload(&args)?;

    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    // The result object carries exactly the contract's metric set, in the
    // table's order.
    let names: Vec<&str> = if args.trace {
        PER_LAYER.iter().map(|d| d.name).collect()
    } else {
        END_TO_END.iter().map(|d| d.name).collect()
    };
    let mut metrics = Vec::new();
    for name in names {
        let m = out
            .metrics
            .iter()
            .find(|m| m.name == name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        let (unit, bound) = unit_and_bound(name);
        let bound = bound.map_or(String::new(), |b| format!("  bound={:.0}%", b * 100.0));
        println!(
            "{name:<34} {:>16.4} {unit:<8} n={}{bound}",
            m.value, m.samples
        );
        metrics.push((
            name,
            Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(unit))]),
        ));
    }
    for note in &out.notes {
        println!("note: {note}");
    }
    for (name, count) in &out.exact {
        println!("exact {name} {count}");
    }
    println!("output_digest {:016x}", out.digest);
    let result = Json::obj([
        ("correct", Json::Bool(true)),
        ("attempted", Json::Int(out.attempted)),
        ("failed", Json::Int(out.failed)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{}", result.render());
    Ok(())
}

/// What the parent keeps of one child run.
struct ChildRun {
    result: Json,
    digest: String,
    exact: Vec<(String, String)>,
}

/// Run one pass of one workload in a fresh process of this binary.
fn spawn(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    scale_div: u64,
    out: &Path,
    echo: bool,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args([
            "--trace",
            if trace { "1" } else { "0" },
            "--scale-div",
            &scale_div.to_string(),
        ])
        .arg("--out")
        .arg(out)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    let (last, body) = lines
        .split_last()
        .ok_or_else(|| format!("{workload}: the child printed nothing"))?;
    if echo {
        for line in body {
            println!("{line}");
        }
    }
    if !output.status.success() {
        return Err(format!(
            "{workload} (trace {}): child failed with {}",
            u8::from(trace),
            output.status
        ));
    }
    let word = |line: &str, i: usize| line.split_whitespace().nth(i).unwrap_or("").to_string();
    Ok(ChildRun {
        result: Json::parse(last).map_err(|e| format!("{workload}: bad result line: {e}"))?,
        digest: body
            .iter()
            .find(|l| l.starts_with("output_digest "))
            .map(|l| word(l, 1))
            .unwrap_or_default(),
        exact: body
            .iter()
            .filter(|l| l.starts_with("exact "))
            .map(|l| (word(l, 1), word(l, 2)))
            .collect(),
    })
}

fn selected_workloads(cli: &Cli) -> Result<Vec<&'static str>, String> {
    match cli.get("--workload") {
        None => Ok(WORKLOADS.iter().map(|w| w.name).collect()),
        Some(w) => WORKLOADS
            .iter()
            .find(|d| d.name == w)
            .map(|d| vec![d.name])
            .ok_or_else(|| format!("unknown workload {w}")),
    }
}

/// Every selected workload: an untraced pass for the end-to-end metrics
/// and a traced pass for the per-layer ledger, each in a fresh child.
fn all(cli: &Cli) -> Result<(), String> {
    let seed = cli.number("--seed", DEFAULT_SEED)?;
    let seconds = cli.number("--seconds", RUN_SECONDS)?;
    let out_dir = cli.out_dir();
    let passes: &[bool] = match (
        cli.get("--traced").is_some(),
        cli.get("--untraced").is_some(),
    ) {
        (true, false) => &[true],
        (false, true) => &[false],
        _ => &[false, true],
    };
    let mut sets = Vec::new();
    for workload in selected_workloads(cli)? {
        let mut entry = vec![];
        for &trace in passes {
            println!(
                "== {workload}: {} pass ==",
                if trace { "traced" } else { "untraced" }
            );
            let run = spawn(workload, seed, seconds, trace, 1, &out_dir, true)?;
            let failed = run
                .result
                .get("failed")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN);
            if failed != 0.0 {
                return Err(format!("{workload}: {failed} ops failed"));
            }
            if !trace || passes.len() == 1 {
                entry.push(("output_digest", Json::Str(run.digest)));
                entry.push((
                    "attempted",
                    run.result.get("attempted").cloned().unwrap_or(Json::Null),
                ));
                entry.push((
                    "failed",
                    run.result.get("failed").cloned().unwrap_or(Json::Null),
                ));
            }
            let key = if trace { "per_layer" } else { "end_to_end" };
            entry.push((
                key,
                run.result.get("metrics").cloned().unwrap_or(Json::Null),
            ));
        }
        sets.push((workload, Json::obj(entry)));
    }
    let results = Json::obj([
        ("seed", Json::Int(seed)),
        ("seconds", Json::Int(seconds)),
        (
            "nproc",
            Json::Int(std::thread::available_parallelism().map_or(1, |n| n.get() as u64)),
        ),
        (
            "clmul_backend",
            Json::str(dprbg_field::clmul::backend_name()),
        ),
        ("rustc", Json::str(cli.get("--rustc").unwrap_or("unknown"))),
        ("workloads", Json::obj(sets)),
    ]);
    let path = cli
        .get("--results")
        .map_or_else(|| out_dir.join("results.json"), PathBuf::from);
    std::fs::create_dir_all(path.parent().unwrap_or(Path::new("."))).map_err(|e| e.to_string())?;
    std::fs::write(&path, results.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("results written to {}", path.display());
    Ok(())
}

/// Determinism check at 1/20 of the op count: two runs of one seed must
/// agree on the output digest and on every exact count; another seed must
/// give another digest.
fn check(cli: &Cli) -> Result<(), String> {
    let seed = cli.number("--seed", DEFAULT_SEED)?;
    let out_dir = cli.out_dir();
    for workload in selected_workloads(cli)? {
        let run = |s: u64| spawn(workload, s, RUN_SECONDS, false, 20, &out_dir, false);
        let (a1, a2, b) = (run(seed)?, run(seed)?, run(seed + 1)?);
        if a1.digest.is_empty() || a1.digest != a2.digest {
            return Err(format!(
                "{workload}: output_digest {} vs {} for one seed",
                a1.digest, a2.digest
            ));
        }
        if a1.exact.is_empty() || a1.exact != a2.exact {
            return Err(format!(
                "{workload}: exact counts differ for one seed:\n{:?}\n{:?}",
                a1.exact, a2.exact
            ));
        }
        if a1.digest == b.digest {
            return Err(format!(
                "{workload}: seeds {seed} and {} give one output_digest",
                seed + 1
            ));
        }
        println!(
            "check {workload}: digest {} twice for seed {seed}, {} for seed {}; {} exact counts agree",
            a1.digest,
            b.digest,
            seed + 1,
            a1.exact.len()
        );
    }
    println!("check OK");
    Ok(())
}

fn read_sets(files: &[String]) -> Result<Vec<Json>, String> {
    files
        .iter()
        .map(|f| {
            let text = std::fs::read_to_string(f).map_err(|e| format!("{f}: {e}"))?;
            Json::parse(&text).map_err(|e| format!("{f}: {e}"))
        })
        .collect()
}

/// One end-to-end reading of a result set.
fn reading(set: &Json, workload: &str, metric: &str) -> Option<f64> {
    set.get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// Min / median / max and spread of every end-to-end metric over several
/// result sets, against its bound.
fn summarize(files: &[String]) -> Result<(), String> {
    if files.is_empty() {
        return Err("summarize needs result files".to_string());
    }
    let sets = read_sets(files)?;
    println!(
        "{:<14} {:<12} {:>12} {:>12} {:>12} {:>8} {:>7}  over {} sets",
        "workload",
        "metric",
        "min",
        "median",
        "max",
        "spread",
        "bound",
        sets.len()
    );
    let mut wide = 0;
    for w in &WORKLOADS {
        for d in &END_TO_END {
            let values: Vec<f64> = sets
                .iter()
                .filter_map(|s| reading(s, w.name, d.name))
                .collect();
            if values.is_empty() {
                continue;
            }
            let spread = if values.len() >= 4 {
                stats::iqr_over_median(&values)
            } else {
                (stats::percentile(&values, 1.0) - stats::percentile(&values, 0.0))
                    / stats::median(&values)
            };
            let flag = if spread > d.bound {
                wide += 1;
                "  WIDER THAN BOUND"
            } else {
                ""
            };
            println!(
                "{:<14} {:<12} {:>12.4} {:>12.4} {:>12.4} {:>7.1}% {:>6.0}%{flag}",
                w.name,
                d.name,
                stats::percentile(&values, 0.0),
                stats::median(&values),
                stats::percentile(&values, 1.0),
                spread * 100.0,
                d.bound * 100.0
            );
        }
    }
    if wide > 0 {
        return Err(format!("{wide} spreads are wider than their bound"));
    }
    Ok(())
}

/// Judge a new result set against a base set: every end-to-end metric on
/// every workload must stay within its bound (relative, with the absolute
/// floor), and the output digests must agree when the seeds do.
fn compare(files: &[String]) -> Result<(), String> {
    let sets = read_sets(files)?;
    let [base, new] = sets.as_slice() else {
        return Err("compare needs BASE.json NEW.json".to_string());
    };
    let same_seed = base.get("seed") == new.get("seed");
    let mut regressions = 0;
    for w in &WORKLOADS {
        let digest = |s: &Json| {
            s.get("workloads")?
                .get(w.name)?
                .get("output_digest")
                .cloned()
        };
        if same_seed && digest(base) != digest(new) {
            println!("{:<14} output_digest differs for one seed", w.name);
            regressions += 1;
        }
        for d in &END_TO_END {
            let (Some(b), Some(n)) = (reading(base, w.name, d.name), reading(new, w.name, d.name))
            else {
                continue;
            };
            let ok = stats::within_bound(b, n, d.better, d.bound, d.floor);
            regressions += usize::from(!ok);
            println!(
                "{:<14} {:<12} {:>12.4} -> {:>12.4} {:<8} {:>+7.1}% worse  bound {:.0}%  {}",
                w.name,
                d.name,
                b,
                n,
                d.unit,
                stats::worse_by(b, n, d.better) * 100.0,
                d.bound * 100.0,
                if ok { "ok" } else { "REGRESSION" }
            );
        }
    }
    if regressions > 0 {
        return Err(format!("{regressions} readings are outside their bound"));
    }
    Ok(())
}

/// The three tables of the README, from the one table in `defs`.
fn describe() {
    println!("| workload | why |\n|---|---|");
    for w in &WORKLOADS {
        println!("| `{}` | {} |", w.name, w.why);
    }
    println!("\n| end-to-end metric | unit | better | bound | floor | definition |\n|---|---|---|---|---|---|");
    for d in &END_TO_END {
        println!(
            "| `{}` | {} | {} | {:.0} % | {} {} | {} |",
            d.name,
            d.unit,
            d.better.label(),
            d.bound * 100.0,
            d.floor,
            d.unit,
            d.what
        );
    }
    println!("\n| per-layer metric | unit | better | moves |\n|---|---|---|---|");
    for d in &PER_LAYER {
        println!(
            "| `{}` | {} | {} | {} |",
            d.name,
            d.unit,
            d.better.label(),
            d.moves
        );
    }
}
