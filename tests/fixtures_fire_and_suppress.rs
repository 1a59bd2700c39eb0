//! Every static invariant of LINTS.md fires on its bad fixture and stays
//! silent on its allowed fixture (`tests/fixtures/`).
//!
//! A fixture is checked as if it were library code of one crate: it is
//! prefixed with that crate's `#![deny(clippy::…)]` and `unsafe_code`
//! attributes and run
//! through `clippy-driver` with that crate's `clippy.toml` and
//! `-D warnings`, which is what `scripts/verify.sh` does to the crate
//! itself. The crates a fixture may name (`dprbg_field`, `dprbg_sim` and
//! their dependencies) are checked once per run, metadata only.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::sync::{Mutex, OnceLock};

mod support;

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

/// The workspace edition.
const EDITION: &str = "2021";

/// Crates a fixture may `use`, dependencies first.
const EXTERNS: &[&str] = &["metrics", "rng", "field", "trace", "sim"];

/// The ten library crates.
const LIBRARIES: &[&str] = &[
    "metrics", "trace", "rng", "field", "poly", "sim", "protocols", "core", "beacon", "baselines",
];

/// Crates under the determinism bans.
const DETERMINISTIC: &[&str] =
    &["core", "protocols", "poly", "field", "sim", "beacon", "trace", "metrics"];

/// `"."` is the root `dprbg` package; anything else a directory under
/// `crates/`.
fn crate_dir(krate: &str) -> PathBuf {
    match krate {
        "." => PathBuf::from(ROOT),
        _ => Path::new(ROOT).join("crates").join(krate),
    }
}

fn fixture(name: &str) -> String {
    let path = Path::new(ROOT).join("tests/fixtures").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The toolchain that runs the tests ships `clippy-driver` next to cargo.
fn clippy_driver() -> PathBuf {
    std::env::var_os("CARGO")
        .map(|cargo| Path::new(&cargo).with_file_name("clippy-driver"))
        .filter(|driver| driver.exists())
        .unwrap_or_else(|| PathBuf::from("clippy-driver"))
}

/// Runs one `clippy-driver` at a time: each is a whole compiler.
fn run(mut cmd: Command, stdin: Option<&str>) -> Output {
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    cmd.stdin(Stdio::piped()).stdout(Stdio::piped()).stderr(Stdio::piped());
    let mut child = cmd.spawn().unwrap_or_else(|e| panic!("spawn {cmd:?}: {e}"));
    let mut pipe = child.stdin.take().expect("stdin is piped");
    pipe.write_all(stdin.unwrap_or_default().as_bytes()).expect("write stdin");
    drop(pipe);
    child.wait_with_output().expect("wait for clippy-driver")
}

/// `clippy-driver` with the workspace edition, emitting metadata only,
/// able to `use` every crate in [`EXTERNS`] built so far.
fn driver(out_dir: &Path, crate_name: &str, conf_dir: &Path) -> Command {
    let mut cmd = Command::new(clippy_driver());
    cmd.env("CLIPPY_CONF_DIR", conf_dir)
        .args(["--edition", EDITION, "--crate-type", "lib", "--crate-name", crate_name])
        .arg("--emit=metadata")
        .arg("-o")
        .arg(out_dir.join(format!("lib{crate_name}.rmeta")))
        .arg("-L")
        .arg(format!("dependency={}", out_dir.display()));
    for dep in EXTERNS {
        let rmeta = out_dir.join(format!("libdprbg_{dep}.rmeta"));
        if rmeta.exists() {
            cmd.arg("--extern").arg(format!("dprbg_{dep}={}", rmeta.display()));
        }
    }
    cmd
}

/// Checks the [`EXTERNS`] once, from source, and returns their directory.
fn externs() -> &'static Path {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("lint-fixtures");
        std::fs::create_dir_all(&dir).expect("create the fixture output dir");
        for dep in EXTERNS {
            let _ = std::fs::remove_file(dir.join(format!("libdprbg_{dep}.rmeta")));
        }
        for dep in EXTERNS {
            let src = crate_dir(dep);
            let mut cmd = driver(&dir, &format!("dprbg_{dep}"), &src);
            cmd.arg(src.join("src/lib.rs")).args(["--cap-lints", "allow"]);
            let out = run(cmd, None);
            assert!(
                out.status.success(),
                "checking dprbg-{dep} failed:\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
        }
        dir
    })
}

/// What clippy said about one fixture.
struct Lint {
    ok: bool,
    stderr: String,
}

impl Lint {
    /// The headline of every error (`error: …` / `error[E…]: …`).
    fn errors(&self) -> Vec<&str> {
        self.stderr
            .lines()
            .filter(|l| l.starts_with("error") && !l.starts_with("error: aborting"))
            .collect()
    }

    fn assert_clean(&self, what: &str) {
        assert!(self.ok && self.stderr.is_empty(), "{what} must lint clean:\n{}", self.stderr);
    }

    /// Fails, and every error headline is one of `kinds`.
    fn assert_fires(&self, what: &str, kinds: &[&str]) {
        assert!(!self.ok, "{what} must fail:\n{}", self.stderr);
        let errors = self.errors();
        assert!(!errors.is_empty(), "{what} failed without an error:\n{}", self.stderr);
        for e in &errors {
            assert!(kinds.iter().any(|k| e.contains(k)), "{what}: unexpected `{e}`\n{}", self.stderr);
        }
    }

    /// Some error headline names `needle`.
    fn assert_names(&self, what: &str, needle: &str) {
        assert!(
            self.errors().iter().any(|e| e.contains(needle)),
            "{what}: no error names {needle}:\n{}",
            self.stderr
        );
    }

    fn count(&self, needle: &str) -> usize {
        self.errors().iter().filter(|e| e.contains(needle)).count()
    }
}

/// Lints fixture `name` as library code of `krate`.
fn lint_as(name: &str, krate: &str) -> Lint {
    let dir = crate_dir(krate);
    let lib = std::fs::read_to_string(dir.join("src/lib.rs")).unwrap_or_default();
    let mut source: String = lib
        .lines()
        .filter(|l| l.starts_with("#![deny(clippy::") || l.ends_with("(unsafe_code)]"))
        .map(|l| format!("{l}\n"))
        .collect();
    source.push_str(&fixture(name));
    let crate_name = format!("{}_{}", name.trim_end_matches(".rs"), krate.replace('.', "root"));
    let mut cmd = driver(externs(), &crate_name, &dir);
    cmd.args(["-", "-D", "warnings"]);
    let out = run(cmd, Some(&source));
    Lint { ok: out.status.success(), stderr: String::from_utf8_lossy(&out.stderr).into_owned() }
}

const DISALLOWED: &str = "use of a disallowed";

#[test]
fn determinism_bad_fires() {
    let d = lint_as("determinism_bad.rs", "core");
    d.assert_fires("determinism_bad.rs in core", &[DISALLOWED]);
    for needle in [
        "`std::collections::HashMap`",
        "`std::collections::HashSet`",
        "`std::hash::DefaultHasher`",
        "`std::time::Instant`",
        "`std::time::SystemTime`",
        "`std::env::var`",
        "`std::option_env`",
        "`std::thread::current`",
        "`std::thread::ThreadId`",
    ] {
        d.assert_names("determinism_bad.rs in core", needle);
    }
}

#[test]
fn determinism_allowed_is_clean() {
    lint_as("determinism_allowed.rs", "core").assert_clean("determinism_allowed.rs in core");
}

#[test]
fn determinism_is_scoped_to_protocol_crates() {
    for krate in DETERMINISTIC {
        lint_as("determinism_bad.rs", krate)
            .assert_fires(&format!("determinism_bad.rs in {krate}"), &[DISALLOWED]);
    }
    // The bench and CLI time things on purpose; dprbg-rng reads its
    // proptest knobs from the environment.
    for krate in ["bench", ".", "rng", "baselines"] {
        lint_as("determinism_bad.rs", krate).assert_clean(&format!("determinism_bad.rs in {krate}"));
    }
}

#[test]
fn error_discipline_bad_fires() {
    for krate in ["core", "protocols", "beacon"] {
        let d = lint_as("error_discipline_bad.rs", krate);
        let what = format!("error_discipline_bad.rs in {krate}");
        d.assert_fires(&what, &["should not be present", "used `unwrap()`", "used `expect()`"]);
        assert_eq!(d.errors().len(), 5, "unwrap, expect, panic!, todo!, unimplemented!:\n{}", d.stderr);
        for needle in ["unwrap()", "expect()", "`panic`", "`todo`", "`unimplemented`"] {
            d.assert_names(&what, needle);
        }
    }
    lint_as("error_discipline_bad.rs", "poly").assert_clean("error_discipline_bad.rs in poly");
}

#[test]
fn error_discipline_allowed_is_clean() {
    lint_as("error_discipline_allowed.rs", "core").assert_clean("error_discipline_allowed.rs in core");
}

#[test]
fn cost_model_bad_fires() {
    for krate in ["poly", "core", "protocols"] {
        let d = lint_as("cost_model_bad.rs", krate);
        let what = format!("cost_model_bad.rs in {krate}");
        d.assert_fires(&what, &[DISALLOWED]);
        for needle in [
            "`u64::count_ones`",
            "`u64::wrapping_mul`",
            "`u64::rotate_left`",
            "`u128::leading_zeros`",
            "`u32::swap_bytes`",
            "`usize::wrapping_add`",
            "`usize::rotate_right`",
        ] {
            d.assert_names(&what, needle);
        }
    }
}

#[test]
fn cost_model_allowed_is_clean() {
    lint_as("cost_model_allowed.rs", "core").assert_clean("cost_model_allowed.rs in core");
}

#[test]
fn cost_model_exempts_dprbg_field() {
    // The counted implementation itself is the one place bit-hacks live.
    lint_as("cost_model_bad.rs", "field").assert_clean("cost_model_bad.rs in field");
}

#[test]
fn transport_bad_fires() {
    for krate in ["bench", ".", "core", "beacon", "rng"] {
        let d = lint_as("transport_bad.rs", krate);
        let what = format!("transport_bad.rs in {krate}");
        d.assert_fires(&what, &[DISALLOWED]);
        for needle in [
            "`std::sync::mpsc::channel`",
            "`std::sync::mpsc::sync_channel`",
            "`std::thread::spawn`",
            "`std::thread::scope`",
            "`std::thread::Builder`",
        ] {
            d.assert_names(&what, needle);
        }
    }
}

#[test]
fn transport_allowed_is_clean() {
    lint_as("transport_allowed.rs", "bench").assert_clean("transport_allowed.rs in bench");
}

#[test]
fn transport_thread_machinery_stays_in_sim_but_entry_points_fire_everywhere() {
    // In dprbg-sim, threads and channels are the ParRunner pool's to own.
    lint_as("transport_bad.rs", "sim").assert_clean("transport_bad.rs in sim");
    // The retired blocking entry points exist nowhere, sim included.
    for krate in ["sim", "core", "bench"] {
        let d = lint_as("transport_retired_bad.rs", krate);
        let what = format!("transport_retired_bad.rs in {krate}");
        d.assert_fires(&what, &["cannot find function"]);
        assert_eq!(d.errors().len(), 5, "{what}:\n{}", d.stderr);
    }
}

#[test]
fn trace_determinism_bad_fires() {
    let d = lint_as("trace_determinism_bad.rs", "trace");
    d.assert_fires("trace_determinism_bad.rs in trace", &[DISALLOWED]);
    for needle in ["Instant", "SystemTime", "thread::current", "ThreadId", "HashMap"] {
        d.assert_names("trace_determinism_bad.rs in trace", needle);
    }
}

#[test]
fn trace_determinism_allowed_is_clean() {
    lint_as("trace_determinism_allowed.rs", "trace").assert_clean("trace_determinism_allowed.rs in trace");
}

#[test]
fn trace_determinism_is_scoped_to_the_trace_crate() {
    // Out of scope in the bench crate (it times things on purpose); in a
    // protocol crate the same bans hold as plain determinism.
    lint_as("trace_determinism_bad.rs", "bench").assert_clean("trace_determinism_bad.rs in bench");
    lint_as("trace_determinism_bad.rs", "core")
        .assert_fires("trace_determinism_bad.rs in core", &[DISALLOWED]);
}

#[test]
fn registry_determinism_bad_fires() {
    let d = lint_as("registry_determinism_bad.rs", "metrics");
    d.assert_fires("registry_determinism_bad.rs in metrics", &[DISALLOWED]);
    for needle in ["Instant", "SystemTime", "thread::current", "ThreadId", "HashMap", "env::var"] {
        d.assert_names("registry_determinism_bad.rs in metrics", needle);
    }
}

#[test]
fn registry_determinism_allowed_is_clean() {
    lint_as("registry_determinism_allowed.rs", "metrics")
        .assert_clean("registry_determinism_allowed.rs in metrics");
}

#[test]
fn registry_determinism_is_scoped_to_the_metrics_crate() {
    // Out of scope in the bench crate; in a protocol crate the same bans
    // hold as plain determinism.
    lint_as("registry_determinism_bad.rs", "bench").assert_clean("registry_determinism_bad.rs in bench");
    lint_as("registry_determinism_bad.rs", "core")
        .assert_fires("registry_determinism_bad.rs in core", &[DISALLOWED]);
}

#[test]
fn field_ct_bad_fires() {
    let d = lint_as("field_ct_bad.rs", "field");
    d.assert_fires("field_ct_bad.rs in field", &["`u64::trailing_zeros`"]);
    assert_eq!(d.errors().len(), 2, "both bit-scan loops flagged:\n{}", d.stderr);
}

#[test]
fn field_ct_allowed_is_clean() {
    lint_as("field_ct_allowed.rs", "field").assert_clean("field_ct_allowed.rs in field");
}

#[test]
fn field_ct_is_scoped_to_the_field_crate() {
    // In a cost-model crate the same calls are already banned; in bench
    // and sim code they are fine.
    lint_as("field_ct_bad.rs", "poly").assert_fires("field_ct_bad.rs in poly", &["`u64::trailing_zeros`"]);
    lint_as("field_ct_bad.rs", "bench").assert_clean("field_ct_bad.rs in bench");
    lint_as("field_ct_bad.rs", "sim").assert_clean("field_ct_bad.rs in sim");
}

#[test]
fn hermetic_bad_fires() {
    let foreign = support::foreign_sources(&fixture("hermetic_bad.lock")).len();
    assert_eq!(foreign, 2, "the git and the registry package");
}

#[test]
fn hermetic_allowed_is_clean() {
    let lock = fixture("hermetic_allowed.lock");
    assert!(lock.contains("[[package]]"));
    assert_eq!(support::foreign_sources(&lock), Vec::<&str>::new());
}

#[test]
fn malformed_allows_are_diagnostics_and_do_not_suppress() {
    let d = lint_as("allow_syntax_bad.rs", "core");
    d.assert_fires("allow_syntax_bad.rs in core", &["without specifying a reason", "unknown lint", DISALLOWED]);
    d.assert_names("allow_syntax_bad.rs in core", "`expect` attribute without specifying a reason");
    d.assert_names("allow_syntax_bad.rs in core", "unknown lint: `clippy::no_such_rule`");
    // The misnamed pin and the comment pin leave their HashMap standing.
    assert_eq!(d.count("`std::collections::HashMap`"), 2, "{}", d.stderr);
}

#[test]
fn ledger_coverage_bad_fires() {
    for krate in ["core", "poly", "protocols"] {
        let d = lint_as("ledger_coverage_bad.rs", krate);
        d.assert_fires(&format!("ledger_coverage_bad.rs in {krate}"), &["`dprbg_field::Field::to_u64`"]);
        // `expose_low`, `normalize` and the generic `low_bit`;
        // `format_header`'s shift never touched a field element.
        assert_eq!(d.errors().len(), 3, "{}", d.stderr);
    }
}

#[test]
fn ledger_coverage_allowed_is_clean() {
    lint_as("ledger_coverage_allowed.rs", "core").assert_clean("ledger_coverage_allowed.rs in core");
}

#[test]
fn ledger_coverage_is_scoped_to_costed_crates() {
    // The §2 tables only cost dprbg-core / dprbg-poly / dprbg-protocols
    // arithmetic.
    for krate in ["beacon", "bench"] {
        lint_as("ledger_coverage_bad.rs", krate).assert_clean(&format!("ledger_coverage_bad.rs in {krate}"));
    }
}

#[test]
fn receive_rule_bad_fires() {
    for krate in ["core", "protocols", "beacon"] {
        let d = lint_as("receive_rule_bad.rs", krate);
        let what = format!("receive_rule_bad.rs in {krate}");
        d.assert_fires(&what, &["`dprbg_sim::Inbox::iter`"]);
        assert_eq!(d.errors().len(), 2, "both scatters flagged:\n{}", d.stderr);
    }
}

#[test]
fn receive_rule_allowed_is_clean() {
    for krate in ["core", "beacon"] {
        lint_as("receive_rule_allowed.rs", krate)
            .assert_clean(&format!("receive_rule_allowed.rs in {krate}"));
    }
}

#[test]
fn receive_rule_is_scoped_to_protocol_crates() {
    // dprbg-sim implements the rule; the baselines' adapters, the bench
    // and the facade read whole inboxes.
    for krate in ["sim", "baselines", "bench", "."] {
        lint_as("receive_rule_bad.rs", krate)
            .assert_clean(&format!("receive_rule_bad.rs in {krate}"));
    }
}

#[test]
fn machine_contract_bad_fires() {
    // An anonymous phase does not compile anywhere.
    for krate in ["bench", "core"] {
        let d = lint_as("machine_contract_bad.rs", krate);
        d.assert_fires(&format!("machine_contract_bad.rs in {krate}"), &["missing: `phase_name`"]);
    }
    // Ambient I/O fails in every library crate.
    for krate in LIBRARIES {
        let d = lint_as("machine_contract_io_bad.rs", krate);
        let what = format!("machine_contract_io_bad.rs in {krate}");
        d.assert_fires(&what, &["use of `println!`", "use of `eprintln!`", "`dbg!` macro", "`std::io::stdout`"]);
        assert_eq!(d.errors().len(), 4, "{what}:\n{}", d.stderr);
    }
    // The bench binaries print their tables.
    lint_as("machine_contract_io_bad.rs", "bench").assert_clean("machine_contract_io_bad.rs in bench");
}

#[test]
fn machine_contract_allowed_is_clean() {
    lint_as("machine_contract_allowed.rs", "core").assert_clean("machine_contract_allowed.rs in core");
}

#[test]
fn stale_allow_bad_fires() {
    for krate in ["core", "rng"] {
        let d = lint_as("stale_allow_bad.rs", krate);
        d.assert_fires(&format!("stale_allow_bad.rs in {krate}"), &["this lint expectation is unfulfilled"]);
        assert_eq!(d.errors().len(), 2, "both dead pins flagged:\n{}", d.stderr);
    }
}

#[test]
fn stale_allow_allowed_is_clean() {
    lint_as("stale_allow_allowed.rs", "core").assert_clean("stale_allow_allowed.rs in core");
}

#[test]
fn unsafe_bad_fires() {
    for krate in ["core", "sim", "rng", "field"] {
        let d = lint_as("unsafe_bad.rs", krate);
        d.assert_fires(&format!("unsafe_bad.rs in {krate}"), &["usage of an `unsafe` block"]);
    }
}

#[test]
fn unsafe_allowed_is_clean_only_where_unsafe_is_denied_not_forbidden() {
    lint_as("unsafe_allowed.rs", "field").assert_clean("unsafe_allowed.rs in field");
    // Under forbid the allow is overruled, so the block fires as well;
    // core also wants a reason on every allow.
    let d = lint_as("unsafe_allowed.rs", "core");
    let kinds = ["incompatible with previous forbid", "usage of an `unsafe` block", "without specifying a reason"];
    d.assert_fires("unsafe_allowed.rs in core", &kinds);
    d.assert_names("unsafe_allowed.rs in core", "incompatible with previous forbid");
}

/// `unsafe-scope`: every crate forbids `unsafe` but `dprbg-field`, which
/// denies it and allows it back at each probed dispatch site, one
/// annotated `#[allow(unsafe_code)]` per `unsafe` block.
#[test]
fn unsafe_scope_is_forbid_everywhere_but_the_field_dispatch() {
    let lib = |krate: &str| std::fs::read_to_string(crate_dir(krate).join("src/lib.rs")).unwrap();
    for krate in LIBRARIES.iter().copied().chain(["bench", "."]).filter(|&k| k != "field") {
        assert!(lib(krate).lines().any(|l| l == "#![forbid(unsafe_code)]"), "{krate} must forbid unsafe");
    }
    assert!(lib("field").lines().any(|l| l == "#![deny(unsafe_code)]"), "field must deny unsafe");
    let src = crate_dir("field").join("src");
    let (mut allows, mut blocks) = (0, 0);
    for entry in std::fs::read_dir(&src).unwrap() {
        let text = std::fs::read_to_string(entry.unwrap().path()).unwrap();
        let code = text.lines().map(str::trim).filter(|l| !l.starts_with("//"));
        for line in code {
            allows += usize::from(line == "#[allow(unsafe_code)]");
            blocks += line.matches("unsafe {").count();
        }
    }
    assert_eq!(allows, blocks, "one annotated allow per unsafe block in dprbg-field");
    assert_eq!(blocks, 7, "the unsafe census in clmul.rs and DESIGN.md names seven sites");
}
