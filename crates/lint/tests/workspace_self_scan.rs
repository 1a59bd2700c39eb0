//! The analyzer's ultimate fixture is the repository itself: a full
//! workspace scan must produce zero unsuppressed diagnostics, and the
//! CLI must exit non-zero the moment a violation is introduced.

use std::path::{Path, PathBuf};
use std::process::Command;

fn workspace_root() -> PathBuf {
    // crates/lint → workspace root is two levels up.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint has a workspace root")
        .to_path_buf()
}

#[test]
fn workspace_scan_is_clean() {
    let diags = dprbg_lint::lint_workspace(&workspace_root()).expect("scan succeeds");
    assert!(
        diags.is_empty(),
        "workspace must lint clean; fix or `// lint: allow(<rule>) — <reason>` these:\n{}",
        diags.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("\n")
    );
}

#[test]
fn manifests_scan_is_clean() {
    let diags = dprbg_lint::lint_manifests(&workspace_root()).expect("scan succeeds");
    assert!(diags.is_empty(), "{diags:#?}");
}

#[test]
fn workspace_pins_zero_transport_suppressions() {
    // The single-execution-path invariant: with the blocking transport
    // deleted, no source file outside the fixture corpus may carry an
    // `allow(transport)` pin.
    let n = dprbg_lint::count_transport_allows(&workspace_root()).expect("census succeeds");
    assert_eq!(n, 0, "found {n} allow(transport) pins; port the code instead of suppressing");
}

/// End-to-end: the binary exits 0 on the real workspace and 1 on a
/// synthetic workspace seeded with a `HashMap` in protocol code and a
/// registry dependency.
#[test]
fn cli_exit_codes() {
    let bin = env!("CARGO_BIN_EXE_dprbg-lint");

    let ok = Command::new(bin)
        .args(["--workspace", "--root"])
        .arg(workspace_root())
        .output()
        .expect("run dprbg-lint");
    assert!(ok.status.success(), "clean tree must exit 0: {ok:?}");
    let stdout = String::from_utf8_lossy(&ok.stdout);
    assert!(
        stdout.contains("0 transport suppressions (required: 0)"),
        "workspace mode must report the transport-suppression census: {stdout}"
    );
    assert!(
        stdout.contains("0 stale suppressions"),
        "workspace mode must report the stale-allow census: {stdout}"
    );

    // Build a bad mini-workspace under the cargo-provided tmp dir.
    let bad_root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("lint-bad-workspace");
    let core_src = bad_root.join("crates/core/src");
    std::fs::create_dir_all(&core_src).expect("mkdir");
    std::fs::write(
        bad_root.join("Cargo.toml"),
        "[workspace]\nmembers = [\"crates/*\"]\n",
    )
    .expect("write root manifest");
    std::fs::write(
        bad_root.join("crates/core/Cargo.toml"),
        "[package]\nname = \"dprbg-core\"\nversion = \"0.1.0\"\n\n[dependencies]\nserde = \"1.0\"\n",
    )
    .expect("write crate manifest");
    std::fs::write(
        core_src.join("lib.rs"),
        "use std::collections::HashMap;\npub fn m() -> HashMap<u8, u8> { HashMap::new() }\n",
    )
    .expect("write source");

    let bad = Command::new(bin)
        .args(["--workspace", "--root"])
        .arg(&bad_root)
        .output()
        .expect("run dprbg-lint");
    assert_eq!(bad.status.code(), Some(1), "violations must exit 1: {bad:?}");
    let stdout = String::from_utf8_lossy(&bad.stdout);
    assert!(stdout.contains("[determinism]"), "{stdout}");
    assert!(stdout.contains("[hermetic]"), "{stdout}");

    // --manifests mode sees only the hermetic violation.
    let manifests = Command::new(bin)
        .args(["--manifests", "--root"])
        .arg(&bad_root)
        .output()
        .expect("run dprbg-lint");
    assert_eq!(manifests.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&manifests.stdout);
    assert!(stdout.contains("[hermetic]") && !stdout.contains("[determinism]"), "{stdout}");
}

/// Write a minimal one-crate workspace with the given beacon source.
fn synth_workspace(name: &str, crate_name: &str, source: &str) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let src = root.join("crates/x/src");
    std::fs::create_dir_all(&src).expect("mkdir");
    std::fs::write(root.join("Cargo.toml"), "[workspace]\nmembers = [\"crates/*\"]\n")
        .expect("write root manifest");
    std::fs::write(
        root.join("crates/x/Cargo.toml"),
        format!("[package]\nname = \"{crate_name}\"\nversion = \"0.1.0\"\n"),
    )
    .expect("write crate manifest");
    std::fs::write(src.join("lib.rs"), source).expect("write source");
    root
}

/// The acceptance criterion for `snapshot-abi`: a serialized struct
/// grows a field, `SNAPSHOT_VERSION` is not bumped — the lint fails
/// the workspace. Bump + re-pin and it passes again.
#[test]
fn snapshot_abi_catches_field_added_without_version_bump() {
    let bin = env!("CARGO_BIN_EXE_dprbg-lint");
    let pinned = "pub(crate) const SNAPSHOT_VERSION: u16 = 1;\n\n\
                  // lint: snapshot-abi(v1, ec8829a3527b018f)\n\
                  pub struct SyntheticState {\n    pub epoch: u64,\n    pub stock: u32,\n}\n";

    // Clean state: pin matches the field list and the version.
    let root = synth_workspace("lint-abi-clean", "dprbg-beacon", pinned);
    let ok = Command::new(bin)
        .args(["--workspace", "--root"])
        .arg(&root)
        .output()
        .expect("run dprbg-lint");
    assert!(ok.status.success(), "pinned struct must pass: {ok:?}");

    // Add a field, keep the pin and the version: must fail.
    let drifted = pinned.replace("    pub stock: u32,\n", "    pub stock: u32,\n    pub delta: u64,\n");
    let root = synth_workspace("lint-abi-drift", "dprbg-beacon", &drifted);
    let bad = Command::new(bin)
        .args(["--workspace", "--root"])
        .arg(&root)
        .output()
        .expect("run dprbg-lint");
    assert_eq!(bad.status.code(), Some(1), "ABI drift must exit 1: {bad:?}");
    let stdout = String::from_utf8_lossy(&bad.stdout);
    assert!(stdout.contains("[snapshot-abi]"), "{stdout}");
    assert!(stdout.contains("bump `SNAPSHOT_VERSION`"), "{stdout}");

    // The diagnostic quotes the new fingerprint: bump the const and
    // re-pin with it, and the workspace is clean again.
    let fp = stdout
        .split("fingerprint is `")
        .nth(1)
        .and_then(|s| s.get(..16))
        .expect("diagnostic quotes the computed fingerprint");
    let repinned = drifted
        .replace("SNAPSHOT_VERSION: u16 = 1", "SNAPSHOT_VERSION: u16 = 2")
        .replace("snapshot-abi(v1, ec8829a3527b018f)", &format!("snapshot-abi(v2, {fp})"));
    let root = synth_workspace("lint-abi-repinned", "dprbg-beacon", &repinned);
    let ok = Command::new(bin)
        .args(["--workspace", "--root"])
        .arg(&root)
        .output()
        .expect("run dprbg-lint");
    assert!(ok.status.success(), "bumped + re-pinned must pass: {ok:?}");
}
