//! The hermetic-build policy, checked where cargo records it: every
//! package in the workspace's and the benchmark's lock files is an
//! in-tree path crate. Cargo writes a `source = "registry+…"` or
//! `source = "git+…"` line for anything else, transitive dependencies
//! included, so a lock file without one builds offline from this tree.

use std::path::Path;

mod support;

fn assert_path_only(lock: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(lock);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let foreign = support::foreign_sources(&text);
    assert!(foreign.is_empty(), "{lock} pulls packages from outside the tree: {foreign:?}");
    assert!(text.contains("[[package]]"), "{lock} lists no packages");
}

#[test]
fn workspace_lock_has_only_path_packages() {
    assert_path_only("Cargo.lock");
}

#[test]
fn benchmark_lock_has_only_path_packages() {
    assert_path_only("benchmark/Cargo.lock");
}
