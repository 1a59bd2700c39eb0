//! Helpers shared by more than one root integration test.

/// The `source = …` lines of a `Cargo.lock`. Cargo writes one for every
/// package that is not an in-tree path crate (`registry+…`, `git+…`),
/// transitive dependencies included, so an empty result means the lock
/// file builds offline from this tree.
pub fn foreign_sources(lock: &str) -> Vec<&str> {
    lock.lines().filter(|l| l.starts_with("source =")).collect()
}
