#![forbid(unsafe_code)]
#![deny(missing_docs)]

//! # `dprbg-lint` — in-tree determinism & protocol-invariant analyzer
//!
//! The reproduction rests on invariants no compiler checks: both
//! executors must replay byte-identical transcripts (broken the moment
//! protocol code iterates a `HashMap` or reads a clock), the §2
//! cost-model tables are honest only if field arithmetic goes through
//! the counted `dprbg-field` ops, and graceful degradation dies with
//! every stray `unwrap()` in `dprbg-core`. This crate analyzes the
//! workspace in three layers, each built on the one below:
//!
//! 1. a comment/string/lifetime-aware tokenizer ([`lexer`]);
//! 2. an **item model** ([`items`]) — fn/struct/trait/impl/mod spans
//!    with attributes and precise `#[cfg(test)]` awareness — plus a
//!    conservative **cross-file call graph** ([`callgraph`]) that
//!    resolves calls by name within the workspace and counts everything
//!    else as an edge-to-unknown;
//! 3. the rules: token-level invariants ([`rules`], [`manifest`]) and
//!    flow-aware ones ([`flow`]) that reason about reachability and
//!    per-`impl` contracts, with `file:line` diagnostics,
//!    `// lint: allow(<rule>) — <reason>` suppressions, and
//!    `// lint: snapshot-abi(v<n>, <hex>)` ABI pins.
//!
//! See `LINTS.md` at the workspace root for the rule catalog, and
//! DESIGN.md §"Static invariants" for how the rules relate to the
//! executor-equivalence tests.
//!
//! Per the hermetic policy it itself enforces, the crate has **zero
//! dependencies** — no `syn`, no `walkdir`; the lexer + item model are
//! enough because every rule is a statement about tokens, items, or
//! name-level reachability.

pub mod callgraph;
pub mod flow;
pub mod items;
pub mod lexer;
pub mod manifest;
pub mod rules;

pub use manifest::lint_manifest;
pub use rules::{
    lint_rust_source, transport_allow_count, Diagnostic, FileClass, FileKind, RuleId,
};

use rules::{analyze_rust_source, apply_suppressions, FileAnalysis};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One source file handed to [`lint_sources`]: a label for diagnostics,
/// the text, and the crate/kind classification.
pub struct SourceSpec {
    /// Repo-relative path used in diagnostics.
    pub label: String,
    /// The file's contents.
    pub text: String,
    /// Which crate it belongs to and how it is classified.
    pub class: FileClass,
}

/// The result of a full workspace scan: the surviving diagnostics plus
/// the census counters the CLI and verify.sh report.
pub struct ScanReport {
    /// Unsuppressed diagnostics, sorted by path, line, rule.
    pub diags: Vec<Diagnostic>,
    /// Valid allow pins seen (any rule).
    pub suppressions: usize,
    /// Allow pins that suppressed zero diagnostics (each also surfaced
    /// as a `stale-allow` diagnostic).
    pub stale_suppressions: usize,
    /// Allow pins naming `transport` (each also a `transport`
    /// diagnostic; the census keeps the zero visible).
    pub transport_suppressions: usize,
}

/// Run the full analysis — token rules, flow rules, `stale-allow` — over
/// an in-memory set of sources. This is the engine behind
/// [`scan_workspace`]; tests hand it synthetic workspaces directly.
pub fn lint_sources(specs: &[SourceSpec]) -> ScanReport {
    // Layer 1+2: per-file token/item analysis, token-rule diagnostics.
    let mut analyses: Vec<FileAnalysis> = specs
        .iter()
        .map(|s| analyze_rust_source(&s.label, &s.text, &s.class))
        .collect();

    // Layer 2: the cross-file call graph over the item models.
    let views: Vec<callgraph::FlowFile<'_>> = specs
        .iter()
        .zip(&analyses)
        .map(|(s, a)| callgraph::FlowFile {
            label: &s.label,
            class: &s.class,
            tokens: &a.tokens,
            items: &a.items,
            pins: &a.pins,
        })
        .collect();
    let graph = callgraph::build(&views);

    // Layer 3: flow rules, pooled with the token diagnostics so one
    // allow pin can suppress either kind, then per-file suppression with
    // usage accounting.
    let flow_diags = flow::check(&views, &graph);
    drop(views);

    let mut diags = Vec::new();
    let mut suppressions = 0usize;
    let mut stale_suppressions = 0usize;
    let mut transport_suppressions = 0usize;
    for ((spec, analysis), flow) in specs.iter().zip(&mut analyses).zip(flow_diags) {
        let mut pool = std::mem::take(&mut analysis.diags);
        pool.extend(flow);
        let mut surviving = apply_suppressions(pool, &mut analysis.allows);

        suppressions += analysis.allows.len();
        for a in &analysis.allows {
            if a.rules.contains(&RuleId::Transport) {
                transport_suppressions += 1;
                // Already a transport diagnostic; "stale" would be noise.
                continue;
            }
            if !a.used {
                stale_suppressions += 1;
                surviving.push(Diagnostic {
                    file: spec.label.clone(),
                    line: a.line,
                    rule: RuleId::StaleAllow,
                    message: format!(
                        "allow pin for `{}` suppresses zero diagnostics: delete it \
                         (a dead pin is a hole waiting for a real violation)",
                        a.rules
                            .iter()
                            .map(|r| r.name())
                            .collect::<Vec<_>>()
                            .join(", ")
                    ),
                });
            }
        }
        diags.append(&mut surviving);
    }

    diags.sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    ScanReport { diags, suppressions, stale_suppressions, transport_suppressions }
}

/// Scan the workspace under `root`: manifests (the `hermetic` rule) plus
/// the full source analysis of [`lint_sources`].
///
/// # Errors
///
/// Propagates I/O errors from walking or reading the tree.
pub fn scan_workspace(root: &Path) -> io::Result<ScanReport> {
    let mut specs = Vec::new();
    for (path, class) in rust_sources(root)? {
        specs.push(SourceSpec {
            label: label(root, &path),
            text: fs::read_to_string(&path)?,
            class,
        });
    }
    let mut report = lint_sources(&specs);
    report.diags.extend(lint_manifests(root)?);
    report
        .diags
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Ok(report)
}

/// Lint every manifest and Rust source file under `root` (a workspace
/// checkout). Returns unsuppressed diagnostics sorted by path and line.
/// Thin wrapper over [`scan_workspace`] for callers that only want the
/// diagnostic list.
///
/// # Errors
///
/// Propagates I/O errors from walking or reading the tree.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Diagnostic>> {
    scan_workspace(root).map(|r| r.diags)
}

/// Count `allow(transport)` suppressions pinned anywhere in the
/// workspace sources (fixture corpora excluded, as in [`lint_workspace`]).
/// The single-execution-path invariant requires this to be zero; the CLI
/// reports the census explicitly so the invariant is visible.
///
/// # Errors
///
/// Propagates I/O errors from walking or reading the tree.
pub fn count_transport_allows(root: &Path) -> io::Result<usize> {
    let mut count = 0;
    for (path, _class) in rust_sources(root)? {
        count += transport_allow_count(&fs::read_to_string(&path)?);
    }
    Ok(count)
}

/// Lint only the manifests under `root` (the `hermetic` rule — what the
/// `scripts/verify.sh` dependency guard delegates to).
///
/// # Errors
///
/// Propagates I/O errors from reading the manifests.
pub fn lint_manifests(root: &Path) -> io::Result<Vec<Diagnostic>> {
    let mut out = Vec::new();
    for m in workspace_manifests(root)? {
        let src = fs::read_to_string(&m)?;
        out.extend(lint_manifest(&label(root, &m), &src));
    }
    Ok(out)
}

/// The workspace manifests: the root `Cargo.toml` plus every
/// `crates/*/Cargo.toml`, sorted.
fn workspace_manifests(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let root_manifest = root.join("Cargo.toml");
    if root_manifest.is_file() {
        out.push(root_manifest);
    }
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for dir in sorted_entries(&crates_dir)? {
            let m = dir.join("Cargo.toml");
            if m.is_file() {
                out.push(m);
            }
        }
    }
    Ok(out)
}

/// Every Rust source under `root` with its [`FileClass`], sorted by path.
///
/// Classification mirrors cargo's layout: `src/` is library/binary code,
/// `tests/` is integration-test code, `examples/` and `benches/` are
/// demos. Fixture corpora (`tests/fixtures/**`) are skipped entirely —
/// they contain deliberate violations for the lint's own test suite.
fn rust_sources(root: &Path) -> io::Result<Vec<(PathBuf, FileClass)>> {
    let mut out = Vec::new();
    let add_package = |pkg_root: &Path, crate_name: &str, out: &mut Vec<_>| -> io::Result<()> {
        for (dir, kind) in [
            ("src", FileKind::Lib),
            ("tests", FileKind::Test),
            ("examples", FileKind::Example),
            ("benches", FileKind::Example),
        ] {
            let d = pkg_root.join(dir);
            if d.is_dir() {
                collect_rs(&d, &mut |p| {
                    out.push((
                        p,
                        FileClass { crate_name: crate_name.to_string(), kind },
                    ));
                })?;
            }
        }
        Ok(())
    };

    add_package(root, &package_name(root).unwrap_or_else(|| "dprbg".into()), &mut out)?;
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for dir in sorted_entries(&crates_dir)? {
            if !dir.is_dir() {
                continue;
            }
            let name = package_name(&dir).unwrap_or_else(|| {
                format!("dprbg-{}", dir.file_name().unwrap_or_default().to_string_lossy())
            });
            add_package(&dir, &name, &mut out)?;
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(out)
}

/// Read `name = "…"` from a package's `Cargo.toml`.
fn package_name(pkg_root: &Path) -> Option<String> {
    let src = fs::read_to_string(pkg_root.join("Cargo.toml")).ok()?;
    let mut in_package = false;
    for line in src.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if in_package {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(v) = rest.strip_prefix('=') {
                    return Some(v.trim().trim_matches('"').to_string());
                }
            }
        }
    }
    None
}

/// Recursively collect `.rs` files under `dir` (sorted), skipping
/// fixture corpora.
fn collect_rs(dir: &Path, push: &mut dyn FnMut(PathBuf)) -> io::Result<()> {
    for entry in sorted_entries(dir)? {
        if entry.is_dir() {
            if entry.file_name().is_some_and(|n| n == "fixtures") {
                continue;
            }
            collect_rs(&entry, push)?;
        } else if entry.extension().is_some_and(|e| e == "rs") {
            push(entry);
        }
    }
    Ok(())
}

/// Directory entries sorted by name (deterministic diagnostics order).
fn sorted_entries(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    Ok(entries)
}

/// A root-relative, forward-slash path label for diagnostics.
fn label(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}
