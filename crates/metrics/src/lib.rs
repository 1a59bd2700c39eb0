#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

//! Cost-model instrumentation for the `dprbg` workspace.
//!
//! The PODC '96 paper states all of its complexity results in an abstract
//! cost model (Section 2): computation is measured in *field additions*
//! (with a multiplication in GF(2^k) costing `O(k log k)` additions in the
//! specially constructed field, or `O(k^2)` naively), and communication is
//! measured in *messages* and *bits*. This crate provides the counters that
//! let every protocol in the workspace report its cost in exactly those
//! units, so the benchmark harness can regenerate the paper's claims
//! (Lemmas 2, 4, 6; Theorem 2; Corollaries 1–3) as measured tables.
//!
//! Counters are thread-local and monotone. The simulator's round loop
//! windows them around each party's `round` call and around its outbox
//! flush — on whichever thread hosts each — and charges the party the sum
//! of the two deltas; the per-party [`CostSnapshot`]s aggregate into a
//! [`CostReport`].
//!
//! The crate is also the workspace's *health plane*: a deterministic
//! [`Registry`] of named counters, gauges, and log2-bucketed histograms
//! keyed on logical time only (see [`LogicalTime`]). It has one machine
//! form, the canonical byte blob ([`Registry::to_bytes`], written with
//! [`bin`], the workspace's one binary codec, which the beacon snapshot
//! shares and embeds the blob in), and one human form,
//! [`Registry::dashboard`]. The beacon service instruments itself through
//! it; the `registry-determinism` bans in this crate's `clippy.toml`
//! (LINTS.md) keep wall clocks and iteration nondeterminism out of it.
//!
//! # Examples
//!
//! ```
//! use dprbg_metrics::{ops, CostSnapshot};
//!
//! let before = CostSnapshot::capture();
//! ops::count_add(10);
//! ops::count_mul(3);
//! let spent = CostSnapshot::capture().since(&before);
//! assert_eq!(spent.field_adds, 10);
//! assert_eq!(spent.field_muls, 3);
//! ```

pub mod bin;
mod counters;
mod registry;
mod report;
mod wire;

pub use counters::{comm, ops, CostSnapshot, OpsGuard};
pub use registry::{Histogram, LogicalTime, MetricId, MetricValue, Registry, HISTOGRAM_BUCKETS};
pub use report::{CommStats, CostReport, PartyCost, Table};
pub use wire::WireSize;
