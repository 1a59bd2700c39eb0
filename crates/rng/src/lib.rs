#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

//! # dprbg-rng — hermetic deterministic randomness for the workspace
//!
//! An in-tree replacement for the external `rand` stack, providing exactly
//! the surface the PODC '96 reproduction uses, with two extra guarantees
//! the external crates do not make:
//!
//! 1. **Hermetic**: no registry access, no build scripts, no platform
//!    entropy. `cargo build --offline` always works.
//! 2. **Bit-reproducible**: every generator is seeded; the same seed yields
//!    the same stream on every platform and in every release, so the
//!    paper's error-probability and operation-count experiments (Lemmas
//!    1–8, §1.4) replay exactly from the seeds printed in reports.
//!
//! The API mirrors `rand` 0.10 ([`rngs::StdRng`], [`SeedableRng`], [`Rng`],
//! [`RngExt`], [`seq::SliceRandom`]) so call sites read
//! identically; only the crate path differs. [`rngs::StdRng`] is ChaCha12 —
//! the same core the external `StdRng` uses.
//!
//! The crate also hosts the in-tree property-testing harness (the
//! [`proptest!`](crate::proptest!) macro; see [`proptest`](mod@crate::proptest)
//! and [`prelude`]) used across `field`, `poly` and `protocols`.
//!
//! ```
//! use dprbg_rng::rngs::StdRng;
//! use dprbg_rng::{RngExt, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(1996);
//! let share: u64 = rng.random_range(0..dprbg_rng::SMOKE_MODULUS);
//! assert!(share < dprbg_rng::SMOKE_MODULUS);
//! ```

mod chacha;
mod core;
pub mod dist;
pub mod proptest;
pub mod seq;
mod std_rng;

pub use crate::core::{splitmix64, Rng, RngExt, SeedableRng};
pub use crate::dist::{SampleRange, StandardUniform};

/// Named generators (mirrors `rand::rngs`).
pub mod rngs {
    pub use crate::std_rng::StdRng;
}

/// Everything the property-test modules need: the `proptest!` macro family
/// plus its config and strategy types.
pub mod prelude {
    pub use crate::proptest::{
        any, vec_of, AnyStrategy, Arbitrary, ProptestConfig, Shrink, Strategy, StrategyTuple,
    };
    pub use crate::rngs::StdRng;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Rng, RngExt,
        SeedableRng,
    };
}

/// A small prime used by the crate-level doctest.
#[doc(hidden)]
pub const SMOKE_MODULUS: u64 = 65_537;
