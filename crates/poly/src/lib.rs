#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

//! Polynomial algebra and decoding for the `dprbg` workspace.
//!
//! The paper's protocols are built almost entirely out of polynomial
//! operations over a finite field:
//!
//! - **Horner evaluation** — the batched linear combinations of Batch-VSS
//!   and Bit-Gen ("this can be efficiently computed as
//!   `(((r·α_iM + α_i(M−1))r + …)r + α_i1)r`", Fig. 3);
//! - **Lagrange interpolation** — "in some parts we consider the
//!   interpolation of a polynomial as a basic step" (§2);
//! - **Berlekamp–Welch decoding** — "Methods such as the Berlekamp-Welch
//!   decoder \[5\] can be used to implement this operation" (§2); Bit-Gen
//!   step 5 and Coin-Expose step 2 decode in the presence of up to `t`
//!   corrupted shares;
//! - **Shamir secret sharing** \[18\] — the substrate of every VSS.
//!
//! This crate provides all four, plus the Gaussian elimination the decoder
//! needs, generic over [`dprbg_field::Field`]. Interpolations tick the
//! [`dprbg_metrics::ops::count_interpolation`] counter (the paper reports
//! "interpolations per player" as a headline figure, e.g. Lemma 2).
//!
//! # Examples
//!
//! ```
//! use dprbg_field::{Field, Gf2k};
//! use dprbg_poly::Poly;
//!
//! type F = Gf2k<16>;
//! // f(x) = 3 + 5x + x^2
//! let f = Poly::new(vec![F::from_u64(3), F::from_u64(5), F::one()]);
//! let pts: Vec<(F, F)> = (1..=3).map(|i| {
//!     let x = F::element(i);
//!     (x, f.eval(x))
//! }).collect();
//! let g = dprbg_poly::interpolate(&pts).unwrap();
//! assert_eq!(f, g);
//! ```

mod batch;
mod berlekamp_welch;
mod lagrange;
mod linalg;
mod poly;
mod shamir;

pub use batch::BatchDecoder;
pub use berlekamp_welch::{bw_decode, BwError};
pub use lagrange::{interpolate, InterpolateError};
pub use poly::Poly;
pub use shamir::{
    column_points, party_points, reconstruct_secret, share_points, share_polynomial, Share,
    ShamirError,
};
