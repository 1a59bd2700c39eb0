#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

//! Baseline protocols the paper compares against (§1.4 and §3.1).
//!
//! Every comparator in the paper's "History and comparisons" section is
//! implemented so the benchmark harness can regenerate the comparison in
//! measured numbers rather than citations:
//!
//! - [`ccd`] — the **cut-and-choose VSS** of Chaum, Crépeau and Damgård
//!   \[9\]: "the dealer … is asked to share k additional polynomials … the
//!   players decide whether to reconstruct g_j(x) or f(x) + g_j(x) …
//!   Thus, in this approach k polynomial interpolations are computed in
//!   order to achieve a probability of error less than ½^k" (vs. **one**
//!   interpolation for the paper's VSS).
//! - [`feldman`] — **Feldman's VSS** \[12\]: discrete-log commitments,
//!   non-interactive verification costing `t` exponentiations
//!   (≈ `t·log p` multiplications) per player.
//! - [`from_scratch`] — the **from-scratch shared coin**: every
//!   contributor runs a full (cut-and-choose) VSS of a random secret and
//!   the coin is the sum — "a straightforward way to generate a coin
//!   would be to interpolate a number of polynomials which at least
//!   equals the number of the faults to be tolerated. Coins generated
//!   this way, however, would still be highly expensive" (§4).
//! - [`rabin_dealer`] — **Rabin's trusted dealer** \[17\]: pre-generated
//!   expendable coins, "the approach of \[17\] requires the dealer to
//!   continuously provide them" (§1.2).

pub mod ccd;
pub mod feldman;
pub mod from_scratch;
pub mod rabin_dealer;

pub use ccd::{CcdMachine, CcdMsg, CcdOpts};
pub use feldman::{FeldmanMachine, FeldmanMsg, FeldmanVerdict};
pub use from_scratch::{from_scratch_coin, FromScratchMsg};
pub use rabin_dealer::RabinDealer;
