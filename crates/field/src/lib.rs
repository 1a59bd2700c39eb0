// `deny` rather than `forbid`: the sanctioned exceptions are the probed
// calls into `#[target_feature(enable = "pclmulqdq")]` functions — one in
// `clmul.rs`, six in `gf2k.rs` (the scalar multiply and five slice
// kernels) — each a scoped `#[allow(unsafe_code)]` with its safety proof
// (the runtime feature probe on the line above). Everything else in the
// crate still refuses `unsafe`.
#![deny(unsafe_code)]
#![deny(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

//! Finite-field arithmetic for the `dprbg` workspace.
//!
//! The PODC '96 paper (Section 2) works over a finite field of size
//! `p = Ω(2^k)` where `k` is the security parameter. It discusses two
//! concrete instantiations:
//!
//! 1. **GF(2^k)** with naive `O(k²)` multiplication — what the protocols
//!    "for simplicity" are stated over, and what the paper recommends in
//!    practice for small `k`. Implemented here as [`Gf2k`], a const-generic
//!    binary field with carry-less multiplication and table-verified
//!    low-weight irreducible moduli for `k ∈ {4, 8, 16, 24, 32, 40, 48, 56,
//!    64}`.
//! 2. **The "specially constructed" field GF(q^l)** with `q ≥ 2l + 1` prime
//!    and `q^l ≥ 2^k`, in which multiplication runs in `O(l log l)` `Z_q`
//!    operations via discrete Fourier transforms. Implemented as [`GfQl`]
//!    (with both the naive and the DFT multiplication, so experiment E8 can
//!    measure the crossover the paper predicts).
//!
//! Additionally [`Fp`] provides prime fields (used by the Feldman-VSS
//! baseline's discrete-log commitments and as the DFT coefficient ring), and
//! [`zq`] hosts the supporting number theory (primality, primitive roots,
//! modular arithmetic).
//!
//! All arithmetic on [`Field`] types feeds the [`dprbg_metrics`] cost
//! counters — one `add`/`mul`/`inv` tick per model-level field operation —
//! which is how the workspace reports costs in the paper's own unit.
//!
//! # Examples
//!
//! ```
//! use dprbg_field::{Field, Gf2k};
//!
//! type F = Gf2k<16>;
//! let a = F::from_u64(0x1234);
//! let b = F::from_u64(0x00FF);
//! let c = a * b;
//! let back = c * b.inv().expect("b is nonzero");
//! assert_eq!(back, a);
//! ```

pub mod clmul;
mod fp;
mod gf2k;
mod gfql;
mod traits;
pub mod zq;

pub use fp::{Fp, SAFE_PRIME_GEN, SAFE_PRIME_P, SAFE_PRIME_Q};
pub use gf2k::{reduction_poly, Gf2k, SUPPORTED_GF2K_DEGREES};
pub use gfql::{GfQl, GfQlError, GfQlParams};
pub use traits::Field;

/// The workspace's default protocol field: GF(2^32).
///
/// Big enough that soundness errors `M/p` are negligible for realistic batch
/// sizes, small enough that elements stay `Copy` in a machine word.
pub type DefaultField = Gf2k<32>;
