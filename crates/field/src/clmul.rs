//! Carry-less 64×64 → 128 multiplication backends.
//!
//! Two implementations of one function — the polynomial (XOR) product of
//! two degree-< 64 polynomials over GF(2):
//!
//! * [`clmul_portable`]: a fixed-iteration, branchless shift/mask ladder.
//!   Exactly 64 iterations regardless of operand values, so both the
//!   wall-clock and the instruction stream are data-independent (the old
//!   `while b != 0 { trailing_zeros() }` popcount walk was not — this
//!   crate's `clippy.toml` bans `trailing_zeros`, LINTS.md `field-ct`).
//! * A hardware path using the x86-64 `PCLMULQDQ` instruction
//!   (`_mm_clmulepi64_si128`), selected at runtime by the one
//!   `is_x86_feature_detected!` in the workspace, `has_pclmulqdq`.
//!
//! [`clmul`] dispatches between them. The dispatch is a *speed* choice,
//! never a *value* choice: both backends compute the same function on all
//! inputs (property-tested in `gf2k.rs` across every supported field
//! degree, and re-checked at startup by experiment E8's parity row). No
//! transcript, cost counter, or trace may depend on which backend ran —
//! see "Backend dispatch & parallel determinism" in DESIGN.md.
//!
//! # `unsafe` census
//!
//! The instruction is only reachable through functions marked
//! `#[target_feature(enable = "pclmulqdq")]` (the private `hw` module
//! here, the `hw` kernels in `gf2k.rs`), and calling one from ordinary
//! code is `unsafe`. Every `unsafe` block in the workspace is such a call,
//! made right after `has_pclmulqdq` returned `true`: one in [`clmul`],
//! and in `gf2k.rs` one for the scalar multiply plus one per slice kernel
//! (`eval_points`, `eval_polys`, `matching_prefix`, `combine_rows`,
//! `axpy`) — seven in all. The rule is **one probe and one call per
//! slice** (per element only for the scalar operators): the loop runs
//! inside the feature-gated function, where the intrinsic inlines and
//! product and reduction stay in one vector register (`hw::mul_fold`, or
//! `hw::product` XOR-accumulated and then one `hw::fold`).

/// Portable carry-less multiply: fixed 64-iteration branchless ladder.
///
/// Iteration `i` XORs `a << i` into the accumulator under a mask that is
/// all-ones when bit `i` of `b` is set and all-zeros otherwise — no
/// data-dependent branches or trip counts.
#[inline]
#[must_use]
pub fn clmul_portable(a: u64, b: u64) -> u128 {
    let a = a as u128;
    let mut r: u128 = 0;
    let mut i = 0;
    while i < 64 {
        // 0 − bit is 0x00…0 or 0xFF…F: a branchless select of `a << i`.
        let keep = 0u128.wrapping_sub(((b >> i) & 1) as u128);
        r ^= (a << i) & keep;
        i += 1;
    }
    r
}

#[cfg(target_arch = "x86_64")]
pub(crate) mod hw {
    use std::arch::x86_64::{
        __m128i, _mm_clmulepi64_si128, _mm_cvtsi128_si64, _mm_cvtsi64_si128, _mm_unpackhi_epi64,
        _mm_xor_si128,
    };

    /// `x` in the low lane, zero above.
    #[inline]
    #[target_feature(enable = "sse2")]
    pub(crate) fn lane(x: u64) -> __m128i {
        _mm_cvtsi64_si128(x as i64)
    }

    /// The low lane of `v`.
    #[inline]
    #[target_feature(enable = "sse2")]
    pub(crate) fn low(v: __m128i) -> u64 {
        _mm_cvtsi128_si64(v) as u64
    }

    /// Carry-less multiply via the `PCLMULQDQ` instruction.
    #[target_feature(enable = "pclmulqdq")]
    pub(crate) fn clmul_pclmulqdq(a: u64, b: u64) -> u128 {
        let prod = _mm_clmulepi64_si128::<0x00>(lane(a), lane(b));
        let hi = low(_mm_unpackhi_epi64(prod, prod));
        ((hi as u128) << 64) | low(prod) as u128
    }

    /// One GF(2^K) multiplication — product and both folds of
    /// `Gf2k::reduce` — without leaving the vector register.
    ///
    /// Works on values pre-shifted left by `s = 64 − K`, which puts the
    /// fold boundary `x^K` on the lane boundary: for `v = hi·x^K + lo`,
    /// `v << s` holds `hi` in the high lane and `lo << s` in the low one,
    /// so "the part to fold" is "the high lane" (`imm8 = 0x01` multiplies
    /// the first operand's high lane by the second's low lane).
    ///
    /// Operands are read from the low lanes: `a` pre-shifted (`a << s`),
    /// `b` plain, `r` the pre-shifted low part of the modulus (`R << s`).
    /// The low lane of the result is `(a·b mod x^K + R) << s` — ready to
    /// be the next product's `a`; the high lane is scratch. Two folds
    /// suffice for every built-in modulus (`two_folds_suffice`): the second
    /// fold's product has degree ≤ 2·deg R − 2 < K and never reaches the
    /// high lane.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    pub(crate) fn mul_fold(a: __m128i, b: __m128i, r: __m128i) -> __m128i {
        fold(product(a, b), r)
    }

    /// The carry-less product of the low lanes of `a` and `b`, unreduced.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    pub(crate) fn product(a: __m128i, b: __m128i) -> __m128i {
        _mm_clmulepi64_si128::<0x00>(a, b)
    }

    /// The two folds of [`mul_fold`] on their own: `v` is a product of a
    /// pre-shifted and a plain operand, or an XOR of such products (the
    /// degree bound of one product holds for the sum), and the low lane of
    /// the result is its reduction, shifted.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    pub(crate) fn fold(v: __m128i, r: __m128i) -> __m128i {
        let t = _mm_clmulepi64_si128::<0x01>(v, r);
        let u = _mm_clmulepi64_si128::<0x01>(t, r);
        _mm_xor_si128(_mm_xor_si128(v, t), u)
    }
}

/// Whether the CPU has the `PCLMULQDQ` carry-less multiply — the one
/// feature probe in the workspace (cached by `std` after the first call).
#[inline]
#[must_use]
pub(crate) fn has_pclmulqdq() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("pclmulqdq")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Carry-less multiply, dispatched to the best available backend.
///
/// Uses `PCLMULQDQ` when the CPU advertises it, the portable ladder
/// otherwise. The two are extensionally equal.
#[inline]
#[must_use]
#[allow(unsafe_code)]
pub fn clmul(a: u64, b: u64) -> u128 {
    #[cfg(target_arch = "x86_64")]
    if has_pclmulqdq() {
        // SAFETY: the probe just confirmed pclmulqdq.
        return unsafe { hw::clmul_pclmulqdq(a, b) };
    }
    clmul_portable(a, b)
}

/// The name of the backend [`clmul`], the `Gf2k` multiply and the `Gf2k`
/// slice kernels dispatch to on this machine (they share one probe).
///
/// `"pclmulqdq"` or `"portable"` — recorded in `benchmark/`'s result
/// JSON, so a timing says which backend it measured.
#[must_use]
pub fn backend_name() -> &'static str {
    if has_pclmulqdq() {
        "pclmulqdq"
    } else {
        "portable"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dprbg_rng::rngs::StdRng;
    use dprbg_rng::{RngExt, SeedableRng};

    #[test]
    fn portable_matches_schoolbook_vectors() {
        // x · x = x^2, (x+1)·(x+1) = x^2+1 (cross terms cancel mod 2).
        assert_eq!(clmul_portable(0b10, 0b10), 0b100);
        assert_eq!(clmul_portable(0b11, 0b11), 0b101);
        // Degree-63 by degree-63 lands at bit 126.
        assert_eq!(clmul_portable(1 << 63, 1 << 63), 1u128 << 126);
        assert_eq!(clmul_portable(u64::MAX, 1), u64::MAX as u128);
        assert_eq!(clmul_portable(0, u64::MAX), 0);
    }

    #[test]
    fn dispatch_agrees_with_portable() {
        let mut rng = StdRng::seed_from_u64(0xC13);
        for _ in 0..2000 {
            let a: u64 = rng.random();
            let b: u64 = rng.random();
            assert_eq!(clmul(a, b), clmul_portable(a, b), "a={a:#x} b={b:#x}");
        }
        // Boundary operands.
        for &a in &[0u64, 1, u64::MAX, 1 << 63, 0x8000_0000_0000_0001] {
            for &b in &[0u64, 1, u64::MAX, 1 << 63, 0x8000_0000_0000_0001] {
                assert_eq!(clmul(a, b), clmul_portable(a, b), "a={a:#x} b={b:#x}");
            }
        }
    }

    #[test]
    fn backend_name_is_one_of_the_known_backends() {
        assert!(matches!(backend_name(), "pclmulqdq" | "portable"));
    }

    #[test]
    fn clmul_is_commutative_and_distributive() {
        let mut rng = StdRng::seed_from_u64(0xD15);
        for _ in 0..200 {
            let (a, b, c): (u64, u64, u64) = (rng.random(), rng.random(), rng.random());
            assert_eq!(clmul_portable(a, b), clmul_portable(b, a));
            assert_eq!(
                clmul_portable(a, b ^ c),
                clmul_portable(a, b) ^ clmul_portable(a, c)
            );
        }
    }
}
