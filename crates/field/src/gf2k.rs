//! GF(2^k): binary extension fields with carry-less arithmetic.
//!
//! This is the field the paper's protocols are stated over ("for simplicity
//! however the algorithms we provide below assume we work over GF(2^k)",
//! §2). Elements are polynomials over GF(2) of degree < k packed into a
//! `u64`; addition is XOR; multiplication is a carry-less (shift/XOR)
//! product followed by reduction modulo a fixed irreducible polynomial
//! `x^k + R(x)`.
//!
//! The moduli in [`reduction_poly`] are the lexicographically smallest
//! irreducible polynomials of each supported degree; the test suite
//! re-verifies irreducibility with Rabin's test.

use std::fmt;
use std::iter::{Product, Sum};
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

use dprbg_metrics::{ops, WireSize};
use dprbg_rng::{Rng, RngExt};

use crate::clmul;
use crate::traits::{scalar, Field};

/// The degrees `k` for which a verified irreducible modulus is built in.
pub const SUPPORTED_GF2K_DEGREES: &[usize] = &[4, 8, 16, 24, 32, 40, 48, 56, 64];

/// The low part `R` of the irreducible modulus `x^k + R(x)` for GF(2^k).
///
/// Returns the coefficients of `R` packed into a `u64` (bit `i` is the
/// coefficient of `x^i`).
///
/// # Panics
///
/// Panics if `k` is not one of [`SUPPORTED_GF2K_DEGREES`].
pub const fn reduction_poly(k: usize) -> u64 {
    match k {
        4 => 0x3,   // x^4 + x + 1
        8 => 0x1B,  // x^8 + x^4 + x^3 + x + 1
        16 => 0x2B, // x^16 + x^5 + x^3 + x + 1
        24 => 0x1B, // x^24 + x^4 + x^3 + x + 1
        32 => 0x8D, // x^32 + x^7 + x^3 + x^2 + 1
        40 => 0x39, // x^40 + x^5 + x^4 + x^3 + 1
        48 => 0x2D, // x^48 + x^5 + x^3 + x^2 + 1
        56 => 0x95, // x^56 + x^7 + x^4 + x^2 + 1
        64 => 0x1B, // x^64 + x^4 + x^3 + x + 1
        _ => panic!("unsupported GF(2^k) degree"),
    }
}

const fn mask(k: usize) -> u64 {
    if k == 64 {
        u64::MAX
    } else {
        (1u64 << k) - 1
    }
}

/// An element of GF(2^k).
///
/// The value is the canonical representative: a polynomial of degree < `K`
/// over GF(2), packed bit `i` = coefficient of `x^i`.
///
/// # Examples
///
/// ```
/// use dprbg_field::{Field, Gf2k};
/// // In GF(2^8), x * x^7 = x^8 = R(x) = x^4 + x^3 + x + 1 = 0x1B.
/// let x = Gf2k::<8>::from_u64(0b10);
/// let x7 = Gf2k::<8>::from_u64(0x80);
/// assert_eq!((x * x7).to_u64(), 0x1B);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Gf2k<const K: usize>(u64);

impl<const K: usize> Gf2k<K> {
    /// Fold the coefficients at or above `x^K` down once:
    /// `v ≡ lo + clmul(hi, R)  (mod x^K + R)` where `v = hi·x^K + lo`.
    #[inline]
    fn fold(v: u128, clmul: fn(u64, u64) -> u128) -> u128 {
        (v & mask(K) as u128) ^ clmul((v >> K) as u64, reduction_poly(K))
    }

    /// Reduce a carry-less product modulo `x^K + R` in exactly two folds.
    ///
    /// Callers must keep the input degree ≤ 2K−2 — true of any product
    /// of two canonical elements, and of the `x^shift` terms (`shift ≤ K`)
    /// that [`Field::inv`] reduces. Under that contract two unconditional
    /// folds always clear everything at or above `x^K` for every supported
    /// modulus: fold one leaves degree ≤ K−2+deg R, fold two leaves
    /// ≤ 2·deg R − 2, and every built-in `R` has deg R ≤ 7 with
    /// 2·deg R − 2 < K (checked exhaustively by `two_folds_suffice`).
    /// Fixed work, no data-dependent trip count. Inputs already below
    /// `x^K` pass through both folds unchanged (`hi = 0` XORs nothing).
    /// Arbitrary-width inputs go through [`Self::reduce_full`] instead.
    /// `clmul` is the backend the folds multiply with.
    #[inline]
    fn reduce(v: u128, clmul: fn(u64, u64) -> u128) -> u64 {
        debug_assert!(
            K == 64 || v >> (2 * K - 1) == 0,
            "reduce input exceeds the product-width contract"
        );
        let v = Self::fold(Self::fold(v, clmul), clmul);
        debug_assert_eq!(v >> K, 0, "two folds must fully reduce a product");
        v as u64
    }

    /// Reduce an arbitrary 128-bit polynomial modulo `x^K + R`.
    ///
    /// The general entry used by [`Field::from_u64`] conversions, whose
    /// input can have any degree up to 63 even when `K` is small. Not on
    /// the multiplication path — products use the fixed-fold
    /// [`Self::reduce`].
    #[inline]
    fn reduce_full(mut v: u128) -> u64 {
        while v >> K != 0 {
            v = Self::fold(v, clmul::clmul);
        }
        v as u64
    }

    /// Raw carry-less field multiplication without cost counting: one
    /// probe, then one call into the hardware multiply or the portable
    /// ladder.
    ///
    /// Used internally by [`Field::inv`] so that an inversion is charged as
    /// one `inv` tick rather than as its constituent multiplications.
    #[inline]
    #[allow(unsafe_code)]
    fn mul_raw(self, rhs: Self) -> Self {
        #[cfg(target_arch = "x86_64")]
        if clmul::has_pclmulqdq() {
            // SAFETY: the probe just confirmed pclmulqdq.
            return unsafe { hw::mul(self, rhs) };
        }
        self.mul_portable(rhs)
    }

    /// The multiply of a CPU without `PCLMULQDQ`: the ladder for the
    /// product and for both folds.
    #[inline]
    fn mul_portable(self, rhs: Self) -> Self {
        let product = clmul::clmul_portable(self.0, rhs.0);
        Gf2k(Self::reduce(product, clmul::clmul_portable))
    }

    /// Degree of the polynomial `v` over GF(2) (`v` must be nonzero).
    #[inline]
    fn degree(v: u128) -> i32 {
        127 - v.leading_zeros() as i32
    }

    /// The full modulus `x^K + R` as a 128-bit polynomial.
    #[inline]
    fn modulus() -> u128 {
        (1u128 << K) ^ reduction_poly(K) as u128
    }
}

/// The `PCLMULQDQ` bodies of the scalar multiply and the slice kernels.
///
/// Everything here computes in the *shifted domain* of
/// [`clmul::hw::mul_fold`]: a value `v` is carried as `v << s`,
/// `s = 64 − K` (for `K = 64` the shift is zero and the code is the
/// textbook one). A kernel shifts its inputs in, keeps the accumulators
/// shifted across steps, and shifts the results out once at the end.
/// None of these functions touches a cost counter — the caller ticks once
/// per slice.
#[cfg(target_arch = "x86_64")]
mod hw {
    use std::arch::x86_64::{__m128i, _mm_xor_si128};

    use super::{reduction_poly, Gf2k};
    use crate::clmul::hw::{fold, lane, low, mul_fold, product};

    /// The modulus' low part, pre-shifted.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn modulus<const K: usize>() -> __m128i {
        lane(reduction_poly(K) << (64 - K))
    }

    #[target_feature(enable = "pclmulqdq")]
    pub(super) fn mul<const K: usize>(a: Gf2k<K>, b: Gf2k<K>) -> Gf2k<K> {
        let s = 64 - K;
        Gf2k(low(mul_fold(lane(a.0 << s), lane(b.0), modulus::<K>())) >> s)
    }

    /// Horner at every point, one pass over the points per coefficient so
    /// that the `xs.len()` chains advance together (throughput-, not
    /// latency-bound). The top coefficient needs no multiply (`0·x = 0`).
    #[target_feature(enable = "pclmulqdq")]
    pub(super) fn eval_points<const K: usize>(
        coeffs: &[Gf2k<K>],
        xs: &[Gf2k<K>],
        out: &mut [Gf2k<K>],
    ) {
        let s = 64 - K;
        let r = modulus::<K>();
        let Some((top, rest)) = coeffs.split_last() else {
            return out.fill(Gf2k(0));
        };
        out.fill(Gf2k(top.0 << s));
        for c in rest.iter().rev() {
            let c = lane(c.0 << s);
            for (acc, x) in out.iter_mut().zip(xs) {
                acc.0 = low(_mm_xor_si128(mul_fold(lane(acc.0), lane(x.0), r), c));
            }
        }
        for acc in out {
            acc.0 >>= s;
        }
    }

    /// Every polynomial at every point as `Σ_c f_c·x^c`: the powers of
    /// each point are computed once, and the products of one value are
    /// XOR-accumulated unreduced and reduced once (the sum keeps one
    /// product's degree bound, so two folds still suffice). A value costs
    /// `width − 1` products and one reduction, and no chain runs between
    /// values. A block of polynomials is evaluated at every point before
    /// the next, so its coefficients stay in cache across the points.
    ///
    /// `W` is `width` when nonzero. Width 3 (`t = 2`, the dealing of
    /// `bigbatch_n13`) has its own copy, whose per-value loop the compiler
    /// unrolls: one dealer's 8193 polynomials at 13 points take ≈ 0.24 ms
    /// there against ≈ 0.47 ms at the dynamic width (2-vCPU Xeon).
    #[target_feature(enable = "pclmulqdq")]
    pub(super) fn eval_polys<const K: usize, const W: usize>(
        coeffs: &[Gf2k<K>],
        width: usize,
        xs: &[Gf2k<K>],
        rows: &mut [&mut [Gf2k<K>]],
    ) {
        const BLOCK: usize = 256;
        let width = if W == 0 { width } else { W };
        let s = 64 - K;
        let r = modulus::<K>();
        let Some(last) = width.checked_sub(1) else {
            return rows.iter_mut().for_each(|row| row.fill(Gf2k(0)));
        };
        // `x^1 … x^last` per point, shifted.
        let mut powers = Vec::with_capacity(xs.len() * last);
        for x in xs {
            let mut power = lane(1 << s);
            for _ in 0..last {
                power = mul_fold(power, lane(x.0), r);
                powers.push(power);
            }
        }
        let polys = coeffs.len() / width;
        for start in (0..polys).step_by(BLOCK) {
            let end = polys.min(start + BLOCK);
            let block = &coeffs[start * width..end * width];
            for (p, row) in rows.iter_mut().enumerate() {
                let powers = &powers[p * last..(p + 1) * last];
                for (y, f) in row[start..end].iter_mut().zip(block.chunks_exact(width)) {
                    let mut v = lane(f[0].0 << s);
                    for (c, &power) in f[1..].iter().zip(powers) {
                        v = _mm_xor_si128(v, product(lane(c.0), power));
                    }
                    y.0 = low(fold(v, r)) >> s;
                }
            }
        }
    }

    /// Evaluates every point, a stack buffer at a time, and remembers the
    /// lowest disagreeing index.
    #[target_feature(enable = "pclmulqdq")]
    pub(super) fn matching_prefix<const K: usize>(
        coeffs: &[Gf2k<K>],
        xs: &[Gf2k<K>],
        ys: &[Gf2k<K>],
    ) -> usize {
        const CHUNK: usize = 16;
        let mut vals = [Gf2k(0); CHUNK];
        let mut first = xs.len();
        for (chunk, (xc, yc)) in xs.chunks(CHUNK).zip(ys.chunks(CHUNK)).enumerate() {
            let vals = &mut vals[..xc.len()];
            eval_points(coeffs, xc, vals);
            for (i, (v, y)) in vals.iter().zip(yc).enumerate() {
                if v != y {
                    first = first.min(chunk * CHUNK + i);
                }
            }
        }
        first
    }

    /// `Σ_j r^j·row[j − 1]` per row, with each power of `r` computed once
    /// per call and each row's products XOR-accumulated unreduced, then
    /// reduced once: one product per element, where Horner chains three
    /// dependent ones. The powers are made a stack chunk at a time, in
    /// independent chains (`r^(j + CHAINS) = r^j·r^CHAINS`), and applied to
    /// every row before the next chunk. Every row has length `m`.
    #[target_feature(enable = "pclmulqdq")]
    pub(super) fn combine_rows<const K: usize>(
        rows: &[&[Gf2k<K>]],
        m: usize,
        r: Gf2k<K>,
        out: &mut [Gf2k<K>],
    ) {
        const CHAINS: usize = 8;
        const CHUNK: usize = 32 * CHAINS;
        let s = 64 - K;
        let modulus = modulus::<K>();
        // `powers[i] = r^(start + i + 1)`, shifted, for the chunk at `start`.
        let mut powers = [0u64; CHUNK];
        let mut power = lane(1 << s);
        for p in &mut powers[..CHAINS] {
            power = mul_fold(power, lane(r.0), modulus);
            *p = low(power);
        }
        let stride = lane(low(power) >> s);
        let mut sums = vec![lane(0); rows.len()];
        for start in (0..m).step_by(CHUNK) {
            let len = CHUNK.min(m - start);
            if start > 0 {
                for i in 0..CHAINS {
                    powers[i] = low(mul_fold(lane(powers[CHUNK - CHAINS + i]), stride, modulus));
                }
            }
            for i in CHAINS..len {
                powers[i] = low(mul_fold(lane(powers[i - CHAINS]), stride, modulus));
            }
            for (sum, row) in sums.iter_mut().zip(rows) {
                for (a, &p) in row[start..start + len].iter().zip(&powers[..len]) {
                    *sum = _mm_xor_si128(*sum, product(lane(a.0), lane(p)));
                }
            }
        }
        for (beta, &sum) in out.iter_mut().zip(&sums) {
            beta.0 = low(fold(sum, modulus)) >> s;
        }
    }

    #[target_feature(enable = "pclmulqdq")]
    pub(super) fn axpy<const K: usize>(acc: &mut [Gf2k<K>], scale: Gf2k<K>, row: &[Gf2k<K>]) {
        let s = 64 - K;
        let (scale, modulus) = (lane(scale.0 << s), modulus::<K>());
        for (a, b) in acc.iter_mut().zip(row) {
            a.0 ^= low(mul_fold(scale, lane(b.0), modulus)) >> s;
        }
    }
}

impl<const K: usize> Add for Gf2k<K> {
    type Output = Self;
    // XOR *is* addition in characteristic 2.
    #[allow(clippy::suspicious_arithmetic_impl)]
    #[inline]
    fn add(self, rhs: Self) -> Self {
        ops::count_add(1);
        Gf2k(self.0 ^ rhs.0)
    }
}

impl<const K: usize> Sub for Gf2k<K> {
    type Output = Self;
    #[allow(clippy::suspicious_arithmetic_impl)]
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        // Characteristic 2: subtraction is addition.
        ops::count_add(1);
        Gf2k(self.0 ^ rhs.0)
    }
}

impl<const K: usize> Mul for Gf2k<K> {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        ops::count_mul(1);
        self.mul_raw(rhs)
    }
}

impl<const K: usize> Div for Gf2k<K> {
    type Output = Self;
    /// # Panics
    ///
    /// Panics on division by zero.
    // Division in a field is multiplication by the inverse.
    #[allow(clippy::suspicious_arithmetic_impl)]
    #[inline]
    fn div(self, rhs: Self) -> Self {
        self * rhs.inv().expect("division by zero in GF(2^k)")
    }
}

impl<const K: usize> Neg for Gf2k<K> {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        // Characteristic 2: every element is its own negation.
        self
    }
}

impl<const K: usize> AddAssign for Gf2k<K> {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl<const K: usize> SubAssign for Gf2k<K> {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl<const K: usize> MulAssign for Gf2k<K> {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl<const K: usize> Sum for Gf2k<K> {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(<Self as Field>::zero(), |a, b| a + b)
    }
}

impl<const K: usize> Product for Gf2k<K> {
    fn product<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(<Self as Field>::one(), |a, b| a * b)
    }
}

impl<const K: usize> fmt::Debug for Gf2k<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Gf2k<{K}>({:#x})", self.0)
    }
}

impl<const K: usize> fmt::Display for Gf2k<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl<const K: usize> WireSize for Gf2k<K> {
    fn wire_bytes(&self) -> usize {
        K.div_ceil(8)
    }
}

impl<const K: usize> From<u64> for Gf2k<K> {
    fn from(x: u64) -> Self {
        <Self as Field>::from_u64(x)
    }
}

impl<const K: usize> Field for Gf2k<K> {
    const NAME: &'static str = match K {
        4 => "GF(2^4)",
        8 => "GF(2^8)",
        16 => "GF(2^16)",
        24 => "GF(2^24)",
        32 => "GF(2^32)",
        40 => "GF(2^40)",
        48 => "GF(2^48)",
        56 => "GF(2^56)",
        64 => "GF(2^64)",
        _ => panic!("unsupported GF(2^k) degree"),
    };

    #[inline]
    fn zero() -> Self {
        Gf2k(0)
    }

    #[inline]
    fn one() -> Self {
        Gf2k(1)
    }

    #[inline]
    fn is_zero(&self) -> bool {
        self.0 == 0
    }

    fn inv(&self) -> Option<Self> {
        if self.0 == 0 {
            return None;
        }
        ops::count_inv(1);
        // Extended Euclidean algorithm over GF(2)[x]:
        // maintain u·self ≡ a  and  v·self ≡ b  (mod x^K + R).
        let mut a: u128 = self.0 as u128;
        let mut b: u128 = Self::modulus();
        let mut u = Gf2k::<K>(1);
        let mut v = Gf2k::<K>(0);
        while a != 0 {
            let da = Self::degree(a);
            let db = Self::degree(b);
            if da < db {
                std::mem::swap(&mut a, &mut b);
                std::mem::swap(&mut u, &mut v);
                continue;
            }
            let shift = (da - db) as u32;
            a ^= b << shift;
            // u ← u + x^shift · v, reduced.
            let xs = Gf2k::<K>(Self::reduce(1u128 << shift, clmul::clmul));
            u = Gf2k(u.0 ^ xs.mul_raw(v).0);
        }
        debug_assert_eq!(b, 1, "gcd(self, modulus) must be 1 in a field");
        Some(v)
    }

    fn from_u64(x: u64) -> Self {
        Gf2k(Self::reduce_full(x as u128))
    }

    #[inline]
    fn to_u64(&self) -> u64 {
        self.0
    }

    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // The masked draw is already canonical (degree < K), so the
        // reduction inside `from_u64` is a no-op — but routing through it
        // means canonicality never rests on a debug-only assertion the
        // way the old `from_canonical` constructor did.
        Self::from_u64(rng.random::<u64>() & mask(K))
    }

    #[inline]
    fn bits() -> u32 {
        K as u32
    }

    #[inline]
    fn order() -> u128 {
        1u128 << K
    }

    #[allow(unsafe_code)]
    fn eval_points(coeffs: &[Self], xs: &[Self], out: &mut [Self]) {
        #[cfg(target_arch = "x86_64")]
        if clmul::has_pclmulqdq() {
            assert_eq!(xs.len(), out.len(), "one output per point");
            let charged = (coeffs.len() * xs.len()) as u64;
            ops::count_mul(charged);
            ops::count_add(charged);
            // SAFETY: the probe just confirmed pclmulqdq.
            return unsafe { hw::eval_points(coeffs, xs, out) };
        }
        scalar::eval_points(coeffs, xs, out);
    }

    #[allow(unsafe_code)]
    fn eval_polys(coeffs: &[Self], xs: &[Self], rows: &mut [&mut [Self]]) {
        #[cfg(target_arch = "x86_64")]
        if clmul::has_pclmulqdq() {
            let width = scalar::poly_width(coeffs, xs, rows);
            let charged = (scalar::trimmed_total(coeffs, width) * xs.len()) as u64;
            ops::count_mul(charged);
            ops::count_add(charged);
            // SAFETY: the probe just confirmed pclmulqdq.
            return unsafe {
                match width {
                    3 => hw::eval_polys::<K, 3>(coeffs, width, xs, rows),
                    _ => hw::eval_polys::<K, 0>(coeffs, width, xs, rows),
                }
            };
        }
        scalar::eval_polys(coeffs, xs, rows);
    }

    #[allow(unsafe_code)]
    fn matching_prefix(coeffs: &[Self], xs: &[Self], ys: &[Self]) -> usize {
        #[cfg(target_arch = "x86_64")]
        if clmul::has_pclmulqdq() {
            assert_eq!(xs.len(), ys.len(), "one value per point");
            // SAFETY: the probe just confirmed pclmulqdq.
            let agree = unsafe { hw::matching_prefix(coeffs, xs, ys) };
            // The scalar loop stops after evaluating the first disagreement.
            let charged = (coeffs.len() * xs.len().min(agree + 1)) as u64;
            ops::count_mul(charged);
            ops::count_add(charged);
            return agree;
        }
        scalar::matching_prefix(coeffs, xs, ys)
    }

    #[allow(unsafe_code)]
    fn combine_rows(rows: &[&[Self]], r: Self, out: &mut [Self]) {
        #[cfg(target_arch = "x86_64")]
        if clmul::has_pclmulqdq() {
            assert_eq!(rows.len(), out.len(), "one output per row");
            let m = rows.first().map_or(0, |row| row.len());
            assert!(rows.iter().all(|row| row.len() == m), "rows of one length");
            let charged = (m * rows.len()) as u64;
            ops::count_add(charged);
            ops::count_mul(charged);
            // SAFETY: the probe just confirmed pclmulqdq.
            return unsafe { hw::combine_rows(rows, m, r, out) };
        }
        scalar::combine_rows(rows, r, out);
    }

    /// XOR needs no backend: one tick, one pass.
    fn add_slice(acc: &mut [Self], a: &[Self]) {
        assert_eq!(acc.len(), a.len(), "slices of one length");
        ops::count_add(acc.len() as u64);
        for (x, y) in acc.iter_mut().zip(a) {
            x.0 ^= y.0;
        }
    }

    #[allow(unsafe_code)]
    fn axpy(acc: &mut [Self], s: Self, row: &[Self]) {
        #[cfg(target_arch = "x86_64")]
        if clmul::has_pclmulqdq() {
            assert_eq!(acc.len(), row.len(), "slices of one length");
            ops::count_mul(acc.len() as u64);
            ops::count_add(acc.len() as u64);
            // SAFETY: the probe just confirmed pclmulqdq.
            return unsafe { hw::axpy(acc, s, row) };
        }
        scalar::axpy(acc, s, row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dprbg_rng::prelude::*;
    use dprbg_rng::rngs::StdRng;
    use dprbg_rng::SeedableRng;

    /// Rabin's irreducibility test for `x^k + r` over GF(2).
    fn is_irreducible(k: usize, r: u64) -> bool {
        let m: u128 = (1u128 << k) ^ r as u128;
        fn deg(v: u128) -> i32 {
            127 - v.leading_zeros() as i32
        }
        fn pmod(mut a: u128, m: u128) -> u128 {
            let dm = deg(m);
            while a != 0 && deg(a) >= dm {
                a ^= m << (deg(a) - dm);
            }
            a
        }
        // Multiply two ≤64-bit polys mod m.
        fn pmulmod(a: u128, b: u128, m: u128) -> u128 {
            let mut r: u128 = 0;
            let mut b = b;
            let mut a = a;
            while b != 0 {
                if b & 1 == 1 {
                    r ^= a;
                }
                b >>= 1;
                a = pmod(a << 1, m);
            }
            pmod(r, m)
        }
        fn frobenius(e: usize, m: u128) -> u128 {
            // x^(2^e) mod m by repeated squaring.
            let mut r: u128 = 2;
            for _ in 0..e {
                r = pmulmod(r, r, m);
            }
            r
        }
        fn pgcd(mut a: u128, mut b: u128) -> u128 {
            while b != 0 {
                let t = pmod(a, b);
                a = b;
                b = t;
            }
            a
        }
        if frobenius(k, m) != 2 {
            return false;
        }
        let mut primes = vec![];
        let mut n = k;
        let mut d = 2;
        while d * d <= n {
            if n.is_multiple_of(d) {
                primes.push(d);
                while n.is_multiple_of(d) {
                    n /= d;
                }
            }
            d += 1;
        }
        if n > 1 {
            primes.push(n);
        }
        primes
            .into_iter()
            .all(|p| pgcd(m, frobenius(k / p, m) ^ 2) == 1)
    }

    #[test]
    fn all_moduli_are_irreducible() {
        for &k in SUPPORTED_GF2K_DEGREES {
            assert!(
                is_irreducible(k, reduction_poly(k)),
                "modulus for GF(2^{k}) is reducible"
            );
        }
    }

    #[test]
    fn basic_identities_gf256() {
        type F = Gf2k<8>;
        let a = F::from_u64(0x57);
        let b = F::from_u64(0x83);
        // Known AES-field product: 0x57 * 0x83 = 0xC1 under 0x11B.
        assert_eq!((a * b).to_u64(), 0xC1);
        assert_eq!(a + a, F::zero());
        assert_eq!(a * F::one(), a);
        assert_eq!(-a, a);
    }

    #[test]
    fn from_u64_reduces() {
        type F = Gf2k<4>;
        // x^4 ≡ x + 1, so 0b10000 reduces to 0b0011.
        assert_eq!(F::from_u64(0b10000).to_u64(), 0b0011);
    }

    #[test]
    fn inv_of_zero_is_none() {
        assert_eq!(Gf2k::<16>::zero().inv(), None);
    }

    #[test]
    fn division_matches_inverse() {
        type F = Gf2k<32>;
        let a = F::from_u64(0xDEADBEEF);
        let b = F::from_u64(0x1234567);
        assert_eq!(a / b, a * b.inv().unwrap());
        assert_eq!((a / b) * b, a);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn division_by_zero_panics() {
        let _ = Gf2k::<8>::one() / Gf2k::<8>::zero();
    }

    #[test]
    fn pow_matches_repeated_mul() {
        type F = Gf2k<16>;
        let g = F::from_u64(0xAB);
        let mut acc = F::one();
        for e in 0..20u128 {
            assert_eq!(g.pow(e), acc);
            acc *= g;
        }
    }

    #[test]
    fn element_order_divides_group_order() {
        // Fermat: a^(2^k - 1) = 1 for nonzero a.
        type F = Gf2k<24>;
        let a = F::from_u64(0xBEEF01);
        assert_eq!(a.pow((1u128 << 24) - 1), F::one());
    }

    #[test]
    fn k64_full_width_roundtrip() {
        type F = Gf2k<64>;
        let a = F::from_u64(u64::MAX);
        assert_eq!(a.to_u64(), u64::MAX);
        assert_eq!((a * a.inv().unwrap()), F::one());
    }

    #[test]
    fn wire_bytes_is_k_over_8() {
        assert_eq!(Gf2k::<8>::zero().wire_bytes(), 1);
        assert_eq!(Gf2k::<32>::zero().wire_bytes(), 4);
        assert_eq!(Gf2k::<64>::zero().wire_bytes(), 8);
        assert_eq!(Gf2k::<4>::zero().wire_bytes(), 1);
        assert_eq!(Gf2k::<8>::wire_bytes_static(), 1);
    }

    #[test]
    fn random_elements_stay_canonical() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            let v = Gf2k::<16>::random(&mut rng);
            assert!(v.to_u64() < (1 << 16));
        }
    }

    #[test]
    fn counts_ops() {
        use dprbg_metrics::CostSnapshot;
        type F = Gf2k<8>;
        let before = CostSnapshot::capture();
        let a = F::from_u64(3);
        let b = F::from_u64(5);
        let _ = a + b;
        let _ = a * b;
        let _ = a.inv();
        let d = CostSnapshot::capture().since(&before);
        assert_eq!(d.field_adds, 1);
        assert_eq!(d.field_muls, 1);
        assert_eq!(d.field_invs, 1);
    }

    #[test]
    fn display_and_debug_nonempty() {
        let a = Gf2k::<8>::from_u64(0);
        assert!(!format!("{a}").is_empty());
        assert!(format!("{a:?}").contains("Gf2k"));
    }

    #[test]
    fn element_panics_out_of_range() {
        let r = std::panic::catch_unwind(|| Gf2k::<4>::element(16));
        assert!(r.is_err());
    }

    fn axioms_hold<const K: usize>(a: u64, b: u64, c: u64) {
        let (a, b, c) = (
            Gf2k::<K>::from_u64(a),
            Gf2k::<K>::from_u64(b),
            Gf2k::<K>::from_u64(c),
        );
        assert_eq!(a + b, b + a);
        assert_eq!(a * b, b * a);
        assert_eq!((a + b) + c, a + (b + c));
        assert_eq!((a * b) * c, a * (b * c));
        assert_eq!(a * (b + c), a * b + a * c);
        assert_eq!(a + Gf2k::<K>::zero(), a);
        assert_eq!(a * Gf2k::<K>::one(), a);
        if !a.is_zero() {
            assert_eq!(a * a.inv().unwrap(), Gf2k::<K>::one());
        }
    }

    /// Exhaustive check of the fixed-fold contract: for every supported
    /// K, the worst-case post-fold degrees stay under K after two folds.
    #[test]
    fn two_folds_suffice() {
        fn deg(v: u128) -> i32 {
            127 - v.leading_zeros() as i32
        }
        for &k in SUPPORTED_GF2K_DEGREES {
            let dr = deg(reduction_poly(k) as u128);
            // Fold one of a degree ≤ 2K−2 input leaves ≤ max(K−1, K−2+dr);
            // fold two of that leaves ≤ max(K−1, 2·dr−2), which must be < K.
            assert!(2 * dr - 2 < k as i32, "GF(2^{k}): R too heavy for two folds");
        }
    }

    /// Product of the two highest-degree canonical elements reduces to a
    /// canonical value at every supported K (the widest input `reduce`
    /// ever sees: degree exactly 2K−2).
    #[test]
    fn max_degree_products_reduce_canonically() {
        fn check<const K: usize>() {
            let top = Gf2k::<K>::from_u64(mask(K));
            let p = top * top;
            assert!(p.to_u64() <= mask(K), "GF(2^{K}): product escaped canonical range");
            // And the product is consistent with square-via-pow.
            assert_eq!(p, top.pow(2));
        }
        check::<4>();
        check::<8>();
        check::<16>();
        check::<24>();
        check::<32>();
        check::<40>();
        check::<48>();
        check::<56>();
        check::<64>();
    }

    /// Schoolbook multiplication modulo `x^K + R`, a bit at a time: shares
    /// nothing with either carry-less backend or with `reduce`.
    fn mul_bitwise<const K: usize>(a: Gf2k<K>, b: Gf2k<K>) -> Gf2k<K> {
        let (mut a, mut acc) = (a.0, 0u64);
        for bit in 0..K {
            if (b.0 >> bit) & 1 == 1 {
                acc ^= a;
            }
            // a ← a·x, folding x^K to R.
            let carry = (a >> (K - 1)) & 1 == 1;
            a = (a << 1) & mask(K);
            if carry {
                a ^= reduction_poly(K);
            }
        }
        Gf2k(acc)
    }

    /// The in-register reduction on its widest inputs, at every supported
    /// K: slices of max-degree operands (all ones; top bit forced) through
    /// every multiplying kernel and the scalar `*`, against the portable
    /// multiply and the bitwise schoolbook one — so both backends run on
    /// this host, element for element.
    #[test]
    fn kernels_reduce_max_degree_operands_at_every_k() {
        fn check<const K: usize>() {
            let mut rng = StdRng::seed_from_u64(K as u64);
            let top = 1u64 << (K - 1);
            let mut vals = vec![Gf2k::<K>(mask(K)), Gf2k(top), Gf2k(top | 1)];
            vals.extend((0..30).map(|_| Gf2k::<K>(rng.random::<u64>() & mask(K) | top)));
            let horner = |mul: fn(Gf2k<K>, Gf2k<K>) -> Gf2k<K>, coeffs: &[Gf2k<K>], x| {
                coeffs.iter().rev().fold(Gf2k(0), |acc, c| Gf2k(mul(acc, x).0 ^ c.0))
            };
            for (i, &a) in vals.iter().enumerate() {
                let b = vals[(i + 1) % vals.len()];
                let want = mul_bitwise(a, b);
                assert_eq!(a * b, want, "GF(2^{K}): scalar multiply");
                assert_eq!(a.mul_portable(b), want, "GF(2^{K}): portable multiply");

                let mut acc = vals.clone();
                Gf2k::axpy(&mut acc, a, &vals);
                for (j, &v) in vals.iter().enumerate() {
                    assert_eq!(acc[j].0, v.0 ^ mul_bitwise(v, a).0, "GF(2^{K}): axpy");
                }
            }
            let mut out = vec![Gf2k(0); vals.len()];
            Gf2k::eval_points(&vals[..5], &vals, &mut out);
            for (&x, &y) in vals.iter().zip(&out) {
                assert_eq!(y, horner(mul_bitwise::<K>, &vals[..5], x), "GF(2^{K}): eval_points");
                assert_eq!(y, horner(Gf2k::mul_portable, &vals[..5], x));
            }
            assert_eq!(Gf2k::matching_prefix(&vals[..5], &vals, &out), vals.len());
            for width in [3, 5] {
                let coeffs = &vals[..30];
                let mut rows = vec![vec![Gf2k(0); 30 / width]; vals.len()];
                let mut slices: Vec<&mut [Gf2k<K>]> = rows.iter_mut().map(Vec::as_mut_slice).collect();
                Gf2k::eval_polys(coeffs, &vals, &mut slices);
                for (row, &x) in rows.iter().zip(&vals) {
                    for (&y, f) in row.iter().zip(coeffs.chunks(width)) {
                        assert_eq!(y, horner(mul_bitwise::<K>, f, x), "GF(2^{K}): eval_polys");
                        assert!(y.0 <= mask(K), "GF(2^{K}): canonical");
                    }
                }
            }

            let rows: Vec<&[Gf2k<K>]> = (0..7).map(|d| &vals[d..d + 20]).collect();
            let r = vals[0];
            let mut betas = vec![Gf2k(0); rows.len()];
            Gf2k::combine_rows(&rows, r, &mut betas);
            for (row, &beta) in rows.iter().zip(&betas) {
                let want = row.iter().rev().fold(Gf2k(0), |acc, a| mul_bitwise(Gf2k(acc.0 ^ a.0), r));
                assert_eq!(beta, want, "GF(2^{K}): combine_rows");
            }
            assert!(out.iter().chain(&betas).all(|v| v.0 <= mask(K)), "GF(2^{K}): canonical");
        }
        check::<4>();
        check::<8>();
        check::<16>();
        check::<24>();
        check::<32>();
        check::<40>();
        check::<48>();
        check::<56>();
        check::<64>();
    }

    /// `from_u64` handles inputs far wider than K (many folds) — the case
    /// the fixed two-fold product reduction explicitly does not cover.
    #[test]
    fn from_u64_reduces_full_width_inputs_at_small_k() {
        for x in [u64::MAX, 1u64 << 63, 0xDEAD_BEEF_CAFE_F00D] {
            for &k in SUPPORTED_GF2K_DEGREES {
                let v = match k {
                    4 => Gf2k::<4>::from_u64(x).to_u64(),
                    8 => Gf2k::<8>::from_u64(x).to_u64(),
                    16 => Gf2k::<16>::from_u64(x).to_u64(),
                    24 => Gf2k::<24>::from_u64(x).to_u64(),
                    32 => Gf2k::<32>::from_u64(x).to_u64(),
                    40 => Gf2k::<40>::from_u64(x).to_u64(),
                    48 => Gf2k::<48>::from_u64(x).to_u64(),
                    56 => Gf2k::<56>::from_u64(x).to_u64(),
                    64 => Gf2k::<64>::from_u64(x).to_u64(),
                    _ => unreachable!(),
                };
                assert!(v <= mask(k), "GF(2^{k}): from_u64({x:#x}) not canonical");
            }
        }
    }

    /// One multiplication through the portable ladder and one through the
    /// dispatched backend (hardware CLMUL when available) must agree —
    /// per K, including the K=64 mask boundary, and with the top
    /// coefficient forced so the product runs the full `reduce` width.
    fn backends_agree<const K: usize>(a: u64, b: u64) {
        let x = Gf2k::<K>::from_u64(a);
        let y = Gf2k::<K>::from_u64(b);
        let via_dispatch = (x * y).to_u64();
        let via_portable = x.mul_portable(y).to_u64();
        assert_eq!(via_dispatch, via_portable, "GF(2^{K}): backend mismatch");
        // Max-degree variant: force bit K−1 on both operands.
        let top = 1u64 << (K - 1);
        let (xm, ym) = (Gf2k::<K>(x.to_u64() | top), Gf2k::<K>(y.to_u64() | top));
        assert_eq!(
            xm * ym,
            xm.mul_portable(ym),
            "GF(2^{K}): backend mismatch on max-degree product"
        );
    }

    proptest! {
        #[test]
        fn scalar_and_clmul_backends_agree_at_every_k(a: u64, b: u64) {
            backends_agree::<4>(a, b);
            backends_agree::<8>(a, b);
            backends_agree::<16>(a, b);
            backends_agree::<24>(a, b);
            backends_agree::<32>(a, b);
            backends_agree::<40>(a, b);
            backends_agree::<48>(a, b);
            backends_agree::<56>(a, b);
            backends_agree::<64>(a, b);
        }

        #[test]
        fn field_axioms_gf2_8(a: u64, b: u64, c: u64) {
            axioms_hold::<8>(a, b, c);
        }

        #[test]
        fn field_axioms_gf2_32(a: u64, b: u64, c: u64) {
            axioms_hold::<32>(a, b, c);
        }

        #[test]
        fn field_axioms_gf2_64(a: u64, b: u64, c: u64) {
            axioms_hold::<64>(a, b, c);
        }

        #[test]
        fn from_to_u64_roundtrip_canonical(a: u64) {
            let v = a & 0xFFFF;
            prop_assert_eq!(Gf2k::<16>::from_u64(v).to_u64(), v);
        }
    }
}
