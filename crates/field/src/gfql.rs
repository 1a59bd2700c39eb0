//! The paper's "specially constructed" field GF(q^l) (§2).
//!
//! > "Let q be a prime and l an integer such that q ≥ 2l + 1 and q^l ≥ 2^k.
//! > We work over GF(q^l). We view the field elements as degree-l
//! > polynomials over Z_q. Then we use discrete Fourier transforms to do
//! > the multiplication, modulo some irreducible polynomial, in O(l log l)
//! > operations over Z_q."
//!
//! Elements are degree `< l` polynomials over `Z_q`; the modulus is
//! `x^l − a` with `a` a primitive root of `Z_q` (irreducible by
//! Lidl–Niederreiter Thm. 3.75 when `l` is a power of two and
//! `q ≡ 1 (mod 4)`), which makes reduction a single fold. Multiplication is
//! provided both **naively** (`O(l²)` coefficient products) and via a
//! radix-2 **number-theoretic transform** of size `≥ 2l − 1` (`O(l log l)`).
//! Both tick [`dprbg_metrics::ops::count_mul`] once per `Z_q`
//! multiplication (the `zq` helpers themselves do not, so [`crate::Fp`]
//! and inversion counts are unaffected), so experiment E8 reads the
//! crossover the paper predicts ("in practice, when k is small, working
//! over GF(2^k) with the naive O(k²) multiplication is faster … because of
//! the sizes of the constants involved") off counted operations.
//!
//! This type is a measurement substrate, not a protocol field: protocols
//! run over [`crate::Gf2k`] per the paper's own presentation.

use std::fmt;

use dprbg_metrics::ops;
use dprbg_rng::{Rng, RngExt};

use crate::zq;

/// Errors constructing [`GfQlParams`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GfQlError {
    /// `q` is not prime.
    NotPrime(u64),
    /// The paper's constraint `q ≥ 2l + 1` fails.
    QTooSmall {
        /// The offered prime.
        q: u64,
        /// The requested extension degree.
        l: usize,
    },
    /// `l` must be a power of two ≥ 2 (so `x^l − a` is irreducible and the
    /// radix-2 NTT applies).
    BadDegree(usize),
    /// `Z_q` has no root of unity of the required NTT order
    /// (`q ≢ 1 mod 2^s`).
    NoNttRoot {
        /// The offered prime.
        q: u64,
        /// The required transform size.
        ntt_size: usize,
    },
}

impl fmt::Display for GfQlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GfQlError::NotPrime(q) => write!(f, "{q} is not prime"),
            GfQlError::QTooSmall { q, l } => {
                write!(f, "q = {q} violates q >= 2l+1 for l = {l}")
            }
            GfQlError::BadDegree(l) => {
                write!(f, "extension degree {l} is not a power of two >= 2")
            }
            GfQlError::NoNttRoot { q, ntt_size } => {
                write!(f, "Z_{q} has no root of unity of order {ntt_size}")
            }
        }
    }
}

impl std::error::Error for GfQlError {}

/// Parameters of a GF(q^l) instance: the prime `q`, degree `l`, modulus
/// `x^l − a`, and the NTT twiddle data.
///
/// # Examples
///
/// ```
/// use dprbg_field::GfQlParams;
/// use dprbg_rng::{rngs::StdRng, SeedableRng};
/// # fn main() -> Result<(), dprbg_field::GfQlError> {
/// let f = GfQlParams::new(97, 16)?;
/// assert!(f.bits() >= 64);
/// let mut rng = StdRng::seed_from_u64(1996);
/// let x = f.random(&mut rng);
/// let y = f.random(&mut rng);
/// assert_eq!(f.mul_naive(&x, &y), f.mul_fft(&x, &y));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GfQlParams {
    q: u64,
    l: usize,
    a: u64,
    ntt_size: usize,
    omega: u64,
    omega_inv: u64,
    n_inv: u64,
}

/// An element of GF(q^l): coefficients of a degree `< l` polynomial over
/// `Z_q`, constant term first.
///
/// Plain data; all arithmetic goes through the owning [`GfQlParams`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GfQl {
    coeffs: Vec<u64>,
}

impl GfQl {
    /// The coefficient vector (length `l`, constant term first).
    pub fn coeffs(&self) -> &[u64] {
        &self.coeffs
    }
}

impl GfQlParams {
    /// Build a GF(q^l) instance, validating the paper's constraints.
    ///
    /// # Errors
    ///
    /// See [`GfQlError`] for each constraint violation.
    pub fn new(q: u64, l: usize) -> Result<Self, GfQlError> {
        if !(l >= 2 && l.is_power_of_two()) {
            return Err(GfQlError::BadDegree(l));
        }
        if !zq::is_prime(q) {
            return Err(GfQlError::NotPrime(q));
        }
        if q < 2 * l as u64 + 1 {
            return Err(GfQlError::QTooSmall { q, l });
        }
        let ntt_size = (2 * l - 1).next_power_of_two();
        let omega = zq::root_of_unity(q, ntt_size as u64)
            .ok_or(GfQlError::NoNttRoot { q, ntt_size })?;
        // q ≡ 1 mod ntt_size (≥ 4 for l ≥ 2) implies q ≡ 1 mod 4, and a
        // primitive root `a` makes x^l − a irreducible for power-of-two l.
        let a = zq::primitive_root(q).expect("q is prime >= 3");
        Ok(GfQlParams {
            q,
            l,
            a,
            ntt_size,
            omega,
            omega_inv: zq::inv_mod(omega, q).expect("omega is nonzero"),
            n_inv: zq::inv_mod(ntt_size as u64, q).expect("ntt_size < q is nonzero"),
        })
    }

    /// A parameter set whose field has at least `k` bits (`q^l ≥ 2^k`),
    /// chosen from FFT-friendly primes.
    ///
    /// # Panics
    ///
    /// Panics if `k > 600` (no built-in parameter set is that large).
    pub fn for_bits(k: u32) -> Self {
        let (q, l) = match k {
            0..=16 => (17, 4),
            17..=32 => (17, 8),
            33..=100 => (97, 16),
            101..=230 => (193, 32),
            231..=600 => (769, 64),
            _ => panic!("no built-in GF(q^l) parameters for k = {k}"),
        };
        GfQlParams::new(q, l).expect("built-in parameters are valid")
    }

    /// The prime `q`.
    pub fn q(&self) -> u64 {
        self.q
    }

    /// The extension degree `l`.
    pub fn l(&self) -> usize {
        self.l
    }

    /// The constant `a` of the modulus `x^l − a`.
    pub fn modulus_constant(&self) -> u64 {
        self.a
    }

    /// Field size in bits: `⌊l · log2 q⌋`.
    pub fn bits(&self) -> u32 {
        (self.l as f64 * (self.q as f64).log2()).floor() as u32
    }

    /// The additive identity.
    pub fn zero(&self) -> GfQl {
        GfQl {
            coeffs: vec![0; self.l],
        }
    }

    /// The multiplicative identity.
    pub fn one(&self) -> GfQl {
        let mut c = vec![0; self.l];
        c[0] = 1;
        GfQl { coeffs: c }
    }

    /// Whether `x` is the additive identity.
    pub fn is_zero(&self, x: &GfQl) -> bool {
        x.coeffs.iter().all(|&c| c == 0)
    }

    /// Build an element from coefficients (short vectors are zero-padded).
    ///
    /// # Panics
    ///
    /// Panics if more than `l` coefficients are supplied.
    pub fn from_coeffs(&self, coeffs: &[u64]) -> GfQl {
        assert!(coeffs.len() <= self.l, "too many coefficients");
        let mut c: Vec<u64> = coeffs.iter().map(|&v| v % self.q).collect();
        c.resize(self.l, 0);
        GfQl { coeffs: c }
    }

    /// A uniformly random element.
    pub fn random<R: Rng + ?Sized>(&self, rng: &mut R) -> GfQl {
        GfQl {
            coeffs: (0..self.l).map(|_| rng.random_range(0..self.q)).collect(),
        }
    }

    /// Addition: `O(l)` operations in `Z_q`.
    pub fn add(&self, x: &GfQl, y: &GfQl) -> GfQl {
        self.check(x);
        self.check(y);
        GfQl {
            coeffs: x
                .coeffs
                .iter()
                .zip(&y.coeffs)
                .map(|(&a, &b)| zq::add_mod(a, b, self.q))
                .collect(),
        }
    }

    /// Subtraction: `O(l)` operations in `Z_q`.
    pub fn sub(&self, x: &GfQl, y: &GfQl) -> GfQl {
        self.check(x);
        self.check(y);
        GfQl {
            coeffs: x
                .coeffs
                .iter()
                .zip(&y.coeffs)
                .map(|(&a, &b)| zq::sub_mod(a, b, self.q))
                .collect(),
        }
    }

    /// Schoolbook multiplication: `O(l²)` coefficient products, then the
    /// `x^l ≡ a` fold.
    pub fn mul_naive(&self, x: &GfQl, y: &GfQl) -> GfQl {
        self.check(x);
        self.check(y);
        let mut prod = vec![0u64; 2 * self.l - 1];
        for (i, &xi) in x.coeffs.iter().enumerate() {
            if xi == 0 {
                continue;
            }
            for (j, &yj) in y.coeffs.iter().enumerate() {
                prod[i + j] = zq::add_mod(prod[i + j], zq::mul_mod(xi, yj, self.q), self.q);
                ops::count_mul(1);
            }
        }
        self.fold(prod)
    }

    /// DFT-based multiplication: two forward NTTs, a pointwise product, one
    /// inverse NTT — `O(l log l)` operations in `Z_q` (the paper's §2
    /// construction).
    pub fn mul_fft(&self, x: &GfQl, y: &GfQl) -> GfQl {
        self.check(x);
        self.check(y);
        let n = self.ntt_size;
        let mut fx = vec![0u64; n];
        let mut fy = vec![0u64; n];
        fx[..self.l].copy_from_slice(&x.coeffs);
        fy[..self.l].copy_from_slice(&y.coeffs);
        self.ntt(&mut fx, self.omega);
        self.ntt(&mut fy, self.omega);
        for (a, b) in fx.iter_mut().zip(&fy) {
            *a = zq::mul_mod(*a, *b, self.q);
            ops::count_mul(1);
        }
        self.ntt(&mut fx, self.omega_inv);
        for v in fx.iter_mut() {
            *v = zq::mul_mod(*v, self.n_inv, self.q);
            ops::count_mul(1);
        }
        fx.truncate(2 * self.l - 1);
        self.fold(fx)
    }

    /// Multiplicative inverse by the extended Euclidean algorithm over
    /// `Z_q[x]`, or `None` for zero.
    pub fn inv(&self, x: &GfQl) -> Option<GfQl> {
        self.check(x);
        if self.is_zero(x) {
            return None;
        }
        // Work on raw coefficient vectors (not reduced mod x^l - a).
        // r0 = modulus = x^l - a, r1 = x; maintain t·x ≡ r (mod modulus).
        let q = self.q;
        let mut modulus = vec![0u64; self.l + 1];
        modulus[0] = zq::sub_mod(0, self.a, q);
        modulus[self.l] = 1;
        let mut r0 = modulus;
        let mut r1 = trim(x.coeffs.clone());
        let mut t0: Vec<u64> = vec![];
        let mut t1: Vec<u64> = vec![1];
        while !r1.is_empty() {
            let (quot, rem) = poly_divmod(&r0, &r1, q);
            let t2 = poly_sub(&t0, &poly_mul(&quot, &t1, q), q);
            r0 = r1;
            r1 = rem;
            t0 = t1;
            t1 = t2;
        }
        // r0 is the gcd; modulus irreducible → gcd is a nonzero constant.
        debug_assert_eq!(r0.len(), 1, "modulus must be irreducible");
        let c_inv = zq::inv_mod(r0[0], q).expect("gcd constant is nonzero");
        let mut out: Vec<u64> = t0.iter().map(|&c| zq::mul_mod(c, c_inv, q)).collect();
        debug_assert!(out.len() <= self.l, "Bezout coefficient exceeds degree bound");
        out.resize(self.l, 0);
        Some(GfQl { coeffs: out })
    }

    /// Exponentiation by square-and-multiply using [`GfQlParams::mul_fft`].
    pub fn pow(&self, x: &GfQl, mut e: u128) -> GfQl {
        let mut base = x.clone();
        let mut acc = self.one();
        while e > 0 {
            if e & 1 == 1 {
                acc = self.mul_fft(&acc, &base);
            }
            e >>= 1;
            if e > 0 {
                base = self.mul_fft(&base, &base);
            }
        }
        acc
    }

    /// Reduce a product of degree ≤ 2l−2 modulo `x^l − a`.
    #[allow(clippy::needless_range_loop)]
    fn fold(&self, prod: Vec<u64>) -> GfQl {
        let mut c = vec![0u64; self.l];
        for (i, &v) in prod.iter().enumerate() {
            if i < self.l {
                c[i] = zq::add_mod(c[i], v, self.q);
            } else {
                // x^(l+j) ≡ a · x^j
                c[i - self.l] =
                    zq::add_mod(c[i - self.l], zq::mul_mod(v, self.a, self.q), self.q);
                ops::count_mul(1);
            }
        }
        GfQl { coeffs: c }
    }

    /// In-place iterative radix-2 NTT with the given root (forward or
    /// inverse depending on the root passed).
    fn ntt(&self, v: &mut [u64], root: u64) {
        let n = v.len();
        debug_assert!(n.is_power_of_two());
        // Bit-reversal permutation.
        let mut j = 0usize;
        for i in 1..n {
            let mut bit = n >> 1;
            while j & bit != 0 {
                j ^= bit;
                bit >>= 1;
            }
            j |= bit;
            if i < j {
                v.swap(i, j);
            }
        }
        let q = self.q;
        let mut len = 2;
        while len <= n {
            let w_len = zq::pow_mod(root, (self.ntt_size / len) as u64, q);
            let mut i = 0;
            while i < n {
                let mut w = 1u64;
                for k in 0..len / 2 {
                    let u = v[i + k];
                    let t = zq::mul_mod(v[i + k + len / 2], w, q);
                    v[i + k] = zq::add_mod(u, t, q);
                    v[i + k + len / 2] = zq::sub_mod(u, t, q);
                    w = zq::mul_mod(w, w_len, q);
                    ops::count_mul(2);
                }
                i += len;
            }
            len <<= 1;
        }
    }

    fn check(&self, x: &GfQl) {
        assert_eq!(
            x.coeffs.len(),
            self.l,
            "element does not belong to this GF(q^l) instance"
        );
    }
}

/// Strip trailing zero coefficients.
fn trim(mut v: Vec<u64>) -> Vec<u64> {
    while v.last() == Some(&0) {
        v.pop();
    }
    v
}

/// Polynomial subtraction over `Z_q` on raw (trimmed) coefficient vectors.
fn poly_sub(a: &[u64], b: &[u64], q: u64) -> Vec<u64> {
    let n = a.len().max(b.len());
    let out = (0..n)
        .map(|i| {
            let x = a.get(i).copied().unwrap_or(0);
            let y = b.get(i).copied().unwrap_or(0);
            zq::sub_mod(x, y, q)
        })
        .collect();
    trim(out)
}

/// Polynomial multiplication over `Z_q` on raw coefficient vectors.
fn poly_mul(a: &[u64], b: &[u64], q: u64) -> Vec<u64> {
    if a.is_empty() || b.is_empty() {
        return vec![];
    }
    let mut out = vec![0u64; a.len() + b.len() - 1];
    for (i, &x) in a.iter().enumerate() {
        if x == 0 {
            continue;
        }
        for (j, &y) in b.iter().enumerate() {
            out[i + j] = zq::add_mod(out[i + j], zq::mul_mod(x, y, q), q);
        }
    }
    trim(out)
}

/// Polynomial division with remainder over `Z_q`: returns `(quot, rem)`
/// with `a = quot·b + rem`, `deg rem < deg b`.
///
/// # Panics
///
/// Panics if `b` is the zero polynomial.
fn poly_divmod(a: &[u64], b: &[u64], q: u64) -> (Vec<u64>, Vec<u64>) {
    assert!(!b.is_empty(), "polynomial division by zero");
    let mut rem = a.to_vec();
    if a.len() < b.len() {
        return (vec![], trim(rem));
    }
    let mut quot = vec![0u64; a.len() - b.len() + 1];
    let lead_inv = zq::inv_mod(*b.last().unwrap(), q).expect("leading coefficient nonzero");
    for i in (b.len() - 1..a.len()).rev() {
        let coef = zq::mul_mod(rem[i], lead_inv, q);
        if coef == 0 {
            continue;
        }
        let shift = i - (b.len() - 1);
        quot[shift] = coef;
        for (j, &bj) in b.iter().enumerate() {
            rem[shift + j] = zq::sub_mod(rem[shift + j], zq::mul_mod(coef, bj, q), q);
        }
    }
    (trim(quot), trim(rem))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dprbg_rng::prelude::*;
    use dprbg_rng::rngs::StdRng;
    use dprbg_rng::SeedableRng;

    #[test]
    fn builtin_parameter_sets_are_valid() {
        for k in [8u32, 16, 32, 64, 128, 256] {
            let f = GfQlParams::for_bits(k);
            assert!(f.bits() >= k, "for_bits({k}) gave only {} bits", f.bits());
            assert!(f.q() > 2 * f.l() as u64, "paper constraint q >= 2l+1");
        }
    }

    #[test]
    fn constructor_validates() {
        assert_eq!(GfQlParams::new(15, 4), Err(GfQlError::NotPrime(15)));
        assert_eq!(
            GfQlParams::new(7, 4),
            Err(GfQlError::QTooSmall { q: 7, l: 4 })
        );
        assert_eq!(GfQlParams::new(97, 6), Err(GfQlError::BadDegree(6)));
        // 23 is prime and >= 2*8+1 = 17 but 23-1 = 22 has no 16th root.
        assert_eq!(
            GfQlParams::new(23, 8),
            Err(GfQlError::NoNttRoot { q: 23, ntt_size: 16 })
        );
    }

    #[test]
    fn one_is_multiplicative_identity() {
        let f = GfQlParams::new(97, 16).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let x = f.random(&mut rng);
        assert_eq!(f.mul_naive(&x, &f.one()), x);
        assert_eq!(f.mul_fft(&x, &f.one()), x);
    }

    #[test]
    fn naive_and_fft_agree() {
        let mut rng = StdRng::seed_from_u64(42);
        for (q, l) in [(17u64, 4usize), (17, 8), (97, 16), (193, 32), (769, 64)] {
            let f = GfQlParams::new(q, l).unwrap();
            for _ in 0..25 {
                let x = f.random(&mut rng);
                let y = f.random(&mut rng);
                assert_eq!(
                    f.mul_naive(&x, &y),
                    f.mul_fft(&x, &y),
                    "mismatch in GF({q}^{l})"
                );
            }
        }
    }

    #[test]
    fn inverses_multiply_to_one() {
        let mut rng = StdRng::seed_from_u64(11);
        let f = GfQlParams::new(97, 16).unwrap();
        for _ in 0..25 {
            let x = f.random(&mut rng);
            if f.is_zero(&x) {
                continue;
            }
            let xi = f.inv(&x).expect("nonzero element is invertible");
            assert_eq!(f.mul_naive(&x, &xi), f.one());
        }
        assert_eq!(f.inv(&f.zero()), None);
    }

    #[test]
    fn pow_small_cases() {
        let f = GfQlParams::new(17, 4).unwrap();
        let x = f.from_coeffs(&[0, 1]); // the element "x"
        assert_eq!(f.pow(&x, 0), f.one());
        assert_eq!(f.pow(&x, 1), x);
        assert_eq!(f.pow(&x, 2), f.mul_naive(&x, &x));
        // x^l = a (the modulus relation).
        let mut expect = f.zero();
        expect.coeffs[0] = f.modulus_constant();
        assert_eq!(f.pow(&x, f.l() as u128), expect);
    }

    #[test]
    fn fermat_in_small_instance() {
        // In GF(17^4), nonzero x satisfies x^(17^4 - 1) = 1.
        let f = GfQlParams::new(17, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let x = f.random(&mut rng);
        if !f.is_zero(&x) {
            let e = 17u128.pow(4) - 1;
            assert_eq!(f.pow(&x, e), f.one());
        }
    }

    #[test]
    fn divmod_reconstructs() {
        let q = 97;
        let a = [3u64, 0, 5, 7, 1];
        let b = [2u64, 1, 4];
        let (quot, rem) = poly_divmod(&a, &b, q);
        let back = poly_sub(&a, &poly_mul(&quot, &b, q), q);
        assert_eq!(back, rem);
        assert!(rem.len() < b.len());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_naive_eq_fft(seed: u64) {
            let f = GfQlParams::new(97, 16).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let x = f.random(&mut rng);
            let y = f.random(&mut rng);
            prop_assert_eq!(f.mul_naive(&x, &y), f.mul_fft(&x, &y));
        }

        #[test]
        fn prop_distributivity(seed: u64) {
            let f = GfQlParams::new(17, 8).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let (x, y, z) = (f.random(&mut rng), f.random(&mut rng), f.random(&mut rng));
            let lhs = f.mul_fft(&x, &f.add(&y, &z));
            let rhs = f.add(&f.mul_fft(&x, &y), &f.mul_fft(&x, &z));
            prop_assert_eq!(lhs, rhs);
        }
    }
}
