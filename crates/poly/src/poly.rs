//! Dense univariate polynomials over a [`Field`].

use std::fmt;

use dprbg_field::Field;
use dprbg_rng::Rng;

/// A dense univariate polynomial, constant term first.
///
/// The coefficient vector is kept *trimmed*: the leading coefficient is
/// nonzero, and the zero polynomial has an empty vector. This makes
/// [`Poly::degree`] and equality well-defined.
///
/// # Examples
///
/// ```
/// use dprbg_field::{Field, Gf2k};
/// use dprbg_poly::Poly;
/// type F = Gf2k<8>;
/// let f = Poly::new(vec![F::one(), F::one()]); // 1 + x
/// assert_eq!(f.degree(), Some(1));
/// assert_eq!(f.eval(F::from_u64(2)).to_u64(), 3);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Poly<F: Field> {
    coeffs: Vec<F>,
}

impl<F: Field> Poly<F> {
    /// Build a polynomial from coefficients (constant term first); trailing
    /// zeros are trimmed.
    pub fn new(mut coeffs: Vec<F>) -> Self {
        while coeffs.last().is_some_and(F::is_zero) {
            coeffs.pop();
        }
        Poly { coeffs }
    }

    /// The zero polynomial.
    pub fn zero() -> Self {
        Poly { coeffs: Vec::new() }
    }

    /// The constant polynomial `c`.
    pub fn constant(c: F) -> Self {
        Poly::new(vec![c])
    }

    /// A uniformly random polynomial of degree **at most** `deg`.
    pub fn random<R: Rng + ?Sized>(deg: usize, rng: &mut R) -> Self {
        Poly::new((0..=deg).map(|_| F::random(rng)).collect())
    }

    /// A uniformly random polynomial of degree at most `deg` with the given
    /// constant term — the Shamir dealer's move: `f(0) = secret`.
    pub fn random_with_constant<R: Rng + ?Sized>(secret: F, deg: usize, rng: &mut R) -> Self {
        let mut coeffs = vec![secret];
        coeffs.extend((0..deg).map(|_| F::random(rng)));
        Poly::new(coeffs)
    }

    /// The degree, or `None` for the zero polynomial.
    pub fn degree(&self) -> Option<usize> {
        self.coeffs.len().checked_sub(1)
    }

    /// Whether this is the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// The coefficients, constant term first (trimmed).
    pub fn coeffs(&self) -> &[F] {
        &self.coeffs
    }

    /// The coefficient of `x^i` (zero beyond the degree).
    pub fn coeff(&self, i: usize) -> F {
        self.coeffs.get(i).copied().unwrap_or_else(F::zero)
    }

    /// Evaluate at `x` by Horner's rule: `deg` multiplications and
    /// additions.
    pub fn eval(&self, x: F) -> F {
        let mut acc = F::zero();
        for &c in self.coeffs.iter().rev() {
            acc = acc * x + c;
        }
        acc
    }

    /// The constant term `f(0)` (free — no field operations).
    pub fn constant_term(&self) -> F {
        self.coeff(0)
    }

    /// Polynomial addition.
    pub fn add(&self, other: &Poly<F>) -> Poly<F> {
        let n = self.coeffs.len().max(other.coeffs.len());
        Poly::new((0..n).map(|i| self.coeff(i) + other.coeff(i)).collect())
    }

    /// Polynomial subtraction.
    pub fn sub(&self, other: &Poly<F>) -> Poly<F> {
        let n = self.coeffs.len().max(other.coeffs.len());
        Poly::new((0..n).map(|i| self.coeff(i) - other.coeff(i)).collect())
    }

    /// Multiply every coefficient by the scalar `s`.
    pub fn scale(&self, s: F) -> Poly<F> {
        Poly::new(self.coeffs.iter().map(|&c| c * s).collect())
    }

    /// Schoolbook polynomial multiplication.
    pub fn mul(&self, other: &Poly<F>) -> Poly<F> {
        if self.is_zero() || other.is_zero() {
            return Poly::zero();
        }
        let mut out = vec![F::zero(); self.coeffs.len() + other.coeffs.len() - 1];
        for (i, &a) in self.coeffs.iter().enumerate() {
            if a.is_zero() {
                continue;
            }
            for (j, &b) in other.coeffs.iter().enumerate() {
                out[i + j] += a * b;
            }
        }
        Poly::new(out)
    }

    /// Division with remainder: `self = q·divisor + r`, `deg r < deg
    /// divisor`. Returns `(q, r)`.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is the zero polynomial.
    pub fn divmod(&self, divisor: &Poly<F>) -> (Poly<F>, Poly<F>) {
        assert!(!divisor.is_zero(), "polynomial division by zero");
        let dd = divisor.degree().unwrap();
        if self.degree().is_none_or(|d| d < dd) {
            return (Poly::zero(), self.clone());
        }
        let mut rem = self.coeffs.clone();
        let dn = self.degree().unwrap();
        let mut quot = vec![F::zero(); dn - dd + 1];
        let lead_inv = divisor
            .coeffs
            .last()
            .unwrap()
            .inv()
            .expect("trimmed leading coefficient is nonzero");
        for i in (dd..=dn).rev() {
            let c = rem[i] * lead_inv;
            if c.is_zero() {
                continue;
            }
            let shift = i - dd;
            quot[shift] = c;
            for (j, &dj) in divisor.coeffs.iter().enumerate() {
                rem[shift + j] -= c * dj;
            }
        }
        (Poly::new(quot), Poly::new(rem))
    }

    /// Exact division: `self / divisor` if the remainder is zero, else
    /// `None`. (Berlekamp–Welch finishes with `F = Q / E`, which must be
    /// exact when decoding succeeds.)
    pub fn div_exact(&self, divisor: &Poly<F>) -> Option<Poly<F>> {
        let (q, r) = self.divmod(divisor);
        r.is_zero().then_some(q)
    }
}

impl<F: Field> dprbg_metrics::WireSize for Poly<F> {
    /// A degree-`d` polynomial travels as its `d + 1` coefficients.
    fn wire_bytes(&self) -> usize {
        self.coeffs.len() * F::wire_bytes_static()
    }
}

impl<F: Field> fmt::Debug for Poly<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "Poly(0)");
        }
        write!(f, "Poly(")?;
        for (i, c) in self.coeffs.iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            write!(f, "{c}·x^{i}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dprbg_field::Gf2k;
    use dprbg_rng::prelude::*;
    use dprbg_rng::rngs::StdRng;
    use dprbg_rng::SeedableRng;

    type F = Gf2k<16>;

    fn p(vals: &[u64]) -> Poly<F> {
        Poly::new(vals.iter().map(|&v| F::from_u64(v)).collect())
    }

    #[test]
    fn trimming_and_degree() {
        assert_eq!(p(&[1, 2, 0, 0]).degree(), Some(1));
        assert_eq!(p(&[0]).degree(), None);
        assert!(Poly::<F>::zero().is_zero());
        assert_eq!(Poly::<F>::constant(F::from_u64(9)).degree(), Some(0));
        assert_eq!(Poly::<F>::constant(F::zero()).degree(), None);
    }

    #[test]
    fn eval_matches_direct_expansion() {
        // f(x) = 1 + 2x + 3x^2 over GF(2^16)
        let f = p(&[1, 2, 3]);
        let x = F::from_u64(7);
        let expect = F::from_u64(1) + F::from_u64(2) * x + F::from_u64(3) * x * x;
        assert_eq!(f.eval(x), expect);
        assert_eq!(f.constant_term(), F::one());
        assert_eq!(Poly::<F>::zero().eval(x), F::zero());
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = p(&[1, 2, 3]);
        let b = p(&[5, 0, 3, 9]);
        let s = a.add(&b);
        assert_eq!(s.sub(&b), a);
        assert_eq!(a.sub(&a), Poly::zero());
    }

    #[test]
    fn add_cancels_leading_terms() {
        // (x^2 + 1) + (x^2) = 1 in characteristic 2 — degree must drop.
        let a = p(&[1, 0, 1]);
        let b = p(&[0, 0, 1]);
        assert_eq!(a.add(&b).degree(), Some(0));
    }

    #[test]
    fn mul_degrees_add() {
        let a = p(&[1, 1]); // 1 + x
        let b = p(&[1, 0, 1]); // 1 + x^2
        let c = a.mul(&b);
        assert_eq!(c.degree(), Some(3));
        // (1+x)(1+x^2) = 1 + x + x^2 + x^3 over GF(2^k).
        assert_eq!(c, p(&[1, 1, 1, 1]));
        assert_eq!(a.mul(&Poly::zero()), Poly::zero());
    }

    #[test]
    fn divmod_reconstructs() {
        let a = p(&[3, 1, 4, 1, 5]);
        let b = p(&[2, 7, 1]);
        let (q, r) = a.divmod(&b);
        assert_eq!(q.mul(&b).add(&r), a);
        assert!(r.degree() < b.degree());
    }

    #[test]
    fn div_exact_detects_remainder() {
        let a = p(&[1, 1]); // 1 + x
        let b = p(&[1, 0, 1]); // (1+x)^2 over GF(2)
        assert_eq!(b.div_exact(&a), Some(a.clone()));
        assert_eq!(p(&[1, 1, 1]).div_exact(&a), None);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn divmod_by_zero_panics() {
        let _ = p(&[1]).divmod(&Poly::zero());
    }

    #[test]
    fn random_with_constant_pins_secret() {
        let mut rng = StdRng::seed_from_u64(9);
        let s = F::from_u64(0xBEEF);
        for _ in 0..10 {
            let f = Poly::random_with_constant(s, 5, &mut rng);
            assert_eq!(f.constant_term(), s);
            assert!(f.degree().unwrap_or(0) <= 5);
        }
    }

    #[test]
    fn scale_distributes_over_eval() {
        let f = p(&[1, 2, 3, 4]);
        let s = F::from_u64(0x55);
        let x = F::from_u64(12);
        assert_eq!(f.scale(s).eval(x), s * f.eval(x));
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(format!("{:?}", Poly::<F>::zero()).contains('0'));
        assert!(format!("{:?}", p(&[1, 2])).contains("x^1"));
    }

    /// `Field::eval_polys` against `Poly::new(..).eval(..)` one polynomial
    /// and one point at a time: same values, same charge — including
    /// polynomials whose leading coefficients are zero (trimmed, so
    /// cheaper) and the zero polynomial (free).
    fn eval_polys_matches_poly_eval<G: Field>(seed: u64) {
        use dprbg_metrics::OpsGuard;
        let mut rng = StdRng::seed_from_u64(seed);
        for (polys, width, points) in [(0, 0, 3), (1, 0, 2), (1, 3, 13), (5, 1, 1), (9, 3, 7), (70, 4, 0), (70, 4, 13)] {
            let mut coeffs: Vec<G> = (0..polys * width).map(|_| G::random(&mut rng)).collect();
            for (j, f) in coeffs.chunks_mut(width.max(1)).enumerate() {
                // Every third polynomial loses its top coefficient, every
                // fifth its top two, every seventh all of them.
                let zeroed = if j % 7 == 6 { width } else { usize::from(j % 3 == 2) + usize::from(j % 5 == 4) };
                f.iter_mut().rev().take(zeroed).for_each(|c| *c = G::zero());
            }
            let xs: Vec<G> = (0..points).map(|_| G::random(&mut rng)).collect();
            let mut fast = vec![vec![G::one(); polys]; points];
            let guard = OpsGuard::start();
            G::eval_polys(&coeffs, &xs, &mut fast.iter_mut().map(Vec::as_mut_slice).collect::<Vec<_>>());
            let fast_cost = guard.finish();
            let guard = OpsGuard::start();
            let mut slow = vec![vec![G::zero(); polys]; points];
            for (j, f) in coeffs.chunks(width.max(1)).enumerate() {
                let f = Poly::new(f.to_vec());
                for (p, &x) in xs.iter().enumerate() {
                    slow[p][j] = f.eval(x);
                }
            }
            let slow_cost = guard.finish();
            assert_eq!(fast, slow, "{}: {polys} × {width} at {points} points", G::NAME);
            assert_eq!(fast_cost, slow_cost, "{}: {polys} × {width} at {points} points", G::NAME);
        }
    }

    #[test]
    fn eval_polys_matches_poly_eval_in_value_and_cost() {
        eval_polys_matches_poly_eval::<Gf2k<8>>(8);
        eval_polys_matches_poly_eval::<Gf2k<32>>(32);
        eval_polys_matches_poly_eval::<Gf2k<64>>(64);
        eval_polys_matches_poly_eval::<dprbg_field::Fp<101>>(101);
    }

    proptest! {
        #[test]
        fn prop_divmod_identity(seed: u64) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = Poly::<F>::random(8, &mut rng);
            let b = Poly::<F>::random(3, &mut rng);
            prop_assume!(!b.is_zero());
            let (q, r) = a.divmod(&b);
            prop_assert_eq!(q.mul(&b).add(&r), a);
        }

        #[test]
        fn prop_eval_is_linear(seed: u64, x: u64) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = Poly::<F>::random(6, &mut rng);
            let b = Poly::<F>::random(4, &mut rng);
            let x = F::from_u64(x);
            prop_assert_eq!(a.add(&b).eval(x), a.eval(x) + b.eval(x));
        }

        #[test]
        fn prop_mul_eval_homomorphic(seed: u64, x: u64) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = Poly::<F>::random(5, &mut rng);
            let b = Poly::<F>::random(5, &mut rng);
            let x = F::from_u64(x);
            prop_assert_eq!(a.mul(&b).eval(x), a.eval(x) * b.eval(x));
        }
    }
}
