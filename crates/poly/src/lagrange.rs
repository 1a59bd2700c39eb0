//! Lagrange interpolation.
//!
//! "The basic solution … is to choose any t+1 values (points) … and to
//! compute the unique polynomial f(x) that they define (using, say, the
//! Lagrange method)" (§3.1). Each call ticks the paper's "interpolations
//! per player" counter.

use dprbg_field::Field;
use dprbg_metrics::ops;

use crate::poly::Poly;

/// Errors from [`interpolate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterpolateError {
    /// Two supplied points share the same x-coordinate.
    DuplicateAbscissa,
    /// No points were supplied.
    Empty,
}

impl std::fmt::Display for InterpolateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InterpolateError::DuplicateAbscissa => {
                write!(f, "duplicate x-coordinate among interpolation points")
            }
            InterpolateError::Empty => write!(f, "no interpolation points supplied"),
        }
    }
}

impl std::error::Error for InterpolateError {}

/// The unique polynomial of degree `< points.len()` through all `points`.
///
/// Runs the classical `O(m²)` Lagrange construction and ticks one
/// interpolation on the cost counters.
///
/// # Errors
///
/// [`InterpolateError::Empty`] without points,
/// [`InterpolateError::DuplicateAbscissa`] if x-coordinates repeat.
pub fn interpolate<F: Field>(points: &[(F, F)]) -> Result<Poly<F>, InterpolateError> {
    if points.is_empty() {
        return Err(InterpolateError::Empty);
    }
    for (i, (xi, _)) in points.iter().enumerate() {
        if points[i + 1..].iter().any(|(xj, _)| xj == xi) {
            return Err(InterpolateError::DuplicateAbscissa);
        }
    }
    ops::count_interpolation(1);
    let mut acc = Poly::zero();
    for (i, &(xi, yi)) in points.iter().enumerate() {
        if yi.is_zero() {
            continue;
        }
        // Basis polynomial L_i(x) = Π_{j≠i} (x − x_j) / (x_i − x_j).
        let mut num = Poly::constant(F::one());
        let mut denom = F::one();
        for (j, &(xj, _)) in points.iter().enumerate() {
            if j == i {
                continue;
            }
            num = num.mul(&Poly::new(vec![-xj, F::one()]));
            denom *= xi - xj;
        }
        let scale = yi * denom.inv().expect("distinct abscissas give nonzero denominator");
        acc = acc.add(&num.scale(scale));
    }
    Ok(acc)
}

/// Evaluate the interpolating polynomial at zero without constructing it —
/// the classic "reconstruct the Shamir secret" shortcut, `O(m²)` additions
/// and multiplications but no polynomial arithmetic.
///
/// # Errors
///
/// Same conditions as [`interpolate`]; additionally duplicates are detected
/// the same way.
pub fn lagrange_eval_at_zero<F: Field>(points: &[(F, F)]) -> Result<F, InterpolateError> {
    if points.is_empty() {
        return Err(InterpolateError::Empty);
    }
    for (i, (xi, _)) in points.iter().enumerate() {
        if points[i + 1..].iter().any(|(xj, _)| xj == xi) {
            return Err(InterpolateError::DuplicateAbscissa);
        }
    }
    ops::count_interpolation(1);
    let mut acc = F::zero();
    for (i, &(xi, yi)) in points.iter().enumerate() {
        let mut num = F::one();
        let mut denom = F::one();
        for (j, &(xj, _)) in points.iter().enumerate() {
            if j == i {
                continue;
            }
            num *= -xj;
            denom *= xi - xj;
        }
        acc += yi * num * denom.inv().expect("distinct abscissas");
    }
    Ok(acc)
}

/// Replace every value by its inverse with a single field inversion
/// (Montgomery's trick): `3k` multiplications plus one `inv`.
///
/// # Panics
///
/// Panics if any value is zero.
pub(crate) fn batch_invert<F: Field>(values: &mut [F]) {
    let mut prefix = Vec::with_capacity(values.len());
    let mut acc = F::one();
    for v in values.iter() {
        prefix.push(acc);
        acc *= *v;
    }
    let mut inv_acc = acc.inv().expect("batch inversion of a zero value");
    for (v, before) in values.iter_mut().zip(prefix).rev() {
        let inv = inv_acc * before;
        inv_acc *= *v;
        *v = inv;
    }
}

/// The Lagrange basis over a fixed set of `k` distinct abscissas, kept as
/// `L_i(x) = weights[i] · rows[i](x)` with `rows[i] = Π_{j≠i}(x − x_j)`.
///
/// Building it costs `O(k²)` multiplications and one inversion; the
/// interpolant of a value vector is then one `k`-term linear combination.
#[derive(Debug, Clone)]
pub(crate) struct LagrangeBasis<F> {
    /// Row-major `k × k`: the coefficients of `Π_{j≠i}(x − x_j)`.
    rows: Vec<F>,
    /// `1 / Π_{j≠i}(x_i − x_j)`.
    weights: Vec<F>,
}

impl<F: Field> LagrangeBasis<F> {
    /// The basis over `xs`, which must be non-empty and distinct.
    pub(crate) fn new(xs: &[F]) -> Self {
        let k = xs.len();
        // Master polynomial N(x) = Π_j (x − x_j), monic of degree k.
        let mut master = vec![F::zero(); k + 1];
        master[0] = F::one();
        for (deg, &x) in xs.iter().enumerate() {
            for c in (0..=deg).rev() {
                let v = master[c];
                master[c + 1] += v;
                master[c] = -(v * x);
            }
        }
        let mut weights = vec![F::one(); k];
        for (i, w) in weights.iter_mut().enumerate() {
            for (j, &xj) in xs.iter().enumerate() {
                if j != i {
                    *w *= xs[i] - xj;
                }
            }
        }
        batch_invert(&mut weights);
        // Row i is N / (x − x_i), by synthetic division.
        let mut rows = vec![F::zero(); k * k];
        for (row, &x) in rows.chunks_exact_mut(k).zip(xs) {
            let mut carry = master[k];
            for c in (0..k).rev() {
                row[c] = carry;
                carry = master[c] + x * carry;
            }
        }
        LagrangeBasis { rows, weights }
    }

    /// The polynomial of degree `< k` taking the first `k` values of `ys`
    /// at the basis abscissas (`k²` multiplications, no inversion).
    pub(crate) fn combine(&self, ys: impl Iterator<Item = F>) -> Poly<F> {
        let k = self.weights.len();
        let mut acc = vec![F::zero(); k];
        for ((row, &w), y) in self.rows.chunks_exact(k).zip(&self.weights).zip(ys) {
            if y.is_zero() {
                continue;
            }
            F::axpy(&mut acc, w * y, row);
        }
        Poly::new(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dprbg_field::{Fp, Gf2k};
    use dprbg_rng::prelude::*;
    use dprbg_rng::rngs::StdRng;
    use dprbg_rng::SeedableRng;

    type F = Gf2k<16>;

    #[test]
    fn recovers_known_polynomial() {
        let f = Poly::new(vec![F::from_u64(9), F::from_u64(4), F::from_u64(7)]);
        let pts: Vec<(F, F)> = (1..=3).map(|i| (F::element(i), f.eval(F::element(i)))).collect();
        assert_eq!(interpolate(&pts).unwrap(), f);
    }

    #[test]
    fn exact_degree_bound() {
        // m points define a polynomial of degree < m.
        let mut rng = StdRng::seed_from_u64(1);
        let f = Poly::<F>::random(4, &mut rng);
        let pts: Vec<(F, F)> = (1..=5).map(|i| (F::element(i), f.eval(F::element(i)))).collect();
        let g = interpolate(&pts).unwrap();
        assert_eq!(g, f);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert_eq!(interpolate::<F>(&[]), Err(InterpolateError::Empty));
        let p = (F::one(), F::one());
        assert_eq!(
            interpolate(&[p, p]),
            Err(InterpolateError::DuplicateAbscissa)
        );
        assert_eq!(lagrange_eval_at_zero::<F>(&[]), Err(InterpolateError::Empty));
        assert_eq!(
            lagrange_eval_at_zero(&[p, p]),
            Err(InterpolateError::DuplicateAbscissa)
        );
    }

    #[test]
    fn works_over_prime_field() {
        type P = Fp<101>;
        // f(x) = 10 + 3x over F_101
        let f = Poly::new(vec![P::from_u64(10), P::from_u64(3)]);
        let pts = [(P::from_u64(1), f.eval(P::from_u64(1))), (P::from_u64(2), f.eval(P::from_u64(2)))];
        assert_eq!(interpolate(&pts).unwrap(), f);
        assert_eq!(lagrange_eval_at_zero(&pts).unwrap(), P::from_u64(10));
    }

    #[test]
    fn basis_combination_is_the_interpolant_in_odd_characteristic() {
        // F_101 rather than GF(2^k): a sign slip in the master polynomial
        // or the synthetic division is invisible where −x = x.
        type P = Fp<101>;
        let mut rng = StdRng::seed_from_u64(4);
        for k in 1..=6u64 {
            let xs: Vec<P> = (0..k).map(|i| P::from_u64(3 * i + 2)).collect();
            let basis = LagrangeBasis::new(&xs);
            let before = dprbg_metrics::CostSnapshot::capture();
            let ys: Vec<P> = (0..k).map(|_| P::random(&mut rng)).collect();
            let f = basis.combine(ys.iter().copied());
            let cost = dprbg_metrics::CostSnapshot::capture().since(&before);
            assert_eq!(cost.field_invs, 0);
            let pts: Vec<(P, P)> = xs.iter().copied().zip(ys).collect();
            assert_eq!(f, interpolate(&pts).unwrap());
        }
    }

    #[test]
    fn combine_skips_zero_values_and_charges_the_rest() {
        fn check<G: Field>(seed: u64) {
            let mut rng = StdRng::seed_from_u64(seed);
            for k in [1usize, 2, 3, 6, 11] {
                let xs: Vec<G> = (1..=k as u64).map(G::element).collect();
                let basis = LagrangeBasis::new(&xs);
                // All random; zeros at the first, a middle and the last
                // abscissa; all zero.
                for zeros in [vec![], vec![0], vec![k / 2], vec![k - 1], (0..k).collect()] {
                    let mut ys: Vec<G> = (0..k).map(|_| G::random(&mut rng)).collect();
                    zeros.iter().for_each(|&i| ys[i] = G::zero());
                    let guard = dprbg_metrics::OpsGuard::start();
                    let f = basis.combine(ys.iter().copied());
                    let cost = guard.finish();
                    // Per nonzero value: the scale, then k multiply-adds.
                    let nonzero = ys.iter().filter(|y| !y.is_zero()).count() as u64;
                    assert_eq!(cost.field_muls, nonzero * (k as u64 + 1), "{}: k = {k}", G::NAME);
                    assert_eq!(cost.field_adds, nonzero * k as u64, "{}: k = {k}", G::NAME);
                    let pts: Vec<(G, G)> = xs.iter().copied().zip(ys).collect();
                    assert_eq!(f, interpolate(&pts).unwrap(), "{}: k = {k}", G::NAME);
                }
            }
        }
        check::<Gf2k<8>>(8);
        check::<Gf2k<32>>(32);
        check::<Gf2k<64>>(64);
        check::<Fp<101>>(101);
    }

    #[test]
    fn batch_invert_inverts_every_value_with_one_inversion() {
        type P = Fp<101>;
        let mut values: Vec<P> = (1..=9).map(P::from_u64).collect();
        let before = dprbg_metrics::CostSnapshot::capture();
        batch_invert(&mut values);
        assert_eq!(dprbg_metrics::CostSnapshot::capture().since(&before).field_invs, 1);
        for (i, v) in values.iter().enumerate() {
            assert_eq!(*v * P::from_u64(i as u64 + 1), P::one());
        }
        batch_invert::<P>(&mut []);
    }

    #[test]
    fn eval_at_zero_matches_full_interpolation() {
        let mut rng = StdRng::seed_from_u64(3);
        let f = Poly::<F>::random(6, &mut rng);
        let pts: Vec<(F, F)> = (1..=7).map(|i| (F::element(i), f.eval(F::element(i)))).collect();
        assert_eq!(
            lagrange_eval_at_zero(&pts).unwrap(),
            interpolate(&pts).unwrap().constant_term()
        );
    }

    #[test]
    fn counts_interpolations() {
        use dprbg_metrics::CostSnapshot;
        let pts = [(F::element(1), F::one()), (F::element(2), F::zero())];
        let before = CostSnapshot::capture();
        let _ = interpolate(&pts).unwrap();
        let _ = lagrange_eval_at_zero(&pts).unwrap();
        let d = CostSnapshot::capture().since(&before);
        assert_eq!(d.interpolations, 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_interpolate_roundtrip(seed: u64, deg in 0usize..8) {
            let mut rng = StdRng::seed_from_u64(seed);
            let f = Poly::<F>::random(deg, &mut rng);
            let pts: Vec<(F, F)> = (1..=(deg as u64 + 1))
                .map(|i| (F::element(i), f.eval(F::element(i))))
                .collect();
            prop_assert_eq!(interpolate(&pts).unwrap(), f);
        }

        #[test]
        fn prop_extra_points_do_not_change_result(seed: u64) {
            let mut rng = StdRng::seed_from_u64(seed);
            let f = Poly::<F>::random(3, &mut rng);
            let pts: Vec<(F, F)> = (1..=9)
                .map(|i| (F::element(i), f.eval(F::element(i))))
                .collect();
            // 9 points on a degree-3 polynomial still interpolate to it.
            prop_assert_eq!(interpolate(&pts).unwrap(), f);
        }
    }
}
