//! The Berlekamp–Welch decoder.
//!
//! Cited by the paper (§2, [5]) as the interpolation primitive: Bit-Gen
//! step 5 interpolates "using the Berlekamp-Welch decoder" through shares
//! of which up to `t` may be corrupted by faulty players, and Coin-Expose
//! step 2 does the same when a coin is revealed.
//!
//! Given `m` points of which at most `e` are wrong, with the underlying
//! polynomial of degree ≤ `t` and `m ≥ t + 2e + 1`, the decoder finds an
//! *error locator* `E(x)` (monic, degree `e`) and `Q(x)` (degree ≤ `t + e`)
//! with `Q(x_i) = y_i·E(x_i)` for every `i`; then `f = Q / E` exactly.

use dprbg_field::Field;

use crate::batch::BatchDecoder;
use crate::linalg::{solve_linear, Matrix};
use crate::poly::Poly;

/// Errors from [`bw_decode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BwError {
    /// Fewer than `t + 1` points were supplied — no degree-`t` polynomial
    /// is determined.
    TooFewPoints {
        /// Points supplied.
        got: usize,
        /// Minimum required (`t + 1`).
        need: usize,
    },
    /// Two supplied points share an x-coordinate.
    DuplicateAbscissa,
    /// No polynomial of degree ≤ `t` agrees with enough of the points —
    /// more errors than the decoding radius allows.
    DecodingFailed,
}

impl std::fmt::Display for BwError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BwError::TooFewPoints { got, need } => {
                write!(f, "need at least {need} points, got {got}")
            }
            BwError::DuplicateAbscissa => write!(f, "duplicate x-coordinate among points"),
            BwError::DecodingFailed => write!(f, "no degree-bounded polynomial within radius"),
        }
    }
}

impl std::error::Error for BwError {}

/// Decode the unique polynomial of degree ≤ `t` through `points`, of which
/// at most `e_max` may be arbitrary (Byzantine) errors.
///
/// The effective radius is `e = min(e_max, ⌊(m − t − 1) / 2⌋)` where `m` is
/// the number of points; callers in the protocols pass `e_max = t` with
/// `m ≥ 3t + 1` points, exactly the paper's setting (≥ `2t + 1` of the
/// clique's shares are honest).
///
/// A one-word [`BatchDecoder`]: an error-free word never reaches the
/// linear solve — the interpolant through the first `t + 1` points is
/// returned as soon as it agrees with all `m` (`O(t² + m·t)`
/// multiplications, one inversion). That candidate has zero
/// disagreements, so it *is* the unique answer within any radius — the
/// result on every input is that of the solve alone.
///
/// Ticks one interpolation on the cost counters.
///
/// # Errors
///
/// See [`BwError`]. `DecodingFailed` is returned whenever no polynomial of
/// degree ≤ `t` agrees with at least `m − e` of the points.
pub fn bw_decode<F: Field>(points: &[(F, F)], t: usize, e_max: usize) -> Result<Poly<F>, BwError> {
    let (xs, ys): (Vec<F>, Vec<F>) = points.iter().copied().unzip();
    BatchDecoder::new(&xs, t, e_max)?.decode(&ys)
}

/// The Berlekamp–Welch linear solve — the stage [`BatchDecoder`] (and so
/// [`bw_decode`]) falls through to once a word is known to be dirty.
/// `points` must be at least `t + 1` and distinct; ticks nothing.
pub(crate) fn solve_in_radius<F: Field>(
    points: &[(F, F)],
    t: usize,
    e_max: usize,
) -> Result<Poly<F>, BwError> {
    let m = points.len();
    let e = e_max.min((m - t - 1) / 2);

    // Unknowns: q_0..q_{t+e}  (t + e + 1 of them), then e_0..e_{e-1}
    // (E is monic of degree e, so its leading coefficient is fixed at 1).
    let nq = t + e + 1;
    let cols = nq + e;
    let mut a = Matrix::<F>::zeros(m, cols);
    let mut b = vec![F::zero(); m];
    for (row, &(x, y)) in points.iter().enumerate() {
        // Σ_j q_j x^j − y·Σ_{j<e} e_j x^j = y·x^e
        let mut xp = F::one();
        for j in 0..nq {
            a.set(row, j, xp);
            xp *= x;
        }
        let mut xp = F::one();
        for j in 0..e {
            a.set(row, nq + j, -(y * xp));
            xp *= x;
        }
        b[row] = y * xp; // xp = x^e after the loop
    }
    let sol = solve_linear(&a, &b).ok_or(BwError::DecodingFailed)?;

    let q_poly = Poly::new(sol[..nq].to_vec());
    let mut e_coeffs = sol[nq..].to_vec();
    e_coeffs.push(F::one()); // monic x^e term
    let e_poly = Poly::new(e_coeffs);

    let f = q_poly.div_exact(&e_poly).ok_or(BwError::DecodingFailed)?;
    if f.degree().is_some_and(|d| d > t) {
        return Err(BwError::DecodingFailed);
    }
    // Accept only if the number of disagreeing points is within radius —
    // this is what makes the answer unique for m ≥ t + 2e + 1.
    #[expect(
        clippy::disallowed_methods,
        reason = "the decode the serve plane runs, pinned as it stands"
    )]
    let disagreements = points.iter().filter(|&&(x, y)| f.eval(x) != y).count();
    if disagreements > e {
        return Err(BwError::DecodingFailed);
    }
    Ok(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dprbg_field::Gf2k;
    use dprbg_rng::prelude::*;
    use dprbg_rng::rngs::StdRng;
    use dprbg_rng::seq::SliceRandom;
    use dprbg_rng::{RngExt, SeedableRng};

    type F = Gf2k<16>;

    fn points_of(f: &Poly<F>, n: u64) -> Vec<(F, F)> {
        (1..=n).map(|i| (F::element(i), f.eval(F::element(i)))).collect()
    }

    #[test]
    fn error_free_equals_lagrange() {
        let mut rng = StdRng::seed_from_u64(1);
        let f = Poly::<F>::random(3, &mut rng);
        let pts = points_of(&f, 10);
        assert_eq!(bw_decode(&pts, 3, 3).unwrap(), f);
    }

    #[test]
    fn corrects_up_to_radius() {
        let mut rng = StdRng::seed_from_u64(2);
        let t = 2;
        let f = Poly::<F>::random(t, &mut rng);
        // m = 3t + 1 = 7 points, radius t = 2 errors.
        let mut pts = points_of(&f, 7);
        pts[0].1 += F::one();
        pts[4].1 = F::from_u64(0xDEAD);
        assert_eq!(bw_decode(&pts, t, t).unwrap(), f);
    }

    #[test]
    fn fails_beyond_radius() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = 2;
        let f = Poly::<F>::random(t, &mut rng);
        let mut pts = points_of(&f, 7);
        // 3 errors with radius 2: must either fail or return some *other*
        // consistent polynomial — never silently return a wrong "f".
        for p in pts.iter_mut().take(3) {
            p.1 += F::from_u64(0x1234);
        }
        match bw_decode(&pts, t, t) {
            Err(BwError::DecodingFailed) => {}
            Ok(g) => {
                // If it decodes, it must satisfy the radius contract.
                let dis = pts.iter().filter(|&&(x, y)| g.eval(x) != y).count();
                assert!(dis <= 2);
            }
            Err(e) => panic!("unexpected error {e:?}"),
        }
    }

    #[test]
    fn rejects_too_few_points() {
        let pts = vec![(F::element(1), F::one())];
        assert_eq!(
            bw_decode(&pts, 3, 0),
            Err(BwError::TooFewPoints { got: 1, need: 4 })
        );
    }

    #[test]
    fn rejects_duplicates() {
        let p = (F::element(1), F::one());
        let pts = vec![p, p, (F::element(2), F::zero()), (F::element(3), F::zero())];
        assert_eq!(bw_decode(&pts, 1, 1), Err(BwError::DuplicateAbscissa));
    }

    #[test]
    fn radius_clamped_by_point_count() {
        // m = t + 1 points: radius collapses to zero; clean data decodes.
        let mut rng = StdRng::seed_from_u64(4);
        let f = Poly::<F>::random(3, &mut rng);
        let pts = points_of(&f, 4);
        assert_eq!(bw_decode(&pts, 3, 3).unwrap(), f);
    }

    #[test]
    fn detects_degree_violation() {
        // Points from a degree-5 polynomial, decoded with t = 2 and no
        // error budget to hide behind.
        let mut rng = StdRng::seed_from_u64(5);
        let f = Poly::<F>::random(5, &mut rng);
        let pts = points_of(&f, 12);
        assert!(matches!(bw_decode(&pts, 2, 0), Err(BwError::DecodingFailed)));
    }

    #[test]
    fn zero_polynomial_decodes() {
        let pts: Vec<(F, F)> = (1..=7).map(|i| (F::element(i), F::zero())).collect();
        let f = bw_decode(&pts, 2, 2).unwrap();
        assert!(f.is_zero());
    }

    #[test]
    fn clean_word_costs_one_inversion_and_no_solve() {
        use dprbg_metrics::CostSnapshot;
        let mut rng = StdRng::seed_from_u64(6);
        let t = 3;
        let f = Poly::<F>::random(t, &mut rng);
        let mut pts = points_of(&f, 10);
        let before = CostSnapshot::capture();
        assert_eq!(bw_decode(&pts, t, t).unwrap(), f);
        let clean = CostSnapshot::capture().since(&before);
        assert_eq!(clean.interpolations, 1);
        assert_eq!(clean.field_invs, 1, "batch inversion of the t + 1 denominators");

        // A dirty word pays the same probe, then one pivot inversion per
        // solved column on top — and still one tick.
        pts[7].1 += F::one();
        let before = CostSnapshot::capture();
        assert_eq!(bw_decode(&pts, t, t).unwrap(), f);
        let dirty = CostSnapshot::capture().since(&before);
        assert_eq!(dirty.interpolations, 1);
        assert!(dirty.field_invs > 1 && dirty.field_muls > 4 * clean.field_muls);
    }

    /// `bw_decode` against the retained solver on one generated word:
    /// `errs` random values written into the first `t + 1` points
    /// (`placement` 0), the tail (1) or anywhere (2).
    fn assert_matches_solver<G: Field>(
        seed: u64,
        t: usize,
        m: usize,
        errs: usize,
        placement: usize,
        zero: bool,
        e_max: usize,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let f = if zero { Poly::<G>::zero() } else { Poly::random(t, &mut rng) };
        let mut pts: Vec<(G, G)> =
            (1..=m as u64).map(|i| (G::element(i), f.eval(G::element(i)))).collect();
        let mut idx: Vec<usize> = match placement {
            0 => (0..=t).collect(),
            1 => (t + 1..m).collect(),
            _ => (0..m).collect(),
        };
        idx.shuffle(&mut rng);
        for &i in idx.iter().take(errs) {
            pts[i].1 = G::random(&mut rng);
        }
        assert_eq!(
            bw_decode(&pts, t, e_max),
            solve_in_radius(&pts, t, e_max),
            "t={t} m={m} errs={errs} placement={placement} zero={zero} e_max={e_max}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn prop_fast_path_never_changes_the_answer(
            seed: u64,
            t in 1usize..4,
            slack in 0usize..10,
            errs in 0usize..5,
            placement in 0usize..3,
            zero: bool,
            full_radius: bool,
        ) {
            // m from t + 1 (radius 0) to 3t + 1 + 3; 0 ..= t + 1 errors.
            let m = t + 1 + slack.min(2 * t + 3);
            let errs = errs.min(t + 1);
            let e_max = if full_radius { t } else { 0 };
            // GF(2^8): a "corrupted" value often equals the true one.
            assert_matches_solver::<Gf2k<8>>(seed, t, m, errs, placement, zero, e_max);
            assert_matches_solver::<Gf2k<16>>(seed, t, m, errs, placement, zero, e_max);
            // Odd characteristic: signs matter.
            assert_matches_solver::<dprbg_field::Fp<101>>(seed, t, m, errs, placement, zero, e_max);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_decodes_with_random_error_patterns(
            seed: u64,
            t in 1usize..4,
            extra in 0usize..4,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let f = Poly::<F>::random(t, &mut rng);
            let n = (3 * t + 1 + extra) as u64;
            let mut pts = points_of(&f, n);
            // Corrupt up to t random positions with random values.
            let e = rng.random_range(0..=t);
            let mut idx: Vec<usize> = (0..pts.len()).collect();
            idx.shuffle(&mut rng);
            for &i in idx.iter().take(e) {
                pts[i].1 = F::random(&mut rng);
            }
            let decoded = bw_decode(&pts, t, t).unwrap();
            prop_assert_eq!(decoded, f);
        }
    }
}
