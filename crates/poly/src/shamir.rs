//! Shamir secret sharing [18] — the substrate of every VSS in the paper.
//!
//! "The most common way … is to employ the secret sharing scheme proposed
//! by Shamir, in which the secret is the value of a polynomial at the
//! origin, while the players' shares are the values of the polynomial
//! evaluated at the players' id's" (§1.3).

use dprbg_field::Field;
use dprbg_metrics::WireSize;
use dprbg_rng::Rng;

use crate::lagrange::lagrange_eval_at_zero;
use crate::poly::Poly;

/// One party's share: the pair `(i, f(i))` with `i` the party's evaluation
/// point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Share<F: Field> {
    /// The evaluation point (party id embedded in the field).
    pub x: F,
    /// The share value `f(x)`.
    pub y: F,
}

impl<F: Field> WireSize for Share<F> {
    fn wire_bytes(&self) -> usize {
        // Only the value travels; the abscissa is implied by the recipient.
        self.y.wire_bytes()
    }
}

/// Errors from the reconstruction functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShamirError {
    /// Fewer than `t + 1` shares were supplied.
    NotEnoughShares {
        /// Shares supplied.
        got: usize,
        /// Shares required.
        need: usize,
    },
    /// The supplied shares are mutually inconsistent (no degree-`t`
    /// polynomial explains them within the allowed number of errors).
    Inconsistent,
    /// Two shares claim the same evaluation point.
    DuplicateShare,
}

impl std::fmt::Display for ShamirError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShamirError::NotEnoughShares { got, need } => {
                write!(f, "need {need} shares, got {got}")
            }
            ShamirError::Inconsistent => write!(f, "shares are mutually inconsistent"),
            ShamirError::DuplicateShare => write!(f, "duplicate share evaluation point"),
        }
    }
}

impl std::error::Error for ShamirError {}

/// The dealer's polynomial: uniformly random of degree ≤ `t` with
/// `f(0) = secret`.
pub fn share_polynomial<F: Field, R: Rng + ?Sized>(secret: F, t: usize, rng: &mut R) -> Poly<F> {
    Poly::random_with_constant(secret, t, rng)
}

/// Evaluate the dealer's polynomial at party points `1..=n`.
///
/// # Panics
///
/// Panics if `n` does not embed into the field (need `order > n`).
pub fn share_points<F: Field>(poly: &Poly<F>, n: usize) -> Vec<Share<F>> {
    let xs: Vec<F> = party_points(n);
    let mut ys = vec![F::zero(); n];
    F::eval_points(poly.coeffs(), &xs, &mut ys);
    xs.into_iter().zip(ys).map(|(x, y)| Share { x, y }).collect()
}

/// The evaluation points of parties `1..=n`.
///
/// # Panics
///
/// Panics if `n` does not embed into the field (need `order > n`).
pub fn party_points<F: Field>(n: usize) -> Vec<F> {
    (1..=n as u64).map(F::element).collect()
}

/// The shares a per-party column holds (cell `j − 1` is party `j`'s,
/// `None` where it voiced none) as `(party point, share)` pairs, in party
/// order — how a decoder reads a receive-rule column. `points` are the
/// parties' points ([`party_points`]); cells past them are not read.
pub fn column_points<'a, F: Field>(
    points: &'a [F],
    column: &'a [Option<F>],
) -> impl Iterator<Item = (F, F)> + 'a {
    points.iter().zip(column).filter_map(|(&x, y)| Some((x, (*y)?)))
}

/// Reconstruct the secret from **error-free** shares.
///
/// Uses the first `t + 1` shares to interpolate and checks every remaining
/// share for consistency, so a corrupted share is *detected* (but not
/// corrected — decode with [`bw_decode`](crate::bw_decode) against
/// Byzantine shares).
///
/// # Errors
///
/// See [`ShamirError`].
#[expect(
    clippy::disallowed_methods,
    reason = "the consistency check of error-free shares, pinned as it stands"
)]
pub fn reconstruct_secret<F: Field>(shares: &[Share<F>], t: usize) -> Result<F, ShamirError> {
    if shares.len() < t + 1 {
        return Err(ShamirError::NotEnoughShares {
            got: shares.len(),
            need: t + 1,
        });
    }
    for (i, s) in shares.iter().enumerate() {
        if shares[i + 1..].iter().any(|o| o.x == s.x) {
            return Err(ShamirError::DuplicateShare);
        }
    }
    let pts: Vec<(F, F)> = shares.iter().map(|s| (s.x, s.y)).collect();
    if shares.len() == t + 1 {
        return lagrange_eval_at_zero(&pts).map_err(|_| ShamirError::Inconsistent);
    }
    // With extra shares, interpolate the full polynomial and verify.
    let f = crate::lagrange::interpolate(&pts[..t + 1]).map_err(|_| ShamirError::Inconsistent)?;
    for &(x, y) in &pts[t + 1..] {
        if f.eval(x) != y {
            return Err(ShamirError::Inconsistent);
        }
    }
    Ok(f.constant_term())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dprbg_field::Gf2k;
    use dprbg_rng::prelude::*;
    use dprbg_rng::rngs::StdRng;
    use dprbg_rng::SeedableRng;

    type F = Gf2k<32>;

    #[test]
    fn share_and_reconstruct() {
        let mut rng = StdRng::seed_from_u64(1);
        let secret = F::from_u64(0xC0FFEE);
        let t = 3;
        let f = share_polynomial(secret, t, &mut rng);
        let shares = share_points(&f, 10);
        assert_eq!(reconstruct_secret(&shares[..4], t).unwrap(), secret);
        assert_eq!(reconstruct_secret(&shares, t).unwrap(), secret);
    }

    #[test]
    fn column_points_are_the_voiced_cells_at_their_party_points() {
        let (a, b) = (F::from_u64(7), F::from_u64(9));
        let column = [None, Some(a), None, Some(b)];
        let got: Vec<(F, F)> = column_points(&party_points(4), &column).collect();
        assert_eq!(got, vec![(F::element(2), a), (F::element(4), b)]);
        assert_eq!(column_points::<F>(&party_points(2), &[None, None]).count(), 0);
    }

    #[test]
    fn too_few_shares_fail() {
        let mut rng = StdRng::seed_from_u64(2);
        let f = share_polynomial(F::one(), 3, &mut rng);
        let shares = share_points(&f, 10);
        assert_eq!(
            reconstruct_secret(&shares[..3], 3),
            Err(ShamirError::NotEnoughShares { got: 3, need: 4 })
        );
    }

    #[test]
    fn t_shares_reveal_nothing() {
        // Statistical check: with t shares fixed, every candidate secret
        // is consistent with *some* polynomial — i.e. t points plus a
        // hypothesised secret at 0 always interpolate.
        let mut rng = StdRng::seed_from_u64(3);
        let t = 2;
        let f = share_polynomial(F::from_u64(42), t, &mut rng);
        let shares = share_points(&f, 5);
        for candidate in [0u64, 1, 99, 12345] {
            let mut pts = vec![(F::zero(), F::from_u64(candidate))];
            pts.extend(shares[..t].iter().map(|s| (s.x, s.y)));
            // t+1 points always interpolate to a degree-≤t polynomial.
            assert!(crate::lagrange::interpolate(&pts).is_ok());
        }
    }

    #[test]
    fn detects_tampered_share() {
        let mut rng = StdRng::seed_from_u64(4);
        let t = 2;
        let f = share_polynomial(F::from_u64(7), t, &mut rng);
        let mut shares = share_points(&f, 6);
        shares[5].y += F::one();
        assert_eq!(reconstruct_secret(&shares, t), Err(ShamirError::Inconsistent));
    }

    #[test]
    fn duplicate_share_detected() {
        let mut rng = StdRng::seed_from_u64(5);
        let f = share_polynomial(F::one(), 1, &mut rng);
        let shares = share_points(&f, 3);
        let dup = vec![shares[0], shares[0], shares[1]];
        assert_eq!(reconstruct_secret(&dup, 1), Err(ShamirError::DuplicateShare));
    }

    #[test]
    fn robust_reconstruction_corrects_byzantine_shares() {
        let mut rng = StdRng::seed_from_u64(6);
        let t = 3;
        let n = 3 * t + 1;
        let secret = F::from_u64(0xABCD);
        let f = share_polynomial(secret, t, &mut rng);
        let mut shares = share_points(&f, n);
        // t Byzantine parties send garbage.
        for s in shares.iter_mut().take(t) {
            s.y = F::random(&mut rng);
        }
        // The paper's reconstruction path: "This enables us to use the
        // Berlekamp-Welch decoder to compute the desired polynomial" (Thm. 1).
        let pts: Vec<(F, F)> = shares.iter().map(|s| (s.x, s.y)).collect();
        let g = crate::bw_decode(&pts, t, t).unwrap();
        assert_eq!(g, f);
        assert_eq!(g.constant_term(), secret);
    }

    #[test]
    fn share_wire_size_is_one_element() {
        let s = Share { x: F::one(), y: F::one() };
        assert_eq!(s.wire_bytes(), 4);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_roundtrip_any_subset(seed: u64, t in 1usize..5) {
            let mut rng = StdRng::seed_from_u64(seed);
            let secret = F::random(&mut rng);
            let f = share_polynomial(secret, t, &mut rng);
            let n = 3 * t + 1;
            let shares = share_points(&f, n);
            // Any contiguous window of t+1 shares reconstructs.
            for start in 0..=(n - t - 1) {
                let window = &shares[start..start + t + 1];
                prop_assert_eq!(reconstruct_secret(window, t).unwrap(), secret);
            }
        }
    }
}
