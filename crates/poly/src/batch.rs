//! Batched Berlekamp–Welch decode: many sharings over one abscissa set.
//!
//! The paper's whole construction amortizes fixed distributed cost over
//! many coins — and the local decode work amortizes the same way. Every
//! coin in a batch is reconstructed from shares held by the *same* party
//! set, i.e. the interpolation abscissas are identical across the batch;
//! only the y-values change. [`BatchDecoder`] hoists everything that
//! depends only on the abscissas out of the per-sharing loop.
//!
//! [`bw_decode`](crate::bw_decode) already returns a clean word's
//! interpolant without touching the `O(m³)` linear solve, but rebuilds
//! the Lagrange basis over the first `t + 1` abscissas (`O(t²)`
//! multiplications, one inversion) on every call. The decoder builds it
//! once; each sharing then costs a `t + 1`-term linear combination plus
//! the same verification against all `m` points, and a dirty word goes to
//! the same solver stage — so the result is always exactly what
//! `bw_decode` would return.
//!
//! Cost accounting: each decoded sharing still ticks exactly one
//! interpolation (the paper's headline unit), so "interpolations per
//! player" is unchanged by batching — only the field-op cost *inside*
//! each interpolation shrinks. All arithmetic goes through counted
//! [`Field`] operations.

use dprbg_field::Field;
use dprbg_metrics::ops;

use crate::berlekamp_welch::{solve_in_radius, BwError};
use crate::lagrange::LagrangeBasis;
use crate::poly::Poly;

/// A reusable Berlekamp–Welch decoder for a fixed abscissa set.
///
/// Semantically identical to calling [`bw_decode`](crate::bw_decode) per
/// word with the same `t` and `e_max`; the shared precomputation only
/// changes speed.
#[derive(Debug, Clone)]
pub struct BatchDecoder<F: Field> {
    xs: Vec<F>,
    t: usize,
    e_max: usize,
    /// Lagrange basis over the first `t + 1` abscissas: a clean word's
    /// codeword is `basis.combine(ys)`.
    basis: LagrangeBasis<F>,
}

impl<F: Field> BatchDecoder<F> {
    /// Precompute the shared candidate basis for `xs`.
    ///
    /// # Errors
    ///
    /// [`BwError::TooFewPoints`] if fewer than `t + 1` abscissas,
    /// [`BwError::DuplicateAbscissa`] if any repeat — the same conditions
    /// [`bw_decode`](crate::bw_decode) reports per call.
    pub fn new(xs: &[F], t: usize, e_max: usize) -> Result<Self, BwError> {
        let m = xs.len();
        if m < t + 1 {
            return Err(BwError::TooFewPoints { got: m, need: t + 1 });
        }
        for (i, xi) in xs.iter().enumerate() {
            if xs[i + 1..].iter().any(|xj| xj == xi) {
                return Err(BwError::DuplicateAbscissa);
            }
        }
        let basis = LagrangeBasis::new(&xs[..=t]);
        Ok(BatchDecoder { xs: xs.to_vec(), t, e_max, basis })
    }

    /// The abscissas this decoder was built for.
    #[must_use]
    pub fn xs(&self) -> &[F] {
        &self.xs
    }

    /// Decode one word; returns exactly what
    /// `bw_decode(zip(xs, ys), t, e_max)` returns.
    ///
    /// The candidate through the first `t + 1` points is checked against
    /// all `m`; zero disagreements means it *is* the unique degree-≤`t`
    /// polynomial through every point. Any disagreement goes to the linear
    /// solve. One interpolation tick either way.
    ///
    /// # Errors
    ///
    /// See [`BwError`].
    ///
    /// # Panics
    ///
    /// Panics if `ys.len()` differs from the decoder's abscissa count.
    pub fn decode(&self, ys: &[F]) -> Result<Poly<F>, BwError> {
        self.decode_flagged(ys).map(|(f, _)| f)
    }

    /// [`decode`](Self::decode), also saying whether the word was clean:
    /// `true` iff every point lies on the returned polynomial, i.e. the
    /// candidate was accepted without the linear solve. A solved word
    /// always has a point off its result (a degree-≤`t` polynomial
    /// through all `m > t` points would be the candidate), so the flag
    /// certifies every `(x, y)` without another evaluation.
    ///
    /// # Errors
    ///
    /// See [`BwError`].
    ///
    /// # Panics
    ///
    /// Panics if `ys.len()` differs from the decoder's abscissa count.
    pub fn decode_flagged(&self, ys: &[F]) -> Result<(Poly<F>, bool), BwError> {
        assert_eq!(ys.len(), self.xs.len(), "one y-value per abscissa");
        ops::count_interpolation(1);
        let candidate = self.basis.combine(ys.iter().copied());
        if F::matching_prefix(candidate.coeffs(), &self.xs, ys) == ys.len() {
            return Ok((candidate, true));
        }
        let points: Vec<(F, F)> = self.xs.iter().copied().zip(ys.iter().copied()).collect();
        solve_in_radius(&points, self.t, self.e_max).map(|f| (f, false))
    }

    /// Decode many words in one call.
    ///
    /// # Panics
    ///
    /// Panics if any row's length differs from the decoder's.
    pub fn decode_many(&self, words: &[Vec<F>]) -> Vec<Result<Poly<F>, BwError>> {
        words.iter().map(|ys| self.decode(ys)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::berlekamp_welch::bw_decode;
    use dprbg_field::Gf2k;
    use dprbg_metrics::CostSnapshot;
    use dprbg_rng::prelude::*;
    use dprbg_rng::rngs::StdRng;
    use dprbg_rng::seq::SliceRandom;
    use dprbg_rng::{RngExt, SeedableRng};

    type F = Gf2k<16>;

    fn abscissas(m: u64) -> Vec<F> {
        (1..=m).map(F::element).collect()
    }

    fn word_of(f: &Poly<F>, xs: &[F]) -> Vec<F> {
        xs.iter().map(|&x| f.eval(x)).collect()
    }

    #[test]
    fn decoder_matches_bw_on_clean_words() {
        let mut rng = StdRng::seed_from_u64(21);
        let t = 3;
        let xs = abscissas(10);
        let dec = BatchDecoder::new(&xs, t, t).unwrap();
        for _ in 0..10 {
            let f = Poly::<F>::random(t, &mut rng);
            let ys = word_of(&f, &xs);
            assert_eq!(dec.decode(&ys).unwrap(), f);
        }
    }

    #[test]
    fn decoder_matches_bw_on_errored_words() {
        let mut rng = StdRng::seed_from_u64(22);
        let t = 2;
        let xs = abscissas(7); // m = 3t + 1
        let dec = BatchDecoder::new(&xs, t, t).unwrap();
        for trial in 0..20 {
            let f = Poly::<F>::random(t, &mut rng);
            let mut ys = word_of(&f, &xs);
            let e = rng.random_range(0..=t);
            let mut idx: Vec<usize> = (0..ys.len()).collect();
            idx.shuffle(&mut rng);
            for &i in idx.iter().take(e) {
                ys[i] = F::random(&mut rng);
            }
            let points: Vec<(F, F)> = xs.iter().copied().zip(ys.iter().copied()).collect();
            assert_eq!(
                dec.decode(&ys),
                bw_decode(&points, t, t),
                "trial {trial}: batched decode diverged from bw_decode"
            );
        }
    }

    #[test]
    fn decoder_fails_like_bw_beyond_radius() {
        let mut rng = StdRng::seed_from_u64(23);
        let t = 2;
        let xs = abscissas(7);
        let dec = BatchDecoder::new(&xs, t, t).unwrap();
        let f = Poly::<F>::random(t, &mut rng);
        let mut ys = word_of(&f, &xs);
        for y in ys.iter_mut().take(4) {
            *y += F::from_u64(0x5EED);
        }
        let points: Vec<(F, F)> = xs.iter().copied().zip(ys.iter().copied()).collect();
        assert_eq!(dec.decode(&ys), bw_decode(&points, t, t));
    }

    #[test]
    fn decoder_rejects_bad_abscissas() {
        assert_eq!(
            BatchDecoder::new(&abscissas(3), 3, 3).unwrap_err(),
            BwError::TooFewPoints { got: 3, need: 4 }
        );
        assert_eq!(
            BatchDecoder::new(&[F::one(), F::one(), F::element(2), F::element(3)], 1, 1)
                .unwrap_err(),
            BwError::DuplicateAbscissa
        );
    }

    #[test]
    fn decoder_ticks_one_interpolation_per_clean_word() {
        let mut rng = StdRng::seed_from_u64(24);
        let t = 2;
        let xs = abscissas(7);
        let before = CostSnapshot::capture();
        let dec = BatchDecoder::new(&xs, t, t).unwrap();
        let setup = CostSnapshot::capture().since(&before);
        assert_eq!(setup.field_invs, 1, "batch inversion: one inv for the whole basis");
        assert_eq!(setup.interpolations, 0, "setup is not an interpolation");
        let words: Vec<Vec<F>> =
            (0..4).map(|_| word_of(&Poly::<F>::random(t, &mut rng), &xs)).collect();
        let before = CostSnapshot::capture();
        let out = dec.decode_many(&words);
        let d = CostSnapshot::capture().since(&before);
        assert!(out.iter().all(Result::is_ok));
        assert_eq!(d.interpolations, 4);
        assert_eq!(d.field_invs, 0, "clean words never hit the linear solve");

        // A dirty word goes straight to the solver: still exactly one tick.
        let mut dirty = words[0].clone();
        dirty[5] += F::one();
        let before = CostSnapshot::capture();
        assert_eq!(dec.decode(&dirty), out[0]);
        assert_eq!(CostSnapshot::capture().since(&before).interpolations, 1);
    }

    /// The clean-word check is charged like the loop it replaced: every
    /// point up to and including the first one off the candidate, at the
    /// candidate's (trimmed) length per point — whether the first
    /// disagreement is the first point past the basis, a middle one, or
    /// the last.
    #[test]
    fn clean_word_check_charges_up_to_the_first_disagreement() {
        fn check<G: Field>(seed: u64) {
            let cost = |f: &mut dyn FnMut()| {
                let guard = dprbg_metrics::OpsGuard::start();
                f();
                guard.finish()
            };
            let mut rng = StdRng::seed_from_u64(seed);
            let (t, m) = (3, 19);
            let xs: Vec<G> = (1..=m as u64).map(G::element).collect();
            let dec = BatchDecoder::new(&xs, t, t).unwrap();
            let f = Poly::<G>::random(t, &mut rng);
            let clean: Vec<G> = xs.iter().map(|&x| f.eval(x)).collect();
            for first_wrong in [None, Some(t + 1), Some(m / 2), Some(m - 1)] {
                let mut ys = clean.clone();
                if let Some(i) = first_wrong {
                    ys[i] += G::one();
                    // A later error must not be charged for.
                    if i < m - 1 {
                        ys[m - 1] += G::one();
                    }
                }
                let points: Vec<(G, G)> = xs.iter().copied().zip(ys.iter().copied()).collect();
                let mut decoded = None;
                let total = cost(&mut || decoded = Some(dec.decode(&ys)));
                assert_eq!(decoded, Some(Ok(f.clone())), "{}: {first_wrong:?}", G::NAME);
                let combine = cost(&mut || drop(dec.basis.combine(ys.iter().copied())));
                let solve = match first_wrong {
                    Some(_) => cost(&mut || drop(solve_in_radius(&points, t, t))),
                    None => CostSnapshot::default(),
                };
                let evaluated = first_wrong.map_or(m, |i| i + 1) as u64;
                let per_point = f.coeffs().len() as u64;
                assert_eq!(
                    total.field_muls - combine.field_muls - solve.field_muls,
                    per_point * evaluated,
                    "{}: first disagreement at {first_wrong:?}",
                    G::NAME
                );
                assert_eq!(
                    total.field_adds - combine.field_adds - solve.field_adds,
                    per_point * evaluated,
                    "{}: first disagreement at {first_wrong:?}",
                    G::NAME
                );
            }
        }
        check::<Gf2k<8>>(8);
        check::<Gf2k<32>>(32);
        check::<Gf2k<64>>(64);
        check::<dprbg_field::Fp<101>>(101);
    }

    /// 32 clean words at n = 13, t = 2 under the widest radius
    /// (n − t − 1)/2, then the first 4 with t values overwritten each (the
    /// linear solve): per-call `bw_decode` returns the dealt polynomial
    /// for every word, and one shared-basis decoder returns the same.
    #[test]
    fn e13_batch_decode_agrees_with_naive() {
        let mut rng = StdRng::seed_from_u64(9);
        let (n, t) = (13, 2);
        let e_max = (n - t - 1) / 2;
        let xs = abscissas(n as u64);
        let polys: Vec<Poly<F>> = (0..32).map(|_| Poly::random(t, &mut rng)).collect();
        let clean: Vec<Vec<F>> = polys.iter().map(|f| word_of(f, &xs)).collect();
        let dirty: Vec<Vec<F>> = clean[..4]
            .iter()
            .map(|ys| {
                let mut ys = ys.clone();
                for _ in 0..t {
                    ys[rng.random_range(0..n)] = F::random(&mut rng);
                }
                ys
            })
            .collect();
        let per_call = |ys: &Vec<F>| {
            let points: Vec<(F, F)> = xs.iter().copied().zip(ys.iter().copied()).collect();
            bw_decode(&points, t, e_max)
        };
        let dec = BatchDecoder::new(&xs, t, e_max).unwrap();
        for batch in [&clean, &dirty] {
            let naive: Vec<_> = batch.iter().map(per_call).collect();
            let dealt: Vec<_> = polys[..batch.len()].iter().cloned().map(Ok).collect();
            assert_eq!(naive, dealt, "bw_decode must return the dealt polynomials");
            assert_eq!(dec.decode_many(batch), naive, "BatchDecoder must reproduce bw_decode");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_batch_decoder_always_equals_bw(seed: u64, t in 1usize..4, errs in 0usize..5) {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = 3 * t + 1;
            let xs = abscissas(m as u64);
            let dec = BatchDecoder::new(&xs, t, t).unwrap();
            let f = Poly::<F>::random(t, &mut rng);
            let mut ys = word_of(&f, &xs);
            let mut idx: Vec<usize> = (0..m).collect();
            idx.shuffle(&mut rng);
            for &i in idx.iter().take(errs.min(m)) {
                ys[i] = F::random(&mut rng);
            }
            let points: Vec<(F, F)> = xs.iter().copied().zip(ys.iter().copied()).collect();
            prop_assert_eq!(dec.decode(&ys), bw_decode(&points, t, t));
        }
    }
}
