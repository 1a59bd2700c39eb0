//! E6 — Soundness and unanimity error rates (Lemmas 1, 3, 5; Theorem 1).
//!
//! Paper claims:
//! - Lemma 1: a cheating single-VSS dealer survives with probability
//!   ≤ `1/p`;
//! - Lemma 3: a cheating batch dealer (any number of bad polynomials)
//!   survives with probability ≤ `M/p`;
//! - Lemma 5: the same bound for Bit-Gen's point-to-point acceptance;
//! - Theorem 1 / unanimity: with ≤ t corrupted shares the exposed coin is
//!   reconstructed identically by everyone, "unanimous except for a
//!   probability of error less than Mn2^-k".
//!
//! The bounds are only *visible* over a small field, so the soundness
//! trials run over GF(2^8) (`p = 256`) where `M/p` is percent-scale,
//! using the pure verification judgment (no network) for speed; the
//! unanimity trials drive a full [`ExposeMachine`] fleet — one machine
//! per party, corrupted and abstaining parties included — under the
//! single-threaded [`StepRunner`], and a trial fails unless **every**
//! party (Theorem 1 is a statement about all honest players, and a
//! corrupted *share* does not make its holder's decoder dishonest)
//! reconstructs the dealt value.

use dprbg_core::batch_vss::{cheating_batch_deal, judge_batch};
use dprbg_core::{
    CoinError, ExposeMachine, ExposeMsg, ExposeVia, SealedShare, VssMode, VssVerdict,
};
use dprbg_field::{Field, Gf2k};
use dprbg_metrics::Table;
use dprbg_poly::{share_points, share_polynomial, Poly};
use dprbg_rng::rngs::StdRng;
use dprbg_rng::SeedableRng;
use dprbg_sim::{BoxedMachine, StepRunner};

use super::common::{fmt_f, ExperimentCtx};

type F8 = Gf2k<8>;

/// Empirical acceptance rate of a cheating batch dealer over GF(2^8).
///
/// `bad_count` of the `m` polynomials have degree t+1; the challenge `r`
/// is drawn after the shares are fixed, exactly the Lemma 1/3 game.
pub fn batch_cheat_rate(n: usize, t: usize, m: usize, bad: usize, trials: usize, seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut accepts = 0usize;
    for _ in 0..trials {
        let shares = cheating_batch_deal::<F8, _>(n, t, m, bad, &mut rng);
        let r = F8::random(&mut rng);
        let pts: Vec<(F8, F8)> = shares
            .iter()
            .enumerate()
            .map(|(i, s)| {
                (
                    F8::element(i as u64 + 1),
                    dprbg_core::horner_combine(&s.alphas, s.gamma, r),
                )
            })
            .collect();
        if judge_batch(&pts, n, t, VssMode::Strict) == VssVerdict::Accept {
            accepts += 1;
        }
    }
    accepts as f64 / trials as f64
}

/// Empirical unanimity-failure rate of Coin-Expose under `corrupt`
/// corrupted and `absent` abstaining parties (expected: zero within the
/// model).
///
/// Each trial runs the full Fig. 6 protocol as an [`ExposeMachine`] per
/// party under the single-threaded [`StepRunner`]: the first `corrupt`
/// parties hold (and send) a random wrong share, the last `absent`
/// parties abstain, and the trial counts as a failure unless every party
/// decodes the dealt value.
pub fn expose_failure_rate(
    n: usize,
    t: usize,
    corrupt: usize,
    absent: usize,
    trials: usize,
    seed: u64,
) -> f64 {
    type Out = Result<F8, CoinError>;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut failures = 0usize;
    for trial in 0..trials {
        let value = F8::random(&mut rng);
        let poly = share_polynomial(value, t, &mut rng);
        let mut shares: Vec<SealedShare<F8>> = share_points(&poly, n)
            .into_iter()
            .map(|s| SealedShare::of(s.y))
            .collect();
        // The first `corrupt` parties hold random wrong shares; the last
        // `absent` parties cannot vouch and send nothing.
        for s in shares.iter_mut().take(corrupt) {
            *s = SealedShare::of(F8::random(&mut rng));
        }
        for s in shares.iter_mut().skip(n - absent) {
            *s = SealedShare::absent();
        }
        let machines: Vec<BoxedMachine<ExposeMsg<F8>, Out>> = shares
            .into_iter()
            .map(|s| {
                Box::new(ExposeMachine::new(s, t, ExposeVia::PointToPoint))
                    as BoxedMachine<ExposeMsg<F8>, Out>
            })
            .collect();
        let res = StepRunner::new(n, seed.wrapping_add(trial as u64)).run(machines);
        if !res.unwrap_all().into_iter().all(|out| out == Ok(value)) {
            failures += 1;
        }
    }
    failures as f64 / trials as f64
}

/// A cheating single-VSS dealer over GF(2^8) with an adversarially chosen
/// masking polynomial (the literal Lemma-1 game: f and g fixed, then r).
pub fn single_vss_cheat_rate(n: usize, t: usize, trials: usize, seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut accepts = 0usize;
    for _ in 0..trials {
        let f = Poly::<F8>::random(t + 1, &mut rng);
        let g = Poly::<F8>::random(t, &mut rng);
        let r = F8::random(&mut rng);
        let pts: Vec<(F8, F8)> = (1..=n as u64)
            .map(|i| {
                let x = F8::element(i);
                (x, f.eval(x) + r * g.eval(x))
            })
            .collect();
        let verdict = match dprbg_poly::interpolate(&pts) {
            Ok(p) if p.degree().is_none_or(|d| d <= t) => VssVerdict::Accept,
            _ => VssVerdict::Reject,
        };
        if verdict == VssVerdict::Accept {
            accepts += 1;
        }
    }
    accepts as f64 / trials as f64
}

/// Run E6 and render its tables.
pub fn run(ctx: &ExperimentCtx) -> Vec<Table> {
    let trials = if ctx.quick { 4_000 } else { 40_000 };
    let n = 4;
    let t = 1;
    let p = 256.0;

    let mut sound = Table::new(
        &format!("E6a: cheating-dealer acceptance over GF(2^8), {trials} trials (Lemmas 1, 3, 5)"),
        &["measured", "paper bound", "within bound"],
    );
    let r1 = single_vss_cheat_rate(n, t, trials, ctx.seed);
    // The degree-(t+1) cheat has a 1/p chance of a zero leading
    // coefficient (not a cheat at all) plus ≤1/p cancellation: bound 2/p.
    sound.row(
        "single VSS (deg t+1)",
        &[
            fmt_f(r1),
            fmt_f(2.0 / p),
            (r1 <= 2.5 / p).to_string(),
        ],
    );
    for &m in ctx.sweep(&[4usize, 16, 64], &[4, 16]) {
        let r = batch_cheat_rate(n, t, m, m, trials, ctx.seed + m as u64);
        // Bad polys sampled with degree ≤ t+1: each has 1/p chance of
        // being accidentally valid; the combination bound is (M+1)/p.
        let bound = (m as f64 + 1.0) / p;
        sound.row(
            &format!("batch M={m} (all bad)"),
            &[fmt_f(r), fmt_f(bound), (r <= bound * 1.6).to_string()],
        );
        let r_one = batch_cheat_rate(n, t, m, 1, trials, ctx.seed + 500 + m as u64);
        sound.row(
            &format!("batch M={m} (1 bad)"),
            &[fmt_f(r_one), fmt_f(2.0 / p), (r_one <= 3.0 / p).to_string()],
        );
    }

    let mut unan = Table::new(
        &format!("E6b: Coin-Expose unanimity failures, {trials} trials (Theorem 1)"),
        &["failure rate", "expected"],
    );
    for &(n2, t2, c, a) in &[(7usize, 1usize, 1usize, 0usize), (7, 1, 1, 1), (13, 2, 2, 2)] {
        let r = expose_failure_rate(n2, t2, c, a, trials / 4, ctx.seed + (n2 + c) as u64);
        unan.row(
            &format!("n={n2:<2} t={t2} corrupt={c} absent={a}"),
            &[fmt_f(r), "0".into()],
        );
    }
    // Beyond the model: t+1 corruptions — decode should now fail or err
    // visibly (never silently wrong), reported for context.
    let r_over = expose_failure_rate(7, 1, 2, 0, trials / 4, ctx.seed + 999);
    unan.row(
        "n=7  t=1 corrupt=2 (beyond bound)",
        &[fmt_f(r_over), "> 0 (out of model)".into()],
    );

    vec![sound, unan]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::common::assert_golden;

    #[test]
    fn e6_soundness_within_bounds() {
        let trials = 3_000;
        let r1 = single_vss_cheat_rate(4, 1, trials, 1);
        assert!(r1 <= 3.0 / 256.0, "single VSS cheat rate {r1}");
        let r16 = batch_cheat_rate(4, 1, 16, 16, trials, 2);
        assert!(r16 <= 1.7 * 17.0 / 256.0, "batch cheat rate {r16}");
        // And the rates are not trivially zero: over GF(2^8) cheats do
        // sometimes survive — that's why the paper keeps k large.
        let r64 = batch_cheat_rate(4, 1, 64, 64, trials, 3);
        assert!(r64 > 0.0, "with M=64, p=256 some cheats must land");
    }

    #[test]
    fn e6_unanimity_perfect_within_model() {
        assert_eq!(expose_failure_rate(7, 1, 1, 0, 2_000, 4), 0.0);
        assert_eq!(expose_failure_rate(13, 2, 2, 2, 1_000, 5), 0.0);
    }

    #[test]
    fn e6_renders() {
        let tables = run(&ExperimentCtx::new(true));
        assert_eq!(tables.len(), 2);
        assert!(tables[0].render().contains("single VSS"));
        assert_golden(&tables);
    }
}
