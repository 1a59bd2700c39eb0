//! Protocol VSS (Fig. 2): single-secret verifiable secret sharing.
//!
//! §3 model: broadcast channel available, `n ≥ 3t + 1`. The dealer has
//! distributed shares `α_i = f(i)` of a degree-≤t polynomial; the players
//! verify the sharing *without revealing their shares*:
//!
//! 1. The dealer shares an additional random polynomial `g(x)`, giving
//!    each `P_i` a masking share `γ_i = g(i)`.
//! 2. `r ← Coin-Expose(k-ary-coin)` — a random public challenge that the
//!    dealer could not predict at dealing time.
//! 3. `P_i` broadcasts `β_i = α_i + r·γ_i` (one multiplication, one
//!    addition — the blinded share reveals nothing about `α_i`).
//! 4. Interpolate `F(x)` through `β_1 … β_n`; accept iff `deg(F) ≤ t`.
//!
//! Soundness (Lemma 1): if no degree-≤t polynomial fits the honest
//! players' shares, a cheating dealer passes with probability ≤ `1/p` —
//! the masking coefficient would have to equal `−a_j/r` for an `r` chosen
//! *after* `g` was fixed.
//!
//! Cost (Lemma 2): `n + O(k log k)` additions and **2 interpolations** per
//! player, 2 communication rounds (after dealing), `2n` messages of size
//! `k` = `2nk` bits.
//!
//! [`VssMode`] selects the acceptance rule: `Strict` is Fig. 2 verbatim
//! (interpolate through all `n` broadcast values — appropriate when the
//! *verifiers* are honest, the setting of the paper's cost lemmas);
//! `Robust` accepts iff a degree-≤t polynomial matches ≥ `n − t` of the
//! broadcasts (the Bit-Gen-style rule, §4), so ≤ t faulty *verifiers*
//! cannot frame an honest dealer.
//!
//! Fig. 2 is Fig. 3 at `M = 1`, and runs as such on Bit-Gen's machine
//! ([`crate::BitGenMachine`], one dealer, broadcast transport): [`vss`]
//! deals and verifies, and Fig. 3's
//! [`batch_vss_verify`](crate::batch_vss::batch_vss_verify) at `M = 1`
//! verifies held shares (steps 2–4: 2 rounds, the two interpolations of
//! Lemma 2). One visible consequence: the revealed combination is Fig.
//! 3's `γ_i + r·α_i` rather than Fig. 2's `α_i + r·γ_i` — the same
//! blinding, Lemma 3's soundness bound at `M = 1`, one more addition.
//! (E6a measures this combination.)

use dprbg_field::Field;
use dprbg_metrics::WireSize;
use dprbg_sim::{Embeds, MachineExt, PartyId, RoundMachine};

use crate::batch_vss::{outcome, BatchShares};
use crate::bit_gen::{BitGenMachine, BitGenMsg, Start};
use crate::coin::{ExposeMsg, SealedShare};
use crate::errors::CoinError;

/// The verification outcome (all honest players output the same verdict
/// when the broadcasts are consistent).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VssVerdict {
    /// A valid degree-≤t sharing exists.
    Accept,
    /// No valid sharing — the dealer is disqualified.
    Reject,
}

impl VssVerdict {
    pub(crate) fn of(accepted: bool) -> Self {
        if accepted { VssVerdict::Accept } else { VssVerdict::Reject }
    }
}

/// Acceptance rule for step 4 — see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum VssMode {
    /// Fig. 2 verbatim: all `n` broadcast values must interpolate to
    /// degree ≤ t.
    #[default]
    Strict,
    /// Accept iff some degree-≤t polynomial matches ≥ `n − t` broadcasts.
    Robust,
}

/// Protocol VSS (Fig. 2), dealing included — 3 rounds. `dealer` shares
/// `secret_if_dealer` (`Some` only at the dealer itself; a dealer without
/// one stays silent and is rejected). The output carries the verdict with
/// the shares this party now holds, and propagates [`CoinError`] from the
/// challenge expose.
pub fn vss<M, F>(
    dealer: PartyId,
    secret_if_dealer: Option<F>,
    t: usize,
    coin: SealedShare<F>,
    mode: VssMode,
) -> impl RoundMachine<M, Output = Result<(VssVerdict, BatchShares<F>), CoinError>>
where
    M: Clone + WireSize + Embeds<ExposeMsg<F>> + Embeds<BitGenMsg<F>>,
    F: Field,
{
    let start = Start::Deal(secret_if_dealer.map(|s| vec![s]));
    BitGenMachine::broadcast(dealer, t, 1, coin, mode.into(), start)
        .map(move |res| res.map(|run| outcome(run, dealer)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch_vss::tests::verify_fleet;
    use crate::batch_vss::{cheating_batch_deal, horner_combine};
    use crate::bit_gen::{judge, rewriting, Acceptance};
    use crate::dealer::TrustedDealer;
    use dprbg_field::Gf2k;
    use dprbg_poly::{party_points, share_polynomial as spoly, Poly};
    use dprbg_rng::rngs::StdRng;
    use dprbg_rng::SeedableRng;
    use dprbg_sim::{from_fn, BoxedMachine, FaultPlan, RoundView, Step, StepRunner};

    type F = Gf2k<32>;
    type M = BitGenMsg<F>;

    fn run_vss(
        n: usize,
        t: usize,
        seed: u64,
        mode: VssMode,
    ) -> Vec<Result<(VssVerdict, BatchShares<F>), CoinError>> {
        let coins = TrustedDealer::coin_shares::<F>(n, t, seed.wrapping_add(1000));
        let fleet: Vec<BoxedMachine<M, Result<(VssVerdict, BatchShares<F>), CoinError>>> =
            (1..=n)
                .map(|id| {
                    let secret = (id == 1).then(|| F::from_u64(0xC0FFEE));
                    Box::new(vss(1, secret, t, coins[id - 1], mode)) as BoxedMachine<M, _>
                })
                .collect();
        StepRunner::new(n, seed).run(fleet).unwrap_all()
    }

    #[test]
    fn honest_dealer_accepted_strict_and_robust() {
        for mode in [VssMode::Strict, VssMode::Robust] {
            for (id, out) in run_vss(7, 2, 1, mode).into_iter().enumerate() {
                let (verdict, _) = out.unwrap();
                assert_eq!(verdict, VssVerdict::Accept, "party {} under {mode:?}", id + 1);
            }
        }
    }

    #[test]
    fn shares_reconstruct_the_secret() {
        let outs = run_vss(7, 2, 2, VssMode::Strict);
        let shares: Vec<dprbg_poly::Share<F>> = outs
            .iter()
            .enumerate()
            .map(|(i, o)| dprbg_poly::Share {
                x: F::element(i as u64 + 1),
                y: o.as_ref().unwrap().1.alphas[0],
            })
            .collect();
        assert_eq!(
            dprbg_poly::reconstruct_secret(&shares, 2).unwrap(),
            F::from_u64(0xC0FFEE)
        );
    }

    #[test]
    fn high_degree_dealer_rejected() {
        // Dealer shares a degree-(t+1) polynomial: every honest party must
        // reject (w.p. 1 − 2/p; the challenge field is 2^32 so the test is
        // deterministic in practice). Dealing already happened
        // out-of-band (cheating dealer); every party verifies directly.
        let (n, t) = (7, 2);
        let mut rng = StdRng::seed_from_u64(43);
        let bad_shares = cheating_batch_deal::<F, _>(n, t, 1, 1, &mut rng);
        let fleet = verify_fleet(t, 1, bad_shares, 42, &Acceptance::Strict);
        for out in StepRunner::new(n, 44).run(fleet).unwrap_all() {
            assert_eq!(out.unwrap(), VssVerdict::Reject);
        }
    }

    #[test]
    fn silent_dealer_rejected() {
        let n = 4;
        let t = 1;
        let coins = TrustedDealer::coin_shares::<F>(n, t, 50);
        let fleet: Vec<BoxedMachine<M, Result<VssVerdict, CoinError>>> = (1..=n)
            .map(|id| {
                let coin = coins[id - 1];
                if id == 1 {
                    // Dealer crashes before dealing.
                    Box::new(from_fn(|_view: RoundView<'_, M>| {
                        Step::Done(Ok(VssVerdict::Reject))
                    })) as BoxedMachine<M, _>
                } else {
                    Box::new(
                        vss(1, None, t, coin, VssMode::Strict).map(|res| res.map(|(v, _)| v)),
                    )
                }
            })
            .collect();
        let res = StepRunner::new(n, 51).run(fleet);
        for id in 2..=n {
            assert_eq!(res.outputs[id - 1], Some(Ok(VssVerdict::Reject)));
        }
    }

    #[test]
    fn robust_mode_survives_faulty_verifier() {
        // An honest dealer with one Byzantine *verifier* broadcasting a
        // garbage β: Strict rejects (can't tell who lied), Robust accepts.
        let n = 7;
        let t = 2;
        for (mode, expected) in [(VssMode::Strict, VssVerdict::Reject), (VssMode::Robust, VssVerdict::Accept)]
        {
            let coins = TrustedDealer::coin_shares::<F>(n, t, 60);
            let plan = FaultPlan::explicit(n, vec![5]);
            let fleet = plan.machines::<M, Option<VssVerdict>>(
                |id| {
                    let coin = coins[id - 1];
                    let secret = (id == 1).then(|| F::from_u64(7));
                    Box::new(vss(1, secret, t, coin, mode).map(|res| res.ok().map(|(v, _)| v)))
                },
                |id| {
                    // Honest up to the β, which it replaces with garbage.
                    let honest = vss(1, None, t, coins[id - 1], mode);
                    Box::new(rewriting(honest.map(|_| None), |_, _, out| {
                        out.map(|msg| match msg {
                            BitGenMsg::Beta(_) => BitGenMsg::Beta(F::from_u64(0xBAD)),
                            other => other,
                        })
                    }))
                },
            );
            let res = StepRunner::new(n, 61).run(fleet);
            for id in plan.honest() {
                assert_eq!(
                    res.outputs[id - 1],
                    Some(Some(expected)),
                    "party {id} in {mode:?}"
                );
            }
        }
    }

    #[test]
    fn robust_mode_accepts_only_at_n_minus_t_fits() {
        // n = 7, t = 2: Robust accepts iff some degree-≤2 polynomial fits
        // at least n − t = 5 of the broadcasts that arrived.
        let (n, t) = (7, 2);
        let mut rng = StdRng::seed_from_u64(80);
        let f = Poly::<F>::random(t, &mut rng);
        let mut on_f = vec![F::zero(); n];
        F::eval_points(f.coeffs(), &party_points(n), &mut on_f);
        let robust = Acceptance::from(VssMode::Robust);
        let verdict = |received: &[(usize, F)]| {
            let mut betas = vec![None; n];
            for &(i, b) in received {
                betas[i] = Some(b);
            }
            judge(&betas, t, &robust)
        };
        let off = |i: usize| (i, on_f[i] + F::one());
        let on = |i: usize| (i, on_f[i]);
        // Two withheld, four of the five on f: only 4 < n − t fit.
        assert_eq!(verdict(&[on(0), on(1), on(2), on(3), off(4)]), VssVerdict::Reject);
        // Only t + 1 arbitrary values: any three fit some polynomial.
        let arbitrary: Vec<(usize, F)> = (0..=t).map(|i| (i, F::random(&mut rng))).collect();
        assert_eq!(verdict(&arbitrary), VssVerdict::Reject);
        // At the threshold: one withheld, five of six on f.
        assert_eq!(verdict(&[on(0), on(1), on(2), on(3), on(4), off(5)]), VssVerdict::Accept);
        // All n present: the budget is t, as before.
        assert_eq!(
            verdict(&[on(0), on(1), on(2), on(3), on(4), off(5), off(6)]),
            VssVerdict::Accept
        );
    }

    #[test]
    fn verification_takes_two_rounds_and_2n_messages() {
        // Lemma 2's communication claim, measured: 2 rounds, 2n messages
        // of size k each (n expose shares + n broadcasts), 2nk bits.
        let n = 7;
        let t = 2;
        let mut rng = StdRng::seed_from_u64(71);
        let f = spoly(F::from_u64(5), t, &mut rng);
        let g = Poly::random(t, &mut rng);
        let shares = (1..=n)
            .map(|id| {
                let x = F::element(id as u64);
                BatchShares { alphas: [f.eval(x)].into(), gamma: g.eval(x) }
            })
            .collect();
        let res = StepRunner::new(n, 72).run(verify_fleet(t, 1, shares, 70, &Acceptance::Strict));
        assert_eq!(res.report.comm.rounds, 2);
        assert_eq!(res.report.comm.messages as usize, 2 * n);
        assert_eq!(res.report.comm.bytes as usize, 2 * n * 4); // k = 32 bits
        for out in res.unwrap_all() {
            assert_eq!(out.unwrap(), VssVerdict::Accept);
        }
    }

    #[test]
    fn soundness_error_rate_small_field() {
        // Over GF(2^8) a cheating dealer survives with probability ≈ 1/256
        // (Lemma 1). Run many trials and check the rate is in that
        // ballpark — sequentially, via the pure judge() path.
        type F8 = Gf2k<8>;
        let n = 4;
        let t = 1;
        let mut rng = StdRng::seed_from_u64(99);
        let trials = 2000;
        let mut accepts = 0;
        for _ in 0..trials {
            let shares = cheating_batch_deal::<F8, _>(n, t, 1, 1, &mut rng);
            let r = F8::random(&mut rng);
            let betas: Vec<Option<F8>> =
                shares.iter().map(|s| Some(horner_combine(&s.alphas, s.gamma, r))).collect();
            if judge(&betas, t, &Acceptance::Strict) == VssVerdict::Accept {
                accepts += 1;
            }
        }
        let rate = accepts as f64 / trials as f64;
        assert!(rate < 0.03, "soundness error rate {rate} too high");
    }
}
