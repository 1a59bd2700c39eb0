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

use std::mem;

use dprbg_field::Field;
use dprbg_metrics::WireSize;
use dprbg_poly::{bw_decode, interpolate, share_points, share_polynomial, Poly};
use dprbg_sim::{Embeds, MachineExt, PartyId, RoundMachine, RoundView, Step};
use dprbg_rng::Rng;

use crate::coin::{ExposeMachine, ExposeMsg, ExposeVia, SealedShare};
use crate::errors::CoinError;

/// Wire messages of Protocol VSS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VssMsg<F: Field> {
    /// Dealing round: the secret share and the masking share.
    Deal {
        /// `α_i = f(i)`.
        alpha: F,
        /// `γ_i = g(i)`.
        gamma: F,
    },
    /// Coin-Expose traffic for the challenge coin.
    Expose(ExposeMsg<F>),
    /// The blinded verification share `β_i = α_i + r·γ_i`.
    Beta(F),
}

impl<F: Field> WireSize for VssMsg<F> {
    fn wire_bytes(&self) -> usize {
        match self {
            VssMsg::Deal { alpha, gamma } => alpha.wire_bytes() + gamma.wire_bytes(),
            VssMsg::Expose(e) => e.wire_bytes(),
            VssMsg::Beta(b) => b.wire_bytes(),
        }
    }
}

impl<F: Field> Embeds<ExposeMsg<F>> for VssMsg<F> {
    fn wrap(inner: ExposeMsg<F>) -> Self {
        VssMsg::Expose(inner)
    }
    fn peek(&self) -> Option<&ExposeMsg<F>> {
        match self {
            VssMsg::Expose(e) => Some(e),
            _ => None,
        }
    }
}

/// A party's holdings after the dealing round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DealtShares<F: Field> {
    /// The secret share `α_i` (zero if the dealer sent nothing).
    pub alpha: F,
    /// The masking share `γ_i`.
    pub gamma: F,
}

/// The verification outcome (all honest players output the same verdict
/// when the broadcasts are consistent).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VssVerdict {
    /// A valid degree-≤t sharing exists.
    Accept,
    /// No valid sharing — the dealer is disqualified.
    Reject,
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

/// The dealing round (the "Given" of Fig. 2 plus its step 1) as a
/// sans-IO round machine: one `Continue` (the dealer's shares), then
/// `Done` with `(my shares, dealer polynomials if dealer)`.
///
/// If the machine was built with a secret *and* this party is `dealer`,
/// it acts as the dealer `D`: it samples the secret polynomial `f` (with
/// `f(0)` = the secret) and the masking polynomial `g`, and privately
/// sends `(f(i), g(i))` to each player. Everyone outputs their received
/// shares (zeros if the dealer stayed silent — a silent dealer is
/// rejected later with certainty).
pub struct VssDealMachine<M, F: Field> {
    dealer: PartyId,
    secret: Option<F>,
    t: usize,
    dealt: Option<(Poly<F>, Poly<F>)>,
    sent: bool,
    _wire: std::marker::PhantomData<fn() -> M>,
}

impl<M, F: Field> VssDealMachine<M, F> {
    /// A machine for `dealer`'s sharing; `secret_if_dealer` must be
    /// `Some` only at the dealer itself.
    pub fn new(dealer: PartyId, secret_if_dealer: Option<F>, t: usize) -> Self {
        VssDealMachine {
            dealer,
            secret: secret_if_dealer,
            t,
            dealt: None,
            sent: false,
            _wire: std::marker::PhantomData,
        }
    }
}

impl<M, F> RoundMachine<M> for VssDealMachine<M, F>
where
    M: Clone + WireSize + Embeds<VssMsg<F>>,
    F: Field,
{
    type Output = (DealtShares<F>, Option<(Poly<F>, Poly<F>)>);

    fn round(&mut self, view: RoundView<'_, M>) -> Step<M, Self::Output> {
        if !self.sent {
            self.sent = true;
            let mut out = view.outbox();
            if view.id == self.dealer {
                if let Some(secret) = self.secret.take() {
                    let f = share_polynomial(secret, self.t, view.rng);
                    let g = Poly::random(self.t, view.rng);
                    for (i, (fs, gs)) in share_points(&f, view.n)
                        .into_iter()
                        .zip(share_points(&g, view.n))
                        .enumerate()
                    {
                        out.send(
                            i + 1,
                            <M as Embeds<VssMsg<F>>>::wrap(VssMsg::Deal {
                                alpha: fs.y,
                                gamma: gs.y,
                            }),
                        );
                    }
                    self.dealt = Some((f, g));
                }
            }
            return Step::Continue(out);
        }
        let shares = view
            .inbox
            .first_from(self.dealer)
            .and_then(|r| <M as Embeds<VssMsg<F>>>::peek(r.msg()))
            .and_then(|m| match m {
                VssMsg::Deal { alpha, gamma } => {
                    Some(DealtShares { alpha: *alpha, gamma: *gamma })
                }
                _ => None,
            })
            .unwrap_or_default();
        Step::Done((shares, self.dealt.take()))
    }

    fn phase_name(&self) -> &'static str {
        if self.sent {
            "vss/record"
        } else {
            "vss/deal"
        }
    }
}

/// Steps 2–4 of Fig. 2 (the verification proper) as a sans-IO round
/// machine: the challenge expose (an embedded [`ExposeMachine`] over the
/// broadcast channel), the blinded-share broadcast, then the
/// interpolation verdict — 2 rounds, plus the two interpolations of
/// Lemma 2. Consumes one sealed challenge coin; the output propagates
/// [`CoinError`] if the challenge coin cannot be exposed.
pub struct VssVerifyMachine<M, F: Field> {
    t: usize,
    shares: DealtShares<F>,
    mode: VssMode,
    stage: VvStage<M, F>,
}

enum VvStage<M, F: Field> {
    /// Step 2 in flight (two calls: share send, then decode + beta send).
    Expose(ExposeMachine<M, F>),
    /// Inbox holds the broadcast betas; judge.
    Betas,
    Finished,
}

impl<M, F: Field> VssVerifyMachine<M, F> {
    /// A machine verifying `shares` with `coin` as the challenge.
    pub fn new(t: usize, shares: DealtShares<F>, coin: SealedShare<F>, mode: VssMode) -> Self {
        VssVerifyMachine {
            t,
            shares,
            mode,
            stage: VvStage::Expose(ExposeMachine::new(coin, t, ExposeVia::Broadcast)),
        }
    }
}

impl<M, F> RoundMachine<M> for VssVerifyMachine<M, F>
where
    M: Clone + WireSize + Embeds<ExposeMsg<F>> + Embeds<VssMsg<F>>,
    F: Field,
{
    type Output = Result<VssVerdict, CoinError>;

    fn round(&mut self, mut view: RoundView<'_, M>) -> Step<M, Self::Output> {
        match mem::replace(&mut self.stage, VvStage::Finished) {
            VvStage::Expose(mut expose) => match expose.round(view.reborrow()) {
                Step::Continue(out) => {
                    self.stage = VvStage::Expose(expose);
                    Step::Continue(out)
                }
                Step::Done(Err(e)) => Step::Done(Err(e)),
                Step::Done(Ok(r)) => {
                    // Step 3: broadcast the blinded share β_i = α_i + r·γ_i.
                    let beta = self.shares.alpha + r * self.shares.gamma;
                    let mut out = view.outbox();
                    out.broadcast(<M as Embeds<VssMsg<F>>>::wrap(VssMsg::Beta(beta)));
                    self.stage = VvStage::Betas;
                    Step::Continue(out)
                }
            },
            VvStage::Betas => {
                let mut points: Vec<(F, F)> = Vec::new();
                for rcv in view.inbox.broadcasts() {
                    if let Some(VssMsg::Beta(b)) = <M as Embeds<VssMsg<F>>>::peek(rcv.msg()) {
                        let x = F::element(rcv.from as u64);
                        if points.iter().all(|(px, _)| *px != x) {
                            points.push((x, *b));
                        }
                    }
                }
                Step::Done(Ok(judge(&points, view.n, self.t, self.mode)))
            }
            #[expect(clippy::panic, reason = "driver contract: round() is never called after Done")]
            VvStage::Finished => panic!("VssVerifyMachine driven past completion"),
        }
    }

    fn phase_name(&self) -> &'static str {
        match &self.stage {
            VvStage::Expose(expose) => match expose.phase_name() {
                "expose/send" => "vss/challenge",
                _ => "vss/combine",
            },
            VvStage::Betas => "vss/judge",
            VvStage::Finished => "vss/finished",
        }
    }
}

/// Step 4's acceptance decision from the collected broadcast points.
fn judge<F: Field>(points: &[(F, F)], n: usize, t: usize, mode: VssMode) -> VssVerdict {
    match mode {
        VssMode::Strict => {
            if points.len() < n {
                // Someone withheld their broadcast: no full interpolation
                // exists, the sharing cannot be validated.
                return VssVerdict::Reject;
            }
            match interpolate(points) {
                Ok(f) if f.degree().is_none_or(|d| d <= t) => VssVerdict::Accept,
                _ => VssVerdict::Reject,
            }
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "one broadcast word per check: no basis to share"
        )]
        VssMode::Robust => match bw_decode(points, t, t) {
            Ok(_) => VssVerdict::Accept,
            Err(_) => VssVerdict::Reject,
        },
    }
}

/// The complete protocol — dealing + verification, 3 rounds — composed
/// from [`VssDealMachine`] and [`VssVerifyMachine`] with
/// [`MachineExt::then`]. The output carries the verdict together with the
/// shares this party now holds, and propagates [`CoinError`] from the
/// challenge expose.
pub fn vss_machine<M, F>(
    dealer: PartyId,
    secret_if_dealer: Option<F>,
    t: usize,
    coin: SealedShare<F>,
    mode: VssMode,
) -> impl RoundMachine<M, Output = Result<(VssVerdict, DealtShares<F>), CoinError>>
where
    M: Clone + Send + WireSize + Embeds<ExposeMsg<F>> + Embeds<VssMsg<F>> + 'static,
    F: Field,
{
    VssDealMachine::new(dealer, secret_if_dealer, t).then(move |(shares, _)| {
        VssVerifyMachine::new(t, shares, coin, mode)
            .map(move |res| res.map(|verdict| (verdict, shares)))
    })
}

/// A cheating dealer's strategy used by soundness tests and the E6
/// experiment: deal shares of a degree-`bad_degree` polynomial (with
/// `bad_degree > t` there is no valid sharing) and an honest masking
/// polynomial, then follow the protocol.
pub fn cheating_high_degree_deal<F: Field, R: Rng + ?Sized>(
    n: usize,
    t: usize,
    bad_degree: usize,
    rng: &mut R,
) -> (Vec<DealtShares<F>>, Poly<F>, Poly<F>) {
    let f = Poly::random(bad_degree, rng);
    let g = Poly::random(t, rng);
    let shares = share_points(&f, n)
        .into_iter()
        .zip(share_points(&g, n))
        .map(|(a, c)| DealtShares { alpha: a.y, gamma: c.y })
        .collect();
    (shares, f, g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dprbg_field::Gf2k;
    use dprbg_poly::{share_points as sp, share_polynomial as spoly};
    use dprbg_rng::rngs::StdRng;
    use dprbg_rng::SeedableRng;
    use dprbg_sim::{from_fn, BoxedMachine, FaultPlan, StepRunner};

    type F = Gf2k<32>;
    type M = VssMsg<F>;

    fn coin_shares(n: usize, t: usize, seed: u64) -> Vec<SealedShare<F>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let poly = spoly(F::random(&mut rng), t, &mut rng);
        sp(&poly, n).into_iter().map(|s| SealedShare::of(s.y)).collect()
    }

    fn run_vss(
        n: usize,
        t: usize,
        seed: u64,
        mode: VssMode,
    ) -> Vec<Result<(VssVerdict, DealtShares<F>), CoinError>> {
        let coins = coin_shares(n, t, seed.wrapping_add(1000));
        let fleet: Vec<BoxedMachine<M, Result<(VssVerdict, DealtShares<F>), CoinError>>> =
            (1..=n)
                .map(|id| {
                    let secret = (id == 1).then(|| F::from_u64(0xC0FFEE));
                    Box::new(vss_machine(1, secret, t, coins[id - 1], mode))
                        as BoxedMachine<M, _>
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
                y: o.as_ref().unwrap().1.alpha,
            })
            .collect();
        assert_eq!(
            dprbg_poly::reconstruct_secret(&shares, 2).unwrap(),
            F::from_u64(0xC0FFEE)
        );
    }

    #[test]
    fn high_degree_dealer_rejected() {
        // Dealer shares a degree-(t+2) polynomial: every honest party must
        // reject (w.p. 1 − 1/p; the challenge field is 2^32 so the test is
        // deterministic in practice).
        let n = 7;
        let t = 2;
        let coins = coin_shares(n, t, 42);
        let mut rng = StdRng::seed_from_u64(43);
        let (bad_shares, _, _) = cheating_high_degree_deal::<F, _>(n, t, t + 2, &mut rng);
        // Dealing already happened out-of-band (cheating dealer); every
        // party verifies directly.
        let fleet: Vec<BoxedMachine<M, Result<VssVerdict, CoinError>>> = (1..=n)
            .map(|id| {
                let coin = coins[id - 1];
                let share = bad_shares[id - 1];
                Box::new(VssVerifyMachine::new(t, share, coin, VssMode::Strict))
                    as BoxedMachine<M, _>
            })
            .collect();
        for out in StepRunner::new(n, 44).run(fleet).unwrap_all() {
            assert_eq!(out.unwrap(), VssVerdict::Reject);
        }
    }

    #[test]
    fn silent_dealer_rejected() {
        let n = 4;
        let t = 1;
        let coins = coin_shares(n, t, 50);
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
                        vss_machine(1, None, t, coin, VssMode::Strict)
                            .map(|res| res.map(|(v, _)| v)),
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
            let coins = coin_shares(n, t, 60);
            let plan = FaultPlan::explicit(n, vec![5]);
            let fleet = plan.machines::<M, Option<VssVerdict>>(
                |id| {
                    let coin = coins[id - 1];
                    let secret = (id == 1).then(|| F::from_u64(7));
                    Box::new(
                        vss_machine(1, secret, t, coin, mode)
                            .map(|res| res.ok().map(|(v, _)| v)),
                    )
                },
                |id| {
                    let coin = coins[id - 1];
                    Box::new(from_fn(move |view: RoundView<'_, M>| {
                        let mut out = view.outbox();
                        match view.round {
                            // Sit out the dealing round.
                            0 => Step::Continue(out),
                            1 => {
                                // Expose the challenge honestly…
                                if let Some(sigma) = coin.sigma {
                                    out.broadcast(VssMsg::Expose(ExposeMsg(sigma)));
                                }
                                Step::Continue(out)
                            }
                            2 => {
                                // …then broadcast a garbage β.
                                out.broadcast(VssMsg::Beta(F::from_u64(0xBAD)));
                                Step::Continue(out)
                            }
                            _ => Step::Done(None),
                        }
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
    fn verification_takes_two_rounds_and_2n_messages() {
        // Lemma 2's communication claim, measured: 2 rounds, 2n messages
        // of size k each (n expose shares + n broadcasts), 2nk bits.
        let n = 7;
        let t = 2;
        let coins = coin_shares(n, t, 70);
        let mut rng = StdRng::seed_from_u64(71);
        let f = spoly(F::from_u64(5), t, &mut rng);
        let g = dprbg_poly::Poly::random(t, &mut rng);
        let fleet: Vec<BoxedMachine<M, Result<VssVerdict, CoinError>>> = (1..=n)
            .map(|id| {
                let coin = coins[id - 1];
                let shares = DealtShares {
                    alpha: f.eval(F::element(id as u64)),
                    gamma: g.eval(F::element(id as u64)),
                };
                Box::new(VssVerifyMachine::new(t, shares, coin, VssMode::Strict))
                    as BoxedMachine<M, _>
            })
            .collect();
        let res = StepRunner::new(n, 72).run(fleet);
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
            let (shares, _, _) = cheating_high_degree_deal::<F8, _>(n, t, t + 1, &mut rng);
            let r = F8::random(&mut rng);
            let pts: Vec<(F8, F8)> = shares
                .iter()
                .enumerate()
                .map(|(i, s)| (F8::element(i as u64 + 1), s.alpha + r * s.gamma))
                .collect();
            if judge(&pts, n, t, VssMode::Strict) == VssVerdict::Accept {
                accepts += 1;
            }
        }
        let rate = accepts as f64 / trials as f64;
        assert!(rate < 0.03, "soundness error rate {rate} too high");
    }
}
