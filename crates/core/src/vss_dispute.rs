//! VSS with public dispute resolution — §3.1's remark, made concrete.
//!
//! "It seems that it would be impossible to grant that all the n players'
//! shares will satisfy the polynomial, as some of them might be faulty.
//! Yet it is easy to see that two rounds of broadcast render this
//! possible." (§3.1.)
//!
//! Fig. 2's strict check cannot distinguish a cheating dealer from a
//! cheating *verifier* (either makes the interpolation fail), and the
//! robust check merely tolerates bad verifiers. This module implements
//! the two-broadcast-round resolution the paper alludes to, after which
//! **all n positions** of the sharing are publicly consistent:
//!
//! 1. (Fig. 2 steps 2–3.) The challenge `r` is exposed and everyone
//!    broadcasts `β_i = α_i + r·γ_i`.
//! 2. Everyone Berlekamp–Welch-decodes the majority polynomial `F*`
//!    (degree ≤ t, ≥ n − t agreement; no such polynomial ⇒ the dealer is
//!    disqualified outright). The *outliers* — positions whose broadcast
//!    does not lie on `F*` — are publicly identifiable.
//! 3. Second broadcast round: the **dealer** publishes the dealt pair
//!    `(α_i, γ_i)` for every outlier position. Everyone checks
//!    `α_i + r·γ_i = F*(i)`; any missing or unfitting pair disqualifies
//!    the dealer. An outlier player adopts the published pair as its
//!    share (its original one was either never sent or provably
//!    worthless).
//!
//! Result: an honest dealer is **always** accepted, even with `t`
//! Byzantine verifiers (it simply republishes the shares they lied
//! about), and on acceptance every position of the sharing is consistent
//! — the guarantee the paper's strict model wants. The disputed
//! positions' shares become public, which is inherent to any complaint
//! mechanism (only provably-misbehaving positions are opened).

use std::mem;

use dprbg_field::Field;
use dprbg_metrics::WireSize;
use dprbg_poly::{bw_decode, share_points, Poly};
use dprbg_sim::{Embeds, MachineExt, PartyId, RoundMachine, RoundView, Step};

use crate::coin::{ExposeMachine, ExposeMsg, ExposeVia, SealedShare};
use crate::errors::{CoinError, ProtocolError};
use crate::vss::{DealtShares, VssVerdict};

/// Wire messages of the dispute-resolving VSS (a superset of Fig. 2's).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DisputeVssMsg<F: Field> {
    /// Dealing: the secret and masking shares.
    Deal {
        /// `α_i = f(i)`.
        alpha: F,
        /// `γ_i = g(i)`.
        gamma: F,
    },
    /// Coin-Expose traffic.
    Expose(ExposeMsg<F>),
    /// The blinded verification share.
    Beta(F),
    /// The dealer's published pairs for the outlier positions.
    Open(Vec<(PartyId, F, F)>),
}

impl<F: Field> WireSize for DisputeVssMsg<F> {
    fn wire_bytes(&self) -> usize {
        match self {
            DisputeVssMsg::Deal { alpha, gamma } => alpha.wire_bytes() + gamma.wire_bytes(),
            DisputeVssMsg::Expose(e) => e.wire_bytes(),
            DisputeVssMsg::Beta(b) => b.wire_bytes(),
            DisputeVssMsg::Open(pairs) => {
                pairs.iter().map(|(_, a, g)| 1 + a.wire_bytes() + g.wire_bytes()).sum()
            }
        }
    }
}

impl<F: Field> Embeds<ExposeMsg<F>> for DisputeVssMsg<F> {
    fn wrap(inner: ExposeMsg<F>) -> Self {
        DisputeVssMsg::Expose(inner)
    }
    fn peek(&self) -> Option<&ExposeMsg<F>> {
        match self {
            DisputeVssMsg::Expose(e) => Some(e),
            _ => None,
        }
    }
}

/// The outcome of the dispute-resolving verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DisputeOutcome<F: Field> {
    /// Accept iff all n positions ended consistent.
    pub verdict: VssVerdict,
    /// My (possibly replaced) shares after resolution.
    pub shares: DealtShares<F>,
    /// The outlier positions whose shares were publicly opened.
    pub opened: Vec<PartyId>,
}

/// Dispute-resolving verification — Fig. 2 steps 2–4 plus the second
/// broadcast round of §3.1's remark — as a sans-IO round machine.
/// 3 rounds; consumes one challenge coin. The dealing must already have
/// happened ([`crate::vss::VssDealMachine`] semantics; pass the dealer's
/// polynomials when this party dealt so it can answer disputes).
///
/// Every path through the protocol takes the same number of rounds (a
/// disqualified dealer still burns the dispute round) so fleets of these
/// machines stay in lock-step regardless of verdict. The output
/// propagates [`CoinError`] from the challenge expose.
pub struct VssDisputeMachine<M, F: Field> {
    dealer: PartyId,
    dealer_polys: Option<(Poly<F>, Poly<F>)>,
    t: usize,
    shares: DealtShares<F>,
    stage: DvStage<M, F>,
}

enum DvStage<M, F: Field> {
    /// Fig. 2 step 2 in flight (two calls: share send, then decode +
    /// beta broadcast).
    Expose(ExposeMachine<M, F>),
    /// Inbox holds the broadcast betas: find `F*`, open disputes.
    Betas { r: F },
    /// Inbox holds the dealer's openings: judge.
    Dispute { r: F, f_star: Option<Poly<F>>, outliers: Vec<PartyId> },
    Finished,
}

impl<M, F: Field> VssDisputeMachine<M, F> {
    /// A machine verifying `shares` from `dealer` with `coin` as the
    /// challenge; `dealer_polys` must be `Some` only at the dealer.
    pub fn new(
        dealer: PartyId,
        dealer_polys: Option<(Poly<F>, Poly<F>)>,
        t: usize,
        shares: DealtShares<F>,
        coin: SealedShare<F>,
    ) -> Self {
        VssDisputeMachine {
            dealer,
            dealer_polys,
            t,
            shares,
            stage: DvStage::Expose(ExposeMachine::new(coin, t, ExposeVia::Broadcast)),
        }
    }

    fn judge(
        &self,
        view: &RoundView<'_, M>,
        r: F,
        f_star: Option<Poly<F>>,
        outliers: Vec<PartyId>,
    ) -> DisputeOutcome<F>
    where
        M: Clone + WireSize + Embeds<DisputeVssMsg<F>>,
    {
        let Some(f_star) = f_star else {
            // No consistent majority existed: the dealer was disqualified
            // outright (the dispute round was burned for lock-step).
            return DisputeOutcome {
                verdict: VssVerdict::Reject,
                shares: self.shares,
                opened: Vec::new(),
            };
        };
        if outliers.is_empty() {
            return DisputeOutcome {
                verdict: VssVerdict::Accept,
                shares: self.shares,
                opened: outliers,
            };
        }

        let published = view
            .inbox
            .broadcasts()
            .filter(|rcv| rcv.from == self.dealer)
            .find_map(|rcv| match <M as Embeds<DisputeVssMsg<F>>>::peek(rcv.msg()) {
                Some(DisputeVssMsg::Open(pairs)) => Some(pairs.clone()),
                _ => None,
            });
        let Some(pairs) = published else {
            // Dealer refused to answer the dispute.
            return DisputeOutcome {
                verdict: VssVerdict::Reject,
                shares: self.shares,
                opened: outliers,
            };
        };

        // Every outlier must be answered with a pair fitting F*.
        let mut my_new_shares = self.shares;
        for &i in &outliers {
            let x = F::element(i as u64);
            let answer = pairs.iter().find(|(j, _, _)| *j == i);
            match answer {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "one opened outlier checked against F*, one point"
                )]
                Some(&(_, alpha, gamma)) if alpha + r * gamma == f_star.eval(x) => {
                    if i == view.id {
                        // Adopt the publicly consistent pair.
                        my_new_shares = DealtShares { alpha, gamma };
                    }
                }
                _ => {
                    return DisputeOutcome {
                        verdict: VssVerdict::Reject,
                        shares: my_new_shares,
                        opened: outliers,
                    };
                }
            }
        }
        DisputeOutcome { verdict: VssVerdict::Accept, shares: my_new_shares, opened: outliers }
    }
}

impl<M, F> RoundMachine<M> for VssDisputeMachine<M, F>
where
    M: Clone + WireSize + Embeds<ExposeMsg<F>> + Embeds<DisputeVssMsg<F>>,
    F: Field,
{
    type Output = Result<DisputeOutcome<F>, CoinError>;

    fn round(&mut self, mut view: RoundView<'_, M>) -> Step<M, Self::Output> {
        let n = view.n;
        match mem::replace(&mut self.stage, DvStage::Finished) {
            DvStage::Expose(mut expose) => match expose.round(view.reborrow()) {
                Step::Continue(out) => {
                    self.stage = DvStage::Expose(expose);
                    Step::Continue(out)
                }
                Step::Done(Err(e)) => Step::Done(Err(e)),
                Step::Done(Ok(r)) => {
                    // Fig. 2 step 3: broadcast β_i.
                    let beta = self.shares.alpha + r * self.shares.gamma;
                    let mut out = view.outbox();
                    out.broadcast(<M as Embeds<DisputeVssMsg<F>>>::wrap(DisputeVssMsg::Beta(
                        beta,
                    )));
                    self.stage = DvStage::Betas { r };
                    Step::Continue(out)
                }
            },
            DvStage::Betas { r } => {
                let mut betas: Vec<Option<F>> = vec![None; n];
                for rcv in view.inbox.broadcasts() {
                    if let Some(DisputeVssMsg::Beta(b)) =
                        <M as Embeds<DisputeVssMsg<F>>>::peek(rcv.msg())
                    {
                        if betas[rcv.from - 1].is_none() {
                            betas[rcv.from - 1] = Some(*b);
                        }
                    }
                }

                // The majority polynomial F* and the outlier set (public:
                // everyone computes the same ones from the same
                // broadcasts).
                let points: Vec<(F, F)> = betas
                    .iter()
                    .enumerate()
                    .filter_map(|(i, b)| b.map(|y| (F::element(i as u64 + 1), y)))
                    .collect();
                // "≥ n − t broadcast values lie on F*" is the decoder's
                // error budget: at most m − (n − t) of the m may be wrong.
                #[expect(
                    clippy::disallowed_methods,
                    reason = "one broadcast word, with its own error budget"
                )]
                let f_star = points
                    .len()
                    .checked_sub(n - self.t)
                    .and_then(|budget| bw_decode(&points, self.t, self.t.min(budget)).ok());
                let outliers: Vec<PartyId> = match &f_star {
                    Some(f) => (1..=n)
                        .zip(share_points(f, n))
                        .filter(|&(i, s)| betas[i - 1] != Some(s.y))
                        .map(|(i, _)| i)
                        .collect(),
                    // No majority: nothing to open, but the round is still
                    // burned below so all parties stay in lock-step.
                    None => Vec::new(),
                };

                // Second broadcast round: the dealer opens the outlier
                // positions.
                let mut out = view.outbox();
                if view.id == self.dealer && !outliers.is_empty() {
                    if let Some((f, g)) = &self.dealer_polys {
                        let xs: Vec<F> = outliers.iter().map(|&i| F::element(i as u64)).collect();
                        let mut alphas = vec![F::zero(); xs.len()];
                        let mut gammas = vec![F::zero(); xs.len()];
                        F::eval_points(f.coeffs(), &xs, &mut alphas);
                        F::eval_points(g.coeffs(), &xs, &mut gammas);
                        let pairs: Vec<(PartyId, F, F)> = outliers
                            .iter()
                            .zip(alphas.into_iter().zip(gammas))
                            .map(|(&i, (alpha, gamma))| (i, alpha, gamma))
                            .collect();
                        out.broadcast(<M as Embeds<DisputeVssMsg<F>>>::wrap(
                            DisputeVssMsg::Open(pairs),
                        ));
                    }
                }
                self.stage = DvStage::Dispute { r, f_star, outliers };
                Step::Continue(out)
            }
            DvStage::Dispute { r, f_star, outliers } => {
                Step::Done(Ok(self.judge(&view, r, f_star, outliers)))
            }
            #[expect(clippy::panic, reason = "driver contract: round() is never called after Done")]
            DvStage::Finished => panic!("VssDisputeMachine driven past completion"),
        }
    }

    fn phase_name(&self) -> &'static str {
        match &self.stage {
            DvStage::Expose(expose) => match expose.phase_name() {
                "expose/send" => "vss-dispute/challenge",
                _ => "vss-dispute/betas",
            },
            DvStage::Betas { .. } => "vss-dispute/open",
            DvStage::Dispute { .. } => "vss-dispute/judge",
            DvStage::Finished => "vss-dispute/finished",
        }
    }
}

/// Abort-with-blame: the dispute-resolving verification with a `Reject`
/// converted into [`ProtocolError::Aborted`] naming the dealer.
///
/// The conviction is sound because the dispute protocol **always** accepts
/// an honest dealer (even against `t` Byzantine verifiers it simply
/// republishes the shares they lied about — see the module docs), so any
/// `Reject` proves the dealer deviated. This is the graceful-degradation
/// entry point the campaign harness classifies as "gracefully aborted":
/// the caller learns *who* to exclude before retrying. The output carries
/// [`ProtocolError::Coin`] if the challenge expose fails.
pub fn vss_dispute_or_blame<M, F>(
    dealer: PartyId,
    dealer_polys: Option<(Poly<F>, Poly<F>)>,
    t: usize,
    shares: DealtShares<F>,
    coin: SealedShare<F>,
) -> impl RoundMachine<M, Output = Result<DisputeOutcome<F>, ProtocolError>>
where
    M: Clone + Send + WireSize + Embeds<ExposeMsg<F>> + Embeds<DisputeVssMsg<F>> + 'static,
    F: Field,
{
    VssDisputeMachine::new(dealer, dealer_polys, t, shares, coin).map(move |res| {
        let outcome = res?;
        match outcome.verdict {
            VssVerdict::Accept => Ok(outcome),
            VssVerdict::Reject => Err(ProtocolError::Aborted {
                blame: vec![dealer],
                reason: "VSS dispute resolution convicted the dealer",
            }),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dealer::TrustedDealer;
    use crate::params::Params;
    use dprbg_field::Gf2k;
    use dprbg_poly::{share_points, share_polynomial};
    use dprbg_rng::rngs::StdRng;
    use dprbg_rng::SeedableRng;
    use dprbg_sim::{from_fn, BoxedMachine, FaultPlan, StepRunner};

    type F = Gf2k<32>;
    type M = DisputeVssMsg<F>;

    fn coin_shares(n: usize, t: usize, seed: u64) -> Vec<SealedShare<F>> {
        let params = Params::broadcast_model(n, t).unwrap();
        TrustedDealer::deal_wallets::<F>(params, 1, seed)
            .into_iter()
            .map(|mut w| w.pop().unwrap())
            .collect()
    }

    /// Dealing helper: honest f, g evaluated per party.
    fn deal(n: usize, t: usize, seed: u64) -> (Poly<F>, Poly<F>, Vec<DealtShares<F>>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let f = share_polynomial(F::from_u64(0xD15B), t, &mut rng);
        let g = Poly::random(t, &mut rng);
        let shares = share_points(&f, n)
            .into_iter()
            .zip(share_points(&g, n))
            .map(|(a, b)| DealtShares { alpha: a.y, gamma: b.y })
            .collect();
        (f, g, shares)
    }

    /// A fleet of dispute machines: party 1 deals (holds the polynomials
    /// when `answering` is true), everyone verifies `shares[id - 1]`.
    fn fleet(
        f: &Poly<F>,
        g: &Poly<F>,
        answering: bool,
        t: usize,
        shares: &[DealtShares<F>],
        coins: &[SealedShare<F>],
    ) -> Vec<BoxedMachine<M, Result<DisputeOutcome<F>, CoinError>>> {
        (1..=shares.len())
            .map(|id| {
                let polys = (answering && id == 1).then(|| (f.clone(), g.clone()));
                Box::new(VssDisputeMachine::new(1, polys, t, shares[id - 1], coins[id - 1]))
                    as BoxedMachine<M, _>
            })
            .collect()
    }

    #[test]
    fn no_disputes_all_honest() {
        let n = 7;
        let t = 2;
        let coins = coin_shares(n, t, 1);
        let (f, g, shares) = deal(n, t, 2);
        let res = StepRunner::new(n, 3).run(fleet(&f, &g, true, t, &shares, &coins));
        for out in res.unwrap_all() {
            let o = out.unwrap();
            assert_eq!(o.verdict, VssVerdict::Accept);
            assert!(o.opened.is_empty());
        }
    }

    #[test]
    fn honest_dealer_survives_byzantine_verifier() {
        // Party 5 broadcasts a garbage β (this frames the dealer under
        // strict Fig. 2); with disputes, the dealer republishes position
        // 5 and is accepted by everyone.
        let n = 7;
        let t = 2;
        let coins = coin_shares(n, t, 10);
        let (f, g, shares) = deal(n, t, 11);
        let plan = FaultPlan::explicit(n, vec![5]);
        let machines = plan.machines::<M, Option<DisputeOutcome<F>>>(
            |id| {
                let polys = (id == 1).then(|| (f.clone(), g.clone()));
                Box::new(
                    VssDisputeMachine::new(1, polys, t, shares[id - 1], coins[id - 1])
                        .map(|r: Result<DisputeOutcome<F>, CoinError>| r.ok()),
                )
            },
            |id| {
                let sigma = coins[id - 1].sigma;
                Box::new(from_fn(move |view: RoundView<'_, M>| match view.round {
                    0 => {
                        let mut out = view.outbox();
                        if let Some(s) = sigma {
                            out.broadcast(DisputeVssMsg::Expose(ExposeMsg(s)));
                        }
                        Step::Continue(out)
                    }
                    1 => {
                        let mut out = view.outbox();
                        out.broadcast(DisputeVssMsg::Beta(F::from_u64(0xBAD)));
                        Step::Continue(out)
                    }
                    2 => Step::Continue(view.outbox()),
                    _ => Step::Done(None),
                }))
            },
        );
        let res = StepRunner::new(n, 12).run(machines);
        for id in plan.honest() {
            let o = res.outputs[id - 1].as_ref().unwrap().as_ref().unwrap();
            assert_eq!(o.verdict, VssVerdict::Accept, "party {id}");
            assert_eq!(o.opened, vec![5], "position 5 publicly opened");
        }
    }

    #[test]
    fn cheated_player_gets_corrected_share() {
        // The dealer privately sent party 3 a wrong share but commits to
        // a consistent polynomial: party 3 shows up as the outlier, the
        // dealer must open position 3, and party 3 ends holding the
        // consistent share.
        let n = 7;
        let t = 2;
        let coins = coin_shares(n, t, 20);
        let (f, g, mut shares) = deal(n, t, 21);
        shares[2].alpha += F::one(); // the lie to party 3
        let res = StepRunner::new(n, 22).run(fleet(&f, &g, true, t, &shares, &coins));
        let outs = res.unwrap_all();
        for (i, out) in outs.iter().enumerate() {
            let o = out.as_ref().unwrap();
            assert_eq!(o.verdict, VssVerdict::Accept, "party {}", i + 1);
            assert_eq!(o.opened, vec![3]);
        }
        // Party 3's corrected share lies on f now.
        let corrected = outs[2].as_ref().unwrap().shares;
        assert_eq!(corrected.alpha, f.eval(F::element(3)));
    }

    #[test]
    fn unresponsive_dealer_rejected() {
        // Party 5 garbles its β and the dealer refuses to open: reject.
        let n = 7;
        let t = 2;
        let coins = coin_shares(n, t, 30);
        let (f, g, mut shares) = deal(n, t, 31);
        shares[4].alpha += F::one();
        // Nobody holds dealer polynomials: the dealer cannot (will not)
        // answer the dispute.
        let res = StepRunner::new(n, 32).run(fleet(&f, &g, false, t, &shares, &coins));
        for out in res.unwrap_all() {
            assert_eq!(out.unwrap().verdict, VssVerdict::Reject);
        }
    }

    #[test]
    fn degree_cheating_dealer_still_rejected() {
        // A dealer committing to a degree-(t+2) polynomial cannot be
        // saved by disputes: no majority F* exists.
        let n = 7;
        let t = 2;
        let coins = coin_shares(n, t, 40);
        let mut rng = StdRng::seed_from_u64(41);
        let f = Poly::<F>::random(t + 2, &mut rng);
        let g = Poly::<F>::random(t, &mut rng);
        let shares: Vec<DealtShares<F>> = (1..=n)
            .map(|id| {
                let x = F::element(id as u64);
                DealtShares { alpha: f.eval(x), gamma: g.eval(x) }
            })
            .collect();
        let res = StepRunner::new(n, 42).run(fleet(&f, &g, true, t, &shares, &coins));
        for out in res.unwrap_all() {
            assert_eq!(out.unwrap().verdict, VssVerdict::Reject);
        }
    }

    #[test]
    fn blame_wrapper_accepts_honest_and_convicts_cheater() {
        let n = 7;
        let t = 2;
        // Honest dealer: wrapper passes the outcome through.
        let coins = coin_shares(n, t, 50);
        let (f, g, shares) = deal(n, t, 51);
        let machines: Vec<BoxedMachine<M, Result<DisputeOutcome<F>, ProtocolError>>> = (1..=n)
            .map(|id| {
                let polys = (id == 1).then(|| (f.clone(), g.clone()));
                Box::new(vss_dispute_or_blame(1, polys, t, shares[id - 1], coins[id - 1]))
                    as BoxedMachine<M, _>
            })
            .collect();
        for out in StepRunner::new(n, 52).run(machines).unwrap_all() {
            assert_eq!(out.unwrap().verdict, VssVerdict::Accept);
        }

        // Unresponsive dealer with a garbled position: every honest party
        // gets Aborted blaming the dealer.
        let coins = coin_shares(n, t, 53);
        let (_, _, mut shares) = deal(n, t, 54);
        shares[4].alpha += F::one();
        let machines: Vec<BoxedMachine<M, Result<DisputeOutcome<F>, ProtocolError>>> = (1..=n)
            .map(|id| {
                Box::new(vss_dispute_or_blame(1, None, t, shares[id - 1], coins[id - 1]))
                    as BoxedMachine<M, _>
            })
            .collect();
        for out in StepRunner::new(n, 55).run(machines).unwrap_all() {
            match out {
                Err(ProtocolError::Aborted { blame, .. }) => assert_eq!(blame, vec![1]),
                other => panic!("expected Aborted blaming the dealer, got {other:?}"),
            }
        }
    }
}
