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
//!    broadcasts `β_i = γ_i + r·α_i`.
//! 2. Everyone Berlekamp–Welch-decodes the majority polynomial `F*`
//!    (degree ≤ t, ≥ n − t agreement; no such polynomial ⇒ the dealer is
//!    disqualified outright). The *outliers* — positions whose broadcast
//!    does not lie on `F*` — are publicly identifiable.
//! 3. Second broadcast round: the **dealer** publishes the dealt pair
//!    `(α_i, γ_i)` for every outlier position. Everyone checks
//!    `γ_i + r·α_i = F*(i)`; any missing or unfitting pair disqualifies
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
//!
//! Steps 1–2 are Fig. 2's check with the robust rule, run on Bit-Gen's
//! machine ([`BitGenMachine`], one dealer, broadcast transport); this
//! module adds the opening round.

use std::mem;

use dprbg_field::Field;
use dprbg_metrics::WireSize;
use dprbg_poly::{party_points, Poly};
use dprbg_sim::{Embeds, MachineExt, PartyId, RoundMachine, RoundView, Step};

use crate::batch_vss::{horner_combine, BatchShares};
use crate::bit_gen::{Acceptance, BitGenMachine, BitGenMsg, DealerView, Start};
use crate::coin::{ExposeMsg, SealedShare};
use crate::errors::{CoinError, ProtocolError};
use crate::vss::VssVerdict;

/// Wire messages of the dispute-resolving VSS: Fig. 2's, plus the
/// dealer's opening.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DisputeVssMsg<F: Field> {
    /// The sharing check's traffic (expose shares and `β`s).
    Check(BitGenMsg<F>),
    /// The dealer's published shares for the outlier positions.
    Open(Vec<(PartyId, BatchShares<F>)>),
}

impl<F: Field> WireSize for DisputeVssMsg<F> {
    fn wire_bytes(&self) -> usize {
        match self {
            DisputeVssMsg::Check(c) => c.wire_bytes(),
            DisputeVssMsg::Open(opened) => opened
                .iter()
                .map(|(_, s)| 1 + s.alphas.wire_bytes() + s.gamma.wire_bytes())
                .sum(),
        }
    }
}

impl<F: Field> Embeds<BitGenMsg<F>> for DisputeVssMsg<F> {
    fn wrap(inner: BitGenMsg<F>) -> Self {
        DisputeVssMsg::Check(inner)
    }
    fn peek(&self) -> Option<&BitGenMsg<F>> {
        match self {
            DisputeVssMsg::Check(c) => Some(c),
            DisputeVssMsg::Open(_) => None,
        }
    }
}

impl<F: Field> Embeds<ExposeMsg<F>> for DisputeVssMsg<F> {
    fn wrap(inner: ExposeMsg<F>) -> Self {
        DisputeVssMsg::Check(BitGenMsg::Expose(inner))
    }
    fn peek(&self) -> Option<&ExposeMsg<F>> {
        match self {
            DisputeVssMsg::Check(BitGenMsg::Expose(e)) => Some(e),
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
    pub shares: BatchShares<F>,
    /// The outlier positions whose shares were publicly opened.
    pub opened: Vec<PartyId>,
}

/// Dispute-resolving verification — Fig. 2 steps 2–4 plus the second
/// broadcast round of §3.1's remark — as a sans-IO round machine.
/// 3 rounds; consumes one challenge coin. The dealing must already have
/// happened; `dealt` is the dealer's record of every party's shares
/// (`Some` only at the dealer) so it can answer disputes. A position the
/// record does not hold goes unanswered.
///
/// Every path through the protocol takes the same number of rounds (a
/// disqualified dealer still burns the dispute round) so fleets of these
/// machines stay in lock-step regardless of verdict. The output
/// propagates [`CoinError`] from the challenge expose.
pub struct VssDisputeMachine<M, F: Field> {
    dealer: PartyId,
    dealt: Option<Vec<BatchShares<F>>>,
    stage: DvStage<M, F>,
}

enum DvStage<M, F: Field> {
    /// Fig. 2's check in flight, robust rule: ends with the majority
    /// polynomial `F*` (or `⊥`) and every broadcast `β`.
    Check(BitGenMachine<M, F>),
    /// Inbox holds the dealer's openings: judge.
    Dispute { r: F, f_star: Option<Poly<F>>, outliers: Vec<PartyId>, shares: BatchShares<F> },
    Finished,
}

impl<M, F: Field> VssDisputeMachine<M, F> {
    /// A machine verifying `shares` from `dealer` with `coin` as the
    /// challenge; `dealt` must be `Some` only at the dealer.
    pub fn new(
        dealer: PartyId,
        dealt: Option<Vec<BatchShares<F>>>,
        t: usize,
        shares: BatchShares<F>,
        coin: SealedShare<F>,
    ) -> Self {
        let check =
            BitGenMachine::broadcast(dealer, t, 1, coin, Acceptance::Robust, Start::Held(shares));
        VssDisputeMachine { dealer, dealt, stage: DvStage::Check(check) }
    }
}

/// The dispute round's verdict from the dealer's openings.
fn judge_openings<F: Field>(
    id: PartyId,
    r: F,
    f_star: Option<Poly<F>>,
    outliers: Vec<PartyId>,
    mut shares: BatchShares<F>,
    opened: Option<&[(PartyId, BatchShares<F>)]>,
) -> DisputeOutcome<F> {
    // No consistent majority existed: the dealer was disqualified
    // outright (the dispute round was burned for lock-step).
    let Some(f_star) = f_star else {
        return DisputeOutcome { verdict: VssVerdict::Reject, shares, opened: Vec::new() };
    };
    // Every outlier must be answered with shares whose combination lies
    // on F* (a dealer that refused to answer answered none).
    let xs: Vec<F> = outliers.iter().map(|&i| F::element(i as u64)).collect();
    let mut on_f = vec![F::zero(); xs.len()];
    F::eval_points(f_star.coeffs(), &xs, &mut on_f);
    let answered = outliers.iter().zip(on_f).all(|(&i, y)| {
        match opened.and_then(|o| o.iter().find(|(j, _)| *j == i)) {
            Some((_, s)) if s.alphas.len() == 1 && horner_combine(&s.alphas, s.gamma, r) == y => {
                if i == id {
                    // Adopt the publicly consistent shares.
                    shares = s.clone();
                }
                true
            }
            _ => false,
        }
    });
    DisputeOutcome { verdict: VssVerdict::of(answered), shares, opened: outliers }
}

impl<M, F> RoundMachine<M> for VssDisputeMachine<M, F>
where
    M: Clone + WireSize + Embeds<ExposeMsg<F>> + Embeds<BitGenMsg<F>> + Embeds<DisputeVssMsg<F>>,
    F: Field,
{
    type Output = Result<DisputeOutcome<F>, CoinError>;

    fn round(&mut self, mut view: RoundView<'_, M>) -> Step<M, Self::Output> {
        let n = view.n;
        match mem::replace(&mut self.stage, DvStage::Finished) {
            DvStage::Check(mut check) => {
                let run = match check.round(view.reborrow()) {
                    Step::Continue(out) => {
                        self.stage = DvStage::Check(check);
                        return Step::Continue(out);
                    }
                    Step::Done(Err(e)) => return Step::Done(Err(e)),
                    Step::Done(Ok(run)) => run,
                };
                // The majority polynomial F* and the outlier set (public:
                // everyone computes the same ones from the same
                // broadcasts).
                let r = run.r;
                let mine =
                    run.into_view(self.dealer).unwrap_or_else(|| DealerView::empty(self.dealer, n));
                let outliers: Vec<PartyId> = match &mine.check_poly {
                    Some(f) => {
                        let fit = mine.fitters(f, &party_points(n), (0..n).collect());
                        (1..=n).filter(|i| !fit.contains(&(i - 1))).collect()
                    }
                    // No majority: nothing to open, but the round is still
                    // burned below so all parties stay in lock-step.
                    None => Vec::new(),
                };

                // Second broadcast round: the dealer opens the outlier
                // positions.
                let mut out = view.outbox();
                if view.id == self.dealer && !outliers.is_empty() {
                    if let Some(dealt) = &self.dealt {
                        let opened = outliers
                            .iter()
                            .filter_map(|&i| Some((i, dealt.get(i - 1)?.clone())))
                            .collect();
                        out.broadcast(<M as Embeds<DisputeVssMsg<F>>>::wrap(
                            DisputeVssMsg::Open(opened),
                        ));
                    }
                }
                let shares = BatchShares { alphas: mine.alphas, gamma: mine.gamma };
                self.stage =
                    DvStage::Dispute { r, f_star: mine.check_poly, outliers, shares };
                Step::Continue(out)
            }
            DvStage::Dispute { r, f_star, outliers, shares } => {
                let openings = view.inbox.first_per_sender(view.n, |rcv| {
                    match <M as Embeds<DisputeVssMsg<F>>>::peek(rcv.msg()) {
                        Some(DisputeVssMsg::Open(opened)) if rcv.broadcast => Some(&opened[..]),
                        _ => None,
                    }
                });
                let opened = self.dealer.checked_sub(1).and_then(|d| *openings.get(d)?);
                Step::Done(Ok(judge_openings(view.id, r, f_star, outliers, shares, opened)))
            }
            #[expect(clippy::panic, reason = "driver contract: round() is never called after Done")]
            DvStage::Finished => panic!("VssDisputeMachine driven past completion"),
        }
    }

    fn phase_name(&self) -> &'static str {
        match &self.stage {
            DvStage::Check(check) => check.phase_name(),
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
    dealt: Option<Vec<BatchShares<F>>>,
    t: usize,
    shares: BatchShares<F>,
    coin: SealedShare<F>,
) -> impl RoundMachine<M, Output = Result<DisputeOutcome<F>, ProtocolError>>
where
    M: Clone + WireSize + Embeds<ExposeMsg<F>> + Embeds<BitGenMsg<F>> + Embeds<DisputeVssMsg<F>>,
    F: Field,
{
    VssDisputeMachine::new(dealer, dealt, t, shares, coin).map(move |res| {
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
    use std::sync::Arc;

    use crate::batch_vss::cheating_batch_deal;
    use crate::dealer::TrustedDealer;
    use dprbg_field::Gf2k;
    use dprbg_rng::rngs::StdRng;
    use dprbg_rng::SeedableRng;
    use crate::bit_gen::rewriting;
    use dprbg_sim::{BoxedMachine, FaultPlan, StepRunner};

    type F = Gf2k<32>;
    type M = DisputeVssMsg<F>;

    /// Dealing helper: every party's shares of one honest (`bad = 0`) or
    /// degree-(t+1) (`bad = 1`) sharing.
    fn deal(n: usize, t: usize, bad: usize, seed: u64) -> Vec<BatchShares<F>> {
        cheating_batch_deal(n, t, 1, bad, &mut StdRng::seed_from_u64(seed))
    }

    /// A fleet of dispute machines: party 1 deals (holds the dealt record
    /// when `answering` is true), everyone verifies `held[id - 1]`.
    fn fleet(
        dealt: &[BatchShares<F>],
        answering: bool,
        t: usize,
        held: &[BatchShares<F>],
        coin_seed: u64,
    ) -> Vec<BoxedMachine<M, Result<DisputeOutcome<F>, CoinError>>> {
        let coins = TrustedDealer::coin_shares::<F>(held.len(), t, coin_seed);
        (1..=held.len())
            .map(|id| {
                let record = (answering && id == 1).then(|| dealt.to_vec());
                Box::new(VssDisputeMachine::new(1, record, t, held[id - 1].clone(), coins[id - 1]))
                    as BoxedMachine<M, _>
            })
            .collect()
    }

    #[test]
    fn no_disputes_all_honest() {
        let (n, t) = (7, 2);
        let shares = deal(n, t, 0, 2);
        let res = StepRunner::new(n, 3).run(fleet(&shares, true, t, &shares, 1));
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
        let (n, t) = (7, 2);
        let coins = TrustedDealer::coin_shares::<F>(n, t, 10);
        let shares = deal(n, t, 0, 11);
        let plan = FaultPlan::explicit(n, vec![5]);
        let machines = plan.machines::<M, Option<DisputeOutcome<F>>>(
            |id| {
                let record = (id == 1).then(|| shares.clone());
                Box::new(
                    VssDisputeMachine::new(1, record, t, shares[id - 1].clone(), coins[id - 1])
                        .map(|r: Result<DisputeOutcome<F>, CoinError>| r.ok()),
                )
            },
            |id| {
                // Honest up to the β, which it replaces with garbage.
                let honest = VssDisputeMachine::new(1, None, t, shares[id - 1].clone(), coins[id - 1]);
                Box::new(rewriting(honest.map(|_| None), |_, _, out| {
                    out.map(|msg| match msg {
                        DisputeVssMsg::Check(BitGenMsg::Beta(_)) => {
                            DisputeVssMsg::Check(BitGenMsg::Beta(F::from_u64(0xBAD)))
                        }
                        other => other,
                    })
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
        let (n, t) = (7, 2);
        let dealt = deal(n, t, 0, 21);
        let mut held = dealt.clone();
        Arc::make_mut(&mut held[2].alphas)[0] += F::one(); // the lie to party 3
        let res = StepRunner::new(n, 22).run(fleet(&dealt, true, t, &held, 20));
        let outs = res.unwrap_all();
        for (i, out) in outs.iter().enumerate() {
            let o = out.as_ref().unwrap();
            assert_eq!(o.verdict, VssVerdict::Accept, "party {}", i + 1);
            assert_eq!(o.opened, vec![3]);
        }
        // Party 3's corrected share is the dealt one now.
        assert_eq!(outs[2].as_ref().unwrap().shares, dealt[2]);
    }

    #[test]
    fn unresponsive_dealer_rejected() {
        // Party 5 garbles its β and the dealer refuses to open: reject.
        let (n, t) = (7, 2);
        let dealt = deal(n, t, 0, 31);
        let mut held = dealt.clone();
        Arc::make_mut(&mut held[4].alphas)[0] += F::one();
        // Nobody holds the dealt record: the dealer cannot (will not)
        // answer the dispute.
        let res = StepRunner::new(n, 32).run(fleet(&dealt, false, t, &held, 30));
        for out in res.unwrap_all() {
            assert_eq!(out.unwrap().verdict, VssVerdict::Reject);
        }
    }

    #[test]
    fn short_dealt_record_leaves_positions_unanswered() {
        // The dealer's record holds n − 1 entries and position 7 is the
        // outlier: the dealer cannot open it, so everyone rejects.
        let (n, t) = (7, 2);
        let dealt = deal(n, t, 0, 36);
        let mut held = dealt.clone();
        Arc::make_mut(&mut held[6].alphas)[0] += F::one();
        let res = StepRunner::new(n, 37).run(fleet(&dealt[..n - 1], true, t, &held, 35));
        for out in res.unwrap_all() {
            let o = out.unwrap();
            assert_eq!(o.verdict, VssVerdict::Reject);
            assert_eq!(o.opened, vec![7]);
        }
    }

    #[test]
    fn degree_cheating_dealer_still_rejected() {
        // A dealer committing to a degree-(t+1) polynomial cannot be
        // saved by disputes: no majority F* exists.
        let (n, t) = (7, 2);
        let shares = deal(n, t, 1, 41);
        let res = StepRunner::new(n, 42).run(fleet(&shares, true, t, &shares, 40));
        for out in res.unwrap_all() {
            assert_eq!(out.unwrap().verdict, VssVerdict::Reject);
        }
    }

    #[test]
    fn blame_wrapper_accepts_honest_and_convicts_cheater() {
        let (n, t) = (7, 2);
        // Honest dealer: wrapper passes the outcome through.
        let coins = TrustedDealer::coin_shares::<F>(n, t, 50);
        let shares = deal(n, t, 0, 51);
        let machines: Vec<BoxedMachine<M, Result<DisputeOutcome<F>, ProtocolError>>> = (1..=n)
            .map(|id| {
                let record = (id == 1).then(|| shares.clone());
                Box::new(vss_dispute_or_blame(1, record, t, shares[id - 1].clone(), coins[id - 1]))
                    as BoxedMachine<M, _>
            })
            .collect();
        for out in StepRunner::new(n, 52).run(machines).unwrap_all() {
            assert_eq!(out.unwrap().verdict, VssVerdict::Accept);
        }

        // Unresponsive dealer with a garbled position: every honest party
        // gets Aborted blaming the dealer.
        let coins = TrustedDealer::coin_shares::<F>(n, t, 53);
        let mut shares = deal(n, t, 0, 54);
        Arc::make_mut(&mut shares[4].alphas)[0] += F::one();
        let machines: Vec<BoxedMachine<M, Result<DisputeOutcome<F>, ProtocolError>>> = (1..=n)
            .map(|id| {
                Box::new(vss_dispute_or_blame(1, None, t, shares[id - 1].clone(), coins[id - 1]))
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
