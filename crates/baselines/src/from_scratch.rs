//! The from-scratch shared coin — what generating every coin individually
//! costs without a D-PRBG.
//!
//! "A straightforward way to generate a coin would be to interpolate a
//! number of polynomials which at least equals the number of the faults
//! to be tolerated. Coins generated this way, however, would still be
//! highly expensive." (§4.)
//!
//! Here, `t + 1` designated contributors each run a full cut-and-choose
//! VSS ([`crate::ccd`]) of a random secret (no pre-existing shared coins
//! exist to power the paper's cheap VSS — that absence is the whole
//! point); the coin is the sum of the accepted contributions, exposed by
//! one final interpolation. Per coin this costs `(t + 1)·k`
//! interpolations and `O(t·n·k)` field elements of traffic, against the
//! paper's amortized **one** interpolation and `O(n)` messages.

use dprbg_field::Field;
use dprbg_metrics::WireSize;
use dprbg_poly::{column_points, interpolate, party_points};
use dprbg_sim::{
    from_fn, looping, Inbox, LoopControl, MachineExt, PartyId, Received, RoundMachine,
    RoundView, Step,
};

use crate::ccd::{CcdMachine, CcdMsg, CcdOpts, VssVerdict};

/// Wire messages of the from-scratch coin: cut-and-choose traffic plus
/// the final share reveal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FromScratchMsg<F: Field> {
    /// One contributor's VSS traffic, tagged by contributor.
    Ccd {
        /// Which contributor's VSS instance this belongs to.
        instance: PartyId,
        /// The inner cut-and-choose message.
        inner: CcdMsg<F>,
    },
    /// The final expose: this party's summed share.
    Sum(F),
}

impl<F: Field> WireSize for FromScratchMsg<F> {
    fn wire_bytes(&self) -> usize {
        match self {
            FromScratchMsg::Ccd { inner, .. } => 1 + inner.wire_bytes(),
            FromScratchMsg::Sum(s) => s.wire_bytes(),
        }
    }
}

/// Adapter running one contributor's VSS on the tagged wire: the inner
/// machine sees plain [`CcdMsg`] traffic while every message on the real
/// network carries the `instance` tag — the runtime analogue of
/// [`dprbg_sim::Embeds`], needed because a *value* (the current
/// contributor) selects the sub-protocol, not a type.
struct Instanced<A, F: Field> {
    instance: PartyId,
    round: u64,
    inner: A,
    _field: std::marker::PhantomData<fn() -> F>,
}

impl<A, F: Field> Instanced<A, F> {
    fn new(instance: PartyId, inner: A) -> Self {
        Instanced { instance, round: 0, inner, _field: std::marker::PhantomData }
    }
}

impl<A, F> RoundMachine<FromScratchMsg<F>> for Instanced<A, F>
where
    A: RoundMachine<CcdMsg<F>>,
    F: Field,
{
    type Output = A::Output;

    fn round(
        &mut self,
        view: RoundView<'_, FromScratchMsg<F>>,
    ) -> Step<FromScratchMsg<F>, A::Output> {
        let msgs: Vec<Received<CcdMsg<F>>> = view
            .inbox
            .iter()
            .filter_map(|rcv| match rcv.msg() {
                FromScratchMsg::Ccd { instance, inner } if *instance == self.instance => {
                    Some(rcv.with_msg(inner.clone()))
                }
                _ => None,
            })
            .collect();
        let inner_inbox = Inbox::from_messages(msgs);
        let inner_view = RoundView {
            id: view.id,
            n: view.n,
            round: self.round,
            inbox: &inner_inbox,
            rng: view.rng,
        };
        match self.inner.round(inner_view) {
            Step::Continue(out) => {
                self.round += 1;
                let tag = self.instance;
                Step::Continue(out.map(|m| FromScratchMsg::Ccd { instance: tag, inner: m }))
            }
            Step::Done(o) => Step::Done(o),
        }
    }

    fn phase_name(&self) -> &'static str {
        self.inner.phase_name()
    }
}

/// Final expose: broadcast the summed share, interpolate the sums.
fn expose_sum<F: Field>(
    t: usize,
    my_sum: F,
) -> impl RoundMachine<FromScratchMsg<F>, Output = Option<F>> {
    let mut sum = Some(my_sum);
    from_fn(move |view: RoundView<'_, FromScratchMsg<F>>| match sum.take() {
        Some(s) => {
            let mut out = view.outbox();
            out.broadcast(FromScratchMsg::Sum(s));
            Step::Continue(out)
        }
        None => {
            let sums = view.inbox.first_per_sender(view.n, |rcv| match rcv.msg() {
                FromScratchMsg::Sum(s) if rcv.broadcast => Some(*s),
                _ => None,
            });
            let points: Vec<(F, F)> = column_points(&party_points(view.n), &sums).collect();
            if points.len() <= t {
                return Step::Done(None);
            }
            let Ok(poly) = interpolate(&points) else {
                return Step::Done(None);
            };
            Step::Done(
                (poly.degree().is_none_or(|d| d <= t)).then(|| poly.constant_term()),
            )
        }
    })
    .labelled("from-scratch/expose")
}

/// Loop state between contributor VSS instances.
enum FsFlow<F> {
    /// About to run contributor `dealer`'s instance.
    Vss {
        /// Next contributor (1-based; contributors are `1..=t+1`).
        dealer: PartyId,
        /// Sum of accepted shares so far.
        sum: F,
        /// Accepted contributions so far.
        accepted: usize,
    },
    /// The expose finished with this coin.
    Exposed(Option<F>),
}

/// A machine generating ONE shared coin from scratch at party `my_id`.
///
/// Contributors `1..=t+1` each cut-and-choose-VSS a random secret
/// (sequentially — their instances could be interleaved round-wise, but
/// the per-coin cost is identical and the paper's comparison is about
/// totals); the coin is the sum of accepted contributions.
///
/// `challenge_seed` seeds the public cut-and-choose challenges. The
/// output is the coin value, or `None` when reconstruction fails (more
/// faults than the model allows).
pub fn from_scratch_coin<F: Field>(
    my_id: PartyId,
    t: usize,
    ccd_rounds: usize,
    challenge_seed: u64,
) -> impl RoundMachine<FromScratchMsg<F>, Output = Option<F>> {
    looping(
        FsFlow::Vss { dealer: 1, sum: F::zero(), accepted: 0 },
        move |flow: FsFlow<F>| match flow {
            FsFlow::Vss { dealer, sum, accepted } if dealer <= t + 1 => {
                let opts = CcdOpts {
                    rounds: ccd_rounds,
                    challenge_seed: challenge_seed.wrapping_add(dealer as u64 - 1),
                };
                let vss = if my_id == dealer {
                    CcdMachine::random_dealer(dealer, t, opts)
                } else {
                    CcdMachine::new(dealer, None, t, opts)
                };
                LoopControl::Continue(Box::new(Instanced::new(dealer, vss).map(
                    move |(verdict, share): (VssVerdict, F)| {
                        let (sum, accepted) = if verdict == VssVerdict::Accept {
                            (sum + share, accepted + 1)
                        } else {
                            (sum, accepted)
                        };
                        FsFlow::Vss { dealer: dealer + 1, sum, accepted }
                    },
                )))
            }
            FsFlow::Vss { accepted: 0, .. } => LoopControl::Break(None),
            FsFlow::Vss { sum, .. } => {
                LoopControl::Continue(Box::new(expose_sum(t, sum).map(FsFlow::Exposed)))
            }
            FsFlow::Exposed(coin) => LoopControl::Break(coin),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dprbg_field::Gf2k;
    use dprbg_sim::{BoxedMachine, StepRunner};

    type F = Gf2k<32>;
    type M = FromScratchMsg<F>;

    fn run(n: usize, t: usize, k: usize, seed: u64) -> (Vec<Option<F>>, dprbg_metrics::CostReport) {
        let machines: Vec<BoxedMachine<M, Option<F>>> = (1..=n)
            .map(|id| {
                Box::new(from_scratch_coin::<F>(id, t, k, seed ^ 0x5EED))
                    as BoxedMachine<M, _>
            })
            .collect();
        let res = StepRunner::new(n, seed).run(machines);
        let report = res.report.clone();
        (res.unwrap_all(), report)
    }

    #[test]
    fn coin_is_unanimous() {
        let (outs, _) = run(7, 2, 8, 1);
        let v = outs[0].expect("coin must be produced");
        assert!(outs.iter().all(|o| *o == Some(v)));
    }

    #[test]
    fn different_seeds_different_coins() {
        let (a, _) = run(7, 2, 8, 2);
        let (b, _) = run(7, 2, 8, 3);
        assert_ne!(a[0], b[0], "coins from independent runs should differ");
    }

    #[test]
    fn per_coin_cost_scales_with_t_times_k_interpolations() {
        let n = 7;
        let t = 2;
        let k = 8;
        let (_, report) = run(n, t, k, 4);
        // Each player: (t+1) VSS instances × k interpolations + 1 expose.
        let expected = ((t + 1) * k + 1) as u64;
        for pc in &report.per_party {
            assert_eq!(pc.cost.interpolations, expected, "party {}", pc.party);
        }
    }

    #[test]
    fn no_contributors_yields_none() {
        // t = 0 → single contributor; if it crashes the coin fails.
        let n = 4;
        let machines: Vec<BoxedMachine<M, Option<F>>> = (1..=n)
            .map(|id| {
                if id == 1 {
                    // The only contributor goes silent entirely.
                    Box::new(from_fn(|_view: RoundView<'_, M>| Step::Done(None)))
                        as BoxedMachine<M, _>
                } else {
                    Box::new(from_scratch_coin::<F>(id, 0, 4, 99)) as BoxedMachine<M, _>
                }
            })
            .collect();
        let res = StepRunner::new(n, 5).run(machines);
        for id in 2..=n {
            assert_eq!(res.outputs[id - 1], Some(None), "party {id}");
        }
    }
}
