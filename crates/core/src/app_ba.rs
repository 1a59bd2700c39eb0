//! Common-coin randomized Byzantine agreement — the paper's flagship
//! application.
//!
//! "Shared coins are needed, amongst other things, for Byzantine
//! agreement (BA) and broadcast" (§1.1); "this result straightaway yields
//! speed-ups in many applications including broadcast and Byzantine
//! agreement" (§1.1). This module is that application: a Rabin-style
//! randomized BA whose per-phase coin comes from the bootstrapped D-PRBG
//! reservoir, so the *expected* number of phases is constant regardless
//! of `t` — against `t + 1` phases for any deterministic protocol.
//!
//! Per phase (for `n ≥ 6t + 1`, matching the coin machinery's model):
//!
//! 1. everyone sends its current bit;
//! 2. everyone draws the **same** shared coin from the beacon;
//! 3. a party seeing ≥ `n − t` votes for `b` decides `b`; one seeing
//!    ≥ `2t + 1` adopts the majority; otherwise it adopts the coin.
//!
//! Once some honest party decides `b` in phase `p`, every honest party
//! has ≥ `n − 2t ≥ 2t + 1 + 2t`… votes for `b` in phase `p + 1` and
//! decides too; if votes are split, the common coin matches the
//! eventual majority with probability ≥ 1/2, so the expected number of
//! phases to the first decision is ≤ 2 + O(1).
//!
//! The protocol runs a **fixed phase schedule** (`phases`, typically a
//! small constant multiple of the expectation): all honest parties stay
//! in lock-step through every beacon draw and refill, which keeps the
//! reservoir state synchronized — the deciding phase is reported so
//! callers can observe the expected-constant behaviour.

use dprbg_field::Field;
use dprbg_metrics::WireSize;
use dprbg_sim::{
    from_fn, looping, ready, Embeds, LoopControl, MachineExt, RoundMachine, RoundView, Step,
};

use crate::bootstrap::Bootstrap;
use crate::coin_gen::CoinGenWire;
use crate::errors::CoinGenError;

/// The vote message of the common-coin BA.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CcbaVote(pub bool);

impl WireSize for CcbaVote {
    fn wire_bytes(&self) -> usize {
        1
    }
}

/// The outcome of a common-coin BA run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CcbaOutcome {
    /// The agreed bit.
    pub decision: bool,
    /// The phase at which this party first saw ≥ n − t support (Lemma-8
    /// style: expected O(1)); `None` if the fixed schedule ended first
    /// (probability 2^-Ω(phases)).
    pub decided_in_phase: Option<usize>,
}

/// One vote exchange: send the current bit, tally the distinct votes.
fn vote_round<M>(v: bool) -> impl RoundMachine<M, Output = (usize, usize, usize)>
where
    M: Clone + WireSize + Embeds<CcbaVote> + Send + 'static,
{
    let mut sent = false;
    from_fn(move |view: RoundView<'_, M>| {
        if !sent {
            sent = true;
            let mut out = view.outbox();
            out.send_to_all(<M as Embeds<CcbaVote>>::wrap(CcbaVote(v)));
            return Step::Continue(out);
        }
        let n = view.n;
        let votes = view.inbox.first_per_sender(n, |r| {
            <M as Embeds<CcbaVote>>::peek(r.msg()).map(|&CcbaVote(b)| b)
        });
        let ones = votes.iter().filter(|v| **v == Some(true)).count();
        let zeros = votes.iter().filter(|v| **v == Some(false)).count();
        Step::Done((n, ones, zeros))
    })
    .labelled("ccba/vote")
}

/// Loop state of the phase schedule.
enum CcbaFlow<F: Field> {
    /// About to run phase `phase` (1-based) with current estimate `v`.
    Phase { beacon: Bootstrap<F>, v: bool, decided: Option<(bool, usize)>, phase: usize },
    /// Votes tallied and the phase coin drawn: apply the decision rule.
    Coin {
        beacon: Bootstrap<F>,
        decided: Option<(bool, usize)>,
        phase: usize,
        n: usize,
        ones: usize,
        zeros: usize,
        coin: Result<bool, CoinGenError>,
    },
}

/// A machine running common-coin randomized BA on `input` over a fixed
/// schedule of `phases` phases, drawing one shared coin per phase from
/// `beacon`.
///
/// All honest parties start this machine together with beacons in the
/// same state; the output returns the beacon (advanced by `phases` draws
/// plus any refills) alongside the outcome. Needs
/// `M: CoinGenWire<F> + Embeds<CcbaVote>` — the wire type carries both
/// the generator's traffic (for beacon refills) and the votes. The
/// result half of the output propagates beacon failures (seed exhaustion
/// etc.).
#[allow(clippy::int_plus_one, reason = "thresholds written as the paper states them")]
pub fn common_coin_ba<M, F>(
    input: bool,
    t: usize,
    beacon: Bootstrap<F>,
    phases: usize,
) -> impl RoundMachine<M, Output = (Bootstrap<F>, Result<CcbaOutcome, CoinGenError>)>
where
    M: CoinGenWire<F> + Embeds<CcbaVote>,
    F: Field,
{
    let init = CcbaFlow::Phase { beacon, v: input, decided: None, phase: 1 };
    looping(init, move |flow| match flow {
        CcbaFlow::Phase { beacon, v, decided, phase } => {
            if phase > phases {
                let outcome = CcbaOutcome {
                    decision: decided.map(|(d, _)| d).unwrap_or(v),
                    decided_in_phase: decided.map(|(_, p)| p),
                };
                return LoopControl::Break((beacon, Ok(outcome)));
            }
            // Vote round, then the shared coin — drawn by everyone every
            // phase so the beacon (including its refills) stays in global
            // lock-step.
            LoopControl::Continue(Box::new(vote_round::<M>(v).then(
                move |(n, ones, zeros)| {
                    beacon.draw_bit().map(move |(beacon, coin)| CcbaFlow::Coin {
                        beacon,
                        decided,
                        phase,
                        n,
                        ones,
                        zeros,
                        coin,
                    })
                },
            )))
        }
        CcbaFlow::Coin { beacon, mut decided, phase, n, ones, zeros, coin } => {
            let coin = match coin {
                Ok(c) => c,
                Err(e) => return LoopControl::Break((beacon, Err(e))),
            };
            let v = if ones >= n - t {
                decided = decided.or(Some((true, phase)));
                true
            } else if zeros >= n - t {
                decided = decided.or(Some((false, phase)));
                false
            } else if ones >= 2 * t + 1 && ones > zeros {
                true
            } else if zeros >= 2 * t + 1 && zeros > ones {
                false
            } else {
                coin
            };
            // Pure transition: the next phase's vote goes out in the same
            // driver round the coin landed in.
            LoopControl::Continue(Box::new(ready(CcbaFlow::Phase {
                beacon,
                v,
                decided,
                phase: phase + 1,
            })))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bit_gen::BitGenMsg;
    use crate::bootstrap::BootstrapConfig;
    use crate::coin::ExposeMsg;
    use crate::coin_gen::{CliqueAnnounce, CoinGenConfig};
    use crate::dealer::TrustedDealer;
    use crate::params::Params;
    use dprbg_field::Gf2k;
    use dprbg_protocols::{BaMsg, GcMsg};
    use dprbg_rng::rngs::StdRng;
    use dprbg_rng::{RngExt, SeedableRng};
    use dprbg_sim::{BoxedMachine, FaultPlan, StepRunner};

    type F = Gf2k<32>;

    /// Wire type: generator traffic + votes.
    #[derive(Debug, Clone, PartialEq, Eq)]
    enum Wire {
        Vote(CcbaVote),
        BitGen(BitGenMsg<F>),
        Expose(ExposeMsg<F>),
        Gc(GcMsg<CliqueAnnounce<F>>),
        Ba(BaMsg),
    }

    impl WireSize for Wire {
        fn wire_bytes(&self) -> usize {
            match self {
                Wire::Vote(m) => m.wire_bytes(),
                Wire::BitGen(m) => m.wire_bytes(),
                Wire::Expose(m) => m.wire_bytes(),
                Wire::Gc(m) => m.wire_bytes(),
                Wire::Ba(m) => m.wire_bytes(),
            }
        }
    }

    macro_rules! embed {
        ($inner:ty, $variant:ident) => {
            impl Embeds<$inner> for Wire {
                fn wrap(inner: $inner) -> Self {
                    Wire::$variant(inner)
                }
                fn peek(&self) -> Option<&$inner> {
                    match self {
                        Wire::$variant(m) => Some(m),
                        _ => None,
                    }
                }
            }
        };
    }
    embed!(CcbaVote, Vote);
    embed!(BitGenMsg<F>, BitGen);
    embed!(ExposeMsg<F>, Expose);
    embed!(GcMsg<CliqueAnnounce<F>>, Gc);
    embed!(BaMsg, Ba);

    fn beacons(n: usize, t: usize, seed: u64) -> Vec<Bootstrap<F>> {
        let params = Params::p2p_model(n, t).unwrap();
        let cfg = BootstrapConfig::with_default_low_water(CoinGenConfig {
            params,
            batch_size: 16,
        });
        TrustedDealer::deal_wallets::<F>(params, 6, seed)
            .into_iter()
            .map(|w| Bootstrap::new(cfg, w))
            .collect()
    }

    #[test]
    fn validity_with_unanimous_inputs() {
        for bit in [false, true] {
            let n = 7;
            let t = 1;
            let machines: Vec<BoxedMachine<Wire, CcbaOutcome>> = beacons(n, t, 1)
                .into_iter()
                .map(|b| {
                    Box::new(
                        common_coin_ba::<Wire, F>(bit, t, b, 6)
                            .map(|(_, res)| res.unwrap()),
                    ) as BoxedMachine<Wire, _>
                })
                .collect();
            for out in StepRunner::new(n, 2).run(machines).unwrap_all() {
                assert_eq!(out.decision, bit);
                assert_eq!(out.decided_in_phase, Some(1), "unanimous → phase 1");
            }
        }
    }

    #[test]
    fn split_inputs_converge_fast() {
        let n = 7;
        let machines: Vec<BoxedMachine<Wire, CcbaOutcome>> = beacons(n, 1, 3)
            .into_iter()
            .enumerate()
            .map(|(i, b)| {
                let id = i + 1;
                Box::new(
                    common_coin_ba::<Wire, F>(id % 2 == 0, 1, b, 8)
                        .map(|(_, res)| res.unwrap()),
                ) as BoxedMachine<Wire, _>
            })
            .collect();
        let outs = StepRunner::new(n, 4).run(machines).unwrap_all();
        let d = outs[0].decision;
        for out in &outs {
            assert_eq!(out.decision, d, "agreement");
            let p = out.decided_in_phase.expect("must decide within 8 phases");
            assert!(p <= 4, "expected-constant phases, got {p}");
        }
    }

    #[test]
    fn agreement_under_adaptive_byzantine_voter() {
        // The faulty party splits its votes to keep honest counts near
        // the threshold; the common coin still forces convergence. It
        // cannot predict the coin, so its split fails in expectation
        // within a couple of phases.
        let n = 7;
        let t = 1;
        let plan = FaultPlan::explicit(n, vec![2]);
        let bs = beacons(n, t, 5);
        let phases = 10;
        let machines = plan.machines::<Wire, Option<CcbaOutcome>>(
            |id| {
                let b = bs[id - 1].clone();
                Box::new(
                    common_coin_ba::<Wire, F>(id % 2 == 0, 1, b, phases)
                        .map(|(_, res)| res.ok()),
                )
            },
            |_| {
                let mut rng = StdRng::seed_from_u64(99);
                // Alternate split votes (even rounds) and corrupted expose
                // shares (odd rounds) well past the honest schedule.
                Box::new(from_fn(move |view: RoundView<'_, Wire>| {
                    if view.round >= 60 {
                        return Step::Done(None);
                    }
                    let mut out = view.outbox();
                    if view.round % 2 == 0 {
                        for to in 1..=view.n {
                            out.send(to, Wire::Vote(CcbaVote(rng.random())));
                        }
                    } else {
                        out.send_to_all(Wire::Expose(ExposeMsg(F::from_u64(
                            rng.random::<u32>() as u64,
                        ))));
                    }
                    Step::Continue(out)
                }))
            },
        );
        let res = StepRunner::new(n, 6).run(machines);
        let outs: Vec<CcbaOutcome> = plan
            .honest()
            .map(|id| res.outputs[id - 1].as_ref().unwrap().unwrap())
            .collect();
        let d = outs[0].decision;
        for out in &outs {
            assert_eq!(out.decision, d, "agreement under Byzantine votes");
            assert!(out.decided_in_phase.is_some(), "must decide in 10 phases");
        }
    }

    #[test]
    fn validity_is_never_overridden_by_the_coin() {
        // All honest input true; the adversary votes false and corrupts
        // coin shares: true must win (validity).
        let n = 7;
        let t = 1;
        let plan = FaultPlan::explicit(n, vec![7]);
        let bs = beacons(n, t, 7);
        let machines = plan.machines::<Wire, Option<CcbaOutcome>>(
            |id| {
                let b = bs[id - 1].clone();
                Box::new(
                    common_coin_ba::<Wire, F>(true, 1, b, 6).map(|(_, res)| res.ok()),
                )
            },
            |_| {
                Box::new(from_fn(move |view: RoundView<'_, Wire>| {
                    if view.round >= 24 {
                        return Step::Done(None);
                    }
                    let mut out = view.outbox();
                    if view.round % 2 == 0 {
                        out.send_to_all(Wire::Vote(CcbaVote(false)));
                    } else {
                        out.send_to_all(Wire::Expose(ExposeMsg(F::from_u64(0xBAD))));
                    }
                    Step::Continue(out)
                }))
            },
        );
        let res = StepRunner::new(n, 8).run(machines);
        for id in plan.honest() {
            let out = res.outputs[id - 1].as_ref().unwrap().unwrap();
            assert!(out.decision, "validity at party {id}");
            assert_eq!(out.decided_in_phase, Some(1));
        }
    }
}
