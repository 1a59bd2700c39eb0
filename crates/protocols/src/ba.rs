//! Deterministic Byzantine agreement: the phase-king protocol.
//!
//! Coin-Gen step 10 "run[s] any BA protocol", and the paper assumes
//! deterministic BA "for simplicity" (§1.2). We implement the simple
//! two-round-per-phase **phase-king** protocol (Berman–Garay–Perry
//! family): `t + 1` phases, each with a *suggest* round (everyone
//! exchanges its current bit) and a *king* round (the phase's king
//! tie-breaks for parties without overwhelming support).
//!
//! This variant is correct for `n > 4t`; the paper's §4 model has
//! `n ≥ 6t + 1`, which satisfies it with room to spare. Properties:
//!
//! - **Validity**: if every honest party inputs `b`, every honest party
//!   outputs `b`.
//! - **Agreement**: all honest parties output the same bit.
//! - **Termination**: exactly `2(t + 1)` rounds.

use std::marker::PhantomData;

use dprbg_metrics::WireSize;
use dprbg_sim::{Embeds, PartyId, RoundMachine, RoundView, Step};

/// Phase-king wire messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaMsg {
    /// Suggest round: the sender's current bit.
    Suggest(bool),
    /// King round: the king's tie-breaking bit.
    King(bool),
}

impl WireSize for BaMsg {
    fn wire_bytes(&self) -> usize {
        1
    }
}

/// Phase-king Byzantine agreement as a sans-IO round machine.
///
/// Each call consumes one round's inbox and emits the next round's sends:
/// the first call sends the initial suggestion, then the machine
/// alternates *suggest-tally / king-send* and *king-tally / next-suggest*
/// calls until phase `t + 1` completes — exactly `2(t + 1)` rounds, where
/// `t = t_bound` is the largest tolerable fault count (callers with a
/// stronger model — e.g. Coin-Gen's `n ≥ 6t + 1` — may pass their own
/// smaller `t_bound`; the round count and king schedule follow it).
///
/// # Panics
///
/// The first round call panics unless `n > 4 · t_bound`.
pub struct PhaseKingMachine<M> {
    t: usize,
    v: bool,
    /// Current phase, 1-based; the phase's king is party `phase`.
    phase: usize,
    /// Whether this phase saw ≥ n − t support for `v`.
    strong: bool,
    stage: BaStage,
    _wire: PhantomData<fn() -> M>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BaStage {
    /// First call: send the initial suggestion (empty inbox).
    Start,
    /// Inbox holds suggest messages; tally and (if king) send the king bit.
    Suggests,
    /// Inbox holds the king message; adopt it if weak, then either start
    /// the next phase or finish.
    Kings,
}

impl<M> PhaseKingMachine<M> {
    /// A machine entering agreement on `input`, tolerating up to `t_bound`
    /// faults.
    pub fn new(input: bool, t_bound: usize) -> Self {
        PhaseKingMachine {
            t: t_bound,
            v: input,
            phase: 1,
            strong: false,
            stage: BaStage::Start,
            _wire: PhantomData,
        }
    }

    fn suggest(&self, view: &RoundView<'_, M>) -> Step<M, bool>
    where
        M: Clone + WireSize + Embeds<BaMsg>,
    {
        let mut out = view.outbox();
        out.send_to_all(M::wrap(BaMsg::Suggest(self.v)));
        Step::Continue(out)
    }
}

impl<M> RoundMachine<M> for PhaseKingMachine<M>
where
    M: Clone + WireSize + Embeds<BaMsg>,
{
    type Output = bool;

    fn round(&mut self, view: RoundView<'_, M>) -> Step<M, bool> {
        let n = view.n;
        let t = self.t;
        match self.stage {
            BaStage::Start => {
                assert!(n > 4 * t, "phase-king requires n > 4t");
                self.stage = BaStage::Suggests;
                self.suggest(&view)
            }
            BaStage::Suggests => {
                let heard = view.inbox.first_per_sender(n, |r| {
                    match <M as Embeds<BaMsg>>::peek(r.msg()) {
                        Some(BaMsg::Suggest(b)) => Some(*b),
                        _ => None,
                    }
                });
                let ones = heard.iter().filter(|h| **h == Some(true)).count();
                let zeros = heard.iter().filter(|h| **h == Some(false)).count();
                // Strong support: ≥ n − t parties said the same thing.
                self.strong = if ones >= n - t {
                    self.v = true;
                    true
                } else if zeros >= n - t {
                    self.v = false;
                    true
                } else {
                    self.v = ones > zeros;
                    false
                };
                let king: PartyId = self.phase; // kings are parties 1, …, t+1
                let mut out = view.outbox();
                if view.id == king {
                    out.send_to_all(M::wrap(BaMsg::King(self.v)));
                }
                self.stage = BaStage::Kings;
                Step::Continue(out)
            }
            BaStage::Kings => {
                let king: PartyId = self.phase;
                if !self.strong {
                    // Adopt the king's bit (a silent/garbled king
                    // defaults to 0). The king's first envelope of any
                    // kind is its word.
                    let first = view.inbox.first_per_sender(n, |r| Some(r.msg()));
                    let word = first[king - 1].and_then(<M as Embeds<BaMsg>>::peek);
                    self.v = matches!(word, Some(BaMsg::King(true)));
                }
                if self.phase == t + 1 {
                    return Step::Done(self.v);
                }
                self.phase += 1;
                self.stage = BaStage::Suggests;
                self.suggest(&view)
            }
        }
    }

    fn phase_name(&self) -> &'static str {
        match self.stage {
            BaStage::Start => "ba/suggest",
            BaStage::Suggests => "ba/king",
            BaStage::Kings => "ba/adopt",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dprbg_rng::rngs::StdRng;
    use dprbg_rng::{RngExt, SeedableRng};
    use dprbg_sim::{from_fn, BoxedMachine, FaultPlan, MachineExt, StepRunner};

    fn honest(input: bool, t: usize) -> BoxedMachine<BaMsg, Option<bool>> {
        Box::new(PhaseKingMachine::new(input, t).map(Some))
    }

    #[test]
    fn validity_all_same_input() {
        for bit in [false, true] {
            let n = 5;
            let fleet: Vec<_> = (0..n).map(|_| honest(bit, 1)).collect();
            let res = StepRunner::new(n, 1).run(fleet);
            assert_eq!(res.unwrap_all(), vec![Some(bit); n]);
        }
    }

    #[test]
    fn agreement_mixed_inputs_no_faults() {
        let n = 5;
        let fleet: Vec<_> = (0..n).map(|i| honest(i % 2 == 0, 1)).collect();
        let res = StepRunner::new(n, 2).run(fleet).unwrap_all();
        assert!(res.windows(2).all(|w| w[0] == w[1]), "disagreement: {res:?}");
    }

    #[test]
    fn agreement_under_byzantine_king() {
        // Parties 1 and 2 (including the first king) equivocate maximally:
        // split suggestions on even rounds, split king bits on odd rounds.
        let n = 9;
        let t = 2;
        let plan = FaultPlan::first_t(n, t);
        let machines = plan.machines::<BaMsg, Option<bool>>(
            |id| honest(id % 2 == 0, t),
            |_| {
                Box::new(from_fn(move |view: RoundView<'_, BaMsg>| {
                    let r = view.round as usize;
                    if r >= 2 * (t + 1) {
                        return Step::Done(None);
                    }
                    let mut out = view.outbox();
                    for to in 1..=view.n {
                        if r % 2 == 0 {
                            out.send(to, BaMsg::Suggest(to % 2 == 0));
                        } else {
                            out.send(to, BaMsg::King(to % 3 == 0));
                        }
                    }
                    Step::Continue(out)
                }))
            },
        );
        let res = StepRunner::new(n, 3).run(machines);
        let honest_out: Vec<bool> =
            plan.honest().map(|id| res.outputs[id - 1].clone().unwrap().unwrap()).collect();
        assert!(
            honest_out.windows(2).all(|w| w[0] == w[1]),
            "honest disagreement: {honest_out:?}"
        );
    }

    #[test]
    fn validity_under_faults() {
        // All honest input `true`; t Byzantine parties push `false`.
        let n = 9;
        let t = 2;
        let plan = FaultPlan::explicit(n, vec![4, 8]);
        let machines = plan.machines::<BaMsg, Option<bool>>(
            |_| honest(true, t),
            |_| {
                Box::new(from_fn(move |view: RoundView<'_, BaMsg>| {
                    let r = view.round as usize;
                    if r >= 2 * (t + 1) {
                        return Step::Done(None);
                    }
                    let mut out = view.outbox();
                    if r % 2 == 0 {
                        out.send_to_all(BaMsg::Suggest(false));
                    } else {
                        out.send_to_all(BaMsg::King(false));
                    }
                    Step::Continue(out)
                }))
            },
        );
        let res = StepRunner::new(n, 4).run(machines);
        for id in plan.honest() {
            assert_eq!(res.outputs[id - 1], Some(Some(true)), "party {id} lost validity");
        }
    }

    #[test]
    fn silent_faults_default_safely() {
        let n = 5;
        let t = 1;
        let plan = FaultPlan::explicit(n, vec![1]); // the first king crashes
        let machines = plan.machines::<BaMsg, Option<bool>>(
            |id| honest(id >= 4, t),
            |_| Box::new(from_fn(|_view: RoundView<'_, BaMsg>| Step::Done(None))),
        );
        let res = StepRunner::new(n, 5).run(machines);
        let outs: Vec<bool> =
            plan.honest().map(|id| res.outputs[id - 1].clone().unwrap().unwrap()).collect();
        assert!(outs.windows(2).all(|w| w[0] == w[1]), "{outs:?}");
    }

    #[test]
    fn round_count_is_two_t_plus_one_phases() {
        let n = 5;
        let fleet: Vec<_> = (0..n).map(|_| honest(true, 1)).collect();
        let res = StepRunner::new(n, 6).run(fleet);
        assert_eq!(res.report.comm.rounds, 4); // 2 rounds × (t+1 = 2) phases
    }

    #[test]
    fn randomized_fault_sweep_keeps_agreement() {
        // Property-style sweep over random inputs and fault sets.
        let mut rng = StdRng::seed_from_u64(0xBA);
        for trial in 0..12u64 {
            let n = 9;
            let t = 2;
            let mut ids: Vec<usize> = (1..=n).collect();
            // Pick two random faulty parties.
            for i in 0..t {
                let j = rng.random_range(i as u64..n as u64) as usize;
                ids.swap(i, j);
            }
            let plan = FaultPlan::explicit(n, ids[..t].to_vec());
            let inputs: Vec<bool> = (0..n).map(|_| rng.random()).collect();
            let machines = plan.machines::<BaMsg, Option<bool>>(
                |id| honest(inputs[id - 1], t),
                |_| {
                    Box::new(from_fn(move |view: RoundView<'_, BaMsg>| {
                        let round = view.round as usize;
                        if round >= 2 * (t + 1) {
                            return Step::Done(None);
                        }
                        let mut out = view.outbox();
                        for to in 1..=view.n {
                            let bit = (to + round) % 2 == 0;
                            let msg = if round % 2 == 0 {
                                BaMsg::Suggest(bit)
                            } else {
                                BaMsg::King(bit)
                            };
                            out.send(to, msg);
                        }
                        Step::Continue(out)
                    }))
                },
            );
            let res = StepRunner::new(n, 100 + trial).run(machines);
            let outs: Vec<bool> =
                plan.honest().map(|id| res.outputs[id - 1].clone().unwrap().unwrap()).collect();
            assert!(
                outs.windows(2).all(|w| w[0] == w[1]),
                "trial {trial}: disagreement {outs:?} (faulty {:?})",
                plan.faulty().collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn rejects_insufficient_n() {
        // n = 4, t = 1 violates n > 4t: every machine's assertion fires
        // and the runner reports all outputs as failed.
        let fleet: Vec<_> = (0..4).map(|_| honest(true, 1)).collect();
        let res = StepRunner::new(4, 7).run(fleet);
        assert!(res.outputs.iter().all(Option::is_none));
    }
}
