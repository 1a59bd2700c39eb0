//! Reliable broadcast from grade-cast + Byzantine agreement.
//!
//! The paper's motivation runs in this direction: "Coins are often used
//! as a source of randomness to execute Byzantine agreement, and hence
//! implement a broadcast channel" (§4). This module closes that loop as
//! a library primitive: once BA is available, a single sender's value can
//! be *reliably broadcast* over point-to-point channels —
//!
//! 1. the sender grade-casts `v`;
//! 2. everyone runs BA with input "my confidence was 2";
//! 3. if BA decides 1, output the grade-cast value (grade-cast property 2
//!    guarantees every honest party holds the same value with confidence
//!    ≥ 1 once any honest party had confidence 2); otherwise output ⊥.
//!
//! Guarantees (`n > 4t`, from the phase-king bound):
//! - **Validity**: an honest sender's value is delivered by all.
//! - **Agreement**: all honest parties deliver the same
//!   `Option<V>` — even under a Byzantine sender.
//!
//! This is how the §3 protocols' "broadcast channel facility" assumption
//! can be discharged in the §4 model, at the cost of one grade-cast and
//! one BA per broadcast.

use dprbg_metrics::WireSize;
use dprbg_sim::{Embeds, MachineExt, PartyId, RoundMachine};

use crate::ba::{BaMsg, PhaseKingMachine};
use crate::gradecast::{GcMsg, GradeOutput, GradecastMachine};

/// Reliable broadcast as a composition of round machines: grade-cast,
/// [`then`](MachineExt::then) BA on "my confidence was 2",
/// [`map`](MachineExt::map)ped to the delivered value. The sequencing is
/// pure combinator plumbing — no transport code.
///
/// All parties construct the machine together in the same round, with
/// `my_value` `Some` only at the `sender`. Takes `3 + 2(t + 1)` rounds
/// (grade-cast + phase-king). The output is the delivered value, `None`
/// meaning "sender disqualified" (identical at every honest party).
pub fn reliable_broadcast_machine<M, V>(
    sender: PartyId,
    my_value: Option<V>,
    t: usize,
) -> impl RoundMachine<M, Output = Option<V>> + Send
where
    M: Clone + WireSize + Embeds<GcMsg<V>> + Embeds<BaMsg>,
    V: Clone + Eq + WireSize + Send + 'static,
{
    GradecastMachine::new(my_value).then(move |graded: Vec<GradeOutput<V>>| {
        let grade = &graded[sender - 1];
        // Owned before the closure: capturing the handle would put a
        // `V: Sync` bound on the returned machine.
        let value = grade.value.as_deref().cloned();
        PhaseKingMachine::new(grade.confidence == 2, t)
            .map(move |delivered: bool| if delivered { value } else { None })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use dprbg_rng::rngs::StdRng;
    use dprbg_rng::{RngExt, SeedableRng};
    use dprbg_sim::{from_fn, BoxedMachine, FaultPlan, ParRunner, RoundView, Step, StepRunner};

    /// Composite wire type for the broadcast: grade-cast + BA traffic.
    #[derive(Debug, Clone, PartialEq, Eq)]
    enum Wire {
        Gc(GcMsg<u64>),
        Ba(BaMsg),
    }

    impl WireSize for Wire {
        fn wire_bytes(&self) -> usize {
            match self {
                Wire::Gc(m) => m.wire_bytes(),
                Wire::Ba(m) => m.wire_bytes(),
            }
        }
    }

    impl Embeds<GcMsg<u64>> for Wire {
        fn wrap(inner: GcMsg<u64>) -> Self {
            Wire::Gc(inner)
        }
        fn peek(&self) -> Option<&GcMsg<u64>> {
            match self {
                Wire::Gc(m) => Some(m),
                _ => None,
            }
        }
    }

    impl Embeds<BaMsg> for Wire {
        fn wrap(inner: BaMsg) -> Self {
            Wire::Ba(inner)
        }
        fn peek(&self) -> Option<&BaMsg> {
            match self {
                Wire::Ba(m) => Some(m),
                _ => None,
            }
        }
    }

    fn fleet(n: usize, sender: PartyId, value: u64, t: usize) -> Vec<BoxedMachine<Wire, Option<u64>>> {
        (1..=n)
            .map(|id| {
                let v = (id == sender).then_some(value);
                Box::new(reliable_broadcast_machine::<Wire, u64>(sender, v, t))
                    as BoxedMachine<Wire, Option<u64>>
            })
            .collect()
    }

    #[test]
    fn honest_sender_delivers_to_all() {
        let n = 7;
        for out in StepRunner::new(n, 1).run(fleet(n, 3, 0xB40ADCA57, 1)).unwrap_all() {
            assert_eq!(out, Some(0xB40ADCA57));
        }
    }

    #[test]
    fn equivocating_sender_yields_agreement_anyway() {
        let n = 9;
        let t = 2;
        let plan = FaultPlan::explicit(n, vec![1]);
        let deadline = (3 + 2 * (t + 1)) as u64;
        let machines = plan.machines::<Wire, Option<Option<u64>>>(
            |_| {
                Box::new(
                    reliable_broadcast_machine::<Wire, u64>(1, None, t).map(Some),
                )
            },
            |_| {
                Box::new(from_fn(move |view: RoundView<'_, Wire>| match view.round {
                    0 => {
                        // Split round 0, then stay silent.
                        let mut out = view.outbox();
                        for to in 1..=view.n {
                            out.send(
                                to,
                                Wire::Gc(GcMsg::Value(Arc::new(if to % 2 == 0 { 7 } else { 8 }))),
                            );
                        }
                        Step::Continue(out)
                    }
                    r if r < deadline => Step::Continue(view.outbox()),
                    _ => Step::Done(None),
                }))
            },
        );
        let res = StepRunner::new(n, 2).run(machines);
        let outs: Vec<Option<u64>> = plan
            .honest()
            .map(|id| res.outputs[id - 1].as_ref().unwrap().unwrap())
            .collect();
        assert!(
            outs.windows(2).all(|w| w[0] == w[1]),
            "honest parties disagree: {outs:?}"
        );
    }

    #[test]
    fn executors_agree_on_outputs_and_costs() {
        // The same broadcast fleet on the single-threaded StepRunner and
        // the pooled ParRunner: outputs, cost report, and round
        // profile must all be bit-identical.
        let n = 7;
        let t = 1;
        let seed = 0xB0;
        let stepped = StepRunner::new(n, seed).run(fleet(n, 4, 777, t));
        let par = ParRunner::new(n, seed).with_threads(4).run(fleet(n, 4, 777, t));
        assert_eq!(stepped.outputs, par.outputs);
        assert_eq!(stepped.report, par.report);
        assert_eq!(stepped.rounds, par.rounds);
        assert_eq!(stepped.outputs[0], Some(Some(777)));
        // 3 gradecast rounds + 2(t+1) BA rounds.
        assert_eq!(stepped.report.comm.rounds as usize, 3 + 2 * (t + 1));
    }

    #[test]
    fn silent_sender_delivers_bottom_everywhere() {
        let n = 7;
        // Sender 5 never speaks (every party passes None).
        let machines: Vec<BoxedMachine<Wire, Option<u64>>> = (1..=n)
            .map(|_| {
                Box::new(reliable_broadcast_machine::<Wire, u64>(5, None, 1))
                    as BoxedMachine<Wire, Option<u64>>
            })
            .collect();
        for out in StepRunner::new(n, 3).run(machines).unwrap_all() {
            assert_eq!(out, None);
        }
    }

    #[test]
    fn random_fault_sweep_keeps_agreement_and_validity() {
        let mut rng = StdRng::seed_from_u64(0xBC);
        for trial in 0..10u64 {
            let n = 9;
            let sender = rng.random_range(1..=n as u64) as usize;
            let bad = loop {
                let b = rng.random_range(1..=n as u64) as usize;
                if b != sender {
                    break b;
                }
            };
            let plan = FaultPlan::explicit(n, vec![bad]);
            let machines = plan.machines::<Wire, Option<Option<u64>>>(
                |id| {
                    let v = (id == sender).then_some(42 + trial);
                    Box::new(reliable_broadcast_machine::<Wire, u64>(sender, v, 2).map(Some))
                },
                |_| {
                    let mut noise = StdRng::seed_from_u64(0xBC00 + trial);
                    Box::new(from_fn(move |view: RoundView<'_, Wire>| {
                        // Random byzantine noise for a few rounds: Echo and
                        // Vote bundles of 0..=n + 1 entries tagged 0..=n + 1,
                        // so repeated and out-of-range instances occur.
                        let round = view.round as usize;
                        if round >= 6 {
                            return Step::Done(None);
                        }
                        let mut out = view.outbox();
                        for to in 1..=view.n {
                            if (to + round) % 3 == 0 {
                                let bundle = (0..noise.random_range(0..=view.n + 1))
                                    .map(|_| {
                                        let instance = noise.random_range(0..=view.n + 1);
                                        (instance, Arc::new(noise.random_range(998..=1000u64)))
                                    })
                                    .collect();
                                let msg = if noise.random_range(0..2u32) == 0 {
                                    GcMsg::Echo(bundle)
                                } else {
                                    GcMsg::Vote(bundle)
                                };
                                out.send(to, Wire::Gc(msg));
                            }
                        }
                        Step::Continue(out)
                    }))
                },
            );
            let res = StepRunner::new(n, 700 + trial).run(machines);
            for id in plan.honest() {
                assert_eq!(
                    res.outputs[id - 1].as_ref().unwrap().unwrap(),
                    Some(42 + trial),
                    "trial {trial}: validity at party {id} (sender {sender}, bad {bad})"
                );
            }
        }
    }
}
