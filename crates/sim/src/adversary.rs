//! Adversary planning helpers.
//!
//! The paper's adversary controls up to `t` parties which "deviate
//! arbitrarily from the protocol, and even collude" (§2). In this
//! simulator, an adversarial party is simply a different
//! [`RoundMachine`](crate::RoundMachine) in the fleet; protocol crates
//! define attack-specific machines next to each protocol. This module
//! provides the generic pieces: a [`FaultPlan`] describing *which* parties
//! are corrupted, the machine every attack shares
//! ([`silent`](crate::silent) — crashing), and the **per-message hop**: a
//! [`MsgTap`] installed on an executor sees every individual envelope in
//! flight and may drop, delay, or tamper with it — a strictly finer
//! adversary surface than swapping out whole machines.

use crate::machine::BoxedMachine;
use crate::router::PartyId;

/// One message in flight, as shown to a [`MsgTap`] at the executor's
/// message hop — after the sender has been charged for it, before it is
/// queued for delivery.
#[derive(Debug)]
pub struct MsgHop<'a, M> {
    /// The sending party.
    pub from: PartyId,
    /// The recipient of this copy. A broadcast passes through the hop
    /// once per recipient, so a tap can equivocate on the §3 ideal
    /// channel by tampering per copy.
    pub to: PartyId,
    /// The global round in which the message was sent (0-based).
    pub round: u64,
    /// Whether this copy travels on the ideal broadcast channel.
    pub broadcast: bool,
    /// The payload.
    pub msg: &'a M,
}

/// What the adversary decides to do with one in-flight message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MsgFate<M> {
    /// Deliver unchanged at the next round boundary.
    Deliver,
    /// Silently discard. The sender still paid the message cost — the
    /// network ate it, the sender doesn't know.
    Drop,
    /// Deliver `extra` rounds late (`Delay(0)` ≡ `Deliver`). The copy
    /// keeps its original sender/sequence coordinates, so a delayed
    /// message merges deterministically into the later inbox.
    Delay(u64),
    /// Replace the payload before delivery (per-copy, enabling broadcast
    /// equivocation).
    Tamper(M),
}

/// A per-message adversary installed at an executor's message hop.
///
/// Both executors consult the tap for every posted copy, on the
/// coordinating thread, in id-major send-order-minor sequence — so even
/// stateful taps fold identically under [`StepRunner`](crate::StepRunner)
/// and [`ParRunner`](crate::ParRunner).
pub trait MsgTap<M>: Send {
    /// Decide this message's fate.
    fn intercept(&mut self, hop: MsgHop<'_, M>) -> MsgFate<M>;
}

impl<M, F> MsgTap<M> for F
where
    F: FnMut(MsgHop<'_, M>) -> MsgFate<M> + Send,
{
    fn intercept(&mut self, hop: MsgHop<'_, M>) -> MsgFate<M> {
        self(hop)
    }
}

/// Which parties the adversary controls in a given execution.
///
/// # Examples
///
/// ```
/// use dprbg_sim::FaultPlan;
/// let plan = FaultPlan::first_t(7, 2);
/// assert!(plan.is_faulty(1) && plan.is_faulty(2) && !plan.is_faulty(3));
/// assert_eq!(plan.honest().count(), 5);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    n: usize,
    faulty: Vec<PartyId>,
}

impl FaultPlan {
    /// No faults at all.
    pub fn none(n: usize) -> Self {
        FaultPlan { n, faulty: vec![] }
    }

    /// Corrupt parties `1..=t` (the canonical worst-case labelling; the
    /// protocols are symmetric in party ids).
    ///
    /// # Panics
    ///
    /// Panics if `t > n`.
    pub fn first_t(n: usize, t: usize) -> Self {
        assert!(t <= n, "cannot corrupt more parties than exist");
        FaultPlan {
            n,
            faulty: (1..=t).collect(),
        }
    }

    /// Corrupt an explicit set of parties.
    ///
    /// # Panics
    ///
    /// Panics if any id is out of range or repeated.
    pub fn explicit(n: usize, faulty: Vec<PartyId>) -> Self {
        for (i, &p) in faulty.iter().enumerate() {
            assert!((1..=n).contains(&p), "party id {p} out of range");
            assert!(!faulty[i + 1..].contains(&p), "duplicate faulty id {p}");
        }
        FaultPlan { n, faulty }
    }

    /// Total number of parties.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of corrupted parties.
    pub fn t(&self) -> usize {
        self.faulty.len()
    }

    /// Whether `id` is corrupted.
    pub fn is_faulty(&self, id: PartyId) -> bool {
        self.faulty.contains(&id)
    }

    /// Iterator over honest party ids in increasing order.
    pub fn honest(&self) -> impl Iterator<Item = PartyId> + '_ {
        (1..=self.n).filter(move |id| !self.is_faulty(*id))
    }

    /// Iterator over corrupted party ids.
    pub fn faulty(&self) -> impl Iterator<Item = PartyId> + '_ {
        self.faulty.iter().copied()
    }

    /// Build the machine fleet for a run: `honest(id)` for honest
    /// parties, `corrupt(id)` for corrupted ones.
    pub fn machines<M, Out>(
        &self,
        mut honest: impl FnMut(PartyId) -> BoxedMachine<M, Out>,
        mut corrupt: impl FnMut(PartyId) -> BoxedMachine<M, Out>,
    ) -> Vec<BoxedMachine<M, Out>> {
        (1..=self.n)
            .map(|id| {
                if self.is_faulty(id) {
                    corrupt(id)
                } else {
                    honest(id)
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{from_fn, silent, BoxedMachine, RoundView, Step};
    use crate::step::StepRunner;

    #[test]
    fn fault_plan_shapes() {
        let p = FaultPlan::first_t(7, 2);
        assert_eq!(p.t(), 2);
        assert_eq!(p.honest().collect::<Vec<_>>(), vec![3, 4, 5, 6, 7]);
        assert_eq!(p.faulty().collect::<Vec<_>>(), vec![1, 2]);
        let q = FaultPlan::explicit(5, vec![2, 4]);
        assert!(q.is_faulty(4) && !q.is_faulty(5));
        assert_eq!(FaultPlan::none(3).t(), 0);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn explicit_rejects_duplicates() {
        let _ = FaultPlan::explicit(5, vec![2, 2]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn explicit_rejects_out_of_range() {
        let _ = FaultPlan::explicit(5, vec![6]);
    }

    fn gossip_then_count() -> BoxedMachine<u64, usize> {
        Box::new(from_fn(|view: RoundView<'_, u64>| {
            if view.round == 0 {
                let mut out = view.outbox();
                out.send_to_all(view.id as u64);
                Step::Continue(out)
            } else {
                Step::Done(view.inbox.len())
            }
        }))
    }

    #[test]
    fn tap_drops_individual_copies() {
        // Sever only the 1 → 3 link: finer than any machine swap could
        // be, since party 1 is honest and its other copies arrive.
        let fleet = || -> Vec<BoxedMachine<u64, usize>> {
            (1..=3).map(|_| gossip_then_count()).collect()
        };
        let tap = |hop: MsgHop<'_, u64>| {
            if hop.from == 1 && hop.to == 3 {
                MsgFate::Drop
            } else {
                MsgFate::Deliver
            }
        };
        let res = StepRunner::new(3, 5).with_tap(tap).run(fleet());
        assert_eq!(res.outputs, vec![Some(3), Some(3), Some(2)]);
        // The sender still paid for the eaten copy.
        assert_eq!(res.report.comm.messages, 9);
    }

    #[test]
    fn tap_delays_across_round_boundaries() {
        // Party 1's round-0 message to party 2 is held back one extra
        // round: absent from round 1's inbox, present in round 2's.
        let fleet: Vec<BoxedMachine<u64, (usize, usize)>> = vec![
            Box::new(from_fn(|view: RoundView<'_, u64>| match view.round {
                0 => {
                    let mut out = view.outbox();
                    out.send(2, 41);
                    Step::Continue(out)
                }
                1 => Step::Continue(view.outbox()),
                _ => Step::Done((0, 0)),
            })),
            Box::new(from_fn({
                let mut r1 = 0usize;
                move |view: RoundView<'_, u64>| match view.round {
                    0 => Step::Continue(view.outbox()),
                    1 => {
                        r1 = view.inbox.len();
                        Step::Continue(view.outbox())
                    }
                    _ => Step::Done((r1, view.inbox.len())),
                }
            })),
        ];
        let tap = |_hop: MsgHop<'_, u64>| MsgFate::Delay(1);
        let res = StepRunner::new(2, 5).with_tap(tap).run(fleet);
        assert_eq!(res.outputs[1], Some((0, 1)));
    }

    #[test]
    fn tap_equivocates_on_the_ideal_broadcast_channel() {
        // The §3 ideal channel promises every party the identical value;
        // a per-copy tamper breaks exactly that promise for one victim.
        let fleet = || -> Vec<BoxedMachine<u64, u64>> {
            (1..=3)
                .map(|_| {
                    Box::new(from_fn(|view: RoundView<'_, u64>| {
                        if view.round == 0 {
                            let mut out = view.outbox();
                            if view.id == 1 {
                                out.broadcast(10);
                            }
                            Step::Continue(out)
                        } else {
                            let broadcasts = view.inbox.iter().filter(|r| r.broadcast);
                            Step::Done(broadcasts.map(|r| *r.msg()).sum())
                        }
                    })) as BoxedMachine<u64, u64>
                })
                .collect()
        };
        let tap = |hop: MsgHop<'_, u64>| {
            if hop.broadcast && hop.to == 3 {
                MsgFate::Tamper(*hop.msg + 90)
            } else {
                MsgFate::Deliver
            }
        };
        let res = StepRunner::new(3, 5).with_tap(tap).run(fleet());
        assert_eq!(res.outputs, vec![Some(10), Some(10), Some(100)]);
    }

    #[test]
    fn tapped_runs_agree_across_executors() {
        use crate::machine::{RoundMachine, RoundView, Step};
        use crate::par::ParRunner;

        /// Two gossip rounds so delayed messages have somewhere to land.
        struct TwoRounds;
        impl RoundMachine<u64> for TwoRounds {
            type Output = Vec<(usize, u64)>;
            fn phase_name(&self) -> &'static str {
                "two-rounds"
            }
            fn round(&mut self, view: RoundView<'_, u64>) -> Step<u64, Self::Output> {
                if view.round < 2 {
                    let mut out = view.outbox();
                    out.send_to_all(view.id as u64 * 10 + view.round);
                    Step::Continue(out)
                } else {
                    Step::Done(view.inbox.iter().map(|r| (r.from, *r.msg())).collect())
                }
            }
        }
        let fleet = || -> Vec<BoxedMachine<u64, Vec<(usize, u64)>>> {
            (0..4).map(|_| Box::new(TwoRounds) as _).collect()
        };
        // A pure function of the hop: drop 2→1, delay 3→2 by one round,
        // tamper 4→3.
        let tap = || {
            |hop: MsgHop<'_, u64>| match (hop.from, hop.to) {
                (2, 1) => MsgFate::Drop,
                (3, 2) => MsgFate::Delay(1),
                (4, 3) => MsgFate::Tamper(hop.msg + 1000),
                _ => MsgFate::Deliver,
            }
        };
        let stepped = StepRunner::new(4, 21).with_tap(tap()).run(fleet());
        let parallel = ParRunner::new(4, 21).with_tap(tap()).run(fleet());
        assert_eq!(stepped.outputs, parallel.outputs);
        assert_eq!(stepped.report, parallel.report);
        assert_eq!(stepped.rounds, parallel.rounds);
        // And the tamper actually landed.
        let p3 = stepped.outputs[2].as_ref().unwrap();
        assert!(p3.iter().any(|&(from, v)| from == 4 && v > 1000));
    }

    #[test]
    fn crashed_parties_dont_stop_the_rest() {
        let plan = FaultPlan::first_t(4, 1);
        let fleet = plan.machines::<u64, usize>(
            |_id| gossip_then_count(),
            |_id| Box::new(silent()),
        );
        let res = StepRunner::new(4, 11).run(fleet);
        // Three honest senders; the crashed party contributed nothing.
        for id in plan.honest() {
            assert_eq!(res.outputs[id - 1], Some(3));
        }
    }
}
