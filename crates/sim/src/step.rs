//! The deterministic single-threaded executor.
//!
//! [`StepRunner`] drives one [`RoundMachine`] per party by interleaving
//! all `n` parties round-by-round on the calling thread: no OS threads,
//! no barriers, no locks. Round `r` calls every live machine once (in id
//! order), collects their outboxes through the canonical
//! [`Outbox::flush`](crate::machine::Outbox) expansion, then performs the
//! round flip — delivering every posted copy, sorted by
//! `(sender, send order)`.
//!
//! Per-party RNG derivation, sequence numbering, cost counting, and inbox
//! ordering are all fixed by the flush/flip contract, so a machine run
//! under this executor or [`ParRunner`](crate::ParRunner) from the same
//! master seed produces the same transcript and the same [`CostReport`].
//! The single-threaded form is what makes big-n sweeps tractable: a
//! committee-sampled Coin-Gen at n in the hundreds is a loop, not
//! hundreds of stacks.
//!
//! Cost attribution: the thread-local [`comm`](dprbg_metrics::comm)/ops counters are windowed
//! around each party's `round` call (including its outbox flush), so the
//! per-party ledger in the final report is each party's own work.

use std::panic::{catch_unwind, AssertUnwindSafe};

use dprbg_metrics::{CostReport, CostSnapshot, WireSize};
use dprbg_rng::rngs::StdRng;
use dprbg_rng::SeedableRng;
use dprbg_trace::{PartyTracer, Trace, TraceConfig};

use crate::adversary::MsgTap;
use crate::machine::{BoxedMachine, RoundView, RunResult, Step};
use crate::router::{Inbox, Transit, DEFAULT_MAX_ROUNDS};

/// The deterministic single-threaded executor (see module docs).
pub struct StepRunner<M> {
    n: usize,
    seed: u64,
    tap: Option<Box<dyn MsgTap<M>>>,
    max_rounds: u64,
    trace: Option<TraceConfig>,
}

struct Slot<M, Out> {
    machine: BoxedMachine<M, Out>,
    rng: StdRng,
    seq: u32,
    round: u64,
    cost: CostSnapshot,
    done: bool,
}

impl<M: Clone + WireSize> StepRunner<M> {
    /// A runner for `n` parties, all randomness derived from `seed` with
    /// the same per-party derivation as [`ParRunner`](crate::ParRunner).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize, seed: u64) -> Self {
        assert!(n >= 1, "need at least one party");
        StepRunner { n, seed, tap: None, max_rounds: DEFAULT_MAX_ROUNDS, trace: None }
    }

    /// Install a per-message adversary at the message hop.
    pub fn with_tap(mut self, tap: impl MsgTap<M> + 'static) -> Self {
        self.tap = Some(Box::new(tap));
        self
    }

    /// Record a logical-time trace of the run (see `dprbg_trace`): one
    /// span per (party, round) carrying the phase name, flush totals,
    /// and the round's cost delta. The merged result lands in
    /// [`RunResult::trace`]. Without this call tracing is a no-op — the
    /// run loop only checks an `Option`.
    pub fn with_trace(mut self, cfg: TraceConfig) -> Self {
        self.trace = Some(cfg);
        self
    }

    /// Override the non-termination backstop (default 2²⁰ rounds).
    pub fn with_max_rounds(mut self, max_rounds: u64) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Drive every machine to completion. A machine that panics is
    /// contained (`None` output) and the rest keep running.
    ///
    /// # Panics
    ///
    /// Panics if the machine count differs from `n`, or if any machine is
    /// still running after the `max_rounds` backstop.
    pub fn run<Out>(mut self, machines: Vec<BoxedMachine<M, Out>>) -> RunResult<Out> {
        let n = self.n;
        assert_eq!(machines.len(), n, "need exactly one machine per party");
        let mut slots: Vec<Slot<M, Out>> = machines
            .into_iter()
            .enumerate()
            .map(|(idx, machine)| Slot {
                machine,
                rng: StdRng::seed_from_u64(
                    self.seed ^ ((idx as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                ),
                seq: 0,
                round: 0,
                cost: CostSnapshot::default(),
                done: false,
            })
            .collect();
        let mut tracers: Option<Vec<PartyTracer>> =
            self.trace.map(|cfg| (1..=n).map(|id| PartyTracer::new(id, cfg)).collect());
        let mut outputs: Vec<Option<Out>> = (0..n).map(|_| None).collect();
        let mut ready: Vec<Inbox<M>> = (0..n).map(|_| Inbox::empty()).collect();
        let mut transit = Transit::new(n, self.tap.take());
        let mut active = n;

        while active > 0 {
            assert!(
                transit.generation < self.max_rounds,
                "StepRunner exceeded {} rounds without terminating",
                self.max_rounds
            );
            for id in 1..=n {
                let slot = &mut slots[id - 1];
                if slot.done {
                    continue;
                }
                let inbox = std::mem::replace(&mut ready[id - 1], Inbox::empty());
                let round_now = slot.round;
                if let Some(tracers) = tracers.as_mut() {
                    tracers[id - 1].begin(round_now, slot.machine.phase_name());
                }
                let before = CostSnapshot::capture();
                let step = catch_unwind(AssertUnwindSafe(|| {
                    slot.machine.round(RoundView {
                        id,
                        n,
                        round: slot.round,
                        inbox: &inbox,
                        rng: &mut slot.rng,
                    })
                }));
                match step {
                    Ok(Step::Continue(outbox)) => {
                        let stats = transit.send(id, &mut slot.seq, outbox);
                        if let Some(tracers) = tracers.as_mut() {
                            tracers[id - 1].flush(round_now, stats.messages, stats.bytes);
                        }
                        slot.round += 1;
                    }
                    Ok(Step::Done(out)) => {
                        outputs[id - 1] = Some(out);
                        slot.done = true;
                        active -= 1;
                    }
                    Err(_) => {
                        slot.done = true;
                        active -= 1;
                    }
                }
                let delta = CostSnapshot::capture().since(&before);
                slot.cost = slot.cost.plus(&delta);
                if let Some(tracers) = tracers.as_mut() {
                    tracers[id - 1].end(round_now, delta);
                }
            }
            if active == 0 {
                // Nobody is left to observe the next round: the last
                // pending sends never flip and profile no round.
                break;
            }
            transit.flip(active, |to0, inbox| ready[to0] = inbox);
        }

        RunResult {
            outputs,
            report: CostReport::from_snapshots(slots.into_iter().map(|s| s.cost)),
            rounds: transit.profile,
            trace: tracers
                .map(|ts| Trace::from_parties(ts.into_iter().map(PartyTracer::into_events))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::RoundMachine;

    /// Sends `id` to everyone in round 0, outputs the sorted senders seen
    /// in round 1.
    struct Gossip;

    impl RoundMachine<u64> for Gossip {
        type Output = Vec<u64>;
        fn round(&mut self, view: RoundView<'_, u64>) -> Step<u64, Vec<u64>> {
            if view.round == 0 {
                let mut out = view.outbox();
                out.send_to_all(view.id as u64);
                Step::Continue(out)
            } else {
                Step::Done(view.inbox.iter().map(|r| *r.msg()).collect())
            }
        }
    }

    fn gossip_fleet(n: usize) -> Vec<BoxedMachine<u64, Vec<u64>>> {
        (0..n).map(|_| Box::new(Gossip) as BoxedMachine<u64, Vec<u64>>).collect()
    }

    #[test]
    fn single_threaded_round_trip() {
        let res = StepRunner::new(4, 9).run(gossip_fleet(4));
        assert_eq!(res.report.comm.rounds, 1);
        assert_eq!(res.report.comm.messages, 16);
        assert_eq!(res.rounds.len(), 1);
        assert_eq!(res.rounds[0].deliveries, 16);
        assert_eq!(res.rounds[0].live_parties, 4);
        let expect: Vec<u64> = vec![1, 2, 3, 4];
        assert_eq!(res.unwrap_all(), vec![expect.clone(); 4]);
    }

    #[test]
    fn repeated_runs_are_byte_identical() {
        let a = StepRunner::new(5, 77).run(gossip_fleet(5));
        let b = StepRunner::new(5, 77).run(gossip_fleet(5));
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.report, b.report);
        assert_eq!(a.rounds, b.rounds);
    }

    #[test]
    fn panicking_machine_is_contained() {
        struct Bomb;
        impl RoundMachine<u64> for Bomb {
            type Output = Vec<u64>;
            fn round(&mut self, _view: RoundView<'_, u64>) -> Step<u64, Vec<u64>> {
                panic!("byzantine meltdown");
            }
        }
        let mut machines = gossip_fleet(3);
        machines[1] = Box::new(Bomb);
        let res = StepRunner::new(3, 1).run(machines);
        assert!(res.outputs[1].is_none());
        // The survivors see only each other (and themselves).
        assert_eq!(res.outputs[0], Some(vec![1, 3]));
        assert_eq!(res.outputs[2], Some(vec![1, 3]));
    }

    #[test]
    fn per_party_rng_derivation_is_stable() {
        struct Draw;
        impl RoundMachine<u64> for Draw {
            type Output = u64;
            fn round(&mut self, view: RoundView<'_, u64>) -> Step<u64, u64> {
                use dprbg_rng::RngExt;
                Step::Done(view.rng.random::<u64>())
            }
        }
        let fleet = || (0..3).map(|_| Box::new(Draw) as BoxedMachine<u64, u64>).collect();
        let a = StepRunner::new(3, 99).run(fleet()).unwrap_all();
        // Pin the exact derivation: seed ^ (id * golden-ratio constant).
        use dprbg_rng::{RngExt, SeedableRng};
        let expect: Vec<u64> = (1..=3u64)
            .map(|id| {
                StdRng::seed_from_u64(99 ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15)).random::<u64>()
            })
            .collect();
        assert_eq!(a, expect);
        assert_ne!(a[0], a[1]);
    }

    #[test]
    #[should_panic(expected = "exceeded")]
    fn max_rounds_backstop_fires() {
        struct Forever;
        impl RoundMachine<u64> for Forever {
            type Output = ();
            fn round(&mut self, view: RoundView<'_, u64>) -> Step<u64, ()> {
                Step::Continue(view.outbox())
            }
        }
        let machines = vec![Box::new(Forever) as BoxedMachine<u64, ()>];
        let _ = StepRunner::new(1, 0).with_max_rounds(8).run(machines);
    }

    #[test]
    #[should_panic(expected = "one machine per party")]
    fn machine_count_must_match() {
        let _ = StepRunner::new(3, 0).run(gossip_fleet(2));
    }
}
