//! The one round loop behind both executors.
//!
//! [`drive`] owns everything about a run that is order-sensitive: the
//! per-party RNG derivation, the `max_rounds` backstop, outbox flushes and
//! the message hop in party-id order, the cost window, the trace, the
//! round flip, and the [`RunResult`]. An executor is `drive` plus a
//! *stepping strategy*: a closure that calls [`Party::step`] once for every
//! live party and returns the outcomes in id order.
//! [`StepRunner`](crate::StepRunner) steps the parties in place on the
//! calling thread, [`ParRunner`](crate::ParRunner) hands them to a pool.
//!
//! # Why the strategy cannot change a byte
//!
//! Within one generation, party machines are *independent*: a machine
//! observes only its own state, its own per-party RNG, and the inbox
//! frozen at the previous round boundary. Nothing a machine does mid-round
//! can influence another machine's round — messages only travel at round
//! flips. So the `machine.round()` calls commute, and a strategy may run
//! them in any interleaving on any thread. Everything that is *not*
//! commutative happens here, after every live party has stepped:
//!
//! * **Outbox flushes** (sequence numbers, message/byte charges) run
//!   party 1 first, so a broadcast's `seq` never depends on which party
//!   finished its round first.
//! * **Adversary taps** ([`MsgTap`]) see message hops id-major,
//!   send-order-minor, so even *stateful* taps fold identically at round
//!   boundaries.
//! * **Round flips** sort deliveries by `(sender, send order)`.
//!
//! # Cost attribution
//!
//! The thread-local cost counters are windowed twice per party round:
//! [`Party::step`] measures the `machine.round()` window on whichever
//! thread hosts it, the merge measures the flush window here, and the
//! party is charged their sum. The counters are monotone thread-locals, so
//! disjoint windows over the same operations sum to the same totals
//! regardless of which thread hosted them.

use std::panic::{catch_unwind, AssertUnwindSafe};

use dprbg_metrics::{CostReport, CostSnapshot, WireSize};
use dprbg_rng::rngs::StdRng;
use dprbg_rng::SeedableRng;
use dprbg_trace::{PartyTracer, Trace, TraceConfig};

use crate::adversary::MsgTap;
use crate::machine::{BoxedMachine, RoundView, RunResult, Step};
use crate::router::{Inbox, PartyId, Transit, DEFAULT_MAX_ROUNDS};

/// What both executors' builders configure.
pub(crate) struct Config<M> {
    pub(crate) n: usize,
    seed: u64,
    pub(crate) tap: Option<Box<dyn MsgTap<M>>>,
    /// The non-termination backstop (default 2²⁰ rounds).
    pub(crate) max_rounds: u64,
    pub(crate) trace: Option<TraceConfig>,
}

impl<M> Config<M> {
    pub(crate) fn new(n: usize, seed: u64) -> Self {
        assert!(n >= 1, "need at least one party");
        Config { n, seed, tap: None, max_rounds: DEFAULT_MAX_ROUNDS, trace: None }
    }
}

/// Everything a strategy needs to step one live party.
pub(crate) struct Party<M, Out> {
    pub(crate) id: PartyId,
    machine: BoxedMachine<M, Out>,
    rng: StdRng,
    round: u64,
    seq: u32,
    inbox: Inbox<M>,
}

/// What one [`Party::step`] produced, for the merge.
pub(crate) struct Stepped<M, Out> {
    /// `None` if the machine failed (contained: the party is done).
    step: Option<Step<M, Out>>,
    /// Cost delta of the `machine.round()` window on the stepping thread.
    delta: CostSnapshot,
    /// Phase label captured immediately before the round ran.
    phase: &'static str,
}

impl<M, Out> Party<M, Out> {
    /// Run this party's `machine.round()` once on the current thread,
    /// consuming its inbox. A machine that panics — or returns an outbox
    /// built for another network size — unwinds only to here.
    pub(crate) fn step(&mut self, n: usize) -> Stepped<M, Out> {
        let inbox = std::mem::replace(&mut self.inbox, Inbox::empty());
        let phase = self.machine.phase_name();
        let (id, round, machine, rng) = (self.id, self.round, &mut self.machine, &mut self.rng);
        let before = CostSnapshot::capture();
        let step = catch_unwind(AssertUnwindSafe(|| {
            let step = machine.round(RoundView { id, n, round, inbox: &inbox, rng });
            if let Step::Continue(outbox) = &step {
                assert_eq!(outbox.n(), n, "outbox built for a different network size");
            }
            step
        }))
        .ok();
        let delta = CostSnapshot::capture().since(&before);
        Stepped { step, delta, phase }
    }
}

/// Drive every machine to completion, stepping each generation's live
/// parties with `step_live` (see the module docs for its contract).
pub(crate) fn drive<M: Clone + WireSize, Out>(
    config: Config<M>,
    machines: Vec<BoxedMachine<M, Out>>,
    mut step_live: impl FnMut(&mut Vec<Party<M, Out>>) -> Vec<Stepped<M, Out>>,
) -> RunResult<Out> {
    let Config { n, seed, tap, max_rounds, trace } = config;
    assert_eq!(machines.len(), n, "need exactly one machine per party");
    let mut live: Vec<Party<M, Out>> = (1..=n)
        .zip(machines)
        .map(|(id, machine)| Party {
            id,
            machine,
            rng: StdRng::seed_from_u64(seed ^ (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            round: 0,
            seq: 0,
            inbox: Inbox::empty(),
        })
        .collect();
    let mut tracers: Option<Vec<PartyTracer>> =
        trace.map(|cfg| (1..=n).map(|id| PartyTracer::new(id, cfg)).collect());
    let mut costs = vec![CostSnapshot::default(); n];
    let mut outputs: Vec<Option<Out>> = (0..n).map(|_| None).collect();
    let mut transit = Transit::new(n, tap);

    loop {
        assert!(
            transit.generation < max_rounds,
            "executor exceeded {max_rounds} rounds without terminating"
        );
        let mut stepped = step_live(&mut live).into_iter();

        // Merge in party-id order; a party that finished or failed leaves.
        live.retain_mut(|party| {
            let Stepped { step, delta, phase } =
                stepped.next().expect("the strategy steps every live party");
            let (at, round_now) = (party.id - 1, party.round);
            let mut tracer = tracers.as_mut().map(|ts| &mut ts[at]);
            if let Some(tracer) = tracer.as_mut() {
                tracer.begin(round_now, phase);
            }
            let before = CostSnapshot::capture();
            let keep = match step {
                Some(Step::Continue(outbox)) => {
                    let stats = transit.send(party.id, &mut party.seq, outbox);
                    if let Some(tracer) = tracer.as_mut() {
                        tracer.flush(round_now, stats.messages, stats.bytes);
                    }
                    party.round += 1;
                    true
                }
                Some(Step::Done(out)) => {
                    outputs[at] = Some(out);
                    false
                }
                None => false,
            };
            let delta = delta.plus(&CostSnapshot::capture().since(&before));
            costs[at] = costs[at].plus(&delta);
            if let Some(tracer) = tracer.as_mut() {
                tracer.end(round_now, delta);
            }
            keep
        });

        if live.is_empty() {
            // Nobody is left to observe the next round: the last pending
            // sends never flip and profile no round.
            break;
        }
        transit.flip(live.len(), |to0, inbox| {
            if let Ok(at) = live.binary_search_by_key(&(to0 + 1), |party| party.id) {
                live[at].inbox = inbox;
            }
        });
    }

    RunResult {
        outputs,
        report: CostReport::from_snapshots(costs),
        rounds: transit.profile,
        trace: tracers.map(|ts| Trace::from_parties(ts.into_iter().map(PartyTracer::into_events))),
    }
}

/// The executor test table. Every case is a function of the stepping
/// strategy; `step.rs` and `par.rs` list which cases run under which
/// strategies, so each case is written once and runs inline and on pools of
/// 1, 2, 4, 8 and 32 threads.
#[cfg(test)]
pub(crate) mod cases {
    use dprbg_rng::RngExt;

    use super::*;
    use crate::adversary::{MsgFate, MsgHop};
    use crate::machine::{from_fn, Outbox};
    use crate::{ParRunner, StepRunner};

    #[derive(Debug, Clone, Copy)]
    pub(crate) enum Exec {
        Inline,
        Pool(usize),
    }
    use Exec::{Inline, Pool};

    pub(crate) const POOLS: [Exec; 5] = [Pool(1), Pool(2), Pool(4), Pool(8), Pool(32)];

    /// `name => case` entry points: each runs `case` under every strategy
    /// in `$execs`; `panics "msg"` marks a case that must panic under each.
    macro_rules! entry_points {
        ($execs:expr; $($name:ident => $case:ident $(panics $msg:literal)?),* $(,)?) => {$(
            #[test]
            $(#[should_panic(expected = $msg)])?
            fn $name() {
                use $crate::runner::cases;
                cases::each(&$execs, cases::$case, None$(.or(Some($msg)))?);
            }
        )*};
    }
    pub(crate) use entry_points;

    pub(crate) fn each(execs: &[Exec], case: fn(Exec), panics: Option<&str>) {
        let (last, rest) = execs.split_last().expect("at least one strategy");
        for &exec in rest {
            let Some(expected) = panics else {
                case(exec);
                continue;
            };
            let panic = catch_unwind(|| case(exec)).expect_err("the case must panic");
            let msg = panic.downcast_ref::<String>().expect("a formatted panic message");
            assert!(msg.contains(expected), "{exec:?} panicked with {msg:?}");
        }
        // A `panics` case's last strategy unwinds into `#[should_panic]`.
        case(*last);
    }

    /// A traced run of `$fleet` under `$exec`, with the listed builder
    /// calls applied to whichever runner that is.
    macro_rules! run {
        ($exec:expr, $n:expr, $seed:expr, $fleet:expr $(, $with:ident($arg:expr))*) => {
            match $exec {
                Inline => StepRunner::new($n, $seed)
                    .with_trace(TraceConfig::full())$(.$with($arg))*.run($fleet),
                Pool(threads) => ParRunner::new($n, $seed).with_threads(threads)
                    .with_trace(TraceConfig::full())$(.$with($arg))*.run($fleet),
            }
        };
    }

    /// `scenario` under `exec` and under the inline reference must agree on
    /// everything a run reports. Returns `exec`'s result.
    fn checked<Out: PartialEq + std::fmt::Debug>(
        exec: Exec,
        scenario: impl Fn(Exec) -> RunResult<Out>,
    ) -> RunResult<Out> {
        let (got, want) = (scenario(exec), scenario(Inline));
        assert_eq!(got.outputs, want.outputs, "{exec:?}");
        assert_eq!(got.report, want.report, "{exec:?}");
        assert_eq!(got.rounds, want.rounds, "{exec:?}");
        assert_eq!(got.trace, want.trace, "{exec:?}");
        got
    }

    type Script<Out> = fn(RoundView<'_, u64>) -> Step<u64, Out>;

    fn fleet<Out: 'static>(n: usize, script: Script<Out>) -> Vec<BoxedMachine<u64, Out>> {
        (0..n).map(|_| Box::new(from_fn(script)) as BoxedMachine<u64, Out>).collect()
    }

    /// Sends `id` to everyone in round 0, outputs the senders seen in round 1.
    fn gossip(view: RoundView<'_, u64>) -> Step<u64, Vec<u64>> {
        if view.round > 0 {
            return Step::Done(view.inbox.iter().map(|r| *r.msg()).collect());
        }
        let mut out = view.outbox();
        out.send_to_all(view.id as u64);
        Step::Continue(out)
    }

    pub(crate) fn round_trip(exec: Exec) {
        let res = checked(exec, |e| run!(e, 4, 9, fleet(4, gossip)));
        assert_eq!(res.report.comm.rounds, 1);
        assert_eq!(res.report.comm.messages, 16);
        assert_eq!(res.rounds.len(), 1);
        assert_eq!(res.rounds[0].deliveries, 16);
        assert_eq!(res.rounds[0].live_parties, 4);
        assert_eq!(res.unwrap_all(), vec![vec![1, 2, 3, 4]; 4]);
    }

    /// Two runs from one seed are the same run, whatever steps them.
    pub(crate) fn identity(exec: Exec) {
        checked(exec, |e| run!(e, 5, 77, fleet(5, gossip)));
    }

    /// `threads()` reports the width the pool really has: `1..=n`.
    pub(crate) fn thread_count(exec: Exec) {
        let Pool(threads) = exec else { return };
        let runner = ParRunner::<u64>::new(6, 123).with_threads(threads);
        assert_eq!(runner.threads(), threads.min(6));
        assert_eq!(ParRunner::<u64>::new(6, 123).with_threads(0).threads(), 1);
        checked(exec, |e| run!(e, 6, 123, fleet(6, gossip)));
    }

    /// A party whose machine fails is done with no output; the survivors
    /// see only each other (and themselves).
    fn contained(exec: Exec, failing: Script<Vec<u64>>) {
        let res = checked(exec, |e| {
            let mut machines = fleet(3, gossip);
            machines[1] = Box::new(from_fn(failing));
            run!(e, 3, 1, machines)
        });
        assert_eq!(res.outputs, [Some(vec![1, 3]), None, Some(vec![1, 3])]);
    }

    pub(crate) fn contained_panic(exec: Exec) {
        contained(exec, |_view| panic!("byzantine meltdown"));
    }

    /// An outbox built for another network size is that party's failure,
    /// not the run's.
    pub(crate) fn contained_misfit(exec: Exec) {
        contained(exec, |view| Step::Continue(Outbox::new(view.n + 1)));
    }

    /// Pins the exact derivation: seed ^ (id * golden-ratio constant).
    pub(crate) fn rng_pin(exec: Exec) {
        let draw: Script<u64> = |view| Step::Done(view.rng.random::<u64>());
        let drawn = checked(exec, |e| run!(e, 3, 99, fleet(3, draw))).unwrap_all();
        let rng_of = |id: u64| StdRng::seed_from_u64(99 ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        assert_eq!(drawn, [1, 2, 3].map(|id| rng_of(id).random::<u64>()));
        assert_ne!(drawn[0], drawn[1]);
    }

    /// Eight machines that never finish: on a pool the backstop fires with
    /// every worker parked, and the panic must still come back.
    pub(crate) fn backstop(exec: Exec) {
        let forever: Script<()> = |view| Step::Continue(view.outbox());
        let _ = run!(exec, 8, 0, fleet(8, forever), with_max_rounds(8));
    }

    pub(crate) fn machine_count(exec: Exec) {
        let _ = run!(exec, 3, 0, fleet(2, gossip));
    }

    /// Drops every third hop it sees — order-sensitive on purpose.
    pub(crate) fn stateful_tap(exec: Exec) {
        let every_third = || {
            let mut seen = 0u64;
            move |_hop: MsgHop<'_, u64>| {
                seen += 1;
                match seen % 3 {
                    0 => MsgFate::Drop,
                    _ => MsgFate::Deliver,
                }
            }
        };
        checked(exec, |e| run!(e, 5, 7, fleet(5, gossip), with_tap(every_third())));
    }

    /// Staggered termination under a delaying tap: party `i` finishes in
    /// round `i` while the rest keep sending to it, and odd senders' copies
    /// arrive a round late — or never, if the addressee has left.
    pub(crate) fn delaying_tap(exec: Exec) {
        let delay_odd = |hop: MsgHop<'_, u64>| match hop.from % 2 {
            1 => MsgFate::Delay(1),
            _ => MsgFate::Deliver,
        };
        let staggered: Script<Vec<u64>> = |view| {
            if view.round == view.id as u64 {
                return Step::Done(view.inbox.iter().map(|r| *r.msg()).collect());
            }
            let mut out = view.outbox();
            out.send_to_all(view.round * 100 + view.id as u64);
            Step::Continue(out)
        };
        let res = checked(exec, |e| run!(e, 6, 11, fleet(6, staggered), with_tap(delay_odd)));
        let live: Vec<usize> = res.rounds.iter().map(|r| r.live_parties).collect();
        assert_eq!(live, [6, 5, 4, 3, 2, 1]);
        // Party 3's last inbox: round 2 from the even senders still live,
        // round 1 from the odd ones.
        assert_eq!(res.outputs[2], Some(vec![103, 204, 105, 206]));
    }
}
