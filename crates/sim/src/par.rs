//! The deterministic work-stealing parallel executor.
//!
//! [`ParRunner`] drives one [`RoundMachine`] per party like
//! [`StepRunner`](crate::StepRunner) does, but steps the *independent*
//! parties of each round concurrently on a small in-tree work-stealing
//! thread pool, then merges their outboxes on the coordinating thread in
//! party-id order at the round boundary. The result is byte-identical to
//! `StepRunner` — same transcripts, same [`CostReport`], same
//! [`RoundProfile`]s, same logical traces — the pool only changes
//! wall-clock time (validated end-to-end in `tests/executors.rs`).
//!
//! # Why determinism survives the parallelism
//!
//! Within one generation, party machines are *independent*: a machine
//! observes only its own state, its own per-party RNG, and the inbox
//! frozen at the previous round boundary. Nothing a machine does mid-round
//! can influence another machine's round — messages only travel at round
//! flips. So the `machine.round()` calls commute, and running them on
//! worker threads in any interleaving is observationally equal to
//! `StepRunner`'s id-order loop. Everything that is *not* commutative is
//! kept on the coordinating thread, in exactly `StepRunner`'s order:
//!
//! * **Outbox flushes** (sequence numbers, message/byte charges) happen at
//!   merge time, party 1 first. A broadcast's `seq` allocation therefore
//!   never depends on which worker finished first.
//! * **Adversary taps** ([`MsgTap`]) see message hops in the same id-major,
//!   send-order-minor sequence as under `StepRunner`, so even *stateful*
//!   taps fold identically at round boundaries.
//! * **Round flips** sort deliveries by `(sender, send order)` — the same
//!   canonical order every executor in this crate uses.
//!
//! # Cost attribution
//!
//! The thread-local cost counters are windowed twice per party round: the
//! worker measures the `machine.round()` window on its own thread, the
//! merge measures the flush window on the coordinator, and the two deltas
//! sum to exactly the single window `StepRunner` records (the counters are
//! monotone thread-locals; disjoint windows over the same operations sum
//! to the same totals regardless of which thread hosted them).
//!
//! # Scheduling
//!
//! Each generation's live parties are dealt round-robin onto per-worker
//! deques; a worker pops from the front of its own deque and steals from
//! the back of others when it runs dry, so an unbalanced round (one party
//! interpolating while the rest idle) still keeps every core busy. Two
//! barriers bracket the compute phase of each generation; the coordinator
//! merges between them. The pool is hermetic: scoped `std::thread`s, no
//! global state, nothing outlives [`ParRunner::run`].

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};

use dprbg_metrics::{CostReport, CostSnapshot, WireSize};
use dprbg_rng::rngs::StdRng;
use dprbg_rng::SeedableRng;
use dprbg_trace::{PartyTracer, Trace, TraceConfig};

use crate::adversary::MsgTap;
use crate::machine::{BoxedMachine, RoundView, RunResult, Step};
use crate::router::{Inbox, Transit, DEFAULT_MAX_ROUNDS};

/// The deterministic work-stealing parallel executor (see module docs).
pub struct ParRunner<M> {
    n: usize,
    seed: u64,
    threads: usize,
    tap: Option<Box<dyn MsgTap<M>>>,
    max_rounds: u64,
    trace: Option<TraceConfig>,
}

/// Everything a worker needs to step one party, plus the slot where it
/// parks the result for the coordinator to merge.
struct WorkSlot<M, Out> {
    machine: BoxedMachine<M, Out>,
    rng: StdRng,
    round: u64,
    inbox: Option<Inbox<M>>,
    outcome: Option<Outcome<M, Out>>,
    done: bool,
}

/// What one worker-side `machine.round()` produced.
struct Outcome<M, Out> {
    /// `Err(())` if the machine panicked (contained, like `StepRunner`).
    step: Result<Step<M, Out>, ()>,
    /// Cost delta of the `machine.round()` window on the worker thread.
    delta: CostSnapshot,
    /// Phase label captured immediately before the round ran.
    phase: &'static str,
}

/// Shared pool state: per-worker deques plus the two per-generation
/// barriers (`start` releases workers into a generation, `finish` hands
/// control back to the coordinator for the merge).
struct Pool {
    deques: Vec<Mutex<VecDeque<usize>>>,
    start: Barrier,
    finish: Barrier,
    shutdown: AtomicBool,
}

impl Pool {
    fn new(threads: usize) -> Self {
        Pool {
            deques: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            start: Barrier::new(threads + 1),
            finish: Barrier::new(threads + 1),
            shutdown: AtomicBool::new(false),
        }
    }

    /// Claim the next task for worker `w`: own deque front first, then
    /// steal from the back of the others.
    fn claim(&self, w: usize) -> Option<usize> {
        if let Some(id) = self.deques[w].lock().expect("deque lock").pop_front() {
            return Some(id);
        }
        let k = self.deques.len();
        for off in 1..k {
            if let Some(id) =
                self.deques[(w + off) % k].lock().expect("deque lock").pop_back()
            {
                return Some(id);
            }
        }
        None
    }
}

/// Releases the parked workers for exit if the coordinator leaves the
/// round loop — normally or by panic (`max_rounds` backstop, outbox-size
/// assert). Without this, a coordinator panic would deadlock the scope
/// join on the start barrier.
struct ShutdownGuard<'a>(&'a Pool);

impl Drop for ShutdownGuard<'_> {
    fn drop(&mut self) {
        self.0.shutdown.store(true, Ordering::Release);
        self.0.start.wait();
    }
}

fn worker_loop<M, Out>(w: usize, pool: &Pool, slots: &[Mutex<WorkSlot<M, Out>>], n: usize)
where
    M: Clone + WireSize + Send + Sync,
    Out: Send,
{
    loop {
        pool.start.wait();
        if pool.shutdown.load(Ordering::Acquire) {
            return;
        }
        while let Some(id) = pool.claim(w) {
            let mut guard = slots[id - 1].lock().expect("work slot lock");
            let slot = &mut *guard;
            let inbox = slot.inbox.take().unwrap_or_else(Inbox::empty);
            let phase = slot.machine.phase_name();
            let machine = &mut slot.machine;
            let rng = &mut slot.rng;
            let round = slot.round;
            let before = CostSnapshot::capture();
            // A panicking machine unwinds only to here — the guard is
            // released normally afterwards, so the mutex is not poisoned
            // and the party is reported `done` like under `StepRunner`.
            let step = catch_unwind(AssertUnwindSafe(|| {
                machine.round(RoundView { id, n, round, inbox: &inbox, rng })
            }))
            .map_err(drop);
            let delta = CostSnapshot::capture().since(&before);
            slot.outcome = Some(Outcome { step, delta, phase });
        }
        pool.finish.wait();
    }
}

impl<M: Clone + WireSize + Send + Sync> ParRunner<M> {
    /// A runner for `n` parties, all randomness derived from `seed` with
    /// the same per-party derivation as the other executors.
    ///
    /// The pool defaults to `min(available cores, n)` workers; see
    /// [`with_threads`](Self::with_threads). Thread count never affects
    /// results, only wall-clock.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize, seed: u64) -> Self {
        assert!(n >= 1, "need at least one party");
        let threads = std::thread::available_parallelism().map_or(1, usize::from).min(n).max(1);
        ParRunner {
            n,
            seed,
            threads,
            tap: None,
            max_rounds: DEFAULT_MAX_ROUNDS,
            trace: None,
        }
    }

    /// Override the worker-thread count (clamped to at least 1). A
    /// single-threaded pool is a useful determinism control: it must —
    /// and does — produce the same bytes as any wider pool.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The worker-thread count this runner will use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Install a per-message adversary at the message hop. The tap runs
    /// on the coordinating thread in `StepRunner`'s hop order, so
    /// stateful adversaries behave identically under both executors.
    pub fn with_tap(mut self, tap: impl MsgTap<M> + 'static) -> Self {
        self.tap = Some(Box::new(tap));
        self
    }

    /// Record a logical-time trace of the run (see `dprbg_trace`).
    /// Traces are keyed by `(party, logical round)`, never by wall-clock
    /// or thread identity, so the recorded stream is byte-identical to
    /// [`StepRunner::with_trace`](crate::StepRunner::with_trace).
    pub fn with_trace(mut self, cfg: TraceConfig) -> Self {
        self.trace = Some(cfg);
        self
    }

    /// Override the non-termination backstop (default 2²⁰ rounds).
    pub fn with_max_rounds(mut self, max_rounds: u64) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Drive every machine to completion and return the same
    /// [`RunResult`] the other executors produce. A machine that panics
    /// is contained (`None` output) and the rest keep running.
    ///
    /// # Panics
    ///
    /// Panics if the machine count differs from `n`, or if any machine is
    /// still running after the `max_rounds` backstop.
    pub fn run<Out: Send>(mut self, machines: Vec<BoxedMachine<M, Out>>) -> RunResult<Out> {
        let n = self.n;
        assert_eq!(machines.len(), n, "need exactly one machine per party");
        let threads = self.threads.min(n);
        let slots: Vec<Mutex<WorkSlot<M, Out>>> = machines
            .into_iter()
            .enumerate()
            .map(|(idx, machine)| {
                Mutex::new(WorkSlot {
                    machine,
                    rng: StdRng::seed_from_u64(
                        self.seed ^ ((idx as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                    ),
                    round: 0,
                    inbox: Some(Inbox::empty()),
                    outcome: None,
                    done: false,
                })
            })
            .collect();
        let pool = Pool::new(threads);

        // Coordinator-side state, mirroring StepRunner field for field.
        let mut tracers: Option<Vec<PartyTracer>> =
            self.trace.map(|cfg| (1..=n).map(|id| PartyTracer::new(id, cfg)).collect());
        let mut seqs: Vec<u32> = vec![0; n];
        let mut costs: Vec<CostSnapshot> = vec![CostSnapshot::default(); n];
        let mut outputs: Vec<Option<Out>> = (0..n).map(|_| None).collect();
        let mut transit = Transit::new(n, self.tap.take());
        let mut active = n;

        std::thread::scope(|scope| {
            for w in 0..threads {
                let pool = &pool;
                let slots = &slots;
                scope.spawn(move || worker_loop(w, pool, slots, n));
            }
            let _guard = ShutdownGuard(&pool);

            while active > 0 {
                assert!(
                    transit.generation < self.max_rounds,
                    "ParRunner exceeded {} rounds without terminating",
                    self.max_rounds
                );

                // Deal the generation's live parties onto the worker
                // deques (workers are parked at the start barrier).
                let mut dealt = 0usize;
                for id in 1..=n {
                    if !slots[id - 1].lock().expect("work slot lock").done {
                        pool.deques[dealt % threads]
                            .lock()
                            .expect("deque lock")
                            .push_back(id);
                        dealt += 1;
                    }
                }

                // Compute phase: workers step every live party once.
                pool.start.wait();
                pool.finish.wait();

                // Merge phase, in party-id order — the exact loop body of
                // StepRunner with the machine call already performed.
                for id in 1..=n {
                    let mut guard = slots[id - 1].lock().expect("work slot lock");
                    if guard.done {
                        continue;
                    }
                    let outcome =
                        guard.outcome.take().expect("worker stepped every live party");
                    let round_now = guard.round;
                    if let Some(tracers) = tracers.as_mut() {
                        tracers[id - 1].begin(round_now, outcome.phase);
                    }
                    let before = CostSnapshot::capture();
                    match outcome.step {
                        Ok(Step::Continue(outbox)) => {
                            let stats = transit.send(id, &mut seqs[id - 1], outbox);
                            if let Some(tracers) = tracers.as_mut() {
                                tracers[id - 1].flush(round_now, stats.messages, stats.bytes);
                            }
                            guard.round += 1;
                        }
                        Ok(Step::Done(out)) => {
                            outputs[id - 1] = Some(out);
                            guard.done = true;
                            active -= 1;
                        }
                        Err(()) => {
                            guard.done = true;
                            active -= 1;
                        }
                    }
                    // Worker window (machine) + coordinator window (flush)
                    // = StepRunner's single window around both.
                    let delta = outcome.delta.plus(&CostSnapshot::capture().since(&before));
                    costs[id - 1] = costs[id - 1].plus(&delta);
                    if let Some(tracers) = tracers.as_mut() {
                        tracers[id - 1].end(round_now, delta);
                    }
                }

                if active == 0 {
                    // Nobody is left to observe the next round: the last
                    // pending sends never flip and profile no round.
                    break;
                }
                transit.flip(active, |to0, inbox| {
                    slots[to0].lock().expect("work slot lock").inbox = Some(inbox);
                });
            }
            // `_guard` drops here: shutdown flag + one last start-barrier
            // wait releases the parked workers to exit before scope join.
        });

        RunResult {
            outputs,
            report: CostReport::from_snapshots(costs),
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
    use crate::step::StepRunner;

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
    fn parallel_round_trip() {
        let res = ParRunner::new(4, 9).run(gossip_fleet(4));
        assert_eq!(res.report.comm.rounds, 1);
        assert_eq!(res.report.comm.messages, 16);
        assert_eq!(res.rounds.len(), 1);
        assert_eq!(res.rounds[0].deliveries, 16);
        assert_eq!(res.rounds[0].live_parties, 4);
        let expect: Vec<u64> = vec![1, 2, 3, 4];
        assert_eq!(res.unwrap_all(), vec![expect.clone(); 4]);
    }

    #[test]
    fn matches_step_runner_exactly() {
        let stepped = StepRunner::new(5, 77).run(gossip_fleet(5));
        let parallel = ParRunner::new(5, 77).run(gossip_fleet(5));
        assert_eq!(stepped.outputs, parallel.outputs);
        assert_eq!(stepped.report, parallel.report);
        assert_eq!(stepped.rounds, parallel.rounds);
    }

    #[test]
    fn thread_count_never_changes_results() {
        let baseline = ParRunner::new(6, 123).with_threads(1).run(gossip_fleet(6));
        for threads in [2, 3, 8, 32] {
            let res = ParRunner::new(6, 123).with_threads(threads).run(gossip_fleet(6));
            assert_eq!(res.outputs, baseline.outputs, "threads = {threads}");
            assert_eq!(res.report, baseline.report, "threads = {threads}");
            assert_eq!(res.rounds, baseline.rounds, "threads = {threads}");
        }
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
        let res = ParRunner::new(3, 1).run(machines);
        assert!(res.outputs[1].is_none());
        assert_eq!(res.outputs[0], Some(vec![1, 3]));
        assert_eq!(res.outputs[2], Some(vec![1, 3]));
    }

    #[test]
    fn per_party_rng_matches_other_executors() {
        struct Draw;
        impl RoundMachine<u64> for Draw {
            type Output = u64;
            fn round(&mut self, view: RoundView<'_, u64>) -> Step<u64, u64> {
                use dprbg_rng::RngExt;
                Step::Done(view.rng.random::<u64>())
            }
        }
        let fleet = || (0..3).map(|_| Box::new(Draw) as BoxedMachine<u64, u64>).collect();
        let a = ParRunner::new(3, 99).run(fleet()).unwrap_all();
        let b = StepRunner::new(3, 99).run(fleet()).unwrap_all();
        assert_eq!(a, b);
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
        let _ = ParRunner::new(1, 0).with_max_rounds(8).run(machines);
    }

    #[test]
    #[should_panic(expected = "one machine per party")]
    fn machine_count_must_match() {
        let _ = ParRunner::new(3, 0).run(gossip_fleet(2));
    }

    #[test]
    fn stateful_tap_folds_identically_across_executors() {
        use crate::adversary::{MsgFate, MsgHop, MsgTap};

        /// Drops every third hop it sees — order-sensitive on purpose.
        struct EveryThird(u64);
        impl MsgTap<u64> for EveryThird {
            fn intercept(&mut self, _hop: MsgHop<'_, u64>) -> MsgFate<u64> {
                self.0 += 1;
                if self.0.is_multiple_of(3) {
                    MsgFate::Drop
                } else {
                    MsgFate::Deliver
                }
            }
        }

        let stepped = StepRunner::new(5, 7).with_tap(EveryThird(0)).run(gossip_fleet(5));
        let parallel = ParRunner::new(5, 7).with_tap(EveryThird(0)).run(gossip_fleet(5));
        assert_eq!(stepped.outputs, parallel.outputs);
        assert_eq!(stepped.report, parallel.report);
        assert_eq!(stepped.rounds, parallel.rounds);
    }

    #[test]
    fn delaying_tap_matches_step_runner() {
        use crate::adversary::{MsgFate, MsgHop, MsgTap};

        struct DelayOdd;
        impl MsgTap<u64> for DelayOdd {
            fn intercept(&mut self, hop: MsgHop<'_, u64>) -> MsgFate<u64> {
                if hop.from % 2 == 1 {
                    MsgFate::Delay(1)
                } else {
                    MsgFate::Deliver
                }
            }
        }

        /// Gossips for several rounds so delayed messages can mature.
        struct SlowGossip;
        impl RoundMachine<u64> for SlowGossip {
            type Output = Vec<u64>;
            fn round(&mut self, view: RoundView<'_, u64>) -> Step<u64, Vec<u64>> {
                if view.round < 3 {
                    let mut out = view.outbox();
                    out.send_to_all(view.round * 100 + view.id as u64);
                    Step::Continue(out)
                } else {
                    Step::Done(view.inbox.iter().map(|r| *r.msg()).collect())
                }
            }
        }
        let fleet = || {
            (0..4)
                .map(|_| Box::new(SlowGossip) as BoxedMachine<u64, Vec<u64>>)
                .collect::<Vec<_>>()
        };
        let stepped = StepRunner::new(4, 11).with_tap(DelayOdd).run(fleet());
        let parallel = ParRunner::new(4, 11).with_tap(DelayOdd).run(fleet());
        assert_eq!(stepped.outputs, parallel.outputs);
        assert_eq!(stepped.report, parallel.report);
        assert_eq!(stepped.rounds, parallel.rounds);
    }
}
