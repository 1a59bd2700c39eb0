//! The deterministic parallel executor.
//!
//! [`ParRunner`] is the shared round loop ([`crate::runner`]) with a
//! pooled stepping strategy: each generation's live parties are stepped
//! concurrently on a small in-tree thread pool, and the loop merges their
//! outboxes in party-id order exactly as it does for
//! [`StepRunner`](crate::StepRunner). The result is byte-identical to
//! `StepRunner` — same transcripts, same
//! [`CostReport`](dprbg_metrics::CostReport), same
//! [`RoundProfile`](crate::RoundProfile)s, same logical traces — the pool
//! only changes wall-clock time (the loop's module docs say why; validated
//! end-to-end in `tests/executors.rs`).
//!
//! # Scheduling
//!
//! The loop owns the parties; for the compute phase of a generation it
//! moves every live one onto a single shared queue, each worker takes the
//! next party, steps it and sends it back with its outcome, and the
//! coordinator restores id order. An unbalanced round (one party
//! interpolating while the rest idle) therefore still keeps every core
//! busy. Closing the queue — when the run ends, normally or by a
//! coordinator panic such as the `max_rounds` backstop — is what releases
//! the workers. The pool is hermetic: scoped `std::thread`s, no global
//! state, nothing outlives [`ParRunner::run`].

use std::sync::{mpsc, Mutex};

use dprbg_metrics::WireSize;
use dprbg_trace::TraceConfig;

use crate::adversary::MsgTap;
use crate::machine::{BoxedMachine, RunResult};
use crate::runner::{drive, Config, Party};

/// The deterministic parallel executor (see module docs).
pub struct ParRunner<M> {
    config: Config<M>,
    threads: usize,
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
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        ParRunner { config: Config::new(n, seed), threads: 1 }.with_threads(cores)
    }

    /// Override the worker-thread count (clamped to `1..=n`: a worker
    /// beyond one per party would never have work). A single-threaded
    /// pool is a useful determinism control: it must — and does — produce
    /// the same bytes as any wider pool.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.clamp(1, self.config.n);
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
        self.config.tap = Some(Box::new(tap));
        self
    }

    /// Record a logical-time trace of the run (see `dprbg_trace`).
    /// Traces are keyed by `(party, logical round)`, never by wall-clock
    /// or thread identity, so the recorded stream is byte-identical to
    /// [`StepRunner::with_trace`](crate::StepRunner::with_trace).
    pub fn with_trace(mut self, cfg: TraceConfig) -> Self {
        self.config.trace = Some(cfg);
        self
    }

    /// Override the non-termination backstop (default 2²⁰ rounds).
    pub fn with_max_rounds(mut self, max_rounds: u64) -> Self {
        self.config.max_rounds = max_rounds;
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
    pub fn run<Out: Send>(self, machines: Vec<BoxedMachine<M, Out>>) -> RunResult<Out> {
        let n = self.config.n;
        let (queue, tasks) = mpsc::channel::<Party<M, Out>>();
        let tasks = Mutex::new(tasks);
        let (stepped_tx, stepped) = mpsc::channel();
        std::thread::scope(|scope| {
            for _ in 0..self.threads {
                let (tasks, stepped_tx) = (&tasks, stepped_tx.clone());
                scope.spawn(move || loop {
                    // The lock is held only to take one party, never while
                    // stepping it; a closed queue ends the worker.
                    let next = tasks.lock().expect("no worker panics holding the queue").recv();
                    let Ok(mut party) = next else { return };
                    let outcome = party.step(n);
                    if stepped_tx.send((party, outcome)).is_err() {
                        return;
                    }
                });
            }
            // `queue` moves into the strategy, so it closes when `drive`
            // returns or unwinds — before the scope joins the workers.
            drive(self.config, machines, move |live| {
                let dealt = live.len();
                for party in live.drain(..) {
                    queue.send(party).expect("workers outlive the queue");
                }
                let mut back: Vec<_> = stepped.iter().take(dealt).collect();
                back.sort_by_key(|(party, _)| party.id);
                let (parties, outcomes) = back.into_iter().unzip();
                *live = parties;
                outcomes
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::runner::cases::{entry_points, POOLS};

    entry_points! { POOLS;
        parallel_round_trip => round_trip,
        matches_step_runner_exactly => identity,
        thread_count_never_changes_results => thread_count,
        panicking_machine_is_contained => contained_panic,
        wrong_size_outbox_is_contained => contained_misfit,
        per_party_rng_matches_other_executors => rng_pin,
        max_rounds_backstop_fires => backstop panics "exceeded",
        machine_count_must_match => machine_count panics "one machine per party",
        stateful_tap_folds_identically_across_executors => stateful_tap,
        delaying_tap_matches_step_runner => delaying_tap,
    }
}
