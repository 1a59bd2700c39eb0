//! The deterministic single-threaded executor.
//!
//! [`StepRunner`] is the shared round loop ([`crate::runner`]) with the
//! plainest stepping strategy: every live party's `round` is called in id
//! order on the calling thread — no OS threads, no barriers, no locks, and
//! so no `Send`/`Sync` bound on the payload. A machine run under this
//! executor or [`ParRunner`](crate::ParRunner) from the same master seed
//! produces the same transcript and the same
//! [`CostReport`](dprbg_metrics::CostReport). The single-threaded form is
//! what makes big-n sweeps tractable: a committee-sampled Coin-Gen at n in
//! the hundreds is a loop, not hundreds of stacks.

use dprbg_metrics::WireSize;
use dprbg_trace::TraceConfig;

use crate::adversary::MsgTap;
use crate::machine::{BoxedMachine, RunResult};
use crate::runner::{drive, Config};

/// The deterministic single-threaded executor (see module docs).
pub struct StepRunner<M> {
    config: Config<M>,
}

impl<M: Clone + WireSize> StepRunner<M> {
    /// A runner for `n` parties, all randomness derived from `seed` with
    /// the same per-party derivation as [`ParRunner`](crate::ParRunner).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize, seed: u64) -> Self {
        StepRunner { config: Config::new(n, seed) }
    }

    /// Install a per-message adversary at the message hop.
    pub fn with_tap(mut self, tap: impl MsgTap<M> + 'static) -> Self {
        self.config.tap = Some(Box::new(tap));
        self
    }

    /// Record a logical-time trace of the run (see `dprbg_trace`): one
    /// span per (party, round) carrying the phase name, flush totals,
    /// and the round's cost delta. The merged result lands in
    /// [`RunResult::trace`]. Without this call tracing is a no-op — the
    /// run loop only checks an `Option`.
    pub fn with_trace(mut self, cfg: TraceConfig) -> Self {
        self.config.trace = Some(cfg);
        self
    }

    /// Override the non-termination backstop (default 2²⁰ rounds).
    pub fn with_max_rounds(mut self, max_rounds: u64) -> Self {
        self.config.max_rounds = max_rounds;
        self
    }

    /// Drive every machine to completion. A machine that panics is
    /// contained (`None` output) and the rest keep running.
    ///
    /// # Panics
    ///
    /// Panics if the machine count differs from `n`, or if any machine is
    /// still running after the `max_rounds` backstop.
    pub fn run<Out>(self, machines: Vec<BoxedMachine<M, Out>>) -> RunResult<Out> {
        let n = self.config.n;
        drive(self.config, machines, |live| live.iter_mut().map(|party| party.step(n)).collect())
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use super::*;
    use crate::machine::{from_fn, RoundView, Step};
    use crate::runner::cases::{entry_points, Exec::Inline};

    entry_points! { [Inline];
        single_threaded_round_trip => round_trip,
        repeated_runs_are_byte_identical => identity,
        panicking_machine_is_contained => contained_panic,
        wrong_size_outbox_is_contained => contained_misfit,
        per_party_rng_derivation_is_stable => rng_pin,
        max_rounds_backstop_fires => backstop panics "exceeded",
        machine_count_must_match => machine_count panics "one machine per party",
    }

    /// The inline strategy asks nothing of the payload beyond
    /// `Clone + WireSize`: out-of-workspace callers run `!Sync` payloads.
    #[test]
    fn payload_need_not_be_sync() {
        #[derive(Clone)]
        struct Tally(Cell<u64>);
        impl WireSize for Tally {
            fn wire_bytes(&self) -> usize {
                8
            }
        }
        fn tell(view: RoundView<'_, Tally>) -> Step<Tally, u64> {
            if view.round > 0 {
                return Step::Done(view.inbox.iter().map(|r| r.msg().0.get()).sum());
            }
            let mut out = view.outbox();
            out.send_to_all(Tally(Cell::new(view.id as u64)));
            Step::Continue(out)
        }
        let fleet = (0..3).map(|_| Box::new(from_fn(tell)) as BoxedMachine<Tally, u64>).collect();
        assert_eq!(StepRunner::new(3, 5).run(fleet).unwrap_all(), [6, 6, 6]);
    }
}
