//! E7 — Bootstrapping: steady-state cost and self-sufficiency (Fig. 1,
//! §1.2).
//!
//! Paper claims: with bootstrapping, "the cost of the initial seed can
//! now effectively be neglected" — the long-run cost per delivered coin
//! converges to the generator's amortized cost, and the source is
//! self-sufficient ("our method is self-sufficient once it gets kicked
//! off"), with coins "generated in batches, according to need" under a
//! constant low-water trigger.
//!
//! The experiment drives a beacon for many epochs — a loop over
//! [`Bootstrap::draw`] — on the single-threaded [`StepRunner`],
//! recording per-window cost/coin (computation in multiplications and
//! communication in bytes, including the refills that fall in the
//! window) and reservoir
//! levels: the early windows pay generation spikes, the running average
//! settles, and the reservoir never dries up. Window costs come from
//! the executor's deterministic trace — each window is a span of
//! synchronous rounds, and the party-1 per-round cost deltas recorded
//! by `dprbg-trace` sum to exactly the window's share of the ledger.

use dprbg_core::{Bootstrap, BootstrapConfig, CoinGenConfig, CoinGenMsg, Params, TrustedDealer};
use dprbg_metrics::Table;
use dprbg_sim::{
    looping, BoxedMachine, LoopControl, MachineExt, RoundMachine, RoundView, Step, StepRunner,
    TraceConfig,
};
use dprbg_trace::EventKind;

use super::common::{fmt_f, ExperimentCtx, F32};

/// Per-window measurements of the beacon at party 1.
#[derive(Debug, Clone)]
pub struct WindowTrace {
    /// Draws in this window.
    pub draws: usize,
    /// Party-1 multiplications during the window.
    pub muls: u64,
    /// Party-1 payload bytes sent during the window.
    pub bytes: u64,
    /// Refills that ran during the window.
    pub refills: usize,
    /// Reservoir level at the window's end.
    pub level: usize,
}

/// One finished draw: the synchronous round it finished in, the refills
/// run so far, and the reservoir level after it.
type DrawMark = (u64, usize, usize);

/// A machine that also reports how many rounds past its start it
/// finished (its successor in a loop starts in that same round).
struct Elapsed<A>(A);

impl<M, A: RoundMachine<M>> RoundMachine<M> for Elapsed<A> {
    type Output = (A::Output, u64);

    fn round(&mut self, view: RoundView<'_, M>) -> Step<M, Self::Output> {
        let elapsed = view.round;
        match self.0.round(view) {
            Step::Continue(out) => Step::Continue(out),
            Step::Done(out) => Step::Done((out, elapsed)),
        }
    }

    fn phase_name(&self) -> &'static str {
        self.0.phase_name()
    }
}

/// The Fig. 1 reservoir driven for `draws` draws: a loop over
/// [`Bootstrap::draw`], which refills whenever a draw would leave the
/// reservoir at or below the low-water mark.
fn beacon(
    boot: Bootstrap<F32>,
    draws: usize,
) -> impl RoundMachine<CoinGenMsg<F32>, Output = Vec<DrawMark>> {
    looping((boot, Vec::new()), move |(boot, mut marks): (Bootstrap<F32>, Vec<DrawMark>)| {
        if marks.len() == draws {
            return LoopControl::Break(marks);
        }
        LoopControl::Continue(Box::new(Elapsed(boot.draw()).map(
            move |((boot, res), elapsed)| {
                res.expect("beacon draw succeeds");
                let round = marks.last().map_or(0, |m| m.0) + elapsed;
                marks.push((round, boot.stats().refills, boot.level()));
                (boot, marks)
            },
        )))
    })
}

/// Run the beacon for `windows × draws_per_window` draws; returns the
/// per-window trace (identical at every honest party), with window
/// costs attributed from the executor's party-1 round spans. A window
/// spans the rounds after the previous window's last decode up to and
/// including its own.
pub fn trace(
    n: usize,
    t: usize,
    batch: usize,
    windows: usize,
    draws_per_window: usize,
    seed: u64,
) -> Vec<WindowTrace> {
    let params = Params::p2p_model(n, t).unwrap();
    let cfg = BootstrapConfig::with_default_low_water(CoinGenConfig { params, batch_size: batch });
    let draws = windows * draws_per_window;
    let machines: Vec<BoxedMachine<CoinGenMsg<F32>, Vec<DrawMark>>> =
        TrustedDealer::deal_wallets::<F32>(params, 6, seed)
            .into_iter()
            .map(|w| Box::new(beacon(Bootstrap::new(cfg, w), draws)) as _)
            .collect();
    let mut res = StepRunner::new(n, seed).with_trace(TraceConfig::full()).run(machines);
    let events = res.trace.take().expect("traced run records a trace").events;
    let marks = res.unwrap_all().remove(0);
    let (mut start, mut refills_before) = (0, 0);
    marks
        .chunks(draws_per_window)
        .map(|window| {
            let &(end, refills, level) = window.last().expect("windows are non-empty");
            let (mut muls, mut bytes) = (0u64, 0u64);
            for ev in &events {
                if ev.party == 1 && (start..=end).contains(&ev.round) {
                    if let EventKind::End { cost } = &ev.kind {
                        muls += cost.field_muls;
                        bytes += cost.bytes;
                    }
                }
            }
            let w = WindowTrace {
                draws: window.len(),
                muls,
                bytes,
                refills: refills - refills_before,
                level,
            };
            (start, refills_before) = (end + 1, refills);
            w
        })
        .collect()
}

/// Run E7 and render its table.
pub fn run(ctx: &ExperimentCtx) -> Table {
    let n = 7;
    let t = 1;
    let batch = 24;
    let (windows, per) = if ctx.quick { (6, 20) } else { (12, 50) };
    let tr = trace(n, t, batch, windows, per, ctx.seed);
    let mut table = Table::new(
        &format!(
            "E7: bootstrapped beacon, n={n} t={t} M={batch}, {per} draws/window (Fig. 1) — party-1 view"
        ),
        &["draws", "refills", "muls/coin", "bytes/coin", "reservoir"],
    );
    let mut cum_muls = 0u64;
    let mut cum_bytes = 0u64;
    let mut cum_draws = 0usize;
    for (i, w) in tr.iter().enumerate() {
        cum_muls += w.muls;
        cum_bytes += w.bytes;
        cum_draws += w.draws;
        table.row(
            &format!("window {:>2}", i + 1),
            &[
                w.draws.to_string(),
                w.refills.to_string(),
                fmt_f(w.muls as f64 / w.draws as f64),
                fmt_f(w.bytes as f64 / w.draws as f64),
                w.level.to_string(),
            ],
        );
    }
    table.row(
        "running avg",
        &[
            cum_draws.to_string(),
            "-".into(),
            fmt_f(cum_muls as f64 / cum_draws as f64),
            fmt_f(cum_bytes as f64 / cum_draws as f64),
            "-".into(),
        ],
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::common::assert_golden;

    #[test]
    fn e7_self_sufficiency_and_steady_state() {
        let tr = trace(7, 1, 24, 8, 25, 1);
        // Never dries up.
        assert!(tr.iter().all(|w| w.level > 0), "reservoir must never empty");
        // Refills happen (the seed was only 6 coins for 200 draws).
        let total_refills: usize = tr.iter().map(|w| w.refills).sum();
        assert!(total_refills >= 5);
        // Steady state: the last windows' per-coin cost stays within a
        // small factor of the overall average (no runaway growth).
        let avg = |w: &WindowTrace| w.bytes as f64 / w.draws as f64;
        let overall: f64 = tr.iter().map(avg).sum::<f64>() / tr.len() as f64;
        let last = avg(tr.last().unwrap());
        assert!(
            last < overall * 3.0 + 1.0,
            "late-window cost {last} vs average {overall}"
        );
    }

    #[test]
    fn e7_window_costs_cover_the_whole_run() {
        // The window spans partition the rounds, so window costs must be
        // positive wherever work happened and every window pays at least
        // the expose traffic of its own draws.
        let tr = trace(7, 1, 24, 4, 25, 2);
        assert!(tr.iter().all(|w| w.bytes > 0), "every window sends expose traffic");
        assert!(tr.iter().any(|w| w.refills > 0 && w.muls > 0), "refill windows pay generation");
    }

    #[test]
    fn e7_renders() {
        let table = run(&ExperimentCtx::new(true));
        assert!(table.render().contains("running avg"));
        assert_golden(&[table]);
    }
}
