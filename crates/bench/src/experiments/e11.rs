//! E11 — big-n Coin-Gen under the single-threaded `StepRunner`.
//!
//! The thread-per-party simulator caps the E-series at n ≈ 40 (one OS
//! stack per player); the sans-IO round engine removes that wall by
//! interleaving all n machines on the calling thread. This sweep runs
//! full Coin-Gen at the scales production randomness beacons are
//! evaluated at and reports the Theorem 2 cost shape directly from the
//! executor's ledgers: message totals grow ~n² and bytes faster (the
//! grade-cast bundles carry the `O(n⁴k)` term), the round count stays
//! flat in n (it depends only on t's phase-king schedule and the number
//! of leader attempts), and the per-round delivery peak is n² — no round
//! sends more than one envelope per ordered pair of parties.
//!
//! Also the regression anchor for the executor itself: every sweep point
//! is a full protocol run, so `StepRunner` silently breaking agreement at
//! scale would fail the table's unanimity check before any experiment
//! rendered.

use dprbg_core::{
    CoinBatch, CoinGenConfig, CoinGenError, CoinGenMachine, CoinGenMsg, CoinWallet, Params,
    TrustedDealer,
};
use dprbg_metrics::Table;
use dprbg_sim::{BoxedMachine, StepRunner};

use super::common::{ExperimentCtx, F32};

/// One sweep point's observable outcome.
pub struct SweepPoint {
    /// Parties.
    pub n: usize,
    /// Corruption bound used (`⌊(n − 1) / 6⌋`, the point-to-point model's
    /// `n ≥ 6t + 1` limit).
    pub t: usize,
    /// Synchronous rounds to termination.
    pub rounds: u64,
    /// Leader-election attempts (unanimous across parties).
    pub attempts: usize,
    /// Total messages across the run.
    pub messages: u64,
    /// Total payload bytes across the run.
    pub bytes: u64,
    /// Largest single-round delivery count (n²: one envelope per pair).
    pub peak_deliveries: usize,
}

/// Run one full Coin-Gen at `(n, t)` under the single-threaded executor
/// and check every party produced the same dealer set and attempt count.
pub fn run_point(n: usize, t: usize, m: usize, seed: u64) -> SweepPoint {
    type Out = (CoinWallet<F32>, Result<CoinBatch<F32>, CoinGenError>);
    let params = Params::p2p_model(n, t).unwrap();
    let cfg = CoinGenConfig { params, batch_size: m };
    let mut wallets: Vec<CoinWallet<F32>> = TrustedDealer::deal_wallets(params, 4 + t, seed);
    let machines: Vec<BoxedMachine<CoinGenMsg<F32>, Out>> = (0..n)
        .map(|_| {
            Box::new(CoinGenMachine::new(cfg, wallets.remove(0)))
                as BoxedMachine<CoinGenMsg<F32>, Out>
        })
        .collect();
    let res = StepRunner::new(n, seed).run(machines);
    let rounds = res.report.comm.rounds;
    let messages = res.report.comm.messages;
    let bytes = res.report.comm.bytes;
    let peak_deliveries = res.rounds.iter().map(|p| p.deliveries).max().unwrap_or(0);
    let batches: Vec<CoinBatch<F32>> = res
        .unwrap_all()
        .into_iter()
        .map(|(_, r)| r.expect("coin generation succeeds"))
        .collect();
    let first = &batches[0];
    assert!(
        batches.iter().all(|b| b.dealers == first.dealers && b.attempts == first.attempts),
        "parties disagree at n = {n}"
    );
    SweepPoint {
        n,
        t,
        rounds,
        attempts: first.attempts,
        messages,
        bytes,
        peak_deliveries,
    }
}

/// Run E11 and render its table.
pub fn run(ctx: &ExperimentCtx) -> Table {
    let ns: &[usize] = ctx.sweep(&[7, 13, 31, 61], &[7, 13]);
    let m = if ctx.quick { 4 } else { 16 };
    let mut table = Table::new(
        &format!("E11: Coin-Gen at beacon scale under StepRunner (single thread), M={m}"),
        &["t", "rounds", "attempts", "messages", "bytes", "peak msgs/round"],
    );
    for &n in ns {
        let t = (n - 1) / 6;
        let p = run_point(n, t, m, ctx.seed + n as u64);
        table.row(
            &format!("n={n:>3}"),
            &[
                p.t.to_string(),
                p.rounds.to_string(),
                p.attempts.to_string(),
                p.messages.to_string(),
                p.bytes.to_string(),
                p.peak_deliveries.to_string(),
            ],
        );
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e11_point_runs_and_agrees() {
        let p = run_point(7, 1, 4, 3);
        assert!(p.rounds >= 6 + 1 + 2 * 2, "too few rounds for fig. 5");
        assert!(p.attempts >= 1);
        assert_eq!(p.peak_deliveries, 7 * 7);
        assert!(p.messages > 0);
    }

    #[test]
    fn e11_messages_grow_quadratically() {
        // Theorem 2's shape: doubling n should roughly quadruple traffic
        // (within a factor left for attempt-count noise).
        let small = run_point(7, 1, 4, 5);
        let big = run_point(13, 2, 4, 5);
        assert!(
            big.messages > 2 * small.messages,
            "messages must grow superlinearly: {} vs {}",
            big.messages,
            small.messages
        );
    }

    #[test]
    fn e11_renders() {
        let s = run(&ExperimentCtx::new(true)).render();
        assert!(s.contains("E11"));
        assert!(s.contains("n=  7"));
    }
}
