//! E10 — Round anatomy of Coin-Gen (a figure the paper describes in
//! prose).
//!
//! Fig. 5's execution has a rigid round structure: three Bit-Gen rounds
//! (deal / challenge expose / combination exchange), three Grade-Cast
//! rounds (value / echo / vote), then per leader attempt one expose round
//! plus `2(t + 1)` phase-king rounds. This experiment runs the protocol
//! and prints the measured per-round delivery profile with those labels —
//! making Theorem 2's message count *visible*: every round delivers at
//! most `n²` messages. The deal round carries the `Mn²k` payload; the
//! grade-cast echo and vote rounds carry the `O(n⁴k)` clique traffic as
//! `n²` bundles of `n` instance entries each, so their bulge is in bytes,
//! not in deliveries.
//!
//! Also serves as a regression anchor for the simulator's round
//! accounting: the labels are derived analytically and must line up with
//! the recorded profile.

use dprbg_core::{
    CoinBatch, CoinGenConfig, CoinGenError, CoinGenMachine, CoinGenMsg, CoinWallet, Params,
    TrustedDealer,
};
use dprbg_metrics::Table;
use dprbg_sim::{BoxedMachine, RoundProfile, StepRunner};

use super::common::{ExperimentCtx, F32};

/// Run one Coin-Gen and return (per-round profile, attempts).
pub fn profile(n: usize, t: usize, m: usize, seed: u64) -> (Vec<RoundProfile>, usize) {
    let params = Params::p2p_model(n, t).unwrap();
    let cfg = CoinGenConfig { params, batch_size: m };
    let mut wallets: Vec<CoinWallet<F32>> = TrustedDealer::deal_wallets(params, 4 + t, seed);
    type CgOut = (CoinWallet<F32>, Result<CoinBatch<F32>, CoinGenError>);
    let machines: Vec<BoxedMachine<CoinGenMsg<F32>, CgOut>> = (0..n)
        .map(|_| Box::new(CoinGenMachine::new(cfg, wallets.remove(0))) as _)
        .collect();
    let res = StepRunner::new(n, seed).run(machines);
    let rounds = res.rounds.clone();
    let attempts = res
        .unwrap_all()
        .into_iter()
        .next()
        .map(|(_, batch)| batch.expect("generation succeeds").attempts)
        .expect("party 1 produced an output");
    (rounds, attempts)
}

/// The analytic label of round `r` (0-based) for `attempts` BA attempts.
pub fn round_label(r: usize, t: usize, attempts: usize) -> String {
    match r {
        0 => "bit-gen: deal".into(),
        1 => "bit-gen: expose challenge r".into(),
        2 => "bit-gen: combinations β".into(),
        3 => "grade-cast: values".into(),
        4 => "grade-cast: echoes".into(),
        5 => "grade-cast: votes".into(),
        _ => {
            let per_attempt = 1 + 2 * (t + 1);
            let idx = r - 6;
            let attempt = idx / per_attempt + 1;
            if attempt > attempts {
                return "(post-protocol)".into();
            }
            match idx % per_attempt {
                0 => format!("attempt {attempt}: expose leader coin"),
                k if k % 2 == 1 => format!("attempt {attempt}: BA suggest"),
                _ => format!("attempt {attempt}: BA king"),
            }
        }
    }
}

/// Run E10 and render its table.
pub fn run(ctx: &ExperimentCtx) -> Table {
    let n = 7;
    let t = 1;
    let m = if ctx.quick { 16 } else { 64 };
    let (rounds, attempts) = profile(n, t, m, ctx.seed);
    let mut table = Table::new(
        &format!("E10: round anatomy of Coin-Gen, n={n} t={t} M={m} ({attempts} attempt(s))"),
        &["deliveries", "live", "phase"],
    );
    for (r, p) in rounds.iter().enumerate() {
        table.row(
            &format!("round {:>2}", r + 1),
            &[
                p.deliveries.to_string(),
                p.live_parties.to_string(),
                round_label(r, t, attempts),
            ],
        );
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e10_round_structure_matches_fig5() {
        let n = 7;
        let t = 1;
        let (rounds, attempts) = profile(n, t, 8, 1);
        assert_eq!(attempts, 1);
        // 3 bit-gen + 3 grade-cast + (1 expose + 2(t+1) BA) per attempt.
        assert_eq!(rounds.len(), 6 + attempts * (1 + 2 * (t + 1)));
        // The deal round delivers n² messages, and so do grade-cast's
        // value, echo and vote rounds: each party sends one envelope per
        // recipient, its echoes and votes for all n instances bundled.
        assert_eq!(rounds[0].deliveries, n * n);
        for (r, label) in [(3, "value"), (4, "echo"), (5, "vote")] {
            assert_eq!(rounds[r].deliveries, n * n, "grade-cast {label} round");
        }
        assert!(rounds.iter().all(|p| p.live_parties == n));
    }

    #[test]
    fn e10_labels_cover_all_rounds() {
        let (rounds, attempts) = profile(7, 1, 4, 2);
        for r in 0..rounds.len() {
            let label = round_label(r, 1, attempts);
            assert!(!label.contains("post-protocol"), "round {r}: {label}");
        }
    }

    #[test]
    fn e10_renders() {
        let s = run(&ExperimentCtx::new(true)).render();
        assert!(s.contains("bit-gen: deal"));
        assert!(s.contains("grade-cast: echoes"));
        assert!(s.contains("BA suggest"));
    }
}
