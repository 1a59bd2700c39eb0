//! E3 — Bit-Gen cost (Lemma 6 / Corollary 2).
//!
//! Paper claims for generating `M` sealed secrets (one dealer): "3 rounds
//! of communication. In the first round there are n messages each of size
//! Mk, in the second and third rounds n² messages of size k, for a total
//! of nMk + 2n²k bits"; amortized per generated bit "the communication is
//! n + O(1)" (Corollary 2 — the `nMk` dealing term dominates for large
//! M, leaving `n` field-bits of traffic per field-bit generated).
//!
//! We run the single-dealer instance the lemma describes (the `n`
//! parallel instances of Coin-Gen are measured in E4) and report
//! total and per-coin costs as `M` grows.

use dprbg_core::{
    BitGenMachine, BitGenMode, BitGenMsg, BitGenRun, CoinError, Params, TrustedDealer,
};
use dprbg_metrics::Table;
use dprbg_sim::{BoxedMachine, PartyId, StepRunner};

use super::common::{fmt_f, ExperimentCtx, PlayerCost, F32};

/// Measure Bit-Gen with the given dealer set and batch size `m`, on the
/// single-threaded executor.
pub fn measure(n: usize, t: usize, m: usize, dealers: &[PartyId], seed: u64) -> PlayerCost {
    type Out = Result<BitGenRun<F32>, CoinError>;
    let mut coins = TrustedDealer::deal_wallets::<F32>(Params { n, t }, 1, seed);
    let machines: Vec<BoxedMachine<BitGenMsg<F32>, Out>> = (1..=n)
        .map(|id| {
            Box::new(BitGenMachine::new(
                t,
                m,
                coins[id - 1].pop().expect("one coin dealt per party"),
                dealers.to_vec(),
                BitGenMode::RandomCoins,
            )) as _
        })
        .collect();
    let res = StepRunner::new(n, seed).run(machines);
    let report = res.report.clone();
    for out in res.unwrap_all() {
        let run = out.expect("bit-gen runs");
        assert!(
            dealers.iter().all(|&d| run.views[d - 1].check_poly.is_some()),
            "all instances validate"
        );
    }
    PlayerCost::from_report(&report)
}

/// Run E3 and render its table.
pub fn run(ctx: &ExperimentCtx) -> Table {
    let mut table = Table::new(
        "E3: Bit-Gen, single dealer of M sealed secrets, k=32 (Lemma 6 / Corollary 2)",
        &[
            "rounds", "msgs", "bytes", "bytes(pred)", "interp", "bytes/coin", "n*k/8",
        ],
    );
    for &n in ctx.sweep(&[7usize, 13], &[7]) {
        let t = Params::max_t_p2p(n);
        for &m in ctx.sweep(&[1usize, 16, 64, 256], &[1, 64]) {
            let c = measure(n, t, m, &[1], ctx.seed + (n * 1000 + m) as u64);
            // Lemma 6 prediction in bytes (k = 32 bits = 4 bytes), for a
            // single dealer: deal n·(M+1)·4, expose n²·4, betas n·(4+1)
            // (only the dealer instance has combinations to send).
            let k_bytes = 4usize;
            let predicted = n * (m + 1) * k_bytes + n * n * k_bytes + n * n * (k_bytes + 1);
            table.row(
                &format!("n={n:<2} M={m}"),
                &[
                    c.rounds.to_string(),
                    c.messages.to_string(),
                    c.bytes.to_string(),
                    predicted.to_string(),
                    c.interps.to_string(),
                    fmt_f(c.bytes as f64 / m as f64),
                    (n * k_bytes).to_string(),
                ],
            );
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::common::assert_golden;

    #[test]
    fn e3_shapes_hold() {
        let n = 7;
        let t = 1;
        let small = measure(n, t, 1, &[1], 1);
        let large = measure(n, t, 256, &[1], 2);
        assert_eq!(small.rounds, 3, "Lemma 6: three rounds");
        assert_eq!(large.rounds, 3);
        assert_eq!(large.interps, 2, "Lemma 6: two interpolations");
        // Per-coin bytes fall toward the dealing term n·k as M grows.
        let per_coin_small = small.bytes as f64;
        let per_coin_large = large.bytes as f64 / 256.0;
        assert!(
            per_coin_large < per_coin_small / 5.0,
            "amortization: {per_coin_large} vs {per_coin_small}"
        );
        // And approach the Corollary-2 floor of ~n·k bits (n·4 bytes,
        // within ~2× for the beta/expose remnants).
        assert!(per_coin_large < (n * 4) as f64 * 3.0);
    }

    #[test]
    fn e3_renders() {
        let table = run(&ExperimentCtx::new(true));
        assert!(table.render().contains("M=64"));
        assert_golden(&[table]);
    }
}
