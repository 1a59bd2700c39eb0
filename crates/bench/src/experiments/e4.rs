//! E4 — Coin-Gen amortization: the paper's main result (Theorem 2 /
//! Corollary 3).
//!
//! Paper claims: the n parallel Bit-Gens cost `Mn²k log k + 2Mnk log k`
//! additions and `n + 1` interpolations per player, plus a clique
//! computation and "an expected constant number of interpolations and
//! BAs"; communication totals `Mn²k + O(n⁴k)` bits. Amortized per
//! produced coin the computation is `O(n log k)` operations **per bit**
//! (i.e. `O(nk log k)` per k-ary coin ≈ `O(n)` multiplications) and the
//! communication per coin is `n²k + O(n⁴k)/M` bits — so the `O(n⁴k)`
//! agreement overhead (grade-cast of cliques + leader election + BA)
//! vanishes as the batch grows. This experiment measures the whole
//! protocol and locates that crossover.

use dprbg_core::{
    CoinBatch, CoinGenConfig, CoinGenError, CoinGenMachine, CoinGenMsg, CoinWallet, Params,
    TrustedDealer,
};
use dprbg_metrics::Table;
use dprbg_sim::{BoxedMachine, StepRunner};

use super::common::{fmt_f, ExperimentCtx, PlayerCost, F32};

/// Measure one full Coin-Gen run on the single-threaded executor;
/// returns (cost, attempts).
pub fn measure(n: usize, t: usize, m: usize, seed: u64) -> (PlayerCost, usize) {
    type Out = (CoinWallet<F32>, Result<CoinBatch<F32>, CoinGenError>);
    let params = Params::p2p_model(n, t).unwrap();
    let cfg = CoinGenConfig { params, batch_size: m };
    let mut wallets: Vec<CoinWallet<F32>> = TrustedDealer::deal_wallets(params, 4 + t, seed);
    let machines: Vec<BoxedMachine<CoinGenMsg<F32>, Out>> = (0..n)
        .map(|_| Box::new(CoinGenMachine::new(cfg, wallets.remove(0))) as _)
        .collect();
    let res = StepRunner::new(n, seed).run(machines);
    let report = res.report.clone();
    let attempts = res.unwrap_all()[0].1.as_ref().expect("generation succeeds").attempts;
    (PlayerCost::from_report(&report), attempts)
}

/// Run E4 and render its tables.
pub fn run(ctx: &ExperimentCtx) -> Vec<Table> {
    let mut tables = Vec::new();
    let ns: &[usize] = ctx.sweep(&[7, 13, 19, 25], &[7, 13]);
    for &n in ns {
        let t = Params::max_t_p2p(n);
        let ms: &[usize] = if ctx.quick {
            &[1, 16, 128]
        } else {
            &[1, 4, 16, 64, 256, 1024]
        };
        let mut table = Table::new(
            &format!(
                "E4: Coin-Gen amortization, n={n} t={t} k=32 (Theorem 2 / Corollary 3)"
            ),
            &[
                "attempts", "interp", "muls", "bytes", "muls/coin", "bytes/coin", "n^2*k/8",
            ],
        );
        for &m in ms {
            let (c, attempts) = measure(n, t, m, ctx.seed + (n * 10_000 + m) as u64);
            table.row(
                &format!("M={m}"),
                &[
                    attempts.to_string(),
                    c.interps.to_string(),
                    c.muls.to_string(),
                    c.bytes.to_string(),
                    fmt_f(c.muls as f64 / m as f64),
                    fmt_f(c.bytes as f64 / m as f64),
                    (n * n * 4).to_string(),
                ],
            );
        }
        tables.push(table);
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::common::assert_golden;

    #[test]
    fn e4_amortization_shape() {
        let n = 7;
        let t = 1;
        let (small, _) = measure(n, t, 1, 1);
        let (large, attempts) = measure(n, t, 128, 2);
        assert_eq!(attempts, 1, "no faults → one leader attempt (Lemma 8)");
        // Headline: per-coin bytes collapse as M grows; the fixed O(n^4 k)
        // agreement overhead is amortized away.
        let pc_small = small.bytes as f64;
        let pc_large = large.bytes as f64 / 128.0;
        assert!(
            pc_large < pc_small / 20.0,
            "per-coin bytes {pc_large} vs single-coin run {pc_small}"
        );
        // And converge toward the n²k dealing floor (within ~3×: betas,
        // expose and blinding ride along).
        assert!(pc_large < (n * n * 4) as f64 * 3.0, "per-coin bytes {pc_large}");
        // Per-coin multiplications are O(n) — small constant times n.
        let muls_per_coin = large.muls as f64 / 128.0;
        assert!(
            muls_per_coin < (8 * n) as f64,
            "muls/coin = {muls_per_coin} should be O(n)"
        );
    }

    #[test]
    fn e4_interp_per_player_is_n_plus_constant() {
        // Theorem 2: n + 1 interpolations for the Bit-Gens, plus an
        // expected-constant number for the leader expose(s).
        let n = 7;
        let (c, attempts) = measure(n, 1, 16, 3);
        let expected_min = (n + 1) as u64; // n dealer decodes + challenge
        let expected_max = expected_min + 2 * attempts as u64 + 1;
        assert!(
            (expected_min..=expected_max).contains(&c.interps),
            "interpolations {} outside [{expected_min}, {expected_max}]",
            c.interps
        );
    }

    #[test]
    fn e4_renders() {
        let tables = run(&ExperimentCtx::new(true));
        assert_eq!(tables.len(), 2);
        assert!(tables[0].render().contains("M=128"));
        assert_golden(&tables);
    }
}
