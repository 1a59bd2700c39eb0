//! E9 — Ablations of the implementation's design choices (DESIGN.md).
//!
//! Not a paper table: these measure the cost of the places where this
//! implementation chooses or extends beyond the paper's literal text,
//! demonstrating each choice is either free or buys robustness cheaply.
//!
//! 1. **Batch blinding** (DESIGN.md deviation #2): the extra masking
//!    polynomial per batch costs one share per player and one Horner
//!    step — `O(1/M)` amortized.
//! 2. **Strict vs. Robust VSS acceptance**: Fig. 2's literal rule cannot
//!    distinguish a cheating dealer from a cheating *verifier*; the
//!    Berlekamp–Welch rule (Bit-Gen's, §4) tolerates ≤ t bad verifiers at
//!    a modest computation premium.
//! 3. **Proactive refresh** (§1.2 extension): re-randomizing a wallet of
//!    W coins costs the same machinery as generating W coins — the
//!    refresh rides Corollary 3's amortization.

use dprbg_core::batch_vss::{cheating_batch_deal, BatchOpts};
use dprbg_core::{
    BatchVssMsg, BatchVssVerifyMachine, CoinBatch, CoinError, CoinGenConfig, CoinGenError,
    CoinGenMachine, CoinGenMsg, CoinWallet, Params, RefreshMachine, RefreshReport, TrustedDealer,
    VssMode, VssVerdict,
};
use dprbg_metrics::Table;
use dprbg_sim::{BoxedMachine, StepRunner};
use dprbg_rng::rngs::StdRng;
use dprbg_rng::SeedableRng;

use super::common::{fmt_f, ExperimentCtx, PlayerCost, F32};

/// Batch-VSS verification cost with blinding toggled.
fn batch_cost(n: usize, t: usize, m: usize, blinding: bool, seed: u64) -> PlayerCost {
    let mut coins = TrustedDealer::deal_wallets::<F32>(Params { n, t }, 1, seed);
    let mut rng = StdRng::seed_from_u64(seed + 1);
    let all = cheating_batch_deal::<F32, _>(n, t, m, 0, &mut rng);
    let opts = BatchOpts { blinding, mode: VssMode::Strict };
    let machines: Vec<BoxedMachine<BatchVssMsg<F32>, Result<VssVerdict, CoinError>>> = (1..=n)
        .map(|id| {
            let coin = coins[id - 1].pop().expect("one coin dealt per party");
            Box::new(BatchVssVerifyMachine::new(t, all[id - 1].clone(), m, coin, opts)) as _
        })
        .collect();
    let res = StepRunner::new(n, seed).run(machines);
    let report = res.report.clone();
    for v in res.unwrap_all() {
        assert_eq!(v.unwrap(), VssVerdict::Accept);
    }
    PlayerCost::from_report(&report)
}

/// Batch-VSS verification cost under the given acceptance mode.
fn mode_cost(n: usize, t: usize, mode: VssMode, seed: u64) -> PlayerCost {
    let mut coins = TrustedDealer::deal_wallets::<F32>(Params { n, t }, 1, seed);
    let mut rng = StdRng::seed_from_u64(seed + 1);
    let all = cheating_batch_deal::<F32, _>(n, t, 16, 0, &mut rng);
    let opts = BatchOpts { blinding: true, mode };
    let machines: Vec<BoxedMachine<BatchVssMsg<F32>, Result<VssVerdict, CoinError>>> = (1..=n)
        .map(|id| {
            let coin = coins[id - 1].pop().expect("one coin dealt per party");
            Box::new(BatchVssVerifyMachine::new(t, all[id - 1].clone(), 16, coin, opts)) as _
        })
        .collect();
    let res = StepRunner::new(n, seed).run(machines);
    PlayerCost::from_report(&res.report)
}

/// Generation vs. refresh cost for the same coin count.
fn gen_vs_refresh(n: usize, t: usize, w: usize, seed: u64) -> (PlayerCost, PlayerCost) {
    let params = Params::p2p_model(n, t).unwrap();
    // Generate W coins.
    let cfg = CoinGenConfig { params, batch_size: w };
    let mut wallets: Vec<CoinWallet<F32>> = TrustedDealer::deal_wallets(params, 4, seed);
    type CgOut = (CoinWallet<F32>, Result<CoinBatch<F32>, CoinGenError>);
    let machines: Vec<BoxedMachine<CoinGenMsg<F32>, CgOut>> = (0..n)
        .map(|_| Box::new(CoinGenMachine::new(cfg, wallets.remove(0))) as _)
        .collect();
    let res = StepRunner::new(n, seed).run(machines);
    let report = res.report.clone();
    for (_, r) in res.unwrap_all() {
        r.unwrap();
    }
    let gen = PlayerCost::from_report(&report);

    // Refresh a wallet of W (+2 for the protocol's own seeds).
    let mut wallets: Vec<CoinWallet<F32>> = TrustedDealer::deal_wallets(params, w + 2, seed + 1);
    let cfg = CoinGenConfig { params, batch_size: 0 };
    type RfOut = (CoinWallet<F32>, Result<RefreshReport, CoinGenError>);
    let machines: Vec<BoxedMachine<CoinGenMsg<F32>, RfOut>> = (0..n)
        .map(|_| Box::new(RefreshMachine::new(cfg, wallets.remove(0))) as _)
        .collect();
    let res = StepRunner::new(n, seed + 2).run(machines);
    let report = res.report.clone();
    for (_, r) in res.unwrap_all() {
        assert_eq!(r.unwrap().coins_refreshed, w);
    }
    let refresh = PlayerCost::from_report(&report);
    (gen, refresh)
}

/// Run E9 and render its table.
pub fn run(ctx: &ExperimentCtx) -> Table {
    let n = 7;
    let t = 2;
    let mut table = Table::new(
        "E9: ablations of implementation choices (DESIGN.md)",
        &["muls", "adds", "bytes", "note"],
    );
    for &m in ctx.sweep(&[16usize, 256], &[16]) {
        let on = batch_cost(n, t, m, true, ctx.seed + m as u64);
        let off = batch_cost(n, t, m, false, ctx.seed + m as u64);
        table.row(
            &format!("batch M={m}, blinding ON"),
            &[
                on.muls.to_string(),
                on.adds.to_string(),
                on.bytes.to_string(),
                "leaks nothing; +1 dealt poly (nk bits)".into(),
            ],
        );
        table.row(
            &format!("batch M={m}, blinding OFF"),
            &[
                off.muls.to_string(),
                off.adds.to_string(),
                off.bytes.to_string(),
                "Fig. 3 verbatim; leaks Σ r^j·s_j".into(),
            ],
        );
    }
    let strict = mode_cost(7, 2, VssMode::Strict, ctx.seed + 31);
    let robust = mode_cost(7, 2, VssMode::Robust, ctx.seed + 31);
    table.row(
        "verdict Strict (Fig. 2/3)",
        &[
            strict.muls.to_string(),
            strict.adds.to_string(),
            strict.bytes.to_string(),
            "rejects on ANY bad broadcast".into(),
        ],
    );
    table.row(
        "verdict Robust (BW, §4 style)",
        &[
            robust.muls.to_string(),
            robust.adds.to_string(),
            robust.bytes.to_string(),
            "tolerates ≤ t bad verifiers".into(),
        ],
    );
    let w = if ctx.quick { 8 } else { 32 };
    let (gen, refresh) = gen_vs_refresh(7, 1, w, ctx.seed + 77);
    table.row(
        &format!("Coin-Gen,  {w} coins"),
        &[
            gen.muls.to_string(),
            gen.adds.to_string(),
            gen.bytes.to_string(),
            "produce W fresh coins".into(),
        ],
    );
    table.row(
        &format!("Refresh,   {w} coins"),
        &[
            refresh.muls.to_string(),
            refresh.adds.to_string(),
            refresh.bytes.to_string(),
            "re-randomize W existing coins".into(),
        ],
    );
    table.row(
        "  => refresh/gen ratio",
        &[
            fmt_f(refresh.muls as f64 / gen.muls as f64),
            fmt_f(refresh.adds as f64 / gen.adds as f64),
            fmt_f(refresh.bytes as f64 / gen.bytes as f64),
            "≈ 1: refresh rides the batch".into(),
        ],
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::common::assert_golden;

    #[test]
    fn e9_blinding_is_cheap() {
        let m = 64;
        let on = batch_cost(7, 2, m, true, 1);
        let off = batch_cost(7, 2, m, false, 1);
        // One extra Horner step and no extra broadcast traffic.
        assert!(on.muls <= off.muls + 4, "{} vs {}", on.muls, off.muls);
        assert_eq!(on.bytes, off.bytes);
    }

    #[test]
    fn e9_refresh_costs_like_generation() {
        let (gen, refresh) = gen_vs_refresh(7, 1, 8, 2);
        let ratio = refresh.bytes as f64 / gen.bytes as f64;
        assert!(
            (0.5..2.0).contains(&ratio),
            "refresh/gen byte ratio {ratio} should be ≈ 1"
        );
    }

    #[test]
    fn e9_renders() {
        let table = run(&ExperimentCtx::new(true));
        let s = table.render();
        assert!(s.contains("blinding"));
        assert!(s.contains("Refresh"));
        assert_golden(&[table]);
    }
}
