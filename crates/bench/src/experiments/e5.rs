//! E5 — The §1.4 comparison: D-PRBG vs from-scratch coins vs Rabin's
//! dealer.
//!
//! Paper claims: "Our main result is the construction of a D-PRBG in
//! which this amortized cost (computation and communication) is
//! significantly lower than the cost of any 'from-scratch' shared coin
//! generation protocol", while Rabin's trusted dealer is cheap but
//! "requires the dealer to continuously provide" coins (a standing trust
//! assumption rather than a protocol cost).
//!
//! Measured here, per delivered coin (generation + expose):
//! - **D-PRBG**: one Coin-Gen batch of M coins plus M exposes, divided
//!   by M;
//! - **from-scratch**: one [`dprbg_baselines::from_scratch_coin`] run
//!   (t + 1 cut-and-choose VSSs at matched soundness + expose);
//! - **Rabin dealer**: the expose only (the dealing is the trusted
//!   party's burden — reported as "trusted-dealer deals/coin = 1").

use dprbg_baselines::{from_scratch_coin, FromScratchMsg};
use dprbg_core::{
    expose_all, CoinError, CoinGenConfig, CoinGenMachine, CoinGenMsg, CoinWallet, ExposeMachine,
    ExposeMsg, ExposeVia, Params, TrustedDealer,
};
use dprbg_metrics::Table;
use dprbg_sim::{BoxedMachine, MachineExt, StepRunner};

use super::common::{fmt_f, ExperimentCtx, PlayerCost, F32};

/// D-PRBG cost per delivered coin: generate a batch of `m`, expose all —
/// on the single-threaded executor.
fn dprbg_per_coin(n: usize, t: usize, m: usize, seed: u64) -> PlayerCost {
    let params = Params::p2p_model(n, t).unwrap();
    let cfg = CoinGenConfig { params, batch_size: m };
    let mut wallets: Vec<CoinWallet<F32>> = TrustedDealer::deal_wallets(params, 4 + t, seed);
    type Out = Result<Vec<F32>, CoinError>;
    let machines: Vec<BoxedMachine<CoinGenMsg<F32>, Out>> = (0..n)
        .map(|_| {
            let machine = CoinGenMachine::new(cfg, wallets.remove(0)).then(
                move |(_wallet, res): (CoinWallet<F32>, _)| {
                    let batch = res.expect("generation succeeds");
                    expose_all(t, batch.shares)
                },
            );
            Box::new(machine) as _
        })
        .collect();
    let res = StepRunner::new(n, seed).run(machines);
    for out in &res.outputs {
        assert!(out.as_ref().expect("machine ran").is_ok(), "every expose decodes");
    }
    let mut c = PlayerCost::from_report(&res.report);
    // Per-coin figures.
    c.adds /= m as u64;
    c.muls /= m as u64;
    c.invs /= m as u64;
    c.interps /= m as u64;
    c.messages /= m as u64;
    c.bytes /= m as u64;
    c.rounds /= m as u64;
    c
}

/// From-scratch cost per coin at matched soundness (32 challenge rounds).
fn from_scratch_per_coin(n: usize, t: usize, seed: u64) -> PlayerCost {
    let machines: Vec<BoxedMachine<FromScratchMsg<F32>, Option<F32>>> = (1..=n)
        .map(|id| Box::new(from_scratch_coin::<F32>(id, t, 32, seed)) as _)
        .collect();
    let res = StepRunner::new(n, seed).run(machines);
    let report = res.report.clone();
    assert!(res.unwrap_all()[0].is_some());
    PlayerCost::from_report(&report)
}

/// Rabin-dealer cost per coin: the parties only expose (the dealing is
/// the trusted party's) — on the single-threaded executor.
fn rabin_per_coin(n: usize, t: usize, seed: u64) -> PlayerCost {
    let coins = TrustedDealer::deal_wallets::<F32>(Params { n, t }, 1, seed);
    let machines: Vec<BoxedMachine<ExposeMsg<F32>, Result<F32, CoinError>>> = coins
        .into_iter()
        .map(|mut coin| {
            let coin = coin.pop().expect("one coin dealt per party");
            Box::new(ExposeMachine::new(coin, t, ExposeVia::PointToPoint)) as _
        })
        .collect();
    let res = StepRunner::new(n, seed).run(machines);
    let report = res.report.clone();
    for out in res.unwrap_all() {
        out.expect("expose succeeds");
    }
    PlayerCost::from_report(&report)
}

/// Run E5 and render its table.
pub fn run(ctx: &ExperimentCtx) -> Table {
    let m = if ctx.quick { 64 } else { 256 };
    let mut table = Table::new(
        &format!("E5: cost per delivered coin, k=32, D-PRBG batch M={m} (§1.4 comparison)"),
        &[
            "interp/coin", "muls/coin", "adds/coin", "bytes/coin", "trust",
        ],
    );
    for &(n, t) in ctx.sweep(&[(7usize, 1usize), (13, 2)], &[(7, 1)]) {
        let d = dprbg_per_coin(n, t, m, ctx.seed + n as u64);
        table.row(
            &format!("D-PRBG        n={n:<2}"),
            &[
                d.interps.to_string(),
                d.muls.to_string(),
                d.adds.to_string(),
                d.bytes.to_string(),
                "one-shot dealer".into(),
            ],
        );
        let f = from_scratch_per_coin(n, t, ctx.seed + 50 + n as u64);
        table.row(
            &format!("from-scratch  n={n:<2}"),
            &[
                f.interps.to_string(),
                f.muls.to_string(),
                f.adds.to_string(),
                f.bytes.to_string(),
                "none".into(),
            ],
        );
        let r = rabin_per_coin(n, t, ctx.seed + 90 + n as u64);
        table.row(
            &format!("Rabin[17]     n={n:<2}"),
            &[
                r.interps.to_string(),
                r.muls.to_string(),
                r.adds.to_string(),
                r.bytes.to_string(),
                "continuous dealer".into(),
            ],
        );
        let factor = f.bytes as f64 / d.bytes.max(1) as f64;
        table.row(
            &format!("  => factor   n={n:<2}"),
            &[
                format!("{}x", f.interps / d.interps.max(1)),
                fmt_f(f.muls as f64 / d.muls.max(1) as f64),
                fmt_f(f.adds as f64 / d.adds.max(1) as f64),
                fmt_f(factor),
                "-".into(),
            ],
        );
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::common::assert_golden;

    #[test]
    fn e5_dprbg_beats_from_scratch() {
        let n = 7;
        let t = 1;
        let d = dprbg_per_coin(n, t, 64, 1);
        let f = from_scratch_per_coin(n, t, 2);
        // Who wins: the D-PRBG, on every axis the paper claims.
        assert!(d.interps < f.interps, "interpolations {} vs {}", d.interps, f.interps);
        assert!(d.bytes < f.bytes, "bytes {} vs {}", d.bytes, f.bytes);
        // By roughly what factor: interpolations by ~k·(t+1)/2 (paper:
        // one interpolation amortized vs k per VSS), at least 5x here.
        assert!(f.interps >= d.interps * 5);
    }

    #[test]
    fn e5_renders() {
        let table = run(&ExperimentCtx::new(true));
        let s = table.render();
        assert!(s.contains("D-PRBG"));
        assert!(s.contains("from-scratch"));
        assert!(s.contains("Rabin"));
        assert_golden(&[table]);
    }
}
