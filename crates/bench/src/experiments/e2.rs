//! E2 — Batch-VSS amortization (Lemma 4 / Corollary 1).
//!
//! Paper claims: verifying `M` secrets takes "2Mk log k additions and 2
//! polynomial interpolations per player. There are two rounds of
//! communication, each with n messages … for a total of 2nk bits" —
//! i.e. **the communication does not grow with M at all**, and the
//! amortized computation per secret is `2k log k` additions with `O(1)`
//! communication (Corollary 1).
//!
//! The measured table shows, for growing `M`: constant interpolations
//! (2), constant bytes (2nk), and per-secret multiplications converging
//! to the Horner combination's single multiply.

use dprbg_core::batch_vss::cheating_batch_deal;
use dprbg_core::{
    batch_vss_verify, BitGenMsg, CoinError, Params, TrustedDealer, VssMode, VssVerdict,
};
use dprbg_field::{Field, Gf2k};
use dprbg_metrics::Table;
use dprbg_sim::{BoxedMachine, StepRunner};
use dprbg_rng::rngs::StdRng;
use dprbg_rng::SeedableRng;

use super::common::{fmt_f, ExperimentCtx, PlayerCost, F32};

/// The machine fleet E2 measures: `n` verifiers of one honest batch of
/// `m` sharings, dealt out-of-band (the "Given"). Shared with the
/// traced report path (`--trace`), which drives the same fleet under a
/// span-recording executor.
pub fn fleet_over<F: Field>(
    n: usize,
    t: usize,
    m: usize,
    seed: u64,
) -> Vec<BoxedMachine<BitGenMsg<F>, Result<VssVerdict, CoinError>>> {
    let mut coins = TrustedDealer::deal_wallets::<F>(Params { n, t }, 1, seed);
    let mut rng = StdRng::seed_from_u64(seed + 1);
    // bad_count = 0 → an honest batch.
    let all = cheating_batch_deal::<F, _>(n, t, m, 0, &mut rng);
    (1..=n)
        .map(|id| {
            Box::new(batch_vss_verify(
                t,
                all[id - 1].clone(),
                m,
                coins[id - 1].pop().expect("one coin dealt per party"),
                VssMode::Strict,
            )) as _
        })
        .collect()
}

/// Measure one Batch-VSS verification of `m` (honest) sharings over any
/// field (the k-sweep table runs this across GF(2^k) sizes), on the
/// single-threaded executor.
pub fn measure_over<F: Field>(n: usize, t: usize, m: usize, seed: u64) -> PlayerCost {
    let res = StepRunner::new(n, seed).run(fleet_over::<F>(n, t, m, seed));
    let report = res.report.clone();
    for v in res.unwrap_all() {
        assert_eq!(v.unwrap(), VssVerdict::Accept);
    }
    PlayerCost::from_report(&report)
}

/// Measure one Batch-VSS verification of `m` (honest) sharings (k = 32).
pub fn measure(n: usize, t: usize, m: usize, seed: u64) -> PlayerCost {
    measure_over::<F32>(n, t, m, seed)
}

/// The k-sweep companion: the same verification across field sizes —
/// Lemma 4's `2Mk log k` additions scale with k only through the
/// *bit-cost* of each field operation (the operation **count** is flat),
/// while communication scales exactly linearly in k (`2nk` bits).
pub fn run_k_sweep(ctx: &ExperimentCtx) -> Table {
    let n = 7;
    let t = 2;
    let m = if ctx.quick { 16 } else { 64 };
    let mut table = Table::new(
        &format!("E2b: Batch-VSS of M={m} across field sizes k (Lemma 4's k-dependence)"),
        &["muls", "adds", "bytes", "2nk/8 pred", "adds-equiv (k log k/mul)"],
    );
    let rows: [(&str, PlayerCost, u32); 4] = [
        ("k=8", measure_over::<Gf2k<8>>(n, t, m, ctx.seed + 8), 8),
        ("k=16", measure_over::<Gf2k<16>>(n, t, m, ctx.seed + 16), 16),
        ("k=32", measure_over::<Gf2k<32>>(n, t, m, ctx.seed + 32), 32),
        ("k=64", measure_over::<Gf2k<64>>(n, t, m, ctx.seed + 64), 64),
    ];
    for (label, c, k) in rows {
        table.row(
            label,
            &[
                c.muls.to_string(),
                c.adds.to_string(),
                c.bytes.to_string(),
                (2 * n * (k as usize) / 8).to_string(),
                c.total_adds(k).to_string(),
            ],
        );
    }
    table
}

/// Run E2 and render its table.
pub fn run(ctx: &ExperimentCtx) -> Table {
    let n = 7;
    let t = 2;
    let ms = ctx.sweep(&[1usize, 4, 16, 64, 256, 1024], &[1, 16, 256]);
    let mut table = Table::new(
        "E2: Batch-VSS of M secrets, n=7 t=2 k=32 (Lemma 4 / Corollary 1)",
        &[
            "interp", "muls", "adds", "bytes", "rounds", "muls/secret", "bytes/secret",
        ],
    );
    for &m in ms {
        let c = measure(n, t, m, ctx.seed + m as u64);
        table.row(
            &format!("M={m}"),
            &[
                c.interps.to_string(),
                c.muls.to_string(),
                c.adds.to_string(),
                c.bytes.to_string(),
                c.rounds.to_string(),
                fmt_f(c.muls as f64 / m as f64),
                fmt_f(c.bytes as f64 / m as f64),
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
    fn e2_shapes_hold() {
        let n = 7;
        let t = 2;
        let small = measure(n, t, 1, 1);
        let large = measure(n, t, 256, 2);
        // Corollary 1: communication independent of M.
        assert_eq!(small.bytes, large.bytes);
        assert_eq!(small.messages, large.messages);
        assert_eq!(large.interps, 2, "two interpolations regardless of M");
        // Computation grows ~linearly in M (one Horner multiplication per
        // secret) plus a fixed interpolation overhead, so the per-secret
        // multiplications converge toward 1 from above.
        let per_secret_large = large.muls as f64 / 256.0;
        let per_secret_small = small.muls as f64;
        assert!(
            per_secret_large < per_secret_small / 20.0,
            "amortization: {per_secret_large} vs {per_secret_small}"
        );
        assert!(per_secret_large < 8.0, "muls/secret = {per_secret_large}");
        // But total muls did grow with M (the Horner term is real).
        assert!(large.muls > small.muls + 200);
    }

    #[test]
    fn e2b_op_counts_flat_in_k_bytes_linear() {
        let a = measure_over::<Gf2k<8>>(7, 2, 32, 1);
        let b = measure_over::<Gf2k<64>>(7, 2, 32, 1);
        // Same operation counts at every k…
        assert_eq!(a.muls, b.muls);
        assert_eq!(a.adds, b.adds);
        assert_eq!(a.interps, b.interps);
        // …while the bit volume scales exactly linearly in k.
        assert_eq!(b.bytes, a.bytes * 8);
    }

    #[test]
    fn e2b_renders() {
        let table = run_k_sweep(&ExperimentCtx::new(true));
        assert!(table.render().contains("k=64"));
        assert_golden(&[table]);
    }

    #[test]
    fn e2_renders() {
        let table = run(&ExperimentCtx::new(true));
        assert!(table.render().contains("M=256"));
        assert_golden(&[table]);
    }
}
