//! E1 — Single-secret VSS: the paper's protocol vs its comparators.
//!
//! Paper claims (Lemma 2 and §3.1):
//! - **This paper's VSS**: "2 polynomial interpolations per player … 2
//!   rounds of communication … the number of messages in each round is n,
//!   each of size k, for a total of 2nk bits", soundness error ≤ 1/p.
//! - **CCD cut-and-choose**: "k polynomial interpolations are computed in
//!   order to achieve a probability of error less than ½^k".
//! - **Feldman**: "both the dealer and the players have to carry out t
//!   exponentiations (i.e., t·log p multiplications)".
//!
//! All three run at matched soundness (error ≈ 2⁻³²: our field is
//! GF(2³²), CCD gets 32 challenge rounds, Feldman's is computational).
//! The dealing round is excluded from our VSS's numbers exactly as in
//! Lemma 2 (shares are a "Given"); CCD and Feldman verify *during*
//! dealing, so their dealing traffic is included — noted in
//! EXPERIMENTS.md. Fig. 2 runs as Fig. 3 at `M = 1`, so each player
//! reveals `γ + r·α` and the "ours" rows count E2's `M = 1` additions.

use dprbg_baselines::feldman::{Exp, FeldmanVerdict};
use dprbg_baselines::{CcdMachine, CcdMsg, CcdOpts, FeldmanMachine, FeldmanMsg};
use dprbg_core::{
    batch_vss_verify, BatchShares, BitGenMsg, CoinError, Params, TrustedDealer, VssMode,
    VssVerdict,
};
use dprbg_field::Field;
use dprbg_metrics::Table;
use dprbg_poly::Poly;
use dprbg_sim::{BoxedMachine, StepRunner};
use dprbg_rng::rngs::StdRng;
use dprbg_rng::SeedableRng;

use super::common::{ExperimentCtx, PlayerCost, F32};

/// Measure this paper's VSS verification for one `(n, t)`. All three
/// protocols here — ours and both comparators — are sans-IO machine
/// fleets on the same single-threaded executor, so every column comes
/// out of one cost-accounting pipeline.
fn ours(n: usize, t: usize, seed: u64) -> PlayerCost {
    let mut coins = TrustedDealer::deal_wallets::<F32>(Params { n, t }, 1, seed);
    let mut rng = StdRng::seed_from_u64(seed + 1);
    let f = Poly::<F32>::random(t, &mut rng);
    let g = Poly::<F32>::random(t, &mut rng);
    let machines: Vec<BoxedMachine<BitGenMsg<F32>, Result<VssVerdict, CoinError>>> = (1..=n)
        .map(|id| {
            let shares = BatchShares {
                alphas: [f.eval(F32::element(id as u64))].into(),
                gamma: g.eval(F32::element(id as u64)),
            };
            let coin = coins[id - 1].pop().expect("one coin dealt per party");
            // Fig. 2 is Fig. 3 at M = 1.
            Box::new(batch_vss_verify(t, shares, 1, coin, VssMode::Strict)) as _
        })
        .collect();
    let res = StepRunner::new(n, seed).run(machines);
    let report = res.report.clone();
    assert!(res
        .unwrap_all()
        .iter()
        .all(|v| matches!(v, Ok(VssVerdict::Accept))));
    PlayerCost::from_report(&report)
}

/// Measure CCD cut-and-choose at `k_sec` challenge rounds.
fn ccd(n: usize, t: usize, k_sec: usize, seed: u64) -> PlayerCost {
    let opts = CcdOpts { rounds: k_sec, challenge_seed: seed };
    let machines: Vec<BoxedMachine<CcdMsg<F32>, (VssVerdict, F32)>> = (1..=n)
        .map(|id| {
            let secret = (id == 1).then(|| F32::from_u64(7));
            Box::new(CcdMachine::new(1, secret, t, opts)) as _
        })
        .collect();
    let res = StepRunner::new(n, seed).run(machines);
    PlayerCost::from_report(&res.report)
}

/// Measure Feldman VSS (t + 1 exponentiations per player).
fn feldman(n: usize, t: usize, seed: u64) -> PlayerCost {
    let machines: Vec<BoxedMachine<FeldmanMsg, (FeldmanVerdict, Exp)>> = (1..=n)
        .map(|id| {
            let secret = (id == 1).then(|| Exp::from_u64(5));
            Box::new(FeldmanMachine::new(1, secret, t)) as _
        })
        .collect();
    let res = StepRunner::new(n, seed).run(machines);
    PlayerCost::from_report(&res.report)
}

/// Run E1 and render its table.
pub fn run(ctx: &ExperimentCtx) -> Table {
    let ns = ctx.sweep(&[4usize, 7, 10, 16, 31], &[4, 7]);
    let k_sec = 32; // matched soundness: 1/2^32 everywhere
    let mut table = Table::new(
        "E1: single VSS at matched soundness 2^-32 (per-player worst case; Lemma 2 vs §3.1)",
        &[
            "interp", "muls", "adds", "msgs", "bytes", "rounds",
        ],
    );
    for &n in ns {
        let t = Params::max_t_broadcast(n);
        let o = ours(n, t, ctx.seed + n as u64);
        table.row(
            &format!("ours      n={n:<2} t={t}"),
            &[
                o.interps.to_string(),
                o.muls.to_string(),
                o.adds.to_string(),
                o.messages.to_string(),
                o.bytes.to_string(),
                o.rounds.to_string(),
            ],
        );
        let c = ccd(n, t, k_sec, ctx.seed + 100 + n as u64);
        table.row(
            &format!("CCD[9]    n={n:<2} t={t}"),
            &[
                c.interps.to_string(),
                c.muls.to_string(),
                c.adds.to_string(),
                c.messages.to_string(),
                c.bytes.to_string(),
                c.rounds.to_string(),
            ],
        );
        let f = feldman(n, t, ctx.seed + 200 + n as u64);
        table.row(
            &format!("Feldman[12] n={n:<2} t={t}"),
            &[
                f.interps.to_string(),
                f.muls.to_string(),
                f.adds.to_string(),
                f.messages.to_string(),
                f.bytes.to_string(),
                f.rounds.to_string(),
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
    fn e1_shapes_hold() {
        let ctx = ExperimentCtx::new(true);
        let n = 7;
        let t = 2;
        let o = ours(n, t, 1);
        assert_eq!(o.interps, 2, "Lemma 2: two interpolations");
        assert_eq!(o.rounds, 2, "Lemma 2: two rounds");
        assert_eq!(o.messages as usize, 2 * n, "Lemma 2: 2n messages");
        assert_eq!(o.bytes as usize, 2 * n * 4, "Lemma 2: 2nk bits");
        let c = ccd(n, t, 32, 2);
        assert_eq!(c.interps, 32, "CCD: k interpolations");
        assert!(c.bytes > o.bytes * 10, "CCD moves much more data");
        let f = feldman(n, t, 3);
        // Feldman needs no interpolation but pays (t+1)·log p
        // multiplications in exponentiations; our multiplication total is
        // dominated by the two interpolations' internals (which the paper
        // counts as unit steps).
        assert_eq!(f.interps, 0);
        assert!(
            f.muls > (t as u64 + 1) * 62,
            "Feldman muls {} must reflect (t+1)·log p",
            f.muls
        );
        let _ = ctx;
    }

    #[test]
    fn e1_renders() {
        let table = run(&ExperimentCtx::new(true));
        let s = table.render();
        assert!(s.contains("ours"));
        assert!(s.contains("CCD"));
        assert!(s.contains("Feldman"));
        assert_golden(&[table]);
    }
}
