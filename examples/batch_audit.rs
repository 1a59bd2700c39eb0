//! Batch-VSS audit: verify a thousand sharings for the price of one.
//!
//! The paper's §3 scenario (broadcast-channel model, n ≥ 3t + 1): an
//! escrow dealer has distributed Shamir shares of M = 1024 secrets; the
//! players want assurance that *every* sharing is a valid degree-≤t
//! polynomial — without opening any of them. Naively that is M
//! verifications; Protocol Batch-VSS (Fig. 3) does it with **one random
//! challenge, one broadcast per player, and one interpolation** —
//! Corollary 1's "amortized communication O(1)" per secret.
//!
//! The example audits an honest dealer, then re-runs the audit against a
//! dealer that corrupted a single polynomial out of the 1024 — and shows
//! the whole batch being rejected, with the measured cost identical.
//!
//! Run with: `cargo run --example batch_audit`

use dprbg::core::batch_vss::cheating_batch_deal;
use dprbg::core::{
    batch_vss, batch_vss_verify, BitGenMsg, CoinError, Params, TrustedDealer, VssMode,
    VssVerdict,
};
use dprbg::field::{Field, Gf2k};
use dprbg::metrics::CostSnapshot;
use dprbg::sim::{BoxedMachine, MachineExt, StepRunner};
use dprbg_rng::rngs::StdRng;
use dprbg_rng::SeedableRng;

type F = Gf2k<32>;
type M = BitGenMsg<F>;
type Out = Result<VssVerdict, CoinError>;

const BATCH: usize = 1024;

fn audit(n: usize, t: usize, corrupt_one: bool, seed: u64) -> (VssVerdict, CostSnapshot) {
    let params = Params::broadcast_model(n, t).expect("n >= 3t + 1");
    // One challenge coin, dealt out-of-band (in a deployment it comes
    // from the bootstrapped reservoir).
    let mut coins = TrustedDealer::deal_wallets::<F>(params, 1, seed + 1);
    let mode = VssMode::Strict;

    // A cheating dealer prepares its (single-corruption) batch offline.
    let mut rng = StdRng::seed_from_u64(seed + 2);
    let bad = corrupt_one.then(|| cheating_batch_deal::<F, _>(n, t, BATCH, 1, &mut rng));

    let machines: Vec<BoxedMachine<M, Out>> = (1..=n)
        .map(|id| {
            let coin = coins[id - 1].pop().expect("one coin dealt per party");
            match &bad {
                // The cheater dealt out-of-band; go straight to the audit.
                Some(b) => {
                    let shares = b[id - 1].clone();
                    Box::new(batch_vss_verify(params.t, shares, BATCH, coin, mode))
                        as BoxedMachine<M, Out>
                }
                None => {
                    let secrets: Option<Vec<F>> =
                        (id == 1).then(|| (0..BATCH as u64).map(F::from_u64).collect());
                    let machine = batch_vss(1, secrets, params.t, BATCH, coin, mode)
                        .map(|res| res.map(|(verdict, _shares)| verdict));
                    Box::new(machine) as BoxedMachine<M, Out>
                }
            }
        })
        .collect();
    let res = StepRunner::new(n, seed).run(machines);
    let verdict = res.outputs[1]
        .as_ref()
        .expect("party 2 runs to completion")
        .as_ref()
        .copied()
        .expect("challenge coin exposes");
    // Verification-phase cost of one (non-dealer) player.
    let cost = res.report.per_party[1].cost;
    (verdict, cost)
}

fn main() {
    let n = 7;
    let t = 2;

    let (v_ok, cost_ok) = audit(n, t, false, 1000);
    println!("honest dealer, M = {BATCH}: verdict = {v_ok:?}");
    println!(
        "  player cost: {} interpolations, {} muls, {} adds",
        cost_ok.interpolations, cost_ok.field_muls, cost_ok.field_adds
    );

    let (v_bad, cost_bad) = audit(n, t, true, 2000);
    println!("\ndealer corrupting 1 of {BATCH} sharings: verdict = {v_bad:?}");
    println!(
        "  player cost: {} interpolations, {} muls, {} adds",
        cost_bad.interpolations, cost_bad.field_muls, cost_bad.field_adds
    );

    assert_eq!(v_ok, VssVerdict::Accept);
    assert_eq!(v_bad, VssVerdict::Reject);
    println!(
        "\nbatch of {BATCH} audited with {} interpolations per player ✓ \
         (naive per-secret auditing: {BATCH})",
        cost_ok.interpolations
    );
}
