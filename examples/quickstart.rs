//! Quickstart: seal a batch of shared coins and reveal them.
//!
//! Seven simulated parties (tolerating one Byzantine fault) receive a
//! small trusted-dealer seed, run one Coin-Gen (the paper's Fig. 5) to
//! stretch it into a batch of fresh sealed coins, and then expose each
//! coin — demonstrating unanimity: every party reconstructs the same
//! random values.
//!
//! Run with: `cargo run --example quickstart`

use dprbg::core::{expose_all, CoinGenConfig, CoinGenMachine, CoinGenMsg, Params, TrustedDealer};
use dprbg::field::{Field, Gf2k};
use dprbg::sim::{BoxedMachine, MachineExt, StepRunner};

type F = Gf2k<32>;
type M = CoinGenMsg<F>;

fn main() {
    let n = 7;
    let t = 1;
    let batch = 8;
    let params = Params::p2p_model(n, t).expect("n >= 6t + 1");
    let cfg = CoinGenConfig { params, batch_size: batch };

    // One-time setup: the trusted dealer seeds each party with a few
    // sealed coins (used only to challenge-and-select inside Coin-Gen).
    let mut wallets = TrustedDealer::deal_wallets::<F>(params, 4, 2026);

    // One sans-IO machine per party: stretch the seed with Coin-Gen,
    // then reveal every sealed coin, one expose round after another. The
    // executor carries the messages.
    let machines: Vec<BoxedMachine<M, Vec<F>>> = (1..=n)
        .map(|id| {
            let machine = CoinGenMachine::new(cfg, wallets.remove(0)).then(move |(_w, res)| {
                let coins = res.expect("coin generation succeeds");
                if id == 1 {
                    println!(
                        "party 1: sealed {} coins from dealer set {:?} in {} attempt(s)",
                        coins.shares.len(),
                        coins.dealers,
                        coins.attempts
                    );
                }
                expose_all(t, coins.shares).map(|res| res.expect("expose succeeds"))
            });
            Box::new(machine) as BoxedMachine<M, Vec<F>>
        })
        .collect();

    let outputs = StepRunner::new(n, 7).run(machines).unwrap_all();

    println!("\ncoin values as seen by party 1:");
    for (h, v) in outputs[0].iter().enumerate() {
        println!("  coin {h}: {v}   (low bit: {})", v.to_u64() & 1);
    }
    assert!(
        outputs.iter().all(|o| o == &outputs[0]),
        "unanimity: every party must see identical coins"
    );
    println!("\nall {n} parties agree on all {batch} coins ✓");
}
