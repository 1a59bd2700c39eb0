//! End-to-end Coin-Gen (Fig. 5) across parameter settings: the full
//! pipeline from trusted-dealer seed through sealed batch to exposed,
//! unanimous coin values — as machine fleets on the stepped executor.

use dprbg::core::{expose_all, CoinGenConfig, CoinGenMachine, CoinGenMsg, Params, TrustedDealer};
use dprbg::field::{Field, Gf2k};
use dprbg::sim::{BoxedMachine, MachineExt, StepRunner};

type F = Gf2k<32>;
type M = CoinGenMsg<F>;

/// Run the full pipeline; return each party's exposed coin values.
fn generate_and_expose(n: usize, t: usize, m: usize, seed: u64) -> Vec<Vec<F>> {
    let params = Params::p2p_model(n, t).unwrap();
    let cfg = CoinGenConfig { params, batch_size: m };
    let mut wallets = TrustedDealer::deal_wallets::<F>(params, 4 + t, seed);
    let machines: Vec<BoxedMachine<M, Vec<F>>> = (0..n)
        .map(|_| {
            let machine = CoinGenMachine::new(cfg, wallets.remove(0))
                .then(move |(_w, res)| expose_all(t, res.expect("generation succeeds").shares))
                .map(|vals| vals.expect("expose succeeds"));
            Box::new(machine) as BoxedMachine<M, Vec<F>>
        })
        .collect();
    StepRunner::new(n, seed).run(machines).unwrap_all()
}

#[test]
fn minimal_system_n7_t1() {
    let outs = generate_and_expose(7, 1, 4, 1);
    assert_eq!(outs[0].len(), 4);
    assert!(outs.iter().all(|o| o == &outs[0]), "unanimity");
}

#[test]
fn larger_system_n13_t2() {
    let outs = generate_and_expose(13, 2, 4, 2);
    assert_eq!(outs[0].len(), 4);
    assert!(outs.iter().all(|o| o == &outs[0]), "unanimity");
}

#[test]
fn zero_fault_bound_n4() {
    // The paper's n >= 4 baseline with t = 0.
    let outs = generate_and_expose(4, 0, 3, 3);
    assert!(outs.iter().all(|o| o == &outs[0]));
}

#[test]
fn coins_look_random() {
    // Coins within one batch differ from each other and across seeds
    // (probability of collision ~ 2^-32 per pair).
    let a = generate_and_expose(7, 1, 6, 4);
    let b = generate_and_expose(7, 1, 6, 5);
    let batch = &a[0];
    for i in 0..batch.len() {
        for j in i + 1..batch.len() {
            assert_ne!(batch[i], batch[j], "coins {i} and {j} collide");
        }
    }
    assert_ne!(a[0], b[0], "independent runs must give different coins");
    // Bits are balanced-ish: among 12 coins expect both parities.
    let all: Vec<u64> = a[0].iter().chain(b[0].iter()).map(|v| v.to_u64() & 1).collect();
    assert!(all.contains(&0) && all.contains(&1));
}

#[test]
fn determinism_from_master_seed() {
    let a = generate_and_expose(7, 1, 4, 42);
    let b = generate_and_expose(7, 1, 4, 42);
    assert_eq!(a, b, "the whole simulation is reproducible from the seed");
}

#[test]
fn large_batch_amortizes() {
    // A big batch from the same 5-coin seed: the generator's whole point.
    let outs = generate_and_expose(7, 1, 64, 6);
    assert_eq!(outs[0].len(), 64);
    assert!(outs.iter().all(|o| o == &outs[0]));
}
