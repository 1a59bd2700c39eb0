//! Field-genericity: every protocol runs unchanged over a prime field.
//!
//! The paper works over "a finite field whose size will be denoted by p
//! (which is not necessarily a prime)" (§2) — but nothing in the
//! protocols depends on characteristic 2. This test instantiates the
//! whole Coin-Gen pipeline over the Sophie Germain prime field
//! `Z_q` (≈ 2^61) instead of GF(2^32).

use dprbg::core::{
    expose_all, CoinGenConfig, CoinGenMachine, CoinGenMsg, Params, SealedShare, TrustedDealer,
};
use dprbg::field::{Field, Fp, SAFE_PRIME_Q};
use dprbg::sim::{BoxedMachine, MachineExt, StepRunner};

type F = Fp<SAFE_PRIME_Q>;
type M = CoinGenMsg<F>;

#[test]
fn coin_gen_over_a_prime_field() {
    let n = 7;
    let t = 1;
    let params = Params::p2p_model(n, t).unwrap();
    let cfg = CoinGenConfig { params, batch_size: 4 };
    let mut wallets = TrustedDealer::deal_wallets::<F>(params, 4, 61);
    let machines: Vec<BoxedMachine<M, Vec<F>>> = (0..n)
        .map(|_| {
            let machine = CoinGenMachine::new(cfg, wallets.remove(0))
                .then(move |(_w, res)| expose_all(t, res.expect("works over Z_q").shares))
                .map(|vals| vals.expect("expose succeeds over Z_q"));
            Box::new(machine) as BoxedMachine<M, Vec<F>>
        })
        .collect();
    let outs = StepRunner::new(n, 62).run(machines).unwrap_all();
    assert_eq!(outs[0].len(), 4);
    assert!(outs.iter().all(|o| o == &outs[0]), "unanimity over Z_q");
    // Values live in the right field.
    assert!(outs[0].iter().all(|v| (v.to_u64() as u128) < F::order()));
}

#[test]
fn vss_over_a_prime_field() {
    use dprbg::core::{vss, BitGenMsg, VssMode, VssVerdict};
    use dprbg::poly::{share_points, share_polynomial};
    use dprbg_rng::rngs::StdRng;
    use dprbg_rng::SeedableRng;

    let n = 7;
    let t = 2;
    let mut rng = StdRng::seed_from_u64(63);
    let coin_poly = share_polynomial(F::random(&mut rng), t, &mut rng);
    let coins: Vec<SealedShare<F>> = share_points(&coin_poly, n)
        .into_iter()
        .map(|s| SealedShare::of(s.y))
        .collect();
    let machines: Vec<BoxedMachine<BitGenMsg<F>, Option<VssVerdict>>> = (1..=n)
        .map(|id| {
            let coin = coins[id - 1];
            let secret = (id == 1).then(|| F::from_u64(0x5EC));
            let machine = vss(1, secret, t, coin, VssMode::Strict)
                .map(|res| res.ok().map(|(v, _)| v));
            Box::new(machine) as BoxedMachine<BitGenMsg<F>, Option<VssVerdict>>
        })
        .collect();
    for out in StepRunner::new(n, 64).run(machines).unwrap_all() {
        assert_eq!(out, Some(VssVerdict::Accept));
    }
}
