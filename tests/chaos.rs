//! Chaos tests: the executor and the protocols under randomized hostile
//! schedules — random traffic, random crashes, random parameters.
#![allow(clippy::int_plus_one)] // thresholds written as the paper states them

use dprbg::core::{CoinBatch, CoinGenConfig, CoinGenMachine, CoinGenMsg, CoinWallet, Params, TrustedDealer};
use dprbg::field::{Field, Gf2k};
use dprbg::sim::{from_fn, BoxedMachine, FaultPlan, MachineExt, RoundView, Step, StepRunner};
use dprbg_rng::rngs::StdRng;
use dprbg_rng::{RngExt, SeedableRng};

type F = Gf2k<32>;

#[test]
fn executor_survives_random_send_and_leave_patterns() {
    // Parties send random unicasts/broadcasts for a random number of
    // rounds, then leave at random times. The run must terminate (no
    // deadlock) with every output delivered.
    for seed in 0..20u64 {
        let n = 6;
        let machines: Vec<BoxedMachine<u32, u64>> = (1..=n)
            .map(|id| {
                let mut rng = StdRng::seed_from_u64(seed * 100 + id as u64);
                let rounds = rng.random_range(0..8);
                let mut done = 0usize;
                let mut received = 0u64;
                Box::new(from_fn(move |view: RoundView<'_, u32>| {
                    received += view.inbox.len() as u64;
                    if done == rounds {
                        return Step::Done(received);
                    }
                    done += 1;
                    let mut out = view.outbox();
                    for _ in 0..rng.random_range(0..4) {
                        let to = rng.random_range(1..=view.n);
                        out.send(to, rng.random::<u32>());
                    }
                    if rng.random_bool(0.3) {
                        out.broadcast(rng.random::<u32>());
                    }
                    Step::Continue(out)
                })) as BoxedMachine<u32, u64>
            })
            .collect();
        let res = StepRunner::new(n, seed).run(machines);
        assert_eq!(res.outputs.iter().filter(|o| o.is_some()).count(), n);
    }
}

#[test]
fn executor_is_deterministic_under_repetition() {
    // Same seed, many repetitions: repeated execution must never change
    // inbox contents or ordering (the determinism contract).
    let run_once = |seed: u64| -> Vec<Vec<u32>> {
        let n = 5;
        let machines: Vec<BoxedMachine<u32, Vec<u32>>> = (1..=n)
            .map(|id| {
                let mut round = 0u32;
                let mut log = Vec::new();
                Box::new(from_fn(move |view: RoundView<'_, u32>| {
                    for r in view.inbox.iter() {
                        log.push(r.from as u32 * 1000 + *r.msg());
                    }
                    if round == 6 {
                        return Step::Done(std::mem::take(&mut log));
                    }
                    // Everyone sends round*id to a rotating target.
                    let mut out = view.outbox();
                    let to = ((id + round as usize) % view.n) + 1;
                    out.send(to, round * id as u32);
                    out.broadcast(round + id as u32);
                    round += 1;
                    Step::Continue(out)
                })) as BoxedMachine<u32, Vec<u32>>
            })
            .collect();
        StepRunner::new(n, seed).run(machines).unwrap_all()
    };
    let baseline = run_once(42);
    for _ in 0..5 {
        assert_eq!(run_once(42), baseline, "repetition must not leak into results");
    }
}

#[test]
fn coin_gen_parameter_sweep_with_random_crash_sets() {
    // Sweep (n, t, M) with random crash-fault subsets of size ≤ t: the
    // honest parties must always agree on dealers and seal full batches.
    let mut rng = StdRng::seed_from_u64(0xC0C0A);
    for trial in 0..10u64 {
        let (n, t) = *[(7usize, 1usize), (13, 2)]
            .get(rng.random_range(0..2usize))
            .unwrap();
        let m = rng.random_range(1..24);
        let f = rng.random_range(0..=t);
        let mut ids: Vec<usize> = (1..=n).collect();
        for i in 0..f {
            let j = rng.random_range(i..n);
            ids.swap(i, j);
        }
        let plan = FaultPlan::explicit(n, ids[..f].to_vec());
        let params = Params::p2p_model(n, t).unwrap();
        let cfg = CoinGenConfig { params, batch_size: m };
        let mut wallets: Vec<CoinWallet<F>> =
            TrustedDealer::deal_wallets::<F>(params, 5 + t, 9000 + trial);
        let all: Vec<CoinWallet<F>> = (0..n).map(|_| wallets.remove(0)).collect();
        let machines = plan.machines::<CoinGenMsg<F>, Option<CoinBatch<F>>>(
            |id| {
                let w = all[id - 1].clone();
                Box::new(CoinGenMachine::new(cfg, w).map(|(_w, res)| res.ok()))
            },
            // Crash immediately.
            |_| Box::new(from_fn(|_view: RoundView<'_, CoinGenMsg<F>>| Step::Done(None))),
        );
        let res = StepRunner::new(n, 9100 + trial).run(machines);
        let batches: Vec<&CoinBatch<F>> = plan
            .honest()
            .map(|id| {
                res.outputs[id - 1]
                    .as_ref()
                    .unwrap_or_else(|| panic!("trial {trial}: party {id} panicked"))
                    .as_ref()
                    .unwrap_or_else(|| panic!("trial {trial}: party {id} failed"))
            })
            .collect();
        let dealers = &batches[0].dealers;
        assert!(
            dealers.len() >= n - 2 * t,
            "trial {trial}: clique too small ({})",
            dealers.len()
        );
        for b in &batches {
            assert_eq!(&b.dealers, dealers, "trial {trial}: dealer disagreement");
            assert_eq!(b.len(), m, "trial {trial}: short batch");
        }
        // Every coin decodes from the honest share sums.
        for h in 0..m {
            let pts: Vec<(F, F)> = plan
                .honest()
                .filter_map(|id| {
                    res.outputs[id - 1].as_ref().unwrap().as_ref().unwrap().shares[h]
                        .sigma
                        .map(|s| (F::element(id as u64), s))
                })
                .collect();
            assert!(pts.len() >= 2 * t + 1, "trial {trial}: too few contributors");
            dprbg::core::decode_coin(&pts, t)
                .unwrap_or_else(|e| panic!("trial {trial}, coin {h}: {e}"));
        }
    }
}

/// A fully randomized Byzantine strategy: every round, send a burst of
/// random—but well-typed—protocol messages of every kind to random
/// recipients. The honest parties must reach agreement for *any* such
/// adversary (this is a fuzz harness over the space of type-correct
/// attacks, complementing the targeted attacks in `adversarial.rs`).
#[test]
fn coin_gen_withstands_randomized_byzantine_strategies() {
    use std::sync::Arc;

    use dprbg::core::{BitGenMsg, CliqueAnnounce, ExposeMsg};
    use dprbg::poly::Poly;
    use dprbg::protocols::{BaMsg, GcMsg};

    fn random_msg(rng: &mut StdRng, n: usize, m: usize) -> CoinGenMsg<F> {
        match rng.random_range(0..7u32) {
            0 => CoinGenMsg::Expose(ExposeMsg(F::random(rng))),
            1 => CoinGenMsg::BitGen(BitGenMsg::Deal {
                alphas: (0..rng.random_range(0..=m + 2)).map(|_| F::random(rng)).collect::<Vec<_>>().into(),
                gamma: F::random(rng),
            }),
            2 => CoinGenMsg::BitGen(BitGenMsg::Betas(
                (0..rng.random_range(0..=n))
                    .map(|_| (rng.random_range(1..=n + 1), F::random(rng)))
                    .collect(),
            )),
            3 => {
                let announce = |rng: &mut StdRng| {
                    Arc::new(CliqueAnnounce {
                        pairs: (1..=rng.random_range(0..=n))
                            .map(|j| (j, Poly::random(rng.random_range(0..4), rng)))
                            .collect(),
                    })
                };
                // Echo/Vote bundles of 0..=n + 1 entries tagged 0..=n + 1:
                // empty bundles, repeated and out-of-range instances.
                let bundle = |rng: &mut StdRng| {
                    (0..rng.random_range(0..=n + 1))
                        .map(|_| (rng.random_range(0..=n + 1), announce(rng)))
                        .collect()
                };
                CoinGenMsg::Gc(match rng.random_range(0..3u32) {
                    0 => GcMsg::Value(announce(rng)),
                    1 => GcMsg::Echo(bundle(rng)),
                    _ => GcMsg::Vote(bundle(rng)),
                })
            }
            4 => CoinGenMsg::Ba(BaMsg::Suggest(rng.random())),
            5 => CoinGenMsg::Ba(BaMsg::King(rng.random())),
            _ => CoinGenMsg::Expose(ExposeMsg(F::zero())),
        }
    }

    for trial in 0..12u64 {
        let n = 7;
        let t = 1;
        let m = 3;
        let mut meta = StdRng::seed_from_u64(7000 + trial);
        let bad = meta.random_range(1..=n);
        let plan = FaultPlan::explicit(n, vec![bad]);
        let params = Params::p2p_model(n, t).unwrap();
        let cfg = CoinGenConfig { params, batch_size: m };
        let mut wallets: Vec<CoinWallet<F>> =
            TrustedDealer::deal_wallets::<F>(params, 6, 7100 + trial);
        let all: Vec<CoinWallet<F>> = (0..n).map(|_| wallets.remove(0)).collect();
        let machines = plan.machines::<CoinGenMsg<F>, Option<CoinBatch<F>>>(
            |id| {
                let w = all[id - 1].clone();
                Box::new(CoinGenMachine::new(cfg, w).map(|(_w, res)| res.ok()))
            },
            |_| {
                // Spray random traffic for a bounded number of rounds.
                let mut rng = StdRng::seed_from_u64(7200 + trial);
                let mut sprayed = 0usize;
                Box::new(
                    from_fn(move |view: RoundView<'_, CoinGenMsg<F>>| {
                        if sprayed == 40 {
                            return Step::Done(None);
                        }
                        sprayed += 1;
                        let mut out = view.outbox();
                        for _ in 0..rng.random_range(0..12) {
                            let to = rng.random_range(1..=view.n);
                            let msg = random_msg(&mut rng, view.n, 3);
                            out.send(to, msg);
                        }
                        Step::Continue(out)
                    })
                    .labelled("fuzz-sprayer"),
                )
            },
        );
        let res = StepRunner::new(n, 7300 + trial).run(machines);
        let batches: Vec<&CoinBatch<F>> = plan
            .honest()
            .map(|id| {
                res.outputs[id - 1]
                    .as_ref()
                    .unwrap_or_else(|| panic!("trial {trial}: party {id} panicked"))
                    .as_ref()
                    .unwrap_or_else(|| panic!("trial {trial}: party {id} failed to seal"))
            })
            .collect();
        let dealers = &batches[0].dealers;
        for b in &batches {
            assert_eq!(&b.dealers, dealers, "trial {trial}: dealer-set split");
            assert_eq!(b.len(), m);
        }
        for h in 0..m {
            let pts: Vec<(F, F)> = plan
                .honest()
                .filter_map(|id| {
                    res.outputs[id - 1].as_ref().unwrap().as_ref().unwrap().shares[h]
                        .sigma
                        .map(|s| (F::element(id as u64), s))
                })
                .collect();
            assert!(pts.len() >= 2 * t + 1, "trial {trial}: contributors");
            dprbg::core::decode_coin(&pts, t)
                .unwrap_or_else(|e| panic!("trial {trial}, coin {h}: {e}"));
        }
    }
}
