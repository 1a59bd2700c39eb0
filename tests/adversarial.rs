//! Adversarial integration tests: every protocol driven with explicit
//! Byzantine strategies at the model's fault bound.

use dprbg::core::{
    expose_all, BitGenMachine, BitGenMode, BitGenMsg, CoinBatch, CoinGenConfig, CoinGenMachine,
    CoinGenMsg, CoinWallet, ExposeMsg, Params, TrustedDealer,
};
use dprbg::field::{Field, Gf2k};
use dprbg::protocols::BaMsg;
use dprbg::sim::{
    from_fn, BoxedMachine, FaultPlan, MachineExt, RoundView, Step, StepRunner,
};

type F = Gf2k<32>;
type M = CoinGenMsg<F>;

fn setup(n: usize, t: usize, m: usize, coins: usize, seed: u64) -> (CoinGenConfig, Vec<CoinWallet<F>>) {
    let params = Params::p2p_model(n, t).unwrap();
    (
        CoinGenConfig { params, batch_size: m },
        TrustedDealer::deal_wallets::<F>(params, coins, seed),
    )
}

fn honest(cfg: CoinGenConfig, wallet: CoinWallet<F>) -> BoxedMachine<M, Option<CoinBatch<F>>> {
    Box::new(CoinGenMachine::new(cfg, wallet).map(|(_w, res)| res.ok()))
}

/// All honest batches must agree on dealers and decode consistently.
fn assert_honest_agreement(
    res: &dprbg::sim::RunResult<Option<CoinBatch<F>>>,
    plan: &FaultPlan,
    t: usize,
    m: usize,
) {
    let batches: Vec<&CoinBatch<F>> = plan
        .honest()
        .map(|id| {
            res.outputs[id - 1]
                .as_ref()
                .unwrap_or_else(|| panic!("party {id} panicked"))
                .as_ref()
                .unwrap_or_else(|| panic!("party {id} failed to seal"))
        })
        .collect();
    let dealers = &batches[0].dealers;
    assert!(dealers.len() >= plan.n() - 2 * t);
    for b in &batches {
        assert_eq!(&b.dealers, dealers, "dealer-set agreement");
        assert_eq!(b.len(), m);
    }
    // Each coin decodes from the honest contributions.
    for h in 0..m {
        let pts: Vec<(F, F)> = plan
            .honest()
            .filter_map(|id| {
                res.outputs[id - 1].as_ref().unwrap().as_ref().unwrap().shares[h]
                    .sigma
                    .map(|s| (F::element(id as u64), s))
            })
            .collect();
        assert!(pts.len() > 2 * t, "enough honest contributors");
        dprbg::core::decode_coin(&pts, t).expect("coin decodes");
    }
}

#[test]
fn equivocating_dealer_excluded_or_consistent() {
    // The faulty dealer sends *different* polynomial shares to different
    // parties (a classic split attack on the agreement graph).
    let n = 7;
    let t = 1;
    let m = 3;
    let (cfg, mut wallets) = setup(n, t, m, 6, 11);
    let plan = FaultPlan::explicit(n, vec![4]);
    let mut honest_wallets: Vec<CoinWallet<F>> = Vec::new();
    for id in 1..=n {
        let w = wallets.remove(0);
        if !plan.is_faulty(id) {
            honest_wallets.push(w);
        }
    }
    let machines = plan.machines::<M, Option<CoinBatch<F>>>(
        |_| honest(cfg, honest_wallets.remove(0)),
        |_| {
            let mut round = 0usize;
            Box::new(
                from_fn(move |view: RoundView<'_, M>| {
                    round += 1;
                    match round {
                        1 => {
                            // Split dealing: parties 1..=3 get shares of one
                            // random polynomial set, 4..=n of another.
                            let mk = |rng: &mut dprbg_rng::rngs::StdRng| {
                                (0..3)
                                    .map(|_| dprbg::poly::Poly::<F>::random(1, rng))
                                    .collect::<Vec<_>>()
                            };
                            let set_a = mk(view.rng);
                            let set_b = mk(view.rng);
                            let blind = dprbg::poly::Poly::<F>::random(1, view.rng);
                            let mut out = view.outbox();
                            for i in 1..=view.n {
                                let x = F::element(i as u64);
                                let polys = if i <= 3 { &set_a } else { &set_b };
                                out.send(
                                    i,
                                    CoinGenMsg::BitGen(BitGenMsg::Deal {
                                        alphas: polys.iter().map(|f| f.eval(x)).collect::<Vec<_>>().into(),
                                        gamma: blind.eval(x),
                                    }),
                                );
                            }
                            Step::Continue(out)
                        }
                        // Linger silently through the expose, then go quiet.
                        2 => Step::Continue(view.outbox()),
                        _ => Step::Done(None),
                    }
                })
                .labelled("equivocating-dealer"),
            )
        },
    );
    let res = StepRunner::new(n, 12).run(machines);
    assert_honest_agreement(&res, &plan, t, m);
}

#[test]
fn byzantine_ba_voter_cannot_split_decision() {
    // The faulty party behaves through Bit-Gen, then lies in grade-cast
    // confidence and splits its BA votes.
    let n = 7;
    let t = 1;
    let m = 2;
    let (cfg, mut wallets) = setup(n, t, m, 6, 21);
    let plan = FaultPlan::explicit(n, vec![6]);
    let mut honest_wallets: Vec<CoinWallet<F>> = Vec::new();
    let mut faulty_wallet = CoinWallet::new();
    for id in 1..=n {
        let w = wallets.remove(0);
        if plan.is_faulty(id) {
            faulty_wallet = w;
        } else {
            honest_wallets.push(w);
        }
    }
    let machines = plan.machines::<M, Option<CoinBatch<F>>>(
        |_| honest(cfg, honest_wallets.remove(0)),
        |_| {
            // Honest Bit-Gen participation, then the vote-splitting script.
            let mut w = faulty_wallet.clone();
            let coin = w.pop().expect("faulty wallet seeded");
            let dealers: Vec<usize> = (1..=n).collect();
            let machine = BitGenMachine::new(t, m, coin, dealers, BitGenMode::RandomCoins).then(
                move |_res| {
                    let mut round = 0usize;
                    from_fn(move |view: RoundView<'_, M>| {
                        round += 1;
                        match round {
                            // Skip grade-cast (3 rounds of silence).
                            1..=3 => Step::Continue(view.outbox()),
                            // Leader expose: send a corrupt share.
                            4 => {
                                let mut out = view.outbox();
                                out.send_to_all(CoinGenMsg::Expose(ExposeMsg(F::from_u64(999))));
                                Step::Continue(out)
                            }
                            // BA: split votes each round.
                            5..=8 => {
                                let r = round - 5;
                                let mut out = view.outbox();
                                for to in 1..=view.n {
                                    let bit = (to + r) % 2 == 0;
                                    let msg = if r % 2 == 0 {
                                        BaMsg::Suggest(bit)
                                    } else {
                                        BaMsg::King(bit)
                                    };
                                    out.send(to, CoinGenMsg::Ba(msg));
                                }
                                Step::Continue(out)
                            }
                            _ => Step::Done(None),
                        }
                    })
                    .labelled("vote-splitter")
                },
            );
            Box::new(machine)
        },
    );
    let res = StepRunner::new(n, 22).run(machines);
    assert_honest_agreement(&res, &plan, t, m);
}

#[test]
fn faulty_leader_forces_reiteration_lemma8() {
    // Lemma 8: the BA loop repeats only when the selected leader P_l is
    // faulty; the expected number of iterations is constant. Scan seeds
    // until a run needs ≥ 2 attempts, and verify it still succeeds.
    let n = 7;
    let t = 1;
    let m = 2;
    let mut saw_retry = false;
    for seed in 0..40u64 {
        let (cfg, mut wallets) = setup(n, t, m, 8, 1000 + seed);
        let plan = FaultPlan::explicit(n, vec![3]);
        let mut honest_wallets: Vec<CoinWallet<F>> = Vec::new();
        for id in 1..=n {
            let w = wallets.remove(0);
            if !plan.is_faulty(id) {
                honest_wallets.push(w);
            }
        }
        let machines = plan.machines::<M, Option<CoinBatch<F>>>(
            |_| honest(cfg, honest_wallets.remove(0)),
            // The faulty party is completely silent: if the leader coin
            // picks it, conf_l = 0 and the BA round fails → re-iterate.
            |_| Box::new(from_fn(|_view: RoundView<'_, M>| Step::Done(None)).labelled("crashed")),
        );
        let res = StepRunner::new(n, 2000 + seed).run(machines);
        assert_honest_agreement(&res, &plan, t, m);
        let attempts = res.outputs[0].as_ref().unwrap().as_ref().unwrap().attempts;
        if attempts >= 2 {
            saw_retry = true;
            break;
        }
    }
    assert!(
        saw_retry,
        "within 40 seeds some run must select the faulty leader first (p = 1/7 each)"
    );
}

#[test]
fn two_faults_in_thirteen_party_system() {
    let n = 13;
    let t = 2;
    let m = 3;
    let (cfg, mut wallets) = setup(n, t, m, 8, 31);
    let plan = FaultPlan::explicit(n, vec![2, 9]);
    let mut honest_wallets: Vec<CoinWallet<F>> = Vec::new();
    for id in 1..=n {
        let w = wallets.remove(0);
        if !plan.is_faulty(id) {
            honest_wallets.push(w);
        }
    }
    let machines = plan.machines::<M, Option<CoinBatch<F>>>(
        |_| honest(cfg, honest_wallets.remove(0)),
        |id| {
            // One fault crashes, the other deals garbage then crashes.
            if id != 9 {
                return Box::new(
                    from_fn(|_view: RoundView<'_, M>| Step::Done(None)).labelled("crashed"),
                );
            }
            let mut sent = false;
            Box::new(
                from_fn(move |view: RoundView<'_, M>| {
                    if !sent {
                        sent = true;
                        let mut out = view.outbox();
                        for i in 1..=view.n {
                            out.send(
                                i,
                                CoinGenMsg::BitGen(BitGenMsg::Deal {
                                    alphas: vec![F::from_u64(i as u64); 3].into(),
                                    gamma: F::one(),
                                }),
                            );
                        }
                        Step::Continue(out)
                    } else {
                        Step::Done(None)
                    }
                })
                .labelled("garbage-dealer"),
            )
        },
    );
    let res = StepRunner::new(n, 32).run(machines);
    assert_honest_agreement(&res, &plan, t, m);
}

#[test]
fn exposed_coins_survive_corrupt_shares() {
    // After an honest generation, expose every coin with the adversary
    // contributing corrupted sums: values must still be unanimous.
    let n = 7;
    let t = 1;
    let m = 4;
    let (cfg, mut wallets) = setup(n, t, m, 6, 41);
    let plan = FaultPlan::explicit(n, vec![5]);
    let all_wallets: Vec<CoinWallet<F>> = (1..=n).map(|_| wallets.remove(0)).collect();

    let machines = plan.machines::<M, Option<Vec<F>>>(
        |id| {
            let w = all_wallets[id - 1].clone();
            let machine = CoinGenMachine::new(cfg, w).then(
                move |(_w, res)| -> BoxedMachine<M, Option<Vec<F>>> {
                    match res {
                        Ok(batch) => Box::new(expose_all(1, batch.shares).map(|vals| {
                            Some(vals.expect("expose succeeds"))
                        })),
                        Err(_) => Box::new(from_fn(|_| Step::Done(None))),
                    }
                },
            );
            Box::new(machine)
        },
        |id| {
            // Run the generation honestly… then corrupt every expose
            // contribution, one per round, matching the honest cadence.
            let w = all_wallets[id - 1].clone();
            let machine = CoinGenMachine::new(cfg, w).then(
                move |(_w, res)| -> BoxedMachine<M, Option<Vec<F>>> {
                    let left = res.map(|b| b.len()).unwrap_or(0);
                    let mut left = left;
                    Box::new(
                        from_fn(move |view: RoundView<'_, M>| {
                            if left > 0 {
                                left -= 1;
                                let mut out = view.outbox();
                                out.send_to_all(CoinGenMsg::Expose(ExposeMsg(F::from_u64(0xBAD))));
                                Step::Continue(out)
                            } else {
                                Step::Done(None)
                            }
                        })
                        .labelled("corrupt-exposer"),
                    )
                },
            );
            Box::new(machine)
        },
    );
    let res = StepRunner::new(n, 42).run(machines);
    let honest_vals: Vec<&Vec<F>> = plan
        .honest()
        .map(|id| res.outputs[id - 1].as_ref().unwrap().as_ref().unwrap())
        .collect();
    assert_eq!(honest_vals[0].len(), m);
    for v in &honest_vals {
        assert_eq!(*v, honest_vals[0], "unanimity under corrupted expose shares");
    }
}
