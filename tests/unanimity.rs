//! The paper's unanimity property, tested across protocols: "All players
//! in the system view the same coin" — and, more broadly, all honest
//! players reach the same verdicts and values in every sub-protocol.

use dprbg::core::{
    batch_vss, batch_vss_verify, vss, BatchShares, BitGenMsg, CoinError,
    ExposeMachine, ExposeMsg, ExposeVia, SealedShare, VssMode, VssVerdict,
};
use dprbg::field::{Field, Gf2k};
use dprbg::poly::{share_points, share_polynomial, Poly};
use dprbg::sim::{from_fn, BoxedMachine, FaultPlan, MachineExt, RoundView, Step, StepRunner};
use dprbg_rng::rngs::StdRng;
use dprbg_rng::{RngExt, SeedableRng};

type F = Gf2k<32>;

fn coin_shares(n: usize, t: usize, seed: u64) -> (F, Vec<SealedShare<F>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let value = F::random(&mut rng);
    let poly = share_polynomial(value, t, &mut rng);
    (
        value,
        share_points(&poly, n)
            .into_iter()
            .map(|s| SealedShare::of(s.y))
            .collect(),
    )
}

/// A one-shot corrupt expose script: garbage share to everyone, then out.
fn garbage_expose(share: F) -> BoxedMachine<ExposeMsg<F>, Option<F>> {
    let mut sent = false;
    Box::new(
        from_fn(move |view: RoundView<'_, ExposeMsg<F>>| {
            if !sent {
                sent = true;
                let mut out = view.outbox();
                out.send_to_all(ExposeMsg(share));
                Step::Continue(out)
            } else {
                Step::Done(None)
            }
        })
        .labelled("garbage-expose"),
    )
}

#[test]
fn expose_unanimity_under_every_single_corruption_pattern() {
    // For each possible corrupted party, the exposed value matches the
    // dealt value at every honest party.
    let n = 7;
    let t = 1;
    for bad in 1..=n {
        let (value, shares) = coin_shares(n, t, 100 + bad as u64);
        let plan = FaultPlan::explicit(n, vec![bad]);
        let machines = plan.machines::<ExposeMsg<F>, Option<F>>(
            |id| {
                let s = shares[id - 1];
                Box::new(
                    ExposeMachine::new(s, 1, ExposeVia::PointToPoint).map(|res| res.ok()),
                )
            },
            |_| {
                let mut rng = StdRng::seed_from_u64(7);
                garbage_expose(F::random(&mut rng))
            },
        );
        let res = StepRunner::new(n, 200 + bad as u64).run(machines);
        for id in plan.honest() {
            assert_eq!(
                res.outputs[id - 1],
                Some(Some(value)),
                "corrupted party {bad}, honest party {id}"
            );
        }
    }
}

#[test]
fn expose_with_t_corruptions_at_the_bound() {
    // n = 13, t = 2: exactly t corrupted shares plus one silent party.
    let n = 13;
    let t = 2;
    let (value, shares) = coin_shares(n, t, 55);
    let plan = FaultPlan::explicit(n, vec![1, 7]);
    let machines = plan.machines::<ExposeMsg<F>, Option<F>>(
        |id| {
            let s = if id == 13 { SealedShare::absent() } else { shares[id - 1] };
            Box::new(ExposeMachine::new(s, 2, ExposeVia::PointToPoint).map(|res| res.ok()))
        },
        |id| garbage_expose(F::from_u64(id as u64 * 31)),
    );
    let res = StepRunner::new(n, 56).run(machines);
    for id in plan.honest() {
        assert_eq!(res.outputs[id - 1], Some(Some(value)), "party {id}");
    }
}

#[test]
fn vss_verdicts_are_uniform_across_honest_parties() {
    // Sweep random dealers (honest and cheating): every honest party must
    // output the *same* verdict in every run.
    let n = 7;
    let t = 2;
    let mut rng = StdRng::seed_from_u64(9);
    for trial in 0..8u64 {
        let cheat = rng.random::<bool>();
        let (_, coins) = coin_shares(n, t, 300 + trial);
        let machines: Vec<BoxedMachine<BitGenMsg<F>, Option<VssVerdict>>> = (1..=n)
            .map(|id| {
                let coin = coins[id - 1];
                if id == 1 && cheat {
                    // Deal a wrong-degree polynomial manually, keep our own
                    // shares, then verify like everyone else.
                    let mut my: Option<BatchShares<F>> = None;
                    let deal = from_fn(move |view: RoundView<'_, BitGenMsg<F>>| {
                        if let Some(shares) = my.take() {
                            return Step::Done(shares);
                        }
                        let f = Poly::<F>::random(t + 1, view.rng);
                        let g = Poly::<F>::random(t, view.rng);
                        let mut out = view.outbox();
                        for i in 1..=view.n {
                            let x = F::element(i as u64);
                            out.send(
                                i,
                                BitGenMsg::Deal { alphas: vec![f.eval(x)].into(), gamma: g.eval(x) },
                            );
                        }
                        let x1 = F::element(1);
                        my = Some(BatchShares { alphas: [f.eval(x1)].into(), gamma: g.eval(x1) });
                        Step::Continue(out)
                    })
                    .labelled("cheating-dealer");
                    let machine = deal
                        .then(move |shares| batch_vss_verify(t, shares, 1, coin, VssMode::Strict))
                        .map(|res| res.ok());
                    Box::new(machine) as BoxedMachine<BitGenMsg<F>, Option<VssVerdict>>
                } else {
                    let secret = (id == 1).then(|| F::from_u64(1234));
                    let machine = vss(1, secret, t, coin, VssMode::Strict)
                        .map(|res| res.ok().map(|(v, _)| v));
                    Box::new(machine) as BoxedMachine<BitGenMsg<F>, Option<VssVerdict>>
                }
            })
            .collect();
        let outs = StepRunner::new(n, 400 + trial).run(machines).unwrap_all();
        let expected = if cheat { VssVerdict::Reject } else { VssVerdict::Accept };
        for (i, o) in outs.iter().enumerate() {
            assert_eq!(o, &Some(expected), "trial {trial}, party {}", i + 1);
        }
    }
}

#[test]
fn batch_vss_verdict_uniform_with_partial_corruption() {
    // Dealer corrupts only the share vectors of two specific parties;
    // the broadcast check still yields one global verdict (Reject under
    // Strict — the corrupted parties' combinations break interpolation).
    let n = 7;
    let t = 2;
    let m = 8;
    let (_, coins) = coin_shares(n, t, 500);
    let machines: Vec<BoxedMachine<BitGenMsg<F>, Option<VssVerdict>>> = (1..=n)
        .map(|id| {
            let coin = coins[id - 1];
            if id == 1 {
                // Dealer: correct polynomials, but parties 3 and 5 get
                // perturbed share vectors.
                let mut my: Option<BatchShares<F>> = None;
                let deal = from_fn(move |view: RoundView<'_, BitGenMsg<F>>| {
                    if let Some(shares) = my.take() {
                        return Step::Done(shares);
                    }
                    let polys: Vec<Poly<F>> =
                        (0..m).map(|_| Poly::random(t, view.rng)).collect();
                    let blind = Poly::<F>::random(t, view.rng);
                    let mut out = view.outbox();
                    for i in 1..=view.n {
                        let x = F::element(i as u64);
                        let mut alphas: Vec<F> = polys.iter().map(|f| f.eval(x)).collect();
                        if i == 3 || i == 5 {
                            alphas[0] += F::one();
                        }
                        out.send(i, BitGenMsg::Deal { alphas: alphas.into(), gamma: blind.eval(x) });
                    }
                    let x1 = F::element(1);
                    my = Some(BatchShares {
                        alphas: polys.iter().map(|f| f.eval(x1)).collect(),
                        gamma: blind.eval(x1),
                    });
                    Step::Continue(out)
                })
                .labelled("perturbing-dealer");
                let machine = deal
                    .then(move |shares| batch_vss_verify(t, shares, m, coin, VssMode::Strict))
                    .map(|res| res.ok());
                Box::new(machine) as BoxedMachine<BitGenMsg<F>, Option<VssVerdict>>
            } else {
                let machine = batch_vss(1, None, t, m, coin, VssMode::Strict)
                    .map(|res| res.ok().map(|(v, _)| v));
                Box::new(machine) as BoxedMachine<BitGenMsg<F>, Option<VssVerdict>>
            }
        })
        .collect();
    let outs = StepRunner::new(n, 501).run(machines).unwrap_all();
    for (i, o) in outs.iter().enumerate() {
        assert_eq!(o, &Some(VssVerdict::Reject), "party {}", i + 1);
    }
}

#[test]
fn expose_fails_loudly_not_wrongly() {
    // Beyond the fault bound (t+1 corruptions with minimal points), the
    // expose must error or still give the right value — never silently
    // return a different coin accepted by some parties only.
    let n = 7;
    let t = 2;
    let (value, shares) = coin_shares(n, t, 600);
    let plan = FaultPlan::explicit(n, vec![1, 2, 3]); // t+1 corruptions!
    let machines = plan.machines::<ExposeMsg<F>, Option<Result<F, CoinError>>>(
        |id| {
            let s = shares[id - 1];
            Box::new(ExposeMachine::new(s, 2, ExposeVia::PointToPoint).map(Some))
        },
        |id| {
            let mut sent = false;
            Box::new(from_fn(move |view: RoundView<'_, ExposeMsg<F>>| {
                if !sent {
                    sent = true;
                    let mut out = view.outbox();
                    out.send_to_all(ExposeMsg(F::from_u64(id as u64)));
                    Step::Continue(out)
                } else {
                    Step::Done(None)
                }
            }))
        },
    );
    let res = StepRunner::new(n, 601).run(machines);
    let mut answers = Vec::new();
    for id in plan.honest() {
        let out = res.outputs[id - 1].as_ref().unwrap().as_ref().unwrap();
        answers.push(*out);
    }
    // All honest agree with each other; any Ok value equals the truth.
    assert!(answers.windows(2).all(|w| w[0] == w[1]));
    if let Ok(v) = &answers[0] {
        assert_eq!(*v, value);
    }
}
