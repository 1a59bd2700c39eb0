//! Mobile faults: the proactive-security setting the paper targets.
//!
//! "One of the motivations and applications of our work is pro-active
//! security, which deals with settings where intruders are allowed to
//! move over time. Our solution to multiple-coin generation can be
//! easily adapted to this scenario." (§1.2.) Crucially, unlike earlier
//! amortization attempts, the D-PRBG does *not* require "that the set of
//! faulty players remain (relatively) fixed": every Coin-Gen run
//! re-elects its dealer clique from scratch.
//!
//! This example runs several generation epochs where the corrupted party
//! *moves* each epoch (a different party is Byzantine every time) and
//! shows that every epoch still seals a full, unanimous batch.
//!
//! Run with: `cargo run --example proactive_refresh`

use dprbg::core::{
    expose_all, BitGenMsg, CoinGenConfig, CoinGenMachine, CoinGenMsg, CoinWallet, ExposeMsg,
    Params, TrustedDealer,
};
use dprbg::field::{Field, Gf2k};
use dprbg::sim::{
    from_fn, BoxedMachine, FaultPlan, MachineExt, RoundMachine, RoundView, Step, StepRunner,
};

type F = Gf2k<32>;
type M = CoinGenMsg<F>;
type Out = Option<(CoinWallet<F>, Vec<F>)>;

const EPOCHS: usize = 5;

/// This epoch's intruder: garbage dealing, a corrupted expose share,
/// then silence.
fn intruder() -> impl RoundMachine<M, Output = Out> {
    let mut round = 0usize;
    from_fn(move |view: RoundView<'_, M>| {
        round += 1;
        match round {
            1 => {
                let mut out = view.outbox();
                for i in 1..=view.n {
                    out.send(
                        i,
                        CoinGenMsg::BitGen(BitGenMsg::Deal {
                            alphas: vec![F::from_u64(0xBAD); 6].into(),
                            gamma: F::zero(),
                        }),
                    );
                }
                Step::Continue(out)
            }
            2 => {
                let mut out = view.outbox();
                out.send_to_all(CoinGenMsg::Expose(ExposeMsg(F::from_u64(13))));
                Step::Continue(out)
            }
            _ => Step::Done(None),
        }
    })
    .labelled("intruder")
}

fn main() {
    let n = 7;
    let t = 1;
    let params = Params::p2p_model(n, t).expect("n >= 6t + 1");
    let cfg = CoinGenConfig { params, batch_size: 6 };

    // Wallets persist across epochs (per honest party).
    let mut wallets: Vec<CoinWallet<F>> = TrustedDealer::deal_wallets::<F>(params, 30, 555);

    for epoch in 1..=EPOCHS {
        // The intruder moves: a different party is corrupted each epoch.
        let bad = (epoch % n) + 1;
        let plan = FaultPlan::explicit(n, vec![bad]);

        let epoch_wallets: Vec<CoinWallet<F>> = wallets.clone();
        let machines = plan.machines::<M, Out>(
            |id| {
                let w = epoch_wallets[id - 1].clone();
                let machine = CoinGenMachine::new(cfg, w).then(
                    move |(w, res)| -> BoxedMachine<M, Out> {
                        match res {
                            // Expose the whole batch so we can display it.
                            Ok(batch) => Box::new(expose_all(t, batch.shares).map(move |vals| {
                                Some((w, vals.expect("expose succeeds")))
                            })),
                            Err(_) => Box::new(from_fn(|_| Step::Done(None))),
                        }
                    },
                );
                Box::new(machine) as BoxedMachine<M, Out>
            },
            |_id| Box::new(intruder()) as BoxedMachine<M, Out>,
        );
        let res = StepRunner::new(n, 9_000 + epoch as u64).run(machines);

        // Collect the honest parties' outputs; update persistent wallets.
        let mut coins_seen: Option<Vec<F>> = None;
        let mut honest_consumed = 0usize;
        for id in plan.honest() {
            let (w, vals) = res.outputs[id - 1]
                .clone()
                .expect("honest party runs to completion")
                .expect("honest party seals the batch");
            match &coins_seen {
                None => coins_seen = Some(vals),
                Some(prev) => assert_eq!(prev, &vals, "unanimity in epoch {epoch}"),
            }
            honest_consumed = epoch_wallets[id - 1].len() - w.len();
            wallets[id - 1] = w;
        }
        // The recovered party rejoins next epoch: resynchronize its
        // reservoir with the honest parties' actual seed consumption
        // (its own sealed shares for this epoch's batch are simply
        // absent — the others carry the expose).
        for id in plan.faulty() {
            for _ in 0..honest_consumed {
                let _ = wallets[id - 1].pop();
            }
        }
        let vals = coins_seen.unwrap();
        println!(
            "epoch {epoch}: intruder at P{bad} -> sealed {} coins, first = {:#x}",
            vals.len(),
            vals[0].to_u64()
        );
    }
    println!("\nall {EPOCHS} epochs produced unanimous batches under a mobile intruder ✓");
}
