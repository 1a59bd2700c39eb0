//! Dispute resolution: an honest dealer survives hostile verifiers.
//!
//! §3.1 of the paper notes that under a broadcast channel "two rounds of
//! broadcast" suffice to guarantee that *all n* players' shares satisfy
//! the polynomial — this example shows the library's implementation of
//! that remark ([`dprbg::core::VssDisputeMachine`]) in action.
//!
//! Scenario: an escrow dealer shares a secret among 7 parties. Two
//! Byzantine parties broadcast garbage verification values, which under
//! the literal Fig. 2 check would disqualify the innocent dealer. With
//! dispute resolution the lie is publicly pinpointed, the dealer
//! republishes exactly the two disputed positions, and every honest party
//! accepts — with the liars' shares now public (the price of provable
//! misbehavior).
//!
//! Run with: `cargo run --example dispute_resolution`

use dprbg::core::{
    BatchShares, BitGenMsg, DisputeVssMsg, ExposeMachine, ExposeVia, Params, SealedShare,
    VssDisputeMachine, VssVerdict,
};
use dprbg::field::{Field, Gf2k};
use dprbg::poly::{share_points, share_polynomial, Poly};
use dprbg::sim::{
    from_fn, BoxedMachine, FaultPlan, MachineExt, RoundView, Step, StepRunner,
};
use dprbg_rng::rngs::StdRng;
use dprbg_rng::SeedableRng;

type F = Gf2k<32>;
type M = DisputeVssMsg<F>;
type Out = Option<(VssVerdict, Vec<usize>)>;

fn main() {
    let n = 7;
    let t = 2;
    let _params = Params::broadcast_model(n, t).expect("n >= 3t + 1");
    let mut rng = StdRng::seed_from_u64(2026);

    // The dealer's secret and polynomials (dealt out-of-band here).
    let secret = F::from_u64(0x5EC2E7);
    let f = share_polynomial(secret, t, &mut rng);
    let g = Poly::random(t, &mut rng);
    let shares: Vec<BatchShares<F>> = share_points(&f, n)
        .into_iter()
        .zip(share_points(&g, n))
        .map(|(a, b)| BatchShares { alphas: [a.y].into(), gamma: b.y })
        .collect();

    // One sealed challenge coin.
    let coin_poly = share_polynomial(F::random(&mut rng), t, &mut rng);
    let coins: Vec<SealedShare<F>> = share_points(&coin_poly, n)
        .into_iter()
        .map(|s| SealedShare::of(s.y))
        .collect();

    // Parties 4 and 6 are hostile verifiers trying to frame the dealer.
    let plan = FaultPlan::explicit(n, vec![4, 6]);
    let machines = plan.machines::<M, Out>(
        |id| {
            let coin = coins[id - 1];
            let my = shares[id - 1].clone();
            // The dealer keeps its record of what it dealt, to answer
            // disputes.
            let dealt = (id == 1).then(|| shares.clone());
            let machine = VssDisputeMachine::new(1, dealt, t, my, coin)
                .map(|res| res.ok().map(|out| (out.verdict, out.opened)));
            Box::new(machine) as BoxedMachine<M, Out>
        },
        |id| {
            let coin = coins[id - 1];
            // The frame-up: play the challenge expose honestly (so the
            // coin decodes), then broadcast garbage instead of the real β
            // in the very round honest parties broadcast theirs.
            let machine = ExposeMachine::new(coin, t, ExposeVia::Broadcast).then(
                move |_coin| {
                    let mut round = 0usize;
                    from_fn(move |view: RoundView<'_, M>| {
                        round += 1;
                        if round == 1 {
                            let mut out = view.outbox();
                            let garbage = BitGenMsg::Beta(F::from_u64(id as u64 * 0xBAD));
                            out.broadcast(DisputeVssMsg::Check(garbage));
                            Step::Continue(out)
                        } else {
                            Step::Done(None)
                        }
                    })
                    .labelled("frame-up")
                },
            );
            Box::new(machine) as BoxedMachine<M, Out>
        },
    );

    let res = StepRunner::new(n, 2027).run(machines);
    for id in plan.honest() {
        let (verdict, opened) = res.outputs[id - 1]
            .as_ref()
            .expect("honest party runs to completion")
            .as_ref()
            .expect("challenge coin exposes");
        println!("party {id}: verdict {verdict:?}, positions publicly opened: {opened:?}");
        assert_eq!(*verdict, VssVerdict::Accept);
        assert_eq!(opened, &vec![4, 6]);
    }
    println!(
        "\nhonest dealer accepted by all {} honest parties despite 2 hostile verifiers ✓",
        n - 2
    );
    println!("(under the literal Fig. 2 check the same run would reject the dealer)");
}
