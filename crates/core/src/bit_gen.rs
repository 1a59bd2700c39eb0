//! Protocol Bit-Gen (Fig. 4): sealed-bit generation, point-to-point model.
//!
//! §4 model: `n ≥ 6t + 1`, **no broadcast channel**. "Bit-Gen enables a
//! dealer to share M secrets, while allowing the players to verify that
//! the dealer has shared proper secrets." Because announcements travel on
//! private channels only, players reach merely *local* verdicts — the
//! output is the pair `(F(x), S)` per instance, which Coin-Gen later
//! reconciles via the agreement-graph/clique machinery.
//!
//! Per instance (dealer `D`):
//!
//! 1. `D` defines `f_1 … f_M` (degree ≤ t, random — these are the future
//!    coins) and sends `P_i` the values `f_j(i)`.
//! 2. `r ← Coin-Expose(k-ary-coin)` — the same `r` serves all `n`
//!    parallel instances (the computation saving noted in Theorem 2).
//! 3. `P_i` computes the Horner combination `β_i` and sends it to all
//!    players.
//! 4. `S ← {β_{i1}, …}` as received.
//! 5. Using the Berlekamp–Welch decoder, interpolate `F(x)` through the
//!    shares in `S`; if `deg F ≤ t` and ≥ `n − t` values in `S` satisfy
//!    `F(i_j) = β_{i_j}`, output `(F(x), S)`, else `(⊥, S)`.
//!
//! Soundness (Lemma 5): a dealer whose sharing is invalid on ≥ `n − 2t`
//! honest players survives with probability ≤ `M/p`. Cost (Lemma 6):
//! `O(M(t + 2)k log k)` additions, 2 interpolations, 3 rounds,
//! `nMk + 2n²k` bits; Corollary 2: amortized `≈ n` bits of communication
//! per generated bit.
//!
//! Like Batch-VSS, the combination is blinded with one extra masking
//! polynomial per dealer by default (see DESIGN.md deviation #2).

use std::mem;

use dprbg_field::Field;
use dprbg_metrics::WireSize;
use dprbg_poly::{BatchDecoder, Poly};
use dprbg_sim::{Embeds, PartyId, RoundMachine, RoundView, Step};

use crate::batch_vss::{deal_shares, party_points};
use crate::coin::{ExposeMachine, ExposeMsg, ExposeVia, SealedShare};
use crate::errors::CoinError;

/// Wire messages of the `n` parallel Bit-Gen instances.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BitGenMsg<F: Field> {
    /// Round 1: the dealer's share vector for the recipient (instance =
    /// sender).
    Deal {
        /// `f_1(i) … f_M(i)`.
        alphas: Vec<F>,
        /// The masking share `g(i)`.
        gamma: F,
    },
    /// Coin-Expose traffic for the shared challenge.
    Expose(ExposeMsg<F>),
    /// Round 3: the sender's combined shares, one entry per dealer
    /// instance it holds valid shares in (batched into a single message
    /// of size ≈ nk — Theorem 2's "n² messages of size kn").
    Betas(Vec<(PartyId, F)>),
}

impl<F: Field> WireSize for BitGenMsg<F> {
    fn wire_bytes(&self) -> usize {
        match self {
            BitGenMsg::Deal { alphas, gamma } => alphas.wire_bytes() + gamma.wire_bytes(),
            BitGenMsg::Expose(e) => e.wire_bytes(),
            // Dealer tags are log n bits; charge one byte per entry.
            BitGenMsg::Betas(entries) => {
                entries.iter().map(|(_, b)| 1 + b.wire_bytes()).sum()
            }
        }
    }
}

impl<F: Field> Embeds<ExposeMsg<F>> for BitGenMsg<F> {
    fn wrap(inner: ExposeMsg<F>) -> Self {
        BitGenMsg::Expose(inner)
    }
    fn peek(&self) -> Option<&ExposeMsg<F>> {
        match self {
            BitGenMsg::Expose(e) => Some(e),
            _ => None,
        }
    }
}

/// This party's record of one dealer's Bit-Gen instance — the `(F(x), S)`
/// output of Fig. 4 plus the shares the party must keep for Coin-Expose.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DealerView<F: Field> {
    /// The instance's dealer.
    pub dealer: PartyId,
    /// My shares `f_1(i) … f_M(i)` from this dealer (empty if the dealer
    /// stayed silent or sent a malformed vector).
    pub alphas: Vec<F>,
    /// My masking share `g(i)`.
    pub gamma: F,
    /// My own combination `β_i` (what I sent; `None` if I had no valid
    /// shares).
    pub my_beta: Option<F>,
    /// The set `S`: combination values received, indexed by party − 1.
    pub betas: Vec<Option<F>>,
    /// `F(x)` if step 5 succeeded (degree ≤ t, ≥ n − t agreement), else
    /// `⊥`.
    pub check_poly: Option<Poly<F>>,
}

/// The result of running the `n` parallel Bit-Gen instances.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitGenRun<F: Field> {
    /// The exposed challenge `r`.
    pub r: F,
    /// One view per dealer instance, indexed by dealer − 1.
    pub views: Vec<DealerView<F>>,
}

/// What the dealers share — fresh random coins (Coin-Gen) or zero
/// sharings (the proactive refresh of [`crate::refresh`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BitGenMode {
    /// Fig. 4 verbatim: `M` uniformly random secrets, blinded combination.
    #[default]
    RandomCoins,
    /// Proactive refresh: `M` sharings of **zero** (`f_j(0) = 0`),
    /// unblinded, and acceptance additionally requires `F(0) = 0` — so a
    /// cheating dealer cannot shift existing coin values (w.p. > 1 − M/p).
    ZeroRefresh,
}

/// The `n` parallel Bit-Gen instances (Fig. 4) as a sans-IO round
/// machine: deal, challenge expose (an embedded [`ExposeMachine`]), and
/// combination exchange — Lemma 6's exact 3 rounds, one `Continue` each.
///
/// Every party in `dealers` acts as a dealer of `m` sealed secrets, all
/// instances sharing one challenge coin (Coin-Gen step 3: "using the same
/// coin r for all invocations"). The output propagates [`CoinError`] from
/// the challenge expose.
pub struct BitGenMachine<M, F: Field> {
    t: usize,
    m: usize,
    dealers: Vec<PartyId>,
    mode: BitGenMode,
    stage: BgStage<M, F>,
}

enum BgStage<M, F: Field> {
    /// First call: deal (if a dealer) and bank the challenge share.
    Deal { coin: SealedShare<F> },
    /// Inbox holds deals: record them, then start the challenge expose.
    Deals { coin: SealedShare<F> },
    /// Inbox holds expose shares: decode `r`, send the combinations.
    Expose { expose: ExposeMachine<M, F>, views: Vec<DealerView<F>> },
    /// Inbox holds combinations: fill `S` and decode every instance.
    Betas { r: F, views: Vec<DealerView<F>> },
    Finished,
}

impl<M, F: Field> BitGenMachine<M, F> {
    /// A machine running the parallel instances dealt by `dealers`, `m`
    /// secrets each, sharing the challenge `coin`.
    pub fn new(
        t: usize,
        m: usize,
        coin: SealedShare<F>,
        dealers: Vec<PartyId>,
        mode: BitGenMode,
    ) -> Self {
        BitGenMachine { t, m, dealers, mode, stage: BgStage::Deal { coin } }
    }
}

impl<M, F> RoundMachine<M> for BitGenMachine<M, F>
where
    M: Clone + WireSize + Embeds<ExposeMsg<F>> + Embeds<BitGenMsg<F>>,
    F: Field,
{
    type Output = Result<BitGenRun<F>, CoinError>;

    fn round(&mut self, mut view: RoundView<'_, M>) -> Step<M, Self::Output> {
        let n = view.n;
        match mem::replace(&mut self.stage, BgStage::Finished) {
            BgStage::Deal { coin } => {
                // Round 1: deal. Each dealer samples M secret polynomials
                // and one masking polynomial — t + 1 coefficients each,
                // drawn polynomial by polynomial into one buffer — and
                // sends each player its share vector.
                let mut out = view.outbox();
                if self.dealers.contains(&view.id) {
                    let width = self.t + 1;
                    let coeffs: Vec<F> = match self.mode {
                        BitGenMode::RandomCoins => {
                            (0..(self.m + 1) * width).map(|_| F::random(view.rng)).collect()
                        }
                        // Zero sharings: constant term zero, and no
                        // blinding — the revealed combination's constant
                        // term is zero by construction and the z's are
                        // pure masking randomness.
                        BitGenMode::ZeroRefresh => (0..self.m * width)
                            .map(|i| if i % width == 0 { F::zero() } else { F::random(view.rng) })
                            .collect(),
                    };
                    let blinded = self.mode == BitGenMode::RandomCoins;
                    let shares = deal_shares(&coeffs, self.m, blinded, &party_points(n));
                    for (i, (alphas, gamma)) in (1..=n).zip(shares) {
                        out.send(
                            i,
                            <M as Embeds<BitGenMsg<F>>>::wrap(BitGenMsg::Deal { alphas, gamma }),
                        );
                    }
                }
                self.stage = BgStage::Deals { coin };
                Step::Continue(out)
            }
            BgStage::Deals { coin } => {
                let mut views: Vec<DealerView<F>> = (1..=n)
                    .map(|dealer| DealerView {
                        dealer,
                        alphas: Vec::new(),
                        gamma: F::zero(),
                        my_beta: None,
                        betas: vec![None; n],
                        check_poly: None,
                    })
                    .collect();
                for rcv in view.inbox.iter() {
                    if let Some(BitGenMsg::Deal { alphas, gamma }) =
                        <M as Embeds<BitGenMsg<F>>>::peek(rcv.msg())
                    {
                        let slot = &mut views[rcv.from - 1];
                        if slot.alphas.is_empty() && alphas.len() == self.m {
                            slot.alphas = alphas.clone();
                            slot.gamma = *gamma;
                        }
                    }
                }

                // Round 2: the shared challenge.
                let mut expose = ExposeMachine::new(coin, self.t, ExposeVia::PointToPoint);
                let Step::Continue(out) = expose.round(view.reborrow()) else {
                    unreachable!("expose sends on its first call")
                };
                self.stage = BgStage::Expose { expose, views };
                Step::Continue(out)
            }
            BgStage::Expose { mut expose, mut views } => {
                let r = match expose.round(view.reborrow()) {
                    Step::Done(Ok(r)) => r,
                    Step::Done(Err(e)) => return Step::Done(Err(e)),
                    Step::Continue(_) => unreachable!("expose decodes on its second call"),
                };

                // Round 3: combine every instance this party holds shares
                // in — one pass, the Horner chains advancing together under
                // the shared challenge — and exchange (n² messages of size
                // k).
                let m = self.m;
                let rows: Vec<&[F]> =
                    views.iter().map(|v| &v.alphas[..]).filter(|a| a.len() == m).collect();
                let mut sums = vec![F::zero(); rows.len()];
                F::combine_rows(&rows, r, &mut sums);
                for (v, sum) in views.iter_mut().filter(|v| v.alphas.len() == m).zip(sums) {
                    v.my_beta = Some(sum + v.gamma);
                }
                let entries: Vec<(PartyId, F)> = views
                    .iter()
                    .filter_map(|v| v.my_beta.map(|b| (v.dealer, b)))
                    .collect();
                let mut out = view.outbox();
                if !entries.is_empty() {
                    out.send_to_all(<M as Embeds<BitGenMsg<F>>>::wrap(BitGenMsg::Betas(
                        entries,
                    )));
                }
                self.stage = BgStage::Betas { r, views };
                Step::Continue(out)
            }
            BgStage::Betas { r, mut views } => {
                for rcv in view.inbox.iter() {
                    if let Some(BitGenMsg::Betas(entries)) =
                        <M as Embeds<BitGenMsg<F>>>::peek(rcv.msg())
                    {
                        for (dealer, beta) in entries {
                            if (1..=n).contains(dealer) {
                                let slot = &mut views[dealer - 1].betas[rcv.from - 1];
                                if slot.is_none() {
                                    *slot = Some(*beta);
                                }
                            }
                        }
                    }
                }

                // Step 5: Berlekamp–Welch per instance. The instances share
                // one decoder for as long as the same parties sent a β —
                // every instance, unless a sender skipped some dealers.
                let points = party_points(n);
                let mut decoder = None;
                for v in views.iter_mut() {
                    v.check_poly = decode_instance(&v.betas, &points, self.t, &mut decoder);
                    if self.mode == BitGenMode::ZeroRefresh {
                        // Zero sharings: the combination must vanish at the
                        // origin, or the dealer is shifting coin values.
                        if v.check_poly
                            .as_ref()
                            .is_some_and(|f| !f.constant_term().is_zero())
                        {
                            v.check_poly = None;
                        }
                    }
                }
                Step::Done(Ok(BitGenRun { r, views }))
            }
            #[expect(clippy::panic, reason = "driver contract: round() is never called after Done")]
            BgStage::Finished => panic!("BitGenMachine driven past completion"),
        }
    }

    fn phase_name(&self) -> &'static str {
        match &self.stage {
            BgStage::Deal { .. } => "bit-gen/deal",
            BgStage::Deals { .. } => "bit-gen/record",
            BgStage::Expose { .. } => "bit-gen/challenge",
            BgStage::Betas { .. } => "bit-gen/combine",
            BgStage::Finished => "bit-gen/finished",
        }
    }
}

/// Fig. 4 step 5: decode `F(x)` from the received combinations; `Some`
/// iff `deg F ≤ t` and at least `n − t` received values lie on `F`.
///
/// With `m` values received, "≥ `n − t` agree" is "≤ `m − (n − t)` are
/// wrong": the acceptance threshold is the decoder's error budget, so a
/// decoded `F` needs no second pass over the points. `points` are the
/// `n` party points; `decoder` is reused when it was built for the same
/// senders.
fn decode_instance<F: Field>(
    betas: &[Option<F>],
    points: &[F],
    t: usize,
    decoder: &mut Option<BatchDecoder<F>>,
) -> Option<Poly<F>> {
    let (xs, ys): (Vec<F>, Vec<F>) =
        betas.iter().zip(points).filter_map(|(b, &x)| b.map(|y| (x, y))).unzip();
    let budget = xs.len().checked_sub(points.len() - t)?;
    if decoder.as_ref().is_none_or(|d| d.xs() != xs) {
        *decoder = BatchDecoder::new(&xs, t, t.min(budget)).ok();
    }
    decoder.as_ref()?.decode(&ys).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dprbg_field::Gf2k;
    use dprbg_poly::{share_points, share_polynomial};
    use dprbg_rng::rngs::StdRng;
    use dprbg_rng::SeedableRng;
    use dprbg_sim::{from_fn, BoxedMachine, FaultPlan, MachineExt, StepRunner};

    type F = Gf2k<32>;
    type M = BitGenMsg<F>;

    fn coin_shares(n: usize, t: usize, seed: u64) -> Vec<SealedShare<F>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let poly = share_polynomial(F::random(&mut rng), t, &mut rng);
        share_points(&poly, n)
            .into_iter()
            .map(|s| SealedShare::of(s.y))
            .collect()
    }

    fn machine(
        t: usize,
        m: usize,
        coin: SealedShare<F>,
        dealers: &[PartyId],
    ) -> BoxedMachine<M, Result<BitGenRun<F>, CoinError>> {
        Box::new(BitGenMachine::new(t, m, coin, dealers.to_vec(), BitGenMode::RandomCoins))
    }

    fn run_all(
        n: usize,
        t: usize,
        m: usize,
        seed: u64,
    ) -> Vec<Result<BitGenRun<F>, CoinError>> {
        let coins = coin_shares(n, t, seed + 500);
        let dealers: Vec<PartyId> = (1..=n).collect();
        let fleet = (1..=n).map(|id| machine(t, m, coins[id - 1], &dealers)).collect();
        StepRunner::new(n, seed).run(fleet).unwrap_all()
    }

    #[test]
    fn all_honest_every_instance_validates() {
        let n = 7;
        let t = 1;
        let m = 4;
        let outs = run_all(n, t, m, 1);
        for (i, out) in outs.iter().enumerate() {
            let run = out.as_ref().unwrap();
            for view in &run.views {
                assert!(
                    view.check_poly.is_some(),
                    "party {} rejected dealer {}",
                    i + 1,
                    view.dealer
                );
                assert_eq!(view.alphas.len(), m);
            }
        }
        // All parties exposed the same challenge.
        let r0 = outs[0].as_ref().unwrap().r;
        assert!(outs.iter().all(|o| o.as_ref().unwrap().r == r0));
    }

    #[test]
    fn shares_reconstruct_dealers_secrets() {
        let n = 7;
        let t = 1;
        let m = 3;
        let outs = run_all(n, t, m, 2);
        for h in 0..m {
            // Gather every party's h-th share from dealer 1: all n lie on
            // one degree-≤ t polynomial, and any t + 1 of them determine
            // the same secret.
            let shares: Vec<dprbg_poly::Share<F>> = outs
                .iter()
                .enumerate()
                .map(|(i, o)| dprbg_poly::Share {
                    x: F::element(i as u64 + 1),
                    y: o.as_ref().unwrap().views[0].alphas[h],
                })
                .collect();
            let secret = dprbg_poly::reconstruct_secret(&shares, t).unwrap();
            for window in shares.windows(t + 1) {
                assert_eq!(dprbg_poly::reconstruct_secret(window, t).unwrap(), secret);
            }
        }
    }

    #[test]
    fn cheating_dealer_detected_by_all_honest() {
        // Dealer 1 shares a degree-(t+1) polynomial among its M.
        let n = 7;
        let t = 1;
        let m = 4;
        let coins = coin_shares(n, t, 10);
        let plan = FaultPlan::explicit(n, vec![1]);
        let dealers: Vec<PartyId> = (1..=n).collect();
        let fleet = plan.machines::<M, Option<BitGenRun<F>>>(
            |id| {
                let coin = coins[id - 1];
                let dealers = dealers.clone();
                Box::new(
                    BitGenMachine::new(t, m, coin, dealers, BitGenMode::RandomCoins)
                        .map(|r: Result<BitGenRun<F>, CoinError>| r.ok()),
                )
            },
            |id| {
                let coin = coins[id - 1];
                Box::new(from_fn(move |view: RoundView<'_, M>| {
                    let n = view.n;
                    let mut out = view.outbox();
                    match view.round {
                        0 => {
                            // Deal one high-degree polynomial among honest
                            // ones.
                            let mut polys: Vec<Poly<F>> =
                                (0..m - 1).map(|_| Poly::random(t, view.rng)).collect();
                            polys.push(Poly::random(t + 1, view.rng));
                            let blind = Poly::random(t, view.rng);
                            for i in 1..=n {
                                let x = F::element(i as u64);
                                out.send(
                                    i,
                                    BitGenMsg::Deal {
                                        alphas: polys.iter().map(|f| f.eval(x)).collect(),
                                        gamma: blind.eval(x),
                                    },
                                );
                            }
                            Step::Continue(out)
                        }
                        1 => {
                            // Participate honestly in the challenge expose.
                            if let Some(sigma) = coin.sigma {
                                out.send_to_all(BitGenMsg::Expose(ExposeMsg(sigma)));
                            }
                            Step::Continue(out)
                        }
                        _ => Step::Done(None),
                    }
                }))
            },
        );
        let res = StepRunner::new(n, 11).run(fleet);
        for id in plan.honest() {
            let run = res.outputs[id - 1].as_ref().unwrap().as_ref().unwrap();
            assert!(
                run.views[0].check_poly.is_none(),
                "party {id} failed to reject the cheating dealer"
            );
            // Honest dealers still validate.
            for j in plan.honest() {
                assert!(run.views[j - 1].check_poly.is_some());
            }
        }
    }

    #[test]
    fn byzantine_beta_senders_cannot_break_honest_instances() {
        let n = 7;
        let t = 1;
        let m = 2;
        let coins = coin_shares(n, t, 20);
        let plan = FaultPlan::explicit(n, vec![4]);
        let dealers: Vec<PartyId> = plan.honest().collect();
        let fleet = plan.machines::<M, Option<BitGenRun<F>>>(
            |id| {
                let coin = coins[id - 1];
                let dealers = dealers.clone();
                Box::new(
                    BitGenMachine::new(t, m, coin, dealers, BitGenMode::RandomCoins)
                        .map(|r: Result<BitGenRun<F>, CoinError>| r.ok()),
                )
            },
            |_| {
                Box::new(from_fn(move |view: RoundView<'_, M>| {
                    let n = view.n;
                    let mut out = view.outbox();
                    match view.round {
                        // No dealing, skip the expose.
                        0 | 1 => Step::Continue(out),
                        2 => {
                            // Round 3: garbage betas in every instance.
                            let garbage: Vec<(PartyId, F)> =
                                (1..=n).map(|d| (d, F::from_u64(0xBAD))).collect();
                            out.send_to_all(BitGenMsg::Betas(garbage));
                            Step::Continue(out)
                        }
                        _ => Step::Done(None),
                    }
                }))
            },
        );
        let res = StepRunner::new(n, 21).run(fleet);
        for id in plan.honest() {
            let run = res.outputs[id - 1].as_ref().unwrap().as_ref().unwrap();
            for j in plan.honest() {
                assert!(
                    run.views[j - 1].check_poly.is_some(),
                    "party {id} rejected honest dealer {j}"
                );
            }
        }
    }

    /// Fig. 4 step 5 by exhaustion, sharing no code with the decoder: the
    /// degree-≤ t polynomial through some `t + 1` of the received values
    /// that at least `n − t` of them lie on (unique for `n ≥ 3t + 1`).
    fn reference_decode(betas: &[Option<F>], n: usize, t: usize) -> Option<Poly<F>> {
        let points: Vec<(F, F)> = betas
            .iter()
            .enumerate()
            .filter_map(|(i, b)| b.map(|y| (F::element(i as u64 + 1), y)))
            .collect();
        let m = points.len();
        if m <= t {
            return None;
        }
        let mut pick: Vec<usize> = (0..=t).collect();
        loop {
            let subset: Vec<(F, F)> = pick.iter().map(|&i| points[i]).collect();
            let f = dprbg_poly::interpolate(&subset).unwrap();
            if points.iter().filter(|&&(x, y)| f.eval(x) == y).count() >= n - t {
                return Some(f);
            }
            // Next (t + 1)-subset of 0..m in lexicographic order.
            let j = (0..=t).rev().find(|&j| pick[j] < m - 1 - (t - j))?;
            pick[j] += 1;
            for k in j + 1..=t {
                pick[k] = pick[k - 1] + 1;
            }
        }
    }

    /// One high-degree dealer, one party whose β message is lost, and one
    /// that sends garbage for a third of the dealers and skips another
    /// third (so the sender set differs between instances): every
    /// `check_poly` must be the reference decode, at Lemma 6's price.
    fn assert_faulty_run_matches_reference(n: usize, t: usize) {
        const HIGH_DEGREE: PartyId = 1;
        const SILENT: PartyId = 2;
        const GARBAGE: PartyId = 4;
        let m = 3;
        let coins = coin_shares(n, t, 60);
        let plan = FaultPlan::explicit(n, vec![HIGH_DEGREE, SILENT, GARBAGE]);
        let dealers: Vec<PartyId> = (1..=n).collect();
        let honest = |id: PartyId| {
            BitGenMachine::new(t, m, coins[id - 1], dealers.clone(), BitGenMode::RandomCoins)
        };
        let fleet = plan.machines::<M, Option<BitGenRun<F>>>(
            |id| Box::new(honest(id).map(|r: Result<BitGenRun<F>, CoinError>| r.ok())),
            |id| {
                // The honest machine, with what it sends rewritten.
                let mut inner = honest(id);
                Box::new(from_fn(move |mut view: RoundView<'_, M>| {
                    let out = match inner.round(view.reborrow()) {
                        Step::Continue(out) => out,
                        Step::Done(r) => return Step::Done(r.ok()),
                    };
                    Step::Continue(match (id, view.round) {
                        (HIGH_DEGREE, 0) => {
                            let mut polys: Vec<Poly<F>> =
                                (0..m - 1).map(|_| Poly::random(t, view.rng)).collect();
                            polys.push(Poly::random(t + 1, view.rng));
                            let blind = Poly::random(t, view.rng);
                            let mut deal = view.outbox();
                            for i in 1..=n {
                                let x = F::element(i as u64);
                                deal.send(
                                    i,
                                    BitGenMsg::Deal {
                                        alphas: polys.iter().map(|f| f.eval(x)).collect(),
                                        gamma: blind.eval(x),
                                    },
                                );
                            }
                            deal
                        }
                        (SILENT, 2) => view.outbox(),
                        (GARBAGE, 2) => out.map(|msg| match msg {
                            BitGenMsg::Betas(entries) => BitGenMsg::Betas(
                                entries
                                    .into_iter()
                                    .filter(|(d, _)| d % 3 != 1)
                                    .map(|(d, b)| (d, if d % 3 == 0 { F::from_u64(0xBAD) } else { b }))
                                    .collect(),
                            ),
                            other => other,
                        }),
                        _ => out,
                    })
                }))
            },
        );
        let res = StepRunner::new(n, 61).run(fleet);
        for id in plan.honest() {
            let run = res.outputs[id - 1].as_ref().unwrap().as_ref().unwrap();
            let mut decodes = 1; // the challenge expose
            for view in &run.views {
                assert_eq!(
                    view.check_poly,
                    reference_decode(&view.betas, n, t),
                    "n={n}: party {id}, dealer {}",
                    view.dealer
                );
                let d = view.dealer;
                assert!(view.betas[SILENT - 1].is_none());
                assert_eq!(view.betas[GARBAGE - 1].is_none(), d % 3 == 1);
                decodes += u64::from(view.betas.iter().flatten().count() >= n - t);
                // An honest dealer survives iff lost plus wrong values ≤ t.
                if !plan.is_faulty(d) {
                    let lost_or_wrong = 1 + usize::from(d % 3 != 2);
                    assert_eq!(view.check_poly.is_some(), lost_or_wrong <= t, "dealer {d}");
                }
            }
            assert!(run.views[HIGH_DEGREE - 1].check_poly.is_none());
            assert_eq!(
                res.report.per_party[id - 1].cost.interpolations,
                decodes,
                "n={n}: party {id} ticks once per instance with ≥ n − t values"
            );
        }
    }

    #[test]
    fn faulty_senders_and_dealer_decode_like_the_reference() {
        // n = 7, t = 1: an instance keeps n − t = 6 values only where the
        // garbage sender spoke, and then has no error budget left.
        assert_faulty_run_matches_reference(7, 1);
        // n = 13, t = 2: budgets of 1 (garbage corrected) and 0.
        assert_faulty_run_matches_reference(13, 2);
    }

    #[test]
    fn one_decoder_build_per_party_without_and_with_a_crash() {
        // Inversions per party: one for the challenge expose's candidate,
        // one for the shared basis of all n instance decodes.
        let (n, t, m) = (7, 1, 2);
        let coins = coin_shares(n, t, 70);
        let dealers: Vec<PartyId> = (1..=n).collect();
        for crashed in [None, Some(3)] {
            let fleet = (1..=n)
                .map(|id| -> BoxedMachine<M, Option<BitGenRun<F>>> {
                    if crashed == Some(id) {
                        Box::new(dprbg_sim::silent())
                    } else {
                        Box::new(
                            BitGenMachine::new(
                                t,
                                m,
                                coins[id - 1],
                                dealers.clone(),
                                BitGenMode::RandomCoins,
                            )
                            .map(|r: Result<BitGenRun<F>, CoinError>| r.ok()),
                        )
                    }
                })
                .collect();
            let res = StepRunner::new(n, 71).run(fleet);
            for id in (1..=n).filter(|&id| crashed != Some(id)) {
                assert_eq!(res.report.per_party[id - 1].cost.field_invs, 2, "party {id}");
            }
        }
    }

    #[test]
    fn silent_dealer_yields_bottom() {
        let n = 7;
        let t = 1;
        let m = 2;
        let coins = coin_shares(n, t, 30);
        // Only parties 2..=n deal; instance 1 must come out ⊥ everywhere.
        let dealers: Vec<PartyId> = (2..=n).collect();
        let fleet = (1..=n).map(|id| machine(t, m, coins[id - 1], &dealers)).collect();
        for out in StepRunner::new(n, 31).run(fleet).unwrap_all() {
            let run = out.unwrap();
            assert!(run.views[0].check_poly.is_none());
            assert!(run.views[0].my_beta.is_none());
        }
    }

    #[test]
    fn three_rounds_and_message_shape() {
        // Lemma 6: 3 rounds; round 1 has n dealer messages of ~Mk bits
        // each per dealer, rounds 2-3 have n² messages of ~k bits.
        let n = 7;
        let t = 1;
        let m = 8;
        let res = {
            let coins = coin_shares(n, t, 40);
            let dealers: Vec<PartyId> = (1..=n).collect();
            let fleet = (1..=n).map(|id| machine(t, m, coins[id - 1], &dealers)).collect();
            StepRunner::new(n, 41).run(fleet)
        };
        assert_eq!(res.report.comm.rounds, 3);
        // n² deal + n² expose + n² (batched) beta messages.
        assert_eq!(res.report.comm.messages as usize, 3 * n * n);
        let k_bytes = 4;
        let deal_bytes = n * n * (m + 1) * k_bytes;
        let expose_bytes = n * n * k_bytes;
        // Each beta message carries n (dealer, value) entries.
        let beta_bytes = n * n * n * (k_bytes + 1);
        assert_eq!(
            res.report.comm.bytes as usize,
            deal_bytes + expose_bytes + beta_bytes
        );
    }
}
