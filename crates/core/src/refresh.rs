//! Proactive share refresh: the §1.2 extension.
//!
//! "One of the motivations and applications of our work is pro-active
//! security (e.g., [8, 16]), which deals with settings where intruders
//! are allowed to move over time. Our solution to multiple-coin
//! generation can be easily adapted to this scenario." (§1.2.)
//!
//! A *mobile* adversary corrupts different parties in different epochs;
//! if the shares of a sealed coin stay fixed, the adversary can collect
//! more than `t` of them across epochs and read the coin early. The
//! classical fix (Herzberg–Jarecki–Krawczyk–Yung \[16\]) re-randomizes
//! every share at each epoch boundary by adding fresh sharings of
//! **zero** — the coin values are untouched, but shares from different
//! epochs become mutually useless.
//!
//! [`RefreshMachine`] is exactly the paper's machinery "adapted to this
//! scenario": every party runs Bit-Gen in [`BitGenMode::ZeroRefresh`]
//! (dealing `W` zero-polynomials, one per wallet coin; acceptance
//! additionally checks the combination vanishes at the origin, so a
//! cheating dealer cannot shift coin values w.p. > 1 − W/p), the
//! Coin-Gen clique/grade-cast/BA pipeline agrees on which dealers'
//! zero-batches to apply, and each party replaces its share of coin `h`
//! by `σ'_i = σ_i + Σ_{j∈C} z_{j,h}(i)`.
//!
//! Cost: identical to one Coin-Gen run at batch size `W` — the refresh
//! rides the same amortization (Corollary 3).

use std::mem;

use dprbg_field::Field;
use dprbg_metrics::WireSize;
use dprbg_protocols::BaMsg;
use dprbg_sim::{Embeds, PartyId, RoundMachine, RoundView, Step};

use crate::bit_gen::{BitGenMachine, BitGenMode, BitGenMsg};
use crate::coin::{CoinWallet, ExposeMsg, SealedShare};
use crate::coin_gen::{AgreeMachine, CliqueAnnounce, CoinGenConfig};
use crate::errors::CoinGenError;
use crate::params::Params;
use dprbg_protocols::GcMsg;

/// The outcome of one wallet refresh.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefreshReport {
    /// The agreed set of zero-dealers whose maskings were applied.
    pub dealers: Vec<PartyId>,
    /// Coins re-randomized (the wallet size at refresh time).
    pub coins_refreshed: usize,
    /// Leader attempts the agreement loop took.
    pub attempts: usize,
    /// Seed coins consumed (1 challenge + 1 per attempt).
    pub seeds_consumed: usize,
}

/// The proactive refresh as a sans-IO round machine: Bit-Gen in
/// [`BitGenMode::ZeroRefresh`] followed by the dealer agreement
/// (`AgreeMachine`), with the zero-maskings folded into the surviving
/// wallet coins at the end.
///
/// Every honest party runs this machine in the same round with wallets
/// of the same length. The run consumes `1 + attempts` coins from the
/// wallet to drive the protocol (those are spent, not refreshed); every
/// remaining coin's *value* is preserved while its shares are replaced.
/// A party whose zero-shares fail the fit check keeps
/// [`SealedShare::absent()`] for the epoch (it still learns coins from
/// the other parties' exposes). The error half of the output has the
/// same failure modes as [`crate::coin_gen::CoinGenMachine`].
pub struct RefreshMachine<M, F: Field> {
    params: Params,
    stage: RfStage<M, F>,
}

enum RfStage<M, F: Field> {
    /// First call: pop the challenge, fix `W_upper`, start the zero deal.
    Start { wallet: CoinWallet<F> },
    /// Steps 1–3 (ZeroRefresh) in flight.
    BitGen { bg: BitGenMachine<M, F>, wallet: CoinWallet<F>, w_upper: usize },
    /// Steps 4–11 in flight.
    Agree { agree: AgreeMachine<M, F>, w_upper: usize },
    Finished,
}

impl<M, F: Field> RefreshMachine<M, F> {
    /// A machine refreshing every share in `wallet` under `cfg.params`
    /// (the batch size is the wallet length; `cfg.batch_size` is unused).
    pub fn new(cfg: CoinGenConfig, wallet: CoinWallet<F>) -> Self {
        RefreshMachine { params: cfg.params, stage: RfStage::Start { wallet } }
    }
}

impl<M, F> RoundMachine<M> for RefreshMachine<M, F>
where
    M: Clone
        + WireSize
        + Embeds<BitGenMsg<F>>
        + Embeds<ExposeMsg<F>>
        + Embeds<GcMsg<CliqueAnnounce<F>>>
        + Embeds<BaMsg>,
    F: Field,
{
    type Output = (CoinWallet<F>, Result<RefreshReport, CoinGenError>);

    fn round(&mut self, mut view: RoundView<'_, M>) -> Step<M, Self::Output> {
        let Params { n, t } = self.params;
        match mem::replace(&mut self.stage, RfStage::Finished) {
            RfStage::Start { mut wallet } => {
                assert_eq!(view.n, n, "network size must match the configured n");

                // The protocol itself consumes seed coins; pop the
                // challenge first so the refreshed count is what remains.
                let r_coin = match wallet.pop() {
                    Ok(c) => c,
                    Err(_) => {
                        return Step::Done((wallet, Err(CoinGenError::SeedExhausted)))
                    }
                };

                // Upper-bound the zero-sharings: the agreement loop still
                // consumes leader coins off the front, so deal one
                // zero-polynomial per coin that can possibly survive.
                let w_upper = wallet.len();
                if w_upper == 0 {
                    return Step::Done((wallet, Err(CoinGenError::SeedExhausted)));
                }

                // Steps 1–3 in ZeroRefresh mode.
                let dealers: Vec<PartyId> = (1..=n).collect();
                let mut bg = BitGenMachine::new(
                    t,
                    w_upper,
                    r_coin,
                    dealers,
                    BitGenMode::ZeroRefresh,
                );
                let Step::Continue(out) = bg.round(view.reborrow()) else {
                    unreachable!("bit-gen deals on its first call")
                };
                self.stage = RfStage::BitGen { bg, wallet, w_upper };
                Step::Continue(out)
            }
            RfStage::BitGen { mut bg, wallet, w_upper } => {
                match bg.round(view.reborrow()) {
                    Step::Continue(out) => {
                        self.stage = RfStage::BitGen { bg, wallet, w_upper };
                        Step::Continue(out)
                    }
                    Step::Done(Err(e)) => Step::Done((wallet, Err(e.into()))),
                    Step::Done(Ok(run)) => {
                        // Steps 4–11: agree on the zero-dealer clique.
                        let mut agree = AgreeMachine::new(self.params, wallet, run);
                        let Step::Continue(out) = agree.round(view.reborrow()) else {
                            unreachable!("agreement grade-casts on its first call")
                        };
                        self.stage = RfStage::Agree { agree, w_upper };
                        Step::Continue(out)
                    }
                }
            }
            RfStage::Agree { mut agree, w_upper } => match agree.round(view.reborrow()) {
                Step::Continue(out) => {
                    self.stage = RfStage::Agree { agree, w_upper };
                    Step::Continue(out)
                }
                Step::Done((_, wallet, Err(e))) => Step::Done((wallet, Err(e))),
                Step::Done((run, mut wallet, Ok(agreement))) => {
                    let announce = &agreement.announce;
                    let dealer_set = announce.dealers();

                    // Apply the maskings to every coin still in the
                    // wallet. Coin index alignment: wallet coins are
                    // refreshed oldest-first with the first zero-sharings;
                    // the leader coins the loop consumed came off the
                    // front, so surviving coin `h` (0-based from the
                    // current front) uses zero-sharing
                    // `h + consumed_by_loop`.
                    let offset = agreement.seeds_consumed;
                    let my_point = F::element(view.id as u64);
                    let i_fit = announce.pairs.iter().all(|(j, f)| {
                        run.views[j - 1].my_beta == Some(f.eval(my_point))
                            && run.views[j - 1].alphas.len() == w_upper
                    });

                    let survivors = wallet.len();
                    let mut refreshed = CoinWallet::new();
                    let mut h = 0;
                    while let Ok(old) = wallet.pop() {
                        let idx = h + offset;
                        let share = match (old.sigma, i_fit) {
                            (Some(sigma), true) if idx < w_upper => {
                                let mask: F = dealer_set
                                    .iter()
                                    .map(|&j| run.views[j - 1].alphas[idx])
                                    .sum();
                                SealedShare::of(sigma + mask)
                            }
                            // Either I could not vouch before, my
                            // zero-shares do not fit, or the sharing index
                            // ran out — abstain for this epoch.
                            _ => SealedShare::absent(),
                        };
                        refreshed.push(share);
                        h += 1;
                    }

                    Step::Done((
                        refreshed,
                        Ok(RefreshReport {
                            dealers: dealer_set,
                            coins_refreshed: survivors,
                            attempts: agreement.attempts,
                            seeds_consumed: 1 + agreement.seeds_consumed,
                        }),
                    ))
                }
            },
            #[expect(clippy::panic, reason = "driver contract: round() is never called after Done")]
            RfStage::Finished => panic!("RefreshMachine driven past completion"),
        }
    }

    fn phase_name(&self) -> &'static str {
        match &self.stage {
            RfStage::Start { .. } => "refresh/start",
            RfStage::BitGen { bg, .. } => bg.phase_name(),
            RfStage::Agree { agree, .. } => agree.phase_name(),
            RfStage::Finished => "refresh/finished",
        }
    }
}

#[cfg(test)]
#[allow(clippy::type_complexity)]
mod tests {
    use super::*;
    use crate::coin::{decode_coin, ExposeMachine, ExposeVia};
    use crate::coin_gen::CoinGenMsg;
    use crate::dealer::TrustedDealer;
    use crate::errors::CoinError;
    use dprbg_field::Gf2k;
    use dprbg_poly::bw_decode;
    use dprbg_sim::{looping, BoxedMachine, FaultPlan, LoopControl, MachineExt, StepRunner};

    type F = Gf2k<32>;
    type M = CoinGenMsg<F>;

    fn cfg(n: usize, t: usize) -> CoinGenConfig {
        CoinGenConfig {
            params: Params::p2p_model(n, t).unwrap(),
            batch_size: 0, // unused by refresh
        }
    }

    /// Expose every coin left in `w`, one round-trip per coin, collecting
    /// the decoded values in order.
    fn expose_all(
        w: CoinWallet<F>,
        report: RefreshReport,
        t: usize,
    ) -> impl RoundMachine<M, Output = (RefreshReport, Vec<F>)> {
        looping((w, report, Vec::new()), move |(mut w, report, vals)| match w.pop() {
            Err(_) => LoopControl::Break((report, vals)),
            Ok(s) => LoopControl::Continue(Box::new(
                ExposeMachine::new(s, t, ExposeVia::PointToPoint).map(
                    move |r: Result<F, CoinError>| {
                        let mut vals = vals;
                        vals.push(r.expect("expose succeeds"));
                        (w, report, vals)
                    },
                ),
            )),
        })
    }

    /// Refresh, then expose every surviving coin to check the values.
    fn refresh_then_expose(
        c: CoinGenConfig,
        wallet: CoinWallet<F>,
        t: usize,
    ) -> BoxedMachine<M, (RefreshReport, Vec<F>)> {
        Box::new(RefreshMachine::new(c, wallet).then(
            move |(w, res): (CoinWallet<F>, Result<RefreshReport, CoinGenError>)| {
                expose_all(w, res.expect("refresh succeeds"), t)
            },
        ))
    }

    #[test]
    fn values_preserved_shares_changed() {
        let n = 7;
        let t = 1;
        let c = cfg(n, t);
        let (wallets, values) =
            TrustedDealer::deal_wallets_with_values::<F>(c.params, 8, 5);
        let machines: Vec<BoxedMachine<M, (RefreshReport, Vec<F>)>> =
            wallets.into_iter().map(|w| refresh_then_expose(c, w, t)).collect();
        let outs = StepRunner::new(n, 6).run(machines).unwrap_all();
        let (report, vals) = &outs[0];
        assert_eq!(report.seeds_consumed, 2);
        assert_eq!(report.coins_refreshed, 6); // 8 dealt − 2 consumed
        // The exposed values equal the original dealer values, shifted by
        // the 2 consumed coins.
        assert_eq!(vals.as_slice(), &values[2..]);
        for (_, v) in &outs {
            assert_eq!(v, vals, "unanimity after refresh");
        }
    }

    #[test]
    fn mixed_epoch_shares_do_not_reconstruct() {
        // The proactive property: t shares from before the refresh plus
        // honest shares from after belong to *different* polynomials —
        // the mobile adversary cannot combine epochs.
        let n = 7;
        let t = 1;
        let c = cfg(n, t);
        let (wallets, values) =
            TrustedDealer::deal_wallets_with_values::<F>(c.params, 4, 9);
        let pre_refresh: Vec<Option<F>> = wallets
            .iter()
            .map(|w| {
                // Peek at what will be coin index 2 (first survivor).
                let mut copy = w.clone();
                copy.pop().unwrap();
                copy.pop().unwrap();
                copy.pop().unwrap().sigma
            })
            .collect();
        let machines: Vec<BoxedMachine<M, Option<F>>> = wallets
            .into_iter()
            .map(|w| {
                Box::new(RefreshMachine::new(c, w).map(
                    |(mut w, res): (CoinWallet<F>, Result<RefreshReport, CoinGenError>)| {
                        res.ok()?;
                        w.pop().ok()?.sigma
                    },
                )) as BoxedMachine<M, _>
            })
            .collect();
        let post: Vec<Option<F>> = StepRunner::new(n, 10).run(machines).unwrap_all();

        // Post-refresh shares alone reconstruct the original value.
        let post_pts: Vec<(F, F)> = post
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|y| (F::element(i as u64 + 1), y)))
            .collect();
        assert_eq!(decode_coin(&post_pts, t).unwrap(), values[2]);

        // A mixed set — old shares from parties 1..=3, new from 4..=7 —
        // fits NO degree-≤t polynomial (the whole point of refreshing).
        let mixed: Vec<(F, F)> = (0..n)
            .filter_map(|i| {
                let s = if i < 3 { pre_refresh[i] } else { post[i] };
                s.map(|y| (F::element(i as u64 + 1), y))
            })
            .collect();
        assert!(
            bw_decode(&mixed, t, 0).is_err(),
            "mixed-epoch shares must not form a valid sharing"
        );
    }

    #[test]
    fn refresh_survives_byzantine_zero_dealer() {
        // A faulty party deals NON-zero "zero" sharings (trying to shift
        // coin values): the F(0) = 0 acceptance check must exclude it,
        // and values stay intact.
        let n = 7;
        let t = 1;
        let c = cfg(n, t);
        let plan = FaultPlan::explicit(n, vec![3]);
        let (all, values) = TrustedDealer::deal_wallets_with_values::<F>(c.params, 5, 11);
        let machines = plan.machines::<M, Option<(usize, Vec<F>)>>(
            |id| {
                let w = all[id - 1].clone();
                Box::new(
                    RefreshMachine::new(c, w)
                        .then(
                            move |(w, res): (
                                CoinWallet<F>,
                                Result<RefreshReport, CoinGenError>,
                            )| {
                                let report = res.expect("refresh succeeds");
                                // The value-shifting dealer must not be in
                                // the set.
                                assert!(!report.dealers.contains(&3));
                                expose_all(w, report, 1)
                            },
                        )
                        .map(|(report, vals)| Some((report.seeds_consumed, vals))),
                )
            },
            |_| {
                // Run the honest protocol but with RandomCoins mode: i.e.
                // deal *random* (value-shifting) polynomials in the
                // refresh. Then vanish.
                let mut w = all[2].clone();
                let r_coin = w.pop().expect("wallet not empty");
                let dealers: Vec<PartyId> = (1..=n).collect();
                Box::new(
                    BitGenMachine::<M, F>::new(1, 4, r_coin, dealers, BitGenMode::RandomCoins)
                        .map(|_| None),
                )
            },
        );
        let res = StepRunner::new(n, 12).run(machines);
        // How many seed coins the agreement burned is execution-dependent
        // (the leader coin can keep electing the crashed party, Lemma 8
        // only bounds the *expected* attempts); the survivors must equal
        // the dealt values with exactly that prefix consumed.
        let mut seen: Option<&(usize, Vec<F>)> = None;
        for id in plan.honest() {
            let out = res.outputs[id - 1].as_ref().unwrap().as_ref().unwrap();
            let (seeds_consumed, vals) = out;
            assert!(*seeds_consumed >= 2, "challenge + at least one leader coin");
            // Leader elections are biased away from BA-rejected parties,
            // so the crashed dealer can cost at most one wasted attempt:
            // challenge + its rejection + one honest leader.
            assert!(*seeds_consumed <= 3, "rejected leader must not be re-elected");
            assert_eq!(
                vals.as_slice(),
                &values[*seeds_consumed..],
                "values preserved at {id}"
            );
            match seen {
                None => seen = Some(out),
                Some(prev) => assert_eq!(prev, out, "unanimity after refresh"),
            }
        }
    }

    #[test]
    fn empty_wallet_fails_cleanly() {
        let n = 7;
        let t = 1;
        let c = cfg(n, t);
        let machines: Vec<BoxedMachine<M, Option<CoinGenError>>> = (0..n)
            .map(|_| {
                Box::new(
                    RefreshMachine::new(c, CoinWallet::<F>::new())
                        .map(|(_, res): (CoinWallet<F>, _)| res.err()),
                ) as BoxedMachine<M, _>
            })
            .collect();
        for out in StepRunner::new(n, 13).run(machines).unwrap_all() {
            assert_eq!(out, Some(CoinGenError::SeedExhausted));
        }
    }
}
