//! Graceful degradation: bounded retry with explicit seed-budget
//! accounting.
//!
//! The paper's protocols consume *sealed coins* as a resource: Coin-Gen
//! burns `1 + attempts` wallet coins per run (the challenge plus one per
//! leader election). When a run fails — seed exhaustion, a failed expose,
//! no agreement — the natural recovery is to retry, but naive retry loops
//! can silently drain the distributed seed that the whole system's
//! amortized cost story depends on (Theorem 2 charges `O(1)` seeds per
//! batch *in expectation*; an adversary that forces retries attacks
//! exactly that expectation).
//!
//! [`coin_gen_with_retry`] makes the trade-off explicit: the caller sets a
//! [`RetryPolicy`] with an attempt cap **and a seed budget**, every wallet
//! coin consumed (by successes and failures alike) is accounted against
//! the budget, and the loop refuses to start an attempt the budget cannot
//! cover — surfacing [`ProtocolError::SeedBudgetExceeded`] with exact
//! spending figures instead of an empty wallet. All honest parties make
//! identical retry decisions (failures are symmetric deterministic
//! functions of the same traffic), so the loop stays in lock-step without
//! extra coordination.

use dprbg_field::Field;
use dprbg_sim::{looping, LoopControl, MachineExt, RoundMachine};

use crate::coin::CoinWallet;
use crate::coin_gen::{CoinBatch, CoinGenConfig, CoinGenMachine, CoinGenWire};
use crate::errors::{CoinGenError, ProtocolError};
use crate::params::Params;

/// The cheapest possible Coin-Gen run: one challenge coin plus one
/// leader-election coin.
pub const MIN_SEEDS_PER_ATTEMPT: usize = 2;

/// Bounds on a retry loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum protocol runs (the first run counts as an attempt; 0 is
    /// refused with [`ProtocolError::BadParams`]).
    pub max_attempts: usize,
    /// Total wallet coins the loop may consume across all attempts.
    pub seed_budget: usize,
}

impl RetryPolicy {
    /// A single attempt with `budget` seeds — retry disabled.
    pub fn single(budget: usize) -> Self {
        RetryPolicy { max_attempts: 1, seed_budget: budget }
    }
}

/// What a (successful) retry loop actually cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryReport {
    /// Protocol runs made, including the successful one.
    pub attempts: usize,
    /// Wallet coins consumed across all runs (failures included).
    pub seeds_spent: usize,
}

/// Loop state threaded between Coin-Gen attempts.
struct RetrySt<F: Field> {
    wallet: CoinWallet<F>,
    attempts: usize,
    seeds_spent: usize,
    /// Wallet length when the attempt in flight started.
    before: usize,
    /// The attempt's result, once it lands.
    outcome: Option<Result<CoinBatch<F>, CoinGenError>>,
}

/// A machine running Coin-Gen under `policy`, retrying failed runs while
/// the attempt cap and seed budget allow.
///
/// Every attempt's wallet consumption is measured as the wallet-length
/// delta, so the accounting covers failed runs (which still burn the
/// challenge and any leader coins popped before the failure). The
/// seed-budget bound is asserted on success: a batch is never returned
/// with more than `policy.seed_budget` coins spent.
///
/// The result half of the output carries
/// [`ProtocolError::SeedBudgetExceeded`] when the budget cannot cover the
/// next attempt (including a budget below [`MIN_SEEDS_PER_ATTEMPT`] up
/// front); [`ProtocolError::BadParams`] when `policy.max_attempts` is
/// zero, in zero rounds and before any seed is popped; otherwise the
/// final attempt's error, converted into the unified taxonomy.
#[allow(clippy::type_complexity, reason = "the retry output tuple is spelled once, here")]
pub fn coin_gen_with_retry<M: CoinGenWire<F>, F: Field>(
    cfg: CoinGenConfig,
    wallet: CoinWallet<F>,
    policy: RetryPolicy,
) -> impl RoundMachine<
    M,
    Output = (CoinWallet<F>, Result<(CoinBatch<F>, RetryReport), ProtocolError>),
> {
    let init = RetrySt { wallet, attempts: 0, seeds_spent: 0, before: 0, outcome: None };
    looping(init, move |mut st: RetrySt<F>| {
        if policy.max_attempts == 0 {
            let Params { n, t } = cfg.params;
            let need = "a retry policy must allow at least one attempt";
            return LoopControl::Break((st.wallet, Err(ProtocolError::BadParams { n, t, need })));
        }
        if let Some(res) = st.outcome.take() {
            st.seeds_spent += st.before - st.wallet.len();
            st.attempts += 1;
            match res {
                Ok(batch) => {
                    debug_assert_eq!(
                        batch.seeds_consumed,
                        st.before - st.wallet.len(),
                        "wallet delta must match the batch's own accounting"
                    );
                    assert!(
                        st.seeds_spent <= policy.seed_budget + batch.seeds_consumed,
                        "seed spending {} violates budget {} by more than the final \
                         attempt's own cost",
                        st.seeds_spent,
                        policy.seed_budget
                    );
                    let report =
                        RetryReport { attempts: st.attempts, seeds_spent: st.seeds_spent };
                    return LoopControl::Break((st.wallet, Ok((batch, report))));
                }
                Err(e) => {
                    if st.attempts >= policy.max_attempts
                        || st.wallet.len() < MIN_SEEDS_PER_ATTEMPT
                    {
                        return LoopControl::Break((st.wallet, Err(e.into())));
                    }
                    // Otherwise fall through: the budget check below
                    // decides whether another run may start.
                }
            }
        }
        if st.seeds_spent + MIN_SEEDS_PER_ATTEMPT > policy.seed_budget {
            return LoopControl::Break((
                st.wallet,
                Err(ProtocolError::SeedBudgetExceeded {
                    spent: st.seeds_spent,
                    budget: policy.seed_budget,
                }),
            ));
        }
        let RetrySt { wallet, attempts, seeds_spent, .. } = st;
        let before = wallet.len();
        LoopControl::Continue(Box::new(CoinGenMachine::new(cfg, wallet).map(
            move |(w, res)| RetrySt {
                wallet: w,
                attempts,
                seeds_spent,
                before,
                outcome: Some(res),
            },
        )))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coin_gen::CoinGenMsg;
    use crate::dealer::TrustedDealer;
    use dprbg_field::Gf2k;
    use dprbg_sim::{from_fn, BoxedMachine, FaultPlan, RoundView, Step, StepRunner};

    type F = Gf2k<32>;
    type M = CoinGenMsg<F>;

    fn wallets(n: usize, t: usize, count: usize, seed: u64) -> Vec<CoinWallet<F>> {
        let params = Params::p2p_model(n, t).unwrap();
        TrustedDealer::deal_wallets::<F>(params, count, seed)
    }

    #[test]
    fn first_try_success_accounts_exactly() {
        let n = 7;
        let t = 1;
        let cfg = CoinGenConfig { params: Params::p2p_model(n, t).unwrap(), batch_size: 4 };
        let policy = RetryPolicy { max_attempts: 3, seed_budget: 8 };
        type Out = Result<(CoinBatch<F>, RetryReport), ProtocolError>;
        let machines: Vec<BoxedMachine<M, Out>> = wallets(n, t, 8, 100)
            .into_iter()
            .map(|w| {
                Box::new(coin_gen_with_retry::<M, F>(cfg, w, policy).map(|(_, res)| res))
                    as BoxedMachine<M, _>
            })
            .collect();
        for out in StepRunner::new(n, 101).run(machines).unwrap_all() {
            let (batch, report) = out.unwrap();
            assert_eq!(report.attempts, 1);
            assert_eq!(report.seeds_spent, batch.seeds_consumed);
            assert!(report.seeds_spent <= 8);
        }
    }

    #[test]
    fn unaffordable_budget_rejected_up_front() {
        let n = 7;
        let t = 1;
        let cfg = CoinGenConfig { params: Params::p2p_model(n, t).unwrap(), batch_size: 4 };
        // A budget of 1 cannot cover even the cheapest run.
        let policy = RetryPolicy::single(1);
        type Out = Result<(CoinBatch<F>, RetryReport), ProtocolError>;
        let machines: Vec<BoxedMachine<M, Out>> = wallets(n, t, 8, 110)
            .into_iter()
            .map(|w| {
                Box::new(coin_gen_with_retry::<M, F>(cfg, w, policy).map(|(_, res)| res))
                    as BoxedMachine<M, _>
            })
            .collect();
        for out in StepRunner::new(n, 111).run(machines).unwrap_all() {
            assert_eq!(
                out.unwrap_err(),
                ProtocolError::SeedBudgetExceeded { spent: 0, budget: 1 }
            );
        }
    }

    #[test]
    fn zero_attempt_policy_fails_closed() {
        let n = 7;
        let t = 1;
        let cfg = CoinGenConfig { params: Params::p2p_model(n, t).unwrap(), batch_size: 4 };
        let policy = RetryPolicy { max_attempts: 0, seed_budget: 8 };
        let machines: Vec<BoxedMachine<M, _>> = wallets(n, t, 8, 160)
            .into_iter()
            .map(|w| {
                Box::new(coin_gen_with_retry::<M, F>(cfg, w, policy).map(|(w, res)| (w.len(), res)))
                    as _
            })
            .collect();
        let res = StepRunner::new(n, 161).run(machines);
        assert!(res.rounds.is_empty(), "refused before any message is sent");
        for (left, out) in res.unwrap_all() {
            assert_eq!(left, 8usize, "no seed may be popped");
            assert!(
                matches!(out, Err(ProtocolError::BadParams { n: 7, t: 1, .. })),
                "expected BadParams, got {out:?}"
            );
        }
    }

    #[test]
    fn budget_of_exactly_min_seeds_per_attempt_succeeds() {
        // The boundary case: a budget of exactly MIN_SEEDS_PER_ATTEMPT
        // (challenge + one leader election) must be allowed to start —
        // and a healthy first try spends precisely that.
        let n = 7;
        let t = 1;
        let cfg = CoinGenConfig { params: Params::p2p_model(n, t).unwrap(), batch_size: 4 };
        let policy = RetryPolicy { max_attempts: 2, seed_budget: MIN_SEEDS_PER_ATTEMPT };
        type Out = Result<(CoinBatch<F>, RetryReport), ProtocolError>;
        let machines: Vec<BoxedMachine<M, Out>> = wallets(n, t, 4, 130)
            .into_iter()
            .map(|w| {
                Box::new(coin_gen_with_retry::<M, F>(cfg, w, policy).map(|(_, res)| res))
                    as BoxedMachine<M, _>
            })
            .collect();
        for out in StepRunner::new(n, 131).run(machines).unwrap_all() {
            let (batch, report) = out.unwrap();
            assert_eq!(report.attempts, 1);
            assert_eq!(report.seeds_spent, MIN_SEEDS_PER_ATTEMPT);
            assert_eq!(batch.seeds_consumed, MIN_SEEDS_PER_ATTEMPT);
        }
    }

    #[test]
    fn budget_exhausted_mid_attempt_reports_overshoot() {
        // Consumption is accounted when an attempt lands, so a failing
        // attempt can overshoot the budget mid-flight (each failed leader
        // election inside the run burns another wallet coin). The loop
        // must then refuse the next attempt and report the *actual*
        // spend — spent > budget, not a clamped figure — identically at
        // every surviving party.
        let n = 7;
        let t = 1;
        let cfg = CoinGenConfig { params: Params::p2p_model(n, t).unwrap(), batch_size: 4 };
        // Deep wallet: the crashed run fails with NoAgreement after its
        // internal leader-attempt cap, leaving seeds in the wallet but a
        // spend far past the budget.
        let ws = wallets(n, t, 36, 140);
        let plan = FaultPlan::explicit(n, vec![5, 6, 7]);
        let policy = RetryPolicy { max_attempts: 4, seed_budget: 8 };
        let machines = plan.machines::<M, Option<Result<RetryReport, ProtocolError>>>(
            |id| {
                let w = ws[id - 1].clone();
                Box::new(
                    coin_gen_with_retry::<M, F>(cfg, w, policy)
                        .map(|(_, res)| Some(res.map(|(_, report)| report))),
                )
            },
            |_| Box::new(from_fn(|_view: RoundView<'_, M>| Step::Done(None))),
        );
        let res = StepRunner::new(n, 141).run(machines);
        let mut errors = Vec::new();
        for id in plan.honest() {
            let out = res.outputs[id - 1].clone().unwrap().unwrap();
            errors.push(out.unwrap_err());
        }
        assert!(errors.windows(2).all(|w| w[0] == w[1]), "parties disagree: {errors:?}");
        match &errors[0] {
            ProtocolError::SeedBudgetExceeded { spent, budget } => {
                assert_eq!(*budget, 8);
                assert!(
                    *spent > *budget,
                    "a mid-attempt exhaustion must report the overshoot (spent {spent})"
                );
                // Exact figure: the one failed attempt burned 9 seeds
                // (challenge + its leader elections) — one past the
                // budget, reported as-is rather than clamped.
                assert_eq!(*spent, 9);
            }
            other => panic!("expected SeedBudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn retry_single_surfaces_exact_spend_figures() {
        // RetryPolicy::single disables retry but keeps the budget
        // discipline: an unaffordable budget surfaces SeedBudgetExceeded
        // with exact figures (nothing spent, the budget as configured),
        // and an affordable one succeeds in exactly one attempt.
        let n = 7;
        let t = 1;
        let cfg = CoinGenConfig { params: Params::p2p_model(n, t).unwrap(), batch_size: 4 };
        type Out = Result<(CoinBatch<F>, RetryReport), ProtocolError>;
        for budget in 0..MIN_SEEDS_PER_ATTEMPT {
            let policy = RetryPolicy::single(budget);
            let machines: Vec<BoxedMachine<M, Out>> = wallets(n, t, 4, 150)
                .into_iter()
                .map(|w| {
                    Box::new(coin_gen_with_retry::<M, F>(cfg, w, policy).map(|(_, res)| res))
                        as BoxedMachine<M, _>
                })
                .collect();
            for out in StepRunner::new(n, 151).run(machines).unwrap_all() {
                assert_eq!(
                    out.unwrap_err(),
                    ProtocolError::SeedBudgetExceeded { spent: 0, budget },
                    "budget {budget} must be rejected before any seed is popped"
                );
            }
        }
        let machines: Vec<BoxedMachine<M, Out>> = wallets(n, t, 4, 150)
            .into_iter()
            .map(|w| {
                Box::new(
                    coin_gen_with_retry::<M, F>(cfg, w, RetryPolicy::single(2))
                        .map(|(_, res)| res),
                ) as BoxedMachine<M, _>
            })
            .collect();
        for out in StepRunner::new(n, 151).run(machines).unwrap_all() {
            let (_, report) = out.unwrap();
            assert_eq!((report.attempts, report.seeds_spent), (1, 2));
        }
    }

    #[test]
    fn over_threshold_crashes_exhaust_budget_gracefully() {
        // 3 of 7 parties crash with t = 1 (f > t): no n − 2t clique can
        // form, so every leader attempt fails and burns a seed. The retry
        // loop must stop with an explicit budget/exhaustion error rather
        // than loop forever — and all surviving parties must agree on it.
        let n = 7;
        let t = 1;
        let cfg = CoinGenConfig { params: Params::p2p_model(n, t).unwrap(), batch_size: 4 };
        let ws = wallets(n, t, 5, 120);
        let plan = FaultPlan::explicit(n, vec![5, 6, 7]);
        let machines = plan.machines::<M, Option<Result<RetryReport, ProtocolError>>>(
            |id| {
                let w = ws[id - 1].clone();
                let policy = RetryPolicy { max_attempts: 4, seed_budget: 4 };
                Box::new(
                    coin_gen_with_retry::<M, F>(cfg, w, policy)
                        .map(|(_, res)| Some(res.map(|(_, report)| report))),
                )
            },
            |_| Box::new(from_fn(|_view: RoundView<'_, M>| Step::Done(None))),
        );
        let res = StepRunner::new(n, 121).run(machines);
        let mut errors = Vec::new();
        for id in plan.honest() {
            let out = res.outputs[id - 1].clone().unwrap().unwrap();
            errors.push(out.unwrap_err());
        }
        // Unanimous graceful failure.
        assert!(errors.windows(2).all(|w| w[0] == w[1]), "parties disagree: {errors:?}");
        match &errors[0] {
            ProtocolError::SeedBudgetExceeded { spent, budget } => {
                assert!(*spent >= *budget + 1 - MIN_SEEDS_PER_ATTEMPT);
            }
            ProtocolError::SeedExhausted | ProtocolError::NoAgreement { .. } => {}
            other => panic!("unexpected terminal error {other:?}"),
        }
    }
}
