//! Service-level behaviour: sustained serving with pipelined refills,
//! backpressure outcomes, supervisor policy under over-threshold
//! adversaries, and read-only degradation at seed exhaustion.

use dprbg_beacon::{
    BeaconConfig, BeaconService, DrawOutcome, EpochDecision, ExecutorKind, Mode, ReservoirConfig,
};
use dprbg_core::{CoinGenConfig, Params, ProtocolError, RetryPolicy};
use dprbg_field::Gf2k;
use dprbg_sim::Attack;

type F = Gf2k<32>;

fn config() -> BeaconConfig {
    BeaconConfig {
        coin_gen: CoinGenConfig { params: Params::p2p_model(7, 1).unwrap(), batch_size: 8 },
        reservoir: ReservoirConfig { capacity: 8, low_water: 2 },
        wallet_low_water: 4,
        retry: RetryPolicy { max_attempts: 3, seed_budget: 8 },
        max_backoff_exp: 3,
        max_rounds_per_epoch: 4096,
    }
}

#[test]
fn sustained_serving_with_pipelined_refills() {
    let mut svc = BeaconService::<F>::new(config(), 0xFEED, 10);
    let mut served = 0u64;
    for e in 0..30 {
        let report = svc.run_epoch(ExecutorKind::Step, &[(1, 1), (2, 1)], None).unwrap();
        assert_eq!(report.epoch, e);
        served += report.draws.iter().filter(|(_, o)| o.coin().is_some()).count() as u64;
    }
    let stats = svc.stats();
    assert_eq!(stats.epochs, 30);
    assert_eq!(stats.coins_served, served);
    assert!(stats.refills >= 2, "30 epochs at 2 coins/epoch must refill: {stats:?}");
    assert_eq!(stats.refill_failures, 0);
    assert_eq!(stats.rollbacks, 0);
    assert_eq!(stats.starved, 0);
    // Most demand is met once the pipeline is warm.
    assert!(served >= 50, "served only {served}/60");
    assert_eq!(svc.supervisor().mode(), Mode::Active);
    // The ledger accounts PRG work (the §1.4 comparison currency).
    assert!(svc.ledger().total().prg_invocations > 0);
    assert!(svc.ledger().total().interpolations > 0);
}

#[test]
fn stampede_gets_would_block_not_starved() {
    let mut svc = BeaconService::<F>::new(config(), 0xFEED2, 10);
    // Warm up one epoch, then demand far beyond stock + capacity.
    svc.run_epoch(ExecutorKind::Step, &[(1, 1)], None).unwrap();
    let report = svc.run_epoch(ExecutorKind::Step, &[(1, 40), (2, 40)], None).unwrap();
    let blocked =
        report.draws.iter().filter(|(_, o)| matches!(o, DrawOutcome::WouldBlock)).count();
    let granted = report.draws.iter().filter(|(_, o)| o.coin().is_some()).count();
    assert!(blocked > 0, "stampede must hit backpressure");
    assert!(granted > 0, "stampede must still drain the stock");
    assert!(
        !report.draws.iter().any(|(_, o)| matches!(o, DrawOutcome::Starved)),
        "a healthy beacon never starves"
    );
    // Fairness under contention: the two consumers' grants differ by ≤ 1.
    let g = |id: u32| report.draws.iter().filter(|(c, o)| *c == id && o.coin().is_some()).count();
    assert!(g(1).abs_diff(g(2)) <= 1, "unfair stampede split: {} vs {}", g(1), g(2));
}

#[test]
fn stampede_beyond_capacity_is_served_not_burned() {
    // REVIEW regression: with capacity 4 and a demand of 12, the old
    // deposit-then-serve order burned every exposed coin beyond capacity
    // (popped from the wallets, refused by the reservoir, lost). Fresh
    // exposes must answer the demand first; only the leftover cushion is
    // capacity-bounded.
    let mut cfg = config();
    cfg.reservoir = ReservoirConfig { capacity: 4, low_water: 2 };
    cfg.wallet_low_water = 0;
    let mut svc = BeaconService::<F>::new(cfg, 0xFEED5, 30);
    let report = svc.run_epoch(ExecutorKind::Step, &[(1, 12)], None).unwrap();
    let granted = report.draws.iter().filter(|(_, o)| o.coin().is_some()).count();
    assert_eq!(granted, 12, "demand beyond capacity must be served from fresh exposes");
    let stats = svc.stats();
    // Conservation: every wallet coin popped was exposed, and every
    // exposed coin was served or banked — none destroyed.
    assert_eq!(svc.wallet_level(), 30 - stats.coins_exposed as usize);
    assert_eq!(stats.coins_exposed, stats.coins_served + svc.reservoir().level() as u64);
    assert!(svc.reservoir().level() <= 4, "leftover respects the capacity bound");
}

#[test]
fn exposed_coins_are_conserved_across_a_soak() {
    // The conservation invariant holds at every epoch boundary of a
    // mixed run (refills, stampedes, backpressure): exposed coins are
    // exactly the served coins plus the current stock.
    let mut svc = BeaconService::<F>::new(config(), 0xFEED6, 12);
    for e in 0..40u64 {
        let demand = if e % 7 == 3 { 20 } else { 1 + (e % 3) as u32 };
        svc.run_epoch(ExecutorKind::Step, &[(1, demand), (2, 1)], None).unwrap();
        let stats = svc.stats();
        assert_eq!(
            stats.coins_exposed,
            stats.coins_served + svc.reservoir().level() as u64,
            "coin destroyed by epoch {e}"
        );
        assert!(svc.reservoir().level() <= 8, "stock above capacity after epoch {e}");
    }
    assert!(svc.stats().coins_served > 40, "the soak must actually serve");
}

#[test]
fn over_threshold_adversary_triggers_backoff_then_recovery() {
    // A deep wallet and an aggressive refill threshold: failed refills
    // under attack burn a bounded number of seeds (RetryPolicy::single)
    // without exhausting the wallet, so the supervisor backs off and
    // recovers instead of degrading to read-only.
    let mut cfg = config();
    cfg.wallet_low_water = 30;
    cfg.retry = RetryPolicy { max_attempts: 1, seed_budget: 4 };
    let mut svc = BeaconService::<F>::new(cfg, 0xFEED3, 40);
    // Hit the refill epochs with f = 3 > t crashes: Coin-Gen must fail,
    // the supervisor must back off, and a later clean epoch must succeed.
    let mut saw_failure = false;
    let mut saw_skip = false;
    let mut saw_recovery = false;
    for e in 0..40 {
        let fault = (10..=16).contains(&e).then_some((Attack::CrashAtRound { round: 0 }, 3));
        let report = svc.run_epoch(ExecutorKind::Step, &[(1, 2)], fault).unwrap();
        // A failed epoch surfaces either as a committed refill error
        // (symmetric failure) or a transactional rollback (divergence).
        if report.rolled_back || matches!(report.refill, Some(Err(_))) {
            saw_failure = true;
        } else if matches!(report.refill, Some(Ok(_))) && saw_failure {
            saw_recovery = true;
        }
        if report.decision == EpochDecision::Skip {
            saw_skip = true;
        }
    }
    assert!(saw_failure, "f > t crashes must fail a refill");
    assert!(saw_skip, "failures must schedule backoff epochs");
    assert!(saw_recovery, "the beacon must recover after the attack window");
    let stats = svc.stats();
    assert!(stats.refill_failures > 0 || stats.rollbacks > 0);
    assert!(stats.skipped_epochs > 0);
    assert_eq!(svc.supervisor().mode(), Mode::Active, "recovered mode");
}

#[test]
fn zero_attempt_retry_policy_fails_closed_and_backs_off() {
    // A policy allowing no attempt is refused at every refill epoch as a
    // failed refill (BadParams, no seed popped): the supervisor backs off
    // as for any other failure, and nothing panics.
    let mut cfg = config();
    cfg.wallet_low_water = 40;
    cfg.retry = RetryPolicy { max_attempts: 0, seed_budget: 8 };
    let mut svc = BeaconService::<F>::new(cfg, 0xFEED7, 40);
    let mut seen = Vec::new();
    for _ in 0..6 {
        let report = svc.run_epoch(ExecutorKind::Step, &[(1, 1)], None).unwrap();
        let refused = matches!(report.refill, Some(Err(ProtocolError::BadParams { n: 7, t: 1, .. })));
        seen.push((report.decision, refused));
    }
    // Epochs 0, 2 and 5 run and refuse; 1, 3 and 4 back off.
    let (run, skip) = ((EpochDecision::Run, true), (EpochDecision::Skip, false));
    assert_eq!(seen, [run, skip, run, skip, skip, run]);
    let stats = svc.stats();
    assert_eq!((stats.refills, stats.refill_failures), (0, 3));
    assert_eq!(svc.wallet_level(), 40 - stats.coins_exposed as usize, "only served coins left");
}

#[test]
fn seed_exhaustion_degrades_to_read_only_and_starves() {
    // One sealed coin is less than MIN_SEEDS_PER_ATTEMPT: the first
    // refill pops the challenge and runs dry — a *symmetric* failure
    // that commits (all parties agree on SeedExhausted), sinks the
    // wallet below any further attempt, and degrades the beacon to
    // read-only: empty-stock demand is answered Starved, never a panic.
    let cfg = config();
    let mut svc = BeaconService::<F>::new(cfg, 0xFEED4, 1);
    let mut starved = 0;
    let mut refill_errors = 0;
    for _ in 0..12 {
        let report = svc.run_epoch(ExecutorKind::Step, &[(9, 1)], None).unwrap();
        starved +=
            report.draws.iter().filter(|(_, o)| matches!(o, DrawOutcome::Starved)).count();
        refill_errors += matches!(report.refill, Some(Err(_))) as usize;
    }
    assert_eq!(refill_errors, 1, "exactly the first epoch's refill fails; then read-only");
    assert_eq!(svc.supervisor().mode(), Mode::ReadOnly);
    assert!(starved > 0, "read-only with empty stock must starve demand");
    assert!(svc.stats().starved > 0);
    assert!(svc.wallet_level() < 2);
    // Still snapshotable and restorable in the degraded state.
    let snap = svc.snapshot();
    let revived = BeaconService::<F>::restore(cfg, &snap).unwrap();
    assert_eq!(revived.supervisor().mode(), Mode::ReadOnly);
}
