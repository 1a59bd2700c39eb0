//! E15 — beacon soak: a crash-recoverable, epoch-pipelined
//! [`BeaconService`] driven for many epochs under a composite fault
//! schedule ([`SoakPlan::composite`]): seeded crashes (kill the process,
//! restore from the latest snapshot), consumer stampedes (reservoir
//! backpressure), and in-model adversary epochs (the
//! [`Attack`](dprbg_sim::Attack) menu applied to the epoch's protocol
//! traffic).
//!
//! The table reports the service-level throughput — coins served per
//! epoch (coins per wall-clock second is `benchmark/`'s `soak_n7`
//! `coins_per_s`), seeds spent per exposed coin, and PRG invocations
//! per exposed coin (the §1.4 comparison currency, read off the beacon's
//! merged cost ledger) — next to the resilience counters: backpressure
//! outcomes, refill failures, supervisor skips, transactional rollbacks,
//! crash-recovery latency, and the **unsound count, which must be zero**
//! (the run asserts it, mirroring the E12 campaign verdict).
//!
//! `seeds/coin` charges the gen plane's consumption (challenge +
//! leader-election seeds across retries) to the coins the epochs
//! exposed; the serve plane's one-wallet-share-per-coin is definitional
//! and excluded, so the column isolates the *overhead* seed bill.
//!
//! Crash-recovery determinism is re-proved at experiment scale: the
//! first row's soak is replayed with an extra kill/restore at its
//! midpoint boundary, and the final snapshots must be byte-identical —
//! the third table carries the verdict.

use dprbg_beacon::{BeaconConfig, BeaconService, BeaconStats, ExecutorKind, ReservoirConfig};
use dprbg_core::{CoinGenConfig, Params, RetryPolicy};
use dprbg_metrics::Table;
use dprbg_sim::{EpochFault, SoakPlan};

use super::common::{fmt_f, ExperimentCtx, F32};

/// Sealed coins dealt to the wallets before epoch 0 (the out-of-band
/// "Given", as in every other experiment).
const INITIAL_COINS: usize = 12;

/// The soak's beacon working point: n = 7, t = 1, batch M = 8.
fn config() -> BeaconConfig {
    BeaconConfig {
        coin_gen: CoinGenConfig {
            params: Params::p2p_model(7, 1).expect("7 > 6t for t = 1"),
            batch_size: 8,
        },
        reservoir: ReservoirConfig { capacity: 16, low_water: 4 },
        wallet_low_water: 6,
        retry: RetryPolicy { max_attempts: 3, seed_budget: 12 },
        max_backoff_exp: 3,
        max_rounds_per_epoch: 4096,
    }
}

/// The base demand schedule: a pure function of the epoch number (two
/// steady consumers), so a killed-and-restored run replays it exactly.
fn base_demands(epoch: u64) -> Vec<(u32, u32)> {
    vec![(1, 1), (2, 1 + (epoch % 2) as u32)]
}

/// What one soak run measured.
#[derive(Debug, Clone, PartialEq)]
struct SoakOutcome {
    /// Aggregated service counters at the end of the run.
    stats: BeaconStats,
    /// PRG invocations across the whole run (from the merged ledger).
    prg_invocations: u64,
    /// Crashes injected and recovered from.
    crashes: u64,
    /// Per-crash recovery latency in epochs (the scheduled downtime).
    recovery_latencies: Vec<u64>,
    /// Epochs the service spent down across all crashes.
    downtime_epochs: u64,
    /// [`dprbg_beacon::BeaconError::Unsound`] verdicts (must stay zero).
    unsound: u64,
    /// The final snapshot bytes (the determinism witness).
    snapshot: Vec<u8>,
}

/// Drive one beacon through `epochs` service epochs under `plan`.
///
/// Every epoch boundary takes a snapshot; a [`EpochFault::Crash`] kills
/// the service (drops it) and restores the boundary snapshot after the
/// scheduled downtime — exactly the deployment story the snapshot format
/// exists for. `kill_at` injects one *extra* unscheduled kill/restore at
/// that boundary (no downtime), for the determinism cross-check.
fn soak(master_seed: u64, epochs: u64, plan: &SoakPlan, kill_at: Option<u64>) -> SoakOutcome {
    let cfg = config();
    let mut svc = BeaconService::<F32>::new(cfg, master_seed, INITIAL_COINS);
    let mut out = SoakOutcome {
        stats: BeaconStats::default(),
        prg_invocations: 0,
        crashes: 0,
        recovery_latencies: Vec::new(),
        downtime_epochs: 0,
        unsound: 0,
        snapshot: Vec::new(),
    };
    for e in 0..epochs {
        // The boundary snapshot: the recovery point for any crash that
        // strikes this epoch.
        let boundary = svc.snapshot();
        let fault = plan.fault_at(e);
        if let Some(EpochFault::Crash { down_epochs }) = fault {
            // Kill the process; the scheduled downtime passes with no
            // service (consumers see an outage, not an error); restore
            // from the boundary snapshot and carry on at epoch `e`.
            drop(svc);
            out.crashes += 1;
            out.recovery_latencies.push(down_epochs);
            out.downtime_epochs += down_epochs;
            svc = BeaconService::<F32>::restore(cfg, &boundary)
                .expect("own boundary snapshot must restore");
            // Fold the outage into the health plane: recovery count and
            // depth are part of the replayed state, so the kill/restore
            // determinism check still covers them. (The unscheduled
            // `kill_at` below records nothing — it must be invisible.)
            svc.note_recovery(down_epochs);
        }
        if kill_at == Some(e) {
            // The unscheduled determinism kill: snapshot → drop →
            // restore, zero downtime. The run must not notice.
            let snap = svc.snapshot();
            drop(svc);
            svc = BeaconService::<F32>::restore(cfg, &snap)
                .expect("own snapshot must restore");
        }
        let mut demands = base_demands(e);
        let mut adversary = None;
        match fault {
            Some(EpochFault::Stampede { demand }) => demands.push((9, demand)),
            Some(EpochFault::Adversary { attack, f }) => adversary = Some((attack, f)),
            _ => {}
        }
        match svc.run_epoch(ExecutorKind::Step, &demands, adversary) {
            Ok(_) => {}
            Err(_) => {
                // An Unsound verdict: count it and stop — the run's
                // guarantee is already gone. (Asserted zero by `run`.)
                out.unsound += 1;
                break;
            }
        }
    }
    out.stats = svc.stats();
    out.prg_invocations = svc.ledger().total().prg_invocations;
    out.snapshot = svc.snapshot();
    out
}

/// Median of a small latency sample (0 when no crash struck).
fn median(latencies: &[u64]) -> u64 {
    if latencies.is_empty() {
        return 0;
    }
    let mut sorted = latencies.to_vec();
    sorted.sort_unstable();
    sorted[sorted.len() / 2]
}

/// Run E15 and render its throughput and resilience tables.
///
/// # Panics
///
/// If any soak epoch returns an Unsound verdict, or if the midpoint
/// kill/restore replay's final snapshot differs from the uninterrupted
/// run's (crash-recovery determinism at experiment scale).
pub fn run(ctx: &ExperimentCtx) -> Vec<Table> {
    // (epochs, fault period): the full mode's first leg is the ISSUE's
    // ≥1000-epoch soak; the second leg doubles the fault density.
    let legs: &[(u64, u64)] = ctx.sweep(&[(1000, 7), (1000, 3)], &[(48, 5)]);

    let mut throughput = Table::new(
        &format!(
            "E15: beacon soak, n=7 t=1 M=8, composite faults \
             (crash/stampede/adversary), {INITIAL_COINS} initial coins"
        ),
        &["epochs", "faults", "coins", "coins/epoch", "seeds/coin", "prg/coin", "refills"],
    );
    let mut resilience = Table::new(
        "E15: beacon resilience (backpressure, supervisor policy, crash recovery)",
        &["blocked", "starved", "fails", "skips", "rollbk", "crashes", "recov p50/max", "unsound"],
    );

    let mut determinism_verdict: Option<(u64, bool)> = None;
    for (leg, &(epochs, period)) in legs.iter().enumerate() {
        let master_seed = ctx.seed ^ 0xE15 ^ (period << 32);
        let plan = SoakPlan::composite(master_seed, epochs, period);

        let outcome = soak(master_seed, epochs, &plan, None);

        assert_eq!(
            outcome.unsound, 0,
            "E15 leg {leg}: unsound epochs under a within-model fault schedule"
        );
        let s = outcome.stats;
        assert_eq!(s.epochs, epochs, "E15 leg {leg}: soak ended early");
        let exposed = s.coins_exposed.max(1);
        throughput.row(
            &format!("soak period={period}"),
            &[
                epochs.to_string(),
                plan.len().to_string(),
                s.coins_served.to_string(),
                fmt_f(s.coins_served as f64 / epochs as f64),
                fmt_f(s.seeds_spent as f64 / exposed as f64),
                fmt_f(outcome.prg_invocations as f64 / exposed as f64),
                s.refills.to_string(),
            ],
        );
        let max_lat = outcome.recovery_latencies.iter().copied().max().unwrap_or(0);
        resilience.row(
            &format!("soak period={period}"),
            &[
                s.would_block.to_string(),
                s.starved.to_string(),
                s.refill_failures.to_string(),
                s.skipped_epochs.to_string(),
                s.rollbacks.to_string(),
                outcome.crashes.to_string(),
                format!("{}/{}", median(&outcome.recovery_latencies), max_lat),
                outcome.unsound.to_string(),
            ],
        );

        if leg == 0 {
            // Crash-recovery determinism at soak scale: replay the leg
            // with an extra kill/restore at the midpoint boundary; the
            // final snapshots must be byte-identical.
            let twin = soak(master_seed, epochs, &plan, Some(epochs / 2));
            let identical = twin.snapshot == outcome.snapshot;
            assert!(identical, "E15: kill@{} replay diverged from the base soak", epochs / 2);
            determinism_verdict = Some((epochs / 2, identical));
        }
    }

    let (boundary, ok) = determinism_verdict.expect("at least one leg ran");
    let mut determinism = Table::new(
        "E15: crash-recovery determinism (kill/restore replay vs uninterrupted soak)",
        &["kill boundary", "verdict"],
    );
    determinism.row(
        "snapshot bytes",
        &[
            boundary.to_string(),
            if ok { "byte-identical (restore determinism OK)" } else { "DIVERGED" }.to_string(),
        ],
    );
    vec![throughput, resilience, determinism]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::common::assert_golden;
    use dprbg_sim::Attack;

    #[test]
    fn soak_is_a_pure_function_of_its_seed() {
        // Same (seed, epochs, plan) → identical counters and snapshot;
        // different seed → a different transcript.
        let plan = SoakPlan::composite(0xABCD, 24, 5);
        let a = soak(0xABCD, 24, &plan, None);
        let b = soak(0xABCD, 24, &plan, None);
        assert_eq!(a, b);
        let c = soak(0xABCE, 24, &plan, None);
        assert_ne!(a.snapshot, c.snapshot);
    }

    #[test]
    fn crash_faults_recover_through_the_boundary_snapshot() {
        // A plan that is only crashes: every one must restore and the
        // soak must still finish all its epochs with zero unsound.
        let plan = SoakPlan::new()
            .fault(3, EpochFault::Crash { down_epochs: 2 })
            .fault(9, EpochFault::Crash { down_epochs: 1 });
        let out = soak(0xC4A5, 16, &plan, None);
        assert_eq!(out.crashes, 2);
        assert_eq!(out.recovery_latencies, vec![2, 1]);
        assert_eq!(out.downtime_epochs, 3);
        assert_eq!(out.unsound, 0);
        assert_eq!(out.stats.epochs, 16);
    }

    #[test]
    fn stampede_faults_exercise_backpressure() {
        let plan = SoakPlan::new().fault(2, EpochFault::Stampede { demand: 64 });
        let out = soak(0x57A3, 8, &plan, None);
        assert!(out.stats.would_block > 0, "a 64-coin stampede must hit backpressure");
        assert_eq!(out.unsound, 0);
    }

    #[test]
    fn adversary_faults_keep_the_soak_sound() {
        let plan = SoakPlan::new()
            .fault(1, EpochFault::Adversary { attack: Attack::LeaderEclipse, f: 1 })
            .fault(4, EpochFault::Adversary {
                attack: Attack::RandomChaos { drop_pct: 25, delay_pct: 25, max_delay: 2 },
                f: 1,
            });
        let out = soak(0xADE5, 10, &plan, None);
        assert_eq!(out.unsound, 0);
        assert_eq!(out.stats.epochs, 10);
    }

    #[test]
    fn e15_quick_soak_renders_with_zero_unsound() {
        // `run` itself asserts zero unsound epochs and snapshot-identical
        // kill/restore replay before rendering.
        let tables = run(&ExperimentCtx::new(true));
        let rendered: String =
            tables.iter().map(|t| t.render()).collect::<Vec<_>>().join("\n");
        assert!(rendered.contains("E15: beacon soak"));
        assert!(rendered.contains("byte-identical"));
        assert!(rendered.contains("soak period=5"));
        assert_golden(&tables);
    }
}
