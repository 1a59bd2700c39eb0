//! `report --health`: the health-plane smoke.
//!
//! Drives a fixed-seed, E15-style short soak (n = 7, t = 1, M = 8 under
//! a composite crash/stampede/adversary schedule), renders the beacon's
//! registry as its text dashboard, and decodes the registry's canonical
//! bytes back ([`Registry::from_bytes`](dprbg_metrics::Registry::from_bytes),
//! the path a restore takes) to prove the blob lossless. Then it
//! re-proves the plane's two determinism claims at smoke scale —
//! byte-identical registries across `StepRunner` and `ParRunner` at 1, 2
//! and 8 threads, and a kill/restore replay whose registry and flight
//! recorder match the uninterrupted run byte for byte — and finally
//! runs the beacon's rollback fire-drill
//! ([`BeaconService::rollback_drill`]) to show the forensic
//! flight-recorder dump travels on the
//! [`EpochReport`](dprbg_beacon::EpochReport) that needs it.
//!
//! `tests/golden/health_quick.txt` pins the output, including the four
//! verdict markers: `health export round-trip OK`, `health export
//! executor parity OK`, `flight recorder kill/restore OK`, and
//! `forensic dump OK`.

use dprbg_beacon::{BeaconConfig, BeaconService, ExecutorKind, ReservoirConfig};
use dprbg_core::{CoinGenConfig, Params, RetryPolicy};
use dprbg_metrics::Registry;
use dprbg_sim::{EpochFault, SoakPlan};

use crate::experiments::common::F32;

/// The soak's fixed master seed: the whole smoke is a pure function of
/// this constant, so its verdict lines are reproducible by anyone.
const MASTER_SEED: u64 = 0x5EA17;

/// Sealed coins dealt to the wallets before epoch 0.
const INITIAL_COINS: usize = 12;

/// The E15 working point: n = 7, t = 1, batch M = 8.
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

/// The demand schedule: a pure function of the epoch number, so a
/// killed-and-restored run replays it exactly.
fn base_demands(epoch: u64) -> Vec<(u32, u32)> {
    vec![(1, 1), (2, 1 + (epoch % 2) as u32)]
}

/// Drive one beacon through `epochs` epochs of the fixed-seed soak under
/// `plan` on `executor`, returning the finished service (whose registry
/// and flight recorder the caller inspects). Scheduled crashes restore
/// from the epoch-boundary snapshot and record their recovery depth;
/// `kill_at` injects one *extra* unscheduled kill/restore (no downtime,
/// nothing recorded) for the determinism cross-check.
fn soak(
    executor: ExecutorKind,
    epochs: u64,
    plan: &SoakPlan,
    kill_at: Option<u64>,
) -> BeaconService<F32> {
    let cfg = config();
    let mut svc = BeaconService::<F32>::new(cfg, MASTER_SEED, INITIAL_COINS);
    for e in 0..epochs {
        let boundary = svc.snapshot();
        let fault = plan.fault_at(e);
        if let Some(EpochFault::Crash { down_epochs }) = fault {
            drop(svc);
            svc = BeaconService::<F32>::restore(cfg, &boundary)
                .expect("own boundary snapshot must restore");
            svc.note_recovery(down_epochs);
        }
        if kill_at == Some(e) {
            let snap = svc.snapshot();
            drop(svc);
            svc = BeaconService::<F32>::restore(cfg, &snap).expect("own snapshot must restore");
        }
        let mut demands = base_demands(e);
        let mut adversary = None;
        match fault {
            Some(EpochFault::Stampede { demand }) => demands.push((9, demand)),
            Some(EpochFault::Adversary { attack, f }) => adversary = Some((attack, f)),
            _ => {}
        }
        svc.run_epoch(executor, &demands, adversary)
            .expect("a within-model fault schedule must stay sound");
    }
    svc
}

/// Force a transactional rollback and return the forensic dump its
/// [`EpochReport`](dprbg_beacon::EpochReport) carries, via the beacon's
/// rollback fire-drill. No in-model adversary can reach the rollback
/// path through `run_epoch` — within `f ≤ t` failures are symmetric and
/// commit as failed epochs (E12's zero-unsound evidence) — so the drill
/// injects the one fault the theorems rule out (a party's output lost
/// after the fleet ran) and lets the real audit, rollback, and forensic
/// plumbing fire. A few clean epochs run first so the dump has history.
pub fn forced_rollback_forensics() -> String {
    let mut svc = BeaconService::<F32>::new(config(), MASTER_SEED, INITIAL_COINS);
    for e in 0..6 {
        svc.run_epoch(ExecutorKind::Step, &base_demands(e), None)
            .expect("the clean warmup epochs must commit");
    }
    let report = svc.rollback_drill(ExecutorKind::Step);
    assert!(report.rolled_back, "the drill must roll its epoch back");
    report.forensics.expect("the rollback path must attach the forensic dump")
}

/// Run the health-plane smoke and print its dashboards and verdicts.
///
/// # Panics
///
/// If any determinism check fails: registry byte round-trip,
/// cross-executor parity, or kill/restore byte-identity.
pub fn run_health_report(quick: bool) {
    let epochs: u64 = if quick { 24 } else { 96 };
    let plan = SoakPlan::composite(MASTER_SEED, epochs, 5);
    let (crashes, stampedes, adversarial) = plan.census();
    println!(
        "health-plane smoke: fixed-seed E15 soak, {epochs} epochs, \
         faults: {crashes} crashes / {stampedes} stampedes / {adversarial} adversary epochs\n"
    );

    // -- the soak, its dashboard, and its registry bytes decoded back ----
    let svc = soak(ExecutorKind::Step, epochs, &plan, None);
    println!("{}", svc.health().dashboard("beacon health (soak, StepRunner)").render());

    let bytes = svc.health().to_bytes();
    let decoded = Registry::from_bytes(&bytes).expect("own registry bytes must decode");
    assert_eq!(&decoded, svc.health(), "decoded registry must equal the original");
    println!(
        "health export round-trip OK (Registry::from_bytes: {} metrics, {} bytes)\n",
        decoded.len(),
        bytes.len()
    );

    // -- cross-executor parity ------------------------------------------
    for threads in [1usize, 2, 8] {
        let par = soak(ExecutorKind::ParThreads(threads), epochs, &plan, None);
        assert_eq!(
            par.health().to_bytes(),
            bytes,
            "ParRunner({threads} threads) registry bytes diverged from StepRunner"
        );
    }
    println!("health export executor parity OK (StepRunner vs ParRunner x 1/2/8 threads)\n");

    // -- kill/restore byte-identity -------------------------------------
    let twin = soak(ExecutorKind::Step, epochs, &plan, Some(epochs / 2));
    assert_eq!(
        twin.health().to_bytes(),
        bytes,
        "kill/restore replay's registry diverged from the uninterrupted soak"
    );
    assert_eq!(
        twin.snapshot(),
        svc.snapshot(),
        "kill/restore replay's snapshot (registry + flight recorder included) diverged"
    );
    println!(
        "flight recorder kill/restore OK (kill at epoch {}, {} records, {} total)\n",
        epochs / 2,
        twin.flight_recorder().len(),
        twin.flight_recorder().total()
    );

    // -- forced rollback → forensic dump --------------------------------
    let forensics = forced_rollback_forensics();
    println!("{forensics}");
    assert!(forensics.contains("beacon forensic dump"), "dump must carry its banner");
    println!("forensic dump OK (rollback report carried the flight-recorder dump)");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forced_rollback_yields_a_forensic_dump() {
        let dump = forced_rollback_forensics();
        assert!(dump.contains("beacon forensic dump"), "{dump}");
        assert!(dump.contains("rolled_back"), "the drilled epoch's record must be in the dump");
        assert!(dump.contains("supervisor: mode="), "{dump}");
    }

    #[test]
    fn quick_soak_health_is_executor_independent() {
        let plan = SoakPlan::composite(MASTER_SEED, 12, 5);
        let step = soak(ExecutorKind::Step, 12, &plan, None);
        let par = soak(ExecutorKind::ParThreads(2), 12, &plan, None);
        assert_eq!(step.health().to_bytes(), par.health().to_bytes());
    }
}
