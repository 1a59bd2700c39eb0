//! Crash-recovery determinism: a beacon killed at *any* epoch boundary
//! and restored from its snapshot must continue **byte-identically** to
//! one that never died — same epoch reports, same served coins, same
//! final snapshot bytes — under either executor, and even when the
//! restored incarnation switches executors.

use dprbg_beacon::{
    BeaconConfig, BeaconService, EpochReport, ExecutorKind, ReservoirConfig,
};
use dprbg_core::{CoinGenConfig, Params, RetryPolicy};
use dprbg_field::Gf2k;
use dprbg_sim::Attack;

type F = Gf2k<32>;

const MASTER_SEED: u64 = 0xD12B6_BEAC;
const INITIAL_COINS: usize = 9;
const EPOCHS: u64 = 6;

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

/// The test's demand schedule: a pure function of the epoch number, as
/// any recoverable deployment's must be replayable state.
fn demands_for(epoch: u64) -> Vec<(u32, u32)> {
    match epoch % 3 {
        0 => vec![(1, 2), (2, 1)],
        1 => vec![(1, 1), (3, 2)],
        _ => vec![(2, 3)],
    }
}

/// The fault schedule: one adversarial epoch inside the run, so the
/// property covers recovery around attacked epochs too.
fn fault_for(epoch: u64) -> Option<(Attack, usize)> {
    (epoch == 2).then_some((Attack::LeaderEclipse, 1))
}

fn drive(
    svc: &mut BeaconService<F>,
    exec: ExecutorKind,
    from: u64,
    to: u64,
) -> Vec<EpochReport<F>> {
    (from..to)
        .map(|e| {
            assert_eq!(svc.epoch(), e);
            svc.run_epoch(exec, &demands_for(e), fault_for(e)).unwrap()
        })
        .collect()
}

#[test]
fn kill_restore_is_byte_identical_at_every_boundary() {
    for exec in [ExecutorKind::Step, ExecutorKind::Par] {
        // The uninterrupted reference run.
        let mut base = BeaconService::<F>::new(config(), MASTER_SEED, INITIAL_COINS);
        let base_reports = drive(&mut base, exec, 0, EPOCHS);
        let base_snap = base.snapshot();
        assert!(
            base_reports.iter().any(|r| r.refill.is_some()),
            "the schedule must exercise the gen plane"
        );

        for k in 0..=EPOCHS {
            // Run k epochs, snapshot, kill the process (drop), restore,
            // and run the remainder.
            let mut victim = BeaconService::<F>::new(config(), MASTER_SEED, INITIAL_COINS);
            let mut reports = drive(&mut victim, exec, 0, k);
            let snap = victim.snapshot();
            drop(victim);

            let mut revived = BeaconService::<F>::restore(config(), &snap).unwrap();
            assert_eq!(revived.epoch(), k);
            reports.extend(drive(&mut revived, exec, k, EPOCHS));

            assert_eq!(reports, base_reports, "{exec:?}: reports diverged at boundary {k}");
            assert_eq!(
                revived.snapshot(),
                base_snap,
                "{exec:?}: final snapshot diverged at boundary {k}"
            );
        }
    }
}

#[test]
fn executors_are_interchangeable_mid_recovery() {
    // Reference: all-Step run.
    let mut base = BeaconService::<F>::new(config(), MASTER_SEED, INITIAL_COINS);
    drive(&mut base, ExecutorKind::Step, 0, EPOCHS);
    let base_snap = base.snapshot();

    // Every boundary: Step before the kill, Par after the restore.
    for k in 0..=EPOCHS {
        let mut victim = BeaconService::<F>::new(config(), MASTER_SEED, INITIAL_COINS);
        drive(&mut victim, ExecutorKind::Step, 0, k);
        let snap = victim.snapshot();
        let mut revived = BeaconService::<F>::restore(config(), &snap).unwrap();
        drive(&mut revived, ExecutorKind::Par, k, EPOCHS);
        assert_eq!(
            revived.snapshot(),
            base_snap,
            "Step→Par handoff diverged at boundary {k}"
        );
    }
}

#[test]
fn restore_rejects_mismatched_parameters() {
    let mut svc = BeaconService::<F>::new(config(), MASTER_SEED, INITIAL_COINS);
    drive(&mut svc, ExecutorKind::Step, 0, 1);
    let snap = svc.snapshot();

    // Wrong party count.
    let mut bad = config();
    bad.coin_gen.params = Params::p2p_model(13, 2).unwrap();
    assert!(BeaconService::<F>::restore(bad, &snap).is_err());

    // Wrong field width.
    assert!(BeaconService::<Gf2k<16>>::restore(config(), &snap).is_err());

    // Arbitrary corruption never panics.
    let mut torn = snap.clone();
    torn.truncate(torn.len() / 2);
    assert!(BeaconService::<F>::restore(config(), &torn).is_err());
}

/// The committed snapshot image for format version 2: the service after
/// `GOLDEN_EPOCHS` epochs of this file's schedule under `StepRunner`
/// (see `write_golden_snapshot`). It pins the snapshot's byte layout, so
/// a field added, dropped, reordered or widened without a
/// `SNAPSHOT_VERSION` bump fails here.
const GOLDEN_V2: &[u8] = include_bytes!("golden/snapshot_v2.bin");
const GOLDEN_EPOCHS: u64 = 4;

fn golden_service() -> BeaconService<F> {
    let mut svc = BeaconService::<F>::new(config(), MASTER_SEED, INITIAL_COINS);
    drive(&mut svc, ExecutorKind::Step, 0, GOLDEN_EPOCHS);
    svc
}

#[test]
fn golden_snapshot_restores_byte_identically() {
    // Bytes 8..10 are the header's version; a fresh service stamps this
    // build's SNAPSHOT_VERSION there.
    let fresh = BeaconService::<F>::new(config(), MASTER_SEED, INITIAL_COINS).snapshot();
    assert_eq!(
        fresh[8..10],
        GOLDEN_V2[8..10],
        "SNAPSHOT_VERSION moved: commit a golden image for the new version"
    );
    let svc = BeaconService::<F>::restore(config(), GOLDEN_V2).unwrap();
    assert!(
        svc.wallet_level() > 0
            && svc.reservoir().level() > 0
            && !svc.health().is_empty()
            && !svc.flight_recorder().is_empty(),
        "the golden image must populate wallets, reservoir, registry and recorder"
    );
    assert_eq!(svc.snapshot(), GOLDEN_V2, "snapshot layout changed without a version bump");
}

#[test]
#[ignore = "rewrites the golden image; run only for a deliberate format change"]
fn write_golden_snapshot() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/snapshot_v2.bin");
    std::fs::write(path, golden_service().snapshot()).unwrap();
}
