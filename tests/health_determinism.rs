//! Property tests for the `dprbg-metrics` health registry and the
//! beacon health plane built on it.
//!
//! The registry's determinism story rests on gauge writes joining by
//! `(logical time, value)`, so any replay order converges on the same
//! bytes. The second test closes the loop end to end: a fixed-seed
//! beacon soak produces byte-identical registries under `StepRunner` and
//! `ParRunner` at 1, 2 and 8 threads.

use dprbg::beacon::{BeaconConfig, BeaconService, ExecutorKind, ReservoirConfig};
use dprbg::core::{CoinGenConfig, Params, RetryPolicy};
use dprbg::field::Gf2k;
use dprbg::metrics::{LogicalTime, Registry};

/// The SplitMix64 stream: the in-tree deterministic source of property
/// inputs.
fn splitmix(state: &mut u64) -> u64 {
    let z = dprbg_rng::splitmix64(*state);
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z
}

#[test]
fn gauge_writes_join_by_logical_time_in_any_order() {
    // The same set of gauge writes, applied in 16 different orders, must
    // converge on the same registry bytes: the join keeps only the max
    // (at, value).
    let mut state = 0x6A06Eu64;
    let writes: Vec<(LogicalTime, u64)> = (0..24)
        .map(|_| {
            let at = LogicalTime::new(
                splitmix(&mut state) % 8,
                splitmix(&mut state) % 64,
                (splitmix(&mut state) % 8) as u32,
            );
            (at, splitmix(&mut state) % 1000)
        })
        .collect();

    let apply = |order: &[usize]| {
        let mut reg = Registry::new();
        for &i in order {
            let (at, value) = writes[i];
            reg.gauge_set("probe_level", &[], at, value);
        }
        reg.to_bytes()
    };

    let baseline = apply(&(0..writes.len()).collect::<Vec<_>>());
    for round in 0..16u64 {
        // A deterministic shuffle of the write order.
        let mut order: Vec<usize> = (0..writes.len()).collect();
        let mut s = round ^ 0xF00D;
        for i in (1..order.len()).rev() {
            order.swap(i, (splitmix(&mut s) % (i as u64 + 1)) as usize);
        }
        assert_eq!(apply(&order), baseline, "order {order:?} diverged");
    }
}

/// The beacon working point for the cross-executor registry check.
fn beacon_config() -> BeaconConfig {
    BeaconConfig {
        coin_gen: CoinGenConfig { params: Params::p2p_model(7, 1).unwrap(), batch_size: 8 },
        reservoir: ReservoirConfig { capacity: 16, low_water: 4 },
        wallet_low_water: 6,
        retry: RetryPolicy { max_attempts: 3, seed_budget: 12 },
        max_backoff_exp: 3,
        max_rounds_per_epoch: 4096,
    }
}

#[test]
fn beacon_health_exports_equal_across_executors() {
    // The end-to-end claim: a fixed-seed soak produces byte-identical
    // registry bytes no matter which executor (or thread count) drove
    // the fleet — the whole point of keying health on logical time.
    let soak = |executor| {
        let mut svc = BeaconService::<Gf2k<32>>::new(beacon_config(), 0x6EA17, 12);
        for e in 0..10u64 {
            svc.run_epoch(executor, &[(1, 1), (2, 1 + (e % 2) as u32)], None)
                .expect("a fault-free soak must commit every epoch");
        }
        svc.health().to_bytes()
    };
    let bytes_step = soak(ExecutorKind::Step);
    for threads in [1usize, 2, 8] {
        let bytes_par = soak(ExecutorKind::ParThreads(threads));
        assert_eq!(bytes_par, bytes_step, "{threads}-thread ParRunner registry bytes diverged");
    }
}
