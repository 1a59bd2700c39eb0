//! Property tests for the `dprbg-metrics` health registry and the
//! beacon health plane built on it.
//!
//! The registry's determinism story rests on three algebraic claims:
//! histogram merge is associative and commutative with the empty
//! histogram as identity, gauge writes join by `(logical time, value)`
//! so any replay or shard order converges, and therefore a whole
//! [`Registry`] merge is order-independent. The final test closes the
//! loop end to end: a fixed-seed beacon soak exports byte-identical
//! health under `StepRunner` and `ParRunner` at 1, 2 and 8 threads.

use dprbg::beacon::{BeaconConfig, BeaconService, ExecutorKind, ReservoirConfig};
use dprbg::core::{CoinGenConfig, Params, RetryPolicy};
use dprbg::field::Gf2k;
use dprbg::metrics::export::to_json_lines;
use dprbg::metrics::{Histogram, LogicalTime, Registry};

/// The SplitMix64 stream: the in-tree deterministic source of property
/// inputs.
fn splitmix(state: &mut u64) -> u64 {
    let z = dprbg_rng::splitmix64(*state);
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z
}

/// A histogram of `len` pseudo-random observations spanning all bucket
/// magnitudes (shift by 0..64 exercises every log2 bucket).
fn random_histogram(seed: u64, len: usize) -> Histogram {
    let mut state = seed;
    let mut h = Histogram::new();
    for _ in 0..len {
        let raw = splitmix(&mut state);
        h.observe(raw >> (raw % 64));
    }
    h
}

#[test]
fn histogram_merge_is_associative() {
    for seed in 0..32u64 {
        let (a, b, c) = (
            random_histogram(seed, 5),
            random_histogram(seed ^ 0xA5A5, 9),
            random_histogram(seed ^ 0x5A5A, 13),
        );
        let mut left = a;
        left.merge(&b);
        left.merge(&c);
        let mut bc = b;
        bc.merge(&c);
        let mut right = a;
        right.merge(&bc);
        assert_eq!(left, right, "seed {seed}: (a ⊕ b) ⊕ c ≠ a ⊕ (b ⊕ c)");
    }
}

#[test]
fn histogram_merge_is_commutative_with_identity() {
    for seed in 0..32u64 {
        let (a, b) = (random_histogram(seed, 7), random_histogram(seed ^ 0xC3C3, 11));
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba, "seed {seed}: a ⊕ b ≠ b ⊕ a");

        let mut with_identity = a;
        with_identity.merge(&Histogram::new());
        assert_eq!(with_identity, a, "seed {seed}: a ⊕ 0 ≠ a");
        let mut identity_with = Histogram::new();
        identity_with.merge(&a);
        assert_eq!(identity_with, a, "seed {seed}: 0 ⊕ a ≠ a");
    }
}

#[test]
fn gauge_writes_join_by_logical_time_in_any_order() {
    // The same set of gauge writes, applied in 16 different orders
    // (including interleaved shard merges), must converge on the same
    // registry bytes: the lattice join keeps only the max (at, value).
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

        // Shard the shuffled writes across two registries and merge.
        let (left, right) = order.split_at(order.len() / 2);
        let mut shard_a = Registry::new();
        for &i in left {
            shard_a.gauge_set("probe_level", &[], writes[i].0, writes[i].1);
        }
        let mut shard_b = Registry::new();
        for &i in right {
            shard_b.gauge_set("probe_level", &[], writes[i].0, writes[i].1);
        }
        shard_a.merge(&shard_b);
        assert_eq!(shard_a.to_bytes(), baseline, "sharded merge diverged");
    }
}

#[test]
fn registry_merge_is_order_independent_across_kinds() {
    // Counters, gauges, and histograms together: merging shard A into B
    // must equal merging B into A, byte for byte.
    let shard = |seed: u64| {
        let mut state = seed;
        let mut reg = Registry::new();
        for _ in 0..40 {
            match splitmix(&mut state) % 3 {
                0 => reg.counter_add("events_total", &[("kind", "a")], splitmix(&mut state) % 9),
                1 => reg.gauge_set(
                    "level",
                    &[],
                    LogicalTime::at_epoch(splitmix(&mut state) % 16),
                    splitmix(&mut state) % 100,
                ),
                _ => reg.histogram_observe("latency", &[], splitmix(&mut state) % 4096),
            }
        }
        reg
    };
    for seed in 0..8u64 {
        let (a, b) = (shard(seed), shard(seed ^ 0xBEEF));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab.to_bytes(), ba.to_bytes(), "seed {seed}: merge not commutative");
    }
}

/// The beacon working point for the cross-executor export check.
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
    // health exports no matter which executor (or thread count) drove
    // the fleet — the whole point of keying health on logical time.
    let soak = |executor| {
        let mut svc = BeaconService::<Gf2k<32>>::new(beacon_config(), 0x6EA17, 12);
        for e in 0..10u64 {
            svc.run_epoch(executor, &[(1, 1), (2, 1 + (e % 2) as u32)], None)
                .expect("a fault-free soak must commit every epoch");
        }
        (to_json_lines(svc.health()), svc.health().to_bytes())
    };
    let (json_step, bytes_step) = soak(ExecutorKind::Step);
    for threads in [1usize, 2, 8] {
        let (json_par, bytes_par) = soak(ExecutorKind::ParThreads(threads));
        assert_eq!(json_par, json_step, "{threads}-thread ParRunner JSON export diverged");
        assert_eq!(bytes_par, bytes_step, "{threads}-thread ParRunner registry bytes diverged");
    }
}
