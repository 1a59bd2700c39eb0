//! The minimized-repro corpus: named abort-path regression tests.
//!
//! Each test pins one **confirmed non-`Agreed` episode** discovered by
//! the chaos campaign and minimized to its replay triple — `(protocol,
//! schedule, seed)`, plus the leg schedule for composite episodes. The
//! triple is the whole bug report: feeding it back to [`run_episode`]
//! (either executor) or [`run_episode_traced`] reproduces the failure
//! byte-identically, so these tests "teleport" straight to each failure
//! mode and pin its classification, corrupted set, and round count
//! against regression.
//!
//! Every entry also exercises the forensic path: the traced replay must
//! come back with a ring-bounded span dump (the debugging artifact a
//! real incident would start from) whose Chrome events pass the
//! structural validator — each party's ring cut starts on a span open
//! and balances.
//!
//! Catalog (all at the `n = 7, t = 1, M = 4` working point):
//!
//! | test | attack | f | verdict |
//! |---|---|---|---|
//! | crash starves clique        | crash@2          | 3 | GracefulAbort |
//! | dealer delay times out      | delay 1          | 3 | GracefulAbort |
//! | unhealed partition          | partition        | 3 | GracefulAbort |
//! | refresh under crash         | crash@1          | 3 | GracefulAbort |
//! | strict VSS broadcast break  | break-broadcast  | 1 | Unsound (beyond model) |
//! | bare Bit-Gen equivocation   | equivocate       | 3 | Unsound (beyond threshold) |
//! | escalating composite        | dormant→crash@2  | 3 | GracefulAbort |
//! | beacon rollback drill       | lost output (injected) | — | rolled back + forensic dump |

use dprbg_beacon::{BeaconConfig, BeaconService, ExecutorKind, ReservoirConfig};
use dprbg_bench::chaos::{
    run_composite_episode, run_composite_episode_traced, run_episode, run_episode_traced,
    Episode, Executor, Outcome, Protocol, Schedule,
};
use dprbg_core::{CoinGenConfig, Params, RetryPolicy, VssMode};
use dprbg_sim::{Attack, Trace};
use dprbg_trace::{chrome_events, validate_chrome_events};
use std::collections::BTreeSet;

/// Ring capacity for the forensic replays (events per party).
const RING: usize = 16;

/// Assert the invariants every corpus entry shares: the pinned verdict
/// and corrupted set, and a non-empty ring-bounded forensic dump ready
/// for the Chrome exporter.
fn check_entry(
    ep: &Episode,
    forensics: &Option<Trace>,
    want_outcome: Outcome,
    want_corrupted: &[usize],
    want_rounds: u64,
) {
    assert_eq!(ep.outcome, want_outcome);
    assert_eq!(ep.corrupted, BTreeSet::from_iter(want_corrupted.iter().copied()));
    assert_eq!(ep.rounds, want_rounds, "round count drifted — the repro is no longer minimal");
    let trace = forensics.as_ref().expect("non-Agreed episode must carry a forensic dump");
    assert!(!trace.events.is_empty());
    for id in 1..=ep.schedule.n {
        let per_party = trace.events.iter().filter(|e| e.party == id).count();
        assert!(per_party <= RING, "ring cap exceeded: {per_party} events for party {id}");
    }
    let events = chrome_events(trace);
    validate_chrome_events(&events).expect("forensic trace exports balanced spans");
    for id in 1..=ep.schedule.n as u64 {
        let first = events.iter().find(|e| e.tid == id);
        assert!(first.is_none_or(|e| e.ph == 'B'), "party {id}'s ring cut does not start on a Begin");
    }
}

#[test]
fn over_threshold_crash_starves_coin_gen_clique() {
    // Three crashes at round 2 against t = 1: Coin-Gen cannot form its
    // n − 2t clique and every honest party aborts explicitly.
    let s = Schedule::new(7, 1, 3, 4, Attack::CrashAtRound { round: 2 });
    let (ep, forensics) = run_episode_traced(Protocol::CoinGen, &s, 1, RING);
    check_entry(&ep, &forensics, Outcome::GracefulAbort, &[1, 2, 3], 36);
    // Teleport property: the triple replays identically on the pool.
    assert_eq!(ep, run_episode(Protocol::CoinGen, &s, 1, Executor::Parallel));
}

#[test]
fn dealer_delay_beyond_threshold_times_out_coin_gen() {
    // f = 3 dealers holding their dealings one round each: the pipeline
    // misses its deadlines and aborts without any honest disagreement.
    let s = Schedule::new(7, 1, 3, 4, Attack::DealerDelay { delay: 1 });
    let (ep, forensics) = run_episode_traced(Protocol::CoinGen, &s, 17, RING);
    check_entry(&ep, &forensics, Outcome::GracefulAbort, &[1, 2, 3], 36);
}

#[test]
fn unhealed_partition_aborts_coin_gen() {
    // A partition that outlives the run (heal round beyond the backstop)
    // with f = 3: the isolated side can never rejoin, the protocol
    // aborts gracefully. The corrupted set is traffic-adaptive here —
    // pinned to witness that the *choice* is deterministic too.
    let s = Schedule::new(7, 1, 3, 4, Attack::Partition { until_round: 4000 });
    let (ep, forensics) = run_episode_traced(Protocol::CoinGen, &s, 1, RING);
    check_entry(&ep, &forensics, Outcome::GracefulAbort, &[2, 5, 6], 36);
}

#[test]
fn over_threshold_crash_aborts_refresh() {
    // The §1.2 proactive refresh inherits Coin-Gen's failure discipline:
    // over-threshold crashes abort it explicitly, never silently.
    let s = Schedule::new(7, 1, 3, 4, Attack::CrashAtRound { round: 1 });
    let (ep, forensics) = run_episode_traced(Protocol::Refresh, &s, 1, RING);
    check_entry(&ep, &forensics, Outcome::GracefulAbort, &[1, 2, 3], 36);
}

#[test]
fn broken_broadcast_splits_strict_batch_vss_verdict() {
    // Beyond the §3 model: equivocating over the ideal broadcast splits
    // a strict-mode verdict even at f = 1 ≤ t. The harness must keep
    // reaching — and pinning — the Unsound verdict.
    let mut s = Schedule::new(7, 1, 1, 4, Attack::BreakBroadcast);
    s.vss_mode = VssMode::Strict;
    let (ep, forensics) = run_episode_traced(Protocol::BatchVss, &s, 7, RING);
    check_entry(&ep, &forensics, Outcome::Unsound, &[1], 2);
    assert_eq!(ep, run_episode(Protocol::BatchVss, &s, 7, Executor::Parallel));
}

#[test]
fn over_threshold_equivocation_splits_bare_bit_gen() {
    // Fig. 4 alone makes no agreement promise once f > t: two
    // equivocating dealers split the honest views. This entry documents
    // *why* Coin-Gen's clique/grade-cast/BA layer exists — the bare
    // primitive is expected to go unsound beyond its threshold.
    let s = Schedule::new(7, 1, 3, 4, Attack::Equivocate);
    let (ep, forensics) = run_episode_traced(Protocol::BitGen, &s, 1, RING);
    check_entry(&ep, &forensics, Outcome::Unsound, &[1, 2], 3);
}

#[test]
fn escalating_composite_schedule_aborts_coin_gen() {
    // The composite entry: a dormant first leg (crash scheduled beyond
    // the run) escalating at round 2 into an immediate over-threshold
    // crash. The first leg alone agrees; the schedule aborts.
    let legs: &[(u64, Attack)] = &[
        (0, Attack::CrashAtRound { round: 4000 }),
        (2, Attack::CrashAtRound { round: 2 }),
    ];
    let s = Schedule::new(7, 1, 3, 4, legs[0].1);
    let (ep, forensics) = run_composite_episode_traced(Protocol::CoinGen, &s, legs, 17, RING);
    check_entry(&ep, &forensics, Outcome::GracefulAbort, &[1, 2, 3], 36);
    assert_eq!(run_episode(Protocol::CoinGen, &s, 17, Executor::Stepped).outcome, Outcome::Agreed);
    assert_eq!(
        ep,
        run_composite_episode(Protocol::CoinGen, &s, legs, 17, Executor::Parallel),
        "composite repro must replay identically on the pool"
    );
}

#[test]
fn beacon_rollback_drill_reproduces_its_forensic_dump() {
    // The beacon-layer abort path. Every entry above shows in-model
    // pressure failing *symmetrically* — no episode can make the epoch
    // fleet diverge, so the beacon's transactional rollback is
    // defense-in-depth against states the theorems rule out. The
    // rollback fire-drill injects the one fault that reaches it (a
    // party's output lost after the fleet ran); this entry pins that the
    // drilled epoch rolls back, carries the flight-recorder dump, and
    // replays byte-identically on either executor — the repro triple is
    // just `(config, master seed, drill epoch)`.
    let cfg = BeaconConfig {
        coin_gen: CoinGenConfig { params: Params::p2p_model(7, 1).unwrap(), batch_size: 8 },
        reservoir: ReservoirConfig { capacity: 16, low_water: 4 },
        wallet_low_water: 6,
        retry: RetryPolicy { max_attempts: 3, seed_budget: 12 },
        max_backoff_exp: 3,
        max_rounds_per_epoch: 4096,
    };
    let run = |executor| {
        let mut svc = BeaconService::<dprbg_field::Gf2k<32>>::new(cfg, 0xD811, 12);
        for _ in 0..4 {
            svc.run_epoch(executor, &[(1, 1), (2, 1)], None).expect("clean epochs must commit");
        }
        let report = svc.rollback_drill(executor);
        (report, svc.snapshot())
    };

    let (report, snapshot) = run(ExecutorKind::Step);
    assert!(report.rolled_back);
    assert_eq!(report.epoch, 4, "the drill fires at the pinned epoch");
    let dump = report.forensics.as_ref().expect("the rollback must carry the forensic dump");
    assert!(dump.contains("beacon forensic dump"), "{dump}");
    assert!(dump.contains("rolled_back"), "the drilled epoch's record must be in the dump");
    assert!(dump.contains("supervisor: mode="), "{dump}");

    // Teleport property: the drill replays identically on the pool.
    let (report_par, snapshot_par) = run(ExecutorKind::ParThreads(2));
    assert_eq!(report.forensics, report_par.forensics, "dump must not depend on the executor");
    assert_eq!(snapshot, snapshot_par, "drilled service must stay snapshot-identical");
}
