//! The chaos campaign: seeded fault-injection sweeps over the paper's
//! protocols, classified by outcome.
//!
//! Each **episode** runs one protocol instance (Bit-Gen, Coin-Gen,
//! Batch-VSS verification, or proactive refresh) under an
//! [`AdaptiveAdversary`] driving one [`Attack`] strategy with a
//! corruption budget `f`. The episode is fully described by
//! `(master_seed, strategy, schedule)` — both executors
//! ([`StepRunner`] and [`ParRunner`]) replay it byte-identically, so any
//! classified failure can be handed to a debugger as three numbers.
//!
//! Classification looks only at the *honest* parties — those outside the
//! adversary's final corrupted set:
//!
//! * [`Outcome::Agreed`] — every honest party produced `Ok` with the
//!   same digest (unanimity, the Theorem 1 guarantee);
//! * [`Outcome::GracefulAbort`] — every honest party produced an error
//!   (seed exhaustion, no agreement, …): the run failed *safely*, no
//!   honest party was fooled;
//! * [`Outcome::Unsound`] — anything else: honest parties disagree, some
//!   accept while others abort, or a machine died mid-run. This is the
//!   verdict the paper's theorems say must not happen while `f ≤ t` and
//!   the adversary stays within the model.
//!
//! [`Attack::BreakBroadcast`] exists precisely to show the harness can
//! *reach* the `Unsound` verdict: it violates the §3 ideal-broadcast
//! Given, and against a strict-mode Batch-VSS it deterministically
//! splits honest verdicts (see the tests).
//!
//! **Composite episodes** ([`run_composite_episode`]) swap the single
//! [`Attack`] for a `(start_round, attack)` schedule driven by a
//! [`ScheduledAdversary`]: the strategy switches mid-episode while the
//! corruption budget stays shared, the first leg of the ROADMAP's
//! adversarial-search program. The confirmed abort paths this machinery
//! surfaces are pinned as named regression tests in
//! `tests/repro_corpus.rs`.

use std::collections::BTreeSet;

use dprbg_core::batch_vss::cheating_batch_deal;
use dprbg_core::{
    batch_vss_verify, BitGenMachine, BitGenMode, BitGenMsg, BitGenRun,
    CoinBatch, CoinError, CoinGenConfig, CoinGenError, CoinGenMachine, CoinGenMsg, CoinWallet,
    Params, RefreshMachine, RefreshReport, TrustedDealer, VssMode, VssVerdict,
};
use dprbg_rng::rngs::StdRng;
use dprbg_rng::{splitmix64, SeedableRng};
use dprbg_sim::{
    AdaptiveAdversary, Attack, BoxedMachine, CorruptionHandle, MsgTap, ParRunner, PartyId,
    RunResult, ScheduledAdversary, StepRunner, Trace, TraceConfig, WireSize,
};

use crate::experiments::common::F32;

/// Round backstop for attacked runs (delays stretch protocols, but
/// nothing legitimate approaches this).
const MAX_CAMPAIGN_ROUNDS: u64 = 4096;

/// Every strategy the §2/§3 model admits (compare
/// [`Attack::within_model`]): E12's within-model leg.
pub const WITHIN_MODEL: [Attack; 6] = [
    Attack::LeaderEclipse,
    Attack::DealerDelay { delay: 2 },
    Attack::Equivocate,
    Attack::CrashAtRound { round: 3 },
    Attack::RandomChaos { drop_pct: 20, delay_pct: 20, max_delay: 2 },
    Attack::Partition { until_round: 2 },
];

/// Seed for episode `i` of a campaign.
pub fn episode_seed(master_seed: u64, i: u64) -> u64 {
    splitmix64(master_seed ^ splitmix64(i))
}

/// Which protocol an episode attacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// Fig. 4 Bit-Gen, all parties dealing.
    BitGen,
    /// Fig. 5 Coin-Gen (the full clique/grade-cast/BA pipeline).
    CoinGen,
    /// Fig. 3 Batch-VSS verification of an honest dealing.
    BatchVss,
    /// §1.2 proactive wallet refresh.
    Refresh,
}

impl Protocol {
    /// Every campaign target.
    pub const ALL: [Protocol; 4] =
        [Protocol::BitGen, Protocol::CoinGen, Protocol::BatchVss, Protocol::Refresh];

    /// Short table label.
    pub fn name(&self) -> &'static str {
        match self {
            Protocol::BitGen => "bit-gen",
            Protocol::CoinGen => "coin-gen",
            Protocol::BatchVss => "batch-vss",
            Protocol::Refresh => "refresh",
        }
    }
}

/// One campaign point: parameters plus the attack strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schedule {
    /// Parties.
    pub n: usize,
    /// The protocol's corruption tolerance.
    pub t: usize,
    /// The adversary's corruption budget (may exceed `t` — that is the
    /// point of the beyond-threshold legs).
    pub f: usize,
    /// Batch size for Bit-Gen / Coin-Gen / Batch-VSS.
    pub m: usize,
    /// The adversary strategy.
    pub attack: Attack,
    /// Verdict mode for Batch-VSS episodes (ignored elsewhere).
    pub vss_mode: VssMode,
}

impl Schedule {
    /// A schedule with the default robust Batch-VSS verdict mode.
    pub fn new(n: usize, t: usize, f: usize, m: usize, attack: Attack) -> Self {
        Schedule { n, t, f, m, attack, vss_mode: VssMode::Robust }
    }
}

/// How an episode ended, judged over the honest parties only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// All honest parties succeeded with identical results.
    Agreed,
    /// All honest parties failed — safely and explicitly.
    GracefulAbort,
    /// Honest parties disagree, or some honest machine died: the
    /// soundness guarantee broke.
    Unsound,
}

/// Which executor drives the episode (both must agree — that is tested).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Executor {
    /// The single-threaded [`StepRunner`].
    Stepped,
    /// The deterministic thread pool ([`ParRunner`]).
    Parallel,
}

/// The replayable record of one episode.
///
/// An [`Outcome::Unsound`] episode is a bug report: `seed` and
/// `schedule` (which carries the attack strategy) are the complete
/// replay triple — feed them back to [`run_episode`] on either executor
/// to reproduce the failure byte-identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Episode {
    /// The soundness classification.
    pub outcome: Outcome,
    /// The adversary's final corrupted set.
    pub corrupted: BTreeSet<PartyId>,
    /// Synchronous rounds the run took.
    pub rounds: u64,
    /// The exact seed this episode ran with (for a campaign leg, the
    /// [`episode_seed`] derived from the master seed).
    pub seed: u64,
    /// The campaign point — `n`, `t`, `f`, `m`, the attack strategy, and
    /// the Batch-VSS verdict mode.
    pub schedule: Schedule,
}

/// Drive `machines` under the tap `adv` on the chosen executor,
/// returning the run result plus the adversary's final corrupted set
/// (read through its pre-extracted `handle`).
fn run_tapped<M, Out>(
    n: usize,
    seed: u64,
    machines: Vec<BoxedMachine<M, Out>>,
    adv: impl MsgTap<M> + 'static,
    handle: CorruptionHandle,
    executor: Executor,
    trace: Option<TraceConfig>,
) -> (RunResult<Out>, BTreeSet<PartyId>)
where
    M: Clone + Send + Sync + WireSize + 'static,
    Out: Send + 'static,
{
    let res = match executor {
        Executor::Stepped => {
            let mut runner = StepRunner::new(n, seed)
                .with_tap(adv)
                .with_max_rounds(MAX_CAMPAIGN_ROUNDS);
            if let Some(cfg) = trace {
                runner = runner.with_trace(cfg);
            }
            runner.run(machines)
        }
        Executor::Parallel => {
            let mut runner = ParRunner::new(n, seed)
                .with_tap(adv)
                .with_max_rounds(MAX_CAMPAIGN_ROUNDS);
            if let Some(cfg) = trace {
                runner = runner.with_trace(cfg);
            }
            runner.run(machines)
        }
    };
    let corrupted = handle.snapshot();
    (res, corrupted)
}

/// Classify the honest parties' digests: `None` = machine died,
/// `Some(Ok(d))` = success with digest `d`, `Some(Err(_))` = explicit
/// protocol error.
fn classify(honest: &[Option<Result<String, String>>]) -> Outcome {
    if honest.iter().any(Option::is_none) {
        return Outcome::Unsound;
    }
    let oks: Vec<&String> = honest
        .iter()
        .filter_map(|d| d.as_ref().unwrap().as_ref().ok())
        .collect();
    let errs = honest.len() - oks.len();
    if oks.is_empty() {
        // No honest party at all (f = n) counts as vacuously agreed;
        // otherwise everyone aborted explicitly.
        return if errs == 0 { Outcome::Agreed } else { Outcome::GracefulAbort };
    }
    if errs > 0 || oks.windows(2).any(|w| w[0] != w[1]) {
        return Outcome::Unsound;
    }
    Outcome::Agreed
}

/// Run machines, snapshot the corrupted set, digest honest outputs,
/// classify. With `legs = None` the adversary plays `s.attack` for the
/// whole episode; with `legs = Some(..)` it switches strategy
/// mid-episode per the `(start_round, attack)` schedule (one shared
/// corruption budget `s.f` — see [`ScheduledAdversary`]).
fn digest_episode<M, Out, D>(
    s: &Schedule,
    legs: Option<&[(u64, Attack)]>,
    seed: u64,
    machines: Vec<BoxedMachine<M, Out>>,
    executor: Executor,
    trace: Option<TraceConfig>,
    digest: D,
) -> (Episode, Option<Trace>)
where
    M: Clone + Send + Sync + WireSize + 'static,
    Out: Send + 'static,
    D: Fn(&Out, &BTreeSet<PartyId>) -> Result<String, String>,
{
    let (res, corrupted) = match legs {
        None => {
            let adv = AdaptiveAdversary::new(s.attack, s.n, s.f, seed);
            let handle = adv.handle();
            run_tapped(s.n, seed, machines, adv, handle, executor, trace)
        }
        Some(legs) => {
            let adv = ScheduledAdversary::new(legs.to_vec(), s.n, s.f, seed);
            let handle = adv.handle();
            run_tapped(s.n, seed, machines, adv, handle, executor, trace)
        }
    };
    let honest: Vec<Option<Result<String, String>>> = (1..=s.n)
        .filter(|id| !corrupted.contains(id))
        .map(|id| res.outputs[id - 1].as_ref().map(|out| digest(out, &corrupted)))
        .collect();
    let episode = Episode {
        outcome: classify(&honest),
        corrupted,
        rounds: res.report.comm.rounds,
        seed,
        schedule: *s,
    };
    (episode, res.trace)
}

/// Run one episode: protocol `protocol` under `schedule`, fully
/// determined by `seed` and the executor choice (which must not matter —
/// see the replay tests).
pub fn run_episode(
    protocol: Protocol,
    schedule: &Schedule,
    seed: u64,
    executor: Executor,
) -> Episode {
    run_episode_inner(protocol, schedule, None, seed, executor, None).0
}

/// Run one episode on the stepped executor with a ring-buffer trace
/// attached, and return the trace dump when the run *failed* — an
/// [`Outcome::Unsound`] or [`Outcome::GracefulAbort`] episode comes
/// back with the last `ring_cap` span events per party (phase names and
/// per-round cost deltas leading up to the failure), ready for the
/// Chrome exporter. An [`Outcome::Agreed`] episode needs
/// no forensics and returns `None`.
pub fn run_episode_traced(
    protocol: Protocol,
    schedule: &Schedule,
    seed: u64,
    ring_cap: usize,
) -> (Episode, Option<Trace>) {
    let (episode, trace) = run_episode_inner(
        protocol,
        schedule,
        None,
        seed,
        Executor::Stepped,
        Some(TraceConfig::ring(ring_cap)),
    );
    let forensics = if episode.outcome == Outcome::Agreed { None } else { trace };
    (episode, forensics)
}

/// Run one **composite** episode: the adversary switches strategy
/// mid-episode per the `(start_round, attack)` `legs` schedule (a
/// [`ScheduledAdversary`]), sharing the single corruption budget
/// `schedule.f` across all legs. `schedule.attack` is ignored — the legs
/// *are* the strategy; everything else about the campaign point (`n`,
/// `t`, `f`, `m`, the Batch-VSS verdict mode) reads from `schedule` as
/// usual, so [`Schedule`] stays a flat `Copy` record. The returned
/// [`Episode`]'s replay triple is `(seed, schedule, legs)`.
///
/// # Panics
///
/// Panics if `legs` is empty or its start rounds are not strictly
/// ascending (the [`ScheduledAdversary`] contract).
pub fn run_composite_episode(
    protocol: Protocol,
    schedule: &Schedule,
    legs: &[(u64, Attack)],
    seed: u64,
    executor: Executor,
) -> Episode {
    run_episode_inner(protocol, schedule, Some(legs), seed, executor, None).0
}

/// The traced variant of [`run_composite_episode`]: stepped executor,
/// ring-buffer forensics returned for any non-[`Outcome::Agreed`] run
/// (same contract as [`run_episode_traced`]).
pub fn run_composite_episode_traced(
    protocol: Protocol,
    schedule: &Schedule,
    legs: &[(u64, Attack)],
    seed: u64,
    ring_cap: usize,
) -> (Episode, Option<Trace>) {
    let (episode, trace) = run_episode_inner(
        protocol,
        schedule,
        Some(legs),
        seed,
        Executor::Stepped,
        Some(TraceConfig::ring(ring_cap)),
    );
    let forensics = if episode.outcome == Outcome::Agreed { None } else { trace };
    (episode, forensics)
}

fn run_episode_inner(
    protocol: Protocol,
    schedule: &Schedule,
    legs: Option<&[(u64, Attack)]>,
    seed: u64,
    executor: Executor,
    trace: Option<TraceConfig>,
) -> (Episode, Option<Trace>) {
    let s = schedule;
    match protocol {
        Protocol::BitGen => {
            type BgOut = Result<BitGenRun<F32>, CoinError>;
            let coins =
                TrustedDealer::deal_wallets::<F32>(Params { n: s.n, t: s.t }, 1, seed ^ 0xB17);
            let dealers: Vec<PartyId> = (1..=s.n).collect();
            let machines: Vec<BoxedMachine<BitGenMsg<F32>, BgOut>> = coins
                .into_iter()
                .map(|mut coin| {
                    Box::new(BitGenMachine::new(
                        s.t,
                        s.m,
                        coin.pop().expect("one coin dealt per party"),
                        dealers.clone(),
                        BitGenMode::RandomCoins,
                    )) as _
                })
                .collect();
            digest_episode(s, legs, seed, machines, executor, trace, |out, corrupted| match out {
                // Unanimity = same challenge point and the same verdict on
                // every *honest* dealer's instance. Fig. 4 alone makes no
                // agreement promise about corrupted dealers — that is what
                // Coin-Gen's clique/grade-cast/BA layer adds — so their
                // verdicts may legitimately differ between honest parties.
                Ok(run) => {
                    let accepted: Vec<PartyId> = run
                        .views
                        .iter()
                        .enumerate()
                        .filter(|(i, v)| {
                            !corrupted.contains(&(i + 1)) && v.check_poly.is_some()
                        })
                        .map(|(i, _)| i + 1)
                        .collect();
                    Ok(format!("{:?}|{:?}", run.r, accepted))
                }
                Err(e) => Err(format!("{e:?}")),
            })
        }
        Protocol::CoinGen => {
            let cfg = CoinGenConfig {
                params: Params::p2p_model(s.n, s.t).expect("schedule violates the p2p model"),
                batch_size: s.m,
            };
            let mut wallets =
                TrustedDealer::deal_wallets::<F32>(cfg.params, 6 + s.t, seed ^ 0xC61);
            type CgOut = (CoinWallet<F32>, Result<CoinBatch<F32>, CoinGenError>);
            let machines: Vec<BoxedMachine<CoinGenMsg<F32>, CgOut>> = (0..s.n)
                .map(|_| Box::new(CoinGenMachine::new(cfg, wallets.remove(0))) as _)
                .collect();
            digest_episode(s, legs, seed, machines, executor, trace, |(_wallet, res), _| match res {
                Ok(b) => Ok(format!("{:?}|{}|{}", b.dealers, b.attempts, b.seeds_consumed)),
                Err(e) => Err(format!("{e:?}")),
            })
        }
        Protocol::BatchVss => {
            // An honest dealing handed out out-of-band; the attack is on
            // the verification traffic.
            let mut rng = StdRng::seed_from_u64(seed ^ 0xBA7C);
            let shares = cheating_batch_deal::<F32, _>(s.n, s.t, s.m, 0, &mut rng);
            let coins =
                TrustedDealer::deal_wallets::<F32>(Params { n: s.n, t: s.t }, 1, seed ^ 0x5EA1);
            let machines: Vec<BoxedMachine<BitGenMsg<F32>, Result<VssVerdict, CoinError>>> =
                shares
                .into_iter()
                .zip(coins)
                .map(|(sh, mut coin)| {
                    let coin = coin.pop().expect("one coin dealt per party");
                    Box::new(batch_vss_verify(s.t, sh, s.m, coin, s.vss_mode)) as _
                })
                .collect();
            digest_episode(s, legs, seed, machines, executor, trace, |out, _| match out {
                Ok(verdict) => Ok(format!("{verdict:?}")),
                Err(e) => Err(format!("{e:?}")),
            })
        }
        Protocol::Refresh => {
            let cfg = CoinGenConfig {
                params: Params::p2p_model(s.n, s.t).expect("schedule violates the p2p model"),
                batch_size: s.m,
            };
            let mut wallets =
                TrustedDealer::deal_wallets::<F32>(cfg.params, 6 + s.t, seed ^ 0x5EED);
            type RfOut = (CoinWallet<F32>, Result<RefreshReport, CoinGenError>);
            let machines: Vec<BoxedMachine<CoinGenMsg<F32>, RfOut>> = (0..s.n)
                .map(|_| Box::new(RefreshMachine::new(cfg, wallets.remove(0))) as _)
                .collect();
            digest_episode(s, legs, seed, machines, executor, trace, |(_wallet, res), _| match res {
                Ok(r) => Ok(format!(
                    "{:?}|{}|{}|{}",
                    r.dealers, r.coins_refreshed, r.attempts, r.seeds_consumed
                )),
                Err(e) => Err(format!("{e:?}")),
            })
        }
    }
}

/// Outcome counts for one `(protocol, schedule)` campaign leg.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CampaignStats {
    /// Episodes run.
    pub episodes: usize,
    /// [`Outcome::Agreed`] count.
    pub agreed: usize,
    /// [`Outcome::GracefulAbort`] count.
    pub aborted: usize,
    /// [`Outcome::Unsound`] count.
    pub unsound: usize,
}

impl CampaignStats {
    /// Tally one episode.
    pub fn record(&mut self, outcome: Outcome) {
        self.episodes += 1;
        match outcome {
            Outcome::Agreed => self.agreed += 1,
            Outcome::GracefulAbort => self.aborted += 1,
            Outcome::Unsound => self.unsound += 1,
        }
    }

    /// Wilson-score confidence interval on the unsound rate.
    pub fn unsound_ci(&self, z: f64) -> (f64, f64) {
        wilson_interval(self.unsound, self.episodes, z)
    }
}

/// The Wilson score interval: a `(lo, hi)` confidence interval for a
/// binomial proportion after observing `successes` out of `trials`, at
/// critical value `z` (1.96 ≈ 95%, 2.58 ≈ 99%).
///
/// Unlike the naive normal interval, Wilson stays inside `[0, 1]` and
/// gives a non-degenerate bound at 0 observed successes — exactly the
/// regime E12's soundness-error rates live in (the interesting claim is
/// the *upper* bound on an empirically-zero failure rate). `(0.0, 1.0)`
/// when `trials` is zero.
pub fn wilson_interval(successes: usize, trials: usize, z: f64) -> (f64, f64) {
    if trials == 0 {
        return (0.0, 1.0);
    }
    assert!(successes <= trials, "more successes than trials");
    let n = trials as f64;
    let p = successes as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let half = (z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    ((center - half).max(0.0), (center + half).min(1.0))
}

/// Run `episodes` seeded episodes of `(protocol, schedule)` and tally
/// the outcomes. Episode `i` uses [`episode_seed`]`(master_seed, i)`, so
/// any tallied failure is replayable in isolation via [`run_episode`].
pub fn run_campaign(
    protocol: Protocol,
    schedule: &Schedule,
    episodes: usize,
    master_seed: u64,
    executor: Executor,
) -> CampaignStats {
    let mut stats = CampaignStats::default();
    for i in 0..episodes {
        let ep = run_episode(protocol, schedule, episode_seed(master_seed, i as u64), executor);
        stats.record(ep.outcome);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::ExperimentCtx;

    #[test]
    fn wilson_interval_brackets_sensibly() {
        // 0 failures in 200 trials at 95%: lower bound 0, upper ≈ 1.9%.
        let (lo, hi) = wilson_interval(0, 200, 1.96);
        assert_eq!(lo, 0.0);
        assert!(hi > 0.015 && hi < 0.025, "upper bound {hi}");
        // Symmetric case contains the point estimate.
        let (lo, hi) = wilson_interval(50, 100, 1.96);
        assert!(lo < 0.5 && 0.5 < hi);
        assert!(lo > 0.39 && hi < 0.61);
        // All successes at high confidence still below 1.
        let (_, hi) = wilson_interval(100, 100, 2.58);
        assert!(hi <= 1.0);
        // Degenerate trials.
        assert_eq!(wilson_interval(0, 0, 1.96), (0.0, 1.0));
    }

    #[test]
    fn episodes_replay_identically_across_executors() {
        // Every protocol under every within-model strategy (plus a
        // heavier chaos mix), at two fixed seeds and at episode 0 of
        // E12's own campaign.
        let e12_episode0 = episode_seed(ExperimentCtx::new(true).seed ^ 0xE12, 0);
        let heavy_chaos = Attack::RandomChaos { drop_pct: 25, delay_pct: 25, max_delay: 2 };
        for protocol in Protocol::ALL {
            for attack in WITHIN_MODEL.into_iter().chain([heavy_chaos]) {
                let s = Schedule::new(7, 1, 1, 4, attack);
                for seed in [11, 42, e12_episode0] {
                    let a = run_episode(protocol, &s, seed, Executor::Stepped);
                    let c = run_episode(protocol, &s, seed, Executor::Parallel);
                    assert_eq!(
                        a, c,
                        "{} under {} seed {seed}: ParRunner diverged from StepRunner",
                        protocol.name(),
                        attack.name()
                    );
                }
            }
        }
    }

    #[test]
    fn within_model_attacks_never_go_unsound() {
        for protocol in Protocol::ALL {
            for attack in WITHIN_MODEL {
                assert!(attack.within_model());
                let s = Schedule::new(7, 1, 1, 4, attack);
                for i in 0..2u64 {
                    let ep = run_episode(protocol, &s, episode_seed(0xCAFE, i), Executor::Stepped);
                    assert_ne!(
                        ep.outcome,
                        Outcome::Unsound,
                        "{} under {} episode {i}: corrupted {:?}",
                        protocol.name(),
                        attack.name(),
                        ep.corrupted
                    );
                    assert!(ep.corrupted.len() <= s.f, "budget violated");
                }
            }
        }
    }

    #[test]
    fn over_threshold_crash_fails_gracefully_not_silently() {
        // 3 crashes against t = 1: Coin-Gen cannot form its n − 2t clique,
        // so every honest party must abort explicitly — unanimously.
        let s = Schedule::new(7, 1, 3, 4, Attack::CrashAtRound { round: 2 });
        let mut aborted = 0;
        for i in 0..3u64 {
            let ep = run_episode(Protocol::CoinGen, &s, episode_seed(0xDEAD, i), Executor::Stepped);
            assert_ne!(ep.outcome, Outcome::Agreed, "f > t crash cannot just succeed");
            if ep.outcome == Outcome::GracefulAbort {
                aborted += 1;
            }
        }
        assert!(aborted > 0, "expected at least one graceful abort");
    }

    #[test]
    fn break_broadcast_splits_strict_batch_vss() {
        // The beyond-model strategy: equivocating over the §3 ideal
        // channel deterministically splits a strict-mode verdict (even
        // recipients lose one β point and reject; odd ones accept), so
        // the harness provably *can* reach the Unsound verdict.
        let mut s = Schedule::new(7, 1, 1, 4, Attack::BreakBroadcast);
        s.vss_mode = VssMode::Strict;
        let ep = run_episode(Protocol::BatchVss, &s, 7, Executor::Stepped);
        assert_eq!(ep.outcome, Outcome::Unsound);
        let ep2 = run_episode(Protocol::BatchVss, &s, 7, Executor::Parallel);
        assert_eq!(ep, ep2, "the unsound episode must replay identically");
    }

    #[test]
    fn traced_episode_dumps_ring_forensics_on_failure() {
        // The known-unsound episode must come back with its replay triple
        // and a ring-bounded trace of the rounds leading up to the split.
        let mut s = Schedule::new(7, 1, 1, 4, Attack::BreakBroadcast);
        s.vss_mode = VssMode::Strict;
        let (ep, forensics) = run_episode_traced(Protocol::BatchVss, &s, 7, 16);
        assert_eq!(ep.outcome, Outcome::Unsound);
        assert_eq!((ep.seed, ep.schedule), (7, s), "replay triple must ride along");
        let trace = forensics.expect("failed episode must carry a forensic dump");
        assert!(!trace.events.is_empty());
        for id in 1..=s.n {
            let per_party = trace.events.iter().filter(|e| e.party == id).count();
            assert!(per_party <= 16, "ring cap exceeded: {per_party} events for party {id}");
        }
        // A clean episode needs no forensics: zero corruption budget means
        // the attack never engages and the run agrees.
        let calm = Schedule::new(7, 1, 0, 4, Attack::LeaderEclipse);
        let (ep2, forensics2) = run_episode_traced(Protocol::BatchVss, &calm, 11, 16);
        assert_eq!(ep2.outcome, Outcome::Agreed);
        assert!(forensics2.is_none(), "agreed episodes carry no dump");
    }

    #[test]
    fn campaign_stats_tally_and_ci() {
        let s = Schedule::new(7, 1, 1, 4, Attack::LeaderEclipse);
        let stats = run_campaign(Protocol::CoinGen, &s, 4, 0xF00D, Executor::Stepped);
        assert_eq!(stats.episodes, 4);
        assert_eq!(stats.agreed + stats.aborted + stats.unsound, 4);
        let (lo, hi) = stats.unsound_ci(1.96);
        assert!(lo >= 0.0 && hi <= 1.0 && lo <= hi);
    }

    #[test]
    fn composite_episodes_replay_identically_across_executors() {
        // Mid-episode strategy switches must stay byte-identical across
        // executors: the active leg keys on the round number, which both
        // runners present identically.
        let legs: &[(u64, Attack)] = &[
            (0, Attack::LeaderEclipse),
            (2, Attack::Equivocate),
            (4, Attack::RandomChaos { drop_pct: 20, delay_pct: 20, max_delay: 2 }),
        ];
        let s = Schedule::new(7, 1, 1, 4, legs[0].1);
        for seed in [5, 23] {
            let a = run_composite_episode(Protocol::CoinGen, &s, legs, seed, Executor::Stepped);
            let b = run_composite_episode(Protocol::CoinGen, &s, legs, seed, Executor::Parallel);
            assert_eq!(a, b, "composite episode seed {seed} diverged between executors");
        }
    }

    #[test]
    fn composite_within_model_schedule_stays_sound() {
        // Every leg in-model and f ≤ t: the Theorem 1 guarantee must
        // survive the strategy switches.
        let legs: &[(u64, Attack)] = &[
            (0, Attack::DealerDelay { delay: 2 }),
            (3, Attack::CrashAtRound { round: 5 }),
            (8, Attack::Partition { until_round: 10 }),
        ];
        let s = Schedule::new(7, 1, 1, 4, legs[0].1);
        for protocol in [Protocol::CoinGen, Protocol::BatchVss] {
            for i in 0..2u64 {
                let ep = run_composite_episode(
                    protocol,
                    &s,
                    legs,
                    episode_seed(0x5C4D, i),
                    Executor::Stepped,
                );
                assert_ne!(
                    ep.outcome,
                    Outcome::Unsound,
                    "{} composite episode {i}: corrupted {:?}",
                    protocol.name(),
                    ep.corrupted
                );
                assert!(ep.corrupted.len() <= s.f, "shared budget violated");
            }
        }
    }

    #[test]
    fn composite_schedule_differs_from_its_first_leg_alone() {
        // The later legs must actually bite: the first leg alone is a
        // crash scheduled far beyond the run's length (it never engages,
        // the episode agrees), while the composite escalates into an
        // immediate over-threshold crash and must abort.
        let legs: &[(u64, Attack)] = &[
            (0, Attack::CrashAtRound { round: 4000 }),
            (2, Attack::CrashAtRound { round: 2 }),
        ];
        let s = Schedule::new(7, 1, 3, 4, legs[0].1);
        let composite =
            run_composite_episode(Protocol::CoinGen, &s, legs, 17, Executor::Stepped);
        let single = run_episode(Protocol::CoinGen, &s, 17, Executor::Stepped);
        assert_eq!(single.outcome, Outcome::Agreed, "the dormant leg alone must be harmless");
        assert_ne!(
            composite.outcome,
            Outcome::Agreed,
            "the crash leg never engaged — the schedule is inert"
        );
    }

    #[test]
    fn campaigns_agree_between_stepped_and_parallel() {
        // Campaign-level executor equivalence: a whole adversarial sweep —
        // stateful taps, drops, delays, corruption decisions — must tally
        // identically under the thread pool.
        for attack in [
            Attack::RandomChaos { drop_pct: 20, delay_pct: 20, max_delay: 2 },
            Attack::Equivocate,
        ] {
            let s = Schedule::new(7, 1, 1, 4, attack);
            let stepped = run_campaign(Protocol::CoinGen, &s, 3, 0xBEEF, Executor::Stepped);
            let parallel = run_campaign(Protocol::CoinGen, &s, 3, 0xBEEF, Executor::Parallel);
            assert_eq!(
                stepped, parallel,
                "campaign stats diverged under {} between executors",
                attack.name()
            );
        }
    }
}
