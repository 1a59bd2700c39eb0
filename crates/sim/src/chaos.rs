//! Adaptive, traffic-observing adversaries built on the [`MsgTap`] hook.
//!
//! The paper's adversary is *static*: which ≤ t parties are corrupted is
//! fixed before the run (§2). The [`MsgTap`] surface is strictly finer —
//! it sees every message copy in flight — which makes a stronger,
//! **adaptive** adversary expressible: one that watches the traffic and
//! decides *mid-run* which parties to corrupt, within the same `t`
//! budget. This module implements that adversary as a stateful tap,
//! [`AdaptiveAdversary`], plus a menu of [`Attack`] strategies.
//!
//! # Determinism across executors
//!
//! The cross-executor guarantee (the pooled [`crate::ParRunner`]
//! and the single-threaded [`crate::StepRunner`] produce byte-identical
//! transcripts) holds for stateful taps because both executors consult
//! the tap on the coordinating thread in the same id-major order; a
//! stateful adversary additionally keeps itself executor-independent by
//! exploiting the one ordering fact lock-step synchrony guarantees —
//! **every hop of round `r` is posted strictly before any hop of round
//! `r + 1`** — and restricting its state updates to:
//!
//! * **per-sender state** (message counts, payload caches), which only
//!   that sender's own hops mutate and each sender's hops arrive in its
//!   own flush order;
//! * **cross-sender aggregates folded only at round boundaries**: the
//!   first hop observed with a higher round number triggers a *fold* of
//!   the completed round's per-sender counters, and corruption decisions
//!   are taken only at folds, from completed-round data. Every hop of a
//!   given round therefore sees the same corrupted set, under either
//!   executor.
//!
//! Per-copy fates are then pure functions of the (fold-frozen) corrupted
//! set, the hop, and per-sender caches — deterministic everywhere.
//!
//! # Model compliance
//!
//! Corrupting a sender and dropping / delaying / tampering its copies is
//! exactly the power the §2 adversary has over its ≤ t corruptions. The
//! §3 **ideal broadcast channel is a model Given**: every in-model attack
//! here delivers `broadcast: true` copies untouched. The one deliberate
//! exception, [`Attack::BreakBroadcast`], equivocates per broadcast copy
//! — a *beyond-model* strategy whose whole purpose is to let the campaign
//! harness demonstrate that its "unsound" classification can actually
//! trigger (the paper's guarantees do not, and need not, survive it).

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

use crate::adversary::{MsgFate, MsgHop, MsgTap};
use crate::router::PartyId;

/// SplitMix64: a tiny, high-quality mixer for deterministic per-copy
/// randomness (seeded, no global state).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An adaptive attack strategy. See each variant for the corruption rule
/// (applied at round-boundary folds) and the per-copy fate rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attack {
    /// Eclipse the protocol's current focal point: at each fold, corrupt
    /// the busiest sender of the just-completed round (ties to the lowest
    /// id) until the budget is spent; all copies from corrupted parties
    /// are dropped. Against Coin-Gen this tracks whoever is doing the
    /// talking — leaders and gradecast relays.
    LeaderEclipse,
    /// Slow the heavyweights: at each fold, corrupt the sender with the
    /// largest *cumulative* traffic (the dealer profile — dealing rounds
    /// dominate byte counts) and deliver its copies `delay` rounds late.
    DealerDelay {
        /// Extra rounds every corrupted copy is held back.
        delay: u64,
    },
    /// Byzantine equivocation over point-to-point copies: corrupted
    /// senders' unicast copies to even-id recipients are replaced with a
    /// stale replay of that sender's previous-round payload (dropped when
    /// no replay exists yet); odd-id recipients get the genuine copy.
    /// Broadcast copies are untouched (ideal channel). Corruption rule as
    /// [`Attack::LeaderEclipse`].
    Equivocate,
    /// Fail-stop at a chosen moment: at the fold entering round `round`,
    /// corrupt the `budget` busiest-so-far parties at once; from then on
    /// all their copies are dropped. Timed right, this kills parties
    /// mid-gradecast or mid-expose — the paper's crash-at-critical-round
    /// scenario.
    CrashAtRound {
        /// The round whose start triggers the mass crash.
        round: u64,
    },
    /// Unreliable-network chaos: a seeded pseudorandom subset of `budget`
    /// parties is corrupted up front, and each of their copies is
    /// independently dropped (with probability `drop_pct`%) or delayed
    /// 1..=`max_delay` rounds (with probability `delay_pct`%), decided by
    /// a pure hash of `(seed, from, to, round, copy index)`. Broadcast
    /// copies are hashed per `(seed, from, round)` only, so one ideal
    /// broadcast meets a single fate for every recipient — the §3 channel
    /// is degraded (a corrupted party may fail to broadcast) but never
    /// split.
    RandomChaos {
        /// Percent of corrupted copies to drop (0–100).
        drop_pct: u8,
        /// Percent of corrupted copies to delay (0–100; applied after
        /// the drop roll).
        delay_pct: u8,
        /// Largest delay, in rounds (≥ 1 when `delay_pct > 0`).
        max_delay: u64,
    },
    /// Network split: a seeded subset of `budget` parties is corrupted up
    /// front and severs itself from the rest — every copy with exactly
    /// one corrupted endpoint is dropped while `round < until_round`,
    /// after which the partition heals.
    Partition {
        /// First round of restored connectivity.
        until_round: u64,
    },
    /// **Beyond-model**: per-copy equivocation on the §3 ideal broadcast
    /// channel itself (stale replays to even-id recipients, like
    /// [`Attack::Equivocate`], but on `broadcast: true` copies). The
    /// paper assumes this cannot happen; the campaign harness uses it to
    /// prove its "unsound" verdict is reachable.
    BreakBroadcast,
}

impl Attack {
    /// Short stable name for schedules, tables and logs.
    pub fn name(&self) -> &'static str {
        match self {
            Attack::LeaderEclipse => "leader-eclipse",
            Attack::DealerDelay { .. } => "dealer-delay",
            Attack::Equivocate => "equivocate",
            Attack::CrashAtRound { .. } => "crash-at-round",
            Attack::RandomChaos { .. } => "random-chaos",
            Attack::Partition { .. } => "partition",
            Attack::BreakBroadcast => "break-broadcast",
        }
    }

    /// Whether the strategy stays within the paper's §2/§3 model (ideal
    /// broadcast respected, ≤ budget corruptions, arbitrary misbehavior
    /// of corrupted parties only).
    pub fn within_model(&self) -> bool {
        !matches!(self, Attack::BreakBroadcast)
    }
}

/// A read-only view onto an [`AdaptiveAdversary`]'s corrupted set,
/// usable after the executor has consumed the tap itself.
#[derive(Debug, Clone)]
pub struct CorruptionHandle {
    set: Arc<Mutex<BTreeSet<PartyId>>>,
}

impl CorruptionHandle {
    /// The parties corrupted so far (final set, once the run ended).
    pub fn snapshot(&self) -> BTreeSet<PartyId> {
        self.set.lock().expect("corruption set lock").clone()
    }
}

/// A stateful [`MsgTap`] that corrupts parties mid-run, within a fixed
/// budget, according to an [`Attack`] strategy. See the module docs for
/// the determinism argument.
pub struct AdaptiveAdversary<M> {
    attack: Attack,
    n: usize,
    budget: usize,
    seed: u64,
    corrupted: Arc<Mutex<BTreeSet<PartyId>>>,
    /// Highest round any observed hop belongs to.
    cur_round: u64,
    /// Whether the [`Attack::CrashAtRound`] decision already fired.
    crash_done: bool,
    /// Per-sender message counts in the round being observed.
    round_msgs: Vec<u64>,
    /// Per-sender cumulative message counts over all completed rounds.
    total_msgs: Vec<u64>,
    /// Per-sender first payload of the round being observed.
    cur_payload: Vec<Option<M>>,
    /// Per-sender first payload of the previous round (the stale-replay
    /// source for equivocation; committed at folds).
    last_payload: Vec<Option<M>>,
    /// Per-(from, to) copy counter within the current round (for
    /// [`Attack::RandomChaos`]'s per-copy hash).
    occ: Vec<u64>,
}

impl<M> AdaptiveAdversary<M> {
    /// An adversary over `n` parties corrupting at most `budget` of them.
    /// `seed` drives every pseudorandom choice, so `(attack, n, budget,
    /// seed)` fully determines the adversary's actions on a given
    /// transcript.
    pub fn new(attack: Attack, n: usize, budget: usize, seed: u64) -> Self {
        Self::with_shared(attack, n, budget, seed, Arc::new(Mutex::new(BTreeSet::new())))
    }

    /// Like [`AdaptiveAdversary::new`], but corruptions accumulate in the
    /// caller-supplied shared set — how [`ScheduledAdversary`] makes its
    /// legs spend one common budget.
    fn with_shared(
        attack: Attack,
        n: usize,
        budget: usize,
        seed: u64,
        corrupted: Arc<Mutex<BTreeSet<PartyId>>>,
    ) -> Self {
        assert!(n > 0, "need at least one party");
        // Network-level strategies fix their corrupted subset up front
        // (seeded, topping up whatever the shared set already holds); the
        // traffic-adaptive ones start empty.
        if matches!(attack, Attack::RandomChaos { .. } | Attack::Partition { .. }) {
            let mut set = corrupted.lock().expect("corruption set lock");
            let mut x = splitmix64(seed ^ 0xC0DE);
            while set.len() < budget.min(n) {
                x = splitmix64(x);
                set.insert((x % n as u64) as usize + 1);
            }
        }
        AdaptiveAdversary {
            attack,
            n,
            budget,
            seed,
            corrupted,
            cur_round: 0,
            crash_done: false,
            round_msgs: vec![0; n],
            total_msgs: vec![0; n],
            cur_payload: (0..n).map(|_| None).collect(),
            last_payload: (0..n).map(|_| None).collect(),
            occ: vec![0; n * n],
        }
    }

    /// A handle for reading the corrupted set after the run.
    pub fn handle(&self) -> CorruptionHandle {
        CorruptionHandle { set: Arc::clone(&self.corrupted) }
    }

    /// Fold the just-completed round `self.cur_round`: commit per-sender
    /// payload caches, clear per-round state, and apply the strategy's
    /// corruption rule from the completed round's aggregates.
    fn fold(&mut self) {
        for i in 0..self.n {
            if let Some(m) = self.cur_payload[i].take() {
                self.last_payload[i] = Some(m);
            }
        }
        self.occ.iter_mut().for_each(|o| *o = 0);
        let mut corrupted = self.corrupted.lock().expect("corruption set lock");
        match self.attack {
            Attack::LeaderEclipse | Attack::Equivocate | Attack::BreakBroadcast => {
                // One new corruption per fold: the completed round's
                // busiest not-yet-corrupted sender (ties to lowest id).
                if corrupted.len() < self.budget {
                    let target = (1..=self.n)
                        .filter(|p| !corrupted.contains(p) && self.round_msgs[p - 1] > 0)
                        .max_by_key(|&p| (self.round_msgs[p - 1], Reverse(p)));
                    if let Some(p) = target {
                        corrupted.insert(p);
                    }
                }
            }
            Attack::DealerDelay { .. } => {
                if corrupted.len() < self.budget {
                    let target = (1..=self.n)
                        .filter(|p| !corrupted.contains(p) && self.total_msgs[p - 1] > 0)
                        .max_by_key(|&p| (self.total_msgs[p - 1], Reverse(p)));
                    if let Some(p) = target {
                        corrupted.insert(p);
                    }
                }
            }
            Attack::CrashAtRound { round } => {
                if !self.crash_done && self.cur_round + 1 >= round {
                    self.crash_done = true;
                    let mut ids: Vec<PartyId> = (1..=self.n).collect();
                    ids.sort_by_key(|&p| (Reverse(self.total_msgs[p - 1]), p));
                    for &p in ids.iter().take(self.budget.min(self.n)) {
                        corrupted.insert(p);
                    }
                }
            }
            Attack::RandomChaos { .. } | Attack::Partition { .. } => {}
        }
        drop(corrupted);
        self.round_msgs.iter_mut().for_each(|c| *c = 0);
    }
}

impl<M: Clone + Send> MsgTap<M> for AdaptiveAdversary<M> {
    fn intercept(&mut self, hop: MsgHop<'_, M>) -> MsgFate<M> {
        // Round-boundary folds: both executors post every hop of round r
        // strictly before any hop of round r + 1, so this fires after the
        // completed round is fully recorded, under either executor.
        while hop.round > self.cur_round {
            self.fold();
            self.cur_round += 1;
        }

        // Per-sender bookkeeping (only `hop.from`'s own hops touch it).
        self.round_msgs[hop.from - 1] += 1;
        self.total_msgs[hop.from - 1] += 1;
        if self.cur_payload[hop.from - 1].is_none() {
            self.cur_payload[hop.from - 1] = Some(hop.msg.clone());
        }

        let corrupted = self.corrupted.lock().expect("corruption set lock");
        let from_corrupted = corrupted.contains(&hop.from);
        match self.attack {
            Attack::LeaderEclipse | Attack::CrashAtRound { .. } => {
                if from_corrupted {
                    MsgFate::Drop
                } else {
                    MsgFate::Deliver
                }
            }
            Attack::DealerDelay { delay } => {
                if from_corrupted {
                    MsgFate::Delay(delay)
                } else {
                    MsgFate::Deliver
                }
            }
            Attack::Equivocate => {
                if from_corrupted && !hop.broadcast && hop.to.is_multiple_of(2) {
                    match &self.last_payload[hop.from - 1] {
                        Some(m) => MsgFate::Tamper(m.clone()),
                        None => MsgFate::Drop,
                    }
                } else {
                    MsgFate::Deliver
                }
            }
            Attack::BreakBroadcast => {
                if from_corrupted && hop.broadcast && hop.to.is_multiple_of(2) {
                    match &self.last_payload[hop.from - 1] {
                        Some(m) => MsgFate::Tamper(m.clone()),
                        None => MsgFate::Drop,
                    }
                } else {
                    MsgFate::Deliver
                }
            }
            Attack::RandomChaos { drop_pct, delay_pct, max_delay } => {
                if !from_corrupted {
                    return MsgFate::Deliver;
                }
                // One uniform fate per ideal broadcast (no recipient or
                // copy-index term): a corrupted party may fail to use the
                // §3 channel, but the channel itself never equivocates.
                let h = if hop.broadcast {
                    splitmix64(
                        self.seed
                            ^ splitmix64(hop.from as u64)
                            ^ splitmix64(hop.round.rotate_left(32)),
                    )
                } else {
                    let idx = (hop.from - 1) * self.n + (hop.to - 1);
                    let occ = self.occ[idx];
                    self.occ[idx] += 1;
                    splitmix64(
                        self.seed
                            ^ splitmix64(hop.from as u64)
                            ^ splitmix64((hop.to as u64).rotate_left(16))
                            ^ splitmix64(hop.round.rotate_left(32))
                            ^ occ,
                    )
                };
                let roll = h % 100;
                if roll < drop_pct as u64 {
                    MsgFate::Drop
                } else if roll < (drop_pct as u64 + delay_pct as u64) {
                    MsgFate::Delay(1 + (h >> 32) % max_delay.max(1))
                } else {
                    MsgFate::Deliver
                }
            }
            Attack::Partition { until_round } => {
                if hop.round < until_round && (from_corrupted != corrupted.contains(&hop.to)) {
                    MsgFate::Drop
                } else {
                    MsgFate::Deliver
                }
            }
        }
    }
}

/// A composite adversary that switches [`Attack`] strategy mid-episode on
/// a fixed round schedule — the "campaign that changes its mind": eclipse
/// the leader for a while, then partition, then equivocate.
///
/// The schedule is a list of `(start_round, attack)` legs, strictly
/// ascending by start round; leg `i` is in force for every hop whose round
/// is in `[start_i, start_{i+1})`. All legs share **one** corruption
/// budget: a party corrupted by an early leg stays corrupted (corruption
/// is irrevocable in the §2 model), and later legs may only top the shared
/// set up to `budget`.
///
/// Determinism: the active leg is a pure function of `hop.round`, which
/// both executors present identically, and each leg is itself a
/// fold-at-round-boundary [`AdaptiveAdversary`] (see the module docs), so
/// the composite remains byte-identical across [`crate::StepRunner`] and
/// [`crate::ParRunner`].
///
/// Round parameters *inside* a leg ([`Attack::CrashAtRound`],
/// [`Attack::Partition`]'s heal round) stay **absolute** executor rounds,
/// not leg-relative ones — a schedule reads as one timeline.
pub struct ScheduledAdversary<M> {
    legs: Vec<(u64, Attack)>,
    n: usize,
    budget: usize,
    seed: u64,
    corrupted: Arc<Mutex<BTreeSet<PartyId>>>,
    /// The adversary of the leg currently in force.
    cur: AdaptiveAdversary<M>,
    /// Index into `legs` of the next leg to activate.
    next: usize,
}

impl<M> ScheduledAdversary<M> {
    /// Build a composite adversary over `n` parties from `(start_round,
    /// attack)` legs, sharing `budget` corruptions across all legs. The
    /// first leg is active from the first hop regardless of its nominal
    /// start round.
    ///
    /// # Panics
    ///
    /// Panics if the schedule is empty, start rounds are not strictly
    /// ascending, or `n` is zero.
    pub fn new(schedule: Vec<(u64, Attack)>, n: usize, budget: usize, seed: u64) -> Self {
        assert!(!schedule.is_empty(), "schedule needs at least one leg");
        assert!(
            schedule.windows(2).all(|w| w[0].0 < w[1].0),
            "leg start rounds must be strictly ascending"
        );
        let corrupted = Arc::new(Mutex::new(BTreeSet::new()));
        let cur = AdaptiveAdversary::with_shared(
            schedule[0].1,
            n,
            budget,
            Self::leg_seed(seed, 0),
            Arc::clone(&corrupted),
        );
        ScheduledAdversary { legs: schedule, n, budget, seed, corrupted, cur, next: 1 }
    }

    /// Per-leg seed derivation: a leg's pseudorandom choices depend on the
    /// master seed and its position, not on which attacks preceded it.
    fn leg_seed(seed: u64, leg: usize) -> u64 {
        splitmix64(seed ^ (leg as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// A handle for reading the corrupted set after the run.
    pub fn handle(&self) -> CorruptionHandle {
        CorruptionHandle { set: Arc::clone(&self.corrupted) }
    }

    /// The schedule's legs, as given.
    pub fn legs(&self) -> &[(u64, Attack)] {
        &self.legs
    }

    /// Whether every leg stays within the paper's §2/§3 model.
    pub fn within_model(&self) -> bool {
        self.legs.iter().all(|(_, a)| a.within_model())
    }

    /// Short stable composite name, e.g. `leader-eclipse>partition`.
    pub fn name(&self) -> String {
        let names: Vec<&str> = self.legs.iter().map(|(_, a)| a.name()).collect();
        names.join(">")
    }
}

impl<M: Clone + Send> MsgTap<M> for ScheduledAdversary<M> {
    fn intercept(&mut self, hop: MsgHop<'_, M>) -> MsgFate<M> {
        // Leg switches key on `hop.round` only: every hop of a round sees
        // the same leg under either executor. A fresh leg starts with
        // empty traffic aggregates (its catch-up folds see zero counts and
        // corrupt no one) but inherits the shared corrupted set.
        while self.next < self.legs.len() && hop.round >= self.legs[self.next].0 {
            let (_, attack) = self.legs[self.next];
            self.cur = AdaptiveAdversary::with_shared(
                attack,
                self.n,
                self.budget,
                Self::leg_seed(self.seed, self.next),
                Arc::clone(&self.corrupted),
            );
            self.next += 1;
        }
        self.cur.intercept(hop)
    }
}

/// A fault injected at one epoch boundary of a long-running beacon soak
/// (the epoch-granular analogue of the per-message [`Attack`] menu).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochFault {
    /// Kill the service at this epoch's start boundary. The harness
    /// restores it from the latest snapshot after `down_epochs` epochs of
    /// downtime and measures the recovery latency.
    Crash {
        /// Epochs of downtime before the restore.
        down_epochs: u64,
    },
    /// A consumer stampede: `demand` draw requests arrive this epoch,
    /// exercising reservoir backpressure.
    Stampede {
        /// Draw requests arriving in the stampede.
        demand: u32,
    },
    /// The epoch's protocol run happens under an adaptive `attack`
    /// corrupting at most `f` parties.
    Adversary {
        /// The strategy applied to this epoch's messages.
        attack: Attack,
        /// The corruption budget for this epoch.
        f: usize,
    },
}

impl EpochFault {
    /// Short stable name for logs and tables.
    pub fn name(&self) -> &'static str {
        match self {
            EpochFault::Crash { .. } => "crash",
            EpochFault::Stampede { .. } => "stampede",
            EpochFault::Adversary { .. } => "adversary",
        }
    }
}

/// An epoch-indexed fault schedule for beacon soak runs: which
/// [`EpochFault`] (if any) strikes at each epoch.
///
/// # Examples
///
/// ```
/// use dprbg_sim::{EpochFault, SoakPlan};
/// let plan = SoakPlan::new()
///     .fault(3, EpochFault::Crash { down_epochs: 2 })
///     .fault(7, EpochFault::Stampede { demand: 64 });
/// assert_eq!(plan.fault_at(3), Some(EpochFault::Crash { down_epochs: 2 }));
/// assert_eq!(plan.fault_at(4), None);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SoakPlan {
    faults: BTreeMap<u64, EpochFault>,
}

impl SoakPlan {
    /// A plan with no faults (the uninterrupted reference run).
    pub fn new() -> Self {
        SoakPlan::default()
    }

    /// Add (or replace) the fault striking at `epoch`.
    pub fn fault(mut self, epoch: u64, fault: EpochFault) -> Self {
        self.faults.insert(epoch, fault);
        self
    }

    /// The fault scheduled for `epoch`, if any.
    pub fn fault_at(&self, epoch: u64) -> Option<EpochFault> {
        self.faults.get(&epoch).copied()
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether no fault is scheduled.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Iterate the scheduled `(epoch, fault)` pairs in epoch order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, EpochFault)> + '_ {
        self.faults.iter().map(|(e, f)| (*e, *f))
    }

    /// Per-kind counts of the scheduled faults, as `(crashes,
    /// stampedes, adversary epochs)` — the shape a health report prints
    /// before a soak, so "no diagnostics" is never mistaken for
    /// "nothing was thrown at it".
    ///
    /// # Examples
    ///
    /// ```
    /// use dprbg_sim::{Attack, EpochFault, SoakPlan};
    /// let plan = SoakPlan::new()
    ///     .fault(3, EpochFault::Crash { down_epochs: 1 })
    ///     .fault(5, EpochFault::Stampede { demand: 9 })
    ///     .fault(8, EpochFault::Adversary { attack: Attack::LeaderEclipse, f: 1 });
    /// assert_eq!(plan.census(), (1, 1, 1));
    /// ```
    pub fn census(&self) -> (u64, u64, u64) {
        let mut counts = (0, 0, 0);
        for fault in self.faults.values() {
            match fault {
                EpochFault::Crash { .. } => counts.0 += 1,
                EpochFault::Stampede { .. } => counts.1 += 1,
                EpochFault::Adversary { .. } => counts.2 += 1,
            }
        }
        counts
    }

    /// A seeded composite plan striking every `period` epochs over
    /// `epochs` total, cycling pseudorandomly through crashes, stampedes
    /// and in-model adversary epochs — the mixed soak the E15 experiment
    /// runs. `(seed, epochs, period)` fully determines the plan.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn composite(seed: u64, epochs: u64, period: u64) -> Self {
        assert!(period > 0, "fault period must be positive");
        let mut plan = SoakPlan::new();
        let mut e = period;
        while e < epochs {
            let h = splitmix64(seed ^ splitmix64(e));
            let fault = match h % 4 {
                0 => EpochFault::Crash { down_epochs: 1 + (h >> 8) % 3 },
                1 => EpochFault::Stampede { demand: 8 + ((h >> 8) % 56) as u32 },
                2 => EpochFault::Adversary { attack: Attack::LeaderEclipse, f: 1 },
                _ => EpochFault::Adversary {
                    attack: Attack::RandomChaos { drop_pct: 25, delay_pct: 25, max_delay: 2 },
                    f: 1,
                },
            };
            plan.faults.insert(e, fault);
            e += period;
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{BoxedMachine, RoundMachine, RoundView, Step};
    use crate::par::ParRunner;
    use crate::step::StepRunner;

    /// A gossip fleet with deliberately skewed traffic: everyone
    /// broadcasts + unicasts each round, and party `heavy` sends one
    /// extra unicast per round so traffic-adaptive attacks have a clear
    /// target. Output: the final inbox as (from, broadcast, msg) tuples.
    struct Chatter {
        rounds: u64,
        heavy: usize,
    }
    impl RoundMachine<u64> for Chatter {
        type Output = Vec<(usize, bool, u64)>;
        fn phase_name(&self) -> &'static str {
            "chatter"
        }
        fn round(&mut self, view: RoundView<'_, u64>) -> Step<u64, Self::Output> {
            if view.round < self.rounds {
                let mut out = view.outbox();
                out.broadcast(view.id as u64 * 1000 + view.round);
                out.send_to_all(view.id as u64 * 100 + view.round);
                if view.id == self.heavy {
                    out.send(1, 7_000_000 + view.round);
                }
                Step::Continue(out)
            } else {
                Step::Done(
                    view.inbox.iter().map(|r| (r.from, r.broadcast, *r.msg())).collect(),
                )
            }
        }
    }

    fn fleet(n: usize, rounds: u64, heavy: usize) -> Vec<BoxedMachine<u64, Vec<(usize, bool, u64)>>> {
        (0..n).map(|_| Box::new(Chatter { rounds, heavy }) as _).collect()
    }

    const ALL_ATTACKS: [Attack; 7] = [
        Attack::LeaderEclipse,
        Attack::DealerDelay { delay: 2 },
        Attack::Equivocate,
        Attack::CrashAtRound { round: 2 },
        Attack::RandomChaos { drop_pct: 30, delay_pct: 30, max_delay: 2 },
        Attack::Partition { until_round: 2 },
        Attack::BreakBroadcast,
    ];

    #[test]
    fn adaptive_adversary_is_deterministic_across_executors() {
        let n = 5;
        for attack in ALL_ATTACKS {
            for seed in [3u64, 17] {
                let adv_a = AdaptiveAdversary::new(attack, n, 2, seed);
                let log_a = adv_a.handle();
                let parallel =
                    ParRunner::new(n, seed).with_tap(adv_a).run(fleet(n, 4, 3));
                let adv_b = AdaptiveAdversary::new(attack, n, 2, seed);
                let log_b = adv_b.handle();
                let stepped = StepRunner::new(n, seed).with_tap(adv_b).run(fleet(n, 4, 3));
                assert_eq!(
                    parallel.outputs, stepped.outputs,
                    "{} diverged at seed {seed}",
                    attack.name()
                );
                assert_eq!(parallel.report, stepped.report, "{}", attack.name());
                assert_eq!(parallel.rounds, stepped.rounds, "{}", attack.name());
                assert_eq!(
                    log_a.snapshot(),
                    log_b.snapshot(),
                    "{} corrupted different parties per executor",
                    attack.name()
                );
            }
        }
    }

    #[test]
    fn corruption_budget_is_respected() {
        let n = 6;
        for attack in ALL_ATTACKS {
            for budget in [0usize, 1, 3] {
                let adv = AdaptiveAdversary::new(attack, n, budget, 9);
                let log = adv.handle();
                let _ = StepRunner::new(n, 9).with_tap(adv).run(fleet(n, 5, 2));
                let corrupted = log.snapshot();
                assert!(
                    corrupted.len() <= budget,
                    "{} corrupted {corrupted:?} with budget {budget}",
                    attack.name()
                );
            }
        }
    }

    #[test]
    fn leader_eclipse_targets_the_busiest_sender() {
        // Party 4 sends one extra message per round: it must be the first
        // corruption, and its later traffic must stop arriving.
        let n = 5;
        let adv = AdaptiveAdversary::new(Attack::LeaderEclipse, n, 1, 11);
        let log = adv.handle();
        let res = StepRunner::new(n, 11).with_tap(adv).run(fleet(n, 3, 4));
        assert_eq!(log.snapshot().into_iter().collect::<Vec<_>>(), vec![4]);
        // Final-round inboxes of other parties contain nothing from 4.
        for (i, out) in res.outputs.iter().enumerate() {
            if i + 1 == 4 {
                continue;
            }
            let inbox = out.as_ref().unwrap();
            assert!(
                inbox.iter().all(|&(from, _, _)| from != 4),
                "party {} still hears the eclipsed leader",
                i + 1
            );
        }
    }

    #[test]
    fn equivocate_splits_recipients_but_spares_broadcasts() {
        let n = 4;
        let adv = AdaptiveAdversary::new(Attack::Equivocate, n, 1, 13);
        let log = adv.handle();
        let res = StepRunner::new(n, 13).with_tap(adv).run(fleet(n, 3, 2));
        let corrupted = log.snapshot();
        assert_eq!(corrupted.len(), 1);
        let evil = *corrupted.iter().next().unwrap();
        // Unicast copies from the corrupted party disagree between an odd
        // and an even recipient; its broadcast copies agree everywhere.
        let final_round = 2u64;
        let view = |id: usize| res.outputs[id - 1].as_ref().unwrap();
        let uni = |id: usize| {
            view(id)
                .iter()
                .find(|&&(from, bcast, _)| from == evil && !bcast)
                .map(|&(_, _, v)| v)
        };
        let bc = |id: usize| {
            view(id)
                .iter()
                .find(|&&(from, bcast, _)| from == evil && bcast)
                .map(|&(_, _, v)| v)
        };
        let odd = (1..=n).find(|p| p % 2 == 1 && *p != evil).unwrap();
        let even = (1..=n).find(|p| p % 2 == 0 && *p != evil).unwrap();
        assert_eq!(uni(odd), Some(evil as u64 * 100 + final_round));
        // The even recipient got a stale replay: the corrupted sender's
        // *first* payload of the previous round (its broadcast copy).
        assert_eq!(uni(even), Some(evil as u64 * 1000 + final_round - 1));
        assert_eq!(bc(odd), bc(even), "ideal broadcast channel was violated");
    }

    #[test]
    fn partition_heals_at_the_configured_round() {
        let n = 5;
        let adv = AdaptiveAdversary::new(Attack::Partition { until_round: 2 }, n, 2, 21);
        let log = adv.handle();
        // 3 gossip rounds: the final inbox is from round 2 traffic, which
        // is past the partition, so everyone hears everyone again.
        let res = StepRunner::new(n, 21).with_tap(adv).run(fleet(n, 3, 1));
        assert_eq!(log.snapshot().len(), 2);
        for out in &res.outputs {
            let inbox = out.as_ref().unwrap();
            let senders: BTreeSet<usize> = inbox.iter().map(|&(from, _, _)| from).collect();
            assert_eq!(senders.len(), n, "partition failed to heal: {senders:?}");
        }
    }

    #[test]
    fn scheduled_adversary_is_deterministic_across_executors() {
        let n = 5;
        let schedule = vec![
            (0u64, Attack::LeaderEclipse),
            (2, Attack::Partition { until_round: 3 }),
            (3, Attack::Equivocate),
        ];
        for seed in [5u64, 23] {
            let adv_a = ScheduledAdversary::new(schedule.clone(), n, 2, seed);
            let log_a = adv_a.handle();
            let parallel = ParRunner::new(n, seed).with_tap(adv_a).run(fleet(n, 5, 3));
            let adv_b = ScheduledAdversary::new(schedule.clone(), n, 2, seed);
            let log_b = adv_b.handle();
            let stepped = StepRunner::new(n, seed).with_tap(adv_b).run(fleet(n, 5, 3));
            assert_eq!(parallel.outputs, stepped.outputs, "diverged at seed {seed}");
            assert_eq!(parallel.report, stepped.report);
            assert_eq!(log_a.snapshot(), log_b.snapshot());
        }
    }

    #[test]
    fn scheduled_adversary_shares_one_budget_across_legs() {
        // Two greedy legs, budget 2: the composite may corrupt at most 2
        // parties in total, not 2 per leg.
        let n = 6;
        let schedule = vec![
            (0u64, Attack::LeaderEclipse),
            (2, Attack::RandomChaos { drop_pct: 50, delay_pct: 0, max_delay: 1 }),
        ];
        let adv = ScheduledAdversary::new(schedule, n, 2, 31);
        let log = adv.handle();
        let _ = StepRunner::new(n, 31).with_tap(adv).run(fleet(n, 5, 2));
        assert!(log.snapshot().len() <= 2, "legs overspent: {:?}", log.snapshot());
    }

    #[test]
    fn scheduled_adversary_switches_legs() {
        // Leg 1 (rounds 0–1) eclipses the busiest sender; leg 2 (round 2+)
        // is an already-healed partition that delivers everything, so
        // traffic from the still-corrupted party resumes in the final
        // inbox — proof the first leg's fate rule stopped applying.
        let n = 5;
        let schedule = vec![
            (0u64, Attack::LeaderEclipse),
            (2, Attack::Partition { until_round: 0 }),
        ];
        let adv = ScheduledAdversary::new(schedule, n, 1, 11);
        let log = adv.handle();
        let res = StepRunner::new(n, 11).with_tap(adv).run(fleet(n, 4, 4));
        assert_eq!(log.snapshot().into_iter().collect::<Vec<_>>(), vec![4]);
        // The final round's traffic was sent in round 3, under leg 2, which
        // never drops — the corrupted party is audible again.
        let heard_4 = res.outputs[0]
            .as_ref()
            .unwrap()
            .iter()
            .any(|&(from, _, _)| from == 4);
        assert!(heard_4, "leg switch did not lift the eclipse");
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn scheduled_adversary_rejects_unordered_legs() {
        let _ = ScheduledAdversary::<u64>::new(
            vec![(3, Attack::LeaderEclipse), (3, Attack::Equivocate)],
            4,
            1,
            0,
        );
    }

    #[test]
    fn soak_plan_composite_is_deterministic_and_periodic() {
        let a = SoakPlan::composite(42, 1000, 97);
        let b = SoakPlan::composite(42, 1000, 97);
        assert_eq!(a, b);
        assert_eq!(a.len(), (1000 - 1) / 97);
        assert!(a.iter().all(|(e, _)| e % 97 == 0 && e > 0 && e < 1000));
        // A different seed gives a different mix eventually.
        let c = SoakPlan::composite(43, 1000, 97);
        assert_ne!(a, c);
        assert!(SoakPlan::new().is_empty());
    }

    #[test]
    fn attack_names_and_model_flags() {
        for attack in ALL_ATTACKS {
            assert!(!attack.name().is_empty());
        }
        assert!(Attack::LeaderEclipse.within_model());
        assert!(!Attack::BreakBroadcast.within_model());
    }
}
