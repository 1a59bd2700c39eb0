//! The beacon service: a long-running, crash-recoverable epoch driver.
//!
//! [`BeaconService`] owns everything that outlives one epoch — the
//! parties' sealed-coin wallets, the exposed-coin [`Reservoir`], the
//! [`Supervisor`], cumulative statistics, the cost ledger, and a trace
//! cursor — and drives one [`EpochMachine`] fleet per epoch over either
//! executor. Three properties make it recoverable:
//!
//! 1. **Epochs are hermetic.** Each epoch is an independent fleet run
//!    whose RNG seed is derived from `(master seed, epoch number)`, so a
//!    run's randomness depends only on snapshotable data, never on how
//!    many process lifetimes preceded it.
//! 2. **All cross-epoch state is plain data.** No thread, socket, or RNG
//!    survives an epoch boundary; [`BeaconService::snapshot`] serializes
//!    the whole service and [`BeaconService::restore`] rebuilds it, so a
//!    process killed at *any* epoch boundary and restored continues
//!    byte-identically to one that never died (property-tested across
//!    both executors).
//! 3. **Epochs are transactional.** A protocol epoch commits only when
//!    every party's outcome is consistent (lock-step wallets, unanimous
//!    serve/refill results); anything else keeps the epoch-start wallets
//!    (the fleet ran on copies) and lets the [`Supervisor`] decide how to
//!    proceed. Honest-party disagreement — the one outcome the paper's
//!    model rules out — is reported as [`BeaconError::Unsound`], never
//!    papered over.

use dprbg_core::{
    CoinGenConfig, CoinWallet, ProtocolError, RetryPolicy, TrustedDealer, MIN_SEEDS_PER_ATTEMPT,
};
use dprbg_field::Field;
use dprbg_metrics::{CostReport, CostSnapshot, LogicalTime, Registry};
use dprbg_rng::splitmix64;
use dprbg_sim::{
    AdaptiveAdversary, Attack, BoxedMachine, ParRunner, RunResult, StepRunner, TraceConfig,
};
use dprbg_trace::{Event, EventKind};

use crate::epoch::{BeaconMsg, EpochMachine, EpochOutcome, RefillReport};
use crate::health::{metric, EpochOutcomeTag, FlightRecorder, HealthRecord, RefillStatus};
use crate::reservoir::{DrawOutcome, Reservoir, ReservoirConfig};
use crate::supervisor::{EpochDecision, Mode, Supervisor};

/// The RNG seed of epoch `epoch` under `master_seed`: a pure function of
/// snapshotable data, so restored services re-derive identical epochs.
pub fn epoch_seed(master_seed: u64, epoch: u64) -> u64 {
    splitmix64(master_seed ^ splitmix64(epoch.wrapping_add(1)))
}

/// Which executor drives the epoch fleet. Both are byte-identical per
/// seed, so the choice is a performance knob — and the determinism
/// property tests exploit that by mixing them freely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutorKind {
    /// The single-threaded [`StepRunner`].
    Step,
    /// The [`ParRunner`] with its default worker pool.
    Par,
    /// The [`ParRunner`] pinned to an explicit worker count — the health
    /// plane's cross-thread-count determinism tests sweep this.
    ParThreads(usize),
}

/// Standing configuration of a [`BeaconService`]. Not serialized into
/// snapshots — the restorer supplies it and the snapshot's embedded
/// parameters are checked against it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BeaconConfig {
    /// Coin-Gen parameters for the gen plane.
    pub coin_gen: CoinGenConfig,
    /// Sizing of the exposed-coin reservoir.
    pub reservoir: ReservoirConfig,
    /// Refill the wallet when an epoch's serve split would leave it at
    /// or below this many sealed coins.
    pub wallet_low_water: usize,
    /// Retry/seed-budget policy for each refill.
    pub retry: RetryPolicy,
    /// Cap on the supervisor's backoff exponent.
    pub max_backoff_exp: u32,
    /// Round cap per epoch — the liveness backstop under adversaries
    /// that stall the protocol.
    pub max_rounds_per_epoch: u64,
}

/// A failure the service cannot turn into policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BeaconError {
    /// Honest parties disagreed on an epoch's outcome — a violation of
    /// the paper's unanimity guarantees (Theorem 1), impossible while
    /// the adversary stays within the `f ≤ t` model.
    Unsound {
        /// The epoch whose outcomes disagreed.
        epoch: u64,
        /// Which consistency check failed.
        detail: &'static str,
    },
}

impl std::fmt::Display for BeaconError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BeaconError::Unsound { epoch, detail } => {
                write!(f, "unsound epoch {epoch}: honest parties disagreed on {detail}")
            }
        }
    }
}

impl std::error::Error for BeaconError {}

/// Cumulative service statistics (snapshotted).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BeaconStats {
    /// Epochs driven (including skipped ones).
    pub epochs: u64,
    /// Epochs that ran the protocol fleet.
    pub protocol_epochs: u64,
    /// Epochs skipped by backoff or read-only mode.
    pub skipped_epochs: u64,
    /// Coins exposed and admitted into the reservoir. Conservation
    /// invariant: always equals `coins_served` plus the current stock —
    /// an exposed coin is served or banked, never destroyed.
    pub coins_exposed: u64,
    /// Coins granted to consumers.
    pub coins_served: u64,
    /// Draws answered with [`DrawOutcome::WouldBlock`].
    pub would_block: u64,
    /// Draws answered with [`DrawOutcome::Starved`].
    pub starved: u64,
    /// Successful gen-plane refills.
    pub refills: u64,
    /// Failed gen-plane refills.
    pub refill_failures: u64,
    /// Sealed coins consumed as Coin-Gen seeds.
    pub seeds_spent: u64,
    /// Epochs rolled back for cross-party divergence.
    pub rollbacks: u64,
    /// Serve-plane exposes that failed to decode.
    pub expose_failures: u64,
    /// Synchronous protocol rounds driven.
    pub rounds: u64,
}

/// What one [`BeaconService::run_epoch`] call did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochReport<F: Field> {
    /// The epoch number driven.
    pub epoch: u64,
    /// The supervisor's decision for this epoch.
    pub decision: EpochDecision,
    /// Whether a protocol fleet actually ran.
    pub ran: bool,
    /// Protocol rounds the epoch took (0 when skipped).
    pub rounds: u64,
    /// Coins exposed this epoch and admitted to the reservoir ahead of
    /// the serve pass.
    pub exposed: usize,
    /// The gen plane's result, if a refill was scheduled.
    pub refill: Option<Result<RefillReport, ProtocolError>>,
    /// Whether the epoch was rolled back (wallets restored, nothing
    /// deposited).
    pub rolled_back: bool,
    /// Per-draw outcomes, grouped by consumer in demand order.
    pub draws: Vec<(u32, DrawOutcome<F>)>,
    /// A rendered forensic health dump, attached on the rollback path so
    /// the evidence travels with the report that needs it.
    pub forensics: Option<String>,
}

/// The long-running beacon: all cross-epoch state, plain and
/// snapshotable.
pub struct BeaconService<F: Field> {
    pub(crate) cfg: BeaconConfig,
    pub(crate) master_seed: u64,
    pub(crate) epoch: u64,
    /// Per-party wallets, lock-step by construction (divergent epochs
    /// roll back).
    pub(crate) wallets: Vec<CoinWallet<F>>,
    pub(crate) reservoir: Reservoir<F>,
    pub(crate) supervisor: Supervisor,
    pub(crate) stats: BeaconStats,
    /// Cumulative per-party cost ledger across all epochs.
    pub(crate) ledger: CostReport,
    /// Rounds folded into the trace cursor so far.
    pub(crate) trace_rounds: u64,
    /// Events folded into the trace digest so far.
    pub(crate) trace_events: u64,
    /// Order-independent digest of every trace event the service ever
    /// produced (rebased to service-global rounds). Snapshotting the
    /// digest instead of the events keeps snapshots O(1) in run length.
    pub(crate) trace_digest: u64,
    /// Health-plane registry: counters/gauges/histograms keyed on
    /// logical time, byte-identical across executors.
    pub(crate) registry: Registry,
    /// Bounded ring of per-epoch health records (the flight recorder).
    pub(crate) recorder: FlightRecorder,
}

/// How many per-epoch [`HealthRecord`]s the flight recorder retains.
/// A service constant, not serialized — see [`FlightRecorder`].
pub const FLIGHT_RECORDER_EPOCHS: usize = 64;

/// The fault injections threaded into one epoch fleet run: an in-model
/// message-tap adversary and/or the fire-drill's post-run output
/// discard (see [`BeaconService::rollback_drill`]).
#[derive(Debug, Clone, Copy, Default)]
struct Injection {
    adversary: Option<(Attack, usize)>,
    drill: Option<usize>,
}

impl<F: Field> BeaconService<F> {
    /// A fresh beacon: `initial_coins` sealed coins per wallet dealt by
    /// the trusted dealer of §1.2 (seeded from `master_seed`), empty
    /// reservoir, healthy supervisor.
    pub fn new(cfg: BeaconConfig, master_seed: u64, initial_coins: usize) -> Self {
        let n = cfg.coin_gen.params.n;
        let wallets = TrustedDealer::deal_wallets::<F>(
            cfg.coin_gen.params,
            initial_coins,
            splitmix64(master_seed ^ 0xDEA1),
        );
        BeaconService {
            reservoir: Reservoir::new(cfg.reservoir),
            supervisor: Supervisor::new(cfg.max_backoff_exp),
            cfg,
            master_seed,
            epoch: 0,
            wallets,
            stats: BeaconStats::default(),
            ledger: CostReport::from_snapshots((0..n).map(|_| CostSnapshot::default())),
            trace_rounds: 0,
            trace_events: 0,
            trace_digest: 0,
            registry: Registry::new(),
            recorder: FlightRecorder::new(FLIGHT_RECORDER_EPOCHS),
        }
    }

    /// The next epoch number to be driven.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> BeaconStats {
        self.stats
    }

    /// The exposed-coin reservoir.
    pub fn reservoir(&self) -> &Reservoir<F> {
        &self.reservoir
    }

    /// The failure-policy supervisor.
    pub fn supervisor(&self) -> &Supervisor {
        &self.supervisor
    }

    /// Sealed coins left in the (lock-step) wallets.
    pub fn wallet_level(&self) -> usize {
        self.wallets.first().map_or(0, CoinWallet::len)
    }

    /// The cumulative per-party cost ledger.
    pub fn ledger(&self) -> &CostReport {
        &self.ledger
    }

    /// The trace cursor: `(rounds, events, digest)` folded so far.
    pub fn trace_cursor(&self) -> (u64, u64, u64) {
        (self.trace_rounds, self.trace_events, self.trace_digest)
    }

    /// The health-plane registry (counters, gauges, histograms).
    pub fn health(&self) -> &Registry {
        &self.registry
    }

    /// The flight recorder: the last [`FLIGHT_RECORDER_EPOCHS`] epochs'
    /// health records.
    pub fn flight_recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Record a completed crash recovery: the service was down for
    /// `down_epochs` epochs and has been restored. Called by the
    /// operator/harness after [`BeaconService::restore`] succeeds —
    /// restore itself cannot know how long the process was dead.
    pub fn note_recovery(&mut self, down_epochs: u64) {
        self.registry.counter_add(metric::RECOVERIES, &[], 1);
        self.registry.histogram_observe(metric::RECOVERY_DEPTH, &[], down_epochs);
    }

    /// Render the flight recorder plus supervisor state as a forensic
    /// report. The rollback path attaches this to its [`EpochReport`];
    /// callers that hit [`BeaconError::Unsound`] should call it
    /// themselves before discarding the service.
    pub fn forensic_report(&self, reason: &str) -> String {
        let mut out = self.recorder.render(reason);
        out.push_str(&format!(
            "supervisor: mode={} failures={} blamed={:?}\n",
            self.supervisor.mode().label(),
            self.supervisor.failures(),
            self.supervisor.blamed(),
        ));
        out
    }

    /// Drive one epoch: decide policy, (maybe) run the two-plane fleet,
    /// commit or roll back, admit exposed coins, and serve `demands`
    /// (`(consumer id, coins wanted)` pairs) with round-robin fairness.
    ///
    /// `adversary` injects an [`AdaptiveAdversary`] with the given attack
    /// and corruption budget into the epoch's message layer.
    ///
    /// # Errors
    ///
    /// [`BeaconError::Unsound`] when honest parties disagree. The
    /// epoch's effects are discarded wholesale — wallets, reservoir,
    /// ledger, trace cursor, and statistics are left exactly as they
    /// were — and only the epoch counter advances, so a caller that
    /// chooses to continue is not forced to replay the same doomed
    /// epoch (and the snapshot/replay invariant survives either way).
    pub fn run_epoch(
        &mut self,
        executor: ExecutorKind,
        demands: &[(u32, u32)],
        adversary: Option<(Attack, usize)>,
    ) -> Result<EpochReport<F>, BeaconError> {
        let epoch = self.epoch;
        let mode_before = self.supervisor.mode();
        let decision = self.supervisor.decide(epoch);
        let mut report = EpochReport {
            epoch,
            decision,
            ran: false,
            rounds: 0,
            exposed: 0,
            refill: None,
            rolled_back: false,
            draws: Vec::new(),
            forensics: None,
        };

        let mut fresh = Vec::new();
        if decision == EpochDecision::Run {
            let (serve_count, refill) = self.plan(demands);
            if serve_count > 0 || refill.is_some() {
                match self
                    .run_protocol(
                        epoch,
                        serve_count,
                        refill,
                        executor,
                        Injection { adversary, drill: None },
                        &mut report,
                    )
                {
                    Ok(coins) => fresh = coins,
                    Err(e) => {
                        self.stats.epochs += 1;
                        self.epoch += 1;
                        return Err(e);
                    }
                }
            }
        } else {
            self.stats.skipped_epochs += 1;
        }

        // Fresh coins answer this epoch's demand before the leftover is
        // banked: a demand spike larger than the reservoir's capacity is
        // served in full (wallet permitting), never exposed-then-refused.
        report.exposed = fresh.len();
        self.stats.coins_exposed += fresh.len() as u64;
        self.reservoir.admit(fresh);

        // Serve demand from stock. Starvation is sharp: only a beacon
        // that can never refill again starves its consumers.
        let starving = self.supervisor.mode() == Mode::ReadOnly;
        report.draws = self.reservoir.serve(demands, starving);
        for (_, outcome) in &report.draws {
            match outcome {
                DrawOutcome::Coin(_) => self.stats.coins_served += 1,
                DrawOutcome::WouldBlock => self.stats.would_block += 1,
                DrawOutcome::Starved => self.stats.starved += 1,
            }
        }

        self.stats.epochs += 1;
        self.epoch += 1;
        self.record_health(mode_before, &mut report);
        Ok(report)
    }

    /// Fold one committed epoch into the health plane: registry metrics,
    /// a flight-recorder entry, and (on the rollback path) the forensic
    /// dump. Called only from [`Self::run_epoch`]'s `Ok` path — the
    /// Unsound path discards the epoch wholesale, health included, so
    /// the snapshot-equality contract survives.
    fn record_health(&mut self, mode_before: Mode, report: &mut EpochReport<F>) {
        let epoch = report.epoch;
        let at = LogicalTime::at_epoch(epoch);
        let outcome = match report.decision {
            EpochDecision::ReadOnly => EpochOutcomeTag::Degraded,
            EpochDecision::Skip => EpochOutcomeTag::Skipped,
            EpochDecision::Run if report.rolled_back => EpochOutcomeTag::RolledBack,
            EpochDecision::Run => EpochOutcomeTag::Committed,
        };

        let r = &mut self.registry;
        r.counter_add(metric::EPOCHS, &[("outcome", outcome.label())], 1);
        if report.ran {
            r.counter_add(metric::ROUNDS, &[], report.rounds);
            r.histogram_observe(metric::EPOCH_ROUNDS, &[], report.rounds);
        }
        if report.exposed > 0 {
            r.counter_add(metric::COINS_EXPOSED, &[], report.exposed as u64);
        }

        let (mut served, mut would_block, mut starved) = (0u32, 0u32, 0u32);
        let mut grants: std::collections::BTreeMap<u32, u64> = std::collections::BTreeMap::new();
        for (consumer, draw) in &report.draws {
            match draw {
                DrawOutcome::Coin(_) => {
                    served += 1;
                    *grants.entry(*consumer).or_insert(0) += 1;
                }
                DrawOutcome::WouldBlock => would_block += 1,
                DrawOutcome::Starved => starved += 1,
            }
        }
        for (label, count) in
            [("coin", served), ("would_block", would_block), ("starved", starved)]
        {
            if count > 0 {
                r.counter_add(metric::DRAWS, &[("outcome", label)], count as u64);
            }
        }
        for (consumer, granted) in &grants {
            let consumer = consumer.to_string();
            r.counter_add(metric::GRANTS, &[("consumer", &consumer)], *granted);
        }

        let mut refill_status = RefillStatus::NotScheduled;
        let mut refill_attempts = 0u32;
        match &report.refill {
            Some(Ok(rr)) => {
                refill_status = RefillStatus::Ok;
                refill_attempts = rr.attempts as u32;
                r.counter_add(metric::REFILLS, &[("result", "ok")], 1);
                r.counter_add(metric::REFILL_ATTEMPTS, &[], rr.attempts as u64);
                r.counter_add(metric::SEEDS_SPENT, &[], rr.seeds_spent as u64);
            }
            Some(Err(_)) => {
                refill_status = RefillStatus::Failed;
                r.counter_add(metric::REFILLS, &[("result", "failed")], 1);
            }
            None => {}
        }
        if report.rolled_back {
            r.counter_add(metric::ROLLBACKS, &[], 1);
        }

        let mode_after = self.supervisor.mode();
        if mode_after != mode_before {
            r.counter_add(
                metric::MODE_TRANSITIONS,
                &[("from", mode_before.label()), ("to", mode_after.label())],
                1,
            );
        }
        let wallet_level = self.wallets.first().map_or(0, CoinWallet::len);
        r.gauge_set(metric::RESERVOIR_LEVEL, &[], at, self.reservoir.level() as u64);
        r.gauge_set(metric::WALLET_LEVEL, &[], at, wallet_level as u64);
        r.gauge_set(metric::SUPERVISOR_FAILURES, &[], at, self.supervisor.failures() as u64);
        r.gauge_set(metric::BACKOFF_EXP, &[], at, self.supervisor.backoff_exp() as u64);

        self.recorder.push(HealthRecord {
            epoch,
            outcome,
            mode: mode_after,
            rounds: report.rounds,
            exposed: report.exposed as u32,
            served,
            would_block,
            starved,
            wallet_level: wallet_level as u32,
            reservoir_level: self.reservoir.level() as u32,
            failures: self.supervisor.failures(),
            backoff_exp: self.supervisor.backoff_exp(),
            refill: refill_status,
            refill_attempts,
        });

        if report.rolled_back {
            report.forensics =
                Some(self.forensic_report("epoch rolled back: cross-party divergence"));
        }
    }

    /// Plan the epoch: how many coins to expose (serve plane) and
    /// whether to refill (gen plane). A pure function of snapshotable
    /// state plus this epoch's demands, so all parties — and all resumed
    /// incarnations — make the same choice.
    fn plan(&self, demands: &[(u32, u32)]) -> (usize, Option<RetryPolicy>) {
        let demand_total: usize = demands.iter().map(|&(_, want)| want as usize).sum();
        let stock = self.reservoir.level();
        let rcfg = self.reservoir.config();
        // Expose enough to meet demand and restore the low-water cushion.
        // Demand is served from the fresh coins before the leftover is
        // banked, so only the post-serve cushion is subject to the
        // capacity bound — clamping it keeps the post-serve level at or
        // under capacity (given stock ≤ capacity, which this preserves),
        // so the admission after the fleet run never destroys a coin.
        let cushion = rcfg.low_water.min(rcfg.capacity);
        let want = (demand_total + cushion).saturating_sub(stock);
        let avail = self.wallet_level();
        let mut serve_count = want.min(avail);
        let refill_needed = avail - serve_count <= self.cfg.wallet_low_water;
        if refill_needed {
            // Keep at least one attempt's worth of seeds for the gen
            // plane — serving them as output coins now would trade the
            // beacon's future for one epoch's throughput.
            serve_count = serve_count.min(avail.saturating_sub(MIN_SEEDS_PER_ATTEMPT));
        }
        (serve_count, refill_needed.then_some(self.cfg.retry))
    }

    /// Run the two-plane fleet for `epoch` and commit or roll back;
    /// returns the epoch's successfully exposed coins (empty on a
    /// rollback) for the caller to serve and bank.
    fn run_protocol(
        &mut self,
        epoch: u64,
        serve_count: usize,
        refill: Option<RetryPolicy>,
        executor: ExecutorKind,
        inject: Injection,
        report: &mut EpochReport<F>,
    ) -> Result<Vec<F>, BeaconError> {
        let n = self.cfg.coin_gen.params.n;
        let machines: Vec<BoxedMachine<BeaconMsg<F>, EpochOutcome<F>>> = self
            .wallets
            .iter()
            .cloned()
            .map(|w| {
                Box::new(EpochMachine::new(self.cfg.coin_gen, w, serve_count, refill))
                    as BoxedMachine<BeaconMsg<F>, _>
            })
            .collect();

        let seed = epoch_seed(self.master_seed, epoch);
        let (mut res, corrupted) = self.run_fleet(n, seed, executor, inject.adversary, machines);
        if let Some(party) = inject.drill {
            res.outputs[party - 1] = None;
        }
        self.commit_epoch(epoch, res, &corrupted, report)
    }

    /// Fire-drill for the abort machinery: run one real (adversary-free)
    /// epoch fleet, then discard the last party's output before the
    /// consistency audit, exactly as if that party's process had died
    /// mid-epoch. The divergence audit, the transactional rollback, the
    /// supervisor's failure policy, and the forensic flight-recorder
    /// dump all fire through the same code a real incident would take.
    ///
    /// The drill exists because no in-model adversary can reach the
    /// rollback path through [`Self::run_epoch`]: within the `f ≤ t`
    /// model failures are symmetric and commit as *failed* epochs (the
    /// E12 campaign's zero-unsound evidence), so the audit is
    /// defense-in-depth against states the theorems rule out. Operators
    /// (and the repro corpus) use the drill to prove the plumbing end to
    /// end before trusting it in anger.
    ///
    /// The drill is a real epoch: the rollback restores the wallets, but
    /// the epoch counter advances, the supervisor records the failure
    /// (expect a backoff), and the flight recorder keeps the rolled-back
    /// record. The returned report has `rolled_back` set and carries the
    /// forensic dump.
    pub fn rollback_drill(&mut self, executor: ExecutorKind) -> EpochReport<F> {
        let epoch = self.epoch;
        let mode_before = self.supervisor.mode();
        let mut report = EpochReport {
            epoch,
            decision: EpochDecision::Run,
            ran: false,
            rounds: 0,
            exposed: 0,
            refill: None,
            rolled_back: false,
            draws: Vec::new(),
            forensics: None,
        };
        // A minimal serve-plane fleet (one coin, no refill): enough
        // protocol to produce the per-party outputs the audit rejects.
        let serve_count = 1usize.min(self.wallet_level());
        let drill_party = self.cfg.coin_gen.params.n;
        let inject = Injection { adversary: None, drill: Some(drill_party) };
        let coins = self
            .run_protocol(epoch, serve_count, None, executor, inject, &mut report)
            .unwrap_or_else(|_| unreachable!("a drilled epoch diverges, and divergence rolls back"));
        debug_assert!(coins.is_empty(), "a rolled-back epoch exposes no coins");
        self.stats.epochs += 1;
        self.epoch += 1;
        self.record_health(mode_before, &mut report);
        report
    }

    /// Audit one epoch's fleet result and commit, roll back, or reject
    /// it as unsound. Factored out of [`Self::run_protocol`] so the
    /// Unsound path's state discipline is unit-testable — no in-model
    /// adversary can make honest fleet machines disagree.
    fn commit_epoch(
        &mut self,
        epoch: u64,
        mut res: RunResult<EpochOutcome<F>>,
        corrupted: &std::collections::BTreeSet<usize>,
        report: &mut EpochReport<F>,
    ) -> Result<Vec<F>, BeaconError> {
        let n = self.cfg.coin_gen.params.n;
        report.ran = true;
        report.rounds = res.rounds.len() as u64;

        // Consistency audit — before any service state is touched, so an
        // unsound verdict discards the epoch wholesale. Wallets must stay
        // lock-step across *all* parties (a diverged wallet poisons every
        // future expose), each party's surviving shares must descend from
        // its own pre-epoch wallet (still `self.wallets` until commit),
        // and the parties the adversary did not touch must agree exactly.
        let honest: Vec<usize> =
            (1..=n).filter(|id| !corrupted.contains(id)).collect();
        let divergent = res.outputs.iter().any(Option::is_none)
            || !Self::lock_step(&res.outputs)
            || !Self::retention_intact(&res.outputs, &self.wallets);
        if !divergent {
            // All outputs present and lock-step; now honest parties must
            // be *unanimous* — anything else breaks Theorem 1. Checked
            // before stats/ledger/trace merge so the Unsound path leaves
            // the service byte-identical to its pre-epoch state.
            let outcomes: Vec<&EpochOutcome<F>> = res
                .outputs
                .iter()
                .map(|o| o.as_ref().unwrap_or_else(|| unreachable!()))
                .collect();
            for pair in honest.windows(2) {
                let (a, b) = (outcomes[pair[0] - 1], outcomes[pair[1] - 1]);
                if a.served != b.served {
                    return Err(BeaconError::Unsound { epoch, detail: "served coin values" });
                }
                if a.refill != b.refill {
                    return Err(BeaconError::Unsound { epoch, detail: "refill results" });
                }
            }
        }

        // The epoch's outcome is representable as policy: commit the
        // accounting. The rollback path keeps it too — the fleet really
        // ran and its rounds, costs, and trace are part of the service's
        // history even though its wallets are not.
        self.stats.protocol_epochs += 1;
        self.stats.rounds += report.rounds;
        self.ledger.merge(&res.report);
        self.fold_trace(&res);

        if divergent {
            // Adversary-induced divergence: transactional rollback, i.e.
            // the post-epoch wallets are not adopted.
            self.stats.rollbacks += 1;
            report.rolled_back = true;
            let err = ProtocolError::Aborted {
                blame: corrupted.iter().copied().collect(),
                reason: "epoch diverged across parties",
            };
            self.supervisor.on_failure(epoch, &err, self.wallet_level());
            return Ok(Vec::new());
        }

        // Commit: adopt every party's post-epoch wallet, hand the
        // consensus coins back for serving, and convert results into
        // supervisor policy. The consensus party's coins and refill
        // verdict are taken out before its wallet moves.
        let consensus = res.outputs[honest.first().map_or(1, |&id| id) - 1]
            .as_mut()
            .unwrap_or_else(|| unreachable!());
        let (served, refill) = (std::mem::take(&mut consensus.served), consensus.refill.take());
        self.wallets =
            res.outputs.into_iter().map(|o| o.unwrap_or_else(|| unreachable!()).wallet).collect();

        let ok_coins: Vec<F> = served.iter().filter_map(|r| (*r).ok()).collect();
        let failures = served.len() - ok_coins.len();
        self.stats.expose_failures += failures as u64;

        match &refill {
            Some(Ok(r)) => {
                self.stats.refills += 1;
                self.stats.seeds_spent += r.seeds_spent as u64;
                self.supervisor.on_success();
            }
            Some(Err(e)) => {
                self.stats.refill_failures += 1;
                self.supervisor.on_failure(epoch, e, self.wallet_level());
            }
            None if failures > 0 => {
                // Serve-plane decode failures without a refill verdict
                // still count as a failed protocol epoch.
                let err = ProtocolError::Coin(crate::CoinError::DecodeFailed);
                self.supervisor.on_failure(epoch, &err, self.wallet_level());
            }
            None => {}
        }
        report.refill = refill;
        Ok(ok_coins)
    }

    /// Drive the fleet under the chosen executor, with tracing and the
    /// optional adversary tap; returns the run and the corrupted set.
    fn run_fleet(
        &self,
        n: usize,
        seed: u64,
        executor: ExecutorKind,
        adversary: Option<(Attack, usize)>,
        machines: Vec<BoxedMachine<BeaconMsg<F>, EpochOutcome<F>>>,
    ) -> (RunResult<EpochOutcome<F>>, std::collections::BTreeSet<usize>) {
        let max_rounds = self.cfg.max_rounds_per_epoch;
        let tap = adversary.map(|(attack, f)| {
            let adv = AdaptiveAdversary::new(attack, n, f, splitmix64(seed ^ 0xBAD));
            let handle = adv.handle();
            (adv, handle)
        });
        match executor {
            ExecutorKind::Step => {
                let runner = StepRunner::new(n, seed)
                    .with_trace(TraceConfig::full())
                    .with_max_rounds(max_rounds);
                match tap {
                    Some((adv, h)) => (runner.with_tap(adv).run(machines), h.snapshot()),
                    None => (runner.run(machines), std::collections::BTreeSet::new()),
                }
            }
            ExecutorKind::Par | ExecutorKind::ParThreads(_) => {
                let mut runner = ParRunner::new(n, seed)
                    .with_trace(TraceConfig::full())
                    .with_max_rounds(max_rounds);
                if let ExecutorKind::ParThreads(threads) = executor {
                    runner = runner.with_threads(threads);
                }
                match tap {
                    Some((adv, h)) => (runner.with_tap(adv).run(machines), h.snapshot()),
                    None => (runner.run(machines), std::collections::BTreeSet::new()),
                }
            }
        }
    }

    /// Whether every party finished with the same wallet length, serve
    /// count, and refill verdict shape — the cross-party half of the
    /// lock-step invariant. Wallet share *values* differ across parties
    /// by design (each holds its own Shamir shares), so content is
    /// audited per party against its own pre-epoch wallet by
    /// [`Self::retention_intact`].
    fn lock_step(outputs: &[Option<EpochOutcome<F>>]) -> bool {
        let mut shapes = outputs.iter().map(|o| {
            o.as_ref().map(|out| {
                (out.wallet.len(), out.served.len(), out.refill.as_ref().map(Result::is_ok))
            })
        });
        let Some(first) = shapes.next() else { return true };
        first.is_some() && shapes.all(|s| s == first)
    }

    /// Whether each party's post-epoch wallet is its pre-epoch wallet
    /// with some shares popped off the front and fresh batch shares
    /// appended at the back — the only shape an honest epoch can
    /// produce. This checks the surviving share *values*, not just
    /// lengths: a wallet whose retained shares changed would poison a
    /// future expose, so it must trigger the transactional rollback now
    /// rather than surface as a decode failure epochs later.
    fn retention_intact(outputs: &[Option<EpochOutcome<F>>], before: &[CoinWallet<F>]) -> bool {
        outputs.iter().zip(before).all(|(o, prior)| {
            let Some(out) = o.as_ref() else { return false };
            let fresh =
                out.refill.as_ref().and_then(|r| r.as_ref().ok()).map_or(0, |r| r.coins);
            let Some(retained) = out.wallet.len().checked_sub(fresh) else { return false };
            if retained > prior.len() {
                return false;
            }
            let consumed = prior.len() - retained;
            (0..retained).all(|i| out.wallet.peek_at(i) == prior.peek_at(consumed + i))
        })
    }

    /// Fold one epoch's trace into the service-global cursor. The digest
    /// accumulates commutatively (wrapping addition of per-event
    /// hashes), so it is independent of the executor's event
    /// interleaving while still binding every event's content.
    fn fold_trace(&mut self, res: &RunResult<EpochOutcome<F>>) {
        let base = self.trace_rounds;
        if let Some(trace) = &res.trace {
            for ev in &trace.events {
                self.trace_digest =
                    self.trace_digest.wrapping_add(Self::event_hash(base, ev));
                self.trace_events += 1;
            }
        }
        self.trace_rounds += res.rounds.len() as u64;
    }

    /// A content hash of one trace event, rebased to service-global
    /// rounds.
    fn event_hash(base_round: u64, ev: &Event) -> u64 {
        let mut h = splitmix64(
            ev.party as u64 ^ splitmix64(base_round + ev.round) ^ ((ev.seq as u64) << 32),
        );
        let (tag, a, b) = match &ev.kind {
            EventKind::Begin { phase } => (1u64, Self::str_hash(phase), 0),
            EventKind::Flush { messages, bytes } => (2, *messages, *bytes),
            EventKind::End { cost } => (
                3,
                cost.field_adds ^ cost.field_muls.rotate_left(16),
                cost.prg_invocations ^ cost.messages.rotate_left(16) ^ cost.bytes.rotate_left(32),
            ),
        };
        h = splitmix64(h ^ tag);
        h = splitmix64(h ^ a);
        splitmix64(h ^ b)
    }

    /// FNV-1a over a label's bytes.
    fn str_hash(s: &str) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in s.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dprbg_core::{Params, SealedShare};
    use dprbg_field::Gf2k;
    use std::collections::BTreeSet;

    type F = Gf2k<32>;

    fn config() -> BeaconConfig {
        BeaconConfig {
            coin_gen: CoinGenConfig { params: Params::p2p_model(7, 1).unwrap(), batch_size: 8 },
            reservoir: crate::ReservoirConfig { capacity: 8, low_water: 2 },
            wallet_low_water: 0,
            retry: RetryPolicy { max_attempts: 3, seed_budget: 8 },
            max_backoff_exp: 3,
            max_rounds_per_epoch: 4096,
        }
    }

    fn blank_report(epoch: u64) -> EpochReport<F> {
        EpochReport {
            epoch,
            decision: EpochDecision::Run,
            ran: false,
            rounds: 0,
            exposed: 0,
            refill: None,
            rolled_back: false,
            draws: Vec::new(),
            forensics: None,
        }
    }

    fn fleet_result(outputs: Vec<Option<EpochOutcome<F>>>) -> RunResult<EpochOutcome<F>> {
        let n = outputs.len();
        RunResult {
            outputs,
            report: CostReport::from_snapshots((0..n).map(|_| CostSnapshot::default())),
            rounds: Vec::new(),
            trace: None,
        }
    }

    /// One popped-front epoch outcome per party, with `served` chosen by
    /// the caller.
    fn outcomes_serving(
        wallets: &[CoinWallet<F>],
        served: impl Fn(usize) -> Vec<Result<F, crate::CoinError>>,
    ) -> Vec<Option<EpochOutcome<F>>> {
        wallets
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let mut wallet = w.clone();
                let _ = wallet.pop();
                Some(EpochOutcome { wallet, served: served(i), refill: None })
            })
            .collect()
    }

    #[test]
    fn unsound_epoch_leaves_service_state_untouched() {
        // REVIEW regression: the unanimity check must run before the
        // stats/ledger/trace merge, so an Unsound epoch is discarded
        // wholesale and a continuing caller cannot double-fold its trace.
        let mut svc = BeaconService::<F>::new(config(), 0xFACE, 6);
        // Warm the counters so "untouched" is not vacuous.
        svc.run_epoch(ExecutorKind::Step, &[(1, 1)], None).unwrap();
        let pre_snap = svc.snapshot();
        let pre_cursor = svc.trace_cursor();

        // Fabricate an all-honest epoch whose parties disagree on the
        // served value — unreachable through the fleet (Theorem 1), which
        // is exactly why this path is exercised at the commit layer.
        let res =
            fleet_result(outcomes_serving(&svc.wallets, |i| vec![Ok(F::from_u64(i as u64))]));
        let mut report = blank_report(1);
        let err = svc.commit_epoch(1, res, &BTreeSet::new(), &mut report).unwrap_err();
        assert_eq!(err, BeaconError::Unsound { epoch: 1, detail: "served coin values" });
        assert_eq!(svc.snapshot(), pre_snap, "unsound epoch mutated service state");
        assert_eq!(svc.trace_cursor(), pre_cursor);
    }

    #[test]
    fn tampered_retained_share_triggers_rollback_not_commit() {
        // REVIEW regression: lock-step shapes are not enough — a party
        // whose surviving wallet shares changed value must hit the
        // transactional rollback now, not poison a later expose.
        let mut svc = BeaconService::<F>::new(config(), 0xFACE2, 6);
        let pre_wallets = svc.wallets.clone();
        let mut outputs = outcomes_serving(&pre_wallets, |_| vec![Ok(F::from_u64(7))]);
        // Flip one retained share at party 4: same length, wrong value.
        let out3 = outputs[3].as_mut().unwrap();
        let mut shares: Vec<SealedShare<F>> =
            (0..out3.wallet.len()).map(|j| *out3.wallet.peek_at(j).unwrap()).collect();
        shares[0] = SealedShare::of(F::from_u64(0xBAD0BAD));
        out3.wallet = shares.into_iter().collect();

        let mut report = blank_report(0);
        let fresh = svc
            .commit_epoch(0, fleet_result(outputs), &BTreeSet::new(), &mut report)
            .unwrap();
        assert!(fresh.is_empty(), "a rolled-back epoch exposes nothing");
        assert!(report.rolled_back);
        assert_eq!(svc.wallets, pre_wallets, "rollback must restore the pre-epoch wallets");
        assert_eq!(svc.stats().rollbacks, 1);
    }

    #[test]
    fn honest_suffix_wallets_pass_the_retention_audit() {
        let svc = BeaconService::<F>::new(config(), 0xFACE3, 6);
        let outputs = outcomes_serving(&svc.wallets, |_| vec![Ok(F::from_u64(7))]);
        assert!(BeaconService::retention_intact(&outputs, &svc.wallets));
    }

    #[test]
    fn rollback_drill_rolls_back_and_attaches_forensics() {
        let mut svc = BeaconService::<F>::new(config(), 0xD811, 8);
        // Real history first, so the dump has something to say.
        for _ in 0..3 {
            svc.run_epoch(ExecutorKind::Step, &[(1, 1)], None).unwrap();
        }
        let pre_wallets = svc.wallets.clone();
        let pre_epoch = svc.epoch();

        let report = svc.rollback_drill(ExecutorKind::Step);
        assert!(report.rolled_back);
        assert!(report.ran);
        let dump = report.forensics.expect("the rollback path must attach the forensic dump");
        assert!(dump.contains("beacon forensic dump"), "{dump}");
        assert!(dump.contains("rolled_back"), "the drilled epoch's record must be in the dump");
        assert!(dump.contains("supervisor: mode="), "{dump}");

        assert_eq!(svc.wallets, pre_wallets, "the drill's rollback must restore the wallets");
        assert_eq!(svc.epoch(), pre_epoch + 1, "the drilled epoch still advances the counter");
        assert_eq!(svc.stats().rollbacks, 1);
        assert_eq!(svc.supervisor().failures(), 1, "the drill is a real supervisor failure");
        let last = svc.flight_recorder().records().last().unwrap();
        assert_eq!(last.outcome, EpochOutcomeTag::RolledBack);
    }

    #[test]
    fn rollback_drill_is_deterministic_across_executors() {
        let run = |executor| {
            let mut svc = BeaconService::<F>::new(config(), 0xD812, 8);
            for _ in 0..2 {
                svc.run_epoch(executor, &[(1, 1)], None).unwrap();
            }
            let report = svc.rollback_drill(executor);
            (report.forensics.unwrap(), svc.snapshot())
        };
        let (dump_step, snap_step) = run(ExecutorKind::Step);
        let (dump_par, snap_par) = run(ExecutorKind::ParThreads(2));
        assert_eq!(dump_step, dump_par, "the drill's dump must not depend on the executor");
        assert_eq!(snap_step, snap_par, "the drilled service must stay snapshot-identical");
    }

    #[test]
    fn every_recorded_metric_is_declared_with_its_kind() {
        let mut svc = BeaconService::<F>::new(config(), 0xDEC1, 8);
        svc.note_recovery(2);
        for _ in 0..4 {
            svc.run_epoch(ExecutorKind::Step, &[(1, 2), (2, 3)], None).unwrap();
        }
        svc.rollback_drill(ExecutorKind::Step);
        svc.run_epoch(ExecutorKind::Step, &[(1, 1)], None).unwrap();
        assert!(svc.health().len() >= 15, "the run must exercise most metrics");
        for (id, value) in svc.health().iter() {
            assert!(
                crate::health::metric::KINDS.contains(&(id.name(), value.kind())),
                "{} ({}) is not declared in health::metric",
                id.name(),
                value.kind()
            );
        }
    }
}
