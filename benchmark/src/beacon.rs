//! The two beacon workloads: `BeaconService` epochs driven back to back.
//! `soak_n7` is E15's composite-fault soak (snapshot every epoch, crashes
//! restored from it, stampedes, in-model adversaries) where per-epoch
//! fixed costs dominate; `serve_n31` never refills, so it is the stretch
//! plane (Coin-Expose) alone.

use std::time::Instant;

use dprbg_beacon::{
    epoch_seed, BeaconConfig, BeaconMsg, BeaconService, DrawOutcome, EpochMachine, EpochOutcome,
    EpochReport, ExecutorKind, Reservoir, ReservoirConfig,
};
use dprbg_core::{
    CoinBatch, CoinGenConfig, CoinGenError, CoinGenMachine, CoinGenMsg, CoinWallet, Params,
    RetryPolicy, TrustedDealer,
};
use dprbg_field::{Field, Gf2k};
use dprbg_metrics::{CommStats, CostSnapshot};
use dprbg_sim::{BoxedMachine, EpochFault, ParRunner, SoakPlan, StepRunner, TraceConfig};

use crate::common::{derive_seed, metric, time_ms, timed_setup, Fnv, RunArgs, RunOutput, Samples};
use crate::layers::{self, Split};
use crate::proc::{alloc_counts, count_allocs};
use crate::spans::{lock, SharedLog, SpanId, Timed, NO_PARENT};
use crate::stats::median;

type F = Gf2k<32>;
type Fleet = Vec<BoxedMachine<BeaconMsg<F>, EpochOutcome<F>>>;

pub struct Spec {
    pub n: usize,
    pub t: usize,
    pub reservoir: ReservoirConfig,
    pub wallet_low_water: usize,
    pub initial_coins: usize,
    /// Epochs one service is driven for at the manifest's run length.
    pub epochs_per_service: u64,
    /// Timed epochs in a run of the manifest's length.
    pub epochs_per_10s: u64,
    /// E15's composite fault plan with this period, a snapshot at every
    /// epoch boundary; `None` runs fault-free without snapshots.
    pub fault_period: Option<u64>,
    /// `(consumer, coins wanted)` of the two steady consumers at an epoch.
    pub demands: fn(u64) -> [(u32, u32); 2],
    pub warmup_epochs: u64,
    pub setup_reps: usize,
}

pub const SOAK: Spec = Spec {
    n: 7,
    t: 1,
    reservoir: ReservoirConfig {
        capacity: 16,
        low_water: 4,
    },
    wallet_low_water: 6,
    initial_coins: 12,
    epochs_per_service: 1000,
    epochs_per_10s: 16_000,
    fault_period: Some(7),
    demands: |e| [(1, 1), (2, 1 + (e % 2) as u32)],
    warmup_epochs: 500,
    setup_reps: 5,
};

pub const SERVE: Spec = Spec {
    n: 31,
    t: 5,
    reservoir: ReservoirConfig {
        capacity: 64,
        low_water: 0,
    },
    wallet_low_water: 0,
    initial_coins: 2048,
    epochs_per_service: 36,
    epochs_per_10s: 144,
    fault_period: None,
    demands: |e| [(1, 16), (2, 16 + (e % 2) as u32)],
    warmup_epochs: 2,
    setup_reps: 5,
};

const TAG_MASTER: u64 = 0xBEAC;
const TAG_WARM: u64 = 0x3A23;
/// Coins per shadow wallet: more than any epoch's serve count plus a
/// refill's seed budget.
const SHADOW_COINS: usize = 96;

impl Spec {
    fn cfg(&self) -> BeaconConfig {
        BeaconConfig {
            coin_gen: CoinGenConfig {
                params: Params::p2p_model(self.n, self.t)
                    .expect("workload parameters satisfy n >= 6t+1"),
                batch_size: 8,
            },
            reservoir: self.reservoir,
            wallet_low_water: self.wallet_low_water,
            retry: RetryPolicy {
                max_attempts: 3,
                seed_budget: 12,
            },
            max_backoff_exp: 3,
            max_rounds_per_epoch: 4096,
        }
    }

    /// `(services, epochs each)` for `ops` epochs in total.
    fn shape(&self, ops: u64) -> (u64, u64) {
        let services = ops.div_ceil(self.epochs_per_service).max(1);
        (services, (ops / services).max(1))
    }

    fn plan(&self, master: u64, epochs: u64) -> SoakPlan {
        self.fault_period
            .map_or_else(SoakPlan::new, |p| SoakPlan::composite(master, epochs, p))
    }
}

/// One service with its fault plan, built during set-up.
struct Soak {
    svc: BeaconService<F>,
    plan: SoakPlan,
}

fn build(spec: &Spec, master: u64, epochs: u64) -> Soak {
    Soak {
        svc: BeaconService::new(spec.cfg(), master, spec.initial_coins),
        plan: spec.plan(master, epochs),
    }
}

/// Where a traced epoch records its spans.
#[derive(Clone, Copy)]
struct Tracing<'a> {
    log: &'a SharedLog,
    parent: SpanId,
    op: u32,
}

fn spanned<T>(tracing: Option<Tracing<'_>>, name: &'static str, f: impl FnOnce() -> T) -> T {
    let Some(tr) = tracing else { return f() };
    let id = lock(tr.log).open(name, tr.parent, tr.op);
    let out = f();
    lock(tr.log).close(id);
    out
}

/// One op: the boundary snapshot, the crash-restore if one strikes, and
/// `run_epoch`. `kill` adds E15's unscheduled snapshot→drop→restore,
/// which a correct service must not notice.
fn drive_epoch(
    spec: &Spec,
    soak: &mut Soak,
    e: u64,
    kill: bool,
    tracing: Option<Tracing<'_>>,
) -> Option<EpochReport<F>> {
    let cfg = spec.cfg();
    let fault = soak.plan.fault_at(e);
    if spec.fault_period.is_some() {
        let boundary = spanned(tracing, "snapshot", || soak.svc.snapshot());
        if let Some(EpochFault::Crash { down_epochs }) = fault {
            spanned(tracing, "restore", || {
                soak.svc =
                    BeaconService::restore(cfg, &boundary).expect("own boundary snapshot restores");
                soak.svc.note_recovery(down_epochs);
            });
        }
    }
    if kill {
        let snap = soak.svc.snapshot();
        soak.svc = BeaconService::restore(cfg, &snap).expect("own snapshot restores");
    }
    let steady = (spec.demands)(e);
    let mut demands = steady.to_vec();
    let mut adversary = None;
    match fault {
        Some(EpochFault::Stampede { demand }) => demands.push((9, demand)),
        Some(EpochFault::Adversary { attack, f }) => adversary = Some((attack, f)),
        _ => {}
    }
    spanned(tracing, "run_epoch", || {
        soak.svc
            .run_epoch(ExecutorKind::Step, &demands, adversary)
            .ok()
    })
}

/// Output and cost accounting across services.
#[derive(Default)]
struct Audit {
    digest: Fnv,
    cost: CostSnapshot,
    comm: CommStats,
    epochs: u64,
    rounds: u64,
    coins_exposed: u64,
    would_block: u64,
    draws: u64,
    refills: u64,
    refill_attempts: u64,
    seeds_spent: u64,
    snapshot_bytes: u64,
    /// The first service's final snapshot (the twin check replays it).
    first_final: Option<Vec<u8>>,
}

impl Audit {
    /// Fold one epoch's report; returns `(coins granted, failed)`.
    ///
    /// Failed: `Err(Unsound)`, a rollback, a failed refill, or a starved
    /// draw.
    fn epoch(&mut self, report: Option<&EpochReport<F>>) -> (u64, bool) {
        let Some(report) = report else {
            return (0, true);
        };
        let mut coins = 0;
        let mut starved = false;
        for (consumer, draw) in &report.draws {
            self.draws += 1;
            match draw {
                DrawOutcome::Coin(c) => {
                    coins += 1;
                    self.digest.word(u64::from(*consumer));
                    self.digest.word(c.to_u64());
                }
                DrawOutcome::WouldBlock => self.would_block += 1,
                DrawOutcome::Starved => starved = true,
            }
        }
        if let Some(Ok(r)) = &report.refill {
            self.refill_attempts += r.attempts as u64;
        }
        let failed = report.rolled_back || matches!(report.refill, Some(Err(_))) || starved;
        (coins, failed)
    }

    /// Check a finished service and fold its totals.
    ///
    /// # Panics
    ///
    /// If coins were lost or conjured (`coins_exposed != coins_served +
    /// stock`) — the service's outputs are wrong and the benchmark aborts.
    fn service(&mut self, svc: &BeaconService<F>) {
        let s = svc.stats();
        assert_eq!(
            s.coins_exposed,
            s.coins_served + svc.reservoir().level() as u64,
            "output check: coin conservation"
        );
        let snapshot = svc.snapshot();
        self.digest.bytes(&snapshot);
        self.cost = self.cost.plus(&svc.ledger().total());
        self.comm.messages += svc.ledger().comm.messages;
        self.comm.bytes += svc.ledger().comm.bytes;
        self.epochs += s.epochs;
        self.rounds += s.rounds;
        self.coins_exposed += s.coins_exposed;
        self.refills += s.refills;
        self.seeds_spent += s.seeds_spent;
        self.snapshot_bytes += snapshot.len() as u64;
        self.first_final.get_or_insert(snapshot);
    }

    fn exact(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("field.muls", self.cost.field_muls),
            ("field.adds", self.cost.field_adds),
            ("field.invs", self.cost.field_invs),
            ("poly.interps", self.cost.interpolations),
            ("rng.prg", self.cost.prg_invocations),
            ("sim.rounds", self.rounds),
            ("sim.messages", self.comm.messages),
            ("sim.bytes", self.comm.bytes),
            ("beacon.coins_exposed", self.coins_exposed),
            ("beacon.refills", self.refills),
            ("beacon.snapshot_bytes", self.snapshot_bytes),
        ]
    }
}

struct Prepared {
    soaks: Vec<Soak>,
    epochs: u64,
    first_op_ms: f64,
}

fn prepare(spec: &Spec, args: &RunArgs, ops: u64) -> Prepared {
    let seed = args.seed;
    let (services, epochs) = spec.shape(ops);
    let warmup_epochs = args.warmups(spec.warmup_epochs);
    let mut warm = build(spec, derive_seed(seed, TAG_WARM, 0), warmup_epochs);
    let mut first_op_ms = 0.0;
    for e in 0..warmup_epochs {
        let t0 = Instant::now();
        let report = drive_epoch(spec, &mut warm, e, false, None);
        if e == 0 {
            first_op_ms = t0.elapsed().as_secs_f64() * 1e3;
        }
        std::hint::black_box(report);
    }
    let soaks = (0..services)
        .map(|s| build(spec, derive_seed(seed, TAG_MASTER, s), epochs))
        .collect();
    Prepared {
        soaks,
        epochs,
        first_op_ms,
    }
}

/// Drive every prepared service for its epochs, untraced. Returns the
/// latency of each service's epoch 0: the like-for-like warm reference
/// of the process's first op.
fn drive_all(
    spec: &Spec,
    prepared: Prepared,
    samples: &mut Samples,
    audit: &mut Audit,
) -> Vec<f64> {
    let mut epoch0_ms = Vec::new();
    for mut soak in prepared.soaks {
        samples.clock.resume();
        for e in 0..prepared.epochs {
            let t0 = Instant::now();
            let report = drive_epoch(spec, &mut soak, e, false, None);
            let latency = t0.elapsed();
            let (coins, failed) = audit.epoch(report.as_ref());
            samples.record(latency, coins, failed);
            if e == 0 {
                epoch0_ms.push(latency.as_secs_f64() * 1e3);
            }
        }
        samples.clock.pause();
        audit.service(&soak.svc);
    }
    epoch0_ms
}

pub fn run(spec: &Spec, args: &RunArgs) -> RunOutput {
    let ops = args.ops(spec.epochs_per_10s, 8);
    if args.trace {
        return run_traced(spec, args, ops);
    }
    let (prepared, setup_s) = timed_setup(args.setup_reps(spec.setup_reps), || {
        prepare(spec, args, ops)
    });
    let (first_op_ms, epochs) = (prepared.first_op_ms, prepared.epochs);

    let mut samples = Samples::default();
    let mut audit = Audit::default();
    drive_all(spec, prepared, &mut samples, &mut audit);

    let mut out = RunOutput {
        attempted: samples.attempted(),
        failed: samples.failed,
        digest: audit.digest.0,
        exact: audit.exact(),
        ..RunOutput::default()
    };
    if spec.fault_period.is_some() {
        // E15's determinism check, outside the timed section: service 0
        // replayed with an extra kill/restore at its midpoint must end in
        // a byte-identical snapshot.
        let mut twin = build(spec, derive_seed(args.seed, TAG_MASTER, 0), epochs);
        for e in 0..epochs {
            drive_epoch(spec, &mut twin, e, e == epochs / 2, None);
        }
        let identical = audit.first_final.as_deref() == Some(twin.svc.snapshot().as_slice());
        assert!(
            identical,
            "output check: kill@{} replay diverged",
            epochs / 2
        );
        out.notes.push(format!(
            "kill/restore twin at epoch {}: final snapshot byte-identical",
            epochs / 2
        ));
    }
    out.metrics = samples.end_to_end(setup_s, &mut out.notes);
    out.notes
        .push(format!("first op in this process {first_op_ms:.3} ms"));
    out
}

/// A standalone epoch fleet with the service's (serve, refill) plan.
/// With `timed`, the machines are wrapped in `Timed` under a
/// `shadow_run` span (returned, for the caller to close) that opens only
/// after they are built, as the service builds its own before it starts
/// the executor.
fn shadow_fleet(
    cfg: CoinGenConfig,
    wallets: &[CoinWallet<F>],
    (serve, refill): (usize, Option<RetryPolicy>),
    timed: Option<Tracing<'_>>,
) -> (Fleet, Option<SpanId>) {
    let inners: Vec<EpochMachine<F>> = wallets
        .iter()
        .map(|w| EpochMachine::new(cfg, w.clone(), serve, refill))
        .collect();
    let Some(Tracing {
        log,
        parent: root,
        op,
    }) = timed
    else {
        return (inners.into_iter().map(|m| Box::new(m) as _).collect(), None);
    };
    let parent = lock(log).open("shadow_run", root, op);
    let fleet = inners
        .into_iter()
        .map(|inner| {
            Box::new(Timed {
                inner,
                log: log.clone(),
                parent,
                op,
            }) as _
        })
        .collect();
    (fleet, Some(parent))
}

/// The traced pass: reference services untraced, the same services again
/// with a span per boundary and — because the service builds its fleet
/// inside `run_epoch` — one standalone `EpochMachine` fleet per epoch
/// with the same (serve, refill) plan under `Timed` adapters, which is
/// where the sim and `round()`-body times come from.
fn run_traced(spec: &Spec, args: &RunArgs, ops: u64) -> RunOutput {
    let cfg = spec.cfg();
    let (services, _) = spec.shape(ops);
    let traced_services = (services / 4).max(1);
    let slice = |mut p: Prepared| {
        p.soaks.truncate(traced_services as usize);
        p
    };
    let prepared = prepare(spec, args, ops);
    let (first_op_ms, epochs) = (prepared.first_op_ms, prepared.epochs);

    let mut reference = Samples::default();
    let mut audit = Audit::default();
    let epoch0_ms = drive_all(spec, slice(prepared), &mut reference, &mut audit);

    // Same seeds, fresh services, spans on.
    let log = SharedLog::default();
    let root = lock(&log).open("workload", NO_PARENT, 0);
    let shadow_wallets =
        TrustedDealer::deal_wallets::<F>(cfg.coin_gen.params, SHADOW_COINS, args.seed ^ 0x5AD0);
    let mut traced = Samples::default();
    let mut traced_audit = Audit::default();
    let mut plans = Vec::new();
    let mut last = None;
    let mut op = 0u32;
    for mut soak in slice(prepare(spec, args, ops)).soaks {
        for e in 0..epochs {
            op += 1;
            count_allocs(true);
            let op_span = lock(&log).open("op", root, op);
            let t0 = Instant::now();
            let report = drive_epoch(
                spec,
                &mut soak,
                e,
                false,
                Some(Tracing {
                    log: &log,
                    parent: op_span,
                    op,
                }),
            );
            let latency = t0.elapsed();
            lock(&log).close(op_span);
            count_allocs(false);
            let (coins, failed) = traced_audit.epoch(report.as_ref());
            traced.record(latency, coins, failed);

            if let Some(r) = report.filter(|r| r.ran) {
                plans.push((op, (r.exposed, r.refill.is_some().then_some(cfg.retry))));
            }
        }
        traced_audit.service(&soak.svc);
        last = Some(soak);
    }
    let allocs = alloc_counts();

    // The shadow fleets run after the traced ops, not between them, so
    // they do not disturb the caches the next op finds.
    let mut deliveries = 0u64;
    for &(op, plan) in &plans {
        let under_root = Tracing {
            log: &log,
            parent: root,
            op,
        };
        let (fleet, run_span) = shadow_fleet(cfg.coin_gen, &shadow_wallets, plan, Some(under_root));
        let res = StepRunner::new(spec.n, epoch_seed(args.seed, u64::from(op)))
            .with_trace(TraceConfig::full())
            .run(fleet);
        lock(&log).close(run_span.expect("a timed fleet opens its run span"));
        deliveries += res.rounds.iter().map(|p| p.deliveries as u64).sum::<u64>();
    }
    lock(&log).close(root);
    // The epoch fleet the executors are compared on: the last refill plan
    // when the workload refills, else the last serve-only plan.
    let last_plan = plans
        .iter()
        .rev()
        .find(|(_, plan)| plan.1.is_some())
        .or(plans.last())
        .map_or((0, None), |&(_, plan)| plan);
    assert_eq!(
        audit.digest.0, traced_audit.digest.0,
        "tracing changed the outputs"
    );
    let last = last.expect("at least one service ran");

    // Step vs Par and the logical trace's cost, on the workload's epoch
    // fleet (the refill plan when the workload refills), warm, interleaved,
    // outputs asserted equal before a time is used.
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let fleet = || shadow_fleet(cfg.coin_gen, &shadow_wallets, last_plan, None).0;
    let run_seed = epoch_seed(args.seed, 0);
    let (mut step_ms, mut par_ms, mut full_ms) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..6 {
        let t0 = Instant::now();
        let stepped = StepRunner::new(spec.n, run_seed).run(fleet());
        let step_t = t0.elapsed().as_secs_f64() * 1e3;
        let t0 = Instant::now();
        let parallel = ParRunner::new(spec.n, run_seed)
            .with_threads(threads)
            .run(fleet());
        let par_t = t0.elapsed().as_secs_f64() * 1e3;
        let t0 = Instant::now();
        let full = StepRunner::new(spec.n, run_seed)
            .with_trace(TraceConfig::full())
            .run(fleet());
        let full_t = t0.elapsed().as_secs_f64() * 1e3;
        let same = stepped.outputs == parallel.outputs
            && stepped.report == parallel.report
            && stepped.outputs == full.outputs;
        assert!(same, "executor parity: runs of one epoch fleet diverged");
        if i > 0 {
            // Pair 0 is the warm-up.
            step_ms.push(step_t);
            par_ms.push(par_t);
            full_ms.push(full_t);
        }
    }
    let (step_ms, par_ms, full_ms) = (median(&step_ms), median(&par_ms), median(&full_ms));

    // Standalone pieces: one Coin-Gen at the beacon's configuration, the
    // snapshot codec on the final service, the reservoir alone.
    type CgOut = (CoinWallet<F>, Result<CoinBatch<F>, CoinGenError>);
    let (coin_gen_ms, coin_gen_reps) = time_ms(3, layers::BUDGET, || {
        let fleet: Vec<BoxedMachine<CoinGenMsg<F>, CgOut>> = shadow_wallets
            .iter()
            .map(|w| Box::new(CoinGenMachine::new(cfg.coin_gen, w.clone())) as _)
            .collect();
        let outs = StepRunner::new(spec.n, run_seed).run(fleet).unwrap_all();
        assert!(
            outs.iter().all(|(_, r)| r.is_ok()),
            "fault-free Coin-Gen succeeds"
        );
    });
    let final_snapshot = last.svc.snapshot();
    let (snapshot_ms, snapshot_reps) = time_ms(5, layers::BUDGET, || {
        std::hint::black_box(last.svc.snapshot());
    });
    let (restore_ms, restore_reps) = time_ms(5, layers::BUDGET, || {
        std::hint::black_box(
            BeaconService::<F>::restore(cfg, &final_snapshot).expect("own snapshot restores"),
        );
    });
    let draws_per_rep = 64u64;
    let (reservoir_ms, reservoir_reps) = time_ms(5, layers::BUDGET, || {
        let mut r = Reservoir::<F>::new(ReservoirConfig::with_capacity(draws_per_rep as usize));
        r.deposit((0..draws_per_rep).map(F::from_u64));
        std::hint::black_box(r.serve(&[(1, 32), (2, 32)], false));
    });

    let costs = layers::micros::<F>(spec.n, spec.t, cfg.coin_gen.batch_size, args.seed);
    let ops_n = traced.attempted();
    let kf = ops_n as f64;
    let per_op = |total: u64| total as f64 / kf;
    let (by_name, run_epoch_ns, fleet_ns) = {
        let log = lock(&log);
        let total = |name: &str| {
            log.spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.dur_ns())
                .sum::<u64>() as f64
        };
        (
            log.self_ns_by(|name| name),
            total("run_epoch"),
            total("shadow_run"),
        )
    };
    let ns = |name: &str| by_name.get(name).copied().unwrap_or(0) as f64;
    let wall_ns = traced.op_wall_s() * 1e9;
    let gen_bodies = ns("epoch/gen+serve") + ns("epoch/gen");
    let serve_bodies = ns("epoch/serve") + ns("epoch/drain");
    let sim_ns = ns("shadow_run");
    // One Coin-Gen run deals M coins and a blinding polynomial from each
    // of n parties to n parties.
    let evals = traced_audit.refill_attempts as f64
        * (spec.n * (cfg.coin_gen.batch_size + 1) * spec.n) as f64;
    let cost = traced_audit.cost;
    let (field_ns, poly_ns) = costs.arithmetic_ns(&cost, evals);
    let split = Split {
        wall_ns,
        // The service's own work is what `run_epoch` took beyond an
        // equal fleet, plus the snapshot/restore and the serve-plane
        // bodies (`EpochMachine`'s demux around the exposes).
        beacon_ns: (wall_ns - fleet_ns).max(0.0) + serve_bodies,
        sim_ns,
        core_ns: gen_bodies,
        protocols_ns: 0.0,
        field_ns,
        poly_ns,
    };

    let mut metrics = layers::cost_metrics(&cost, ops_n, wall_ns / kf, &costs).to_vec();
    metrics.extend([
        metric("core.coin_gen_ms", coin_gen_ms, coin_gen_reps),
        metric(
            "core.body_share",
            (gen_bodies + serve_bodies) / wall_ns,
            ops_n,
        ),
        metric(
            "core.attempts_per_op",
            traced_audit.refill_attempts as f64 / traced_audit.refills.max(1) as f64,
            traced_audit.refills,
        ),
        metric(
            "core.seeds_per_coin",
            traced_audit.seeds_spent as f64 / traced_audit.coins_exposed.max(1) as f64,
            traced_audit.coins_exposed,
        ),
        metric("sim.self_ms_per_op", sim_ns / 1e6 / kf, ops_n),
        metric("sim.self_share", sim_ns / wall_ns, ops_n),
        metric("sim.rounds_per_op", per_op(traced_audit.rounds), ops_n),
        metric(
            "sim.messages_per_op",
            per_op(traced_audit.comm.messages),
            ops_n,
        ),
        metric("sim.bytes_per_op", per_op(traced_audit.comm.bytes), ops_n),
        metric("sim.deliveries_per_op", per_op(deliveries), ops_n),
        metric("sim.step_run_ms", step_ms, 5),
        metric("sim.par_run_ms", par_ms, 5),
        metric("sim.par_speedup", step_ms / par_ms, 5),
        metric("beacon.run_epoch_us", run_epoch_ns / 1e3 / kf, ops_n),
        metric("beacon.epoch_fleet_us", fleet_ns / 1e3 / kf, ops_n),
        metric(
            "beacon.self_us_per_epoch",
            (run_epoch_ns - fleet_ns).max(0.0) / 1e3 / kf,
            ops_n,
        ),
        metric(
            "beacon.phase_ms.epoch",
            (gen_bodies + serve_bodies) / 1e6 / kf,
            ops_n,
        ),
        metric("beacon.snapshot_us", snapshot_ms * 1e3, snapshot_reps),
        metric("beacon.snapshot_bytes", final_snapshot.len() as f64, 1),
        metric("beacon.restore_us", restore_ms * 1e3, restore_reps),
        metric(
            "beacon.reservoir_ns_per_draw",
            reservoir_ms * 1e6 / draws_per_rep as f64,
            reservoir_reps * draws_per_rep,
        ),
        metric("beacon.refill_share", per_op(traced_audit.refills), ops_n),
        metric("beacon.coins_per_epoch", per_op(traced.coins), ops_n),
        metric(
            "beacon.would_block_share",
            traced_audit.would_block as f64 / traced_audit.draws.max(1) as f64,
            traced_audit.draws,
        ),
        metric("trace.full_overhead_ratio", full_ms / step_ms, 5),
    ]);
    // The like-for-like warm reference of the process's first op is a
    // fresh service's epoch 0.
    metrics.extend(layers::proc_metrics(
        allocs,
        reference.clock.proc,
        ops_n,
        first_op_ms,
        median(&epoch0_ms),
    ));
    metrics.extend(layers::bench_metrics(&reference, &traced));
    metrics.extend(costs.metrics);
    metrics.extend(split.metrics(ops_n));
    metrics.extend(layers::not_applicable(&metrics));

    let mut out = RunOutput {
        attempted: reference.attempted() + traced.attempted(),
        failed: reference.failed + traced.failed,
        digest: audit.digest.0,
        metrics,
        exact: audit.exact(),
        ..RunOutput::default()
    };
    out.notes.push(format!(
        "executor parity OK over 5 warm interleaved pairs of the epoch fleet (serve {}, refill {}): \
         StepRunner {step_ms:.3} ms, ParRunner ({threads} threads) {par_ms:.3} ms",
        last_plan.0,
        last_plan.1.is_some()
    ));
    out.notes.extend(layers::write_spans(&log, args));
    out
}
