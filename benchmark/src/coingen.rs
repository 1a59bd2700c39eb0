//! The two Coin-Gen workloads: one `CoinGenMachine` fleet per op under
//! `StepRunner`, fault-free. `coingen_n61` is the message-plane extreme
//! (few coins, n³ grade-cast echo), `bigbatch_n13` the arithmetic extreme
//! (M = 8192 coins per run).

use std::time::Instant;

use dprbg_core::{
    CoinBatch, CoinGenConfig, CoinGenError, CoinGenMachine, CoinGenMsg, CoinWallet, Params,
    TrustedDealer,
};
use dprbg_field::Field;
use dprbg_metrics::CostSnapshot;
use dprbg_poly::BatchDecoder;
use dprbg_sim::{BoxedMachine, ParRunner, RunResult, StepRunner, TraceConfig};

use crate::common::{derive_seed, metric, timed_setup, Fnv, RunArgs, RunOutput, Samples};
use crate::layers::{self, Split};
use crate::proc::{alloc_counts, count_allocs};
use crate::spans::{lock, prefix, SharedLog, Timed, NO_PARENT};
use crate::stats::median;

pub struct Spec {
    pub n: usize,
    pub t: usize,
    /// Coins sealed per run.
    pub m: usize,
    /// Sealed seed coins dealt to each wallet before a run.
    pub wallet_coins: usize,
    pub warmups: u64,
    /// Timed ops in a run of the manifest's length.
    pub ops_per_10s: u64,
    pub setup_reps: usize,
}

pub const N61: Spec = Spec {
    n: 61,
    t: 10,
    m: 4,
    wallet_coins: 14,
    warmups: 1,
    ops_per_10s: 2,
    setup_reps: 3,
};
pub const BIGBATCH: Spec = Spec {
    n: 13,
    t: 2,
    m: 8192,
    wallet_coins: 14,
    warmups: 2,
    ops_per_10s: 120,
    setup_reps: 3,
};

type Out<F> = (CoinWallet<F>, Result<CoinBatch<F>, CoinGenError>);
type Fleet<F> = Vec<BoxedMachine<CoinGenMsg<F>, Out<F>>>;

const TAG_DEAL: u64 = 0xDEA1;
const TAG_RUN: u64 = 0x0C01;

impl Spec {
    fn cfg(&self) -> CoinGenConfig {
        let params =
            Params::p2p_model(self.n, self.t).expect("workload parameters satisfy n >= 6t+1");
        CoinGenConfig {
            params,
            batch_size: self.m,
        }
    }
}

fn fleet<F: Field>(cfg: CoinGenConfig, wallets: &[CoinWallet<F>]) -> Fleet<F> {
    wallets
        .iter()
        .map(|w| Box::new(CoinGenMachine::new(cfg, w.clone())) as _)
        .collect()
}

/// Everything before the timed section: per-op wallets and run seeds, and
/// the warm-up ops.
struct Prepared<F: Field> {
    /// `(wallets, run seed)` per timed op.
    inputs: Vec<(Vec<CoinWallet<F>>, u64)>,
    first_op_ms: f64,
}

fn prepare<F: Field>(spec: &Spec, args: &RunArgs, ops: u64) -> Prepared<F> {
    let seed = args.seed;
    let cfg = spec.cfg();
    let input = |i: u64| {
        let wallets = TrustedDealer::deal_wallets::<F>(
            cfg.params,
            spec.wallet_coins,
            derive_seed(seed, TAG_DEAL, i),
        );
        (wallets, derive_seed(seed, TAG_RUN, i))
    };
    let mut first_op_ms = 0.0;
    for w in 0..args.warmups(spec.warmups) {
        // Warm-up inputs sit past the timed ops' index range.
        let (wallets, run_seed) = input(ops + w);
        let t0 = Instant::now();
        let res = StepRunner::new(spec.n, run_seed).run(fleet(cfg, &wallets));
        if w == 0 {
            first_op_ms = t0.elapsed().as_secs_f64() * 1e3;
        }
        std::hint::black_box(res);
    }
    Prepared {
        inputs: (0..ops).map(input).collect(),
        first_op_ms,
    }
}

/// Cost and output accounting across ops.
#[derive(Default)]
struct Audit {
    digest: Fnv,
    cost: CostSnapshot,
    rounds: u64,
    deliveries: u64,
    attempts: u64,
    seeds: u64,
}

impl Audit {
    /// Check one run's outputs and fold them into the digest. Returns
    /// `(coins sealed, failed)`.
    ///
    /// Failed: a party's output is missing or `Err`, parties disagree on
    /// `dealers`/`attempts`, or a party holds no share of a coin.
    ///
    /// # Panics
    ///
    /// If a sealed coin's n shares do not lie on one degree-≤t polynomial
    /// — the run's outputs are wrong and the benchmark aborts.
    fn check<F: Field>(&mut self, spec: &Spec, res: &RunResult<Out<F>>) -> (u64, bool) {
        self.cost = self.cost.plus(&res.report.total());
        self.rounds += res.report.comm.rounds;
        self.deliveries += res.rounds.iter().map(|p| p.deliveries as u64).sum::<u64>();

        let batches: Vec<&CoinBatch<F>> = res
            .outputs
            .iter()
            .filter_map(|o| o.as_ref()?.1.as_ref().ok())
            .collect();
        let Some(first) = batches.first() else {
            return (0, true);
        };
        let agree = batches
            .iter()
            .all(|b| b.dealers == first.dealers && b.attempts == first.attempts);
        if batches.len() != spec.n || !agree {
            return (0, true);
        }
        let words: Option<Vec<Vec<F>>> = (0..spec.m)
            .map(|h| batches.iter().map(|b| b.shares.get(h)?.sigma).collect())
            .collect();
        let Some(words) = words else { return (0, true) };

        let xs: Vec<F> = (1..=spec.n as u64).map(F::element).collect();
        let decoder = BatchDecoder::new(&xs, spec.t, (spec.n - spec.t - 1) / 2)
            .expect("distinct party points");
        for (h, (word, decoded)) in words.iter().zip(decoder.decode_many(&words)).enumerate() {
            let poly =
                decoded.unwrap_or_else(|e| panic!("output check: coin {h} does not decode: {e:?}"));
            assert!(
                poly.degree().is_none_or(|d| d <= spec.t),
                "output check: coin {h} has degree > t"
            );
            let clean = xs.iter().zip(word).all(|(&x, &y)| poly.eval(x) == y);
            assert!(
                clean,
                "output check: coin {h} decoded with errors in a fault-free run"
            );
            for y in word {
                self.digest.word(y.to_u64());
            }
        }
        for &d in &first.dealers {
            self.digest.word(d as u64);
        }
        self.attempts += first.attempts as u64;
        self.seeds += first.seeds_consumed as u64;
        (spec.m as u64, false)
    }

    fn exact(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("field.muls", self.cost.field_muls),
            ("field.adds", self.cost.field_adds),
            ("field.invs", self.cost.field_invs),
            ("poly.interps", self.cost.interpolations),
            ("rng.prg", self.cost.prg_invocations),
            ("sim.rounds", self.rounds),
            ("sim.messages", self.cost.messages),
            ("sim.bytes", self.cost.bytes),
            ("sim.deliveries", self.deliveries),
        ]
    }
}

pub fn run<F: Field>(spec: &Spec, args: &RunArgs) -> RunOutput {
    let ops = args.ops(spec.ops_per_10s, 2.min(spec.ops_per_10s));
    if args.trace {
        return run_traced::<F>(spec, args, ops);
    }
    let cfg = spec.cfg();
    let (prepared, setup_s) = timed_setup(args.setup_reps(spec.setup_reps), || {
        prepare::<F>(spec, args, ops)
    });

    let mut samples = Samples::default();
    let mut audit = Audit::default();
    for (wallets, run_seed) in &prepared.inputs {
        samples.clock.resume();
        let t0 = Instant::now();
        let res = StepRunner::new(spec.n, *run_seed).run(fleet(cfg, wallets));
        let latency = t0.elapsed();
        samples.clock.pause();
        // No timing is read before the outputs are checked.
        let (coins, failed) = audit.check(spec, &res);
        samples.record(latency, coins, failed);
    }

    let mut out = RunOutput {
        attempted: samples.attempted(),
        failed: samples.failed,
        digest: audit.digest.0,
        exact: audit.exact(),
        ..RunOutput::default()
    };
    out.metrics = samples.end_to_end(setup_s, &mut out.notes);
    out.notes.push(format!(
        "first op in this process {:.1} ms",
        prepared.first_op_ms
    ));
    out
}

/// The traced pass: a warm, interleaved Step/Par comparison (whose Step
/// runs are the untraced reference), then the same ops under `Timed`
/// adapters and the counting allocator, then the per-layer micro runs.
fn run_traced<F: Field>(spec: &Spec, args: &RunArgs, ops: u64) -> RunOutput {
    let cfg = spec.cfg();
    let k = (ops / 4).max(2).min(ops) as usize;
    let prepared = prepare::<F>(spec, args, ops);
    let inputs = &prepared.inputs[..k];
    let threads = std::thread::available_parallelism().map_or(1, usize::from);

    // Step vs Par, after the warm-up ops, interleaved S-P-S-P, outputs
    // asserted equal before either time is used.
    let mut audit = Audit::default();
    let mut reference = Samples::default();
    let mut par_ms = Vec::new();
    for (wallets, run_seed) in inputs {
        reference.clock.resume();
        let t0 = Instant::now();
        let stepped = StepRunner::new(spec.n, *run_seed).run(fleet(cfg, wallets));
        let step_t = t0.elapsed();
        reference.clock.pause();

        let t0 = Instant::now();
        let parallel = ParRunner::new(spec.n, *run_seed)
            .with_threads(threads)
            .run(fleet(cfg, wallets));
        let par_t = t0.elapsed();

        let same = stepped.outputs == parallel.outputs
            && stepped.report == parallel.report
            && stepped.rounds == parallel.rounds;
        assert!(same, "executor parity: ParRunner diverged from StepRunner");
        let (coins, failed) = audit.check(spec, &stepped);
        reference.record(step_t, coins, failed);
        par_ms.push(par_t.as_secs_f64() * 1e3);
    }
    let step_ms = reference.p50_ms();

    // The same ops again, every machine wrapped in `Timed`.
    let log = SharedLog::default();
    let root = lock(&log).open("workload", NO_PARENT, 0);
    let mut traced = Samples::default();
    let mut traced_audit = Audit::default();
    for (i, (wallets, run_seed)) in inputs.iter().enumerate() {
        let op = i as u32 + 1;
        count_allocs(true);
        let op_span = lock(&log).open("op", root, op);
        let t0 = Instant::now();
        let inners: Vec<CoinGenMachine<CoinGenMsg<F>, F>> = wallets
            .iter()
            .map(|w| CoinGenMachine::new(cfg, w.clone()))
            .collect();
        let run_span = lock(&log).open("step_run", op_span, op);
        let machines: Fleet<F> = inners
            .into_iter()
            .map(|inner| {
                Box::new(Timed {
                    inner,
                    log: log.clone(),
                    parent: run_span,
                    op,
                }) as _
            })
            .collect();
        let res = StepRunner::new(spec.n, *run_seed).run(machines);
        lock(&log).close(run_span);
        let latency = t0.elapsed();
        lock(&log).close(op_span);
        count_allocs(false);
        let (coins, failed) = traced_audit.check(spec, &res);
        traced.record(latency, coins, failed);
    }
    lock(&log).close(root);
    assert_eq!(
        audit.digest.0, traced_audit.digest.0,
        "tracing changed the outputs"
    );

    // The crates' own logical trace, switched on (the beacon always runs
    // with it): its cost over the plain run.
    let mut full_ms = Vec::new();
    for (wallets, run_seed) in &inputs[..(k / 2).max(1)] {
        let t0 = Instant::now();
        let res = StepRunner::new(spec.n, *run_seed)
            .with_trace(TraceConfig::full())
            .run(fleet(cfg, wallets));
        full_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(res);
    }

    let kf = k as f64;
    let per_op = |total: u64| total as f64 / kf;
    let costs = layers::micros::<F>(spec.n, spec.t, spec.m, args.seed);
    let by = lock(&log).self_ns_by(prefix);
    let ns = |prefix: &str| by.get(prefix).copied().unwrap_or(0) as f64;
    let wall_ns = traced.op_wall_s() * 1e9;
    let bodies_protocols = ns("gradecast") + ns("ba");
    let bodies_core = ns("bit-gen") + ns("coin-gen") + ns("expose");
    // Share dealing: every party deals M coins plus one blinding
    // polynomial to n parties.
    let evals_per_op = (spec.n * (spec.m + 1) * spec.n) as f64;
    let (field_ns, poly_ns) = costs.arithmetic_ns(&traced_audit.cost, kf * evals_per_op);
    let split = Split {
        wall_ns,
        beacon_ns: 0.0,
        sim_ns: ns("step_run"),
        core_ns: bodies_core,
        protocols_ns: bodies_protocols,
        field_ns,
        poly_ns,
    };

    let k64 = k as u64;
    let mut metrics = layers::cost_metrics(&audit.cost, k64, step_ms * 1e6, &costs).to_vec();
    metrics.extend([
        metric(
            "protocols.phase_ms.gradecast",
            ns("gradecast") / 1e6 / kf,
            k64,
        ),
        metric("protocols.phase_ms.ba", ns("ba") / 1e6 / kf, k64),
        metric("core.coin_gen_ms", step_ms, k64),
        metric("core.phase_ms.bit-gen", ns("bit-gen") / 1e6 / kf, k64),
        metric("core.phase_ms.coin-gen", ns("coin-gen") / 1e6 / kf, k64),
        metric("core.phase_ms.expose", ns("expose") / 1e6 / kf, k64),
        metric(
            "core.body_share",
            (bodies_core + bodies_protocols) / wall_ns,
            k64,
        ),
        metric("core.attempts_per_op", per_op(audit.attempts), k64),
        metric(
            "core.seeds_per_coin",
            audit.seeds as f64 / (kf * spec.m as f64),
            k64,
        ),
        metric("sim.self_ms_per_op", ns("step_run") / 1e6 / kf, k64),
        metric("sim.self_share", ns("step_run") / wall_ns, k64),
        metric("sim.rounds_per_op", per_op(audit.rounds), k64),
        metric("sim.messages_per_op", per_op(audit.cost.messages), k64),
        metric("sim.bytes_per_op", per_op(audit.cost.bytes), k64),
        metric("sim.deliveries_per_op", per_op(audit.deliveries), k64),
        metric("sim.step_run_ms", step_ms, k64),
        metric("sim.par_run_ms", median(&par_ms), k64),
        metric("sim.par_speedup", step_ms / median(&par_ms), k64),
        metric(
            "trace.full_overhead_ratio",
            median(&full_ms) / step_ms,
            full_ms.len() as u64,
        ),
    ]);
    metrics.extend(layers::proc_metrics(
        alloc_counts(),
        reference.clock.proc,
        k64,
        prepared.first_op_ms,
        step_ms,
    ));
    metrics.extend(layers::bench_metrics(&reference, &traced));
    metrics.extend(costs.metrics);
    metrics.extend(split.metrics(k64));
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
        "executor parity OK over {k} warm interleaved pairs: StepRunner {step_ms:.1} ms, ParRunner ({threads} threads) {:.1} ms",
        median(&par_ms)
    ));
    out.notes.extend(layers::write_spans(&log, args));
    out
}
