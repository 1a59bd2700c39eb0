//! Per-layer micro runs at a workload's `(n, t, F)`: every number is a
//! timing of calls into one crate's public functions. Also the self-time
//! split a traced pass reports.

use std::hint::black_box;
use std::time::{Duration, Instant};

use dprbg_core::{
    horner_combine, BitGenMachine, BitGenMode, BitGenMsg, CliqueAnnounce, CoinError, ExposeMachine,
    ExposeMsg, ExposeVia, Params, TrustedDealer,
};
use dprbg_field::{clmul, Field, Gf2k};
use dprbg_metrics::{ops, CostSnapshot, LogicalTime, OpsGuard, Registry, WireSize};
use dprbg_poly::{bw_decode, interpolate, share_points, share_polynomial, BatchDecoder, Poly};
use dprbg_protocols::{
    approx_clique, BaMsg, GcMsg, GradeOutput, GradecastMachine, Graph, PhaseKingMachine,
};
use dprbg_rng::rngs::StdRng;
use dprbg_rng::{RngExt, SeedableRng};
use dprbg_sim::{from_fn, BoxedMachine, RoundView, Step, StepRunner};

use crate::common::{metric, time_ms, Metric, RunArgs, Samples};
use crate::defs::PER_LAYER;
use crate::proc::{AllocCounts, ProcStat};
use crate::spans::{lock, SharedLog};

/// Time budget of one micro run; a run that takes longer executes once.
pub const BUDGET: Duration = Duration::from_millis(40);

/// Unit costs the ledger multiplies the run's exact counts with, plus the
/// micro metrics themselves.
pub struct Costs {
    /// One multiplication / inversion in the workload's field.
    pub mul_ns: f64,
    pub inv_ns: f64,
    /// One share evaluation, and the multiplications counted inside it.
    eval_ns: f64,
    eval_muls: f64,
    /// One clean decode, and the field operations counted inside it.
    pub decode_ns: f64,
    decode_muls: f64,
    decode_invs: f64,
    pub metrics: Vec<Metric>,
}

impl Costs {
    /// Split a run's counted arithmetic by caller: `poly` owns the time
    /// of its calls (`evals` share evaluations and the counted
    /// interpolations) with the field operations inside them; `field`
    /// gets the multiplications and inversions made outside those calls.
    /// Returns `(field_ns, poly_ns)`.
    pub fn arithmetic_ns(&self, cost: &CostSnapshot, evals: f64) -> (f64, f64) {
        let decodes = cost.interpolations as f64;
        let poly_ns = evals * self.eval_ns + decodes * self.decode_ns;
        let direct_muls =
            cost.field_muls as f64 - evals * self.eval_muls - decodes * self.decode_muls;
        let direct_invs = cost.field_invs as f64 - decodes * self.decode_invs;
        (
            direct_muls.max(0.0) * self.mul_ns + direct_invs.max(0.0) * self.inv_ns,
            poly_ns,
        )
    }
}

/// A run's counted arithmetic per op, and the share of an op (`op_ns`)
/// that the multiplications and the decodes explain at their measured
/// unit costs.
pub fn cost_metrics(cost: &CostSnapshot, ops: u64, op_ns: f64, costs: &Costs) -> [Metric; 7] {
    let per_op = |total: u64| total as f64 / ops as f64;
    [
        metric("field.muls_per_op", per_op(cost.field_muls), ops),
        metric("field.adds_per_op", per_op(cost.field_adds), ops),
        metric("field.invs_per_op", per_op(cost.field_invs), ops),
        metric(
            "field.mul_share",
            per_op(cost.field_muls) * costs.mul_ns / op_ns,
            ops,
        ),
        metric("poly.interps_per_op", per_op(cost.interpolations), ops),
        metric(
            "poly.decode_share",
            per_op(cost.interpolations) * costs.decode_ns / op_ns,
            ops,
        ),
        metric("rng.prg_per_op", per_op(cost.prg_invocations), ops),
    ]
}

/// The process layer: the allocator's counts over the `ops` traced ops,
/// `/proc/self/stat` over the same `ops` untraced, and the process's first
/// op against a warm one.
pub fn proc_metrics(
    allocs: AllocCounts,
    proc: ProcStat,
    ops: u64,
    first_op_ms: f64,
    warm_op_ms: f64,
) -> [Metric; 7] {
    let per_op = |total: u64| total as f64 / ops as f64;
    [
        metric("proc.alloc_calls_per_op", per_op(allocs.calls), ops),
        metric("proc.alloc_bytes_per_op", per_op(allocs.bytes), ops),
        metric(
            "proc.peak_live_mb",
            allocs.peak_live_bytes as f64 / (1024.0 * 1024.0),
            ops,
        ),
        metric("proc.minor_faults_per_op", per_op(proc.minor_faults), ops),
        metric(
            "proc.sys_cpu_share",
            proc.sys_s / proc.cpu_s().max(1e-9),
            ops,
        ),
        metric("proc.first_op_ms", first_op_ms, 1),
        metric("proc.cold_over_warm", first_op_ms / warm_op_ms, 1),
    ]
}

/// The benchmark's own cost and verdict: the traced ops against the same
/// ops untraced.
pub fn bench_metrics(reference: &Samples, traced: &Samples) -> [Metric; 2] {
    let attempted = reference.attempted() + traced.attempted();
    [
        metric(
            "bench.trace_overhead",
            traced.p50_ms() / reference.p50_ms(),
            traced.attempted(),
        ),
        metric(
            "bench.fail_share",
            (reference.failed + traced.failed) as f64 / attempted as f64,
            attempted,
        ),
    ]
}

/// ns per op of a dependent chain of `iters` steps.
fn chain_ns<T: Copy>(iters: u32, start: T, mut step: impl FnMut(T) -> T) -> f64 {
    let mut acc = start;
    let t0 = Instant::now();
    for _ in 0..iters {
        acc = step(acc);
    }
    let ns = t0.elapsed().as_nanos() as f64 / f64::from(iters);
    black_box(acc);
    ns
}

fn mul_ns<F: Field>(rng: &mut StdRng) -> f64 {
    let b = nonzero::<F>(rng);
    chain_ns(400_000, nonzero::<F>(rng), |a| a * b)
}

fn inv_ns<F: Field>(rng: &mut StdRng) -> f64 {
    let c = nonzero::<F>(rng);
    // `+ c` keeps the chain off the fixed point 1; a zero falls back to c.
    chain_ns(20_000, nonzero::<F>(rng), |a| a.inv().unwrap_or(c) + c)
}

fn nonzero<F: Field>(rng: &mut StdRng) -> F {
    loop {
        let v = F::random(rng);
        if !v.is_zero() {
            return v;
        }
    }
}

fn field_metrics(rng: &mut StdRng, out: &mut Vec<Metric>) {
    // Parity before timing: the dispatched multiply must agree with the
    // portable ladder.
    for _ in 0..4096 {
        let (a, b): (u64, u64) = (rng.random(), rng.random());
        assert_eq!(
            clmul::clmul(a, b),
            clmul::clmul_portable(a, b),
            "clmul backend parity"
        );
    }
    let b: u64 = rng.random::<u64>() | 1;
    let portable = chain_ns(200_000, rng.random::<u64>(), |a| {
        let p = clmul::clmul_portable(a, b);
        (p as u64) ^ ((p >> 64) as u64) ^ 1
    });
    out.extend([
        metric("field.gf2k8_mul_ns", mul_ns::<Gf2k<8>>(rng), 400_000),
        metric("field.gf2k32_mul_ns", mul_ns::<Gf2k<32>>(rng), 400_000),
        metric("field.gf2k64_mul_ns", mul_ns::<Gf2k<64>>(rng), 400_000),
        metric("field.gf2k64_inv_ns", inv_ns::<Gf2k<64>>(rng), 20_000),
        metric("field.clmul_portable_ns", portable, 200_000),
    ]);
}

/// One party of the grade-cast micro run: the announcement is both the
/// wire payload and the graded value.
type GradecastFleetMachine<F> =
    BoxedMachine<GcMsg<CliqueAnnounce<F>>, Vec<GradeOutput<CliqueAnnounce<F>>>>;

/// A fleet in which every party sends `payload` to all for `rounds`
/// rounds.
fn echo_fleet<M: Clone + Send + 'static>(
    n: usize,
    rounds: u64,
    payload: M,
) -> Vec<BoxedMachine<M, usize>> {
    (0..n)
        .map(|_| {
            let payload = payload.clone();
            Box::new(from_fn(move |view: RoundView<'_, M>| {
                if view.round < rounds {
                    let mut out = view.outbox();
                    out.send_to_all(payload.clone());
                    Step::Continue(out)
                } else {
                    Step::Done(view.inbox.len())
                }
            })) as BoxedMachine<M, usize>
        })
        .collect()
}

/// Wall seconds of one echo run of 32 rounds and its delivery count.
fn echo_run<M: Clone + WireSize + Send + 'static>(n: usize, seed: u64, payload: M) -> (f64, f64) {
    const ROUNDS: u64 = 32;
    let (ms, _) = time_ms(1, BUDGET, || {
        let res = StepRunner::new(n, seed).run(echo_fleet(n, ROUNDS, payload.clone()));
        assert!(
            res.outputs.iter().all(|o| *o == Some(n)),
            "echo fleet: every party hears all n"
        );
    });
    (ms / 1e3, (ROUNDS as usize * n * n) as f64)
}

pub fn micros<F: Field>(n: usize, t: usize, m: usize, seed: u64) -> Costs {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x001A_7E55);
    let mut out = Vec::new();
    field_metrics(&mut rng, &mut out);
    let (mul_ns, inv_ns) = (mul_ns::<F>(&mut rng), inv_ns::<F>(&mut rng));

    // poly: share evaluation, interpolation, decoding.
    let guard = OpsGuard::start();
    let mut polys = 0u64;
    let (share_ms, share_reps) = time_ms(3, BUDGET, || {
        for _ in 0..64 {
            let poly = share_polynomial(F::random(&mut rng), t, &mut rng);
            black_box(share_points(&poly, n));
            polys += 1;
        }
    });
    let eval_muls = guard.finish().field_muls as f64 / (polys * n as u64) as f64;
    let eval_ns = share_ms * 1e6 / (64 * n) as f64;

    let xs: Vec<F> = (1..=n as u64).map(F::element).collect();
    let word = |rng: &mut StdRng| -> Vec<F> {
        let poly = share_polynomial(F::random(rng), t, rng);
        share_points(&poly, n).into_iter().map(|s| s.y).collect()
    };
    let points = |ys: &[F]| -> Vec<(F, F)> { xs.iter().copied().zip(ys.iter().copied()).collect() };
    let clean = points(&word(&mut rng));
    let mut corrupted = clean.clone();
    for p in corrupted.iter_mut().take(t) {
        p.1 += F::one();
    }
    let reference = bw_decode(&clean, t, t).expect("a clean word decodes");
    assert_eq!(
        bw_decode(&corrupted, t, t).as_ref(),
        Ok(&reference),
        "t errors are corrected"
    );

    let (interp_ms, interp_reps) = time_ms(3, BUDGET, || {
        black_box(interpolate(&clean[..=t]).expect("distinct points"));
    });
    let guard = OpsGuard::start();
    let (decode_ms, decode_reps) = time_ms(3, BUDGET, || {
        black_box(bw_decode(&clean, t, t).expect("a clean word decodes"));
    });
    let decode_ns = decode_ms * 1e6;
    let inside = guard.finish();
    let decode_muls = inside.field_muls as f64 / decode_reps as f64;
    let decode_invs = inside.field_invs as f64 / decode_reps as f64;
    let (decode_err_ms, decode_err_reps) = time_ms(3, BUDGET, || {
        black_box(bw_decode(&corrupted, t, t).expect("t errors are corrected"));
    });
    const WORDS: usize = 512;
    let batch: Vec<Vec<F>> = (0..WORDS).map(|_| word(&mut rng)).collect();
    let decoder = BatchDecoder::new(&xs, t, t).expect("distinct party points");
    let naive: Vec<Poly<F>> = batch
        .iter()
        .map(|ys| bw_decode(&points(ys), t, t).expect("a clean word decodes"))
        .collect();
    let batched: Vec<Poly<F>> = decoder
        .decode_many(&batch)
        .into_iter()
        .map(|r| r.expect("a clean word decodes"))
        .collect();
    assert_eq!(naive, batched, "BatchDecoder must reproduce bw_decode");
    let (batch_ms, batch_reps) = time_ms(1, BUDGET, || {
        black_box(decoder.decode_many(&batch));
    });
    out.extend([
        metric(
            "poly.share_points_ns_per_eval",
            eval_ns,
            share_reps * 64 * n as u64,
        ),
        metric("poly.interpolate_us", interp_ms * 1e3, interp_reps),
        metric("poly.bw_decode_us", decode_ms * 1e3, decode_reps),
        metric(
            "poly.bw_decode_err_us",
            decode_err_ms * 1e3,
            decode_err_reps,
        ),
        metric(
            "poly.batch_decode_us",
            batch_ms * 1e3 / WORDS as f64,
            batch_reps * WORDS as u64,
        ),
    ]);

    // rng: the generator behind every party's randomness.
    let draws = 400_000u32;
    let t0 = Instant::now();
    let mut acc = 0u64;
    for _ in 0..draws {
        acc ^= rng.random::<u64>();
    }
    let u64_ns = t0.elapsed().as_nanos() as f64 / f64::from(draws);
    let t0 = Instant::now();
    let mut facc = F::zero();
    for _ in 0..draws {
        facc += F::random(&mut rng);
    }
    let field_random_ns = t0.elapsed().as_nanos() as f64 / f64::from(draws);
    black_box((acc, facc));
    out.extend([
        metric("rng.u64_ns", u64_ns, u64::from(draws)),
        metric("rng.field_random_ns", field_random_ns, u64::from(draws)),
    ]);

    // protocols: grade-cast of a clique-announcement-sized value by all n
    // senders at once, phase-king agreement, the clique approximation.
    let announce = CliqueAnnounce {
        pairs: (1..=n)
            .map(|j| (j, Poly::<F>::random(t, &mut rng)))
            .collect(),
    };
    let (gc_ms, gc_reps) = time_ms(1, BUDGET, || {
        let fleet: Vec<GradecastFleetMachine<F>> = (0..n)
            .map(|_| Box::new(GradecastMachine::new(announce.clone())) as _)
            .collect();
        let graded = StepRunner::new(n, seed).run(fleet).unwrap_all();
        assert!(
            graded.iter().flatten().all(|g| g.confidence == 2),
            "fault-free grade-cast is unanimous"
        );
    });
    let (ba_ms, ba_reps) = time_ms(1, BUDGET, || {
        let fleet: Vec<BoxedMachine<BaMsg, bool>> = (0..n)
            .map(|_| Box::new(PhaseKingMachine::new(true, t)) as _)
            .collect();
        assert!(
            StepRunner::new(n, seed)
                .run(fleet)
                .unwrap_all()
                .iter()
                .all(|&v| v),
            "BA validity"
        );
    });
    let complete = Graph::complete(n);
    let (clique_ms, clique_reps) = time_ms(3, BUDGET, || {
        black_box(approx_clique(&complete));
    });
    out.extend([
        metric("protocols.gradecast_ms", gc_ms, gc_reps),
        metric("protocols.ba_ms", ba_ms, ba_reps),
        metric("protocols.clique_us", clique_ms * 1e3, clique_reps),
    ]);

    // core: Bit-Gen alone, Coin-Expose alone, the Horner combination.
    let params = Params::p2p_model(n, t).expect("workload parameters satisfy n >= 6t+1");
    let dealt = TrustedDealer::deal_wallets::<F>(params, 32, seed ^ 0xC0_1E);
    let (bit_gen_ms, bit_gen_reps) = time_ms(1, BUDGET, || {
        let fleet: Vec<BoxedMachine<BitGenMsg<F>, _>> = dealt
            .iter()
            .map(|w| {
                let coin = *w.peek_at(0).expect("32 coins were dealt");
                Box::new(BitGenMachine::new(
                    t,
                    m,
                    coin,
                    (1..=n).collect(),
                    BitGenMode::RandomCoins,
                )) as _
            })
            .collect();
        let runs = StepRunner::new(n, seed).run(fleet).unwrap_all();
        assert!(
            runs.iter().all(Result::is_ok),
            "fault-free Bit-Gen succeeds"
        );
    });
    let (expose_ms, expose_reps) = time_ms(1, BUDGET, || {
        for slot in 0..32 {
            let fleet: Vec<BoxedMachine<ExposeMsg<F>, Result<F, CoinError>>> = dealt
                .iter()
                .map(|w| {
                    let share = *w.peek_at(slot).expect("32 coins were dealt");
                    Box::new(ExposeMachine::new(share, t, ExposeVia::PointToPoint)) as _
                })
                .collect();
            let coins = StepRunner::new(n, seed).run(fleet).unwrap_all();
            assert!(
                coins.windows(2).all(|w| w[0].is_ok() && w[0] == w[1]),
                "expose is unanimous"
            );
        }
    });
    let alphas: Vec<F> = (0..m).map(|_| F::random(&mut rng)).collect();
    let (gamma, r) = (F::random(&mut rng), nonzero::<F>(&mut rng));
    let (horner_ms, horner_reps) = time_ms(3, BUDGET, || {
        black_box(horner_combine(black_box(&alphas), gamma, r));
    });
    out.extend([
        metric("core.bit_gen_ms", bit_gen_ms, bit_gen_reps),
        metric(
            "core.expose_us_per_coin",
            expose_ms * 1e3 / 32.0,
            expose_reps * 32,
        ),
        metric(
            "core.horner_ns_per_elem",
            horner_ms * 1e6 / m as f64,
            horner_reps * m as u64,
        ),
    ]);

    // sim: the executor's flush/flip alone, with a tiny and a big payload.
    let (small_s, deliveries) = echo_run(n, seed, 0u64);
    let big_payload: Vec<F> = (0..n * (t + 1)).map(|_| F::random(&mut rng)).collect();
    let big_bytes = big_payload.wire_bytes() as f64;
    let (big_s, _) = echo_run(n, seed, big_payload);
    out.extend([
        metric(
            "sim.echo_small_deliveries_per_s",
            deliveries / small_s,
            deliveries as u64,
        ),
        metric(
            "sim.echo_big_mb_per_s",
            deliveries * big_bytes / 1e6 / big_s,
            deliveries as u64,
        ),
    ]);

    // metrics: the cost counter every field op ticks, and the health
    // registry every beacon epoch updates and every snapshot encodes.
    let ticks = 2_000_000u32;
    let t0 = Instant::now();
    for _ in 0..ticks {
        ops::count_mul(black_box(1));
    }
    let tick_ns = t0.elapsed().as_nanos() as f64 / f64::from(ticks);
    let mut registry = Registry::new();
    let updates = 30_000u64;
    let t0 = Instant::now();
    for e in 0..updates / 3 {
        registry.counter_add("beacon_epochs_total", &[("outcome", "committed")], 1);
        registry.histogram_observe("beacon_epoch_rounds", &[], e % 29);
        registry.gauge_set(
            "beacon_reservoir_level",
            &[],
            LogicalTime::at_epoch(e),
            e % 16,
        );
    }
    let update_ns = t0.elapsed().as_nanos() as f64 / updates as f64;
    let (encode_ms, encode_reps) = time_ms(3, BUDGET, || {
        black_box(registry.to_bytes());
    });
    out.extend([
        metric("metrics.counter_tick_ns", tick_ns, u64::from(ticks)),
        metric("metrics.registry_update_ns", update_ns, updates),
        metric("metrics.registry_encode_us", encode_ms * 1e3, encode_reps),
    ]);

    Costs {
        mul_ns,
        inv_ns,
        eval_ns,
        eval_muls,
        decode_ns,
        decode_muls,
        decode_invs,
        metrics: out,
    }
}

/// Where a traced op's wall time went, by layer. `core_ns`,
/// `protocols_ns` and `beacon_ns` come in as span self times, which hold
/// the arithmetic done inside them; `field_ns` and `poly_ns` are the
/// estimates of [`Costs::arithmetic_ns`], carved back out.
pub struct Split {
    pub wall_ns: f64,
    pub beacon_ns: f64,
    pub sim_ns: f64,
    pub core_ns: f64,
    pub protocols_ns: f64,
    pub field_ns: f64,
    pub poly_ns: f64,
}

impl Split {
    pub fn metrics(&self, samples: u64) -> Vec<Metric> {
        // The estimates cannot exceed the bodies they were spent in.
        let bodies = self.core_ns + self.protocols_ns + self.beacon_ns;
        let arithmetic = self.field_ns + self.poly_ns;
        let scale = if arithmetic > bodies {
            bodies / arithmetic
        } else {
            1.0
        };
        let (field, poly) = (self.field_ns * scale, self.poly_ns * scale);
        let mut left = field + poly;
        let mut carve = |body: f64| {
            let taken = left.min(body);
            left -= taken;
            body - taken
        };
        let core = carve(self.core_ns);
        let protocols = carve(self.protocols_ns);
        let beacon = carve(self.beacon_ns);
        let share = |ns: f64| ns / self.wall_ns;
        let total = beacon + self.sim_ns + core + protocols + field + poly;
        vec![
            metric("ledger.beacon_share", share(beacon), samples),
            metric("ledger.sim_share", share(self.sim_ns), samples),
            metric("ledger.core_share", share(core), samples),
            metric("ledger.protocols_share", share(protocols), samples),
            metric("ledger.field_share_est", share(field), samples),
            metric("ledger.poly_share_est", share(poly), samples),
            metric("ledger.attributed_share", share(total), samples),
        ]
    }
}

/// A zero for every per-layer metric the workload did not produce: the
/// layer does not run on it.
pub fn not_applicable(have: &[Metric]) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .filter(|d| have.iter().all(|m| m.name != d.name))
        .map(|d| metric(d.name, 0.0, 0))
        .collect()
}

/// Write the traced pass's spans as a Chrome trace file under the output
/// directory.
pub fn write_spans(log: &SharedLog, args: &RunArgs) -> Vec<String> {
    const CAP: usize = 50_000;
    let path = args.out_dir.join(format!("spans-{}.json", args.workload));
    let log = lock(log);
    let written = std::fs::create_dir_all(&args.out_dir)
        .and_then(|()| std::fs::write(&path, log.to_chrome_json(&args.workload, CAP)));
    match written {
        Ok(()) => vec![format!(
            "{} spans recorded, {} written to {}",
            log.spans.len(),
            log.spans.len().min(CAP),
            path.display()
        )],
        Err(e) => vec![format!("spans not written to {}: {e}", path.display())],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_carves_arithmetic_out_of_the_bodies_it_ran_in() {
        let split = Split {
            wall_ns: 100.0,
            beacon_ns: 10.0,
            sim_ns: 30.0,
            core_ns: 40.0,
            protocols_ns: 15.0,
            field_ns: 30.0,
            poly_ns: 20.0,
        };
        let m = split.metrics(1);
        let get = |name: &str| {
            m.iter()
                .find(|x| x.name == name)
                .map(|x| x.value)
                .unwrap_or(f64::NAN)
        };
        // 50 of arithmetic: 40 from core, 10 from protocols.
        assert_eq!(get("ledger.core_share"), 0.0);
        assert!((get("ledger.protocols_share") - 0.05).abs() < 1e-12);
        assert!((get("ledger.beacon_share") - 0.10).abs() < 1e-12);
        assert!((get("ledger.field_share_est") - 0.30).abs() < 1e-12);
        // Shares sum to the spans' total: nothing is counted twice.
        assert!((get("ledger.attributed_share") - 0.95).abs() < 1e-12);
    }

    #[test]
    fn every_per_layer_metric_is_filled() {
        let have = vec![metric("sim.self_share", 0.5, 1)];
        let filled = not_applicable(&have);
        assert_eq!(filled.len(), PER_LAYER.len() - 1);
        assert!(filled
            .iter()
            .all(|m| m.value == 0.0 && m.name != "sim.self_share"));
    }
}
