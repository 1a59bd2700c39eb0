//! E13 — implementation-layer speedups: CLMUL backend, parallel
//! executor, batched decoding.
//!
//! Not a paper table: the paper's §2 cost model counts field operations,
//! and none of the machinery measured here changes a single count. This
//! experiment measures the wall-clock levers the implementation pulls
//! *underneath* that model, and — more importantly — asserts that each
//! lever is observationally invisible:
//!
//! 1. **Carry-less multiply backend**: the fixed-iteration portable
//!    ladder vs. the `PCLMULQDQ` instruction behind the same runtime
//!    dispatch (`dprbg_field::clmul`). Same products, fewer cycles.
//! 2. **Parallel executor**: full Coin-Gen at beacon scale (n = 61,
//!    t = 10) under the single-threaded [`StepRunner`] vs. the
//!    pooled [`ParRunner`] — with the transcripts, cost reports,
//!    round profiles, and logical traces asserted byte-identical before
//!    any timing is reported.
//! 3. **Batched decoding**: clean words through per-call [`bw_decode`]
//!    (candidate basis rebuilt per word) vs. one shared-basis
//!    [`BatchDecoder`], plus what a dirty word costs once it falls through
//!    to the linear solve.
//! 4. **Grade-cast by handle**: all n senders grade-cast a
//!    clique-announcement-sized value; every party's grade for an instance
//!    must be the sender's own allocation, so a change that deep-clones
//!    per hop again fails here and not only in the benchmark.
//!
//! The parity column is the experiment's real product; the speedup
//! column is hardware-dependent garnish.

use std::sync::Arc;
use std::time::Instant;

use dprbg_core::{
    CliqueAnnounce, CoinBatch, CoinGenConfig, CoinGenError, CoinGenMachine, CoinGenMsg, CoinWallet,
    Params, TrustedDealer,
};
use dprbg_field::{clmul, Field, Gf2k};
use dprbg_metrics::Table;
use dprbg_poly::{bw_decode, share_points, share_polynomial, BatchDecoder, Poly};
use dprbg_protocols::{GcMsg, GradeOutput, GradecastMachine};
use dprbg_rng::rngs::StdRng;
use dprbg_rng::{RngExt, SeedableRng};
use dprbg_sim::{BoxedMachine, ParRunner, StepRunner, TraceConfig};
use dprbg_trace::{chrome_events, to_chrome_json, validate_chrome_events};

use super::common::{fmt_f, ExperimentCtx};

/// The beacon-scale field: GF(2^8) keeps the n² decodes cheap while
/// holding 61 distinct evaluation points (same choice as the n = 61
/// executor test).
type F8 = Gf2k<8>;

/// A Coin-Gen machine's output: the final wallet plus the batch result.
type BeaconOut = (CoinWallet<F8>, Result<CoinBatch<F8>, CoinGenError>);

/// Time `iters` dependent carry-less products through `f`; returns ns/op.
fn time_clmul(iters: usize, seed: u64, f: impl Fn(u64, u64) -> u128) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut a: u64 = rng.random();
    let b: u64 = rng.random::<u64>() | 1;
    let start = Instant::now();
    for _ in 0..iters {
        let p = f(a, b);
        // Fold the 128-bit product back to 64 bits to keep the chain
        // dependent without growing the operand.
        a = (p as u64) ^ ((p >> 64) as u64) ^ 1;
    }
    let ns = start.elapsed().as_nanos() as f64 / iters as f64;
    std::hint::black_box(a);
    ns
}

/// One Coin-Gen fleet at (n, t) over GF(2^8).
fn beacon_fleet(
    n: usize,
    t: usize,
    m: usize,
    seed: u64,
) -> Vec<BoxedMachine<CoinGenMsg<F8>, BeaconOut>> {
    let params = Params::p2p_model(n, t).expect("valid beacon parameters");
    let cfg = CoinGenConfig { params, batch_size: m };
    let mut wallets: Vec<CoinWallet<F8>> = TrustedDealer::deal_wallets(params, 4 + t, seed ^ 0xE13);
    (0..n).map(|_| Box::new(CoinGenMachine::new(cfg, wallets.remove(0))) as _).collect()
}

/// A per-party digest of everything observable about a run.
fn digest(res: dprbg_sim::RunResult<BeaconOut>) -> String {
    let mut s = format!("{:?}|{:?}|", res.report, res.rounds);
    for (_, out) in res.unwrap_all() {
        let b = out.expect("beacon-scale coin generation succeeds");
        s.push_str(&format!("{:?};{};{};", b.dealers, b.attempts, b.seeds_consumed));
    }
    s
}

/// Outcome of the executor leg: wall times plus the parity verdicts.
struct ExecutorLeg {
    step_ms: f64,
    par_ms: f64,
    threads: usize,
    transcripts_identical: bool,
    traces_identical: bool,
    chrome_export_ok: bool,
}

/// Timed S-P pairs per executor leg (after the parity pass warmed both).
const EXECUTOR_PAIRS: usize = 2;

fn executor_leg(n: usize, t: usize, m: usize, seed: u64) -> ExecutorLeg {
    // Parity first, timing second: one traced run per executor decides
    // the verdicts — and doubles as the warm-up, so neither timed side
    // pays for the cold allocator.
    let runner = ParRunner::new(n, seed).with_trace(TraceConfig::full());
    let threads = runner.threads();
    let parallel = runner.run(beacon_fleet(n, t, m, seed));
    let stepped =
        StepRunner::new(n, seed).with_trace(TraceConfig::full()).run(beacon_fleet(n, t, m, seed));

    let step_trace = stepped.trace.clone().expect("traced step run records a trace");
    let par_trace = parallel.trace.clone().expect("traced parallel run records a trace");
    let traces_identical = step_trace == par_trace;
    let chrome_export_ok = to_chrome_json(&step_trace) == to_chrome_json(&par_trace)
        && validate_chrome_events(&chrome_events(&par_trace)).is_ok();
    let transcripts_identical = digest(stepped) == digest(parallel);

    // Warm, untraced, interleaved S-P-S-P (fleets dealt outside the
    // clock); each side reports its mean.
    let (mut step_ms, mut par_ms) = (0.0, 0.0);
    for _ in 0..EXECUTOR_PAIRS {
        let fleet = beacon_fleet(n, t, m, seed);
        let start = Instant::now();
        std::hint::black_box(StepRunner::new(n, seed).run(fleet));
        step_ms += start.elapsed().as_secs_f64() * 1e3 / EXECUTOR_PAIRS as f64;
        let fleet = beacon_fleet(n, t, m, seed);
        let start = Instant::now();
        std::hint::black_box(ParRunner::new(n, seed).run(fleet));
        par_ms += start.elapsed().as_secs_f64() * 1e3 / EXECUTOR_PAIRS as f64;
    }

    ExecutorLeg { step_ms, par_ms, threads, transcripts_identical, traces_identical, chrome_export_ok }
}

/// Wall-clock of the decode leg, in ms.
struct DecodeLeg {
    /// Per-call [`bw_decode`] over the clean batch (basis rebuilt per word).
    per_call_ms: f64,
    /// One [`BatchDecoder`] over the clean batch (basis built once).
    shared_ms: f64,
    /// Words in the dirty batch.
    dirty_words: usize,
    /// Per-call [`bw_decode`] over the dirty batch (the linear solve).
    dirty_ms: f64,
}

/// Time decoding `words` clean degree-`t` words over `n` abscissas per
/// call and through one shared basis, then `words / 8` of them with `t`
/// corrupted values each; asserts that both decoders return the dealt
/// polynomial for every word of both batches.
fn time_decode(n: usize, t: usize, words: usize, seed: u64) -> DecodeLeg {
    let mut rng = StdRng::seed_from_u64(seed);
    let xs: Vec<F8> = (1..=n as u64).map(F8::element).collect();
    let polys: Vec<_> =
        (0..words).map(|_| share_polynomial(F8::random(&mut rng), t, &mut rng)).collect();
    let clean: Vec<Vec<F8>> =
        polys.iter().map(|poly| share_points(poly, n).into_iter().map(|s| s.y).collect()).collect();
    let dirty: Vec<Vec<F8>> = clean[..(words / 8).max(1)]
        .iter()
        .map(|ys| {
            let mut ys = ys.clone();
            for _ in 0..t {
                ys[rng.random_range(0..n)] = F8::random(&mut rng);
            }
            ys
        })
        .collect();
    let e_max = (n - t - 1) / 2;
    let per_call = |batch: &[Vec<F8>]| -> (Vec<_>, f64) {
        let start = Instant::now();
        let decoded = batch
            .iter()
            .map(|ys| {
                let points: Vec<(F8, F8)> = xs.iter().copied().zip(ys.iter().copied()).collect();
                bw_decode(&points, t, e_max).expect("word within radius decodes")
            })
            .collect();
        (decoded, start.elapsed().as_secs_f64() * 1e3)
    };

    let (naive, per_call_ms) = per_call(&clean);
    let decoder = BatchDecoder::new(&xs, t, e_max).expect("valid abscissas");
    let start = Instant::now();
    let batched = decoder.decode_many(&clean);
    let shared_ms = start.elapsed().as_secs_f64() * 1e3;
    let (corrected, dirty_ms) = per_call(&dirty);

    assert_eq!(naive, polys, "bw_decode must return the dealt polynomials");
    assert!(
        batched.iter().map(|r| r.as_ref().ok()).eq(polys.iter().map(Some)),
        "BatchDecoder must reproduce bw_decode exactly"
    );
    assert_eq!(corrected, polys[..dirty.len()], "t errors must be corrected");
    assert!(
        decoder.decode_many(&dirty).iter().map(|r| r.as_ref().ok()).eq(corrected.iter().map(Some)),
        "BatchDecoder must reproduce bw_decode on dirty words"
    );
    DecodeLeg { per_call_ms, shared_ms, dirty_words: dirty.len(), dirty_ms }
}

/// All `n` parties grade-cast an announcement of `n − 2t` degree-`t`
/// polynomials; returns the run's wall-clock in ms. Asserts that every
/// party grades every instance 2 with the sender's own handle — the same
/// allocation the sender itself graded — holding the announced value.
fn time_gradecast(n: usize, t: usize, seed: u64) -> f64 {
    type Fleet = Vec<BoxedMachine<GcMsg<CliqueAnnounce<F8>>, Vec<GradeOutput<CliqueAnnounce<F8>>>>>;
    let mut rng = StdRng::seed_from_u64(seed);
    let announces: Vec<CliqueAnnounce<F8>> = (0..n)
        .map(|_| CliqueAnnounce {
            pairs: (1..=n - 2 * t).map(|j| (j, Poly::random(t, &mut rng))).collect(),
        })
        .collect();
    let fleet: Fleet =
        announces.iter().map(|a| Box::new(GradecastMachine::new(a.clone())) as _).collect();
    let start = Instant::now();
    let graded = StepRunner::new(n, seed).run(fleet).unwrap_all();
    let ms = start.elapsed().as_secs_f64() * 1e3;
    for grades in &graded {
        for (j0, g) in grades.iter().enumerate() {
            let senders = graded[j0][j0].value.as_ref();
            assert_eq!(g.confidence, 2, "fault-free grade-cast is unanimous");
            assert_eq!(g.value.as_deref(), Some(&announces[j0]));
            assert_eq!(
                g.value.as_ref().map(Arc::as_ptr),
                senders.map(Arc::as_ptr),
                "instance {}: a grade is not the sender's handle (deep clone on the way)",
                j0 + 1
            );
        }
    }
    ms
}

/// Run E13 and render its table.
pub fn run(ctx: &ExperimentCtx) -> Table {
    let mut table = Table::new(
        "E13: implementation speedups — CLMUL backend, ParRunner, batched decode (cost model unchanged)",
        &["time", "speedup", "parity"],
    );

    // 1. Carry-less multiply backends.
    let iters = if ctx.quick { 50_000 } else { 500_000 };
    let portable_ns = time_clmul(iters, ctx.seed, clmul::clmul_portable);
    let dispatch_ns = time_clmul(iters, ctx.seed, clmul::clmul);
    let mut rng = StdRng::seed_from_u64(ctx.seed + 1);
    let clmul_parity = (0..4096)
        .all(|_| {
            let (a, b) = (rng.random(), rng.random());
            clmul::clmul(a, b) == clmul::clmul_portable(a, b)
        });
    table.row(
        "clmul portable ladder",
        &[format!("{portable_ns:.1} ns/op"), "1.0".into(), "reference".into()],
    );
    table.row(
        &format!("clmul dispatch ({})", clmul::backend_name()),
        &[
            format!("{dispatch_ns:.1} ns/op"),
            fmt_f(portable_ns / dispatch_ns.max(1e-9)),
            if clmul_parity { "backends agree (4096 ops): OK" } else { "BACKEND MISMATCH" }.into(),
        ],
    );

    // 2. Executors at beacon scale. Quick mode (CI smoke, debug-build
    // tests) shrinks n — the full report runs the real n = 61 target.
    let (n, t) = if ctx.quick { (31, 5) } else { (61, 10) };
    let m = if ctx.quick { 2 } else { 4 };
    let leg = executor_leg(n, t, m, ctx.seed + 2);
    table.row(
        &format!("StepRunner  coin-gen n={n} t={t} M={m}"),
        &[format!("{:.1} ms", leg.step_ms), "1.0".into(), "reference".into()],
    );
    table.row(
        &format!("ParRunner   coin-gen n={n} t={t} M={m} ({} threads)", leg.threads),
        &[
            format!("{:.1} ms", leg.par_ms),
            fmt_f(leg.step_ms / leg.par_ms.max(1e-9)),
            if leg.transcripts_identical && leg.traces_identical {
                "executor parity OK (transcripts + traces byte-identical)"
            } else {
                "EXECUTOR DIVERGENCE"
            }
            .into(),
        ],
    );
    table.row(
        "ParRunner chrome trace export",
        &[
            "-".into(),
            "-".into(),
            if leg.chrome_export_ok { "par chrome export parity OK" } else { "TRACE EXPORT BROKEN" }
                .into(),
        ],
    );

    // 3. Decoding: a clean batch per call and through one shared basis,
    // then a dirty batch (the solver both fall through to).
    let words = if ctx.quick { 32 } else { 512 };
    let leg = time_decode(n, t, words, ctx.seed + 3);
    table.row(
        &format!("bw_decode     {words} clean words, n={n} t={t}"),
        &[format!("{:.1} ms", leg.per_call_ms), "1.0".into(), "reference".into()],
    );
    table.row(
        &format!("BatchDecoder  {words} clean words, n={n} t={t}"),
        &[
            format!("{:.1} ms", leg.shared_ms),
            fmt_f(leg.per_call_ms / leg.shared_ms.max(1e-9)),
            "decode parity OK (clean + dirty, asserted word-for-word)".into(),
        ],
    );
    table.row(
        &format!("bw_decode     {} dirty words ({t} errors each)", leg.dirty_words),
        &[format!("{:.1} ms", leg.dirty_ms), "-".into(), "linear solve, all corrected".into()],
    );

    // 4. Grade-cast: one allocation per instance, end to end.
    let gc_ms = time_gradecast(n, t, ctx.seed + 4);
    table.row(
        &format!("grade-cast    n={n} t={t}, {}-dealer values", n - 2 * t),
        &[
            format!("{gc_ms:.1} ms"),
            "-".into(),
            "gradecast handle parity OK (grades are the sent handle)".into(),
        ],
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e13_executors_are_byte_identical_at_beacon_scale() {
        // n = 31 keeps the debug-build suite fast; the full n = 61 parity
        // assertion runs inside `run()` on every (release) report.
        let leg = executor_leg(31, 5, 2, 7);
        assert!(leg.transcripts_identical, "ParRunner transcript diverged from StepRunner");
        assert!(leg.traces_identical, "ParRunner trace diverged from StepRunner");
        assert!(leg.chrome_export_ok, "chrome export diverged or its spans do not balance");
        assert!(leg.threads >= 1);
    }

    #[test]
    fn e13_batch_decode_agrees_with_naive() {
        // time_decode asserts word-for-word equality internally, on a
        // clean and on a dirty batch.
        let leg = time_decode(13, 2, 32, 9);
        assert_eq!(leg.dirty_words, 4);
    }

    #[test]
    fn e13_renders() {
        let s = run(&ExperimentCtx::new(true)).render();
        assert!(s.contains("executor parity OK"), "{s}");
        assert!(s.contains("par chrome export parity OK"), "{s}");
        assert!(s.contains("backends agree"), "{s}");
        assert!(s.contains("decode parity OK"), "{s}");
        assert!(s.contains("gradecast handle parity OK"), "{s}");
    }
}
