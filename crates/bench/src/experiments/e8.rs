//! E8 — The field-arithmetic crossover (§2).
//!
//! Paper claims: the specially constructed GF(q^l) supports `O(k log k)`
//! multiplication via DFTs, but "in practice, when k is small, working
//! over GF(2^k) with the naive O(k²) multiplication is faster than
//! working over our special field with the O(k log k) multiplication,
//! because of the sizes of the constants involved. So an implementation
//! should be careful about which method it uses."
//!
//! This experiment times all three multiplications at matched field
//! sizes — naive GF(2^k), schoolbook GF(q^l), and DFT GF(q^l) — and
//! reports ns/multiplication, locating (a) the GF(2^k)-vs-GF(q^l)
//! crossover the paper warns about and (b) the naive-vs-DFT crossover
//! inside GF(q^l) itself. One more row prices a GF(2^k) multiplication
//! three ways — inside a slice kernel, as a scalar `*`, on the portable
//! ladder — after checking that the three agree.

use std::time::Instant;

use dprbg_field::{clmul, reduction_poly, Field, Gf2k, GfQlParams};
use dprbg_metrics::Table;
use dprbg_rng::rngs::StdRng;
use dprbg_rng::{RngExt, SeedableRng};

use super::common::{fmt_f, ExperimentCtx};

/// Time `iters` dependent GF(2^k) multiplications; returns ns/mul.
fn time_gf2k<const K: usize>(iters: usize, seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut x = Gf2k::<K>::random(&mut rng);
    let y = {
        // Avoid a zero multiplier collapsing the chain.
        let v = Gf2k::<K>::random(&mut rng);
        if v.is_zero() {
            Gf2k::<K>::one()
        } else {
            v
        }
    };
    let start = Instant::now();
    for _ in 0..iters {
        x *= y;
    }
    let elapsed = start.elapsed().as_nanos() as f64 / iters as f64;
    std::hint::black_box(x);
    elapsed
}

/// One GF(2^K) multiplication on the portable ladder alone — product and
/// both folds — whatever the CPU offers.
fn mul_portable<const K: usize>(a: Gf2k<K>, b: Gf2k<K>) -> Gf2k<K> {
    let fold = |v: u128| {
        (v & (u128::MAX >> (128 - K))) ^ clmul::clmul_portable((v >> K) as u64, reduction_poly(K))
    };
    Gf2k::from_u64(fold(fold(clmul::clmul_portable(a.to_u64(), b.to_u64()))) as u64)
}

/// ns per element of the `axpy` slice kernel over `iters` elements, and
/// ns per portable multiplication over `iters / 16`.
fn time_kernel_and_portable<const K: usize>(iters: usize, seed: u64) -> (f64, f64) {
    const LEN: usize = 4096;
    let mut rng = StdRng::seed_from_u64(seed);
    let row: Vec<Gf2k<K>> = (0..LEN).map(|_| Gf2k::random(&mut rng)).collect();
    let mut acc = row.clone();
    let s = Gf2k::<K>::random(&mut rng);
    let passes = iters.div_ceil(LEN);
    let start = Instant::now();
    for _ in 0..passes {
        Gf2k::axpy(&mut acc, s, &row);
    }
    let kernel = start.elapsed().as_nanos() as f64 / (passes * LEN) as f64;
    std::hint::black_box(&acc);
    let mut x = row[0];
    let start = Instant::now();
    for _ in 0..iters / 16 {
        x = mul_portable(x, s);
    }
    let portable = start.elapsed().as_nanos() as f64 / (iters / 16) as f64;
    std::hint::black_box(x);
    (kernel, portable)
}

/// One random slice through the multiplying kernels, each checked
/// against the scalar operators and against the portable multiply.
fn kernels_agree<const K: usize>(rng: &mut StdRng) -> bool {
    let len = rng.random_range(0..=24usize);
    let xs: Vec<Gf2k<K>> = (0..len).map(|_| Gf2k::random(rng)).collect();
    let coeffs: Vec<Gf2k<K>> = (0..4).map(|_| Gf2k::random(rng)).collect();
    let s = Gf2k::<K>::random(rng);
    let backends: [fn(Gf2k<K>, Gf2k<K>) -> Gf2k<K>; 2] = [|a, b| a * b, mul_portable];

    let mut scaled = xs.clone();
    Gf2k::axpy(&mut scaled, s, &xs);
    let mut values = vec![Gf2k::zero(); len];
    Gf2k::eval_points(&coeffs, &xs, &mut values);
    let mut beta = [Gf2k::zero()];
    Gf2k::combine_rows(&[&xs], s, &mut beta);
    backends.iter().all(|mul| {
        let horner = |x| coeffs.iter().rev().fold(Gf2k::zero(), |acc, &c| mul(acc, x) + c);
        xs.iter().zip(&scaled).all(|(&x, &y)| y == x + mul(x, s))
            && xs.iter().zip(&values).all(|(&x, &y)| y == horner(x))
            && beta[0] == xs.iter().rev().fold(Gf2k::zero(), |acc, &a| mul(acc + a, s))
    })
}

/// Time `iters` dependent GF(q^l) multiplications; returns ns/mul for
/// `(naive, fft)`.
fn time_gfql(f: &GfQlParams, iters: usize, seed: u64) -> (f64, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let y = f.random(&mut rng);
    let mut x = f.random(&mut rng);
    let start = Instant::now();
    for _ in 0..iters {
        x = f.mul_naive(&x, &y);
    }
    let naive = start.elapsed().as_nanos() as f64 / iters as f64;
    std::hint::black_box(&x);
    let mut x = f.random(&mut rng);
    let start = Instant::now();
    for _ in 0..iters {
        x = f.mul_fft(&x, &y);
    }
    let fft = start.elapsed().as_nanos() as f64 / iters as f64;
    std::hint::black_box(&x);
    (naive, fft)
}

/// Run E8 and render its table.
pub fn run(ctx: &ExperimentCtx) -> Table {
    let iters = if ctx.quick { 20_000 } else { 200_000 };
    let mut table = Table::new(
        &format!("E8: multiplication cost, ns/mul over {iters} dependent muls (§2 crossover)"),
        &["~bits", "GF(2^k) naive", "GF(q^l) naive", "GF(q^l) DFT", "DFT wins?"],
    );
    // Matched-size pairs: (GF(2^k) timer, GF(q^l) params, label).
    let rows: Vec<(&str, f64, GfQlParams)> = vec![
        ("k=16", time_gf2k::<16>(iters, ctx.seed), GfQlParams::new(17, 4).unwrap()),
        ("k=32", time_gf2k::<32>(iters, ctx.seed + 1), GfQlParams::new(17, 8).unwrap()),
        ("k=64", time_gf2k::<64>(iters, ctx.seed + 2), GfQlParams::new(97, 16).unwrap()),
    ];
    for (label, gf2k_ns, params) in rows {
        let (naive, fft) = time_gfql(&params, iters / 4, ctx.seed + 7);
        table.row(
            &format!("{label} | GF({}^{})", params.q(), params.l()),
            &[
                params.bits().to_string(),
                fmt_f(gf2k_ns),
                fmt_f(naive),
                fmt_f(fft),
                (fft < naive).to_string(),
            ],
        );
    }
    // Large extension degrees: the asymptotic regime where the DFT pays.
    for (q, l) in [(193u64, 32usize), (769, 64)] {
        let params = GfQlParams::new(q, l).unwrap();
        let (naive, fft) = time_gfql(&params, iters / 8, ctx.seed + 9);
        table.row(
            &format!("      GF({q}^{l})"),
            &[
                params.bits().to_string(),
                "-".into(),
                fmt_f(naive),
                fmt_f(fft),
                (fft < naive).to_string(),
            ],
        );
    }
    // The GF(2^k) column above goes through the runtime-dispatched
    // carry-less multiply; record which backend ran and check it against
    // the portable reference ladder — the raw product, and 4 096 random
    // slices through the kernels — so neither the crossover numbers nor
    // the row below are ever silently measuring a broken accelerator.
    let mut rng = StdRng::seed_from_u64(ctx.seed + 11);
    let parity = (0..4096).all(|_| {
        let (a, b) = (rng.random(), rng.random());
        clmul::clmul(a, b) == clmul::clmul_portable(a, b)
    });
    let kernel_parity = (0..4096).all(|_| {
        kernels_agree::<8>(&mut rng)
            && kernels_agree::<32>(&mut rng)
            && kernels_agree::<64>(&mut rng)
    });
    table.row(
        &format!("clmul backend: {}", clmul::backend_name()),
        &[
            "-".into(),
            if parity { "backend parity OK".into() } else { "BACKEND MISMATCH".into() },
            if kernel_parity { "kernel parity OK".into() } else { "KERNEL MISMATCH".into() },
            "-".into(),
            "-".into(),
        ],
    );
    // One GF(2^k) multiplication three ways, k = 8 / 32 / 64: per element
    // of a slice kernel, per scalar `*`, per portable-ladder multiply.
    let scalar = [
        time_gf2k::<8>(iters, ctx.seed + 3),
        time_gf2k::<32>(iters, ctx.seed + 4),
        time_gf2k::<64>(iters, ctx.seed + 5),
    ];
    let (kernel, portable): (Vec<f64>, Vec<f64>) = [
        time_kernel_and_portable::<8>(iters, ctx.seed + 3),
        time_kernel_and_portable::<32>(iters, ctx.seed + 4),
        time_kernel_and_portable::<64>(iters, ctx.seed + 5),
    ]
    .into_iter()
    .unzip();
    let per_k = |ns: &[f64]| ns.iter().map(|&v| fmt_f(v)).collect::<Vec<_>>().join(" / ");
    table.row(
        "GF(2^k) ns, k = 8 / 32 / 64",
        &[
            "-".into(),
            format!("scalar {}", per_k(&scalar)),
            format!("kernel {}", per_k(&kernel)),
            format!("portable {}", per_k(&portable)),
            "-".into(),
        ],
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e8_small_k_prefers_gf2k() {
        // The paper's practical remark: naive GF(2^k) beats the special
        // field at small k by a wide margin.
        let gf2k = time_gf2k::<32>(50_000, 1);
        let f = GfQlParams::new(17, 8).unwrap();
        let (naive, fft) = time_gfql(&f, 10_000, 2);
        assert!(
            gf2k < naive && gf2k < fft,
            "GF(2^32): {gf2k:.1} ns vs GF(17^8) naive {naive:.1} / fft {fft:.1}"
        );
    }

    #[test]
    fn e8_large_l_prefers_dft() {
        // The asymptotic side: at l = 64 the O(l log l) DFT beats the
        // O(l^2) schoolbook inside GF(q^l).
        let f = GfQlParams::new(769, 64).unwrap();
        let (naive, fft) = time_gfql(&f, 4_000, 3);
        assert!(
            fft < naive,
            "GF(769^64): fft {fft:.1} ns should beat naive {naive:.1} ns"
        );
    }

    #[test]
    fn e8_renders() {
        let s = run(&ExperimentCtx::new(true)).render();
        assert!(s.contains("GF(2^k)"));
        assert!(s.contains("backend parity OK"), "{s}");
        assert!(s.contains("kernel parity OK"), "{s}");
    }
}
