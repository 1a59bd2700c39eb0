//! E8 — The field-arithmetic crossover (§2).
//!
//! Paper claims: the specially constructed GF(q^l) supports `O(k log k)`
//! multiplication via DFTs, but "in practice, when k is small, working
//! over GF(2^k) with the naive O(k²) multiplication is faster than
//! working over our special field with the O(k log k) multiplication,
//! because of the sizes of the constants involved. So an implementation
//! should be careful about which method it uses."
//!
//! This experiment counts the `Z_q` multiplications one GF(q^l)
//! multiply performs — schoolbook vs DFT — at field sizes matched to
//! GF(2^k), locating the naive-vs-DFT crossover inside GF(q^l) in the
//! paper's own unit. One more row checks that the GF(2^k) multiply —
//! runtime-dispatched carry-less product, slice kernels, scalar
//! operators — agrees with the portable reference ladder. Wall-clock per
//! multiply, per backend, is `benchmark/`'s `field.*_ns` ledger.

use dprbg_field::{clmul, reduction_poly, Field, Gf2k, GfQl, GfQlParams};
use dprbg_metrics::{OpsGuard, Table};
use dprbg_rng::rngs::StdRng;
use dprbg_rng::{RngExt, SeedableRng};

use super::common::ExperimentCtx;

/// One GF(2^K) multiplication on the portable ladder alone — product and
/// both folds — whatever the CPU offers.
fn mul_portable<const K: usize>(a: Gf2k<K>, b: Gf2k<K>) -> Gf2k<K> {
    let fold = |v: u128| {
        (v & (u128::MAX >> (128 - K))) ^ clmul::clmul_portable((v >> K) as u64, reduction_poly(K))
    };
    Gf2k::from_u64(fold(fold(clmul::clmul_portable(a.to_u64(), b.to_u64()))) as u64)
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

/// `Z_q` multiplications in one GF(q^l) multiply, `(naive, DFT)`, on
/// dense operands (no zero coefficient, so the schoolbook skips no row).
/// From the loops: l² + (l − 1) for the schoolbook, 3·N·log2 N + 2N +
/// (l − 1) for the DFT of size N ≥ 2l − 1.
fn zq_muls(f: &GfQlParams) -> (u64, u64) {
    let dense = f.from_coeffs(&(1..=f.l() as u64).collect::<Vec<_>>());
    let count = |mul: fn(&GfQlParams, &GfQl, &GfQl) -> GfQl| {
        let guard = OpsGuard::start();
        mul(f, &dense, &dense);
        guard.finish().field_muls
    };
    (count(GfQlParams::mul_naive), count(GfQlParams::mul_fft))
}

/// Run E8 and render its table.
pub fn run(ctx: &ExperimentCtx) -> Table {
    let mut table = Table::new(
        "E8: Z_q multiplications per GF(q^l) multiply, schoolbook vs DFT (§2 crossover)",
        &["~bits", "naive", "DFT", "DFT wins?"],
    );
    // GF(q^l) sized to match GF(2^k) at the paper's working points, then
    // the large extension degrees where the DFT pays.
    let rows = [
        ("k=16 | ", 17u64, 4usize),
        ("k=32 | ", 17, 8),
        ("k=64 | ", 97, 16),
        ("      ", 193, 32),
        ("      ", 769, 64),
    ];
    for (label, q, l) in rows {
        let params = GfQlParams::new(q, l).expect("built-in parameters are valid");
        let (naive, fft) = zq_muls(&params);
        table.row(
            &format!("{label}GF({q}^{l})"),
            &[
                params.bits().to_string(),
                naive.to_string(),
                fft.to_string(),
                (fft < naive).to_string(),
            ],
        );
    }
    // The GF(2^k) multiply goes through the runtime-dispatched carry-less
    // product; check it against the portable reference ladder — the raw
    // product, and 4 096 random slices through the kernels — so no
    // protocol ever runs on a broken accelerator unnoticed.
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
        "GF(2^k) clmul vs portable",
        &[
            "-".into(),
            if parity { "backend parity OK".into() } else { "BACKEND MISMATCH".into() },
            if kernel_parity { "kernel parity OK".into() } else { "KERNEL MISMATCH".into() },
            "-".into(),
        ],
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::common::assert_golden;

    #[test]
    fn e8_small_l_prefers_naive() {
        for (q, l) in [(17, 4), (17, 8), (97, 16), (193, 32)] {
            let (naive, fft) = zq_muls(&GfQlParams::new(q, l).unwrap());
            assert!(naive < fft, "GF({q}^{l}): schoolbook {naive} vs DFT {fft}");
        }
        assert_eq!(zq_muls(&GfQlParams::new(193, 32).unwrap()), (1_055, 1_311));
    }

    #[test]
    fn e8_large_l_prefers_dft() {
        let counts = zq_muls(&GfQlParams::new(769, 64).unwrap());
        assert_eq!(counts, (4_159, 3_007), "GF(769^64): the DFT wins");
    }

    #[test]
    fn e8_renders() {
        let table = run(&ExperimentCtx::new(true));
        let s = table.render();
        assert!(s.contains("GF(2^k)"));
        assert!(s.contains("backend parity OK"), "{s}");
        assert!(s.contains("kernel parity OK"), "{s}");
        assert_golden(&[table]);
    }
}
