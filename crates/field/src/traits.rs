//! The [`Field`] abstraction shared by every protocol in the workspace.

use std::fmt::{Debug, Display};
use std::hash::Hash;
use std::iter::{Product, Sum};
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

use dprbg_metrics::WireSize;
use dprbg_rng::Rng;

/// A finite field element.
///
/// All protocol code in the workspace is generic over this trait. Elements
/// are small `Copy` values; the field itself (modulus, degree) is carried in
/// the type, so there is no runtime context to thread through protocols.
///
/// Arithmetic must tick the [`dprbg_metrics::ops`] counters: exactly one
/// `add` per `+`/`-`, one `mul` per `*`, one `inv` per [`Field::inv`] — the
/// unit in which the paper states its computation bounds.
///
/// # Slice kernels
///
/// [`eval_points`](Field::eval_points), [`eval_polys`](Field::eval_polys),
/// [`matching_prefix`](Field::matching_prefix),
/// [`combine_rows`](Field::combine_rows), [`add_slice`](Field::add_slice)
/// and [`axpy`](Field::axpy) are provided methods whose bodies are plain
/// loops over the scalar operators. Those defaults are the reference, and
/// the whole implementation for every field that does not override them.
/// An override (today: [`Gf2k`](crate::Gf2k) on CPUs with a carry-less
/// multiply) may change how fast a slice is processed and nothing else:
///
/// * it **charges exactly what the scalar default charges** — the same
///   `mul`/`add` totals on every input, ticked once per slice;
/// * its **result is equal on all inputs**, including empty slices;
/// * it runs a **fixed trip count** for given slice lengths — no loop
///   bound depends on an element's value (`matching_prefix` evaluates
///   every point and only *charges* as the early exit would).
///
/// A kernel changes how fast an addition is, never how many the paper's
/// lemmas charge. The charge is Horner's, whatever the kernel computes
/// internally: powers of the point or of the challenge, and products
/// accumulated unreduced, are not charged, as the reduction folds of a
/// single multiply are not.
///
/// # Examples
///
/// ```
/// use dprbg_field::{Field, Gf2k};
/// let x = Gf2k::<8>::element(3);
/// assert_eq!(x - x, Gf2k::<8>::zero());
/// assert_eq!(x * Gf2k::<8>::one(), x);
/// ```
pub trait Field:
    Copy
    + Clone
    + Eq
    + PartialEq
    + Hash
    + Debug
    + Display
    + Default
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + Sum
    + Product
    + WireSize
{
    /// Human-readable field name (e.g. `"GF(2^32)"`), used in reports.
    const NAME: &'static str;

    /// The additive identity.
    fn zero() -> Self;

    /// The multiplicative identity.
    fn one() -> Self;

    /// Whether this element is the additive identity.
    fn is_zero(&self) -> bool;

    /// The multiplicative inverse, or `None` for zero.
    fn inv(&self) -> Option<Self>;

    /// Raise to the power `e` by square-and-multiply.
    ///
    /// Internal multiplications are charged to the cost counters, matching
    /// the paper's accounting of exponentiation as `log p` multiplications
    /// (its discussion of Feldman's protocol, §3.1).
    fn pow(&self, mut e: u128) -> Self {
        let mut base = *self;
        let mut acc = Self::one();
        while e > 0 {
            if e & 1 == 1 {
                acc *= base;
            }
            e >>= 1;
            if e > 0 {
                base = base * base;
            }
        }
        acc
    }

    /// The canonical field element for an integer, reduced into the field.
    ///
    /// For GF(2^k) this interprets `x` as a polynomial over GF(2) and
    /// reduces it modulo the field polynomial; for prime fields it reduces
    /// modulo `p`.
    fn from_u64(x: u64) -> Self;

    /// The canonical `u64` representative of this element.
    ///
    /// Inverse of [`Field::from_u64`] on the canonical range. For fields
    /// with more than 2^64 elements this is lossy only for elements outside
    /// `u64` range (none of our supported fields exceed 64 bits).
    fn to_u64(&self) -> u64;

    /// A uniformly random field element.
    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self;

    /// The size of the field in bits: `⌈log2 p⌉` (the paper's `k`).
    fn bits() -> u32;

    /// The number of field elements `p`.
    fn order() -> u128;

    /// The model cost of one multiplication, expressed in additions.
    ///
    /// The paper charges `O(k log k)` via the special field (§2); we charge
    /// `k·⌈log2 k⌉` so reports can convert multiplication counts into the
    /// paper's addition unit.
    fn mul_cost_in_adds() -> u64 {
        let k = Self::bits() as u64;
        k * (64 - k.leading_zeros() as u64).max(1)
    }

    /// Bytes one element occupies on the wire: `⌈k/8⌉`.
    fn wire_bytes_static() -> usize {
        (Self::bits() as usize).div_ceil(8)
    }

    /// The distinguished evaluation point of party `i` (or any small index).
    ///
    /// Party `P_i` in the paper holds the share `f(i)`; this maps the
    /// integer id to the field element written `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not less than the field order (there would be no
    /// injective embedding).
    fn element(i: u64) -> Self {
        assert!(
            (i as u128) < Self::order(),
            "index {i} does not embed into a field of order {}",
            Self::order()
        );
        Self::from_u64(i)
    }

    /// Evaluate one polynomial at many points by Horner's rule:
    /// `out[p] = Σ_c coeffs[c]·xs[p]^c` (constant term first).
    ///
    /// Charges `coeffs.len()` multiplications and additions per point —
    /// every coefficient is charged, a zero leading one included, so a
    /// caller that trims (as `Poly` does) passes the trimmed slice.
    ///
    /// # Panics
    ///
    /// Panics if `xs` and `out` differ in length.
    fn eval_points(coeffs: &[Self], xs: &[Self], out: &mut [Self]) {
        scalar::eval_points(coeffs, xs, out);
    }

    /// Evaluate many polynomials at many points, the polynomials in the
    /// lanes: `rows[p][j] = f_j(xs[p])`, so row `p` is the share vector of
    /// the party at `xs[p]`.
    ///
    /// `coeffs` holds `f_0, f_1, …` one after another — as many as a row
    /// is long, equally many coefficients each, constant term first (the
    /// order a dealer draws them in). Each polynomial is charged its
    /// trimmed length per point, in multiplications and additions: what
    /// [`eval_points`](Field::eval_points) charges for it without its
    /// leading zero coefficients.
    ///
    /// # Panics
    ///
    /// Panics if `rows` and `xs` differ in length, the rows among
    /// themselves, or `coeffs` does not split into one polynomial per row
    /// entry.
    ///
    /// # Examples
    ///
    /// ```
    /// use dprbg_field::{Field, Gf2k};
    /// type F = Gf2k<8>;
    /// // 1 + x and 2, at x = 2 and x = 3.
    /// let coeffs = [1, 1, 2, 0].map(F::from_u64);
    /// let (mut at2, mut at3) = ([F::zero(); 2], [F::zero(); 2]);
    /// F::eval_polys(&coeffs, &[F::element(2), F::element(3)], &mut [&mut at2, &mut at3]);
    /// assert_eq!((at2, at3), ([3, 2].map(F::from_u64), [2, 2].map(F::from_u64)));
    /// ```
    fn eval_polys(coeffs: &[Self], xs: &[Self], rows: &mut [&mut [Self]]) {
        scalar::eval_polys(coeffs, xs, rows);
    }

    /// How many leading points `(xs[p], ys[p])` lie on the polynomial
    /// `coeffs`: the index of the first disagreement, or `xs.len()`.
    ///
    /// Charges [`eval_points`](Field::eval_points)' price for the points
    /// up to and including the first disagreement, as a loop that stops
    /// there does.
    ///
    /// # Panics
    ///
    /// Panics if `xs` and `ys` differ in length.
    fn matching_prefix(coeffs: &[Self], xs: &[Self], ys: &[Self]) -> usize {
        scalar::matching_prefix(coeffs, xs, ys)
    }

    /// The challenge combination of Fig. 3 / Fig. 4 for many share rows
    /// under one challenge: `out[d] = Σ_j r^j·rows[d][j − 1]`, computed as
    /// `((…(a_M·r + a_{M−1})·r + …)·r + a_1)·r`.
    ///
    /// Charges `M` additions and `M` multiplications per row.
    ///
    /// # Panics
    ///
    /// Panics if `rows` and `out` differ in length, or the rows among
    /// themselves.
    fn combine_rows(rows: &[&[Self]], r: Self, out: &mut [Self]) {
        scalar::combine_rows(rows, r, out);
    }

    /// `acc[i] ← acc[i] + a[i]`; charges one addition per element.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    fn add_slice(acc: &mut [Self], a: &[Self]) {
        scalar::add_slice(acc, a);
    }

    /// `acc[i] ← acc[i] + s·row[i]`; charges one multiplication and one
    /// addition per element.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    fn axpy(acc: &mut [Self], s: Self, row: &[Self]) {
        scalar::axpy(acc, s, row);
    }
}

/// The slice kernels' scalar defaults: loops over the counted operators.
///
/// Free functions so that an override can fall back to them where its
/// fast path is unavailable, and so tests can run the reference against
/// a type that overrides it.
pub(crate) mod scalar {
    use super::Field;

    /// Horner's rule at one point: `coeffs.len()` multiplications and
    /// additions.
    #[inline]
    fn horner<F: Field>(coeffs: &[F], x: F) -> F {
        coeffs.iter().rev().fold(F::zero(), |acc, &c| acc * x + c)
    }

    pub(crate) fn eval_points<F: Field>(coeffs: &[F], xs: &[F], out: &mut [F]) {
        assert_eq!(xs.len(), out.len(), "one output per point");
        for (o, &x) in out.iter_mut().zip(xs) {
            *o = horner(coeffs, x);
        }
    }

    /// `f` without its leading zero coefficients.
    pub(crate) fn trimmed<F: Field>(f: &[F]) -> &[F] {
        &f[..f.iter().rposition(|c| !c.is_zero()).map_or(0, |top| top + 1)]
    }

    /// [`Field::eval_polys`]' shape checks; the coefficient count of one
    /// polynomial (0 when there are no rows, and nothing to evaluate).
    pub(crate) fn poly_width<F: Field>(coeffs: &[F], xs: &[F], rows: &[&mut [F]]) -> usize {
        assert_eq!(rows.len(), xs.len(), "one row per point");
        let Some(polys) = rows.first().map(|row| row.len()) else {
            return 0;
        };
        assert!(rows.iter().all(|row| row.len() == polys), "rows of one length");
        let width = coeffs.len().checked_div(polys).unwrap_or(0);
        assert_eq!(width * polys, coeffs.len(), "every polynomial has the same coefficient count");
        width
    }

    /// What [`Field::eval_polys`] charges per point: the polynomials'
    /// trimmed lengths, summed.
    pub(crate) fn trimmed_total<F: Field>(coeffs: &[F], width: usize) -> usize {
        coeffs.chunks(width.max(1)).map(|f| trimmed(f).len()).sum()
    }

    pub(crate) fn eval_polys<F: Field>(coeffs: &[F], xs: &[F], rows: &mut [&mut [F]]) {
        let width = poly_width(coeffs, xs, rows);
        for (row, &x) in rows.iter_mut().zip(xs) {
            for (j, y) in row.iter_mut().enumerate() {
                *y = horner(trimmed(&coeffs[j * width..(j + 1) * width]), x);
            }
        }
    }

    pub(crate) fn matching_prefix<F: Field>(coeffs: &[F], xs: &[F], ys: &[F]) -> usize {
        assert_eq!(xs.len(), ys.len(), "one value per point");
        xs.iter()
            .zip(ys)
            .take_while(|&(&x, &y)| horner(coeffs, x) == y)
            .count()
    }

    pub(crate) fn combine_rows<F: Field>(rows: &[&[F]], r: F, out: &mut [F]) {
        assert_eq!(rows.len(), out.len(), "one output per row");
        let m = rows.first().map_or(0, |row| row.len());
        for (o, row) in out.iter_mut().zip(rows) {
            assert_eq!(row.len(), m, "rows of one length");
            *o = row.iter().rev().fold(F::zero(), |acc, &a| (acc + a) * r);
        }
    }

    pub(crate) fn add_slice<F: Field>(acc: &mut [F], a: &[F]) {
        assert_eq!(acc.len(), a.len(), "slices of one length");
        for (x, &y) in acc.iter_mut().zip(a) {
            *x += y;
        }
    }

    pub(crate) fn axpy<F: Field>(acc: &mut [F], s: F, row: &[F]) {
        assert_eq!(acc.len(), row.len(), "slices of one length");
        for (x, &y) in acc.iter_mut().zip(row) {
            *x += y * s;
        }
    }
}

#[cfg(test)]
mod tests {
    //! Kernel ≡ scalar default: equal values **and** equal `CostSnapshot`
    //! deltas, over fields that override the kernels (`Gf2k`) and one that
    //! does not (`Fp<101>`), with the values also checked against formulas
    //! that share no code with either.

    use super::{scalar, Field};
    use crate::{Fp, Gf2k};
    use dprbg_metrics::{CostSnapshot, OpsGuard};
    use dprbg_rng::prelude::*;
    use dprbg_rng::rngs::StdRng;
    use dprbg_rng::SeedableRng;

    /// Lengths 0, 1, odd, a power of two and its neighbours, > 64.
    const LENS: [usize; 9] = [0, 1, 2, 3, 13, 16, 17, 65, 100];

    fn cost<T>(f: impl FnOnce() -> T) -> (T, CostSnapshot) {
        let guard = OpsGuard::start();
        (f(), guard.finish())
    }

    fn ops(muls: usize, adds: usize) -> CostSnapshot {
        CostSnapshot { field_muls: muls as u64, field_adds: adds as u64, ..CostSnapshot::default() }
    }

    fn randoms<F: Field>(len: usize, rng: &mut StdRng) -> Vec<F> {
        (0..len).map(|_| F::random(rng)).collect()
    }

    /// `Σ_c coeffs[c]·x^c` by explicit powers.
    fn power_sum<F: Field>(coeffs: &[F], x: F) -> F {
        coeffs.iter().enumerate().map(|(c, &a)| a * x.pow(c as u128)).sum()
    }

    fn eval_points_matches<F: Field>(rng: &mut StdRng) {
        for len in LENS {
            for width in 0..=4 {
                // Random, zero leading coefficient, all zero.
                let mut shapes = vec![randoms::<F>(width, rng), randoms(width, rng), vec![F::zero(); width]];
                if let Some(top) = shapes[1].last_mut() {
                    *top = F::zero();
                }
                for coeffs in shapes {
                    let xs = randoms::<F>(len, rng);
                    let (mut fast, mut slow) = (vec![F::one(); len], vec![F::one(); len]);
                    let ((), fast_cost) = cost(|| F::eval_points(&coeffs, &xs, &mut fast));
                    let ((), slow_cost) = cost(|| scalar::eval_points(&coeffs, &xs, &mut slow));
                    assert_eq!(fast, slow, "{}: width {width}, {len} points", F::NAME);
                    assert_eq!(fast_cost, slow_cost, "{}: width {width}, {len} points", F::NAME);
                    assert_eq!(fast_cost, ops(width * len, width * len));
                    for (&x, &y) in xs.iter().zip(&fast) {
                        assert_eq!(y, power_sum(&coeffs, x));
                    }
                }
            }
        }
    }

    fn matching_prefix_matches<F: Field>(rng: &mut StdRng) {
        for len in LENS {
            for width in [0, 1, 3] {
                let coeffs = randoms::<F>(width, rng);
                let xs = randoms::<F>(len, rng);
                let mut clean = vec![F::zero(); len];
                scalar::eval_points(&coeffs, &xs, &mut clean);
                // No disagreement; one at the first, a middle and the last
                // point; two (the earlier one counts).
                let mut cases: Vec<Vec<usize>> = vec![vec![]];
                if len > 0 {
                    cases.extend([vec![0], vec![len / 2], vec![len - 1], vec![len / 2, len - 1]]);
                }
                for mut wrong in cases {
                    wrong.dedup();
                    let mut ys = clean.clone();
                    for &i in &wrong {
                        ys[i] += F::one();
                    }
                    let (fast, fast_cost) = cost(|| F::matching_prefix(&coeffs, &xs, &ys));
                    let (slow, slow_cost) = cost(|| scalar::matching_prefix(&coeffs, &xs, &ys));
                    assert_eq!(fast, slow, "{}: {len} points, wrong at {wrong:?}", F::NAME);
                    assert_eq!(fast_cost, slow_cost, "{}: {len} points, wrong at {wrong:?}", F::NAME);
                    let first = wrong.first().copied();
                    assert_eq!(fast, first.unwrap_or(len));
                    let evaluated = first.map_or(len, |i| i + 1);
                    assert_eq!(fast_cost, ops(width * evaluated, width * evaluated));
                }
            }
        }
    }

    fn as_rows<F>(rows: &mut [Vec<F>]) -> Vec<&mut [F]> {
        rows.iter_mut().map(Vec::as_mut_slice).collect()
    }

    /// Polynomial counts 0–130 at 0, 1 and 13 points, over widths 0–5 and
    /// 11 (3 takes the hardware kernel's fixed-width copy); every third
    /// polynomial has a zero top coefficient and every seventh is zero, so
    /// the charge is the trimmed one.
    fn eval_polys_matches<F: Field>(rng: &mut StdRng) {
        for polys in 0..=130usize {
            for points in [0, 1, 13] {
                let width = [0, 1, 2, 3, 4, 5, 11][(polys + points) % 7];
                let mut coeffs = randoms::<F>(polys * width, rng);
                for (j, f) in coeffs.chunks_mut(width.max(1)).enumerate() {
                    let zeroed = if j % 7 == 6 { width } else { usize::from(j % 3 == 2) };
                    f.iter_mut().rev().take(zeroed).for_each(|c| *c = F::zero());
                }
                let xs = randoms::<F>(points, rng);
                let (mut fast, mut slow) = (vec![vec![F::one(); polys]; points], vec![vec![F::one(); polys]; points]);
                let ((), fast_cost) = cost(|| F::eval_polys(&coeffs, &xs, &mut as_rows(&mut fast)));
                let ((), slow_cost) = cost(|| scalar::eval_polys(&coeffs, &xs, &mut as_rows(&mut slow)));
                let what = format!("{}: {polys} polynomials of width {width} at {points} points", F::NAME);
                assert_eq!(fast, slow, "{what}");
                assert_eq!(fast_cost, slow_cost, "{what}");
                let trimmed: usize = coeffs
                    .chunks(width.max(1))
                    .map(|f| f.iter().rposition(|c| !c.is_zero()).map_or(0, |top| top + 1))
                    .sum();
                assert_eq!(fast_cost, ops(trimmed * points, trimmed * points), "{what}");
                for (row, &x) in fast.iter().zip(&xs) {
                    for (j, &y) in row.iter().enumerate() {
                        assert_eq!(y, power_sum(&coeffs[j * width..(j + 1) * width], x), "{what}");
                    }
                }
            }
        }
    }

    /// `M` from 0 to 130 and across the hardware kernel's chunks of
    /// powers, in 0, 1, 3 and 13 rows, under `r` = 0, 1 and a random value.
    fn combine_rows_matches<F: Field>(rng: &mut StdRng) {
        for m in (0..=130).chain([255, 256, 257, 600]) {
            for count in [0, 1, 3, 13] {
                let rows: Vec<Vec<F>> = (0..count).map(|_| randoms(m, rng)).collect();
                let rows: Vec<&[F]> = rows.iter().map(Vec::as_slice).collect();
                for r in [F::zero(), F::one(), F::random(rng)] {
                    let (mut fast, mut slow) = (vec![F::one(); count], vec![F::one(); count]);
                    let ((), fast_cost) = cost(|| F::combine_rows(&rows, r, &mut fast));
                    let ((), slow_cost) = cost(|| scalar::combine_rows(&rows, r, &mut slow));
                    assert_eq!(fast, slow, "{}: {count} rows of {m}, r = {r}", F::NAME);
                    assert_eq!(fast_cost, slow_cost, "{}: {count} rows of {m}, r = {r}", F::NAME);
                    assert_eq!(fast_cost, ops(m * count, m * count));
                    for (row, &beta) in rows.iter().zip(&fast) {
                        // `Σ_j a_j·r^(j+1)` with the powers stepped up one
                        // multiply at a time.
                        let (mut power, mut direct) = (r, F::zero());
                        for &a in row.iter() {
                            direct += a * power;
                            power *= r;
                        }
                        assert_eq!(beta, direct, "{}: {count} rows of {m}, r = {r}", F::NAME);
                    }
                }
            }
        }
    }

    fn add_and_axpy_match<F: Field>(rng: &mut StdRng) {
        for len in LENS {
            let (acc, row) = (randoms::<F>(len, rng), randoms::<F>(len, rng));
            for s in [F::random(rng), F::zero(), F::one()] {
                let (mut fast, mut slow) = (acc.clone(), acc.clone());
                let ((), fast_cost) = cost(|| F::axpy(&mut fast, s, &row));
                let ((), slow_cost) = cost(|| scalar::axpy(&mut slow, s, &row));
                assert_eq!(fast, slow, "{}: axpy over {len}", F::NAME);
                assert_eq!(fast_cost, slow_cost, "{}: axpy over {len}", F::NAME);
                assert_eq!(fast_cost, ops(len, len));
                for i in 0..len {
                    assert_eq!(fast[i], acc[i] + s * row[i]);
                }
            }
            let (mut fast, mut slow) = (acc.clone(), acc.clone());
            let ((), fast_cost) = cost(|| F::add_slice(&mut fast, &row));
            let ((), slow_cost) = cost(|| scalar::add_slice(&mut slow, &row));
            assert_eq!(fast, slow, "{}: add over {len}", F::NAME);
            assert_eq!(fast_cost, slow_cost, "{}: add over {len}", F::NAME);
            assert_eq!(fast_cost, ops(0, len));
            for i in 0..len {
                assert_eq!(fast[i], acc[i] + row[i]);
            }
        }
    }

    fn kernels_match_scalar<F: Field>(seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        eval_points_matches::<F>(&mut rng);
        eval_polys_matches::<F>(&mut rng);
        matching_prefix_matches::<F>(&mut rng);
        combine_rows_matches::<F>(&mut rng);
        add_and_axpy_match::<F>(&mut rng);
    }

    #[test]
    fn kernels_match_scalar_gf2_4() {
        kernels_match_scalar::<Gf2k<4>>(4);
    }

    #[test]
    fn kernels_match_scalar_gf2_8() {
        kernels_match_scalar::<Gf2k<8>>(8);
    }

    #[test]
    fn kernels_match_scalar_gf2_16() {
        kernels_match_scalar::<Gf2k<16>>(16);
    }

    #[test]
    fn kernels_match_scalar_gf2_24() {
        kernels_match_scalar::<Gf2k<24>>(24);
    }

    #[test]
    fn kernels_match_scalar_gf2_32() {
        kernels_match_scalar::<Gf2k<32>>(32);
    }

    #[test]
    fn kernels_match_scalar_gf2_40() {
        kernels_match_scalar::<Gf2k<40>>(40);
    }

    #[test]
    fn kernels_match_scalar_gf2_48() {
        kernels_match_scalar::<Gf2k<48>>(48);
    }

    #[test]
    fn kernels_match_scalar_gf2_56() {
        kernels_match_scalar::<Gf2k<56>>(56);
    }

    #[test]
    fn kernels_match_scalar_gf2_64() {
        kernels_match_scalar::<Gf2k<64>>(64);
    }

    #[test]
    fn every_supported_degree_has_a_kernel_test() {
        assert_eq!(crate::SUPPORTED_GF2K_DEGREES, &[4, 8, 16, 24, 32, 40, 48, 56, 64]);
    }

    #[test]
    fn kernels_match_scalar_f101() {
        kernels_match_scalar::<Fp<101>>(101);
    }

    #[test]
    #[should_panic(expected = "rows of one length")]
    fn combine_rows_rejects_ragged_rows() {
        type F = Gf2k<16>;
        let (a, b) = ([F::one(); 3], [F::one(); 2]);
        F::combine_rows(&[&a, &b], F::one(), &mut [F::zero(); 2]);
    }

    #[test]
    #[should_panic(expected = "same coefficient count")]
    fn eval_polys_rejects_a_ragged_buffer() {
        type F = Gf2k<16>;
        let mut row = [F::zero(); 2];
        F::eval_polys(&[F::one(); 5], &[F::one()], &mut [&mut row]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_kernels_match_scalar_on_random_shapes(seed: u64, len in 0usize..80, width in 0usize..6) {
            type F = Gf2k<8>;
            let mut rng = StdRng::seed_from_u64(seed);
            let (coeffs, xs) = (randoms::<F>(width, &mut rng), randoms::<F>(len, &mut rng));
            let (mut fast, mut slow) = (vec![F::zero(); len], vec![F::zero(); len]);
            let ((), fast_cost) = cost(|| F::eval_points(&coeffs, &xs, &mut fast));
            let ((), slow_cost) = cost(|| scalar::eval_points(&coeffs, &xs, &mut slow));
            prop_assert_eq!(&fast, &slow);
            prop_assert_eq!(fast_cost, slow_cost);
            // Over GF(2^8) random values collide with the word often enough
            // to exercise every prefix length.
            let ys = randoms::<F>(len, &mut rng);
            let (fast, fast_cost) = cost(|| F::matching_prefix(&coeffs, &xs, &ys));
            let (slow, slow_cost) = cost(|| scalar::matching_prefix(&coeffs, &xs, &ys));
            prop_assert_eq!(fast, slow);
            prop_assert_eq!(fast_cost, slow_cost);
        }
    }
}
