//! The generator traits: [`Rng`] (raw word stream), [`RngExt`] (typed
//! sampling) and [`SeedableRng`] (deterministic construction).
//!
//! The split mirrors the `rand` crate so protocol code written against
//! `rand` 0.10 compiles unchanged against this crate: `Rng` is the
//! object-safe core every generic bound uses (`R: Rng + ?Sized`), and
//! `RngExt` carries the generic convenience methods via a blanket impl.

use crate::dist::{SampleRange, StandardUniform};

/// A raw source of uniformly random words.
///
/// Object-safe; all protocol code takes `R: Rng + ?Sized`.
pub trait Rng {
    /// The next 32 uniformly random bits.
    fn next_u32(&mut self) -> u32;

    /// The next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64 {
        let lo = self.next_u32() as u64;
        let hi = self.next_u32() as u64;
        (hi << 32) | lo
    }

    /// Fill `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(4);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u32().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let w = self.next_u32().to_le_bytes();
            rem.copy_from_slice(&w[..rem.len()]);
        }
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    #[inline]
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

impl<R: Rng + ?Sized> Rng for Box<R> {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    #[inline]
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

/// Typed sampling methods, blanket-implemented for every [`Rng`].
pub trait RngExt: Rng {
    /// A uniformly random value of `T` (integers over their full range,
    /// `bool` as a fair coin, floats uniform in `[0, 1)`).
    #[inline]
    fn random<T: StandardUniform>(&mut self) -> T {
        T::sample(self)
    }

    /// A uniform value in `range` (`a..b` or `a..=b`). Unbiased
    /// (multiply-shift with rejection).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[inline]
    fn random_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample(self)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    #[inline]
    fn random_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "random_bool: p = {p} out of range");
        // 53 uniform mantissa bits, exactly representable in f64.
        let x = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        x < p
    }

    /// Fill `dest` with random data (alias of [`Rng::fill_bytes`], kept for
    /// `rand`'s `Rng::fill` call-site compatibility).
    #[inline]
    fn fill(&mut self, dest: &mut [u8]) {
        self.fill_bytes(dest)
    }
}

impl<R: Rng + ?Sized> RngExt for R {}

/// A generator constructible from a fixed-size seed.
pub trait SeedableRng: Sized {
    /// The raw seed type (a byte array).
    type Seed: Sized + Default + AsRef<[u8]> + AsMut<[u8]>;

    /// Build from a full-entropy seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Build from a `u64`, expanded to a full seed with SplitMix64 — the
    /// same convenience (and expansion algorithm) `rand` offers, so every
    /// experiment in the workspace can keep its single-integer seeds.
    fn seed_from_u64(state: u64) -> Self {
        let mut sm = SplitMix64 { state };
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(8) {
            let bytes = sm.next().to_le_bytes();
            let n = chunk.len();
            chunk.copy_from_slice(&bytes[..n]);
        }
        Self::from_seed(seed)
    }

    /// Derive a new generator from an existing one.
    fn from_rng<R: Rng + ?Sized>(source: &mut R) -> Self {
        let mut seed = Self::Seed::default();
        source.fill_bytes(seed.as_mut());
        Self::from_seed(seed)
    }
}

/// SplitMix64's golden-ratio increment.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 (Steele–Lea–Flood 2014) as a pure function: the output the
/// stateful generator gives from state `x`. The workspace's one seed and
/// hash mixer — seed expansion here, per-episode and per-copy seeds in
/// the chaos harnesses, the beacon's epoch seeds and snapshot checksum.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The stateful SplitMix64 stream: the standard seed-expansion mixer.
pub(crate) struct SplitMix64 {
    pub(crate) state: u64,
}

impl SplitMix64 {
    pub(crate) fn next(&mut self) -> u64 {
        let z = splitmix64(self.state);
        self.state = self.state.wrapping_add(GAMMA);
        z
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rngs::StdRng;

    #[test]
    fn fill_bytes_handles_unaligned_tails() {
        let mut rng = StdRng::seed_from_u64(3);
        for len in 0..9 {
            let mut buf = vec![0u8; len];
            rng.fill_bytes(&mut buf);
            if len >= 4 {
                assert!(buf.iter().any(|&b| b != 0), "len {len} all zero");
            }
        }
    }

    #[test]
    fn splitmix_reference_vector() {
        // Reference values for seed 1234567 from the public-domain
        // splitmix64.c (Vigna).
        let mut sm = SplitMix64 { state: 1234567 };
        assert_eq!(sm.next(), 6457827717110365317);
        assert_eq!(sm.next(), 3203168211198807973);
        assert_eq!(splitmix64(1234567), 6457827717110365317);
    }

    #[test]
    fn trait_objects_and_refs_sample() {
        let mut rng = StdRng::seed_from_u64(9);
        let dyn_rng: &mut dyn Rng = &mut rng;
        let _: u64 = dyn_rng.random();
        let _ = dyn_rng.random_range(0u64..17);
        let boxed: &mut Box<dyn Rng> = &mut (Box::new(StdRng::seed_from_u64(9)) as Box<dyn Rng>);
        let _: bool = boxed.random();
    }
}
