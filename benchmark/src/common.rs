//! What every workload shares: the run arguments, the sample recorder
//! behind the end-to-end metrics, seed derivation and the output digest.

use std::time::{Duration, Instant};

use crate::proc::{peak_rss_mb, SectionClock};
use crate::stats::{median, steady_tail};

/// One child run's arguments (the driver's four, plus `scale_div` for
/// `--check`).
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Divides every op count (`--check` runs at 1/20).
    pub scale_div: u64,
    pub out_dir: std::path::PathBuf,
}

impl RunArgs {
    /// An op count sized as `per_10s` at the manifest's run length, scaled
    /// to `--seconds` and `--scale-div`, never below `min`. Fixed, never
    /// time-boxed: equal arguments run equal work.
    pub fn ops(&self, per_10s: u64, min: u64) -> u64 {
        let min = if self.checking() { 1 } else { min };
        (per_10s * self.seconds / (10 * self.scale_div.max(1))).max(min)
    }

    /// `--check` compares outputs and counts, not times: it runs scaled
    /// down, sets up once and skips the warm-up ops.
    fn checking(&self) -> bool {
        self.scale_div > 1
    }

    /// Set-up repeats: several in the untraced pass so `setup_s` is a
    /// median, one in the traced pass where nothing reads it.
    pub fn setup_reps(&self, untraced: usize) -> usize {
        if self.trace || self.checking() {
            1
        } else {
            untraced
        }
    }

    pub fn warmups(&self, full: u64) -> u64 {
        if self.checking() {
            0
        } else {
            full
        }
    }
}

/// One named reading with the number of samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub samples: u64,
}

pub fn metric(name: &'static str, value: f64, samples: u64) -> Metric {
    Metric {
        name,
        value,
        samples,
    }
}

/// What a child run hands back to `main` for printing.
#[derive(Debug, Default)]
pub struct RunOutput {
    pub attempted: u64,
    pub failed: u64,
    /// FNV of the outputs: equal across runs of one seed, different
    /// across seeds.
    pub digest: u64,
    pub metrics: Vec<Metric>,
    /// Counts that must repeat exactly for a seed (`--check` compares
    /// them), as totals over the timed ops.
    pub exact: Vec<(&'static str, u64)>,
    /// Free-form lines for the human reader (percentile used, parity
    /// verdicts).
    pub notes: Vec<String>,
}

/// SplitMix64's finalizer: derives per-op and per-service seeds from
/// `--seed`.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `i`-th seed of stream `tag` under the run's `--seed`.
pub fn derive_seed(seed: u64, tag: u64, i: u64) -> u64 {
    mix64(mix64(seed ^ tag.rotate_left(32)) ^ i)
}

/// FNV-1a 64 over a stream of words and byte strings.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }
}

/// Median wall time of `set_up`, run `reps` times; the last product is
/// the one the timed section uses.
pub fn timed_setup<T>(reps: usize, mut set_up: impl FnMut() -> T) -> (T, Metric) {
    let mut times = Vec::with_capacity(reps);
    let mut product = None;
    for _ in 0..reps.max(1) {
        drop(product.take());
        let t0 = Instant::now();
        product = Some(set_up());
        times.push(t0.elapsed().as_secs_f64());
    }
    (
        product.expect("at least one set-up ran"),
        metric("setup_s", median(&times), times.len() as u64),
    )
}

/// The timed section's recorder: op latencies, coins delivered, failures.
#[derive(Debug, Default)]
pub struct Samples {
    pub lat_ms: Vec<f64>,
    pub coins: u64,
    pub failed: u64,
    pub clock: SectionClock,
}

impl Samples {
    pub fn record(&mut self, latency: Duration, coins: u64, failed: bool) {
        self.lat_ms.push(latency.as_secs_f64() * 1e3);
        self.coins += coins;
        self.failed += u64::from(failed);
    }

    pub fn attempted(&self) -> u64 {
        self.lat_ms.len() as u64
    }

    pub fn p50_ms(&self) -> f64 {
        median(&self.lat_ms)
    }

    /// Op time alone: the section wall also holds the recorder's own
    /// bookkeeping between ops.
    pub fn op_wall_s(&self) -> f64 {
        self.lat_ms.iter().sum::<f64>() / 1e3
    }

    /// The six end-to-end metrics.
    pub fn end_to_end(&self, setup_s: Metric, notes: &mut Vec<String>) -> Vec<Metric> {
        let n = self.attempted();
        let (tail_ms, how) = steady_tail(&self.lat_ms);
        notes.push(format!("op_tail_ms is {how}"));
        if n <= 8 {
            // Too few ops for a percentile to say much: print them all.
            notes.push(format!("op latencies in ms: {:.1?}", self.lat_ms));
        }
        vec![
            metric("coins_per_s", self.coins as f64 / self.op_wall_s(), n),
            metric("op_p50_ms", self.p50_ms(), n),
            metric("op_tail_ms", tail_ms, n),
            metric("cpu_s", self.clock.proc.cpu_s(), n),
            metric("peak_rss_mb", peak_rss_mb(), 1),
            setup_s,
        ]
    }
}

/// Median wall time in ms of `f`, repeated until `budget` is spent (at
/// least `min_reps` times); returns the rep count too.
pub fn time_ms(min_reps: usize, budget: Duration, mut f: impl FnMut()) -> (f64, u64) {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < min_reps || start.elapsed() < budget {
        let t0 = Instant::now();
        f();
        times.push(t0.elapsed().as_secs_f64() * 1e3);
        if times.len() >= 1000 {
            break;
        }
    }
    (median(&times), times.len() as u64)
}
