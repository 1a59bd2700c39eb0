//! Order statistics, the tail-percentile picker, and bound comparison.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// The `p`-quantile (0 ≤ p ≤ 1) by linear interpolation between closest
/// ranks; 0 for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let pos = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The tail statistic a sample of `n` latencies supports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tail {
    /// The highest ladder percentile with at least ten samples beyond it.
    Percentile(f64, &'static str),
    /// Too few samples for any percentile above the median: the maximum.
    Max,
}

impl Tail {
    pub fn label(self) -> &'static str {
        match self {
            Tail::Percentile(_, label) => label,
            Tail::Max => "max",
        }
    }

    pub fn of(self, values: &[f64]) -> f64 {
        match self {
            Tail::Percentile(p, _) => percentile(values, p),
            Tail::Max => values.iter().copied().fold(0.0, f64::max),
        }
    }
}

/// `(percentile in per mille, label)`, highest first.
const LADDER: [(usize, &str); 4] = [(990, "p99"), (950, "p95"), (900, "p90"), (750, "p75")];

/// Pick the highest percentile that leaves at least ten of `n` samples
/// beyond it. A pure function of `n`, so a fixed op count fixes the
/// statistic.
pub fn pick_tail(n: usize) -> Tail {
    LADDER
        .iter()
        .find(|(pm, _)| n * (1000 - pm) / 1000 >= 10)
        .map_or(Tail::Max, |&(pm, label)| {
            Tail::Percentile(pm as f64 / 1000.0, label)
        })
}

/// Ops per chunk of [`steady_tail`]: the fewest that support a p99.
const CHUNK: usize = 1000;

/// The tail latency of a run, steadied: the run is cut into consecutive
/// chunks of at least [`CHUNK`] ops (one chunk when it has fewer), each
/// chunk reports the percentile [`pick_tail`] allows for its size, and the
/// run reports the median over chunks — a burst of interference moves a
/// few chunks, not the reading. Returns the value and how it was taken.
pub fn steady_tail(latencies: &[f64]) -> (f64, String) {
    let chunks = (latencies.len() / CHUNK).max(1);
    let size = (latencies.len() / chunks).max(1);
    let tail = pick_tail(size);
    let per_chunk: Vec<f64> = latencies
        .chunks(size)
        .take(chunks)
        .map(|c| tail.of(c))
        .collect();
    let how = if chunks == 1 {
        format!("the {} of {} ops", tail.label(), latencies.len())
    } else {
        format!(
            "the median over {chunks} chunks of {size} ops of each chunk's {}",
            tail.label()
        )
    };
    (median(&per_chunk), how)
}

/// Quartile distance over the median, with the quartiles Python's
/// `statistics.quantiles(values, n=4)` gives (the exclusive method) —
/// the spread the driver computes over ten runs.
pub fn iqr_over_median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let quartile = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    let med = median(&v);
    if med == 0.0 {
        return 0.0;
    }
    (quartile(3) - quartile(1)).abs() / med.abs()
}

/// By what share of `base` the `new` reading is worse (negative when it
/// is better).
pub fn worse_by(base: f64, new: f64, better: Better) -> f64 {
    if base == 0.0 {
        return if new == 0.0 { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (new - base) / base.abs(),
        Better::Higher => (base - new) / base.abs(),
    }
}

/// Whether `new` stays within the regression bound of `base`: worse by at
/// most `bound` (relative), or by at most `floor` in the metric's own
/// unit — the absolute floor keeps tiny readings from tripping on noise.
pub fn within_bound(base: f64, new: f64, better: Better, bound: f64, floor: f64) -> bool {
    let abs_worse = match better {
        Better::Lower => new - base,
        Better::Higher => base - new,
    };
    abs_worse <= floor || worse_by(base, new, better) <= bound
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(pick_tail(2), Tail::Max);
        assert_eq!(pick_tail(39), Tail::Max);
        assert_eq!(pick_tail(40).label(), "p75");
        assert_eq!(pick_tail(99).label(), "p75");
        assert_eq!(pick_tail(100).label(), "p90");
        assert_eq!(pick_tail(200).label(), "p95");
        assert_eq!(pick_tail(999).label(), "p95");
        assert_eq!(pick_tail(1000).label(), "p99");
        assert_eq!(pick_tail(32_000).label(), "p99");
    }

    #[test]
    fn steady_tail_takes_the_median_over_chunks() {
        // Three chunks of 1000: chunk p99s are 99, 1099 and 99; one noisy
        // chunk does not move the reading.
        let calm: Vec<f64> = (0..1000).map(f64::from).collect();
        let noisy: Vec<f64> = calm.iter().map(|v| v + 1000.0).collect();
        let run: Vec<f64> = [calm.clone(), noisy, calm.clone()].concat();
        let (value, how) = steady_tail(&run);
        assert!((value - percentile(&calm, 0.99)).abs() < 1e-9, "{value}");
        assert!(
            how.contains("3 chunks of 1000") && how.contains("p99"),
            "{how}"
        );
        // Fewer ops than a chunk: the plain picker.
        let (value, how) = steady_tail(&[1.0, 5.0]);
        assert_eq!(value, 5.0);
        assert!(how.contains("max of 2"), "{how}");
    }

    #[test]
    fn percentile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(Tail::Max.of(&v), 4.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn iqr_matches_python_exclusive_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_over_median(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(iqr_over_median(&[7.0]), 0.0);
    }

    #[test]
    fn bound_is_relative_with_an_absolute_floor() {
        // 10 % worse on a lower-is-better metric against a 5 % bound.
        assert!(!within_bound(100.0, 110.0, Better::Lower, 0.05, 0.0));
        assert!(within_bound(100.0, 104.0, Better::Lower, 0.05, 0.0));
        // Improvement always passes.
        assert!(within_bound(100.0, 50.0, Better::Lower, 0.05, 0.0));
        assert!(within_bound(100.0, 150.0, Better::Higher, 0.05, 0.0));
        assert!(!within_bound(100.0, 90.0, Better::Higher, 0.05, 0.0));
        // A 50 % jump of a tiny reading stays under the absolute floor.
        assert!(within_bound(0.002, 0.003, Better::Lower, 0.05, 0.01));
        assert!((worse_by(200.0, 150.0, Better::Higher) - 0.25).abs() < 1e-12);
    }
}
