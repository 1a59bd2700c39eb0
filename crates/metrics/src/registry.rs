//! Deterministic metric registry keyed on logical time.
//!
//! The health plane extends the trace discipline (PR 5) from per-execution
//! traces to service-lifetime telemetry: every metric is keyed on *logical*
//! time only — epoch, round, party — never wall clocks, so a registry built
//! under `StepRunner` and one built under `ParRunner` at any thread count
//! are byte-identical. Three metric kinds cover the beacon's health story:
//!
//! * **counters** — monotone `u64` sums;
//! * **gauges** — last-writer-wins by [`LogicalTime`]: a write lands only
//!   if its `(time, value)` exceeds the stored pair, so a replay of the
//!   same writes in any order ends in the same state;
//! * **histograms** — log2-bucketed `u64` distributions.
//!
//! # Examples
//!
//! ```
//! use dprbg_metrics::{LogicalTime, Registry};
//!
//! let mut r = Registry::new();
//! r.counter_add("coins_served_total", &[("consumer", "1")], 3);
//! r.gauge_set("reservoir_level", &[], LogicalTime::new(7, 0, 0), 12);
//! r.histogram_observe("epoch_rounds", &[], 9);
//! let bytes = r.to_bytes();
//! assert_eq!(Registry::from_bytes(&bytes).unwrap(), r);
//! ```

use std::collections::BTreeMap;

use crate::bin::{DecodeError, Reader, Writer};
use crate::report::Table;

/// A point in protocol-logical time: `(epoch, round, party)`, ordered
/// lexicographically. Party `0` denotes service-wide (no single party).
///
/// This is the only notion of "when" the health plane knows — there is no
/// wall clock anywhere in the registry, upholding the determinism lint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LogicalTime {
    /// Beacon epoch (service-lifetime monotone).
    pub epoch: u64,
    /// Protocol round within the epoch (0 when not round-scoped).
    pub round: u64,
    /// 1-based party id, or 0 for service-wide observations.
    pub party: u32,
}

impl LogicalTime {
    /// Construct a logical timestamp.
    pub fn new(epoch: u64, round: u64, party: u32) -> Self {
        LogicalTime { epoch, round, party }
    }

    /// Service-wide timestamp at the start of `epoch`.
    pub fn at_epoch(epoch: u64) -> Self {
        LogicalTime { epoch, round: 0, party: 0 }
    }
}

/// A metric's identity: its name plus a canonically sorted label set.
///
/// Labels are sorted by `(key, value)` at construction, so two ids built
/// from the same labels in different orders compare (and serialize) equal.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MetricId {
    name: String,
    labels: Vec<(String, String)>,
}

impl MetricId {
    /// Build an id from a name and unordered labels.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricId { name: name.to_string(), labels }
    }

    /// The metric name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The canonically sorted `(key, value)` label pairs.
    pub fn labels(&self) -> &[(String, String)] {
        &self.labels
    }
}

/// Number of log2 buckets: bucket 0 holds the value 0, bucket `i >= 1`
/// holds values in `[2^(i-1), 2^i - 1]`, up to `i = 64` for `u64::MAX`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A log2-bucketed `u64` histogram with exact count and sum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: [0; HISTOGRAM_BUCKETS], count: 0, sum: 0 }
    }
}

impl Histogram {
    /// The empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// The bucket index a value lands in: 0 for 0, else `64 - lz(v)`.
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// The histogram of `count` observations summing to `sum` with these
    /// `(index, occupancy)` buckets, checked as a decoded metric must be:
    /// indices below [`HISTOGRAM_BUCKETS`] and strictly ascending, no empty
    /// bucket, and occupancies adding up to `count`.
    fn from_buckets(
        count: u64,
        sum: u64,
        buckets: impl IntoIterator<Item = (u64, u64)>,
    ) -> Result<Histogram, &'static str> {
        let mut h = Histogram { count, sum, ..Histogram::default() };
        let (mut total, mut next) = (0u64, 0u64);
        for (i, c) in buckets {
            if i >= HISTOGRAM_BUCKETS as u64 {
                return Err("bucket index");
            }
            if i < next {
                return Err("bucket order");
            }
            if c == 0 {
                return Err("empty bucket");
            }
            total = total.checked_add(c).ok_or("bucket overflow")?;
            h.buckets[i as usize] = c;
            next = i + 1;
        }
        if total != count {
            return Err("histogram count");
        }
        Ok(h)
    }

    /// Record one observation.
    pub fn observe(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The non-empty buckets as `(index, count)` pairs, ascending.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0)
            .map(|(i, &c)| (i, c))
    }
}

/// A metric's current state: one of the three supported kinds.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum MetricValue {
    /// Monotone sum.
    Counter(u64),
    /// Last-writer-wins by logical time: the max `(at, value)` written.
    Gauge {
        /// Logical time of the winning write.
        at: LogicalTime,
        /// The value written at `at`.
        value: u64,
    },
    /// Log2-bucketed distribution.
    /// Boxed: a histogram is ~40× the size of the other variants, and
    /// most registry entries are counters or gauges.
    Histogram(Box<Histogram>),
}

impl MetricValue {
    /// The kind's lowercase name: `counter`, `gauge` or `histogram`.
    pub fn kind(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge { .. } => "gauge",
            MetricValue::Histogram(_) => "histogram",
        }
    }
}

/// A deterministic registry of named metrics.
///
/// Metrics live in a `BTreeMap` keyed by [`MetricId`], so iteration and
/// serialization order are canonical — byte-identical registries are equal
/// registries and vice versa.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Registry {
    metrics: BTreeMap<MetricId, MetricValue>,
}

impl Registry {
    /// The empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Number of distinct metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Whether the registry holds no metrics.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Iterate metrics in canonical (id) order.
    pub fn iter(&self) -> impl Iterator<Item = (&MetricId, &MetricValue)> {
        self.metrics.iter()
    }

    /// Add `delta` to a counter, creating it at zero if absent.
    ///
    /// # Panics
    ///
    /// Panics if the metric exists with a non-counter kind.
    pub fn counter_add(&mut self, name: &str, labels: &[(&str, &str)], delta: u64) {
        let id = MetricId::new(name, labels);
        match self
            .metrics
            .entry(id)
            .or_insert(MetricValue::Counter(0))
        {
            MetricValue::Counter(v) => *v += delta,
            other => panic!(
                "metric `{name}` recorded as counter but registered as {}",
                other.kind()
            ),
        }
    }

    /// Write a gauge observation at logical time `at`.
    ///
    /// A write only lands if its `(at, value)` pair exceeds the current
    /// one, which makes replays order-independent.
    ///
    /// # Panics
    ///
    /// Panics if the metric exists with a non-gauge kind.
    pub fn gauge_set(&mut self, name: &str, labels: &[(&str, &str)], at: LogicalTime, value: u64) {
        let id = MetricId::new(name, labels);
        match self
            .metrics
            .entry(id)
            .or_insert(MetricValue::Gauge { at, value })
        {
            MetricValue::Gauge { at: cur_at, value: cur } => {
                if (at, value) > (*cur_at, *cur) {
                    *cur_at = at;
                    *cur = value;
                }
            }
            other => panic!(
                "metric `{name}` recorded as gauge but registered as {}",
                other.kind()
            ),
        }
    }

    /// Record one histogram observation.
    ///
    /// # Panics
    ///
    /// Panics if the metric exists with a non-histogram kind.
    pub fn histogram_observe(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        let id = MetricId::new(name, labels);
        match self
            .metrics
            .entry(id)
            .or_insert(MetricValue::Histogram(Box::new(Histogram::new())))
        {
            MetricValue::Histogram(h) => h.observe(value),
            other => panic!(
                "metric `{name}` recorded as histogram but registered as {}",
                other.kind()
            ),
        }
    }

    /// A counter's current value (0 if absent).
    ///
    /// # Panics
    ///
    /// Panics if the metric exists with a non-counter kind.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        match self.metrics.get(&MetricId::new(name, labels)) {
            None => 0,
            Some(MetricValue::Counter(v)) => *v,
            Some(other) => panic!(
                "metric `{name}` read as counter but registered as {}",
                other.kind()
            ),
        }
    }

    /// A gauge's current `(at, value)` pair, if the metric exists.
    ///
    /// # Panics
    ///
    /// Panics if the metric exists with a non-gauge kind.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<(LogicalTime, u64)> {
        match self.metrics.get(&MetricId::new(name, labels)) {
            None => None,
            Some(MetricValue::Gauge { at, value }) => Some((*at, *value)),
            Some(other) => panic!(
                "metric `{name}` read as gauge but registered as {}",
                other.kind()
            ),
        }
    }

    /// A histogram's current state, if the metric exists.
    ///
    /// # Panics
    ///
    /// Panics if the metric exists with a non-histogram kind.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Histogram> {
        match self.metrics.get(&MetricId::new(name, labels)) {
            None => None,
            Some(MetricValue::Histogram(h)) => Some(h),
            Some(other) => panic!(
                "metric `{name}` read as histogram but registered as {}",
                other.kind()
            ),
        }
    }

    /// Render the registry as a human dashboard [`Table`], one row per
    /// metric in canonical id order: its kind, headline value, and (for
    /// gauges) the logical time of the last write.
    pub fn dashboard(&self, title: &str) -> Table {
        let mut t = Table::new(title, &["kind", "value", "logical time"]);
        for (id, value) in &self.metrics {
            let mut label = id.name.clone();
            if !id.labels.is_empty() {
                let pairs: Vec<String> =
                    id.labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
                label = format!("{label}{{{}}}", pairs.join(","));
            }
            let (shown, at) = match value {
                MetricValue::Counter(v) => (v.to_string(), "-".to_string()),
                MetricValue::Gauge { at, value } => {
                    (value.to_string(), format!("e{} r{} p{}", at.epoch, at.round, at.party))
                }
                MetricValue::Histogram(h) => {
                    let mean = h.sum.checked_div(h.count).unwrap_or(0);
                    (format!("n={} sum={} mean~{mean}", h.count, h.sum), "-".to_string())
                }
            };
            t.row(&label, &[value.kind().to_string(), shown, at]);
        }
        t
    }

    /// Add one decoded metric: labels must arrive sorted, and metrics in
    /// strictly ascending id order, which doubles as the duplicate check.
    fn insert(
        &mut self,
        name: String,
        labels: Vec<(String, String)>,
        value: MetricValue,
    ) -> Result<(), &'static str> {
        if labels.windows(2).any(|w| w[0] > w[1]) {
            return Err("label order");
        }
        let id = MetricId { name, labels };
        if self.metrics.keys().next_back().is_some_and(|last| *last >= id) {
            return Err("metric order");
        }
        self.metrics.insert(id, value);
        Ok(())
    }

    /// Serialize to the canonical little-endian byte form.
    ///
    /// Equal registries produce equal bytes and vice versa; the beacon
    /// snapshot embeds this blob verbatim.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.len(self.metrics.len());
        for (id, value) in &self.metrics {
            w.str(&id.name);
            w.len(id.labels.len());
            for (k, v) in &id.labels {
                w.str(k);
                w.str(v);
            }
            match value {
                MetricValue::Counter(v) => {
                    w.u8(0);
                    w.u64(*v);
                }
                MetricValue::Gauge { at, value } => {
                    w.u8(1);
                    w.u64(at.epoch);
                    w.u64(at.round);
                    w.u32(at.party);
                    w.u64(*value);
                }
                MetricValue::Histogram(h) => {
                    w.u8(2);
                    w.u64(h.count);
                    w.u64(h.sum);
                    w.len(h.nonzero_buckets().count());
                    for (i, c) in h.nonzero_buckets() {
                        w.u8(i as u8);
                        w.u64(c);
                    }
                }
            }
        }
        w.into_bytes()
    }

    /// Decode a blob produced by [`Registry::to_bytes`]. Total: every
    /// malformed input is an error, never a panic, and trailing bytes are
    /// rejected.
    pub fn from_bytes(bytes: &[u8]) -> Result<Registry, DecodeError> {
        let mut r = Reader::new(bytes);
        let mut reg = Registry::new();
        // Each count is bounded by its items' smallest encodings: a metric
        // with an empty name, no labels and a counter; a pair of empty
        // label strings; a bucket index and occupancy.
        for _ in 0..r.len(4 + 4 + 1 + 8)? {
            let name = r.str()?.to_string();
            let mut labels = Vec::new();
            for _ in 0..r.len(4 + 4)? {
                labels.push((r.str()?.to_string(), r.str()?.to_string()));
            }
            let value = match r.u8()? {
                0 => MetricValue::Counter(r.u64()?),
                1 => MetricValue::Gauge {
                    at: LogicalTime { epoch: r.u64()?, round: r.u64()?, party: r.u32()? },
                    value: r.u64()?,
                },
                2 => {
                    let (count, sum) = (r.u64()?, r.u64()?);
                    let buckets = (0..r.len(1 + 8)?)
                        .map(|_| Ok((u64::from(r.u8()?), r.u64()?)))
                        .collect::<Result<Vec<_>, DecodeError>>()?;
                    let h = Histogram::from_buckets(count, sum, buckets)
                        .map_err(DecodeError::Malformed)?;
                    MetricValue::Histogram(Box::new(h))
                }
                _ => return Err(DecodeError::Malformed("metric kind")),
            };
            reg.insert(name, labels, value).map_err(DecodeError::Malformed)?;
        }
        r.finish()?;
        Ok(reg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Registry {
        let mut r = Registry::new();
        r.counter_add("epochs_total", &[("outcome", "committed")], 5);
        r.counter_add("epochs_total", &[("outcome", "skipped")], 2);
        r.gauge_set("reservoir_level", &[], LogicalTime::new(3, 0, 0), 9);
        r.histogram_observe("epoch_rounds", &[], 0);
        r.histogram_observe("epoch_rounds", &[], 1);
        r.histogram_observe("epoch_rounds", &[], 7);
        r.histogram_observe("epoch_rounds", &[], 1024);
        r
    }

    #[test]
    fn bucket_index_is_log2() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        // Bucket i >= 1 holds [2^(i-1), 2^i - 1].
        for i in 1..64 {
            assert_eq!(Histogram::bucket_index(1u64 << (i - 1)), i);
            assert_eq!(Histogram::bucket_index((1u64 << i) - 1), i);
        }
    }

    #[test]
    fn label_order_does_not_matter() {
        let a = MetricId::new("m", &[("a", "1"), ("b", "2")]);
        let b = MetricId::new("m", &[("b", "2"), ("a", "1")]);
        assert_eq!(a, b);
    }

    #[test]
    fn gauge_join_ignores_stale_writes() {
        let mut r = Registry::new();
        r.gauge_set("g", &[], LogicalTime::new(5, 2, 0), 10);
        r.gauge_set("g", &[], LogicalTime::new(4, 9, 3), 99);
        assert_eq!(r.gauge("g", &[]), Some((LogicalTime::new(5, 2, 0), 10)));
        r.gauge_set("g", &[], LogicalTime::new(5, 3, 0), 7);
        assert_eq!(r.gauge("g", &[]), Some((LogicalTime::new(5, 3, 0), 7)));
    }

    #[test]
    fn dashboard_renders_every_metric() {
        let s = sample().dashboard("beacon health").render();
        assert!(s.contains("beacon health"));
        assert!(s.contains("epochs_total{outcome=\"committed\"}"));
        assert!(s.contains("reservoir_level"));
        assert!(s.contains("e3 r0 p0"));
        assert!(s.contains("n=4 sum=1032"));
    }

    #[test]
    #[should_panic(expected = "registered as counter")]
    fn recording_rejects_kind_mismatch() {
        let mut a = Registry::new();
        a.counter_add("m", &[], 1);
        a.gauge_set("m", &[], LogicalTime::default(), 1);
    }

    #[test]
    fn bytes_round_trip() {
        let r = sample();
        let bytes = r.to_bytes();
        let back = Registry::from_bytes(&bytes).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn empty_round_trip() {
        let bytes = Registry::new().to_bytes();
        assert_eq!(Registry::from_bytes(&bytes).unwrap(), Registry::new());
    }

    #[test]
    fn every_truncation_is_an_error_never_a_panic() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                Registry::from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} decoded"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = sample().to_bytes();
        bytes.push(0);
        assert_eq!(
            Registry::from_bytes(&bytes),
            Err(DecodeError::Malformed("trailing bytes"))
        );
    }

    #[test]
    fn unsorted_metrics_are_rejected() {
        // Two single-metric registries concatenated out of order.
        let mut a = Registry::new();
        a.counter_add("zzz", &[], 1);
        let mut b = Registry::new();
        b.counter_add("aaa", &[], 1);
        let mut bytes = vec![2, 0, 0, 0];
        bytes.extend_from_slice(&a.to_bytes()[4..]);
        bytes.extend_from_slice(&b.to_bytes()[4..]);
        assert_eq!(
            Registry::from_bytes(&bytes),
            Err(DecodeError::Malformed("metric order"))
        );
    }

    #[test]
    fn histogram_count_mismatch_is_rejected() {
        let mut r = Registry::new();
        r.histogram_observe("h", &[], 5);
        let mut bytes = r.to_bytes();
        // The histogram `count` field sits right after name/labels/tag:
        // 4 + 1 + 4 + 1 bytes in, for a single unlabeled metric "h".
        let count_at = 4 + (4 + 1) + 4 + 1;
        bytes[count_at] = 42;
        assert_eq!(
            Registry::from_bytes(&bytes),
            Err(DecodeError::Malformed("histogram count"))
        );
    }
}
