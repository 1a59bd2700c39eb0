//! Deterministic metric registry keyed on logical time.
//!
//! The health plane extends the trace discipline (PR 5) from per-execution
//! traces to service-lifetime telemetry: every metric is keyed on *logical*
//! time only — epoch, round, party — never wall clocks, so a registry built
//! under `StepRunner` and one built under `ParRunner` at any thread count
//! are byte-identical. Three metric kinds cover the beacon's health story:
//!
//! * **counters** — monotone `u64` sums (merge = addition);
//! * **gauges** — last-writer-wins by [`LogicalTime`]; the merge is a
//!   semilattice join (max by `(time, value)`), so it is associative,
//!   commutative, and idempotent regardless of shard arrival order;
//! * **histograms** — log2-bucketed `u64` distributions (merge =
//!   componentwise addition).
//!
//! All three merges are associative and commutative, so sharded executors
//! may combine partial registries in any grouping and arrive at the same
//! state — the property tests in the workspace root assert exactly this.
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
use std::fmt;

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
    pub(crate) name: String,
    pub(crate) labels: Vec<(String, String)>,
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
///
/// Merging is componentwise addition, hence associative and commutative
/// with the zero histogram as identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Histogram {
    pub(crate) buckets: [u64; HISTOGRAM_BUCKETS],
    pub(crate) count: u64,
    pub(crate) sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: [0; HISTOGRAM_BUCKETS], count: 0, sum: 0 }
    }
}

impl Histogram {
    /// The empty histogram (merge identity).
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

    /// Occupancy of bucket `i` (panics if `i >= HISTOGRAM_BUCKETS`).
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i]
    }

    /// The non-empty buckets as `(index, count)` pairs, ascending.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0)
            .map(|(i, &c)| (i, c))
    }

    /// Componentwise addition (associative, commutative, zero-identity).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += *b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }
}

/// A metric's current state: one of the three supported kinds.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum MetricValue {
    /// Monotone sum; merge is addition.
    Counter(u64),
    /// Last-writer-wins by logical time; merge is max by `(at, value)`.
    Gauge {
        /// Logical time of the winning write.
        at: LogicalTime,
        /// The value written at `at`.
        value: u64,
    },
    /// Log2-bucketed distribution; merge is componentwise addition.
    /// Boxed: a histogram is ~40× the size of the other variants, and
    /// most registry entries are counters or gauges.
    Histogram(Box<Histogram>),
}

impl MetricValue {
    fn kind(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge { .. } => "gauge",
            MetricValue::Histogram(_) => "histogram",
        }
    }
}

/// Why a serialized registry blob failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryDecodeError {
    /// The blob ended before the declared content did.
    Truncated,
    /// A field held a value the format does not allow.
    Malformed(&'static str),
}

impl fmt::Display for RegistryDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryDecodeError::Truncated => write!(f, "registry blob truncated"),
            RegistryDecodeError::Malformed(what) => {
                write!(f, "registry blob malformed: {what}")
            }
        }
    }
}

impl std::error::Error for RegistryDecodeError {}

/// A deterministic registry of named metrics.
///
/// Metrics live in a `BTreeMap` keyed by [`MetricId`], so iteration and
/// serialization order are canonical — byte-identical registries are equal
/// registries and vice versa.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Registry {
    pub(crate) metrics: BTreeMap<MetricId, MetricValue>,
}

impl Registry {
    /// The empty registry (merge identity).
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
    /// The stored value is the semilattice join: a write only lands if its
    /// `(at, value)` pair exceeds the current one, which makes replays and
    /// shard merges order-independent.
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

    /// Merge another registry into this one, kind by kind.
    ///
    /// Each kind's merge is associative and commutative (counters and
    /// histograms add, gauges join by `(at, value)`), so sharded partial
    /// registries combine to the same state in any grouping.
    ///
    /// # Panics
    ///
    /// Panics if the same metric id carries different kinds — that is a
    /// programming error, in the spirit of [`crate::CostReport::merge`].
    pub fn merge(&mut self, other: &Registry) {
        for (id, theirs) in &other.metrics {
            match self.metrics.entry(id.clone()) {
                std::collections::btree_map::Entry::Vacant(slot) => {
                    slot.insert(theirs.clone());
                }
                std::collections::btree_map::Entry::Occupied(mut slot) => {
                    match (slot.get_mut(), theirs) {
                        (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += *b,
                        (
                            MetricValue::Gauge { at: a_at, value: a },
                            MetricValue::Gauge { at: b_at, value: b },
                        ) => {
                            if (*b_at, *b) > (*a_at, *a) {
                                *a_at = *b_at;
                                *a = *b;
                            }
                        }
                        (MetricValue::Histogram(a), MetricValue::Histogram(b)) => a.merge(b),
                        (mine, theirs) => panic!(
                            "cannot merge metric `{}`: {} vs {}",
                            id.name(),
                            mine.kind(),
                            theirs.kind()
                        ),
                    }
                }
            }
        }
    }

    pub(crate) fn insert(
        &mut self,
        id: MetricId,
        value: MetricValue,
    ) -> Result<(), RegistryDecodeError> {
        // Canonical order doubles as a duplicate check: every insert must
        // strictly follow the current maximum id.
        if let Some((last, _)) = self.metrics.iter().next_back() {
            if *last >= id {
                return Err(RegistryDecodeError::Malformed("metric order"));
            }
        }
        self.metrics.insert(id, value);
        Ok(())
    }

    /// Serialize to the canonical little-endian byte form.
    ///
    /// Equal registries produce equal bytes and vice versa; the beacon
    /// snapshot embeds this blob verbatim.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u32(&mut out, self.metrics.len() as u32);
        for (id, value) in &self.metrics {
            put_str(&mut out, &id.name);
            put_u32(&mut out, id.labels.len() as u32);
            for (k, v) in &id.labels {
                put_str(&mut out, k);
                put_str(&mut out, v);
            }
            match value {
                MetricValue::Counter(v) => {
                    out.push(0);
                    put_u64(&mut out, *v);
                }
                MetricValue::Gauge { at, value } => {
                    out.push(1);
                    put_u64(&mut out, at.epoch);
                    put_u64(&mut out, at.round);
                    put_u32(&mut out, at.party);
                    put_u64(&mut out, *value);
                }
                MetricValue::Histogram(h) => {
                    out.push(2);
                    put_u64(&mut out, h.count);
                    put_u64(&mut out, h.sum);
                    let nonzero: Vec<(usize, u64)> = h.nonzero_buckets().collect();
                    put_u32(&mut out, nonzero.len() as u32);
                    for (i, c) in nonzero {
                        out.push(i as u8);
                        put_u64(&mut out, c);
                    }
                }
            }
        }
        out
    }

    /// Decode a blob produced by [`Registry::to_bytes`]. Total: every
    /// malformed input is an error, never a panic, and trailing bytes are
    /// rejected.
    pub fn from_bytes(bytes: &[u8]) -> Result<Registry, RegistryDecodeError> {
        let mut cur = Cursor { bytes, pos: 0 };
        let count = cur.u32()?;
        let mut reg = Registry::new();
        for _ in 0..count {
            let name = cur.string()?;
            let n_labels = cur.u32()?;
            let mut labels = Vec::new();
            for _ in 0..n_labels {
                let k = cur.string()?;
                let v = cur.string()?;
                labels.push((k, v));
            }
            if labels.windows(2).any(|w| w[0] > w[1]) {
                return Err(RegistryDecodeError::Malformed("label order"));
            }
            let value = match cur.u8()? {
                0 => MetricValue::Counter(cur.u64()?),
                1 => {
                    let epoch = cur.u64()?;
                    let round = cur.u64()?;
                    let party = cur.u32()?;
                    let value = cur.u64()?;
                    MetricValue::Gauge { at: LogicalTime { epoch, round, party }, value }
                }
                2 => {
                    let count = cur.u64()?;
                    let sum = cur.u64()?;
                    let nonzero = cur.u32()?;
                    let mut h = Histogram::new();
                    let mut total = 0u64;
                    let mut last: Option<u8> = None;
                    for _ in 0..nonzero {
                        let i = cur.u8()?;
                        if usize::from(i) >= HISTOGRAM_BUCKETS {
                            return Err(RegistryDecodeError::Malformed("bucket index"));
                        }
                        if last.is_some_and(|l| l >= i) {
                            return Err(RegistryDecodeError::Malformed("bucket order"));
                        }
                        last = Some(i);
                        let c = cur.u64()?;
                        if c == 0 {
                            return Err(RegistryDecodeError::Malformed("empty bucket"));
                        }
                        h.buckets[usize::from(i)] = c;
                        total = total
                            .checked_add(c)
                            .ok_or(RegistryDecodeError::Malformed("bucket overflow"))?;
                    }
                    if total != count {
                        return Err(RegistryDecodeError::Malformed("histogram count"));
                    }
                    h.count = count;
                    h.sum = sum;
                    MetricValue::Histogram(Box::new(h))
                }
                _ => return Err(RegistryDecodeError::Malformed("metric kind")),
            };
            reg.insert(MetricId { name, labels }, value)?;
        }
        if cur.pos != bytes.len() {
            return Err(RegistryDecodeError::Malformed("trailing bytes"));
        }
        Ok(reg)
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], RegistryDecodeError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(RegistryDecodeError::Truncated)?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, RegistryDecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, RegistryDecodeError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, RegistryDecodeError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    fn string(&mut self) -> Result<String, RegistryDecodeError> {
        let len = self.u32()? as usize;
        let b = self.take(len)?;
        String::from_utf8(b.to_vec())
            .map_err(|_| RegistryDecodeError::Malformed("utf-8 string"))
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
    fn merge_combines_all_kinds() {
        let mut a = sample();
        let mut b = Registry::new();
        b.counter_add("epochs_total", &[("outcome", "committed")], 3);
        b.gauge_set("reservoir_level", &[], LogicalTime::new(4, 0, 0), 2);
        b.histogram_observe("epoch_rounds", &[], 7);
        b.counter_add("rollbacks_total", &[], 1);
        a.merge(&b);
        assert_eq!(a.counter("epochs_total", &[("outcome", "committed")]), 8);
        assert_eq!(a.counter("rollbacks_total", &[]), 1);
        assert_eq!(a.gauge("reservoir_level", &[]), Some((LogicalTime::new(4, 0, 0), 2)));
        let h = a.histogram("epoch_rounds", &[]).unwrap();
        assert_eq!(h.count(), 5);
        assert_eq!(h.bucket(Histogram::bucket_index(7)), 2);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = sample();
        let before = a.clone();
        a.merge(&Registry::new());
        assert_eq!(a, before);
        let mut e = Registry::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    #[should_panic(expected = "cannot merge metric")]
    fn merge_rejects_kind_mismatch() {
        let mut a = Registry::new();
        a.counter_add("m", &[], 1);
        let mut b = Registry::new();
        b.histogram_observe("m", &[], 1);
        a.merge(&b);
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
            Err(RegistryDecodeError::Malformed("trailing bytes"))
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
            Err(RegistryDecodeError::Malformed("metric order"))
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
            Err(RegistryDecodeError::Malformed("histogram count"))
        );
    }
}
