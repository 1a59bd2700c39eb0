//! Registry exporters: JSON lines, Prometheus-style exposition, dashboard.
//!
//! All three render from the registry's canonical iteration order, so the
//! exports are as deterministic as the registry itself. The JSON-lines
//! format is the machine interchange form and round-trips losslessly
//! through [`from_json_lines`]; the exposition and dashboard forms are
//! one-way renderings for scrapers and humans.

use std::fmt;

use crate::json::{self, Json};
use crate::registry::{Histogram, LogicalTime, MetricId, MetricValue, Registry};
use crate::report::Table;

/// Why a JSON-lines export failed to parse back into a [`Registry`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExportParseError {
    /// 1-based line the error was found on.
    pub line: usize,
    /// What was wrong with it.
    pub what: String,
}

impl fmt::Display for ExportParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "health export line {}: {}", self.line, self.what)
    }
}

impl std::error::Error for ExportParseError {}

/// Render the registry as JSON lines: one self-contained object per
/// metric, in canonical id order.
///
/// # Examples
///
/// ```
/// use dprbg_metrics::{export, Registry};
/// let mut r = Registry::new();
/// r.counter_add("epochs_total", &[("outcome", "committed")], 5);
/// let lines = export::to_json_lines(&r);
/// assert_eq!(export::from_json_lines(&lines).unwrap(), r);
/// ```
pub fn to_json_lines(reg: &Registry) -> String {
    let mut out = String::new();
    for (id, value) in reg.iter() {
        out.push_str("{\"type\":\"");
        out.push_str(value.kind());
        out.push_str("\",\"name\":");
        json_string(&mut out, id.name());
        out.push_str(",\"labels\":{");
        for (i, (k, v)) in id.labels().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json_string(&mut out, k);
            out.push(':');
            json_string(&mut out, v);
        }
        out.push('}');
        match value {
            MetricValue::Counter(v) => {
                out.push_str(&format!(",\"value\":{v}"));
            }
            MetricValue::Gauge { at, value } => {
                out.push_str(&format!(
                    ",\"epoch\":{},\"round\":{},\"party\":{},\"value\":{}",
                    at.epoch, at.round, at.party, value
                ));
            }
            MetricValue::Histogram(h) => {
                out.push_str(&format!(",\"count\":{},\"sum\":{},\"buckets\":[", h.count(), h.sum()));
                for (i, (idx, c)) in h.nonzero_buckets().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("[{idx},{c}]"));
                }
                out.push(']');
            }
        }
        out.push_str("}\n");
    }
    out
}

/// Parse a JSON-lines export back into a [`Registry`].
///
/// Total and lossless on anything [`to_json_lines`] emits: the decoded
/// registry re-renders to the identical string. Any malformed line is an
/// error, never a panic.
pub fn from_json_lines(s: &str) -> Result<Registry, ExportParseError> {
    let mut reg = Registry::new();
    for (i, line) in s.lines().enumerate() {
        let lineno = i + 1;
        let err = |what: &str| ExportParseError { line: lineno, what: what.to_string() };
        if line.trim().is_empty() {
            continue;
        }
        let obj = json::parse(line).map_err(|e| err(&e))?;
        obj.as_obj().ok_or_else(|| err("not an object"))?;
        let get_str = |key| obj.get(key).and_then(Json::as_str);
        let get_u64 = |key| obj.get(key).and_then(Json::as_u64);
        let kind = get_str("type").ok_or_else(|| err("missing type"))?;
        let name = get_str("name").ok_or_else(|| err("missing name"))?;
        let labels_json = obj.get("labels").and_then(Json::as_obj).ok_or_else(|| err("missing labels"))?;
        let mut labels = Vec::new();
        for (k, v) in labels_json {
            let v = v.as_str().ok_or_else(|| err("label value not a string"))?;
            labels.push((k.clone(), v.to_string()));
        }
        let value = match kind {
            "counter" => {
                MetricValue::Counter(get_u64("value").ok_or_else(|| err("missing value"))?)
            }
            "gauge" => MetricValue::Gauge {
                at: LogicalTime {
                    epoch: get_u64("epoch").ok_or_else(|| err("missing epoch"))?,
                    round: get_u64("round").ok_or_else(|| err("missing round"))?,
                    party: get_u64("party")
                        .and_then(|p| u32::try_from(p).ok())
                        .ok_or_else(|| err("missing party"))?,
                },
                value: get_u64("value").ok_or_else(|| err("missing value"))?,
            },
            "histogram" => {
                let count = get_u64("count").ok_or_else(|| err("missing count"))?;
                let sum = get_u64("sum").ok_or_else(|| err("missing sum"))?;
                let pairs =
                    obj.get("buckets").and_then(Json::as_arr).ok_or_else(|| err("missing buckets"))?;
                let mut buckets = Vec::new();
                for b in pairs {
                    let Some([i, c]) = b.as_arr() else { return Err(err("bucket not a pair")) };
                    buckets.push((
                        i.as_u64().ok_or_else(|| err("bucket index"))?,
                        c.as_u64().ok_or_else(|| err("bucket count"))?,
                    ));
                }
                let h = Histogram::from_buckets(count, sum, buckets).map_err(err)?;
                MetricValue::Histogram(Box::new(h))
            }
            _ => return Err(err("unknown metric type")),
        };
        reg.insert(name.to_string(), labels, value).map_err(err)?;
    }
    Ok(reg)
}

/// Render the registry in Prometheus plain-text exposition style, with
/// logical-time labels on gauges and cumulative `le` buckets on
/// histograms (`le` bounds are the log2 bucket upper edges).
pub fn to_prometheus(reg: &Registry) -> String {
    let mut out = String::new();
    let mut last_name: Option<&str> = None;
    for (id, value) in reg.iter() {
        if last_name != Some(id.name()) {
            out.push_str(&format!("# TYPE {} {}\n", id.name(), value.kind()));
            last_name = Some(id.name());
        }
        match value {
            MetricValue::Counter(v) => {
                out.push_str(&format!("{}{} {v}\n", id.name(), label_set(id, &[])));
            }
            MetricValue::Gauge { at, value } => {
                let time = [
                    ("epoch".to_string(), at.epoch.to_string()),
                    ("round".to_string(), at.round.to_string()),
                    ("party".to_string(), at.party.to_string()),
                ];
                out.push_str(&format!("{}{} {value}\n", id.name(), label_set(id, &time)));
            }
            MetricValue::Histogram(h) => {
                let mut cumulative = 0u64;
                for (idx, c) in h.nonzero_buckets() {
                    cumulative += c;
                    // Bucket upper edge: 0, 2^idx - 1, or u64::MAX at the top.
                    let le = match idx {
                        0 => 0,
                        64 => u64::MAX,
                        _ => (1u64 << idx) - 1,
                    };
                    let le = [("le".to_string(), le.to_string())];
                    out.push_str(&format!(
                        "{}_bucket{} {cumulative}\n",
                        id.name(),
                        label_set(id, &le)
                    ));
                }
                let inf = [("le".to_string(), "+Inf".to_string())];
                out.push_str(&format!(
                    "{}_bucket{} {}\n",
                    id.name(),
                    label_set(id, &inf),
                    h.count()
                ));
                out.push_str(&format!("{}_sum{} {}\n", id.name(), label_set(id, &[]), h.sum()));
                out.push_str(&format!(
                    "{}_count{} {}\n",
                    id.name(),
                    label_set(id, &[]),
                    h.count()
                ));
            }
        }
    }
    out
}

/// Render the registry as a human dashboard [`Table`].
///
/// One row per metric: its kind, headline value, and (for gauges) the
/// logical time of the last write.
pub fn dashboard(reg: &Registry, title: &str) -> Table {
    let mut t = Table::new(title, &["kind", "value", "logical time"]);
    for (id, value) in reg.iter() {
        let label = format!("{}{}", id.name(), label_set(id, &[]));
        match value {
            MetricValue::Counter(v) => {
                t.row(&label, &["counter".into(), v.to_string(), "-".into()]);
            }
            MetricValue::Gauge { at, value } => {
                t.row(&label, &[
                    "gauge".into(),
                    value.to_string(),
                    format!("e{} r{} p{}", at.epoch, at.round, at.party),
                ]);
            }
            MetricValue::Histogram(h) => {
                let mean = if h.count() == 0 { 0 } else { h.sum() / h.count() };
                t.row(&label, &[
                    "histogram".into(),
                    format!("n={} sum={} mean~{}", h.count(), h.sum(), mean),
                    "-".into(),
                ]);
            }
        }
    }
    t
}

/// `{k="v",...}` with extra pairs appended after the id's own labels;
/// empty string when there are no labels at all.
fn label_set(id: &MetricId, extra: &[(String, String)]) -> String {
    if id.labels().is_empty() && extra.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in id.labels().iter().chain(extra.iter()).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{k}=\"{v}\""));
    }
    out.push('}');
    out
}

fn json_string(out: &mut String, s: &str) {
    out.push('"');
    out.push_str(&json::escape(s));
    out.push('"');
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
        r.histogram_observe("epoch_rounds", &[], 7);
        r.histogram_observe("epoch_rounds", &[], 1024);
        r
    }

    #[test]
    fn json_lines_round_trip_is_lossless() {
        let r = sample();
        let lines = to_json_lines(&r);
        let back = from_json_lines(&lines).unwrap();
        assert_eq!(back, r);
        // Canonical: re-rendering the decoded registry reproduces the
        // exact byte string.
        assert_eq!(to_json_lines(&back), lines);
    }

    #[test]
    fn json_lines_escape_awkward_labels() {
        let mut r = Registry::new();
        r.counter_add("m", &[("quote", "a\"b\\c\nd")], 1);
        let lines = to_json_lines(&r);
        assert_eq!(from_json_lines(&lines).unwrap(), r);
    }

    #[test]
    fn malformed_lines_are_errors_never_panics() {
        for bad in [
            "not json",
            "{\"type\":\"counter\"}",
            "{\"type\":\"blimp\",\"name\":\"m\",\"labels\":{},\"value\":1}",
            "{\"type\":\"counter\",\"name\":\"m\",\"labels\":{},\"value\":-1}",
            "{\"type\":\"histogram\",\"name\":\"m\",\"labels\":{},\"count\":9,\"sum\":0,\"buckets\":[[1,1]]}",
            "{\"type\":\"counter\",\"name\":\"m\",\"labels\":{},\"value\":1}garbage",
        ] {
            assert!(from_json_lines(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn truncated_json_is_an_error() {
        let lines = to_json_lines(&sample());
        let first = lines.lines().next().unwrap();
        for cut in 1..first.len() {
            if first.is_char_boundary(cut) {
                assert!(from_json_lines(&first[..cut]).is_err(), "cut at {cut} parsed");
            }
        }
    }

    #[test]
    fn prometheus_exposition_shape() {
        let s = to_prometheus(&sample());
        assert!(s.contains("# TYPE epochs_total counter"));
        assert!(s.contains("epochs_total{outcome=\"committed\"} 5"));
        assert!(s.contains("# TYPE reservoir_level gauge"));
        assert!(s.contains("reservoir_level{epoch=\"3\",round=\"0\",party=\"0\"} 9"));
        assert!(s.contains("# TYPE epoch_rounds histogram"));
        // Cumulative buckets: one obs at 0, one in (4,7], one in (512,1024].
        assert!(s.contains("epoch_rounds_bucket{le=\"0\"} 1"));
        assert!(s.contains("epoch_rounds_bucket{le=\"7\"} 2"));
        assert!(s.contains("epoch_rounds_bucket{le=\"2047\"} 3"));
        assert!(s.contains("epoch_rounds_bucket{le=\"+Inf\"} 3"));
        assert!(s.contains("epoch_rounds_sum 1031"));
        assert!(s.contains("epoch_rounds_count 3"));
    }

    #[test]
    fn type_header_appears_once_per_name() {
        let s = to_prometheus(&sample());
        assert_eq!(s.matches("# TYPE epochs_total").count(), 1);
    }

    #[test]
    fn dashboard_renders_every_metric() {
        let t = dashboard(&sample(), "beacon health");
        let s = t.render();
        assert!(s.contains("beacon health"));
        assert!(s.contains("epochs_total{outcome=\"committed\"}"));
        assert!(s.contains("reservoir_level"));
        assert!(s.contains("e3 r0 p0"));
        assert!(s.contains("n=3 sum=1031"));
    }
}
