//! Spans recorded from outside the crates: one per boundary — workload →
//! op → executor run → party `round()` body — kept in memory and written
//! out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dprbg_sim::{RoundMachine, RoundView, Step};

pub type SpanId = u32;

/// The part of a span name before the first `/`: `"gradecast/echo"`
/// counts under `"gradecast"`.
pub fn prefix(name: &'static str) -> &'static str {
    name.split('/').next().unwrap_or(name)
}

/// The root's parent.
pub const NO_PARENT: SpanId = u32::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    /// The op this span belongs to (spans of one op share it).
    pub op: u32,
    /// Party and round for `round()` bodies, 0 otherwise.
    pub party: u32,
    pub round: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl SpanLog {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; [`SpanLog::close`] stamps its end.
    pub fn open(&mut self, name: &'static str, parent: SpanId, op: u32) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
            party: 0,
            round: 0,
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Each span's self time: its duration minus the part its children
    /// cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if s.parent != NO_PARENT {
                let p = &mut own[s.parent as usize];
                *p = p.saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Self time summed by `key(span name)`.
    pub fn self_ns_by(
        &self,
        key: impl Fn(&'static str) -> &'static str,
    ) -> BTreeMap<&'static str, u64> {
        let mut by = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times_ns()) {
            *by.entry(key(s.name)).or_insert(0) += own;
        }
        by
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one
    /// complete (`"ph":"X"`) event per span, party as the thread id, at
    /// most `cap` spans so a long soak stays loadable.
    pub fn to_chrome_json(&self, process: &str, cap: usize) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{{\"name\":\"{process}\"}}}}"
        )
        .expect("write to String");
        for (id, s) in self.spans.iter().enumerate().take(cap) {
            write!(
                out,
                ",\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{id},\"parent\":{},\"op\":{},\"round\":{}}}}}",
                s.name,
                s.party,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                if s.parent == NO_PARENT { -1 } else { i64::from(s.parent) },
                s.op,
                s.round,
            )
            .expect("write to String");
        }
        write!(
            out,
            "\n],\"spansRecorded\":{},\"spansWritten\":{}}}\n",
            self.spans.len(),
            self.spans.len().min(cap)
        )
        .expect("write to String");
        out
    }
}

/// The log as shared with the [`Timed`] adapters of a fleet.
pub type SharedLog = Arc<Mutex<SpanLog>>;

pub fn lock(log: &SharedLog) -> std::sync::MutexGuard<'_, SpanLog> {
    log.lock()
        .expect("no span recorder panics while holding the log")
}

/// Wraps a machine and records one span per `round()` call, named by the
/// machine's own `phase_name()` — the per-phase clock the crates do not
/// carry, taken from outside.
pub struct Timed<T> {
    pub inner: T,
    pub log: SharedLog,
    /// The executor-run span this fleet runs under.
    pub parent: SpanId,
    pub op: u32,
}

impl<M, T: RoundMachine<M>> RoundMachine<M> for Timed<T> {
    type Output = T::Output;

    fn round(&mut self, view: RoundView<'_, M>) -> Step<M, Self::Output> {
        let (name, party, round) = (self.inner.phase_name(), view.id as u32, view.round);
        let start_ns = lock(&self.log).now_ns();
        let step = self.inner.round(view);
        let mut log = lock(&self.log);
        let end_ns = log.now_ns();
        log.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.parent,
            op: self.op,
            party,
            round,
        });
        step
    }

    fn phase_name(&self) -> &'static str {
        self.inner.phase_name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: SpanId) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
            party: 0,
            round: 0,
        }
    }

    fn synthetic() -> SpanLog {
        // op [0,100) ─ run [10,90) ─ bodies [20,40) and [50,70)
        let spans = vec![
            span("op", 0, 100, NO_PARENT),
            span("step_run", 10, 90, 0),
            span("gradecast/echo", 20, 40, 1),
            span("gradecast/vote", 50, 70, 1),
        ];
        SpanLog {
            spans,
            ..SpanLog::default()
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let log = synthetic();
        assert_eq!(log.self_times_ns(), vec![20, 40, 20, 20]);
        let by = log.self_ns_by(prefix);
        assert_eq!(by["op"], 20);
        assert_eq!(by["step_run"], 40);
        assert_eq!(by["gradecast"], 40);
        // Self times partition the root span.
        assert_eq!(by.values().sum::<u64>(), 100);
    }

    #[test]
    fn chrome_export_is_valid_json_and_capped() {
        let text = synthetic().to_chrome_json("unit", 3);
        let json = crate::json::Json::parse(&text).expect("chrome trace parses");
        let events = match json.get("traceEvents") {
            Some(crate::json::Json::Arr(items)) => items.len(),
            _ => 0,
        };
        assert_eq!(events, 1 + 3, "metadata event plus the capped spans");
        assert_eq!(
            json.get("spansRecorded")
                .and_then(crate::json::Json::as_f64),
            Some(4.0)
        );
    }
}
