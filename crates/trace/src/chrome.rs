//! Chrome trace-event JSON export.
//!
//! The [trace-event format] is what Perfetto and `chrome://tracing` load:
//! a `traceEvents` array of `B`/`E` duration events and `i` instants,
//! keyed by process/thread ids. We map one run to `pid` 1, each party to
//! a `tid`, and use the merged trace's position index as the logical
//! `ts` — so the rendered timeline is the canonical `(round, party, seq)`
//! order, not wall time.
//!
//! The writer is canonical (fixed key order, minimal escapes) and a unit
//! test pins its exact bytes. [`validate_chrome_events`] checks the
//! structural invariants of what it writes: monotone timestamps and, per
//! party, `B`/`E` events that alternate with matching names.
//!
//! [trace-event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::{EventKind, Trace};

/// One event of the Chrome trace-event JSON, in structured form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChromeEvent {
    /// Span or instant name (the phase label, or `"flush"`).
    pub name: String,
    /// Phase type: `B` (span open), `E` (span close), `i` (instant,
    /// thread-scoped).
    pub ph: char,
    /// Process id (always 1 — one run is one process).
    pub pid: u64,
    /// Thread id (the 1-based party id).
    pub tid: u64,
    /// Logical timestamp: the event's position in the merged trace.
    pub ts: u64,
    /// Argument payload, in emission order.
    pub args: Vec<(&'static str, u64)>,
}

/// Lower a merged [`Trace`] to Chrome events (the structured form of
/// [`to_chrome_json`]). A span close carries all eight
/// [`CostSnapshot`](dprbg_metrics::CostSnapshot) counters, so the export
/// reconciles against the cost ledger column for column.
pub fn chrome_events(trace: &Trace) -> Vec<ChromeEvent> {
    // `E` events name the span they close; track the open phase per party.
    let mut open: BTreeMap<usize, String> = BTreeMap::new();
    trace
        .events
        .iter()
        .enumerate()
        .map(|(ts, e)| {
            let round = ("round", e.round);
            let (name, ph, args) = match &e.kind {
                EventKind::Begin { phase } => {
                    open.insert(e.party, phase.clone());
                    (phase.clone(), 'B', vec![round])
                }
                EventKind::Flush { messages, bytes } => (
                    "flush".to_string(),
                    'i',
                    vec![round, ("messages", *messages), ("bytes", *bytes)],
                ),
                EventKind::End { cost } => (
                    open.remove(&e.party).unwrap_or_else(|| "round".to_string()),
                    'E',
                    vec![
                        round,
                        ("field_adds", cost.field_adds),
                        ("field_muls", cost.field_muls),
                        ("field_invs", cost.field_invs),
                        ("interpolations", cost.interpolations),
                        ("prg_invocations", cost.prg_invocations),
                        ("messages", cost.messages),
                        ("bytes", cost.bytes),
                        ("rounds", cost.rounds),
                    ],
                ),
            };
            ChromeEvent { name, ph, pid: 1, tid: e.party as u64, ts: ts as u64, args }
        })
        .collect()
}

/// Export a merged [`Trace`] as Chrome trace-event JSON (Perfetto /
/// `chrome://tracing` loadable), one event per line in canonical key
/// order.
pub fn to_chrome_json(trace: &Trace) -> String {
    let events = chrome_events(trace);
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, e) in events.iter().enumerate() {
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"{}\",\"pid\":{},\"tid\":{},\"ts\":{}",
            escape(&e.name),
            e.ph,
            e.pid,
            e.tid,
            e.ts
        );
        if e.ph == 'i' {
            out.push_str(",\"s\":\"t\"");
        }
        out.push_str(",\"args\":{");
        for (j, (k, v)) in e.args.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{k}\":{v}");
        }
        out.push_str("}}");
        if i + 1 < events.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// Escape a string for embedding between quotes in JSON output.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Check the structural invariants of Chrome events: timestamps never
/// decrease, and every `tid`'s `B`/`E` events alternate and balance with
/// matching names (spans are flat per party — one round span open at a
/// time).
///
/// # Errors
///
/// Returns a description of the first violated invariant.
pub fn validate_chrome_events(events: &[ChromeEvent]) -> Result<(), String> {
    let mut last_ts = 0u64;
    let mut open: BTreeMap<u64, &str> = BTreeMap::new();
    for (i, e) in events.iter().enumerate() {
        if e.ts < last_ts {
            return Err(format!("event {i}: ts {} regresses below {last_ts}", e.ts));
        }
        last_ts = e.ts;
        match e.ph {
            'B' => {
                if let Some(inside) = open.insert(e.tid, &e.name) {
                    return Err(format!(
                        "event {i}: span `{}` opens on tid {} while `{inside}` is open",
                        e.name, e.tid
                    ));
                }
            }
            'E' => match open.remove(&e.tid) {
                Some(name) if name == e.name => {}
                Some(name) => {
                    return Err(format!(
                        "event {i}: span close `{}` does not match open `{name}`",
                        e.name
                    ));
                }
                None => {
                    return Err(format!("event {i}: span close with no open span on tid {}", e.tid));
                }
            },
            'i' => {}
            other => return Err(format!("event {i}: unknown phase type `{other}`")),
        }
    }
    if let Some((tid, name)) = open.into_iter().next() {
        return Err(format!("span `{name}` on tid {tid} never closes"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PartyTracer, TraceConfig};
    use dprbg_metrics::CostSnapshot;

    /// Eight distinct counters from `base + 1` up, one per `CostSnapshot`
    /// field, so the golden bytes show which arg carries which counter.
    fn cost(base: u64) -> CostSnapshot {
        CostSnapshot {
            field_adds: base + 1,
            field_muls: base + 2,
            field_invs: base + 3,
            interpolations: base + 4,
            prg_invocations: base + 5,
            messages: base + 6,
            bytes: base + 7,
            rounds: base + 8,
        }
    }

    /// Two parties, one awkward phase name, and a span left open at
    /// finish (closed with a zero delta).
    fn sample_trace() -> Trace {
        let mut p1 = PartyTracer::new(1, TraceConfig::full());
        p1.begin(0, "bit-gen/deal");
        p1.flush(0, 4, 64);
        p1.end(0, cost(0));
        let mut p2 = PartyTracer::new(2, TraceConfig::full());
        p2.begin(0, "a\"b\\c\td\ne\u{1}");
        p2.flush(0, 1, 8);
        p2.end(0, cost(10));
        p2.begin(1, "coin-gen/clique");
        Trace::from_parties([p1.into_events(), p2.into_events()])
    }

    #[test]
    fn chrome_json_bytes_are_pinned() {
        let trace = sample_trace();
        let expected = r#"{"traceEvents":[
{"name":"bit-gen/deal","ph":"B","pid":1,"tid":1,"ts":0,"args":{"round":0}},
{"name":"flush","ph":"i","pid":1,"tid":1,"ts":1,"s":"t","args":{"round":0,"messages":4,"bytes":64}},
{"name":"bit-gen/deal","ph":"E","pid":1,"tid":1,"ts":2,"args":{"round":0,"field_adds":1,"field_muls":2,"field_invs":3,"interpolations":4,"prg_invocations":5,"messages":6,"bytes":7,"rounds":8}},
{"name":"a\"b\\c\td\ne\u0001","ph":"B","pid":1,"tid":2,"ts":3,"args":{"round":0}},
{"name":"flush","ph":"i","pid":1,"tid":2,"ts":4,"s":"t","args":{"round":0,"messages":1,"bytes":8}},
{"name":"a\"b\\c\td\ne\u0001","ph":"E","pid":1,"tid":2,"ts":5,"args":{"round":0,"field_adds":11,"field_muls":12,"field_invs":13,"interpolations":14,"prg_invocations":15,"messages":16,"bytes":17,"rounds":18}},
{"name":"coin-gen/clique","ph":"B","pid":1,"tid":2,"ts":6,"args":{"round":1}},
{"name":"coin-gen/clique","ph":"E","pid":1,"tid":2,"ts":7,"args":{"round":1,"field_adds":0,"field_muls":0,"field_invs":0,"interpolations":0,"prg_invocations":0,"messages":0,"bytes":0,"rounds":0}}
],"displayTimeUnit":"ms"}
"#;
        assert_eq!(to_chrome_json(&trace), expected);
        validate_chrome_events(&chrome_events(&trace)).unwrap();
    }

    #[test]
    fn export_is_valid_json_with_expected_shape() {
        let trace = sample_trace();
        let json = to_chrome_json(&trace);
        // Delimiters balance and strings close, scanning escapes as JSON
        // does; no raw control character survives inside a string.
        let (mut depth, mut in_str, mut esc) = (0i64, false, false);
        for c in json.chars() {
            match (in_str, esc, c) {
                (true, true, _) => esc = false,
                (true, false, '\\') => esc = true,
                (true, false, '"') => in_str = false,
                (true, false, c) => assert!(c >= ' ', "raw control {c:?} in a string"),
                (false, _, '"') => in_str = true,
                (false, _, '{' | '[') => depth += 1,
                (false, _, '}' | ']') => {
                    depth -= 1;
                    assert!(depth >= 0, "closer without opener");
                }
                _ => {}
            }
        }
        assert!(!in_str && depth == 0, "unterminated string or unbalanced delimiters");
        // One line per event between the document's header and trailer.
        let events = chrome_events(&trace);
        let lines: Vec<&str> = json.lines().collect();
        assert_eq!(lines.first(), Some(&"{\"traceEvents\":["));
        assert_eq!(lines.last(), Some(&"],\"displayTimeUnit\":\"ms\"}"));
        assert_eq!(lines.len(), events.len() + 2);
        for (line, e) in lines[1..=events.len()].iter().zip(&events) {
            let ph = format!(",\"ph\":\"{}\",\"pid\":1,\"tid\":{},\"ts\":{},", e.ph, e.tid, e.ts);
            assert!(line.starts_with("{\"name\":\"") && line.contains(&ph), "{line}");
        }
        assert_eq!(events.len(), 8); // p1: (B, i, E); p2: (B, i, E), (B, E)
        assert_eq!((events[0].ph, events[0].name.as_str()), ('B', "bit-gen/deal"));
    }

    #[test]
    fn escape_covers_quotes_backslashes_and_controls() {
        assert_eq!(escape("plain/text"), "plain/text");
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("\n\r\t"), "\\n\\r\\t");
        assert_eq!(escape("\u{0}\u{1}\u{1f}"), "\\u0000\\u0001\\u001f");
        assert_eq!(escape("ü\u{7f}"), "ü\u{7f}");
    }

    #[test]
    fn timestamps_are_monotone_and_match_positions() {
        let events = chrome_events(&sample_trace());
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.ts, i as u64);
        }
    }

    #[test]
    fn span_close_carries_opening_name() {
        let events = chrome_events(&sample_trace());
        let closes: Vec<&ChromeEvent> = events.iter().filter(|e| e.ph == 'E').collect();
        assert_eq!(closes.len(), 3);
        assert!(closes.iter().any(|e| e.name == "bit-gen/deal"));
        assert!(closes.iter().any(|e| e.name == "coin-gen/clique"));
    }

    #[test]
    fn validator_rejects_unbalanced_spans() {
        let mut events = chrome_events(&sample_trace());
        events.retain(|e| e.ph != 'E');
        // Re-number timestamps so only the balance check can fail.
        for (i, e) in events.iter_mut().enumerate() {
            e.ts = i as u64;
        }
        let err = validate_chrome_events(&events).unwrap_err();
        assert!(err.contains("opens on tid"), "unexpected error: {err}");
    }

    #[test]
    fn validator_rejects_regressing_timestamps() {
        let mut events = chrome_events(&sample_trace());
        let last = events.len() - 1;
        events[last].ts = 0;
        let err = validate_chrome_events(&events).unwrap_err();
        assert!(err.contains("regresses"), "unexpected error: {err}");
    }
}
