//! Chrome trace-event JSON export (and the matching reader).
//!
//! The [trace-event format] is what Perfetto and `chrome://tracing` load:
//! a `traceEvents` array of `B`/`E` duration events and `i` instants,
//! keyed by process/thread ids. We map one run to `pid` 1, each party to
//! a `tid`, and use the merged trace's position index as the logical
//! `ts` — so the rendered timeline is the canonical `(round, party, seq)`
//! order, not wall time.
//!
//! The writer is canonical (fixed key order, minimal escapes), and
//! [`parse_chrome_json`] reads exactly what it writes, so
//! [`validate_chrome_json`] can check a byte-identical round trip plus
//! the structural invariants (monotone timestamps, balanced span
//! nesting) — the smoke check `scripts/verify.sh` runs.
//!
//! [trace-event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use std::collections::BTreeMap;
use std::fmt::Write as _;

use dprbg_metrics::json::{escape, parse};

use crate::{EventKind, Trace};

/// One event of the Chrome trace-event JSON, as emitted and re-parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChromeEvent {
    /// Span or instant name (the phase label, `"flush"`, or a mark).
    pub name: String,
    /// Phase type: `B` (span open), `E` (span close), `i` (instant).
    pub ph: char,
    /// Process id (always 1 — one run is one process).
    pub pid: u64,
    /// Thread id (the 1-based party id).
    pub tid: u64,
    /// Logical timestamp: the event's position in the merged trace.
    pub ts: u64,
    /// Instant scope (`"t"` on `i` events, absent otherwise).
    pub scope: Option<String>,
    /// Argument payload, key order preserved.
    pub args: Vec<(String, u64)>,
}

/// Lower a merged [`Trace`] to Chrome events (the structured form of
/// [`to_chrome_json`]).
pub fn chrome_events(trace: &Trace) -> Vec<ChromeEvent> {
    // `E` events name the span they close; track the open phase per party.
    let mut open: BTreeMap<usize, String> = BTreeMap::new();
    trace
        .events
        .iter()
        .enumerate()
        .map(|(ts, e)| {
            let ts = ts as u64;
            let (name, ph, scope, args) = match &e.kind {
                EventKind::Begin { phase } => {
                    open.insert(e.party, phase.clone());
                    (phase.clone(), 'B', None, vec![("round".to_string(), e.round)])
                }
                EventKind::Flush { messages, bytes } => (
                    "flush".to_string(),
                    'i',
                    Some("t".to_string()),
                    vec![
                        ("round".to_string(), e.round),
                        ("messages".to_string(), *messages),
                        ("bytes".to_string(), *bytes),
                    ],
                ),
                EventKind::End { cost } => (
                    open.remove(&e.party).unwrap_or_else(|| "round".to_string()),
                    'E',
                    None,
                    vec![
                        ("round".to_string(), e.round),
                        ("field_adds".to_string(), cost.field_adds),
                        ("field_muls".to_string(), cost.field_muls),
                        ("field_invs".to_string(), cost.field_invs),
                        ("interpolations".to_string(), cost.interpolations),
                        ("messages".to_string(), cost.messages),
                        ("bytes".to_string(), cost.bytes),
                        ("rounds".to_string(), cost.rounds),
                    ],
                ),
                EventKind::Mark { label } => (
                    label.clone(),
                    'i',
                    Some("t".to_string()),
                    vec![("round".to_string(), e.round)],
                ),
            };
            ChromeEvent { name, ph, pid: 1, tid: e.party as u64, ts, scope, args }
        })
        .collect()
}

/// Serialize Chrome events with the canonical key order — the writer half
/// of the byte-identical round trip.
pub fn emit_chrome_json(events: &[ChromeEvent]) -> String {
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
        if let Some(scope) = &e.scope {
            let _ = write!(out, ",\"s\":\"{}\"", escape(scope));
        }
        out.push_str(",\"args\":{");
        for (j, (k, v)) in e.args.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", escape(k), v);
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

/// Export a merged [`Trace`] as Chrome trace-event JSON (Perfetto /
/// `chrome://tracing` loadable).
pub fn to_chrome_json(trace: &Trace) -> String {
    emit_chrome_json(&chrome_events(trace))
}

/// Parse a Chrome trace-event JSON document produced by
/// [`to_chrome_json`] back into its events.
///
/// # Errors
///
/// Returns a message if the document is not valid JSON or lacks the
/// fields the exporter writes.
pub fn parse_chrome_json(src: &str) -> Result<Vec<ChromeEvent>, String> {
    let doc = parse(src)?;
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .ok_or_else(|| "missing `traceEvents` array".to_string())?;
    events
        .iter()
        .enumerate()
        .map(|(i, ev)| {
            let field = |key: &str| {
                ev.get(key)
                    .and_then(|v| v.as_u64())
                    .ok_or_else(|| format!("event {i}: missing numeric `{key}`"))
            };
            let name = ev
                .get("name")
                .and_then(|v| v.as_str())
                .ok_or_else(|| format!("event {i}: missing `name`"))?
                .to_string();
            let ph_str = ev
                .get("ph")
                .and_then(|v| v.as_str())
                .ok_or_else(|| format!("event {i}: missing `ph`"))?;
            let mut chars = ph_str.chars();
            let ph = match (chars.next(), chars.next()) {
                (Some(c), None) => c,
                _ => return Err(format!("event {i}: `ph` must be one character")),
            };
            let scope = ev.get("s").and_then(|v| v.as_str()).map(str::to_string);
            let args = match ev.get("args").and_then(|v| v.as_obj()) {
                Some(fields) => fields
                    .iter()
                    .map(|(k, v)| {
                        v.as_u64()
                            .map(|n| (k.clone(), n))
                            .ok_or_else(|| format!("event {i}: non-integer arg `{k}`"))
                    })
                    .collect::<Result<Vec<_>, _>>()?,
                _ => return Err(format!("event {i}: missing `args` object")),
            };
            Ok(ChromeEvent {
                name,
                ph,
                pid: field("pid")?,
                tid: field("tid")?,
                ts: field("ts")?,
                scope,
                args,
            })
        })
        .collect()
}

/// Validate an exported document end to end: it must parse, re-emit
/// byte-identically, carry monotonically non-decreasing timestamps, and
/// every `tid`'s `B`/`E` events must alternate and balance (spans are
/// flat per party — one round span open at a time).
///
/// # Errors
///
/// Returns a description of the first violated invariant.
pub fn validate_chrome_json(src: &str) -> Result<(), String> {
    let events = parse_chrome_json(src)?;
    let reemitted = emit_chrome_json(&events);
    if reemitted != src {
        return Err("round trip is not byte-identical".to_string());
    }
    let mut last_ts = 0u64;
    let mut open: BTreeMap<u64, String> = BTreeMap::new();
    for (i, e) in events.iter().enumerate() {
        if e.ts < last_ts {
            return Err(format!("event {i}: ts {} regresses below {last_ts}", e.ts));
        }
        last_ts = e.ts;
        match e.ph {
            'B' => {
                if let Some(inside) = open.insert(e.tid, e.name.clone()) {
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

    fn sample_trace() -> Trace {
        Trace::from_parties((1..=2).map(|p| {
            let mut t = PartyTracer::new(p, TraceConfig::full());
            t.begin(0, "bit-gen/deal");
            t.flush(0, 4, 64);
            t.end(0, CostSnapshot { field_adds: 12, messages: 4, bytes: 64, rounds: 1, ..Default::default() });
            t.begin(1, "bit-gen/record");
            t.mark(1, "tamper");
            t.end(1, CostSnapshot { field_muls: 3, rounds: 1, ..Default::default() });
            t.into_events()
        }))
    }

    #[test]
    fn export_is_valid_json_with_expected_shape() {
        let json = to_chrome_json(&sample_trace());
        let doc = parse(&json).expect("exporter must emit valid JSON");
        let events = doc.get("traceEvents").and_then(|v| v.as_arr()).unwrap();
        assert_eq!(events.len(), 12); // 2 parties × 2 spans of (B, i, E)
        assert_eq!(events[0].get("ph").unwrap().as_str(), Some("B"));
        assert_eq!(events[0].get("name").unwrap().as_str(), Some("bit-gen/deal"));
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
        assert_eq!(closes.len(), 4);
        assert!(closes.iter().any(|e| e.name == "bit-gen/deal"));
        assert!(closes.iter().any(|e| e.name == "bit-gen/record"));
    }

    #[test]
    fn round_trip_is_byte_identical_and_validates() {
        let json = to_chrome_json(&sample_trace());
        let parsed = parse_chrome_json(&json).unwrap();
        assert_eq!(emit_chrome_json(&parsed), json);
        validate_chrome_json(&json).unwrap();
    }

    #[test]
    fn validator_rejects_unbalanced_spans() {
        let mut events = chrome_events(&sample_trace());
        events.retain(|e| e.ph != 'E');
        // Re-number timestamps so only the balance check can fail.
        for (i, e) in events.iter_mut().enumerate() {
            e.ts = i as u64;
        }
        let doc = emit_chrome_json(&events);
        let err = validate_chrome_json(&doc).unwrap_err();
        assert!(err.contains("opens on tid"), "unexpected error: {err}");
    }

    #[test]
    fn validator_rejects_regressing_timestamps() {
        let mut events = chrome_events(&sample_trace());
        let last = events.len() - 1;
        events[last].ts = 0;
        let doc = emit_chrome_json(&events);
        let err = validate_chrome_json(&doc).unwrap_err();
        assert!(err.contains("regresses"), "unexpected error: {err}");
    }
}
