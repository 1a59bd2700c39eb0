//! `parse_chrome_json` and `dprbg_metrics::export::from_json_lines` sit on
//! one reader, `dprbg_metrics::json`. Whatever bytes reach them, the answer
//! is `Ok` or `Err`: never a panic, never a stack overflow.

use dprbg_metrics::{export, CostSnapshot, LogicalTime, Registry};
use dprbg_rng::prelude::*;
use dprbg_trace::{parse_chrome_json, to_chrome_json, PartyTracer, Trace, TraceConfig};

#[test]
fn deep_nesting_is_an_error_not_an_abort() {
    for doc in ["[".repeat(200_000), "{\"a\":".repeat(200_000)] {
        assert!(parse_chrome_json(&doc).is_err());
        assert!(export::from_json_lines(&doc).is_err());
    }
}

/// A valid Chrome export and a valid JSON-lines export, awkward strings included.
fn exports() -> [String; 2] {
    let mut t = PartyTracer::new(1, TraceConfig::full());
    t.begin(0, "bit-gen/\"deal\"");
    t.mark(0, "tamper\n");
    t.end(0, CostSnapshot { field_adds: 12, messages: 4, bytes: 64, rounds: 1, ..Default::default() });
    let mut r = Registry::new();
    r.counter_add("epochs_total", &[("outcome", "a\"b\\c")], 5);
    r.gauge_set("reservoir_level", &[], LogicalTime::new(3, 0, 0), 9);
    r.histogram_observe("epoch_rounds", &[], 1024);
    [to_chrome_json(&Trace::from_parties([t.into_events()])), export::to_json_lines(&r)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Truncate, flip a byte of, or splice a piece of itself into a valid
    /// export, then hand it to both decoders.
    #[test]
    fn mutated_exports_decode_or_err_never_panic(which in 0usize..2, op in 0u8..3, a: usize, b: usize, byte: u8) {
        let mut doc = exports()[which].clone().into_bytes();
        let (a, b) = (a % doc.len(), b % doc.len());
        match op {
            0 => doc.truncate(a),
            1 => doc[a] = byte,
            _ => drop(doc.splice(a..a, doc[a.min(b)..a.max(b)].to_vec())),
        }
        let doc = String::from_utf8_lossy(&doc);
        let _ = parse_chrome_json(&doc);
        let _ = export::from_json_lines(&doc);
    }
}
