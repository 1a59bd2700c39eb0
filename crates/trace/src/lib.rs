#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

//! Deterministic span/event tracing for the round engine.
//!
//! The paper states its results as *per-protocol, per-round* complexity
//! bounds (Lemmas 1–8, Theorem 2); the counters in `dprbg-metrics` only
//! report end-to-end totals. This crate records *where* those totals come
//! from: each party's executor opens a span per round call, tags it with
//! the machine's [`phase name`](Event), attaches the outbox flush totals,
//! and closes it with the round's [`CostSnapshot`] delta — so field
//! adds/muls, messages, and bits are attributable per (party, round,
//! phase).
//!
//! **Logical time only.** Events are ordered by `(round, party, seq)` —
//! round index, party id, and a per-party step counter. No wall clocks:
//! the same seed produces byte-identical traces under both executors and
//! on any machine, so traces are comparable, diffable, and usable as
//! transcript evidence (the `trace-determinism` bans in this crate's
//! `clippy.toml` forbid clock reads here). Wall-clock enrichment, where wanted, happens in
//! `dprbg-bench` which owns real time anyway.
//!
//! Recording is per party: each executor drives one [`PartyTracer`]
//! per party (append-only, optionally a bounded [ring](TraceMode::Ring)
//! for always-on forensics), and the finished streams merge into a
//! [`Trace`] whose position index doubles as the logical timestamp.
//!
//! Exporters: [`to_chrome_json`] writes Chrome trace-event JSON
//! (loadable in Perfetto / `chrome://tracing`; parseable back with the
//! in-tree [`parse_chrome_json`]), and [`render_timeline`] writes a
//! compact per-round text timeline.

mod chrome;
mod timeline;

pub use chrome::{
    chrome_events, emit_chrome_json, parse_chrome_json, to_chrome_json, validate_chrome_json,
    ChromeEvent,
};
pub use dprbg_metrics::json::{parse as parse_json, Json};
pub use timeline::render_timeline;

use std::collections::VecDeque;

use dprbg_metrics::CostSnapshot;

/// One logical-time trace event, recorded by a [`PartyTracer`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// The 1-based party id that recorded the event.
    pub party: usize,
    /// The party-local round index the event belongs to (identical to the
    /// global round for machines driven from round 0, under either
    /// executor).
    pub round: u64,
    /// Per-party step counter: strictly increasing in recording order,
    /// which makes `(round, party, seq)` a total order over a run.
    pub seq: u32,
    /// What happened.
    pub kind: EventKind,
}

/// The payload of an [`Event`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A round span opened; `phase` is the machine's
    /// `RoundMachine::phase_name()` at entry.
    Begin {
        /// Phase label, e.g. `"bit-gen/deal"`.
        phase: String,
    },
    /// The round's outbox was flushed: totals as charged to the comm
    /// counters (one message per unicast copy, one per ideal broadcast).
    Flush {
        /// Messages charged by the flush.
        messages: u64,
        /// Payload bytes charged by the flush.
        bytes: u64,
    },
    /// The round span closed with the cost delta accumulated inside it
    /// (machine computation + flush communication + the round itself).
    End {
        /// Counter deltas for the span.
        cost: CostSnapshot,
    },
    /// An instant annotation (adversary fates, classifier verdicts, …).
    Mark {
        /// Free-form label.
        label: String,
    },
}

impl EventKind {
    /// The phase label if this is a span-open event.
    pub fn phase(&self) -> Option<&str> {
        match self {
            EventKind::Begin { phase } => Some(phase),
            _ => None,
        }
    }
}

/// How much a [`PartyTracer`] retains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// Keep every event (bounded by the run length).
    Full,
    /// Keep only the most recent `capacity` events per party — always-on
    /// forensics: negligible memory, and on an unsound episode the tail
    /// of the trace is exactly what you want to see.
    Ring(usize),
}

/// Collector configuration handed to an executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Retention policy per party.
    pub mode: TraceMode,
}

impl TraceConfig {
    /// Record everything.
    pub fn full() -> Self {
        TraceConfig { mode: TraceMode::Full }
    }

    /// Record a bounded ring of the most recent `capacity` events per
    /// party (capacities below 1 are treated as 1).
    pub fn ring(capacity: usize) -> Self {
        TraceConfig { mode: TraceMode::Ring(capacity.max(1)) }
    }
}

/// Per-party event recorder.
///
/// Executors call [`begin`](PartyTracer::begin) before each
/// `RoundMachine::round`, [`flush`](PartyTracer::flush) after expanding
/// the outbox, and [`end`](PartyTracer::end) with the round's cost delta;
/// [`into_events`](PartyTracer::into_events) yields the stream for
/// [`Trace::from_parties`]. The tracer never reads a clock or a counter
/// itself — it only records what the executor hands it, which is what
/// keeps recording identical across executors.
#[derive(Debug)]
pub struct PartyTracer {
    party: usize,
    mode: TraceMode,
    seq: u32,
    open: Option<u64>,
    events: VecDeque<Event>,
}

impl PartyTracer {
    /// A tracer for `party` (1-based) with the given retention.
    pub fn new(party: usize, cfg: TraceConfig) -> Self {
        PartyTracer { party, mode: cfg.mode, seq: 0, open: None, events: VecDeque::new() }
    }

    /// Open the span for `round`, labelled with the machine's phase.
    pub fn begin(&mut self, round: u64, phase: &str) {
        self.open = Some(round);
        self.push(round, EventKind::Begin { phase: phase.to_string() });
    }

    /// Record the round's outbox flush totals.
    pub fn flush(&mut self, round: u64, messages: u64, bytes: u64) {
        self.push(round, EventKind::Flush { messages, bytes });
    }

    /// Close the span for `round` with its cost delta.
    pub fn end(&mut self, round: u64, cost: CostSnapshot) {
        self.open = None;
        self.push(round, EventKind::End { cost });
    }

    /// Record an instant annotation inside `round`.
    pub fn mark(&mut self, round: u64, label: &str) {
        self.push(round, EventKind::Mark { label: label.to_string() });
    }

    fn push(&mut self, round: u64, kind: EventKind) {
        if let TraceMode::Ring(cap) = self.mode {
            while self.events.len() >= cap.max(1) {
                self.events.pop_front();
            }
        }
        let seq = self.seq;
        self.seq += 1;
        self.events.push_back(Event { party: self.party, round, seq, kind });
    }

    /// Finish recording and return the event stream.
    ///
    /// An open span (the party panicked mid-round, or a ring truncated
    /// the close) is closed with a zero cost delta, and a ring that was
    /// cut mid-span is trimmed forward to the next span open — so the
    /// returned stream always has balanced, alternating `Begin`/`End`
    /// pairs.
    pub fn into_events(mut self) -> Vec<Event> {
        if let Some(round) = self.open.take() {
            self.push(round, EventKind::End { cost: CostSnapshot::default() });
        }
        while matches!(
            self.events.front().map(|e| &e.kind),
            Some(EventKind::Flush { .. }) | Some(EventKind::End { .. })
        ) {
            self.events.pop_front();
        }
        self.events.into()
    }
}

/// A finished, merged trace: every party's events in the canonical
/// `(round, party, seq)` order. The position of an event in
/// [`events`](Trace::events) is its logical timestamp.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    /// Merged events, sorted by `(round, party, seq)`.
    pub events: Vec<Event>,
}

impl Trace {
    /// Merge per-party event streams (from [`PartyTracer::into_events`])
    /// into canonical order.
    pub fn from_parties(parties: impl IntoIterator<Item = Vec<Event>>) -> Trace {
        let mut events: Vec<Event> = parties.into_iter().flatten().collect();
        events.sort_by_key(|a| (a.round, a.party, a.seq));
        Trace { events }
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Sum of every span's cost delta, per party id (1-based; parties
    /// beyond `n` are ignored). For a full (non-ring) trace of a run this
    /// equals the per-party ledger of the run's `CostReport` — the spans
    /// partition each party's counter activity.
    pub fn per_party_cost(&self, n: usize) -> Vec<CostSnapshot> {
        let mut per = vec![CostSnapshot::default(); n];
        for e in &self.events {
            if let EventKind::End { cost } = &e.kind {
                if (1..=n).contains(&e.party) {
                    per[e.party - 1] = per[e.party - 1].plus(cost);
                }
            }
        }
        per
    }

    /// Sum of every span's cost delta across all parties.
    pub fn total_cost(&self) -> CostSnapshot {
        self.events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::End { cost } => Some(cost),
                _ => None,
            })
            .fold(CostSnapshot::default(), |acc, c| acc.plus(c))
    }

    /// Per-(round, phase) aggregation: for each round in order, the
    /// distinct phase labels seen (in first-recorded order) with the
    /// summed span costs of the parties that ran them.
    pub fn round_phase_costs(&self) -> Vec<RoundPhaseCost> {
        let mut out: Vec<RoundPhaseCost> = Vec::new();
        // The open phase per party, carried from its Begin to its End.
        let mut open: Vec<(usize, String)> = Vec::new();
        for e in &self.events {
            match &e.kind {
                EventKind::Begin { phase } => open.push((e.party, phase.clone())),
                EventKind::End { cost } => {
                    let Some(pos) = open.iter().position(|(p, _)| *p == e.party) else {
                        continue;
                    };
                    let (_, phase) = open.remove(pos);
                    match out
                        .iter_mut()
                        .find(|r| r.round == e.round && r.phase == phase)
                    {
                        Some(row) => {
                            row.parties += 1;
                            row.cost = row.cost.plus(cost);
                        }
                        None => out.push(RoundPhaseCost {
                            round: e.round,
                            phase,
                            parties: 1,
                            cost: *cost,
                        }),
                    }
                }
                _ => {}
            }
        }
        out.sort_by_key(|a| a.round);
        out
    }
}

/// One row of [`Trace::round_phase_costs`]: what one phase of one round
/// cost, summed over the parties that executed it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundPhaseCost {
    /// Round index.
    pub round: u64,
    /// Phase label.
    pub phase: String,
    /// How many parties ran this phase in this round.
    pub parties: usize,
    /// Summed span cost.
    pub cost: CostSnapshot,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(adds: u64, msgs: u64) -> CostSnapshot {
        CostSnapshot { field_adds: adds, messages: msgs, ..Default::default() }
    }

    fn one_round(party: usize, round: u64, cfg: TraceConfig) -> Vec<Event> {
        let mut t = PartyTracer::new(party, cfg);
        t.begin(round, "phase");
        t.flush(round, 3, 24);
        t.end(round, snap(10, 3));
        t.into_events()
    }

    #[test]
    fn merge_orders_by_round_then_party_then_seq() {
        let a = one_round(2, 0, TraceConfig::full());
        let b = one_round(1, 0, TraceConfig::full());
        let t = Trace::from_parties([a, b]);
        let keys: Vec<(u64, usize, u32)> =
            t.events.iter().map(|e| (e.round, e.party, e.seq)).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        assert_eq!(t.events[0].party, 1);
        assert_eq!(t.events[3].party, 2);
    }

    #[test]
    fn open_span_is_closed_on_finish() {
        let mut t = PartyTracer::new(1, TraceConfig::full());
        t.begin(0, "interrupted");
        let events = t.into_events();
        assert_eq!(events.len(), 2);
        assert!(matches!(events[1].kind, EventKind::End { cost } if cost == CostSnapshot::default()));
    }

    #[test]
    fn ring_keeps_tail_and_rebalances() {
        let mut t = PartyTracer::new(1, TraceConfig::ring(4));
        for r in 0..10 {
            t.begin(r, "p");
            t.end(r, snap(1, 0));
        }
        let events = t.into_events();
        // Capacity 4 holds the last two (Begin, End) pairs; the stream
        // must still start on a Begin.
        assert_eq!(events.len(), 4);
        assert!(matches!(events[0].kind, EventKind::Begin { .. }));
        assert_eq!(events[0].round, 8);
        assert_eq!(events[3].round, 9);
    }

    #[test]
    fn per_party_cost_sums_span_deltas() {
        let t = Trace::from_parties([one_round(1, 0, TraceConfig::full()), {
            let mut pt = PartyTracer::new(2, TraceConfig::full());
            pt.begin(0, "p");
            pt.end(0, snap(5, 0));
            pt.begin(1, "q");
            pt.end(1, snap(7, 1));
            pt.into_events()
        }]);
        let per = t.per_party_cost(2);
        assert_eq!(per[0], snap(10, 3));
        assert_eq!(per[1], snap(12, 1));
        assert_eq!(t.total_cost(), snap(22, 4));
    }

    #[test]
    fn round_phase_costs_aggregates_parties() {
        let t = Trace::from_parties((1..=3).map(|p| one_round(p, 0, TraceConfig::full())));
        let rows = t.round_phase_costs();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].phase, "phase");
        assert_eq!(rows[0].parties, 3);
        assert_eq!(rows[0].cost, snap(30, 9));
    }
}
