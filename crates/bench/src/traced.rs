//! The `--trace` report path: run a fixed-seed experiment under the
//! span-recording executor, break its cost down per (round, phase),
//! reconcile the trace against the executor's own cost ledger, check the
//! Chrome events' span structure, and export them as Chrome trace-event
//! JSON for Perfetto / `chrome://tracing`.
//!
//! The experiment is **E2** (Batch-VSS verification, n = 7, t = 2): small
//! enough to print its per-round cost breakdown whole, rich enough to show
//! every protocol phase. What tracing costs in wall-clock is
//! `benchmark/`'s `trace.full_overhead_ratio`.
//!
//! Every check prints a verdict line; `tests/golden/trace_quick.txt`
//! pins them.

use dprbg_metrics::Table;
use dprbg_sim::{StepRunner, TraceConfig};
use dprbg_trace::{chrome_events, to_chrome_json, validate_chrome_events, Trace};

use crate::experiments::common::F32;
use crate::experiments::e2;

/// The fixed seed every traced report run uses: the trace is a protocol
/// artifact, so two runs of `report --trace` emit identical bytes.
pub const TRACE_SEED: u64 = 1996;

/// Everything the traced E2 run produces.
pub struct TracedRun {
    /// Per-(round, phase) cost-breakdown table.
    pub table: Table,
    /// The Chrome trace-event JSON export.
    pub chrome_json: String,
    /// The merged logical trace.
    pub trace: Trace,
}

/// Run the traced E2 smoke (Batch-VSS verification of `m` sharings at
/// n = 7, t = 2) and reconcile the trace against the cost ledger.
///
/// # Errors
///
/// Returns a description of the first reconciliation failure: a party
/// whose span deltas do not sum to its ledger entry, communication
/// totals that disagree, or Chrome events whose spans do not balance.
pub fn traced_e2(m: usize) -> Result<TracedRun, String> {
    let (n, t) = (7, 2);
    let res = StepRunner::new(n, TRACE_SEED)
        .with_trace(TraceConfig::full())
        .run(e2::fleet_over::<F32>(n, t, m, TRACE_SEED));
    let trace = res.trace.clone().ok_or("traced run recorded no trace")?;

    // Per-(party, round, phase) deltas sum back to exactly the
    // executor's cost ledger — all eight counters.
    let per_party = trace.per_party_cost(n);
    for (traced, ledger) in per_party.iter().zip(res.report.per_party.iter()) {
        if traced != &ledger.cost {
            return Err(format!(
                "party {} trace cost {traced:?} != ledger {:?}",
                ledger.party, ledger.cost
            ));
        }
    }
    let total = trace.total_cost();
    if total != res.report.total() {
        return Err(format!("trace total {total:?} != ledger total {:?}", res.report.total()));
    }
    if (total.messages, total.bytes) != (res.report.comm.messages, res.report.comm.bytes) {
        return Err("trace communication totals disagree with the comm ledger".into());
    }

    let mut table = Table::new(
        &format!("E2 traced: Batch-VSS of M={m}, n={n} t={t}, cost per (round, phase)"),
        &["parties", "adds", "muls", "interp", "msgs", "bytes"],
    );
    for rp in trace.round_phase_costs() {
        table.row(
            &format!("r{} {}", rp.round, rp.phase),
            &[
                rp.parties.to_string(),
                rp.cost.field_adds.to_string(),
                rp.cost.field_muls.to_string(),
                rp.cost.interpolations.to_string(),
                rp.cost.messages.to_string(),
                rp.cost.bytes.to_string(),
            ],
        );
    }

    validate_chrome_events(&chrome_events(&trace))?;
    let chrome_json = to_chrome_json(&trace);
    Ok(TracedRun { table, chrome_json, trace })
}

/// Drive the whole `--trace` report: print the per-round table, write the
/// Chrome JSON to `path`, and print one verdict line per check.
/// Exits non-zero on any failure.
pub fn run_traced_report(path: &str, quick: bool) {
    let m = if quick { 16 } else { 64 };
    let run = traced_e2(m).unwrap_or_else(|e| {
        eprintln!("traced E2 failed: {e}");
        std::process::exit(1);
    });
    println!("{}", run.table.render());
    println!(
        "trace totals reconcile with the cost ledger ({} events, {} spans)",
        run.trace.len(),
        run.trace.round_phase_costs().iter().map(|rp| rp.parties).sum::<usize>()
    );
    if let Err(e) = std::fs::write(path, &run.chrome_json) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    }
    println!(
        "chrome trace export OK ({} bytes; ts monotone, spans balanced per party)",
        run.chrome_json.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_e2_reconciles_and_validates() {
        let run = traced_e2(8).expect("traced E2 must reconcile");
        assert!(!run.trace.events.is_empty());
        assert!(run.chrome_json.starts_with("{\"traceEvents\":["));
        // The table names at least the challenge and judge phases.
        let rendered = run.table.render();
        assert!(rendered.contains("batch-vss/challenge"), "{rendered}");
        assert!(rendered.contains("batch-vss/judge"), "{rendered}");
    }

    #[test]
    fn traced_e2_is_deterministic() {
        let a = traced_e2(8).unwrap();
        let b = traced_e2(8).unwrap();
        assert_eq!(a.chrome_json, b.chrome_json, "same seed, same bytes");
    }
}
