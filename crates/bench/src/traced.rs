//! The `--trace` report path: run a fixed-seed experiment under the
//! span-recording executor, break its cost down per (round, phase),
//! reconcile the trace against the executor's own cost ledger, check the
//! Chrome events' span structure, and export them as Chrome trace-event
//! JSON for Perfetto / `chrome://tracing`.
//!
//! Two experiments back the report:
//!
//! * **E2** (Batch-VSS verification, n = 7, t = 2) supplies the
//!   per-round cost-breakdown table — small enough to print whole, rich
//!   enough to show every protocol phase;
//! * **E11** (Coin-Gen at scale) supplies the overhead check — the same
//!   run timed with tracing off and on, demonstrating that the disabled
//!   path costs nothing and the enabled path stays cheap.
//!
//! Every check prints a greppable verdict line; `scripts/verify.sh`
//! pins the export one.

use std::time::Instant;

use dprbg_core::{CoinGenConfig, CoinGenMachine, CoinGenMsg, CoinWallet, Params, TrustedDealer};
use dprbg_metrics::Table;
use dprbg_sim::{BoxedMachine, StepRunner, TraceConfig};
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

/// Time one full Coin-Gen run (the E11 point) with tracing off or on.
fn timed_coin_gen(n: usize, t: usize, m: usize, trace: Option<TraceConfig>) -> f64 {
    let params = Params::p2p_model(n, t).unwrap();
    let cfg = CoinGenConfig { params, batch_size: m };
    let mut wallets: Vec<CoinWallet<F32>> = TrustedDealer::deal_wallets(params, 4 + t, TRACE_SEED);
    let machines: Vec<BoxedMachine<CoinGenMsg<F32>, _>> = (0..n)
        .map(|_| Box::new(CoinGenMachine::new(cfg, wallets.remove(0))) as _)
        .collect();
    let mut runner = StepRunner::new(n, TRACE_SEED);
    if let Some(c) = trace {
        runner = runner.with_trace(c);
    }
    let t0 = Instant::now();
    let res = runner.run(machines);
    let dt = t0.elapsed().as_secs_f64();
    assert!(res.outputs.iter().all(Option::is_some), "coin generation must finish");
    dt
}

/// The E11 before/after overhead check: one Coin-Gen point timed with
/// tracing disabled and enabled. Returns `(untraced_s, traced_s)`.
pub fn e11_overhead(quick: bool) -> (f64, f64) {
    let (n, m) = if quick { (13, 4) } else { (31, 8) };
    let t = (n - 1) / 6;
    // Warm-up run so neither measurement pays first-touch costs.
    let _ = timed_coin_gen(n, t, m, None);
    let untraced = timed_coin_gen(n, t, m, None);
    let traced = timed_coin_gen(n, t, m, Some(TraceConfig::full()));
    (untraced, traced)
}

/// Drive the whole `--trace` report: print the per-round table, write the
/// Chrome JSON to `path`, and print one greppable verdict line per check.
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
        "chrome trace export OK: {path} ({} bytes; ts monotone, spans balanced per party)",
        run.chrome_json.len()
    );
    let (untraced, traced) = e11_overhead(quick);
    println!(
        "E11 timing: untraced {untraced:.3}s, traced {traced:.3}s ({:+.1}% overhead)",
        (traced / untraced - 1.0) * 100.0
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
