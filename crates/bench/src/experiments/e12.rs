//! E12 — empirical soundness-error rates under adaptive adversaries.
//!
//! Theorem 1 and Lemmas 1/3/5 promise that as long as at most `t`
//! parties are corrupted and the §2/§3 model holds, honest parties never
//! *disagree* — runs end in unanimous success or (under crash pressure)
//! explicit, unanimous failure. This experiment measures that promise
//! empirically: a seeded chaos campaign sweeps every attack strategy of
//! [`dprbg_sim::AdaptiveAdversary`] over Bit-Gen, Coin-Gen, Batch-VSS
//! and the proactive refresh, classifying each episode as agreed /
//! gracefully-aborted / unsound and reporting Wilson-score confidence
//! intervals on the unsound rate.
//!
//! Two legs:
//!
//! * **within model, `f ≤ t`** — every strategy the model admits. The
//!   table must show zero unsound episodes; the CI column is the
//!   statistical strength of that zero.
//! * **beyond threshold** — `f > t` crash/eclipse/chaos pressure, plus
//!   the deliberately model-breaking [`Attack::BreakBroadcast`] against
//!   a strict-mode Batch-VSS. At least one of these rows must show
//!   non-agreed outcomes: the harness can *reach* the failure verdicts,
//!   so the zeroes above are evidence, not vacuity.
//!
//! Every episode is replayable from `(master seed, strategy, schedule)`
//! alone, on either executor; the campaign runs on `StepRunner`, and
//! `chaos::tests::episodes_replay_identically_across_executors` holds
//! the pooled replay of every strategy here.

use dprbg_core::VssMode;
use dprbg_metrics::Table;
use dprbg_sim::Attack;

use super::common::ExperimentCtx;
use crate::chaos::{run_campaign, CampaignStats, Executor, Protocol, Schedule, WITHIN_MODEL};

const N: usize = 7;
const T: usize = 1;
const M: usize = 4;

fn fmt_ci((lo, hi): (f64, f64)) -> String {
    format!("[{lo:.3}, {hi:.3}]")
}

fn stats_row(table: &mut Table, label: &str, f: usize, stats: &CampaignStats) {
    table.row(
        label,
        &[
            f.to_string(),
            stats.episodes.to_string(),
            stats.agreed.to_string(),
            stats.aborted.to_string(),
            stats.unsound.to_string(),
            fmt_ci(stats.unsound_ci(1.96)),
        ],
    );
}

/// Run the campaign and render both legs.
///
/// # Panics
///
/// If a within-model strategy at `f ≤ t` produces an unsound episode, or
/// if every beyond-threshold strategy still fully agrees — either is a
/// soundness regression somewhere in the stack.
pub fn run(ctx: &ExperimentCtx) -> Vec<Table> {
    let per_cell = if ctx.quick { 2 } else { 9 };
    let mut tables = Vec::new();

    // Leg 1: within the model, f ≤ t.
    let mut within = Table::new(
        &format!(
            "E12 — soundness under adaptive adversaries, within model \
             (n={N}, t={T}, f=1, {} episodes/cell)",
            per_cell
        ),
        &["f", "episodes", "agreed", "aborted", "unsound", "unsound 95% CI"],
    );
    let mut totals = CampaignStats::default();
    for attack in WITHIN_MODEL {
        for protocol in Protocol::ALL {
            let s = Schedule::new(N, T, 1, M, attack);
            let stats =
                run_campaign(protocol, &s, per_cell, ctx.seed ^ 0xE12, Executor::Stepped);
            totals.episodes += stats.episodes;
            totals.agreed += stats.agreed;
            totals.aborted += stats.aborted;
            totals.unsound += stats.unsound;
            stats_row(
                &mut within,
                &format!("{}/{}", protocol.name(), attack.name()),
                s.f,
                &stats,
            );
        }
    }
    assert_eq!(
        totals.unsound, 0,
        "within-model adversary at f <= t produced an unsound episode"
    );
    stats_row(&mut within, "TOTAL (all strategies)", 1, &totals);
    tables.push(within);

    // Leg 2: beyond the threshold / beyond the model.
    let mut beyond = Table::new(
        &format!("E12 — beyond-threshold and beyond-model legs (n={N}, t={T})"),
        &["f", "episodes", "agreed", "aborted", "unsound", "unsound 95% CI"],
    );
    let mut non_agreed = 0;
    let overload: [(Protocol, Schedule); 4] = [
        (Protocol::CoinGen, Schedule::new(N, T, 3, M, Attack::CrashAtRound { round: 2 })),
        (Protocol::CoinGen, Schedule::new(N, T, 3, M, Attack::LeaderEclipse)),
        (
            Protocol::CoinGen,
            Schedule::new(
                N,
                T,
                3,
                M,
                Attack::RandomChaos { drop_pct: 35, delay_pct: 25, max_delay: 2 },
            ),
        ),
        (Protocol::BatchVss, {
            let mut s = Schedule::new(N, T, 1, M, Attack::BreakBroadcast);
            s.vss_mode = VssMode::Strict;
            s
        }),
    ];
    for (protocol, s) in overload {
        let stats = run_campaign(protocol, &s, per_cell, ctx.seed ^ 0xBAD, Executor::Stepped);
        non_agreed += stats.aborted + stats.unsound;
        let label = if s.attack.within_model() {
            format!("{}/{}", protocol.name(), s.attack.name())
        } else {
            format!("{}/{} (beyond model)", protocol.name(), s.attack.name())
        };
        stats_row(&mut beyond, &label, s.f, &stats);
    }
    assert!(
        non_agreed > 0,
        "beyond-threshold adversaries produced no failures — the harness detects nothing"
    );
    tables.push(beyond);
    tables
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{episode_seed, run_episode, Outcome};
    use crate::experiments::common::assert_golden;

    #[test]
    fn break_broadcast_leg_is_unsound_every_time() {
        let mut s = Schedule::new(N, T, 1, M, Attack::BreakBroadcast);
        s.vss_mode = VssMode::Strict;
        for i in 0..3u64 {
            let ep = run_episode(
                Protocol::BatchVss,
                &s,
                episode_seed(0xB0B, i),
                Executor::Stepped,
            );
            assert_eq!(ep.outcome, Outcome::Unsound);
        }
    }

    #[test]
    fn e12_quick_runs_and_holds_its_invariants() {
        // `run` itself asserts the zero-unsound and failure-reachable
        // invariants; rendering exercises the table plumbing.
        let tables = run(&ExperimentCtx::new(true));
        assert_eq!(tables.len(), 2);
        for t in &tables {
            assert!(t.render().contains("E12"));
        }
        assert_golden(&tables);
    }
}
