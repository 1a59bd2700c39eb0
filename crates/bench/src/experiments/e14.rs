//! E14 — committee-sampled Coin-Gen at `n` in the low hundreds.
//!
//! The full Fig. 5 pipeline is all-to-all: at `n` in the hundreds its
//! message complexity (and the clique/grade-cast/BA layers) make direct
//! execution impractical. Here a committee of size `c ≪ n` — elected
//! from a prior beacon output, self-referential exactly like the §5
//! bootstrap — runs Coin-Gen among themselves and broadcasts the coin
//! batch outward; outsiders accept once `t_c + 1` distinct members
//! report the identical batch ([`CommitteeCoin`]).
//!
//! Soundness becomes statistical in the election: the committee is a
//! hypergeometric sample of the `n` parties, and the committee's own
//! `t_c = ⌊(c−1)/6⌋` tolerance is exceeded only if more than `t_c` of
//! the `c` seats land on corrupted parties. The table reports that tail
//! probability ([`committee_soundness_error`], at the global p2p-model
//! budget `f = ⌊(n−1)/6⌋`) next to the empirical quorum success rate
//! with its Wilson 95% CI, plus the usual per-player cost columns.
//!
//! Elections chain: each trial's committee is seeded from the previous
//! trial's first delivered coin, mirroring how a deployed beacon would
//! re-elect from its own output stream.
//!
//! Trials run on [`StepRunner`]; `tests/executors.rs`
//! (`committee_coin_gen_agrees_across_executors`) holds the pooled
//! executor to the same outputs and cost report on this table's
//! `(n, c) = (129, 31)` row.

use std::mem;

use dprbg_core::{
    committee_soundness_error, committee_threshold, elect_committee, CoinGenConfig,
    CommitteeCoin, CommitteeError, CommitteeMsg, Params, TrustedDealer,
};
use dprbg_field::Field;
use dprbg_metrics::{CostReport, Table};
use dprbg_sim::{BoxedMachine, PartyId, StepRunner};

use super::common::{ExperimentCtx, PlayerCost, F32};
use crate::chaos::wilson_interval;

type Out = Result<Vec<F32>, CommitteeError>;

/// Round backstop for the outsiders' collect stage (a healthy committee
/// finishes far earlier).
const DEADLINE: u64 = 400;

/// A full fleet for one committee run: members with rank-dealt wallets,
/// outsiders idle-collecting.
fn fleet(
    n: usize,
    committee: &[PartyId],
    cfg: CoinGenConfig,
    wallet_seed: u64,
) -> Vec<BoxedMachine<CommitteeMsg<F32>, Out>> {
    let mut wallets =
        TrustedDealer::deal_wallets::<F32>(cfg.params, 4 + cfg.params.t, wallet_seed);
    (1..=n)
        .map(|id| {
            let wallet = committee
                .iter()
                .position(|&m| m == id)
                .map(|rank| mem::take(&mut wallets[rank]));
            Box::new(CommitteeCoin::new(committee.to_vec(), id, cfg, wallet, DEADLINE))
                as BoxedMachine<CommitteeMsg<F32>, _>
        })
        .collect()
}

/// One committee-sampled Coin-Gen trial at `(n, c)`.
fn run_trial(
    n: usize,
    c: usize,
    m: usize,
    election_seed: u64,
    run_seed: u64,
) -> (Vec<Option<Out>>, CostReport) {
    let committee = elect_committee(election_seed, n, c);
    let cfg = CoinGenConfig {
        params: Params::p2p_model(c, committee_threshold(c)).expect("c > 6 t_c by construction"),
        batch_size: m,
    };
    let res = StepRunner::new(n, run_seed).run(fleet(n, &committee, cfg, run_seed ^ 0xA11E7));
    (res.outputs, res.report)
}

/// Did every party (member and outsider alike) deliver the same batch?
fn unanimous(outs: &[Option<Out>]) -> Option<Vec<F32>> {
    let first = outs.first()?.as_ref()?.as_ref().ok()?.clone();
    outs.iter()
        .all(|o| matches!(o, Some(Ok(v)) if *v == first))
        .then_some(first)
}

/// Run E14 and render its table.
///
/// # Panics
///
/// If no trial of a row reaches quorum (the empirical column would be
/// meaningless).
pub fn run(ctx: &ExperimentCtx) -> Table {
    let m = if ctx.quick { 4 } else { 8 };
    let trials = if ctx.quick { 3 } else { 8 };
    let mut table = Table::new(
        &format!(
            "E14: committee-sampled Coin-Gen, batch M={m}, {trials} chained elections/row \
             (sampling soundness vs Wilson CI)"
        ),
        &["c", "t_c", "f", "sample err", "quorum", "95% CI", "msgs", "bytes", "rounds"],
    );
    for &(n, c) in ctx.sweep(&[(129usize, 31usize), (201, 31)], &[(129, 31)]) {
        let t_c = committee_threshold(c);
        let f = (n - 1) / 6;
        let eps = committee_soundness_error(n, f, c, t_c);

        let seed0 = ctx.seed ^ 0xE14 ^ n as u64;
        let mut successes = 0;
        let mut election_seed = seed0;
        let mut cost: Option<PlayerCost> = None;
        for trial in 0..trials {
            let (outs, report) = run_trial(n, c, m, election_seed, seed0 + 1 + trial as u64);
            if let Some(batch) = unanimous(&outs) {
                successes += 1;
                // Self-referential re-election: next committee from this
                // trial's first delivered coin.
                election_seed = batch[0].to_u64() ^ (election_seed.rotate_left(17));
            } else {
                election_seed = election_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
            }
            if cost.is_none() {
                cost = Some(PlayerCost::from_report(&report));
            }
        }
        assert!(successes > 0, "n={n}: no trial reached quorum");
        let (lo, hi) = wilson_interval(successes, trials, 1.96);
        let cost = cost.expect("at least one trial ran");
        table.row(
            &format!("committee n={n:<3}"),
            &[
                c.to_string(),
                t_c.to_string(),
                f.to_string(),
                format!("{eps:.2e}"),
                format!("{successes}/{trials}"),
                format!("[{lo:.3}, {hi:.3}]"),
                cost.messages.to_string(),
                cost.bytes.to_string(),
                cost.rounds.to_string(),
            ],
        );
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::common::assert_golden;

    #[test]
    fn sampling_error_shrinks_as_committee_grows() {
        // When the corruption ratio f/n sits strictly below the
        // committee's own tolerance ratio t_c/c, a larger committee is a
        // safer sample: the tail probability must shrink with c. (At a
        // matched ratio the sample mean rides the threshold and no such
        // concentration exists — that regime is what the table's
        // side-by-side ε column is for.)
        let n = 129;
        let f = n / 10;
        let small = committee_soundness_error(n, f, 7, committee_threshold(7));
        let large = committee_soundness_error(n, f, 31, committee_threshold(31));
        assert!(large < small, "c=31 gave {large}, c=7 gave {small}");
    }

    #[test]
    fn e14_renders_with_parity_and_quorum() {
        // `run` itself asserts quorum success.
        let table = run(&ExperimentCtx::new(true));
        let s = table.render();
        assert!(s.contains("committee n=129"));
        assert!(s.contains("E14"));
        assert_golden(&[table]);
    }
}
