//! Shared plumbing for the experiments: the standard field, the run
//! context, and cost-shaping helpers. Coins are dealt out-of-band by
//! `dprbg_core::TrustedDealer` (the dealing is not part of any measured
//! protocol, matching the paper's accounting where the k-ary coin is a
//! "Given").

use dprbg_field::Gf2k;
use dprbg_metrics::{CostReport, CostSnapshot};

/// The standard experiment field (the paper's `k = 32` working point).
pub type F32 = Gf2k<32>;

/// Experiment configuration shared by every module.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentCtx {
    /// Reduced sweeps / trial counts for fast runs.
    pub quick: bool,
    /// Master seed (all experiments are deterministic given it).
    pub seed: u64,
}

impl ExperimentCtx {
    /// The default context.
    pub fn new(quick: bool) -> Self {
        ExperimentCtx { quick, seed: 0xD12B6 }
    }

    /// Pick between the full and the quick variant of a sweep.
    pub fn sweep<'a, T: Copy>(&self, full: &'a [T], quick: &'a [T]) -> &'a [T] {
        if self.quick {
            quick
        } else {
            full
        }
    }
}

/// The paper reports **per-player** costs: the maximum over players of
/// each computation counter, paired with whole-run communication.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlayerCost {
    /// Field additions (worst player).
    pub adds: u64,
    /// Field multiplications (worst player).
    pub muls: u64,
    /// Field inversions (worst player).
    pub invs: u64,
    /// Polynomial interpolations (worst player).
    pub interps: u64,
    /// Total messages across the run.
    pub messages: u64,
    /// Total payload bytes across the run.
    pub bytes: u64,
    /// Synchronous rounds.
    pub rounds: u64,
}

impl PlayerCost {
    /// Extract the per-player shape from a run's [`CostReport`].
    pub fn from_report(report: &CostReport) -> Self {
        let mut worst = CostSnapshot::default();
        for p in &report.per_party {
            if p.cost.field_adds + p.cost.field_muls > worst.field_adds + worst.field_muls {
                worst = p.cost;
            }
        }
        PlayerCost {
            adds: worst.field_adds,
            muls: worst.field_muls,
            invs: worst.field_invs,
            interps: worst.interpolations,
            messages: report.comm.messages,
            bytes: report.comm.bytes,
            rounds: report.comm.rounds,
        }
    }

    /// Computation in the paper's "additions" unit, charging `k·log k`
    /// additions per multiplication/inversion for field bit-size `k`.
    pub fn total_adds(&self, k: u32) -> u64 {
        let mul_cost = (k as u64) * (32 - k.leading_zeros()) as u64;
        self.adds + (self.muls + self.invs) * mul_cost
    }
}

/// Format a float compactly for table cells.
pub fn fmt_f(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else if v >= 1.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}
