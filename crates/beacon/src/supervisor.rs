//! The epoch supervisor: every [`ProtocolError`] becomes a policy
//! decision.
//!
//! The retry machinery inside an epoch
//! ([`coin_gen_with_retry`](dprbg_core::coin_gen_with_retry)) bounds how
//! much seed a *single* refill may burn; the supervisor bounds what the
//! *service* does across epochs when refills keep failing. Failures are
//! never swallowed: each one either schedules an exponential epoch
//! backoff (transient — a Byzantine leader streak, a failed expose),
//! records blame (an [`ProtocolError::Aborted`] names the parties whose
//! equivocation was proven), or — when the wallet can no longer cover
//! even the cheapest Coin-Gen attempt — degrades the beacon to
//! read-only, where it serves whatever stock remains and answers
//! further demand with [`DrawOutcome::Starved`](crate::DrawOutcome).
//!
//! The supervisor is plain snapshotable data: restoring it resumes the
//! same policy mid-backoff.

use std::collections::BTreeSet;

use dprbg_core::{ProtocolError, MIN_SEEDS_PER_ATTEMPT};

/// The supervisor's standing mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Healthy: run the epoch pipeline normally.
    Active,
    /// Cooling down after failures: skip protocol epochs until
    /// `until_epoch`, serving from stock only.
    Backoff {
        /// First epoch allowed to run the protocol again.
        until_epoch: u64,
    },
    /// Seed exhausted: no refill can ever succeed. Serve remaining stock,
    /// then starve.
    ReadOnly,
}

impl Mode {
    /// Stable lowercase label, used as a metric label value and in
    /// forensic dumps.
    pub fn label(&self) -> &'static str {
        match self {
            Mode::Active => "active",
            Mode::Backoff { .. } => "backoff",
            Mode::ReadOnly => "read_only",
        }
    }
}

/// What the supervisor tells the service to do with one epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochDecision {
    /// Run the epoch pipeline (serve + refill as needed).
    Run,
    /// Skip the protocol this epoch (backoff); serve from stock only.
    Skip,
    /// Read-only: serve from stock, starve unmet demand, never refill.
    ReadOnly,
}

/// Cross-epoch failure policy: bounded blame ledger, exponential
/// backoff, and read-only degradation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Supervisor {
    mode: Mode,
    /// Consecutive failed protocol epochs (reset on success).
    failures: u32,
    /// Cap on the backoff exponent: the longest backoff is
    /// `2^max_exp` epochs.
    max_exp: u32,
    /// Parties named by `Aborted { blame }` errors, accumulated.
    blamed: BTreeSet<usize>,
}

impl Supervisor {
    /// A healthy supervisor whose longest backoff is `2^max_exp` epochs.
    /// The exponent is clamped to 63 — a longer backoff than `2^63`
    /// epochs is indistinguishable from forever, and the clamp keeps the
    /// cooldown shift within `u64`.
    pub fn new(max_exp: u32) -> Self {
        Supervisor { mode: Mode::Active, failures: 0, max_exp: max_exp.min(63), blamed: BTreeSet::new() }
    }

    /// Current mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Consecutive failed protocol epochs.
    pub fn failures(&self) -> u32 {
        self.failures
    }

    /// Parties blamed by abort errors so far.
    pub fn blamed(&self) -> &BTreeSet<usize> {
        &self.blamed
    }

    /// The backoff exponent the current failure streak earns: the next
    /// cooldown would be `2^backoff_exp` epochs (0 while healthy).
    pub fn backoff_exp(&self) -> u32 {
        self.failures.saturating_sub(1).min(self.max_exp)
    }

    /// Decide what epoch `epoch` does. Leaving backoff is decided here:
    /// once the cooldown expires the supervisor re-arms to [`Mode::Active`]
    /// and lets the epoch run (the failure count stays, so the *next*
    /// failure backs off longer).
    pub fn decide(&mut self, epoch: u64) -> EpochDecision {
        match self.mode {
            Mode::ReadOnly => EpochDecision::ReadOnly,
            Mode::Backoff { until_epoch } if epoch < until_epoch => EpochDecision::Skip,
            Mode::Backoff { .. } => {
                self.mode = Mode::Active;
                EpochDecision::Run
            }
            Mode::Active => EpochDecision::Run,
        }
    }

    /// A protocol epoch succeeded: clear the failure streak.
    pub fn on_success(&mut self) {
        self.failures = 0;
        self.mode = Mode::Active;
    }

    /// A protocol epoch failed at `epoch` with `err`, leaving
    /// `wallet_level` sealed coins.
    ///
    /// Blame from [`ProtocolError::Aborted`] is recorded; a wallet that
    /// can no longer cover [`MIN_SEEDS_PER_ATTEMPT`] degrades the beacon
    /// to read-only; anything else schedules an exponential backoff of
    /// `2^min(failures − 1, max_exp)` epochs.
    pub fn on_failure(&mut self, epoch: u64, err: &ProtocolError, wallet_level: usize) {
        if let ProtocolError::Aborted { blame, .. } = err {
            self.blamed.extend(blame.iter().copied());
        }
        if wallet_level < MIN_SEEDS_PER_ATTEMPT {
            self.mode = Mode::ReadOnly;
            return;
        }
        self.failures = self.failures.saturating_add(1);
        let exp = (self.failures - 1).min(self.max_exp);
        let cooldown = 1u64.checked_shl(exp).unwrap_or(u64::MAX);
        self.mode =
            Mode::Backoff { until_epoch: epoch.saturating_add(1).saturating_add(cooldown) };
    }

    /// Tear into snapshotable parts `(mode, failures, max_exp, blamed)`.
    pub(crate) fn parts(&self) -> (Mode, u32, u32, &BTreeSet<usize>) {
        (self.mode, self.failures, self.max_exp, &self.blamed)
    }

    /// Rebuild from snapshot parts. `max_exp` is clamped exactly as in
    /// [`Supervisor::new`], so a crafted snapshot cannot smuggle in an
    /// exponent that would overflow the cooldown shift.
    pub(crate) fn from_parts(
        mode: Mode,
        failures: u32,
        max_exp: u32,
        blamed: BTreeSet<usize>,
    ) -> Self {
        Supervisor { mode, failures, max_exp: max_exp.min(63), blamed }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_then_caps() {
        let mut s = Supervisor::new(3);
        let err = ProtocolError::NoAgreement { attempts: 4 };
        let mut epoch = 0u64;
        let mut gaps = Vec::new();
        for _ in 0..6 {
            assert_eq!(s.decide(epoch), EpochDecision::Run);
            s.on_failure(epoch, &err, 10);
            let Mode::Backoff { until_epoch } = s.mode() else { panic!("expected backoff") };
            gaps.push(until_epoch - epoch - 1);
            // Skip through the cooldown.
            while s.decide(epoch + 1) == EpochDecision::Skip {
                epoch += 1;
            }
            epoch += 1;
        }
        assert_eq!(gaps, vec![1, 2, 4, 8, 8, 8], "exponential then capped at 2^3");
    }

    #[test]
    fn success_resets_the_streak() {
        let mut s = Supervisor::new(4);
        let err = ProtocolError::SeedExhausted;
        s.on_failure(0, &err, 10);
        s.on_failure(3, &err, 10);
        assert_eq!(s.failures(), 2);
        s.on_success();
        assert_eq!(s.failures(), 0);
        assert_eq!(s.mode(), Mode::Active);
        // Next failure starts the ladder over.
        s.on_failure(9, &err, 10);
        assert_eq!(s.mode(), Mode::Backoff { until_epoch: 11 });
    }

    #[test]
    fn seed_exhaustion_degrades_to_read_only() {
        let mut s = Supervisor::new(4);
        s.on_failure(5, &ProtocolError::SeedExhausted, MIN_SEEDS_PER_ATTEMPT - 1);
        assert_eq!(s.mode(), Mode::ReadOnly);
        assert_eq!(s.decide(6), EpochDecision::ReadOnly);
        // Read-only is terminal: successes cannot happen, failures keep it.
        assert_eq!(s.decide(100), EpochDecision::ReadOnly);
    }

    #[test]
    fn abort_blame_accumulates() {
        let mut s = Supervisor::new(2);
        s.on_failure(0, &ProtocolError::Aborted { blame: vec![3, 5], reason: "equivocation" }, 8);
        s.on_failure(4, &ProtocolError::Aborted { blame: vec![5, 6], reason: "equivocation" }, 8);
        assert_eq!(s.blamed().iter().copied().collect::<Vec<_>>(), vec![3, 5, 6]);
    }

    #[test]
    fn oversized_backoff_exponent_never_overflows() {
        // REVIEW regression: a configured exponent ≥ 64 must clamp, not
        // panic (debug) or wrap to a near-zero cooldown (release) once
        // the failure streak outruns the shift width.
        let mut s = Supervisor::new(u32::MAX);
        let err = ProtocolError::SeedExhausted;
        for e in 0..70u64 {
            s.on_failure(e, &err, 10);
        }
        let Mode::Backoff { until_epoch } = s.mode() else { panic!("expected backoff") };
        assert!(until_epoch - 70 >= 1u64 << 63, "cooldown collapsed: {until_epoch}");
        // The clamp survives a snapshot round-trip with a crafted exponent.
        let (mode, failures, _, blamed) = s.parts();
        let restored = Supervisor::from_parts(mode, failures, u32::MAX, blamed.clone());
        assert_eq!(restored.parts().2, 63);
    }

    #[test]
    fn parts_round_trip() {
        let mut s = Supervisor::new(3);
        s.on_failure(2, &ProtocolError::Aborted { blame: vec![1], reason: "x" }, 9);
        let (mode, failures, max_exp, blamed) = s.parts();
        assert_eq!(s, Supervisor::from_parts(mode, failures, max_exp, blamed.clone()));
    }
}
