//! The beacon's flight recorder: bounded per-epoch health history.
//!
//! The health [`Registry`](dprbg_metrics::Registry) answers "how much,
//! in total" — the flight recorder answers "what just happened": a ring
//! buffer of the last [`HealthRecord`]s, one per driven epoch, serialized
//! inside the versioned snapshot so a restored service carries the same
//! recent history as one that never died. On the abort/rollback paths the
//! service renders it as a forensic report, so the evidence of *how* a
//! beacon got into trouble survives the trouble itself.
//!
//! Everything here is keyed on logical time (epoch numbers) only, like
//! the rest of the health plane.

use std::collections::VecDeque;

use dprbg_metrics::Table;

use crate::supervisor::Mode;

/// How one driven epoch ended, from the service's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochOutcomeTag {
    /// The epoch ran (or had nothing to run) and its effects committed.
    Committed,
    /// The supervisor skipped the protocol (backoff cooldown).
    Skipped,
    /// The fleet ran but diverged; wallets were rolled back.
    RolledBack,
    /// Read-only mode: served from stock, starved unmet demand.
    Degraded,
}

impl EpochOutcomeTag {
    /// Stable lowercase label, used as a metric label value.
    pub fn label(&self) -> &'static str {
        match self {
            EpochOutcomeTag::Committed => "committed",
            EpochOutcomeTag::Skipped => "skipped",
            EpochOutcomeTag::RolledBack => "rolled_back",
            EpochOutcomeTag::Degraded => "degraded",
        }
    }
}

/// What the gen plane did this epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefillStatus {
    /// No refill was scheduled.
    NotScheduled,
    /// The refill succeeded.
    Ok,
    /// The refill failed (the error went to the supervisor).
    Failed,
}

impl RefillStatus {
    /// Stable short label for dashboards and forensic dumps.
    pub fn label(&self) -> &'static str {
        match self {
            RefillStatus::NotScheduled => "-",
            RefillStatus::Ok => "ok",
            RefillStatus::Failed => "failed",
        }
    }
}

/// One epoch's health, as the flight recorder remembers it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthRecord {
    /// The epoch this record describes.
    pub epoch: u64,
    /// How the epoch ended.
    pub outcome: EpochOutcomeTag,
    /// Supervisor mode after the epoch.
    pub mode: Mode,
    /// Protocol rounds the epoch took (0 when skipped).
    pub rounds: u64,
    /// Coins exposed and admitted this epoch.
    pub exposed: u32,
    /// Draws answered with a coin.
    pub served: u32,
    /// Draws answered `WouldBlock`.
    pub would_block: u32,
    /// Draws answered `Starved`.
    pub starved: u32,
    /// Sealed coins left in the wallets after the epoch.
    pub wallet_level: u32,
    /// Exposed coins banked in the reservoir after the epoch.
    pub reservoir_level: u32,
    /// Supervisor's consecutive-failure streak after the epoch.
    pub failures: u32,
    /// Supervisor's current backoff exponent after the epoch.
    pub backoff_exp: u32,
    /// What the gen plane did.
    pub refill: RefillStatus,
    /// Coin-Gen runs the refill made (0 unless `refill` is `Ok`).
    pub refill_attempts: u32,
}

/// A bounded ring of the most recent [`HealthRecord`]s.
///
/// The capacity is a service constant, *not* serialized — only the
/// records and the lifetime total are, so the snapshot ABI does not
/// change when the ring is resized across builds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightRecorder {
    records: VecDeque<HealthRecord>,
    capacity: usize,
    total: u64,
}

impl FlightRecorder {
    /// An empty recorder keeping at most `capacity` records (min 1).
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            records: VecDeque::new(),
            capacity: capacity.max(1),
            total: 0,
        }
    }

    /// Append one epoch's record, evicting the oldest past capacity.
    pub fn push(&mut self, rec: HealthRecord) {
        if self.records.len() == self.capacity {
            self.records.pop_front();
        }
        self.records.push_back(rec);
        self.total += 1;
    }

    /// Records currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no epoch has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records ever pushed over the service's lifetime.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The ring's capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &HealthRecord> {
        self.records.iter()
    }

    /// Tear into snapshotable parts `(records oldest-first, total)`.
    pub(crate) fn parts(&self) -> (Vec<HealthRecord>, u64) {
        (self.records.iter().copied().collect(), self.total)
    }

    /// Rebuild from snapshot parts; if a foreign snapshot holds more
    /// records than `capacity`, the oldest are dropped — exactly what a
    /// live ring of that capacity would have kept.
    pub(crate) fn from_parts(capacity: usize, records: Vec<HealthRecord>, total: u64) -> Self {
        let capacity = capacity.max(1);
        let skip = records.len().saturating_sub(capacity);
        FlightRecorder {
            records: records.into_iter().skip(skip).collect(),
            capacity,
            total,
        }
    }

    /// Render the ring as a forensic report table headed by `reason`.
    pub fn render(&self, reason: &str) -> String {
        let title = format!(
            "beacon forensic dump ({reason}) — last {} of {} epochs",
            self.len(),
            self.total()
        );
        let mut t = Table::new(
            &title,
            &[
                "outcome", "mode", "rounds", "exposed", "served", "block", "starve", "wallet",
                "stock", "fail", "exp", "refill",
            ],
        );
        for rec in &self.records {
            t.row(
                &format!("e{}", rec.epoch),
                &[
                    rec.outcome.label().into(),
                    rec.mode.label().into(),
                    rec.rounds.to_string(),
                    rec.exposed.to_string(),
                    rec.served.to_string(),
                    rec.would_block.to_string(),
                    rec.starved.to_string(),
                    rec.wallet_level.to_string(),
                    rec.reservoir_level.to_string(),
                    rec.failures.to_string(),
                    rec.backoff_exp.to_string(),
                    rec.refill.label().into(),
                ],
            );
        }
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(epoch: u64) -> HealthRecord {
        HealthRecord {
            epoch,
            outcome: EpochOutcomeTag::Committed,
            mode: Mode::Active,
            rounds: 4,
            exposed: 2,
            served: 2,
            would_block: 0,
            starved: 0,
            wallet_level: 9,
            reservoir_level: 3,
            failures: 0,
            backoff_exp: 0,
            refill: RefillStatus::NotScheduled,
            refill_attempts: 0,
        }
    }

    #[test]
    fn ring_evicts_oldest_and_keeps_lifetime_total() {
        let mut fr = FlightRecorder::new(4);
        for e in 0..10 {
            fr.push(rec(e));
        }
        assert_eq!(fr.len(), 4);
        assert_eq!(fr.total(), 10);
        let epochs: Vec<u64> = fr.records().map(|r| r.epoch).collect();
        assert_eq!(epochs, vec![6, 7, 8, 9]);
    }

    #[test]
    fn parts_round_trip() {
        let mut fr = FlightRecorder::new(3);
        for e in 0..5 {
            fr.push(rec(e));
        }
        let (records, total) = fr.parts();
        assert_eq!(fr, FlightRecorder::from_parts(3, records, total));
    }

    #[test]
    fn oversized_snapshot_truncates_to_a_live_ring() {
        let records: Vec<HealthRecord> = (0..8).map(rec).collect();
        let fr = FlightRecorder::from_parts(4, records, 8);
        assert_eq!(fr.len(), 4);
        assert_eq!(fr.records().next().unwrap().epoch, 4);
    }

    #[test]
    fn render_names_every_epoch_and_the_reason() {
        let mut fr = FlightRecorder::new(8);
        let mut bad = rec(2);
        bad.outcome = EpochOutcomeTag::RolledBack;
        fr.push(rec(1));
        fr.push(bad);
        let s = fr.render("epoch diverged");
        assert!(s.contains("epoch diverged"));
        assert!(s.contains("e1"));
        assert!(s.contains("e2"));
        assert!(s.contains("rolled_back"));
        assert!(s.contains("last 2 of 2 epochs"));
    }
}
