#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::todo, clippy::unimplemented, clippy::allow_attributes_without_reason)]

//! A crash-recoverable, epoch-pipelined randomness-beacon service.
//!
//! The paper's bottom line (§1.2, Fig. 1) is an *amortized* cost story:
//! a distributed seed is stretched into a long public stream of shared
//! coins, with occasional expensive Coin-Gen runs paying for many cheap
//! Coin-Expose draws. This crate turns that story into a long-running
//! **service** with the operational properties a real deployment needs:
//!
//! * **Epoch pipelining** ([`EpochMachine`]): each epoch overlaps
//!   next-seed generation (Coin-Gen under a retry budget) with
//!   current-seed stretching (a batch of Coin-Exposes), multiplexed over
//!   one [`BeaconMsg`] wire — the epoch costs `max` of the two planes'
//!   rounds instead of their sum.
//! * **Explicit backpressure** ([`Reservoir`]): exposed coins flow
//!   through a bounded reservoir; draws that cannot be met yield
//!   [`DrawOutcome::WouldBlock`] (retry next epoch) or
//!   [`DrawOutcome::Starved`] (seed exhausted for good), with
//!   round-robin fairness across consumers.
//! * **Failure policy** ([`Supervisor`]): every
//!   [`ProtocolError`](dprbg_core::ProtocolError) becomes a decision —
//!   bounded retry inside the epoch, exponential epoch backoff across
//!   epochs, blame recording for proven aborts, and read-only
//!   degradation once the wallet cannot fund another attempt.
//! * **Crash recovery** ([`BeaconService::snapshot`] /
//!   [`BeaconService::restore`]): all cross-epoch state is plain data in
//!   a versioned, checksummed binary format; a service killed at any
//!   epoch boundary and restored continues **byte-identically** to one
//!   that never died, under either executor (property-tested).
//! * **Health telemetry** ([`BeaconService::health`] /
//!   [`FlightRecorder`]): every epoch folds into a deterministic metric
//!   [`Registry`](dprbg_metrics::Registry) (mode transitions, backoff
//!   depth, reservoir occupancy, draw outcomes, refill attempts) and a
//!   bounded flight recorder of per-epoch [`HealthRecord`]s — both ride
//!   inside the snapshot, and the rollback path renders them as a
//!   forensic dump.
//!
//! The fault-injection schedules the soak tests drive this with —
//! composite mid-episode strategy switches, crash/stampede/adversary
//! epoch plans — live in [`dprbg_sim`] ([`ScheduledAdversary`],
//! [`SoakPlan`](dprbg_sim::SoakPlan)).
//!
//! [`ScheduledAdversary`]: dprbg_sim::ScheduledAdversary

mod epoch;
mod health;
mod reservoir;
mod service;
mod snapshot;
mod supervisor;

pub use epoch::{BeaconMsg, EpochMachine, EpochOutcome, RefillReport};
pub use health::{EpochOutcomeTag, FlightRecorder, HealthRecord, RefillStatus};
pub use reservoir::{DrawOutcome, Reservoir, ReservoirConfig};
pub use service::{
    epoch_seed, BeaconConfig, BeaconError, BeaconService, BeaconStats, EpochReport, ExecutorKind,
    FLIGHT_RECORDER_EPOCHS,
};
pub use snapshot::SnapshotError;
pub use supervisor::{EpochDecision, Mode, Supervisor};

pub use dprbg_core::CoinError;
