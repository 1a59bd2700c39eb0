#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::todo, clippy::unimplemented, clippy::allow_attributes_without_reason)]

//! Distributed-computing substrate protocols for `dprbg`.
//!
//! Coin-Gen (Fig. 5 of the paper) leans on three classical components that
//! this crate implements from scratch:
//!
//! - [`GradecastMachine`] — **Grade-Cast** \[14\]: "the three level-outcome
//!   primitive … Each player outputs a value ν and a confidence value
//!   conf ∈ {0, 1, 2} indicating how certain (s)he is that the grade-cast
//!   was received by all players."
//! - [`PhaseKingMachine`] — a **deterministic Byzantine agreement** protocol
//!   ("for simplicity, we shall assume in this presentation that
//!   deterministic BA is carried out", §1.2): the two-round-per-phase
//!   phase-king protocol, correct for `n > 4t` (Coin-Gen's `n ≥ 6t + 1`
//!   comfortably satisfies it).
//! - [`approx_clique`] — **Gavril's approximation** (\[15\] p. 134):
//!   "Utilizing the protocol of Gabril, a clique can be found of size at
//!   least n − 2t" in a graph guaranteed to contain one of size `n − t`.
//!
//! [`reliable_broadcast_machine`] composes the two into the derived
//! primitive the paper motivates ("coins … execute Byzantine agreement,
//! and hence implement a broadcast channel", §4).
//!
//! Every protocol is a sans-IO [`dprbg_sim::RoundMachine`] written
//! against any wire type `M: Embeds<TheirMsg>`, so it runs standalone in
//! tests and embedded in Coin-Gen's composite wire enum, driven by
//! whichever executor the caller picks.

mod ba;
mod broadcast;
mod gradecast;
mod graph;

pub use ba::{BaMsg, PhaseKingMachine};
pub use broadcast::reliable_broadcast_machine;
pub use gradecast::{GcMsg, GradeOutput, GradecastMachine};
pub use graph::{approx_clique, DiGraph, Graph};
