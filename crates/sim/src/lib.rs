#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

//! A synchronous multi-party network simulator.
//!
//! Implements the paper's model (§2): "a synchronous network of n players
//! P_1, …, P_n (probabilistic polynomial-time machines with a source of
//! perfectly random bits), which communicate by sending messages. We assume
//! that private channels are available between the players."
//!
//! Protocol logic is written transport-free as a [`RoundMachine`]: a state
//! machine whose [`round`](RoundMachine::round) method maps an [`Inbox`]
//! view to an [`Outbox`] of sends (or a final output). The machine never
//! touches a thread or socket; lock-step synchrony, delivery, and cost
//! accounting are executor concerns. One round loop drives machine fleets,
//! under two interchangeable stepping strategies:
//!
//! * [`StepRunner`] calls every live party's `round` in id order on the
//!   calling thread — no threads, no locks — making big-n sweeps cheap;
//! * [`ParRunner`] steps the independent parties of each round
//!   concurrently on a thread pool, for wall-clock speed at big n.
//!
//! Sequence numbering, RNG derivation, cost accounting, and the merge of
//! outboxes in id order at round boundaries belong to the loop, not the
//! strategy, so the same seed yields byte-identical transcripts and
//! identical cost reports under either. A message sent in round `r` is
//! delivered at the start of round `r + 1`, exactly once, to exactly its
//! addressee, sorted by (sender, send order). Communication is charged to
//! the [`dprbg_metrics::comm`] counters using [`WireSize`]: one unicast =
//! one message of the payload's size; one ideal-channel broadcast = one
//! message (matching the paper's counting, e.g. "2n messages, each of
//! size k" in Lemma 2). Each in-flight copy also passes a **message hop**
//! where an optional [`MsgTap`] adversary can drop, delay, or tamper per
//! message ([`StepRunner::with_tap`], [`ParRunner::with_tap`]).
//!
//! # Examples
//!
//! ```
//! use dprbg_sim::{from_fn, BoxedMachine, RoundView, Step, StepRunner};
//!
//! // Three parties each send their id to everyone and sum what they hear.
//! let fleet: Vec<BoxedMachine<u64, u64>> = (1..=3)
//!     .map(|_| {
//!         Box::new(from_fn(|view: RoundView<'_, u64>| {
//!             if view.round == 0 {
//!                 let mut out = view.outbox();
//!                 out.send_to_all(view.id as u64);
//!                 Step::Continue(out)
//!             } else {
//!                 Step::Done(view.inbox.iter().map(|r| *r.msg()).sum::<u64>())
//!             }
//!         })) as BoxedMachine<u64, u64>
//!     })
//!     .collect();
//! let result = StepRunner::new(3, 42).run(fleet);
//! assert_eq!(result.outputs, vec![Some(6), Some(6), Some(6)]);
//! ```
//!
//! # Composition
//!
//! Machines compose without touching an executor: [`MachineExt::then`]
//! chains a successor onto a finished machine, [`MachineExt::map`]
//! transforms outputs, [`looping`] threads state through a data-dependent
//! sequence of machines (retry loops, beacons), [`Subnet`] runs a
//! sub-protocol inside a committee of `c ≪ n` parties at `O(c²)` cost,
//! and [`Embeds`] multiplexes several sub-protocols' messages over one
//! wire enum.

mod adversary;
mod chaos;
mod embed;
mod machine;
mod par;
mod router;
mod runner;
mod step;

pub use adversary::{FaultPlan, MsgFate, MsgHop, MsgTap};
pub use chaos::{
    AdaptiveAdversary, Attack, CorruptionHandle, EpochFault, ScheduledAdversary, SoakPlan,
};
pub use embed::Embeds;
pub use machine::{
    from_fn, looping, ready, silent, BoxedMachine, Chain, FlushStats, FromFn, Loop, LoopControl,
    MachineExt, Map, Outbox, Ready, RoundMachine, RoundView, RunResult, Step, Subnet,
};
pub use par::ParRunner;
pub use router::{Inbox, PartyId, Received, RoundProfile, SlotTable};
pub use step::StepRunner;

pub use dprbg_metrics::WireSize;
pub use dprbg_trace::{Trace, TraceConfig, TraceMode};
