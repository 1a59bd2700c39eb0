#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::todo, clippy::unimplemented, clippy::allow_attributes_without_reason)]

//! # `dprbg-core` — Distributed Pseudo-Random Bit Generators
//!
//! The primary contribution of Bellare, Garay and Rabin, *"Distributed
//! Pseudo-Random Bit Generators — A New Way to Speed-Up Shared Coin
//! Tossing"* (PODC 1996), implemented in full:
//!
//! | Paper artifact | Module |
//! |---|---|
//! | Protocol VSS (Fig. 2) = Fig. 3 at `M = 1` | [`vss()`] in [`mod@vss`] |
//! | VSS dispute resolution (§3.1's "two rounds of broadcast") | [`vss_dispute`] |
//! | Protocol Batch-VSS (Fig. 3); verify-only from held shares; `Batch-VSS(l)` | [`batch_vss()`]; [`batch_vss_verify`]; [`Acceptance::Subset`] in [`mod@batch_vss`] |
//! | Protocol Bit-Gen (Fig. 4) | [`BitGenMachine::new`] in [`mod@bit_gen`] |
//! | The one sharing-check machine Figs. 2–4 construct, and its judge | [`BitGenMachine`], [`judge`] |
//! | Protocol Coin-Gen (Fig. 5) | [`mod@coin_gen`] |
//! | Protocol Coin-Expose (Fig. 6), one coin or a batch | [`coin`] |
//! | The D-PRBG abstraction (§1.1) | [`CoinGenMachine`] + [`Bootstrap`] |
//! | Bootstrapping (Fig. 1, §1.2) | [`bootstrap`] |
//! | Proactive share refresh (§1.2's mobile-adversary setting) | [`refresh`] |
//! | Common-coin randomized BA (the §1.1 application) | [`app_ba`] |
//! | Committee-sampled Coin-Gen for large `n` | [`committee`] |
//! | Initial seed via the one-shot trusted dealer (§1.2) | [`dealer`] |
//!
//! A **shared (sealed) coin** is a random field element `F(0)` of a
//! degree-≤t polynomial jointly held as Shamir shares: no coalition of ≤ t
//! parties can predict or bias it, and one round of share exchange plus a
//! Berlekamp–Welch decode reveals it unanimously. A **D-PRBG** stretches a
//! small *distributed seed* of such coins into `M` fresh ones at an
//! amortized cost far below generating each from scratch; **bootstrapping**
//! reserves a few output coins as the next run's seed so the source never
//! runs dry.
//!
//! # Quick start
//!
//! Every protocol is a [`dprbg_sim::RoundMachine`]: a sans-IO state
//! machine advanced one synchronous round at a time by an executor
//! ([`dprbg_sim::StepRunner`] single-threaded, [`dprbg_sim::ParRunner`]
//! on a thread pool — bit-identical outputs).
//!
//! ```
//! use dprbg_core::{dealer::TrustedDealer, CoinGenConfig, CoinGenMachine, CoinGenMsg, Params};
//! use dprbg_field::Gf2k;
//! use dprbg_sim::{BoxedMachine, MachineExt, StepRunner};
//!
//! type F = Gf2k<32>;
//! type M = CoinGenMsg<F>;
//! let params = Params::p2p_model(7, 1).unwrap();
//! let cfg = CoinGenConfig { params, batch_size: 8 };
//! // One-time setup: a trusted dealer seeds each party's wallet (§1.2).
//! let wallets = TrustedDealer::deal_wallets::<F>(params, 4, 99);
//! // One machine per party, all driven in lock-step by the executor.
//! let fleet: Vec<BoxedMachine<M, usize>> = wallets
//!     .into_iter()
//!     .map(|w| {
//!         Box::new(
//!             CoinGenMachine::new(cfg, w)
//!                 .map(|(_, res)| res.expect("no faults injected").len()),
//!         ) as BoxedMachine<M, usize>
//!     })
//!     .collect();
//! for sealed in StepRunner::new(7, 7).run(fleet).unwrap_all() {
//!     assert_eq!(sealed, 8); // everyone sealed 8 fresh coins
//! }
//! ```

pub mod app_ba;
pub mod batch_vss;
pub mod bit_gen;
pub mod bootstrap;
pub mod coin;
pub mod coin_gen;
pub mod committee;
pub mod dealer;
pub mod degrade;
mod errors;
mod params;
pub mod refresh;
pub mod vss;
pub mod vss_dispute;

pub use app_ba::{common_coin_ba, CcbaOutcome, CcbaVote};
pub use batch_vss::{batch_vss, batch_vss_verify, horner_combine, BatchShares};
pub use bit_gen::{
    judge, Acceptance, BitGenMachine, BitGenMode, BitGenMsg, BitGenRun, DealerView,
};
pub use bootstrap::{Bootstrap, BootstrapConfig, BootstrapStats};
pub use coin::{
    decode_coin, expose_all, CoinDecoder, CoinWallet, ExposeMachine, ExposeMsg, ExposeVia,
    SealedShare,
};
pub use coin_gen::{
    CliqueAnnounce, CoinBatch, CoinGenConfig, CoinGenMachine, CoinGenMsg, CoinGenWire,
};
pub use committee::{
    committee_soundness_error, committee_threshold, elect_committee, CoinReport, CommitteeCoin,
    CommitteeError, CommitteeMsg,
};
pub use dealer::TrustedDealer;
pub use degrade::{coin_gen_with_retry, RetryPolicy, RetryReport, MIN_SEEDS_PER_ATTEMPT};
pub use errors::{CoinError, CoinGenError, ProtocolError};
pub use params::Params;
// The two sub-protocol wire types a custom `CoinGenWire` enum must embed
// that are not defined in this crate.
pub use dprbg_protocols::{BaMsg, GcMsg};
pub use refresh::{RefreshMachine, RefreshReport};
pub use vss::{vss, VssMode, VssVerdict};
pub use vss_dispute::{
    vss_dispute_or_blame, DisputeOutcome, DisputeVssMsg, VssDisputeMachine,
};
