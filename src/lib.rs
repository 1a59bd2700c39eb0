#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # dprbg — Distributed Pseudo-Random Bit Generators
//!
//! A complete Rust implementation of Bellare, Garay and Rabin,
//! *"Distributed Pseudo-Random Bit Generators — A New Way to Speed-Up
//! Shared Coin Tossing"* (PODC 1996): batch verifiable secret sharing,
//! the Coin-Gen protocol, and the bootstrapping coin reservoir, together
//! with the synchronous-network simulator, finite-field/polynomial
//! substrates, and the baseline protocols the paper compares against.
//!
//! This umbrella crate re-exports the whole workspace under one name;
//! the subsystems are:
//!
//! | Re-export | Crate | Contents |
//! |---|---|---|
//! | [`core`] | `dprbg-core` | VSS, Batch-VSS, Bit-Gen, Coin-Gen, Coin-Expose, D-PRBG, bootstrapping |
//! | [`beacon`] | `dprbg-beacon` | crash-recoverable epoch-pipelined beacon service (reservoir, supervisor, snapshot/restore) |
//! | [`field`] | `dprbg-field` | GF(2^k), prime fields, the DFT field GF(q^l) |
//! | [`poly`] | `dprbg-poly` | polynomials, Lagrange, Berlekamp–Welch, Shamir |
//! | [`sim`] | `dprbg-sim` | sans-IO round machines, the deterministic executors, the adversary framework |
//! | [`protocols`] | `dprbg-protocols` | grade-cast, phase-king BA, clique approximation |
//! | [`baselines`] | `dprbg-baselines` | CCD cut-and-choose, Feldman VSS, from-scratch coin |
//! | [`metrics`] | `dprbg-metrics` | the paper's cost model (additions / messages / bits / rounds), the health registry, the binary codec |
//! | [`trace`] | `dprbg-trace` | deterministic span/event views of the cost counters + Chrome-trace export |
//!
//! # Example
//!
//! Seed seven parties once, then run the full Coin-Gen pipeline as a
//! fleet of sans-IO round machines on the deterministic stepped
//! executor (see `examples/` for full programs, including the
//! bootstrapped beacon):
//!
//! ```
//! use dprbg::core::{CoinGenConfig, CoinGenMachine, CoinGenMsg, Params, TrustedDealer};
//! use dprbg::field::Gf2k;
//! use dprbg::sim::{BoxedMachine, MachineExt, StepRunner};
//!
//! type F = Gf2k<32>;
//! type M = CoinGenMsg<F>;
//!
//! let params = Params::p2p_model(7, 1).unwrap();
//! let cfg = CoinGenConfig { params, batch_size: 8 };
//! let mut wallets = TrustedDealer::deal_wallets::<F>(params, 6, 42);
//! // One machine per party; the executor carries the messages.
//! let machines: Vec<BoxedMachine<M, usize>> = (0..7)
//!     .map(|_| {
//!         let m = CoinGenMachine::new(cfg, wallets.remove(0))
//!             .map(|(_wallet, res)| res.expect("no faults injected").shares.len());
//!         Box::new(m) as BoxedMachine<M, usize>
//!     })
//!     .collect();
//! let outs = StepRunner::new(7, 1).run(machines).unwrap_all();
//! assert!(outs.iter().all(|&sealed| sealed == 8), "every party sealed the batch");
//! ```

pub use dprbg_baselines as baselines;
pub use dprbg_beacon as beacon;
pub use dprbg_core as core;
pub use dprbg_field as field;
pub use dprbg_metrics as metrics;
pub use dprbg_poly as poly;
pub use dprbg_protocols as protocols;
pub use dprbg_sim as sim;
pub use dprbg_trace as trace;
