#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! The experiment harness: regenerates every quantitative claim of the
//! paper as a measured table.
//!
//! The paper is a protocol-design paper — its "evaluation" consists of
//! stated complexity bounds (Lemmas 1–8, Theorems 1–2, Corollaries 1–3)
//! and the §1.4 comparison against prior shared-coin and VSS protocols.
//! Each module here reproduces one of those artifacts by *running* the
//! protocols on the instrumented simulator and reporting in the paper's
//! own units: field additions/multiplications, polynomial interpolations,
//! messages, bits, rounds, and empirical error rates.
//!
//! Run everything with:
//!
//! ```text
//! cargo run -p dprbg-bench --release --bin report            # full sweeps
//! cargo run -p dprbg-bench --release --bin report -- --quick # smaller sweeps
//! cargo run -p dprbg-bench --release --bin report -- e4      # one experiment
//! ```
//!
//! Wall-clock is not measured here: the repository's one timing harness
//! is the separate `benchmark/` package (end-to-end workloads plus a
//! per-layer ledger, see its README). Every report is therefore a pure
//! function of its arguments; `tests/golden/` pins the `--quick` ones
//! byte for byte.
//!
//! | Experiment | Paper claim |
//! |---|---|
//! | [`experiments::e1`] | single VSS: 2 interpolations, 2 rounds, 2nk bits (Lemma 2) vs CCD's k interpolations and Feldman's t·log p multiplications (§3.1) |
//! | [`experiments::e2`] | Batch-VSS: M secrets, 2 interpolations total, O(1) amortized communication (Lemma 4, Corollary 1) |
//! | [`experiments::e3`] | Bit-Gen: 3 rounds, nMk + 2n²k bits, amortized ≈ n bits/bit (Lemma 6, Corollary 2) |
//! | [`experiments::e4`] | Coin-Gen: amortized O(n log k) ops and n²k + O(n⁴k)/M bits per coin (Theorem 2, Corollary 3) |
//! | [`experiments::e5`] | §1.4: D-PRBG vs from-scratch coin vs Rabin's dealer — who wins, by what factor |
//! | [`experiments::e6`] | soundness error ≤ 1/p, M/p (Lemmas 1, 3, 5); unanimity under t corruptions (Theorem 1) |
//! | [`experiments::e7`] | bootstrapping: steady-state cost ≈ amortized cost; the initial seed is "effectively neglected" (Fig. 1) |
//! | [`experiments::e8`] | §2: GF(q^l) multiplication, O(l²) schoolbook vs O(l log l) DFT in counted Z_q multiplications — the crossover the paper predicts |
//! | [`experiments::e9`] | ablations of this implementation's choices: blinding, Strict vs Robust acceptance, refresh vs generation |
//! | [`experiments::e10`] | round anatomy of Coin-Gen: n² deliveries per round, grade-cast's O(n⁴k) term carried in n-entry bundles |
//! | [`experiments::e11`] | Coin-Gen at beacon scale (n ≤ 61) on the single-threaded executor |
//! | [`experiments::e12`] | empirical soundness under adaptive adversaries: the [`chaos`] campaign, zero unsound outcomes at f ≤ t |
//! | [`experiments::e13`] | not a paper claim: the CLMUL backend, `ParRunner`, shared-basis decoding and grade-cast handles leave every output byte-identical |
//! | [`experiments::e14`] | committee-sampled Coin-Gen at n ≥ 129: sampling soundness error vs the observed quorum rate |
//! | [`experiments::e15`] | a crash-recoverable beacon soak under composite faults: coins per epoch, zero unsound, kill/restore byte-identity |
//!
//! `report --health` (the [`health`] module) is not a paper table but an
//! operational smoke: a fixed-seed E15 short soak rendered through the
//! `dprbg-metrics` health-plane exporters, with cross-executor parity,
//! kill/restore byte-identity, and forced-rollback forensics asserted
//! inline.

pub mod chaos;
pub mod experiments;
pub mod health;
pub mod traced;

pub use experiments::ExperimentCtx;
