//! The paper-unit contract of one fault-free Coin-Gen, pinned to the
//! count: field multiplications, additions, inversions, interpolations,
//! PRG blocks, messages, bytes and rounds of a fixed-seed run, as exact
//! literals (first instalment of ROADMAP item 3(b)) — and the same totals
//! of one serve-only beacon epoch.
//!
//! The literals were captured at the commit *before* the slice-wide field
//! kernels landed, so a kernel that charges anything but what its scalar
//! default charges — or any later change to the arithmetic path — fails
//! here instead of drifting the cost model silently. A change that moves a
//! count on purpose regenerates the literal and says why.

use dprbg::beacon::{BeaconMsg, EpochMachine, EpochOutcome};
use dprbg::core::{CoinGenConfig, CoinGenMachine, CoinGenMsg, Params, TrustedDealer};
use dprbg::field::{Field, Gf2k};
use dprbg::metrics::CostSnapshot;
use dprbg::sim::{BoxedMachine, MachineExt, RunResult, StepRunner};

/// Whole-fleet totals of one fault-free Coin-Gen at `(n, t, M)` over `F`,
/// wallets and executor both seeded with `seed`.
fn coin_gen_totals<F: Field>(n: usize, t: usize, m: usize, seed: u64) -> CostSnapshot {
    let res = coin_gen_run::<F>(n, t, m, seed);
    let total = res.report.total();
    // `total()` sums the per-party round counters; the run's round count
    // is the communication summary's.
    CostSnapshot { rounds: res.report.comm.rounds, ..total }
}

/// One fault-free Coin-Gen at `(n, t, M)` over `F`, every party sealing M
/// coins.
fn coin_gen_run<F: Field>(n: usize, t: usize, m: usize, seed: u64) -> RunResult<usize> {
    let params = Params::p2p_model(n, t).unwrap();
    let cfg = CoinGenConfig { params, batch_size: m };
    let fleet: Vec<BoxedMachine<CoinGenMsg<F>, usize>> =
        TrustedDealer::deal_wallets::<F>(params, 4, seed)
            .into_iter()
            .map(|w| {
                Box::new(
                    CoinGenMachine::new(cfg, w)
                        .map(|(_, res)| res.expect("no faults injected").shares.len()),
                ) as _
            })
            .collect();
    let res = StepRunner::new(n, seed).run(fleet);
    assert!(res.outputs.iter().all(|o| *o == Some(m)), "every party seals M coins");
    res
}

/// Grade-cast sends one Echo and one Vote bundle per party per recipient,
/// so its echo and vote rounds cost n² messages, not n³ (one message per
/// instance: 1 043 at n = 7 and 5 785 at n = 13 before bundling). Bytes,
/// field work and rounds are unchanged: a bundle still charges each entry
/// its 1-byte instance tag.
///
/// `field_muls` and `field_adds` were 4 319 and 4 508 while Coin-Gen's
/// steps 5 and 10 re-evaluated every check polynomial that Bit-Gen's
/// decoder had already verified. The drop, 1 372 of each, is exactly those
/// evaluations: n parties × 2 steps × n polynomials × n points × (t + 1)
/// coefficients.
#[test]
fn coin_gen_n7_t1_m8_gf2_32() {
    assert_eq!(
        coin_gen_totals::<Gf2k<32>>(7, 1, 8, 1),
        CostSnapshot {
            field_adds: 3136,
            field_muls: 2947,
            field_invs: 21,
            interpolations: 63,
            prg_invocations: 21,
            messages: 455,
            bytes: 50974,
            rounds: 11,
        }
    );
}

/// `messages` was 5 785 before grade-cast bundling (see above).
/// `field_muls` and `field_adds` were 68 575 and 78 624 before steps 5 and
/// 10 reused Bit-Gen's decode; the drop, 13 182 of each, is exactly the
/// step-5/10 evaluations (13 × 2 × 13 × 13 × 3).
#[test]
fn coin_gen_n13_t2_m64_gf2_64() {
    assert_eq!(
        coin_gen_totals::<Gf2k<64>>(13, 2, 64, 1),
        CostSnapshot {
            field_adds: 65442,
            field_muls: 55393,
            field_invs: 39,
            interpolations: 195,
            prg_invocations: 325,
            messages: 1729,
            bytes: 1598272,
            rounds: 13,
        }
    );
}

/// Over GF(2^8) a random polynomial's leading coefficient is zero with
/// probability 1/256, `Poly::new` trims it, and the evaluation is charged
/// for the shorter polynomial: with 13 × 65 polynomials dealt the run
/// must come out strictly cheaper than the same run over GF(2^64), and
/// exactly this much. `messages` was 5 785 before grade-cast bundling.
/// `field_muls` and `field_adds` were 68 549 and 78 598 before steps 5 and
/// 10 reused Bit-Gen's decode; the drop, 13 182 of each, is exactly the
/// step-5/10 evaluations, as over GF(2^64).
#[test]
fn coin_gen_n13_t2_m64_gf2_8_charges_trimmed_polynomials() {
    let gf8 = coin_gen_totals::<Gf2k<8>>(13, 2, 64, 1);
    assert_eq!(
        gf8,
        CostSnapshot {
            field_adds: 65416,
            field_muls: 55367,
            field_invs: 39,
            interpolations: 195,
            prg_invocations: 325,
            messages: 1729,
            bytes: 257933,
            rounds: 13,
        }
    );
    let gf64 = coin_gen_totals::<Gf2k<64>>(13, 2, 64, 1);
    assert!(gf8.field_muls < gf64.field_muls, "trimmed polynomials evaluate cheaper");
}

/// No round of a Coin-Gen delivers more than n² messages: every party
/// sends at most one envelope to each party per round, grade-cast's echo
/// and vote rounds included, so nothing is left for a generic per-round
/// coalescing step in the executor to merge.
#[test]
fn coin_gen_rounds_deliver_at_most_n_squared() {
    for (n, t, m) in [(7, 1, 8), (13, 2, 16)] {
        let rounds = coin_gen_run::<Gf2k<32>>(n, t, m, 1).rounds;
        assert!(rounds.len() >= 6, "n = {n}: {} rounds", rounds.len());
        for (r, p) in rounds.iter().enumerate() {
            assert!(p.deliveries <= n * n, "n = {n}, round {}: {}", r + 1, p.deliveries);
        }
        // Grade-cast's value, echo and vote rounds: one envelope per pair.
        for p in &rounds[3..6] {
            assert_eq!(p.deliveries, n * n, "n = {n}");
        }
    }
}

/// One serve-only beacon epoch: 4 coins exposed by all 7 parties. Every
/// party decodes its 4 slots through one shared Berlekamp–Welch basis,
/// built once per sender set: 7 inversions, one per party. With a basis
/// per slot the same epoch cost `field_invs` 28, `field_muls` 980 and
/// `field_adds` 756; the 3 × 7 basis builds saved are exactly the drop
/// (15 multiplications and 9 additions each at t = 1). Interpolations
/// (one per decoded coin), bytes and rounds are unchanged.
///
/// Every party sends its 4 shares in one envelope, so the epoch costs
/// 7 × 7 = 49 messages; with one message per share it cost 196 for the
/// same 1 568 bytes (4 + 4 per slot-tagged `GF(2^32)` share).
#[test]
fn serve_only_epoch_n7_t1_4_slots_gf2_32() {
    let totals = serve_only_epoch_totals(7, 4);
    assert_eq!(
        totals,
        CostSnapshot {
            field_adds: 567,
            field_muls: 665,
            field_invs: 7,
            interpolations: 28,
            prg_invocations: 0,
            messages: 49,
            bytes: 1568,
            rounds: 1,
        }
    );
}

/// Whole-fleet totals of one serve-only beacon epoch at `(n, t = 1)`
/// exposing `slots` coins over `GF(2^32)`, every slot decoded.
fn serve_only_epoch_totals(n: usize, slots: usize) -> CostSnapshot {
    let params = Params::p2p_model(n, 1).unwrap();
    let cfg = CoinGenConfig { params, batch_size: 8 };
    let fleet: Vec<BoxedMachine<BeaconMsg<Gf2k<32>>, EpochOutcome<Gf2k<32>>>> =
        TrustedDealer::deal_wallets::<Gf2k<32>>(params, slots + 2, 1)
            .into_iter()
            .map(|w| Box::new(EpochMachine::new(cfg, w, slots, None)) as _)
            .collect();
    let res = StepRunner::new(n, 1).run(fleet);
    assert!(res.outputs.iter().flatten().all(|o| o.served.iter().all(Result::is_ok)));
    CostSnapshot { rounds: res.report.comm.rounds, ..res.report.total() }
}

/// The serve wire saves envelopes, not bytes: however many slots an
/// epoch exposes, each party sends one envelope to each party, and each
/// share still costs its 4-byte slot tag plus the element.
#[test]
fn serve_only_epoch_sends_one_envelope_per_party_pair() {
    let n = 7;
    for slots in [1, 4, 33] {
        let totals = serve_only_epoch_totals(n, slots);
        assert_eq!(totals.messages, (n * n) as u64, "slots = {slots}");
        assert_eq!(totals.bytes, (n * n * slots * (4 + 4)) as u64, "slots = {slots}");
        assert_eq!(totals.rounds, 1, "slots = {slots}");
    }
}
