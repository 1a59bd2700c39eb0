//! Protocol Batch-VSS (Fig. 3): verify M sharings at the cost of one.
//!
//! The paper's first major result (§3.2): "Our protocol for batch VSS
//! allows for the verification of multiple secrets at the same cost of one
//! polynomial interpolation."
//!
//! The dealer has shared `M` polynomials `f_1 … f_M`; player `P_i` holds
//! `α_{i1} … α_{iM}`. Verification:
//!
//! 1. `r ← Coin-Expose(k-ary-coin)`.
//! 2. `P_i` computes the Horner combination
//!    `β_i = (((r·α_{iM} + α_{i(M−1)})r + …)r + α_{i1})·r` — i.e.
//!    `β_i = Σ_j r^j·α_{ij}` — in `M` multiplications and additions.
//! 3. `P_i` broadcasts `β_i`.
//! 4. Interpolate `F(x)` through `β_1 … β_n`; accept iff `deg F ≤ t`.
//!
//! Soundness (Lemma 3): if some `f_j` has degree > t, the combination
//! `Σ r^j f_j(x)|_{t+1}` is a nonzero polynomial in `r` of degree ≤ M, so
//! the check passes with probability ≤ `M/p`.
//!
//! Cost (Lemma 4 / Corollary 1): ~`2Mk log k` additions and **2**
//! interpolations per player for all `M` secrets; 2 rounds; `2n` messages
//! (`2nk` bits) — amortized `O(1)` communication and `2k log k`
//! computation per secret.
//!
//! **Blinding deviation** (see DESIGN.md): the literal Fig. 3 combination
//! reveals `F(0) = Σ r^j·s_j`, a known linear relation on secrets that may
//! be used later as coins. So the dealer always also shares one masking
//! polynomial `g` and the combination becomes
//! `β_i = γ_i + Σ_j r^j·α_{ij}`, exactly extending Fig. 2's masking idea
//! at `O(1/M)` amortized overhead.
//!
//! The protocol runs on Bit-Gen's machine ([`BitGenMachine`], one dealer,
//! broadcast transport): [`batch_vss`] deals and verifies,
//! [`batch_vss_verify`] verifies held shares. The `Batch-VSS(l)` variant
//! of the paper — verification restricted to a designated point subset —
//! is the acceptance rule [`Acceptance::Subset`].

use std::sync::Arc;

use dprbg_field::Field;
use dprbg_metrics::WireSize;
use dprbg_poly::party_points;
use dprbg_rng::Rng;
use dprbg_sim::{Embeds, MachineExt, PartyId, RoundMachine};

use crate::bit_gen::{deal_shares, Acceptance, BitGenMachine, BitGenMsg, BitGenRun, Start};
use crate::coin::{ExposeMsg, SealedShare};
use crate::errors::CoinError;
use crate::vss::VssVerdict;

/// A party's holdings in one dealer's sharing.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BatchShares<F: Field> {
    /// The `M` secret shares (empty when the dealer was silent or sent a
    /// malformed vector), shared with the delivered Bit-Gen row.
    pub alphas: Arc<[F]>,
    /// The masking share (zero when the dealer was silent).
    pub gamma: F,
}

/// The Horner combination of Fig. 3 step 2 plus the blinding term:
/// `β = γ + Σ_{j=1..M} r^j α_j`, computed as
/// `((…(r·α_M + α_{M−1})·r + …)·r + α_1)·r + γ` — `M` multiplications,
/// `M` additions.
pub fn horner_combine<F: Field>(alphas: &[F], gamma: F, r: F) -> F {
    let mut sum = F::zero();
    F::combine_rows(&[alphas], r, std::slice::from_mut(&mut sum));
    sum + gamma
}

/// The verdict on `dealer`'s instance and this party's shares in it (a
/// dealer that is not a party is rejected).
pub(crate) fn outcome<F: Field>(run: BitGenRun<F>, dealer: PartyId) -> (VssVerdict, BatchShares<F>) {
    run.into_view(dealer).map_or((VssVerdict::Reject, BatchShares::default()), |v| {
        (VssVerdict::of(v.check_poly.is_some()), BatchShares { alphas: v.alphas, gamma: v.gamma })
    })
}

/// Protocol Batch-VSS (Fig. 3), dealing included — 3 rounds. `dealer`
/// shares `secrets_if_dealer` (`Some` only at the dealer itself) and every
/// party checks the batch of `m` under `rule`; a dealer that shares any
/// other number of secrets is rejected. The output carries the verdict
/// with the shares this party now holds, and propagates [`CoinError`]
/// from the challenge expose.
pub fn batch_vss<M, F>(
    dealer: PartyId,
    secrets_if_dealer: Option<Vec<F>>,
    t: usize,
    m: usize,
    coin: SealedShare<F>,
    rule: impl Into<Acceptance>,
) -> impl RoundMachine<M, Output = Result<(VssVerdict, BatchShares<F>), CoinError>>
where
    M: Clone + WireSize + Embeds<ExposeMsg<F>> + Embeds<BitGenMsg<F>>,
    F: Field,
{
    let start = Start::Deal(secrets_if_dealer);
    BitGenMachine::broadcast(dealer, t, m, coin, rule.into(), start)
        .map(move |res| res.map(|run| outcome(run, dealer)))
}

/// Steps 1–4 of Fig. 3 from shares this party already holds (the
/// "Given"): challenge expose, combination broadcast, verdict — all `m`
/// sharings verified with one interpolation in 2 rounds. A share vector
/// of any other length is withheld, which fails the strict rule. The
/// combination goes out untagged, so the dealer's identity plays no part.
pub fn batch_vss_verify<M, F>(
    t: usize,
    shares: BatchShares<F>,
    m: usize,
    coin: SealedShare<F>,
    rule: impl Into<Acceptance>,
) -> impl RoundMachine<M, Output = Result<VssVerdict, CoinError>>
where
    M: Clone + WireSize + Embeds<ExposeMsg<F>> + Embeds<BitGenMsg<F>>,
    F: Field,
{
    // Any party's slot can hold the shares; the first is always there.
    BitGenMachine::broadcast(1, t, m, coin, rule.into(), Start::Held(shares))
        .map(|res| res.map(|run| outcome(run, 1).0))
}

/// A cheating dealer's batch for soundness tests: `bad_count` of the `M`
/// polynomials have degree `t + 1`, the rest are honest (`M = 1` is a
/// single VSS dealing).
pub fn cheating_batch_deal<F: Field, R: Rng + ?Sized>(
    n: usize,
    t: usize,
    m: usize,
    bad_count: usize,
    rng: &mut R,
) -> Vec<BatchShares<F>> {
    assert!(bad_count <= m, "cannot corrupt more polynomials than exist");
    // Room for degree t + 1; an honest polynomial leaves the top
    // coefficient zero (and undrawn).
    let width = t + 2;
    let mut coeffs = vec![F::zero(); (m + 1) * width];
    for (j, f) in coeffs.chunks_mut(width).enumerate() {
        let drawn = if j < bad_count { width } else { width - 1 };
        f[..drawn].fill_with(|| F::random(rng));
    }
    deal_shares(&coeffs, m, true, &party_points(n))
        .map(|(alphas, gamma)| BatchShares { alphas, gamma })
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::bit_gen::judge;
    use crate::dealer::TrustedDealer;
    use crate::vss::VssMode;
    use dprbg_field::Gf2k;
    use dprbg_poly::Poly;
    use dprbg_rng::rngs::StdRng;
    use dprbg_rng::SeedableRng;
    use dprbg_sim::{BoxedMachine, StepRunner};

    type F = Gf2k<32>;
    type M = BitGenMsg<F>;

    #[test]
    fn horner_matches_direct_sum() {
        let mut rng = StdRng::seed_from_u64(1);
        let alphas: Vec<F> = (0..8).map(|_| F::random(&mut rng)).collect();
        let gamma = F::random(&mut rng);
        let r = F::random(&mut rng);
        let direct: F = gamma
            + alphas
                .iter()
                .enumerate()
                .map(|(j, &a)| a * r.pow(j as u128 + 1))
                .sum::<F>();
        assert_eq!(horner_combine(&alphas, gamma, r), direct);
        // Empty batch: just the blinding term.
        assert_eq!(horner_combine(&[], gamma, r), gamma);
    }

    /// Deal then verify, dealer 1 sharing `dealt` secrets and everyone
    /// checking a batch of `m`.
    fn run_batch(
        n: usize,
        t: usize,
        dealt: usize,
        m: usize,
        seed: u64,
    ) -> Vec<Result<VssVerdict, CoinError>> {
        let coins = TrustedDealer::coin_shares::<F>(n, t, seed + 1000);
        let fleet: Vec<BoxedMachine<M, Result<VssVerdict, CoinError>>> = (1..=n)
            .map(|id| {
                let secrets = (id == 1).then(|| (0..dealt as u64).map(F::from_u64).collect());
                Box::new(
                    batch_vss(1, secrets, t, m, coins[id - 1], VssMode::Strict)
                        .map(|res| res.map(|(v, _)| v)),
                ) as BoxedMachine<M, _>
            })
            .collect();
        StepRunner::new(n, seed).run(fleet).unwrap_all()
    }

    /// Verify-only fleet over `shares[id - 1]`, dealt out of band.
    pub(crate) fn verify_fleet(
        t: usize,
        m: usize,
        shares: Vec<BatchShares<F>>,
        coin_seed: u64,
        rule: &Acceptance,
    ) -> Vec<BoxedMachine<M, Result<VssVerdict, CoinError>>> {
        let coins = TrustedDealer::coin_shares::<F>(shares.len(), t, coin_seed);
        shares
            .into_iter()
            .zip(coins)
            .map(|(s, coin)| {
                Box::new(batch_vss_verify(t, s, m, coin, rule.clone())) as BoxedMachine<M, _>
            })
            .collect()
    }

    #[test]
    fn honest_batch_accepted() {
        for out in run_batch(7, 2, 16, 16, 3) {
            assert_eq!(out.unwrap(), VssVerdict::Accept);
        }
    }

    #[test]
    fn single_bad_polynomial_in_large_batch_rejected() {
        // One corrupt polynomial among M = 32 must sink the whole batch.
        let (n, t, m) = (7, 2, 32);
        let mut rng = StdRng::seed_from_u64(8);
        let all_shares = cheating_batch_deal::<F, _>(n, t, m, 1, &mut rng);
        let fleet = verify_fleet(t, m, all_shares, 7, &Acceptance::Strict);
        for out in StepRunner::new(n, 9).run(fleet).unwrap_all() {
            assert_eq!(out.unwrap(), VssVerdict::Reject);
        }
    }

    #[test]
    fn wrong_batch_size_rejected() {
        // Dealer sends 4 shares where 8 are expected.
        for out in run_batch(4, 1, 4, 8, 11) {
            assert_eq!(out.unwrap(), VssVerdict::Reject);
        }
    }

    #[test]
    fn batch_communication_is_constant_in_m() {
        // Lemma 4: the verification phase is 2 rounds and 2n messages of
        // size k regardless of M.
        let (n, t) = (7, 2);
        for m in [1usize, 64] {
            let mut rng = StdRng::seed_from_u64(14);
            let all = cheating_batch_deal::<F, _>(n, t, m, 0, &mut rng); // 0 bad = honest
            let res = StepRunner::new(n, 15).run(verify_fleet(t, m, all, 13, &Acceptance::Strict));
            assert_eq!(res.report.comm.rounds, 2);
            assert_eq!(res.report.comm.messages as usize, 2 * n, "M = {m}");
            assert_eq!(res.report.comm.bytes as usize, 2 * n * 4, "M = {m}");
            for out in res.unwrap_all() {
                assert_eq!(out.unwrap(), VssVerdict::Accept);
            }
        }
    }

    #[test]
    fn soundness_error_scales_with_m_over_p() {
        // Lemma 3: acceptance probability ≤ M/p. Over GF(2^8) with
        // M = 8, the bound is 8/256 = 1/32 ≈ 3%. Measure it.
        type F8 = Gf2k<8>;
        let (n, t, m) = (4, 1, 8);
        let mut rng = StdRng::seed_from_u64(99);
        let trials = 3000;
        let mut accepts = 0;
        for _ in 0..trials {
            let shares = cheating_batch_deal::<F8, _>(n, t, m, m, &mut rng);
            let r = F8::random(&mut rng);
            let betas: Vec<Option<F8>> =
                shares.iter().map(|s| Some(horner_combine(&s.alphas, s.gamma, r))).collect();
            if judge(&betas, t, &Acceptance::Strict) == VssVerdict::Accept {
                accepts += 1;
            }
        }
        let rate = accepts as f64 / trials as f64;
        assert!(rate < 0.10, "batch soundness error rate {rate} too high");
    }

    #[test]
    fn subset_variant_checks_designated_points() {
        let mut rng = StdRng::seed_from_u64(21);
        let t = 2;
        let f = Poly::<F>::random(t, &mut rng);
        let xs: Vec<F> = party_points(7);
        let mut ys = vec![F::zero(); 7];
        F::eval_points(f.coeffs(), &xs, &mut ys);
        let mut betas: Vec<Option<F>> = ys.into_iter().map(Some).collect();
        let subset = Acceptance::Subset(vec![1, 2, 3, 4, 5]);
        // Corrupt a point *outside* the subset: subset check still accepts.
        betas[6] = betas[6].map(|b| b + F::one());
        assert_eq!(judge(&betas, t, &subset), VssVerdict::Accept);
        assert_eq!(judge(&betas, t, &Acceptance::Strict), VssVerdict::Reject);
        // Subset with a missing point: reject.
        let mut missing = betas.clone();
        missing[4] = None;
        assert_eq!(judge(&missing, t, &subset), VssVerdict::Reject);
        // Subset too small to determine a polynomial: reject.
        assert_eq!(judge(&betas, t, &Acceptance::Subset(vec![1, 2])), VssVerdict::Reject);
        // Corrupt a point *inside* the subset: reject.
        betas[2] = betas[2].map(|b| b + F::one());
        assert_eq!(judge(&betas, t, &subset), VssVerdict::Reject);

        // The machine under the same rule: party 7's masking share is off
        // the dealing, so only the subset rule accepts.
        let n = 7;
        for (rule, expected) in [(subset, VssVerdict::Accept), (Acceptance::Strict, VssVerdict::Reject)] {
            let mut all = cheating_batch_deal::<F, _>(n, t, 4, 0, &mut rng);
            all[6].gamma += F::one();
            let fleet = verify_fleet(t, 4, all, 22, &rule);
            for out in StepRunner::new(n, 23).run(fleet).unwrap_all() {
                assert_eq!(out.unwrap(), expected, "{rule:?}");
            }
        }
    }
}
