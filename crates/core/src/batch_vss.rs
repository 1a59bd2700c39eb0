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
//! The `Batch-VSS(l)` variant of the paper — verification restricted to a
//! designated point subset — is [`judge_batch_subset`].

use std::mem;

use dprbg_field::Field;
use dprbg_metrics::WireSize;
use dprbg_poly::{bw_decode, eval_batch, interpolate, Poly};
use dprbg_sim::{Embeds, PartyId, RoundMachine, RoundView, Step};
use dprbg_rng::Rng;

use crate::coin::{ExposeMachine, ExposeMsg, ExposeVia, SealedShare};
use crate::errors::CoinError;
pub use crate::vss::{VssMode, VssVerdict};

/// Wire messages of Protocol Batch-VSS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchVssMsg<F: Field> {
    /// Dealing round: the `M` secret shares plus the masking share.
    Deal {
        /// `α_{i1} … α_{iM}`.
        alphas: Vec<F>,
        /// `γ_i = g(i)`.
        gamma: F,
    },
    /// Coin-Expose traffic for the challenge coin.
    Expose(ExposeMsg<F>),
    /// The combined verification share `β_i`.
    Beta(F),
}

impl<F: Field> WireSize for BatchVssMsg<F> {
    fn wire_bytes(&self) -> usize {
        match self {
            BatchVssMsg::Deal { alphas, gamma } => {
                alphas.wire_bytes() + gamma.wire_bytes()
            }
            BatchVssMsg::Expose(e) => e.wire_bytes(),
            BatchVssMsg::Beta(b) => b.wire_bytes(),
        }
    }
}

impl<F: Field> Embeds<ExposeMsg<F>> for BatchVssMsg<F> {
    fn wrap(inner: ExposeMsg<F>) -> Self {
        BatchVssMsg::Expose(inner)
    }
    fn peek(&self) -> Option<&ExposeMsg<F>> {
        match self {
            BatchVssMsg::Expose(e) => Some(e),
            _ => None,
        }
    }
}

/// A party's holdings after the batch dealing round.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BatchShares<F: Field> {
    /// The `M` secret shares.
    pub alphas: Vec<F>,
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

/// The evaluation points of parties `1..=n`.
pub(crate) fn party_points<F: Field>(n: usize) -> Vec<F> {
    (1..=n as u64).map(F::element).collect()
}

/// The dealing step shared by Fig. 3 and Fig. 4: evaluate a dealer's `m`
/// secret polynomials — and, if `blinded`, the masking polynomial drawn
/// after them — at every party point, and yield each party's
/// `(α_{i1} … α_{iM}, γ_i)` in point order (`γ_i = 0` unblinded).
///
/// `coeffs` is the dealer's coefficient buffer: the polynomials one after
/// another, equally many coefficients each, constant term first.
pub(crate) fn deal_shares<F: Field>(
    coeffs: &[F],
    m: usize,
    blinded: bool,
    points: &[F],
) -> impl Iterator<Item = (Vec<F>, F)> {
    let polys = m + usize::from(blinded);
    let values = eval_batch(coeffs, polys, points);
    (0..points.len()).map(move |p| {
        let row = &values[p * polys..(p + 1) * polys];
        (row[..m].to_vec(), row.get(m).copied().unwrap_or_else(F::zero))
    })
}

/// The batch dealing round as a sans-IO round machine: one `Continue`
/// (the dealer's share vectors), then `Done` with this party's holdings
/// `(my shares, dealer polynomials if dealer)`.
///
/// One round; the dealer's message to each player is `Mk` bits (Lemma 6's
/// "n messages each of size Mk").
pub struct BatchVssDealMachine<M, F: Field> {
    dealer: PartyId,
    secrets: Option<Vec<F>>,
    t: usize,
    dealt: Option<Vec<Poly<F>>>,
    sent: bool,
    _wire: std::marker::PhantomData<fn() -> M>,
}

impl<M, F: Field> BatchVssDealMachine<M, F> {
    /// A machine for `dealer`'s batch; `secrets` must be `Some` only at
    /// the dealer itself.
    pub fn new(dealer: PartyId, secrets: Option<Vec<F>>, t: usize) -> Self {
        BatchVssDealMachine {
            dealer,
            secrets,
            t,
            dealt: None,
            sent: false,
            _wire: std::marker::PhantomData,
        }
    }
}

impl<M, F> RoundMachine<M> for BatchVssDealMachine<M, F>
where
    M: Clone + WireSize + Embeds<BatchVssMsg<F>>,
    F: Field,
{
    type Output = (BatchShares<F>, Option<Vec<Poly<F>>>);

    fn round(&mut self, view: RoundView<'_, M>) -> Step<M, Self::Output> {
        if !self.sent {
            self.sent = true;
            let mut out = view.outbox();
            if view.id == self.dealer {
                if let Some(secrets) = self.secrets.take() {
                    let width = self.t + 1;
                    let mut coeffs = Vec::with_capacity((secrets.len() + 1) * width);
                    for &s in &secrets {
                        coeffs.push(s);
                        coeffs.extend((0..self.t).map(|_| F::random(view.rng)));
                    }
                    coeffs.extend((0..width).map(|_| F::random(view.rng)));
                    let shares =
                        deal_shares(&coeffs, secrets.len(), true, &party_points(view.n));
                    for (i, (alphas, gamma)) in (1..=view.n).zip(shares) {
                        out.send(
                            i,
                            <M as Embeds<BatchVssMsg<F>>>::wrap(BatchVssMsg::Deal {
                                alphas,
                                gamma,
                            }),
                        );
                    }
                    // The secret polynomials, then the blind.
                    self.dealt =
                        Some(coeffs.chunks(width).map(|f| Poly::new(f.to_vec())).collect());
                }
            }
            return Step::Continue(out);
        }
        let shares = view
            .inbox
            .first_from(self.dealer)
            .and_then(|r| <M as Embeds<BatchVssMsg<F>>>::peek(r.msg()))
            .and_then(|m| match m {
                BatchVssMsg::Deal { alphas, gamma } => Some(BatchShares {
                    alphas: alphas.clone(),
                    gamma: *gamma,
                }),
                _ => None,
            })
            .unwrap_or_default();
        Step::Done((shares, self.dealt.take()))
    }

    fn phase_name(&self) -> &'static str {
        if self.sent {
            "batch-vss/record"
        } else {
            "batch-vss/deal"
        }
    }
}

/// Steps 1–4 of Fig. 3 as a sans-IO round machine: the challenge expose
/// (an embedded [`ExposeMachine`] over the broadcast channel), the
/// combination broadcast, then the interpolation verdict — all `M`
/// sharings verified with one interpolation in 2 rounds.
///
/// `expected_m` is the batch size every player expects; a dealer that
/// sent a different number of shares is rejected outright. Consumes one
/// sealed challenge coin. The output propagates [`CoinError`] from the
/// challenge expose.
pub struct BatchVssVerifyMachine<M, F: Field> {
    t: usize,
    shares: BatchShares<F>,
    expected_m: usize,
    mode: VssMode,
    stage: BvStage<M, F>,
}

enum BvStage<M, F: Field> {
    /// Step 1 in flight (two calls: share send, then decode + beta send).
    Expose(ExposeMachine<M, F>),
    /// Inbox holds the broadcast betas; judge.
    Betas,
    Finished,
}

impl<M, F: Field> BatchVssVerifyMachine<M, F> {
    /// A machine verifying `shares` against an expected batch size, with
    /// `coin` as the challenge and `mode` as the acceptance rule (strict
    /// Fig. 3 vs Berlekamp–Welch-robust).
    pub fn new(
        t: usize,
        shares: BatchShares<F>,
        expected_m: usize,
        coin: SealedShare<F>,
        mode: VssMode,
    ) -> Self {
        BatchVssVerifyMachine {
            t,
            shares,
            expected_m,
            mode,
            stage: BvStage::Expose(ExposeMachine::new(coin, t, ExposeVia::Broadcast)),
        }
    }
}

impl<M, F> RoundMachine<M> for BatchVssVerifyMachine<M, F>
where
    M: Clone + WireSize + Embeds<ExposeMsg<F>> + Embeds<BatchVssMsg<F>>,
    F: Field,
{
    type Output = Result<VssVerdict, CoinError>;

    fn round(&mut self, mut view: RoundView<'_, M>) -> Step<M, Self::Output> {
        match mem::replace(&mut self.stage, BvStage::Finished) {
            BvStage::Expose(mut expose) => match expose.round(view.reborrow()) {
                Step::Continue(out) => {
                    self.stage = BvStage::Expose(expose);
                    Step::Continue(out)
                }
                Step::Done(Err(e)) => Step::Done(Err(e)),
                Step::Done(Ok(r)) => {
                    // A malformed share vector means a misbehaving dealer;
                    // broadcast a *random* combination so the malformed
                    // instance cannot fit any low-degree polynomial
                    // (all-zero fallbacks would themselves interpolate to
                    // a valid sharing).
                    let beta = if self.shares.alphas.len() == self.expected_m {
                        horner_combine(&self.shares.alphas, self.shares.gamma, r)
                    } else {
                        F::random(view.rng)
                    };
                    let mut out = view.outbox();
                    out.broadcast(<M as Embeds<BatchVssMsg<F>>>::wrap(BatchVssMsg::Beta(
                        beta,
                    )));
                    self.stage = BvStage::Betas;
                    Step::Continue(out)
                }
            },
            BvStage::Betas => {
                let mut points: Vec<(F, F)> = Vec::new();
                for rcv in view.inbox.broadcasts() {
                    if let Some(BatchVssMsg::Beta(b)) =
                        <M as Embeds<BatchVssMsg<F>>>::peek(rcv.msg())
                    {
                        let x = F::element(rcv.from as u64);
                        if points.iter().all(|(px, _)| *px != x) {
                            points.push((x, *b));
                        }
                    }
                }
                Step::Done(Ok(judge_batch(&points, view.n, self.t, self.mode)))
            }
            #[expect(clippy::panic, reason = "driver contract: round() is never called after Done")]
            BvStage::Finished => panic!("BatchVssVerifyMachine driven past completion"),
        }
    }

    fn phase_name(&self) -> &'static str {
        match &self.stage {
            BvStage::Expose(expose) => match expose.phase_name() {
                "expose/send" => "batch-vss/challenge",
                _ => "batch-vss/combine",
            },
            BvStage::Betas => "batch-vss/judge",
            BvStage::Finished => "batch-vss/finished",
        }
    }
}

/// Step 4's decision from the collected combination points.
pub fn judge_batch<F: Field>(
    points: &[(F, F)],
    n: usize,
    t: usize,
    mode: VssMode,
) -> VssVerdict {
    match mode {
        VssMode::Strict => {
            if points.len() < n {
                return VssVerdict::Reject;
            }
            match interpolate(points) {
                Ok(f) if f.degree().is_none_or(|d| d <= t) => VssVerdict::Accept,
                _ => VssVerdict::Reject,
            }
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "one combination word per check: no basis to share"
        )]
        VssMode::Robust => match bw_decode(points, t, t) {
            Ok(_) => VssVerdict::Accept,
            Err(_) => VssVerdict::Reject,
        },
    }
}

/// The `Batch-VSS(l)` variant: accept iff some degree-≤t polynomial
/// passes through the combination values of the *designated subset* of
/// points (the paper: "accept if there is a polynomial F(x) of degree at
/// most t, which for some given l … satisfies F(i_j) = β_{i_j}").
///
/// Used when only a subset of players' shares must be validated (e.g. a
/// clique in Coin-Gen). The subset must contain at least `t + 1` points.
pub fn judge_batch_subset<F: Field>(
    points: &[(F, F)],
    subset: &[PartyId],
    t: usize,
) -> VssVerdict {
    let sub: Vec<(F, F)> = points
        .iter()
        .filter(|(x, _)| subset.iter().any(|&p| F::element(p as u64) == *x))
        .copied()
        .collect();
    if sub.len() <= t || sub.len() < subset.len() {
        return VssVerdict::Reject;
    }
    let (xs, ys): (Vec<F>, Vec<F>) = sub[t + 1..].iter().copied().unzip();
    match interpolate(&sub[..t + 1]) {
        Ok(f) if f.degree().is_none_or(|d| d <= t)
            && F::matching_prefix(f.coeffs(), &xs, &ys) == xs.len() =>
        {
            VssVerdict::Accept
        }
        _ => VssVerdict::Reject,
    }
}

/// A cheating dealer's batch for soundness tests: `bad_count` of the `M`
/// polynomials have degree `t + 1`, the rest are honest.
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
mod tests {
    use super::*;
    use dprbg_field::Gf2k;
    use dprbg_poly::{share_points as sp, share_polynomial as spoly};
    use dprbg_rng::rngs::StdRng;
    use dprbg_rng::SeedableRng;
    use dprbg_sim::{BoxedMachine, MachineExt, StepRunner};

    type F = Gf2k<32>;
    type M = BatchVssMsg<F>;

    fn coin_shares(n: usize, t: usize, seed: u64) -> Vec<SealedShare<F>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let poly = spoly(F::random(&mut rng), t, &mut rng);
        sp(&poly, n).into_iter().map(|s| SealedShare::of(s.y)).collect()
    }

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

    /// Deal then verify, composed with [`MachineExt::then`] exactly as
    /// straight-line protocol code would sequence the two phases.
    fn run_batch(
        n: usize,
        t: usize,
        m: usize,
        seed: u64,
    ) -> Vec<Result<VssVerdict, CoinError>> {
        let coins = coin_shares(n, t, seed + 1000);
        let fleet: Vec<BoxedMachine<M, Result<VssVerdict, CoinError>>> = (1..=n)
            .map(|id| {
                let coin = coins[id - 1];
                let secrets: Option<Vec<F>> =
                    (id == 1).then(|| (0..m as u64).map(F::from_u64).collect());
                Box::new(BatchVssDealMachine::new(1, secrets, t).then(
                    move |(shares, _): (BatchShares<F>, _)| {
                        BatchVssVerifyMachine::new(t, shares, m, coin, VssMode::Strict)
                    },
                )) as BoxedMachine<M, _>
            })
            .collect();
        StepRunner::new(n, seed).run(fleet).unwrap_all()
    }

    #[test]
    fn honest_batch_accepted() {
        for out in run_batch(7, 2, 16, 3) {
            assert_eq!(out.unwrap(), VssVerdict::Accept);
        }
    }

    #[test]
    fn single_bad_polynomial_in_large_batch_rejected() {
        // One corrupt polynomial among M = 32 must sink the whole batch.
        let n = 7;
        let t = 2;
        let m = 32;
        let coins = coin_shares(n, t, 7);
        let mut rng = StdRng::seed_from_u64(8);
        let all_shares = cheating_batch_deal::<F, _>(n, t, m, 1, &mut rng);
        // Dealing happened out-of-band; every party verifies directly.
        let fleet: Vec<BoxedMachine<M, Result<VssVerdict, CoinError>>> = (1..=n)
            .map(|id| {
                let coin = coins[id - 1];
                let shares = all_shares[id - 1].clone();
                Box::new(BatchVssVerifyMachine::new(t, shares, m, coin, VssMode::Strict))
                    as BoxedMachine<M, _>
            })
            .collect();
        for out in StepRunner::new(n, 9).run(fleet).unwrap_all() {
            assert_eq!(out.unwrap(), VssVerdict::Reject);
        }
    }

    #[test]
    fn wrong_batch_size_rejected() {
        // Dealer sends 4 shares where 8 are expected.
        let n = 4;
        let t = 1;
        let coins = coin_shares(n, t, 11);
        let fleet: Vec<BoxedMachine<M, Result<VssVerdict, CoinError>>> = (1..=n)
            .map(|id| {
                let coin = coins[id - 1];
                let secrets: Option<Vec<F>> =
                    (id == 1).then(|| (0..4u64).map(F::from_u64).collect());
                Box::new(BatchVssDealMachine::new(1, secrets, t).then(
                    move |(shares, _): (BatchShares<F>, _)| {
                        BatchVssVerifyMachine::new(t, shares, 8, coin, VssMode::Strict)
                    },
                )) as BoxedMachine<M, _>
            })
            .collect();
        for out in StepRunner::new(n, 12).run(fleet).unwrap_all() {
            assert_eq!(out.unwrap(), VssVerdict::Reject);
        }
    }

    #[test]
    fn batch_communication_is_constant_in_m() {
        // Lemma 4: the verification phase is 2 rounds and 2n messages of
        // size k regardless of M.
        let n = 7;
        let t = 2;
        for m in [1usize, 64] {
            let coins = coin_shares(n, t, 13);
            let mut rng = StdRng::seed_from_u64(14);
            let all = cheating_batch_deal::<F, _>(n, t, m, 0, &mut rng); // 0 bad = honest
            let fleet: Vec<BoxedMachine<M, Result<VssVerdict, CoinError>>> = (1..=n)
                .map(|id| {
                    let coin = coins[id - 1];
                    let shares = all[id - 1].clone();
                    Box::new(BatchVssVerifyMachine::new(t, shares, m, coin, VssMode::Strict))
                        as BoxedMachine<M, _>
                })
                .collect();
            let res = StepRunner::new(n, 15).run(fleet);
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
        let n = 4;
        let t = 1;
        let m = 8;
        let mut rng = StdRng::seed_from_u64(99);
        let trials = 3000;
        let mut accepts = 0;
        for _ in 0..trials {
            let shares = cheating_batch_deal::<F8, _>(n, t, m, m, &mut rng);
            let r = F8::random(&mut rng);
            let pts: Vec<(F8, F8)> = shares
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    (
                        F8::element(i as u64 + 1),
                        horner_combine(&s.alphas, s.gamma, r),
                    )
                })
                .collect();
            if judge_batch(&pts, n, t, VssMode::Strict) == VssVerdict::Accept {
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
        let mut pts: Vec<(F, F)> = (1..=7u64)
            .map(|i| (F::element(i), f.eval(F::element(i))))
            .collect();
        // Corrupt a point *outside* the subset: subset check still accepts.
        pts[6].1 += F::one();
        let subset = vec![1usize, 2, 3, 4, 5];
        assert_eq!(judge_batch_subset(&pts, &subset, t), VssVerdict::Accept);
        // Corrupt a point *inside* the subset: reject.
        pts[2].1 += F::one();
        assert_eq!(judge_batch_subset(&pts, &subset, t), VssVerdict::Reject);
        // Subset with a missing point: reject.
        assert_eq!(
            judge_batch_subset(&pts[..4], &[1, 2, 3, 4, 5], t),
            VssVerdict::Reject
        );
        // Subset too small to determine a polynomial: reject.
        assert_eq!(judge_batch_subset(&pts, &[1, 2], t), VssVerdict::Reject);
    }
}
