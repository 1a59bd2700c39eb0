//! Cut-and-choose VSS (Chaum–Crépeau–Damgård \[9\]) — the paper's main VSS
//! comparator.
//!
//! "The dealer who shared the secret is asked to share k additional
//! polynomials, g_1(x), …, g_k(x). For each j, 1 ≤ j ≤ k, the players
//! decide whether to reconstruct g_j(x) or f(x) + g_j(x), and check if the
//! reconstructed polynomial is of degree ≤ t. Thus, in this approach k
//! polynomial interpolations are computed in order to achieve a
//! probability of error less than ½^k." (§3.1.)
//!
//! Model note: the per-round challenge bits are public common randomness.
//! Their production is *not charged* to this baseline (the harness derives
//! them from a seed) — a deliberately generous accounting that still
//! leaves the baseline `k` interpolations behind the paper's single one.

use dprbg_field::Field;
use dprbg_metrics::WireSize;
use dprbg_poly::{interpolate, Poly};
use dprbg_rng::rngs::StdRng;
use dprbg_rng::{RngExt, SeedableRng};
use dprbg_sim::{Embeds, PartyId, RoundMachine, RoundView, Step};

pub use dprbg_core::{VssMode, VssVerdict};

/// Wire messages of the cut-and-choose VSS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CcdMsg<F: Field> {
    /// Dealing: the secret share `f(i)` plus the `k` masking shares
    /// `g_1(i) … g_k(i)`.
    Deal {
        /// `f(i)`.
        alpha: F,
        /// `g_j(i)` for `j = 1..=k`.
        gammas: Vec<F>,
    },
    /// Reveal round: for each challenge `j`, either `g_j(i)` or
    /// `f(i) + g_j(i)` per the public challenge bit.
    Reveal(Vec<F>),
}

impl<F: Field> WireSize for CcdMsg<F> {
    fn wire_bytes(&self) -> usize {
        match self {
            CcdMsg::Deal { alpha, gammas } => alpha.wire_bytes() + gammas.wire_bytes(),
            CcdMsg::Reveal(vals) => vals.wire_bytes(),
        }
    }
}

/// Options of the cut-and-choose run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CcdOpts {
    /// Number of cut-and-choose rounds `k` (soundness error `2^-k`).
    pub rounds: usize,
    /// Seed of the public challenge bits (identical at every party —
    /// models the common random string).
    pub challenge_seed: u64,
}

/// How this party deals (or doesn't).
enum CcdDeal<F> {
    /// Share this secret (the party must carry the dealer id).
    Secret(F),
    /// Share a secret drawn fresh from the party RNG at deal time.
    Random,
    /// Pure verifier (also used by adversarial wrappers dealing manually).
    No,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CcdStage {
    /// Round 0: the dealer distributes `f` and the `k` maskings.
    Deal,
    /// Round 1: everyone broadcasts the challenged reveals.
    Reveal,
    /// Round 2: `k` interpolations decide the verdict.
    Decide,
}

/// One cut-and-choose VSS as a sans-IO round machine: `dealer` shares a
/// secret among all parties; everyone outputs `(verdict, my share)`.
///
/// 3 communication rounds (deal, reveal broadcasts, decide) and
/// `opts.rounds` polynomial interpolations per player — the cost the
/// paper's Batch-VSS amortizes away.
pub struct CcdMachine<M, F: Field> {
    dealer: PartyId,
    deal: CcdDeal<F>,
    t: usize,
    opts: CcdOpts,
    /// My secret share, fixed once the deal arrives.
    alpha: F,
    stage: CcdStage,
    _wire: std::marker::PhantomData<fn() -> M>,
}

impl<M, F: Field> CcdMachine<M, F> {
    /// A machine for one VSS of `secret_if_dealer` from `dealer`.
    ///
    /// `None` as the secret means this party does not act as dealer even
    /// if it carries the dealer id — used by adversarial wrappers that
    /// deal manually.
    pub fn new(dealer: PartyId, secret_if_dealer: Option<F>, t: usize, opts: CcdOpts) -> Self {
        let deal = match secret_if_dealer {
            Some(s) => CcdDeal::Secret(s),
            None => CcdDeal::No,
        };
        CcdMachine {
            dealer,
            deal,
            t,
            opts,
            alpha: F::zero(),
            stage: CcdStage::Deal,
            _wire: std::marker::PhantomData,
        }
    }

    /// Like [`CcdMachine::new`], but the dealer's secret is drawn from the
    /// party RNG at deal time — how the from-scratch coin's contributors
    /// share fresh randomness.
    pub fn random_dealer(dealer: PartyId, t: usize, opts: CcdOpts) -> Self {
        let mut m = Self::new(dealer, None, t, opts);
        m.deal = CcdDeal::Random;
        m
    }
}

impl<M, F> RoundMachine<M> for CcdMachine<M, F>
where
    M: Clone + WireSize + Embeds<CcdMsg<F>>,
    F: Field,
{
    type Output = (VssVerdict, F);

    fn round(&mut self, view: RoundView<'_, M>) -> Step<M, Self::Output> {
        let n = view.n;
        let k = self.opts.rounds;
        match self.stage {
            CcdStage::Deal => {
                let mut out = view.outbox();
                let secret = match std::mem::replace(&mut self.deal, CcdDeal::No) {
                    CcdDeal::Secret(s) => Some(s),
                    CcdDeal::Random => Some(F::random(view.rng)),
                    CcdDeal::No => None,
                };
                if let (true, Some(secret)) = (view.id == self.dealer, secret) {
                    let f = Poly::random_with_constant(secret, self.t, view.rng);
                    let gs: Vec<Poly<F>> =
                        (0..k).map(|_| Poly::random(self.t, view.rng)).collect();
                    for i in 1..=n {
                        let x = F::element(i as u64);
                        out.send(
                            i,
                            <M as Embeds<CcdMsg<F>>>::wrap(CcdMsg::Deal {
                                alpha: f.eval(x),
                                gammas: gs.iter().map(|g| g.eval(x)).collect(),
                            }),
                        );
                    }
                }
                self.stage = CcdStage::Reveal;
                Step::Continue(out)
            }
            CcdStage::Reveal => {
                // The dealer's first envelope of any kind is its deal.
                let first = view.inbox.first_per_sender(n, |r| Some(r.msg()));
                let dealt = self
                    .dealer
                    .checked_sub(1)
                    .and_then(|d| *first.get(d)?)
                    .and_then(<M as Embeds<CcdMsg<F>>>::peek)
                    .and_then(|m| match m {
                        CcdMsg::Deal { alpha, gammas } if gammas.len() == k => {
                            Some((*alpha, gammas.clone()))
                        }
                        _ => None,
                    });
                let was_dealt = dealt.is_some();
                let (alpha, gammas) = dealt.unwrap_or_else(|| (F::zero(), vec![F::zero(); k]));
                self.alpha = alpha;

                // Public challenge bits (common randomness, uncharged).
                let mut crng = StdRng::seed_from_u64(self.opts.challenge_seed);
                let challenges: Vec<bool> = (0..k).map(|_| crng.random()).collect();

                // Broadcast the chosen reveals. A player the dealer skipped
                // broadcasts random values so a silent/partial dealer cannot
                // pass as an implicit all-zero sharing.
                let reveals: Vec<F> = if was_dealt {
                    challenges
                        .iter()
                        .zip(&gammas)
                        .map(|(&c, &g)| if c { alpha + g } else { g })
                        .collect()
                } else {
                    (0..k).map(|_| F::random(view.rng)).collect()
                };
                let mut out = view.outbox();
                out.broadcast(<M as Embeds<CcdMsg<F>>>::wrap(CcdMsg::Reveal(reveals)));
                self.stage = CcdStage::Decide;
                Step::Continue(out)
            }
            CcdStage::Decide => {
                let per_party = view.inbox.first_per_sender(n, |rcv| {
                    match <M as Embeds<CcdMsg<F>>>::peek(rcv.msg()) {
                        Some(CcdMsg::Reveal(vals)) if rcv.broadcast && vals.len() == k => {
                            Some(vals)
                        }
                        _ => None,
                    }
                });

                // k interpolations: each revealed polynomial must have
                // degree ≤ t.
                for j in 0..k {
                    let points: Vec<(F, F)> = per_party
                        .iter()
                        .enumerate()
                        .filter_map(|(i, vals)| {
                            vals.as_ref().map(|v| (F::element(i as u64 + 1), v[j]))
                        })
                        .collect();
                    if points.len() < n {
                        return Step::Done((VssVerdict::Reject, self.alpha));
                    }
                    match interpolate(&points) {
                        Ok(p) if p.degree().is_none_or(|d| d <= self.t) => {}
                        _ => return Step::Done((VssVerdict::Reject, self.alpha)),
                    }
                }
                Step::Done((VssVerdict::Accept, self.alpha))
            }
        }
    }

    fn phase_name(&self) -> &'static str {
        match self.stage {
            CcdStage::Deal => "ccd/deal",
            CcdStage::Reveal => "ccd/reveal",
            CcdStage::Decide => "ccd/decide",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dprbg_field::Gf2k;
    use dprbg_sim::{from_fn, BoxedMachine, StepRunner};

    type F = Gf2k<32>;
    type M = CcdMsg<F>;

    fn run(
        n: usize,
        t: usize,
        k: usize,
        seed: u64,
        bad_degree: Option<usize>,
    ) -> Vec<(VssVerdict, F)> {
        let machines: Vec<BoxedMachine<M, (VssVerdict, F)>> = (1..=n)
            .map(|id| {
                let opts = CcdOpts { rounds: k, challenge_seed: seed ^ 0xABCD };
                if id == 1 {
                    if let Some(bad) = bad_degree {
                        return cheating_dealer(n, t, bad, opts, seed);
                    }
                }
                let secret = (id == 1).then(|| F::from_u64(0x5EC2E7));
                Box::new(CcdMachine::new(1, secret, t, opts)) as BoxedMachine<M, _>
            })
            .collect();
        StepRunner::new(n, seed).run(machines).unwrap_all()
    }

    /// A dealer that shares a too-high-degree f but honest maskings and
    /// honest reveals of its own shares.
    fn cheating_dealer(
        n: usize,
        t: usize,
        bad_degree: usize,
        opts: CcdOpts,
        seed: u64,
    ) -> BoxedMachine<M, (VssVerdict, F)> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC4EA7);
        let f = Poly::<F>::random(bad_degree, &mut rng);
        let gs: Vec<Poly<F>> = (0..opts.rounds).map(|_| Poly::random(t, &mut rng)).collect();
        Box::new(from_fn(move |view: RoundView<'_, M>| match view.round {
            0 => {
                let mut out = view.outbox();
                for i in 1..=n {
                    let x = F::element(i as u64);
                    out.send(
                        i,
                        CcdMsg::Deal {
                            alpha: f.eval(x),
                            gammas: gs.iter().map(|g| g.eval(x)).collect(),
                        },
                    );
                }
                Step::Continue(out)
            }
            1 => {
                // Honest reveals of its own (share of the bad) dealing.
                let mut crng = StdRng::seed_from_u64(opts.challenge_seed);
                let x = F::element(1);
                let alpha = f.eval(x);
                let reveals: Vec<F> = gs
                    .iter()
                    .map(|g| if crng.random() { alpha + g.eval(x) } else { g.eval(x) })
                    .collect();
                let mut out = view.outbox();
                out.broadcast(CcdMsg::Reveal(reveals));
                Step::Continue(out)
            }
            _ => Step::Done((VssVerdict::Reject, F::zero())),
        }))
    }

    #[test]
    fn honest_dealer_accepted() {
        for (verdict, _) in run(7, 2, 8, 1, None) {
            assert_eq!(verdict, VssVerdict::Accept);
        }
    }

    #[test]
    fn shares_reconstruct() {
        let outs = run(7, 2, 8, 2, None);
        let shares: Vec<dprbg_poly::Share<F>> = outs
            .iter()
            .enumerate()
            .map(|(i, (_, a))| dprbg_poly::Share { x: F::element(i as u64 + 1), y: *a })
            .collect();
        assert_eq!(
            dprbg_poly::reconstruct_secret(&shares, 2).unwrap(),
            F::from_u64(0x5EC2E7)
        );
    }

    #[test]
    fn high_degree_dealer_rejected_whp() {
        // With k = 12 challenge rounds the cheat survives w.p. 2^-12;
        // a handful of seeds must all reject. (Honest parties only — the
        // cheating script's own output is a placeholder.)
        for seed in 10..16 {
            for (verdict, _) in run(7, 2, 12, seed, Some(4)).into_iter().skip(1) {
                assert_eq!(verdict, VssVerdict::Reject, "seed {seed}");
            }
        }
    }

    #[test]
    fn soundness_halves_per_round() {
        // With k = 1 a wrong-degree dealer survives ≈ half the time: the
        // challenge either hits f+g (reveals the cheat) or g (hides it).
        let trials = 60;
        let mut accepts = 0;
        for seed in 0..trials {
            let outs = run(4, 1, 1, 100 + seed, Some(2));
            if outs[1].0 == VssVerdict::Accept {
                accepts += 1;
            }
        }
        let rate = accepts as f64 / trials as f64;
        assert!(
            (0.25..=0.75).contains(&rate),
            "single-round survival rate {rate} should be ≈ 1/2"
        );
    }

    #[test]
    fn interpolation_cost_is_k_per_player() {
        // The headline comparison: CCD burns k interpolations where the
        // paper's VSS uses 1 (plus the challenge expose).
        let n = 4;
        let t = 1;
        let k = 16;
        let machines: Vec<BoxedMachine<M, (VssVerdict, F)>> = (1..=n)
            .map(|id| {
                let opts = CcdOpts { rounds: k, challenge_seed: 5 };
                let secret = (id == 1).then(|| F::from_u64(9));
                Box::new(CcdMachine::new(1, secret, t, opts)) as BoxedMachine<M, _>
            })
            .collect();
        let res = StepRunner::new(n, 50).run(machines);
        for pc in &res.report.per_party {
            assert_eq!(pc.cost.interpolations, k as u64, "party {}", pc.party);
        }
    }
}
