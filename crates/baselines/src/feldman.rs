//! Feldman's non-interactive VSS \[12\] — the paper's discrete-log
//! comparator.
//!
//! "Feldman's protocol depends on the unproven assumption of the hardness
//! of the discrete log problem. After defining the polynomial (à la
//! Shamir) and computing all the private shares f(i) of the players, the
//! dealer generates public information which aids in the verification. A
//! consequence of this is that both the dealer and the players have to
//! carry out t exponentiations (i.e., t·log p multiplications)." (§3.1.)
//!
//! Instantiated in the order-`q` subgroup of `F_p^*` for the safe prime
//! `p = 2q + 1` ([`SAFE_PRIME_P`]): the secret polynomial lives over
//! `Z_q` (exponents), the commitments `C_j = g^{a_j}` live in `F_p`, and
//! player `i` accepts iff `g^{f(i)} = Π_j C_j^{i^j} (mod p)`.
//! Exponentiations go through [`Field::pow`], so their `log p`
//! multiplications are charged to the cost counters — exactly the unit
//! the paper uses for this comparison.

use dprbg_field::{Field, Fp, SAFE_PRIME_GEN, SAFE_PRIME_P, SAFE_PRIME_Q};
use dprbg_metrics::WireSize;
use dprbg_poly::Poly;
use dprbg_sim::{Embeds, PartyId, RoundMachine, RoundView, Step};

/// The exponent field `Z_q` (the subgroup order).
pub type Exp = Fp<SAFE_PRIME_Q>;

/// The commitment group's ambient field `F_p`.
pub type Grp = Fp<SAFE_PRIME_P>;

/// Wire messages of Feldman VSS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FeldmanMsg {
    /// Private share `f(i)` (an exponent).
    Share(Exp),
    /// The public commitment vector `g^{a_0} … g^{a_t}` (broadcast).
    Commitments(Vec<Grp>),
}

impl WireSize for FeldmanMsg {
    fn wire_bytes(&self) -> usize {
        match self {
            FeldmanMsg::Share(s) => s.wire_bytes(),
            FeldmanMsg::Commitments(c) => c.wire_bytes(),
        }
    }
}

/// A player's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FeldmanVerdict {
    /// `g^{f(i)}` matched the committed polynomial-in-the-exponent.
    Accept,
    /// Mismatch (or missing data): the dealer cheated this player.
    Reject,
}

/// One Feldman VSS as a sans-IO round machine: `dealer` shares
/// `secret_if_dealer ∈ Z_q`; every party outputs `(verdict, my share)`.
///
/// One dealing round (private shares + broadcast commitments), then a
/// purely local verification of `t + 1` exponentiations per player
/// (≈ `t·log p` multiplications, all counted).
///
/// `None` as the secret means this party does not act as dealer even if
/// it carries the dealer id (adversarial wrappers deal manually).
pub struct FeldmanMachine<M> {
    dealer: PartyId,
    secret_if_dealer: Option<Exp>,
    t: usize,
    dealt: bool,
    _wire: std::marker::PhantomData<fn() -> M>,
}

impl<M> FeldmanMachine<M> {
    /// A machine for one VSS of `secret_if_dealer` from `dealer`.
    pub fn new(dealer: PartyId, secret_if_dealer: Option<Exp>, t: usize) -> Self {
        FeldmanMachine {
            dealer,
            secret_if_dealer,
            t,
            dealt: false,
            _wire: std::marker::PhantomData,
        }
    }
}

impl<M> RoundMachine<M> for FeldmanMachine<M>
where
    M: Clone + WireSize + Embeds<FeldmanMsg>,
{
    type Output = (FeldmanVerdict, Exp);

    fn round(&mut self, view: RoundView<'_, M>) -> Step<M, Self::Output> {
        let n = view.n;
        let t = self.t;
        let g = Grp::from_u64(SAFE_PRIME_GEN);
        if !self.dealt {
            self.dealt = true;
            let mut out = view.outbox();
            if let (true, Some(secret)) = (view.id == self.dealer, self.secret_if_dealer.take())
            {
                let f = Poly::random_with_constant(secret, t, view.rng);
                // Commit to every coefficient: t + 1 exponentiations.
                let commitments: Vec<Grp> =
                    (0..=t).map(|j| g.pow(f.coeff(j).to_u64() as u128)).collect();
                out.broadcast(<M as Embeds<FeldmanMsg>>::wrap(FeldmanMsg::Commitments(
                    commitments,
                )));
                for i in 1..=n {
                    let share = f.eval(Exp::element(i as u64));
                    out.send(i, <M as Embeds<FeldmanMsg>>::wrap(FeldmanMsg::Share(share)));
                }
            }
            return Step::Continue(out);
        }

        let dealer = self.dealer.checked_sub(1);
        let shares = view.inbox.first_per_sender(n, |rcv| {
            match <M as Embeds<FeldmanMsg>>::peek(rcv.msg()) {
                Some(FeldmanMsg::Share(s)) => Some(*s),
                _ => None,
            }
        });
        let commitments = view.inbox.first_per_sender(n, |rcv| {
            match <M as Embeds<FeldmanMsg>>::peek(rcv.msg()) {
                Some(FeldmanMsg::Commitments(c)) if rcv.broadcast && c.len() == t + 1 => Some(c),
                _ => None,
            }
        });
        let share = dealer.and_then(|d| *shares.get(d)?).unwrap_or_else(Exp::zero);
        let commitments = dealer.and_then(|d| *commitments.get(d)?);

        let Some(commitments) = commitments else {
            return Step::Done((FeldmanVerdict::Reject, share));
        };

        // Verify g^{f(i)} = Π_j C_j^{i^j}: t + 1 exponentiations.
        let i = view.id as u64;
        let lhs = g.pow(share.to_u64() as u128);
        let mut rhs = Grp::one();
        let mut ij: u128 = 1; // i^j as an integer exponent, reduced mod q.
        for c in commitments {
            rhs *= c.pow(ij);
            ij = (ij * i as u128) % SAFE_PRIME_Q as u128;
        }
        let verdict = if lhs == rhs { FeldmanVerdict::Accept } else { FeldmanVerdict::Reject };
        Step::Done((verdict, share))
    }

    fn phase_name(&self) -> &'static str {
        if self.dealt {
            "feldman/verify"
        } else {
            "feldman/deal"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dprbg_rng::rngs::StdRng;
    use dprbg_rng::SeedableRng;
    use dprbg_sim::{from_fn, BoxedMachine, StepRunner};

    type M = FeldmanMsg;

    fn run(n: usize, t: usize, seed: u64, cheat: bool) -> Vec<(FeldmanVerdict, Exp)> {
        let machines: Vec<BoxedMachine<M, (FeldmanVerdict, Exp)>> = (1..=n)
            .map(|id| {
                if id == 1 && cheat {
                    return cheating_dealer(n, t, seed);
                }
                let secret = (id == 1).then(|| Exp::from_u64(0xFACE));
                Box::new(FeldmanMachine::new(1, secret, t)) as BoxedMachine<M, _>
            })
            .collect();
        StepRunner::new(n, seed).run(machines).unwrap_all()
    }

    /// Commits to one polynomial but sends party 2 a share of another.
    fn cheating_dealer(n: usize, t: usize, seed: u64) -> BoxedMachine<M, (FeldmanVerdict, Exp)> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xFE1D);
        let f = Poly::<Exp>::random(t, &mut rng);
        Box::new(from_fn(move |view: RoundView<'_, M>| match view.round {
            0 => {
                let g = Grp::from_u64(SAFE_PRIME_GEN);
                let commitments: Vec<Grp> =
                    (0..=t).map(|j| g.pow(f.coeff(j).to_u64() as u128)).collect();
                let mut out = view.outbox();
                out.broadcast(FeldmanMsg::Commitments(commitments));
                for i in 1..=n {
                    let mut share = f.eval(Exp::element(i as u64));
                    if i == 2 {
                        share += Exp::one(); // the lie
                    }
                    out.send(i, FeldmanMsg::Share(share));
                }
                Step::Continue(out)
            }
            _ => Step::Done((FeldmanVerdict::Reject, Exp::zero())),
        }))
    }

    #[test]
    fn honest_dealer_accepted_by_all() {
        for (verdict, _) in run(7, 2, 1, false) {
            assert_eq!(verdict, FeldmanVerdict::Accept);
        }
    }

    #[test]
    fn shares_reconstruct() {
        let outs = run(7, 2, 2, false);
        let shares: Vec<dprbg_poly::Share<Exp>> = outs
            .iter()
            .enumerate()
            .map(|(i, (_, s))| dprbg_poly::Share {
                x: Exp::element(i as u64 + 1),
                y: *s,
            })
            .collect();
        assert_eq!(
            dprbg_poly::reconstruct_secret(&shares, 2).unwrap(),
            Exp::from_u64(0xFACE)
        );
    }

    #[test]
    fn bad_share_detected_by_its_holder() {
        let outs = run(7, 2, 3, true);
        assert_eq!(outs[1].0, FeldmanVerdict::Reject, "party 2 got the lie");
        // Parties with consistent shares accept — Feldman verification is
        // local, which is exactly why the dealer can cheat *some* player
        // without global detection (unlike the paper's global check).
        assert_eq!(outs[2].0, FeldmanVerdict::Accept);
    }

    /// The dealer sends party 2 its correct share, then a wrong one: the
    /// first `Share` is the dealer's word, as the first `Commitments` is,
    /// so party 2 accepts and keeps the correct share.
    #[test]
    fn a_second_share_counts_for_nothing() {
        let (n, t) = (7, 2);
        let mut rng = StdRng::seed_from_u64(6);
        let f = Poly::<Exp>::random(t, &mut rng);
        let correct = f.eval(Exp::element(2));
        let dealer = Box::new(from_fn(move |view: RoundView<'_, M>| match view.round {
            0 => {
                let g = Grp::from_u64(SAFE_PRIME_GEN);
                let commitments: Vec<Grp> =
                    (0..=t).map(|j| g.pow(f.coeff(j).to_u64() as u128)).collect();
                let mut out = view.outbox();
                out.broadcast(FeldmanMsg::Commitments(commitments));
                for i in 1..=n {
                    out.send(i, FeldmanMsg::Share(f.eval(Exp::element(i as u64))));
                }
                out.send(2, FeldmanMsg::Share(correct + Exp::one()));
                Step::Continue(out)
            }
            _ => Step::Done((FeldmanVerdict::Reject, Exp::zero())),
        })) as BoxedMachine<M, _>;
        let verifier = || Box::new(FeldmanMachine::new(1, None, t)) as BoxedMachine<M, _>;
        let machines: Vec<BoxedMachine<M, (FeldmanVerdict, Exp)>> =
            std::iter::once(dealer).chain((2..=n).map(|_| verifier())).collect();
        let outs = StepRunner::new(n, 6).run(machines).unwrap_all();
        assert_eq!(outs[1], (FeldmanVerdict::Accept, correct), "party 2 keeps the first share");
        for (verdict, _) in &outs[2..] {
            assert_eq!(*verdict, FeldmanVerdict::Accept);
        }
    }

    #[test]
    fn exponentiation_cost_scales_with_t_log_p() {
        // Each verification is t+1 exponentiations of ~62-bit exponents:
        // ≈ t·log p multiplications — vastly more than the paper's VSS.
        let n = 7;
        let t = 2;
        let machines: Vec<BoxedMachine<M, (FeldmanVerdict, Exp)>> = (1..=n)
            .map(|id| {
                let secret = (id == 1).then(|| Exp::from_u64(5));
                Box::new(FeldmanMachine::new(1, secret, t)) as BoxedMachine<M, _>
            })
            .collect();
        let res = StepRunner::new(n, 4).run(machines);
        // The dealer commits to t+1 full-size coefficients: (t+1)·log p
        // multiplications at ~62-bit exponents.
        let dealer_cost = &res.report.per_party[0].cost;
        assert!(
            dealer_cost.field_muls > (t as u64 + 1) * 62,
            "dealer muls = {} should reflect (t+1) log p",
            dealer_cost.field_muls
        );
        // A verifier computes at least the full-size g^{f(i)}: ~log p
        // multiplications (its C_j^{i^j} exponents are small for small i,
        // so the paper's t·log p is the large-n shape).
        let verifier = &res.report.per_party[2].cost;
        assert!(
            verifier.field_muls > 60,
            "verifier muls = {} should reflect log p",
            verifier.field_muls
        );
        assert_eq!(verifier.interpolations, 0, "Feldman interpolates nothing");
    }

    #[test]
    fn silent_dealer_rejected() {
        let n = 4;
        let machines: Vec<BoxedMachine<M, (FeldmanVerdict, Exp)>> = (1..=n)
            .map(|id| {
                if id == 1 {
                    // The dealer never deals.
                    Box::new(from_fn(|view: RoundView<'_, M>| match view.round {
                        0 => Step::Continue(view.outbox()),
                        _ => Step::Done((FeldmanVerdict::Reject, Exp::zero())),
                    })) as BoxedMachine<M, _>
                } else {
                    Box::new(FeldmanMachine::new(1, None, 1)) as BoxedMachine<M, _>
                }
            })
            .collect();
        for (verdict, _) in StepRunner::new(n, 5).run(machines).unwrap_all() {
            assert_eq!(verdict, FeldmanVerdict::Reject);
        }
    }
}
