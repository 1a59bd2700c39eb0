//! Committee-sampled coin generation: scaling the generator to
//! committees of hundreds.
//!
//! The paper's protocols cost `O(n²)` links per round because every party
//! deals, verifies and exposes. For large networks the standard scaling
//! move (Feige-style sortition) is to *sample* a committee of size
//! `c ≪ n`, run the expensive inner protocol among the committee only,
//! and publish the result outward — trading a little soundness (the
//! sample could, with small probability, contain more than the tolerable
//! number of corrupt parties) for a `(c/n)²` communication factor.
//!
//! The sampling seed is **self-referential** in exactly the sense of the
//! paper's bootstrap (Fig. 1): a coin exposed from the previous beacon
//! output seeds the election of the committee that generates the next
//! batch. An adversary that cannot predict the beacon cannot aim its
//! corruptions at the next committee.
//!
//! Three pieces:
//!
//! * [`elect_committee`] — deterministic seeded sampling (partial
//!   Fisher–Yates), identical at every party given the same beacon value;
//! * [`committee_soundness_error`] — the hypergeometric tail
//!   `P[X > t_c]` quantifying the extra failure probability the sampling
//!   introduces, surfaced by the experiment harness next to its Wilson
//!   confidence intervals;
//! * [`CommitteeCoin`] — the round machine: members run the full
//!   Coin-Gen pipeline inside a [`Subnet`] at `(c, t_c)`, expose the
//!   batch committee-internally, and publish the values to all `n`
//!   parties; everyone accepts the vector reported by ≥ `t_c + 1`
//!   distinct members (any such quorum contains an honest member).

use std::mem;

use dprbg_field::Field;
use dprbg_metrics::WireSize;
use dprbg_rng::rngs::StdRng;
use dprbg_rng::{RngExt, SeedableRng};
use dprbg_sim::{
    looping, Embeds, LoopControl, MachineExt, PartyId, RoundMachine, RoundView, Step, Subnet,
};

use crate::coin::{CoinWallet, ExposeMachine, ExposeVia};
use crate::coin_gen::{CoinBatch, CoinGenConfig, CoinGenMachine, CoinGenMsg};
use crate::errors::CoinGenError;
use crate::params::Params;

/// The committee-internal tolerance for a committee of size `c` under
/// the point-to-point model's `c ≥ 6·t_c + 1` requirement.
pub fn committee_threshold(c: usize) -> usize {
    c.saturating_sub(1) / 6
}

/// Elect a committee of `c` of the `n` parties from a beacon-derived
/// `seed`: a partial Fisher–Yates shuffle, so every subset is equally
/// likely and every party computes the same (sorted) committee from the
/// same seed.
///
/// # Panics
///
/// If `c` is zero or exceeds `n`.
pub fn elect_committee(seed: u64, n: usize, c: usize) -> Vec<PartyId> {
    assert!(c >= 1 && c <= n, "committee size {c} out of range for n = {n}");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pool: Vec<PartyId> = (1..=n).collect();
    for i in 0..c {
        let j = rng.random_range(i as u64..n as u64) as usize;
        pool.swap(i, j);
    }
    let mut committee = pool;
    committee.truncate(c);
    committee.sort_unstable();
    committee
}

/// The sampling soundness error: the probability that a uniformly
/// sampled committee of size `c`, drawn from `n` parties of which `f`
/// are corrupt, contains **more than** `t_c` corrupt members — i.e. the
/// hypergeometric tail `P[X > t_c]` for `X ~ Hyp(n, f, c)`.
///
/// This is the extra failure probability committee sampling adds on top
/// of the inner protocol's own error; the experiment harness reports it
/// alongside the empirical Wilson intervals so the two error sources can
/// be compared on one axis.
pub fn committee_soundness_error(n: usize, f: usize, c: usize, t_c: usize) -> f64 {
    assert!(f <= n && c <= n, "f = {f}, c = {c} must not exceed n = {n}");
    // ln k! table up to n: exact enough for n in the hundreds.
    let mut ln_fact = vec![0.0f64; n + 1];
    for k in 1..=n {
        ln_fact[k] = ln_fact[k - 1] + (k as f64).ln();
    }
    let ln_choose = |a: usize, b: usize| -> f64 {
        debug_assert!(b <= a);
        ln_fact[a] - ln_fact[b] - ln_fact[a - b]
    };
    let denom = ln_choose(n, c);
    let lo = (t_c + 1).max(c.saturating_sub(n - f));
    let hi = f.min(c);
    let mut tail = 0.0f64;
    for k in lo..=hi {
        tail += (ln_choose(f, k) + ln_choose(n - f, c - k) - denom).exp();
    }
    tail.min(1.0)
}

/// A member's publication of the committee's exposed coin values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoinReport<F: Field>(pub Vec<F>);

impl<F: Field> WireSize for CoinReport<F> {
    fn wire_bytes(&self) -> usize {
        self.0.iter().map(WireSize::wire_bytes).sum::<usize>() + 2
    }
}

/// The canonical wire type of a committee run: committee-internal
/// Coin-Gen traffic plus the outward publications.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommitteeMsg<F: Field> {
    /// Committee-internal traffic (rank-addressed via [`Subnet`]).
    Inner(CoinGenMsg<F>),
    /// A member's outward publication.
    Report(CoinReport<F>),
}

impl<F: Field> WireSize for CommitteeMsg<F> {
    fn wire_bytes(&self) -> usize {
        match self {
            CommitteeMsg::Inner(m) => m.wire_bytes(),
            CommitteeMsg::Report(m) => m.wire_bytes(),
        }
    }
}

impl<F: Field> Embeds<CoinGenMsg<F>> for CommitteeMsg<F> {
    fn wrap(inner: CoinGenMsg<F>) -> Self {
        CommitteeMsg::Inner(inner)
    }
    fn peek(&self) -> Option<&CoinGenMsg<F>> {
        match self {
            CommitteeMsg::Inner(m) => Some(m),
            _ => None,
        }
    }
}

impl<F: Field> Embeds<CoinReport<F>> for CommitteeMsg<F> {
    fn wrap(inner: CoinReport<F>) -> Self {
        CommitteeMsg::Report(inner)
    }
    fn peek(&self) -> Option<&CoinReport<F>> {
        match self {
            CommitteeMsg::Report(m) => Some(m),
            _ => None,
        }
    }
}

/// Why a committee run produced no accepted vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommitteeError {
    /// This member's own pipeline failed (it still kept collecting, so a
    /// quorum from the other members may have been accepted regardless).
    Inner(CoinGenError),
    /// No vector reached `t_c + 1` distinct member reports by the
    /// deadline round.
    NoQuorum {
        /// The round at which collection gave up.
        deadline: u64,
    },
}

/// Committee-internal pipeline: Coin-Gen at `(c, t_c)`, then expose every
/// batch coin so the values can be published outward.
fn member_pipeline<F: Field>(
    cfg: CoinGenConfig,
    wallet: CoinWallet<F>,
) -> impl RoundMachine<CoinGenMsg<F>, Output = Result<Vec<F>, CoinGenError>> {
    let t = cfg.params.t;
    CoinGenMachine::new(cfg, wallet).then(
        move |(_, res): (CoinWallet<F>, Result<CoinBatch<F>, CoinGenError>)| {
            let (mut shares, err) = match res {
                Ok(batch) => (batch.shares, None),
                Err(e) => (Vec::new(), Some(e)),
            };
            shares.reverse(); // pop from the back = original order
            looping((shares, Vec::new(), err), move |(mut shares, vals, err)| {
                if let Some(e) = err {
                    return LoopControl::Break(Err(e));
                }
                match shares.pop() {
                    None => LoopControl::Break(Ok(vals)),
                    Some(s) => LoopControl::Continue(Box::new(
                        ExposeMachine::new(s, t, ExposeVia::PointToPoint).map(
                            move |r| match r {
                                Ok(v) => {
                                    let mut vals = vals;
                                    vals.push(v);
                                    (shares, vals, None)
                                }
                                Err(e) => (Vec::new(), vals, Some(CoinGenError::Coin(e))),
                            },
                        ),
                    )),
                }
            })
        },
    )
}

type MemberSubnet<F> =
    Subnet<Box<dyn RoundMachine<CoinGenMsg<F>, Output = Result<Vec<F>, CoinGenError>> + Send>, CoinGenMsg<F>>;

enum CcStage<F: Field> {
    /// A committee member driving its rank-addressed inner pipeline.
    Member(MemberSubnet<F>),
    /// Everyone: collect member reports until a quorum or the deadline.
    Collect,
    Finished,
}

/// The committee coin generation machine (member and outsider sides).
///
/// Members run the full Coin-Gen pipeline inside a [`Subnet`] of the
/// `c` committee members (so the inner traffic costs `O(c²)` links, not
/// `O(n²)`), expose the resulting batch committee-internally, and
/// publish the value vector to all `n` parties. Every party — member or
/// not — accepts the first vector reported by at least `t_c + 1`
/// distinct committee members: with at most `t_c` corrupt members in the
/// sample, any such quorum contains an honest reporter, so acceptance is
/// sound exactly when the sample is good (see
/// [`committee_soundness_error`] for the probability it is not).
///
/// All parties must construct the machine from the same committee (same
/// beacon seed) in the same round. Outsiders idle (empty outboxes) while
/// the committee works; the `deadline` bounds how long they wait.
pub struct CommitteeCoin<F: Field> {
    committee: Vec<PartyId>,
    t_c: usize,
    deadline: u64,
    /// Per-rank received report (dedup by first arrival).
    reports: Vec<Option<Vec<F>>>,
    /// This member's own pipeline failure, if any (reported if no quorum
    /// forms either).
    own_failure: Option<CoinGenError>,
    stage: CcStage<F>,
}

impl<F: Field> CommitteeCoin<F> {
    /// Build this party's side of a committee run.
    ///
    /// `committee` must be the (sorted) output of [`elect_committee`];
    /// `cfg` holds the committee-internal parameters (`n = c`,
    /// `t = t_c`); `wallet_if_member` must be `Some` exactly when
    /// `my_id` is in the committee (wallets are dealt per committee
    /// *rank* under `cfg.params`).
    ///
    /// # Panics
    ///
    /// If the membership/wallet combination is inconsistent or `cfg`
    /// does not match the committee size.
    pub fn new(
        committee: Vec<PartyId>,
        my_id: PartyId,
        cfg: CoinGenConfig,
        wallet_if_member: Option<CoinWallet<F>>,
        deadline: u64,
    ) -> Self {
        let Params { n: c, t: t_c } = cfg.params;
        assert_eq!(c, committee.len(), "cfg.params.n must equal the committee size");
        let is_member = committee.contains(&my_id);
        assert_eq!(
            is_member,
            wallet_if_member.is_some(),
            "wallet must be supplied iff this party is a committee member"
        );
        let stage = match wallet_if_member {
            Some(wallet) => CcStage::Member(Subnet::new(
                committee.clone(),
                my_id,
                Box::new(member_pipeline(cfg, wallet))
                    as Box<
                        dyn RoundMachine<CoinGenMsg<F>, Output = Result<Vec<F>, CoinGenError>>
                            + Send,
                    >,
            )),
            None => CcStage::Collect,
        };
        CommitteeCoin {
            reports: vec![None; committee.len()],
            committee,
            t_c,
            deadline,
            own_failure: None,
            stage,
        }
    }

    /// Record this round's reports; `Some` once a quorum exists.
    fn absorb<M>(&mut self, view: &RoundView<'_, M>) -> Option<Vec<F>>
    where
        M: Embeds<CoinReport<F>>,
    {
        for r in view.inbox.iter() {
            if let Some(CoinReport(vals)) = <M as Embeds<CoinReport<F>>>::peek(r.msg()) {
                if let Ok(rank) = self.committee.binary_search(&r.from) {
                    if self.reports[rank].is_none() {
                        self.reports[rank] = Some(vals.clone());
                    }
                }
            }
        }
        let filled: Vec<&Vec<F>> = self.reports.iter().flatten().collect();
        for candidate in &filled {
            let support = filled.iter().filter(|v| v == &candidate).count();
            if support > self.t_c {
                return Some((**candidate).clone());
            }
        }
        None
    }
}

impl<M, F> RoundMachine<M> for CommitteeCoin<F>
where
    M: Clone + WireSize + Embeds<CoinGenMsg<F>> + Embeds<CoinReport<F>>,
    F: Field,
{
    type Output = Result<Vec<F>, CommitteeError>;

    fn round(&mut self, mut view: RoundView<'_, M>) -> Step<M, Self::Output> {
        match mem::replace(&mut self.stage, CcStage::Finished) {
            CcStage::Member(mut subnet) => match subnet.round(view.reborrow()) {
                Step::Continue(out) => {
                    self.stage = CcStage::Member(subnet);
                    Step::Continue(out)
                }
                Step::Done(res) => {
                    // Publish on success; on failure keep collecting (the
                    // other members' quorum can still land).
                    let mut out = view.outbox();
                    match res {
                        Ok(vals) => {
                            out.send_to_all(<M as Embeds<CoinReport<F>>>::wrap(CoinReport(
                                vals,
                            )));
                        }
                        Err(e) => self.own_failure = Some(e),
                    }
                    self.stage = CcStage::Collect;
                    Step::Continue(out)
                }
            },
            CcStage::Collect => {
                if let Some(vals) = self.absorb(&view) {
                    return Step::Done(Ok(vals));
                }
                if view.round >= self.deadline {
                    let err = match self.own_failure.take() {
                        Some(e) => CommitteeError::Inner(e),
                        None => CommitteeError::NoQuorum { deadline: self.deadline },
                    };
                    return Step::Done(Err(err));
                }
                self.stage = CcStage::Collect;
                Step::Continue(view.outbox())
            }
            #[expect(clippy::panic, reason = "driver contract: round() is never called after Done")]
            CcStage::Finished => panic!("CommitteeCoin driven past completion"),
        }
    }

    fn phase_name(&self) -> &'static str {
        match &self.stage {
            CcStage::Member(_) => "committee/inner",
            CcStage::Collect => "committee/collect",
            CcStage::Finished => "committee/finished",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dealer::TrustedDealer;
    use dprbg_field::Gf2k;
    use dprbg_sim::{BoxedMachine, StepRunner};

    type F = Gf2k<32>;
    type M = CommitteeMsg<F>;

    /// A full fleet for one committee run: members with rank-dealt
    /// wallets, outsiders idle-collecting.
    fn fleet(
        n: usize,
        committee: &[PartyId],
        cfg: CoinGenConfig,
        seed: u64,
        deadline: u64,
    ) -> Vec<BoxedMachine<M, Result<Vec<F>, CommitteeError>>> {
        let mut wallets = TrustedDealer::deal_wallets::<F>(cfg.params, 4, seed);
        (1..=n)
            .map(|id| {
                let wallet = committee
                    .iter()
                    .position(|&m| m == id)
                    .map(|rank| mem::take(&mut wallets[rank]));
                Box::new(CommitteeCoin::new(
                    committee.to_vec(),
                    id,
                    cfg,
                    wallet,
                    deadline,
                )) as BoxedMachine<M, _>
            })
            .collect()
    }

    #[test]
    fn election_is_deterministic_sorted_and_in_range() {
        let n = 129;
        let c = 31;
        let a = elect_committee(0xBEEF, n, c);
        let b = elect_committee(0xBEEF, n, c);
        assert_eq!(a, b, "same seed, same committee");
        assert_eq!(a.len(), c);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "sorted, duplicate-free");
        assert!(a.iter().all(|&p| (1..=n).contains(&p)));
        let other = elect_committee(0xBEEF + 1, n, c);
        assert_ne!(a, other, "different seed, different committee (w.h.p.)");
    }

    #[test]
    fn soundness_error_matches_hand_computation() {
        // n = 5, f = 2, c = 2, t_c = 0: P[X ≥ 1] = 1 − C(3,2)/C(5,2)
        //                                        = 1 − 3/10 = 0.7.
        let eps = committee_soundness_error(5, 2, 2, 0);
        assert!((eps - 0.7).abs() < 1e-12, "got {eps}");
        // Monotone: more tolerance, less error.
        let loose = committee_soundness_error(129, 21, 31, 10);
        let tight = committee_soundness_error(129, 21, 31, 3);
        assert!(loose < tight);
        // Impossible tail is exactly zero.
        assert_eq!(committee_soundness_error(10, 1, 5, 1), 0.0);
    }

    #[test]
    fn committee_run_is_unanimous_across_all_parties() {
        let n = 25;
        let c = 7;
        let committee = elect_committee(42, n, c);
        let cfg = CoinGenConfig {
            params: Params::p2p_model(c, committee_threshold(c)).unwrap(),
            batch_size: 5,
        };
        let res = StepRunner::new(n, 7).run(fleet(n, &committee, cfg, 11, 200));
        let outs = res.unwrap_all();
        let accepted = outs[0].as_ref().expect("quorum must form").clone();
        assert_eq!(accepted.len(), 5, "batch size worth of values");
        for out in &outs {
            assert_eq!(out.as_ref().unwrap(), &accepted, "outsiders agree with members");
        }
    }

    #[test]
    fn quorum_deadline_failure_is_clean() {
        // An impossible deadline: collection gives up before any member
        // can publish.
        let n = 25;
        let c = 7;
        let committee = elect_committee(43, n, c);
        let cfg = CoinGenConfig {
            params: Params::p2p_model(c, committee_threshold(c)).unwrap(),
            batch_size: 5,
        };
        let res = StepRunner::new(n, 8).run(fleet(n, &committee, cfg, 12, 1));
        for (idx, out) in res.unwrap_all().into_iter().enumerate() {
            let id = idx + 1;
            if !committee.contains(&id) {
                assert_eq!(out, Err(CommitteeError::NoQuorum { deadline: 1 }));
            }
        }
    }
}
