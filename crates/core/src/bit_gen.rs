//! Protocol Bit-Gen (Fig. 4): sealed-bit generation, point-to-point model
//! — and the one sharing-check machine Figs. 2 and 3 run on too.
//!
//! §4 model: `n ≥ 6t + 1`, **no broadcast channel**. "Bit-Gen enables a
//! dealer to share M secrets, while allowing the players to verify that
//! the dealer has shared proper secrets." Because announcements travel on
//! private channels only, players reach merely *local* verdicts — the
//! output is the pair `(F(x), S)` per instance, which Coin-Gen later
//! reconciles via the agreement-graph/clique machinery.
//!
//! Per instance (dealer `D`):
//!
//! 1. `D` defines `f_1 … f_M` (degree ≤ t, random — these are the future
//!    coins) and sends `P_i` the values `f_j(i)`.
//! 2. `r ← Coin-Expose(k-ary-coin)` — the same `r` serves all `n`
//!    parallel instances (the computation saving noted in Theorem 2).
//! 3. `P_i` computes the Horner combination `β_i` and sends it to all
//!    players.
//! 4. `S ← {β_{i1}, …}` as received.
//! 5. Using the Berlekamp–Welch decoder, interpolate `F(x)` through the
//!    shares in `S`; if `deg F ≤ t` and ≥ `n − t` values in `S` satisfy
//!    `F(i_j) = β_{i_j}`, output `(F(x), S)`, else `(⊥, S)`.
//!
//! Soundness (Lemma 5): a dealer whose sharing is invalid on ≥ `n − 2t`
//! honest players survives with probability ≤ `M/p`. Cost (Lemma 6):
//! `O(M(t + 2)k log k)` additions, 2 interpolations, 3 rounds,
//! `nMk + 2n²k` bits; Corollary 2: amortized `≈ n` bits of communication
//! per generated bit.
//!
//! Like Batch-VSS, the combination is blinded with one extra masking
//! polynomial per dealer by default (see DESIGN.md deviation #2).
//!
//! # One machine for Figs. 2, 3 and 4
//!
//! Fig. 2 is Fig. 3 at `M = 1`, and Fig. 4 is Fig. 3's check run over
//! private channels with a Berlekamp–Welch verdict. [`BitGenMachine`] is
//! that check — deal, expose the challenge, combine, exchange `β`, judge —
//! and each figure is one of its constructors:
//!
//! | Constructor | Dealers | `M` | Transport | Acceptance |
//! |---|---|---|---|---|
//! | [`vss`](crate::vss::vss()) | one | 1 | broadcast | [`VssMode`] |
//! | [`batch_vss`](crate::batch_vss::batch_vss()) | one | `M` | broadcast | [`VssMode`], or Batch-VSS(l)'s subset |
//! | [`BitGenMachine::new`] | any set | `M` | point to point | robust |
//!
//! Fig. 3 at any `M` (so Fig. 2 too) also has a verify-only entry from
//! held shares, [`batch_vss_verify`](crate::batch_vss::batch_vss_verify).
//! Every verdict goes through one judge, [`judge`] (see [`Acceptance`]).

use std::mem;
use std::sync::Arc;

use dprbg_field::Field;
use dprbg_metrics::WireSize;
use dprbg_poly::{column_points, interpolate, party_points, BatchDecoder, Poly};
use dprbg_rng::rngs::StdRng;
use dprbg_sim::{Embeds, PartyId, RoundMachine, RoundView, Step};

use crate::batch_vss::BatchShares;
use crate::coin::{ExposeMachine, ExposeMsg, ExposeVia, SealedShare};
use crate::errors::CoinError;
use crate::vss::{VssMode, VssVerdict};

/// Wire messages of the sharing check (the `n` parallel Bit-Gen
/// instances, or one VSS / Batch-VSS instance).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BitGenMsg<F: Field> {
    /// Round 1: the dealer's share vector for the recipient (instance =
    /// sender).
    Deal {
        /// `f_1(i) … f_M(i)`, one allocation from dealing to the
        /// recipient's record (charged as its `M` elements on the wire).
        alphas: Arc<[F]>,
        /// The masking share `g(i)`.
        gamma: F,
    },
    /// Coin-Expose traffic for the shared challenge.
    Expose(ExposeMsg<F>),
    /// Broadcast transport: the sender's combination in the one instance
    /// (Lemmas 2 and 4 count it as `k` bits).
    Beta(F),
    /// Point-to-point transport: the sender's combined shares, one entry
    /// per dealer instance it holds valid shares in (batched into a single
    /// message of size ≈ nk — Theorem 2's "n² messages of size kn").
    Betas(Vec<(PartyId, F)>),
}

impl<F: Field> WireSize for BitGenMsg<F> {
    fn wire_bytes(&self) -> usize {
        match self {
            BitGenMsg::Deal { alphas, gamma } => alphas.wire_bytes() + gamma.wire_bytes(),
            BitGenMsg::Expose(e) => e.wire_bytes(),
            BitGenMsg::Beta(b) => b.wire_bytes(),
            // Dealer tags are log n bits; charge one byte per entry.
            BitGenMsg::Betas(entries) => {
                entries.iter().map(|(_, b)| 1 + b.wire_bytes()).sum()
            }
        }
    }
}

impl<F: Field> Embeds<ExposeMsg<F>> for BitGenMsg<F> {
    fn wrap(inner: ExposeMsg<F>) -> Self {
        BitGenMsg::Expose(inner)
    }
    fn peek(&self) -> Option<&ExposeMsg<F>> {
        match self {
            BitGenMsg::Expose(e) => Some(e),
            _ => None,
        }
    }
}

/// This party's record of one dealer's instance — the `(F(x), S)` output
/// of Fig. 4 plus the shares the party must keep for Coin-Expose.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DealerView<F: Field> {
    /// The instance's dealer.
    pub dealer: PartyId,
    /// My shares `f_1(i) … f_M(i)` from this dealer (empty if the dealer
    /// stayed silent or sent a malformed vector): the delivered handle.
    pub alphas: Arc<[F]>,
    /// My masking share `g(i)`.
    pub gamma: F,
    /// My own combination `β_i` (what I sent; `None` if I had no valid
    /// shares).
    pub my_beta: Option<F>,
    /// The set `S`: combination values received, indexed by party − 1.
    pub betas: Vec<Option<F>>,
    /// `F(x)` if the instance was accepted (Fig. 4: degree ≤ t, ≥ n − t
    /// agreement), else `⊥`.
    pub check_poly: Option<Poly<F>>,
    /// Whether the decode was clean: every received β lies on
    /// `check_poly`, as the decoder's clean path verified. `false` when
    /// `check_poly` is `⊥` or some β is off it.
    pub clean: bool,
}

impl<F: Field> DealerView<F> {
    pub(crate) fn empty(dealer: PartyId, n: usize) -> Self {
        DealerView {
            dealer,
            alphas: Arc::default(),
            gamma: F::zero(),
            my_beta: None,
            betas: vec![None; n],
            check_poly: None,
            clean: false,
        }
    }

    /// The parties among `at` (0-based) whose β in this instance lies on
    /// `f`. A clean view answers for its own `check_poly` without
    /// evaluating anything; any other `f` is evaluated with one
    /// [`Field::eval_points`] over exactly the points in `at`.
    pub(crate) fn fitters(&self, f: &Poly<F>, points: &[F], at: Vec<usize>) -> Vec<usize> {
        if self.clean && self.check_poly.as_ref() == Some(f) {
            return at.into_iter().filter(|&j| self.betas[j].is_some()).collect();
        }
        let xs: Vec<F> = at.iter().map(|&j| points[j]).collect();
        let mut ys = vec![F::zero(); xs.len()];
        F::eval_points(f.coeffs(), &xs, &mut ys);
        at.into_iter().zip(ys).filter(|&(j, y)| self.betas[j] == Some(y)).map(|(j, _)| j).collect()
    }
}

/// The result of running the sharing check: one view per possible
/// dealer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitGenRun<F: Field> {
    /// The exposed challenge `r`.
    pub r: F,
    /// One view per dealer instance, indexed by dealer − 1.
    pub views: Vec<DealerView<F>>,
}

impl<F: Field> BitGenRun<F> {
    /// `dealer`'s instance, or `None` if `dealer` is not a party.
    pub(crate) fn into_view(self, dealer: PartyId) -> Option<DealerView<F>> {
        self.views.into_iter().nth(dealer.checked_sub(1)?)
    }
}

/// What the dealers share — fresh random coins (Coin-Gen) or zero
/// sharings (the proactive refresh of [`crate::refresh`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BitGenMode {
    /// Fig. 4 verbatim: `M` uniformly random secrets, blinded combination.
    #[default]
    RandomCoins,
    /// Proactive refresh: `M` sharings of **zero** (`f_j(0) = 0`),
    /// unblinded, and acceptance additionally requires `F(0) = 0` — so a
    /// cheating dealer cannot shift existing coin values (w.p. > 1 − M/p).
    ZeroRefresh,
}

/// When an instance is accepted: the last step of Figs. 2, 3 and 4.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Acceptance {
    /// Figs. 2 and 3 verbatim: all `n` combinations lie on one degree-≤t
    /// polynomial (interpolated through all `n`).
    Strict,
    /// Fig. 4 step 5: some degree-≤t polynomial fits ≥ `n − t` of the
    /// received combinations (Berlekamp–Welch, error budget
    /// `min(t, m − (n − t))` for `m` received).
    Robust,
    /// `Batch-VSS(l)`: a degree-≤t polynomial passes through the
    /// combinations of the designated parties (at least `t + 1`, all of
    /// them received); nobody else's value is looked at.
    Subset(Vec<PartyId>),
}

impl From<VssMode> for Acceptance {
    fn from(mode: VssMode) -> Self {
        match mode {
            VssMode::Strict => Acceptance::Strict,
            VssMode::Robust => Acceptance::Robust,
        }
    }
}

/// What a dealer deals, in the order its coefficients are drawn.
#[derive(Debug, Clone)]
pub(crate) enum Secrets<F> {
    /// `M` random secrets, then the blind: `(M + 1)(t + 1)` draws.
    Random,
    /// `M` sharings of zero, unblinded.
    Zero,
    /// The given secrets (present at the dealer only), then the blind.
    Given(Option<Vec<F>>),
}

/// Trace labels of the stages (deal, record, challenge, combine, judge,
/// finished) per transport: Bit-Gen's over point to point, Batch-VSS's
/// over broadcast. Bit-Gen names each stage after the round it finishes.
const POINT_TO_POINT_PHASES: [&str; 6] = [
    "bit-gen/deal", "bit-gen/record", "bit-gen/record",
    "bit-gen/challenge", "bit-gen/combine", "bit-gen/finished",
];
const BROADCAST_PHASES: [&str; 6] = [
    "batch-vss/deal", "batch-vss/record", "batch-vss/challenge",
    "batch-vss/combine", "batch-vss/judge", "batch-vss/finished",
];

/// The sharing check as a sans-IO round machine: deal, challenge expose
/// (an embedded [`ExposeMachine`]), combination exchange, verdict —
/// Lemma 6's exact 3 rounds, one `Continue` each (2 for the verify-only
/// entries, which start at the challenge).
///
/// Every party in `dealers` deals `m` secrets, all instances sharing one
/// challenge coin (Coin-Gen step 3: "using the same coin r for all
/// invocations"). The output propagates [`CoinError`] from the challenge
/// expose. The module docs list the constructors.
pub struct BitGenMachine<M, F: Field> {
    t: usize,
    m: usize,
    dealers: Vec<PartyId>,
    secrets: Secrets<F>,
    rule: Acceptance,
    via: ExposeVia,
    stage: Stage<M, F>,
}

enum Stage<M, F: Field> {
    /// First call: deal (if a dealer) and bank the challenge share.
    Deal { coin: SealedShare<F> },
    /// Inbox holds deals: record them, then start the challenge expose.
    Record { coin: SealedShare<F> },
    /// Verify-only: the shares are held already; start the challenge.
    Challenge { coin: SealedShare<F>, held: BatchShares<F> },
    /// Inbox holds expose shares: decode `r`, send the combinations.
    Combine { expose: ExposeMachine<M, F>, views: Vec<DealerView<F>> },
    /// Inbox holds combinations: fill `S` and judge every instance.
    Judge { r: F, views: Vec<DealerView<F>> },
    Finished,
}

impl<M, F: Field> BitGenMachine<M, F> {
    /// Protocol Bit-Gen (Fig. 4): the parallel instances dealt by
    /// `dealers`, `m` secrets each, sharing the challenge `coin`, over
    /// point-to-point channels with the robust verdict.
    pub fn new(
        t: usize,
        m: usize,
        coin: SealedShare<F>,
        dealers: Vec<PartyId>,
        mode: BitGenMode,
    ) -> Self {
        let secrets = match mode {
            BitGenMode::RandomCoins => Secrets::Random,
            BitGenMode::ZeroRefresh => Secrets::Zero,
        };
        BitGenMachine {
            t,
            m,
            dealers,
            secrets,
            rule: Acceptance::Robust,
            via: ExposeVia::PointToPoint,
            stage: Stage::Deal { coin },
        }
    }

    /// One dealer's sharing checked over the §3 broadcast channel (Figs. 2
    /// and 3), dealt by this machine or verified from held shares.
    pub(crate) fn broadcast(
        dealer: PartyId,
        t: usize,
        m: usize,
        coin: SealedShare<F>,
        rule: Acceptance,
        start: Start<F>,
    ) -> Self {
        let (secrets, stage) = match start {
            Start::Deal(secrets) => (Secrets::Given(secrets), Stage::Deal { coin }),
            Start::Held(held) => (Secrets::Given(None), Stage::Challenge { coin, held }),
        };
        BitGenMachine {
            t,
            m,
            dealers: vec![dealer],
            secrets,
            rule,
            via: ExposeVia::Broadcast,
            stage,
        }
    }
}

/// Where a single-dealer check starts.
pub(crate) enum Start<F: Field> {
    /// The dealing round, with the secrets at the dealer (`None`
    /// elsewhere, or at a dealer that stays silent).
    Deal(Option<Vec<F>>),
    /// The challenge, with the shares this party already holds.
    Held(BatchShares<F>),
}

impl<M, F> RoundMachine<M> for BitGenMachine<M, F>
where
    M: Clone + WireSize + Embeds<ExposeMsg<F>> + Embeds<BitGenMsg<F>>,
    F: Field,
{
    type Output = Result<BitGenRun<F>, CoinError>;

    fn round(&mut self, mut view: RoundView<'_, M>) -> Step<M, Self::Output> {
        let n = view.n;
        match mem::replace(&mut self.stage, Stage::Finished) {
            Stage::Deal { coin } => {
                // Round 1: deal. Each dealer draws its secret polynomials
                // and the masking polynomial — t + 1 coefficients each,
                // polynomial by polynomial into one buffer — and sends
                // each player its share vector.
                let mut out = view.outbox();
                if self.dealers.contains(&view.id) {
                    if let Some((coeffs, m)) = self.coefficients(view.rng) {
                        let blinded = !matches!(self.secrets, Secrets::Zero);
                        let shares = deal_shares(&coeffs, m, blinded, &party_points(n));
                        for (i, (alphas, gamma)) in (1..=n).zip(shares) {
                            out.send(
                                i,
                                <M as Embeds<BitGenMsg<F>>>::wrap(BitGenMsg::Deal {
                                    alphas,
                                    gamma,
                                }),
                            );
                        }
                    }
                }
                self.stage = Stage::Record { coin };
                Step::Continue(out)
            }
            Stage::Record { coin } => {
                let deals = view.inbox.first_per_sender(n, |r| {
                    match <M as Embeds<BitGenMsg<F>>>::peek(r.msg()) {
                        Some(BitGenMsg::Deal { alphas, gamma })
                            if alphas.len() == self.m && self.dealers.contains(&r.from) =>
                        {
                            Some((alphas, *gamma))
                        }
                        _ => None,
                    }
                });
                let views = (1..=n)
                    .zip(deals)
                    .map(|(dealer, deal)| {
                        let mut v = DealerView::empty(dealer, n);
                        if let Some((alphas, gamma)) = deal {
                            (v.alphas, v.gamma) = (Arc::clone(alphas), gamma);
                        }
                        v
                    })
                    .collect();
                self.challenge(coin, views, view)
            }
            Stage::Challenge { coin, held } => {
                let mut views: Vec<DealerView<F>> =
                    (1..=n).map(|dealer| DealerView::empty(dealer, n)).collect();
                if held.alphas.len() == self.m {
                    if let Some(slot) = self.instance(&mut views) {
                        (slot.alphas, slot.gamma) = (held.alphas, held.gamma);
                    }
                }
                self.challenge(coin, views, view)
            }
            Stage::Combine { mut expose, mut views } => {
                let r = match expose.round(view.reborrow()) {
                    Step::Done(Ok(r)) => r,
                    Step::Done(Err(e)) => return Step::Done(Err(e)),
                    Step::Continue(_) => unreachable!("expose decodes on its second call"),
                };

                // Combine every instance this party holds shares in — one
                // pass, the Horner chains advancing together under the
                // shared challenge — and send the combinations.
                let m = self.m;
                let rows: Vec<&[F]> =
                    views.iter().map(|v| &v.alphas[..]).filter(|a| a.len() == m).collect();
                let mut sums = vec![F::zero(); rows.len()];
                F::combine_rows(&rows, r, &mut sums);
                for (v, sum) in views.iter_mut().filter(|v| v.alphas.len() == m).zip(sums) {
                    v.my_beta = Some(sum + v.gamma);
                }
                let mut out = view.outbox();
                match self.via {
                    // One instance, one untagged value on the broadcast
                    // channel (2n messages of k bits in all, Lemmas 2 and 4).
                    ExposeVia::Broadcast => {
                        if let Some(b) = self.instance(&mut views).and_then(|v| v.my_beta) {
                            out.broadcast(<M as Embeds<BitGenMsg<F>>>::wrap(BitGenMsg::Beta(b)));
                        }
                    }
                    // Every instance in one message per recipient (n²
                    // messages of size ≈ nk).
                    ExposeVia::PointToPoint => {
                        let entries: Vec<(PartyId, F)> = views
                            .iter()
                            .filter_map(|v| v.my_beta.map(|b| (v.dealer, b)))
                            .collect();
                        if !entries.is_empty() {
                            out.send_to_all(<M as Embeds<BitGenMsg<F>>>::wrap(
                                BitGenMsg::Betas(entries),
                            ));
                        }
                    }
                }
                self.stage = Stage::Judge { r, views };
                Step::Continue(out)
            }
            Stage::Judge { r, mut views } => {
                self.record_betas(&view, &mut views);
                // The instances share one decoder for as long as the same
                // parties sent a β — every instance, unless a sender
                // skipped some dealers.
                let points = party_points(n);
                let mut decoder = None;
                for v in views.iter_mut() {
                    (v.check_poly, v.clean) =
                        accept(&v.betas, &points, self.t, &self.rule, &mut decoder)
                            .map_or((None, false), |(f, clean)| (Some(f), clean));
                    if matches!(self.secrets, Secrets::Zero) {
                        // Zero sharings: the combination must vanish at the
                        // origin, or the dealer is shifting coin values.
                        if v.check_poly
                            .as_ref()
                            .is_some_and(|f| !f.constant_term().is_zero())
                        {
                            (v.check_poly, v.clean) = (None, false);
                        }
                    }
                }
                Step::Done(Ok(BitGenRun { r, views }))
            }
            #[expect(clippy::panic, reason = "driver contract: round() is never called after Done")]
            Stage::Finished => panic!("BitGenMachine driven past completion"),
        }
    }

    fn phase_name(&self) -> &'static str {
        let phases = match self.via {
            ExposeVia::Broadcast => &BROADCAST_PHASES,
            ExposeVia::PointToPoint => &POINT_TO_POINT_PHASES,
        };
        phases[match &self.stage {
            Stage::Deal { .. } => 0,
            Stage::Record { .. } => 1,
            Stage::Challenge { .. } => 2,
            Stage::Combine { .. } => 3,
            Stage::Judge { .. } => 4,
            Stage::Finished => 5,
        }]
    }
}

impl<M, F> BitGenMachine<M, F>
where
    M: Clone + WireSize + Embeds<ExposeMsg<F>> + Embeds<BitGenMsg<F>>,
    F: Field,
{
    /// This dealer's coefficient buffer and polynomial count, drawn in the
    /// order [`Secrets`] documents; `None` if there is nothing to deal.
    fn coefficients(&mut self, rng: &mut StdRng) -> Option<(Vec<F>, usize)> {
        let (t, m) = (self.t, self.m);
        let width = t + 1;
        match &mut self.secrets {
            Secrets::Random => Some(((0..(m + 1) * width).map(|_| F::random(rng)).collect(), m)),
            // Zero sharings: constant term zero, and no blinding — the
            // revealed combination's constant term is zero by
            // construction and the z's are pure masking randomness.
            Secrets::Zero => Some((
                (0..m * width)
                    .map(|i| if i % width == 0 { F::zero() } else { F::random(rng) })
                    .collect(),
                m,
            )),
            Secrets::Given(secrets) => secrets.take().map(|secrets| {
                let mut coeffs = Vec::with_capacity((secrets.len() + 1) * width);
                for &s in &secrets {
                    coeffs.push(s);
                    coeffs.extend((0..t).map(|_| F::random(rng)));
                }
                coeffs.extend((0..width).map(|_| F::random(rng)));
                (coeffs, secrets.len())
            }),
        }
    }

    /// The broadcast transport's one instance, if its dealer is a party.
    fn instance<'v>(&self, views: &'v mut [DealerView<F>]) -> Option<&'v mut DealerView<F>> {
        views.get_mut(self.dealers.first()?.checked_sub(1)?)
    }

    /// Round 2: the shared challenge, from the shares recorded in `views`.
    fn challenge(
        &mut self,
        coin: SealedShare<F>,
        views: Vec<DealerView<F>>,
        mut view: RoundView<'_, M>,
    ) -> Step<M, Result<BitGenRun<F>, CoinError>> {
        let mut expose = ExposeMachine::new(coin, self.t, self.via);
        let Step::Continue(out) = expose.round(view.reborrow()) else {
            unreachable!("expose sends on its first call")
        };
        self.stage = Stage::Combine { expose, views };
        Step::Continue(out)
    }

    /// Fill each instance's `S` off the channel the transport names.
    fn record_betas(&self, view: &RoundView<'_, M>, views: &mut [DealerView<F>]) {
        let n = view.n;
        match self.via {
            ExposeVia::Broadcast => {
                let Some(v) = self.instance(views) else { return };
                v.betas = view.inbox.first_per_sender(n, |r| {
                    match <M as Embeds<BitGenMsg<F>>>::peek(r.msg()) {
                        Some(BitGenMsg::Beta(b)) if r.broadcast => Some(*b),
                        _ => None,
                    }
                });
            }
            ExposeVia::PointToPoint => {
                let betas = view.inbox.first_per_slot(n, 1..n + 1, |r| {
                    match <M as Embeds<BitGenMsg<F>>>::peek(r.msg()) {
                        Some(BitGenMsg::Betas(entries)) => Some(entries.iter().copied()),
                        _ => None,
                    }
                });
                for (v, row) in views.iter_mut().zip(betas.rows()) {
                    v.betas.copy_from_slice(row);
                }
            }
        }
    }
}

/// The verdict on one instance from its received combinations `betas`
/// (indexed by party − 1, `None` where nothing arrived) under `rule`:
/// the judge of Figs. 2, 3 and 4 outside a machine (see [`Acceptance`]).
pub fn judge<F: Field>(betas: &[Option<F>], t: usize, rule: &Acceptance) -> VssVerdict {
    VssVerdict::of(accept(betas, &party_points(betas.len()), t, rule, &mut None).is_some())
}

/// The one acceptance path: `F(x)` with whether every received value
/// lies on it, or `None` for `⊥`. `points` are the `n` party points;
/// `decoder` is reused by the robust rule when it was built for the same
/// senders.
fn accept<F: Field>(
    betas: &[Option<F>],
    points: &[F],
    t: usize,
    rule: &Acceptance,
    decoder: &mut Option<BatchDecoder<F>>,
) -> Option<(Poly<F>, bool)> {
    match rule {
        Acceptance::Strict => {
            // A withheld combination leaves no full interpolation: reject.
            let all: Vec<(F, F)> =
                betas.iter().zip(points).map(|(b, &x)| b.map(|y| (x, y))).collect::<Option<_>>()?;
            let f = interpolate(&all).ok().filter(|f| f.degree().is_none_or(|d| d <= t))?;
            Some((f, true))
        }
        Acceptance::Robust => decode_instance(betas, points, t, decoder),
        Acceptance::Subset(subset) => {
            let sub: Vec<(F, F)> = subset
                .iter()
                .map(|&p| Some((*points.get(p.checked_sub(1)?)?, betas[p - 1]?)))
                .collect::<Option<_>>()?;
            if sub.len() <= t {
                return None;
            }
            let (xs, ys): (Vec<F>, Vec<F>) = sub[t + 1..].iter().copied().unzip();
            let f = interpolate(&sub[..=t]).ok()?;
            (F::matching_prefix(f.coeffs(), &xs, &ys) == xs.len()).then_some((f, false))
        }
    }
}

/// Fig. 4 step 5: decode `F(x)` from the received combinations; `Some`
/// iff `deg F ≤ t` and at least `n − t` received values lie on `F`, with
/// whether all of them do (see [`BatchDecoder::decode_flagged`]).
///
/// With `m` values received, "≥ `n − t` agree" is "≤ `m − (n − t)` are
/// wrong": the acceptance threshold is the decoder's error budget, so a
/// decoded `F` needs no second pass over the points. `points` are the
/// `n` party points; `decoder` is reused when it was built for the same
/// senders.
fn decode_instance<F: Field>(
    betas: &[Option<F>],
    points: &[F],
    t: usize,
    decoder: &mut Option<BatchDecoder<F>>,
) -> Option<(Poly<F>, bool)> {
    let (xs, ys): (Vec<F>, Vec<F>) = column_points(points, betas).unzip();
    let budget = xs.len().checked_sub(points.len() - t)?;
    if decoder.as_ref().is_none_or(|d| d.xs() != xs) {
        *decoder = BatchDecoder::new(&xs, t, t.min(budget)).ok();
    }
    decoder.as_ref()?.decode_flagged(&ys).ok()
}

/// The dealing step: evaluate a dealer's `m` secret polynomials — and, if
/// `blinded`, the masking polynomial drawn after them — at every party
/// point, and yield each party's `(α_{i1} … α_{iM}, γ_i)` in point order
/// (`γ_i = 0` unblinded). Each α row is written in place by one
/// [`Field::eval_polys`] and is the allocation the recipient keeps.
///
/// `coeffs` is the dealer's coefficient buffer: the polynomials one after
/// another, equally many coefficients each, constant term first.
pub(crate) fn deal_shares<F: Field>(
    coeffs: &[F],
    m: usize,
    blinded: bool,
    points: &[F],
) -> impl Iterator<Item = (Arc<[F]>, F)> {
    let width = coeffs.len().checked_div(m + usize::from(blinded)).unwrap_or(0);
    let (secrets, blind) = coeffs.split_at(m * width);
    let mut alphas: Vec<Arc<[F]>> =
        points.iter().map(|_| std::iter::repeat_n(F::zero(), m).collect()).collect();
    let mut rows: Vec<&mut [F]> = alphas.iter_mut().filter_map(Arc::get_mut).collect();
    F::eval_polys(secrets, points, &mut rows);
    let mut gammas = vec![F::zero(); points.len()];
    if blinded {
        F::eval_polys(blind, points, &mut gammas.chunks_mut(1).collect::<Vec<_>>());
    }
    alphas.into_iter().zip(gammas)
}

/// `inner`, with what it sends in each round rewritten by
/// `edit(round, view, out)`: a faulty party of the tests.
#[cfg(test)]
pub(crate) fn rewriting<M, A: RoundMachine<M>>(
    mut inner: A,
    mut edit: impl FnMut(u64, &mut RoundView<'_, M>, dprbg_sim::Outbox<M>) -> dprbg_sim::Outbox<M>,
) -> impl RoundMachine<M, Output = A::Output> {
    dprbg_sim::from_fn(move |mut view: RoundView<'_, M>| match inner.round(view.reborrow()) {
        Step::Continue(out) => Step::Continue(edit(view.round, &mut view, out)),
        done => done,
    })
}

/// A dealer's round-1 messages sharing one degree-(t+1) polynomial among
/// its `m` (the cheating dealer of the soundness tests).
#[cfg(test)]
pub(crate) fn high_degree_deal<M, F>(view: &mut RoundView<'_, M>, t: usize, m: usize) -> dprbg_sim::Outbox<M>
where
    M: Clone + WireSize + Embeds<BitGenMsg<F>>,
    F: Field,
{
    let n = view.n;
    let mut deal = view.outbox();
    for (i, s) in (1..=n).zip(crate::batch_vss::cheating_batch_deal::<F, _>(n, t, m, 1, view.rng)) {
        deal.send(i, <M as Embeds<BitGenMsg<F>>>::wrap(BitGenMsg::Deal { alphas: s.alphas, gamma: s.gamma }));
    }
    deal
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dealer::TrustedDealer;
    use dprbg_field::Gf2k;
    use dprbg_sim::{BoxedMachine, FaultPlan, MachineExt, Outbox, StepRunner};

    type F = Gf2k<32>;
    type M = BitGenMsg<F>;
    type Out = Option<BitGenRun<F>>;

    fn machine(
        t: usize,
        m: usize,
        coin: SealedShare<F>,
        dealers: &[PartyId],
    ) -> BoxedMachine<M, Result<BitGenRun<F>, CoinError>> {
        Box::new(BitGenMachine::new(t, m, coin, dealers.to_vec(), BitGenMode::RandomCoins))
    }

    fn run_all(
        n: usize,
        t: usize,
        m: usize,
        seed: u64,
    ) -> Vec<Result<BitGenRun<F>, CoinError>> {
        let coins = TrustedDealer::coin_shares::<F>(n, t, seed + 500);
        let dealers: Vec<PartyId> = (1..=n).collect();
        let fleet = (1..=n).map(|id| machine(t, m, coins[id - 1], &dealers)).collect();
        StepRunner::new(n, seed).run(fleet).unwrap_all()
    }

    /// An honest party's machine, or a faulty one's: the honest machine
    /// with what it sends in each round rewritten by `edit`.
    fn honest_or_rewritten(
        n: usize,
        faulty: Vec<PartyId>,
        honest: impl Fn(PartyId) -> BitGenMachine<M, F>,
        edit: impl Fn(PartyId, u64, &mut RoundView<'_, M>, Outbox<M>) -> Outbox<M>
            + Clone
            + Send
            + 'static,
    ) -> (FaultPlan, Vec<BoxedMachine<M, Out>>) {
        let plan = FaultPlan::explicit(n, faulty);
        let fleet = plan.machines::<M, Out>(
            |id| Box::new(honest(id).map(|r: Result<BitGenRun<F>, CoinError>| r.ok())),
            |id| {
                let edit = edit.clone();
                let inner = honest(id).map(|r: Result<BitGenRun<F>, CoinError>| r.ok());
                Box::new(rewriting(inner, move |round, view, out| edit(id, round, view, out)))
            },
        );
        (plan, fleet)
    }

    #[test]
    fn all_honest_every_instance_validates() {
        let n = 7;
        let t = 1;
        let m = 4;
        let outs = run_all(n, t, m, 1);
        for (i, out) in outs.iter().enumerate() {
            let run = out.as_ref().unwrap();
            for view in &run.views {
                assert!(
                    view.check_poly.is_some(),
                    "party {} rejected dealer {}",
                    i + 1,
                    view.dealer
                );
                assert_eq!(view.alphas.len(), m);
            }
        }
        // All parties exposed the same challenge.
        let r0 = outs[0].as_ref().unwrap().r;
        assert!(outs.iter().all(|o| o.as_ref().unwrap().r == r0));
    }

    #[test]
    fn shares_reconstruct_dealers_secrets() {
        let n = 7;
        let t = 1;
        let m = 3;
        let outs = run_all(n, t, m, 2);
        for h in 0..m {
            // Gather every party's h-th share from dealer 1: all n lie on
            // one degree-≤ t polynomial, and any t + 1 of them determine
            // the same secret.
            let shares: Vec<dprbg_poly::Share<F>> = outs
                .iter()
                .enumerate()
                .map(|(i, o)| dprbg_poly::Share {
                    x: F::element(i as u64 + 1),
                    y: o.as_ref().unwrap().views[0].alphas[h],
                })
                .collect();
            let secret = dprbg_poly::reconstruct_secret(&shares, t).unwrap();
            for window in shares.windows(t + 1) {
                assert_eq!(dprbg_poly::reconstruct_secret(window, t).unwrap(), secret);
            }
        }
    }

    #[test]
    fn cheating_dealer_detected_by_all_honest() {
        // Dealer 1 shares a degree-(t+1) polynomial among its M.
        let (n, t, m) = (7, 1, 4);
        let coins = TrustedDealer::coin_shares::<F>(n, t, 10);
        let dealers: Vec<PartyId> = (1..=n).collect();
        let (plan, fleet) = honest_or_rewritten(
            n,
            vec![1],
            |id| BitGenMachine::new(t, m, coins[id - 1], dealers.clone(), BitGenMode::RandomCoins),
            move |_, round, view, out| if round == 0 { high_degree_deal(view, t, m) } else { out },
        );
        let res = StepRunner::new(n, 11).run(fleet);
        for id in plan.honest() {
            let run = res.outputs[id - 1].as_ref().unwrap().as_ref().unwrap();
            assert!(
                run.views[0].check_poly.is_none(),
                "party {id} failed to reject the cheating dealer"
            );
            // Honest dealers still validate.
            for j in plan.honest() {
                assert!(run.views[j - 1].check_poly.is_some());
            }
        }
    }

    #[test]
    fn byzantine_beta_senders_cannot_break_honest_instances() {
        // Party 4 does not deal, skips the expose, and sends garbage β in
        // every instance.
        let (n, t, m) = (7, 1, 2);
        let coins = TrustedDealer::coin_shares::<F>(n, t, 20);
        let dealers: Vec<PartyId> = (1..=n).filter(|&d| d != 4).collect();
        let (plan, fleet) = honest_or_rewritten(
            n,
            vec![4],
            |id| BitGenMachine::new(t, m, coins[id - 1], dealers.clone(), BitGenMode::RandomCoins),
            |_, round, view, out| match round {
                1 => view.outbox(),
                2 => {
                    let mut garbage = view.outbox();
                    let entries = (1..=view.n).map(|d| (d, F::from_u64(0xBAD))).collect();
                    garbage.send_to_all(BitGenMsg::Betas(entries));
                    garbage
                }
                _ => out,
            },
        );
        let res = StepRunner::new(n, 21).run(fleet);
        for id in plan.honest() {
            let run = res.outputs[id - 1].as_ref().unwrap().as_ref().unwrap();
            for j in plan.honest() {
                assert!(
                    run.views[j - 1].check_poly.is_some(),
                    "party {id} rejected honest dealer {j}"
                );
            }
        }
    }

    /// Fig. 4 step 5 by exhaustion, sharing no code with the decoder: the
    /// degree-≤ t polynomial through some `t + 1` of the received values
    /// that at least `n − t` of them lie on (unique for `n ≥ 3t + 1`).
    fn reference_decode(betas: &[Option<F>], n: usize, t: usize) -> Option<Poly<F>> {
        let points: Vec<(F, F)> = betas
            .iter()
            .enumerate()
            .filter_map(|(i, b)| b.map(|y| (F::element(i as u64 + 1), y)))
            .collect();
        let m = points.len();
        if m <= t {
            return None;
        }
        let mut pick: Vec<usize> = (0..=t).collect();
        loop {
            let subset: Vec<(F, F)> = pick.iter().map(|&i| points[i]).collect();
            let f = dprbg_poly::interpolate(&subset).unwrap();
            if points.iter().filter(|&&(x, y)| f.eval(x) == y).count() >= n - t {
                return Some(f);
            }
            // Next (t + 1)-subset of 0..m in lexicographic order.
            let j = (0..=t).rev().find(|&j| pick[j] < m - 1 - (t - j))?;
            pick[j] += 1;
            for k in j + 1..=t {
                pick[k] = pick[k - 1] + 1;
            }
        }
    }

    /// One high-degree dealer, one party whose β message is lost, and one
    /// that sends garbage for a third of the dealers and skips another
    /// third (so the sender set differs between instances): every
    /// `check_poly` must be the reference decode, at Lemma 6's price.
    fn assert_faulty_run_matches_reference(n: usize, t: usize) {
        const HIGH_DEGREE: PartyId = 1;
        const SILENT: PartyId = 2;
        const GARBAGE: PartyId = 4;
        let m = 3;
        let coins = TrustedDealer::coin_shares::<F>(n, t, 60);
        let dealers: Vec<PartyId> = (1..=n).collect();
        let (plan, fleet) = honest_or_rewritten(
            n,
            vec![HIGH_DEGREE, SILENT, GARBAGE],
            |id| BitGenMachine::new(t, m, coins[id - 1], dealers.clone(), BitGenMode::RandomCoins),
            move |id, round, view, out| match (id, round) {
                (HIGH_DEGREE, 0) => high_degree_deal(view, t, m),
                (SILENT, 2) => view.outbox(),
                (GARBAGE, 2) => out.map(|msg| match msg {
                    BitGenMsg::Betas(entries) => BitGenMsg::Betas(
                        entries
                            .into_iter()
                            .filter(|(d, _)| d % 3 != 1)
                            .map(|(d, b)| (d, if d % 3 == 0 { F::from_u64(0xBAD) } else { b }))
                            .collect(),
                    ),
                    other => other,
                }),
                _ => out,
            },
        );
        let res = StepRunner::new(n, 61).run(fleet);
        for id in plan.honest() {
            let run = res.outputs[id - 1].as_ref().unwrap().as_ref().unwrap();
            let mut decodes = 1; // the challenge expose
            for view in &run.views {
                assert_eq!(
                    view.check_poly,
                    reference_decode(&view.betas, n, t),
                    "n={n}: party {id}, dealer {}",
                    view.dealer
                );
                let d = view.dealer;
                assert!(view.betas[SILENT - 1].is_none());
                assert_eq!(view.betas[GARBAGE - 1].is_none(), d % 3 == 1);
                decodes += u64::from(view.betas.iter().flatten().count() >= n - t);
                // An honest dealer survives iff lost plus wrong values ≤ t.
                if !plan.is_faulty(d) {
                    let lost_or_wrong = 1 + usize::from(d % 3 != 2);
                    assert_eq!(view.check_poly.is_some(), lost_or_wrong <= t, "dealer {d}");
                }
            }
            assert!(run.views[HIGH_DEGREE - 1].check_poly.is_none());
            assert_eq!(
                res.report.per_party[id - 1].cost.interpolations,
                decodes,
                "n={n}: party {id} ticks once per instance with ≥ n − t values"
            );
        }
    }

    #[test]
    fn faulty_senders_and_dealer_decode_like_the_reference() {
        // n = 7, t = 1: an instance keeps n − t = 6 values only where the
        // garbage sender spoke, and then has no error budget left.
        assert_faulty_run_matches_reference(7, 1);
        // n = 13, t = 2: budgets of 1 (garbage corrected) and 0.
        assert_faulty_run_matches_reference(13, 2);
    }

    #[test]
    fn one_decoder_build_per_party_without_and_with_a_crash() {
        // Inversions per party: one for the challenge expose's candidate,
        // one for the shared basis of all n instance decodes.
        let (n, t, m) = (7, 1, 2);
        let coins = TrustedDealer::coin_shares::<F>(n, t, 70);
        let dealers: Vec<PartyId> = (1..=n).collect();
        for crashed in [None, Some(3)] {
            let fleet = (1..=n)
                .map(|id| -> BoxedMachine<M, Option<BitGenRun<F>>> {
                    if crashed == Some(id) {
                        Box::new(dprbg_sim::silent())
                    } else {
                        Box::new(
                            BitGenMachine::new(
                                t,
                                m,
                                coins[id - 1],
                                dealers.clone(),
                                BitGenMode::RandomCoins,
                            )
                            .map(|r: Result<BitGenRun<F>, CoinError>| r.ok()),
                        )
                    }
                })
                .collect();
            let res = StepRunner::new(n, 71).run(fleet);
            for id in (1..=n).filter(|&id| crashed != Some(id)) {
                assert_eq!(res.report.per_party[id - 1].cost.field_invs, 2, "party {id}");
            }
        }
    }

    #[test]
    fn recorded_rows_are_the_delivered_allocations() {
        // Dealer 1's outgoing rows, in recipient order, by address.
        let (n, t, m) = (7, 1, 5);
        let coins = TrustedDealer::coin_shares::<F>(n, t, 80);
        let dealers: Vec<PartyId> = (1..=n).collect();
        let sent = Arc::new(std::sync::Mutex::new(Vec::new()));
        let log = Arc::clone(&sent);
        let (plan, fleet) = honest_or_rewritten(
            n,
            vec![1],
            |id| BitGenMachine::new(t, m, coins[id - 1], dealers.clone(), BitGenMode::RandomCoins),
            move |_, round, _, out| {
                if round > 0 {
                    return out;
                }
                out.map(|msg| {
                    if let BitGenMsg::Deal { alphas, .. } = &msg {
                        log.lock().unwrap().push(alphas.as_ptr() as usize);
                    }
                    msg
                })
            },
        );
        let res = StepRunner::new(n, 81).run(fleet);
        let sent = sent.lock().unwrap().clone();
        assert_eq!(sent.len(), n);
        for id in plan.honest() {
            let run = res.outputs[id - 1].as_ref().unwrap().as_ref().unwrap();
            let row = &run.views[0].alphas;
            assert_eq!(row.len(), m);
            assert_eq!(row.as_ptr() as usize, sent[id - 1], "party {id} copied its row");
        }
    }

    #[test]
    fn silent_dealer_yields_bottom() {
        let n = 7;
        let t = 1;
        let m = 2;
        let coins = TrustedDealer::coin_shares::<F>(n, t, 30);
        // Only parties 2..=n deal; instance 1 must come out ⊥ everywhere.
        let dealers: Vec<PartyId> = (2..=n).collect();
        let fleet = (1..=n).map(|id| machine(t, m, coins[id - 1], &dealers)).collect();
        for out in StepRunner::new(n, 31).run(fleet).unwrap_all() {
            let run = out.unwrap();
            assert!(run.views[0].check_poly.is_none());
            assert!(run.views[0].my_beta.is_none());
        }
    }

    #[test]
    fn three_rounds_and_message_shape() {
        // Lemma 6: 3 rounds; round 1 has n dealer messages of ~Mk bits
        // each per dealer, rounds 2-3 have n² messages of ~k bits.
        let n = 7;
        let t = 1;
        let m = 8;
        let res = {
            let coins = TrustedDealer::coin_shares::<F>(n, t, 40);
            let dealers: Vec<PartyId> = (1..=n).collect();
            let fleet = (1..=n).map(|id| machine(t, m, coins[id - 1], &dealers)).collect();
            StepRunner::new(n, 41).run(fleet)
        };
        assert_eq!(res.report.comm.rounds, 3);
        // n² deal + n² expose + n² (batched) beta messages.
        assert_eq!(res.report.comm.messages as usize, 3 * n * n);
        let k_bytes = 4;
        let deal_bytes = n * n * (m + 1) * k_bytes;
        let expose_bytes = n * n * k_bytes;
        // Each beta message carries n (dealer, value) entries.
        let beta_bytes = n * n * n * (k_bytes + 1);
        assert_eq!(
            res.report.comm.bytes as usize,
            deal_bytes + expose_bytes + beta_bytes
        );
    }
}
