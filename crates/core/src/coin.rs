//! Sealed coins, wallets, and Protocol Coin-Expose (Fig. 6).
//!
//! A **sealed k-ary coin** is a uniformly random element of GF(2^k) held
//! jointly: each party `P_i` holds a Shamir share `σ_i = G(i)` of a
//! degree-≤t polynomial `G`, and the coin's value is `G(0)`. Until the
//! expose, no coalition of ≤ t parties learns anything about the value;
//! at expose, all honest parties reconstruct the *same* value (unanimity)
//! despite up to `t` corrupted shares, via the Berlekamp–Welch decoder:
//!
//! > "Using the Berlekamp-Welch decoder, interpolate a polynomial F(x)
//! > through the shares received in the previous step. Set
//! > coin_h = F(0)." (Fig. 6.)
//!
//! The paper's Fig. 6 computes `σ_i` as the sum of the party's h-th shares
//! from the chosen clique's dealers; in this crate that sum is performed at
//! the end of Coin-Gen, so a wallet uniformly stores one ready-to-send
//! share per coin regardless of whether the coin came from a trusted
//! dealer (§1.2) or from a Coin-Gen batch.

use std::collections::VecDeque;
use std::marker::PhantomData;

use dprbg_field::Field;
use dprbg_metrics::WireSize;
use dprbg_poly::{column_points, party_points, BatchDecoder, BwError};
use dprbg_sim::{looping, Embeds, LoopControl, MachineExt, RoundMachine, RoundView, Step};

use crate::errors::CoinError;

/// One party's share of one sealed coin.
///
/// `None` means this party cannot contribute to the expose (it did not
/// hold valid shares from every summed dealer); it still *learns* the coin
/// from the other parties' contributions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SealedShare<F: Field> {
    /// The share value `G(i)`, if this party can vouch for it.
    pub sigma: Option<F>,
}

impl<F: Field> SealedShare<F> {
    /// A contributing share.
    pub fn of(value: F) -> Self {
        SealedShare { sigma: Some(value) }
    }

    /// A non-contributing placeholder.
    pub fn absent() -> Self {
        SealedShare { sigma: None }
    }
}

/// The wire message of Coin-Expose: a bare share (size `k`, matching the
/// paper's "n messages, each of size k").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExposeMsg<F: Field>(pub F);

impl<F: Field> WireSize for ExposeMsg<F> {
    fn wire_bytes(&self) -> usize {
        self.0.wire_bytes()
    }
}

/// A party's FIFO reserve of sealed-coin shares (the bootstrap reservoir
/// of Fig. 1).
///
/// All honest parties' wallets stay in lock-step: they push the same
/// batches and pop in the same protocol steps, so "coin `h`" means the
/// same polynomial at every party.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoinWallet<F: Field> {
    shares: VecDeque<SealedShare<F>>,
}

impl<F: Field> CoinWallet<F> {
    /// An empty wallet.
    pub fn new() -> Self {
        CoinWallet { shares: VecDeque::new() }
    }

    /// Number of sealed coins remaining.
    pub fn len(&self) -> usize {
        self.shares.len()
    }

    /// Whether no coins remain.
    pub fn is_empty(&self) -> bool {
        self.shares.is_empty()
    }

    /// Add a freshly sealed coin share (newest coins go to the back).
    pub fn push(&mut self, share: SealedShare<F>) {
        self.shares.push_back(share);
    }

    /// Consume the oldest sealed coin share.
    ///
    /// # Errors
    ///
    /// [`CoinError::WalletEmpty`] if no coin remains.
    pub fn pop(&mut self) -> Result<SealedShare<F>, CoinError> {
        self.shares.pop_front().ok_or(CoinError::WalletEmpty)
    }

    /// Inspect (without consuming) the share at `index`.
    pub fn peek_at(&self, index: usize) -> Option<&SealedShare<F>> {
        self.shares.get(index)
    }
}

impl<F: Field> Extend<SealedShare<F>> for CoinWallet<F> {
    fn extend<I: IntoIterator<Item = SealedShare<F>>>(&mut self, iter: I) {
        self.shares.extend(iter);
    }
}

impl<F: Field> FromIterator<SealedShare<F>> for CoinWallet<F> {
    fn from_iter<I: IntoIterator<Item = SealedShare<F>>>(iter: I) -> Self {
        CoinWallet { shares: iter.into_iter().collect() }
    }
}

/// How expose shares travel — the two models of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExposeVia {
    /// §3 model: publish the share on the ideal broadcast channel — one
    /// message per contributor (Lemma 2 counts `n` messages of size `k`).
    Broadcast,
    /// §4 model: private channels only — each contributor sends its share
    /// to every player individually (`n²` messages, Theorem 2's counting).
    #[default]
    PointToPoint,
}

/// Protocol Coin-Expose (Fig. 6) as a sans-IO round machine: one
/// `Continue` (the share send — or nothing, for a non-contributor),
/// then `Done` with the Berlekamp–Welch-decoded coin.
///
/// Every honest party runs this machine in the same round with its share
/// of the same coin. One communication round: contributors send their
/// share to all players (over `via`); everyone Berlekamp–Welch-decodes
/// the received shares (tolerating up to `t` corrupted ones) and outputs
/// `F(0)`. The paper's per-player cost (discussion after Lemma 2): `n`
/// additions and a single interpolation.
///
/// The output is [`CoinError::NotEnoughShares`] /
/// [`CoinError::DecodeFailed`] when the adversary exceeds the model
/// (fewer than `t + 1` honest contributors, or shares beyond the
/// decoding radius).
///
/// Larger phases ([`BitGenMachine`](crate::BitGenMachine), Batch-VSS
/// verification, Coin-Gen's leader elections) embed this machine for
/// their expose sub-steps via [`RoundView::reborrow`].
pub struct ExposeMachine<M, F: Field> {
    share: SealedShare<F>,
    t: usize,
    via: ExposeVia,
    sent: bool,
    _wire: PhantomData<fn() -> M>,
}

impl<M, F: Field> ExposeMachine<M, F> {
    /// A machine exposing `share` with decoding threshold `t` over `via`.
    pub fn new(share: SealedShare<F>, t: usize, via: ExposeVia) -> Self {
        ExposeMachine { share, t, via, sent: false, _wire: PhantomData }
    }
}

impl<M, F> RoundMachine<M> for ExposeMachine<M, F>
where
    M: Clone + WireSize + Embeds<ExposeMsg<F>>,
    F: Field,
{
    type Output = Result<F, CoinError>;

    fn round(&mut self, view: RoundView<'_, M>) -> Step<M, Self::Output> {
        if !self.sent {
            self.sent = true;
            let mut out = view.outbox();
            if let Some(sigma) = self.share.sigma {
                let msg = <M as Embeds<ExposeMsg<F>>>::wrap(ExposeMsg(sigma));
                match self.via {
                    ExposeVia::Broadcast => out.broadcast(msg),
                    ExposeVia::PointToPoint => out.send_to_all(msg),
                }
            }
            return Step::Continue(out);
        }
        let shares = view.inbox.first_per_sender(view.n, |r| {
            <M as Embeds<ExposeMsg<F>>>::peek(r.msg()).map(|&ExposeMsg(y)| y)
        });
        Step::Done(CoinDecoder::new(self.t).decode_column(&shares))
    }

    fn phase_name(&self) -> &'static str {
        if self.sent {
            "expose/decode"
        } else {
            "expose/send"
        }
    }
}

/// Coin-Expose over a batch: expose `shares` in order, one
/// [`ExposeMachine`] after another, and collect the coin values.
///
/// Each expose's send goes out in the round the previous decode lands,
/// so `m` coins take `m + 1` rounds. Every honest party runs this in the
/// same round with its shares of the same coins. The output is the first
/// failed expose's [`CoinError`]; the coins after it are never sent.
pub fn expose_all<M, F>(
    t: usize,
    shares: Vec<SealedShare<F>>,
) -> impl RoundMachine<M, Output = Result<Vec<F>, CoinError>>
where
    M: Clone + WireSize + Embeds<ExposeMsg<F>> + 'static,
    F: Field,
{
    let mut pending = shares.into_iter();
    looping(Ok(Vec::new()), move |acc: Result<Vec<F>, CoinError>| match (acc, pending.next()) {
        (Ok(mut values), Some(share)) => LoopControl::Continue(Box::new(
            ExposeMachine::new(share, t, ExposeVia::PointToPoint).map(move |res| {
                res.map(|value| {
                    values.push(value);
                    values
                })
            }),
        )),
        (acc, _) => LoopControl::Break(acc),
    })
}

/// Coin-Expose's decode step over a run of coins: Berlekamp–Welch with
/// the radius policy `e = min(t, ⌊(m − t − 1)/2⌋)`, keeping one
/// [`BatchDecoder`] while consecutive coins come from the same senders.
///
/// The decoder's Lagrange basis depends only on the senders' points
/// (`O(t²)` multiplications and one inversion), so decoding many coins
/// exposed by one responder set — a beacon epoch's serve plane — builds
/// it once; a coin from a different set rebuilds it. Each coin still
/// ticks one interpolation, and every result is exactly what decoding
/// that coin alone returns.
#[derive(Debug)]
pub struct CoinDecoder<F: Field> {
    t: usize,
    /// The basis for the sender set `voiced` (cell `j − 1`: whether
    /// party `j` sent a share).
    basis: Option<BatchDecoder<F>>,
    voiced: Vec<bool>,
    /// The shares of the column being decoded, in party order.
    ys: Vec<F>,
}

impl<F: Field> CoinDecoder<F> {
    /// A decoder for degree-`t` sharings, with no basis built yet.
    pub fn new(t: usize) -> Self {
        CoinDecoder { t, basis: None, voiced: Vec::new(), ys: Vec::new() }
    }

    /// Decode one coin from a receive-rule column: cell `j − 1` holds
    /// party `j`'s share, `None` where it sent none.
    ///
    /// # Errors
    ///
    /// See [`ExposeMachine`].
    pub fn decode_column(&mut self, column: &[Option<F>]) -> Result<F, CoinError> {
        self.ys.clear();
        self.ys.reserve(column.len());
        self.ys.extend(column.iter().flatten());
        let decoder = match &mut self.basis {
            Some(d) if self.voiced.iter().copied().eq(column.iter().map(Option::is_some)) => d,
            slot => {
                *slot = None;
                self.voiced = column.iter().map(Option::is_some).collect();
                let xs: Vec<F> =
                    column_points(&party_points(column.len()), column).map(|(x, _)| x).collect();
                slot.insert(BatchDecoder::new(&xs, self.t, self.t).map_err(coin_error)?)
            }
        };
        Ok(decoder.decode(&self.ys).map_err(coin_error)?.constant_term())
    }
}

/// A decode failure as Coin-Expose reports it.
fn coin_error(e: BwError) -> CoinError {
    match e {
        BwError::TooFewPoints { got, need } => CoinError::NotEnoughShares { got, need },
        BwError::DuplicateAbscissa | BwError::DecodingFailed => CoinError::DecodeFailed,
    }
}

/// Decode a coin value from collected `(party point, share)` pairs, with
/// [`CoinDecoder`]'s radius policy.
///
/// # Errors
///
/// See [`ExposeMachine`].
pub fn decode_coin<F: Field>(points: &[(F, F)], t: usize) -> Result<F, CoinError> {
    let (xs, ys): (Vec<F>, Vec<F>) = points.iter().copied().unzip();
    let decoder = BatchDecoder::new(&xs, t, t).map_err(coin_error)?;
    Ok(decoder.decode(&ys).map_err(coin_error)?.constant_term())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dealer::TrustedDealer;
    use dprbg_field::Gf2k;
    use dprbg_poly::{share_points, share_polynomial};
    use dprbg_rng::rngs::StdRng;
    use dprbg_rng::SeedableRng;
    use dprbg_sim::{from_fn, BoxedMachine, FaultPlan, RunResult, StepRunner, TraceConfig};

    type F = Gf2k<32>;
    type M = ExposeMsg<F>;

    /// Deal one coin to n parties; return (true value, per-party shares).
    fn deal_coin(n: usize, t: usize, seed: u64) -> (F, Vec<SealedShare<F>>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let value = F::random(&mut rng);
        let poly = share_polynomial(value, t, &mut rng);
        let shares = share_points(&poly, n)
            .into_iter()
            .map(|s| SealedShare::of(s.y))
            .collect();
        (value, shares)
    }

    /// An honest expose fleet over point-to-point channels.
    fn expose_fleet(
        shares: Vec<SealedShare<F>>,
        t: usize,
    ) -> Vec<BoxedMachine<M, Result<F, CoinError>>> {
        shares
            .into_iter()
            .map(|s| {
                Box::new(ExposeMachine::new(s, t, ExposeVia::PointToPoint)) as BoxedMachine<M, _>
            })
            .collect()
    }

    /// A corrupt party that sends `payloads` to everyone in round 0, then
    /// quits.
    fn spammer(payloads: Vec<F>) -> BoxedMachine<M, Option<F>> {
        Box::new(from_fn(move |view: dprbg_sim::RoundView<'_, M>| {
            if view.round == 0 {
                let mut out = view.outbox();
                for &p in &payloads {
                    out.send_to_all(ExposeMsg(p));
                }
                Step::Continue(out)
            } else {
                Step::Done(None)
            }
        }))
    }

    #[test]
    fn wallet_fifo_semantics() {
        let mut w = CoinWallet::<F>::new();
        assert!(w.is_empty());
        assert_eq!(w.pop(), Err(CoinError::WalletEmpty));
        w.push(SealedShare::of(F::from_u64(1)));
        w.push(SealedShare::absent());
        assert_eq!(w.len(), 2);
        assert_eq!(w.pop().unwrap().sigma, Some(F::from_u64(1)));
        assert_eq!(w.pop().unwrap().sigma, None);
        let w2: CoinWallet<F> = (0..3).map(|i| SealedShare::of(F::from_u64(i))).collect();
        assert_eq!(w2.len(), 3);
    }

    #[test]
    fn unanimous_expose_all_honest() {
        let n = 7;
        let t = 1;
        let (value, shares) = deal_coin(n, t, 1);
        let res = StepRunner::new(n, 2).run(expose_fleet(shares, t));
        for out in res.unwrap_all() {
            assert_eq!(out.unwrap(), value);
        }
    }

    #[test]
    fn unanimity_despite_byzantine_shares() {
        let n = 7;
        let t = 1;
        let plan = FaultPlan::first_t(n, t);
        let (value, shares) = deal_coin(n, t, 3);
        let fleet = plan.machines::<M, Option<F>>(
            |id| {
                let s = shares[id - 1];
                Box::new(
                    ExposeMachine::new(s, t, ExposeVia::PointToPoint)
                        .map(|r: Result<F, CoinError>| r.ok()),
                )
            },
            // Send a corrupted share.
            |_| spammer(vec![F::from_u64(0xBAD)]),
        );
        let res = StepRunner::new(n, 4).run(fleet);
        for id in plan.honest() {
            assert_eq!(res.outputs[id - 1], Some(Some(value)), "party {id}");
        }
    }

    #[test]
    fn absent_contributors_tolerated() {
        // n = 7, t = 1: two parties abstain; the rest still reconstruct.
        let n = 7;
        let t = 1;
        let (value, mut shares) = deal_coin(n, t, 5);
        shares[2] = SealedShare::absent();
        shares[6] = SealedShare::absent();
        let res = StepRunner::new(n, 6).run(expose_fleet(shares, t));
        for out in res.unwrap_all() {
            assert_eq!(out.unwrap(), value);
        }
    }

    #[test]
    fn too_few_shares_reported() {
        let n = 4;
        let t = 1;
        let (_, mut shares) = deal_coin(n, t, 7);
        // Only party 1 contributes: 1 point < t + 1.
        for s in shares.iter_mut().skip(1) {
            *s = SealedShare::absent();
        }
        let res = StepRunner::new(n, 8).run(expose_fleet(shares, t));
        for out in res.unwrap_all() {
            assert_eq!(out, Err(CoinError::NotEnoughShares { got: 1, need: 2 }));
        }
    }

    #[test]
    fn duplicate_sender_shares_ignored() {
        // Party 2 sends its true share, then a wrong one; party 5 sends a
        // wrong share. The decode corrects t = 1 error, so it lands only
        // if party 2's first share is its one voice: counting its second
        // makes two errors, counting both repeats its point.
        let n = 7;
        let t = 1;
        let (value, shares) = deal_coin(n, t, 9);
        let share = |id: usize| shares[id - 1].sigma.unwrap();
        let plan = FaultPlan::explicit(n, vec![2, 5]);
        let fleet = plan.machines::<M, Option<F>>(
            |id| {
                let s = shares[id - 1];
                Box::new(
                    ExposeMachine::new(s, t, ExposeVia::PointToPoint)
                        .map(|r: Result<F, CoinError>| r.ok()),
                )
            },
            |id| match id {
                2 => spammer(vec![share(2), share(2) + F::one()]),
                _ => spammer(vec![share(id) + F::one()]),
            },
        );
        let res = StepRunner::new(n, 10).run(fleet);
        for id in plan.honest() {
            assert_eq!(res.outputs[id - 1], Some(Some(value)));
        }
    }

    /// Deal `m` coins with the trusted dealer: the true values, and each
    /// party's shares in coin order.
    fn deal_batch(n: usize, t: usize, m: usize, seed: u64) -> (Vec<F>, Vec<Vec<SealedShare<F>>>) {
        let params = crate::Params::p2p_model(n, t).unwrap();
        let (wallets, values) = TrustedDealer::deal_wallets_with_values::<F>(params, m, seed);
        let pop_all = |mut w: CoinWallet<F>| std::iter::from_fn(move || w.pop().ok()).collect();
        (values, wallets.into_iter().map(pop_all).collect())
    }

    /// Run one `expose_all` per party; also return how many rounds the
    /// machines were stepped (party 1's last traced round, plus one).
    fn run_expose_all(
        shares: Vec<Vec<SealedShare<F>>>,
        t: usize,
        seed: u64,
    ) -> (RunResult<Result<Vec<F>, CoinError>>, u64) {
        let n = shares.len();
        let fleet: Vec<BoxedMachine<M, _>> =
            shares.into_iter().map(|s| Box::new(expose_all(t, s)) as _).collect();
        let res = StepRunner::new(n, seed).with_trace(TraceConfig::full()).run(fleet);
        let events = &res.trace.as_ref().unwrap().events;
        let last = events.iter().filter(|e| e.party == 1).map(|e| e.round).max().unwrap();
        (res, last + 1)
    }

    #[test]
    fn expose_all_reveals_the_dealt_values_in_m_plus_one_rounds() {
        let (n, t, m) = (7, 1, 5);
        let (values, shares) = deal_batch(n, t, m, 13);
        let (res, rounds) = run_expose_all(shares, t, 14);
        assert_eq!(rounds, m as u64 + 1, "each send rides the previous decode's round");
        for out in res.unwrap_all() {
            assert_eq!(out, Ok(values.clone()));
        }
    }

    #[test]
    fn expose_all_stops_at_the_first_failed_expose() {
        // Only party 1 holds a share of coin 2 (1 < t + 1 contributors).
        let (n, t) = (7, 1);
        let (_, mut shares) = deal_batch(n, t, 3, 15);
        for party in shares.iter_mut().skip(1) {
            party[1] = SealedShare::absent();
        }
        let (res, rounds) = run_expose_all(shares, t, 16);
        assert_eq!(rounds, 3, "coin 1 send, coin 1 decode + coin 2 send, coin 2 decode");
        // Coin 1 from n senders, coin 2 from one, coin 3 from none.
        assert_eq!(res.report.comm.messages, (n * n + n) as u64, "coin 3 must never be sent");
        for out in res.unwrap_all() {
            assert_eq!(out, Err(CoinError::NotEnoughShares { got: 1, need: 2 }));
        }
    }

    #[test]
    fn decode_coin_radius_policy() {
        let n = 7;
        let t = 2;
        let (value, shares) = deal_coin(n, t, 11);
        let mut pts: Vec<(F, F)> = shares
            .iter()
            .enumerate()
            .map(|(i, s)| (F::element(i as u64 + 1), s.sigma.unwrap()))
            .collect();
        assert_eq!(decode_coin(&pts, t).unwrap(), value);
        // Corrupt exactly t shares: still decodes.
        pts[0].1 = F::from_u64(1);
        pts[1].1 = F::from_u64(2);
        assert_eq!(decode_coin(&pts, t).unwrap(), value);
    }

    #[test]
    fn column_decoder_rebuilds_its_basis_when_the_senders_change() {
        let (n, t) = (7, 2);
        let (value, shares) = deal_coin(n, t, 12);
        let full: Vec<Option<F>> = shares.iter().map(|s| s.sigma).collect();
        let mut two = vec![None; n];
        two[2..4].copy_from_slice(&full[2..4]);
        let mut five = full.clone();
        five[1] = None;
        five[6] = None;
        let too_few = Err(CoinError::NotEnoughShares { got: 2, need: 3 });
        let mut decoder = CoinDecoder::new(t);
        assert_eq!(decoder.decode_column(&full), Ok(value));
        // A failed rebuild keeps no basis: the same senders fail again.
        assert_eq!(decoder.decode_column(&two), too_few);
        assert_eq!(decoder.decode_column(&two), too_few);
        assert_eq!(decoder.decode_column(&five), Ok(value));
        assert_eq!(decoder.decode_column(&full), Ok(value));
    }
}
