//! Protocol Coin-Gen (Fig. 5): generation of sealed coins, the paper's
//! main protocol.
//!
//! §4 model: `n ≥ 6t + 1`, point-to-point channels only. Every player
//! runs Bit-Gen as a dealer in parallel (all instances sharing one
//! challenge coin), then the players agree on *which* dealers' batches to
//! combine:
//!
//! 1–3. Bit-Gen × n with the shared challenge `r`; per dealer `j`, local
//!      output `(F_j, S_j)`.
//! 4.   Directed graph `G'`: edge `j → k` iff `F_j ≠ ⊥` and `P_k`'s
//!      combination in `S_j` satisfies `F_j(k) = β_k`.
//! 5.   `G`: keep mutual edges.
//! 6.   Find a clique `C` of size ≥ `n − 2t` (Gavril's approximation —
//!      one exists because the ≥ `n − t` honest players are mutually
//!      consistent).
//! 7.   Grade-Cast `{(j, F_j) : j ∈ C}`.
//! 8.   Record each player's grade-cast clique and confidence.
//! 9.   `l ← Coin-Expose(k-ary-coin) mod n` — a random leader.
//! 10.  Run (deterministic) BA with input 1 iff (i) `conf_l = 2`,
//!      (ii) `|C_l| ≥ n − 2t`, and (iii) ≥ `3t + 1` players' combinations
//!      (in this player's own view) satisfy every `F_k`, `k ∈ C_l`.
//! 11.  If BA outputs 1, adopt `C_l`; otherwise repeat from step 9 with a
//!      fresh leader coin (expected O(1) iterations — Lemma 8).
//!
//! The adopted batch seals `M` coins: coin `h` is
//! `Σ_{j ∈ C_l} f_{j,h}(0)`, held as the share-sums
//! `σ_i = Σ_{j ∈ C_l} α_{i,j,h}` (Fig. 6's preparation), with ≥ `2t + 1`
//! honest parties able to vouch for their sums — enough for Coin-Expose's
//! Berlekamp–Welch reconstruction (Theorem 1). Since ≥ `|C_l| − t ≥ 3t + 1`
//! of the summed dealers are honest, the coins are uniform and unknown to
//! any coalition of ≤ t players until exposed.

use std::mem;

use dprbg_field::Field;
use dprbg_metrics::WireSize;
use dprbg_poly::{party_points, Poly};
use dprbg_protocols::{
    approx_clique, BaMsg, DiGraph, GcMsg, GradeOutput, GradecastMachine, PhaseKingMachine,
};
use dprbg_sim::{Embeds, PartyId, RoundMachine, RoundView, Step};

use crate::bit_gen::{BitGenMachine, BitGenMode, BitGenMsg, BitGenRun};
use crate::coin::{CoinWallet, ExposeMachine, ExposeMsg, ExposeVia, SealedShare};
use crate::errors::CoinGenError;
use crate::params::Params;

/// The value grade-cast in step 7: the sender's clique with the check
/// polynomial of every member.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliqueAnnounce<F: Field> {
    /// Pairs `(j, F_j)` for each dealer `j` in the sender's clique,
    /// ascending by dealer id.
    pub pairs: Vec<(PartyId, Poly<F>)>,
}

impl<F: Field> CliqueAnnounce<F> {
    /// The dealer ids in the announced clique.
    pub fn dealers(&self) -> Vec<PartyId> {
        self.pairs.iter().map(|(j, _)| *j).collect()
    }

    /// Basic well-formedness: ids valid, strictly ascending (hence
    /// unique), polynomials of degree ≤ t.
    pub fn well_formed(&self, n: usize, t: usize) -> bool {
        self.pairs.windows(2).all(|w| w[0].0 < w[1].0)
            && self.pairs.iter().all(|(j, f)| {
                (1..=n).contains(j) && f.degree().is_none_or(|d| d <= t)
            })
    }
}

impl<F: Field> WireSize for CliqueAnnounce<F> {
    fn wire_bytes(&self) -> usize {
        self.pairs
            .iter()
            .map(|(_, f)| 1 + f.wire_bytes())
            .sum()
    }
}

/// The composite wire type of Coin-Gen: Bit-Gen, expose, grade-cast and
/// BA traffic multiplexed over one synchronous network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoinGenMsg<F: Field> {
    /// Bit-Gen dealing/combination traffic.
    BitGen(BitGenMsg<F>),
    /// Coin-Expose shares (challenge `r` and the leader coins).
    Expose(ExposeMsg<F>),
    /// Grade-cast of clique announcements.
    Gc(GcMsg<CliqueAnnounce<F>>),
    /// Byzantine-agreement traffic.
    Ba(BaMsg),
}

impl<F: Field> WireSize for CoinGenMsg<F> {
    fn wire_bytes(&self) -> usize {
        match self {
            CoinGenMsg::BitGen(m) => m.wire_bytes(),
            CoinGenMsg::Expose(m) => m.wire_bytes(),
            CoinGenMsg::Gc(m) => m.wire_bytes(),
            CoinGenMsg::Ba(m) => m.wire_bytes(),
        }
    }
}

macro_rules! embed {
    ($inner:ty, $variant:ident) => {
        impl<F: Field> Embeds<$inner> for CoinGenMsg<F> {
            fn wrap(inner: $inner) -> Self {
                CoinGenMsg::$variant(inner)
            }
            fn peek(&self) -> Option<&$inner> {
                match self {
                    CoinGenMsg::$variant(m) => Some(m),
                    _ => None,
                }
            }
        }
    };
}
embed!(BitGenMsg<F>, BitGen);
embed!(ExposeMsg<F>, Expose);
embed!(GcMsg<CliqueAnnounce<F>>, Gc);
embed!(BaMsg, Ba);

/// The wire-type capability Coin-Gen needs: any message enum that can
/// carry Bit-Gen, Coin-Expose, Grade-Cast and BA traffic.
///
/// [`CoinGenMsg`] is the canonical implementation; applications that
/// multiplex their own traffic over the same network define their own
/// enum, implement the four [`Embeds`] instances, and get this trait for
/// free via the blanket impl.
pub trait CoinGenWire<F: Field>:
    Clone
    + Send
    + WireSize
    + Embeds<BitGenMsg<F>>
    + Embeds<ExposeMsg<F>>
    + Embeds<GcMsg<CliqueAnnounce<F>>>
    + Embeds<BaMsg>
    + 'static
{
}

impl<F: Field, T> CoinGenWire<F> for T where
    T: Clone
        + Send
        + WireSize
        + Embeds<BitGenMsg<F>>
        + Embeds<ExposeMsg<F>>
        + Embeds<GcMsg<CliqueAnnounce<F>>>
        + Embeds<BaMsg>
        + 'static
{
}

/// Configuration of one Coin-Gen execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoinGenConfig {
    /// System parameters (`n ≥ 6t + 1`).
    pub params: Params,
    /// `M`: sealed coins produced per run (per dealer batch).
    pub batch_size: usize,
}

impl CoinGenConfig {
    /// Whether a field of `order` elements can carry this configuration;
    /// the violated requirement otherwise.
    fn fits_field(&self, order: u128) -> Result<(), &'static str> {
        if self.batch_size == 0 {
            // Seed coins would be burned to seal nothing.
            Err("batch_size >= 1")
        } else if self.batch_size as u128 >= order {
            // Lemma 5 bounds a cheating dealer's survival by M/p.
            Err("batch_size < field order (Lemma 5: soundness error M/p)")
        } else if self.params.n as u128 >= order {
            // Party i holds the share f(i): the ids 1..=n must embed.
            Err("n < field order (distinct nonzero party points)")
        } else {
            Ok(())
        }
    }
}

/// The sealed coins a party walks away with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoinBatch<F: Field> {
    /// The agreed dealer set `C_l` whose secrets are summed.
    pub dealers: Vec<PartyId>,
    /// This party's share of each of the `M` coins (`None` = cannot
    /// vouch / abstains from the expose).
    pub shares: Vec<SealedShare<F>>,
    /// Leader-selection attempts the BA loop took (Lemma 8: expected
    /// O(1)).
    pub attempts: usize,
    /// Seed coins consumed from the wallet (1 challenge + 1 per attempt).
    pub seeds_consumed: usize,
}

impl<F: Field> CoinBatch<F> {
    /// Number of coins sealed.
    pub fn len(&self) -> usize {
        self.shares.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.shares.is_empty()
    }
}

/// Leader attempts before giving up (the expected number is constant —
/// Lemma 8 — so hitting this limit indicates seed exhaustion or a model
/// violation).
const MAX_LEADER_ATTEMPTS: usize = 32;

/// Protocol Coin-Gen (Fig. 5) as a sans-IO round machine: the Bit-Gen
/// phase ([`BitGenMachine`]) followed by the dealer agreement
/// (`AgreeMachine`), with the share sums computed at the end. See the
/// module docs for the step list.
///
/// Consumes `1 + attempts` sealed coins from the wallet (the challenge
/// `r` plus one leader coin per BA iteration). All honest parties must
/// start this machine in the same round with wallets in the same state.
/// The machine owns the wallet for the duration of the run and hands it
/// back (minus the consumed seed coins) in its output, so the same wallet
/// keeps working under any executor.
///
/// The result half of the output is [`CoinGenError::SeedExhausted`] if
/// the wallet runs dry, [`CoinGenError::Coin`] if an expose fails, and
/// [`CoinGenError::NoAgreement`] if the BA loop exceeds its budget.
pub struct CoinGenMachine<M, F: Field> {
    cfg: CoinGenConfig,
    stage: CgStage<M, F>,
}

enum CgStage<M, F: Field> {
    /// First call: pop the challenge and start the Bit-Gen deal.
    Start { wallet: CoinWallet<F> },
    /// Steps 1–3 in flight.
    BitGen { bg: BitGenMachine<M, F>, wallet: CoinWallet<F> },
    /// Steps 4–11 in flight.
    Agree { agree: AgreeMachine<M, F> },
    Finished,
}

impl<M, F: Field> CoinGenMachine<M, F> {
    /// A machine sealing one batch per `cfg`, consuming seeds from
    /// `wallet`.
    pub fn new(cfg: CoinGenConfig, wallet: CoinWallet<F>) -> Self {
        CoinGenMachine { cfg, stage: CgStage::Start { wallet } }
    }
}

impl<M, F> RoundMachine<M> for CoinGenMachine<M, F>
where
    M: Clone
        + WireSize
        + Embeds<BitGenMsg<F>>
        + Embeds<ExposeMsg<F>>
        + Embeds<GcMsg<CliqueAnnounce<F>>>
        + Embeds<BaMsg>,
    F: Field,
{
    type Output = (CoinWallet<F>, Result<CoinBatch<F>, CoinGenError>);

    fn round(&mut self, mut view: RoundView<'_, M>) -> Step<M, Self::Output> {
        let Params { n, t } = self.cfg.params;
        let m = self.cfg.batch_size;
        match mem::replace(&mut self.stage, CgStage::Finished) {
            CgStage::Start { mut wallet } => {
                assert_eq!(view.n, n, "network size must match the configured n");
                // Fail closed, wallet untouched, on a configuration the
                // field cannot carry.
                if let Err(need) = self.cfg.fits_field(F::order()) {
                    return Step::Done((wallet, Err(CoinGenError::BadParams { n, t, need })));
                }
                // Steps 1–3: n parallel Bit-Gens under one challenge coin.
                let r_coin = match wallet.pop() {
                    Ok(c) => c,
                    Err(_) => {
                        return Step::Done((wallet, Err(CoinGenError::SeedExhausted)))
                    }
                };
                let dealers: Vec<PartyId> = (1..=n).collect();
                let mut bg =
                    BitGenMachine::new(t, m, r_coin, dealers, BitGenMode::RandomCoins);
                let Step::Continue(out) = bg.round(view.reborrow()) else {
                    unreachable!("bit-gen deals on its first call")
                };
                self.stage = CgStage::BitGen { bg, wallet };
                Step::Continue(out)
            }
            CgStage::BitGen { mut bg, wallet } => match bg.round(view.reborrow()) {
                Step::Continue(out) => {
                    self.stage = CgStage::BitGen { bg, wallet };
                    Step::Continue(out)
                }
                Step::Done(Err(e)) => Step::Done((wallet, Err(e.into()))),
                Step::Done(Ok(run)) => {
                    // Steps 4–11: agree on a dealer clique.
                    let mut agree = AgreeMachine::new(self.cfg.params, wallet, run);
                    let Step::Continue(out) = agree.round(view.reborrow()) else {
                        unreachable!("agreement grade-casts on its first call")
                    };
                    self.stage = CgStage::Agree { agree };
                    Step::Continue(out)
                }
            },
            CgStage::Agree { mut agree } => match agree.round(view.reborrow()) {
                Step::Continue(out) => {
                    self.stage = CgStage::Agree { agree };
                    Step::Continue(out)
                }
                Step::Done((_, wallet, Err(e))) => Step::Done((wallet, Err(e))),
                Step::Done((run, wallet, Ok(agreement))) => {
                    let announce = &agreement.announce;
                    let dealers = announce.dealers();

                    // Can I vouch for my share sums? Only if my own
                    // combination fits every adopted dealer's polynomial
                    // (then, w.h.p., each of my individual shares is
                    // correct — the random-challenge argument).
                    let my_point = F::element(view.id as u64);
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "each adopted F_j at my own point only"
                    )]
                    let i_fit = announce.pairs.iter().all(|(j, f)| {
                        run.views[j - 1].my_beta == Some(f.eval(my_point))
                            && run.views[j - 1].alphas.len() == m
                    });

                    // Coin h is the sum over the adopted dealers of their
                    // h-th secrets: add their share vectors row by row.
                    let shares: Vec<SealedShare<F>> = if i_fit {
                        let mut sigmas = vec![F::zero(); m];
                        for &j in &dealers {
                            F::add_slice(&mut sigmas, &run.views[j - 1].alphas);
                        }
                        sigmas.into_iter().map(SealedShare::of).collect()
                    } else {
                        vec![SealedShare::absent(); m]
                    };

                    Step::Done((
                        wallet,
                        Ok(CoinBatch {
                            dealers,
                            shares,
                            attempts: agreement.attempts,
                            seeds_consumed: 1 + agreement.seeds_consumed,
                        }),
                    ))
                }
            },
            #[expect(clippy::panic, reason = "driver contract: round() is never called after Done")]
            CgStage::Finished => panic!("CoinGenMachine driven past completion"),
        }
    }

    fn phase_name(&self) -> &'static str {
        match &self.stage {
            CgStage::Start { .. } => "coin-gen/start",
            CgStage::BitGen { bg, .. } => bg.phase_name(),
            CgStage::Agree { agree } => agree.phase_name(),
            CgStage::Finished => "coin-gen/finished",
        }
    }
}

/// The outcome of Coin-Gen steps 4–11: an agreed dealer clique.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct DealerAgreement<F: Field> {
    /// The adopted clique announcement (dealers + check polynomials),
    /// identical at every honest party.
    pub announce: CliqueAnnounce<F>,
    /// Leader attempts the BA loop took.
    pub attempts: usize,
    /// Seed coins consumed by the leader elections.
    pub seeds_consumed: usize,
}

/// Coin-Gen steps 4–11 (shared with the proactive refresh of
/// [`crate::refresh`]) as a sans-IO round machine: build the agreement
/// graph over a completed Bit-Gen run, find a clique, grade-cast it, and
/// repeat leader-election + BA until a clique is adopted.
///
/// Leader elections are *biased away from failed parties*: a leader whose
/// announcement a BA round unanimously voted down is blacklisted, and
/// later coins index into the surviving candidate list. BA unanimity
/// keeps the blacklist — and hence the elected leader — identical at
/// every honest party (a local-confidence filter would not be: grade-cast
/// confidences may differ between honest parties). See DESIGN.md.
///
/// The machine owns the wallet and Bit-Gen run while it executes and
/// returns both in its output so the enclosing phase can finish its
/// share accounting.
pub(crate) struct AgreeMachine<M, F: Field> {
    n: usize,
    t: usize,
    wallet: CoinWallet<F>,
    run: BitGenRun<F>,
    /// The evaluation points of parties `1..=n`.
    points: Vec<F>,
    graded: Vec<GradeOutput<CliqueAnnounce<F>>>,
    /// Leaders a BA has already rejected (step-9 bias).
    rejected: Vec<PartyId>,
    attempts: usize,
    seeds_consumed: usize,
    stage: AgStage<M, F>,
}

/// What [`AgreeMachine`] yields: the Bit-Gen run and wallet it owned,
/// plus the agreement (or the failure that ended the loop).
pub(crate) type AgreeOutput<F> =
    (BitGenRun<F>, CoinWallet<F>, Result<DealerAgreement<F>, CoinGenError>);

enum AgStage<M, F: Field> {
    /// First call: build the graph/clique and send the grade-cast value.
    Start,
    /// Steps 7–8 in flight.
    Gc(GradecastMachine<M, CliqueAnnounce<F>>),
    /// Step 9: a leader coin mid-expose.
    Expose(ExposeMachine<M, F>),
    /// Step 10: BA on the elected leader's announcement.
    Ba { ba: PhaseKingMachine<M>, leader: PartyId },
    Finished,
}

impl<M, F: Field> AgreeMachine<M, F> {
    pub(crate) fn new(params: Params, wallet: CoinWallet<F>, run: BitGenRun<F>) -> Self {
        AgreeMachine {
            n: params.n,
            t: params.t,
            wallet,
            run,
            points: party_points(params.n),
            graded: Vec::new(),
            rejected: Vec::new(),
            attempts: 0,
            seeds_consumed: 0,
            stage: AgStage::Start,
        }
    }

    fn finish(&mut self, res: Result<DealerAgreement<F>, CoinGenError>) -> Step<M, AgreeOutput<F>> {
        let run = mem::replace(
            &mut self.run,
            BitGenRun { r: F::zero(), views: Vec::new() },
        );
        Step::Done((run, mem::take(&mut self.wallet), res))
    }

    /// Steps 9–11, loop entry: pop a leader coin and start its expose.
    fn start_attempt(&mut self, view: &mut RoundView<'_, M>) -> Step<M, AgreeOutput<F>>
    where
        M: Clone + WireSize + Embeds<ExposeMsg<F>>,
    {
        if self.attempts >= MAX_LEADER_ATTEMPTS {
            return self
                .finish(Err(CoinGenError::NoAgreement { attempts: MAX_LEADER_ATTEMPTS }));
        }
        self.attempts += 1;
        let l_coin = match self.wallet.pop() {
            Ok(c) => c,
            Err(_) => return self.finish(Err(CoinGenError::SeedExhausted)),
        };
        self.seeds_consumed += 1;
        let mut expose = ExposeMachine::new(l_coin, self.t, ExposeVia::PointToPoint);
        let Step::Continue(out) = expose.round(view.reborrow()) else {
            unreachable!("expose sends on its first call")
        };
        self.stage = AgStage::Expose(expose);
        Step::Continue(out)
    }
}

impl<M, F> RoundMachine<M> for AgreeMachine<M, F>
where
    M: Clone
        + WireSize
        + Embeds<ExposeMsg<F>>
        + Embeds<GcMsg<CliqueAnnounce<F>>>
        + Embeds<BaMsg>,
    F: Field,
{
    type Output = AgreeOutput<F>;

    fn round(&mut self, mut view: RoundView<'_, M>) -> Step<M, Self::Output> {
        let n = self.n;
        let t = self.t;
        match mem::replace(&mut self.stage, AgStage::Finished) {
            AgStage::Start => {
                // Steps 4–5: the agreement graph.
                let graph = agreement_digraph(&self.run, &self.points).mutual();

                // Step 6: the clique approximation.
                let clique = approx_clique(&graph);

                // Step 7: grade-cast my clique with its check polynomials.
                let announce = CliqueAnnounce {
                    pairs: clique
                        .iter()
                        .filter_map(|&j| {
                            self.run.views[j - 1].check_poly.clone().map(|f| (j, f))
                        })
                        .collect(),
                };
                let mut gc = GradecastMachine::new(announce);
                let Step::Continue(out) = gc.round(view.reborrow()) else {
                    unreachable!("grade-cast sends on its first call")
                };
                self.stage = AgStage::Gc(gc);
                Step::Continue(out)
            }
            AgStage::Gc(mut gc) => match gc.round(view.reborrow()) {
                Step::Continue(out) => {
                    self.stage = AgStage::Gc(gc);
                    Step::Continue(out)
                }
                // Step 8: everyone's announcements with confidences are
                // in; move straight into the first leader election.
                Step::Done(graded) => {
                    self.graded = graded;
                    self.start_attempt(&mut view)
                }
            },
            AgStage::Expose(mut expose) => {
                let l_value = match expose.round(view.reborrow()) {
                    Step::Done(Ok(v)) => v,
                    Step::Done(Err(e)) => return self.finish(Err(e.into())),
                    Step::Continue(_) => unreachable!("expose decodes on its second call"),
                };

                // Step 9, biased: elect among the parties no BA has
                // rejected yet.
                let candidates: Vec<PartyId> =
                    (1..=n).filter(|p| !self.rejected.contains(p)).collect();
                if candidates.is_empty() {
                    let attempts = self.attempts;
                    return self.finish(Err(CoinGenError::NoAgreement { attempts }));
                }
                #[expect(
                    clippy::disallowed_methods,
                    reason = "the leader coin becomes a candidate index, not field arithmetic"
                )]
                let leader = candidates[(l_value.to_u64() % candidates.len() as u64) as usize];

                // Step 10's input conditions.
                let grade = &self.graded[leader - 1];
                let candidate = grade.value.as_deref().filter(|a| a.well_formed(n, t));
                let my_input = match candidate {
                    Some(a) if grade.confidence == 2 => {
                        a.pairs.len() >= n - 2 * t
                            && count_universal_fitters(a, &self.run, &self.points) > 3 * t
                    }
                    _ => false,
                };

                let mut ba = PhaseKingMachine::new(my_input, t);
                let Step::Continue(out) = ba.round(view.reborrow()) else {
                    unreachable!("BA suggests on its first call")
                };
                self.stage = AgStage::Ba { ba, leader };
                Step::Continue(out)
            }
            AgStage::Ba { mut ba, leader } => match ba.round(view.reborrow()) {
                Step::Continue(out) => {
                    self.stage = AgStage::Ba { ba, leader };
                    Step::Continue(out)
                }
                Step::Done(false) => {
                    // Step 11: the leader was voted down — unanimously, by
                    // BA agreement — so bias later elections away from it.
                    self.rejected.push(leader);
                    self.start_attempt(&mut view)
                }
                Step::Done(true) => {
                    // Adopt C_l. Grade-cast guarantees every honest party
                    // holds the same announcement (confidence ≥ 1) once
                    // one honest party voted with confidence 2. Fail
                    // closed on anything else: an absent or ill-formed
                    // value here is beyond the model, and the callers
                    // index their Bit-Gen views by the adopted dealer ids.
                    let res = self.graded[leader - 1]
                        .value
                        .as_deref()
                        .filter(|a| a.well_formed(n, t))
                        .cloned()
                        .map(|announce| DealerAgreement {
                            announce,
                            attempts: self.attempts,
                            seeds_consumed: self.seeds_consumed,
                        })
                        .ok_or(CoinGenError::NoAgreement { attempts: self.attempts });
                    self.finish(res)
                }
            },
            #[expect(clippy::panic, reason = "driver contract: round() is never called after Done")]
            AgStage::Finished => panic!("AgreeMachine driven past completion"),
        }
    }

    fn phase_name(&self) -> &'static str {
        match &self.stage {
            AgStage::Start => "coin-gen/clique",
            AgStage::Gc(gc) => gc.phase_name(),
            AgStage::Expose(expose) => expose.phase_name(),
            AgStage::Ba { ba, .. } => ba.phase_name(),
            AgStage::Finished => "coin-gen/agreed",
        }
    }
}

/// Step 4's directed graph `G'`: edge `j → k` iff `F_j ≠ ⊥` and `P_k`'s
/// β in instance `j` lies on `F_j`. Bit-Gen's decoder has already checked
/// every β of a clean instance against `F_j`, so only the other instances
/// are evaluated, at the points that sent a β.
fn agreement_digraph<F: Field>(run: &BitGenRun<F>, points: &[F]) -> DiGraph {
    let n = points.len();
    let mut digraph = DiGraph::new(n);
    for v in &run.views {
        if let Some(f) = &v.check_poly {
            let mut sent: Vec<usize> = (0..n).collect();
            sent.retain(|&k| v.betas[k].is_some());
            for k in v.fitters(f, points, sent) {
                digraph.add_edge(v.dealer, k + 1);
            }
        }
    }
    digraph
}

/// Condition (iii) of step 10: how many players' combinations — in *my*
/// view of the Bit-Gen exchanges — satisfy every announced dealer's
/// polynomial.
///
/// Pair by pair, only the players that fit every earlier pair are checked
/// — the points a per-player short-circuit would evaluate. An announced
/// `F_k` equal to my own clean `check_poly_k` is answered by Bit-Gen's
/// decode without evaluating it.
fn count_universal_fitters<F: Field>(
    announce: &CliqueAnnounce<F>,
    run: &BitGenRun<F>,
    points: &[F],
) -> usize {
    let mut alive: Vec<usize> = (0..points.len()).collect();
    for (k, f) in &announce.pairs {
        if alive.is_empty() {
            break;
        }
        alive = run.views[k - 1].fitters(f, points, alive);
    }
    alive.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use crate::bit_gen::DealerView;
    use crate::coin::decode_coin;
    use crate::dealer::TrustedDealer;
    use dprbg_field::Gf2k;
    use dprbg_rng::prelude::*;
    use dprbg_rng::rngs::StdRng;
    use dprbg_rng::{RngExt, SeedableRng};
    use dprbg_sim::{from_fn, BoxedMachine, FaultPlan, MachineExt, StepRunner};

    type F = Gf2k<32>;
    type M = CoinGenMsg<F>;

    fn cfg(n: usize, t: usize, m: usize) -> CoinGenConfig {
        CoinGenConfig {
            params: Params::p2p_model(n, t).unwrap(),
            batch_size: m,
        }
    }

    /// An honest fleet that drops the returned wallet and keeps the batch
    /// result.
    fn honest_fleet(
        c: CoinGenConfig,
        wallets: Vec<CoinWallet<F>>,
    ) -> Vec<BoxedMachine<M, Result<CoinBatch<F>, CoinGenError>>> {
        wallets
            .into_iter()
            .map(|w| {
                Box::new(CoinGenMachine::new(c, w).map(|(_, res)| res)) as BoxedMachine<M, _>
            })
            .collect()
    }

    #[test]
    fn all_honest_one_attempt() {
        let n = 7;
        let t = 1;
        let c = cfg(n, t, 4);
        let wallets = TrustedDealer::deal_wallets::<F>(c.params, 4, 1);
        let outs = StepRunner::new(n, 2).run(honest_fleet(c, wallets)).unwrap_all();
        let first = outs[0].as_ref().unwrap();
        assert_eq!(first.attempts, 1);
        assert_eq!(first.len(), 4);
        assert_eq!(first.dealers.len(), n); // everyone honest → full clique
        for out in &outs {
            let b = out.as_ref().unwrap();
            assert_eq!(b.dealers, first.dealers);
            assert!(b.shares.iter().all(|s| s.sigma.is_some()));
        }
    }

    #[test]
    fn sealed_coins_are_consistent_and_unanimous() {
        // Decode each sealed coin from the parties' share sums directly:
        // every coin must be a degree-≤t polynomial's constant term.
        let n = 7;
        let t = 1;
        let m = 3;
        let c = cfg(n, t, m);
        let wallets = TrustedDealer::deal_wallets::<F>(c.params, 4, 7);
        let outs = StepRunner::new(n, 8).run(honest_fleet(c, wallets)).unwrap_all();
        for h in 0..m {
            let pts: Vec<(F, F)> = outs
                .iter()
                .enumerate()
                .map(|(i, o)| {
                    (
                        F::element(i as u64 + 1),
                        o.as_ref().unwrap().shares[h].sigma.unwrap(),
                    )
                })
                .collect();
            decode_coin(&pts, t).expect("sealed coin must decode");
        }
    }

    #[test]
    fn tolerates_fully_byzantine_party() {
        // One party deals garbage, sends corrupt betas, lies in gradecast
        // and BA. The honest 6 still seal a batch and agree on dealers.
        let n = 7;
        let t = 1;
        let m = 2;
        let c = cfg(n, t, m);
        let plan = FaultPlan::explicit(n, vec![2]);
        let mut wallets = TrustedDealer::deal_wallets::<F>(c.params, 4, 21);
        let mut honest_wallets: Vec<CoinWallet<F>> = Vec::new();
        for id in 1..=n {
            let w = wallets.remove(0);
            if !plan.is_faulty(id) {
                honest_wallets.push(w);
            }
        }
        let fleet = plan.machines::<M, Option<CoinBatch<F>>>(
            |_| {
                let w = honest_wallets.remove(0);
                Box::new(CoinGenMachine::new(c, w).map(|(_, res)| res.ok()))
            },
            |_| {
                Box::new(from_fn(move |view: dprbg_sim::RoundView<'_, M>| {
                    let n = view.n;
                    let mut out = view.outbox();
                    match view.round {
                        0 => {
                            // Garbage dealing.
                            for i in 1..=n {
                                out.send(
                                    i,
                                    CoinGenMsg::BitGen(BitGenMsg::Deal {
                                        alphas: vec![F::from_u64(i as u64); 2].into(),
                                        gamma: F::zero(),
                                    }),
                                );
                            }
                            Step::Continue(out)
                        }
                        1 => {
                            // Corrupt expose share.
                            out.send_to_all(CoinGenMsg::Expose(crate::coin::ExposeMsg(
                                F::from_u64(0xEF11u64),
                            )));
                            Step::Continue(out)
                        }
                        2 => {
                            // Garbage betas.
                            let garbage: Vec<(dprbg_sim::PartyId, F)> =
                                (1..=n).map(|d| (d, F::from_u64(d as u64 * 3))).collect();
                            out.send_to_all(CoinGenMsg::BitGen(BitGenMsg::Betas(garbage)));
                            Step::Continue(out)
                        }
                        // Stay silent through gradecast (3 rounds), then
                        // vanish (the executor carries the rest).
                        3..=5 => Step::Continue(out),
                        _ => Step::Done(None),
                    }
                }))
            },
        );
        let res = StepRunner::new(n, 22).run(fleet);
        let honest_batches: Vec<&CoinBatch<F>> = plan
            .honest()
            .map(|id| res.outputs[id - 1].as_ref().unwrap().as_ref().unwrap())
            .collect();
        let dealers = &honest_batches[0].dealers;
        assert!(dealers.len() >= n - 2 * t);
        for b in &honest_batches {
            assert_eq!(&b.dealers, dealers);
            assert_eq!(b.len(), m);
        }
        // The sealed coins decode consistently from honest contributions.
        for h in 0..m {
            let pts: Vec<(F, F)> = plan
                .honest()
                .filter_map(|id| {
                    res.outputs[id - 1].as_ref().unwrap().as_ref().unwrap().shares[h]
                        .sigma
                        .map(|s| (F::element(id as u64), s))
                })
                .collect();
            assert!(pts.len() > 2 * t);
            decode_coin(&pts, t).expect("coin must decode from honest shares");
        }
    }

    #[test]
    fn seed_exhaustion_is_reported() {
        let n = 7;
        let t = 1;
        let c = cfg(n, t, 2);
        // Empty wallets: the very first pop must fail on every party.
        let wallets = vec![CoinWallet::new(); n];
        for out in StepRunner::new(n, 30).run(honest_fleet(c, wallets)).unwrap_all() {
            assert_eq!(out.unwrap_err(), CoinGenError::SeedExhausted);
        }
    }

    /// Every party of a `G`-fleet at `(n, t, m)` holding `seeds` (dummy)
    /// seed coins must refuse on its first call, for the reason `need`
    /// names, and hand the wallet back untouched.
    fn assert_refused<G: Field>(n: usize, t: usize, m: usize, seeds: usize, need: &str) {
        let c = cfg(n, t, m);
        let mut wallet = CoinWallet::<G>::new();
        (0..seeds).for_each(|_| wallet.push(SealedShare::of(G::one())));
        let fleet: Vec<BoxedMachine<CoinGenMsg<G>, _>> =
            (0..n).map(|_| Box::new(CoinGenMachine::new(c, wallet.clone())) as _).collect();
        let res = StepRunner::new(n, 60).run(fleet);
        assert_eq!(res.report.comm.messages, 0, "refused before anything is sent");
        for (returned, out) in res.unwrap_all() {
            assert_eq!(returned, wallet, "no seed coin burned");
            match out {
                Err(CoinGenError::BadParams { n: got_n, t: got_t, need: got }) => {
                    assert_eq!((got_n, got_t), (n, t));
                    assert!(got.contains(need), "refused for {got:?}, expected {need:?}");
                }
                other => panic!("expected BadParams, got {other:?}"),
            }
        }
    }

    #[test]
    fn empty_batch_is_refused() {
        // Sealing nothing would still burn a challenge and a leader coin,
        // and `alphas.len() == m` would accept a silent dealer.
        assert_refused::<F>(7, 1, 0, 4, "batch_size >= 1");
    }

    #[test]
    fn batch_as_large_as_the_field_is_refused() {
        // Lemma 5's soundness error M/p is vacuous at M ≥ p.
        assert_refused::<Gf2k<8>>(7, 1, 256, 4, "batch_size < field order");
        assert_refused::<Gf2k<8>>(7, 1, 8192, 4, "batch_size < field order");
    }

    #[test]
    fn more_parties_than_field_points_is_refused() {
        // Party 16 has no evaluation point in GF(2^4): at the parent this
        // panicked inside `round()`.
        assert_refused::<Gf2k<4>>(19, 3, 4, 4, "n < field order");
        assert_refused::<Gf2k<4>>(16, 2, 4, 4, "n < field order");
    }

    #[test]
    fn largest_configuration_a_field_carries_is_accepted() {
        // n = 15 and M = 15 both fit GF(2^4) exactly.
        let c = cfg(15, 2, 15);
        let wallets = TrustedDealer::deal_wallets::<Gf2k<4>>(c.params, 6, 61);
        let fleet: Vec<BoxedMachine<CoinGenMsg<Gf2k<4>>, _>> = wallets
            .into_iter()
            .map(|w| Box::new(CoinGenMachine::new(c, w).map(|(_, res)| res)) as _)
            .collect();
        for out in StepRunner::new(15, 62).run(fleet).unwrap_all() {
            assert!(!matches!(out, Err(CoinGenError::BadParams { .. })), "{out:?}");
        }
    }

    #[test]
    fn ill_formed_leader_value_after_ba_one_fails_closed() {
        // Beyond the model: BA decides 1 although the elected leader's
        // graded announcement names a dealer outside 1..=n. Every party is
        // started inside step 10 holding that grade and voting 1; the
        // share accounting indexes its Bit-Gen views by dealer id, so the
        // announcement must be refused, not adopted.
        let n = 7;
        let t = 1;
        let c = cfg(n, t, 2);
        let zero = F::zero();
        let run = BitGenRun {
            r: zero,
            views: (1..=n)
                .map(|dealer| DealerView {
                    dealer,
                    alphas: vec![zero; 2].into(),
                    gamma: zero,
                    my_beta: Some(zero),
                    betas: vec![Some(zero); n],
                    check_poly: Some(Poly::zero()),
                    clean: true,
                })
                .collect(),
        };
        for j in [0, n + 1] {
            let announce = Arc::new(CliqueAnnounce { pairs: vec![(j, Poly::<F>::zero())] });
            let fleet: Vec<BoxedMachine<M, Result<CoinBatch<F>, CoinGenError>>> = (0..n)
                .map(|_| {
                    let mut agree = AgreeMachine::new(c.params, CoinWallet::new(), run.clone());
                    agree.attempts = 1;
                    agree.graded = vec![
                        GradeOutput { value: Some(Arc::clone(&announce)), confidence: 2 };
                        n
                    ];
                    agree.stage = AgStage::Ba { ba: PhaseKingMachine::new(true, t), leader: 1 };
                    let cg = CoinGenMachine { cfg: c, stage: CgStage::Agree { agree } };
                    Box::new(cg.map(|(_, res)| res)) as _
                })
                .collect();
            for out in StepRunner::new(n, 50).run(fleet).unwrap_all() {
                assert_eq!(out.unwrap_err(), CoinGenError::NoAgreement { attempts: 1 }, "j = {j}");
            }
        }
    }

    /// Step 4 as first written: one scalar evaluation per (dealer, party
    /// that sent a β), whatever Bit-Gen's decode already checked.
    fn reference_digraph(run: &BitGenRun<F>, points: &[F]) -> DiGraph {
        let n = points.len();
        let mut digraph = DiGraph::new(n);
        for v in &run.views {
            if let Some(f) = &v.check_poly {
                for k in 1..=n {
                    if let Some(beta) = v.betas[k - 1] {
                        if f.eval(points[k - 1]) == beta {
                            digraph.add_edge(v.dealer, k);
                        }
                    }
                }
            }
        }
        digraph
    }

    /// Step 10(iii) as first written: per point, one scalar evaluation per
    /// announced pair up to the first that does not fit.
    fn reference_fitters(announce: &CliqueAnnounce<F>, run: &BitGenRun<F>, points: &[F]) -> usize {
        points
            .iter()
            .enumerate()
            .filter(|&(j, &x)| {
                announce.pairs.iter().all(|(k, f)| run.views[k - 1].betas[j] == Some(f.eval(x)))
            })
            .count()
    }

    fn cost<T>(f: impl FnOnce() -> T) -> (T, dprbg_metrics::CostSnapshot) {
        let guard = dprbg_metrics::OpsGuard::start();
        let out = f();
        (out, guard.finish())
    }

    /// Who misbehaves in one Bit-Gen run (roles may coincide).
    #[derive(Default)]
    struct BitGenFaults {
        /// Deals one degree-(t + 1) polynomial among its M.
        high_degree: Option<PartyId>,
        /// Deals a valid sharing shifted by 1 (in `ZeroRefresh`, `F(0) ≠ 0`).
        shifted: Option<PartyId>,
        /// Deals nothing: its instance is ⊥ everywhere.
        skipped_dealer: Option<PartyId>,
        /// Sends no β at all.
        silent: Option<PartyId>,
        /// Per dealer: keep (0), garble (1) or skip (2) this sender's β.
        garbage: Option<(PartyId, Vec<u8>)>,
    }

    /// Every party's Bit-Gen view of one run at `(n, t, M = 3)` under
    /// `faults`; every party runs the honest machine, with what the
    /// faulty ones send rewritten.
    fn bit_gen_runs(
        n: usize,
        t: usize,
        mode: BitGenMode,
        seed: u64,
        faults: &BitGenFaults,
    ) -> Vec<BitGenRun<F>> {
        type Bm = BitGenMsg<F>;
        let m = 3;
        let params = Params::p2p_model(n, t).unwrap();
        let mut wallets = TrustedDealer::deal_wallets::<F>(params, 1, seed);
        let dealers: Vec<PartyId> =
            (1..=n).filter(|&d| faults.skipped_dealer != Some(d)).collect();
        let fleet: Vec<BoxedMachine<Bm, Option<BitGenRun<F>>>> = (1..=n)
            .map(|id| {
                let coin = wallets[id - 1].pop().unwrap();
                let mut inner = BitGenMachine::new(t, m, coin, dealers.clone(), mode);
                let high_degree = faults.high_degree == Some(id);
                let shifted = faults.shifted == Some(id);
                let silent = faults.silent == Some(id);
                let garbage = faults.garbage.clone().filter(|(g, _)| *g == id).map(|(_, a)| a);
                Box::new(from_fn(move |mut view: dprbg_sim::RoundView<'_, Bm>| {
                    let out = match inner.round(view.reborrow()) {
                        Step::Continue(out) => out,
                        Step::Done(r) => return Step::Done(r.ok()),
                    };
                    Step::Continue(match view.round {
                        0 if high_degree => crate::bit_gen::high_degree_deal(&mut view, t, m),
                        0 if shifted => out.map(|msg| match msg {
                            BitGenMsg::Deal { alphas, gamma } => {
                                let mut alphas = alphas.to_vec();
                                alphas[0] += F::one();
                                BitGenMsg::Deal { alphas: alphas.into(), gamma }
                            }
                            other => other,
                        }),
                        2 if silent => view.outbox(),
                        2 => match &garbage {
                            Some(actions) => out.map(|msg| match msg {
                                BitGenMsg::Betas(entries) => BitGenMsg::Betas(
                                    entries
                                        .into_iter()
                                        .filter(|(d, _)| actions[d - 1] != 2)
                                        .map(|(d, b)| match actions[d - 1] {
                                            1 => (d, b + F::one()),
                                            _ => (d, b),
                                        })
                                        .collect(),
                                ),
                                other => other,
                            }),
                            None => out,
                        },
                        _ => out,
                    })
                })) as _
            })
            .collect();
        StepRunner::new(n, seed).run(fleet).unwrap_all().into_iter().map(Option::unwrap).collect()
    }

    /// Each party's own announcement: every dealer it decoded.
    fn own_announce(run: &BitGenRun<F>) -> CliqueAnnounce<F> {
        CliqueAnnounce {
            pairs: run
                .views
                .iter()
                .filter_map(|v| v.check_poly.clone().map(|f| (v.dealer, f)))
                .collect(),
        }
    }

    /// `announce` with the polynomial of every pair whose index is in
    /// `which` moved off the party's own (by a constant).
    fn perturbed(
        announce: &CliqueAnnounce<F>,
        which: impl Fn(usize) -> bool,
    ) -> CliqueAnnounce<F> {
        let one = Poly::constant(F::one());
        CliqueAnnounce {
            pairs: announce
                .pairs
                .iter()
                .enumerate()
                .map(|(i, (j, f))| (*j, if which(i) { f.add(&one) } else { f.clone() }))
                .collect(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Under any mix of faulty dealers and β senders, in either Bit-Gen
        /// mode, steps 4 and 10 read off Bit-Gen's decode exactly what the
        /// scalar loops compute: the same agreement graph, and the same
        /// fitter count for the party's own announcement, every other
        /// party's, and one whose polynomials differ from its own.
        #[test]
        fn prop_agreement_checks_equal_the_scalar_reference(
            seed: u64,
            shape in 0usize..4,
            roles in 0u64..1 << 20
        ) {
            let (n, t) = if shape % 2 == 0 { (7, 1) } else { (13, 2) };
            let mode = if shape < 2 { BitGenMode::RandomCoins } else { BitGenMode::ZeroRefresh };
            let mut rng = StdRng::seed_from_u64(seed);
            // Four bits per role: one says whether it is played, three pick the party.
            let role = |i: u32| {
                let bits = (roles >> (4 * i)) & 0xF;
                (bits & 1 == 1).then(|| 1 + (bits >> 1) as usize % n)
            };
            let faults = BitGenFaults {
                high_degree: role(0),
                shifted: role(1),
                skipped_dealer: role(2),
                silent: role(3),
                garbage: role(4).map(|g| (g, (0..n).map(|_| rng.random_range(0..3u8)).collect())),
            };
            let runs = bit_gen_runs(n, t, mode, seed, &faults);
            let points = party_points::<F>(n);
            for (i, run) in runs.iter().enumerate() {
                prop_assert!(
                    agreement_digraph(run, &points) == reference_digraph(run, &points),
                    "party {}: agreement graph", i + 1
                );
                let own = own_announce(run);
                let pick = rng.random_range(0..own.pairs.len().max(1));
                let mut announces: Vec<CliqueAnnounce<F>> = runs.iter().map(own_announce).collect();
                announces.push(perturbed(&own, |p| p == pick));
                announces.push(perturbed(&own, |p| p % 2 == 1));
                for a in &announces {
                    let fit = count_universal_fitters(a, run, &points);
                    let reference = reference_fitters(a, run, &points);
                    prop_assert!(
                        fit == reference,
                        "party {}: {} fitters, reference {}", i + 1, fit, reference
                    );
                }
            }
        }
    }

    /// In a fault-free run every instance decodes clean at every party and
    /// every announcement carries the polynomials each party decoded, so
    /// steps 4 and 10 evaluate nothing — where the scalar loops paid
    /// n²(t + 1) multiplications each.
    #[test]
    fn fault_free_agreement_checks_charge_no_field_ops() {
        let none = BitGenFaults::default();
        for (n, t) in [(7, 1), (13, 2)] {
            for mode in [BitGenMode::RandomCoins, BitGenMode::ZeroRefresh] {
                let runs = bit_gen_runs(n, t, mode, 5, &none);
                let points = party_points::<F>(n);
                let scalar = (n * n * (t + 1)) as u64;
                for run in &runs {
                    assert!(run.views.iter().all(|v| v.clean));
                    let (graph, price) = cost(|| agreement_digraph(run, &points));
                    let (reference, old_price) = cost(|| reference_digraph(run, &points));
                    assert_eq!(graph, reference);
                    assert_eq!((price.field_muls, price.field_adds), (0, 0), "n = {n}, {mode:?}");
                    assert_eq!(old_price.field_muls, scalar, "n = {n}, {mode:?}");
                    for leader in &runs {
                        let a = own_announce(leader);
                        let (fit, price) = cost(|| count_universal_fitters(&a, run, &points));
                        let (_, old_price) = cost(|| reference_fitters(&a, run, &points));
                        assert_eq!(fit, n);
                        assert_eq!((price.field_muls, price.field_adds), (0, 0), "n = {n}");
                        assert_eq!(old_price.field_muls, scalar, "n = {n}, {mode:?}");
                    }
                }
            }
        }
    }

    /// Where Bit-Gen's decode cannot answer — an instance with a β off
    /// `F_j`, or an announced `F_k` that is not the party's own — the
    /// slice kernel evaluates exactly the points the scalar loops
    /// evaluated, at exactly their price.
    #[test]
    fn dirty_agreement_checks_charge_what_the_reference_charges() {
        let (n, t) = (13, 2);
        let faults = BitGenFaults {
            high_degree: Some(1),
            silent: Some(2),
            // Garble dealers 1–4's β, skip 5–6's, keep the rest.
            garbage: Some((4, [vec![1; 4], vec![2; 2], vec![0; n - 6]].concat())),
            ..BitGenFaults::default()
        };
        let runs = bit_gen_runs(n, t, BitGenMode::RandomCoins, 9, &faults);
        let points = party_points::<F>(n);
        for (i, run) in runs.iter().enumerate() {
            let dirty = run.views.iter().filter(|v| v.check_poly.is_some() && !v.clean).count();
            assert!(dirty > 0, "party {}: some instance decodes with a β off F_j", i + 1);

            // Step 4: the dirty instances cost what the reference pays for them.
            let mut dirty_only = run.clone();
            for v in dirty_only.views.iter_mut().filter(|v| v.clean) {
                v.check_poly = None;
            }
            let (graph, price) = cost(|| agreement_digraph(run, &points));
            let (_, old_price) = cost(|| reference_digraph(&dirty_only, &points));
            assert_eq!(graph, reference_digraph(run, &points));
            assert_eq!(price, old_price, "party {}", i + 1);
            assert!(price.field_muls > 0);

            // With no view clean, every evaluation is the reference's.
            let mut unflagged = run.clone();
            unflagged.views.iter_mut().for_each(|v| v.clean = false);
            let (graph, price) = cost(|| agreement_digraph(&unflagged, &points));
            let (reference, old_price) = cost(|| reference_digraph(&unflagged, &points));
            assert_eq!((graph, price), (reference, old_price), "party {}", i + 1);

            // Step 10: announcements that match nothing the party decoded.
            let own = own_announce(run);
            for a in [perturbed(&own, |_| true), own.clone()] {
                for view in [run, &unflagged] {
                    if std::ptr::eq(view, run) && a == own {
                        continue; // the shortcut case, priced by the fault-free test
                    }
                    let (fit, price) = cost(|| count_universal_fitters(&a, view, &points));
                    let (reference, old_price) = cost(|| reference_fitters(&a, view, &points));
                    assert_eq!((fit, price), (reference, old_price), "party {}", i + 1);
                }
            }
        }
    }

    #[test]
    fn batch_accounting_fields() {
        let n = 7;
        let t = 1;
        let c = cfg(n, t, 5);
        let wallets = TrustedDealer::deal_wallets::<F>(c.params, 6, 40);
        let fleet: Vec<BoxedMachine<M, (CoinWallet<F>, Result<CoinBatch<F>, CoinGenError>)>> =
            wallets
                .into_iter()
                .map(|w| Box::new(CoinGenMachine::new(c, w)) as BoxedMachine<M, _>)
                .collect();
        for (wallet, out) in StepRunner::new(n, 41).run(fleet).unwrap_all() {
            let b = out.unwrap();
            assert_eq!(b.seeds_consumed, 1 + b.attempts);
            assert!(!b.is_empty());
            // The machine hands back the unconsumed seeds.
            assert_eq!(wallet.len(), 6 - b.seeds_consumed);
        }
    }
}
