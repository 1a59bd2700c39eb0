//! The epoch machine: one beacon epoch as a two-plane round machine.
//!
//! An epoch overlaps the two halves of the paper's amortization story
//! (§1.2/Fig. 1) instead of running them back to back:
//!
//! * the **serve plane** exposes the coins consumers are waiting for, one
//!   slot per reserved wallet share, in the two fixed rounds of
//!   Coin-Expose (Fig. 6): in the first round each party sends all its
//!   shares to everyone in one envelope, and in the second every slot is
//!   decoded through one [`CoinDecoder`], so slots exposed by the same
//!   senders share one Berlekamp–Welch basis;
//! * the **gen plane** concurrently replenishes the wallet with a fresh
//!   Coin-Gen batch under an explicit
//!   [`RetryPolicy`](dprbg_core::RetryPolicy) (Fig. 5 via
//!   [`coin_gen_with_retry`]).
//!
//! Both planes share one synchronous network: their traffic is
//! multiplexed over [`BeaconMsg`] and the epoch machine demultiplexes
//! each round's inbox per plane, steps the gen plane first (a fixed RNG
//! draw order, so both executors stay byte-identical), and queues the
//! serve envelope after the gen plane's sends. The epoch
//! finishes when every plane is done, so its wall-clock is
//! `max(2, coin_gen_rounds)` rounds — the pipelining win over a serial
//! refill-then-serve beacon, whose window costs `2 + coin_gen_rounds`.

use dprbg_core::{
    coin_gen_with_retry, BaMsg, BitGenMsg, CliqueAnnounce, CoinBatch, CoinDecoder, CoinGenConfig,
    CoinGenMsg, CoinWallet, ExposeMsg, GcMsg, ProtocolError, RetryPolicy, RetryReport, SealedShare,
};
use dprbg_field::Field;
use dprbg_metrics::WireSize;
use dprbg_sim::{
    BoxedMachine, Embeds, Inbox, Received, RoundMachine, RoundView, SlotTable, Step,
};

use crate::CoinError;

/// The beacon's composite wire type: generation-plane Coin-Gen traffic
/// and the serve plane's one envelope of expose shares per sender.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BeaconMsg<F: Field> {
    /// Gen-plane traffic (a full Coin-Gen run).
    Gen(CoinGenMsg<F>),
    /// Serve-plane traffic: every `(slot, share)` the sender holds this
    /// epoch, in slot order. A slot is 0-based and below the epoch's
    /// `serve_count`; receivers drop any other.
    Serve(Vec<(u32, ExposeMsg<F>)>),
}

impl<F: Field> WireSize for BeaconMsg<F> {
    fn wire_bytes(&self) -> usize {
        match self {
            BeaconMsg::Gen(m) => m.wire_bytes(),
            // Each share carries its slot tag, so an envelope costs what
            // one message per share did: only the message count shrinks.
            BeaconMsg::Serve(shares) => shares.iter().map(|(_, m)| 4 + m.wire_bytes()).sum(),
        }
    }
}

/// The gen plane runs directly on the beacon wire: each Coin-Gen
/// sub-protocol's traffic embeds through the [`BeaconMsg::Gen`] variant,
/// so a delivered gen-plane message reaches the Coin-Gen machine as the
/// [`Received`] it arrived in — a fan-out's shared payload is handed
/// down, not re-wrapped or deep-cloned per delivery. (Serve-plane shares
/// are *not* visible through these: the gen plane's own exposes and a
/// serve slot's exposes are different traffic.)
macro_rules! embed_gen {
    ($($inner:ty),*) => {$(
        impl<F: Field> Embeds<$inner> for BeaconMsg<F> {
            fn wrap(inner: $inner) -> Self {
                BeaconMsg::Gen(CoinGenMsg::wrap(inner))
            }
            fn peek(&self) -> Option<&$inner> {
                match self {
                    BeaconMsg::Gen(g) => g.peek(),
                    BeaconMsg::Serve(_) => None,
                }
            }
        }
    )*};
}
embed_gen!(BitGenMsg<F>, ExposeMsg<F>, GcMsg<CliqueAnnounce<F>>, BaMsg);

/// What the gen plane reported, when the epoch ran one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefillReport {
    /// Coins the batch added to the wallet.
    pub coins: usize,
    /// Coin-Gen runs made, including the successful one.
    pub attempts: usize,
    /// Wallet coins consumed across all runs.
    pub seeds_spent: usize,
}

/// One party's output of one epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochOutcome<F: Field> {
    /// The wallet after the epoch: the pre-split remainder handed back by
    /// the gen plane, extended with the fresh batch on success.
    pub wallet: CoinWallet<F>,
    /// The serve plane's decoded coins, one per slot in slot order.
    pub served: Vec<Result<F, CoinError>>,
    /// The gen plane's result — `None` when no refill was scheduled.
    pub refill: Option<Result<RefillReport, ProtocolError>>,
}

/// The gen plane's in-flight machine: `coin_gen_with_retry` on the beacon
/// wire, boxed to its final (remainder wallet, batch-or-blame) pair.
type GenMachine<F> =
    BoxedMachine<BeaconMsg<F>, (CoinWallet<F>, Result<(CoinBatch<F>, RetryReport), ProtocolError>)>;

/// The gen plane.
enum GenState<F: Field> {
    /// No refill this epoch: the wallet just waits for the serve plane.
    Idle(CoinWallet<F>),
    /// A retry-wrapped Coin-Gen run in flight.
    Running(GenMachine<F>),
    /// Finished (or never started); wallet already merged with any batch.
    Done(CoinWallet<F>, Option<Result<RefillReport, ProtocolError>>),
    /// Transient marker while ownership moves between states.
    Poisoned,
}

/// One beacon epoch for one party: serve `serve_count` coins off the
/// wallet front while (optionally) refilling the remainder via Coin-Gen.
///
/// All honest parties must construct this machine in the same round with
/// wallets in the same state and identical `serve_count` / `refill`
/// choices — the beacon service derives both deterministically from
/// snapshotable state, so resumed runs make the same choices.
///
/// The serve plane is Coin-Expose (Fig. 6) for every slot at once: the
/// first round sends one [`BeaconMsg::Serve`] envelope of every held
/// `(slot, share)` to all parties (none when the party holds no share);
/// the second decodes each slot from the first share per sender, all
/// slots through one [`CoinDecoder`].
pub struct EpochMachine<F: Field> {
    t: usize,
    /// This party's share of each slot's coin, in slot order.
    serve: Vec<SealedShare<F>>,
    /// Whether the shares have gone out.
    sent: bool,
    /// The decoded slots, once the serve plane is done.
    served: Option<Vec<Result<F, CoinError>>>,
    gen: GenState<F>,
}

impl<F: Field> EpochMachine<F> {
    /// Build the epoch: pop `serve_count` shares for the serve plane
    /// (oldest coins first, preserving the wallets' lock-step positions)
    /// and hand the remainder to `coin_gen_with_retry` when `refill` is
    /// set.
    ///
    /// A party whose wallet runs short mid-split serves
    /// [`SealedShare::absent`] for the missing slots — it abstains from
    /// those exposes but still learns the coins, mirroring Fig. 6's
    /// non-contributor behaviour.
    pub fn new(
        cfg: CoinGenConfig,
        mut wallet: CoinWallet<F>,
        serve_count: usize,
        refill: Option<RetryPolicy>,
    ) -> Self {
        let serve: Vec<SealedShare<F>> = (0..serve_count)
            .map(|_| wallet.pop().unwrap_or_else(|_| SealedShare::absent()))
            .collect();
        let gen = match refill {
            Some(policy) => GenState::Running(Box::new(coin_gen_with_retry::<BeaconMsg<F>, F>(
                cfg, wallet, policy,
            ))),
            None => GenState::Idle(wallet),
        };
        // With no slots the serve plane has nothing to wait for.
        let served = serve.is_empty().then(Vec::new);
        EpochMachine { t: cfg.params.t, serve, sent: false, served, gen }
    }

    /// Whether both planes have finished.
    fn all_done(&self) -> bool {
        matches!(self.gen, GenState::Done(..)) && self.served.is_some()
    }

    /// Collect the finished epoch's outcome, consuming the plane states.
    fn finish(&mut self) -> EpochOutcome<F> {
        let (wallet, refill) = match std::mem::replace(&mut self.gen, GenState::Poisoned) {
            GenState::Done(w, r) => (w, r),
            _ => unreachable!("finish() requires a Done gen plane"),
        };
        EpochOutcome { wallet, served: self.served.take().unwrap_or_default(), refill }
    }
}

/// One round's multiplexed inbox, split per plane.
struct Planes<F: Field> {
    /// Gen-plane deliveries, still on the beacon wire (fan-out payloads
    /// shared with the multiplexed inbox).
    gen: Vec<Received<BeaconMsg<F>>>,
    /// Serve-plane shares: one row per slot below `serve_count`, one cell
    /// per sender.
    serve: SlotTable<F>,
}

impl<F: Field> Planes<F> {
    fn split(inbox: &Inbox<BeaconMsg<F>>, n: usize, serve_count: usize) -> Self {
        #[expect(
            clippy::disallowed_methods,
            reason = "demultiplexing: the gen plane's deliveries pass on whole, and Coin-Gen's \
                      machines read them by the receive rule"
        )]
        let gen = inbox.iter().filter(|r| matches!(r.msg(), BeaconMsg::Gen(_))).cloned().collect();
        let serve = inbox.first_per_slot(n, 0..serve_count, |r| match r.msg() {
            BeaconMsg::Serve(shares) => {
                Some(shares.iter().map(|&(slot, ExposeMsg(y))| (slot as usize, y)))
            }
            BeaconMsg::Gen(_) => None,
        });
        Planes { gen, serve }
    }
}

impl<F: Field> RoundMachine<BeaconMsg<F>> for EpochMachine<F> {
    type Output = EpochOutcome<F>;

    fn round(&mut self, view: RoundView<'_, BeaconMsg<F>>) -> Step<BeaconMsg<F>, Self::Output> {
        let mut out = view.outbox();
        // Only the decode round reads the serve columns.
        let decoding = self.sent && self.served.is_none();
        let planes = Planes::split(view.inbox, view.n, if decoding { self.serve.len() } else { 0 });

        // Gen plane first — the RNG draw order must not depend on which
        // planes happen to still be live.
        if let GenState::Running(_) = self.gen {
            let inbox = Inbox::from_messages(planes.gen);
            let sub = RoundView {
                id: view.id,
                n: view.n,
                round: view.round,
                inbox: &inbox,
                rng: &mut *view.rng,
            };
            let gen = std::mem::replace(&mut self.gen, GenState::Poisoned);
            let GenState::Running(mut m) = gen else { unreachable!() };
            match m.round(sub) {
                Step::Continue(o) => {
                    out.append(o);
                    self.gen = GenState::Running(m);
                }
                Step::Done((mut wallet, res)) => {
                    let report = res.map(|(batch, report)| {
                        let coins = batch.shares.len();
                        wallet.extend(batch.shares);
                        RefillReport {
                            coins,
                            attempts: report.attempts,
                            seeds_spent: report.seeds_spent,
                        }
                    });
                    self.gen = GenState::Done(wallet, Some(report));
                }
            }
        } else if let GenState::Idle(_) = self.gen {
            let GenState::Idle(wallet) = std::mem::replace(&mut self.gen, GenState::Poisoned)
            else {
                unreachable!()
            };
            self.gen = GenState::Done(wallet, None);
        }

        // Serve plane: every held share goes out in one envelope, then
        // every slot decodes.
        if decoding {
            let mut decoder = CoinDecoder::new(self.t);
            self.served = Some(planes.serve.rows().map(|row| decoder.decode_column(row)).collect());
        } else if self.served.is_none() {
            self.sent = true;
            let shares: Vec<(u32, ExposeMsg<F>)> = (0u32..)
                .zip(&self.serve)
                .filter_map(|(slot, share)| share.sigma.map(|y| (slot, ExposeMsg(y))))
                .collect();
            if !shares.is_empty() {
                out.send_to_all(BeaconMsg::Serve(shares));
            }
        }

        if self.all_done() {
            debug_assert!(out.is_empty(), "finished planes must not leave queued sends");
            Step::Done(self.finish())
        } else {
            Step::Continue(out)
        }
    }

    fn phase_name(&self) -> &'static str {
        match (&self.gen, self.served.is_none()) {
            (GenState::Running(_), true) => "epoch/gen+serve",
            (GenState::Running(_), false) => "epoch/gen",
            (_, true) => "epoch/serve",
            _ => "epoch/drain",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dprbg_core::{decode_coin, Params, TrustedDealer};
    use dprbg_field::Gf2k;
    use dprbg_metrics::CostSnapshot;
    use dprbg_poly::{column_points, party_points};
    use dprbg_rng::prelude::*;
    use dprbg_sim::{from_fn, BoxedMachine, MachineExt, ParRunner, StepRunner};

    type F = Gf2k<32>;

    fn cfg(n: usize, t: usize) -> CoinGenConfig {
        CoinGenConfig { params: Params::p2p_model(n, t).unwrap(), batch_size: 8 }
    }

    fn fleet(
        n: usize,
        t: usize,
        count: usize,
        seed: u64,
        serve: usize,
        refill: Option<RetryPolicy>,
    ) -> Vec<BoxedMachine<BeaconMsg<F>, EpochOutcome<F>>> {
        TrustedDealer::deal_wallets::<F>(Params::p2p_model(n, t).unwrap(), count, seed)
            .into_iter()
            .map(|w| {
                Box::new(EpochMachine::new(cfg(n, t), w, serve, refill))
                    as BoxedMachine<BeaconMsg<F>, _>
            })
            .collect()
    }

    #[test]
    fn serve_only_epoch_takes_two_rounds() {
        let res = StepRunner::new(7, 40).run(fleet(7, 1, 6, 400, 3, None));
        // One *communication* round: the share send (the decode call
        // consumes it without sending anything, so it profiles no round).
        assert_eq!(res.rounds.len(), 1, "pure serve plane = one Coin-Expose window");
        let outs = res.unwrap_all();
        for out in &outs {
            assert_eq!(out.wallet.len(), 3);
            assert_eq!(out.served.len(), 3);
            assert!(out.refill.is_none());
            for c in &out.served {
                c.as_ref().unwrap();
            }
        }
        // Unanimity across parties.
        for w in outs.windows(2) {
            assert_eq!(w[0].served, w[1].served);
        }
    }

    #[test]
    fn served_coins_equal_a_reference_decode_of_the_dealt_shares() {
        // A change to the decoder may move a beacon run's digest through
        // the field-op totals its snapshots embed, never through a coin:
        // every served value is what exhaustive decoding of the dealt
        // shares gives. Party 3 lies in the odd slots, so those words are
        // dirty (the linear solve) and the even ones clean (the probe).
        let (n, t, slots) = (7, 1, 4);
        let mut wallets =
            TrustedDealer::deal_wallets::<F>(Params::p2p_model(n, t).unwrap(), slots, 440);
        wallets[2] = (0..slots)
            .map(|slot| {
                let sigma = wallets[2].peek_at(slot).unwrap().sigma.unwrap();
                SealedShare::of(if slot % 2 == 1 { sigma + F::one() } else { sigma })
            })
            .collect();
        // t = 1: the line through two of the shares that ≥ n − t lie on.
        let reference: Vec<F> = (0..slots)
            .map(|slot| {
                let points: Vec<(F, F)> = wallets
                    .iter()
                    .enumerate()
                    .map(|(i, w)| (F::element(i as u64 + 1), w.peek_at(slot).unwrap().sigma.unwrap()))
                    .collect();
                let lines = points.iter().flat_map(|&p| points.iter().map(move |&q| [p, q]));
                lines
                    .filter(|[p, q]| p.0 != q.0)
                    .map(|pair| dprbg_poly::interpolate(&pair).unwrap())
                    .find(|f| points.iter().filter(|&&(x, y)| f.eval(x) == y).count() >= n - t)
                    .expect("six honest shares lie on one line")
                    .constant_term()
            })
            .collect();

        let fleet: Vec<BoxedMachine<BeaconMsg<F>, EpochOutcome<F>>> = wallets
            .into_iter()
            .map(|w| Box::new(EpochMachine::new(cfg(n, t), w, slots, None)) as _)
            .collect();
        for out in StepRunner::new(n, 44).run(fleet).unwrap_all() {
            let served: Vec<F> = out.served.iter().map(|c| *c.as_ref().unwrap()).collect();
            assert_eq!(served, reference);
        }
    }

    #[test]
    fn serve_plane_decodes_each_slot_like_decode_coin_under_mixed_responder_sets() {
        // Party 7 is corrupt and sends two envelopes. Slot 0: every party
        // sends (party 7's second envelope lies again; only the first
        // counts). Slot 1: party 7's first envelope holds its share, then
        // a lie for the same slot (only the first counts). Slot 2: party
        // 2 holds no share, and party 7's share arrives in its second
        // envelope only (a new slot there still counts). Slot 3: only
        // party 1 holds one (t shares). Slot 4: party 7 lies, so the word
        // reaches the linear solve. Party 7 also tags a share with slot
        // 9, past the epoch's serve count, which every party drops.
        let (n, t, slots) = (7, 1, 5);
        let dealt = TrustedDealer::deal_wallets::<F>(Params::p2p_model(n, t).unwrap(), slots, 450);
        let dealt_share =
            |party: usize, slot: usize| dealt[party - 1].peek_at(slot).unwrap().sigma.unwrap();
        let lie = |slot: usize| dealt_share(7, slot) + F::from_u64(0xBAD);
        // The share each party's first message for each slot carries.
        let counted = |party: usize, slot: usize| match (party, slot) {
            (2, 2) | (2..=7, 3) => None,
            (7, 4) => Some(lie(4)),
            _ => Some(dealt_share(party, slot)),
        };
        let share = |slot: usize, y: F| (slot as u32, ExposeMsg(y));
        let first: Vec<_> = [0, 1, 4]
            .into_iter()
            .map(|slot| share(slot, counted(7, slot).unwrap()))
            .chain([share(1, lie(1)), share(9, lie(0))])
            .collect();
        let second = vec![share(0, lie(0)), share(2, counted(7, 2).unwrap()), share(9, lie(2))];

        let reference: Vec<Result<F, CoinError>> = (0..slots)
            .map(|slot| {
                let points: Vec<(F, F)> = (1..=n)
                    .filter_map(|p| counted(p, slot).map(|y| (F::element(p as u64), y)))
                    .collect();
                decode_coin(&points, t)
            })
            .collect();
        assert!(reference.iter().enumerate().all(|(slot, c)| c.is_ok() == (slot != 3)));
        assert_eq!(reference[3], Err(CoinError::NotEnoughShares { got: 1, need: 2 }));
        let dirty: Vec<(F, F)> =
            (1..=n).map(|p| (F::element(p as u64), counted(p, 4).unwrap())).collect();
        let before = CostSnapshot::capture();
        decode_coin(&dirty, t).unwrap();
        let solve_invs = CostSnapshot::capture().since(&before).field_invs - 1;
        assert!(solve_invs > 0, "slot 4 must reach the linear solve");

        let fleet = || {
            let mut fleet: Vec<BoxedMachine<BeaconMsg<F>, Option<EpochOutcome<F>>>> = (1..n)
                .map(|p| {
                    let wallet = (0..slots)
                        .map(|s| counted(p, s).map_or_else(SealedShare::absent, SealedShare::of))
                        .collect();
                    Box::new(EpochMachine::new(cfg(n, t), wallet, slots, None).map(Some)) as _
                })
                .collect();
            let envelopes = [first.clone(), second.clone()];
            fleet.push(Box::new(from_fn(move |view: RoundView<'_, BeaconMsg<F>>| {
                if view.round > 0 {
                    return Step::Done(None);
                }
                let mut out = view.outbox();
                for shares in &envelopes {
                    out.send_to_all(BeaconMsg::Serve(shares.clone()));
                }
                Step::Continue(out)
            })));
            fleet
        };
        for res in [StepRunner::new(n, 45).run(fleet()), ParRunner::new(n, 45).run(fleet())] {
            for out in &res.outputs[..n - 1] {
                let out = out.as_ref().and_then(Option::as_ref).expect("honest parties finish");
                assert_eq!(out.served, reference);
            }
            // Each honest party builds one basis per sender-set change —
            // slots 0, 2 and 4; slot 1 repeats slot 0's set and slot 3 is
            // too small to build one — plus the dirty word's solve.
            let honest = (n - 1) as u64;
            assert_eq!(res.report.total().field_invs, honest * (3 + solve_invs));
        }
    }

    #[test]
    fn pipelined_epoch_is_no_slower_than_gen_alone() {
        let n = 7;
        let policy = RetryPolicy { max_attempts: 3, seed_budget: 8 };
        // Gen alone (serve_count = 0).
        let gen_only = StepRunner::new(n, 41).run(fleet(n, 1, 10, 410, 0, Some(policy)));
        let gen_rounds = gen_only.rounds.len();
        assert!(gen_rounds > 2, "Coin-Gen must dominate the epoch");
        // Gen + 4 serves, overlapped.
        let both = StepRunner::new(n, 41).run(fleet(n, 1, 10, 410, 4, Some(policy)));
        assert_eq!(
            both.rounds.len(),
            gen_rounds,
            "serving during refill must not stretch the epoch"
        );
        let outs = both.unwrap_all();
        for out in &outs {
            assert_eq!(out.served.len(), 4);
            let refill = out.refill.clone().unwrap().unwrap();
            assert!(refill.coins > 0);
            // Wallet = 10 dealt − 4 served − seeds + fresh batch.
            assert_eq!(out.wallet.len(), 10 - 4 - refill.seeds_spent + refill.coins);
        }
        for w in outs.windows(2) {
            assert_eq!(w[0].served, w[1].served);
            assert_eq!(w[0].refill, w[1].refill);
        }
    }

    #[test]
    fn executors_agree_on_epoch_transcripts() {
        let policy = RetryPolicy { max_attempts: 2, seed_budget: 6 };
        let a = StepRunner::new(7, 42).run(fleet(7, 1, 9, 420, 2, Some(policy)));
        let b = ParRunner::new(7, 42).run(fleet(7, 1, 9, 420, 2, Some(policy)));
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.report, b.report);
    }

    #[test]
    fn short_wallet_slots_abstain_but_still_learn() {
        // Parties hold 2 coins but the epoch serves 3: slot 2 is exposed
        // by nobody, so it fails to decode — deterministically, at every
        // party — while slots 0 and 1 still succeed.
        let res = StepRunner::new(7, 43).run(fleet(7, 1, 2, 430, 3, None));
        let outs = res.unwrap_all();
        for out in &outs {
            assert!(out.served[0].is_ok());
            assert!(out.served[1].is_ok());
            assert!(out.served[2].is_err());
        }
        for w in outs.windows(2) {
            assert_eq!(w[0].served, w[1].served);
        }
    }

    #[test]
    fn a_party_holding_no_share_sends_no_serve_envelope() {
        // Party 1's wallet is empty, so it abstains from both slots: the
        // other six send one envelope each to all seven parties, and the
        // six shares per slot still decode.
        let (n, t, slots) = (7, 1, 2);
        let mut wallets =
            TrustedDealer::deal_wallets::<F>(Params::p2p_model(n, t).unwrap(), slots, 460);
        wallets[0] = std::iter::empty().collect();
        let fleet: Vec<BoxedMachine<BeaconMsg<F>, EpochOutcome<F>>> = wallets
            .into_iter()
            .map(|w| Box::new(EpochMachine::new(cfg(n, t), w, slots, None)) as _)
            .collect();
        let res = StepRunner::new(n, 46).run(fleet);
        let total = res.report.total();
        assert_eq!(total.messages, ((n - 1) * n) as u64);
        assert_eq!(total.bytes, ((n - 1) * n * slots * (4 + F::wire_bytes_static())) as u64);
        for out in res.unwrap_all() {
            assert!(out.served.iter().all(Result::is_ok));
        }
    }

    #[test]
    fn beacon_msg_wire_size_counts_slot_tag() {
        // k shares cost k · (4 + |F|): one envelope saves messages, not
        // bytes.
        for k in 0..4u32 {
            let m: BeaconMsg<F> =
                BeaconMsg::Serve((0..k).map(|s| (s + 7, ExposeMsg(F::from_u64(3)))).collect());
            assert_eq!(m.wire_bytes(), k as usize * (4 + F::wire_bytes_static()));
        }
    }

    /// Per slot, the first share of each sender in `(from, seq)` order,
    /// as `(point, share)` pairs.
    fn reference_split(
        envelopes: &[(usize, Vec<(u32, ExposeMsg<F>)>)],
        serve_count: usize,
    ) -> Vec<Vec<(F, F)>> {
        let mut senders: Vec<usize> = envelopes.iter().map(|&(from, _)| from).collect();
        senders.dedup();
        (0..serve_count as u32)
            .map(|slot| {
                senders
                    .iter()
                    .filter_map(|&from| {
                        envelopes
                            .iter()
                            .filter(|(f, _)| *f == from)
                            .flat_map(|(_, shares)| shares)
                            .find(|(s, _)| *s == slot)
                            .map(|&(_, ExposeMsg(y))| (F::element(from as u64), y))
                    })
                    .collect()
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_flat_split_equals_nested_reference(
            seed: u64,
            n in 7usize..10,
            serve_count in 0usize..6,
        ) {
            let t = 1;
            let mut rng = StdRng::seed_from_u64(seed);
            let dealt = TrustedDealer::deal_wallets::<F>(
                Params::p2p_model(n, t).unwrap(),
                serve_count,
                seed,
            );
            // A random sender subset; each sender sends one or two
            // envelopes of random slots (some repeated, some past
            // `serve_count`), each share honest or off by one.
            let mut envelopes: Vec<(usize, Vec<(u32, ExposeMsg<F>)>)> = Vec::new();
            let senders: Vec<usize> = (1..=n).filter(|_| rng.random_bool(0.8)).collect();
            for from in senders {
                for _ in 0..rng.random_range(1usize..3) {
                    let shares = (0..rng.random_range(0usize..2 * serve_count + 3))
                        .map(|_| {
                            let slot = rng.random_range(0..serve_count + 2);
                            let honest = dealt[from - 1]
                                .peek_at(slot)
                                .map_or(F::zero(), |s| s.sigma.unwrap());
                            let y = if rng.random_bool(0.9) { honest } else { honest + F::one() };
                            (slot as u32, ExposeMsg(y))
                        })
                        .collect();
                    envelopes.push((from, shares));
                }
            }
            let mut seqs = vec![0u32; n + 1];
            let inbox = Inbox::from_messages(
                envelopes
                    .iter()
                    .map(|(from, shares)| {
                        seqs[*from] += 1;
                        Received::new(*from, false, seqs[*from], BeaconMsg::Serve(shares.clone()))
                    })
                    .collect(),
            );

            let reference = reference_split(&envelopes, serve_count);
            let planes = Planes::split(&inbox, n, serve_count);
            let points = party_points(n);
            prop_assert!(planes.gen.is_empty());
            prop_assert_eq!(planes.serve.rows().count(), serve_count);
            for (row, reference) in planes.serve.rows().zip(&reference) {
                prop_assert_eq!(&column_points(&points, row).collect::<Vec<_>>(), reference);
            }

            // The decode round of a party that already sent serves what
            // `decode_coin` gives on the reference.
            let mut machine = EpochMachine::new(cfg(n, t), dealt[0].clone(), serve_count, None);
            machine.sent = true;
            let mut party_rng = StdRng::seed_from_u64(seed);
            let view = RoundView { id: 1, n, round: 1, inbox: &inbox, rng: &mut party_rng };
            let Step::Done(out) = machine.round(view) else {
                panic!("the decode round finishes a serve-only epoch")
            };
            let expected: Vec<Result<F, CoinError>> =
                reference.iter().map(|points| decode_coin(points, t)).collect();
            prop_assert_eq!(out.served, expected);
        }
    }
}
