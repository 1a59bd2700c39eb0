//! Bootstrapping (Fig. 1, §1.2): a self-sustaining source of shared coins.
//!
//! "An initial distributed seed is generated via some known, not
//! necessarily fast protocol. Then the generator is run to produce as many
//! coins as the current execution of the application needs, plus another
//! (distributed) seed. … we envision an adaptive mechanism, in which coins
//! are generated on demand, with a constant threshold triggering the
//! generation of new coins."
//!
//! [`Bootstrap`] is that adaptive mechanism: a reservoir of sealed coins
//! that refills itself (by running the D-PRBG) whenever a draw would drop
//! it below the low-water mark. Once kicked off, the source is
//! self-sufficient — each refill consumes a constant expected number of
//! seed coins and deposits `M`.
//!
//! Each operation consumes the reservoir and returns a [`RoundMachine`]
//! whose output hands it back alongside the result, so applications
//! thread the reservoir through a chain of draws with
//! [`dprbg_sim::MachineExt::then`] or [`dprbg_sim::looping`].

use std::mem;

use dprbg_field::Field;
use dprbg_sim::{looping, LoopControl, MachineExt, RoundMachine};

use crate::coin::{CoinWallet, ExposeMachine, ExposeVia, SealedShare};
use crate::coin_gen::{CoinGenConfig, CoinGenWire};
use crate::dprbg::dprbg_expand;
use crate::errors::CoinGenError;
use crate::refresh::{RefreshMachine, RefreshReport};

/// Configuration of the bootstrap reservoir.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BootstrapConfig {
    /// The generator configuration (parameters + batch size `M`).
    pub coin_gen: CoinGenConfig,
    /// Refill when the reservoir is about to drop below this level. Must
    /// cover the generator's own seed needs: ≥ 2 (one challenge + one
    /// leader coin), comfortably more to absorb extra BA attempts under
    /// faults.
    pub low_water: usize,
}

impl BootstrapConfig {
    /// A sensible default low-water mark: `4 + t` (challenge + expected
    /// leader coins + slack proportional to the number of corruptible
    /// leaders).
    pub fn with_default_low_water(coin_gen: CoinGenConfig) -> Self {
        BootstrapConfig { coin_gen, low_water: 4 + coin_gen.params.t }
    }
}

/// Cumulative statistics of a bootstrap reservoir.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BootstrapStats {
    /// Coins drawn (consumed by the application).
    pub draws: usize,
    /// D-PRBG refill runs triggered.
    pub refills: usize,
    /// Seed coins the refills consumed.
    pub seeds_consumed: usize,
    /// Coins the refills produced.
    pub coins_produced: usize,
    /// Leader attempts across all refills (Lemma 8: expected O(1) each).
    pub attempts: usize,
}

/// The bootstrap reservoir of Fig. 1.
///
/// One instance per party; all honest parties drive theirs in lock-step
/// (the refill decision depends only on the shared reservoir level, so
/// honest parties always agree on when to refill).
///
/// # Examples
///
/// See `examples/coin_beacon.rs` for a full application loop.
#[derive(Debug, Clone)]
pub struct Bootstrap<F: Field> {
    cfg: BootstrapConfig,
    wallet: CoinWallet<F>,
    stats: BootstrapStats,
}

/// States of the refill-then-act flows (private to the loops below).
enum Flow<F: Field, T> {
    Start(Bootstrap<F>),
    Refilled(Bootstrap<F>, Result<bool, CoinGenError>),
    Done(Bootstrap<F>, Result<T, CoinGenError>),
}

/// States of the draw-and-expose flow.
enum DrawFlow<F: Field> {
    Start(Bootstrap<F>),
    Drawn(Bootstrap<F>, Result<SealedShare<F>, CoinGenError>),
    Exposed(Bootstrap<F>, Result<F, CoinGenError>),
}

impl<F: Field> Bootstrap<F> {
    /// Start the reservoir from an initial seed wallet (trusted dealer or
    /// preprocessing — see [`crate::dealer`]).
    pub fn new(cfg: BootstrapConfig, initial: CoinWallet<F>) -> Self {
        Bootstrap { cfg, wallet: initial, stats: BootstrapStats::default() }
    }

    /// Coins currently sealed in the reservoir.
    pub fn level(&self) -> usize {
        self.wallet.len()
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> BootstrapStats {
        self.stats
    }

    /// The generator configuration.
    pub fn config(&self) -> &BootstrapConfig {
        &self.cfg
    }

    /// Refill if a draw now would leave fewer than `low_water` coins.
    ///
    /// The result is `Ok(true)` when a refill ran; on generator errors
    /// the reservoir is unchanged except for the seeds the failed run
    /// consumed. A reservoir above the low-water mark produces `Ok(false)`
    /// without costing a round.
    pub fn maybe_refill<M: CoinGenWire<F>>(
        self,
    ) -> impl RoundMachine<M, Output = (Self, Result<bool, CoinGenError>)> {
        looping(Flow::<F, bool>::Start(self), |flow| match flow {
            Flow::Start(mut b) => {
                if b.wallet.len() > b.cfg.low_water {
                    return LoopControl::Break((b, Ok(false)));
                }
                let cfg = b.cfg.coin_gen;
                let wallet = mem::take(&mut b.wallet);
                LoopControl::Continue(Box::new(dprbg_expand::<M, F>(cfg, wallet).map(
                    move |(w, res)| {
                        b.wallet = w;
                        match res {
                            Ok(run) => {
                                b.stats.refills += 1;
                                b.stats.seeds_consumed += run.seeds_consumed;
                                b.stats.coins_produced += run.coins_produced;
                                b.stats.attempts += run.attempts;
                                Flow::Done(b, Ok(true))
                            }
                            Err(e) => Flow::Done(b, Err(e)),
                        }
                    },
                )))
            }
            Flow::Refilled(b, res) => LoopControl::Break((b, res)),
            Flow::Done(b, res) => LoopControl::Break((b, res)),
        })
    }

    /// Draw the next sealed coin *without* exposing it (for protocols
    /// that consume sealed coins, e.g. further VSS runs). Refills first
    /// when needed.
    ///
    /// The result carries refill errors, and
    /// [`crate::CoinError::WalletEmpty`] (as `CoinGenError::Coin`) only
    /// if refilling is impossible.
    pub fn draw_sealed<M: CoinGenWire<F>>(
        self,
    ) -> impl RoundMachine<M, Output = (Self, Result<SealedShare<F>, CoinGenError>)> {
        self.maybe_refill().map(|(mut b, res)| match res {
            Err(e) => (b, Err(e)),
            Ok(_) => match b.wallet.pop() {
                Err(e) => (b, Err(e.into())),
                Ok(share) => {
                    b.stats.draws += 1;
                    (b, Ok(share))
                }
            },
        })
    }

    /// Draw and expose the next coin: the application-facing "give me a
    /// fresh shared random value" call (one expose round-trip, plus a
    /// refill when the reservoir is low).
    ///
    /// See [`Bootstrap::draw_sealed`] and [`ExposeMachine`] for the
    /// failure modes carried in the result.
    pub fn draw<M: CoinGenWire<F>>(
        self,
    ) -> impl RoundMachine<M, Output = (Self, Result<F, CoinGenError>)> {
        looping(DrawFlow::Start(self), |flow| match flow {
            DrawFlow::Start(b) => LoopControl::Continue(Box::new(
                b.draw_sealed().map(|(b, res)| DrawFlow::Drawn(b, res)),
            )),
            DrawFlow::Drawn(b, Err(e)) => LoopControl::Break((b, Err(e))),
            DrawFlow::Drawn(b, Ok(share)) => {
                let t = b.cfg.coin_gen.params.t;
                LoopControl::Continue(Box::new(
                    ExposeMachine::new(share, t, ExposeVia::PointToPoint)
                        .map(move |r| DrawFlow::Exposed(b, r.map_err(CoinGenError::Coin))),
                ))
            }
            DrawFlow::Exposed(b, res) => LoopControl::Break((b, res)),
        })
    }

    /// Draw one *binary* shared coin: the low bit of a k-ary draw (the
    /// paper: "as all our coins will be generated in the field GF(2^k) we
    /// can assume that each coin generates in fact k random coins in
    /// {0,1}").
    #[expect(
        clippy::disallowed_methods,
        reason = "coin -> bit: formatting the drawn coin, not field arithmetic"
    )]
    pub fn draw_bit<M: CoinGenWire<F>>(
        self,
    ) -> impl RoundMachine<M, Output = (Self, Result<bool, CoinGenError>)> {
        self.draw().map(|(b, res)| (b, res.map(|v| v.to_u64() & 1 == 1)))
    }

    /// Draw one k-ary coin and return all `k` of its binary coins, least
    /// significant first — applications that consume bits in bulk get
    /// `k` shared bits per expose round.
    pub fn draw_bits<M: CoinGenWire<F>>(
        self,
    ) -> impl RoundMachine<M, Output = (Self, Result<Vec<bool>, CoinGenError>)> {
        self.draw().map(|(b, res)| {
            (b, res.map(|val| {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "coin -> bits: formatting the drawn coin, not field arithmetic"
                )]
                let v = val.to_u64();
                (0..F::bits()).map(|i| (v >> i) & 1 == 1).collect()
            }))
        })
    }

    /// Proactively re-randomize every sealed share in the reservoir
    /// (epoch boundary in the §1.2 mobile-adversary setting). Refills
    /// first if the reservoir is low, so the refresh's own seed
    /// consumption cannot drain it.
    ///
    /// The result propagates refill and refresh failures.
    pub fn refresh<M: CoinGenWire<F>>(
        self,
    ) -> impl RoundMachine<M, Output = (Self, Result<RefreshReport, CoinGenError>)> {
        looping(Flow::<F, RefreshReport>::Start(self), |flow| match flow {
            Flow::Start(b) => LoopControl::Continue(Box::new(
                b.maybe_refill().map(|(b, res)| Flow::Refilled(b, res)),
            )),
            Flow::Refilled(b, Err(e)) => LoopControl::Break((b, Err(e))),
            Flow::Refilled(mut b, Ok(_)) => {
                let cfg = b.cfg.coin_gen;
                let wallet = mem::take(&mut b.wallet);
                LoopControl::Continue(Box::new(RefreshMachine::new(cfg, wallet).map(
                    move |(w, res)| {
                        b.wallet = w;
                        Flow::Done(b, res)
                    },
                )))
            }
            Flow::Done(b, res) => LoopControl::Break((b, res)),
        })
    }
}

#[cfg(test)]
#[allow(clippy::type_complexity)]
mod tests {
    use super::*;
    use crate::coin_gen::CoinGenMsg;
    use crate::dealer::TrustedDealer;
    use crate::params::Params;
    use dprbg_field::Gf2k;
    use dprbg_sim::{BoxedMachine, StepRunner};

    type F = Gf2k<32>;
    type M = CoinGenMsg<F>;

    fn setup(n: usize, t: usize, m: usize, initial: usize, seed: u64) -> Vec<Bootstrap<F>> {
        let params = Params::p2p_model(n, t).unwrap();
        let cfg = BootstrapConfig::with_default_low_water(CoinGenConfig {
            params,
            batch_size: m,
        });
        TrustedDealer::deal_wallets::<F>(params, initial, seed)
            .into_iter()
            .map(|w| Bootstrap::new(cfg, w))
            .collect()
    }

    /// Draw `draws` coins back-to-back, threading the reservoir through.
    fn draw_many(
        b: Bootstrap<F>,
        draws: usize,
    ) -> impl RoundMachine<M, Output = (Bootstrap<F>, Vec<F>)> {
        looping((b, Vec::new(), draws), |(b, vals, k)| {
            if k == 0 {
                return LoopControl::Break((b, vals));
            }
            LoopControl::Continue(Box::new(b.draw().map(move |(b, res)| {
                let mut vals = vals;
                vals.push(res.expect("draw succeeds"));
                (b, vals, k - 1)
            })))
        })
    }

    #[test]
    fn draws_beyond_initial_seed_sustain_themselves() {
        // Initial seed of 6; draw 40 coins — far more than dealt. The
        // reservoir must refill on demand and all parties must see the
        // same 40 values.
        let n = 7;
        let t = 1;
        let draws = 40;
        let boots = setup(n, t, 16, 6, 1);
        let machines: Vec<BoxedMachine<M, (Vec<F>, BootstrapStats)>> = boots
            .into_iter()
            .map(|b| {
                Box::new(draw_many(b, draws).map(|(b, vals)| (vals, b.stats())))
                    as BoxedMachine<M, _>
            })
            .collect();
        let outs = StepRunner::new(n, 2).run(machines).unwrap_all();
        let (vals0, stats0) = &outs[0];
        assert_eq!(vals0.len(), draws);
        assert!(stats0.refills >= 2, "must have refilled: {stats0:?}");
        assert!(stats0.coins_produced > stats0.seeds_consumed);
        for (vals, _) in &outs {
            assert_eq!(vals, vals0, "coin values must be unanimous");
        }
    }

    #[test]
    fn refill_only_when_low() {
        let n = 7;
        let t = 1;
        let boots = setup(n, t, 8, 20, 3);
        let machines: Vec<BoxedMachine<M, BootstrapStats>> = boots
            .into_iter()
            .map(|b| {
                // 3 draws from a 20-coin reservoir: no refill needed.
                Box::new(draw_many(b, 3).map(|(b, _)| b.stats())) as BoxedMachine<M, _>
            })
            .collect();
        for stats in StepRunner::new(n, 4).run(machines).unwrap_all() {
            assert_eq!(stats.refills, 0);
            assert_eq!(stats.draws, 3);
        }
    }

    #[test]
    fn draw_bit_is_unanimous() {
        let n = 7;
        let t = 1;
        let boots = setup(n, t, 8, 6, 5);
        let machines: Vec<BoxedMachine<M, Vec<bool>>> = boots
            .into_iter()
            .map(|b| {
                Box::new(looping((b, Vec::new(), 8usize), |(b, bits, k)| {
                    if k == 0 {
                        return LoopControl::Break(bits);
                    }
                    LoopControl::Continue(Box::new(b.draw_bit().map(move |(b, res)| {
                        let mut bits = bits;
                        bits.push(res.expect("draw succeeds"));
                        (b, bits, k - 1)
                    })))
                })) as BoxedMachine<M, _>
            })
            .collect();
        let outs = StepRunner::new(n, 6).run(machines).unwrap_all();
        let b0 = outs[0].clone();
        assert!(outs.iter().all(|o| o == &b0));
        // Not all bits equal (probability 2^-7 per pattern; seeded test).
        assert!(b0.iter().any(|&x| x) || b0.iter().any(|&x| !x));
    }

    #[test]
    fn draw_bits_yields_k_unanimous_bits() {
        let n = 7;
        let t = 1;
        let boots = setup(n, t, 8, 6, 8);
        let machines: Vec<BoxedMachine<M, Vec<bool>>> = boots
            .into_iter()
            .map(|b| {
                Box::new(b.draw_bits().map(|(_, res)| res.expect("draw succeeds")))
                    as BoxedMachine<M, _>
            })
            .collect();
        let outs = StepRunner::new(n, 9).run(machines).unwrap_all();
        let bits = outs[0].clone();
        assert_eq!(bits.len(), 32, "one bit per field bit");
        assert!(outs.iter().all(|o| o == &bits));
        // 32 coin flips: both values present except w.p. 2^-31.
        assert!(bits.iter().any(|&b| b) && bits.iter().any(|&b| !b));
    }

    #[test]
    fn empty_initial_seed_fails_cleanly() {
        let n = 7;
        let t = 1;
        let params = Params::p2p_model(n, t).unwrap();
        let cfg = BootstrapConfig::with_default_low_water(CoinGenConfig {
            params,
            batch_size: 8,
        });
        let machines: Vec<BoxedMachine<M, Option<CoinGenError>>> = (0..n)
            .map(|_| {
                let b = Bootstrap::<F>::new(cfg, CoinWallet::new());
                Box::new(b.draw().map(|(_, res)| res.err())) as BoxedMachine<M, _>
            })
            .collect();
        for out in StepRunner::new(n, 7).run(machines).unwrap_all() {
            assert_eq!(out, Some(CoinGenError::SeedExhausted));
        }
    }
}
