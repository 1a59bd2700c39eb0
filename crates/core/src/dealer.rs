//! The initial distributed seed (§1.2).
//!
//! "The initial set of coins can be obtained from a trusted third party,
//! as in the case of Rabin \[17\], or through other pre-processing methods
//! (for example, the interpolation of a number m of polynomials … ). We
//! remark that in our approach the services of a trusted dealer would be
//! used only once, and for a small number of coins."
//!
//! [`TrustedDealer`] implements that one-shot trusted setup, and is the
//! only dealer in the workspace: every test, experiment and service
//! seeds its wallets through it.

use dprbg_field::Field;
use dprbg_poly::{share_points, share_polynomial};
use dprbg_rng::rngs::StdRng;
use dprbg_rng::SeedableRng;

use crate::coin::{CoinWallet, SealedShare};
use crate::params::Params;

/// The one-shot trusted dealer of §1.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrustedDealer;

impl TrustedDealer {
    /// Deal `count` sealed k-ary coins to `n` parties: one wallet per
    /// party, in party order. Deterministic in `seed` (tests and
    /// simulations re-derive identical setups).
    pub fn deal_wallets<F: Field>(params: Params, count: usize, seed: u64) -> Vec<CoinWallet<F>> {
        Self::deal_wallets_with_values(params, count, seed).0
    }

    /// Like [`TrustedDealer::deal_wallets`], also returning the coins'
    /// true values (for assertions in tests and experiments; a real
    /// dealer would discard them).
    pub fn deal_wallets_with_values<F: Field>(
        params: Params,
        count: usize,
        seed: u64,
    ) -> (Vec<CoinWallet<F>>, Vec<F>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut wallets: Vec<CoinWallet<F>> = (0..params.n).map(|_| CoinWallet::new()).collect();
        let mut values = Vec::with_capacity(count);
        for _ in 0..count {
            let value = F::random(&mut rng);
            let poly = share_polynomial(value, params.t, &mut rng);
            for (wallet, share) in wallets.iter_mut().zip(share_points(&poly, params.n)) {
                wallet.push(SealedShare::of(share.y));
            }
            values.push(value);
        }
        (wallets, values)
    }

    /// Each party's share of one dealt coin, in party order — the
    /// challenge coin of a single protocol run in this crate's tests.
    #[cfg(test)]
    pub(crate) fn coin_shares<F: Field>(n: usize, t: usize, seed: u64) -> Vec<SealedShare<F>> {
        Self::deal_wallets::<F>(Params { n, t }, 1, seed)
            .iter()
            .map(|w| *w.peek_at(0).expect("one coin dealt"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coin::decode_coin;
    use dprbg_field::Gf2k;

    type F = Gf2k<32>;

    #[test]
    fn dealt_coins_decode_to_true_values() {
        let params = Params::p2p_model(7, 1).unwrap();
        let (mut wallets, values) =
            TrustedDealer::deal_wallets_with_values::<F>(params, 3, 42);
        for value in values {
            let pts: Vec<(F, F)> = wallets
                .iter_mut()
                .enumerate()
                .map(|(i, w)| (F::element(i as u64 + 1), w.pop().unwrap().sigma.unwrap()))
                .collect();
            assert_eq!(decode_coin(&pts, params.t).unwrap(), value);
        }
    }

    #[test]
    fn dealing_is_deterministic_in_seed() {
        let params = Params::p2p_model(7, 1).unwrap();
        let a = TrustedDealer::deal_wallets::<F>(params, 2, 5);
        let b = TrustedDealer::deal_wallets::<F>(params, 2, 5);
        let c = TrustedDealer::deal_wallets::<F>(params, 2, 6);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn coins_tolerate_t_corrupted_shares() {
        let params = Params::p2p_model(13, 2).unwrap();
        let (mut wallets, values) =
            TrustedDealer::deal_wallets_with_values::<F>(params, 1, 9);
        let mut pts: Vec<(F, F)> = wallets
            .iter_mut()
            .enumerate()
            .map(|(i, w)| (F::element(i as u64 + 1), w.pop().unwrap().sigma.unwrap()))
            .collect();
        pts[0].1 = F::from_u64(1);
        pts[1].1 = F::from_u64(2);
        assert_eq!(decode_coin(&pts, params.t).unwrap(), values[0]);
    }
}
