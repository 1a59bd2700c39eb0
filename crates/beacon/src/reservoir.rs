//! The coin reservoir: bounded stock of exposed coins with explicit
//! backpressure and per-consumer fairness.
//!
//! The beacon's consumers draw *exposed* field elements, not sealed
//! shares; the reservoir sits between the epoch pipeline (which admits
//! each epoch's freshly exposed coins ahead of the serve pass) and the
//! demand side. Its capacity is bounded — exposing coins nobody asked
//! for burns the distributed seed the amortization story (§1.2) depends
//! on — and the bound is enforced on the *production* side: the
//! service's planner never exposes more than the epoch's demand plus
//! the cushion the capacity can absorb, so an admitted coin is never
//! destroyed. [`Reservoir::deposit`] additionally refuses overflow for
//! any producer outside that planning loop.
//!
//! On the demand side, backpressure is explicit rather than blocking:
//! a draw that cannot be met *now* yields [`DrawOutcome::WouldBlock`]
//! ("retry next epoch — the pipeline is refilling"), and only a beacon
//! that has degraded to read-only with an empty stock yields
//! [`DrawOutcome::Starved`] ("no coin will ever come"). Contention is
//! resolved round-robin across the epoch's consumers, so within one
//! epoch no two consumers' grant counts differ by more than one.

use std::collections::BTreeMap;

use dprbg_field::Field;

/// Sizing of a [`Reservoir`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReservoirConfig {
    /// Maximum exposed coins held; deposits beyond this are refused.
    pub capacity: usize,
    /// Refill trigger: the service tops the stock back up whenever an
    /// epoch would leave it at or below this level.
    pub low_water: usize,
}

impl ReservoirConfig {
    /// A config with `capacity` and a low-water mark of `capacity / 4`.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "reservoir capacity must be positive");
        ReservoirConfig { capacity, low_water: capacity / 4 }
    }
}

/// The result of one requested draw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrawOutcome<F: Field> {
    /// A coin was granted.
    Coin(F),
    /// The stock ran out this epoch but the pipeline is still producing:
    /// re-request next epoch.
    WouldBlock,
    /// The beacon is read-only (seed exhausted) and the stock is empty:
    /// no retry can succeed.
    Starved,
}

impl<F: Field> DrawOutcome<F> {
    /// The granted coin, if any.
    pub fn coin(&self) -> Option<F> {
        match self {
            DrawOutcome::Coin(c) => Some(*c),
            _ => None,
        }
    }
}

/// A bounded FIFO of exposed coins with round-robin serving.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reservoir<F: Field> {
    cfg: ReservoirConfig,
    pub(crate) coins: std::collections::VecDeque<F>,
    /// Round-robin start offset, advanced once per serve pass so no
    /// consumer is permanently first in line.
    pub(crate) cursor: u32,
    /// Cumulative grants per consumer id — the fairness ledger.
    pub(crate) grants: BTreeMap<u32, u64>,
}

impl<F: Field> Reservoir<F> {
    /// An empty reservoir.
    pub fn new(cfg: ReservoirConfig) -> Self {
        Reservoir { cfg, coins: std::collections::VecDeque::new(), cursor: 0, grants: BTreeMap::new() }
    }

    /// The sizing this reservoir was built with.
    pub fn config(&self) -> ReservoirConfig {
        self.cfg
    }

    /// Exposed coins currently in stock.
    pub fn level(&self) -> usize {
        self.coins.len()
    }

    /// Cumulative grants per consumer id.
    pub fn grants(&self) -> &BTreeMap<u32, u64> {
        &self.grants
    }

    /// Deposit freshly exposed coins, oldest first; returns how many fit
    /// under the capacity bound (the rest are refused — the caller should
    /// not have exposed them).
    pub fn deposit(&mut self, coins: impl IntoIterator<Item = F>) -> usize {
        let mut accepted = 0;
        for c in coins {
            if self.coins.len() >= self.cfg.capacity {
                break;
            }
            self.coins.push_back(c);
            accepted += 1;
        }
        accepted
    }

    /// Admit one epoch's freshly exposed coins ahead of the serve pass,
    /// unconditionally (newest last). Demand is served from these coins
    /// before the leftover cushion is subject to the capacity bound, so
    /// admission must never destroy a coin — the planner guarantees the
    /// post-serve level fits under [`ReservoirConfig::capacity`].
    pub(crate) fn admit(&mut self, coins: impl IntoIterator<Item = F>) {
        self.coins.extend(coins);
    }

    /// Serve one epoch's demands: `demands` is `(consumer id, coins
    /// wanted)` pairs. Coins are granted in round-robin passes starting
    /// at a rotating offset, so within this call no two consumers with
    /// unmet demand differ by more than one grant. Unmet requests get
    /// [`DrawOutcome::WouldBlock`], or [`DrawOutcome::Starved`] when
    /// `starving` (read-only beacon) — sharp backpressure instead of an
    /// implicit queue.
    ///
    /// Returns one `(consumer id, outcome)` per requested draw, grouped
    /// by consumer in `demands` order.
    pub fn serve(&mut self, demands: &[(u32, u32)], starving: bool) -> Vec<(u32, DrawOutcome<F>)> {
        if demands.is_empty() {
            return Vec::new();
        }
        let k = demands.len();
        let mut remaining: Vec<u32> = demands.iter().map(|&(_, want)| want).collect();
        let mut granted: Vec<Vec<F>> = vec![Vec::new(); k];
        let start = (self.cursor as usize) % k;
        // Round-robin passes until the stock or the demand runs out.
        loop {
            let mut progressed = false;
            for j in 0..k {
                let i = (start + j) % k;
                if remaining[i] == 0 {
                    continue;
                }
                let Some(c) = self.coins.pop_front() else { break };
                granted[i].push(c);
                remaining[i] -= 1;
                progressed = true;
            }
            if !progressed || remaining.iter().all(|&r| r == 0) {
                break;
            }
        }
        self.cursor = self.cursor.wrapping_add(1);
        let mut out = Vec::new();
        for (i, &(consumer, want)) in demands.iter().enumerate() {
            let got = granted[i].len();
            *self.grants.entry(consumer).or_insert(0) += got as u64;
            for &c in &granted[i] {
                out.push((consumer, DrawOutcome::Coin(c)));
            }
            for _ in got..want as usize {
                out.push((
                    consumer,
                    if starving { DrawOutcome::Starved } else { DrawOutcome::WouldBlock },
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dprbg_field::Gf2k;

    type F = Gf2k<32>;

    fn filled(capacity: usize, n: usize) -> Reservoir<F> {
        let mut r = Reservoir::new(ReservoirConfig::with_capacity(capacity));
        r.deposit((0..n as u64).map(F::from_u64));
        r
    }

    #[test]
    fn deposit_respects_capacity() {
        let mut r = Reservoir::<F>::new(ReservoirConfig::with_capacity(4));
        assert_eq!(r.deposit((0..10).map(F::from_u64)), 4);
        assert_eq!(r.level(), 4);
        assert_eq!(r.deposit([F::from_u64(99)]), 0);
    }

    #[test]
    fn fifo_order_and_low_water() {
        let mut r = filled(8, 6);
        assert!(r.level() > r.config().low_water);
        let out = r.serve(&[(1, 5)], false);
        let coins: Vec<u64> = out.iter().filter_map(|(_, o)| o.coin()).map(|c| c.to_u64()).collect();
        assert_eq!(coins, vec![0, 1, 2, 3, 4], "oldest coins first");
        assert!(r.level() <= r.config().low_water, "level 1 ≤ low water 2");
    }

    #[test]
    fn round_robin_fairness_under_contention() {
        // 5 coins, three consumers wanting 4 each: grants must split
        // 2/2/1 (no pair differs by more than one), the rest WouldBlock.
        let mut r = filled(16, 5);
        let out = r.serve(&[(10, 4), (20, 4), (30, 4)], false);
        let grant = |id: u32| out.iter().filter(|(c, o)| *c == id && o.coin().is_some()).count();
        let blocked = out.iter().filter(|(_, o)| matches!(o, DrawOutcome::WouldBlock)).count();
        let grants = [grant(10), grant(20), grant(30)];
        assert_eq!(grants.iter().sum::<usize>(), 5);
        assert!(grants.iter().all(|&g| (1..=2).contains(&g)), "unfair split {grants:?}");
        assert_eq!(blocked, 12 - 5);
        assert_eq!(r.level(), 0);
    }

    #[test]
    fn cursor_rotates_first_pick() {
        // One coin per epoch, two consumers: the extra grant must
        // alternate, not always favour the first-listed consumer.
        let mut r = Reservoir::<F>::new(ReservoirConfig::with_capacity(4));
        let mut firsts = Vec::new();
        for e in 0..4u64 {
            r.deposit([F::from_u64(e)]);
            let out = r.serve(&[(1, 1), (2, 1)], false);
            firsts.push(out.iter().find(|(_, o)| o.coin().is_some()).unwrap().0);
        }
        assert_eq!(firsts, vec![1, 2, 1, 2]);
        assert_eq!(r.grants()[&1], 2);
        assert_eq!(r.grants()[&2], 2);
    }

    #[test]
    fn starved_only_when_flagged() {
        let mut r = Reservoir::<F>::new(ReservoirConfig::with_capacity(4));
        assert_eq!(r.serve(&[(1, 1)], false), vec![(1, DrawOutcome::WouldBlock)]);
        assert_eq!(r.serve(&[(1, 1)], true), vec![(1, DrawOutcome::Starved)]);
    }
}
