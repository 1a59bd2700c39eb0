//! Thread-local counters for the paper's cost model.
//!
//! Computation counters ([`ops`]) track field additions, multiplications and
//! inversions plus polynomial interpolations (the paper counts
//! "interpolations per player" separately, e.g. Lemma 2: "2 polynomial
//! interpolations per player"). Communication counters ([`comm`]) track
//! messages, bytes and rounds.

use std::cell::Cell;

thread_local! {
    static FIELD_ADDS: Cell<u64> = const { Cell::new(0) };
    static FIELD_MULS: Cell<u64> = const { Cell::new(0) };
    static FIELD_INVS: Cell<u64> = const { Cell::new(0) };
    static INTERPOLATIONS: Cell<u64> = const { Cell::new(0) };
    static PRG_INVOCATIONS: Cell<u64> = const { Cell::new(0) };
    static MSGS_SENT: Cell<u64> = const { Cell::new(0) };
    static BYTES_SENT: Cell<u64> = const { Cell::new(0) };
    static ROUNDS: Cell<u64> = const { Cell::new(0) };
}

/// Computation-side counters (field operations, interpolations).
pub mod ops {
    use super::*;

    /// Record `n` field additions (the paper's basic computational unit).
    #[inline]
    pub fn count_add(n: u64) {
        FIELD_ADDS.with(|c| c.set(c.get() + n));
    }

    /// Record `n` field multiplications.
    #[inline]
    pub fn count_mul(n: u64) {
        FIELD_MULS.with(|c| c.set(c.get() + n));
    }

    /// Record `n` field inversions.
    #[inline]
    pub fn count_inv(n: u64) {
        FIELD_INVS.with(|c| c.set(c.get() + n));
    }

    /// Record `n` polynomial interpolations (Lagrange or Berlekamp–Welch).
    #[inline]
    pub fn count_interpolation(n: u64) {
        INTERPOLATIONS.with(|c| c.set(c.get() + n));
    }

    /// Record `n` pseudo-random-generator invocations (one per underlying
    /// PRG block, e.g. one ChaCha block function call). Computational
    /// randomness is a different resource from field arithmetic — the
    /// paper's §1.4 comparison needs it counted in its own unit so
    /// computational-stretch baselines report honest figures.
    #[inline]
    pub fn count_prg(n: u64) {
        PRG_INVOCATIONS.with(|c| c.set(c.get() + n));
    }

    /// Reset every computation counter of the current thread to zero.
    pub fn reset() {
        FIELD_ADDS.with(|c| c.set(0));
        FIELD_MULS.with(|c| c.set(0));
        FIELD_INVS.with(|c| c.set(0));
        INTERPOLATIONS.with(|c| c.set(0));
        PRG_INVOCATIONS.with(|c| c.set(0));
    }
}

/// Communication-side counters (messages, bytes, rounds).
pub mod comm {
    use super::*;

    /// Record one sent message of `bytes` payload bytes.
    #[inline]
    pub fn count_message(bytes: u64) {
        MSGS_SENT.with(|c| c.set(c.get() + 1));
        BYTES_SENT.with(|c| c.set(c.get() + bytes));
    }

    /// Record `n` completed communication rounds.
    #[inline]
    pub fn count_rounds(n: u64) {
        ROUNDS.with(|c| c.set(c.get() + n));
    }

    /// Reset every communication counter of the current thread to zero.
    pub fn reset() {
        MSGS_SENT.with(|c| c.set(0));
        BYTES_SENT.with(|c| c.set(0));
        ROUNDS.with(|c| c.set(0));
    }
}

/// A point-in-time reading of every counter of the current thread.
///
/// Capture one before and one after a protocol run and subtract with
/// [`CostSnapshot::since`] to obtain the cost of the enclosed region.
///
/// Serialized inside the beacon snapshot, whose layout `dprbg-beacon`'s
/// golden-image test pins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CostSnapshot {
    /// Field additions performed.
    pub field_adds: u64,
    /// Field multiplications performed.
    pub field_muls: u64,
    /// Field inversions performed.
    pub field_invs: u64,
    /// Polynomial interpolations performed.
    pub interpolations: u64,
    /// PRG block invocations performed (computational randomness used).
    pub prg_invocations: u64,
    /// Messages sent.
    pub messages: u64,
    /// Payload bytes sent.
    pub bytes: u64,
    /// Communication rounds completed.
    pub rounds: u64,
}

impl CostSnapshot {
    /// Read the current values of all counters of this thread.
    pub fn capture() -> Self {
        CostSnapshot {
            field_adds: FIELD_ADDS.with(Cell::get),
            field_muls: FIELD_MULS.with(Cell::get),
            field_invs: FIELD_INVS.with(Cell::get),
            interpolations: INTERPOLATIONS.with(Cell::get),
            prg_invocations: PRG_INVOCATIONS.with(Cell::get),
            messages: MSGS_SENT.with(Cell::get),
            bytes: BYTES_SENT.with(Cell::get),
            rounds: ROUNDS.with(Cell::get),
        }
    }

    /// The counter deltas accumulated since `earlier` was captured.
    ///
    /// Saturates at zero if counters were reset in between.
    pub fn since(&self, earlier: &CostSnapshot) -> CostSnapshot {
        CostSnapshot {
            field_adds: self.field_adds.saturating_sub(earlier.field_adds),
            field_muls: self.field_muls.saturating_sub(earlier.field_muls),
            field_invs: self.field_invs.saturating_sub(earlier.field_invs),
            interpolations: self.interpolations.saturating_sub(earlier.interpolations),
            prg_invocations: self.prg_invocations.saturating_sub(earlier.prg_invocations),
            messages: self.messages.saturating_sub(earlier.messages),
            bytes: self.bytes.saturating_sub(earlier.bytes),
            rounds: self.rounds.saturating_sub(earlier.rounds),
        }
    }

    /// Component-wise sum of two snapshots (for aggregating across parties).
    pub fn plus(&self, other: &CostSnapshot) -> CostSnapshot {
        CostSnapshot {
            field_adds: self.field_adds + other.field_adds,
            field_muls: self.field_muls + other.field_muls,
            field_invs: self.field_invs + other.field_invs,
            interpolations: self.interpolations + other.interpolations,
            prg_invocations: self.prg_invocations + other.prg_invocations,
            messages: self.messages + other.messages,
            bytes: self.bytes + other.bytes,
            rounds: self.rounds + other.rounds,
        }
    }

    /// Total computation in the paper's "additions" unit, charging each
    /// multiplication as `mul_cost_in_adds` additions.
    ///
    /// The paper charges a GF(2^k) multiplication `O(k log k)` additions in
    /// its special field (Section 2); pass the per-field figure from
    /// `dprbg_field`.
    pub fn total_adds(&self, mul_cost_in_adds: u64) -> u64 {
        self.field_adds
            + self.field_muls * mul_cost_in_adds
            // An inversion via extended Euclid / exponentiation costs on the
            // order of k multiplications; callers that care use raw counts.
            + self.field_invs * mul_cost_in_adds
    }
}

/// RAII guard measuring the cost of a scope on the current thread.
///
/// # Examples
///
/// ```
/// use dprbg_metrics::{ops, OpsGuard};
/// let guard = OpsGuard::start();
/// ops::count_add(7);
/// let cost = guard.finish();
/// assert_eq!(cost.field_adds, 7);
/// ```
#[derive(Debug)]
pub struct OpsGuard {
    start: CostSnapshot,
}

impl OpsGuard {
    /// Begin measuring at the current counter values.
    pub fn start() -> Self {
        OpsGuard {
            start: CostSnapshot::capture(),
        }
    }

    /// Stop measuring and return the deltas since [`OpsGuard::start`].
    pub fn finish(self) -> CostSnapshot {
        CostSnapshot::capture().since(&self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_deltas_accumulate() {
        let a = CostSnapshot::capture();
        ops::count_add(5);
        ops::count_mul(2);
        ops::count_inv(1);
        ops::count_interpolation(1);
        ops::count_prg(4);
        comm::count_message(16);
        comm::count_message(8);
        comm::count_rounds(3);
        let d = CostSnapshot::capture().since(&a);
        assert_eq!(d.field_adds, 5);
        assert_eq!(d.field_muls, 2);
        assert_eq!(d.field_invs, 1);
        assert_eq!(d.interpolations, 1);
        assert_eq!(d.prg_invocations, 4);
        assert_eq!(d.messages, 2);
        assert_eq!(d.bytes, 24);
        assert_eq!(d.rounds, 3);
    }

    #[test]
    fn guard_measures_scope() {
        let g = OpsGuard::start();
        ops::count_add(3);
        let c = g.finish();
        assert_eq!(c.field_adds, 3);
    }

    #[test]
    fn plus_is_componentwise() {
        let a = CostSnapshot {
            field_adds: 1,
            field_muls: 2,
            field_invs: 3,
            interpolations: 4,
            prg_invocations: 9,
            messages: 5,
            bytes: 6,
            rounds: 7,
        };
        let b = a;
        let s = a.plus(&b);
        assert_eq!(s.field_adds, 2);
        assert_eq!(s.prg_invocations, 18);
        assert_eq!(s.rounds, 14);
    }

    #[test]
    fn total_adds_charges_muls() {
        let c = CostSnapshot {
            field_adds: 10,
            field_muls: 2,
            field_invs: 1,
            ..Default::default()
        };
        assert_eq!(c.total_adds(100), 10 + 200 + 100);
    }

    #[test]
    fn counters_are_thread_local() {
        let before = CostSnapshot::capture();
        std::thread::spawn(|| {
            ops::count_add(1_000_000);
        })
        .join()
        .unwrap();
        let d = CostSnapshot::capture().since(&before);
        assert_eq!(d.field_adds, 0, "other thread's ops must not leak here");
    }

    #[test]
    fn since_saturates_after_reset() {
        ops::count_add(10);
        let high = CostSnapshot::capture();
        ops::reset();
        comm::reset();
        let low = CostSnapshot::capture();
        let d = low.since(&high);
        assert_eq!(d.field_adds, 0);
    }
}
