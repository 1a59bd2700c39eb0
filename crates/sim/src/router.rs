//! Round-delivery types shared by the executors.
//!
//! The executors enforce lock-step synchrony themselves (see
//! [`StepRunner`](crate::StepRunner) and [`ParRunner`](crate::ParRunner));
//! this module holds the vocabulary they share: party identifiers, the
//! [`Received`] envelope a delivery produces, the per-round
//! [`RoundProfile`], and the deterministic [`Inbox`] every machine reads
//! at a round boundary. A message sent in round `r` is visible exactly at
//! round `r + 1`, sorted by `(sender, send order)`. Machines read it by
//! the receive rule — a sender's first entry per slot is its only voice —
//! through [`Inbox::first_per_sender`] and [`Inbox::first_per_slot`].

use std::ops::Range;
use std::sync::Arc;

use dprbg_metrics::{comm, WireSize};

use crate::adversary::{MsgFate, MsgHop, MsgTap};
use crate::machine::{FlushStats, Outbox};

/// Default cap on rounds before an executor declares non-termination.
pub(crate) const DEFAULT_MAX_ROUNDS: u64 = 1 << 20;

/// A party identifier, 1-based to match the paper's `P_1 … P_n`.
pub type PartyId = usize;

/// A unicast's only copy (and an adapter-built message) holds its payload
/// by value; the copies of one fan-out envelope share one allocation.
#[derive(Debug, Clone)]
enum Payload<M> {
    Own(M),
    Shared(Arc<M>),
}

/// A message as delivered to a recipient. The `n` copies of one
/// `send_to_all` / `broadcast` share the payload, so it is read-only
/// ([`msg`](Self::msg)); a tampering tap *replaces* one copy's payload.
#[derive(Debug, Clone)]
pub struct Received<M> {
    /// The sending party.
    pub from: PartyId,
    /// Whether it arrived via the ideal broadcast channel (§3 model) as
    /// opposed to a private point-to-point channel.
    pub broadcast: bool,
    /// Send-order sequence number within the sender's round (used for
    /// deterministic inbox ordering).
    pub seq: u32,
    payload: Payload<M>,
}

impl<M> Received<M> {
    /// A delivery that owns its payload (no allocation) — what adapters
    /// build narrowed or translated inboxes from.
    pub fn new(from: PartyId, broadcast: bool, seq: u32, msg: M) -> Self {
        Received { from, broadcast, seq, payload: Payload::Own(msg) }
    }

    /// One copy of a fan-out: every copy holds the same allocation.
    pub(crate) fn shared(from: PartyId, broadcast: bool, seq: u32, msg: &Arc<M>) -> Self {
        Received { from, broadcast, seq, payload: Payload::Shared(Arc::clone(msg)) }
    }

    /// The payload.
    pub fn msg(&self) -> &M {
        match &self.payload {
            Payload::Own(m) => m,
            Payload::Shared(m) => m,
        }
    }

    /// The same delivery coordinates around a different (owned) payload:
    /// an adapter's projection, or a tap's replacement of this one copy.
    pub fn with_msg<N>(&self, msg: N) -> Received<N> {
        Received::new(self.from, self.broadcast, self.seq, msg)
    }
}

/// Per-round delivery statistics, recorded at each round flip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoundProfile {
    /// Messages delivered at this round boundary (unicast copies and
    /// broadcast copies each count once per recipient here — this is the
    /// delivery view, not the cost model's send view).
    pub deliveries: usize,
    /// Parties still live when the round completed.
    pub live_parties: usize,
}

/// The messages a party receives at the start of a round, sorted by
/// (sender, send order).
#[derive(Debug, Clone)]
pub struct Inbox<M> {
    msgs: Vec<Received<M>>,
}

impl<M> Inbox<M> {
    /// An inbox with nothing in it (what a machine's first round sees).
    pub fn empty() -> Self {
        Inbox { msgs: Vec::new() }
    }

    /// Build an inbox from a batch of deliveries, establishing the
    /// canonical `(from, seq)` order. Adapters that narrow or translate
    /// another inbox (committee subnets, multiplexed sub-protocols) build
    /// their synthetic inboxes through this.
    pub fn from_messages(mut msgs: Vec<Received<M>>) -> Self {
        msgs.sort_by_key(|r| (r.from, r.seq));
        Inbox { msgs }
    }

    /// All messages, in deterministic order.
    pub fn iter(&self) -> std::slice::Iter<'_, Received<M>> {
        self.msgs.iter()
    }

    /// Number of messages delivered.
    pub fn len(&self) -> usize {
        self.msgs.len()
    }

    /// Whether nothing was delivered.
    pub fn is_empty(&self) -> bool {
        self.msgs.is_empty()
    }

    /// The receive rule, as one column: per sender `1..=n`, the first
    /// delivery `select` accepts, in `(from, seq)` order (cell `j − 1` is
    /// sender `j`'s). A sender's later deliveries count for nothing.
    pub fn first_per_sender<'a, T>(
        &'a self,
        n: usize,
        mut select: impl FnMut(&'a Received<M>) -> Option<T>,
    ) -> Vec<Option<T>> {
        self.first_per_slot(n, 0..1, |r| Some(select(r).map(|v| (0, v)))).cells
    }

    /// The receive rule over bundles: `select` lists a delivery's
    /// `(slot, value)` entries, and cell `(slot, j)` holds sender `j`'s
    /// first entry for that slot, in `(from, seq)` order then bundle order.
    /// Entries tagged outside `slots` are dropped.
    pub fn first_per_slot<'a, T, E>(
        &'a self,
        n: usize,
        slots: Range<usize>,
        mut select: impl FnMut(&'a Received<M>) -> Option<E>,
    ) -> SlotTable<T>
    where
        E: IntoIterator<Item = (usize, T)>,
    {
        let mut cells: Vec<Option<T>> = (0..slots.len() * n).map(|_| None).collect();
        for r in &self.msgs {
            let Some(j) = r.from.checked_sub(1).filter(|&j| j < n) else { continue };
            let Some(entries) = select(r) else { continue };
            for (slot, value) in entries {
                if slots.contains(&slot) {
                    cells[(slot - slots.start) * n + j].get_or_insert(value);
                }
            }
        }
        SlotTable { n, cells }
    }
}

/// What [`Inbox::first_per_slot`] keeps: one row of `n` sender cells per
/// slot, in slot order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotTable<T> {
    n: usize,
    cells: Vec<Option<T>>,
}

impl<T> SlotTable<T> {
    /// Row `s` (0-based from the first slot): sender `j`'s entry at `j − 1`.
    pub fn row(&self, s: usize) -> &[Option<T>] {
        &self.cells[s * self.n..(s + 1) * self.n]
    }

    /// Every row, in slot order.
    pub fn rows(&self) -> impl Iterator<Item = &[Option<T>]> {
        (0..self.cells.len().checked_div(self.n).unwrap_or(0)).map(|s| self.row(s))
    }
}

/// Everything in flight between two round boundaries, and the one place
/// both executors turn outboxes into inboxes: [`send`](Self::send) is the
/// flush plus the per-copy message hop, [`flip`](Self::flip) the round
/// boundary.
pub(crate) struct Transit<M> {
    tap: Option<Box<dyn MsgTap<M>>>,
    /// Round boundaries crossed so far — the global round being sent in.
    pub(crate) generation: u64,
    pending: Vec<Vec<Received<M>>>,
    /// Copies a tap is holding back: `(due generation, recipient, copy)`.
    delayed: Vec<(u64, PartyId, Received<M>)>,
    /// One entry per flip: the run's round anatomy.
    pub(crate) profile: Vec<RoundProfile>,
}

impl<M: WireSize> Transit<M> {
    pub(crate) fn new(n: usize, tap: Option<Box<dyn MsgTap<M>>>) -> Self {
        let pending = (0..n).map(|_| Vec::new()).collect();
        Transit { tap, generation: 0, pending, delayed: Vec::new(), profile: Vec::new() }
    }

    /// Charge and expand `from`'s round of sends, passing every copy
    /// through the hop.
    pub(crate) fn send(&mut self, from: PartyId, seq: &mut u32, outbox: Outbox<M>) -> FlushStats {
        assert_eq!(outbox.n(), self.pending.len(), "outbox built for a different network size");
        comm::count_rounds(1);
        outbox.flush(from, seq, |to, rcv| self.post(to, rcv))
    }

    /// The message hop: show one copy to the tap and queue what survives.
    /// `Tamper` replaces this copy's payload only; every other fate
    /// passes the (possibly shared) payload on untouched.
    fn post(&mut self, to: PartyId, rcv: Received<M>) {
        let fate = match self.tap.as_deref_mut() {
            None => MsgFate::Deliver,
            Some(tap) => tap.intercept(MsgHop {
                from: rcv.from,
                to,
                round: self.generation,
                broadcast: rcv.broadcast,
                msg: rcv.msg(),
            }),
        };
        match fate {
            MsgFate::Deliver => self.pending[to - 1].push(rcv),
            MsgFate::Drop => {}
            MsgFate::Delay(extra) => self.delayed.push((self.generation + 1 + extra, to, rcv)),
            MsgFate::Tamper(msg) => self.pending[to - 1].push(rcv.with_msg(msg)),
        }
    }

    /// The round flip: hand each party its next inbox (queued plus matured
    /// delayed copies, in `(from, seq)` order) and record the profile.
    pub(crate) fn flip(&mut self, live_parties: usize, mut deliver: impl FnMut(usize, Inbox<M>)) {
        self.generation += 1;
        let now = self.generation;
        let mut deliveries = 0;
        for (to0, queue) in self.pending.iter_mut().enumerate() {
            let mut msgs = std::mem::take(queue);
            let matured = self.delayed.extract_if(.., |d| d.0 <= now && d.1 == to0 + 1);
            msgs.extend(matured.map(|d| d.2));
            deliveries += msgs.len();
            deliver(to0, Inbox::from_messages(msgs));
        }
        self.profile.push(RoundProfile { deliveries, live_parties });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dprbg_rng::prelude::*;

    #[test]
    fn inbox_ordering_is_deterministic() {
        let inbox = Inbox::from_messages(vec![
            Received::new(2, false, 1, 20),
            Received::new(1, false, 0, 10),
            Received::new(2, false, 0, 19),
        ]);
        let vals: Vec<u32> = inbox.iter().map(|r| *r.msg()).collect();
        assert_eq!(vals, vec![10, 19, 20]);
    }

    #[test]
    fn broadcast_flag_preserved() {
        let inbox = Inbox::from_messages(vec![
            Received::new(1, true, 0, 1),
            Received::new(1, false, 1, 2),
        ]);
        assert_eq!(inbox.iter().filter(|r| r.broadcast).count(), 1);
        assert_eq!(inbox.len(), 2);
    }

    #[test]
    fn empty_inbox_shape() {
        let inbox = Inbox::<u8>::empty();
        assert!(inbox.is_empty());
        assert_eq!(inbox.iter().count(), 0);
        assert_eq!(inbox.first_per_sender(2, |r| Some(r.msg())), vec![None, None]);
        let table = inbox.first_per_slot(2, 0..3, |r| Some([(0, r.msg())]));
        assert_eq!(table.rows().count(), 3);
        assert!(table.rows().flatten().all(Option::is_none));
    }

    /// Sender 2 says 20 then 21 (private, then broadcast), sender 1 says
    /// 10 on the broadcast channel only, sender 3 (past `n`) is dropped:
    /// each sender's first accepted delivery is its cell, and a selector
    /// that skips a delivery leaves the sender's next one to count.
    #[test]
    fn first_per_sender_keeps_each_senders_first_accepted_delivery() {
        let inbox = Inbox::from_messages(vec![
            Received::new(2, true, 1, 21),
            Received::new(3, false, 0, 30),
            Received::new(1, true, 0, 10),
            Received::new(2, false, 0, 20),
        ]);
        assert_eq!(inbox.first_per_sender(2, |r| Some(*r.msg())), [Some(10), Some(20)]);
        let broadcast = inbox.first_per_sender(2, |r| r.broadcast.then_some(*r.msg()));
        assert_eq!(broadcast, [Some(10), Some(21)]);
        let third = inbox.first_per_sender(3, |r| (r.from == 3).then_some(*r.msg()));
        assert_eq!(third, [None, None, Some(30)]);
    }

    /// One bundle per delivery: sender 1 names slot 1 twice and slot 5
    /// (out of range), sender 2 names slot 2 in two envelopes. Each
    /// sender's first entry per slot fills its cell.
    #[test]
    fn first_per_slot_keeps_each_senders_first_entry_per_slot() {
        let inbox = Inbox::from_messages(vec![
            Received::new(2, false, 1, vec![(2, 'y')]),
            Received::new(1, false, 0, vec![(1, 'a'), (5, 'z'), (1, 'b'), (0, 'c')]),
            Received::new(2, false, 0, vec![(2, 'x')]),
        ]);
        let table = inbox.first_per_slot(2, 1..3, |r| Some(r.msg().iter().copied()));
        let rows: Vec<&[Option<char>]> = table.rows().collect();
        assert_eq!(rows, [&[Some('a'), None][..], &[None, Some('x')][..]]);
        assert_eq!(table.row(1), [None, Some('x')]);
    }

    /// A random round: each delivery is a kind tag (the selector accepts
    /// kind 0 only) and a bundle of `(slot, value)` entries.
    type Bundle = (u8, Vec<(usize, Arc<u64>)>);

    fn random_round(rng: &mut StdRng, n: usize, messages: usize) -> Vec<Received<Bundle>> {
        let shared: Vec<Arc<u64>> = (0..3).map(Arc::new).collect();
        let mut seqs = vec![0u32; n + 2];
        (0..messages)
            .map(|_| {
                let from = rng.random_range(1..=n + 1);
                seqs[from] += 1;
                let entries = (0..rng.random_range(0..=n + 2))
                    .map(|_| {
                        let v = &shared[rng.random_range(0..3usize)];
                        // A forwarded handle or a private copy of its value.
                        let v = if rng.random_bool(0.5) { Arc::clone(v) } else { Arc::new(**v) };
                        (rng.random_range(0..=n + 1), v)
                    })
                    .collect();
                let kind = rng.random_range(0..3u8).min(1);
                Received::new(from, rng.random_bool(0.3), seqs[from], (kind, entries))
            })
            .collect()
    }

    /// Both handles are the same allocation, or both cells are empty.
    fn same_cell(got: &Option<&Arc<u64>>, want: &Option<&Arc<u64>>) -> bool {
        match (got, want) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (None, None) => true,
            _ => false,
        }
    }

    proptest! {
        /// The reference selects first and takes firsts second: flatten
        /// every accepted entry in `(from, seq, position)` order, then per
        /// sender (and per slot) find the first. Random senders (one past
        /// `n` too), several envelopes per sender, repeated and
        /// out-of-range slots (0 … n + 1 against slots 1..=n), both
        /// channels, shared and private handles: both forms keep exactly
        /// the reference's handle in every cell.
        #[test]
        fn both_forms_match_select_then_first(seed: u64, n in 1usize..7, messages in 0usize..24) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut sent = random_round(&mut rng, n, messages);
            let inbox = Inbox::from_messages(sent.clone());
            sent.sort_by_key(|r| (r.from, r.seq));
            for broadcast_only in [false, true] {
                let accepts =
                    |r: &Received<Bundle>| r.msg().0 == 0 && (r.broadcast || !broadcast_only);

                // Column: a delivery's voice is its bundle's first entry.
                let column = inbox.first_per_sender(n, |r| {
                    if accepts(r) { r.msg().1.first().map(|(_, v)| v) } else { None }
                });
                let voices: Vec<(PartyId, &Arc<u64>)> = sent
                    .iter()
                    .filter(|r| accepts(r))
                    .filter_map(|r| Some((r.from, &r.msg().1.first()?.1)))
                    .collect();
                prop_assert_eq!(column.len(), n);
                for (j, cell) in (1..=n).zip(&column) {
                    let want = voices.iter().find(|(from, _)| *from == j).map(|(_, v)| *v);
                    prop_assert!(same_cell(cell, &want), "sender {}", j);
                }

                // Table: every entry of an accepted bundle, slots 1..=n.
                let table = inbox.first_per_slot(n, 1..n + 1, |r| {
                    accepts(r).then(|| r.msg().1.iter().map(|(slot, v)| (*slot, v)))
                });
                let entries: Vec<(PartyId, usize, &Arc<u64>)> = sent
                    .iter()
                    .filter(|r| accepts(r))
                    .flat_map(|r| r.msg().1.iter().map(move |(slot, v)| (r.from, *slot, v)))
                    .collect();
                prop_assert_eq!(table.rows().count(), n);
                for (slot, row) in (1..=n).zip(table.rows()) {
                    prop_assert_eq!(row.len(), n);
                    for (j, cell) in (1..=n).zip(row) {
                        let want = entries
                            .iter()
                            .find(|(from, s, _)| (*from, *s) == (j, slot))
                            .map(|(_, _, v)| *v);
                        prop_assert!(same_cell(cell, &want), "slot {} sender {}", slot, j);
                    }
                }
            }
        }
    }
}
