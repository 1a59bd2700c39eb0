//! Round-delivery types shared by the executors.
//!
//! The executors enforce lock-step synchrony themselves (see
//! [`StepRunner`](crate::StepRunner) and [`ParRunner`](crate::ParRunner));
//! this module holds the vocabulary they share: party identifiers, the
//! [`Received`] envelope a delivery produces, the per-round
//! [`RoundProfile`], and the deterministic [`Inbox`] every machine reads
//! at a round boundary. A message sent in round `r` is visible exactly at
//! round `r + 1`, sorted by `(sender, send order)`.

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

    /// Messages from one particular sender.
    pub fn from(&self, sender: PartyId) -> impl Iterator<Item = &Received<M>> {
        self.msgs.iter().filter(move |r| r.from == sender)
    }

    /// The first (and usually only) message from `sender`, if any.
    pub fn first_from(&self, sender: PartyId) -> Option<&Received<M>> {
        self.msgs.iter().find(|r| r.from == sender)
    }

    /// Only the messages that arrived over the ideal broadcast channel.
    pub fn broadcasts(&self) -> impl Iterator<Item = &Received<M>> {
        self.msgs.iter().filter(|r| r.broadcast)
    }
}

impl<'a, M> IntoIterator for &'a Inbox<M> {
    type Item = &'a Received<M>;
    type IntoIter = std::slice::Iter<'a, Received<M>>;
    fn into_iter(self) -> Self::IntoIter {
        self.msgs.iter()
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

    #[test]
    fn inbox_ordering_is_deterministic() {
        let inbox = Inbox::from_messages(vec![
            Received::new(2, false, 1, 20),
            Received::new(1, false, 0, 10),
            Received::new(2, false, 0, 19),
        ]);
        let vals: Vec<u32> = inbox.iter().map(|r| *r.msg()).collect();
        assert_eq!(vals, vec![10, 19, 20]);
        assert_eq!(*inbox.first_from(2).unwrap().msg(), 19);
        assert_eq!(inbox.from(2).count(), 2);
    }

    #[test]
    fn broadcast_flag_preserved() {
        let inbox = Inbox::from_messages(vec![
            Received::new(1, true, 0, 1),
            Received::new(1, false, 1, 2),
        ]);
        assert_eq!(inbox.broadcasts().count(), 1);
        assert_eq!(inbox.len(), 2);
    }

    #[test]
    fn empty_inbox_shape() {
        let inbox = Inbox::<u8>::empty();
        assert!(inbox.is_empty());
        assert_eq!(inbox.iter().count(), 0);
        assert!(inbox.first_from(1).is_none());
    }
}
