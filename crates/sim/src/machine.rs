//! The sans-IO round engine: protocol logic as explicit round machines.
//!
//! A [`RoundMachine`] owns a protocol's state and exposes exactly one
//! entry point, [`round`](RoundMachine::round): given everything delivered
//! at the last round boundary (a [`RoundView`]), it either queues this
//! round's sends into an [`Outbox`] and yields [`Step::Continue`], or
//! terminates with [`Step::Done`]. The machine never touches a socket,
//! thread, or barrier — *how* the outbox reaches the other parties is an
//! executor concern, so the same machine runs unchanged under the
//! deterministic single-threaded [`StepRunner`](crate::StepRunner) and the
//! pooled [`ParRunner`](crate::ParRunner).
//!
//! Two invariants make the executors interchangeable:
//!
//! 1. **Identical cost accounting.** `Outbox::flush` is the single place
//!    where queued envelopes become deliveries, sequence numbers, and
//!    [`comm`] counter increments — both executors call it, so a machine's
//!    `CostReport` cannot depend on the executor.
//! 2. **Identical randomness.** Executors derive each party's RNG from the
//!    master seed the same way, and a machine only draws through
//!    [`RoundView::rng`].
//!
//! The first `round` call sees an empty inbox (there is no round `-1` to
//! deliver from); a machine's initial sends happen there.

use std::sync::Arc;

use dprbg_metrics::{comm, CostReport, WireSize};
use dprbg_rng::rngs::StdRng;
use dprbg_trace::Trace;

use crate::embed::Embeds;
use crate::router::{Inbox, PartyId, Received, RoundProfile};

/// What a machine does with its round: keep going (with sends) or finish.
#[derive(Debug)]
pub enum Step<M, Out> {
    /// The protocol continues; deliver these envelopes at the next round
    /// boundary and call [`RoundMachine::round`] again with the resulting
    /// inbox.
    Continue(Outbox<M>),
    /// The protocol finished with this output. The executor must not call
    /// `round` again.
    Done(Out),
}

/// Everything a machine may observe in one round: identity, the inbox
/// delivered at the last round boundary, and this party's private
/// randomness.
pub struct RoundView<'a, M> {
    /// This party's 1-based identifier.
    pub id: PartyId,
    /// The total number of parties.
    pub n: usize,
    /// Rounds this machine has already completed (0 on the first call).
    pub round: u64,
    /// Messages delivered to this party at the last round boundary.
    pub inbox: &'a Inbox<M>,
    /// This party's private randomness (deterministic per master seed).
    pub rng: &'a mut StdRng,
}

impl<'a, M> RoundView<'a, M> {
    /// A fresh outbox sized for this network.
    pub fn outbox(&self) -> Outbox<M> {
        Outbox::new(self.n)
    }

    /// Reborrow the view so it can be lent to a sub-machine and used again
    /// afterwards (embedding one machine inside another).
    pub fn reborrow(&mut self) -> RoundView<'_, M> {
        RoundView {
            id: self.id,
            n: self.n,
            round: self.round,
            inbox: self.inbox,
            rng: self.rng,
        }
    }

    /// The view as presented to a successor machine that starts mid-run:
    /// a fresh round counter and (on its very first call) an inbox that
    /// is not the predecessor's leftover.
    fn rebase<'b>(&'b mut self, base: u64, inbox: &'b Inbox<M>) -> RoundView<'b, M> {
        RoundView {
            id: self.id,
            n: self.n,
            round: self.round - base,
            inbox,
            rng: self.rng,
        }
    }
}

/// Where one queued envelope is headed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dest {
    /// Private channel to one party.
    One(PartyId),
    /// Private channels to every party (n unicasts — the paper's
    /// point-to-point "send to all players").
    All,
    /// The ideal broadcast channel (one message in the §3 cost model).
    Broadcast,
}

/// A round's queued sends, recorded without touching the network or the
/// cost counters. `Outbox::flush` later expands each envelope into
/// deliveries with fixed semantics, so metrics and inbox ordering are
/// executor-independent.
#[derive(Debug)]
pub struct Outbox<M> {
    n: usize,
    envelopes: Vec<(Dest, M)>,
}

impl<M> Outbox<M> {
    /// An empty outbox for an `n`-party network.
    pub fn new(n: usize) -> Self {
        Outbox { n, envelopes: Vec::new() }
    }

    /// Queue `msg` for party `to` over the private channel.
    ///
    /// # Panics
    ///
    /// Panics if `to` is not a valid party id.
    pub fn send(&mut self, to: PartyId, msg: M) {
        assert!((1..=self.n).contains(&to), "invalid recipient {to}");
        self.envelopes.push((Dest::One(to), msg));
    }

    /// Queue `msg` for every party (including self) over private
    /// channels: `n` messages in the cost model.
    pub fn send_to_all(&mut self, msg: M) {
        self.envelopes.push((Dest::All, msg));
    }

    /// Queue `msg` on the ideal broadcast channel: every party receives
    /// the identical value, charged as **one** message (Lemma 2/4
    /// counting).
    pub fn broadcast(&mut self, msg: M) {
        self.envelopes.push((Dest::Broadcast, msg));
    }

    /// Number of queued envelopes (a broadcast or send-to-all counts as
    /// one envelope here, before expansion).
    pub fn len(&self) -> usize {
        self.envelopes.len()
    }

    /// Whether nothing was queued this round.
    pub fn is_empty(&self) -> bool {
        self.envelopes.is_empty()
    }

    /// Re-wrap every queued payload, preserving destinations and order —
    /// how an adapter lifts a sub-protocol's outbox onto a composite wire
    /// type.
    pub fn map<N>(self, mut f: impl FnMut(M) -> N) -> Outbox<N> {
        Outbox {
            n: self.n,
            envelopes: self.envelopes.into_iter().map(|(d, m)| (d, f(m))).collect(),
        }
    }

    /// Move every envelope of `other` onto the back of this outbox,
    /// preserving both orders — how a driver that steps several
    /// sub-machines in one round merges their sends onto one wire.
    ///
    /// # Panics
    ///
    /// Panics if the outboxes are sized for different networks.
    pub fn append(&mut self, other: Outbox<M>) {
        assert_eq!(self.n, other.n, "cannot merge outboxes of different networks");
        self.envelopes.extend(other.envelopes);
    }

    pub(crate) fn n(&self) -> usize {
        self.n
    }
}

/// What one [`Outbox`] flush charged to the comm counters: the totals the
/// executors hand to the trace layer as a `Flush` event. Both executors
/// observe the same envelopes, so the stats (like the counters) are
/// executor-independent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlushStats {
    /// Messages charged (one per unicast copy, one per ideal broadcast).
    pub messages: u64,
    /// Payload bytes charged.
    pub bytes: u64,
}

impl<M: WireSize> Outbox<M> {
    /// Expand every envelope into deliveries, assigning sequence numbers
    /// and charging the communication counters: one message per unicast
    /// copy, one message per ideal broadcast. Returns the charged totals.
    /// A fan-out's payload is wrapped once and shared by every copy; its
    /// size is measured once per envelope and charged per copy.
    pub(crate) fn flush(
        self,
        from: PartyId,
        seq: &mut u32,
        mut post: impl FnMut(PartyId, Received<M>),
    ) -> FlushStats {
        let n = self.n;
        let mut stats = FlushStats::default();
        let mut charge = |bytes: u64| {
            comm::count_message(bytes);
            stats.messages += 1;
            stats.bytes += bytes;
        };
        for (dest, msg) in self.envelopes {
            let bytes = msg.wire_bytes() as u64;
            match dest {
                Dest::One(to) => {
                    charge(bytes);
                    post(to, Received::new(from, false, *seq, msg));
                    *seq += 1;
                }
                Dest::All => {
                    let msg = Arc::new(msg);
                    for to in 1..=n {
                        charge(bytes);
                        post(to, Received::shared(from, false, *seq, &msg));
                        *seq += 1;
                    }
                }
                Dest::Broadcast => {
                    charge(bytes);
                    let msg = Arc::new(msg);
                    for to in 1..=n {
                        post(to, Received::shared(from, true, *seq, &msg));
                    }
                    *seq += 1;
                }
            }
        }
        stats
    }
}

/// The outcome of driving a machine fleet to completion.
#[derive(Debug)]
pub struct RunResult<Out> {
    /// Each party's protocol output, in id order; `None` if that party's
    /// machine panicked.
    pub outputs: Vec<Option<Out>>,
    /// The aggregated cost report (per-party computation, total
    /// communication).
    pub report: CostReport,
    /// Per-round delivery profile — the protocol's round anatomy.
    pub rounds: Vec<RoundProfile>,
    /// The merged logical trace, when the run was executed with tracing
    /// ([`StepRunner::with_trace`](crate::StepRunner::with_trace),
    /// [`ParRunner::with_trace`](crate::ParRunner::with_trace)).
    pub trace: Option<Trace>,
}

impl<Out> RunResult<Out> {
    /// The outputs of the parties that completed, paired with their ids.
    pub fn completed(&self) -> impl Iterator<Item = (PartyId, &Out)> {
        self.outputs
            .iter()
            .enumerate()
            .filter_map(|(i, o)| o.as_ref().map(|out| (i + 1, out)))
    }

    /// Unwrap every output, panicking if any party failed.
    ///
    /// # Panics
    ///
    /// Panics if any party's machine panicked.
    pub fn unwrap_all(self) -> Vec<Out> {
        self.outputs
            .into_iter()
            .enumerate()
            .map(|(i, o)| o.unwrap_or_else(|| panic!("party {} panicked", i + 1)))
            .collect()
    }
}

/// A protocol written as an explicit round-state machine.
///
/// Implementations must be executor-agnostic: observe only the
/// [`RoundView`], send only through the returned [`Outbox`], and keep all
/// cross-round state in `self`.
pub trait RoundMachine<M> {
    /// What the protocol produces when it terminates.
    type Output;

    /// Execute one round: consume the inbox, queue this round's sends, and
    /// either continue or finish.
    fn round(&mut self, view: RoundView<'_, M>) -> Step<M, Self::Output>;

    /// The label of the phase the *next* [`round`](RoundMachine::round)
    /// call will execute — pure state inspection, called by tracing
    /// executors immediately before `round` to tag that round's span.
    ///
    /// The default covers machines that never override it; protocol
    /// machines report their stage (`"bit-gen/deal"`, `"ba/suggest"`, …)
    /// and composite machines delegate to the active sub-machine.
    fn phase_name(&self) -> &'static str {
        "round"
    }
}

impl<M, T: RoundMachine<M> + ?Sized> RoundMachine<M> for Box<T> {
    type Output = T::Output;
    fn round(&mut self, view: RoundView<'_, M>) -> Step<M, Self::Output> {
        (**self).round(view)
    }
    fn phase_name(&self) -> &'static str {
        (**self).phase_name()
    }
}

/// A type-erased machine, as consumed by the executors.
pub type BoxedMachine<M, Out> = Box<dyn RoundMachine<M, Output = Out> + Send>;

/// A machine defined by a closure over the [`RoundView`] — the idiomatic
/// way to script one-off parties (Byzantine test scripts, probe parties)
/// without naming a struct:
///
/// ```
/// use dprbg_sim::{from_fn, RoundView, Step, StepRunner, BoxedMachine};
/// let fleet: Vec<BoxedMachine<u32, usize>> = (0..3)
///     .map(|_| {
///         Box::new(from_fn(|view: RoundView<'_, u32>| match view.round {
///             0 => {
///                 let mut out = view.outbox();
///                 out.send_to_all(7);
///                 Step::Continue(out)
///             }
///             _ => Step::Done(view.inbox.len()),
///         })) as BoxedMachine<u32, usize>
///     })
///     .collect();
/// assert_eq!(StepRunner::new(3, 1).run(fleet).unwrap_all(), vec![3, 3, 3]);
/// ```
pub struct FromFn<F> {
    f: F,
    label: &'static str,
}

/// Build a [`FromFn`] machine from a closure.
pub fn from_fn<M, Out, F>(f: F) -> FromFn<F>
where
    F: FnMut(RoundView<'_, M>) -> Step<M, Out>,
{
    FromFn { f, label: "scripted" }
}

impl<F> FromFn<F> {
    /// Override the phase label tracing executors record for this machine.
    pub fn labelled(mut self, label: &'static str) -> Self {
        self.label = label;
        self
    }
}

impl<M, Out, F> RoundMachine<M> for FromFn<F>
where
    F: FnMut(RoundView<'_, M>) -> Step<M, Out>,
{
    type Output = Out;

    fn round(&mut self, view: RoundView<'_, M>) -> Step<M, Out> {
        (self.f)(view)
    }

    fn phase_name(&self) -> &'static str {
        self.label
    }
}

/// The crash-fault machine: the party goes down before sending anything
/// and outputs `Out::default()`. The executors keep the remaining parties
/// running; the crashed party simply never speaks.
pub fn silent<M, Out: Default>() -> FromFn<impl FnMut(RoundView<'_, M>) -> Step<M, Out>> {
    from_fn(|_view: RoundView<'_, M>| Step::Done(Out::default())).labelled("silent")
}

/// A machine that is already finished: its first `round` call returns
/// `Done(value)` without sending anything. The pure-transition glue for
/// [`looping`] — when a loop body's next state is known without another
/// network round, wrap it in `ready` and the transition costs nothing.
pub struct Ready<Out> {
    value: Option<Out>,
}

/// Build a [`Ready`] machine holding `value`.
pub fn ready<Out>(value: Out) -> Ready<Out> {
    Ready { value: Some(value) }
}

impl<M, Out> RoundMachine<M> for Ready<Out> {
    type Output = Out;

    fn round(&mut self, _view: RoundView<'_, M>) -> Step<M, Out> {
        match self.value.take() {
            Some(v) => Step::Done(v),
            // A `Done` machine is never driven again (executor contract).
            None => unreachable!("Ready machine driven past completion"),
        }
    }

    fn phase_name(&self) -> &'static str {
        "ready"
    }
}

/// Sequential composition: run `A`, then feed its output to a closure that
/// builds the successor machine `B`. Mirrors sequential control flow: when
/// `A` finishes in some round, `B`'s first (send) round executes in that
/// same round — exactly as straight-line code would call the next protocol
/// function immediately after the previous one returns.
pub struct Chain<A, B, F> {
    state: ChainState<A, B>,
    make: Option<F>,
}

enum ChainState<A, B> {
    First(A),
    /// `base` is the driver round in which `B` started; `B` sees rounds
    /// relative to it.
    Second { b: B, base: u64 },
}

impl<M, A, B, F> RoundMachine<M> for Chain<A, B, F>
where
    A: RoundMachine<M>,
    B: RoundMachine<M>,
    F: FnOnce(A::Output) -> B,
{
    type Output = B::Output;

    fn round(&mut self, mut view: RoundView<'_, M>) -> Step<M, B::Output> {
        let a_out = match &mut self.state {
            ChainState::Second { b, base } => {
                let base = *base;
                let inbox = view.inbox;
                return b.round(view.rebase(base, inbox));
            }
            ChainState::First(a) => match a.round(view.reborrow()) {
                Step::Continue(out) => return Step::Continue(out),
                Step::Done(a_out) => a_out,
            },
        };
        let make = self.make.take().expect("Chain continuation already consumed");
        let mut b = make(a_out);
        // The successor starts in the same driver round with an empty
        // inbox (the predecessor consumed this round's deliveries) and a
        // round counter of its own.
        let base = view.round;
        let empty = Inbox::empty();
        let step = b.round(view.rebase(base, &empty));
        self.state = ChainState::Second { b, base };
        step
    }

    fn phase_name(&self) -> &'static str {
        match &self.state {
            ChainState::First(a) => a.phase_name(),
            ChainState::Second { b, .. } => b.phase_name(),
        }
    }
}

/// Transform a machine's output with a closure when it finishes.
pub struct Map<A, F> {
    inner: A,
    f: Option<F>,
}

impl<M, A, F, T> RoundMachine<M> for Map<A, F>
where
    A: RoundMachine<M>,
    F: FnOnce(A::Output) -> T,
{
    type Output = T;

    fn round(&mut self, view: RoundView<'_, M>) -> Step<M, T> {
        match self.inner.round(view) {
            Step::Continue(out) => Step::Continue(out),
            Step::Done(x) => Step::Done((self.f.take().expect("Map closure already consumed"))(x)),
        }
    }

    fn phase_name(&self) -> &'static str {
        self.inner.phase_name()
    }
}

/// What a [`Loop`]'s step closure decides after each iteration.
pub enum LoopControl<S, M, Out> {
    /// Run another machine; its output becomes the next loop state.
    Continue(BoxedMachine<M, S>),
    /// The loop is finished with this output.
    Break(Out),
}

/// State-threading iteration: repeatedly feed a state value to a closure
/// that either builds the next machine (whose output is the next state) or
/// breaks with the final output. The data-dependent sibling of [`Chain`]:
/// retry loops, draw-refill-draw beacons, and phase-by-phase agreement all
/// compile to it. Like `Chain`, a successor machine starts in the same
/// driver round its predecessor finished in, with an empty first inbox —
/// and a machine that finishes without sending (a pure computation) costs
/// no round at all, so several iterations can collapse into one round.
pub struct Loop<S, M, Out> {
    current: Option<(BoxedMachine<M, S>, u64)>,
    pending: Option<S>,
    #[allow(clippy::type_complexity)]
    next: Box<dyn FnMut(S) -> LoopControl<S, M, Out> + Send>,
}

/// Build a [`Loop`] from an initial state and a step closure.
pub fn looping<S, M, Out>(
    init: S,
    next: impl FnMut(S) -> LoopControl<S, M, Out> + Send + 'static,
) -> Loop<S, M, Out> {
    Loop { current: None, pending: Some(init), next: Box::new(next) }
}

impl<M, S, Out> RoundMachine<M> for Loop<S, M, Out> {
    type Output = Out;

    fn round(&mut self, mut view: RoundView<'_, M>) -> Step<M, Out> {
        // Only the machine already in flight at entry may read this
        // round's inbox; iterations started mid-round see an empty one.
        let mut inbox_fresh = self.current.is_some();
        loop {
            if self.current.is_none() {
                let state = self.pending.take().expect("loop state missing");
                match (self.next)(state) {
                    LoopControl::Continue(m) => self.current = Some((m, view.round)),
                    LoopControl::Break(out) => return Step::Done(out),
                }
            }
            let base = self.current.as_ref().map(|(_, b)| *b).expect("machine in flight");
            let empty = Inbox::empty();
            let inbox = if inbox_fresh { view.inbox } else { &empty };
            let step = {
                let (m, _) = self.current.as_mut().expect("machine in flight");
                m.round(view.rebase(base, inbox))
            };
            match step {
                Step::Continue(out) => return Step::Continue(out),
                Step::Done(s) => {
                    self.current = None;
                    self.pending = Some(s);
                    inbox_fresh = false;
                }
            }
        }
    }

    fn phase_name(&self) -> &'static str {
        match &self.current {
            Some((m, _)) => m.phase_name(),
            None => "loop",
        }
    }
}

/// Run a sub-protocol inside a committee: the inner machine sees a
/// `c`-party network of committee ranks while its traffic rides the real
/// `n`-party wire.
///
/// `members` are the global ids of the committee, sorted ascending; rank
/// `r` (1-based) is the position in that list. The adapter
///
/// * presents the inner machine with `n = c` and `id = rank`,
/// * narrows the inbox to messages from members that carry an inner
///   payload (via [`Embeds::peek`]), re-addressed to ranks,
/// * expands the inner outbox: rank unicasts become global unicasts and
///   `send_to_all` becomes `c` unicasts to the members — so a committee
///   protocol costs `O(c²)` links, not `O(n²)`.
///
/// The ideal broadcast channel is **not** remapped: §4's protocols are
/// broadcast-free, and a committee-internal "broadcast" has no analogue on
/// the outer network. The inner machine must not call
/// [`Outbox::broadcast`].
pub struct Subnet<A, Inner> {
    members: Vec<PartyId>,
    rank: usize,
    round: u64,
    inner: A,
    _msg: std::marker::PhantomData<fn() -> Inner>,
}

impl<A, Inner> Subnet<A, Inner> {
    /// Wrap `inner` for committee member `my_id`.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty, unsorted, or does not contain
    /// `my_id`.
    pub fn new(members: Vec<PartyId>, my_id: PartyId, inner: A) -> Self {
        assert!(!members.is_empty(), "committee cannot be empty");
        assert!(members.windows(2).all(|w| w[0] < w[1]), "members must be sorted and unique");
        let rank = members
            .iter()
            .position(|&m| m == my_id)
            .map(|i| i + 1)
            .unwrap_or_else(|| panic!("party {my_id} is not a committee member"));
        Subnet { members, rank, round: 0, inner, _msg: std::marker::PhantomData }
    }

    /// This party's 1-based rank inside the committee.
    pub fn rank(&self) -> usize {
        self.rank
    }
}

impl<M, Inner, A> RoundMachine<M> for Subnet<A, Inner>
where
    M: Embeds<Inner>,
    Inner: Clone,
    A: RoundMachine<Inner>,
{
    type Output = A::Output;

    fn round(&mut self, view: RoundView<'_, M>) -> Step<M, A::Output> {
        let c = self.members.len();
        // `members` is sorted: rank lookup is a binary search.
        let msgs: Vec<Received<Inner>> = view
            .inbox
            .iter()
            .filter_map(|rcv| {
                let rank0 = self.members.binary_search(&rcv.from).ok()?;
                let inner = <M as Embeds<Inner>>::peek(rcv.msg())?;
                Some(Received::new(rank0 + 1, rcv.broadcast, rcv.seq, inner.clone()))
            })
            .collect();
        let inner_inbox = Inbox::from_messages(msgs);
        let inner_view = RoundView {
            id: self.rank,
            n: c,
            round: self.round,
            inbox: &inner_inbox,
            rng: view.rng,
        };
        match self.inner.round(inner_view) {
            Step::Continue(inner_out) => {
                self.round += 1;
                let mut out = Outbox::new(view.n);
                for (dest, msg) in inner_out.envelopes {
                    match dest {
                        Dest::One(rank) => out.send(self.members[rank - 1], M::wrap(msg)),
                        Dest::All => {
                            for &g in &self.members {
                                out.send(g, M::wrap(msg.clone()));
                            }
                        }
                        Dest::Broadcast => {
                            panic!("Subnet does not support the ideal broadcast channel")
                        }
                    }
                }
                Step::Continue(out)
            }
            Step::Done(out) => Step::Done(out),
        }
    }

    fn phase_name(&self) -> &'static str {
        self.inner.phase_name()
    }
}

/// Combinator methods on every [`RoundMachine`].
pub trait MachineExt<M>: RoundMachine<M> + Sized {
    /// Run `self` to completion, then the machine built from its output.
    fn then<B, F>(self, make: F) -> Chain<Self, B, F>
    where
        B: RoundMachine<M>,
        F: FnOnce(Self::Output) -> B,
    {
        Chain { state: ChainState::First(self), make: Some(make) }
    }

    /// Transform the final output.
    fn map<T, F>(self, f: F) -> Map<Self, F>
    where
        F: FnOnce(Self::Output) -> T,
    {
        Map { inner: self, f: Some(f) }
    }
}

impl<M, A: RoundMachine<M>> MachineExt<M> for A {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::step::StepRunner;

    /// Echo machine: round 0 sends `value` to everyone, round 1 sums what
    /// arrived.
    struct EchoSum {
        value: u32,
    }

    impl RoundMachine<u32> for EchoSum {
        type Output = u32;
        fn round(&mut self, view: RoundView<'_, u32>) -> Step<u32, u32> {
            if view.round == 0 {
                let mut out = view.outbox();
                out.send_to_all(self.value);
                Step::Continue(out)
            } else {
                Step::Done(view.inbox.iter().map(|r| *r.msg()).sum())
            }
        }
    }

    /// A payload whose `wire_bytes()` counts its own invocations.
    struct Metered {
        bytes: usize,
        sized: std::rc::Rc<std::cell::Cell<u32>>,
    }

    impl WireSize for Metered {
        fn wire_bytes(&self) -> usize {
            self.sized.set(self.sized.get() + 1);
            self.bytes
        }
    }

    #[test]
    fn outbox_flush_matches_cost_model_counting() {
        // 2 unicasts + 1 send_to_all(3) + 1 broadcast over n = 3:
        // messages = 2 + 3 + 1, seqs = 2 + 3 + 1, posts = 2 + 3 + 3.
        let sized = std::rc::Rc::new(std::cell::Cell::new(0));
        let msg = |bytes| Metered { bytes, sized: sized.clone() };
        let mut out = Outbox::new(3);
        out.send(1, msg(7));
        out.send(3, msg(8));
        out.send_to_all(msg(9));
        out.broadcast(msg(10));
        let mut posts = Vec::new();
        let mut seq = 0;
        let before = dprbg_metrics::CostSnapshot::capture();
        let stats = out.flush(2, &mut seq, |to, rcv| posts.push((to, rcv)));
        let charged = dprbg_metrics::CostSnapshot::capture().since(&before);
        assert_eq!(seq, 6);
        assert_eq!(posts.len(), 8);
        let bcast: Vec<_> = posts.iter().filter(|(_, r)| r.broadcast).collect();
        assert_eq!(bcast.len(), 3);
        assert!(bcast.iter().all(|(_, r)| r.seq == 5 && r.msg().bytes == 10));
        // The payload is sized once per envelope, yet charged per copy —
        // the same totals the per-copy sizing produced.
        assert_eq!(sized.get(), 4, "wire_bytes() calls: one per envelope");
        assert_eq!(stats, FlushStats { messages: 6, bytes: 7 + 8 + 3 * 9 + 10 });
        assert_eq!((charged.messages, charged.bytes), (stats.messages, stats.bytes));
        // A fan-out's copies are one allocation; distinct envelopes are not.
        let all: Vec<&Metered> = posts[2..5].iter().map(|(_, r)| r.msg()).collect();
        assert_eq!(posts[2..5].iter().map(|(to, _)| *to).collect::<Vec<_>>(), [1, 2, 3]);
        assert!(all.iter().all(|m| std::ptr::eq(*m, all[0]) && m.bytes == 9));
        assert!(bcast.iter().all(|(_, r)| std::ptr::eq(r.msg(), bcast[0].1.msg())));
        assert!(!std::ptr::eq(all[0], bcast[0].1.msg()));
    }

    #[test]
    #[should_panic(expected = "invalid recipient")]
    fn outbox_rejects_out_of_range_recipient() {
        Outbox::<u32>::new(3).send(4, 0);
    }

    #[test]
    fn outbox_map_preserves_destinations_and_order() {
        let mut out = Outbox::<u32>::new(3);
        out.send(2, 5);
        out.send_to_all(6);
        let mapped = out.map(|v| v as u64 + 100);
        let mut posts = Vec::new();
        let mut seq = 0;
        mapped.flush(1, &mut seq, |to, rcv| posts.push((to, *rcv.msg())));
        assert_eq!(posts, vec![(2, 105), (1, 106), (2, 106), (3, 106)]);
    }

    #[test]
    fn outbox_append_concatenates_in_order() {
        let mut a = Outbox::<u32>::new(3);
        a.send(1, 1);
        let mut b = Outbox::<u32>::new(3);
        b.send(2, 2);
        b.broadcast(3);
        a.append(b);
        let mut posts = Vec::new();
        let mut seq = 0;
        a.flush(0, &mut seq, |to, rcv| posts.push((to, *rcv.msg(), rcv.broadcast)));
        assert_eq!(
            posts,
            vec![(1, 1, false), (2, 2, false), (1, 3, true), (2, 3, true), (3, 3, true)]
        );
    }

    #[test]
    #[should_panic(expected = "different networks")]
    fn outbox_append_rejects_size_mismatch() {
        let mut a = Outbox::<u32>::new(3);
        a.append(Outbox::new(4));
    }

    #[test]
    fn chain_starts_successor_in_same_round() {
        // EchoSum (2 calls, 1 round) chained into another EchoSum keyed on
        // the first sum: total rounds per party = 2, not 3 — B's send
        // happens in the round A finishes.
        let machines: Vec<BoxedMachine<u32, u32>> = (0..3)
            .map(|i| {
                Box::new(EchoSum { value: i + 1 }.then(|sum| EchoSum { value: sum }))
                    as BoxedMachine<u32, u32>
            })
            .collect();
        let res = StepRunner::new(3, 1).run(machines);
        assert_eq!(res.report.comm.rounds, 2);
        // Round 1 sums: 1+2+3 = 6 for everyone; round 2 sums: 6*3 = 18.
        assert_eq!(res.unwrap_all(), vec![18, 18, 18]);
    }

    #[test]
    fn map_transforms_output() {
        let machines: Vec<BoxedMachine<u32, String>> = (0..2)
            .map(|i| {
                Box::new(EchoSum { value: i + 10 }.map(|sum| format!("sum={sum}")))
                    as BoxedMachine<u32, String>
            })
            .collect();
        let res = StepRunner::new(2, 1).run(machines);
        assert_eq!(res.unwrap_all(), vec!["sum=21".to_string(), "sum=21".to_string()]);
    }

    #[test]
    fn looping_threads_state_and_matches_chain_round_shape() {
        // Three EchoSum iterations, each seeded by the previous sum —
        // identical to a hand-rolled Chain of three: 3 rounds total.
        let fleet: Vec<BoxedMachine<u32, u32>> = (0..3)
            .map(|i| {
                Box::new(looping((0u32, i as u32 + 1), |(iter, value)| {
                    if iter == 3 {
                        LoopControl::Break(value)
                    } else {
                        LoopControl::Continue(Box::new(
                            EchoSum { value }.map(move |sum| (iter + 1, sum)),
                        ))
                    }
                })) as BoxedMachine<u32, u32>
            })
            .collect();
        let res = StepRunner::new(3, 1).run(fleet);
        assert_eq!(res.report.comm.rounds, 3);
        // 1+2+3 = 6 → 18 → 54 (each round every party echoes the same sum).
        assert_eq!(res.unwrap_all(), vec![54, 54, 54]);
    }

    #[test]
    fn looping_pure_iterations_cost_no_rounds() {
        // Machines that finish without sending collapse into zero rounds.
        let fleet: Vec<BoxedMachine<u32, u32>> = (0..2)
            .map(|_| {
                Box::new(looping(0u32, |count| {
                    if count == 5 {
                        LoopControl::Break(count)
                    } else {
                        LoopControl::Continue(Box::new(from_fn(move |_v: RoundView<'_, u32>| {
                            Step::Done(count + 1)
                        })))
                    }
                })) as BoxedMachine<u32, u32>
            })
            .collect();
        let res = StepRunner::new(2, 9).run(fleet);
        assert_eq!(res.report.comm.rounds, 0);
        assert_eq!(res.unwrap_all(), vec![5, 5]);
    }

    #[test]
    fn subnet_narrows_the_network_to_members() {
        /// Inner gossip over ranks: each member sends its rank, outputs
        /// the ranks it heard.
        struct RankGossip;
        impl RoundMachine<u32> for RankGossip {
            type Output = Vec<u32>;
            fn round(&mut self, view: RoundView<'_, u32>) -> Step<u32, Vec<u32>> {
                if view.round == 0 {
                    assert_eq!(view.n, 2, "inner machine must see the committee size");
                    let mut out = view.outbox();
                    out.send_to_all(view.id as u32);
                    Step::Continue(out)
                } else {
                    Step::Done(view.inbox.iter().map(|r| *r.msg()).collect())
                }
            }
        }
        // n = 4, committee {2, 4}: outsiders finish silently; members see
        // exactly the two ranks. The reflexive Embeds (u32 carries u32)
        // keeps the wire type plain.
        let members = vec![2usize, 4usize];
        let fleet: Vec<BoxedMachine<u32, Vec<u32>>> = (1..=4)
            .map(|id| {
                if members.contains(&id) {
                    Box::new(Subnet::new(members.clone(), id, RankGossip))
                        as BoxedMachine<u32, Vec<u32>>
                } else {
                    Box::new(silent())
                }
            })
            .collect();
        let res = StepRunner::new(4, 5).run(fleet);
        // send_to_all inside the subnet = c = 2 unicasts per member.
        assert_eq!(res.report.comm.messages, 4);
        assert_eq!(res.outputs[1], Some(vec![1, 2]));
        assert_eq!(res.outputs[3], Some(vec![1, 2]));
        assert_eq!(res.outputs[0], Some(vec![]));
    }
}
