//! Grade-Cast (Feldman–Micali [14]).
//!
//! "Grade-Cast is the three level-outcome primitive … [the sender sends]
//! his/her value to the rest of the players. In the next round everybody
//! echoes, and this is followed by another round of echos. Each player
//! outputs a value ν … and a confidence value conf ∈ {0, 1, 2} … A
//! confidence of 2 indicates that all other honest players have seen the
//! value ν." (§4 of the paper.)
//!
//! Guarantees for `n ≥ 3t + 1`:
//!
//! 1. **Honest sender** ⇒ every honest party outputs the sender's value
//!    with confidence 2.
//! 2. **Soft agreement** — if any honest party outputs confidence 2 for
//!    `v`, every honest party outputs `v` with confidence ≥ 1.
//! 3. **No two honest parties output confidence ≥ 1 for different
//!    values.**
//!
//! All `n` instances (one per sender) run in parallel in three rounds —
//! exactly how Coin-Gen step 7 uses them. A party sends each round's
//! traffic for every instance in one envelope per recipient: its value,
//! then one Echo bundle holding every `(instance, value)` it echoes, then
//! one Vote bundle. Each round is thus at most `n²` messages (Theorem 2's
//! count), while the bytes stay those of `n³` per-instance messages: a
//! bundle costs one instance tag plus the value per entry.
//!
//! A value travels as one shared handle (`Arc<V>`): the sender wraps it
//! once, every Echo, Vote and grade forwards the handle it received, and
//! the tallies match handles by identity before comparing values — so a
//! fault-free instance costs one allocation however many parties relay it.

use std::marker::PhantomData;
use std::sync::Arc;

use dprbg_metrics::WireSize;
use dprbg_sim::{Embeds, PartyId, RoundMachine, RoundView, Step};

/// Wire messages of the parallel grade-cast instances. An Echo or Vote
/// bundle lists `(instance, value)` entries, one per instance the sender
/// echoes or votes for; a party with nothing to say sends no bundle. On
/// receipt an entry tagged outside `1..=n` is dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GcMsg<V> {
    /// Round 1: instance sender's value.
    Value(Arc<V>),
    /// Round 2: echoes of what each instance's sender said.
    Echo(Vec<(PartyId, Arc<V>)>),
    /// Round 3: votes for the values that had ≥ n − t echoes.
    Vote(Vec<(PartyId, Arc<V>)>),
}

impl<V: WireSize> WireSize for GcMsg<V> {
    fn wire_bytes(&self) -> usize {
        match self {
            GcMsg::Value(v) => v.wire_bytes(),
            // Instance tags are log n bits; charge one byte per entry.
            GcMsg::Echo(entries) | GcMsg::Vote(entries) => {
                entries.iter().map(|(_, v)| 1 + v.wire_bytes()).sum()
            }
        }
    }
}

/// One party's output for one grade-cast instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GradeOutput<V> {
    /// The received value, if any support materialized — the handle it
    /// arrived in, not a copy.
    pub value: Option<Arc<V>>,
    /// Confidence ∈ {0, 1, 2}.
    pub confidence: u8,
}

impl<V> GradeOutput<V> {
    fn none() -> Self {
        GradeOutput { value: None, confidence: 0 }
    }
}

/// Count the support for each distinct value among one instance's voices
/// (one cell per sender); return the best value with its count (the
/// later-seen value on a tie). A bucket is matched by handle identity
/// first and by value only across distinct allocations (what a tampered
/// or equivocated copy is).
fn best_supported<'a, V: Eq>(voices: &[Option<&'a Arc<V>>]) -> Option<(&'a Arc<V>, usize)> {
    let mut tally: Vec<(&Arc<V>, usize)> = Vec::new();
    for &v in voices.iter().flatten() {
        match tally.iter().position(|&(tv, _)| Arc::ptr_eq(tv, v) || **tv == **v) {
            Some(i) => tally[i].1 += 1,
            None => tally.push((v, 1)),
        }
    }
    tally.into_iter().max_by_key(|(_, c)| *c)
}

/// The `n` parallel grade-cast instances as a sans-IO round machine —
/// party `j` is the sender of instance `j`; the output is this party's
/// `n` [`GradeOutput`]s (index `j − 1` is instance `j`).
///
/// Each round call consumes the previous round's inbox and emits the next
/// round's sends, so no cross-round message storage is needed beyond the
/// phase tag. Exactly 3 rounds (`Continue`s); the `Done` call only tallies
/// votes. Requires `n ≥ 3t + 1` for the guarantees above; the threshold
/// `t` is `⌊(n − 1) / 3⌋`.
pub struct GradecastMachine<M, V> {
    my_value: Option<V>,
    phase: GcPhase,
    _wire: PhantomData<fn() -> M>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GcPhase {
    /// Round 1: senders distribute values.
    Send,
    /// Round 2: echo what each instance's sender said.
    Echo,
    /// Round 3: vote for values with ≥ n − t echo support.
    Vote,
    /// Tally votes into grades.
    Decide,
}

impl<M, V> GradecastMachine<M, V> {
    /// A machine grade-casting `my_value` in this party's own instance
    /// (`None` = originate nothing; the party still echoes and votes for
    /// the other instances).
    pub fn new(my_value: impl Into<Option<V>>) -> Self {
        GradecastMachine { my_value: my_value.into(), phase: GcPhase::Send, _wire: PhantomData }
    }
}

impl<M, V> RoundMachine<M> for GradecastMachine<M, V>
where
    M: Clone + WireSize + Embeds<GcMsg<V>>,
    V: Eq + WireSize,
{
    type Output = Vec<GradeOutput<V>>;

    fn round(&mut self, view: RoundView<'_, M>) -> Step<M, Self::Output> {
        let n = view.n;
        let t = (n - 1) / 3;
        match self.phase {
            GcPhase::Send => {
                let mut out = view.outbox();
                if let Some(v) = self.my_value.take() {
                    out.send_to_all(M::wrap(GcMsg::Value(Arc::new(v))));
                }
                self.phase = GcPhase::Echo;
                Step::Continue(out)
            }
            GcPhase::Echo => {
                let received = view.inbox.first_per_sender(n, |r| {
                    match <M as Embeds<GcMsg<V>>>::peek(r.msg()) {
                        Some(GcMsg::Value(v)) => Some(v),
                        _ => None,
                    }
                });
                let echoes: Vec<_> =
                    (1..=n).zip(received).filter_map(|(j, v)| Some((j, Arc::clone(v?)))).collect();
                let mut out = view.outbox();
                if !echoes.is_empty() {
                    out.send_to_all(M::wrap(GcMsg::Echo(echoes)));
                }
                self.phase = GcPhase::Vote;
                Step::Continue(out)
            }
            GcPhase::Vote => {
                let echoes = view.inbox.first_per_slot(n, 1..n + 1, |r| {
                    match <M as Embeds<GcMsg<V>>>::peek(r.msg()) {
                        Some(GcMsg::Echo(entries)) => Some(entries.iter().map(|(j, v)| (*j, v))),
                        _ => None,
                    }
                });
                let votes: Vec<_> = (1..=n)
                    .zip(echoes.rows())
                    .filter_map(|(j, echoes)| match best_supported(echoes) {
                        Some((v, c)) if c >= n - t => Some((j, Arc::clone(v))),
                        _ => None,
                    })
                    .collect();
                let mut out = view.outbox();
                if !votes.is_empty() {
                    out.send_to_all(M::wrap(GcMsg::Vote(votes)));
                }
                self.phase = GcPhase::Decide;
                Step::Continue(out)
            }
            GcPhase::Decide => {
                let votes = view.inbox.first_per_slot(n, 1..n + 1, |r| {
                    match <M as Embeds<GcMsg<V>>>::peek(r.msg()) {
                        Some(GcMsg::Vote(entries)) => Some(entries.iter().map(|(j, v)| (*j, v))),
                        _ => None,
                    }
                });
                Step::Done(
                    votes
                        .rows()
                        .map(|votes| match best_supported(votes) {
                            Some((v, c)) if c >= n - t => {
                                GradeOutput { value: Some(Arc::clone(v)), confidence: 2 }
                            }
                            Some((v, c)) if c > t => {
                                GradeOutput { value: Some(Arc::clone(v)), confidence: 1 }
                            }
                            _ => GradeOutput::none(),
                        })
                        .collect(),
                )
            }
        }
    }

    fn phase_name(&self) -> &'static str {
        match self.phase {
            GcPhase::Send => "gradecast/send",
            GcPhase::Echo => "gradecast/echo",
            GcPhase::Vote => "gradecast/vote",
            GcPhase::Decide => "gradecast/decide",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dprbg_rng::prelude::*;
    use dprbg_sim::{
        from_fn, BoxedMachine, FaultPlan, Inbox, MsgFate, MsgHop, ParRunner, Received, SlotTable,
        StepRunner,
    };

    type V = u64;
    type M = GcMsg<V>;

    fn honest(value: V) -> BoxedMachine<M, Vec<GradeOutput<V>>> {
        Box::new(GradecastMachine::new(value))
    }

    /// One party's `(value, confidence)` per instance.
    fn grades(output: &Option<Vec<GradeOutput<V>>>) -> Vec<(Option<V>, u8)> {
        output.as_ref().unwrap().iter().map(|g| (g.value.as_deref().copied(), g.confidence)).collect()
    }

    /// The tally as it was before values travelled as handles: owned
    /// entries, every distinct value cloned into the tally, buckets matched
    /// by `==` alone. Kept as the reference `best_supported` is checked
    /// against.
    fn best_supported_cloning<T: Clone + Eq>(entries: &[(PartyId, T)]) -> Option<(T, usize)> {
        let mut tally: Vec<(T, usize)> = Vec::new();
        let mut seen: Vec<PartyId> = Vec::new();
        for (p, v) in entries {
            if seen.contains(p) {
                continue;
            }
            seen.push(*p);
            match tally.iter_mut().find(|(tv, _)| tv == v) {
                Some((_, c)) => *c += 1,
                None => tally.push((v.clone(), 1)),
            }
        }
        tally.into_iter().max_by_key(|(_, c)| *c)
    }

    proptest! {
        /// Random echo multisets over a tiny alphabet of parties and
        /// values, so duplicate voices, equivocation (one party, several
        /// values) and tied counts are the common case. Each entry is
        /// either a clone of its value's one shared handle (a forwarded
        /// echo) or the same value in an allocation of its own (a tampered
        /// or rebuilt copy), delivered as one envelope. The identity-first
        /// tally over the inbox's column picks the same value with the
        /// same count — including which of several tied values wins — as
        /// the tally that only ever compared by value, over the entries in
        /// inbox order.
        #[test]
        fn by_reference_tally_matches_cloning_tally(
            seed: u64,
            len in 0usize..48,
            parties in 1usize..9,
            values in 1u64..5,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let shared: Vec<Arc<Vec<u64>>> = (0..values).map(|v| Arc::new(vec![v; 3])).collect();
            let handles: Vec<(PartyId, Arc<Vec<u64>>)> = (0..len)
                .map(|_| {
                    let forwarded = &shared[rng.random_range(0..values) as usize];
                    let handle = if rng.random_range(0..2u64) == 0 {
                        Arc::clone(forwarded)
                    } else {
                        Arc::new(Vec::clone(forwarded))
                    };
                    (rng.random_range(1..=parties), handle)
                })
                .collect();
            let mut owned: Vec<(PartyId, Vec<u64>)> =
                handles.iter().map(|(p, v)| (*p, Vec::clone(v))).collect();
            owned.sort_by_key(|(p, _)| *p);
            let sent = (0u32..).zip(handles).map(|(seq, (p, v))| Received::new(p, false, seq, v));
            let inbox = Inbox::from_messages(sent.collect());
            let voices = inbox.first_per_sender(parties, |r| Some(r.msg()));
            let expect = best_supported_cloning(&owned);
            let got = best_supported(&voices).map(|(v, c)| (Vec::clone(v), c));
            prop_assert_eq!(got, expect);
        }
    }

    /// The receive rule's reference: flatten every Echo bundle in `(from,
    /// seq, position)` order, keep the tags in `1..=n`, group by tag.
    fn by_instance_flattened(n: usize, sent: &[Received<M>]) -> Vec<Vec<(PartyId, Arc<V>)>> {
        let mut sent: Vec<&Received<M>> = sent.iter().collect();
        sent.sort_by_key(|r| (r.from, r.seq));
        let mut groups = vec![Vec::new(); n];
        for r in sent {
            if let GcMsg::Echo(entries) = r.msg() {
                for (j, v) in entries {
                    if (1..=n).contains(j) {
                        groups[j - 1].push((r.from, Arc::clone(v)));
                    }
                }
            }
        }
        groups
    }

    /// The Vote round's table.
    fn echo_table(n: usize, inbox: &Inbox<M>) -> SlotTable<&Arc<V>> {
        inbox.first_per_slot(n, 1..n + 1, |r| match r.msg() {
            GcMsg::Echo(entries) => Some(entries.iter().map(|(j, v)| (*j, v))),
            _ => None,
        })
    }

    proptest! {
        /// Random inboxes of Echo bundles (and Values, which the selector
        /// skips): random senders, several bundles per sender, random
        /// instance subsets with repeats, tags 0 and n + 1, and values that
        /// are shared handles or private copies. Each instance's row of
        /// the echo table holds, per sender, the handle of its first entry
        /// in the flattened reference, and every instance's tally agrees
        /// with the cloning tally over the reference's first voices.
        #[test]
        fn by_instance_matches_flattened_bundles(
            seed: u64,
            n in 1usize..8,
            messages in 0usize..24,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let shared: Vec<Arc<V>> = (0..3).map(Arc::new).collect();
            let mut seqs = vec![0u32; n];
            let sent: Vec<Received<M>> = (0..messages)
                .map(|_| {
                    let from = rng.random_range(1..=n);
                    seqs[from - 1] += 1;
                    let seq = seqs[from - 1];
                    let value = shared[rng.random_range(0..3usize)].clone();
                    let msg = if rng.random_range(0..5u32) == 0 {
                        GcMsg::Value(value)
                    } else {
                        GcMsg::Echo(
                            (0..rng.random_range(0..=n + 2))
                                .map(|_| {
                                    let v = &shared[rng.random_range(0..3usize)];
                                    let v = if rng.random_range(0..2u32) == 0 {
                                        Arc::clone(v)
                                    } else {
                                        Arc::new(**v)
                                    };
                                    (rng.random_range(0..=n + 1), v)
                                })
                                .collect(),
                        )
                    };
                    Received::new(from, false, seq, msg)
                })
                .collect();
            let expect = by_instance_flattened(n, &sent);
            let inbox = Inbox::from_messages(sent);
            let got = echo_table(n, &inbox);
            prop_assert_eq!(got.rows().count(), n);
            for (row, expect) in got.rows().zip(&expect) {
                for (p, cell) in (1..=n).zip(row) {
                    let first = expect.iter().find(|(q, _)| *q == p).map(|(_, w)| w);
                    prop_assert_eq!(cell.is_some(), first.is_some());
                    if let (Some(v), Some(w)) = (cell, first) {
                        prop_assert!(Arc::ptr_eq(v, w));
                    }
                }
                let owned: Vec<(PartyId, V)> = expect.iter().map(|(p, v)| (*p, **v)).collect();
                prop_assert_eq!(
                    best_supported(row).map(|(v, c)| (**v, c)),
                    best_supported_cloning(&owned)
                );
            }
        }
    }

    #[test]
    fn all_honest_full_confidence() {
        let n = 4;
        let fleet: Vec<_> = (1..=n).map(|id| honest(id as u64 * 100)).collect();
        let res = StepRunner::new(n, 1).run(fleet);
        for outputs in res.unwrap_all() {
            for (j, out) in outputs.iter().enumerate() {
                assert_eq!(out.confidence, 2);
                assert_eq!(out.value.as_deref(), Some(&((j as u64 + 1) * 100)));
            }
        }
    }

    #[test]
    fn equivocating_sender_cannot_split_high_confidence() {
        // Parties 1–2 send different values to different parties in round
        // 0 and echo inconsistently; honest parties must never end with
        // confidence >= 1 on different values for instance 1.
        let n = 7;
        let plan = FaultPlan::first_t(n, 2);
        let machines = plan.machines::<M, Vec<GradeOutput<V>>>(
            |_| honest(5),
            |_| {
                Box::new(from_fn(|view: RoundView<'_, M>| match view.round {
                    0 => {
                        // Equivocate: half get 111, half get 222.
                        let mut out = view.outbox();
                        for to in 1..=view.n {
                            let v = if to <= view.n / 2 { 111 } else { 222 };
                            out.send(to, GcMsg::Value(Arc::new(v)));
                        }
                        Step::Continue(out)
                    }
                    1 => {
                        // Echo garbage for our own instance, split again.
                        let mut out = view.outbox();
                        for to in 1..=view.n {
                            let v = if to % 2 == 0 { 111 } else { 222 };
                            out.send(to, GcMsg::Echo(vec![(1, Arc::new(v))]));
                        }
                        Step::Continue(out)
                    }
                    2 => Step::Continue(view.outbox()),
                    _ => Step::Done(vec![]),
                }))
            },
        );
        let res = StepRunner::new(n, 2).run(machines);
        let graded: Vec<(Option<V>, u8)> =
            plan.honest().map(|id| grades(&res.outputs[id - 1])[0]).collect();
        // Property 3: all confidence >= 1 values agree.
        let confident: Vec<V> = graded
            .iter()
            .filter(|(_, c)| *c >= 1)
            .map(|(v, _)| v.unwrap())
            .collect();
        assert!(
            confident.windows(2).all(|w| w[0] == w[1]),
            "honest parties graded different values: {graded:?}"
        );
        // Pinned against the clone-based tally this machine replaced:
        // every honest party grades exactly this under the script.
        let mut expect = vec![(Some(222), 1), (None, 0)];
        expect.extend([(Some(5), 2); 5]);
        for id in plan.honest() {
            assert_eq!(grades(&res.outputs[id - 1]), expect, "party {id}");
        }
    }

    #[test]
    fn confidence_two_implies_all_honest_see_value() {
        // Faulty parties echo/vote selectively; whenever an honest party
        // reaches confidence 2 on an honest instance, everyone honest has
        // confidence >= 1 with the same value.
        let n = 7;
        let plan = FaultPlan::first_t(n, 2);
        let machines = plan.machines::<M, Vec<GradeOutput<V>>>(
            |id| honest(id as u64),
            |_| {
                Box::new(from_fn(|view: RoundView<'_, M>| match view.round {
                    // Silent in rounds 0-1, vote garbage in round 2.
                    0 | 1 => Step::Continue(view.outbox()),
                    2 => {
                        let mut out = view.outbox();
                        for to in 1..=view.n {
                            out.send(to, GcMsg::Vote(vec![(3, Arc::new(999))]));
                        }
                        Step::Continue(out)
                    }
                    _ => Step::Done(vec![]),
                }))
            },
        );
        let res = StepRunner::new(n, 3).run(machines);
        for j in plan.honest() {
            // Instance j had an honest sender: everyone must grade (j, 2).
            for id in plan.honest() {
                let outs = res.outputs[id - 1].as_ref().unwrap();
                assert_eq!(outs[j - 1].confidence, 2, "instance {j} at party {id}");
                assert_eq!(outs[j - 1].value.as_deref(), Some(&(j as u64)));
            }
        }
        // Pinned against the clone-based tally (the garbage votes for
        // instance 3 change nothing; the silent instances grade 0).
        let mut expect = vec![(None, 0), (None, 0)];
        expect.extend((3..=7).map(|j| (Some(j), 2)));
        for id in plan.honest() {
            assert_eq!(grades(&res.outputs[id - 1]), expect, "party {id}");
        }
    }

    #[test]
    fn silent_sender_gets_zero_confidence() {
        let n = 4;
        let plan = FaultPlan::explicit(n, vec![2]);
        let machines = plan.machines::<M, Vec<GradeOutput<V>>>(
            |id| honest(id as u64),
            |_| {
                Box::new(from_fn(|view: RoundView<'_, M>| {
                    if view.round < 3 {
                        Step::Continue(view.outbox())
                    } else {
                        Step::Done(vec![])
                    }
                }))
            },
        );
        let res = StepRunner::new(n, 4).run(machines);
        for id in plan.honest() {
            let outs = res.outputs[id - 1].as_ref().unwrap();
            assert_eq!(outs[1].confidence, 0, "silent instance at party {id}");
            assert_eq!(outs[1].value, None);
        }
    }

    /// Party 1 echoes 7 three times (twice in one bundle, once in a
    /// second), party 2 echoes 7 and party 3 echoes 9: 7 has two voices.
    #[test]
    fn duplicate_voices_counted_once() {
        let (seven, nine) = (Arc::new(7u64), Arc::new(9));
        let echo = |from, seq, entries: &[&Arc<V>]| {
            let entries = entries.iter().map(|&v| (1, Arc::clone(v))).collect();
            Received::new(from, false, seq, GcMsg::Echo(entries))
        };
        let inbox = Inbox::from_messages(vec![
            echo(1, 0, &[&seven, &seven]),
            echo(1, 1, &[&seven]),
            echo(2, 0, &[&seven]),
            echo(3, 0, &[&nine]),
        ]);
        let table = echo_table(3, &inbox);
        assert_eq!(best_supported(table.row(0)), Some((&seven, 2)));
        assert_eq!(best_supported::<u64>(&[None, None]), None);
    }

    /// One entry of one Echo bundle copy replaced in flight is a distinct
    /// allocation, so the tally must fall back to `==` for it: an
    /// equal-valued replacement changes nothing anywhere, a
    /// different-valued one moves exactly the recipient's tally. Party 3's
    /// traffic is dropped so every instance sits at the n − t echo
    /// threshold and one moved tally is visible: party 4 withholds its vote
    /// for instance 1, leaving 2 votes (> t, < n − t) — confidence 1 at
    /// everyone. The bundle's other entries still travel as the sender's
    /// handles. Identical under every executor.
    #[test]
    fn tampered_echo_copy_is_tallied_by_value() {
        let n = 4;
        let tap = |replacement: Option<V>| {
            move |hop: MsgHop<'_, M>| match (hop.from, hop.to, hop.msg, replacement) {
                (3, ..) => MsgFate::Drop,
                (2, 4, GcMsg::Echo(entries), Some(v)) => MsgFate::Tamper(GcMsg::Echo(
                    entries
                        .iter()
                        .map(|(j, e)| (*j, if *j == 1 { Arc::new(v) } else { Arc::clone(e) }))
                        .collect(),
                )),
                _ => MsgFate::Deliver,
            }
        };
        let fleet = || (1..=n).map(|id| honest(id as u64 * 100)).collect::<Vec<_>>();
        let run = |replacement: Option<V>| {
            let stepped = StepRunner::new(n, 6).with_tap(tap(replacement)).run(fleet());
            for threads in [1, 2, 8] {
                let par = ParRunner::new(n, 6)
                    .with_threads(threads)
                    .with_tap(tap(replacement))
                    .run(fleet());
                assert_eq!(par.outputs, stepped.outputs, "threads = {threads}");
                assert_eq!(par.report, stepped.report, "threads = {threads}");
                assert_eq!(par.rounds, stepped.rounds, "threads = {threads}");
            }
            stepped
        };
        let untouched = run(None);
        let expect = vec![(Some(100), 2), (Some(200), 2), (None, 0), (Some(400), 2)];
        let equal = run(Some(100));
        let different = run(Some(666));
        for id in 1..=n {
            assert_eq!(grades(&untouched.outputs[id - 1]), expect, "party {id}");
            assert_eq!(grades(&equal.outputs[id - 1]), expect, "party {id}");
            let mut moved = expect.clone();
            moved[0] = (Some(100), 1);
            assert_eq!(grades(&different.outputs[id - 1]), moved, "party {id}");
        }
        assert_eq!(equal.report, untouched.report);
    }

    /// Party 4 sends value 400 to parties 1–2 and 401 to party 3, so each
    /// value has two honest echoes for instance 4 and party 4's own echo
    /// decides whether one of them reaches n − t = 3. It names instance 4
    /// twice — in one bundle, or in two bundles — and only its first
    /// entry is its voice: first 400 makes it 3 echoes (confidence 2 at
    /// everyone), first 401 a 2–2 split (no vote, confidence 0).
    #[test]
    fn repeated_instance_counts_first_entry_only() {
        let n = 4;
        let run = |bundles: Vec<Vec<(PartyId, Arc<V>)>>| {
            let plan = FaultPlan::explicit(n, vec![4]);
            let machines = plan.machines::<M, Vec<GradeOutput<V>>>(
                |id| honest(id as u64 * 100),
                |_| {
                    let mut bundles = Some(bundles.clone());
                    Box::new(from_fn(move |view: RoundView<'_, M>| {
                        let mut out = view.outbox();
                        match view.round {
                            0 => {
                                for to in 1..=view.n {
                                    let v = if to <= 2 { 400 } else { 401 };
                                    out.send(to, GcMsg::Value(Arc::new(v)));
                                }
                            }
                            1 => {
                                for bundle in bundles.take().unwrap_or_default() {
                                    out.send_to_all(GcMsg::Echo(bundle));
                                }
                            }
                            2 => {}
                            _ => return Step::Done(vec![]),
                        }
                        Step::Continue(out)
                    }))
                },
            );
            let res = StepRunner::new(n, 8).run(machines);
            plan.honest().map(|id| grades(&res.outputs[id - 1])).collect::<Vec<_>>()
        };
        let others = [(Some(100), 2), (Some(200), 2), (Some(300), 2)];
        for (first, second, instance_4) in [(400, 401, (Some(400), 2)), (401, 400, (None, 0))] {
            let (a, b) = ((4, Arc::new(first)), (4, Arc::new(second)));
            let one_bundle = run(vec![vec![a.clone(), b.clone()]]);
            let two_bundles = run(vec![vec![a], vec![b]]);
            for graded in one_bundle.iter().chain(&two_bundles) {
                assert_eq!(graded[..3], others, "first = {first}");
                assert_eq!(graded[3], instance_4, "first = {first}");
            }
        }
    }

    /// Entries tagged 0 or n + 1, in Echo and in Vote bundles, are dropped
    /// on receipt: a party that adds them to otherwise honest bundles
    /// leaves every grade as in the fault-free run.
    #[test]
    fn out_of_range_instance_tags_are_dropped() {
        let n = 4;
        let plan = FaultPlan::explicit(n, vec![4]);
        let bundle = move || -> Vec<(PartyId, Arc<V>)> {
            let mut entries = vec![(0, Arc::new(7))];
            entries.extend((1..=n).map(|j| (j, Arc::new(j as u64 * 100))));
            entries.push((n + 1, Arc::new(7)));
            entries
        };
        let machines = plan.machines::<M, Vec<GradeOutput<V>>>(
            |id| honest(id as u64 * 100),
            |_| {
                Box::new(from_fn(move |view: RoundView<'_, M>| {
                    let mut out = view.outbox();
                    match view.round {
                        0 => out.send_to_all(GcMsg::Value(Arc::new(400))),
                        1 => out.send_to_all(GcMsg::Echo(bundle())),
                        2 => out.send_to_all(GcMsg::Vote(bundle())),
                        _ => return Step::Done(vec![]),
                    }
                    Step::Continue(out)
                }))
            },
        );
        let res = StepRunner::new(n, 9).run(machines);
        let expect: Vec<_> = (1..=n).map(|j| (Some(j as u64 * 100), 2)).collect();
        for id in plan.honest() {
            assert_eq!(grades(&res.outputs[id - 1]), expect, "party {id}");
        }
    }

    /// A party with nothing to echo or vote sends no envelope: with no
    /// sender at all the run is silent, and with one sender every round
    /// is one envelope per party per recipient (n² messages), not one per
    /// instance.
    #[test]
    fn nothing_to_say_sends_no_envelope() {
        let n = 4;
        let silent: Vec<_> =
            (1..=n).map(|_| Box::new(GradecastMachine::new(None)) as BoxedMachine<M, _>).collect();
        let res = StepRunner::new(n, 10).run(silent);
        assert_eq!(res.report.comm.messages, 0);
        for outputs in res.unwrap_all() {
            assert_eq!(outputs, vec![GradeOutput::none(); n]);
        }
        let one_sender: Vec<_> = (1..=n)
            .map(|id| {
                Box::new(GradecastMachine::new((id == 2).then_some(200u64))) as BoxedMachine<M, _>
            })
            .collect();
        let res = StepRunner::new(n, 10).run(one_sender);
        let deliveries: Vec<usize> = res.rounds.iter().map(|p| p.deliveries).collect();
        assert_eq!(deliveries, [n, n * n, n * n]);
        assert_eq!(res.report.comm.messages, (n + 2 * n * n) as u64);
    }

    /// A Value costs its payload; a k-entry Echo or Vote bundle costs one
    /// instance tag byte plus the value per entry, so bundling saves
    /// messages, not bytes.
    #[test]
    fn bundle_wire_size_is_tag_plus_value_per_entry() {
        let value = |len: usize| Arc::new(vec![0u64; len]);
        assert_eq!(GcMsg::Value(value(3)).wire_bytes(), 24);
        for k in 0..5 {
            let entries: Vec<(PartyId, Arc<Vec<u64>>)> = (1..=k).map(|j| (j, value(j))).collect();
            let expect: usize = (1..=k).map(|j| 1 + 8 * j).sum();
            assert_eq!(GcMsg::Echo(entries.clone()).wire_bytes(), expect, "k = {k}");
            assert_eq!(GcMsg::Vote(entries).wire_bytes(), expect, "k = {k}");
        }
    }

    thread_local! {
        /// Deep clones of [`Counted`] made on this thread.
        static CLONES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    /// A payload that counts its deep clones.
    #[derive(Debug, PartialEq, Eq)]
    struct Counted(u64);

    impl Clone for Counted {
        fn clone(&self) -> Self {
            CLONES.with(|c| c.set(c.get() + 1));
            Counted(self.0)
        }
    }

    impl WireSize for Counted {
        fn wire_bytes(&self) -> usize {
            8
        }
    }

    /// A fault-free grade-cast never deep-clones a value: the sender moves
    /// it into one handle, and Echo, Vote and Decide (and the message
    /// plane under them) pass that handle on. (Per-hop cloning cost 3n per
    /// party.)
    #[test]
    fn fault_free_gradecast_makes_no_deep_clones() {
        let n = 7;
        let fleet: Vec<BoxedMachine<GcMsg<Counted>, Vec<GradeOutput<Counted>>>> = (1..=n)
            .map(|id| Box::new(GradecastMachine::new(Counted(id as u64))) as _)
            .collect();
        CLONES.with(|c| c.set(0));
        let graded = StepRunner::new(n, 7).run(fleet).unwrap_all();
        assert_eq!(CLONES.with(|c| c.get()), 0);
        for grades in &graded {
            for (j0, g) in grades.iter().enumerate() {
                assert_eq!((g.value.as_deref(), g.confidence), (Some(&Counted(j0 as u64 + 1)), 2));
            }
        }
    }

    #[test]
    fn takes_exactly_three_rounds() {
        let n = 4;
        let fleet: Vec<_> = (1..=n).map(|id| honest(id as u64)).collect();
        let res = StepRunner::new(n, 5).run(fleet);
        assert_eq!(res.report.comm.rounds, 3);
    }
}
