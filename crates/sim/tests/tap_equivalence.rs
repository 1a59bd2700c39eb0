//! Executor-equivalence property: any *pure* [`MsgTap`] — a tap whose
//! fate is a function of the [`MsgHop`] alone — emitting `Drop`, `Delay`
//! and `Tamper` preserves byte-identical transcripts across both
//! executors:
//!
//! * [`StepRunner::with_tap`] — the single-threaded stepper;
//! * [`ParRunner::with_tap`] — the deterministic work-stealing pool, at
//!   several thread counts.
//!
//! Purity keeps the property maximally strong (a hop-determined fate
//! cannot smuggle ordering information between parties), though both
//! executors in fact consult the tap on the coordinating thread in the
//! same id-major order, so even stateful taps agree. The property is
//! exercised over randomly drawn fleet shapes and fate tables via the
//! in-tree `proptest!` harness; failures replay with
//! `DPRBG_PROPTEST_SEED`.

use dprbg_rng::prelude::*;
use dprbg_sim::{
    BoxedMachine, MsgFate, MsgHop, ParRunner, RoundMachine, RoundView, RunResult, Step, StepRunner,
};

/// A gossip fleet: every party broadcasts and unicasts a round-tagged
/// payload each round, and records every inbox it ever sees. The output
/// is the party's full receive transcript `(round, from, broadcast,
/// msg)` — byte-identical transcripts means equal outputs here, plus
/// equal cost reports and round profiles.
struct Gossip {
    rounds: u64,
    transcript: Vec<(u64, usize, bool, u64)>,
}

impl RoundMachine<u64> for Gossip {
    type Output = Vec<(u64, usize, bool, u64)>;

    fn phase_name(&self) -> &'static str {
        "gossip"
    }

    fn round(&mut self, view: RoundView<'_, u64>) -> Step<u64, Self::Output> {
        self.transcript
            .extend(view.inbox.iter().map(|r| (view.round, r.from, r.broadcast, *r.msg())));
        if view.round < self.rounds {
            let mut out = view.outbox();
            out.broadcast(view.id as u64 * 1000 + view.round);
            out.send_to_all(view.id as u64 * 100 + view.round);
            Step::Continue(out)
        } else {
            Step::Done(std::mem::take(&mut self.transcript))
        }
    }
}

fn fleet(n: usize, rounds: u64) -> Vec<BoxedMachine<u64, Vec<(u64, usize, bool, u64)>>> {
    (0..n).map(|_| Box::new(Gossip { rounds, transcript: Vec::new() }) as _).collect()
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The fate-table shape the property draws: percentage weights for each
/// adversarial fate, with the remainder delivered untouched.
#[derive(Clone, Copy)]
struct TapParams {
    seed: u64,
    drop_pct: u64,
    delay_pct: u64,
    tamper_pct: u64,
    max_delay: u64,
}

/// A pure fate table: hash the full hop coordinate (sender, recipient,
/// round, channel, payload) and carve the hash into fate buckets. No
/// state, no ordering sensitivity — the contract [`MsgTap`] documents.
fn pure_fate(p: TapParams, hop: &MsgHop<'_, u64>) -> MsgFate<u64> {
    let h = splitmix64(
        p.seed
            ^ splitmix64(hop.from as u64)
            ^ splitmix64((hop.to as u64).rotate_left(16))
            ^ splitmix64(hop.round.rotate_left(32))
            ^ splitmix64(*hop.msg ^ u64::from(hop.broadcast)),
    );
    let bucket = h % 100;
    if bucket < p.drop_pct {
        MsgFate::Drop
    } else if bucket < p.drop_pct + p.delay_pct {
        MsgFate::Delay(1 + (h >> 32) % p.max_delay)
    } else if bucket < p.drop_pct + p.delay_pct + p.tamper_pct {
        MsgFate::Tamper(hop.msg ^ (h | 1))
    } else {
        MsgFate::Deliver
    }
}

fn tap(p: TapParams) -> impl FnMut(MsgHop<'_, u64>) -> MsgFate<u64> + Send + 'static {
    move |hop| pure_fate(p, &hop)
}

type Transcripts = RunResult<Vec<(u64, usize, bool, u64)>>;

/// Run the same tapped fleet under both executors (the pool twice, at one
/// and four workers).
fn run_all(n: usize, rounds: u64, seed: u64, p: TapParams) -> [Transcripts; 3] {
    let stepped = StepRunner::new(n, seed).with_tap(tap(p)).run(fleet(n, rounds));
    let narrow = ParRunner::new(n, seed).with_threads(1).with_tap(tap(p)).run(fleet(n, rounds));
    let wide = ParRunner::new(n, seed).with_threads(4).with_tap(tap(p)).run(fleet(n, rounds));
    [stepped, narrow, wide]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pure_taps_preserve_transcripts_across_executors(
        seed: u64,
        n in 3usize..6,
        rounds in 1u64..4,
        drop_pct in 0u64..40,
        delay_pct in 0u64..40,
        tamper_pct in 0u64..20,
        max_delay in 1u64..3,
    ) {
        let p = TapParams { seed, drop_pct, delay_pct, tamper_pct, max_delay };
        let [stepped, narrow, wide] = run_all(n, rounds, seed, p);
        prop_assert_eq!(&stepped.outputs, &narrow.outputs);
        prop_assert_eq!(&stepped.outputs, &wide.outputs);
        prop_assert_eq!(&stepped.report, &narrow.report);
        prop_assert_eq!(&stepped.report, &wide.report);
        prop_assert_eq!(&stepped.rounds, &narrow.rounds);
        prop_assert_eq!(&stepped.rounds, &wide.rounds);
    }
}

/// A fixed-seed spot check that the adversarial fates actually fire:
/// with every fate weighted on, the tapped transcript must differ from
/// an untapped run of the same fleet — equivalence above is not vacuous.
#[test]
fn tapped_transcript_differs_from_untapped() {
    let (n, rounds, seed) = (4, 3, 0xE0_11AB);
    let p = TapParams { seed, drop_pct: 25, delay_pct: 25, tamper_pct: 25, max_delay: 2 };
    let [stepped, narrow, wide] = run_all(n, rounds, seed, p);
    assert_eq!(stepped.outputs, narrow.outputs);
    assert_eq!(stepped.outputs, wide.outputs);
    let clean = StepRunner::new(n, seed).run(fleet(n, rounds));
    assert_ne!(clean.outputs, stepped.outputs, "the tap never fired");
}

/// Every party fans out a heap payload (one `send_to_all`, one
/// `broadcast`) in round 0, then listens for two more rounds. The output
/// is everything heard: `(round heard, from, broadcast, payload)`.
struct FanOut {
    heard: Heard,
}

type Heard = Vec<(u64, usize, bool, Vec<u64>)>;

impl RoundMachine<Vec<u64>> for FanOut {
    type Output = Heard;

    fn phase_name(&self) -> &'static str {
        "fan-out"
    }

    fn round(&mut self, view: RoundView<'_, Vec<u64>>) -> Step<Vec<u64>, Self::Output> {
        self.heard
            .extend(view.inbox.iter().map(|r| (view.round, r.from, r.broadcast, r.msg().clone())));
        let mut out = view.outbox();
        match view.round {
            0 => {
                out.send_to_all(vec![view.id as u64; 3]);
                out.broadcast(vec![view.id as u64 * 10; 3]);
            }
            1 | 2 => {}
            _ => return Step::Done(std::mem::take(&mut self.heard)),
        }
        Step::Continue(out)
    }
}

/// The copies of one fan-out share their payload, so a tap that tampers
/// with (or delays) one copy must not be able to touch the others: the
/// tampered recipient alone sees the replacement, the delayed copy
/// arrives late with the *original* payload, and every other copy of the
/// same envelope is delivered intact — identically under every executor.
#[test]
fn tampering_or_delaying_one_copy_leaves_the_rest_of_the_fan_out_intact() {
    let n = 5;
    let tap = || {
        |hop: MsgHop<'_, Vec<u64>>| match (hop.from, hop.to, hop.broadcast) {
            (2, 3, false) => MsgFate::Tamper(vec![666]),
            (2, 4, false) => MsgFate::Delay(1),
            (1, 5, true) => MsgFate::Tamper(vec![777]),
            _ => MsgFate::Deliver,
        }
    };
    let fleet = || -> Vec<BoxedMachine<Vec<u64>, Heard>> {
        (0..n).map(|_| Box::new(FanOut { heard: Vec::new() }) as _).collect()
    };
    let stepped = StepRunner::new(n, 3).with_tap(tap()).run(fleet());
    for threads in [1, 2, 8] {
        let par = ParRunner::new(n, 3).with_threads(threads).with_tap(tap()).run(fleet());
        assert_eq!(par.outputs, stepped.outputs, "threads = {threads}");
        assert_eq!(par.report, stepped.report, "threads = {threads}");
        assert_eq!(par.rounds, stepped.rounds, "threads = {threads}");
    }
    for (to, heard) in stepped.completed() {
        // Party 2's unicast fan-out, as this recipient saw it.
        let from_2: Vec<_> = heard.iter().filter(|h| h.1 == 2 && !h.2).collect();
        let expect = match to {
            3 => (1, vec![666]),
            4 => (2, vec![2; 3]),
            _ => (1, vec![2; 3]),
        };
        assert_eq!(from_2, [&(expect.0, 2, false, expect.1)], "recipient {to}");
        // Party 1's ideal broadcast: only recipient 5's copy was replaced.
        let bcast_1: Vec<_> = heard.iter().filter(|h| h.1 == 1 && h.2).collect();
        let expect = if to == 5 { vec![777] } else { vec![10; 3] };
        assert_eq!(bcast_1, [&(1, 1, true, expect)], "recipient {to}");
        // Nothing else moved: 5 senders x 2 envelopes each.
        assert_eq!(heard.len(), 10, "recipient {to}");
    }
}
