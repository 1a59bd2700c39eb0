//! Cross-executor equivalence of the sans-IO round engine.
//!
//! The same `RoundMachine` fleet must behave identically under the
//! deterministic single-threaded [`StepRunner`] and the work-stealing
//! `ParRunner`: byte-identical transcripts, identical [`CostReport`]s,
//! identical per-round delivery profiles, identical logical traces.
//! Large-n smoke tests then exercise the scale the executors exist
//! for: full Coin-Gen at n = 61, t = 10, and a traced run at n = 31
//! whose Chrome exports must match too. Committee-sampled Coin-Gen (up
//! to E14's committee of 31 in 129) gets the same parity treatment,
//! the ported baseline protocols run on the step executor, and the
//! committee election itself is pinned as deterministic and unbiased.

use std::collections::VecDeque;

use dprbg::core::{
    committee_threshold, elect_committee, CoinGenConfig, CoinGenMachine, CoinGenMsg,
    CoinWallet, CommitteeCoin, CommitteeError, CommitteeMsg, ExposeMachine, ExposeVia, Params,
    SealedShare, TrustedDealer,
};
use dprbg::field::{Field, Gf2k};
use dprbg::metrics::CostReport;
use dprbg::sim::{
    BoxedMachine, ParRunner, RoundMachine, RoundProfile, RoundView, RunResult, Step, StepRunner,
    TraceConfig,
};
use dprbg::trace::{chrome_events, to_chrome_json, validate_chrome_events};

type F = Gf2k<32>;
type M = CoinGenMsg<F>;

const N: usize = 7;
const T: usize = 1;
const BATCH: usize = 8;

/// One party's observable outcome: agreed dealers, leader-election
/// attempts, and every coin in the batch exposed to a value.
type Transcript<G> = (Vec<usize>, usize, Vec<G>);
type PartyTranscript = Transcript<F>;

/// Coin-Gen followed by Coin-Expose of every sealed coin, as a single
/// composed round machine.
struct PartyMachine<G: Field> {
    t: usize,
    stage: Stage<G>,
}

enum Stage<G: Field> {
    Coin(CoinGenMachine<CoinGenMsg<G>, G>),
    Expose {
        expose: ExposeMachine<CoinGenMsg<G>, G>,
        queue: VecDeque<SealedShare<G>>,
        dealers: Vec<usize>,
        attempts: usize,
        values: Vec<G>,
    },
    Finished,
}

impl<G: Field> PartyMachine<G> {
    fn new(cfg: CoinGenConfig, wallet: CoinWallet<G>) -> Self {
        PartyMachine {
            t: cfg.params.t,
            stage: Stage::Coin(CoinGenMachine::new(cfg, wallet)),
        }
    }
}

impl<G: Field> RoundMachine<CoinGenMsg<G>> for PartyMachine<G> {
    type Output = Transcript<G>;

    fn round(&mut self, mut view: RoundView<'_, CoinGenMsg<G>>) -> Step<CoinGenMsg<G>, Self::Output> {
        match std::mem::replace(&mut self.stage, Stage::Finished) {
            Stage::Coin(mut cg) => match cg.round(view.reborrow()) {
                Step::Continue(out) => {
                    self.stage = Stage::Coin(cg);
                    Step::Continue(out)
                }
                Step::Done((_, res)) => {
                    let batch = res.expect("coin generation succeeds");
                    let mut queue: VecDeque<SealedShare<G>> = batch.shares.into_iter().collect();
                    let first = queue.pop_front().expect("batch is non-empty");
                    let mut expose = ExposeMachine::new(first, self.t, ExposeVia::PointToPoint);
                    let Step::Continue(out) = expose.round(view.reborrow()) else {
                        unreachable!("coin expose sends before it can decode");
                    };
                    self.stage = Stage::Expose {
                        expose,
                        queue,
                        dealers: batch.dealers,
                        attempts: batch.attempts,
                        values: Vec::new(),
                    };
                    Step::Continue(out)
                }
            },
            Stage::Expose { mut expose, mut queue, dealers, attempts, mut values } => {
                match expose.round(view.reborrow()) {
                    Step::Continue(out) => {
                        self.stage = Stage::Expose { expose, queue, dealers, attempts, values };
                        Step::Continue(out)
                    }
                    Step::Done(res) => {
                        values.push(res.expect("expose succeeds"));
                        match queue.pop_front() {
                            Some(share) => {
                                let mut next =
                                    ExposeMachine::new(share, self.t, ExposeVia::PointToPoint);
                                let Step::Continue(out) = next.round(view.reborrow()) else {
                                    unreachable!("coin expose sends before it can decode");
                                };
                                self.stage =
                                    Stage::Expose { expose: next, queue, dealers, attempts, values };
                                Step::Continue(out)
                            }
                            None => Step::Done((dealers, attempts, values)),
                        }
                    }
                }
            }
            Stage::Finished => panic!("PartyMachine driven past completion"),
        }
    }

    fn phase_name(&self) -> &'static str {
        match &self.stage {
            Stage::Coin(cg) => cg.phase_name(),
            Stage::Expose { expose, .. } => expose.phase_name(),
            Stage::Finished => "finished",
        }
    }
}

/// A Coin-Gen-then-expose fleet at `(n, t)` with batch `m`, each wallet
/// holding `coins` sealed coins dealt from `wallet_seed`.
fn coin_fleet<G: Field>(
    n: usize,
    t: usize,
    m: usize,
    coins: usize,
    wallet_seed: u64,
) -> Vec<BoxedMachine<CoinGenMsg<G>, Transcript<G>>> {
    let params = Params::p2p_model(n, t).unwrap();
    let cfg = CoinGenConfig { params, batch_size: m };
    let mut wallets: Vec<CoinWallet<G>> = TrustedDealer::deal_wallets(params, coins, wallet_seed);
    (1..=n).map(|_| Box::new(PartyMachine::new(cfg, wallets.remove(0))) as _).collect()
}

fn machine_fleet(seed: u64) -> Vec<BoxedMachine<M, PartyTranscript>> {
    coin_fleet(N, T, BATCH, 4 + T, seed ^ 0xA11CE)
}

/// Canonical transcript bytes, same encoding as `tests/determinism.rs`.
fn transcript_bytes(outputs: Vec<PartyTranscript>) -> Vec<u8> {
    let mut bytes = Vec::new();
    for (dealers, attempts, values) in outputs {
        bytes.push(dealers.len() as u8);
        bytes.extend(dealers.iter().map(|&d| d as u8));
        bytes.extend((attempts as u32).to_le_bytes());
        for v in &values {
            bytes.extend(&v.to_u64().to_le_bytes()[..F::wire_bytes_static()]);
        }
    }
    bytes
}

fn summarize(res: RunResult<PartyTranscript>) -> (Vec<u8>, CostReport, Vec<RoundProfile>) {
    let report = res.report.clone();
    let rounds = res.rounds.clone();
    (transcript_bytes(res.unwrap_all()), report, rounds)
}

#[test]
fn executors_agree_on_full_coin_gen() {
    for seed in [3u64, 42, 1996] {
        let stepped = summarize(StepRunner::new(N, seed).run(machine_fleet(seed)));
        let parallel = summarize(ParRunner::new(N, seed).run(machine_fleet(seed)));
        assert!(!stepped.0.is_empty(), "pipeline produced an empty transcript");
        assert_eq!(stepped.0, parallel.0, "ParRunner transcript diverged for seed {seed}");
        assert_eq!(stepped.1, parallel.1, "ParRunner cost report diverged for seed {seed}");
        assert_eq!(stepped.2, parallel.2, "ParRunner round profile diverged for seed {seed}");
    }
}

#[test]
fn par_runner_is_thread_count_invariant_on_full_coin_gen() {
    // The pool width is pure mechanism: 1, 2, or 8 workers must yield the
    // same bytes the single-threaded executor produces.
    let seed = 42u64;
    let stepped = summarize(StepRunner::new(N, seed).run(machine_fleet(seed)));
    for threads in [1usize, 2, 8] {
        let parallel =
            summarize(ParRunner::new(N, seed).with_threads(threads).run(machine_fleet(seed)));
        assert_eq!(stepped, parallel, "{threads}-thread pool diverged from StepRunner");
    }
}

#[test]
fn step_runner_runs_coin_gen_at_n61() {
    // The scale target the single-threaded executor exists for (ROADMAP
    // "Scenario breadth"): full Coin-Gen plus expose-every-coin at
    // n = 61, t = 10, on one thread. GF(2^8) is the smallest field that
    // still holds 61 distinct evaluation points. The n² Bit-Gen decodes
    // are error-free words, which never reach the Berlekamp–Welch linear
    // solve, and grade-cast forwards one handle per instance instead of
    // cloning and comparing n² announcements per party, so the two n = 61
    // runs of this test take ≈ 3 s in a debug build (≈ 6 s while it
    // cloned, ≈ 50 s while the decodes ran the solve).
    type G = Gf2k<8>;
    const BIG_N: usize = 61;
    const BIG_T: usize = 10;
    let res = StepRunner::new(BIG_N, 1996).run(coin_fleet::<G>(BIG_N, BIG_T, 2, 4, 61));

    // The work-stealing pool must reproduce the n = 61 run byte for byte —
    // this is the scale it exists for.
    let par = ParRunner::new(BIG_N, 1996).run(coin_fleet::<G>(BIG_N, BIG_T, 2, 4, 61));
    assert_eq!(res.report, par.report, "ParRunner cost report diverged at n = 61");
    assert_eq!(res.rounds, par.rounds, "ParRunner round profile diverged at n = 61");
    assert_eq!(res.outputs, par.outputs, "ParRunner outputs diverged at n = 61");

    let rounds = res.report.comm.rounds;
    let outputs = res.unwrap_all();
    assert_eq!(outputs.len(), BIG_N);
    let (dealers, attempts, values) = outputs[0].clone();
    assert!(dealers.len() >= BIG_N - 2 * BIG_T, "agreed clique too small");
    assert!(attempts >= 1);
    assert_eq!(values.len(), 2, "every coin in the batch must expose");
    for (id, out) in outputs.iter().enumerate() {
        assert_eq!(
            out,
            &(dealers.clone(), attempts, values.clone()),
            "party {} disagrees with party 1",
            id + 1
        );
    }
    // One thread, n parties: the whole run is just a round count.
    assert!(rounds > 0);
}

#[test]
fn e13_executors_are_byte_identical_at_beacon_scale() {
    // Beacon scale, traced: full Coin-Gen plus expose at n = 31, t = 5
    // over GF(2^8) under both executors. Outputs, cost reports, round
    // profiles, logical traces and their Chrome exports must be
    // byte-identical, and the export's spans must balance.
    type G = Gf2k<8>;
    let (n, t, seed) = (31, 5, 7);
    let fleet = || coin_fleet::<G>(n, t, 2, 4 + t, seed ^ 0xE13);
    let stepped = StepRunner::new(n, seed).with_trace(TraceConfig::full()).run(fleet());
    let parallel = ParRunner::new(n, seed).with_trace(TraceConfig::full()).run(fleet());
    assert_eq!(stepped.outputs, parallel.outputs, "ParRunner outputs diverged at n = {n}");
    assert_eq!(stepped.report, parallel.report, "ParRunner cost report diverged at n = {n}");
    assert_eq!(stepped.rounds, parallel.rounds, "ParRunner round profile diverged at n = {n}");
    let step_trace = stepped.trace.expect("traced step run records a trace");
    let par_trace = parallel.trace.expect("traced parallel run records a trace");
    assert_eq!(step_trace, par_trace, "ParRunner trace diverged from StepRunner");
    assert_eq!(to_chrome_json(&step_trace), to_chrome_json(&par_trace));
    validate_chrome_events(&chrome_events(&par_trace)).expect("chrome spans balance");
}

#[test]
fn executors_record_identical_logical_traces() {
    // A fixed-seed Coin-Gen run traced under both executors must produce
    // byte-identical logical traces — same spans, same phase names, same
    // per-(party, round, phase) cost deltas, same flush stats.
    let cfg = TraceConfig::full();
    for seed in [42u64, 1996] {
        let stepped = StepRunner::new(N, seed).with_trace(cfg).run(machine_fleet(seed));
        let parallel = ParRunner::new(N, seed).with_trace(cfg).run(machine_fleet(seed));
        let b = stepped.trace.clone().expect("traced step run records a trace");
        let c = parallel.trace.clone().expect("traced parallel run records a trace");
        assert!(!b.events.is_empty(), "trace captured no events for seed {seed}");
        assert_eq!(b, c, "ParRunner trace diverged from StepRunner for seed {seed}");

        // Byte-identical through the Chrome exporter too, with balanced
        // spans per party.
        let jb = to_chrome_json(&b);
        let jc = to_chrome_json(&c);
        assert_eq!(jb, jc, "ParRunner chrome export diverged for seed {seed}");
        validate_chrome_events(&chrome_events(&b)).expect("chrome events validate");

        // Trace cost attribution must reconcile exactly with the run's
        // CostReport ledger: span deltas sum to each party's total.
        for res in [&stepped, &parallel] {
            let trace = res.trace.as_ref().unwrap();
            let per = trace.per_party_cost(N);
            assert_eq!(per.len(), res.report.per_party.len());
            for (traced, ledger) in per.iter().zip(res.report.per_party.iter()) {
                assert_eq!(
                    traced, &ledger.cost,
                    "trace cost for party {} disagrees with CostReport (seed {seed})",
                    ledger.party
                );
            }
        }

        // Tracing must not perturb the run itself.
        let untraced = summarize(StepRunner::new(N, seed).run(machine_fleet(seed)));
        let traced = summarize(stepped);
        assert_eq!(untraced.0, traced.0, "tracing changed the transcript");
        assert_eq!(untraced.1, traced.1, "tracing changed the cost report");
    }
}

/// A full committee-sampled Coin-Gen fleet: members with rank-dealt
/// wallets, outsiders collecting member reports.
fn committee_fleet(
    n: usize,
    c: usize,
    m: usize,
    election_seed: u64,
    wallet_seed: u64,
) -> Vec<BoxedMachine<CommitteeMsg<F>, Result<Vec<F>, CommitteeError>>> {
    let committee = elect_committee(election_seed, n, c);
    let t_c = committee_threshold(c);
    let params = Params::p2p_model(c, t_c).expect("c > 6 t_c by construction");
    let cfg = CoinGenConfig { params, batch_size: m };
    let mut wallets: Vec<CoinWallet<F>> =
        TrustedDealer::deal_wallets::<F>(params, 4 + t_c, wallet_seed);
    (1..=n)
        .map(|id| {
            let wallet = committee
                .iter()
                .position(|&member| member == id)
                .map(|rank| std::mem::take(&mut wallets[rank]));
            Box::new(CommitteeCoin::new(committee.clone(), id, cfg, wallet, 200))
                as BoxedMachine<CommitteeMsg<F>, _>
        })
        .collect()
}

#[test]
fn committee_coin_gen_agrees_across_executors() {
    // Committees of 13 inside 31 parties, and E14's committee of 31
    // inside 129: the stepped and the parallel executor must agree on
    // every party's delivered batch and on the cost ledger, and the
    // quorum must actually deliver.
    let m = 4;
    for (n, c, seed) in [(31, 13, 5u64), (31, 13, 77), (129, 31, 0xE14)] {
        let stepped = StepRunner::new(n, seed).run(committee_fleet(n, c, m, seed, seed + 1));
        let parallel =
            ParRunner::new(n, seed).with_threads(4).run(committee_fleet(n, c, m, seed, seed + 1));
        assert_eq!(stepped.outputs, parallel.outputs, "outputs diverged for seed {seed}");
        assert_eq!(stepped.report, parallel.report, "cost reports diverged for seed {seed}");

        let first = stepped.outputs[0]
            .as_ref()
            .expect("party 1 completes")
            .as_ref()
            .expect("committee reaches quorum")
            .clone();
        assert_eq!(first.len(), m);
        for (i, out) in stepped.outputs.iter().enumerate() {
            let batch = out.as_ref().unwrap().as_ref().unwrap();
            assert_eq!(batch, &first, "party {} disagrees with party 1", i + 1);
        }
    }
}

#[test]
fn ported_baseline_fleets_run_on_the_step_runner() {
    use dprbg::baselines::feldman::{Exp, FeldmanVerdict};
    use dprbg::baselines::{
        from_scratch_coin, CcdMachine, CcdMsg, CcdOpts, FeldmanMachine, FeldmanMsg, FromScratchMsg,
    };
    use dprbg::core::VssVerdict;

    let n = 7;
    let t = 1;

    // CCD cut-and-choose VSS: honest dealer, everyone accepts.
    let opts = CcdOpts { rounds: 16, challenge_seed: 9 };
    let machines: Vec<BoxedMachine<CcdMsg<F>, (VssVerdict, F)>> = (1..=n)
        .map(|id| {
            let secret = (id == 1).then(|| F::from_u64(7));
            Box::new(CcdMachine::new(1, secret, t, opts)) as BoxedMachine<CcdMsg<F>, _>
        })
        .collect();
    let outs = StepRunner::new(n, 9).run(machines).unwrap_all();
    assert!(outs.iter().all(|(v, _)| *v == VssVerdict::Accept), "CCD fleet rejects");

    // Feldman VSS in the exponent: honest dealer, everyone accepts.
    let machines: Vec<BoxedMachine<FeldmanMsg, (FeldmanVerdict, Exp)>> = (1..=n)
        .map(|id| {
            let secret = (id == 1).then(|| Exp::from_u64(13));
            Box::new(FeldmanMachine::new(1, secret, t)) as BoxedMachine<FeldmanMsg, _>
        })
        .collect();
    let outs = StepRunner::new(n, 10).run(machines).unwrap_all();
    assert!(outs.iter().all(|(v, _)| *v == FeldmanVerdict::Accept), "Feldman fleet rejects");

    // From-scratch single coin: unanimous non-None value.
    let machines: Vec<BoxedMachine<FromScratchMsg<F>, Option<F>>> = (1..=n)
        .map(|id| {
            Box::new(from_scratch_coin::<F>(id, t, 16, 11)) as BoxedMachine<FromScratchMsg<F>, _>
        })
        .collect();
    let outs = StepRunner::new(n, 11).run(machines).unwrap_all();
    let coin = outs[0].expect("from-scratch coin decodes");
    assert!(outs.iter().all(|o| *o == Some(coin)), "from-scratch coin not unanimous");
}

#[test]
fn committee_election_is_deterministic_and_well_formed() {
    for seed in 0..50u64 {
        let a = elect_committee(seed, 129, 31);
        let b = elect_committee(seed, 129, 31);
        assert_eq!(a, b, "same seed must elect the same committee");
        assert_eq!(a.len(), 31);
        // Sorted, distinct, in range.
        assert!(a.windows(2).all(|w| w[0] < w[1]), "committee not sorted/distinct");
        assert!(a.iter().all(|&p| (1..=129).contains(&p)), "member out of range");
    }
    assert_ne!(
        elect_committee(1, 129, 31),
        elect_committee(2, 129, 31),
        "different beacon outputs should (overwhelmingly) elect different committees"
    );
}

#[test]
fn committee_election_shows_no_positional_bias() {
    // Every party should be sampled with frequency ≈ c/n across seeds.
    // 400 elections of 5-of-20 → expected 100 inclusions per party;
    // a ±40 window is > 4.5 binomial standard deviations.
    let (n, c, trials) = (20usize, 5usize, 400u64);
    let mut counts = vec![0usize; n + 1];
    for seed in 0..trials {
        for p in elect_committee(0xB1A5 + seed, n, c) {
            counts[p] += 1;
        }
    }
    let expected = trials as usize * c / n;
    for p in 1..=n {
        assert!(
            (counts[p] as i64 - expected as i64).unsigned_abs() as usize <= 40,
            "party {p} elected {} times, expected ≈ {expected}",
            counts[p]
        );
    }
}
