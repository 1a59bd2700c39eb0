//! Bit-reproducibility of the end-to-end coin-generation pipeline.
//!
//! The paper's claims are error probabilities and operation counts; both
//! are only auditable if a run can be replayed exactly. With the in-tree
//! ChaCha12 [`StdRng`](dprbg_rng::rngs::StdRng) every source of
//! randomness in the stack — dealing, per-party executor streams,
//! protocol coin draws — is a pure function of the seed, so two runs from
//! the same seed must produce **byte-identical coin transcripts** and
//! **identical cost counters**. These tests pin that contract for three
//! seeds (and check distinct seeds actually diverge). The last test pins
//! the coins a fixed-seed beacon serves under faults to a literal.

use dprbg::beacon::{BeaconConfig, BeaconService, DrawOutcome, ExecutorKind, ReservoirConfig};
use dprbg::core::{
    expose_all, CoinGenConfig, CoinGenMachine, CoinGenMsg, CoinWallet, Params, RetryPolicy,
    TrustedDealer,
};
use dprbg::field::{Field, Gf2k};
use dprbg::metrics::CostReport;
use dprbg::sim::{BoxedMachine, EpochFault, MachineExt, SoakPlan, StepRunner};

type F = Gf2k<32>;
type M = CoinGenMsg<F>;

const N: usize = 7;
const T: usize = 1;
const BATCH: usize = 8;

/// One party's observable outcome of the E2E run.
type PartyTranscript = (Vec<usize>, usize, Vec<F>);

/// Run dealing → Coin-Gen → expose-every-coin and serialize what each
/// party observed, plus the run's aggregated cost report.
fn coin_pipeline(seed: u64) -> (Vec<u8>, CostReport) {
    let params = Params::p2p_model(N, T).unwrap();
    let cfg = CoinGenConfig { params, batch_size: BATCH };
    let mut wallets: Vec<CoinWallet<F>> =
        TrustedDealer::deal_wallets::<F>(params, 4 + T, seed ^ 0xA11CE);
    let machines: Vec<BoxedMachine<M, PartyTranscript>> = (1..=N)
        .map(|_| {
            let machine = CoinGenMachine::new(cfg, wallets.remove(0)).then(move |(_w, res)| {
                let batch = res.expect("coin generation succeeds");
                let dealers = batch.dealers.clone();
                let attempts = batch.attempts;
                expose_all(T, batch.shares)
                    .map(move |values| (dealers, attempts, values.expect("expose succeeds")))
            });
            Box::new(machine) as BoxedMachine<M, PartyTranscript>
        })
        .collect();
    let res = StepRunner::new(N, seed).run(machines);
    let report = res.report.clone();

    // Canonical transcript bytes: per party, the dealer set, the attempt
    // count, and every exposed coin in its wire encoding.
    let mut bytes = Vec::new();
    for (dealers, attempts, values) in res.unwrap_all() {
        bytes.push(dealers.len() as u8);
        bytes.extend(dealers.iter().map(|&d| d as u8));
        bytes.extend((attempts as u32).to_le_bytes());
        for v in &values {
            bytes.extend(&v.to_u64().to_le_bytes()[..F::wire_bytes_static()]);
        }
    }
    (bytes, report)
}

#[test]
fn same_seed_gives_identical_transcripts_and_costs() {
    for seed in [1u64, 42, 1996] {
        let (bytes_a, report_a) = coin_pipeline(seed);
        let (bytes_b, report_b) = coin_pipeline(seed);
        assert_eq!(bytes_a, bytes_b, "transcript diverged for seed {seed}");
        assert_eq!(report_a, report_b, "cost counters diverged for seed {seed}");
        assert!(!bytes_a.is_empty(), "pipeline produced an empty transcript");
    }
}

#[test]
fn different_seeds_give_different_transcripts() {
    let (a, _) = coin_pipeline(1);
    let (b, _) = coin_pipeline(2);
    assert_ne!(a, b, "independent seeds must not collide on full transcripts");
}

#[test]
fn transcript_has_all_parties_and_coins() {
    // Shape check so the byte-equality above cannot pass vacuously: the
    // transcript must contain N party sections of BATCH exposed coins.
    let (_, report) = coin_pipeline(7);
    assert_eq!(report.per_party.len(), N);
    let (bytes, _) = coin_pipeline(7);
    // Each party contributes ≥ 1 (dealer count) + 4 (attempts) +
    // BATCH·wire bytes.
    let min_len = N * (1 + 4 + BATCH * F::wire_bytes_static());
    assert!(
        bytes.len() >= min_len,
        "transcript too short: {} < {min_len}",
        bytes.len()
    );
}

/// Every coin a fixed-seed beacon serves over 200 epochs of E15's soak
/// (n = 7, t = 1, M = 8; a crash restored from the boundary snapshot, a
/// stampede or an in-model adversary every 7th epoch), folded with its
/// epoch and consumer. Beacon digests embed field-op totals and move
/// whenever a decode gets cheaper; this literal moves only if a served
/// coin does. Captured before the serve plane shared one decode basis
/// across its slots, and before each party sent all its serve shares in
/// one envelope; neither change moved it. (The soak's random-chaos
/// adversary now meets one fate per envelope where it met one per
/// share, so its decoders see other sender sets; the coins are the
/// same.)
#[test]
fn beacon_soak_serves_the_pinned_coins() {
    let cfg = BeaconConfig {
        coin_gen: CoinGenConfig { params: Params::p2p_model(N, T).unwrap(), batch_size: BATCH },
        reservoir: ReservoirConfig { capacity: 16, low_water: 4 },
        wallet_low_water: 6,
        retry: RetryPolicy { max_attempts: 3, seed_budget: 12 },
        max_backoff_exp: 3,
        max_rounds_per_epoch: 4096,
    };
    let (seed, epochs) = (0xC014_5EED, 200);
    let plan = SoakPlan::composite(seed, epochs, 7);
    let mut svc = BeaconService::<F>::new(cfg, seed, 12);
    let (mut coins, mut digest) = (0u64, 0u64);
    for e in 0..epochs {
        let boundary = svc.snapshot();
        let fault = plan.fault_at(e);
        if let Some(EpochFault::Crash { down_epochs }) = fault {
            svc = BeaconService::restore(cfg, &boundary).expect("own snapshot restores");
            svc.note_recovery(down_epochs);
        }
        let mut demands = vec![(1, 1), (2, 1 + (e % 2) as u32)];
        let mut adversary = None;
        match fault {
            Some(EpochFault::Stampede { demand }) => demands.push((9, demand)),
            Some(EpochFault::Adversary { attack, f }) => adversary = Some((attack, f)),
            _ => {}
        }
        let report = svc.run_epoch(ExecutorKind::Step, &demands, adversary).expect("in-model");
        for (consumer, draw) in &report.draws {
            if let DrawOutcome::Coin(c) = draw {
                coins += 1;
                let at = dprbg_rng::splitmix64(e ^ (u64::from(*consumer) << 32));
                digest = dprbg_rng::splitmix64(digest ^ at ^ c.to_u64());
            }
        }
    }
    assert_eq!((coins, digest), (552, 0x5A91_DE10_0387_6CB1), "served coins moved");
}
