//! The beacon's versioned binary snapshot format.
//!
//! A snapshot is the *complete* cross-epoch state of a
//! [`BeaconService`](crate::BeaconService): wallets, reservoir,
//! supervisor, statistics, trace cursor, the cumulative cost ledger,
//! and (since v2) the health plane — the metric registry and the
//! flight recorder's ring of per-epoch records.
//! Restoring one continues byte-identically to an uninterrupted run —
//! the crash-recovery contract the kill/restore property tests enforce.
//!
//! The format is deliberately dependency-free: explicit little-endian
//! field writes behind a magic string, a format version, and a trailing
//! checksum, on the workspace's one binary codec
//! ([`dprbg_metrics::bin`], which also writes the embedded registry).
//! Decoding is total — every malformed input maps to a
//! [`SnapshotError`], never a panic — because restore-time input is
//! exactly the kind of data a crashed process leaves half-written. Each
//! count is checked against the remaining bytes before anything is sized
//! by it, so restoring allocates in proportion to the input.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! "DPRBGSNP" | version u16 | field_bits u32 | n u32
//! master_seed u64 | epoch u64
//! wallets:   per party: len u32, then per share: tag u8 (0 = absent,
//!            1 = present) + value u64
//! reservoir: coin count u32 + values u64…, cursor u32,
//!            grants count u32 + (consumer u32, granted u64)…
//! supervisor: mode tag u8 (+ until_epoch u64 for backoff),
//!            failures u32, max_exp u32,
//!            blamed count u32 + party u32…
//! stats:     13 × u64
//! trace:     rounds u64, events u64, digest u64
//! ledger:    per party: 8 × u64 (CostSnapshot), then comm 3 × u64
//! registry:  blob len u32 + the canonical `Registry::to_bytes` blob
//! recorder:  record count u32, then per record: epoch u64,
//!            outcome tag u8, mode tag u8 (+ until_epoch u64 for
//!            backoff), rounds u64, 8 × u32 (exposed, served,
//!            would_block, starved, wallet_level, reservoir_level,
//!            failures, backoff_exp), refill tag u8, attempts u32;
//!            then lifetime total u64 (≥ record count)
//! checksum   u64 (SplitMix-folded over everything above)
//! ```

use dprbg_core::{CoinWallet, SealedShare};
use dprbg_field::Field;
use dprbg_metrics::bin::{DecodeError, Reader, Writer};
use dprbg_metrics::{CommStats, CostReport, CostSnapshot, PartyCost, Registry};
use dprbg_rng::splitmix64;

use crate::health::{self, EpochOutcomeTag, FlightRecorder, HealthRecord, RefillStatus};
use crate::reservoir::{Reservoir, ReservoirConfig};
use crate::service::{BeaconConfig, BeaconService, BeaconStats, FLIGHT_RECORDER_EPOCHS};
use crate::supervisor::{Mode, Supervisor};

/// Magic prefix of every beacon snapshot.
const MAGIC: &[u8; 8] = b"DPRBGSNP";

/// Current format version. `tests/golden/snapshot_v2.bin` pins the
/// layout byte for byte: changing it without bumping this constant (and
/// committing a golden image for the new version) fails
/// `tests/kill_restore.rs`.
pub(crate) const SNAPSHOT_VERSION: u16 = 2;

/// Why a snapshot failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotError {
    /// The bytes do not start with the snapshot magic.
    BadMagic,
    /// The format version is newer than this build understands.
    UnsupportedVersion {
        /// The version the snapshot claims.
        got: u16,
    },
    /// The byte stream ended before the structure did.
    Truncated,
    /// The trailing checksum does not match the content.
    ChecksumMismatch,
    /// A well-formed field holds a value this build cannot represent
    /// (e.g. an unknown mode tag).
    Malformed {
        /// Which structure was malformed.
        field: &'static str,
    },
    /// The snapshot's embedded parameters disagree with the restoring
    /// service's configuration.
    ParamMismatch {
        /// Which parameter disagreed.
        field: &'static str,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a beacon snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion { got } => {
                write!(f, "unsupported snapshot version {got} (this build reads {SNAPSHOT_VERSION})")
            }
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            SnapshotError::Malformed { field } => write!(f, "malformed snapshot field: {field}"),
            SnapshotError::ParamMismatch { field } => {
                write!(f, "snapshot parameter mismatch: {field}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<DecodeError> for SnapshotError {
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::Truncated => SnapshotError::Truncated,
            DecodeError::Malformed(field) => SnapshotError::Malformed { field },
        }
    }
}

/// SplitMix-fold a byte stream into the trailing checksum. Not
/// cryptographic — it catches truncation, bit rot, and half-written
/// files, which is the crash-recovery threat model; tampering resistance
/// is out of scope for a local state file.
fn checksum(bytes: &[u8]) -> u64 {
    let mut h = 0x5EED_BEAC_0000_0001u64;
    for chunk in bytes.chunks(8) {
        let mut w = [0u8; 8];
        w[..chunk.len()].copy_from_slice(chunk);
        h = splitmix64(h ^ u64::from_le_bytes(w) ^ chunk.len() as u64);
    }
    h
}

/// Check magic, checksum and version; the reader continues after the
/// version and stops before the checksum.
fn open(bytes: &[u8]) -> Result<Reader<'_>, SnapshotError> {
    if bytes.len() < MAGIC.len() + 8 {
        return Err(if bytes.starts_with(&MAGIC[..bytes.len().min(8)]) {
            SnapshotError::Truncated
        } else {
            SnapshotError::BadMagic
        });
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let mut r = Reader::new(body);
    if r.bytes(MAGIC.len())? != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    if checksum(body) != Reader::new(tail).u64()? {
        return Err(SnapshotError::ChecksumMismatch);
    }
    let version = r.u16()?;
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::UnsupportedVersion { got: version });
    }
    Ok(r)
}

impl<F: Field> BeaconService<F> {
    /// Serialize the entire cross-epoch state into the versioned binary
    /// snapshot format (layout: the `snapshot` module docs).
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.bytes(MAGIC);
        w.u16(SNAPSHOT_VERSION);
        w.u32(F::bits());
        w.len(self.cfg.coin_gen.params.n);
        w.u64(self.master_seed);
        w.u64(self.epoch);
        for wallet in &self.wallets {
            put_wallet(&mut w, wallet);
        }
        put_reservoir(&mut w, &self.reservoir);
        put_supervisor(&mut w, &self.supervisor);
        for v in stats_fields(&mut { self.stats }) {
            w.u64(*v);
        }
        w.u64(self.trace_rounds);
        w.u64(self.trace_events);
        w.u64(self.trace_digest);
        put_ledger(&mut w, &self.ledger);
        let registry = self.registry.to_bytes();
        w.len(registry.len());
        w.bytes(&registry);
        put_recorder(&mut w, &self.recorder);
        let sum = checksum(w.as_bytes());
        w.u64(sum);
        w.into_bytes()
    }

    /// Rebuild a service from `cfg` and snapshot `bytes`, continuing
    /// byte-identically to the service that took the snapshot.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`]: corrupt/truncated/foreign bytes, or a
    /// snapshot whose embedded parameters (`n`, field width) disagree
    /// with `cfg`.
    pub fn restore(cfg: BeaconConfig, bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = open(bytes)?;
        let field_bits = r.u32()?;
        // Each party owns at least a wallet length and a ledger entry.
        let n = r.len(4 + 8 * 8)?;
        if n == 0 {
            return Err(SnapshotError::Malformed { field: "party count n" });
        }
        if n != cfg.coin_gen.params.n {
            return Err(SnapshotError::ParamMismatch { field: "party count n" });
        }
        if field_bits != F::bits() {
            return Err(SnapshotError::ParamMismatch { field: "field width k" });
        }
        // A struct expression evaluates its fields in the order written:
        // these are in layout order.
        let svc = BeaconService {
            master_seed: r.u64()?,
            epoch: r.u64()?,
            wallets: (0..n).map(|_| get_wallet(&mut r)).collect::<Result<_, _>>()?,
            reservoir: get_reservoir(&mut r, cfg.reservoir)?,
            supervisor: get_supervisor(&mut r)?,
            stats: {
                let mut stats = BeaconStats::default();
                for v in stats_fields(&mut stats) {
                    *v = r.u64()?;
                }
                stats
            },
            trace_rounds: r.u64()?,
            trace_events: r.u64()?,
            trace_digest: r.u64()?,
            ledger: get_ledger(&mut r, n)?,
            registry: {
                let len = r.len(1)?;
                Registry::from_bytes(r.bytes(len)?)
                    .ok()
                    .filter(health::kinds_match)
                    .ok_or(SnapshotError::Malformed { field: "health registry" })?
            },
            recorder: get_recorder(&mut r)?,
            cfg,
        };
        r.finish()?;
        Ok(svc)
    }
}

fn put_wallet<F: Field>(w: &mut Writer, wallet: &CoinWallet<F>) {
    w.len(wallet.len());
    for sigma in (0..wallet.len()).map(|i| wallet.peek_at(i).and_then(|s| s.sigma)) {
        w.u8(u8::from(sigma.is_some()));
        w.u64(sigma.map_or(0, |v| v.to_u64()));
    }
}

fn get_wallet<F: Field>(r: &mut Reader<'_>) -> Result<CoinWallet<F>, SnapshotError> {
    // Sized once by the checked count: collecting through `Result` would
    // drop the size hint and regrow the buffer share by share.
    let n = r.len(1 + 8)?;
    let mut shares = Vec::with_capacity(n);
    for _ in 0..n {
        shares.push(match (r.u8()?, r.u64()?) {
            (0, _) => SealedShare { sigma: None },
            (1, raw) => SealedShare::of(F::from_u64(raw)),
            _ => return Err(SnapshotError::Malformed { field: "share tag" }),
        });
    }
    Ok(shares.into_iter().collect())
}

fn put_reservoir<F: Field>(w: &mut Writer, res: &Reservoir<F>) {
    w.len(res.coins.len());
    for c in &res.coins {
        w.u64(c.to_u64());
    }
    w.u32(res.cursor);
    w.len(res.grants.len());
    for (&consumer, &granted) in &res.grants {
        w.u32(consumer);
        w.u64(granted);
    }
}

fn get_reservoir<F: Field>(
    r: &mut Reader<'_>,
    cfg: ReservoirConfig,
) -> Result<Reservoir<F>, DecodeError> {
    let mut res = Reservoir::new(cfg);
    for _ in 0..r.len(8)? {
        res.coins.push_back(F::from_u64(r.u64()?));
    }
    res.cursor = r.u32()?;
    for _ in 0..r.len(4 + 8)? {
        res.grants.insert(r.u32()?, r.u64()?);
    }
    Ok(res)
}

fn put_mode(w: &mut Writer, mode: Mode) {
    match mode {
        Mode::Active => w.u8(0),
        Mode::Backoff { until_epoch } => {
            w.u8(1);
            w.u64(until_epoch);
        }
        Mode::ReadOnly => w.u8(2),
    }
}

fn get_mode(r: &mut Reader<'_>, field: &'static str) -> Result<Mode, SnapshotError> {
    match r.u8()? {
        0 => Ok(Mode::Active),
        1 => Ok(Mode::Backoff { until_epoch: r.u64()? }),
        2 => Ok(Mode::ReadOnly),
        _ => Err(SnapshotError::Malformed { field }),
    }
}

fn put_supervisor(w: &mut Writer, s: &Supervisor) {
    put_mode(w, s.mode);
    w.u32(s.failures);
    w.u32(s.max_exp());
    w.len(s.blamed.len());
    for &p in &s.blamed {
        w.u32(p as u32);
    }
}

fn get_supervisor(r: &mut Reader<'_>) -> Result<Supervisor, SnapshotError> {
    let mode = get_mode(r, "supervisor mode tag")?;
    let failures = r.u32()?;
    // `new` clamps the exponent, so a crafted snapshot cannot smuggle in
    // one that would overflow the cooldown shift.
    let mut s = Supervisor::new(r.u32()?);
    s.mode = mode;
    s.failures = failures;
    for _ in 0..r.len(4)? {
        s.blamed.insert(r.u32()? as usize);
    }
    Ok(s)
}

/// The stats counters, in layout order.
fn stats_fields(s: &mut BeaconStats) -> [&mut u64; 13] {
    [
        &mut s.epochs,
        &mut s.protocol_epochs,
        &mut s.skipped_epochs,
        &mut s.coins_exposed,
        &mut s.coins_served,
        &mut s.would_block,
        &mut s.starved,
        &mut s.refills,
        &mut s.refill_failures,
        &mut s.seeds_spent,
        &mut s.rollbacks,
        &mut s.expose_failures,
        &mut s.rounds,
    ]
}

/// A party's cost counters, in layout order.
fn cost_fields(c: &mut CostSnapshot) -> [&mut u64; 8] {
    [
        &mut c.field_adds,
        &mut c.field_muls,
        &mut c.field_invs,
        &mut c.interpolations,
        &mut c.prg_invocations,
        &mut c.messages,
        &mut c.bytes,
        &mut c.rounds,
    ]
}

fn put_ledger(w: &mut Writer, ledger: &CostReport) {
    w.len(ledger.per_party.len());
    for party in &ledger.per_party {
        for v in cost_fields(&mut { party.cost }) {
            w.u64(*v);
        }
    }
    w.u64(ledger.comm.messages);
    w.u64(ledger.comm.bytes);
    w.u64(ledger.comm.rounds);
}

fn get_ledger(r: &mut Reader<'_>, n: usize) -> Result<CostReport, SnapshotError> {
    if r.len(8 * 8)? != n {
        // One ledger entry per party: merging a wrong-length ledger into
        // the next epoch's report would panic.
        return Err(SnapshotError::Malformed { field: "cost ledger" });
    }
    let mut per_party = Vec::new();
    for party in 1..=n {
        let mut cost = CostSnapshot::default();
        for v in cost_fields(&mut cost) {
            *v = r.u64()?;
        }
        per_party.push(PartyCost { party, cost });
    }
    let comm = CommStats { messages: r.u64()?, bytes: r.u64()?, rounds: r.u64()? };
    Ok(CostReport { per_party, comm })
}

fn put_recorder(w: &mut Writer, recorder: &FlightRecorder) {
    w.len(recorder.len());
    for rec in recorder.records() {
        w.u64(rec.epoch);
        w.u8(match rec.outcome {
            EpochOutcomeTag::Committed => 0,
            EpochOutcomeTag::Skipped => 1,
            EpochOutcomeTag::RolledBack => 2,
            EpochOutcomeTag::Degraded => 3,
        });
        put_mode(w, rec.mode);
        w.u64(rec.rounds);
        for v in [
            rec.exposed,
            rec.served,
            rec.would_block,
            rec.starved,
            rec.wallet_level,
            rec.reservoir_level,
            rec.failures,
            rec.backoff_exp,
        ] {
            w.u32(v);
        }
        w.u8(match rec.refill {
            RefillStatus::NotScheduled => 0,
            RefillStatus::Ok => 1,
            RefillStatus::Failed => 2,
        });
        w.u32(rec.refill_attempts);
    }
    w.u64(recorder.total);
}

fn get_recorder(r: &mut Reader<'_>) -> Result<FlightRecorder, SnapshotError> {
    // Pushing through a live ring keeps exactly what a ring of this
    // build's capacity would: a longer foreign ring loses its oldest.
    let mut recorder = FlightRecorder::new(FLIGHT_RECORDER_EPOCHS);
    // A record is at least 8 + 1 + 1 + 8 + 8 × 4 + 1 + 4 bytes.
    let held = r.len(55)?;
    for _ in 0..held {
        recorder.push(HealthRecord {
            epoch: r.u64()?,
            outcome: match r.u8()? {
                0 => EpochOutcomeTag::Committed,
                1 => EpochOutcomeTag::Skipped,
                2 => EpochOutcomeTag::RolledBack,
                3 => EpochOutcomeTag::Degraded,
                _ => return Err(SnapshotError::Malformed { field: "health outcome tag" }),
            },
            mode: get_mode(r, "health mode tag")?,
            rounds: r.u64()?,
            exposed: r.u32()?,
            served: r.u32()?,
            would_block: r.u32()?,
            starved: r.u32()?,
            wallet_level: r.u32()?,
            reservoir_level: r.u32()?,
            failures: r.u32()?,
            backoff_exp: r.u32()?,
            refill: match r.u8()? {
                0 => RefillStatus::NotScheduled,
                1 => RefillStatus::Ok,
                2 => RefillStatus::Failed,
                _ => return Err(SnapshotError::Malformed { field: "health refill tag" }),
            },
            refill_attempts: r.u32()?,
        });
    }
    recorder.total = r.u64()?;
    // Every record held was pushed once: a lifetime total below the
    // count would render as "last 5 of 0 epochs".
    if recorder.total < held as u64 {
        return Err(SnapshotError::Malformed { field: "flight recorder total" });
    }
    Ok(recorder)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dprbg_field::Gf2k;

    type F = Gf2k<32>;

    /// The committed v2 image: `tests/kill_restore.rs`'s service after
    /// four epochs of its schedule.
    const GOLDEN: &[u8] = include_bytes!("../tests/golden/snapshot_v2.bin");

    fn config() -> BeaconConfig {
        BeaconConfig {
            coin_gen: dprbg_core::CoinGenConfig {
                params: dprbg_core::Params::p2p_model(7, 1).unwrap(),
                batch_size: 8,
            },
            reservoir: ReservoirConfig { capacity: 8, low_water: 2 },
            wallet_low_water: 4,
            retry: dprbg_core::RetryPolicy { max_attempts: 3, seed_budget: 8 },
            max_backoff_exp: 3,
            max_rounds_per_epoch: 4096,
        }
    }

    fn golden() -> BeaconService<F> {
        BeaconService::restore(config(), GOLDEN).unwrap()
    }

    /// Recompute the trailing checksum, so a mutation reaches the
    /// structural decoder instead of stopping at `ChecksumMismatch`.
    fn reseal(bytes: &mut [u8]) {
        let body = bytes.len() - 8;
        let mut w = Writer::new();
        w.u64(checksum(&bytes[..body]));
        bytes[body..].copy_from_slice(w.as_bytes());
    }

    #[test]
    fn round_trip_is_lossless_and_stable() {
        let svc = golden();
        assert!(svc.wallet_level() > 0 && svc.reservoir.level() > 0 && svc.stats.epochs == 4);
        assert!(!svc.registry.is_empty() && !svc.recorder.is_empty());
        let bytes = svc.snapshot();
        assert_eq!(bytes, GOLDEN);
        // Deterministic bytes: encoding the decoded state is identical.
        let back = BeaconService::<F>::restore(config(), &bytes).unwrap();
        assert_eq!(back.snapshot(), bytes);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = GOLDEN.to_vec();
        bytes[0] ^= 0xFF;
        let restore = |b: &[u8]| BeaconService::<F>::restore(config(), b).err();
        assert_eq!(restore(&bytes), Some(SnapshotError::BadMagic));
        assert_eq!(restore(b"nonsense"), Some(SnapshotError::BadMagic));
    }

    #[test]
    fn unsupported_version_rejected() {
        let mut bytes = GOLDEN.to_vec();
        // Stamp version 0x7FEE, then re-seal the checksum so the version
        // check is what fires.
        bytes[8] = 0xEE;
        bytes[9] = 0x7F;
        reseal(&mut bytes);
        assert_eq!(
            BeaconService::<F>::restore(config(), &bytes).err(),
            Some(SnapshotError::UnsupportedVersion { got: 0x7FEE })
        );
    }

    #[test]
    fn every_truncation_is_an_error_never_a_panic() {
        for len in 0..GOLDEN.len() {
            let err = BeaconService::<F>::restore(config(), &GOLDEN[..len]).err();
            assert!(
                matches!(
                    err,
                    Some(
                        SnapshotError::Truncated
                            | SnapshotError::BadMagic
                            | SnapshotError::ChecksumMismatch
                    )
                ),
                "unexpected result at len {len}: {err:?}"
            );
        }
    }

    #[test]
    fn bit_flips_fail_the_checksum() {
        // Flip one bit in every seventh byte position past the magic.
        for pos in (8..GOLDEN.len() - 8).step_by(7) {
            let mut bad = GOLDEN.to_vec();
            bad[pos] ^= 0x10;
            assert!(
                BeaconService::<F>::restore(config(), &bad).is_err(),
                "bit flip at {pos} decoded successfully"
            );
        }
    }

    #[test]
    fn ledger_of_the_wrong_length_is_refused_at_restore() {
        // A checksum-valid snapshot with n − 1 ledger entries used to
        // restore and then panic in the next epoch's ledger merge.
        let mut svc = golden();
        svc.ledger.per_party.pop();
        assert_eq!(
            BeaconService::<F>::restore(config(), &svc.snapshot()).err(),
            Some(SnapshotError::Malformed { field: "cost ledger" })
        );
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = GOLDEN.to_vec();
        bytes.extend_from_slice(&[0u8; 4]);
        assert!(BeaconService::<F>::restore(config(), &bytes).is_err());
        // Sealed over the garbage, it reaches the structural check.
        reseal(&mut bytes);
        assert_eq!(
            BeaconService::<F>::restore(config(), &bytes).err(),
            Some(SnapshotError::Malformed { field: "trailing bytes" })
        );
    }

    #[test]
    fn oversized_snapshot_truncates_to_a_live_ring() {
        // A foreign build's longer ring restores as the newest
        // FLIGHT_RECORDER_EPOCHS records, lifetime total intact.
        let mut svc = golden();
        let rec = *svc.recorder.records().next().unwrap();
        svc.recorder = FlightRecorder::new(2 * FLIGHT_RECORDER_EPOCHS);
        for epoch in 0..(FLIGHT_RECORDER_EPOCHS + 8) as u64 {
            svc.recorder.push(HealthRecord { epoch, ..rec });
        }
        let back = BeaconService::<F>::restore(config(), &svc.snapshot()).unwrap();
        assert_eq!(back.recorder.len(), FLIGHT_RECORDER_EPOCHS);
        assert_eq!(back.recorder.records().next().unwrap().epoch, 8);
        assert_eq!(back.recorder.total(), svc.recorder.total());
    }

    #[test]
    fn recorder_total_below_its_records_is_refused_at_restore() {
        // A checksum-valid image whose lifetime total undercounts the
        // records it holds used to restore and dump "last n of 0 epochs".
        let mut svc = golden();
        svc.recorder.total = svc.recorder.len() as u64 - 1;
        assert_eq!(
            BeaconService::<F>::restore(config(), &svc.snapshot()).err(),
            Some(SnapshotError::Malformed { field: "flight recorder total" })
        );
        // A total equal to the count is a service that never evicted.
        svc.recorder.total += 1;
        assert!(BeaconService::<F>::restore(config(), &svc.snapshot()).is_ok());
    }

    #[test]
    fn crafted_backoff_exponent_is_clamped_at_restore() {
        // The first byte two snapshots differing only in the exponent
        // disagree on is where the exponent is stored.
        let mut svc = golden();
        svc.supervisor = Supervisor::new(62);
        let other = svc.snapshot();
        svc.supervisor = Supervisor::new(63);
        let mut bytes = svc.snapshot();
        let exp = bytes.iter().zip(&other).position(|(a, b)| a != b).unwrap();
        bytes[exp..exp + 4].copy_from_slice(&[0xFF; 4]);
        reseal(&mut bytes);
        let back = BeaconService::<F>::restore(config(), &bytes).unwrap();
        assert_eq!(back.supervisor.max_exp(), 63);
    }
}
