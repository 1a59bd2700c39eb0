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
//! checksum. Decoding is total — every malformed input maps to a
//! [`SnapshotError`], never a panic — because restore-time input is
//! exactly the kind of data a crashed process leaves half-written.
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
//!            then lifetime total u64
//! checksum   u64 (SplitMix-folded over everything above)
//! ```

use std::collections::{BTreeMap, BTreeSet};

use dprbg_field::Field;
use dprbg_metrics::{CommStats, CostSnapshot, Registry};
use dprbg_rng::splitmix64;

use crate::health::{EpochOutcomeTag, HealthRecord, RefillStatus};
use crate::service::BeaconStats;
use crate::supervisor::Mode;

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

/// The decoded (or to-be-encoded) cross-epoch state, field-agnostic
/// except for the coin values themselves.
#[derive(Debug)]
pub(crate) struct SnapshotState<F: Field> {
    pub n: u32,
    pub field_bits: u32,
    pub master_seed: u64,
    pub epoch: u64,
    /// Per party, per wallet position: the share value (`None` = absent).
    pub wallets: Vec<Vec<Option<F>>>,
    /// `(coins oldest-first, cursor, grants)`.
    pub reservoir: (Vec<F>, u32, BTreeMap<u32, u64>),
    /// `(mode, failures, max_exp, blamed)`.
    pub supervisor: (Mode, u32, u32, BTreeSet<usize>),
    pub stats: BeaconStats,
    /// `(rounds, events, digest)`.
    pub trace: (u64, u64, u64),
    /// `(per-party cost snapshots, comm totals)`.
    pub ledger: (Vec<CostSnapshot>, CommStats),
    /// The health-plane metric registry, embedded as its canonical blob.
    pub registry: Registry,
    /// `(flight-recorder records oldest-first, lifetime total)`.
    pub recorder: (Vec<HealthRecord>, u64),
}

/// Little-endian writer.
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
}

/// Little-endian reader over a borrowed snapshot.
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn take(&mut self, len: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(len).ok_or(SnapshotError::Truncated)?;
        let s = self.buf.get(self.pos..end).ok_or(SnapshotError::Truncated)?;
        self.pos = end;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, SnapshotError> {
        let s = self.take(2)?;
        Ok(u16::from_le_bytes([s[0], s[1]]))
    }
    fn u32(&mut self) -> Result<u32, SnapshotError> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }
    fn u64(&mut self) -> Result<u64, SnapshotError> {
        let s = self.take(8)?;
        Ok(u64::from_le_bytes([s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]]))
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

/// Encode `state` into the versioned snapshot format.
pub(crate) fn encode<F: Field>(state: &SnapshotState<F>) -> Vec<u8> {
    let mut e = Enc { buf: Vec::new() };
    e.buf.extend_from_slice(MAGIC);
    e.u16(SNAPSHOT_VERSION);
    e.u32(state.field_bits);
    e.u32(state.n);
    e.u64(state.master_seed);
    e.u64(state.epoch);

    for wallet in &state.wallets {
        e.u32(wallet.len() as u32);
        for share in wallet {
            match share {
                Some(v) => {
                    e.u8(1);
                    e.u64(v.to_u64());
                }
                None => {
                    e.u8(0);
                    e.u64(0);
                }
            }
        }
    }

    let (coins, cursor, grants) = &state.reservoir;
    e.u32(coins.len() as u32);
    for c in coins {
        e.u64(c.to_u64());
    }
    e.u32(*cursor);
    e.u32(grants.len() as u32);
    for (&consumer, &granted) in grants {
        e.u32(consumer);
        e.u64(granted);
    }

    let (mode, failures, max_exp, blamed) = &state.supervisor;
    match mode {
        Mode::Active => e.u8(0),
        Mode::Backoff { until_epoch } => {
            e.u8(1);
            e.u64(*until_epoch);
        }
        Mode::ReadOnly => e.u8(2),
    }
    e.u32(*failures);
    e.u32(*max_exp);
    e.u32(blamed.len() as u32);
    for &p in blamed {
        e.u32(p as u32);
    }

    let s = &state.stats;
    for v in [
        s.epochs,
        s.protocol_epochs,
        s.skipped_epochs,
        s.coins_exposed,
        s.coins_served,
        s.would_block,
        s.starved,
        s.refills,
        s.refill_failures,
        s.seeds_spent,
        s.rollbacks,
        s.expose_failures,
        s.rounds,
    ] {
        e.u64(v);
    }

    e.u64(state.trace.0);
    e.u64(state.trace.1);
    e.u64(state.trace.2);

    let (snaps, comm) = &state.ledger;
    e.u32(snaps.len() as u32);
    for c in snaps {
        for v in [
            c.field_adds,
            c.field_muls,
            c.field_invs,
            c.interpolations,
            c.prg_invocations,
            c.messages,
            c.bytes,
            c.rounds,
        ] {
            e.u64(v);
        }
    }
    e.u64(comm.messages);
    e.u64(comm.bytes);
    e.u64(comm.rounds);

    let blob = state.registry.to_bytes();
    e.u32(blob.len() as u32);
    e.buf.extend_from_slice(&blob);

    let (records, total) = &state.recorder;
    e.u32(records.len() as u32);
    for rec in records {
        e.u64(rec.epoch);
        e.u8(match rec.outcome {
            EpochOutcomeTag::Committed => 0,
            EpochOutcomeTag::Skipped => 1,
            EpochOutcomeTag::RolledBack => 2,
            EpochOutcomeTag::Degraded => 3,
        });
        match rec.mode {
            Mode::Active => e.u8(0),
            Mode::Backoff { until_epoch } => {
                e.u8(1);
                e.u64(until_epoch);
            }
            Mode::ReadOnly => e.u8(2),
        }
        e.u64(rec.rounds);
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
            e.u32(v);
        }
        e.u8(match rec.refill {
            RefillStatus::NotScheduled => 0,
            RefillStatus::Ok => 1,
            RefillStatus::Failed => 2,
        });
        e.u32(rec.refill_attempts);
    }
    e.u64(*total);

    let sum = checksum(&e.buf);
    e.u64(sum);
    e.buf
}

/// Decode a snapshot, checking magic, version, structure, and checksum.
pub(crate) fn decode<F: Field>(bytes: &[u8]) -> Result<SnapshotState<F>, SnapshotError> {
    // Checksum first: the final 8 bytes must fold from the rest.
    if bytes.len() < MAGIC.len() + 8 {
        return Err(if bytes.starts_with(&MAGIC[..bytes.len().min(8)]) {
            SnapshotError::Truncated
        } else {
            SnapshotError::BadMagic
        });
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let mut d = Dec { buf: body, pos: 0 };
    if d.take(8)? != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let stored = u64::from_le_bytes([
        tail[0], tail[1], tail[2], tail[3], tail[4], tail[5], tail[6], tail[7],
    ]);
    if checksum(body) != stored {
        return Err(SnapshotError::ChecksumMismatch);
    }
    let version = d.u16()?;
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::UnsupportedVersion { got: version });
    }
    let field_bits = d.u32()?;
    let n = d.u32()?;
    if n == 0 || n > 1 << 20 {
        return Err(SnapshotError::Malformed { field: "party count n" });
    }
    let master_seed = d.u64()?;
    let epoch = d.u64()?;

    let mut wallets = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let len = d.u32()? as usize;
        let mut wallet = Vec::with_capacity(len.min(1 << 16));
        for _ in 0..len {
            let tag = d.u8()?;
            let raw = d.u64()?;
            wallet.push(match tag {
                0 => None,
                1 => Some(F::from_u64(raw)),
                _ => return Err(SnapshotError::Malformed { field: "share tag" }),
            });
        }
        wallets.push(wallet);
    }

    let coin_count = d.u32()? as usize;
    let mut coins = Vec::with_capacity(coin_count.min(1 << 16));
    for _ in 0..coin_count {
        coins.push(F::from_u64(d.u64()?));
    }
    let cursor = d.u32()?;
    let grant_count = d.u32()? as usize;
    let mut grants = BTreeMap::new();
    for _ in 0..grant_count {
        let consumer = d.u32()?;
        let granted = d.u64()?;
        grants.insert(consumer, granted);
    }

    let mode = match d.u8()? {
        0 => Mode::Active,
        1 => Mode::Backoff { until_epoch: d.u64()? },
        2 => Mode::ReadOnly,
        _ => return Err(SnapshotError::Malformed { field: "supervisor mode tag" }),
    };
    let failures = d.u32()?;
    let max_exp = d.u32()?;
    let blamed_count = d.u32()? as usize;
    let mut blamed = BTreeSet::new();
    for _ in 0..blamed_count {
        blamed.insert(d.u32()? as usize);
    }

    let stats = BeaconStats {
        epochs: d.u64()?,
        protocol_epochs: d.u64()?,
        skipped_epochs: d.u64()?,
        coins_exposed: d.u64()?,
        coins_served: d.u64()?,
        would_block: d.u64()?,
        starved: d.u64()?,
        refills: d.u64()?,
        refill_failures: d.u64()?,
        seeds_spent: d.u64()?,
        rollbacks: d.u64()?,
        expose_failures: d.u64()?,
        rounds: d.u64()?,
    };

    let trace = (d.u64()?, d.u64()?, d.u64()?);

    let snap_count = d.u32()? as usize;
    if snap_count != n as usize {
        // One ledger entry per party: merging a wrong-length ledger into
        // the next epoch's report would panic.
        return Err(SnapshotError::Malformed { field: "cost ledger" });
    }
    let mut snaps = Vec::with_capacity(snap_count.min(1 << 16));
    for _ in 0..snap_count {
        snaps.push(CostSnapshot {
            field_adds: d.u64()?,
            field_muls: d.u64()?,
            field_invs: d.u64()?,
            interpolations: d.u64()?,
            prg_invocations: d.u64()?,
            messages: d.u64()?,
            bytes: d.u64()?,
            rounds: d.u64()?,
        });
    }
    let comm = CommStats { messages: d.u64()?, bytes: d.u64()?, rounds: d.u64()? };

    let blob_len = d.u32()? as usize;
    let registry = Registry::from_bytes(d.take(blob_len)?)
        .map_err(|_| SnapshotError::Malformed { field: "health registry" })?;

    let record_count = d.u32()? as usize;
    let mut records = Vec::with_capacity(record_count.min(1 << 16));
    for _ in 0..record_count {
        let epoch = d.u64()?;
        let outcome = match d.u8()? {
            0 => EpochOutcomeTag::Committed,
            1 => EpochOutcomeTag::Skipped,
            2 => EpochOutcomeTag::RolledBack,
            3 => EpochOutcomeTag::Degraded,
            _ => return Err(SnapshotError::Malformed { field: "health outcome tag" }),
        };
        let mode = match d.u8()? {
            0 => Mode::Active,
            1 => Mode::Backoff { until_epoch: d.u64()? },
            2 => Mode::ReadOnly,
            _ => return Err(SnapshotError::Malformed { field: "health mode tag" }),
        };
        let rounds = d.u64()?;
        let exposed = d.u32()?;
        let served = d.u32()?;
        let would_block = d.u32()?;
        let starved = d.u32()?;
        let wallet_level = d.u32()?;
        let reservoir_level = d.u32()?;
        let failures = d.u32()?;
        let backoff_exp = d.u32()?;
        let refill = match d.u8()? {
            0 => RefillStatus::NotScheduled,
            1 => RefillStatus::Ok,
            2 => RefillStatus::Failed,
            _ => return Err(SnapshotError::Malformed { field: "health refill tag" }),
        };
        let refill_attempts = d.u32()?;
        records.push(HealthRecord {
            epoch,
            outcome,
            mode,
            rounds,
            exposed,
            served,
            would_block,
            starved,
            wallet_level,
            reservoir_level,
            failures,
            backoff_exp,
            refill,
            refill_attempts,
        });
    }
    let recorder_total = d.u64()?;

    if d.pos != body.len() {
        return Err(SnapshotError::Malformed { field: "trailing bytes" });
    }

    Ok(SnapshotState {
        n,
        field_bits,
        master_seed,
        epoch,
        wallets,
        reservoir: (coins, cursor, grants),
        supervisor: (mode, failures, max_exp, blamed),
        stats,
        trace,
        ledger: (snaps, comm),
        registry,
        recorder: (records, recorder_total),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dprbg_field::Gf2k;

    type F = Gf2k<32>;

    fn sample() -> SnapshotState<F> {
        SnapshotState {
            n: 7,
            field_bits: 32,
            master_seed: 0xD12B6,
            epoch: 42,
            wallets: (0..7)
                .map(|p| {
                    (0..5)
                        .map(|i| (i != 2).then(|| F::from_u64(p * 10 + i)))
                        .collect()
                })
                .collect(),
            reservoir: (
                vec![F::from_u64(7), F::from_u64(8)],
                3,
                [(1u32, 9u64), (4, 2)].into_iter().collect(),
            ),
            supervisor: (
                Mode::Backoff { until_epoch: 44 },
                2,
                4,
                [3usize, 6].into_iter().collect(),
            ),
            stats: BeaconStats {
                epochs: 42,
                protocol_epochs: 30,
                coins_served: 55,
                seeds_spent: 61,
                ..BeaconStats::default()
            },
            trace: (1234, 56789, 0xFEED_BEEF),
            ledger: (
                (0..7)
                    .map(|i| CostSnapshot {
                        field_adds: 100 + i,
                        prg_invocations: 7 * i,
                        ..CostSnapshot::default()
                    })
                    .collect(),
                CommStats { messages: 900, bytes: 80_000, rounds: 333 },
            ),
            registry: {
                let mut r = Registry::new();
                r.counter_add("beacon_epochs_total", &[("outcome", "committed")], 30);
                r.gauge_set(
                    "beacon_reservoir_level",
                    &[],
                    dprbg_metrics::LogicalTime::at_epoch(41),
                    2,
                );
                r.histogram_observe("beacon_epoch_rounds", &[], 6);
                r.histogram_observe("beacon_epoch_rounds", &[], 9);
                r
            },
            recorder: (
                vec![
                    HealthRecord {
                        epoch: 40,
                        outcome: EpochOutcomeTag::Committed,
                        mode: Mode::Active,
                        rounds: 6,
                        exposed: 3,
                        served: 2,
                        would_block: 1,
                        starved: 0,
                        wallet_level: 9,
                        reservoir_level: 2,
                        failures: 0,
                        backoff_exp: 0,
                        refill: RefillStatus::Ok,
                        refill_attempts: 1,
                    },
                    HealthRecord {
                        epoch: 41,
                        outcome: EpochOutcomeTag::Skipped,
                        mode: Mode::Backoff { until_epoch: 44 },
                        rounds: 0,
                        exposed: 0,
                        served: 0,
                        would_block: 2,
                        starved: 0,
                        wallet_level: 9,
                        reservoir_level: 2,
                        failures: 2,
                        backoff_exp: 1,
                        refill: RefillStatus::NotScheduled,
                        refill_attempts: 0,
                    },
                ],
                42,
            ),
        }
    }

    fn assert_state_eq(a: &SnapshotState<F>, b: &SnapshotState<F>) {
        assert_eq!(a.n, b.n);
        assert_eq!(a.field_bits, b.field_bits);
        assert_eq!(a.master_seed, b.master_seed);
        assert_eq!(a.epoch, b.epoch);
        assert_eq!(a.wallets, b.wallets);
        assert_eq!(a.reservoir, b.reservoir);
        assert_eq!(a.supervisor, b.supervisor);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.ledger, b.ledger);
        assert_eq!(a.registry, b.registry);
        assert_eq!(a.recorder, b.recorder);
    }

    #[test]
    fn round_trip_is_lossless_and_stable() {
        let state = sample();
        let bytes = encode(&state);
        let back: SnapshotState<F> = decode(&bytes).unwrap();
        assert_state_eq(&state, &back);
        // Deterministic bytes: encoding the decoded state is identical.
        assert_eq!(encode(&back), bytes);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = encode(&sample());
        bytes[0] ^= 0xFF;
        assert_eq!(decode::<F>(&bytes).unwrap_err(), SnapshotError::BadMagic);
        assert_eq!(decode::<F>(b"nonsense").unwrap_err(), SnapshotError::BadMagic);
    }

    #[test]
    fn unsupported_version_rejected() {
        let mut bytes = encode(&sample());
        // Stamp version 0x7FEE, then re-seal the checksum so the version
        // check is what fires.
        bytes[8] = 0xEE;
        bytes[9] = 0x7F;
        let body_len = bytes.len() - 8;
        let sum = checksum(&bytes[..body_len]).to_le_bytes();
        bytes[body_len..].copy_from_slice(&sum);
        assert_eq!(
            decode::<F>(&bytes).unwrap_err(),
            SnapshotError::UnsupportedVersion { got: 0x7FEE }
        );
    }

    #[test]
    fn every_truncation_is_an_error_never_a_panic() {
        let bytes = encode(&sample());
        for len in 0..bytes.len() {
            let err = decode::<F>(&bytes[..len]).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated
                        | SnapshotError::BadMagic
                        | SnapshotError::ChecksumMismatch
                ),
                "unexpected error at len {len}: {err:?}"
            );
        }
    }

    #[test]
    fn bit_flips_fail_the_checksum() {
        let bytes = encode(&sample());
        // Flip one bit in every byte position past the magic.
        for pos in (8..bytes.len() - 8).step_by(7) {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x10;
            assert!(
                decode::<F>(&bad).is_err(),
                "bit flip at {pos} decoded successfully"
            );
        }
    }

    #[test]
    fn ledger_of_the_wrong_length_is_refused_at_restore() {
        // A checksum-valid snapshot with n − 1 ledger entries used to
        // restore and then panic in the next epoch's ledger merge.
        let mut state = sample();
        state.ledger.0.pop();
        let bytes = encode(&state);
        let cfg = crate::BeaconConfig {
            coin_gen: dprbg_core::CoinGenConfig {
                params: dprbg_core::Params::p2p_model(7, 1).unwrap(),
                batch_size: 8,
            },
            reservoir: crate::ReservoirConfig { capacity: 8, low_water: 2 },
            wallet_low_water: 0,
            retry: dprbg_core::RetryPolicy { max_attempts: 3, seed_budget: 8 },
            max_backoff_exp: 3,
            max_rounds_per_epoch: 4096,
        };
        assert_eq!(
            crate::BeaconService::<F>::restore(cfg, &bytes).err(),
            Some(SnapshotError::Malformed { field: "cost ledger" })
        );
    }

    #[test]
    fn trailing_garbage_rejected() {
        let state = sample();
        let mut bytes = encode(&state);
        bytes.extend_from_slice(&[0u8; 4]);
        assert!(decode::<F>(&bytes).is_err());
    }
}
