//! Mutate-and-decode over the committed golden snapshot: every
//! truncation, every single-bit flip, every four-byte window raised to
//! `u32::MAX` (so every count claims ~4 billion items), and every splice
//! with another service's snapshot — each re-sealed, so the structural
//! decoder sees it instead of stopping at `ChecksumMismatch`. Every
//! outcome is `Ok` or `Err`; an `Ok` restore must then survive two epochs;
//! and no decode may allocate more than a small multiple of its input.
//! The registry blob embedded in the image goes through the same sweep.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dprbg_beacon::{BeaconConfig, BeaconService, ExecutorKind, ReservoirConfig, SnapshotError};
use dprbg_core::{CoinGenConfig, Params, RetryPolicy};
use dprbg_field::Gf2k;
use dprbg_metrics::bin::{Reader, Writer};
use dprbg_metrics::{LogicalTime, Registry};
use dprbg_rng::splitmix64;

type F = Gf2k<32>;

/// `tests/kill_restore.rs`'s service after four epochs of its schedule.
const GOLDEN: &[u8] = include_bytes!("golden/snapshot_v2.bin");

fn config() -> BeaconConfig {
    BeaconConfig {
        coin_gen: CoinGenConfig { params: Params::p2p_model(7, 1).unwrap(), batch_size: 8 },
        reservoir: ReservoirConfig { capacity: 8, low_water: 2 },
        wallet_low_water: 4,
        retry: RetryPolicy { max_attempts: 3, seed_budget: 8 },
        max_backoff_exp: 3,
        max_rounds_per_epoch: 4096,
    }
}

/// Counts this thread's live heap bytes and their high-water mark, so
/// tests running on other threads do not disturb a measurement.
struct CountingAlloc;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn note(delta: isize) {
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the bookkeeping only touches const-initialised thread-locals
// with no destructor, which never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        note(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            note(new_size as isize - layout.size() as isize);
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Run `f`, asserting the heap it adds at its peak stays within a small
/// multiple of `input` bytes — what the decoded state itself occupies.
fn bounded_by<T>(input: usize, what: &str, f: impl FnOnce() -> T) -> T {
    let start = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(start));
    let out = f();
    let peak = PEAK.with(Cell::get) - start;
    let budget = 8 * input as isize + 4096;
    assert!(peak <= budget, "{what}: peak {peak} B for a {input} B input (budget {budget} B)");
    out
}

/// Recompute the trailing checksum (`snapshot.rs`'s layout doc: the
/// SplitMix fold of every byte before it).
fn seal(mut body: Vec<u8>) -> Vec<u8> {
    let mut h = 0x5EED_BEAC_0000_0001u64;
    for chunk in body.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h = splitmix64(h ^ Reader::new(&word).u64().unwrap() ^ chunk.len() as u64);
    }
    let mut w = Writer::new();
    w.u64(h);
    body.extend_from_slice(w.as_bytes());
    body
}

fn body(snapshot: &[u8]) -> &[u8] {
    &snapshot[..snapshot.len() - 8]
}

/// Hand every mutation of `image` to `decode`, labelled for the panic
/// message: each truncation, each single-bit flip, each four-byte window
/// set to `u32::MAX`, and both splices with `other` at every cut.
fn mutations(image: &[u8], other: &[u8], mut decode: impl FnMut(&str, Vec<u8>)) {
    for len in 0..image.len() {
        decode(&format!("truncated to {len}"), image[..len].to_vec());
    }
    for bit in 0..image.len() * 8 {
        let mut m = image.to_vec();
        m[bit / 8] ^= 1 << (bit % 8);
        decode(&format!("bit {bit} flipped"), m);
    }
    for at in 0..image.len().saturating_sub(3) {
        let mut m = image.to_vec();
        m[at..at + 4].copy_from_slice(&[0xFF; 4]);
        decode(&format!("u32::MAX at {at}"), m);
    }
    for cut in 0..=image.len().min(other.len()) {
        decode(&format!("golden[..{cut}] + other"), [&image[..cut], &other[cut..]].concat());
        decode(&format!("other[..{cut}] + golden"), [&other[..cut], &image[cut..]].concat());
    }
}

/// Restore, within the allocation budget; an `Ok` service then runs two
/// epochs, which must not panic.
fn restore_and_run(label: &str, bytes: &[u8]) {
    let restored = bounded_by(bytes.len(), label, || BeaconService::<F>::restore(config(), bytes));
    if let Ok(mut svc) = restored {
        for _ in 0..2 {
            let _ = svc.run_epoch(ExecutorKind::Step, &[], None);
        }
    }
}

/// A fresh service one epoch in: the splice partner for both sweeps.
fn other_service() -> BeaconService<F> {
    let mut svc = BeaconService::<F>::new(config(), 0x0DD, 9);
    svc.run_epoch(ExecutorKind::Step, &[(1, 1)], None).unwrap();
    svc
}

/// The embedded registry blob's byte range in the golden image.
fn golden_registry_blob() -> std::ops::Range<usize> {
    let blob = BeaconService::<F>::restore(config(), GOLDEN).unwrap().health().to_bytes();
    let at = GOLDEN.windows(blob.len()).position(|w| w == blob.as_slice()).unwrap();
    at..at + blob.len()
}

#[test]
fn mutated_golden_snapshots_restore_or_err_and_ok_ones_keep_running() {
    let other = other_service().snapshot();
    mutations(body(GOLDEN), body(&other), |label, m| restore_and_run(label, &seal(m)));
}

#[test]
fn mutated_golden_registry_blobs_decode_or_err() {
    let blob = &GOLDEN[golden_registry_blob()];
    let golden = Registry::from_bytes(blob).unwrap();
    let kinds: std::collections::BTreeSet<&str> = golden.iter().map(|(_, v)| v.kind()).collect();
    assert_eq!(kinds.len(), 3, "the embedded registry must hold all three metric kinds");

    let other = other_service().health().to_bytes();
    mutations(blob, &other, |label, m| {
        // An accepted blob is canonical: it re-encodes to itself.
        if let Ok(reg) = bounded_by(m.len(), label, || Registry::from_bytes(&m)) {
            assert_eq!(reg.to_bytes(), m, "{label}: accepted a non-canonical blob");
        }
    });
}

#[test]
fn a_claimed_party_count_is_refused_before_anything_is_sized_by_it() {
    // n sits after the magic (8), version (2) and field width (4). A
    // sealed image of ~2 KB claiming 2^20 parties must be refused before
    // anything is sized by the claim.
    let mut m = body(GOLDEN).to_vec();
    m[14..18].copy_from_slice(&[0, 0, 0x10, 0]);
    let m = seal(m);
    let restored = bounded_by(m.len(), "n = 2^20", || BeaconService::<F>::restore(config(), &m));
    assert_eq!(restored.err(), Some(SnapshotError::Truncated));
}

#[test]
fn a_registry_of_the_wrong_kind_is_refused() {
    // The golden image with its registry replaced by `replacement`.
    let with_registry = |replacement: &Registry| {
        let range = golden_registry_blob();
        let blob = replacement.to_bytes();
        let mut w = Writer::new();
        w.bytes(&GOLDEN[..range.start - 4]);
        w.len(blob.len());
        w.bytes(&blob);
        w.bytes(&GOLDEN[range.end..GOLDEN.len() - 8]);
        seal(w.into_bytes())
    };
    // The beacon writes `beacon_reservoir_level` as a gauge: restored as a
    // counter, the next epoch's gauge write would panic.
    let mut wrong = Registry::new();
    wrong.counter_add("beacon_reservoir_level", &[], 1);
    assert_eq!(
        BeaconService::<F>::restore(config(), &with_registry(&wrong)).err(),
        Some(SnapshotError::Malformed { field: "health registry" })
    );
    // Names the beacon never writes may hold any kind.
    let mut foreign = Registry::new();
    foreign.gauge_set("operator_note", &[], LogicalTime::at_epoch(1), 7);
    let mut svc = BeaconService::<F>::restore(config(), &with_registry(&foreign)).unwrap();
    svc.run_epoch(ExecutorKind::Step, &[], None).unwrap();
}
