// Fixture: (epoch, round, party) keys in a BTreeMap, and a pinned debug
// clock.
use std::collections::BTreeMap;

pub fn key(epoch: u64, round: u64, party: u32) -> (u64, u64, u32) {
    (epoch, round, party)
}

pub fn store() -> BTreeMap<(u64, u64, u32), u64> {
    BTreeMap::new()
}

#[expect(clippy::disallowed_types, reason = "fixture: local debug timing, never enters a metric value")]
use std::time::Instant;

#[expect(clippy::disallowed_types, reason = "fixture: value never reaches the registry")]
pub fn debug_clock() -> Instant {
    Instant::now()
}
