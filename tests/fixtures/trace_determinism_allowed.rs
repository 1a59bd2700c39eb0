// Fixture: logical-time keys, and a pinned debug clock.
pub fn key(round: u64, party: usize, seq: u32) -> (u64, usize, u32) {
    (round, party, seq)
}

#[expect(clippy::disallowed_types, reason = "fixture: debug-only stderr note, never serialized")]
use std::time::Instant;

#[expect(clippy::disallowed_types, reason = "fixture: value never reaches an event record")]
pub fn debug_clock() -> Instant {
    Instant::now()
}
