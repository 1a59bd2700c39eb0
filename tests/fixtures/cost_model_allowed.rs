// Fixture: plain integer arithmetic, and a pinned seed-derivation hack.
#[expect(clippy::disallowed_methods, reason = "fixture: seed derivation, not share arithmetic")]
pub fn derive(seed: u64, id: u64) -> u64 {
    seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

pub fn tally(a: u64, b: u64) -> u64 {
    a + b * 2
}

pub fn header(tag: u64, len: u64) -> u64 {
    (tag << 48) ^ len
}
