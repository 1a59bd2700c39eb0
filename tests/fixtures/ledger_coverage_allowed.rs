// Fixture: coin-to-bits boundary reads, each pinned with its reason (on a
// `let` or on the fn, since an attribute cannot sit on an expression).
use dprbg_field::Field;

type Gf2k = dprbg_field::Gf2k<8>;

pub fn split_bits(x: Gf2k) -> Vec<bool> {
    #[expect(clippy::disallowed_methods, reason = "fixture: bit-split of the canonical output u64")]
    let v = x.to_u64();
    (0..64).map(|i| (v >> i) & 1 == 1).collect()
}

#[expect(clippy::disallowed_methods, reason = "fixture: leader index from a public coin")]
pub fn leader(x: Gf2k, n: u64) -> u64 {
    x.to_u64() % n
}

pub fn checksum(tag: u64) -> u64 {
    tag << 1
}

pub fn make(raw: u64) -> Gf2k {
    Gf2k::from_u64(raw)
}
