// Fixture: limb arithmetic on field data. `to_u64` is the only way out
// of a field element, so every such path starts with an unpinned call.
use dprbg_field::Field;

type Gf2k = dprbg_field::Gf2k<8>;

pub fn expose_low(x: Gf2k) -> u64 {
    x.to_u64() << 1
}

pub fn normalize(x: Gf2k) -> u64 {
    let layers: Vec<Vec<u8>> = Vec::new();
    let mut acc = x.to_u64() + layers.len() as u64;
    acc <<= 1;
    acc >>= 2;
    acc
}

pub fn low_bit<F: Field>(x: F) -> u64 {
    x.to_u64() & 1
}

// Shifts on integers that never came from a field element stay legal.
pub fn format_header(tag: u64) -> u64 {
    tag << 48
}
