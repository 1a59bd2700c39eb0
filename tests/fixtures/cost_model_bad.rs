// Fixture: raw limb bit-hacks that bypass the counted field ops.
pub fn weight(x: u64) -> u32 { x.count_ones() }
pub fn mix(a: u64, b: u64) -> u64 { a.wrapping_mul(b).rotate_left(7) }
pub fn degree(x: u128) -> u32 { 127 - x.leading_zeros() }
pub fn flip(x: u32) -> u32 { x.swap_bytes() }
pub fn step(x: usize) -> usize { x.wrapping_add(1).rotate_right(3) }
