// Fixture: a fixed-iteration ladder, inversion's degree walk, and a
// pinned bit-scan off the multiplication path.
pub fn clmul_portable(a: u64, b: u64) -> u128 {
    let a = a as u128;
    let mut r: u128 = 0;
    let mut i = 0;
    while i < 64 {
        let keep = 0u128.wrapping_sub(((b >> i) & 1) as u128);
        r ^= (a << i) & keep;
        i += 1;
    }
    r
}

pub fn degree(v: u128) -> i32 {
    127 - v.leading_zeros() as i32
}

#[expect(clippy::disallowed_methods, reason = "fixture: table-build helper, not a mul path")]
pub fn lowest_set(v: u64) -> u32 {
    v.trailing_zeros()
}
