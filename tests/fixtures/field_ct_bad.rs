// Fixture: data-dependent bit-scan loops on the multiplication path,
// the idiom the branchless clmul ladder replaced.
pub fn clmul(a: u64, b: u64) -> u128 {
    let mut r: u128 = 0;
    let a = a as u128;
    let mut b = b;
    while b != 0 {
        let i = b.trailing_zeros();
        r ^= a << i;
        b &= b - 1;
    }
    r
}

pub fn sparse_square(v: u64) -> u128 {
    let mut r: u128 = 0;
    let mut v = v;
    while v != 0 {
        let i = v.trailing_zeros();
        r ^= 1u128 << (2 * i);
        v &= v - 1;
    }
    r
}
