// Fixture: an `unsafe` block outside `dprbg-field`'s probed dispatch
// sites — an unchecked index that a bounds check would have caught.
pub fn first(v: &[u8]) -> u8 {
    unsafe { *v.get_unchecked(0) }
}
