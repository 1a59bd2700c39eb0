// Fixture: `dprbg-field`'s dispatch-site shape — one `unsafe` call into a
// feature-gated function, right after the probe, under an annotated
// scoped allow. Only a `deny(unsafe_code)` crate may carry it: under
// `forbid` the allow itself is an error.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
fn twice(x: u64) -> u64 {
    x << 1
}

#[allow(unsafe_code)]
pub fn doubled(x: u64) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse2") {
        // SAFETY: the probe just confirmed sse2.
        return unsafe { twice(x) };
    }
    x << 1
}
