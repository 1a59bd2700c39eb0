// Fixture: a pin that suppresses a live HashMap use, so it is not stale.
pub fn cache() -> u32 {
    #[expect(clippy::disallowed_types, reason = "fixture: pinned wire format predates the BTreeMap sweep")]
    let m = std::collections::HashMap::<u64, u64>::new();
    m.len() as u32
}
