// Fixture: ordered collections, and a pinned HashMap with its reason.
use std::collections::BTreeMap;

#[expect(clippy::disallowed_types, reason = "fixture: pinned wire format predates the BTreeMap sweep")]
use std::collections::HashMap;

#[expect(clippy::disallowed_types, reason = "fixture: value never reaches a transcript")]
pub fn state() -> HashMap<u64, u64> {
    HashMap::new()
}

pub fn ordered() -> BTreeMap<u64, u64> {
    BTreeMap::new()
}
