// Fixture: two pins that suppress nothing, crate-level and item-level.
#![expect(clippy::disallowed_methods, reason = "fixture: the bit-hack this pinned is long gone")]

#[expect(clippy::disallowed_types, reason = "fixture: this HashMap was swept to BTreeMap")]
pub fn no_hashmap_here() -> u32 {
    7
}
