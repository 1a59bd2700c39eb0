// Fixture: malformed suppressions. Each is itself an error, and the
// misnamed and comment forms leave their HashMap unsuppressed.
#[expect(clippy::disallowed_types)]
pub fn reasonless() -> usize {
    std::collections::HashMap::<u64, u64>::new().len()
}

#[expect(clippy::no_such_rule, reason = "fixture: the lint name is wrong")]
pub fn misnamed() -> usize {
    std::collections::HashMap::<u64, u64>::new().len()
}

// lint: allow(determinism) — fixture: the retired comment form
pub fn comment_pin() -> usize {
    std::collections::HashMap::<u64, u64>::new().len()
}
