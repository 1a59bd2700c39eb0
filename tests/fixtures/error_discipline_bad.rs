// Fixture: library code that panics instead of returning an error.
pub fn decode(x: Option<u64>) -> u64 { x.unwrap() }
pub fn decode_or_explain(x: Option<u64>) -> u64 { x.expect("always present") }
pub fn stage() -> u64 { panic!("driven past completion") }
pub fn later() -> u64 { todo!() }
pub fn never() -> u64 { unimplemented!() }
