// Fixture: every banned source of ambient nondeterminism, unsuppressed.
use std::collections::{HashMap, HashSet};
use std::time::Instant;

pub fn state() -> HashMap<u64, u64> {
    let _seen: HashSet<u64> = HashSet::new();
    HashMap::new()
}
pub fn hasher() -> std::hash::DefaultHasher { std::hash::DefaultHasher::new() }
pub fn clock() -> Instant { Instant::now() }
pub fn wall() -> std::time::SystemTime { std::time::SystemTime::now() }
pub fn ambient() -> Option<String> { std::env::var("SEED").ok() }
pub fn baked() -> Option<&'static str> { option_env!("SEED") }
pub fn who() -> std::thread::ThreadId { std::thread::current().id() }
