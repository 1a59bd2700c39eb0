// Fixture: trace keys from wall clocks, thread ids and hash order.
use std::time::Instant;

pub fn clock() -> Instant { Instant::now() }
pub fn wall() -> std::time::SystemTime { std::time::SystemTime::now() }
pub fn who() -> std::thread::ThreadId { std::thread::current().id() }
pub fn unordered() -> std::collections::HashMap<u64, u64> { std::collections::HashMap::new() }
