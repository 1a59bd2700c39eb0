// Fixture: health-registry keys from wall clocks, thread ids, hash order
// and the environment.
use std::time::Instant;

pub fn stamp() -> Instant { Instant::now() }
pub fn wall() -> std::time::SystemTime { std::time::SystemTime::now() }
pub fn who() -> std::thread::ThreadId { std::thread::current().id() }
pub fn unordered() -> std::collections::HashMap<String, u64> { std::collections::HashMap::new() }
pub fn sink() -> Option<String> { std::env::var("METRICS_SINK").ok() }
