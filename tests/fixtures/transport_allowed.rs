// Fixture: a thread count is plain data; no thread is started here.
pub struct PoolShape {
    pub thread_count: usize,
}

pub fn run_fleet(n: usize, seed: u64, machines: Vec<u64>) -> Vec<u64> {
    let shape = PoolShape { thread_count: 4 };
    let _ = (n, seed, shape.thread_count);
    machines
}
