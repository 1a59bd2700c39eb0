// Fixture: threads and channels outside dprbg-sim's ParRunner pool.
use std::sync::mpsc;

pub fn fan_out() {
    let (_tx, _rx) = mpsc::channel::<u64>();
    let (_stx, _srx) = mpsc::sync_channel::<u64>(1);
    let _worker = std::thread::spawn(|| {});
    std::thread::scope(|_| {});
    let _builder = std::thread::Builder::new();
}
