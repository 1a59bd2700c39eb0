// Fixture: hand-written scatters over a round's inbox, each re-encoding
// "a sender's first entry is its only voice" its own way.
use dprbg_sim::Inbox;

pub fn first_per_sender(inbox: &Inbox<u64>, n: usize) -> Vec<Option<u64>> {
    let mut heard = vec![None; n];
    for r in inbox.iter() {
        heard[r.from - 1].get_or_insert(*r.msg());
    }
    heard
}

pub fn last_per_sender(inbox: &Inbox<u64>, n: usize) -> Vec<Option<u64>> {
    let mut heard = vec![None; n];
    inbox.iter().for_each(|r| heard[r.from - 1] = Some(*r.msg()));
    heard
}
