// Fixture: a round read through the receive rule, and one demultiplexer
// pass-through pinned with its reason.
use dprbg_sim::{Inbox, Received};

pub fn suggestions(inbox: &Inbox<u64>, n: usize) -> Vec<Option<u64>> {
    inbox.first_per_sender(n, |r| Some(*r.msg()))
}

pub fn bundles(inbox: &Inbox<Vec<(usize, u64)>>, n: usize) -> Vec<usize> {
    let table = inbox.first_per_slot(n, 1..n + 1, |r| Some(r.msg().iter().copied()));
    table.rows().map(|row| row.iter().flatten().count()).collect()
}

pub fn pass_through(inbox: &Inbox<u64>) -> Vec<Received<u64>> {
    #[expect(clippy::disallowed_methods, reason = "fixture: a demultiplexer hands deliveries on whole")]
    let all = inbox.iter().cloned().collect();
    all
}
