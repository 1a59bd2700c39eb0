// Fixture: a machine that does ambient I/O instead of emitting through
// its Outbox.
use dprbg_sim::{RoundMachine, RoundView, Step};

pub struct Chatty;

impl<M> RoundMachine<M> for Chatty {
    type Output = ();
    fn phase_name(&self) -> &'static str { "chatty" }
    fn round(&mut self, view: RoundView<'_, M>) -> Step<M, ()> {
        println!("round {}", view.round);
        eprintln!("round {}", view.round);
        let _ = dbg!(view.round);
        let _ = std::io::Write::flush(&mut std::io::stdout());
        Step::Done(())
    }
}
