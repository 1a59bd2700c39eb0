// Fixture: a machine that does not name its phase.
use dprbg_sim::{RoundMachine, RoundView, Step};

pub struct Silent;

impl<M> RoundMachine<M> for Silent {
    type Output = ();
    fn round(&mut self, _view: RoundView<'_, M>) -> Step<M, ()> { Step::Done(()) }
}
