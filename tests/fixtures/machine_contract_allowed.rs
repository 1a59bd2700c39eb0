// Fixture: a conforming machine, a pure delegator, a pinned debug print,
// and a test-only probe.
use dprbg_sim::{RoundMachine, RoundView, Step};

pub struct Conforming {
    left: u32,
}

impl<M> RoundMachine<M> for Conforming {
    type Output = ();
    fn phase_name(&self) -> &'static str { "conforming" }
    fn round(&mut self, view: RoundView<'_, M>) -> Step<M, ()> {
        if self.left == 0 {
            return Step::Done(());
        }
        self.left -= 1;
        Step::Continue(view.outbox())
    }
}

pub struct Fwd<T>(T);

impl<M, T: RoundMachine<M>> RoundMachine<M> for Fwd<T> {
    type Output = T::Output;
    fn phase_name(&self) -> &'static str { self.0.phase_name() }
    fn round(&mut self, view: RoundView<'_, M>) -> Step<M, T::Output> { self.0.round(view) }
}

pub struct Debugging;

impl<M> RoundMachine<M> for Debugging {
    type Output = ();
    fn phase_name(&self) -> &'static str { "debugging" }
    #[expect(clippy::print_stderr, reason = "fixture: temporary diagnostics behind a debug flag")]
    fn round(&mut self, _view: RoundView<'_, M>) -> Step<M, ()> {
        eprintln!("tick");
        Step::Done(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Probe;

    impl<M> RoundMachine<M> for Probe {
        type Output = ();
        fn phase_name(&self) -> &'static str { "probe" }
        fn round(&mut self, _view: RoundView<'_, M>) -> Step<M, ()> {
            println!("probe");
            Step::Done(())
        }
    }
}
