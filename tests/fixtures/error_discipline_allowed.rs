// Fixture: errors are returned; the one panic is a pinned driver
// contract on its match arm; tests may unwrap.
pub enum Phase {
    Running(u64),
    Done,
}

pub fn step(phase: Phase) -> u64 {
    match phase {
        Phase::Running(x) => x,
        #[expect(clippy::panic, reason = "fixture: driver contract, never stepped after Done")]
        Phase::Done => panic!("stepped after Done"),
    }
}

pub fn decode(x: Option<u64>) -> Result<u64, &'static str> {
    x.ok_or("missing")
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_is_fine_in_tests() {
        assert_eq!(super::decode(Some(1)).unwrap(), 1);
    }
}
