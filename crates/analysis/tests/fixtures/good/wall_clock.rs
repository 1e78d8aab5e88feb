// Fixture: simulated time only — picosecond counters, no host clock.
// Never compiled.
pub struct SimClock {
    now_ps: Picos,
}

impl SimClock {
    pub fn advance(&mut self, ps: u64) -> u64 {
        self.now_ps += ps;
        self.now_ps
    }
}
