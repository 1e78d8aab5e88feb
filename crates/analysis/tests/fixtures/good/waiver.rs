// Fixture: a reasoned waiver suppresses the finding on the next line.
// Never compiled.
pub fn half(x: u64) -> u64 {
    // lint: allow(panic-doc) — every caller passes an even count
    assert!(x % 2 == 0);
    x / 2
}
