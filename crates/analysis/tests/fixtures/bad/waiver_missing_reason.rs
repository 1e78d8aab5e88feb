// Fixture: a waiver without a reason suppresses nothing and is itself a
// finding. Never compiled.
pub fn half(x: u64) -> u64 {
    // lint: allow(panic-doc)
    assert!(x % 2 == 0);
    x / 2
}
