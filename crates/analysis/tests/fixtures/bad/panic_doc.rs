// Fixture: undocumented panics in library code. Never compiled.
pub fn half(x: u64) -> u64 {
    if x % 2 != 0 {
        panic!("odd input {x}");
    }
    x / 2
}

// `any(test, …)` does not make an item test-only: a `--features fault`
// build compiles this too.
#[cfg(any(test, feature = "fault"))]
pub fn third(x: u64) -> u64 {
    assert!(x % 3 == 0);
    x / 3
}
