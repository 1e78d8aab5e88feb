// Fixture: waivers that match no finding, including one naming an
// unknown rule. Never compiled.

/// Halve an even number.
///
/// # Panics
///
/// Panics when `x` is odd.
pub fn half(x: u64) -> u64 {
    // lint: allow(panic-doc) — the `# Panics` section covers it, nothing fires
    assert!(x % 2 == 0);
    x / 2
}

pub fn total(m: &BTreeMap<u64, u64>) -> u64 {
    // lint: allow(no-such-rule) — a reason does not rescue an unknown id
    m.len() as u64
}
