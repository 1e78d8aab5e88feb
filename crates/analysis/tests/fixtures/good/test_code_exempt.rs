// Fixture: test-only items (`#[test]`, `#[cfg(test)]`,
// `#[cfg(all(test, …))]`) are exempt from every rule even in a library
// file. Never compiled.
pub fn double(x: u64) -> u64 {
    x * 2
}

#[cfg(all(test, feature = "fault"))]
fn odd_fault_input() -> u64 {
    panic!("only fault-injection tests call this");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doubles() {
        assert_eq!(double(2), 4);
        let v: Option<u64> = Some(3);
        assert_eq!(v.unwrap(), 3);
    }
}
