//! Typed errors for the banked backend's user-supplied geometry and
//! timing.

use std::fmt;

/// Why a banked-backend configuration is unusable, as
/// `SystemConfig::validate` in `rampage-core` reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DramConfigError {
    /// A DRAM row must hold at least one data pair.
    ZeroColumnBits,
    /// Row + bank + column bits cannot exceed the 64-bit address.
    MappingTooWide,
    /// An unclocked banked channel never moves a data pair.
    ZeroPairTime,
    /// A closed-page access (tRCD + tCAS) must take time.
    ZeroAccessTime,
}

impl fmt::Display for DramConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DramConfigError::ZeroColumnBits => {
                write!(
                    f,
                    "column bits must be positive (the paper-era RDRAM geometry uses 11-bit \
                     columns / 2 KB rows)"
                )
            }
            DramConfigError::MappingTooWide => {
                write!(
                    f,
                    "address mapping exceeds 64 bits (the paper-era RDRAM geometry uses 11 \
                     column + 4 bank + 49 row bits)"
                )
            }
            DramConfigError::ZeroPairTime => {
                write!(
                    f,
                    "data pair time must be positive (the paper's Direct Rambus moves 2 bytes \
                     every 1.25 ns)"
                )
            }
            DramConfigError::ZeroAccessTime => {
                write!(
                    f,
                    "tRCD + tCAS must be positive (the paper's 50 ns initial latency \
                     decomposes as 30 ns + 20 ns)"
                )
            }
        }
    }
}

impl std::error::Error for DramConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_actionable() {
        for e in [
            DramConfigError::ZeroColumnBits,
            DramConfigError::ZeroPairTime,
            DramConfigError::ZeroAccessTime,
        ] {
            let msg = e.to_string();
            assert!(msg.contains("must be positive"), "{msg}");
            assert!(msg.contains("paper"), "says what a good value is: {msg}");
        }
        let msg = DramConfigError::MappingTooWide.to_string();
        assert!(msg.contains("64 bits"), "{msg}");
        assert!(msg.contains("paper"), "says what a good value is: {msg}");
    }
}
