//! Replacement policies for set-associative caches.

use std::fmt;

/// Which block of a set to evict on a miss.
///
/// The paper's baseline L2 is direct-mapped (policy irrelevant); its 2-way
/// "more realistic" L2 uses random replacement (§4.7); the TLB in
/// `rampage-vm` also uses random replacement (§4.3). LRU and FIFO are
/// provided for ablations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplacementPolicy {
    /// Evict the least-recently-used way.
    Lru,
    /// Evict a uniformly random way (paper's choice for 2-way L2 and TLB).
    Random,
    /// Evict the way filled longest ago.
    Fifo,
}

impl fmt::Display for ReplacementPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ReplacementPolicy::Lru => "LRU",
            ReplacementPolicy::Random => "random",
            ReplacementPolicy::Fifo => "FIFO",
        };
        f.write_str(s)
    }
}

/// The way with the smallest stamp in one set's stamps (the LRU or FIFO
/// victim); the first minimum wins ties. [`Geometry`](crate::Geometry)
/// guarantees at least one way, so the zero-way fallback of 0 is
/// unreachable in practice.
pub(crate) fn oldest(stamps: &[u64]) -> usize {
    stamps
        .iter()
        .enumerate()
        .min_by_key(|(_, &s)| s)
        .map_or(0, |(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oldest_picks_min_stamp() {
        assert_eq!(oldest(&[5, 2, 9, 2]), 1, "first minimum wins ties");
    }

    #[test]
    fn display_names() {
        assert_eq!(ReplacementPolicy::Lru.to_string(), "LRU");
        assert_eq!(ReplacementPolicy::Random.to_string(), "random");
        assert_eq!(ReplacementPolicy::Fifo.to_string(), "FIFO");
    }
}
