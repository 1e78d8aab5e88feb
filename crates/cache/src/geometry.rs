//! Cache size/block/way arithmetic.

use crate::addr::PhysAddr;
use std::fmt;

/// Validated cache geometry: total size, block size and associativity.
///
/// All three are powers of two; the number of sets follows. A 1-way
/// geometry is a direct-mapped cache; `ways == blocks()` is fully
/// associative.
///
/// ```
/// use rampage_cache::Geometry;
/// let g = Geometry::new(4 << 20, 128, 2);
/// assert_eq!(g.sets(), (4 << 20) / 128 / 2);
/// assert_eq!(g.blocks(), (4 << 20) / 128);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Geometry {
    size: u64,
    block: u64,
    ways: u32,
    /// log2(block): the address bits below the set index.
    offset_bits: u32,
    /// log2(sets): the set-index bits, so indexing needs no division.
    index_bits: u32,
}

impl Geometry {
    /// Create a geometry of `size` bytes total, `block`-byte blocks and
    /// `ways`-way associativity.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero or not a power of two, or if
    /// `ways × block` exceeds `size`. A configuration from outside the
    /// program is checked first (`SystemConfig::validate` in
    /// `rampage-core` reports these shapes as typed errors).
    pub fn new(size: u64, block: u64, ways: u32) -> Self {
        assert!(
            size.is_power_of_two(),
            "cache size must be a non-zero power of two"
        );
        assert!(
            block.is_power_of_two(),
            "block size must be a non-zero power of two"
        );
        assert!(
            ways.is_power_of_two(),
            "ways must be a non-zero power of two"
        );
        assert!(
            block.checked_mul(ways as u64).is_some_and(|w| w <= size),
            "ways x block size exceeds cache size"
        );
        Geometry {
            size,
            block,
            ways,
            offset_bits: block.trailing_zeros(),
            index_bits: (size / block / ways as u64).trailing_zeros(),
        }
    }

    /// Total capacity in bytes.
    #[inline]
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Block (line) size in bytes.
    #[inline]
    pub fn block(&self) -> u64 {
        self.block
    }

    /// Associativity.
    #[inline]
    pub fn ways(&self) -> u32 {
        self.ways
    }

    /// Number of sets.
    #[inline]
    pub fn sets(&self) -> u64 {
        1 << self.index_bits
    }

    /// Total number of blocks (lines).
    #[inline]
    pub fn blocks(&self) -> u64 {
        self.size / self.block
    }

    /// Set index for an address.
    #[inline]
    pub fn set_index(&self, addr: PhysAddr) -> u64 {
        (addr.0 >> self.offset_bits) & (self.sets() - 1)
    }

    /// Tag for an address (the block number bits above the index).
    #[inline]
    pub fn tag(&self, addr: PhysAddr) -> u64 {
        addr.0 >> (self.offset_bits + self.index_bits)
    }

    /// Reconstruct the base address of a block from its set and tag.
    #[inline]
    pub fn block_base(&self, set: u64, tag: u64) -> PhysAddr {
        PhysAddr(((tag << self.index_bits) | set) << self.offset_bits)
    }
}

impl fmt::Display for Geometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} KiB, {}-byte blocks, {}-way",
            self.size / 1024,
            self.block,
            self.ways
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_l1_geometry() {
        // 16 KB direct-mapped, 32-byte blocks.
        let g = Geometry::new(16 * 1024, 32, 1);
        assert_eq!(g.sets(), 512);
        assert_eq!(g.blocks(), 512);
    }

    #[test]
    fn paper_l2_geometries() {
        for block in [128u64, 256, 512, 1024, 2048, 4096] {
            let g = Geometry::new(4 << 20, block, 1);
            assert_eq!(g.blocks(), (4 << 20) / block);
            let g2 = Geometry::new(4 << 20, block, 2);
            assert_eq!(g2.sets(), (4 << 20) / block / 2);
        }
    }

    #[test]
    fn index_tag_roundtrip() {
        let g = Geometry::new(1 << 20, 64, 4);
        for addr in [0u64, 0x40, 0xfff_fc0, 0x1234_5678, 0xdead_beef] {
            let a = PhysAddr(addr).align_down(64);
            let set = g.set_index(a);
            let tag = g.tag(a);
            assert_eq!(g.block_base(set, tag), a, "roundtrip for {a}");
            assert!(set < g.sets());
        }
    }

    #[test]
    fn distinct_blocks_same_set_have_distinct_tags() {
        let g = Geometry::new(64 * 1024, 32, 1);
        let a = PhysAddr(0x0);
        let b = PhysAddr(64 * 1024); // same index, next tag
        assert_eq!(g.set_index(a), g.set_index(b));
        assert_ne!(g.tag(a), g.tag(b));
    }

    #[test]
    fn rejects_bad_parameters() {
        for (size, block, ways, message) in [
            (0, 32, 1, "cache size must be a non-zero power of two"),
            (1024, 48, 1, "block size must be a non-zero power of two"),
            (1024, 32, 3, "ways must be a non-zero power of two"),
            (64, 32, 4, "ways x block size exceeds cache size"),
        ] {
            let payload = std::panic::catch_unwind(|| Geometry::new(size, block, ways))
                .expect_err("a bad shape must panic");
            let got = payload.downcast_ref::<&str>();
            assert_eq!(got, Some(&message), "({size}, {block}, {ways})");
        }
    }

    #[test]
    fn display_is_informative() {
        let g = Geometry::new(4 << 20, 128, 2);
        assert_eq!(g.to_string(), "4096 KiB, 128-byte blocks, 2-way");
    }
}
