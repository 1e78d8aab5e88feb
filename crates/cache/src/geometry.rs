//! Cache size/block/way arithmetic.

use crate::addr::PhysAddr;
use std::fmt;

/// Errors from [`Geometry::new`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeometryError {
    /// A parameter was zero or not a power of two.
    NotPowerOfTwo(&'static str),
    /// `size / (block * ways)` left no sets (cache smaller than one way).
    TooSmall,
    /// Ways × block exceeds total size.
    Inconsistent,
}

impl fmt::Display for GeometryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeometryError::NotPowerOfTwo(what) => {
                write!(f, "{what} must be a non-zero power of two")
            }
            GeometryError::TooSmall => write!(f, "cache holds less than one block per way"),
            GeometryError::Inconsistent => write!(f, "ways x block size exceeds cache size"),
        }
    }
}

impl std::error::Error for GeometryError {}

/// Validated cache geometry: total size, block size and associativity.
///
/// All three are powers of two; the number of sets follows. A 1-way
/// geometry is a direct-mapped cache; `ways == blocks()` is fully
/// associative.
///
/// ```
/// use rampage_cache::Geometry;
/// let g = Geometry::new(4 << 20, 128, 2).unwrap();
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
    /// # Errors
    ///
    /// Returns [`GeometryError`] if any parameter is zero or not a power
    /// of two, or if the combination leaves no complete set.
    pub fn new(size: u64, block: u64, ways: u32) -> Result<Self, GeometryError> {
        if size == 0 || !size.is_power_of_two() {
            return Err(GeometryError::NotPowerOfTwo("cache size"));
        }
        if block == 0 || !block.is_power_of_two() {
            return Err(GeometryError::NotPowerOfTwo("block size"));
        }
        if ways == 0 || !ways.is_power_of_two() {
            return Err(GeometryError::NotPowerOfTwo("ways"));
        }
        let way_bytes = block
            .checked_mul(ways as u64)
            .ok_or(GeometryError::Inconsistent)?;
        if way_bytes > size {
            return Err(GeometryError::Inconsistent);
        }
        let sets = size / way_bytes;
        if sets == 0 {
            return Err(GeometryError::TooSmall);
        }
        Ok(Geometry {
            size,
            block,
            ways,
            offset_bits: block.trailing_zeros(),
            index_bits: sets.trailing_zeros(),
        })
    }

    /// Fully-associative geometry: a single set of `size / block` ways.
    ///
    /// # Errors
    ///
    /// As [`Geometry::new`]; also fails if `size / block` exceeds `u32`.
    pub fn fully_associative(size: u64, block: u64) -> Result<Self, GeometryError> {
        if block == 0 || !block.is_power_of_two() {
            return Err(GeometryError::NotPowerOfTwo("block size"));
        }
        let ways = u32::try_from(size / block).map_err(|_| GeometryError::Inconsistent)?;
        Geometry::new(size, block, ways)
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

    /// Bytes of tag + state storage a hardware implementation would need,
    /// assuming `addr_bits`-bit physical addresses and 2 state bits
    /// (valid + dirty) per block.
    ///
    /// This is the quantity the paper trades for extra SRAM in the
    /// RAMpage configuration: a 4 MB direct-mapped cache with 128-byte
    /// blocks needs ≈128 KB of tags, so the equivalent RAMpage SRAM main
    /// memory is 4.125 MB.
    pub fn tag_store_bytes(&self, addr_bits: u32) -> u64 {
        let tag_bits = addr_bits.saturating_sub(self.offset_bits + self.index_bits) + 2;
        // Round each block's tag+state up to whole bits, then to bytes.
        (self.blocks() * tag_bits as u64).div_ceil(8)
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
        let g = Geometry::new(16 * 1024, 32, 1).unwrap();
        assert_eq!(g.sets(), 512);
        assert_eq!(g.blocks(), 512);
    }

    #[test]
    fn paper_l2_geometries() {
        for block in [128u64, 256, 512, 1024, 2048, 4096] {
            let g = Geometry::new(4 << 20, block, 1).unwrap();
            assert_eq!(g.blocks(), (4 << 20) / block);
            let g2 = Geometry::new(4 << 20, block, 2).unwrap();
            assert_eq!(g2.sets(), (4 << 20) / block / 2);
        }
    }

    #[test]
    fn index_tag_roundtrip() {
        let g = Geometry::new(1 << 20, 64, 4).unwrap();
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
        let g = Geometry::new(64 * 1024, 32, 1).unwrap();
        let a = PhysAddr(0x0);
        let b = PhysAddr(64 * 1024); // same index, next tag
        assert_eq!(g.set_index(a), g.set_index(b));
        assert_ne!(g.tag(a), g.tag(b));
    }

    #[test]
    fn rejects_bad_parameters() {
        assert_eq!(
            Geometry::new(0, 32, 1).unwrap_err(),
            GeometryError::NotPowerOfTwo("cache size")
        );
        assert_eq!(
            Geometry::new(1024, 48, 1).unwrap_err(),
            GeometryError::NotPowerOfTwo("block size")
        );
        assert_eq!(
            Geometry::new(1024, 32, 3).unwrap_err(),
            GeometryError::NotPowerOfTwo("ways")
        );
        assert_eq!(
            Geometry::new(64, 32, 4).unwrap_err(),
            GeometryError::Inconsistent
        );
    }

    #[test]
    fn fully_associative_has_one_set() {
        let g = Geometry::fully_associative(2048, 32).unwrap();
        assert_eq!(g.sets(), 1);
        assert_eq!(g.ways(), 64);
        // All addresses map to set 0.
        assert_eq!(g.set_index(PhysAddr(0xabcdef00)), 0);
    }

    #[test]
    fn tag_store_for_paper_l2() {
        // 4 MB direct-mapped L2, 128-byte blocks: 32 K blocks, 7 offset
        // bits + 15 index bits leaves 10 tag bits + 2 state bits = 12 bits
        // per block = 48 KB exactly. (The paper's own sizing convention is
        // a rounder 4 bytes/block = 128 KB; rampage-core uses that
        // convention when granting the RAMpage SRAM its tag-equivalent
        // bonus.)
        let g = Geometry::new(4 << 20, 128, 1).unwrap();
        assert_eq!(g.tag_store_bytes(32), 48 * 1024);
    }

    #[test]
    fn display_is_informative() {
        let g = Geometry::new(4 << 20, 128, 2).unwrap();
        assert_eq!(g.to_string(), "4096 KiB, 128-byte blocks, 2-way");
    }
}
