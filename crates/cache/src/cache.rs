//! The set-associative cache model.

use crate::addr::PhysAddr;
use crate::geometry::Geometry;
use crate::policy::{oldest, ReplacementPolicy};
use crate::stats::CacheStats;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A block leaving the cache: its base address and whether it was dirty
/// (needs a write-back).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Base physical address of the evicted block.
    pub addr: PhysAddr,
    /// True if the block was modified and must be written back.
    pub dirty: bool,
}

/// Outcome of one access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Whether the block was present.
    pub hit: bool,
    /// On a miss, the valid block displaced by the fill (if any).
    pub eviction: Option<Eviction>,
}

/// Where a resident block sits in a [`Cache`], from
/// [`Cache::line_of`]. It names the same block for as long as the
/// cache's [`generation`](Cache::generation) stays put.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineRef(usize);

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
}

/// A write-back, write-allocate, set-associative cache.
///
/// Purely behavioural: tracks presence and dirtiness, reports hits,
/// misses and evictions; the simulator charges times around these
/// outcomes. Lookups are by physical address.
///
/// Misses allocate immediately (the fill is implicit), returning any
/// displaced valid block so the caller can model the write-back.
#[derive(Debug)]
pub struct Cache {
    geo: Geometry,
    lines: Vec<Line>,
    /// One replacement stamp per line, row-major like `lines`: the
    /// last-touch time under LRU, the fill time under FIFO (random
    /// replacement ignores them).
    stamps: Vec<u64>,
    policy: ReplacementPolicy,
    rng: StdRng,
    clock: u64,
    /// Fills plus invalidations so far: while it stays put, every block
    /// keeps its line.
    generation: u64,
    stats: CacheStats,
}

impl Cache {
    /// Create a cache with the given geometry and replacement policy
    /// (random replacement seeded with a fixed default; see
    /// [`Cache::with_seed`] to vary it).
    pub fn new(geo: Geometry, policy: ReplacementPolicy) -> Self {
        Cache::with_seed(geo, policy, 0x5eed_cafe)
    }

    /// As [`Cache::new`] but with an explicit RNG seed for the random
    /// replacement policy, so experiments stay reproducible.
    pub fn with_seed(geo: Geometry, policy: ReplacementPolicy, seed: u64) -> Self {
        let blocks = geo.blocks() as usize;
        Cache {
            geo,
            lines: vec![Line::default(); blocks],
            stamps: vec![0; blocks],
            policy,
            rng: StdRng::seed_from_u64(seed),
            clock: 0,
            generation: 0,
            stats: CacheStats::default(),
        }
    }

    /// The cache's geometry.
    pub fn geometry(&self) -> Geometry {
        self.geo
    }

    /// The replacement policy in use.
    pub fn policy(&self) -> ReplacementPolicy {
        self.policy
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// A counter that moves on every fill and every invalidation, and
    /// on nothing else: while it reads the same, every resident block
    /// stays resident in the same line.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    #[inline]
    fn set_of(&self, addr: PhysAddr) -> usize {
        self.geo.set_index(addr) as usize
    }

    #[inline]
    fn line_index(&self, set: usize, way: usize) -> usize {
        set * self.geo.ways() as usize + way
    }

    fn find_way(&self, set: usize, tag: u64) -> Option<usize> {
        let ways = self.geo.ways() as usize;
        (0..ways).find(|&w| {
            let l = &self.lines[self.line_index(set, w)];
            l.valid && l.tag == tag
        })
    }

    fn pick_victim(&mut self, set: usize) -> usize {
        let ways = self.geo.ways() as usize;
        // Invalid way first: no eviction needed.
        if let Some(w) = (0..ways).find(|&w| !self.lines[self.line_index(set, w)].valid) {
            return w;
        }
        match self.policy {
            ReplacementPolicy::Lru | ReplacementPolicy::Fifo => {
                let first = self.line_index(set, 0);
                oldest(&self.stamps[first..first + ways])
            }
            ReplacementPolicy::Random => self.rng.gen_range(0..ways),
        }
    }

    /// Access the block containing `addr`; allocate it on a miss.
    ///
    /// Returns whether it hit and, on a miss, the valid block that the
    /// fill displaced (with its dirty flag, so the caller can charge a
    /// write-back).
    pub fn access(&mut self, addr: PhysAddr, is_write: bool) -> AccessResult {
        self.clock += 1;
        let set = self.set_of(addr);
        let tag = self.geo.tag(addr);
        if let Some(way) = self.find_way(set, tag) {
            let idx = self.line_index(set, way);
            if is_write {
                self.lines[idx].dirty = true;
                self.stats.write_hits += 1;
            } else {
                self.stats.read_hits += 1;
            }
            if self.policy == ReplacementPolicy::Lru {
                self.stamps[idx] = self.clock;
            }
            return AccessResult {
                hit: true,
                eviction: None,
            };
        }
        // Miss: allocate (write-allocate policy for writes too).
        if is_write {
            self.stats.write_misses += 1;
        } else {
            self.stats.read_misses += 1;
        }
        let way = self.pick_victim(set);
        let idx = self.line_index(set, way);
        let old = self.lines[idx];
        let eviction = old.valid.then(|| {
            if old.dirty {
                self.stats.writebacks += 1;
            }
            Eviction {
                addr: self.geo.block_base(set as u64, old.tag),
                dirty: old.dirty,
            }
        });
        self.lines[idx] = Line {
            tag,
            valid: true,
            dirty: is_write,
        };
        self.generation += 1;
        // LRU and FIFO both stamp at fill time.
        self.stamps[idx] = self.clock;
        AccessResult {
            hit: false,
            eviction,
        }
    }

    /// Mark the block containing `addr` dirty without counting an
    /// access (used when a swap from a victim buffer restores a dirty
    /// block). Returns whether the block was present.
    pub fn mark_dirty(&mut self, addr: PhysAddr) -> bool {
        let set = self.set_of(addr);
        match self.find_way(set, self.geo.tag(addr)) {
            Some(way) => {
                let idx = self.line_index(set, way);
                self.lines[idx].dirty = true;
                true
            }
            None => false,
        }
    }

    /// Check presence without changing any state.
    pub fn probe(&self, addr: PhysAddr) -> bool {
        self.line_of(addr).is_some()
    }

    /// The line holding the block containing `addr`, if it is present,
    /// without changing any state.
    pub fn line_of(&self, addr: PhysAddr) -> Option<LineRef> {
        let set = self.set_of(addr);
        self.find_way(set, self.geo.tag(addr))
            .map(|way| LineRef(self.line_index(set, way)))
    }

    /// Count `n` read hits on a resident line, exactly as `n` calls of
    /// [`access`](Self::access) for a read of its block would: the hit
    /// counter, the access clock and (under LRU) the line's stamp.
    ///
    /// `line` must come from [`line_of`](Self::line_of) with no change
    /// of [`generation`](Self::generation) since; debug builds check
    /// that it is still valid.
    pub fn count_read_hits(&mut self, line: LineRef, n: u64) {
        debug_assert!(self.lines[line.0].valid, "counted hits on an empty line");
        self.clock += n;
        self.stats.read_hits += n;
        if self.policy == ReplacementPolicy::Lru && n > 0 {
            self.stamps[line.0] = self.clock;
        }
    }

    /// Whether the block containing `addr` is present and dirty.
    pub fn is_dirty(&self, addr: PhysAddr) -> bool {
        let set = self.set_of(addr);
        self.find_way(set, self.geo.tag(addr))
            .map(|w| self.lines[self.line_index(set, w)].dirty)
            .unwrap_or(false)
    }

    /// Invalidate the block containing `addr` if present, returning it.
    ///
    /// Used for inclusion maintenance (L2 replacement invalidates the
    /// L1 blocks it covered) and RAMpage page replacement (SRAM frame
    /// reuse invalidates L1 blocks of the outgoing page). A returned
    /// dirty eviction must be written back by the caller.
    pub fn invalidate_block(&mut self, addr: PhysAddr) -> Option<Eviction> {
        let set = self.set_of(addr);
        let way = self.find_way(set, self.geo.tag(addr))?;
        let idx = self.line_index(set, way);
        let line = self.lines[idx];
        self.lines[idx].valid = false;
        self.lines[idx].dirty = false;
        self.stats.invalidations += 1;
        self.generation += 1;
        Some(Eviction {
            addr: self.geo.block_base(set as u64, line.tag),
            dirty: line.dirty,
        })
    }

    /// Invalidate every block of this cache that falls in
    /// `[base, base + len)`, calling `on_evict` for each block that was
    /// present. Returns the number of block-sized probes performed (the
    /// caller charges its hit time per probe, per the paper's inclusion
    /// accounting).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `base` is not block-aligned.
    pub fn invalidate_region(
        &mut self,
        base: PhysAddr,
        len: u64,
        mut on_evict: impl FnMut(Eviction),
    ) -> u64 {
        let block = self.geo.block();
        debug_assert_eq!(base.block_offset(block), 0, "unaligned region base");
        let mut probes = 0;
        let mut a = base.0;
        let end = base.0 + len;
        while a < end {
            probes += 1;
            if let Some(ev) = self.invalidate_block(PhysAddr(a)) {
                on_evict(ev);
            }
            a += block;
        }
        probes
    }

    /// Invalidate everything, returning all dirty blocks (for drain /
    /// teardown paths; not used on the simulator fast path).
    pub fn flush(&mut self) -> Vec<Eviction> {
        let mut dirty = Vec::new();
        let sets = self.geo.sets() as usize;
        let ways = self.geo.ways() as usize;
        for set in 0..sets {
            for way in 0..ways {
                let idx = self.line_index(set, way);
                let line = self.lines[idx];
                if line.valid {
                    if line.dirty {
                        dirty.push(Eviction {
                            addr: self.geo.block_base(set as u64, line.tag),
                            dirty: true,
                        });
                    }
                    self.lines[idx].valid = false;
                    self.lines[idx].dirty = false;
                    self.stats.invalidations += 1;
                    self.generation += 1;
                }
            }
        }
        dirty
    }

    /// Number of valid blocks currently held.
    pub fn occupancy(&self) -> u64 {
        self.lines.iter().filter(|l| l.valid).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dm_cache(size: u64, block: u64) -> Cache {
        Cache::new(Geometry::new(size, block, 1), ReplacementPolicy::Lru)
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = dm_cache(1024, 32);
        assert!(!c.access(PhysAddr(0x40), false).hit);
        assert!(c.access(PhysAddr(0x40), false).hit);
        assert!(c.access(PhysAddr(0x5f), false).hit, "same block hits");
        assert!(!c.access(PhysAddr(0x60), false).hit, "next block misses");
    }

    #[test]
    fn direct_mapped_conflict_evicts() {
        let mut c = dm_cache(1024, 32);
        assert!(!c.access(PhysAddr(0), false).hit);
        // Same index (1024 bytes apart), different tag.
        let r = c.access(PhysAddr(1024), false);
        assert!(!r.hit);
        assert_eq!(
            r.eviction,
            Some(Eviction {
                addr: PhysAddr(0),
                dirty: false
            })
        );
        assert!(!c.access(PhysAddr(0), false).hit, "original was evicted");
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = dm_cache(1024, 32);
        c.access(PhysAddr(0), true); // write-allocate, dirty
        let r = c.access(PhysAddr(1024), false);
        assert_eq!(
            r.eviction,
            Some(Eviction {
                addr: PhysAddr(0),
                dirty: true
            })
        );
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = dm_cache(1024, 32);
        c.access(PhysAddr(0), false);
        assert!(!c.is_dirty(PhysAddr(0)));
        c.access(PhysAddr(4), true);
        assert!(c.is_dirty(PhysAddr(0)));
    }

    #[test]
    fn two_way_lru_keeps_recent() {
        let geo = Geometry::new(128, 32, 2); // 2 sets, 2 ways
        let mut c = Cache::new(geo, ReplacementPolicy::Lru);
        // Fill both ways of set 0: blocks 0 and 128.
        c.access(PhysAddr(0), false);
        c.access(PhysAddr(128), false);
        // Touch block 0 so block 128 is LRU.
        c.access(PhysAddr(0), false);
        // New conflicting block evicts 128, not 0.
        let r = c.access(PhysAddr(256), false);
        assert_eq!(r.eviction.unwrap().addr, PhysAddr(128));
        assert!(c.probe(PhysAddr(0)));
    }

    #[test]
    fn fifo_evicts_oldest_fill_even_if_touched() {
        let geo = Geometry::new(128, 32, 2);
        let mut c = Cache::new(geo, ReplacementPolicy::Fifo);
        c.access(PhysAddr(0), false);
        c.access(PhysAddr(128), false);
        c.access(PhysAddr(0), false); // touch; FIFO ignores it
        let r = c.access(PhysAddr(256), false);
        assert_eq!(r.eviction.unwrap().addr, PhysAddr(0));
    }

    #[test]
    fn random_replacement_is_seeded_deterministic() {
        let geo = Geometry::new(256, 32, 2);
        let mut a = Cache::with_seed(geo, ReplacementPolicy::Random, 42);
        let mut b = Cache::with_seed(geo, ReplacementPolicy::Random, 42);
        for i in 0..100u64 {
            let addr = PhysAddr((i * 7919) % 4096);
            assert_eq!(a.access(addr, i % 3 == 0), b.access(addr, i % 3 == 0));
        }
    }

    #[test]
    fn probe_does_not_mutate() {
        let mut c = dm_cache(1024, 32);
        assert!(!c.probe(PhysAddr(0)));
        let before = c.stats();
        assert!(!c.probe(PhysAddr(0)));
        assert_eq!(c.stats(), before);
        c.access(PhysAddr(0), false);
        assert!(c.probe(PhysAddr(0)));
    }

    #[test]
    fn mark_dirty_without_access_accounting() {
        let mut c = dm_cache(1024, 32);
        c.access(PhysAddr(0), false);
        let stats_before = c.stats();
        assert!(c.mark_dirty(PhysAddr(4)));
        assert!(c.is_dirty(PhysAddr(0)));
        assert_eq!(c.stats(), stats_before, "no access counted");
        assert!(!c.mark_dirty(PhysAddr(0x100)), "absent block");
    }

    #[test]
    fn invalidate_block_returns_dirtiness() {
        let mut c = dm_cache(1024, 32);
        c.access(PhysAddr(0), true);
        let ev = c.invalidate_block(PhysAddr(0)).unwrap();
        assert!(ev.dirty);
        assert!(!c.probe(PhysAddr(0)));
        assert_eq!(c.invalidate_block(PhysAddr(0)), None, "already gone");
    }

    #[test]
    fn invalidate_region_probes_every_block() {
        let mut c = dm_cache(4096, 32);
        // Fill 4 blocks of a 256-byte region.
        for i in 0..4u64 {
            c.access(PhysAddr(0x100 + i * 32), i % 2 == 0);
        }
        let mut evicted = Vec::new();
        let probes = c.invalidate_region(PhysAddr(0x100), 256, |e| evicted.push(e));
        assert_eq!(probes, 8, "256 bytes / 32-byte blocks");
        assert_eq!(evicted.len(), 4);
        assert_eq!(evicted.iter().filter(|e| e.dirty).count(), 2);
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn flush_returns_only_dirty_blocks() {
        let mut c = dm_cache(1024, 32);
        c.access(PhysAddr(0), false);
        c.access(PhysAddr(32), true);
        c.access(PhysAddr(64), true);
        let dirty = c.flush();
        assert_eq!(dirty.len(), 2);
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn occupancy_tracks_valid_blocks() {
        let mut c = dm_cache(1024, 32);
        assert_eq!(c.occupancy(), 0);
        for i in 0..10u64 {
            c.access(PhysAddr(i * 32), false);
        }
        assert_eq!(c.occupancy(), 10);
    }

    #[test]
    fn counted_read_hits_match_repeated_accesses() {
        for policy in [
            ReplacementPolicy::Lru,
            ReplacementPolicy::Fifo,
            ReplacementPolicy::Random,
        ] {
            let geo = Geometry::new(128, 32, 2); // 2 sets, 2 ways
            let mut counted = Cache::new(geo, policy);
            let mut accessed = Cache::new(geo, policy);
            for c in [&mut counted, &mut accessed] {
                c.access(PhysAddr(0), false);
                c.access(PhysAddr(128), true);
            }
            let line = counted.line_of(PhysAddr(4)).unwrap();
            assert_eq!(counted.line_of(PhysAddr(28)), Some(line), "same block");
            counted.count_read_hits(line, 3);
            for _ in 0..3 {
                assert!(accessed.access(PhysAddr(4), false).hit);
            }
            assert_eq!(counted.stats(), accessed.stats(), "{policy:?}");
            // The next fill picks the same victim in both.
            assert_eq!(
                counted.access(PhysAddr(256), false),
                accessed.access(PhysAddr(256), false),
                "{policy:?}"
            );
        }
    }

    #[test]
    fn generation_moves_on_fills_and_invalidations_only() {
        let mut c = dm_cache(1024, 32);
        assert_eq!(c.generation(), 0);
        c.access(PhysAddr(0), false); // fill
        assert_eq!(c.generation(), 1);
        c.access(PhysAddr(4), true); // write hit
        c.access(PhysAddr(8), false); // read hit
        c.mark_dirty(PhysAddr(0));
        let line = c.line_of(PhysAddr(0)).unwrap();
        c.count_read_hits(line, 5);
        assert!(c.probe(PhysAddr(0)) && c.is_dirty(PhysAddr(0)));
        assert_eq!(c.generation(), 1, "hits and dirtying move nothing");
        c.access(PhysAddr(1024), false); // fill that evicts
        assert_eq!(c.generation(), 2);
        assert_eq!(c.invalidate_block(PhysAddr(0)), None, "absent");
        assert_eq!(c.generation(), 2);
        assert!(c.invalidate_block(PhysAddr(1024)).is_some());
        assert_eq!(c.generation(), 3);
        c.access(PhysAddr(32), false);
        c.access(PhysAddr(64), false);
        assert_eq!(c.generation(), 5);
        c.invalidate_region(PhysAddr(0), 128, |_| {});
        assert_eq!(c.generation(), 7, "two of four probed blocks were present");
        c.access(PhysAddr(96), false);
        c.flush();
        assert_eq!(c.generation(), 9);
        assert_eq!(c.line_of(PhysAddr(96)), None);
    }

    #[test]
    fn stats_accumulate() {
        let mut c = dm_cache(1024, 32);
        c.access(PhysAddr(0), false); // read miss
        c.access(PhysAddr(0), false); // read hit
        c.access(PhysAddr(0), true); // write hit
        c.access(PhysAddr(32), true); // write miss
        let s = c.stats();
        assert_eq!(s.read_misses, 1);
        assert_eq!(s.read_hits, 1);
        assert_eq!(s.write_hits, 1);
        assert_eq!(s.write_misses, 1);
    }
}
