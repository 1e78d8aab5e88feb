//! The translation lookaside buffer.

use crate::page::{FrameId, Vpn};
use rampage_trace::Asid;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// TLB hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Lookups that found a translation.
    pub hits: u64,
    /// Lookups that missed (handler invoked).
    pub misses: u64,
    /// Entries flushed because their page was replaced.
    pub flushes: u64,
}

impl TlbStats {
    /// Miss ratio in `[0, 1]`; 0 for an unused TLB.
    pub fn miss_ratio(&self) -> f64 {
        let t = self.hits + self.misses;
        if t == 0 {
            0.0
        } else {
            self.misses as f64 / t as f64
        }
    }
}

/// The TLB index's hasher: one multiply–rotate step per word, in place
/// of SipHash on every simulated reference.
///
/// It resists no crafted collisions, and VPNs come from traces, which
/// may be imported. It is safe here because the index never holds more
/// keys than the TLB's capacity (64 entries in the paper, 1,024 for
/// §6.3's TLB): keys that all collide cost one probe sequence over at
/// most that many entries. Do not use it for a map whose size follows
/// its input.
#[derive(Default)]
struct IndexHasher(u64);

impl Hasher for IndexHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u16(&mut self, n: u16) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    /// The bucket bits come from the well-mixed high half of the last
    /// product.
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    asid: Asid,
    vpn: Vpn,
    frame: FrameId,
}

/// A set-associative TLB with random replacement.
///
/// The paper's configuration (§4.3) is 64 entries, fully associative,
/// random replacement, 1-cycle (pipelined, zero-cost) hits. §6.3 starts
/// measurements with a 1 K-entry 2-way TLB, which this type also covers.
///
/// In the conventional hierarchy the TLB caches virtual → DRAM-physical
/// translations; in RAMpage it caches virtual → SRAM-physical
/// translations, so "a TLB miss never results in a reference below the
/// SRAM main memory" (§2.3).
#[derive(Debug)]
pub struct Tlb {
    sets: usize,
    ways: usize,
    /// `sets * ways` slots, row-major by set.
    slots: Vec<Option<Entry>>,
    /// Exact-match index for O(1) lookup: (asid, vpn) → slot.
    index: HashMap<(Asid, Vpn), usize, BuildHasherDefault<IndexHasher>>,
    rng: StdRng,
    stats: TlbStats,
}

impl Tlb {
    /// The paper's TLB: 64 entries, fully associative.
    pub fn paper_default() -> Self {
        Tlb::new(1, 64, 0x71b_5eed)
    }

    /// The §6.3 future-work TLB: 1 K entries, 2-way.
    pub fn large_2way() -> Self {
        Tlb::new(512, 2, 0x71b_5eed)
    }

    /// A TLB of `sets` sets × `ways` ways with the given RNG seed for
    /// random replacement.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero, or `sets` is not a power of two.
    pub fn new(sets: usize, ways: usize, seed: u64) -> Self {
        assert!(sets > 0 && ways > 0, "TLB needs capacity");
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        Tlb {
            sets,
            ways,
            slots: vec![None; sets * ways],
            index: HashMap::default(),
            rng: StdRng::seed_from_u64(seed),
            stats: TlbStats::default(),
        }
    }

    /// Total entries.
    pub fn capacity(&self) -> usize {
        self.sets * self.ways
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    fn set_of(&self, vpn: Vpn) -> usize {
        (vpn.0 as usize) & (self.sets - 1)
    }

    /// Look up a translation, counting a hit or miss.
    pub fn lookup(&mut self, asid: Asid, vpn: Vpn) -> Option<FrameId> {
        match self.index.get(&(asid, vpn)) {
            Some(&slot) => {
                let Some(entry) = self.slots[slot] else {
                    // invariant: the index only points at occupied slots;
                    // eviction removes the index entry first.
                    unreachable!("TLB invariant: indexed slot {slot} is empty")
                };
                self.stats.hits += 1;
                Some(entry.frame)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Peek without touching statistics (for assertions and tests).
    pub fn peek(&self, asid: Asid, vpn: Vpn) -> Option<FrameId> {
        self.index.get(&(asid, vpn)).map(|&slot| {
            let Some(entry) = self.slots[slot] else {
                // invariant: the index only points at occupied slots;
                // eviction removes the index entry first.
                unreachable!("TLB invariant: indexed slot {slot} is empty")
            };
            entry.frame
        })
    }

    /// Insert a translation (after a handler refill), evicting a random
    /// way of the set if full. Returns the displaced translation, if any.
    pub fn insert(&mut self, asid: Asid, vpn: Vpn, frame: FrameId) -> Option<(Asid, Vpn)> {
        // Refresh in place if already present.
        if let Some(&slot) = self.index.get(&(asid, vpn)) {
            self.slots[slot] = Some(Entry { asid, vpn, frame });
            return None;
        }
        let set = self.set_of(vpn);
        let base = set * self.ways;
        let slot = match (0..self.ways).find(|&w| self.slots[base + w].is_none()) {
            Some(w) => base + w,
            None => base + self.rng.gen_range(0..self.ways),
        };
        let displaced = self.slots[slot].map(|e| {
            self.index.remove(&(e.asid, e.vpn));
            (e.asid, e.vpn)
        });
        self.slots[slot] = Some(Entry { asid, vpn, frame });
        self.index.insert((asid, vpn), slot);
        displaced
    }

    /// Drop the translation for one page (paper §2.3: "if a page is
    /// replaced from the SRAM main memory, its entry (if it has one) in
    /// the TLB is flushed"). Returns whether an entry was present.
    pub fn flush_page(&mut self, asid: Asid, vpn: Vpn) -> bool {
        match self.index.remove(&(asid, vpn)) {
            Some(slot) => {
                self.slots[slot] = None;
                self.stats.flushes += 1;
                true
            }
            None => false,
        }
    }

    /// Number of valid entries.
    pub fn occupancy(&self) -> usize {
        self.index.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(n: u16) -> Asid {
        Asid(n)
    }

    #[test]
    fn miss_then_insert_then_hit() {
        let mut t = Tlb::paper_default();
        assert_eq!(t.lookup(a(1), Vpn(10)), None);
        t.insert(a(1), Vpn(10), FrameId(5));
        assert_eq!(t.lookup(a(1), Vpn(10)), Some(FrameId(5)));
        let s = t.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn asids_do_not_alias() {
        let mut t = Tlb::paper_default();
        t.insert(a(1), Vpn(10), FrameId(5));
        assert_eq!(t.lookup(a(2), Vpn(10)), None);
    }

    #[test]
    fn capacity_eviction_is_bounded() {
        let mut t = Tlb::new(1, 4, 7);
        for i in 0..20u64 {
            t.insert(a(1), Vpn(i), FrameId(i as u32));
        }
        assert_eq!(t.occupancy(), 4, "never exceeds capacity");
        // Exactly 4 of the 20 remain translatable.
        let present = (0..20u64)
            .filter(|&i| t.peek(a(1), Vpn(i)).is_some())
            .count();
        assert_eq!(present, 4);
    }

    #[test]
    fn eviction_reports_displaced_translation() {
        let mut t = Tlb::new(1, 1, 7);
        assert_eq!(t.insert(a(1), Vpn(1), FrameId(1)), None);
        let displaced = t.insert(a(1), Vpn(2), FrameId(2));
        assert_eq!(displaced, Some((a(1), Vpn(1))));
    }

    #[test]
    fn reinsert_updates_in_place() {
        let mut t = Tlb::new(1, 2, 7);
        t.insert(a(1), Vpn(1), FrameId(1));
        assert_eq!(t.insert(a(1), Vpn(1), FrameId(9)), None);
        assert_eq!(t.peek(a(1), Vpn(1)), Some(FrameId(9)));
        assert_eq!(t.occupancy(), 1);
    }

    #[test]
    fn flush_page_removes_only_that_page() {
        let mut t = Tlb::paper_default();
        t.insert(a(1), Vpn(1), FrameId(1));
        t.insert(a(1), Vpn(2), FrameId(2));
        assert!(t.flush_page(a(1), Vpn(1)));
        assert!(!t.flush_page(a(1), Vpn(1)), "already gone");
        assert_eq!(t.peek(a(1), Vpn(1)), None);
        assert_eq!(t.peek(a(1), Vpn(2)), Some(FrameId(2)));
        assert_eq!(t.stats().flushes, 1);
    }

    #[test]
    fn set_associative_maps_by_low_vpn_bits() {
        let mut t = Tlb::new(2, 1, 7);
        // Vpn 0 and Vpn 2 share set 0; Vpn 1 goes to set 1.
        t.insert(a(1), Vpn(0), FrameId(0));
        t.insert(a(1), Vpn(1), FrameId(1));
        t.insert(a(1), Vpn(2), FrameId(2)); // evicts Vpn 0
        assert_eq!(t.peek(a(1), Vpn(0)), None);
        assert_eq!(t.peek(a(1), Vpn(1)), Some(FrameId(1)));
        assert_eq!(t.peek(a(1), Vpn(2)), Some(FrameId(2)));
    }

    #[test]
    fn keys_that_agree_in_their_low_bits_all_resolve() {
        // VPNs that differ only above bit 32, under two ASIDs: whatever
        // the index's hasher makes of them, every live key must resolve.
        // The fully associative TLB keeps them all; in the 2-way one they
        // share set 0, so filling it also evicts.
        for (mut t, kept) in [(Tlb::paper_default(), 64), (Tlb::large_2way(), 2)] {
            let keys: Vec<(Asid, Vpn)> = (0..t.capacity() as u64)
                .map(|i| (a(1 + (i % 2) as u16), Vpn((i / 2) << 32)))
                .collect();
            for (i, &(asid, vpn)) in keys.iter().enumerate() {
                t.insert(asid, vpn, FrameId(i as u32));
                assert!(t.occupancy() <= t.capacity());
            }
            let live: Vec<_> = (0..keys.len())
                .filter(|&i| t.peek(keys[i].0, keys[i].1).is_some())
                .collect();
            assert_eq!((live.len(), t.occupancy()), (kept, kept));
            for &i in &live {
                let (asid, vpn) = keys[i];
                assert_eq!(t.peek(asid, vpn), Some(FrameId(i as u32)));
                assert_eq!(t.lookup(asid, vpn), Some(FrameId(i as u32)));
            }
            let (asid, vpn) = keys[live[0]];
            let before = t.occupancy();
            assert!(t.flush_page(asid, vpn));
            assert_eq!(t.occupancy(), before - 1, "one flush, one entry");
            assert_eq!(t.peek(asid, vpn), None);
            for &i in &live[1..] {
                assert_eq!(t.peek(keys[i].0, keys[i].1), Some(FrameId(i as u32)));
            }
        }
    }

    #[test]
    fn paper_configurations() {
        assert_eq!(Tlb::paper_default().capacity(), 64);
        assert_eq!(Tlb::large_2way().capacity(), 1024);
    }

    #[test]
    fn miss_ratio() {
        let mut t = Tlb::paper_default();
        t.lookup(a(1), Vpn(0));
        t.insert(a(1), Vpn(0), FrameId(0));
        t.lookup(a(1), Vpn(0));
        t.lookup(a(1), Vpn(0));
        assert!((t.stats().miss_ratio() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(TlbStats::default().miss_ratio(), 0.0);
    }
}
