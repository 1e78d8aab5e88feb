//! The translation lookaside buffer.

use crate::page::{FrameId, Vpn};
use rampage_trace::Asid;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

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
    index: HashMap<(Asid, Vpn), usize>,
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
            index: HashMap::new(),
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
