//! The clock (second-chance) page-replacement algorithm.

use crate::ipt::InvertedPageTable;
use crate::page::FrameId;

/// The paper's replacement policy for the RAMpage SRAM main memory
/// (§4.5): "a clock hand advances through the page table, marking each
/// page that has previously been marked as 'in use' as 'unused', until an
/// 'unused' page is found. This 'unused' page becomes the victim."
///
/// The referenced ("in use") bits live in the [`InvertedPageTable`]; the
/// replacer owns only the hand. [`select_victim`](ClockReplacer::select_victim)
/// also reports how many entries the hand scanned, which the OS model
/// charges as page-table references in the fault handler.
#[derive(Debug, Clone, Default)]
pub struct ClockReplacer {
    hand: u32,
    /// Total entries scanned over the replacer's lifetime.
    total_scanned: u64,
    /// Victims selected.
    victims: u64,
}

impl ClockReplacer {
    /// A replacer with the hand at frame 0.
    pub fn new() -> Self {
        ClockReplacer::default()
    }

    /// Current hand position (next frame to examine).
    pub fn hand(&self) -> FrameId {
        FrameId(self.hand)
    }

    /// Total entries scanned across all selections.
    pub fn total_scanned(&self) -> u64 {
        self.total_scanned
    }

    /// Victims selected so far.
    pub fn victims(&self) -> u64 {
        self.victims
    }

    /// Sweep until an unreferenced, unpinned, mapped frame is found;
    /// return it plus the number of entries the hand examined.
    ///
    /// Referenced frames passed on the way get their bit cleared (second
    /// chance). Unmapped frames are skipped without effect — callers
    /// should drain [`InvertedPageTable::alloc_free`] first.
    ///
    /// # Panics
    ///
    /// Panics if two full sweeps find nothing: every mapped frame is
    /// pinned, or the memory is empty (an OS configuration bug — there
    /// is nothing to replace). The RAMpage system guarantees unpinned
    /// frames at construction (the OS region is asserted smaller than
    /// the frame count).
    pub fn select_victim(&mut self, ipt: &mut InvertedPageTable) -> (FrameId, u32) {
        let n = ipt.num_frames();
        // Two full sweeps always suffice: the first clears every
        // referenced bit, the second must find a victim.
        let mut scanned = 0u32;
        for _ in 0..2 * n {
            let f = FrameId(self.hand);
            self.hand = (self.hand + 1) % n;
            scanned += 1;
            match ipt.mapping(f) {
                None => continue,
                Some(m) if m.pinned => continue,
                Some(m) if m.referenced => ipt.clear_referenced(f),
                Some(_) => {
                    self.total_scanned += scanned as u64;
                    self.victims += 1;
                    return (f, scanned);
                }
            }
        }
        panic!(
            "clock replacement: no replaceable frame: every mapped frame is pinned or memory is empty"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::Vpn;
    use rampage_cache::PhysAddr;
    use rampage_trace::Asid;

    #[test]
    #[should_panic(
        expected = "clock replacement: no replaceable frame: every mapped frame is pinned or memory is empty"
    )]
    fn empty_table_panics() {
        let mut empty = InvertedPageTable::new(4, PhysAddr(0));
        let _ = ClockReplacer::new().select_victim(&mut empty);
    }

    fn full_table(frames: u32) -> InvertedPageTable {
        let mut t = InvertedPageTable::new(frames, PhysAddr(0));
        for i in 0..frames as u64 {
            let f = t.alloc_free().unwrap();
            t.insert(f, Asid(1), Vpn(i));
        }
        t
    }

    #[test]
    fn second_chance_clears_then_selects() {
        let mut ipt = full_table(4);
        let mut clock = ClockReplacer::new();
        // All referenced: first sweep clears 0..3, then frame 0 wins.
        let (victim, scanned) = clock.select_victim(&mut ipt);
        assert_eq!(victim, FrameId(0));
        assert_eq!(scanned, 5, "4 clears + 1 selection");
        assert_eq!(clock.victims(), 1);
    }

    #[test]
    fn recently_used_pages_survive() {
        let mut ipt = full_table(4);
        let mut clock = ClockReplacer::new();
        let _ = clock.select_victim(&mut ipt); // clears all bits, picks 0
                                               // Re-reference frame 1's page only.
        ipt.lookup(Asid(1), Vpn(1));
        let (victim, _) = clock.select_victim(&mut ipt);
        assert_eq!(victim, FrameId(2), "frame 1 got its second chance");
    }

    #[test]
    fn pinned_frames_are_skipped() {
        let mut ipt = InvertedPageTable::new(4, PhysAddr(0));
        let f0 = ipt.alloc_free().unwrap();
        ipt.insert_pinned(f0, Asid(0), Vpn(100));
        for i in 1..4u64 {
            let f = ipt.alloc_free().unwrap();
            ipt.insert(f, Asid(1), Vpn(i));
        }
        let mut clock = ClockReplacer::new();
        for _ in 0..10 {
            let (victim, _) = clock.select_victim(&mut ipt);
            assert_ne!(victim, f0, "pinned frame must never be chosen");
        }
    }

    #[test]
    fn hand_advances_round_robin_over_unreferenced() {
        let mut ipt = full_table(3);
        let mut clock = ClockReplacer::new();
        let (v1, _) = clock.select_victim(&mut ipt); // clears, picks 0
        let (v2, _) = clock.select_victim(&mut ipt); // bits now clear: picks 1
        let (v3, _) = clock.select_victim(&mut ipt);
        assert_eq!((v1, v2, v3), (FrameId(0), FrameId(1), FrameId(2)));
    }

    #[test]
    #[should_panic(
        expected = "clock replacement: no replaceable frame: every mapped frame is pinned or memory is empty"
    )]
    fn all_pinned_panics() {
        let mut ipt = InvertedPageTable::new(2, PhysAddr(0));
        for i in 0..2u64 {
            let f = ipt.alloc_free().unwrap();
            ipt.insert_pinned(f, Asid(0), Vpn(i));
        }
        let mut clock = ClockReplacer::new();
        let _ = clock.select_victim(&mut ipt);
    }

    #[test]
    fn scan_counts_accumulate() {
        let mut ipt = full_table(4);
        let mut clock = ClockReplacer::new();
        let (_, s1) = clock.select_victim(&mut ipt);
        let (_, s2) = clock.select_victim(&mut ipt);
        assert_eq!(clock.total_scanned(), (s1 + s2) as u64);
    }
}
