//! The conventional level below L1: an L2 cache over DRAM (paper §4.4,
//! §4.7).

use super::FrontEnd;
use crate::config::{L2Config, SystemConfig, DRAM_PAGE_SIZE, L1_MISS_PENALTY};
use crate::metrics::Metrics;
use crate::obs::{Event, EventKind, ASID_NONE};
use rampage_cache::{Cache, Eviction, PhysAddr, ShadowTracker, VictimCache};
use rampage_dram::Picos;
use rampage_trace::{AccessKind, Asid};
use rampage_vm::{FrameId, InvertedPageTable, Vpn};

/// DRAM frames modelled (1 GiB of 4 KB pages — "infinite DRAM ... with no
/// misses to disk", §4.3; exceeding this is a configuration error).
const DRAM_FRAMES: u32 = 1 << 18;

/// Physical base of the kernel region (code, PCBs, page tables). Placed
/// far above the user frame space so kernel blocks never collide with
/// user frames, but still cached normally in L1/L2 — the conventional
/// hierarchy's TLB-miss handler *can* go all the way to DRAM (§2.3's
/// contrast).
pub(super) const KERNEL_BASE: u64 = 1 << 40;

/// The conventional level: an L2 cache over DRAM, with the TLB (in the
/// front end) over DRAM-physical translations and inclusion maintained
/// between L1 and L2.
pub(super) struct Conventional {
    l2: Cache,
    l2_block: u64,
    /// DRAM-level page table (inverted, like the paper, §2.4).
    page_table: InvertedPageTable,
    /// Optional Jouppi victim buffer between L1 and L2 (§3.2 ablation).
    victim: Option<VictimCache>,
    /// Optional 3C classification of L2 misses.
    classifier: Option<ShadowTracker>,
}

impl Conventional {
    pub(super) fn new(cfg: &SystemConfig, l2cfg: L2Config) -> Self {
        // The page table sits after the OS code + PCBs in kernel space.
        let table_base = PhysAddr(KERNEL_BASE + (1 << 20));
        // Realistic OS page placement: the free list is effectively
        // random, so first-touch allocation scatters pages over the
        // physical space (the page-placement conflict problem of §3.2's
        // page-coloring citations). Sequential allocation would be
        // near-perfect page coloring and flatter the DM baseline.
        let page_table =
            InvertedPageTable::with_shuffled_free(DRAM_FRAMES, table_base, 0x00a1_10c8);
        Conventional {
            l2: Cache::new(l2cfg.geometry(), l2cfg.policy),
            l2_block: l2cfg.block,
            page_table,
            victim: cfg
                .l1_victim_blocks
                .map(|n| VictimCache::new(n, cfg.l1.block)),
            classifier: cfg
                .classify_l2
                .then(|| ShadowTracker::new(l2cfg.geometry().blocks() as usize, l2cfg.block)),
        }
    }

    /// Serve an L1 miss on `pa` whose fill displaced `eviction`. `now` is
    /// the absolute time the reference started stalling. Returns the
    /// stall cycles and whether they drain the write buffer (a
    /// victim-buffer swap-back does not).
    pub(super) fn l1_miss(
        &mut self,
        fe: &mut FrontEnd,
        pa: PhysAddr,
        kind: AccessKind,
        eviction: Option<Eviction>,
        now: Picos,
        m: &mut Metrics,
    ) -> (u64, bool) {
        // Victim-cache probe: a swap-back serves the miss in one cycle
        // without touching L2 (Jouppi's design, §3.2).
        if let Some(hit) = self.victim.as_mut().and_then(|vc| vc.take(pa)) {
            m.counts.victim_hits += 1;
            m.time.l2_sram_cycles += 1;
            if hit.dirty {
                fe.l1(kind).mark_dirty(pa);
            }
            let mut stall = 1;
            if let Some(ev) = eviction {
                stall += self.stash_victim(ev, m);
            }
            return (stall, false);
        }
        // Write the dirty L1 victim back into L2 *before* the fill: the
        // fill's L2 eviction might otherwise displace the very block the
        // victim belongs to. At this point inclusion still holds, so the
        // write-back must hit (with a victim cache, the displaced block
        // goes to the buffer instead).
        let mut stall = 0;
        if let Some(ev) = eviction {
            if self.victim.is_some() {
                stall += self.stash_victim(ev, m);
            } else if ev.dirty {
                stall += L1_MISS_PENALTY;
                m.time.l2_sram_cycles += L1_MISS_PENALTY;
                let wb = self.l2.access(ev.addr, true);
                debug_assert!(wb.hit, "inclusion guarantees L1 victims are in L2");
            }
        }
        (stall + self.l2_service(fe, pa, now, m), true)
    }

    /// Service a block from L2 (and DRAM below it). Returns stall cycles.
    /// `now` is the absolute time the reference started stalling.
    fn l2_service(&mut self, fe: &mut FrontEnd, pa: PhysAddr, now: Picos, m: &mut Metrics) -> u64 {
        // L1 miss penalty covers the L2 tag check + transfer to L1.
        let mut stall = L1_MISS_PENALTY;
        m.time.l2_sram_cycles += L1_MISS_PENALTY;
        let res = self.l2.access(pa, false);
        if let Some(c) = self.classifier.as_mut() {
            c.observe(pa, res.hit);
        }
        if res.hit {
            return stall;
        }
        // L2 miss: maintain inclusion over the victim, then fetch.
        if let Some(ev) = res.eviction {
            let (swept, l1_dirty) = fe.sweep_l1(ev.addr, self.l2_block, m);
            stall += swept;
            // Dirty L1 data folds into the outgoing L2 block.
            let mut victim_dirty = ev.dirty || l1_dirty;
            if let Some(vc) = self.victim.as_mut() {
                // The victim buffer obeys inclusion too: its blocks are
                // L2-backed, so the outgoing L2 block sweeps it as well.
                let mut wb_cycles = 0;
                vc.invalidate_region(ev.addr, self.l2_block, |e| {
                    if e.dirty {
                        victim_dirty = true;
                        wb_cycles += L1_MISS_PENALTY;
                    }
                });
                m.time.l2_sram_cycles += wb_cycles;
                stall += wb_cycles;
            }
            if victim_dirty {
                let block = ev.addr.block_number(self.l2_block);
                let tr = fe.dram(now, stall, self.l2_block, block, m);
                stall += fe.dram_wait(tr.done, now, stall, m);
                m.counts.dram_writebacks += 1;
            }
        }
        // Fetch the needed block from DRAM.
        let tr = fe.dram(now, stall, self.l2_block, pa.block_number(self.l2_block), m);
        stall += fe.dram_wait(tr.done, now, stall, m);
        m.counts.dram_block_fetches += 1;
        let cycle = fe.cycle;
        fe.trace.emit(|| Event {
            at: now,
            dur: Picos(stall * cycle.0),
            kind: EventKind::L2Miss,
            asid: ASID_NONE,
            arg: pa.0,
        });
        stall
    }

    /// Push an L1 eviction into the victim buffer; an overflowing dirty
    /// block is written back to L2. Returns stall cycles.
    fn stash_victim(&mut self, ev: Eviction, m: &mut Metrics) -> u64 {
        let Some(vc) = self.victim.as_mut() else {
            // invariant: stash_victim is only called after the caller
            // checked that a victim buffer is configured.
            unreachable!("stash_victim requires a configured victim buffer");
        };
        let mut stall = 0;
        if let Some(out) = vc.insert(ev) {
            if out.dirty {
                stall += L1_MISS_PENALTY;
                m.time.l2_sram_cycles += L1_MISS_PENALTY;
                let wb = self.l2.access(out.addr, true);
                debug_assert!(wb.hit, "victim blocks stay L2-backed");
            }
        }
        stall
    }

    /// The TLB-miss walk: probe the page table in (cached) DRAM space,
    /// queue the refill handler's references, and allocate a frame on
    /// first touch ("infinite DRAM"). Returns the probes walked and the
    /// frame, which is always found.
    pub(super) fn walk(
        &mut self,
        fe: &mut FrontEnd,
        asid: Asid,
        vpn: Vpn,
    ) -> (u64, Option<FrameId>) {
        let lk = self.page_table.lookup(asid, vpn);
        fe.os.tlb_refill(lk.probe_addrs, &mut fe.handler_buf);
        let probes = lk.probes() as u64;
        let frame = match lk.frame {
            Some(f) => f,
            None => {
                // Exhaustion is a genuine capacity failure, not a logic
                // bug: keep it a panic with an actionable message (the
                // sweep runner converts it into a recorded FailedCell).
                let f = match self.page_table.alloc_free() {
                    Some(f) => f,
                    // lint: allow(panic-doc) — deliberate actionable panic; the sweep runner converts it into a recorded FailedCell
                    None => panic!(
                        "DRAM frame space exhausted ({} frames of {} bytes); raise DRAM_FRAMES",
                        DRAM_FRAMES, DRAM_PAGE_SIZE
                    ),
                };
                self.page_table.insert(f, asid, vpn);
                f
            }
        };
        (probes, Some(frame))
    }

    /// Copy the L2's statistics (and miss profile) into the metrics.
    pub(super) fn finalize(&self, m: &mut Metrics) {
        m.counts.l2 = self.l2.stats();
        if let Some(c) = &self.classifier {
            m.counts.l2_miss_profile = c.profile();
        }
    }

    pub(super) fn label(&self) -> String {
        format!(
            "conventional ({}-way L2, {} B blocks)",
            self.l2.geometry().ways(),
            self.l2_block
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::MemorySystem;
    use crate::time::IssueRate;
    use rampage_trace::TraceRecord;

    fn system(block: u64) -> MemorySystem {
        MemorySystem::new(&SystemConfig::baseline(IssueRate::GHZ1, block))
    }

    fn metrics() -> Metrics {
        Metrics::default()
    }

    #[test]
    fn first_touch_costs_tlb_handler_and_dram() {
        let mut s = system(128);
        let mut m = metrics();
        let out = s.access_user(Asid(1), TraceRecord::read(0x1000), Picos::ZERO, &mut m);
        assert!(out.stall_cycles > 0, "cold reference must stall");
        assert!(m.counts.tlb_handler_refs > 0, "TLB refill ran");
        assert!(m.counts.dram_block_fetches >= 1, "block came from DRAM");
        assert!(m.time.dram_cycles > 0);
        assert_eq!(out.blocked_until, None, "conventional never blocks");
    }

    #[test]
    fn warm_reference_is_free() {
        let mut s = system(128);
        let mut m = metrics();
        s.access_user(Asid(1), TraceRecord::read(0x1000), Picos::ZERO, &mut m);
        let out = s.access_user(Asid(1), TraceRecord::read(0x1008), Picos::ZERO, &mut m);
        assert_eq!(out.stall_cycles, 0, "same block, TLB warm: fully pipelined");
    }

    #[test]
    fn l1_miss_l2_hit_costs_12_cycles() {
        let mut s = system(4096);
        let mut m = metrics();
        // Warm the page + L2 block.
        s.access_user(Asid(1), TraceRecord::read(0x0), Picos::ZERO, &mut m);
        // 0x800 is in the same 4 KB L2 block and same DRAM page, but a
        // different L1 block (and maps to a different L1 set).
        let before_dram = m.counts.dram_block_fetches;
        let out = s.access_user(Asid(1), TraceRecord::read(0x800), Picos::ZERO, &mut m);
        assert_eq!(out.stall_cycles, L1_MISS_PENALTY);
        assert_eq!(m.counts.dram_block_fetches, before_dram, "no DRAM traffic");
    }

    #[test]
    fn dram_stall_scales_with_block_size() {
        let mut small = system(128);
        let mut big = system(4096);
        let mut m1 = metrics();
        let mut m2 = metrics();
        // Use an address whose page is TLB-warm to isolate the fetch.
        small.access_user(Asid(1), TraceRecord::read(0x0), Picos::ZERO, &mut m1);
        big.access_user(Asid(1), TraceRecord::read(0x0), Picos::ZERO, &mut m2);
        assert!(
            m2.time.dram_cycles > m1.time.dram_cycles,
            "4 KB blocks transfer longer than 128 B ({} vs {})",
            m2.time.dram_cycles,
            m1.time.dram_cycles
        );
    }

    #[test]
    fn different_asids_do_not_share_tlb_entries() {
        let mut s = system(128);
        let mut m = metrics();
        s.access_user(Asid(1), TraceRecord::read(0x1000), Picos::ZERO, &mut m);
        let refills_before = m.counts.tlb_handler_refs;
        s.access_user(Asid(2), TraceRecord::read(0x1000), Picos::ZERO, &mut m);
        assert!(
            m.counts.tlb_handler_refs > refills_before,
            "second ASID needs its own translation"
        );
    }

    #[test]
    fn context_switch_charges_about_400_refs() {
        let mut s = system(128);
        let mut m = metrics();
        let stall = s.run_switch(0, 1, Picos::ZERO, &mut m);
        assert!(stall > 0);
        assert!(
            (390..=410).contains(&m.counts.switch_refs),
            "switch refs {}",
            m.counts.switch_refs
        );
    }

    #[test]
    fn inclusion_invalidates_l1_on_l2_eviction() {
        // Physical page placement is (realistically) shuffled, so force
        // L2 conflicts statistically: dirty a set of pages, then stream
        // reads over far more data than the 4 MB L2 holds. Evictions must
        // probe L1 (inclusion maintenance); the debug_assert on the
        // write-back path would catch any inclusion violation.
        let mut s = system(128);
        let mut m = metrics();
        for i in 0..64u64 {
            s.access_user(Asid(1), TraceRecord::write(i * 4096), Picos::ZERO, &mut m);
        }
        for i in 0..3000u64 {
            s.access_user(
                Asid(1),
                TraceRecord::read(0x100_0000 + i * 4096),
                Picos::ZERO,
                &mut m,
            );
        }
        assert!(
            m.counts.inclusion_probes > 0,
            "L2 evictions must probe L1 for inclusion"
        );
        assert!(m.counts.dram_block_fetches > 3000, "streamed past capacity");
    }

    #[test]
    fn victim_cache_serves_conflict_misses_without_dram() {
        let mut cfg = SystemConfig::baseline(IssueRate::GHZ1, 4096);
        cfg.l1_victim_blocks = Some(16);
        let mut s = MemorySystem::new(&cfg);
        let mut m = metrics();
        // Physical placement is shuffled, so force conflicts by
        // pigeonhole: 8 page-aligned blocks can only occupy 4 distinct
        // page-slots of the 16 KB L1, so round-robin touching them
        // ping-pongs at least 4 of them through the victim buffer.
        for round in 0..12 {
            for i in 0..8u64 {
                s.access_user(Asid(1), TraceRecord::read(i * 4096), Picos::ZERO, &mut m);
            }
            if round == 0 {
                // Warm-up round done: everything is L2-resident now.
                m.counts.dram_block_fetches = 0;
            }
        }
        assert!(
            m.counts.victim_hits > 10,
            "swap-backs: {}",
            m.counts.victim_hits
        );
        assert_eq!(
            m.counts.dram_block_fetches, 0,
            "steady-state ping-pong served without DRAM traffic"
        );
    }

    #[test]
    fn finite_write_buffer_eventually_stalls() {
        let mut cfg = SystemConfig::baseline(IssueRate::GHZ1, 128);
        cfg.write_buffer_depth = Some(2);
        let mut s = MemorySystem::new(&cfg);
        let mut m = metrics();
        // Warm one block, then hammer write hits with no stalls to drain.
        s.access_user(Asid(1), TraceRecord::write(0x40), Picos::ZERO, &mut m);
        for _ in 0..16 {
            s.access_user(Asid(1), TraceRecord::write(0x48), Picos::ZERO, &mut m);
        }
        assert!(
            m.counts.write_buffer_stalls > 0,
            "a depth-2 buffer must fill under back-to-back write hits"
        );
    }

    #[test]
    fn classify_l2_profiles_misses() {
        let mut cfg = SystemConfig::baseline(IssueRate::GHZ1, 128);
        cfg.classify_l2 = true;
        let mut s = MemorySystem::new(&cfg);
        let mut m = metrics();
        for i in 0..4000u64 {
            s.access_user(Asid(1), TraceRecord::read(i * 4096), Picos::ZERO, &mut m);
        }
        s.finalize(&mut m);
        let p = m.counts.l2_miss_profile;
        assert!(p.compulsory >= 4000, "every page cold-missed: {p:?}");
        assert_eq!(
            p.misses(),
            m.counts.l2.misses(),
            "classifier agrees with the L2's own accounting"
        );
        // Diagnosis is free in simulated time: rerun without it.
        let mut s2 = MemorySystem::new(&SystemConfig::baseline(IssueRate::GHZ1, 128));
        let mut m2 = metrics();
        for i in 0..4000u64 {
            s2.access_user(Asid(1), TraceRecord::read(i * 4096), Picos::ZERO, &mut m2);
        }
        assert_eq!(m.time, m2.time, "classification charges no cycles");
    }

    #[test]
    fn finalize_copies_stats() {
        let mut s = system(128);
        let mut m = metrics();
        s.access_user(Asid(1), TraceRecord::fetch(0x400000), Picos::ZERO, &mut m);
        s.finalize(&mut m);
        assert!(m.counts.l1i.accesses() > 0);
        assert!(m.counts.tlb.misses > 0);
    }
}
