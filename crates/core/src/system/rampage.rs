//! The RAMpage level below L1: SRAM main memory over a DRAM paging
//! device (paper §2, §4.5, §4.6).

use super::{Below, FrontEnd, HandlerKind, MemorySystem};
use crate::config::{RampageConfig, SystemConfig, L1_MISS_PENALTY, RAMPAGE_WRITEBACK_PENALTY};
use crate::metrics::Metrics;
use crate::obs::{Event, EventKind, ASID_NONE};
use rampage_cache::{Eviction, PhysAddr};
use rampage_dram::Picos;
use rampage_trace::Asid;
use rampage_vm::os::OsLayout;
use rampage_vm::{
    ClockReplacer, FrameId, InvertedPageTable, PageSize, StandbyEntry, StandbyList, Vpn,
};

/// ASID reserved for the pinned OS region.
const KERNEL_ASID: Asid = Asid(u16::MAX);

/// Physical base of the OS handlers and PCBs: SRAM address 0, pinned.
pub(super) const KERNEL_BASE: u64 = 0;

/// The RAMpage level.
///
/// The SRAM level has no tags: a page is "present" iff the inverted page
/// table (itself pinned in SRAM, along with the OS handlers) maps it, so
/// full associativity costs nothing at hit time (§2.2). The TLB caches
/// virtual → SRAM-physical translations, so a TLB miss is serviced
/// entirely within SRAM; only a page fault goes to DRAM (§2.3). Page
/// faults run a simulated software handler (clock replacement, table
/// updates) and transfer whole SRAM pages over the Rambus channel; with
/// [`SystemConfig::switch_on_miss`] the faulting process blocks and the
/// CPU switches to another process instead of stalling (§4.6).
pub(super) struct Rampage {
    ipt: InvertedPageTable,
    clock: ClockReplacer,
    standby: Option<StandbyList>,
    page: PageSize,
    switch_on_miss: bool,
    /// The table addresses the faulting TLB-miss walk probed, which the
    /// fault handler reads again (reused across faults).
    fault_probes: Vec<PhysAddr>,
    /// Frames pinned for OS code + page table (never replaced).
    pinned_frames: u32,
    /// Sequential next-page prefetch on faults (§3.2 extension). A
    /// prefetched page carries the table's `prefetched` flag until a
    /// walk finds it (the prefetch proved useful) or it leaves SRAM.
    prefetch_next: bool,
}

impl Rampage {
    /// Pin the OS region and set up the page table and replacement.
    ///
    /// # Panics
    ///
    /// Panics if the OS pinned region would leave no user frames, or the
    /// standby list is too large for them.
    pub(super) fn new(cfg: &SystemConfig, rcfg: RampageConfig) -> Self {
        let page = rcfg.page_size;
        let num_frames = rcfg.num_frames();

        // OS residency (§4.5): handler code + PCBs at SRAM physical 0,
        // then the inverted page table; everything rounded up to whole
        // pages and pinned.
        let os_layout = OsLayout::at(PhysAddr(KERNEL_BASE));
        let os_code_bytes = os_layout.code_bytes + 16 * 1024; // code + PCB array
        let table_base = PhysAddr(os_code_bytes);
        let mut ipt = InvertedPageTable::new(num_frames, table_base);
        let os_bytes = os_code_bytes + ipt.table_bytes();
        let pinned_frames = os_bytes.div_ceil(page.get()) as u32;
        assert!(
            pinned_frames < num_frames,
            "OS region ({os_bytes} bytes) leaves no user frames at page size {page}"
        );
        for i in 0..pinned_frames {
            let Some(f) = ipt.alloc_free() else {
                // The assert above guarantees pinned_frames < num_frames,
                // so a fresh table cannot run out of free frames here.
                unreachable!("RAMpage init: fresh table has free frames");
            };
            debug_assert_eq!(f, FrameId(i), "pinned frames are the low frames");
            ipt.insert_pinned(f, KERNEL_ASID, Vpn(i as u64));
        }
        if let Some(k) = rcfg.standby_pages {
            let user_frames = (num_frames - pinned_frames) as usize;
            assert!(
                2 * k < user_frames,
                "standby capacity {k} too large for {user_frames} user frames"
            );
        }

        Rampage {
            ipt,
            clock: ClockReplacer::new(),
            standby: rcfg.standby_pages.map(StandbyList::new),
            page,
            switch_on_miss: cfg.switch_on_miss,
            fault_probes: Vec::new(),
            pinned_frames,
            prefetch_next: rcfg.prefetch_next,
        }
    }

    /// Serve an L1 miss from SRAM main memory. Never goes to DRAM
    /// (presence was established by translation). Returns stall cycles.
    pub(super) fn l1_miss(&mut self, eviction: Option<Eviction>, m: &mut Metrics) -> u64 {
        // A plain SRAM read, no tag check — 12 cycles (§4.3).
        let mut stall = L1_MISS_PENALTY;
        m.time.l2_sram_cycles += L1_MISS_PENALTY;
        if let Some(ev) = eviction.filter(|ev| ev.dirty) {
            // Write-back into SRAM: 9 cycles, "since there is no L2
            // tag to update" (§4.3). The page becomes dirty.
            stall += RAMPAGE_WRITEBACK_PENALTY;
            m.time.l2_sram_cycles += RAMPAGE_WRITEBACK_PENALTY;
            let frame = FrameId((ev.addr.0 >> self.page.bits()) as u32);
            if self.ipt.mapping(frame).is_some() {
                self.ipt.set_dirty(frame);
            }
        }
        stall
    }

    /// The TLB-miss walk, entirely within SRAM (§2.3): probe the inverted
    /// page table and queue the refill handler's references. A miss keeps
    /// the probed addresses for the fault handler; a hit on a prefetched
    /// page proves the prefetch useful. Returns the probes walked and the
    /// frame, if the page is resident.
    pub(super) fn walk(
        &mut self,
        fe: &mut FrontEnd,
        asid: Asid,
        vpn: Vpn,
        m: &mut Metrics,
    ) -> (u64, Option<FrameId>) {
        let lk = self.ipt.lookup(asid, vpn);
        fe.os.tlb_refill(lk.probe_addrs, &mut fe.handler_buf);
        let (probes, found) = (lk.probes() as u64, lk.frame);
        match found {
            Some(frame) => {
                if self.ipt.take_prefetched(frame) {
                    m.counts.prefetches_useful += 1;
                }
            }
            None => {
                self.fault_probes.clear();
                self.fault_probes.extend_from_slice(lk.probe_addrs);
            }
        }
        (probes, found)
    }

    /// Evict the page in `victim`, invalidating its L1 blocks and
    /// scheduling a DRAM write-back of whatever dirty page leaves SRAM.
    /// Returns extra stall cycles. The frame is left unmapped.
    fn evict_page(
        &mut self,
        fe: &mut FrontEnd,
        victim: FrameId,
        now: Picos,
        m: &mut Metrics,
    ) -> u64 {
        let Some(&mapping) = self.ipt.mapping(victim) else {
            // Replacement invariant: the clock hand only selects frames
            // the IPT currently maps.
            unreachable!("RAMpage eviction: victim {victim} is mapped");
        };
        // A prefetched page dying unreferenced was wasted bandwidth; its
        // flag goes with the mapping.
        fe.tlb.flush_page(mapping.asid, mapping.vpn);
        let (mut stall, l1_dirty) = fe.sweep_l1(victim.base_addr(self.page), self.page.get(), m);
        let dirty = mapping.dirty || l1_dirty;
        self.ipt.remove_reserved(victim);
        let leaving = match self.standby.as_mut() {
            // Software victim cache: the page stands by instead of dying,
            // and only the page the list's overflow discards leaves SRAM;
            // its frame returns to the free pool.
            Some(standby) => standby
                .push(StandbyEntry {
                    asid: mapping.asid,
                    vpn: mapping.vpn,
                    frame: victim,
                    dirty,
                })
                .map(|discarded| {
                    self.ipt.release(discarded.frame);
                    (discarded.frame, discarded.dirty)
                }),
            // Reserved rather than freed: the caller maps the incoming
            // page straight into this frame.
            None => Some((victim, dirty)),
        };
        if let Some((frame, true)) = leaving {
            let tr = fe.dram(now, stall, self.page.get(), frame.0 as u64, m);
            stall += fe.dram_wait(tr.done, now, stall, m);
            m.counts.dram_writebacks += 1;
        }
        stall
    }

    /// Run the clock to pick and evict one victim, accounting the scan.
    /// Returns the victim frame (reserved and unmapped in non-standby
    /// mode; pushed onto the standby list otherwise) and the table
    /// addresses the scan read.
    fn clock_scan(
        &mut self,
        fe: &mut FrontEnd,
        stall: &mut u64,
        now: Picos,
        m: &mut Metrics,
    ) -> (FrameId, Vec<PhysAddr>) {
        let hand0 = self.clock.hand().0;
        let n = self.ipt.num_frames();
        let (victim, scanned) = self.clock.select_victim(&mut self.ipt);
        let scan_addrs: Vec<PhysAddr> = (0..scanned)
            .map(|i| self.ipt.entry_addr(FrameId((hand0 + i) % n)))
            .collect();
        fe.trace.emit(|| Event {
            at: now,
            dur: Picos::ZERO,
            kind: EventKind::ClockSweep,
            asid: ASID_NONE,
            arg: scanned as u64,
        });
        *stall += self.evict_page(fe, victim, now, m);
        (victim, scan_addrs)
    }

    /// Obtain an unmapped frame: the free pool first, then replacement.
    ///
    /// Without a standby list, the clock victim's frame is reserved and
    /// reused directly. With one, victims are pushed onto the standby
    /// list until its overflow discards the longest-standing page, whose
    /// frame then lands in the free pool (§3.2: "the page which is on
    /// the list longest is the one actually discarded"); the first
    /// post-warmup fault populates the list in a burst. Returns the
    /// frame and the table addresses any clock scans read.
    fn acquire_frame(
        &mut self,
        fe: &mut FrontEnd,
        stall: &mut u64,
        now: Picos,
        m: &mut Metrics,
    ) -> (FrameId, Vec<PhysAddr>) {
        if let Some(f) = self.ipt.alloc_free() {
            return (f, Vec::new());
        }
        if self.standby.is_none() {
            return self.clock_scan(fe, stall, now, m);
        }
        let mut scan_addrs = Vec::new();
        loop {
            // The victim lands on the standby list (its frame is not
            // reusable — the contents are standing by); an overflow
            // releases the oldest frame into the free pool.
            let (_victim, scans) = self.clock_scan(fe, stall, now, m);
            scan_addrs.extend(scans);
            if let Some(f) = self.ipt.alloc_free() {
                return (f, scan_addrs);
            }
        }
    }

    /// Soft fault: if the page still stands on the standby list, map it
    /// back and queue the fault handler's short software path (no scan,
    /// a single table update). Returns its frame.
    fn reclaim(
        &mut self,
        fe: &mut FrontEnd,
        asid: Asid,
        vpn: Vpn,
        m: &mut Metrics,
    ) -> Option<FrameId> {
        let e = self.standby.as_mut()?.reclaim(asid, vpn)?;
        m.counts.soft_faults += 1;
        self.ipt.insert(e.frame, asid, vpn);
        if e.dirty {
            self.ipt.set_dirty(e.frame);
        }
        let update = self.ipt.entry_addr(e.frame);
        fe.os
            .page_fault(&self.fault_probes, &[], &[update], &mut fe.handler_buf);
        Some(e.frame)
    }

    /// Hard fault, before its handler runs: find a frame (free pool
    /// first, then replacement) and queue the fault handler, which
    /// re-reads the faulting walk's probes and any scanned table entries
    /// (the DRAM-side translation lookup is folded into the handler
    /// instruction budget — see DESIGN.md).
    fn begin_fault(
        &mut self,
        fe: &mut FrontEnd,
        stall: &mut u64,
        now: Picos,
        m: &mut Metrics,
    ) -> FrameId {
        let (frame, scan_addrs) = self.acquire_frame(fe, stall, now, m);
        let updates = [self.ipt.entry_addr(frame)];
        fe.os.page_fault(
            &self.fault_probes,
            &scan_addrs,
            &updates,
            &mut fe.handler_buf,
        );
        frame
    }

    /// Hard fault, after its handler ran for `stall` cycles in total:
    /// transfer the page into `frame` (and maybe prefetch the next one).
    /// Returns the total stall and, with switch-on-miss, when the
    /// process can run again.
    #[expect(
        clippy::too_many_arguments,
        reason = "the fault's state crosses its handler run, which only the front end can make"
    )]
    fn finish_fault(
        &mut self,
        fe: &mut FrontEnd,
        asid: Asid,
        vpn: Vpn,
        frame: FrameId,
        mut stall: u64,
        now: Picos,
        m: &mut Metrics,
    ) -> (u64, Option<Picos>) {
        // Optional §3.2 extension: also bring in the next virtual page.
        // The prefetch frame is acquired *before* the demand mapping is
        // inserted (so replacement can never steal the demand frame),
        // and a page on the standby list is left for its cheaper soft
        // fault. Eviction work for the prefetch frame is charged like
        // any other; the transfer itself queues behind the demand
        // transfer and never stalls — its cost surfaces as channel
        // occupancy and as pollution when the speculation proves useless.
        let next = Vpn(vpn.0 + 1);
        let prefetch_frame = if self.prefetch_next
            && self.ipt.frame_of(asid, next).is_none()
            && self
                .standby
                .as_ref()
                .is_none_or(|sb| !sb.contains(asid, next))
        {
            Some(self.acquire_frame(fe, &mut stall, now, m).0)
        } else {
            None
        };

        // The demand page transfer itself.
        let page_bytes = self.page.get();
        let tr = fe.dram(now, stall, page_bytes, frame.0 as u64, m);
        m.counts.page_faults += 1;
        self.ipt.insert(frame, asid, vpn);
        fe.tlb.insert(asid, vpn, frame);
        m.hist
            .fault
            .record(tr.done.saturating_sub(now).cycles_ceil(fe.cycle));
        fe.trace.emit(|| Event {
            at: now,
            dur: tr.done.saturating_sub(now),
            kind: EventKind::PageFault,
            asid: asid.0,
            arg: vpn.0,
        });

        if let Some(pf) = prefetch_frame {
            fe.dram(tr.done, 0, page_bytes, pf.0 as u64, m);
            self.ipt.insert(pf, asid, next);
            self.ipt.set_prefetched(pf);
            m.counts.prefetches += 1;
        }

        if self.switch_on_miss {
            // The process blocks until the transfer completes; the CPU
            // will run someone else (§4.6). Software time already stalled.
            (stall, Some(tr.done))
        } else {
            (stall + fe.dram_wait(tr.done, now, stall, m), None)
        }
    }

    /// Copy the standby list's soft-fault count into the metrics.
    pub(super) fn finalize(&self, m: &mut Metrics) {
        if let Some(sb) = &self.standby {
            m.counts.soft_faults = sb.soft_faults();
        }
    }

    pub(super) fn label(&self) -> String {
        format!(
            "RAMpage ({} pages, {} frames, {} pinned)",
            self.page,
            self.ipt.num_frames(),
            self.pinned_frames
        )
    }
}

impl MemorySystem {
    /// The front end and the RAMpage level, which is the only one that
    /// page-faults.
    fn rampage(&mut self) -> (&mut FrontEnd, &mut Rampage) {
        match &mut self.below {
            Below::Rampage(r) => (&mut self.fe, r),
            // invariant: only the RAMpage walk reports a missing mapping.
            Below::Conventional(_) => unreachable!("only the RAMpage level page-faults"),
        }
    }

    /// Handle a RAMpage page fault at `now`: a soft fault from the
    /// standby list, or a hard fault's frame, handler and DRAM transfer.
    /// Returns `(frame, stall, blocked_until)`.
    pub(super) fn page_fault(
        &mut self,
        asid: Asid,
        vpn: Vpn,
        now: Picos,
        m: &mut Metrics,
    ) -> (FrameId, u64, Option<Picos>) {
        let (fe, r) = self.rampage();
        if let Some(frame) = r.reclaim(fe, asid, vpn, m) {
            let stall = self.run_handler(HandlerKind::Fault, now, m);
            self.fe.tlb.insert(asid, vpn, frame);
            m.hist.fault.record(stall);
            let cycle = self.fe.cycle;
            self.fe.trace.emit(|| Event {
                at: now,
                dur: Picos(stall * cycle.0),
                kind: EventKind::SoftFault,
                asid: asid.0,
                arg: vpn.0,
            });
            return (frame, stall, None);
        }
        let mut stall = 0;
        let frame = r.begin_fault(fe, &mut stall, now, m);
        stall += self.run_handler(HandlerKind::Fault, now, m);
        let (fe, r) = self.rampage();
        let (stall, blocked) = r.finish_fault(fe, asid, vpn, frame, stall, now, m);
        (frame, stall, blocked)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HierarchyKind;
    use crate::time::IssueRate;
    use rampage_trace::TraceRecord;

    fn system(page: u64) -> MemorySystem {
        MemorySystem::new(&SystemConfig::rampage(IssueRate::GHZ1, page))
    }

    /// The RAMpage level below a system's front end.
    fn level(s: &MemorySystem) -> &Rampage {
        match &s.below {
            Below::Rampage(r) => r,
            Below::Conventional(_) => unreachable!("a RAMpage configuration"),
        }
    }

    /// Frames left for user pages once the OS region is pinned.
    fn user_frames(s: &MemorySystem) -> u64 {
        let r = level(s);
        u64::from(r.ipt.num_frames() - r.pinned_frames)
    }

    #[test]
    fn pinned_region_matches_paper_scale() {
        // §4.5: "6 pages of the SRAM main memory when simulating a
        // 4 Kbyte SRAM page ... up to 5336 pages for a 128 byte block
        // size". Our OS model reproduces the order of magnitude.
        let big = level(&system(4096)).pinned_frames;
        assert!((5..=16).contains(&big), "4 KB pages pin {big} frames");
        let small = level(&system(128)).pinned_frames;
        assert!(
            (4000..=8000).contains(&small),
            "128 B pages pin {small} frames"
        );
    }

    #[test]
    fn cold_access_faults_and_transfers_page() {
        let mut s = system(1024);
        let mut m = Metrics::default();
        let out = s.access_user(Asid(1), TraceRecord::read(0x1000), Picos::ZERO, &mut m);
        assert_eq!(m.counts.page_faults, 1);
        assert!(m.counts.tlb_handler_refs > 0);
        assert!(m.counts.fault_handler_refs > 0);
        assert!(m.time.dram_cycles > 0, "page transfer charged");
        assert!(out.stall_cycles > 1000, "1 KB page at 1 GHz ≈ 1330 cycles");
    }

    #[test]
    fn warm_access_is_free() {
        let mut s = system(1024);
        let mut m = Metrics::default();
        s.access_user(Asid(1), TraceRecord::read(0x1000), Picos::ZERO, &mut m);
        let out = s.access_user(Asid(1), TraceRecord::read(0x1010), Picos::ZERO, &mut m);
        assert_eq!(out.stall_cycles, 0, "TLB warm, L1 warm (same block)");
    }

    #[test]
    fn tlb_miss_on_resident_page_stays_in_sram() {
        let mut s = system(128);
        let mut m = Metrics::default();
        // Touch 70 distinct pages: evicts some TLB entries (64-entry TLB)
        // but all pages stay resident in SRAM.
        for i in 0..70u64 {
            s.access_user(
                Asid(1),
                TraceRecord::read(0x10000 + i * 128),
                Picos::ZERO,
                &mut m,
            );
        }
        let faults_before = m.counts.page_faults;
        let dram_before = m.time.dram_cycles;
        // Page 0x10000 was touched 70 pages ago: TLB-cold, SRAM-resident.
        s.access_user(Asid(1), TraceRecord::read(0x10000), Picos::ZERO, &mut m);
        assert_eq!(m.counts.page_faults, faults_before, "no new fault");
        assert_eq!(m.time.dram_cycles, dram_before, "TLB refill never hit DRAM");
    }

    #[test]
    fn page_replacement_evicts_and_writes_back_dirty() {
        // 4 KB pages: 1025 frames, ~7 pinned → ~1018 user frames. Touch
        // more pages than that with writes to force dirty replacements.
        let mut s = system(4096);
        let mut m = Metrics::default();
        let user_frames = user_frames(&s);
        for i in 0..(user_frames + 50) {
            s.access_user(Asid(1), TraceRecord::write(i * 4096), Picos::ZERO, &mut m);
        }
        assert!(
            m.counts.page_faults > user_frames,
            "every touch faults once, then replacements begin"
        );
        assert!(m.counts.dram_writebacks > 0, "dirty pages written back");
        // Note: TLB flushes on replacement are rare here because the
        // 64-entry TLB evicted those translations by capacity long before
        // the clock reached their pages (flush behaviour itself is
        // unit-tested in rampage-vm).
    }

    #[test]
    fn replacing_a_tlb_resident_page_flushes_its_entry() {
        let mut s = system(4096);
        let mut m = Metrics::default();
        let user_frames = user_frames(&s);
        // Fill memory, then re-touch the first 32 pages so they are both
        // TLB-resident and clock-victims-to-be (referenced bits get a
        // second chance, but the sweep clears them and later picks them).
        for i in 0..user_frames {
            s.access_user(Asid(1), TraceRecord::read(i * 4096), Picos::ZERO, &mut m);
        }
        for i in 0..32u64 {
            s.access_user(Asid(1), TraceRecord::read(i * 4096), Picos::ZERO, &mut m);
        }
        // Fault in enough new pages that the clock wraps over pages 0..32
        // while their TLB entries are still live.
        for i in 0..64u64 {
            s.access_user(
                Asid(1),
                TraceRecord::read((user_frames + i) * 4096),
                Picos::ZERO,
                &mut m,
            );
        }
        s.finalize(&mut m);
        assert!(m.counts.tlb.flushes > 0, "some replaced page was TLB-hot");
    }

    #[test]
    fn switch_on_miss_blocks_instead_of_stalling() {
        let mut cfg = SystemConfig::rampage_switching(IssueRate::GHZ1, 4096);
        cfg.switch_trace = true;
        let mut s = MemorySystem::new(&cfg);
        let mut m = Metrics::default();
        let out = s.access_user(Asid(1), TraceRecord::read(0x4000), Picos::ZERO, &mut m);
        let ready = out.blocked_until.expect("fault must block");
        // The transfer takes 50 ns + 4096/2 × 1.25 ns = 2610 ns.
        assert!(ready >= Picos::from_nanos(2610));
        // Software time still stalls, but far less than the transfer.
        assert!(out.stall_cycles < 2610);
        assert_eq!(
            m.time.dram_cycles, 0,
            "transfer overlaps execution, not charged as stall"
        );
    }

    #[test]
    fn standby_list_serves_soft_faults() {
        let mut cfg = SystemConfig::rampage(IssueRate::GHZ1, 4096);
        if let HierarchyKind::Rampage(ref mut r) = cfg.hierarchy {
            r.standby_pages = Some(64);
        }
        let mut s = MemorySystem::new(&cfg);
        let mut m = Metrics::default();
        let user_frames = user_frames(&s);
        // Fill all user frames, then touch a few more to push the first
        // pages onto the standby list.
        for i in 0..(user_frames + 8) {
            s.access_user(Asid(1), TraceRecord::read(i * 4096), Picos::ZERO, &mut m);
        }
        // A recently replaced page is still standing by. (Page 0 is not:
        // the standby burst filled the list with pages 0..64 and the 8
        // subsequent faults discarded the oldest few, so pick page 20.)
        let dram_before = m.time.dram_cycles;
        let faults_before = m.counts.page_faults;
        s.access_user(Asid(1), TraceRecord::read(20 * 4096), Picos::ZERO, &mut m);
        s.finalize(&mut m);
        assert!(m.counts.soft_faults >= 1, "standby reclaim happened");
        assert_eq!(m.counts.page_faults, faults_before, "no DRAM page transfer");
        assert_eq!(m.time.dram_cycles, dram_before);
    }

    #[test]
    fn l1_writeback_marks_page_dirty_for_replacement() {
        let mut s = system(4096);
        let mut m = Metrics::default();
        // Write into a page, then force its L1 block out via a conflicting
        // address (L1 is 16 KB: +16 KB aliases the same set).
        s.access_user(Asid(1), TraceRecord::write(0x8000), Picos::ZERO, &mut m);
        s.access_user(
            Asid(1),
            TraceRecord::read(0x8000 + 16 * 1024),
            Picos::ZERO,
            &mut m,
        );
        // Now replace every page and count write-backs: page 0x8000 was
        // dirtied purely by the L1 write-back path.
        let user_frames = user_frames(&s);
        for i in 2..(user_frames + 2) {
            s.access_user(
                Asid(1),
                TraceRecord::read(i * 4096 + 0x100000),
                Picos::ZERO,
                &mut m,
            );
        }
        assert!(
            m.counts.dram_writebacks >= 1,
            "dirty page went back to DRAM"
        );
    }

    #[test]
    fn prefetch_next_page_avoids_sequential_faults() {
        let mut cfg = SystemConfig::rampage(IssueRate::GHZ1, 1024);
        if let HierarchyKind::Rampage(ref mut r) = cfg.hierarchy {
            r.prefetch_next = true;
        }
        let mut s = MemorySystem::new(&cfg);
        let mut m = Metrics::default();
        // A pure sequential page walk: after the first fault, every next
        // page should already be prefetched (only odd-indexed pages
        // fault: each fault prefetches page n+1).
        for i in 0..64u64 {
            s.access_user(Asid(1), TraceRecord::read(i * 1024), Picos::ZERO, &mut m);
        }
        assert!(
            m.counts.prefetches > 20,
            "prefetches: {}",
            m.counts.prefetches
        );
        assert!(
            m.counts.page_faults <= 34,
            "~half the faults avoided: {}",
            m.counts.page_faults
        );
        assert!(
            m.counts.prefetches_useful > 20,
            "sequential walk uses its prefetches: {}",
            m.counts.prefetches_useful
        );
    }

    /// One read of page `page` (4 KB pages) by ASID 1.
    fn touch(s: &mut MemorySystem, m: &mut Metrics, page: u64) {
        s.access_user(Asid(1), TraceRecord::read(page * 4096), Picos::ZERO, m);
    }

    #[test]
    fn a_prefetch_is_useful_once_and_only_if_walked_to() {
        for standby in [None, Some(16)] {
            let mut cfg = SystemConfig::rampage(IssueRate::GHZ1, 4096);
            if let HierarchyKind::Rampage(ref mut r) = cfg.hierarchy {
                r.prefetch_next = true;
                r.standby_pages = standby;
            }
            let mut s = MemorySystem::new(&cfg);
            let mut m = Metrics::default();
            let counts = |m: &Metrics| (m.counts.prefetches, m.counts.prefetches_useful);
            // Page 0 faults and prefetches page 1. The first walk to
            // page 1 proves the prefetch useful; a second walk (after
            // a TLB flush) counts nothing more.
            touch(&mut s, &mut m, 0);
            assert_eq!(counts(&m), (1, 0), "{standby:?}");
            touch(&mut s, &mut m, 1);
            assert_eq!(counts(&m), (1, 1), "{standby:?}");
            s.fe.tlb.flush_page(Asid(1), Vpn(1));
            touch(&mut s, &mut m, 1);
            assert_eq!(counts(&m), (1, 1), "{standby:?}");
            // Page d faults and prefetches d + 1, which nothing uses.
            // Faulting pages in downwards from d (the next page of each
            // is resident, so none prefetches) fills memory until the
            // clock evicts d + 1.
            let d = 1 << 20;
            touch(&mut s, &mut m, d);
            let mut page = d;
            while level(&s).ipt.frame_of(Asid(1), Vpn(d + 1)).is_some() {
                page -= 1;
                touch(&mut s, &mut m, page);
            }
            assert!(d - page > user_frames(&s) / 2, "{standby:?}");
            assert_eq!(counts(&m), (2, 1), "{standby:?}");
            // Coming back to d + 1 is a fault (a soft one from the
            // standby list), and walks to it prove nothing either.
            touch(&mut s, &mut m, d + 1);
            s.fe.tlb.flush_page(Asid(1), Vpn(d + 1));
            touch(&mut s, &mut m, d + 1);
            assert_eq!(m.counts.prefetches_useful, 1, "{standby:?}");
        }
    }

    #[test]
    fn prefetch_works_with_standby_after_warmup() {
        // Regression guard for the standby/prefetch interaction: the
        // prefetch frame must come from the free pool (standby overflow),
        // never from a frame whose contents are standing by.
        let mut cfg = SystemConfig::rampage(IssueRate::GHZ1, 4096);
        if let HierarchyKind::Rampage(ref mut r) = cfg.hierarchy {
            r.prefetch_next = true;
            r.standby_pages = Some(32);
        }
        let mut s = MemorySystem::new(&cfg);
        let mut m = Metrics::default();
        let user_frames = user_frames(&s);
        for i in 0..(2 * user_frames) {
            s.access_user(Asid(1), TraceRecord::read(i * 4096), Picos::ZERO, &mut m);
        }
        assert!(m.counts.prefetches > 0);
        assert!(m.counts.soft_faults > 0 || m.counts.page_faults > 0);
    }

    #[test]
    fn a_repeated_fetch_misses_again_once_its_block_or_translation_goes() {
        let mut s = system(4096);
        let mut m = Metrics::default();
        // User frames come out in order, so one of pages 0..4 sits at a
        // frame that is 1 mod 4: its first L1i block shares a line of
        // the 16 KB direct-mapped L1i with the switch code at 0x1000.
        for page in 0..4 {
            touch(&mut s, &mut m, page);
        }
        let page = (0..4)
            .find(|&p| s.fe.tlb.peek(Asid(1), Vpn(p)).is_some_and(|f| f.0 % 4 == 1))
            .unwrap();
        // The TLB and L1i misses one fetch from the page's first block
        // adds.
        let fetch = |s: &mut MemorySystem, m: &mut Metrics| {
            let misses = |s: &MemorySystem| {
                let (tlb, l1i) = (s.fe.tlb.stats(), s.fe.l1i.stats());
                (tlb.misses, l1i.read_misses)
            };
            let before = misses(s);
            s.access_user(Asid(1), TraceRecord::fetch(page * 4096 + 8), Picos::ZERO, m);
            let after = misses(s);
            (after.0 - before.0, after.1 - before.1)
        };
        fetch(&mut s, &mut m);
        assert_eq!(fetch(&mut s, &mut m), (0, 0), "a repeat hits both");
        // The switch code evicts the block; the translation stays.
        s.run_switch(0, 1, Picos::ZERO, &mut m);
        assert_eq!(fetch(&mut s, &mut m), (0, 1), "L1i miss");
        assert_eq!(fetch(&mut s, &mut m), (0, 0));
        // The translation goes; the block stays.
        s.fe.tlb.flush_page(Asid(1), Vpn(page));
        assert_eq!(fetch(&mut s, &mut m), (1, 0), "TLB miss");
        assert_eq!(fetch(&mut s, &mut m), (0, 0));
    }

    #[test]
    fn kernel_asid_is_isolated_from_users() {
        let mut s = system(1024);
        let mut m = Metrics::default();
        // User ASID u16::MAX-1 is fine; the kernel ASID is reserved but a
        // user using high ASIDs must not collide with pinned pages.
        let out = s.access_user(
            Asid(u16::MAX - 1),
            TraceRecord::read(0),
            Picos::ZERO,
            &mut m,
        );
        assert!(out.stall_cycles > 0);
        assert_eq!(m.counts.page_faults, 1);
    }
}
