//! The RAMpage hierarchy: SRAM main memory over a DRAM paging device
//! (paper §2, §4.5, §4.6).

use crate::channel::ChannelSet;
use crate::config::{HierarchyKind, SystemConfig, L1_MISS_PENALTY, RAMPAGE_WRITEBACK_PENALTY};
use crate::metrics::Metrics;
use crate::obs::{Event, EventKind, TraceSink, ASID_NONE};
use crate::system::{AccessOutcome, MemorySystem};
use rampage_cache::{Cache, PhysAddr, ReplacementPolicy, WriteBuffer};
use rampage_dram::Picos;
use rampage_trace::{AccessKind, Asid, TraceRecord};
use rampage_vm::os::{HandlerRef, OsLayout, OsModel};
use rampage_vm::{ClockReplacer, FrameId, InvertedPageTable, PageSize, StandbyList, Tlb, Vpn};

/// ASID reserved for the pinned OS region.
const KERNEL_ASID: Asid = Asid(u16::MAX);

#[derive(Clone, Copy, PartialEq, Eq)]
enum HandlerKind {
    TlbRefill,
    Fault,
    Switch,
}

/// The RAMpage system.
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
pub struct Rampage {
    cycle: Picos,
    l1i: Cache,
    l1d: Cache,
    tlb: Tlb,
    ipt: InvertedPageTable,
    clock: ClockReplacer,
    standby: Option<StandbyList>,
    page: PageSize,
    os: OsModel,
    channel: ChannelSet,
    switch_on_miss: bool,
    handler_buf: Vec<HandlerRef>,
    /// The table addresses the faulting TLB-miss walk probed, which the
    /// fault handler reads again (reused across faults).
    fault_probes: Vec<PhysAddr>,
    /// Frames pinned for OS code + page table (never replaced).
    pinned_frames: u32,
    /// Write buffer (perfect in the paper's configuration, §4.3).
    wbuf: WriteBuffer,
    /// Sequential next-page prefetch on faults (§3.2 extension).
    prefetch_next: bool,
    /// Prefetched pages not yet referenced, for usefulness accounting.
    prefetched: std::collections::HashSet<(Asid, Vpn)>,
    /// Event-trace sink shared with the engine (disabled by default).
    trace: TraceSink,
}

impl Rampage {
    /// Build from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.hierarchy` is not [`HierarchyKind::Rampage`], or if
    /// the OS pinned region would leave no user frames.
    pub fn new(cfg: &SystemConfig) -> Self {
        let rcfg = match cfg.hierarchy {
            HierarchyKind::Rampage(r) => r,
            HierarchyKind::Conventional(_) => panic!("RAMpage system given a cache config"),
        };
        let page = rcfg.page_size;
        let num_frames = rcfg.num_frames();

        // OS residency (§4.5): handler code + PCBs at SRAM physical 0,
        // then the inverted page table; everything rounded up to whole
        // pages and pinned.
        let os_layout = OsLayout::at(PhysAddr(0));
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
            cycle: cfg.issue.cycle(),
            l1i: Cache::new(cfg.l1.geometry(), ReplacementPolicy::Lru),
            l1d: Cache::new(cfg.l1.geometry(), ReplacementPolicy::Lru),
            tlb: Tlb::new(cfg.tlb.sets, cfg.tlb.ways, 0x71b_5eed),
            ipt,
            clock: ClockReplacer::new(),
            standby: rcfg.standby_pages.map(StandbyList::new),
            page,
            os: OsModel::new(cfg.os_costs, os_layout),
            channel: ChannelSet::new(cfg.dram, cfg.dram_channels),
            switch_on_miss: cfg.switch_on_miss,
            handler_buf: Vec::with_capacity(1024),
            fault_probes: Vec::new(),
            pinned_frames,
            wbuf: cfg
                .write_buffer_depth
                .map(WriteBuffer::with_depth)
                .unwrap_or_default(),
            prefetch_next: rcfg.prefetch_next,
            prefetched: std::collections::HashSet::new(),
            trace: TraceSink::disabled(),
        }
    }

    /// Frames pinned for the OS (reproduces the paper's §4.5 numbers).
    pub fn pinned_frames(&self) -> u32 {
        self.pinned_frames
    }

    /// Total SRAM frames.
    pub fn total_frames(&self) -> u32 {
        self.ipt.num_frames()
    }

    /// One physical reference through L1 → SRAM main memory. Never goes
    /// to DRAM (presence was established by translation). `at` is the
    /// absolute time the reference issues (event timestamps only — the
    /// SRAM service itself is time-independent). Returns stall cycles.
    fn access_phys(&mut self, pa: PhysAddr, kind: AccessKind, at: Picos, m: &mut Metrics) -> u64 {
        let l1 = match kind {
            AccessKind::InstrFetch => &mut self.l1i,
            _ => &mut self.l1d,
        };
        let res = l1.access(pa, kind.is_write());
        if res.hit {
            // Write hits go to the write buffer — free when perfect
            // (§4.3), a drain stall when a finite buffer is full.
            if kind.is_write() && !self.wbuf.push() {
                m.counts.write_buffer_stalls += 1;
                m.time.l2_sram_cycles += RAMPAGE_WRITEBACK_PENALTY;
                self.wbuf.drain(1);
                let ok = self.wbuf.push();
                debug_assert!(ok, "buffer has space after draining");
                return RAMPAGE_WRITEBACK_PENALTY;
            }
            return 0;
        }
        // L1 miss: a plain SRAM read, no tag check — 12 cycles (§4.3).
        let mut stall = L1_MISS_PENALTY;
        m.time.l2_sram_cycles += L1_MISS_PENALTY;
        if let Some(ev) = res.eviction {
            if ev.dirty {
                // Write-back into SRAM: 9 cycles, "since there is no L2
                // tag to update" (§4.3). The page becomes dirty.
                stall += RAMPAGE_WRITEBACK_PENALTY;
                m.time.l2_sram_cycles += RAMPAGE_WRITEBACK_PENALTY;
                let frame = FrameId((ev.addr.0 >> self.page.bits()) as u32);
                if self.ipt.mapping(frame).is_some() {
                    self.ipt.set_dirty(frame);
                }
            }
        }
        let cycle = self.cycle;
        self.trace.emit(|| Event {
            at,
            dur: Picos(stall * cycle.0),
            kind: match kind {
                AccessKind::InstrFetch => EventKind::L1iMiss,
                _ => EventKind::L1dMiss,
            },
            asid: ASID_NONE,
            arg: pa.0,
        });
        // Stall cycles are drain opportunities for the write buffer.
        self.wbuf
            .drain((stall / RAMPAGE_WRITEBACK_PENALTY) as usize);
        stall
    }

    /// Run buffered handler references (all SRAM-resident by
    /// construction: handler code and tables are pinned). `now` is the
    /// handler's entry time (event timestamps only).
    fn run_handler(&mut self, kind: HandlerKind, now: Picos, m: &mut Metrics) -> u64 {
        let refs = std::mem::take(&mut self.handler_buf);
        let mut stall = 0u64;
        for r in &refs {
            if r.kind == AccessKind::InstrFetch {
                stall += 1;
                m.time.l1i_cycles += 1;
            }
            let at = now + Picos(stall * self.cycle.0);
            stall += self.access_phys(r.addr, r.kind, at, m);
        }
        match kind {
            HandlerKind::TlbRefill => m.counts.tlb_handler_refs += refs.len() as u64,
            HandlerKind::Fault => m.counts.fault_handler_refs += refs.len() as u64,
            HandlerKind::Switch => m.counts.switch_refs += refs.len() as u64,
        }
        self.handler_buf = refs;
        self.handler_buf.clear();
        stall
    }

    /// Evict the page in `victim`, invalidating its L1 blocks (charged as
    /// probes) and scheduling a DRAM write-back if dirty. Returns extra
    /// stall cycles. The frame is left unmapped and free.
    fn evict_page(&mut self, victim: FrameId, now: Picos, m: &mut Metrics) -> u64 {
        let Some(&mapping) = self.ipt.mapping(victim) else {
            // Replacement invariant: the clock hand only selects frames
            // the IPT currently maps.
            unreachable!("RAMpage eviction: victim {victim} is mapped");
        };
        // A prefetched page dying unreferenced was wasted bandwidth.
        self.prefetched.remove(&(mapping.asid, mapping.vpn));
        self.tlb.flush_page(mapping.asid, mapping.vpn);
        let base = victim.base_addr(self.page);
        let mut stall = 0u64;
        let mut dirty = mapping.dirty;
        let mut wb_cycles = 0u64;
        let mut probes = 0u64;
        for l1 in [&mut self.l1i, &mut self.l1d] {
            probes += l1.invalidate_region(base, self.page.get(), |e| {
                if e.dirty {
                    dirty = true;
                    wb_cycles += RAMPAGE_WRITEBACK_PENALTY;
                }
            });
        }
        m.counts.inclusion_probes += probes;
        m.time.l1i_cycles += probes / 2;
        m.time.l1d_cycles += probes - probes / 2;
        m.time.l2_sram_cycles += wb_cycles;
        stall += probes + wb_cycles;

        if let Some(standby) = self.standby.as_mut() {
            // Software victim cache: the page stands by instead of dying.
            let Some(removed) = self.ipt.remove_reserved(victim) else {
                // Same replacement invariant: the mapping was read above.
                unreachable!("RAMpage eviction: victim {victim} is mapped");
            };
            let out = standby.push(rampage_vm::StandbyEntry {
                asid: removed.asid,
                vpn: removed.vpn,
                frame: victim,
                dirty: dirty || removed.dirty,
            });
            if let Some(discarded) = out {
                if discarded.dirty {
                    let at = now + Picos(stall * self.cycle.0);
                    let tr = self
                        .channel
                        .request(at, self.page.get(), discarded.frame.0 as u64);
                    let wb = tr.done.saturating_sub(now).cycles_ceil(self.cycle) - stall;
                    m.time.dram_cycles += wb;
                    m.counts.dram_writebacks += 1;
                    m.hist
                        .dram
                        .record(tr.done.saturating_sub(at).cycles_ceil(self.cycle));
                    let page_bytes = self.page.get();
                    self.trace.emit(|| Event {
                        at: tr.start,
                        dur: tr.done.saturating_sub(tr.start),
                        kind: EventKind::DramTransfer,
                        asid: ASID_NONE,
                        arg: page_bytes,
                    });
                    stall += wb;
                }
                self.ipt.release(discarded.frame);
            }
        } else {
            // Reserve rather than free: the caller maps the incoming page
            // straight into this frame.
            self.ipt.remove_reserved(victim);
            if dirty {
                let at = now + Picos(stall * self.cycle.0);
                let tr = self.channel.request(at, self.page.get(), victim.0 as u64);
                let wb = tr.done.saturating_sub(now).cycles_ceil(self.cycle) - stall;
                m.time.dram_cycles += wb;
                m.counts.dram_writebacks += 1;
                m.hist
                    .dram
                    .record(tr.done.saturating_sub(at).cycles_ceil(self.cycle));
                let page_bytes = self.page.get();
                self.trace.emit(|| Event {
                    at: tr.start,
                    dur: tr.done.saturating_sub(tr.start),
                    kind: EventKind::DramTransfer,
                    asid: ASID_NONE,
                    arg: page_bytes,
                });
                stall += wb;
            }
        }
        stall
    }

    /// Run the clock to pick and evict one victim, accounting the scan.
    /// Returns the victim frame (reserved and unmapped in non-standby
    /// mode; pushed onto the standby list otherwise) and the table
    /// addresses the scan read.
    fn clock_scan(
        &mut self,
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
        self.trace.emit(|| Event {
            at: now,
            dur: Picos::ZERO,
            kind: EventKind::ClockSweep,
            asid: ASID_NONE,
            arg: scanned as u64,
        });
        *stall += self.evict_page(victim, now, m);
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
        stall: &mut u64,
        now: Picos,
        m: &mut Metrics,
    ) -> (FrameId, Vec<PhysAddr>) {
        if let Some(f) = self.ipt.alloc_free() {
            return (f, Vec::new());
        }
        if self.standby.is_none() {
            return self.clock_scan(stall, now, m);
        }
        let mut scan_addrs = Vec::new();
        loop {
            // The victim lands on the standby list (its frame is not
            // reusable — the contents are standing by); an overflow
            // releases the oldest frame into the free pool.
            let (_victim, scans) = self.clock_scan(stall, now, m);
            scan_addrs.extend(scans);
            if let Some(f) = self.ipt.alloc_free() {
                return (f, scan_addrs);
            }
        }
    }

    /// Handle a page fault: find a frame, run the fault handler (which
    /// re-reads `fault_probes`), transfer the page from DRAM. Returns
    /// `(frame, stall, blocked_until)`.
    fn page_fault(
        &mut self,
        asid: Asid,
        vpn: Vpn,
        now: Picos,
        m: &mut Metrics,
    ) -> (FrameId, u64, Option<Picos>) {
        let mut stall = 0u64;

        // Soft fault: the page is still on the standby list.
        if let Some(standby) = self.standby.as_mut() {
            if let Some(e) = standby.reclaim(asid, vpn) {
                m.counts.soft_faults += 1;
                self.ipt.insert(e.frame, asid, vpn);
                if e.dirty {
                    self.ipt.set_dirty(e.frame);
                }
                // Only the (short) software path runs: reuse the fault
                // handler with no scan and a single table update.
                let update = self.ipt.entry_addr(e.frame);
                self.os
                    .page_fault(&self.fault_probes, &[], &[update], &mut self.handler_buf);
                stall += self.run_handler(HandlerKind::Fault, now, m);
                self.tlb.insert(asid, vpn, e.frame);
                m.hist.fault.record(stall);
                let cycle = self.cycle;
                self.trace.emit(|| Event {
                    at: now,
                    dur: Picos(stall * cycle.0),
                    kind: EventKind::SoftFault,
                    asid: asid.0,
                    arg: vpn.0,
                });
                return (e.frame, stall, None);
            }
        }

        // Choose a frame: free pool first, then replacement.
        let (frame, scan_addrs) = self.acquire_frame(&mut stall, now, m);

        // Fault-handler software (the DRAM-side translation lookup is
        // folded into the handler instruction budget — see DESIGN.md).
        let updates = [self.ipt.entry_addr(frame)];
        self.os.page_fault(
            &self.fault_probes,
            &scan_addrs,
            &updates,
            &mut self.handler_buf,
        );
        stall += self.run_handler(HandlerKind::Fault, now, m);

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
            Some(self.acquire_frame(&mut stall, now, m).0)
        } else {
            None
        };

        // The demand page transfer itself.
        let at = now + Picos(stall * self.cycle.0);
        let tr = self.channel.request(at, self.page.get(), frame.0 as u64);
        m.counts.page_faults += 1;
        self.ipt.insert(frame, asid, vpn);
        self.tlb.insert(asid, vpn, frame);
        m.hist
            .dram
            .record(tr.done.saturating_sub(at).cycles_ceil(self.cycle));
        m.hist
            .fault
            .record(tr.done.saturating_sub(now).cycles_ceil(self.cycle));
        let page_bytes = self.page.get();
        self.trace.emit(|| Event {
            at: tr.start,
            dur: tr.done.saturating_sub(tr.start),
            kind: EventKind::DramTransfer,
            asid: ASID_NONE,
            arg: page_bytes,
        });
        self.trace.emit(|| Event {
            at: now,
            dur: tr.done.saturating_sub(now),
            kind: EventKind::PageFault,
            asid: asid.0,
            arg: vpn.0,
        });

        if let Some(pf) = prefetch_frame {
            let ptr = self.channel.request(tr.done, self.page.get(), pf.0 as u64);
            self.ipt.insert(pf, asid, next);
            self.prefetched.insert((asid, next));
            m.counts.prefetches += 1;
            m.hist
                .dram
                .record(ptr.done.saturating_sub(tr.done).cycles_ceil(self.cycle));
            self.trace.emit(|| Event {
                at: ptr.start,
                dur: ptr.done.saturating_sub(ptr.start),
                kind: EventKind::DramTransfer,
                asid: ASID_NONE,
                arg: page_bytes,
            });
        }

        if self.switch_on_miss {
            // The process blocks until the transfer completes; the CPU
            // will run someone else (§4.6). Software time already stalled.
            (frame, stall, Some(tr.done))
        } else {
            let total = tr.done.saturating_sub(now).cycles_ceil(self.cycle);
            let dram = total.saturating_sub(stall);
            m.time.dram_cycles += dram;
            (frame, stall + dram, None)
        }
    }
}

impl MemorySystem for Rampage {
    fn access_user(
        &mut self,
        asid: Asid,
        rec: TraceRecord,
        now: Picos,
        m: &mut Metrics,
    ) -> AccessOutcome {
        let vpn = self.page.vpn(rec.addr);
        let mut stall = 0u64;
        let mut blocked_until = None;
        let frame = match self.tlb.lookup(asid, vpn) {
            Some(f) => f,
            None => {
                // TLB refill entirely within SRAM (§2.3).
                let lk = self.ipt.lookup(asid, vpn);
                self.os.tlb_refill(lk.probe_addrs, &mut self.handler_buf);
                let probes = lk.probes() as u64;
                let found = lk.frame;
                if found.is_none() {
                    self.fault_probes.clear();
                    self.fault_probes.extend_from_slice(lk.probe_addrs);
                }
                let refill = self.run_handler(HandlerKind::TlbRefill, now, m);
                stall += refill;
                m.hist.tlb.record(refill);
                let cycle = self.cycle;
                self.trace.emit(|| Event {
                    at: now,
                    dur: Picos(refill * cycle.0),
                    kind: EventKind::TlbMiss,
                    asid: asid.0,
                    arg: probes,
                });
                match found {
                    Some(f) => {
                        if self.prefetched.remove(&(asid, vpn)) {
                            m.counts.prefetches_useful += 1;
                        }
                        self.tlb.insert(asid, vpn, f);
                        f
                    }
                    None => {
                        let at = now + Picos(stall * self.cycle.0);
                        let (f, fault_stall, blocked) = self.page_fault(asid, vpn, at, m);
                        stall += fault_stall;
                        blocked_until = blocked;
                        f
                    }
                }
            }
        };
        let pa = PhysAddr(frame.base_addr(self.page).0 + self.page.offset(rec.addr));
        let at = now + Picos(stall * self.cycle.0);
        stall += self.access_phys(pa, rec.kind, at, m);
        AccessOutcome {
            stall_cycles: stall,
            blocked_until,
        }
    }

    fn run_switch(&mut self, from: usize, to: usize, now: Picos, m: &mut Metrics) -> u64 {
        // Switch code and PCBs are pinned in SRAM (§4.6), so the whole
        // sequence is SRAM-resident.
        self.os.context_switch(from, to, &mut self.handler_buf);
        self.run_handler(HandlerKind::Switch, now, m)
    }

    fn finalize(&mut self, m: &mut Metrics) {
        m.counts.l1i = self.l1i.stats();
        m.counts.l1d = self.l1d.stats();
        m.counts.tlb = self.tlb.stats();
        if let Some(sb) = &self.standby {
            m.counts.soft_faults = sb.soft_faults();
        }
    }

    fn label(&self) -> String {
        format!(
            "RAMpage ({} pages, {} frames, {} pinned)",
            self.page,
            self.ipt.num_frames(),
            self.pinned_frames
        )
    }

    fn attach_trace(&mut self, sink: TraceSink) {
        self.trace = sink;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::time::IssueRate;

    fn system(page: u64) -> Rampage {
        Rampage::new(&SystemConfig::rampage(IssueRate::GHZ1, page))
    }

    #[test]
    fn pinned_region_matches_paper_scale() {
        // §4.5: "6 pages of the SRAM main memory when simulating a
        // 4 Kbyte SRAM page ... up to 5336 pages for a 128 byte block
        // size". Our OS model reproduces the order of magnitude.
        let big = system(4096);
        assert!(
            (5..=16).contains(&big.pinned_frames()),
            "4 KB pages pin {} frames",
            big.pinned_frames()
        );
        let small = system(128);
        assert!(
            (4000..=8000).contains(&small.pinned_frames()),
            "128 B pages pin {} frames",
            small.pinned_frames()
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
        let user_frames = (s.total_frames() - s.pinned_frames()) as u64;
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
        let user_frames = (s.total_frames() - s.pinned_frames()) as u64;
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
        let mut s = Rampage::new(&cfg);
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
        let mut s = Rampage::new(&cfg);
        let mut m = Metrics::default();
        let user_frames = (s.total_frames() - s.pinned_frames()) as u64;
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
        let user_frames = (s.total_frames() - s.pinned_frames()) as u64;
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
        let mut s = Rampage::new(&cfg);
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
        let mut s = Rampage::new(&cfg);
        let mut m = Metrics::default();
        let user_frames = (s.total_frames() - s.pinned_frames()) as u64;
        for i in 0..(2 * user_frames) {
            s.access_user(Asid(1), TraceRecord::read(i * 4096), Picos::ZERO, &mut m);
        }
        assert!(m.counts.prefetches > 0);
        assert!(m.counts.soft_faults > 0 || m.counts.page_faults > 0);
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
