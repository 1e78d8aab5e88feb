//! The two memory systems the paper compares, behind one front end.
//!
//! Both hierarchies share everything down to the L1s (§4.3–§4.5): split
//! 16 KB direct-mapped L1 I/D caches, a TLB, perfect write buffering, OS
//! handlers run as reference streams, and the Direct Rambus channel.
//! [`MemorySystem`] is that front end. Below it sits one of two levels,
//! which differ in what occupies the 4 MB SRAM level and who manages it:
//!
//! * `Conventional` — a hardware L2 cache (tags, inclusion, hardware
//!   replacement, an optional victim buffer and 3C classifier) over a
//!   DRAM page table;
//! * `Rampage` — a software-managed paged SRAM main memory (no tags,
//!   pinned inverted page table, clock replacement, standby list and
//!   prefetch, faults handled by simulated OS software).
//!
//! A reference that hits the TLB and its L1 never leaves the front end;
//! only an L1 or TLB miss reaches the level below.

mod conventional;
mod rampage;

use crate::channel::ChannelSet;
use crate::config::{
    HierarchyKind, SystemConfig, DRAM_PAGE_SIZE, L1_MISS_PENALTY, RAMPAGE_WRITEBACK_PENALTY,
};
use crate::metrics::Metrics;
use crate::obs::{Event, EventKind, TraceSink, ASID_NONE};
use conventional::Conventional;
use rampage::Rampage;
use rampage_cache::{Cache, PhysAddr, ReplacementPolicy, WriteBuffer};
use rampage_dram::{Picos, Transfer};
use rampage_trace::{AccessKind, Asid, TraceRecord};
use rampage_vm::os::{HandlerRef, OsLayout, OsModel};
use rampage_vm::{FrameId, PageSize, Tlb, Vpn};

/// Result of presenting one user reference to a memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AccessOutcome {
    /// CPU cycles the reference stalls beyond its base issue cycle
    /// (includes any software-handler execution the reference triggered).
    pub stall_cycles: u64,
    /// Set when the process must block on a DRAM page transfer instead of
    /// stalling (RAMpage with context-switch-on-miss): the absolute time
    /// at which the transfer completes and the process becomes runnable.
    pub blocked_until: Option<Picos>,
}

/// Which software activity a handler run is charged to.
#[derive(Clone, Copy, PartialEq, Eq)]
enum HandlerKind {
    TlbRefill,
    Fault,
    Switch,
}

/// A memory system under the simulator's L1-and-below accounting rules:
/// the shared front end over the level below L1 a configuration picks.
///
/// It charges time into the [`Metrics`] buckets as it goes (the engine
/// owns base instruction-issue time and idle time), returns per-reference
/// stall cycles, and owns the run's event ring.
pub struct MemorySystem {
    fe: FrontEnd,
    below: Below,
}

/// The level below the L1s.
#[expect(
    clippy::large_enum_variant,
    reason = "one per memory system, never stored in bulk"
)]
enum Below {
    Conventional(Conventional),
    Rampage(Rampage),
}

/// Everything both hierarchies share down to the L1s.
struct FrontEnd {
    cycle: Picos,
    /// Translation page: DRAM pages (conventional) or SRAM pages
    /// (RAMpage).
    page: PageSize,
    l1i: Cache,
    l1d: Cache,
    /// Write buffer (perfect in the paper's configuration, §4.3).
    wbuf: WriteBuffer,
    /// Cycles to write one dirty L1 block into the level below: the full
    /// L1 miss penalty with an L2 tag to update, 9 into RAMpage's tagless
    /// SRAM (§4.3).
    wb_penalty: u64,
    tlb: Tlb,
    os: OsModel,
    channel: ChannelSet,
    handler_buf: Vec<HandlerRef>,
    /// Event trace (disabled unless the engine enables it).
    trace: TraceSink,
}

impl MemorySystem {
    /// Build the memory system a configuration describes.
    ///
    /// # Panics
    ///
    /// Panics if a RAMpage configuration's pinned OS region would leave
    /// no user frames, or its standby list is too large for them.
    pub fn new(cfg: &SystemConfig) -> Self {
        let (below, page, os_base, wb_penalty) = match cfg.hierarchy {
            HierarchyKind::Conventional(l2) => {
                let Some(page) = PageSize::new(DRAM_PAGE_SIZE) else {
                    // invariant: DRAM_PAGE_SIZE is a power-of-two constant.
                    unreachable!("DRAM_PAGE_SIZE is a valid power-of-two constant");
                };
                let below = Below::Conventional(Conventional::new(cfg, l2));
                (below, page, conventional::KERNEL_BASE, L1_MISS_PENALTY)
            }
            HierarchyKind::Rampage(r) => {
                let below = Below::Rampage(Rampage::new(cfg, r));
                (
                    below,
                    r.page_size,
                    rampage::KERNEL_BASE,
                    RAMPAGE_WRITEBACK_PENALTY,
                )
            }
        };
        let fe = FrontEnd {
            cycle: cfg.issue.cycle(),
            page,
            l1i: Cache::new(cfg.l1.geometry(), ReplacementPolicy::Lru),
            l1d: Cache::new(cfg.l1.geometry(), ReplacementPolicy::Lru),
            wbuf: cfg
                .write_buffer_depth
                .map(WriteBuffer::with_depth)
                .unwrap_or_default(),
            wb_penalty,
            tlb: Tlb::new(cfg.tlb.sets, cfg.tlb.ways, 0x71b_5eed),
            os: OsModel::new(cfg.os_costs, OsLayout::at(PhysAddr(os_base))),
            channel: ChannelSet::new(cfg.dram, cfg.dram_channels),
            handler_buf: Vec::with_capacity(1024),
            trace: TraceSink::disabled(),
        };
        MemorySystem { fe, below }
    }

    /// Present one user reference at absolute time `now`.
    pub fn access_user(
        &mut self,
        asid: Asid,
        rec: TraceRecord,
        now: Picos,
        m: &mut Metrics,
    ) -> AccessOutcome {
        let page = self.fe.page;
        let vpn = page.vpn(rec.addr);
        let (frame, mut stall, blocked_until) = match self.fe.tlb.lookup(asid, vpn) {
            Some(frame) => (frame, 0, None),
            None => self.tlb_miss(asid, vpn, now, m),
        };
        let pa = PhysAddr(frame.base_addr(page).0 + page.offset(rec.addr));
        stall += self.access_phys(pa, rec.kind, self.fe.after(now, stall), m);
        AccessOutcome {
            stall_cycles: stall,
            blocked_until,
        }
    }

    /// Execute the ~400-reference context-switch code through the
    /// hierarchy; returns the stall cycles it took.
    pub fn run_switch(&mut self, from: usize, to: usize, now: Picos, m: &mut Metrics) -> u64 {
        self.fe
            .os
            .context_switch(from, to, &mut self.fe.handler_buf);
        self.run_handler(HandlerKind::Switch, now, m)
    }

    /// Copy internal cache/TLB statistics into the metrics at end of run.
    pub fn finalize(&self, m: &mut Metrics) {
        m.counts.l1i = self.fe.l1i.stats();
        m.counts.l1d = self.fe.l1d.stats();
        m.counts.tlb = self.fe.tlb.stats();
        match &self.below {
            Below::Conventional(c) => c.finalize(m),
            Below::Rampage(r) => r.finalize(m),
        }
    }

    /// A short description for reports.
    pub fn label(&self) -> String {
        match &self.below {
            Below::Conventional(c) => c.label(),
            Below::Rampage(r) => r.label(),
        }
    }

    /// The run's event trace. The engine enables and drains it, and
    /// records its switches and idle time there too.
    pub(crate) fn trace(&mut self) -> &mut TraceSink {
        &mut self.fe.trace
    }

    /// The TLB missed: walk the level's page table in a software refill
    /// handler, and page the translation in if the level faults.
    /// Returns the frame, the stall cycles, and when a blocked process
    /// can run again.
    fn tlb_miss(
        &mut self,
        asid: Asid,
        vpn: Vpn,
        now: Picos,
        m: &mut Metrics,
    ) -> (FrameId, u64, Option<Picos>) {
        let (probes, found) = match &mut self.below {
            Below::Conventional(c) => c.walk(&mut self.fe, asid, vpn),
            Below::Rampage(r) => r.walk(&mut self.fe, asid, vpn, m),
        };
        let refill = self.run_handler(HandlerKind::TlbRefill, now, m);
        m.hist.tlb.record(refill);
        let cycle = self.fe.cycle;
        self.fe.trace.emit(|| Event {
            at: now,
            dur: Picos(refill * cycle.0),
            kind: EventKind::TlbMiss,
            asid: asid.0,
            arg: probes,
        });
        let Some(frame) = found else {
            let (frame, stall, blocked) = self.page_fault(asid, vpn, self.fe.after(now, refill), m);
            return (frame, refill + stall, blocked);
        };
        self.fe.tlb.insert(asid, vpn, frame);
        (frame, refill, None)
    }

    /// One physical reference through the L1s, and below on a miss.
    /// `at` is the absolute time it issues. Returns stall cycles.
    fn access_phys(&mut self, pa: PhysAddr, kind: AccessKind, at: Picos, m: &mut Metrics) -> u64 {
        let res = self.fe.l1(kind).access(pa, kind.is_write());
        if res.hit {
            // Read/fetch hits are pipelined; write hits go to the buffer.
            return if kind.is_write() {
                self.fe.write_hit(m)
            } else {
                0
            };
        }
        let (stall, drains) = match &mut self.below {
            Below::Conventional(c) => c.l1_miss(&mut self.fe, pa, kind, res.eviction, at, m),
            Below::Rampage(r) => (r.l1_miss(res.eviction, m), true),
        };
        let cycle = self.fe.cycle;
        self.fe.trace.emit(|| Event {
            at,
            dur: Picos(stall * cycle.0),
            kind: match kind {
                AccessKind::InstrFetch => EventKind::L1iMiss,
                _ => EventKind::L1dMiss,
            },
            asid: ASID_NONE,
            arg: pa.0,
        });
        if drains {
            // Stall cycles are drain opportunities for the write buffer.
            self.fe.wbuf.drain((stall / self.fe.wb_penalty) as usize);
        }
        stall
    }

    /// Run the queued handler references through the hierarchy. Handler
    /// instruction fetches cost their base cycle too (they are extra
    /// instructions the CPU must issue). `now` is the handler's entry
    /// time.
    fn run_handler(&mut self, kind: HandlerKind, now: Picos, m: &mut Metrics) -> u64 {
        let refs = std::mem::take(&mut self.fe.handler_buf);
        let mut stall = 0u64;
        for r in &refs {
            if r.kind == AccessKind::InstrFetch {
                stall += 1;
                m.time.l1i_cycles += 1;
            }
            stall += self.access_phys(r.addr, r.kind, self.fe.after(now, stall), m);
        }
        let n = refs.len() as u64;
        match kind {
            HandlerKind::TlbRefill => m.counts.tlb_handler_refs += n,
            HandlerKind::Fault => m.counts.fault_handler_refs += n,
            HandlerKind::Switch => m.counts.switch_refs += n,
        }
        self.fe.handler_buf = refs;
        self.fe.handler_buf.clear();
        stall
    }
}

impl FrontEnd {
    /// The absolute time `stall` cycles after `now`.
    fn after(&self, now: Picos, stall: u64) -> Picos {
        now + Picos(stall * self.cycle.0)
    }

    /// The L1 a reference of `kind` goes to.
    fn l1(&mut self, kind: AccessKind) -> &mut Cache {
        match kind {
            AccessKind::InstrFetch => &mut self.l1i,
            _ => &mut self.l1d,
        }
    }

    /// A write hit goes to the write buffer: free while it has room (the
    /// paper's perfect buffer, §4.3), one write-back's drain stall when a
    /// finite buffer is full. Returns stall cycles.
    fn write_hit(&mut self, m: &mut Metrics) -> u64 {
        if self.wbuf.push() {
            return 0;
        }
        m.counts.write_buffer_stalls += 1;
        m.time.l2_sram_cycles += self.wb_penalty;
        self.wbuf.drain(1);
        let ok = self.wbuf.push();
        debug_assert!(ok, "buffer has space after draining");
        self.wb_penalty
    }

    /// Inclusion: invalidate every L1 block inside `[base, base + len)`,
    /// the region the level below is giving up. Each block checked costs
    /// one (L1 hit-time) probe cycle, split between the two caches for
    /// attribution, and each dirty one a write-back. Returns the stall
    /// cycles and whether any swept block was dirty.
    fn sweep_l1(&mut self, base: PhysAddr, len: u64, m: &mut Metrics) -> (u64, bool) {
        let wb = self.wb_penalty;
        let (mut probes, mut wb_cycles, mut dirty) = (0, 0, false);
        for l1 in [&mut self.l1i, &mut self.l1d] {
            probes += l1.invalidate_region(base, len, |e| {
                if e.dirty {
                    dirty = true;
                    wb_cycles += wb;
                }
            });
        }
        m.counts.inclusion_probes += probes;
        m.time.l1i_cycles += probes / 2;
        m.time.l1d_cycles += probes - probes / 2;
        m.time.l2_sram_cycles += wb_cycles;
        (probes + wb_cycles, dirty)
    }

    /// Move `bytes` (DRAM unit `unit`) over the channel, issued `stall`
    /// cycles after `now`: samples the service time and records the
    /// transfer event.
    fn dram(&mut self, now: Picos, stall: u64, bytes: u64, unit: u64, m: &mut Metrics) -> Transfer {
        let at = self.after(now, stall);
        let tr = self.channel.request(at, bytes, unit);
        m.hist
            .dram
            .record(tr.done.saturating_sub(at).cycles_ceil(self.cycle));
        self.trace.emit(|| Event {
            at: tr.start,
            dur: tr.done.saturating_sub(tr.start),
            kind: EventKind::DramTransfer,
            asid: ASID_NONE,
            arg: bytes,
        });
        tr
    }

    /// A reference that began at `now` and has stalled `stall` cycles
    /// waits for a transfer completing at `done`: the wait is charged to
    /// DRAM time and returned as extra stall cycles.
    fn dram_wait(&self, done: Picos, now: Picos, stall: u64, m: &mut Metrics) -> u64 {
        let wait = done
            .saturating_sub(now)
            .cycles_ceil(self.cycle)
            .saturating_sub(stall);
        m.time.dram_cycles += wait;
        wait
    }
}
