//! The OS cost model: software events as reference sequences.
//!
//! The paper simulates software overhead faithfully: "TLB ... misses
//! modeled by interleaving a trace of page lookup software" (§4.3) and
//! "measurement is done by adding a trace of simulated context switch code
//! ... (approximately 400 references per context switch)" (§4.6). This
//! module generates those reference sequences. The simulator then runs
//! them *through the memory hierarchy*, so handler cost depends on where
//! the handler's code and data actually live — pinned in SRAM for
//! RAMpage (§2.3), DRAM-backed and cached for the conventional hierarchy.

use rampage_cache::PhysAddr;
use rampage_trace::AccessKind;

/// References issued by OS software. Handler references are already
/// physical (handlers run pinned/untranslated), so they bypass the TLB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandlerRef {
    /// `count` straight-line instruction fetches at `start`,
    /// `start + 4`, ..., all inside the code region (a sequence that
    /// wraps at the region's end is two runs).
    Fetches {
        /// Address of the first fetch.
        start: PhysAddr,
        /// Number of fetches, at least 1.
        count: u32,
    },
    /// One data reference.
    Data {
        /// Physical address touched.
        addr: PhysAddr,
        /// Read or write.
        kind: AccessKind,
    },
}

impl HandlerRef {
    /// How many references this stands for.
    pub fn refs(&self) -> u64 {
        match self {
            HandlerRef::Fetches { count, .. } => u64::from(*count),
            HandlerRef::Data { .. } => 1,
        }
    }

    fn read(addr: PhysAddr) -> Self {
        HandlerRef::Data {
            addr,
            kind: AccessKind::Read,
        }
    }

    fn write(addr: PhysAddr) -> Self {
        HandlerRef::Data {
            addr,
            kind: AccessKind::Write,
        }
    }
}

/// Instruction counts for each software event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OsCosts {
    /// Instructions in the TLB-refill handler (hash, probe, TLB write).
    pub tlb_handler_instrs: u32,
    /// Instructions in the page-fault handler, excluding the clock scan
    /// and DRAM transfer (policy, queue manipulation, table updates).
    pub fault_handler_instrs: u32,
    /// Total references in a context switch (paper: "approximately 400").
    pub switch_total_refs: u32,
}

impl Default for OsCosts {
    /// Calibrated to the paper: a short refill handler (a hash plus a
    /// few probes — the ~30-reference scale that produces Figure 4's up
    /// to ~60 % overhead at 128-byte pages with a 64-entry TLB), a
    /// ~100-instruction fault handler, and the 400-reference switch.
    fn default() -> Self {
        OsCosts {
            tlb_handler_instrs: 22,
            fault_handler_instrs: 100,
            switch_total_refs: 400,
        }
    }
}

/// Where OS code and data live in the physical space of the level that
/// executes handlers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OsLayout {
    /// Base of handler code.
    pub code_base: PhysAddr,
    /// Bytes of handler code (instruction fetches cycle within this).
    pub code_bytes: u64,
    /// Base of the process-control-block array.
    pub pcb_base: PhysAddr,
    /// Bytes per PCB.
    pub pcb_stride: u64,
}

impl OsLayout {
    /// A layout at `base` with 16 KB of code followed by PCBs of 512
    /// bytes each — the residency model behind the paper's pinned-OS
    /// sizing (§4.5).
    pub fn at(base: PhysAddr) -> Self {
        OsLayout {
            code_base: base,
            code_bytes: 16 * 1024,
            pcb_base: PhysAddr(base.0 + 16 * 1024),
            pcb_stride: 512,
        }
    }
}

/// Generates the reference sequence of each software event.
#[derive(Debug, Clone, Copy)]
pub struct OsModel {
    costs: OsCosts,
    layout: OsLayout,
}

impl OsModel {
    /// Build a model from costs and layout.
    pub fn new(costs: OsCosts, layout: OsLayout) -> Self {
        OsModel { costs, layout }
    }

    /// The configured costs.
    pub fn costs(&self) -> OsCosts {
        self.costs
    }

    /// The configured layout.
    pub fn layout(&self) -> OsLayout {
        self.layout
    }

    /// Emit `n` instruction fetches at `base + (entry + 4i) % code_bytes`
    /// for `i < n`: one run per pass over the code region, since they
    /// wrap at its end.
    fn emit_code(&self, entry: u64, n: u32, out: &mut Vec<HandlerRef>) {
        let base = self.layout.code_base.0;
        let len = self.layout.code_bytes;
        let (mut off, mut left) = (entry % len, u64::from(n));
        while left > 0 {
            // The fetches `off + 4i` that still fit below the region's end.
            let count = left.min((len - off).div_ceil(4));
            out.push(HandlerRef::Fetches {
                start: PhysAddr(base + off),
                count: count as u32,
            });
            left -= count;
            off = (off + 4 * count) % len;
        }
    }

    /// The TLB-refill handler: handler code interleaved with the page-
    /// table probe reads recorded by
    /// [`InvertedPageTable::lookup`](crate::InvertedPageTable::lookup).
    ///
    /// Longer hash chains produce more probes and therefore more
    /// references — chain length is simulated, not averaged.
    pub fn tlb_refill(&self, probe_addrs: &[PhysAddr], out: &mut Vec<HandlerRef>) {
        let n = self.costs.tlb_handler_instrs;
        // Prologue (hash computation), then one code/data pair per probe,
        // then epilogue (TLB insert).
        let prologue = n / 2;
        self.emit_code(0, prologue, out);
        for (i, &p) in probe_addrs.iter().enumerate() {
            self.emit_code((prologue as u64 + i as u64) * 4, 2, out);
            out.push(HandlerRef::read(p));
        }
        let used = prologue + 2 * probe_addrs.len() as u32;
        self.emit_code(used as u64 * 4, n.saturating_sub(used).max(2), out);
    }

    /// The page-fault handler (software portion only; the caller charges
    /// the DRAM transfer separately): fault-policy code, the clock scan
    /// (one table read per scanned entry), and the table updates for the
    /// victim and incoming pages.
    pub fn page_fault(
        &self,
        probe_addrs: &[PhysAddr],
        scan_addrs: &[PhysAddr],
        update_addrs: &[PhysAddr],
        out: &mut Vec<HandlerRef>,
    ) {
        let n = self.costs.fault_handler_instrs;
        // Entry + lookup confirmation.
        self.emit_code(0x400, n / 4, out);
        out.extend(probe_addrs.iter().map(|&p| HandlerRef::read(p)));
        // Clock scan: advance-hand code and a table read per entry.
        for (i, &s) in scan_addrs.iter().enumerate() {
            self.emit_code(0x400 + (n as u64 / 4 + i as u64) * 4, 1, out);
            out.push(HandlerRef::read(s));
        }
        // Table updates (victim unmap, new map, TLB insert): writes.
        self.emit_code(0x800, n / 2, out);
        out.extend(update_addrs.iter().map(|&u| HandlerRef::write(u)));
        self.emit_code(0xc00, n / 4, out);
    }

    /// A context switch between process table slots `from` and `to`:
    /// "approximately 400 references" (§4.6) of textbook save/restore —
    /// 60 % instruction fetches, 20 % reads, 20 % writes over the two
    /// PCBs and the scheduler code.
    pub fn context_switch(&self, from: usize, to: usize, out: &mut Vec<HandlerRef>) {
        let total = self.costs.switch_total_refs;
        let save = total * 2 / 10; // writes to old PCB
        let restore = total * 2 / 10; // reads from new PCB
        let code = total - save - restore;
        let from_pcb = self.layout.pcb_base.0 + from as u64 * self.layout.pcb_stride;
        let to_pcb = self.layout.pcb_base.0 + to as u64 * self.layout.pcb_stride;
        // Interleave: groups of code then a save write then a restore read,
        // approximating store/load multiple sequences.
        let mut code_left = code;
        let mut save_left = save;
        let mut restore_left = restore;
        let mut code_pc = 0x1000u64;
        let mut off = 0u64;
        while code_left > 0 || save_left > 0 || restore_left > 0 {
            if code_left > 0 {
                let chunk = (code_left).min(3);
                self.emit_code(code_pc, chunk, out);
                code_pc += chunk as u64 * 4;
                code_left -= chunk;
            }
            if save_left > 0 {
                out.push(HandlerRef::write(PhysAddr(
                    from_pcb + (off * 4) % self.layout.pcb_stride,
                )));
                save_left -= 1;
            }
            if restore_left > 0 {
                out.push(HandlerRef::read(PhysAddr(
                    to_pcb + (off * 4) % self.layout.pcb_stride,
                )));
                restore_left -= 1;
            }
            off += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> OsModel {
        OsModel::new(OsCosts::default(), OsLayout::at(PhysAddr(0)))
    }

    /// Instruction fetches the runs in `out` stand for.
    fn fetches(out: &[HandlerRef]) -> u64 {
        out.iter()
            .filter(|r| matches!(r, HandlerRef::Fetches { .. }))
            .map(HandlerRef::refs)
            .sum()
    }

    /// The data references in `out` of one kind, in order.
    fn data(out: &[HandlerRef], want: AccessKind) -> Vec<PhysAddr> {
        out.iter()
            .filter_map(|r| match *r {
                HandlerRef::Data { addr, kind } if kind == want => Some(addr),
                _ => None,
            })
            .collect()
    }

    /// One `(address, kind)` per reference, runs expanded.
    fn expand(out: &[HandlerRef]) -> Vec<(PhysAddr, AccessKind)> {
        let mut refs = Vec::new();
        for r in out {
            match *r {
                HandlerRef::Fetches { start, count } => {
                    assert!(count > 0, "empty run at {start}");
                    refs.extend(
                        (0..u64::from(count))
                            .map(|i| (PhysAddr(start.0 + 4 * i), AccessKind::InstrFetch)),
                    );
                }
                HandlerRef::Data { addr, kind } => refs.push((addr, kind)),
            }
        }
        refs
    }

    /// The three handlers written one reference per instruction, fetch
    /// `i` of a sequence entered at `entry` at
    /// `base + (entry + 4i) % code_bytes`: the oracle the runs must
    /// expand to.
    struct PerInstr(OsModel);

    impl PerInstr {
        fn code(&self, entry: u64, n: u32, out: &mut Vec<(PhysAddr, AccessKind)>) {
            let l = self.0.layout;
            out.extend((0..u64::from(n)).map(|i| {
                let addr = PhysAddr(l.code_base.0 + (entry + 4 * i) % l.code_bytes);
                (addr, AccessKind::InstrFetch)
            }));
        }

        fn tlb_refill(&self, probes: &[PhysAddr]) -> Vec<(PhysAddr, AccessKind)> {
            let mut out = Vec::new();
            let n = self.0.costs.tlb_handler_instrs;
            let prologue = n / 2;
            self.code(0, prologue, &mut out);
            for (i, &p) in probes.iter().enumerate() {
                self.code((prologue as u64 + i as u64) * 4, 2, &mut out);
                out.push((p, AccessKind::Read));
            }
            let used = prologue + 2 * probes.len() as u32;
            self.code(used as u64 * 4, n.saturating_sub(used).max(2), &mut out);
            out
        }

        fn page_fault(
            &self,
            probes: &[PhysAddr],
            scans: &[PhysAddr],
            updates: &[PhysAddr],
        ) -> Vec<(PhysAddr, AccessKind)> {
            let mut out = Vec::new();
            let n = self.0.costs.fault_handler_instrs;
            self.code(0x400, n / 4, &mut out);
            out.extend(probes.iter().map(|&p| (p, AccessKind::Read)));
            for (i, &s) in scans.iter().enumerate() {
                self.code(0x400 + (n as u64 / 4 + i as u64) * 4, 1, &mut out);
                out.push((s, AccessKind::Read));
            }
            self.code(0x800, n / 2, &mut out);
            out.extend(updates.iter().map(|&u| (u, AccessKind::Write)));
            self.code(0xc00, n / 4, &mut out);
            out
        }

        fn context_switch(&self, from: usize, to: usize) -> Vec<(PhysAddr, AccessKind)> {
            let mut out = Vec::new();
            let l = self.0.layout;
            let total = self.0.costs.switch_total_refs;
            let (mut save, mut restore) = (total * 2 / 10, total * 2 / 10);
            let mut code = total - save - restore;
            let from_pcb = l.pcb_base.0 + from as u64 * l.pcb_stride;
            let to_pcb = l.pcb_base.0 + to as u64 * l.pcb_stride;
            let (mut pc, mut off) = (0x1000u64, 0u64);
            while code > 0 || save > 0 || restore > 0 {
                if code > 0 {
                    let chunk = code.min(3);
                    self.code(pc, chunk, &mut out);
                    pc += chunk as u64 * 4;
                    code -= chunk;
                }
                if save > 0 {
                    let addr = PhysAddr(from_pcb + (off * 4) % l.pcb_stride);
                    out.push((addr, AccessKind::Write));
                    save -= 1;
                }
                if restore > 0 {
                    let addr = PhysAddr(to_pcb + (off * 4) % l.pcb_stride);
                    out.push((addr, AccessKind::Read));
                    restore -= 1;
                }
                off += 1;
            }
            out
        }
    }

    #[test]
    fn runs_expand_to_the_per_instruction_references() {
        // Budgets big enough that the refill's prologue (4,500 fetches
        // from 0), the fault handler's scan fetches (from 0x400 + 4 x
        // 17,500) and the switch code (12,000 fetches from 0x1000) run
        // past the end of the 16 KiB code region.
        let big = OsCosts {
            tlb_handler_instrs: 9_000,
            fault_handler_instrs: 70_000,
            switch_total_refs: 20_000,
        };
        let chain: Vec<_> = (0..6).map(|i| PhysAddr(0x5000 + i * 16)).collect();
        let scans: Vec<_> = (0..5_000).map(|i| PhysAddr(0x6000 + i * 16)).collect();
        let updates = [PhysAddr(0x7000), PhysAddr(0x7010)];
        let mut wrapped = 0;
        for costs in [OsCosts::default(), big] {
            for base in [0, 1 << 40] {
                let m = OsModel::new(costs, OsLayout::at(PhysAddr(base)));
                let oracle = PerInstr(m);
                let code = base..base + m.layout().code_bytes;
                let mut check = |out: &[HandlerRef], want: Vec<(PhysAddr, AccessKind)>| {
                    assert_eq!(expand(out), want, "{costs:?} at {base:#x}");
                    for r in out {
                        if let HandlerRef::Fetches { start, count } = *r {
                            let last = start.0 + 4 * (u64::from(count) - 1);
                            assert!(code.contains(&start.0) && code.contains(&last));
                            wrapped += usize::from(start.0 == base);
                        }
                    }
                };
                for k in 0..=chain.len() {
                    let mut out = Vec::new();
                    m.tlb_refill(&chain[..k], &mut out);
                    check(&out, oracle.tlb_refill(&chain[..k]));
                }
                for nscan in [0, 5, scans.len()] {
                    let mut out = Vec::new();
                    m.page_fault(&chain[..1], &scans[..nscan], &updates, &mut out);
                    check(
                        &out,
                        oracle.page_fault(&chain[..1], &scans[..nscan], &updates),
                    );
                }
                for (from, to) in [(0, 1), (2, 5)] {
                    let mut out = Vec::new();
                    m.context_switch(from, to, &mut out);
                    check(&out, oracle.context_switch(from, to));
                }
            }
        }
        // Runs that start at the region's base: each refill's prologue,
        // plus the runs that wrapped there.
        assert!(
            wrapped > 4 * 7,
            "some runs wrapped: {wrapped} start at the base"
        );
    }

    #[test]
    fn a_sequence_past_the_region_end_wraps_into_two_runs() {
        let m = model();
        let mut out = Vec::new();
        // Three fetches before the end of the 16 KiB region, two after.
        m.emit_code(16 * 1024 - 12, 5, &mut out);
        assert_eq!(
            out,
            [
                HandlerRef::Fetches {
                    start: PhysAddr(16 * 1024 - 12),
                    count: 3
                },
                HandlerRef::Fetches {
                    start: PhysAddr(0),
                    count: 2
                },
            ]
        );
    }

    #[test]
    fn tlb_refill_includes_every_probe() {
        let m = model();
        let probes = [PhysAddr(0x5000), PhysAddr(0x5010), PhysAddr(0x5020)];
        let mut out = Vec::new();
        m.tlb_refill(&probes, &mut out);
        assert_eq!(
            data(&out, AccessKind::Read),
            probes,
            "probes appear in order"
        );
        assert!(data(&out, AccessKind::Write).is_empty());
        let ifetches = fetches(&out);
        assert!(ifetches >= u64::from(OsCosts::default().tlb_handler_instrs / 2));
    }

    #[test]
    fn tlb_refill_scales_with_chain_length() {
        let m = model();
        let mut short = Vec::new();
        m.tlb_refill(&[PhysAddr(0x5000)], &mut short);
        let mut long = Vec::new();
        let chain: Vec<_> = (0..6).map(|i| PhysAddr(0x5000 + i * 16)).collect();
        m.tlb_refill(&chain, &mut long);
        let refs = |out: &[HandlerRef]| out.iter().map(HandlerRef::refs).sum::<u64>();
        assert!(refs(&long) > refs(&short), "longer chains cost more");
    }

    #[test]
    fn context_switch_is_about_400_refs() {
        let m = model();
        let mut out = Vec::new();
        m.context_switch(0, 1, &mut out);
        let n: u64 = out.iter().map(HandlerRef::refs).sum();
        let want = u64::from(OsCosts::default().switch_total_refs);
        assert!(
            (want - 4..=want + 4).contains(&n),
            "switch refs {n} vs target {want}"
        );
        let writes = data(&out, AccessKind::Write).len() as u64;
        let reads = data(&out, AccessKind::Read).len() as u64;
        assert_eq!((writes, reads), (want * 2 / 10, want * 2 / 10));
        assert_eq!(fetches(&out), n - writes - reads);
    }

    #[test]
    fn context_switch_touches_both_pcbs() {
        let m = model();
        let mut out = Vec::new();
        m.context_switch(2, 5, &mut out);
        let layout = m.layout();
        let pcb2 = layout.pcb_base.0 + 2 * layout.pcb_stride;
        let pcb5 = layout.pcb_base.0 + 5 * layout.pcb_stride;
        assert!(data(&out, AccessKind::Write)
            .iter()
            .any(|a| a.0 >= pcb2 && a.0 < pcb2 + 512));
        assert!(data(&out, AccessKind::Read)
            .iter()
            .any(|a| a.0 >= pcb5 && a.0 < pcb5 + 512));
    }

    #[test]
    fn page_fault_includes_scan_and_updates() {
        let m = model();
        let mut out = Vec::new();
        let scans: Vec<_> = (0..5).map(|i| PhysAddr(0x6000 + i * 16)).collect();
        let updates = [PhysAddr(0x6100), PhysAddr(0x6110)];
        m.page_fault(&[PhysAddr(0x5000)], &scans, &updates, &mut out);
        let reads = data(&out, AccessKind::Read).len();
        assert_eq!(reads, 1 + scans.len(), "probe + scan reads");
        assert_eq!(data(&out, AccessKind::Write), updates);
        assert!(fetches(&out) >= u64::from(OsCosts::default().fault_handler_instrs));
    }

    #[test]
    fn code_fetches_stay_in_code_region() {
        let m = model();
        let mut out = Vec::new();
        m.context_switch(0, 17, &mut out);
        m.tlb_refill(&[PhysAddr(0x9000)], &mut out);
        for (addr, _) in expand(&out)
            .into_iter()
            .filter(|r| r.1 == AccessKind::InstrFetch)
        {
            assert!(addr.0 < m.layout().code_bytes, "fetch at {addr}");
        }
    }
}
