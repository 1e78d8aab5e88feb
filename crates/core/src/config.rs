//! System configuration: the paper's §4.3–§4.7 parameters as data.

use crate::error::ConfigError;
use crate::time::IssueRate;
use rampage_cache::{Geometry, ReplacementPolicy};
use rampage_dram::{BankedConfig, DramModel, Picos};
use rampage_vm::os::OsCosts;
use rampage_vm::{InvertedPageTable, PageSize};

/// L1 miss penalty to L2 / SRAM main memory, in CPU cycles (§4.3).
pub const L1_MISS_PENALTY: u64 = 12;
/// L1 write-back penalty in the RAMpage hierarchy: 9 cycles, "since there
/// is no L2 tag to update" (§4.3); the conventional hierarchy pays the
/// full [`L1_MISS_PENALTY`].
pub const RAMPAGE_WRITEBACK_PENALTY: u64 = 9;
/// The multiprogramming quantum: "switching to a different trace every
/// 500,000 references" (§4.2).
pub const QUANTUM_REFS: u64 = 500_000;
/// DRAM page size, held constant while the SRAM page size varies (§2.4).
pub const DRAM_PAGE_SIZE: u64 = 4096;
/// The L2 cache / SRAM main memory base capacity: 4 MB (§4.4).
pub const SRAM_BASE_SIZE: u64 = 4 << 20;
/// Bytes of OS handler code (16 KB) and process control blocks (16 KB)
/// that RAMpage pins at SRAM physical 0, ahead of its inverted page
/// table (§4.5).
pub(crate) const RAMPAGE_OS_CODE_BYTES: u64 = 32 * 1024;
/// Bytes of tag the paper's sizing convention grants per L2 block when
/// computing the RAMpage SRAM bonus (4 B × 32 K blocks = the paper's
/// "128 Kbytes larger" at 128-byte blocks, §4.5).
pub const TAG_BYTES_PER_BLOCK: u64 = 4;

/// Which DRAM timing model a system uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DramKind {
    /// Non-pipelined Direct Rambus — the paper's configuration (§4.3).
    Rambus,
    /// Pipelined Direct Rambus — the §6.3 future-work ablation.
    RambusPipelined,
    /// The §3.3 SDRAM example (128-bit bus at 10 ns) — used to verify the
    /// paper's claim that it behaves like non-pipelined Rambus.
    Sdram,
    /// The event-driven bank-aware Direct Rambus backend: per-bank row
    /// buffers, a row/bank/column address mapping, and structural channel
    /// pipelining (ROADMAP item 1; `repro --dram-backend banked`).
    Banked(BankedConfig),
}

impl DramKind {
    /// The full-fidelity banked backend with the paper-era RDRAM
    /// geometry (16 banks × 2 KB rows, open rows, pipelined).
    pub fn banked() -> Self {
        DramKind::Banked(BankedConfig::paper())
    }

    /// One-line device description for trace metadata and logs.
    pub fn diagnostics(self) -> String {
        match self {
            DramKind::Rambus => DramModel::rambus().diagnostics(),
            DramKind::RambusPipelined => DramModel::rambus_pipelined().diagnostics(),
            DramKind::Sdram => DramModel::sdram().diagnostics(),
            DramKind::Banked(b) => format!(
                "Banked Direct Rambus ({} banks x {} B rows, open rows {}, pipelined {})",
                b.mapping.banks(),
                b.mapping.row_bytes(),
                if b.open_rows { "on" } else { "off" },
                if b.pipelined { "on" } else { "off" },
            ),
        }
    }
}

/// L1 cache parameters (each of the I and D caches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L1Config {
    /// Capacity in bytes.
    pub size: u64,
    /// Block size in bytes.
    pub block: u64,
    /// Associativity.
    pub ways: u32,
}

impl L1Config {
    /// The paper's L1: 16 KB, direct-mapped, 32-byte blocks (§4.3).
    pub fn paper_default() -> Self {
        L1Config {
            size: 16 * 1024,
            block: 32,
            ways: 1,
        }
    }

    /// The §6.3 future-work L1: 64 KB, 2-way.
    pub fn aggressive() -> Self {
        L1Config {
            size: 64 * 1024,
            block: 32,
            ways: 2,
        }
    }

    /// As a cache geometry.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are inconsistent. Presets are always
    /// valid, and [`SystemConfig::validate`] rejects inconsistent
    /// parameters before any simulation, so reaching this panic means a
    /// config bypassed validation (an internal invariant).
    pub fn geometry(&self) -> Geometry {
        Geometry::new(self.size, self.block, self.ways)
    }
}

/// L2 cache parameters (conventional hierarchy only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L2Config {
    /// Capacity in bytes (the paper uses 4 MB throughout).
    pub size: u64,
    /// Block size in bytes (swept 128 B – 4 KB).
    pub block: u64,
    /// Associativity: 1 (baseline) or 2 ("more realistic", §4.7).
    pub ways: u32,
    /// Replacement policy (random for the 2-way configuration, §4.7).
    pub policy: ReplacementPolicy,
}

impl L2Config {
    /// The baseline direct-mapped L2 (§4.4).
    pub fn direct_mapped(block: u64) -> Self {
        L2Config {
            size: SRAM_BASE_SIZE,
            block,
            ways: 1,
            policy: ReplacementPolicy::Lru,
        }
    }

    /// The 2-way random-replacement L2 (§4.7).
    pub fn two_way(block: u64) -> Self {
        L2Config {
            size: SRAM_BASE_SIZE,
            block,
            ways: 2,
            policy: ReplacementPolicy::Random,
        }
    }

    /// As a cache geometry.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are inconsistent; as with
    /// [`L1Config::geometry`], [`SystemConfig::validate`] screens this
    /// out before simulation.
    pub fn geometry(&self) -> Geometry {
        Geometry::new(self.size, self.block, self.ways)
    }
}

/// RAMpage SRAM-main-memory parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RampageConfig {
    /// SRAM page size (swept 128 B – 4 KB).
    pub page_size: PageSize,
    /// Standby page list capacity (pages); `None` disables the software
    /// victim-cache extension (the paper's base configuration).
    pub standby_pages: Option<usize>,
    /// Sequential next-page prefetch on a fault (§3.2: "Prefetch could
    /// be added to RAMpage"): the fault handler also brings in the next
    /// virtual page, queued behind the demand transfer. Off in the
    /// paper's configuration.
    pub prefetch_next: bool,
}

impl RampageConfig {
    /// The paper's configuration at a given page size.
    ///
    /// # Errors
    ///
    /// [`ConfigError::BadPageSize`] unless `page_size` is a power of two
    /// of at least 8 bytes.
    pub fn try_paper(page_size: u64) -> Result<Self, ConfigError> {
        let page_size =
            PageSize::new(page_size).ok_or(ConfigError::BadPageSize { value: page_size })?;
        Ok(RampageConfig {
            page_size,
            standby_pages: None,
            prefetch_next: false,
        })
    }

    /// The paper's configuration at a given page size.
    ///
    /// # Panics
    ///
    /// Panics if `page_size` is not a valid [`PageSize`]; use
    /// [`RampageConfig::try_paper`] to handle that case.
    pub fn paper(page_size: u64) -> Self {
        match RampageConfig::try_paper(page_size) {
            Ok(cfg) => cfg,
            Err(e) => panic!("{e}"),
        }
    }

    /// Total SRAM capacity: 4 MB plus the tag-equivalent bonus, "128
    /// Kbytes larger (since it does not need tags) ... scaled down for
    /// larger page sizes" (§4.5).
    pub fn sram_bytes(&self) -> u64 {
        let blocks = SRAM_BASE_SIZE / self.page_size.get();
        SRAM_BASE_SIZE + TAG_BYTES_PER_BLOCK * blocks
    }

    /// Number of SRAM frames at this page size (whole pages only).
    pub fn num_frames(&self) -> u32 {
        (self.sram_bytes() / self.page_size.get()) as u32
    }

    /// The OS region pinned at SRAM physical 0 (§4.5) — handler code and
    /// PCBs, then the inverted page table over every frame — as `(bytes,
    /// frames)`, the frames being whole pages. Arithmetic only: no table
    /// is built.
    pub(crate) fn pinned_region(&self) -> (u64, u64) {
        let bytes = RAMPAGE_OS_CODE_BYTES + InvertedPageTable::table_bytes_for(self.num_frames());
        (bytes, bytes.div_ceil(self.page_size.get()))
    }
}

/// TLB parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Number of sets (1 = fully associative).
    pub sets: usize,
    /// Ways per set.
    pub ways: usize,
}

impl TlbConfig {
    /// The paper's TLB: 64 entries, fully associative (§4.3).
    pub fn paper_default() -> Self {
        TlbConfig { sets: 1, ways: 64 }
    }

    /// The §6.3 future-work TLB: 1 K entries, 2-way.
    pub fn large_2way() -> Self {
        TlbConfig { sets: 512, ways: 2 }
    }

    /// Total entries.
    pub fn entries(&self) -> usize {
        self.sets * self.ways
    }
}

/// Which memory system sits below L1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HierarchyKind {
    /// Conventional L2 cache over DRAM.
    Conventional(L2Config),
    /// RAMpage SRAM main memory over a DRAM paging device.
    Rampage(RampageConfig),
}

impl HierarchyKind {
    /// The L2 block size or SRAM page size — the x-axis of every figure.
    pub fn unit_bytes(&self) -> u64 {
        match self {
            HierarchyKind::Conventional(l2) => l2.block,
            HierarchyKind::Rampage(r) => r.page_size.get(),
        }
    }
}

/// A complete simulated system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemConfig {
    /// Instruction issue rate.
    pub issue: IssueRate,
    /// L1 instruction and data cache parameters.
    pub l1: L1Config,
    /// TLB parameters.
    pub tlb: TlbConfig,
    /// The level below L1.
    pub hierarchy: HierarchyKind,
    /// Which DRAM device sits behind the memory controller (the paper's
    /// runs use non-pipelined Direct Rambus; the pipelined variant is the
    /// §6.3 ablation and SDRAM the §3.3 comparator).
    pub dram: DramKind,
    /// Number of independent DRAM channels, interleaved by transfer
    /// unit. The paper uses one; §3.3 notes more channels raise
    /// bandwidth without improving latency.
    pub dram_channels: u32,
    /// OS handler instruction budgets.
    pub os_costs: OsCosts,
    /// References per scheduling quantum (the paper's interleave: a
    /// fixed 500 000 references regardless of CPU speed).
    pub quantum: u64,
    /// Optional *time-based* quantum. When set it overrides the
    /// reference quantum — the real-time-clock slice the paper says a
    /// real system would use (§5.5), under which a faster CPU executes
    /// more references per slice.
    pub quantum_time: Option<Picos>,
    /// Insert the ~400-reference context-switch trace at quantum
    /// boundaries (§4.6; Table 4/5 runs enable this).
    pub switch_trace: bool,
    /// RAMpage only: take a context switch on a page fault to DRAM,
    /// overlapping the transfer with another process (§4.6, Table 4).
    pub switch_on_miss: bool,
    /// Optional Jouppi victim cache between L1 and the next level
    /// (entries of L1-block size). `None` — the paper's configuration —
    /// omits it; §3.2 discusses it as a conflict-miss reducer that does
    /// not slow hits.
    pub l1_victim_blocks: Option<usize>,
    /// Optional finite write-buffer depth. `None` is the paper's
    /// "perfect write buffering" assumption (§4.3); a finite buffer
    /// charges a drain stall when a write finds it full, letting the
    /// ablations check that assumption.
    pub write_buffer_depth: Option<usize>,
    /// Classify L2 misses with the 3C taxonomy (conventional hierarchy
    /// only; diagnostic — costs simulation speed, charges no simulated
    /// time). The profile lands in `Counters::l2_miss_profile`.
    pub classify_l2: bool,
}

impl SystemConfig {
    fn common(issue: IssueRate, hierarchy: HierarchyKind) -> Self {
        SystemConfig {
            issue,
            l1: L1Config::paper_default(),
            tlb: TlbConfig::paper_default(),
            hierarchy,
            dram: DramKind::Rambus,
            dram_channels: 1,
            os_costs: OsCosts::default(),
            quantum: QUANTUM_REFS,
            quantum_time: None,
            switch_trace: false,
            switch_on_miss: false,
            l1_victim_blocks: None,
            write_buffer_depth: None,
            classify_l2: false,
        }
    }

    /// The baseline system: direct-mapped L2 of the given block size
    /// (§4.4), no context-switch trace.
    pub fn baseline(issue: IssueRate, l2_block: u64) -> Self {
        SystemConfig::common(
            issue,
            HierarchyKind::Conventional(L2Config::direct_mapped(l2_block)),
        )
    }

    /// The "more realistic" system: 2-way L2, context-switch trace
    /// included (§4.7 / Table 5).
    pub fn two_way(issue: IssueRate, l2_block: u64) -> Self {
        let mut cfg = SystemConfig::common(
            issue,
            HierarchyKind::Conventional(L2Config::two_way(l2_block)),
        );
        cfg.switch_trace = true;
        cfg
    }

    /// The RAMpage system at the given SRAM page size (§4.5).
    pub fn rampage(issue: IssueRate, page_size: u64) -> Self {
        SystemConfig::common(
            issue,
            HierarchyKind::Rampage(RampageConfig::paper(page_size)),
        )
    }

    /// RAMpage with context switches on misses (§4.6 / Table 4); also
    /// enables the quantum switch trace.
    pub fn rampage_switching(issue: IssueRate, page_size: u64) -> Self {
        let mut cfg = SystemConfig::rampage(issue, page_size);
        cfg.switch_trace = true;
        cfg.switch_on_miss = true;
        cfg
    }

    /// Check every parameter against the constraints the simulator
    /// relies on, with actionable messages naming the offending value.
    ///
    /// The [`SweepRunner`](crate::experiments::SweepRunner) calls this
    /// before simulating any cell, so a bad configuration becomes a
    /// recorded failed cell instead of a mid-sweep panic; `repro` entry
    /// points inherit the same gate because every artifact flows through
    /// the runner.
    ///
    /// # Errors
    ///
    /// The first [`ConfigError`] found, checking the L1, the hierarchy
    /// level below it (L2 geometry or RAMpage page size), the TLB, the
    /// DRAM channel count, the scheduling quantum, and the optional
    /// victim-cache / write-buffer capacities.
    pub fn validate(&self) -> Result<(), ConfigError> {
        validate_cache("L1 cache", self.l1.size, self.l1.block, self.l1.ways)?;
        match &self.hierarchy {
            HierarchyKind::Conventional(l2) => {
                validate_cache("L2 cache", l2.size, l2.block, l2.ways)?;
            }
            HierarchyKind::Rampage(r) => {
                // `PageSize` is validated at construction; re-check the
                // derived frame arithmetic and the optional standby list.
                if r.page_size.get() > r.sram_bytes() {
                    return Err(ConfigError::BlockExceedsCache {
                        what: "RAMpage SRAM",
                        block: r.page_size.get(),
                        size: r.sram_bytes(),
                    });
                }
                let (os_bytes, pinned) = r.pinned_region();
                if pinned >= u64::from(r.num_frames()) {
                    return Err(ConfigError::NoUserFrames {
                        os_bytes,
                        page: r.page_size.get(),
                    });
                }
                if r.standby_pages == Some(0) {
                    return Err(ConfigError::ZeroCapacity {
                        what: "standby page list",
                    });
                }
            }
        }
        if self.tlb.entries() == 0 {
            return Err(ConfigError::EmptyTlb);
        }
        if !self.tlb.sets.is_power_of_two() {
            return Err(ConfigError::TlbSetsNotPowerOfTwo {
                sets: self.tlb.sets,
            });
        }
        if self.dram_channels == 0 {
            return Err(ConfigError::ZeroDramChannels);
        }
        if let DramKind::Banked(b) = self.dram {
            b.validate().map_err(ConfigError::Dram)?;
        }
        if self.quantum == 0 {
            return Err(ConfigError::ZeroQuantum);
        }
        if self.quantum_time == Some(Picos::ZERO) {
            return Err(ConfigError::ZeroTimeQuantum);
        }
        if self.l1_victim_blocks == Some(0) {
            return Err(ConfigError::ZeroCapacity {
                what: "L1 victim cache",
            });
        }
        if self.write_buffer_depth == Some(0) {
            return Err(ConfigError::ZeroCapacity {
                what: "write buffer",
            });
        }
        Ok(())
    }

    /// A short description for reports.
    pub fn label(&self) -> String {
        let base = match &self.hierarchy {
            HierarchyKind::Conventional(l2) if l2.ways == 1 => {
                format!("DM L2, {} B blocks", l2.block)
            }
            HierarchyKind::Conventional(l2) => {
                format!("{}-way L2, {} B blocks", l2.ways, l2.block)
            }
            HierarchyKind::Rampage(r) => format!("RAMpage, {} pages", r.page_size),
        };
        let mut s = format!("{base} @ {}", self.issue);
        if self.switch_on_miss {
            s.push_str(" +switch-on-miss");
        }
        s
    }
}

/// Shared cache-parameter validation: size/block/ways sanity with the
/// cache's name in every message.
fn validate_cache(what: &'static str, size: u64, block: u64, ways: u32) -> Result<(), ConfigError> {
    if size == 0 {
        return Err(ConfigError::ZeroSize { what });
    }
    if !size.is_power_of_two() {
        return Err(ConfigError::NotPowerOfTwo { what, value: size });
    }
    if block == 0 {
        return Err(ConfigError::ZeroSize { what });
    }
    if !block.is_power_of_two() {
        return Err(ConfigError::NotPowerOfTwo { what, value: block });
    }
    if ways == 0 || !ways.is_power_of_two() {
        return Err(ConfigError::BadWays { what, ways });
    }
    if block.saturating_mul(ways as u64) > size {
        return Err(ConfigError::BlockExceedsCache { what, block, size });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sram_bonus_matches_paper() {
        // 128-byte pages: 4 MB + 128 KB (the paper's "4.125 Mbytes").
        let r = RampageConfig::paper(128);
        assert_eq!(r.sram_bytes(), (4 << 20) + 128 * 1024);
        assert_eq!(r.num_frames(), ((4 << 20) + 128 * 1024) / 128);
        // 4 KB pages: bonus shrinks to 4 KB.
        let r = RampageConfig::paper(4096);
        assert_eq!(r.sram_bytes(), (4 << 20) + 4096);
        assert_eq!(r.num_frames(), 1025);
    }

    #[test]
    fn paper_presets() {
        let b = SystemConfig::baseline(IssueRate::GHZ1, 128);
        assert!(matches!(b.hierarchy, HierarchyKind::Conventional(l2) if l2.ways == 1));
        assert!(!b.switch_trace);

        let t = SystemConfig::two_way(IssueRate::GHZ1, 128);
        assert!(matches!(t.hierarchy, HierarchyKind::Conventional(l2)
            if l2.ways == 2 && l2.policy == ReplacementPolicy::Random));
        assert!(t.switch_trace);

        let r = SystemConfig::rampage_switching(IssueRate::GHZ1, 1024);
        assert!(r.switch_on_miss && r.switch_trace);
        assert_eq!(r.quantum, 500_000);
    }

    #[test]
    fn tlb_presets() {
        assert_eq!(TlbConfig::paper_default().entries(), 64);
        assert_eq!(TlbConfig::large_2way().entries(), 1024);
    }

    #[test]
    fn l1_presets_are_valid_geometries() {
        assert_eq!(L1Config::paper_default().geometry().sets(), 512);
        assert_eq!(L1Config::aggressive().geometry().ways(), 2);
    }

    #[test]
    fn unit_bytes_reads_the_sweep_axis() {
        assert_eq!(
            SystemConfig::baseline(IssueRate::GHZ1, 256)
                .hierarchy
                .unit_bytes(),
            256
        );
        assert_eq!(
            SystemConfig::rampage(IssueRate::GHZ1, 2048)
                .hierarchy
                .unit_bytes(),
            2048
        );
    }

    #[test]
    fn paper_presets_validate_cleanly() {
        for size in [128u64, 256, 512, 1024, 2048, 4096] {
            SystemConfig::baseline(IssueRate::GHZ1, size)
                .validate()
                .expect("baseline preset valid");
            SystemConfig::two_way(IssueRate::MHZ200, size)
                .validate()
                .expect("two-way preset valid");
            SystemConfig::rampage_switching(IssueRate::GHZ4, size)
                .validate()
                .expect("rampage preset valid");
        }
    }

    #[test]
    fn validate_rejects_broken_configs() {
        use crate::error::ConfigError;

        let mut cfg = SystemConfig::baseline(IssueRate::GHZ1, 128);
        cfg.l1.size = 0;
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::ZeroSize { what: "L1 cache" })
        );

        let mut cfg = SystemConfig::baseline(IssueRate::GHZ1, 128);
        if let HierarchyKind::Conventional(l2) = &mut cfg.hierarchy {
            l2.block = 3000;
        }
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::NotPowerOfTwo {
                what: "L2 cache",
                value: 3000
            })
        );

        let mut cfg = SystemConfig::baseline(IssueRate::GHZ1, 128);
        if let HierarchyKind::Conventional(l2) = &mut cfg.hierarchy {
            l2.block = l2.size * 2;
        }
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::NotPowerOfTwo { .. }) | Err(ConfigError::BlockExceedsCache { .. })
        ));

        let mut cfg = SystemConfig::baseline(IssueRate::GHZ1, 128);
        cfg.tlb = TlbConfig { sets: 1, ways: 0 };
        assert_eq!(cfg.validate(), Err(ConfigError::EmptyTlb));

        let mut cfg = SystemConfig::baseline(IssueRate::GHZ1, 128);
        cfg.quantum = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroQuantum));

        let mut cfg = SystemConfig::rampage(IssueRate::GHZ1, 1024);
        cfg.dram_channels = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroDramChannels));

        let mut cfg = SystemConfig::rampage(IssueRate::GHZ1, 1024);
        if let HierarchyKind::Rampage(r) = &mut cfg.hierarchy {
            r.standby_pages = Some(0);
        }
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::ZeroCapacity { .. })
        ));

        // 4 MiB pages: the pinned OS region takes the one SRAM frame;
        // 2 MiB pages leave a user frame.
        let cfg = SystemConfig::rampage(IssueRate::GHZ1, 4 << 20);
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::NoUserFrames { page, .. }) if page == 4 << 20
        ));
        SystemConfig::rampage(IssueRate::GHZ1, 2 << 20)
            .validate()
            .expect("2 MiB pages leave a user frame");
    }

    #[test]
    fn banked_dram_axis_validates() {
        use crate::error::ConfigError;
        let mut cfg = SystemConfig::rampage(IssueRate::GHZ1, 1024);
        cfg.dram = DramKind::banked();
        cfg.validate().expect("paper banked geometry is valid");
        if let DramKind::Banked(b) = &mut cfg.dram {
            b.timing.per_pair = rampage_dram::Picos::ZERO;
        }
        assert!(matches!(cfg.validate(), Err(ConfigError::Dram(_))));

        let d = DramKind::banked().diagnostics();
        assert!(d.contains("16 banks") && d.contains("2048 B rows"), "{d}");
        assert!(DramKind::Rambus.diagnostics().contains("Direct Rambus"));
    }

    #[test]
    fn try_paper_rejects_bad_page_sizes() {
        use crate::error::ConfigError;
        assert!(RampageConfig::try_paper(1024).is_ok());
        assert_eq!(
            RampageConfig::try_paper(100),
            Err(ConfigError::BadPageSize { value: 100 })
        );
        assert_eq!(
            RampageConfig::try_paper(0),
            Err(ConfigError::BadPageSize { value: 0 })
        );
    }

    #[test]
    fn labels_are_descriptive() {
        assert_eq!(
            SystemConfig::baseline(IssueRate::MHZ200, 128).label(),
            "DM L2, 128 B blocks @ 200 MHz"
        );
        assert!(SystemConfig::rampage_switching(IssueRate::GHZ4, 4096)
            .label()
            .contains("switch-on-miss"));
    }
}
