//! §6.3 future-work ablations.
//!
//! The paper's conclusion sketches measurements it had only started:
//! a 1 K-entry 2-way TLB, more aggressive (64 KB 2-way) L1 caches,
//! pipelined Direct Rambus, and the standby page list. Each ablation here
//! modifies one knob of the base configuration and reruns the workload,
//! so the marginal effect of each design choice is isolated.

use crate::config::{DramKind, HierarchyKind, L1Config, SystemConfig, TlbConfig};
use crate::experiments::common::{run_grid, Cell, Workload};
use crate::experiments::runner::SweepRunner;
use crate::report::TableBuilder;
use crate::time::IssueRate;
use rampage_json::{obj, Json, ToJson};

/// Which knob an ablation turns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Knob {
    /// The unmodified configuration.
    Base,
    /// 1 K-entry 2-way TLB instead of the 64-entry fully-associative one.
    LargeTlb,
    /// 64 KB 2-way L1 caches instead of 16 KB direct-mapped.
    AggressiveL1,
    /// Pipelined Direct Rambus (queued transfers skip the 50 ns latency).
    PipelinedRambus,
    /// Standby page list of 256 pages (RAMpage only; a no-op knob for
    /// the conventional hierarchy).
    StandbyList,
    /// SDRAM behind a 128-bit bus instead of Direct Rambus (§3.3 claims
    /// the two are near-equivalent without pipelining).
    SdramDevice,
    /// A 16-entry Jouppi victim cache between L1 and L2 (§3.2's hardware
    /// alternative to the standby list; conventional hierarchy only).
    VictimCache16,
    /// An 8-entry finite write buffer instead of the paper's perfect one
    /// (§4.3 assumption check).
    FiniteWriteBuffer8,
    /// Two Rambus channels interleaved by transfer unit (§3.3: more
    /// bandwidth, same latency — only overlapped transfers benefit).
    DualChannel,
    /// Sequential next-page prefetch on RAMpage faults (§3.2: "Prefetch
    /// could be added to RAMpage"; no-op for the conventional system).
    PrefetchNext,
}

impl Knob {
    /// All knobs in report order.
    pub const ALL: [Knob; 10] = [
        Knob::Base,
        Knob::LargeTlb,
        Knob::AggressiveL1,
        Knob::PipelinedRambus,
        Knob::StandbyList,
        Knob::SdramDevice,
        Knob::VictimCache16,
        Knob::FiniteWriteBuffer8,
        Knob::DualChannel,
        Knob::PrefetchNext,
    ];

    /// Apply the knob to a configuration.
    pub fn apply(self, mut cfg: SystemConfig) -> SystemConfig {
        match self {
            Knob::Base => {}
            Knob::LargeTlb => cfg.tlb = TlbConfig::large_2way(),
            Knob::AggressiveL1 => cfg.l1 = L1Config::aggressive(),
            Knob::PipelinedRambus => cfg.dram = DramKind::RambusPipelined,
            Knob::SdramDevice => cfg.dram = DramKind::Sdram,
            Knob::VictimCache16 => {
                if matches!(cfg.hierarchy, HierarchyKind::Conventional(_)) {
                    cfg.l1_victim_blocks = Some(16);
                }
            }
            Knob::FiniteWriteBuffer8 => cfg.write_buffer_depth = Some(8),
            Knob::DualChannel => cfg.dram_channels = 2,
            Knob::PrefetchNext => {
                if let HierarchyKind::Rampage(ref mut r) = cfg.hierarchy {
                    r.prefetch_next = true;
                }
            }
            Knob::StandbyList => {
                if let HierarchyKind::Rampage(ref mut r) = cfg.hierarchy {
                    r.standby_pages = Some(256);
                }
            }
        }
        cfg
    }

    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            Knob::Base => "base",
            Knob::LargeTlb => "1K-entry 2-way TLB",
            Knob::AggressiveL1 => "64KB 2-way L1",
            Knob::PipelinedRambus => "pipelined Rambus",
            Knob::StandbyList => "standby list (256)",
            Knob::SdramDevice => "SDRAM device",
            Knob::VictimCache16 => "16-entry victim cache",
            Knob::FiniteWriteBuffer8 => "8-entry write buffer",
            Knob::DualChannel => "2 Rambus channels",
            Knob::PrefetchNext => "next-page prefetch",
        }
    }
}

/// One ablation's outcome on both systems.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Which knob.
    pub knob: Knob,
    /// RAMpage result.
    pub rampage: Cell,
    /// 2-way L2 result.
    pub two_way: Cell,
}

/// The ablation study.
#[derive(Debug, Clone)]
pub struct Ablations {
    /// Issue rate used (MHz).
    pub issue_mhz: u32,
    /// Page/block size used.
    pub unit_bytes: u64,
    /// One row per knob.
    pub rows: Vec<AblationRow>,
}

/// The study's grid: each knob applied to RAMpage with switch-on-miss,
/// then to the 2-way L2, at one issue rate and size.
pub fn grid(issue: IssueRate, unit_bytes: u64) -> Vec<(String, SystemConfig)> {
    Knob::ALL
        .iter()
        .flat_map(|&knob| {
            [
                (
                    format!("{knob:?}+rampage_switching"),
                    knob.apply(SystemConfig::rampage_switching(issue, unit_bytes)),
                ),
                (
                    format!("{knob:?}+two_way"),
                    knob.apply(SystemConfig::two_way(issue, unit_bytes)),
                ),
            ]
        })
        .collect()
}

/// Run every knob's [`grid`] pair as one batch. The `Base` knob's pair
/// matches Table 4's and Table 5's cells at this rate/size, so a shared
/// cell cache turns them into hits.
pub fn run(
    runner: &SweepRunner,
    workload: &Workload,
    issue: IssueRate,
    unit_bytes: u64,
) -> Ablations {
    let cells = run_grid(runner, "ablations", &grid(issue, unit_bytes), workload);
    let rows = Knob::ALL
        .iter()
        .zip(cells.chunks_exact(2))
        .map(|(&knob, pair)| AblationRow {
            knob,
            rampage: pair[0],
            two_way: pair[1],
        })
        .collect();
    Ablations {
        issue_mhz: issue.mhz(),
        unit_bytes,
        rows,
    }
}

impl ToJson for AblationRow {
    fn to_json(&self) -> Json {
        obj! {
            "knob" => self.knob.label(),
            "rampage" => self.rampage,
            "two_way" => self.two_way,
        }
    }
}

impl ToJson for Ablations {
    fn to_json(&self) -> Json {
        obj! {
            "issue_mhz" => self.issue_mhz,
            "unit_bytes" => self.unit_bytes,
            "rows" => self.rows,
        }
    }
}

impl Ablations {
    /// Render as a knob × system table of run times and deltas vs base.
    pub fn render(&self) -> String {
        let mut t = TableBuilder::new(vec![
            "knob".into(),
            "RAMpage (s)".into(),
            "vs base".into(),
            "2-way L2 (s)".into(),
            "vs base".into(),
        ]);
        let base = &self.rows[0];
        for row in &self.rows {
            t.row(vec![
                row.knob.label().to_string(),
                format!("{:.3}", row.rampage.seconds),
                format!(
                    "{:+.1}%",
                    100.0 * (row.rampage.seconds / base.rampage.seconds - 1.0)
                ),
                format!("{:.3}", row.two_way.seconds),
                format!(
                    "{:+.1}%",
                    100.0 * (row.two_way.seconds / base.two_way.seconds - 1.0)
                ),
            ]);
        }
        format!(
            "Ablations (§6.3 future work), {} MHz, {} B pages/blocks\n{}",
            self.issue_mhz,
            self.unit_bytes,
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knobs_modify_configs() {
        let base = SystemConfig::rampage(IssueRate::GHZ1, 512);
        assert_eq!(Knob::Base.apply(base), base);
        assert_eq!(Knob::LargeTlb.apply(base).tlb.entries(), 1024);
        assert_eq!(Knob::AggressiveL1.apply(base).l1.ways, 2);
        assert_eq!(
            Knob::PipelinedRambus.apply(base).dram,
            DramKind::RambusPipelined
        );
        assert_eq!(Knob::SdramDevice.apply(base).dram, DramKind::Sdram);
        match Knob::StandbyList.apply(base).hierarchy {
            HierarchyKind::Rampage(r) => assert_eq!(r.standby_pages, Some(256)),
            _ => panic!("still RAMpage"),
        }
        // Standby knob is a no-op on conventional configs.
        let conv = SystemConfig::two_way(IssueRate::GHZ1, 512);
        assert_eq!(Knob::StandbyList.apply(conv), conv);
    }

    #[test]
    fn study_runs_all_knobs() {
        let a = run(
            &SweepRunner::serial(),
            &Workload::quick(),
            IssueRate::GHZ1,
            1024,
        );
        assert_eq!(a.rows.len(), Knob::ALL.len());
        for row in &a.rows {
            assert!(row.rampage.seconds > 0.0);
            assert!(row.two_way.seconds > 0.0);
        }
        assert!(a.render().contains("pipelined Rambus"));
    }
}
