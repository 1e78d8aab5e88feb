//! The config model check: every experiment preset's sweep grid,
//! enumerated without running anything, so `repro lint --configs` can
//! prove at lint time that no grid cell would die in
//! [`SystemConfig::validate`] mid-sweep.
//!
//! Each grid here lists the configs its experiment module builds
//! (`table3::run_paper`, `timeslice::run` with the default slice, the
//! `diag` artifact loop, …), with one known difference: the `anatomy`
//! grid holds the plain `baseline` and `two_way` presets, while
//! `anatomy::run` also sets `classify_l2` and clears `switch_trace`.
//! Neither flag changes what [`SystemConfig::validate`] checks. The grid
//! stays as it is because the ledger's `sweep_journaled` workload pins
//! `preset_grids()`. When an experiment grows a new axis, extend its grid
//! here; `grid_shapes_match_their_experiments` below cross-checks the
//! cell counts.

use crate::config::SystemConfig;
use crate::error::ConfigError;
use crate::experiments::ablations::Knob;
use crate::experiments::common::PAPER_SIZES;
use crate::experiments::timeslice::DEFAULT_SLICE_PS;
use crate::time::IssueRate;

/// One experiment preset's full sweep grid.
#[derive(Debug)]
pub struct PresetGrid {
    /// The artifact name as `repro` spells it (`table3`, `ablations`, …).
    pub name: &'static str,
    /// Every cell: a human label (`rampage@1000MHz/1024B`) plus the
    /// exact config the experiment would run.
    pub cells: Vec<(String, SystemConfig)>,
}

/// A cell that failed validation.
#[derive(Debug)]
pub struct GridError {
    /// Which preset grid.
    pub grid: &'static str,
    /// Which cell within it.
    pub cell: String,
    /// Why the config is invalid.
    pub error: ConfigError,
}

impl std::fmt::Display for GridError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}::{}: {}", self.grid, self.cell, self.error)
    }
}

fn label(kind: &str, rate: IssueRate, size: u64) -> String {
    format!("{kind}@{}MHz/{size}B", rate.mhz())
}

/// Every preset grid the `repro` artifacts sweep.
pub fn preset_grids() -> Vec<PresetGrid> {
    let mut grids = Vec::new();

    // table3: baseline + rampage over the full paper cross product.
    let mut cells = Vec::new();
    for &rate in &IssueRate::PAPER_SWEEP {
        for &size in &PAPER_SIZES {
            cells.push((
                label("baseline", rate, size),
                SystemConfig::baseline(rate, size),
            ));
            cells.push((
                label("rampage", rate, size),
                SystemConfig::rampage(rate, size),
            ));
        }
    }
    grids.push(PresetGrid {
        name: "table3",
        cells,
    });

    // table4: rampage with switch-on-miss, same axes as table3.
    let mut cells = Vec::new();
    for &rate in &IssueRate::PAPER_SWEEP {
        for &size in &PAPER_SIZES {
            cells.push((
                label("rampage_switching", rate, size),
                SystemConfig::rampage_switching(rate, size),
            ));
        }
    }
    grids.push(PresetGrid {
        name: "table4",
        cells,
    });

    // table5: the 2-way conventional sweep, same axes.
    let mut cells = Vec::new();
    for &rate in &IssueRate::PAPER_SWEEP {
        for &size in &PAPER_SIZES {
            cells.push((
                label("two_way", rate, size),
                SystemConfig::two_way(rate, size),
            ));
        }
    }
    grids.push(PresetGrid {
        name: "table5",
        cells,
    });

    // timeslice: both scheduling regimes at the rates repro sweeps.
    let mut cells = Vec::new();
    for time_based in [false, true] {
        for &rate in &[IssueRate::MHZ200, IssueRate::GHZ1, IssueRate::GHZ4] {
            for &size in &PAPER_SIZES {
                let mut cfg = SystemConfig::two_way(rate, size);
                let regime = if time_based {
                    cfg.quantum_time = Some(rampage_dram::Picos(DEFAULT_SLICE_PS));
                    "two_way+time"
                } else {
                    "two_way+refs"
                };
                cells.push((label(regime, rate, size), cfg));
            }
        }
    }
    grids.push(PresetGrid {
        name: "timeslice",
        cells,
    });

    // ablations: every knob applied to both systems at the repro point.
    let mut cells = Vec::new();
    for &knob in &Knob::ALL {
        let (rate, size) = (IssueRate::GHZ1, 1024);
        cells.push((
            format!("{knob:?}+rampage_switching"),
            knob.apply(SystemConfig::rampage_switching(rate, size)),
        ));
        cells.push((
            format!("{knob:?}+two_way"),
            knob.apply(SystemConfig::two_way(rate, size)),
        ));
    }
    grids.push(PresetGrid {
        name: "ablations",
        cells,
    });

    // perbench: solo RAMpage runs per page size (workloads differ per
    // program, configs per size).
    let mut cells = Vec::new();
    for &size in &PAPER_SIZES {
        cells.push((
            label("rampage", IssueRate::GHZ1, size),
            SystemConfig::rampage(IssueRate::GHZ1, size),
        ));
    }
    grids.push(PresetGrid {
        name: "perbench",
        cells,
    });

    // anatomy: direct-mapped and 2-way conventional at 1 GHz (the run
    // itself adds classify_l2 and drops the switch trace; see above).
    let mut cells = Vec::new();
    for &size in &PAPER_SIZES {
        cells.push((
            label("baseline", IssueRate::GHZ1, size),
            SystemConfig::baseline(IssueRate::GHZ1, size),
        ));
        cells.push((
            label("two_way", IssueRate::GHZ1, size),
            SystemConfig::two_way(IssueRate::GHZ1, size),
        ));
    }
    grids.push(PresetGrid {
        name: "anatomy",
        cells,
    });

    // dramdiff: flat-vs-banked error quantification — the exact configs
    // come from the experiment module so the grid cannot drift.
    grids.push(PresetGrid {
        name: "dramdiff",
        cells: crate::experiments::dram_backend::grid_configs(
            IssueRate::GHZ1,
            &crate::experiments::dram_backend::DIVERGENCE_SIZES,
        ),
    });

    // diag: the three-system detail table at 1 GHz.
    let mut cells = Vec::new();
    for &size in &PAPER_SIZES {
        cells.push((
            label("baseline", IssueRate::GHZ1, size),
            SystemConfig::baseline(IssueRate::GHZ1, size),
        ));
        cells.push((
            label("rampage", IssueRate::GHZ1, size),
            SystemConfig::rampage(IssueRate::GHZ1, size),
        ));
        cells.push((
            label("two_way", IssueRate::GHZ1, size),
            SystemConfig::two_way(IssueRate::GHZ1, size),
        ));
    }
    grids.push(PresetGrid {
        name: "diag",
        cells,
    });

    grids
}

/// Validate every cell of every preset grid; empty means every sweep
/// `repro` can run is statically known to pass the config gate.
pub fn validate_presets() -> Vec<GridError> {
    let mut errors = Vec::new();
    for grid in preset_grids() {
        for (cell, cfg) in grid.cells {
            if let Err(error) = cfg.validate() {
                errors.push(GridError {
                    grid: grid.name,
                    cell,
                    error,
                });
            }
        }
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_preset_grid_cell_validates() {
        let errors = validate_presets();
        assert!(errors.is_empty(), "invalid preset cells: {errors:?}");
    }

    #[test]
    fn grid_shapes_match_their_experiments() {
        let grids = preset_grids();
        let shape = |name: &str| {
            grids
                .iter()
                .find(|g| g.name == name)
                .map(|g| g.cells.len())
                .unwrap_or(0)
        };
        let rates = IssueRate::PAPER_SWEEP.len();
        let sizes = PAPER_SIZES.len();
        assert_eq!(shape("table3"), rates * sizes * 2);
        assert_eq!(shape("table4"), rates * sizes);
        assert_eq!(shape("table5"), rates * sizes);
        assert_eq!(shape("timeslice"), 3 * sizes * 2);
        assert_eq!(shape("ablations"), Knob::ALL.len() * 2);
        assert_eq!(shape("perbench"), sizes);
        assert_eq!(shape("anatomy"), sizes * 2);
        assert_eq!(shape("diag"), sizes * 3);
        // dramdiff: sizes × {rampage, baseline} × {flat, banked}.
        assert_eq!(
            shape("dramdiff"),
            crate::experiments::dram_backend::DIVERGENCE_SIZES.len() * 2 * 2
        );
    }

    #[test]
    fn a_broken_cell_is_reported_with_grid_and_label() {
        // Sanity-check the reporting shape on a deliberately bad config.
        let mut cfg = SystemConfig::baseline(IssueRate::GHZ1, 512);
        cfg.quantum = 0;
        let err = cfg.validate().expect_err("zero quantum is invalid");
        let ge = GridError {
            grid: "synthetic",
            cell: "baseline@1000MHz/512B".to_string(),
            error: err,
        };
        let text = ge.to_string();
        assert!(
            text.contains("synthetic::baseline@1000MHz/512B: "),
            "{text}"
        );
    }
}
