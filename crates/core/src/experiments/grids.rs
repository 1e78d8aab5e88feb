//! The config model check: every experiment preset's sweep grid,
//! enumerated without running anything, so `repro lint --configs` can
//! prove at lint time that no grid cell would die in
//! [`SystemConfig::validate`] mid-sweep.
//!
//! Each grid comes from its experiment module's `grid` function, called
//! at the parameters `repro` runs, and that module's `run` submits
//! exactly that grid, in the same order; so the lint checks the cells
//! the experiments compute. One exception: `anatomy::run` also sets
//! `classify_l2` and clears `switch_trace` on each [`anatomy::grid`]
//! config (that function's doc says why). The `diag` artifact has no
//! experiment module, so its grid, [`diag`], lives here and `repro diag`
//! runs it. The ledger's `sweep_journaled` workload pins
//! [`preset_grids`] cell by cell, in order.

use crate::config::SystemConfig;
use crate::error::ConfigError;
use crate::experiments::common::{sweep_grid, PAPER_SIZES};
use crate::experiments::{
    ablations, anatomy, dram_backend, per_benchmark, table3, table4, table5, timeslice,
};
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

/// The `diag` artifact's grid: direct-mapped, RAMpage and 2-way at each
/// size, at 1 GHz.
pub fn diag() -> Vec<(String, SystemConfig)> {
    sweep_grid(
        &[IssueRate::GHZ1],
        &PAPER_SIZES,
        &[
            ("baseline", SystemConfig::baseline),
            ("rampage", SystemConfig::rampage),
            ("two_way", SystemConfig::two_way),
        ],
    )
}

/// Every preset grid the `repro` artifacts sweep, at the parameters
/// `repro` runs them with.
pub fn preset_grids() -> Vec<PresetGrid> {
    let (rates, ghz1) = (&IssueRate::PAPER_SWEEP, IssueRate::GHZ1);
    let slice = timeslice::DEFAULT_SLICE_PS;
    [
        ("table3", table3::grid(rates, &PAPER_SIZES)),
        ("table4", table4::grid(rates, &PAPER_SIZES)),
        ("table5", table5::grid(rates, &PAPER_SIZES)),
        (
            "timeslice",
            timeslice::grid(&timeslice::PAPER_RATES, &PAPER_SIZES, slice),
        ),
        ("ablations", ablations::grid(ghz1, 1024)),
        ("perbench", per_benchmark::grid(ghz1, &PAPER_SIZES)),
        ("anatomy", anatomy::grid(ghz1, &PAPER_SIZES)),
        (
            "dramdiff",
            dram_backend::grid(ghz1, &dram_backend::DIVERGENCE_SIZES),
        ),
        ("diag", diag()),
    ]
    .into_iter()
    .map(|(name, cells)| PresetGrid { name, cells })
    .collect()
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
    use crate::experiments::runner::Job;
    use crate::experiments::{SweepRunner, Workload};
    use rampage_trace::profiles::TABLE2;
    use std::collections::BTreeSet;
    use std::sync::{Arc, Mutex};

    #[test]
    fn every_preset_grid_cell_validates() {
        let errors = validate_presets();
        assert!(errors.is_empty(), "invalid preset cells: {errors:?}");
    }

    /// The preset grid named `name`.
    fn preset(name: &str) -> Vec<(String, SystemConfig)> {
        match preset_grids().into_iter().find(|g| g.name == name) {
            Some(grid) => grid.cells,
            None => panic!("no preset grid {name}"),
        }
    }

    /// Fingerprints of `grid`'s configs over `workload`, first
    /// occurrences only (the runner simulates a repeated job once).
    fn expected(grid: &[(String, SystemConfig)], workload: Workload) -> Vec<u64> {
        let mut seen = BTreeSet::new();
        grid.iter()
            .map(|(_, cfg)| Job::new(*cfg, workload).fingerprint())
            .filter(|&fp| seen.insert(fp))
            .collect()
    }

    /// [`expected`] for a study that runs each Table 2 program alone at
    /// about `refs` references, program by program.
    fn expected_solo(grid: &[(String, SystemConfig)], refs: u64, seed: u64) -> Vec<u64> {
        TABLE2
            .iter()
            .enumerate()
            .flat_map(|(i, p)| expected(grid, Workload::solo(i, p.scale_for(refs), seed)))
            .collect()
    }

    /// The fingerprints a fresh serial runner simulates, in order, while
    /// `run` drives it.
    fn computed<T>(run: impl FnOnce(&SweepRunner) -> T) -> Vec<u64> {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let runner =
            SweepRunner::serial().with_progress(move |p| sink.lock().unwrap().push(p.fingerprint));
        run(&runner);
        let fps = seen.lock().unwrap().clone();
        fps
    }

    #[test]
    fn every_experiment_computes_exactly_its_preset_grid() {
        // One program, about 1 k references: the grids, not the cells,
        // are under test.
        let (refs, seed) = (1_000, 3);
        let w = Workload {
            nbench: 1,
            scale: TABLE2[0].scale_for(refs),
            seed,
            solo: None,
        };
        let sizes = &PAPER_SIZES;
        let t3 = table3::run_paper(&SweepRunner::serial(), &w);
        let cases: Vec<(&str, Vec<u64>, Vec<u64>)> = vec![
            (
                "table3",
                computed(|r| table3::run_paper(r, &w)),
                expected(&preset("table3"), w),
            ),
            (
                "table4",
                computed(|r| table4::run(r, &w, &t3)),
                expected(&preset("table4"), w),
            ),
            (
                "table5",
                computed(|r| table5::run(r, &w, &IssueRate::PAPER_SWEEP, sizes)),
                expected(&preset("table5"), w),
            ),
            (
                "timeslice",
                computed(|r| {
                    let slice = timeslice::DEFAULT_SLICE_PS;
                    timeslice::run(r, &w, &timeslice::PAPER_RATES, sizes, slice)
                }),
                expected(&preset("timeslice"), w),
            ),
            (
                "ablations",
                computed(|r| ablations::run(r, &w, IssueRate::GHZ1, 1024)),
                expected(&preset("ablations"), w),
            ),
            (
                "perbench",
                computed(|r| per_benchmark::run(r, IssueRate::GHZ1, sizes, refs, seed)),
                expected_solo(&preset("perbench"), refs, seed),
            ),
            (
                "dramdiff",
                computed(|r| {
                    let sizes = &dram_backend::DIVERGENCE_SIZES;
                    dram_backend::run(r, IssueRate::GHZ1, sizes, refs, seed)
                }),
                expected_solo(&preset("dramdiff"), refs, seed),
            ),
        ];
        for (name, got, want) in cases {
            assert!(!want.is_empty(), "{name}: empty preset grid");
            assert_eq!(
                got, want,
                "{name} does not compute its preset grid in order"
            );
        }
        // Anatomy bypasses the runner: its grid is the preset entry, and
        // its run reports one cell per grid config, in grid order.
        let grid = anatomy::grid(IssueRate::GHZ1, sizes);
        assert_eq!(grid, preset("anatomy"));
        let run = anatomy::run(&w, IssueRate::GHZ1, &[128, 4096]);
        let shape: Vec<(u64, u32)> = run.cells.iter().map(|c| (c.block, c.ways)).collect();
        assert_eq!(shape, [(128, 1), (128, 2), (4096, 1), (4096, 2)]);
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
