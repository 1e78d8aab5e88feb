//! Flat-vs-banked DRAM error quantification (ROADMAP item 1).
//!
//! The paper's flat Direct Rambus model charges a fixed 50 ns before
//! every burst; the banked backend (`rampage_dram::BankedChannel`)
//! resolves that into per-bank row-buffer hits, misses, and conflicts
//! plus structural channel pipelining. This study runs each Table 2
//! program *alone* through both the RAMpage and the conventional
//! (direct-mapped L2) system at each backend and reports the flat
//! model's per-benchmark relative error in total simulated time —
//! quantifying exactly how much fidelity the paper's simplification
//! gives up, program by program.
//!
//! Divergence is signed: `(flat − banked) / banked`, so a positive
//! value means the flat model *overestimates* run time (the banked
//! backend's row hits and pipelining make DRAM cheaper than 50 ns per
//! access), negative means it underestimates (row conflicts and bus
//! contention the flat model cannot see).

use crate::config::{DramKind, SystemConfig};
use crate::experiments::common::Workload;
use crate::experiments::runner::{Job, SweepRunner};
use crate::report::TableBuilder;
use crate::time::IssueRate;
use rampage_json::{obj, Json, ToJson};
use rampage_trace::profiles;

/// The transfer-unit sizes the study sweeps: the paper's smallest and
/// largest (128 B stresses per-access overhead, 4 KB stresses the
/// burst pipeline and row splitting).
pub const DIVERGENCE_SIZES: [u64; 2] = [128, 4096];

/// The two systems compared at each backend, in grid order.
const SYSTEMS: [&str; 2] = ["rampage", "baseline"];

/// The exact configs this study simulates, size → system → backend
/// (workloads vary per program on top of these).
pub fn grid(issue: IssueRate, sizes: &[u64]) -> Vec<(String, SystemConfig)> {
    let mut cells = Vec::new();
    for &size in sizes {
        for system in SYSTEMS {
            for (backend, kind) in [("flat", DramKind::Rambus), ("banked", DramKind::banked())] {
                let mut cfg = match system {
                    "rampage" => SystemConfig::rampage(issue, size),
                    _ => SystemConfig::baseline(issue, size),
                };
                cfg.dram = kind;
                cells.push((
                    format!("{system}+{backend}@{}MHz/{size}B", issue.mhz()),
                    cfg,
                ));
            }
        }
    }
    cells
}

/// One program's flat and banked timings across the size sweep.
#[derive(Debug, Clone)]
pub struct BenchDivergence {
    /// Program name (Table 2).
    pub name: String,
    /// RAMpage seconds per size under the flat backend.
    pub rampage_flat: Vec<f64>,
    /// RAMpage seconds per size under the banked backend.
    pub rampage_banked: Vec<f64>,
    /// Conventional (DM L2) seconds per size under the flat backend.
    pub baseline_flat: Vec<f64>,
    /// Conventional seconds per size under the banked backend.
    pub baseline_banked: Vec<f64>,
}

/// Signed relative error of `flat` against the banked reference.
fn rel_err(flat: f64, banked: f64) -> f64 {
    if banked == 0.0 {
        0.0
    } else {
        flat / banked - 1.0
    }
}

impl BenchDivergence {
    /// `(flat − banked) / banked` per size for the RAMpage system.
    pub fn rampage_divergence(&self) -> Vec<f64> {
        self.rampage_flat
            .iter()
            .zip(&self.rampage_banked)
            .map(|(&f, &b)| rel_err(f, b))
            .collect()
    }

    /// `(flat − banked) / banked` per size for the conventional system.
    pub fn baseline_divergence(&self) -> Vec<f64> {
        self.baseline_flat
            .iter()
            .zip(&self.baseline_banked)
            .map(|(&f, &b)| rel_err(f, b))
            .collect()
    }
}

/// The whole flat-vs-banked study.
#[derive(Debug, Clone)]
pub struct DramBackendStudy {
    /// Transfer-unit sizes swept.
    pub sizes: Vec<u64>,
    /// Issue rate (MHz).
    pub issue_mhz: u32,
    /// One row per Table 2 program.
    pub benchmarks: Vec<BenchDivergence>,
    /// Largest |divergence| over every (program, system, size) cell.
    pub max_abs_divergence: f64,
    /// Mean |divergence| over the same cells.
    pub mean_abs_divergence: f64,
}

/// Run the study: each Table 2 program alone, `refs_per_bench`
/// references, through every (size × system × backend) config. All
/// solo runs go through the runner as one batch, spreading over the
/// worker pool.
pub fn run(
    runner: &SweepRunner,
    issue: IssueRate,
    sizes: &[u64],
    refs_per_bench: u64,
    seed: u64,
) -> DramBackendStudy {
    let configs = grid(issue, sizes);
    let mut jobs = Vec::with_capacity(profiles::TABLE2.len() * configs.len());
    for (pi, p) in profiles::TABLE2.iter().enumerate() {
        let workload = Workload::solo(pi, p.scale_for(refs_per_bench), seed);
        jobs.extend(configs.iter().map(|(_, cfg)| Job::new(*cfg, workload)));
    }
    let mut cells = runner.run_labeled("dram_backend", &jobs).into_iter();
    let benchmarks: Vec<BenchDivergence> = profiles::TABLE2
        .iter()
        .map(|p| {
            let mut row = BenchDivergence {
                name: p.name.to_string(),
                rampage_flat: Vec::new(),
                rampage_banked: Vec::new(),
                baseline_flat: Vec::new(),
                baseline_banked: Vec::new(),
            };
            // Consumption mirrors grid order:
            // size → system → backend.
            for _ in sizes {
                for system in SYSTEMS {
                    for backend in ["flat", "banked"] {
                        let secs = cells.next().map_or(0.0, |c| c.seconds);
                        match (system, backend) {
                            ("rampage", "flat") => row.rampage_flat.push(secs),
                            ("rampage", _) => row.rampage_banked.push(secs),
                            (_, "flat") => row.baseline_flat.push(secs),
                            (_, _) => row.baseline_banked.push(secs),
                        }
                    }
                }
            }
            row
        })
        .collect();
    let all: Vec<f64> = benchmarks
        .iter()
        .flat_map(|b| {
            let mut d = b.rampage_divergence();
            d.extend(b.baseline_divergence());
            d
        })
        .collect();
    let max_abs_divergence = all.iter().map(|d| d.abs()).fold(0.0, f64::max);
    let mean_abs_divergence = if all.is_empty() {
        0.0
    } else {
        all.iter().map(|d| d.abs()).sum::<f64>() / all.len() as f64
    };
    DramBackendStudy {
        sizes: sizes.to_vec(),
        issue_mhz: issue.mhz(),
        benchmarks,
        max_abs_divergence,
        mean_abs_divergence,
    }
}

impl ToJson for BenchDivergence {
    fn to_json(&self) -> Json {
        obj! {
            "name" => self.name,
            "rampage_flat" => self.rampage_flat,
            "rampage_banked" => self.rampage_banked,
            "rampage_divergence" => self.rampage_divergence(),
            "baseline_flat" => self.baseline_flat,
            "baseline_banked" => self.baseline_banked,
            "baseline_divergence" => self.baseline_divergence(),
        }
    }
}

impl ToJson for DramBackendStudy {
    fn to_json(&self) -> Json {
        obj! {
            "sizes" => self.sizes,
            "issue_mhz" => self.issue_mhz,
            "benchmarks" => self.benchmarks,
            "max_abs_divergence" => self.max_abs_divergence,
            "mean_abs_divergence" => self.mean_abs_divergence,
        }
    }
}

impl DramBackendStudy {
    /// The compact divergence summary `repro` folds into `metrics.json`
    /// (per-benchmark divergence plus the aggregates).
    pub fn metrics_json(&self) -> Json {
        obj! {
            "sizes" => self.sizes,
            "max_abs_divergence" => self.max_abs_divergence,
            "mean_abs_divergence" => self.mean_abs_divergence,
            "benchmarks" => self
                .benchmarks
                .iter()
                .map(|b| obj! {
                    "name" => b.name,
                    "rampage_divergence" => b.rampage_divergence(),
                    "baseline_divergence" => b.baseline_divergence(),
                })
                .collect::<Vec<Json>>(),
        }
    }

    /// Render the study.
    pub fn render(&self) -> String {
        let mut header = vec!["program".to_string()];
        for &size in &self.sizes {
            header.push(format!("rampage {size}B"));
            header.push(format!("DM L2 {size}B"));
        }
        let mut t = TableBuilder::new(header);
        for b in &self.benchmarks {
            let mut row = vec![b.name.clone()];
            let rp = b.rampage_divergence();
            let dm = b.baseline_divergence();
            for i in 0..self.sizes.len() {
                row.push(format!(
                    "{:+.2}%",
                    100.0 * rp.get(i).copied().unwrap_or(0.0)
                ));
                row.push(format!(
                    "{:+.2}%",
                    100.0 * dm.get(i).copied().unwrap_or(0.0)
                ));
            }
            t.row(row);
        }
        format!(
            "Flat-vs-banked DRAM error quantification, solo per program, {} MHz\n\
             (signed relative error of the flat 50 ns model against the banked backend; \
             + = flat overestimates run time)\n{}\
             max |divergence| {:.2}%, mean |divergence| {:.2}%\n",
            self.issue_mhz,
            t.render(),
            100.0 * self.max_abs_divergence,
            100.0 * self.mean_abs_divergence,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_order_matches_consumption_order() {
        let cells = grid(IssueRate::GHZ1, &DIVERGENCE_SIZES);
        assert_eq!(cells.len(), DIVERGENCE_SIZES.len() * 4);
        assert!(cells[0].0.starts_with("rampage+flat"));
        assert!(cells[1].0.starts_with("rampage+banked"));
        assert!(cells[2].0.starts_with("baseline+flat"));
        assert!(cells[3].0.starts_with("baseline+banked"));
        assert_eq!(cells[1].1.dram, DramKind::banked());
        assert_eq!(cells[2].1.dram, DramKind::Rambus);
    }

    #[test]
    fn study_reports_per_benchmark_divergence() {
        let s = run(&SweepRunner::new(0), IssueRate::GHZ1, &[1024], 5_000, 3);
        assert_eq!(s.benchmarks.len(), 18);
        for b in &s.benchmarks {
            assert_eq!(b.rampage_flat.len(), 1);
            assert_eq!(b.rampage_banked.len(), 1);
            assert!(b.rampage_flat[0] > 0.0 && b.rampage_banked[0] > 0.0);
            assert!(b.baseline_flat[0] > 0.0 && b.baseline_banked[0] > 0.0);
        }
        // The backends genuinely differ: at least one benchmark must
        // diverge, and the aggregates must reflect it.
        assert!(s.max_abs_divergence > 0.0, "backends are distinguishable");
        assert!(s.mean_abs_divergence <= s.max_abs_divergence);
        let text = s.render();
        assert!(text.contains("divergence"), "{text}");
        let json = s.metrics_json().pretty();
        assert!(json.contains("rampage_divergence"), "{json}");
    }

    #[test]
    fn zero_refs_per_bench_runs_each_program_at_its_smallest_volume() {
        let s = run(&SweepRunner::serial(), IssueRate::GHZ1, &[4096], 0, 3);
        assert_eq!(s.benchmarks.len(), 18);
        assert!(s.benchmarks.iter().all(|b| b.rampage_flat[0] > 0.0));
    }
}
