//! §6.3's per-application page-size study.
//!
//! "Other work in progress includes more detailed evaluation of
//! differences in individual application behaviour, to explore the value
//! of a variable SRAM page size; initial results show that variation can
//! make a difference in individual programs but that a single page size
//! may be optimal for most programs under given assumptions about the
//! memory system."
//!
//! This experiment runs each Table 2 program *alone* through RAMpage at
//! every page size and reports the per-program optimum, quantifying how
//! much a dynamically variable page size (RAMpage's unique capability,
//! §6.2) could buy over the best single fixed size.

use crate::config::SystemConfig;
use crate::experiments::common::{sweep_grid, Workload};
use crate::experiments::runner::{Job, SweepRunner};
use crate::report::TableBuilder;
use crate::time::IssueRate;
use rampage_json::{obj, Json, ToJson};
use rampage_trace::profiles;

/// One program's sweep.
#[derive(Debug, Clone)]
pub struct ProgramSweep {
    /// Program name (Table 2).
    pub name: String,
    /// Simulated seconds per page size (aligned with the study's sizes).
    pub seconds: Vec<f64>,
    /// The best page size for this program.
    pub best_size: u64,
}

/// The whole study.
#[derive(Debug, Clone)]
pub struct PerBenchmark {
    /// Page sizes swept.
    pub sizes: Vec<u64>,
    /// Issue rate (MHz).
    pub issue_mhz: u32,
    /// One sweep per program.
    pub programs: Vec<ProgramSweep>,
    /// Total time if every program ran at its own optimum.
    pub variable_total: f64,
    /// Total time at the best single fixed page size.
    pub fixed_total: f64,
    /// The best single fixed size.
    pub fixed_best_size: u64,
}

/// The study's configs: RAMpage at each page size. [`run`] pairs each
/// with every Table 2 program running alone.
pub fn grid(issue: IssueRate, sizes: &[u64]) -> Vec<(String, SystemConfig)> {
    sweep_grid(&[issue], sizes, &[("rampage", SystemConfig::rampage)])
}

/// Run the study: each program alone, about `refs_per_bench`
/// references, through every [`grid`] config. The 18 × sizes solo runs
/// go through the runner as one batch, so they spread over the worker
/// pool.
pub fn run(
    runner: &SweepRunner,
    issue: IssueRate,
    sizes: &[u64],
    refs_per_bench: u64,
    seed: u64,
) -> PerBenchmark {
    let configs = grid(issue, sizes);
    let mut jobs = Vec::with_capacity(profiles::TABLE2.len() * configs.len());
    for (pi, p) in profiles::TABLE2.iter().enumerate() {
        let workload = Workload::solo(pi, p.scale_for(refs_per_bench), seed);
        jobs.extend(configs.iter().map(|(_, cfg)| Job::new(*cfg, workload)));
    }
    let mut cells = runner.run_labeled("per_benchmark", &jobs).into_iter();
    let programs: Vec<ProgramSweep> = profiles::TABLE2
        .iter()
        .map(|p| {
            let seconds: Vec<f64> = cells
                .by_ref()
                .take(sizes.len())
                .map(|c| c.seconds)
                .collect();
            let best_idx = seconds
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(b.1))
                // Sweep invariant: `seconds` holds one entry per size and
                // the size axis is never empty; 0 is an inert fallback.
                .map_or(0, |(i, _)| i);
            ProgramSweep {
                name: p.name.to_string(),
                best_size: sizes[best_idx],
                seconds,
            }
        })
        .collect();
    let mut totals = vec![0.0f64; sizes.len()];
    for p in &programs {
        for (i, &s) in p.seconds.iter().enumerate() {
            totals[i] += s;
        }
    }
    let variable_total: f64 = programs
        .iter()
        .map(|p| p.seconds.iter().copied().fold(f64::MAX, f64::min))
        .sum();
    let Some((fixed_idx, fixed_total)) = totals
        .iter()
        .copied()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(&b.1))
    else {
        // Sweep invariant: `totals` has one slot per size and the size
        // axis is never empty.
        unreachable!("per-benchmark sweeps carry at least one size");
    };
    PerBenchmark {
        sizes: sizes.to_vec(),
        issue_mhz: issue.mhz(),
        programs,
        variable_total,
        fixed_total,
        fixed_best_size: sizes[fixed_idx],
    }
}

impl ToJson for ProgramSweep {
    fn to_json(&self) -> Json {
        obj! {
            "name" => self.name,
            "seconds" => self.seconds,
            "best_size" => self.best_size,
        }
    }
}

impl ToJson for PerBenchmark {
    fn to_json(&self) -> Json {
        obj! {
            "sizes" => self.sizes,
            "issue_mhz" => self.issue_mhz,
            "programs" => self.programs,
            "variable_total" => self.variable_total,
            "fixed_total" => self.fixed_total,
            "fixed_best_size" => self.fixed_best_size,
        }
    }
}

impl PerBenchmark {
    /// How much a per-program (variable) page size improves on the best
    /// fixed size, as a fraction (0.03 = 3 % faster).
    pub fn variable_page_gain(&self) -> f64 {
        self.fixed_total / self.variable_total - 1.0
    }

    /// Render the study.
    pub fn render(&self) -> String {
        let mut header = vec!["program".into()];
        header.extend(self.sizes.iter().map(|s| s.to_string()));
        header.push("best".into());
        let mut t = TableBuilder::new(header);
        for p in &self.programs {
            let mut row = vec![p.name.clone()];
            let best = p.seconds.iter().copied().fold(f64::MAX, f64::min);
            for &s in &p.seconds {
                let mark = if (s - best).abs() < 1e-12 { "*" } else { "" };
                row.push(format!("{:.3}{}", s * 1e3, mark));
            }
            row.push(p.best_size.to_string());
            t.row(row);
        }
        format!(
            "Per-benchmark page-size study (§6.3), RAMpage alone per program, {} MHz (ms, * = best)\n{}\
             best fixed size {} B: {:.3} ms total; per-program optima: {:.3} ms (variable page size buys {:.1}%)\n",
            self.issue_mhz,
            t.render(),
            self.fixed_best_size,
            1e3 * self.fixed_total,
            1e3 * self.variable_total,
            100.0 * self.variable_page_gain(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn study_finds_optima_and_gain_is_nonnegative() {
        let s = run(
            &SweepRunner::new(0),
            IssueRate::GHZ1,
            &[256, 2048],
            5_000,
            3,
        );
        assert_eq!(s.programs.len(), 18);
        for p in &s.programs {
            assert_eq!(p.seconds.len(), 2);
            assert!(p.best_size == 256 || p.best_size == 2048);
        }
        // The variable-size total can never lose to the fixed-size total.
        assert!(
            s.variable_page_gain() >= -1e-12,
            "gain {}",
            s.variable_page_gain()
        );
        assert!(s.render().contains("variable page size"));
    }

    #[test]
    fn zero_refs_per_bench_runs_each_program_at_its_smallest_volume() {
        let s = run(&SweepRunner::serial(), IssueRate::GHZ1, &[4096], 0, 3);
        assert_eq!(s.programs.len(), 18);
        assert!(s.programs.iter().all(|p| p.seconds[0] > 0.0));
    }
}
