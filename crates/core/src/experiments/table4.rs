//! Table 4: RAMpage with context switches on misses.

use crate::config::SystemConfig;
use crate::experiments::common::{fastest, fmt_rate, rows, run_grid, sweep_grid, Cell, Workload};
use crate::experiments::runner::SweepRunner;
use crate::experiments::table3::Table3;
use crate::report::TableBuilder;
use crate::time::IssueRate;
use rampage_json::{obj, Json, ToJson};

/// The Table 4 sweep: RAMpage with `switch_on_miss` (and the quantum
/// switch trace), plus the speedup over plain RAMpage from Table 3.
#[derive(Debug, Clone)]
pub struct Table4 {
    /// Page sizes swept.
    pub sizes: Vec<u64>,
    /// Issue rates swept (MHz).
    pub rates_mhz: Vec<u32>,
    /// `cells[rate][size]` — RAMpage with switch-on-miss.
    pub cells: Vec<Vec<Cell>>,
    /// `speedup[rate][size]` — paper's "vs. no switch" numbers:
    /// `t_noswitch / t_switch` (>1 means switching on misses won).
    pub speedup: Vec<Vec<f64>>,
}

/// The Table 4 grid: RAMpage with switch-on-miss at each
/// `(rate, size)`, rate-major.
pub fn grid(rates: &[IssueRate], sizes: &[u64]) -> Vec<(String, SystemConfig)> {
    sweep_grid(
        rates,
        sizes,
        &[("rampage_switching", SystemConfig::rampage_switching)],
    )
}

/// Run the sweep: the [`grid`] over `baseline`'s rates and sizes, as one
/// batch. `baseline` must be a Table 3 computed over the same workload
/// (its RAMpage half provides the "no switch" reference times).
pub fn run(runner: &SweepRunner, workload: &Workload, baseline: &Table3) -> Table4 {
    let sizes = baseline.sizes.clone();
    let rates_mhz = baseline.rates_mhz.clone();
    let rates: Vec<IssueRate> = rates_mhz
        .iter()
        .map(|&mhz| IssueRate::from_mhz(mhz))
        .collect();
    let cells = run_grid(runner, "table4", &grid(&rates, &sizes), workload);
    let cells = rows(cells, rates.len(), sizes.len());
    let speedup = cells
        .iter()
        .zip(&baseline.rampage)
        .map(|(row, without)| {
            row.iter()
                .zip(without)
                .map(|(with, without)| without.seconds / with.seconds)
                .collect()
        })
        .collect();
    Table4 {
        sizes,
        rates_mhz,
        cells,
        speedup,
    }
}

impl ToJson for Table4 {
    fn to_json(&self) -> Json {
        obj! {
            "sizes" => self.sizes,
            "rates_mhz" => self.rates_mhz,
            "cells" => self.cells,
            "speedup" => self.speedup,
        }
    }
}

impl Table4 {
    /// Best time and its page size at a rate index.
    pub fn best(&self, rate_idx: usize) -> (u64, f64) {
        fastest(&self.cells[rate_idx])
    }

    /// Render run times with speedups underneath, as in the paper.
    pub fn render(&self) -> String {
        let mut header = vec!["issue rate".into(), String::new()];
        header.extend(self.sizes.iter().map(|s| s.to_string()));
        let mut t = TableBuilder::new(header);
        for (i, &mhz) in self.rates_mhz.iter().enumerate() {
            let mut row = vec![fmt_rate(mhz), "time (s)".into()];
            row.extend(self.cells[i].iter().map(|c| format!("{:.3}", c.seconds)));
            t.row(row);
            let mut row = vec![String::new(), "vs. no switch".into()];
            row.extend(self.speedup[i].iter().map(|s| format!("{s:.3}x")));
            t.row(row);
        }
        format!(
            "Table 4: RAMpage with context switches on misses\n{}",
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::table3;

    #[test]
    fn sweep_and_speedup_shapes() {
        let w = Workload::quick();
        let runner = SweepRunner::serial();
        let base = table3::run(&runner, &w, &[IssueRate::GHZ4], &[1024, 4096]);
        let t4 = run(&runner, &w, &base);
        assert_eq!(t4.cells.len(), 1);
        assert_eq!(t4.speedup[0].len(), 2);
        for &s in &t4.speedup[0] {
            assert!(s > 0.0, "speedups are positive ratios");
        }
        let (size, secs) = t4.best(0);
        assert!(secs > 0.0);
        assert!(size == 1024 || size == 4096);
        assert!(t4.render().contains("vs. no switch"));
    }
}
