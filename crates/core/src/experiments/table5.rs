//! Table 5: the "more realistic" 2-way associative L2 with context
//! switches.

use crate::config::SystemConfig;
use crate::experiments::common::{fastest, fmt_rate, rows, run_grid, sweep_grid, Cell, Workload};
use crate::experiments::runner::SweepRunner;
use crate::report::TableBuilder;
use crate::time::IssueRate;
use rampage_json::{obj, Json, ToJson};

/// The Table 5 sweep.
#[derive(Debug, Clone)]
pub struct Table5 {
    /// Block sizes swept.
    pub sizes: Vec<u64>,
    /// Issue rates swept (MHz).
    pub rates_mhz: Vec<u32>,
    /// `cells[rate][size]`.
    pub cells: Vec<Vec<Cell>>,
}

/// The Table 5 grid: the 2-way L2 at each `(rate, size)`, rate-major.
pub fn grid(rates: &[IssueRate], sizes: &[u64]) -> Vec<(String, SystemConfig)> {
    sweep_grid(rates, sizes, &[("two_way", SystemConfig::two_way)])
}

/// Run the sweep: 2-way random-replacement L2, context-switch trace at
/// quantum boundaries (but no switches on misses — §4.7). The whole
/// [`grid`] goes to the runner as one batch.
pub fn run(
    runner: &SweepRunner,
    workload: &Workload,
    rates: &[IssueRate],
    sizes: &[u64],
) -> Table5 {
    let cells = run_grid(runner, "table5", &grid(rates, sizes), workload);
    Table5 {
        sizes: sizes.to_vec(),
        rates_mhz: rates.iter().map(|r| r.mhz()).collect(),
        cells: rows(cells, rates.len(), sizes.len()),
    }
}

impl ToJson for Table5 {
    fn to_json(&self) -> Json {
        obj! {
            "sizes" => self.sizes,
            "rates_mhz" => self.rates_mhz,
            "cells" => self.cells,
        }
    }
}

impl Table5 {
    /// Best time and its block size at a rate index.
    pub fn best(&self, rate_idx: usize) -> (u64, f64) {
        fastest(&self.cells[rate_idx])
    }

    /// Render like the paper: one row per issue rate.
    pub fn render(&self) -> String {
        let mut header = vec!["issue rate".into()];
        header.extend(self.sizes.iter().map(|s| s.to_string()));
        let mut t = TableBuilder::new(header);
        for (i, &mhz) in self.rates_mhz.iter().enumerate() {
            let mut row = vec![fmt_rate(mhz)];
            row.extend(self.cells[i].iter().map(|c| format!("{:.3}", c.seconds)));
            t.row(row);
        }
        format!(
            "Table 5: run times (s), 2-way associative L2 with context switches\n{}",
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_shape_and_render() {
        let w = Workload::quick();
        let t = run(
            &SweepRunner::serial(),
            &w,
            &[IssueRate::MHZ200],
            &[256, 2048],
        );
        assert_eq!(t.cells.len(), 1);
        assert_eq!(t.cells[0].len(), 2);
        assert!(t.cells[0][0].seconds > 0.0);
        let (_, best) = t.best(0);
        assert!(best <= t.cells[0][0].seconds);
        assert!(t.render().contains("2-way"));
    }
}
