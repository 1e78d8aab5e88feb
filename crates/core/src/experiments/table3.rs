//! Table 3: baseline direct-mapped L2 vs RAMpage, across block/page
//! sizes and issue rates.

use crate::config::SystemConfig;
use crate::experiments::common::{
    fastest, fmt_rate, rows, run_grid, sweep_grid, Cell, Workload, PAPER_SIZES,
};
use crate::experiments::runner::SweepRunner;
use crate::report::TableBuilder;
use crate::time::IssueRate;
use rampage_json::{obj, Json, ToJson};

/// The full Table 3 sweep: for each issue rate, a row of baseline cells
/// and a row of RAMpage cells across the size sweep.
#[derive(Debug, Clone)]
pub struct Table3 {
    /// Block/page sizes swept (columns).
    pub sizes: Vec<u64>,
    /// Issue rates swept (row pairs).
    pub rates_mhz: Vec<u32>,
    /// `baseline[rate][size]`.
    pub baseline: Vec<Vec<Cell>>,
    /// `rampage[rate][size]`.
    pub rampage: Vec<Vec<Cell>>,
}

/// The Table 3 grid: baseline then RAMpage at each `(rate, size)`,
/// rate-major, in the order [`run`] submits it.
pub fn grid(rates: &[IssueRate], sizes: &[u64]) -> Vec<(String, SystemConfig)> {
    sweep_grid(
        rates,
        sizes,
        &[
            ("baseline", SystemConfig::baseline),
            ("rampage", SystemConfig::rampage),
        ],
    )
}

/// Run the Table 3 sweep. The whole [`grid`] goes to the runner as one
/// batch, so the table parallelizes and dedups against the cell cache.
pub fn run(
    runner: &SweepRunner,
    workload: &Workload,
    rates: &[IssueRate],
    sizes: &[u64],
) -> Table3 {
    let cells = run_grid(runner, "table3", &grid(rates, sizes), workload);
    let by_rate = rows(cells, rates.len(), 2 * sizes.len());
    let split = |system: usize| -> Vec<Vec<Cell>> {
        by_rate
            .iter()
            .map(|row| row.iter().skip(system).step_by(2).copied().collect())
            .collect()
    };
    Table3 {
        sizes: sizes.to_vec(),
        rates_mhz: rates.iter().map(|r| r.mhz()).collect(),
        baseline: split(0),
        rampage: split(1),
    }
}

/// Run with the paper's sweep (all six sizes, 200 MHz – 4 GHz).
pub fn run_paper(runner: &SweepRunner, workload: &Workload) -> Table3 {
    run(runner, workload, &IssueRate::PAPER_SWEEP, &PAPER_SIZES)
}

impl ToJson for Table3 {
    fn to_json(&self) -> Json {
        obj! {
            "sizes" => self.sizes,
            "rates_mhz" => self.rates_mhz,
            "baseline" => self.baseline,
            "rampage" => self.rampage,
        }
    }
}

impl Table3 {
    /// Best baseline time at a rate index.
    pub fn best_baseline(&self, rate_idx: usize) -> (u64, f64) {
        fastest(&self.baseline[rate_idx])
    }

    /// Best RAMpage time at a rate index.
    pub fn best_rampage(&self, rate_idx: usize) -> (u64, f64) {
        fastest(&self.rampage[rate_idx])
    }

    /// RAMpage's best-case advantage over the baseline at a rate index:
    /// `baseline_best / rampage_best - 1` (the paper quotes 6 % at
    /// 200 MHz and 26 % at 4 GHz).
    pub fn rampage_advantage(&self, rate_idx: usize) -> f64 {
        let (_, b) = self.best_baseline(rate_idx);
        let (_, r) = self.best_rampage(rate_idx);
        b / r - 1.0
    }

    /// Render in the paper's shape: one row pair (cache over RAMpage) per
    /// issue rate.
    pub fn render(&self) -> String {
        let mut header = vec!["issue rate".into(), "system".into()];
        header.extend(self.sizes.iter().map(|s| s.to_string()));
        let mut t = TableBuilder::new(header);
        for (i, &mhz) in self.rates_mhz.iter().enumerate() {
            let rate = fmt_rate(mhz);
            let mut row = vec![rate.clone(), "DM cache".into()];
            row.extend(self.baseline[i].iter().map(|c| format!("{:.3}", c.seconds)));
            t.row(row);
            let mut row = vec![String::new(), "RAMpage".into()];
            row.extend(self.rampage[i].iter().map(|c| format!("{:.3}", c.seconds)));
            t.row(row);
        }
        let mut out = format!(
            "Table 3: elapsed simulated time (s), baseline DM L2 (top) vs RAMpage (bottom)\n{}",
            t.render()
        );
        for (i, &mhz) in self.rates_mhz.iter().enumerate() {
            let (bs, bt) = self.best_baseline(i);
            let (rs, rt) = self.best_rampage(i);
            out.push_str(&format!(
                "{}: best DM {bt:.3}s @ {bs} B; best RAMpage {rt:.3}s @ {rs} B; RAMpage advantage {:.1}%\n",
                fmt_rate(mhz),
                100.0 * self.rampage_advantage(i)
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweep_has_expected_shape() {
        let w = Workload::quick();
        let runner = SweepRunner::serial();
        let t = run(
            &runner,
            &w,
            &[IssueRate::MHZ200, IssueRate::GHZ4],
            &[256, 4096],
        );
        assert_eq!(t.baseline.len(), 2);
        assert_eq!(t.rampage[0].len(), 2);
        let s = t.render();
        assert!(s.contains("DM cache"));
        assert!(s.contains("RAMpage"));
        assert!(s.contains("advantage"));
        // Every cell simulated something.
        for row in t.baseline.iter().chain(t.rampage.iter()) {
            for c in row {
                assert!(c.seconds > 0.0);
            }
        }
    }

    #[test]
    fn best_picks_minimum() {
        let w = Workload::quick();
        let runner = SweepRunner::serial();
        let t = run(&runner, &w, &[IssueRate::GHZ1], &[128, 1024]);
        let (size, secs) = t.best_rampage(0);
        assert!(t.rampage[0].iter().all(|c| c.seconds >= secs));
        assert!(size == 128 || size == 1024);
    }
}
