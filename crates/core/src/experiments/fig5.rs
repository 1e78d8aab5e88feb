//! Figure 5: RAMpage (switching on misses) vs the 2-way L2, relative to
//! the best time at each CPU speed.

use crate::experiments::common::fmt_rate;
use crate::experiments::table4::Table4;
use crate::experiments::table5::Table5;
use crate::report::TableBuilder;
use rampage_json::{obj, Json, ToJson};

/// The figure's data: for each issue rate and size, how much slower each
/// system is than the best time achieved at that rate. The paper plots
/// "n, where n means 1.n times slower than the best time for each CPU
/// speed" — i.e. `time / best - 1`.
#[derive(Debug, Clone)]
pub struct Figure5 {
    /// Sizes swept.
    pub sizes: Vec<u64>,
    /// Issue rates (MHz).
    pub rates_mhz: Vec<u32>,
    /// `rampage[rate][size]` — slowdown of RAMpage-with-switches.
    pub rampage: Vec<Vec<f64>>,
    /// `two_way[rate][size]` — slowdown of the 2-way L2.
    pub two_way: Vec<Vec<f64>>,
}

/// Derive the figure from the Table 4 and Table 5 sweeps (which must
/// share sizes and rates).
///
/// # Panics
///
/// Panics if the two tables' shapes differ.
pub fn derive(t4: &Table4, t5: &Table5) -> Figure5 {
    assert_eq!(t4.sizes, t5.sizes, "mismatched size sweeps");
    assert_eq!(t4.rates_mhz, t5.rates_mhz, "mismatched rate sweeps");
    let mut rampage = Vec::new();
    let mut two_way = Vec::new();
    for ri in 0..t4.rates_mhz.len() {
        let best = t4.cells[ri]
            .iter()
            .map(|c| c.seconds)
            .chain(t5.cells[ri].iter().map(|c| c.seconds))
            .fold(f64::MAX, f64::min);
        rampage.push(
            t4.cells[ri]
                .iter()
                .map(|c| c.seconds / best - 1.0)
                .collect(),
        );
        two_way.push(
            t5.cells[ri]
                .iter()
                .map(|c| c.seconds / best - 1.0)
                .collect(),
        );
    }
    Figure5 {
        sizes: t4.sizes.clone(),
        rates_mhz: t4.rates_mhz.clone(),
        rampage,
        two_way,
    }
}

impl ToJson for Figure5 {
    fn to_json(&self) -> Json {
        obj! {
            "sizes" => self.sizes,
            "rates_mhz" => self.rates_mhz,
            "rampage" => self.rampage,
            "two_way" => self.two_way,
        }
    }
}

impl Figure5 {
    /// Render both systems' slowdown series.
    pub fn render(&self) -> String {
        let mut header = vec!["issue rate".into(), "system".into()];
        header.extend(self.sizes.iter().map(|s| s.to_string()));
        let mut t = TableBuilder::new(header);
        for (i, &mhz) in self.rates_mhz.iter().enumerate() {
            let mut row = vec![fmt_rate(mhz), "RAMpage+switch".into()];
            row.extend(self.rampage[i].iter().map(|v| format!("{v:.3}")));
            t.row(row);
            let mut row = vec![String::new(), "2-way L2".into()];
            row.extend(self.two_way[i].iter().map(|v| format!("{v:.3}")));
            t.row(row);
        }
        format!(
            "Figure 5: slowdown vs best time per CPU speed (0 = best; n = 1.n x slower)\n{}",
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::common::Workload;
    use crate::experiments::{table3, table4, table5};
    use crate::time::IssueRate;

    #[test]
    fn derive_produces_nonnegative_slowdowns_with_a_zero() {
        let w = Workload::quick();
        let runner = crate::experiments::runner::SweepRunner::serial();
        let rates = [IssueRate::GHZ1];
        let sizes = [512, 4096];
        let t3 = table3::run(&runner, &w, &rates, &sizes);
        let t4 = table4::run(&runner, &w, &t3);
        let t5 = table5::run(&runner, &w, &rates, &sizes);
        let f5 = derive(&t4, &t5);
        let all: Vec<f64> = f5.rampage[0]
            .iter()
            .chain(f5.two_way[0].iter())
            .copied()
            .collect();
        assert!(all.iter().all(|&v| v >= -1e-12), "slowdowns nonnegative");
        assert!(
            all.iter().any(|&v| v.abs() < 1e-12),
            "the best configuration has slowdown 0"
        );
        assert!(f5.render().contains("Figure 5"));
    }
}
