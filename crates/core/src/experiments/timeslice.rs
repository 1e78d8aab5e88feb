//! The time-slice conjecture (paper §5.5 / §6.2), tested.
//!
//! The paper worried that one of its own findings — larger blocks
//! becoming favourable as the CPU speeds up — "is possible ... an
//! artifact of the context switch interval used in simulations; in a
//! real system it would be based on a real-time clock and would
//! therefore correspond to a higher number of references as the CPU was
//! sped up. A short time slice favours larger blocks because larger
//! blocks support spatial locality at the expense of temporal locality."
//!
//! This experiment runs the 2-way L2 sweep under both quantum regimes —
//! the paper's fixed 500 k references, and a fixed slice of simulated
//! *time* — and compares where the optimal block size lands at each CPU
//! speed. If the optimum moves with the regime, the paper's caution was
//! warranted.

use crate::config::SystemConfig;
use crate::experiments::common::{fastest, fmt_rate, rows, run_grid, sweep_grid, Cell, Workload};
use crate::experiments::runner::SweepRunner;
use crate::report::TableBuilder;
use crate::time::IssueRate;
use rampage_json::{obj, Json, ToJson};

/// Default real-time slice: 2.5 ms of simulated time — the duration a
/// 500 k-reference quantum roughly occupies at 200 MHz on this workload,
/// so the two regimes coincide at the slow end and diverge as the CPU
/// speeds up.
pub const DEFAULT_SLICE_PS: u64 = 2_500_000_000;

/// The study.
#[derive(Debug, Clone)]
pub struct Timeslice {
    /// Block sizes swept.
    pub sizes: Vec<u64>,
    /// Issue rates (MHz).
    pub rates_mhz: Vec<u32>,
    /// Slice length in picoseconds for the time-based regime.
    pub slice_ps: u64,
    /// `fixed_refs[rate][size]` — the paper's regime.
    pub fixed_refs: Vec<Vec<Cell>>,
    /// `fixed_time[rate][size]` — the real-time-clock regime.
    pub fixed_time: Vec<Vec<Cell>>,
}

/// The issue rates `repro timeslice` sweeps: the slow end, the middle
/// and the fast end of the paper's range.
pub const PAPER_RATES: [IssueRate; 3] = [IssueRate::MHZ200, IssueRate::GHZ1, IssueRate::GHZ4];

/// The study's grid: the 2-way L2 sweep under the 500 k-reference
/// quantum, then the same sweep under a `slice_ps` time slice.
pub fn grid(rates: &[IssueRate], sizes: &[u64], slice_ps: u64) -> Vec<(String, SystemConfig)> {
    let mut cells = sweep_grid(rates, sizes, &[("two_way+refs", SystemConfig::two_way)]);
    for (label, mut cfg) in sweep_grid(rates, sizes, &[("two_way+time", SystemConfig::two_way)]) {
        cfg.quantum_time = Some(rampage_dram::Picos(slice_ps));
        cells.push((label, cfg));
    }
    cells
}

/// Run both regimes over the 2-way L2 sweep: the [`grid`], as one batch.
pub fn run(
    runner: &SweepRunner,
    workload: &Workload,
    rates: &[IssueRate],
    sizes: &[u64],
    slice_ps: u64,
) -> Timeslice {
    // Both regimes go into one batch; the fixed-refs half is the same
    // sweep Table 5 runs, so a shared cell cache computes it only once.
    let cells = run_grid(runner, "timeslice", &grid(rates, sizes, slice_ps), workload);
    let mut fixed_refs = rows(cells, 2 * rates.len(), sizes.len());
    let fixed_time = fixed_refs.split_off(rates.len());
    Timeslice {
        sizes: sizes.to_vec(),
        rates_mhz: rates.iter().map(|r| r.mhz()).collect(),
        slice_ps,
        fixed_refs,
        fixed_time,
    }
}

impl ToJson for Timeslice {
    fn to_json(&self) -> Json {
        let optima: Vec<Json> = self
            .optima()
            .iter()
            .map(|&(r, t)| obj! { "fixed_refs" => r, "fixed_time" => t })
            .collect();
        obj! {
            "sizes" => self.sizes,
            "rates_mhz" => self.rates_mhz,
            "slice_ps" => self.slice_ps,
            "fixed_refs" => self.fixed_refs,
            "fixed_time" => self.fixed_time,
            "optima" => optima,
        }
    }
}

impl Timeslice {
    /// The optimal block size per rate under each regime:
    /// `(fixed_refs_best, fixed_time_best)` per rate index.
    pub fn optima(&self) -> Vec<(u64, u64)> {
        self.fixed_refs
            .iter()
            .zip(&self.fixed_time)
            .map(|(r, t)| (fastest(r).0, fastest(t).0))
            .collect()
    }

    /// Render both sweeps and the optima comparison.
    pub fn render(&self) -> String {
        let mut header = vec!["issue rate".into(), "quantum".into()];
        header.extend(self.sizes.iter().map(|s| s.to_string()));
        header.push("best".into());
        let mut t = TableBuilder::new(header);
        for (i, &mhz) in self.rates_mhz.iter().enumerate() {
            for (label, cells) in [
                ("500k refs", &self.fixed_refs[i]),
                ("fixed time", &self.fixed_time[i]),
            ] {
                let mut row = vec![
                    if label == "500k refs" {
                        fmt_rate(mhz)
                    } else {
                        String::new()
                    },
                    label.into(),
                ];
                row.extend(cells.iter().map(|c| format!("{:.3}", c.seconds)));
                row.push(fastest(cells).0.to_string());
                t.row(row);
            }
        }
        format!(
            "Time-slice study (§5.5): 2-way L2 under reference-based vs {:.1} ms time-based quanta\n{}",
            self.slice_ps as f64 / 1e9,
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regimes_differ_only_in_scheduling() {
        let w = Workload::quick();
        let ts = run(
            &SweepRunner::serial(),
            &w,
            &[IssueRate::MHZ200, IssueRate::GHZ4],
            &[256, 2048],
            // A slice short enough to actually expire on this tiny
            // workload (~10 µs).
            10_000_000,
        );
        assert_eq!(ts.fixed_refs.len(), 2);
        assert_eq!(ts.optima().len(), 2);
        for (row_r, row_t) in ts.fixed_refs.iter().zip(&ts.fixed_time) {
            for (a, b) in row_r.iter().zip(row_t) {
                assert_eq!(a.unit_bytes, b.unit_bytes);
                assert!(a.seconds > 0.0 && b.seconds > 0.0);
            }
        }
        assert!(ts.render().contains("Time-slice study"));
    }

    #[test]
    fn time_based_quantum_rotates_on_simulated_time() {
        use crate::engine::Engine;
        // A 1 µs slice at 1 GHz ≈ 1000 cycles: with ~0.8 ifetch fraction
        // the engine must rotate far more often than the 500 k-ref
        // default would.
        let mut cfg = SystemConfig::two_way(IssueRate::GHZ1, 512);
        cfg.quantum_time = Some(rampage_dram::Picos(1_000_000));
        let out = Engine::for_suite(&cfg, 3, 20_000, 5).run();
        assert!(
            out.metrics.counts.context_switches > 20,
            "1 µs slices must rotate often: {}",
            out.metrics.counts.context_switches
        );
    }
}
