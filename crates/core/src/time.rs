//! Issue rates and cycle arithmetic.

use crate::error::ConfigError;
use rampage_dram::Picos;
use std::fmt;

/// The simulated instruction issue rate.
///
/// §4.3 of the paper: "A superscalar CPU is not explicitly modeled. The
/// CPU cycle time used is intended to approximate the effect of a
/// superscalar design, i.e., it is really meant to model the instruction
/// issue rate ... Issue rates of 200 MHz to 4 GHz are simulated to model
/// the growing CPU-DRAM speed gap (cache and SRAM main memory speed are
/// scaled up but DRAM speed is not)."
///
/// Stored in MHz; every rate in [`IssueRate::PAPER_SWEEP`] has an exact
/// integer cycle time in picoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IssueRate(u32);

impl IssueRate {
    /// 200 MHz — the paper's slowest configuration.
    pub const MHZ200: IssueRate = IssueRate(200);
    /// 500 MHz.
    pub const MHZ500: IssueRate = IssueRate(500);
    /// 1 GHz — the rate §3.5 uses for its worked examples.
    pub const GHZ1: IssueRate = IssueRate(1000);
    /// 2 GHz.
    pub const GHZ2: IssueRate = IssueRate(2000);
    /// 4 GHz — the paper's fastest configuration.
    pub const GHZ4: IssueRate = IssueRate(4000);

    /// The sweep used throughout the experiments ("200 MHz to 4 GHz").
    pub const PAPER_SWEEP: [IssueRate; 5] = [
        IssueRate::MHZ200,
        IssueRate::MHZ500,
        IssueRate::GHZ1,
        IssueRate::GHZ2,
        IssueRate::GHZ4,
    ];

    /// An arbitrary rate in MHz.
    ///
    /// # Errors
    ///
    /// [`ConfigError::BadIssueRate`] if `mhz` is zero or does not divide
    /// 1 000 000 (the cycle time would not be a whole number of
    /// picoseconds and the simulator would lose exactness).
    pub fn try_from_mhz(mhz: u32) -> Result<IssueRate, ConfigError> {
        if mhz == 0 || 1_000_000 % mhz != 0 {
            return Err(ConfigError::BadIssueRate { mhz });
        }
        Ok(IssueRate(mhz))
    }

    /// An arbitrary rate in MHz.
    ///
    /// # Panics
    ///
    /// Panics if `mhz` is not a valid rate; use
    /// [`IssueRate::try_from_mhz`] to handle that case.
    pub fn from_mhz(mhz: u32) -> IssueRate {
        match IssueRate::try_from_mhz(mhz) {
            Ok(rate) => rate,
            Err(e) => panic!("{e}"),
        }
    }

    /// The rate in MHz.
    pub fn mhz(self) -> u32 {
        self.0
    }

    /// One CPU cycle at this rate.
    pub fn cycle(self) -> Picos {
        Picos(1_000_000 / self.0 as u64)
    }

    /// Convert a cycle count at this rate to simulated seconds.
    pub fn cycles_to_secs(self, cycles: u64) -> f64 {
        cycles as f64 * self.cycle().0 as f64 * 1e-12
    }
}

impl fmt::Display for IssueRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1000 && self.0.is_multiple_of(1000) {
            write!(f, "{} GHz", self.0 / 1000)
        } else {
            write!(f, "{} MHz", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_times_are_exact() {
        assert_eq!(IssueRate::MHZ200.cycle(), Picos(5000));
        assert_eq!(IssueRate::GHZ1.cycle(), Picos(1000));
        assert_eq!(IssueRate::GHZ4.cycle(), Picos(250));
    }

    #[test]
    fn sweep_is_monotone() {
        let mut prev = 0;
        for r in IssueRate::PAPER_SWEEP {
            assert!(r.mhz() > prev);
            prev = r.mhz();
        }
        assert_eq!(IssueRate::PAPER_SWEEP[0].mhz(), 200);
        assert_eq!(IssueRate::PAPER_SWEEP[4].mhz(), 4000);
    }

    #[test]
    fn seconds_conversion() {
        // 1 billion cycles at 1 GHz = 1 second.
        let s = IssueRate::GHZ1.cycles_to_secs(1_000_000_000);
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "non-integral")]
    fn rejects_inexact_rates() {
        let _ = IssueRate::from_mhz(3000 - 1);
    }

    #[test]
    fn display() {
        assert_eq!(IssueRate::MHZ200.to_string(), "200 MHz");
        assert_eq!(IssueRate::GHZ4.to_string(), "4 GHz");
        assert_eq!(IssueRate::from_mhz(2500).to_string(), "2500 MHz");
    }
}
