//! Per-bank row-buffer state and Direct Rambus bank timing.
//!
//! The paper's flat model charges every access 50 ns before the first
//! datum. A real Direct Rambus part splits that into row-precharge
//! (tRP), row-activate (tRCD), and column access (tCAS), and keeps the
//! last-activated row latched per bank, so an access to the open row
//! skips the activate entirely. [`BankTiming::paper`] decomposes the
//! paper's 50 ns as tRCD 30 ns + tCAS 20 ns (with tRP 20 ns on a
//! conflict), so a closed-page access costs exactly the flat model's
//! initial latency — the invariant the differential conformance suite
//! locks down.

use crate::error::DramConfigError;
use crate::mapping::AddressMapping;
use crate::time::Picos;

/// How an access hit the bank's row buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RowOutcome {
    /// The addressed row is already open: pay tCAS only.
    Hit,
    /// The bank is idle (no open row): pay tRCD + tCAS.
    Miss,
    /// A different row is open: pay tRP + tRCD + tCAS.
    Conflict,
}

/// Bank-level timing parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BankTiming {
    /// Row precharge: closing an open row before activating another.
    pub t_rp: Picos,
    /// Row activate (RAS-to-CAS delay).
    pub t_rcd: Picos,
    /// Column access: open row to first datum.
    pub t_cas: Picos,
    /// Time per 2-byte data pair on the channel.
    pub per_pair: Picos,
}

impl BankTiming {
    /// A Direct Rambus-like decomposition of the paper's 50 ns initial
    /// latency: tRP 20 ns, tRCD 30 ns, tCAS 20 ns, 2 B / 1.25 ns data.
    /// tRCD + tCAS equals the flat model's 50 ns exactly.
    pub fn paper() -> Self {
        BankTiming {
            t_rp: Picos::from_nanos(20),
            t_rcd: Picos::from_nanos(30),
            t_cas: Picos::from_nanos(20),
            per_pair: Picos(1250),
        }
    }

    /// Command overhead before the first datum for a given row outcome.
    #[inline]
    pub fn overhead(&self, outcome: RowOutcome) -> Picos {
        match outcome {
            RowOutcome::Hit => self.t_cas,
            RowOutcome::Miss => self.t_rcd + self.t_cas,
            RowOutcome::Conflict => self.t_rp + self.t_rcd + self.t_cas,
        }
    }

    /// Data-burst time for `bytes` on the 2-bytes-per-pair channel.
    #[inline]
    pub fn data_time(&self, bytes: u64) -> Picos {
        self.per_pair * bytes.div_ceil(2)
    }

    /// Check the timing is usable.
    ///
    /// # Errors
    ///
    /// [`DramConfigError::ZeroPairTime`] if the per-pair data time is
    /// zero (an unclocked channel never moves data), and
    /// [`DramConfigError::ZeroAccessTime`] if tRCD + tCAS is zero (a
    /// closed-page access must take time).
    pub fn validate(&self) -> Result<(), DramConfigError> {
        if self.per_pair == Picos::ZERO {
            return Err(DramConfigError::ZeroPairTime);
        }
        if self.t_rcd + self.t_cas == Picos::ZERO {
            return Err(DramConfigError::ZeroAccessTime);
        }
        Ok(())
    }
}

/// One bank's row-buffer state.
#[derive(Debug, Clone, Copy, Default)]
pub struct Bank {
    /// The currently open row, if open-row modeling is on.
    pub open_row: Option<u64>,
    /// When this bank can accept its next command.
    pub ready_at: Picos,
}

impl Bank {
    /// Classify an access to `row` and update the row buffer. With
    /// `open_rows` off the bank runs closed-page: every access is a
    /// [`RowOutcome::Miss`] (activate + CAS, auto-precharge hidden
    /// behind the burst) and nothing stays open.
    #[inline]
    pub fn access(&mut self, row: u64, open_rows: bool) -> RowOutcome {
        if !open_rows {
            self.open_row = None;
            return RowOutcome::Miss;
        }
        let outcome = match self.open_row {
            None => RowOutcome::Miss,
            Some(open) if open == row => RowOutcome::Hit,
            Some(_) => RowOutcome::Conflict,
        };
        self.open_row = Some(row);
        outcome
    }
}

/// Full configuration of the banked backend: geometry, timing, and the
/// two fidelity switches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BankedConfig {
    /// Address-to-(row, bank, column) mapping.
    pub mapping: AddressMapping,
    /// Bank and channel timing.
    pub timing: BankTiming,
    /// Model open rows (row-buffer hits/conflicts). Off = closed-page.
    pub open_rows: bool,
    /// Overlap the next access's row activation with the current data
    /// burst (structural pipelining; replaces the flat model's
    /// 95 %-of-peak approximation).
    pub pipelined: bool,
}

impl BankedConfig {
    /// The full-fidelity configuration: RDRAM-like geometry, open-row
    /// modeling, and structural pipelining.
    pub fn paper() -> Self {
        BankedConfig {
            mapping: AddressMapping::paper(),
            timing: BankTiming::paper(),
            open_rows: true,
            pipelined: true,
        }
    }

    /// The degenerate configuration the conformance suite uses: one
    /// bank, closed-page, no pipelining. Every transfer then costs
    /// max(now, bus-free) + tRCD + tCAS + data — bit-identical to the
    /// flat [`crate::DramModel`] channel arithmetic.
    pub fn flat_equivalent() -> Self {
        BankedConfig {
            mapping: AddressMapping::single_bank(),
            timing: BankTiming::paper(),
            open_rows: false,
            pipelined: false,
        }
    }

    /// Check geometry and timing.
    ///
    /// # Errors
    ///
    /// Propagates [`AddressMapping::validate`] and
    /// [`BankTiming::validate`] failures.
    pub fn validate(&self) -> Result<(), DramConfigError> {
        self.mapping.validate()?;
        self.timing.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_timing_decomposes_the_flat_initial_latency() {
        let t = BankTiming::paper();
        assert_eq!(t.overhead(RowOutcome::Miss), Picos::from_nanos(50));
        assert_eq!(t.data_time(4096), Picos::from_nanos(2560));
    }

    #[test]
    fn overhead_orders_hit_miss_conflict() {
        let t = BankTiming::paper();
        assert!(t.overhead(RowOutcome::Hit) <= t.overhead(RowOutcome::Miss));
        assert!(t.overhead(RowOutcome::Miss) <= t.overhead(RowOutcome::Conflict));
    }

    #[test]
    fn bank_tracks_open_rows() {
        let mut b = Bank::default();
        assert_eq!(b.access(7, true), RowOutcome::Miss);
        assert_eq!(b.access(7, true), RowOutcome::Hit);
        assert_eq!(b.access(8, true), RowOutcome::Conflict);
        assert_eq!(b.open_row, Some(8));
    }

    #[test]
    fn closed_page_never_hits() {
        let mut b = Bank::default();
        assert_eq!(b.access(7, false), RowOutcome::Miss);
        assert_eq!(b.access(7, false), RowOutcome::Miss);
        assert_eq!(b.open_row, None);
    }

    #[test]
    fn configs_validate() {
        assert!(BankedConfig::paper().validate().is_ok());
        assert!(BankedConfig::flat_equivalent().validate().is_ok());
        let mut bad = BankedConfig::paper();
        bad.timing.per_pair = Picos::ZERO;
        assert_eq!(bad.validate(), Err(DramConfigError::ZeroPairTime));
        let mut bad = BankedConfig::paper();
        bad.timing.t_rcd = Picos::ZERO;
        bad.timing.t_cas = Picos::ZERO;
        assert_eq!(bad.validate(), Err(DramConfigError::ZeroAccessTime));
    }
}
