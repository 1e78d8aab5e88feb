//! The SDRAM comparator of §3.3.

use crate::device::MemoryDevice;
use crate::time::Picos;

/// Synchronous DRAM behind a wide bus, as sketched in §3.3 of the paper:
/// "SDRAM clocks DRAM to the bus and after an initial delay (for example
/// 50 ns), subsequent transfers can occur at bus speed (e.g., 10 ns). With
/// a wide 128-bit bus, a 10 ns SDRAM memory system can in principle
/// deliver 1.6 GB/s."
///
/// Defaults reproduce exactly that configuration; the constructor accepts
/// other widths and clocks for ablations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sdram {
    initial: Picos,
    bus_bytes: u64,
    bus_cycle: Picos,
}

impl Sdram {
    /// The paper's example: 50 ns initial delay, 128-bit bus at 10 ns.
    pub fn paper_example() -> Self {
        Sdram {
            initial: Picos::from_nanos(50),
            bus_bytes: 16,
            bus_cycle: Picos::from_nanos(10),
        }
    }

    /// Custom SDRAM system.
    ///
    /// # Panics
    ///
    /// Panics if `bus_bytes` is zero or `bus_cycle` is zero.
    pub fn new(initial: Picos, bus_bytes: u64, bus_cycle: Picos) -> Self {
        assert!(
            bus_bytes != 0,
            "SDRAM model: bus width must be positive (the paper's SDRAM bus is 16 bytes)"
        );
        assert!(
            bus_cycle.0 != 0,
            "SDRAM model: bus cycle time must be positive (the paper's SDRAM bus clocks at 10 ns)"
        );
        Sdram {
            initial,
            bus_bytes,
            bus_cycle,
        }
    }
}

impl MemoryDevice for Sdram {
    fn initial_latency(&self) -> Picos {
        self.initial
    }

    fn transfer_time(&self, bytes: u64) -> Picos {
        if bytes == 0 {
            return Picos::ZERO;
        }
        self.initial + self.bus_cycle * bytes.div_ceil(self.bus_bytes)
    }

    fn peak_bandwidth(&self) -> f64 {
        self.bus_bytes as f64 / (self.bus_cycle.0 as f64 * 1e-12)
    }

    fn name(&self) -> &str {
        "SDRAM"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_matches_rambus_peak() {
        let s = Sdram::paper_example();
        assert!((s.peak_bandwidth() - 1.6e9).abs() < 1.0);
    }

    #[test]
    fn transfer_times() {
        let s = Sdram::paper_example();
        // 128 bytes = 8 bus beats: 50 + 80 = 130 ns (same as Rambus for
        // bus-width multiples — the paper's point that the two are similar
        // without pipelining).
        assert_eq!(s.transfer_time(128), Picos::from_nanos(130));
        // Sub-width transfers still cost a full beat.
        assert_eq!(s.transfer_time(2), Picos::from_nanos(60));
        assert_eq!(s.transfer_time(0), Picos::ZERO);
    }

    #[test]
    #[should_panic(
        expected = "SDRAM model: bus width must be positive (the paper's SDRAM bus is 16 bytes)"
    )]
    fn zero_width_bus_panics() {
        let ns10 = Picos::from_nanos(10);
        let _ = Sdram::new(ns10, 0, ns10);
    }

    #[test]
    #[should_panic(
        expected = "SDRAM model: bus cycle time must be positive (the paper's SDRAM bus clocks at 10 ns)"
    )]
    fn unclocked_bus_panics() {
        let _ = Sdram::new(Picos::from_nanos(10), 16, Picos(0));
    }

    #[test]
    fn custom_geometry() {
        let s = Sdram::new(Picos::from_nanos(40), 8, Picos::from_nanos(5));
        assert_eq!(s.transfer_time(64), Picos::from_nanos(40 + 40));
        assert!((s.peak_bandwidth() - 1.6e9).abs() < 1.0);
    }
}
