//! The Table 1 disk model.

use crate::device::MemoryDevice;
use crate::time::Picos;

/// A disk with fixed access latency and streaming transfer rate.
///
/// Table 1 of the paper compares Direct Rambus efficiency against a "disk
/// with 10 ms latency and 40 MB/s transfer rate" to show that DRAM shares
/// the disk's property of being more efficient at transferring large
/// units — the quantitative motivation for managing DRAM as a paging
/// device. §3.5 works the example: "with a 1 GHz issue rate, a 4 Kbyte
/// disk transfer costs about 10-million instructions, whereas a 4 Kbyte
/// Direct Rambus transfer costs about 2,600 instructions."
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Disk {
    latency: Picos,
    /// Streaming rate in bytes per millisecond (40 MB/s = 40 000 B/ms
    /// exactly, keeping arithmetic integral).
    bytes_per_ms: u64,
}

impl Disk {
    /// The paper's disk: 10 ms latency, 40 MB/s.
    pub fn paper_example() -> Self {
        Disk {
            latency: Picos::from_millis(10),
            bytes_per_ms: 40_000,
        }
    }
}

impl MemoryDevice for Disk {
    fn initial_latency(&self) -> Picos {
        self.latency
    }

    fn transfer_time(&self, bytes: u64) -> Picos {
        if bytes == 0 {
            return Picos::ZERO;
        }
        // bytes / (bytes_per_ms per 1e9 ps), rounded up to whole picoseconds.
        let data = Picos((bytes * 1_000_000_000).div_ceil(self.bytes_per_ms));
        self.latency + data
    }

    fn peak_bandwidth(&self) -> f64 {
        self.bytes_per_ms as f64 * 1000.0
    }

    fn name(&self) -> &str {
        "disk"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_4kb_disk_transfer_is_10_million_instructions_at_1ghz() {
        let d = Disk::paper_example();
        let t = d.transfer_time(4096);
        // 10 ms + 4096/40e6 s = 10.1024 ms; at 1 GHz that is ~10.1 M cycles.
        let cycles_at_1ghz = t.cycles_ceil(Picos::from_nanos(1));
        assert!(
            (10_000_000..10_300_000).contains(&cycles_at_1ghz),
            "got {cycles_at_1ghz}"
        );
    }

    #[test]
    fn peak_bandwidth_40mbs() {
        assert!((Disk::paper_example().peak_bandwidth() - 40e6).abs() < 1.0);
    }

    #[test]
    fn zero_bytes_zero_time() {
        assert_eq!(Disk::paper_example().transfer_time(0), Picos::ZERO);
    }

    #[test]
    fn large_transfer_approaches_peak() {
        let d = Disk::paper_example();
        // 40 MB takes 1 s of data time + 10 ms latency: ~99% efficient.
        let t = d.transfer_time(40_000_000);
        let eff = (40e6 / d.peak_bandwidth()) / t.as_secs_f64();
        assert!(eff > 0.98, "efficiency {eff}");
    }
}
