//! Table 1: bandwidth efficiency per transfer size.

use crate::model::DramModel;

/// Fraction of a device's peak bandwidth actually used when transferring
/// `bytes` in one request (Table 1's "efficiency" measure):
/// `ideal_time / actual_time` where `ideal_time = bytes / peak`.
///
/// Returns 0 for zero-byte transfers.
pub fn efficiency(device: &DramModel, bytes: u64) -> f64 {
    if bytes == 0 {
        return 0.0;
    }
    let ideal_secs = bytes as f64 / device.peak_bandwidth();
    let actual_secs = device.transfer_time(bytes).as_secs_f64();
    ideal_secs / actual_secs
}

/// The transfer sizes reported in our rendition of Table 1.
///
/// The paper's table compares "2-byte-wide Direct Rambus ... with disk"
/// over a range of transfer sizes; the OCR of the table body did not
/// survive, so we report a size sweep from a cache-block-sized 32 B to a
/// disk-friendly 4 MB, which brackets every unit the paper discusses
/// (32 B L1 blocks, 128 B–4 KB L2 blocks/SRAM pages, disk pages).
pub const TABLE1_SIZES: [u64; 9] = [
    32,
    128,
    512,
    1024,
    4096,
    16 * 1024,
    64 * 1024,
    1024 * 1024,
    4 * 1024 * 1024,
];

/// One row of Table 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EfficiencyRow {
    /// Transfer size in bytes.
    pub bytes: u64,
    /// Direct Rambus, no pipelining (the paper's configuration).
    pub rambus: f64,
    /// Direct Rambus with pipelining (the paper's second variant).
    pub rambus_pipelined: f64,
    /// The 10 ms / 40 MB/s disk.
    pub disk: f64,
}

/// Compute Table 1 for the standard sizes.
pub fn efficiency_table() -> Vec<EfficiencyRow> {
    let rambus = DramModel::rambus();
    let pipelined = DramModel::rambus_pipelined();
    let disk = DramModel::disk();
    TABLE1_SIZES
        .iter()
        .map(|&bytes| EfficiencyRow {
            bytes,
            rambus: efficiency(&rambus, bytes),
            // The pipelined variant's steady-state efficiency: data time
            // at 95% of peak with latency hidden by the pipeline.
            rambus_pipelined: {
                let ideal = bytes as f64 / pipelined.peak_bandwidth();
                let actual = pipelined.queued_transfer_time(bytes).as_secs_f64();
                ideal / actual
            },
            disk: efficiency(&disk, bytes),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_grows_with_transfer_size() {
        let r = DramModel::rambus();
        let mut prev = 0.0;
        for bytes in [2u64, 32, 128, 4096, 1 << 20] {
            let e = efficiency(&r, bytes);
            assert!(e > prev, "monotone: {bytes} bytes -> {e}");
            assert!((0.0..=1.0).contains(&e));
            prev = e;
        }
    }

    #[test]
    fn rambus_4kb_is_about_98_percent() {
        // 2560 ns of data in 2610 ns total.
        let e = efficiency(&DramModel::rambus(), 4096);
        assert!((0.975..0.985).contains(&e), "got {e}");
    }

    #[test]
    fn rambus_128b_is_about_62_percent() {
        // 80 ns of data in 130 ns total ≈ 0.615.
        let e = efficiency(&DramModel::rambus(), 128);
        assert!((0.60..0.63).contains(&e), "got {e}");
    }

    #[test]
    fn disk_needs_megabytes_to_be_efficient() {
        let d = DramModel::disk();
        assert!(efficiency(&d, 4096) < 0.02, "4 KB is terrible for disk");
        assert!(efficiency(&d, 4 << 20) > 0.9, "4 MB amortizes the seek");
        // 40 MB: 1 s of data behind the 10 ms seek.
        assert!(efficiency(&d, 40_000_000) > 0.98);
    }

    #[test]
    fn dram_vs_disk_shape_matches_paper() {
        // The paper's point: at page-ish sizes DRAM is already efficient
        // where disk is not; both favour larger units.
        for row in efficiency_table() {
            assert!(row.rambus >= row.disk, "{} bytes", row.bytes);
            // Pipelined steady state hides the 50 ns latency, so it stays
            // near the 95% packet-overhead ceiling at every size (for huge
            // isolated transfers the non-pipelined column can exceed it —
            // the two columns measure different regimes).
            assert!(
                row.rambus_pipelined > 0.94,
                "pipelined efficiency at {} bytes: {}",
                row.bytes,
                row.rambus_pipelined
            );
        }
    }

    #[test]
    fn pipelined_efficiency_is_95_for_small_units() {
        let rows = efficiency_table();
        let small = rows.iter().find(|r| r.bytes == 32).unwrap();
        assert!(
            (0.93..=0.96).contains(&small.rambus_pipelined),
            "§3.3's 95% on small units, got {}",
            small.rambus_pipelined
        );
    }

    #[test]
    fn zero_bytes_is_zero_efficiency() {
        assert_eq!(efficiency(&DramModel::rambus(), 0), 0.0);
    }
}
