//! The paper's flat device timing: a fixed latency, then bytes at the
//! device's bandwidth.

use crate::time::Picos;

/// A memory device timed by the one rule the paper applies to every
/// device it compares: a fixed initial latency, then the data in beats
/// of `beat_bytes` bytes every `beat_time`.
///
/// * [`rambus`](Self::rambus) — Direct Rambus as modelled in §4.3, the
///   configuration of all the paper's results: 50 ns before the first
///   datum, then 2 bytes every 1.25 ns (1.6 GB/s peak);
/// * [`rambus_pipelined`](Self::rambus_pipelined) — the §3.3 / §6.3
///   future-work variant, which "allows multiple independent references
///   to be pipelined, allowing a theoretical 95 % of peak bandwidth to
///   be achieved on units as small as 2 bytes";
/// * [`sdram`](Self::sdram) — the §3.3 comparator: "after an initial
///   delay (for example 50 ns), subsequent transfers can occur at bus
///   speed (e.g., 10 ns). With a wide 128-bit bus, a 10 ns SDRAM memory
///   system can in principle deliver 1.6 GB/s";
/// * [`disk`](Self::disk) — Table 1's "disk with 10 ms latency and
///   40 MB/s transfer rate".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramModel {
    name: &'static str,
    initial: Picos,
    beat_bytes: u64,
    beat_time: Picos,
    pipelined: bool,
}

impl DramModel {
    /// The paper's configuration: non-pipelined Direct Rambus.
    pub fn rambus() -> Self {
        DramModel {
            name: "Direct Rambus",
            initial: Picos::from_nanos(50),
            beat_bytes: 2,
            beat_time: Picos(1250),
            pipelined: false,
        }
    }

    /// The pipelined Direct Rambus ablation: a transfer queued behind
    /// another skips the initial latency and streams at 95 % of peak;
    /// an isolated transfer still pays full latency.
    pub fn rambus_pipelined() -> Self {
        DramModel {
            name: "Direct Rambus (pipelined)",
            pipelined: true,
            ..Self::rambus()
        }
    }

    /// The §3.3 SDRAM comparator: 50 ns, then a 16-byte bus at 10 ns.
    pub fn sdram() -> Self {
        DramModel {
            name: "SDRAM",
            initial: Picos::from_nanos(50),
            beat_bytes: 16,
            beat_time: Picos::from_nanos(10),
            pipelined: false,
        }
    }

    /// The Table 1 disk: 10 ms, then 40 MB/s (one byte per 25 ns).
    pub fn disk() -> Self {
        DramModel {
            name: "disk",
            initial: Picos::from_millis(10),
            beat_bytes: 1,
            beat_time: Picos(25_000),
            pipelined: false,
        }
    }

    /// Time to move `bytes` contiguous bytes from an idle device, the
    /// initial latency included. Zero-byte transfers take zero time.
    pub fn transfer_time(&self, bytes: u64) -> Picos {
        if bytes == 0 {
            return Picos::ZERO;
        }
        self.initial + self.data_time(bytes)
    }

    /// Time for a transfer issued while the channel is already busy.
    /// Only the pipelined Rambus differs from
    /// [`transfer_time`](Self::transfer_time): it hides the latency and
    /// streams at 95 % of peak (exact in picoseconds as ×20/19), capped
    /// at the latency-paying time, which the 5 % overhead exceeds on
    /// large units.
    pub fn queued_transfer_time(&self, bytes: u64) -> Picos {
        let full = self.transfer_time(bytes);
        if !self.pipelined {
            return full;
        }
        Picos((self.data_time(bytes).0 * 20).div_ceil(19)).min(full)
    }

    fn data_time(&self, bytes: u64) -> Picos {
        self.beat_time * bytes.div_ceil(self.beat_bytes)
    }

    /// Peak (streaming) bandwidth in bytes per second.
    pub fn peak_bandwidth(&self) -> f64 {
        self.beat_bytes as f64 * 1e12 / self.beat_time.0 as f64
    }

    /// Short name for reports.
    pub fn name(&self) -> &str {
        self.name
    }

    /// One-line description of the device for trace metadata and logs:
    /// name, initial latency, peak bandwidth.
    pub fn diagnostics(&self) -> String {
        format!(
            "{} ({} ns initial latency, {:.1} GB/s peak)",
            self.name,
            ns_exact(self.initial),
            self.peak_bandwidth() / 1e9,
        )
    }
}

/// Render a duration in nanoseconds without truncating sub-nanosecond
/// remainders: whole nanoseconds print as integers, anything finer keeps
/// its (exact, since `Picos` is integral) fractional digits.
fn ns_exact(p: Picos) -> String {
    if p.0.is_multiple_of(1000) {
        format!("{}", p.0 / 1000)
    } else {
        let s = format!("{:.3}", p.as_nanos_f64());
        s.trim_end_matches('0').trim_end_matches('.').to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_4kb_transfer_is_2610ns() {
        // §3.5: "a 4 Kbyte Direct Rambus transfer costs about 2,600
        // instructions" at 1 GHz — 50 + 2048 x 1.25 = 2610 ns.
        let r = DramModel::rambus();
        assert_eq!(r.transfer_time(4096), Picos::from_nanos(2610));
    }

    #[test]
    fn small_block_transfers() {
        let r = DramModel::rambus();
        // 128 bytes: 50 + 64 x 1.25 = 130 ns.
        assert_eq!(r.transfer_time(128), Picos::from_nanos(130));
        // 32 bytes: 50 + 16 x 1.25 = 70 ns.
        assert_eq!(r.transfer_time(32), Picos::from_nanos(70));
        // 2 bytes: 50 + 1.25 = 51.25 ns.
        assert_eq!(r.transfer_time(2), Picos(51_250));
    }

    #[test]
    fn partial_beats_round_up() {
        let r = DramModel::rambus();
        assert_eq!(r.transfer_time(3), r.transfer_time(4));
        // An SDRAM transfer narrower than the bus still costs a beat.
        assert_eq!(DramModel::sdram().transfer_time(2), Picos::from_nanos(60));
        for d in [r, DramModel::sdram(), DramModel::disk()] {
            assert_eq!(d.transfer_time(0), Picos::ZERO, "{}", d.name());
        }
    }

    #[test]
    fn peak_bandwidths_are_the_papers_exactly() {
        // Bit-equal to the per-device expressions Table 1 was first
        // rendered from, so its digits cannot move.
        let rambus = DramModel::rambus().peak_bandwidth();
        assert_eq!(rambus.to_bits(), (2.0 / 1.25e-9f64).to_bits());
        assert_eq!(rambus, 1.6e9);
        let sdram = DramModel::sdram().peak_bandwidth();
        assert_eq!(sdram.to_bits(), (16.0 / (10_000.0 * 1e-12f64)).to_bits());
        assert_eq!(DramModel::disk().peak_bandwidth(), 40e6);
    }

    #[test]
    fn pipelined_queued_transfers_hit_95_percent() {
        let r = DramModel::rambus_pipelined();
        // Queued 2-byte unit: 1.25 ns / 0.95 ≈ 1.3158 ns, no 50 ns.
        let t = r.queued_transfer_time(2);
        assert!(t < Picos::from_nanos(2), "latency hidden, got {t}");
        let eff = (2.0 / r.peak_bandwidth()) / t.as_secs_f64();
        assert!((0.94..=0.96).contains(&eff), "efficiency {eff}");
        // Huge units: the 5 % overhead exceeds the latency, so the cap
        // at the isolated time binds.
        assert_eq!(r.queued_transfer_time(1 << 20), r.transfer_time(1 << 20));
        assert_eq!(r.queued_transfer_time(0), Picos::ZERO);
    }

    #[test]
    fn only_pipelined_rambus_hides_queued_latency() {
        for d in [DramModel::rambus(), DramModel::sdram(), DramModel::disk()] {
            assert_eq!(d.queued_transfer_time(128), d.transfer_time(128));
        }
        let p = DramModel::rambus_pipelined();
        assert!(p.queued_transfer_time(128) < p.transfer_time(128));
    }

    #[test]
    fn isolated_pipelined_transfer_still_pays_latency() {
        let r = DramModel::rambus_pipelined();
        assert_eq!(r.transfer_time(128), Picos::from_nanos(130));
    }

    #[test]
    fn rambus_and_sdram_match_at_bus_width_multiples() {
        // §3.3: without pipelining the two are near-equivalent for
        // cache-block transfers — identical at 16-byte multiples.
        let (r, s) = (DramModel::rambus(), DramModel::sdram());
        for bytes in [32u64, 128, 512, 4096] {
            assert_eq!(r.transfer_time(bytes), s.transfer_time(bytes));
        }
    }

    #[test]
    fn disk_streams_40_mb_per_second() {
        let d = DramModel::disk();
        // One byte per 25 ns is ⌈bytes · 10⁹ / 40 000⌉ ps, exactly.
        for bytes in [1u64, 4096, 40_000_000] {
            let data = Picos((bytes * 1_000_000_000).div_ceil(40_000));
            assert_eq!(d.transfer_time(bytes), Picos::from_millis(10) + data);
        }
        // §3.5: a 4 KB disk transfer costs ~10 million instructions at
        // 1 GHz (10 ms + 4096 / 40e6 s = 10.1024 ms).
        let cycles_at_1ghz = d.transfer_time(4096).cycles_ceil(Picos::from_nanos(1));
        assert!(
            (10_000_000..10_300_000).contains(&cycles_at_1ghz),
            "got {cycles_at_1ghz}"
        );
    }

    #[test]
    fn diagnostics_describe_the_device() {
        assert_eq!(
            DramModel::rambus().diagnostics(),
            "Direct Rambus (50 ns initial latency, 1.6 GB/s peak)"
        );
        assert_eq!(
            DramModel::sdram().diagnostics(),
            "SDRAM (50 ns initial latency, 1.6 GB/s peak)"
        );
    }

    #[test]
    fn diagnostics_keep_sub_nanosecond_latency() {
        // 51.25 ns initial latency: integer division used to truncate
        // this to "51 ns".
        let d = DramModel {
            initial: Picos(51_250),
            ..DramModel::sdram()
        };
        let text = d.diagnostics();
        assert!(text.contains("51.25 ns"), "{text}");
        // Whole nanoseconds still print as integers.
        assert_eq!(ns_exact(Picos::from_nanos(50)), "50");
        assert_eq!(ns_exact(Picos(1250)), "1.25");
        assert_eq!(ns_exact(Picos(1)), "0.001");
    }
}
