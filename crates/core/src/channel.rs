//! The (single) DRAM channel.

use crate::config::DramKind;
use rampage_dram::{BankedChannel, DramModel, Picos, Transfer};

/// Serializes transfers on one Direct Rambus channel and tracks when it
/// frees up.
///
/// The paper's configuration is a single non-pipelined channel, so a
/// transfer requested while the channel is busy waits for it (this only
/// arises under context-switch-on-miss, where page transfers overlap
/// execution of other processes). With the pipelined §6.3 ablation, a
/// request that queues behind an in-flight transfer skips the 50 ns
/// initial latency.
#[derive(Debug, Clone)]
pub struct DramChannel {
    device: DramModel,
    busy_until: Picos,
}

impl DramChannel {
    /// A channel over the given device.
    pub fn new(device: DramModel) -> Self {
        DramChannel {
            device,
            busy_until: Picos::ZERO,
        }
    }

    /// Schedule a transfer of `bytes` requested at absolute time `now`.
    pub fn request(&mut self, now: Picos, bytes: u64) -> Transfer {
        let queued = self.busy_until > now;
        let (start, duration) = if queued {
            (self.busy_until, self.device.queued_transfer_time(bytes))
        } else {
            (now, self.device.transfer_time(bytes))
        };
        let done = start + duration;
        self.busy_until = done;
        Transfer { start, done }
    }
}

/// One channel at either fidelity: the flat analytic model or the
/// event-driven banked backend.
#[derive(Debug, Clone)]
enum Channel {
    Flat(DramChannel),
    Banked(Box<BankedChannel>),
}

/// A set of independent Rambus channels, interleaved by transfer unit.
///
/// §3.3: "It is also possible to have multiple Rambus channels to
/// increase bandwidth, though latency is not improved." Transfers are
/// routed by their block/page number, so concurrent page transfers
/// (context-switch-on-miss) can proceed in parallel while any single
/// transfer still pays full latency.
#[derive(Debug, Clone)]
pub struct ChannelSet {
    channels: Vec<Channel>,
}

impl ChannelSet {
    /// `n` channels over the given DRAM kind — the flat analytic models
    /// or the event-driven banked backend, per the config's `dram` axis.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or a banked configuration is invalid;
    /// `SystemConfig::validate` screens both out before simulation.
    pub fn new(kind: DramKind, n: u32) -> Self {
        assert!(n > 0, "need at least one channel");
        let make = |_: u32| match kind {
            DramKind::Rambus => Channel::Flat(DramChannel::new(DramModel::rambus())),
            DramKind::RambusPipelined => {
                Channel::Flat(DramChannel::new(DramModel::rambus_pipelined()))
            }
            DramKind::Sdram => Channel::Flat(DramChannel::new(DramModel::sdram())),
            DramKind::Banked(cfg) => Channel::Banked(Box::new(BankedChannel::new(cfg))),
        };
        ChannelSet {
            channels: (0..n).map(make).collect(),
        }
    }

    /// Schedule a transfer of `bytes` for the unit identified by `key`
    /// (its block or page number) at absolute time `now`.
    pub fn request(&mut self, now: Picos, bytes: u64, key: u64) -> Transfer {
        let n = self.channels.len() as u64;
        match &mut self.channels[(key % n) as usize] {
            Channel::Flat(ch) => ch.request(now, bytes),
            // The simulator addresses DRAM by transfer unit (SRAM frame
            // / L2 block number), not by byte. Synthesize a stable
            // pseudo-address so a unit always lands on the same rows:
            // repeated transfers of the same unit are row-buffer
            // locality, neighboring units are neighbors in DRAM.
            Channel::Banked(ch) => ch.request(now, key.wrapping_mul(bytes.max(1)), bytes),
        }
    }

    /// Aggregate row-buffer outcome counters (zeros under flat kinds,
    /// which have no row buffers).
    pub fn row_stats(&self) -> rampage_dram::RowStats {
        let mut total = rampage_dram::RowStats::default();
        for ch in &self.channels {
            if let Channel::Banked(b) = ch {
                let s = b.row_stats();
                total.hits += s.hits;
                total.misses += s.misses;
                total.conflicts += s.conflicts;
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_set_parallelizes_distinct_keys() {
        let mut set = ChannelSet::new(DramKind::Rambus, 2);
        let t1 = set.request(Picos::ZERO, 4096, 0);
        let t2 = set.request(Picos::ZERO, 4096, 1);
        assert_eq!(t1.start, t2.start, "different channels run in parallel");
        // Same-channel keys still serialize.
        let t3 = set.request(Picos::ZERO, 4096, 2);
        assert_eq!(t3.start, t1.done);
    }

    #[test]
    fn single_channel_set_serializes_everything() {
        let mut set = ChannelSet::new(DramKind::Rambus, 1);
        let t1 = set.request(Picos::ZERO, 128, 0);
        let t2 = set.request(Picos::ZERO, 128, 1);
        assert_eq!(t2.start, t1.done);
    }

    #[test]
    fn degenerate_banked_set_matches_flat_bit_for_bit() {
        use rampage_dram::BankedConfig;
        let mut flat = ChannelSet::new(DramKind::Rambus, 2);
        let mut banked = ChannelSet::new(DramKind::Banked(BankedConfig::flat_equivalent()), 2);
        for (i, (key, bytes)) in [(0u64, 4096u64), (1, 128), (0, 4096), (7, 0), (3, 2048)]
            .iter()
            .enumerate()
        {
            let now = Picos::from_nanos(i as u64 * 37);
            assert_eq!(
                flat.request(now, *bytes, *key),
                banked.request(now, *bytes, *key),
                "key {key}, {bytes} B"
            );
        }
        assert_eq!(flat.row_stats(), rampage_dram::RowStats::default());
    }

    #[test]
    fn banked_set_reports_row_stats() {
        let mut set = ChannelSet::new(DramKind::banked(), 1);
        set.request(Picos::ZERO, 128, 5);
        set.request(Picos::from_micros(1), 128, 5);
        let rows = set.row_stats();
        assert!(rows.hits >= 1, "same unit re-hits its row: {rows:?}");
        assert!(rows.misses >= 1);
    }

    #[test]
    fn idle_channel_starts_immediately() {
        let mut ch = DramChannel::new(DramModel::rambus());
        let t = ch.request(Picos::from_nanos(100), 128);
        assert_eq!(t.start, Picos::from_nanos(100));
        assert_eq!(t.done, Picos::from_nanos(230)); // +130 ns
    }

    #[test]
    fn busy_channel_serializes() {
        let mut ch = DramChannel::new(DramModel::rambus());
        let t1 = ch.request(Picos::ZERO, 4096); // done at 2610 ns
        let t2 = ch.request(Picos::from_nanos(100), 4096);
        assert_eq!(t2.start, t1.done, "second waits for first");
        assert_eq!(t2.done, t1.done + Picos::from_nanos(2610));
    }

    #[test]
    fn pipelined_queued_transfer_skips_latency() {
        let mut ch = DramChannel::new(DramModel::rambus_pipelined());
        let t1 = ch.request(Picos::ZERO, 128); // done at 130 ns
        let t2 = ch.request(Picos::from_nanos(10), 128);
        assert_eq!(t2.start, t1.done);
        let d2 = t2.done - t2.start;
        // 80 ns of data / 0.95 ≈ 84.2 ns, far below the 130 ns isolated.
        assert!(d2 < Picos::from_nanos(100), "queued transfer cheaper: {d2}");
    }

    #[test]
    fn channel_frees_after_done() {
        // Pipelined, so a request counted as queued would be cheaper:
        // one issued exactly at `done` finds the channel idle.
        let mut ch = DramChannel::new(DramModel::rambus_pipelined());
        let t = ch.request(Picos::ZERO, 128);
        let t2 = ch.request(t.done, 128);
        assert_eq!(t2.start, t.done);
        assert_eq!(t2.done - t2.start, Picos::from_nanos(130), "full latency");
        let t3 = ch.request(t2.done + Picos::from_nanos(1000), 128);
        assert_eq!(
            t3.start,
            t2.done + Picos::from_nanos(1000),
            "idle gap respected"
        );
    }
}
