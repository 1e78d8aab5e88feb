//! An event-driven, bank-aware Direct Rambus channel.
//!
//! This is the high-fidelity counterpart to the flat
//! [`crate::DramModel`] arithmetic: transfers decompose through an
//! [`AddressMapping`] into per-bank row accesses, each bank keeps its
//! row buffer ([`Bank`]), and the shared data bus serializes bursts.
//! Two switches trade fidelity back down:
//!
//! * `open_rows` off → closed-page: every access pays tRCD + tCAS and
//!   transfers are not split at row boundaries (the paper's
//!   simplification);
//! * `pipelined` off → strictly serial: a transfer occupies the channel
//!   from command to last datum.
//!
//! With both off and [`BankTiming::paper`] (tRCD + tCAS = 50 ns), the
//! channel reproduces the flat model bit-identically — the invariant
//! the differential conformance suite (`tests/dram_backend.rs`) locks
//! down. With `pipelined` on, the next access's row activation overlaps
//! the in-flight data burst, structurally replacing the flat model's
//! 95 %-of-peak queued-transfer approximation (§5's pipelined
//! extension).

use crate::bank::{Bank, BankedConfig, RowOutcome};
use crate::time::Picos;

/// When a transfer starts (the channel begins working on it) and
/// completes (its last datum arrives), at either fidelity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// When the channel begins working on the transfer.
    pub start: Picos,
    /// When the last byte arrives.
    pub done: Picos,
}

/// Row-outcome counters, exposed for reports and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RowStats {
    /// Accesses that found their row open.
    pub hits: u64,
    /// Accesses to an idle bank.
    pub misses: u64,
    /// Accesses that had to close another row first.
    pub conflicts: u64,
}

/// A bank-aware Direct Rambus channel with occupancy queueing.
#[derive(Debug, Clone)]
pub struct BankedChannel {
    cfg: BankedConfig,
    banks: Vec<Bank>,
    bus_free: Picos,
    rows: RowStats,
}

impl BankedChannel {
    /// A channel over the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`BankedConfig::validate`];
    /// validate upstream (e.g. `SystemConfig::validate`) to get a typed
    /// error instead.
    pub fn new(cfg: BankedConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid banked DRAM config: {e}");
        }
        BankedChannel {
            cfg,
            banks: vec![Bank::default(); cfg.mapping.banks() as usize],
            bus_free: Picos::ZERO,
            rows: RowStats::default(),
        }
    }

    /// When the data bus next becomes free.
    pub fn bus_free(&self) -> Picos {
        self.bus_free
    }

    /// Row-buffer outcome counters.
    pub fn row_stats(&self) -> RowStats {
        self.rows
    }

    fn count(&mut self, outcome: RowOutcome) {
        match outcome {
            RowOutcome::Hit => self.rows.hits += 1,
            RowOutcome::Miss => self.rows.misses += 1,
            RowOutcome::Conflict => self.rows.conflicts += 1,
        }
    }

    /// Schedule a transfer of `bytes` starting at byte address `addr`,
    /// requested at absolute time `now`.
    pub fn request(&mut self, now: Picos, addr: u64, bytes: u64) -> Transfer {
        if bytes == 0 {
            // Mirror the flat model: a zero-byte transfer takes no time
            // but still claims its start slot (and, like the flat
            // channel, drags the bus-free mark up to it).
            let start = now.max(self.bus_free);
            self.bus_free = start;
            return Transfer { start, done: start };
        }
        if self.cfg.pipelined {
            self.request_pipelined(now, addr, bytes)
        } else {
            self.request_serial(now, addr, bytes)
        }
    }

    /// Serial mode: the channel is held from first command to last
    /// datum; a queued transfer waits for the bus wholesale. Closed-page
    /// serial is exactly the flat model's `max(now, busy) + 50 ns +
    /// data` arithmetic.
    fn request_serial(&mut self, now: Picos, addr: u64, bytes: u64) -> Transfer {
        let start = now.max(self.bus_free);
        let mut t = start;
        for (chunk_addr, chunk_len) in RowChunks::new(&self.cfg, addr, bytes) {
            let coord = self.cfg.mapping.decompose(chunk_addr);
            let outcome = self.banks[coord.bank as usize].access(coord.row, self.cfg.open_rows);
            self.count(outcome);
            let done = t + self.cfg.timing.overhead(outcome) + self.cfg.timing.data_time(chunk_len);
            self.banks[coord.bank as usize].ready_at = done;
            t = done;
        }
        self.bus_free = t;
        Transfer { start, done: t }
    }

    /// Pipelined mode: each chunk's row activation starts as soon as its
    /// bank is ready — possibly under the previous chunk's (or previous
    /// transfer's) data burst — and only the data bus serializes.
    fn request_pipelined(&mut self, now: Picos, addr: u64, bytes: u64) -> Transfer {
        let mut start = None;
        let mut bus = self.bus_free;
        for (chunk_addr, chunk_len) in RowChunks::new(&self.cfg, addr, bytes) {
            let coord = self.cfg.mapping.decompose(chunk_addr);
            let bank = &mut self.banks[coord.bank as usize];
            let cmd_at = now.max(bank.ready_at);
            let outcome = bank.access(coord.row, self.cfg.open_rows);
            let ready = cmd_at + self.cfg.timing.overhead(outcome);
            let data_start = bus.max(ready);
            let done = data_start + self.cfg.timing.data_time(chunk_len);
            bank.ready_at = done;
            bus = done;
            self.count(outcome);
            if start.is_none() {
                start = Some(cmd_at);
            }
        }
        self.bus_free = bus;
        Transfer {
            start: start.unwrap_or(now),
            done: bus,
        }
    }
}

/// Iterator over the row-boundary chunks of a transfer. In closed-page
/// mode the transfer is one chunk (the paper's flat simplification);
/// with open-row modeling a transfer splits wherever it crosses a row.
struct RowChunks {
    addr: u64,
    remaining: u64,
    row_bytes: u64,
    split: bool,
}

impl RowChunks {
    fn new(cfg: &BankedConfig, addr: u64, bytes: u64) -> Self {
        RowChunks {
            addr,
            remaining: bytes,
            row_bytes: cfg.mapping.row_bytes(),
            split: cfg.open_rows,
        }
    }
}

impl Iterator for RowChunks {
    type Item = (u64, u64);

    fn next(&mut self) -> Option<(u64, u64)> {
        if self.remaining == 0 {
            return None;
        }
        let len = if self.split {
            let into_row = self.addr & (self.row_bytes - 1);
            self.remaining.min(self.row_bytes - into_row)
        } else {
            self.remaining
        };
        let chunk = (self.addr, len);
        self.addr = self.addr.wrapping_add(len);
        self.remaining -= len;
        Some(chunk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bank::BankTiming;
    use crate::mapping::AddressMapping;
    use crate::model::DramModel;

    #[test]
    fn flat_equivalent_matches_direct_rambus_when_idle() {
        let flat = DramModel::rambus();
        let mut ch = BankedChannel::new(BankedConfig::flat_equivalent());
        for bytes in [2u64, 32, 128, 512, 4096] {
            let t = ch.request(ch.bus_free(), 0xbeef_0000, bytes);
            assert_eq!(t.done - t.start, flat.transfer_time(bytes), "{bytes} B");
        }
    }

    #[test]
    fn flat_equivalent_queues_like_the_flat_channel() {
        let flat = DramModel::rambus();
        let mut ch = BankedChannel::new(BankedConfig::flat_equivalent());
        let t1 = ch.request(Picos::ZERO, 0, 4096);
        let t2 = ch.request(Picos::from_nanos(100), 4096, 4096);
        assert_eq!(t2.start, t1.done, "queued transfer waits for the bus");
        assert_eq!(t2.done, t1.done + flat.transfer_time(4096));
    }

    #[test]
    fn open_row_hit_is_cheaper_than_cold_access() {
        let mut cfg = BankedConfig::paper();
        cfg.pipelined = false;
        let mut ch = BankedChannel::new(cfg);
        let cold = ch.request(ch.bus_free(), 0, 128);
        let warm = ch.request(ch.bus_free(), 128, 128);
        assert!(
            warm.done - warm.start < cold.done - cold.start,
            "row hit skips the activate"
        );
        assert_eq!(ch.row_stats().hits, 1);
        assert_eq!(ch.row_stats().misses, 1);
    }

    #[test]
    fn row_conflict_is_costlier_than_cold_access() {
        let mut cfg = BankedConfig::paper();
        cfg.pipelined = false;
        let mut ch = BankedChannel::new(cfg);
        let row_span = cfg.mapping.row_bytes() * cfg.mapping.banks();
        let cold = ch.request(ch.bus_free(), 0, 128);
        // Same bank (bank bits unchanged), different row.
        let conflict = ch.request(ch.bus_free(), row_span, 128);
        assert!(conflict.done - conflict.start > cold.done - cold.start);
        assert_eq!(ch.row_stats().conflicts, 1);
    }

    #[test]
    fn open_rows_split_transfers_at_row_boundaries() {
        let mut cfg = BankedConfig::paper();
        cfg.pipelined = false;
        let mut ch = BankedChannel::new(cfg);
        // 4 KB spanning two 2 KB rows in adjacent banks: two misses.
        ch.request(Picos::ZERO, 0, 4096);
        assert_eq!(ch.row_stats().misses, 2);
    }

    #[test]
    fn pipelining_hides_activation_behind_the_burst() {
        let mut serial_cfg = BankedConfig::paper();
        serial_cfg.pipelined = false;
        let mut serial = BankedChannel::new(serial_cfg);
        let mut piped = BankedChannel::new(BankedConfig::paper());
        // Back-to-back page transfers to different banks: the pipelined
        // channel overlaps the second activation with the first burst.
        let mut s_done = Picos::ZERO;
        let mut p_done = Picos::ZERO;
        for i in 0..4u64 {
            s_done = serial.request(Picos::ZERO, i * 8192, 4096).done;
            p_done = piped.request(Picos::ZERO, i * 8192, 4096).done;
        }
        assert!(p_done < s_done, "pipelined {p_done} < serial {s_done}");
    }

    #[test]
    fn pipelined_bus_still_serializes_data() {
        let mut ch = BankedChannel::new(BankedConfig::paper());
        let t1 = ch.request(Picos::ZERO, 0, 2048);
        let t2 = ch.request(Picos::ZERO, 8192, 2048);
        // Second burst cannot start before the first finished.
        assert!(t2.done >= t1.done + BankTiming::paper().data_time(2048));
    }

    #[test]
    fn zero_byte_transfer_takes_no_time() {
        let mut ch = BankedChannel::new(BankedConfig::paper());
        let t = ch.request(Picos::from_nanos(5), 0, 0);
        assert_eq!(t.start, t.done);
        assert_eq!(ch.bus_free(), t.start, "slot claimed, no duration");
    }

    #[test]
    #[should_panic(expected = "invalid banked DRAM config")]
    fn invalid_config_panics_with_the_typed_message() {
        let mut bad = BankedConfig::paper();
        bad.timing.per_pair = Picos::ZERO;
        let _ = BankedChannel::new(bad);
    }

    #[test]
    fn mapping_reexports_are_consistent() {
        let m = AddressMapping::paper();
        assert_eq!(m.row_bytes(), 2048);
    }
}
