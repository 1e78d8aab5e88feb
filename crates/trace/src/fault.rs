//! Deterministic fault injection for trace decode (behind the `fault`
//! feature — test builds only).
//!
//! The robustness suite uses this to prove that a corrupt corpus block
//! surfaces as a recorded [`CorpusWarning`](crate::corpus::CorpusWarning)
//! — the block is quarantined and skipped, and nothing panics.
//!
//! Injection state is process-global; tests that arm it must serialize
//! with each other and [`disarm`] when done.

use std::sync::atomic::{AtomicU64, Ordering};

/// 0-based corpus block number whose payload every
/// [`CorpusReader`](crate::corpus::CorpusReader) will see bit-flipped
/// before checksum verification; `u64::MAX` = disarmed.
static CORRUPT_BLOCK_AT: AtomicU64 = AtomicU64::new(u64::MAX);

/// Arm a corpus block corruption: block `block_no` (0-based) of any
/// subsequently read shard decodes with a flipped payload byte, tripping
/// its checksum so the reader's quarantine-and-skip path runs.
pub fn arm_corrupt_block(block_no: u64) {
    CORRUPT_BLOCK_AT.store(block_no, Ordering::SeqCst);
}

/// Clear all armed trace faults.
pub fn disarm() {
    CORRUPT_BLOCK_AT.store(u64::MAX, Ordering::SeqCst);
}

/// Whether the given corpus block number should read back corrupt (stays
/// armed until [`disarm`], matching every reader at that block number).
pub(crate) fn corrupts_block(block_no: u64) -> bool {
    CORRUPT_BLOCK_AT.load(Ordering::SeqCst) == block_no
}
