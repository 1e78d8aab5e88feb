//! On-disk trace corpora: compressed, block-indexed, checksummed shard
//! files.
//!
//! The paper's evaluation consumed 1.1 billion references of Tracebase
//! R2000 traces. This module is the data-loading layer that lets the
//! reproduction do the same with *files* instead of regenerating every
//! workload in memory: a corpus is a directory of **shard files** (one
//! per benchmark trace) plus a [`Manifest`] (`manifest.json`) describing
//! them — per-shard record counts, Table-2-style profile stats,
//! checksums, and the format version.
//!
//! # Shard format (version 1)
//!
//! ```text
//! "RAMPCOR1"                                  8-byte magic
//! block*                                      compressed record blocks
//!   u32 LE  payload length in bytes
//!   u32 LE  record count
//!   u64 LE  payload checksum (length-seeded FNV-1a over LE u64 words)
//!   payload delta + varint encoded records
//! index                                       written after the last block
//!   u32 LE  block count
//!   per block: u64 LE offset, u64 LE first record number, u32 LE count
//! footer                                      last 24 bytes of the file
//!   u64 LE  index offset
//!   u64 LE  total records
//!   "RAMPCIX1"                                8-byte trailing magic
//! ```
//!
//! Each block is self-contained: addresses are delta-encoded against the
//! previous record *of the same access kind* (instruction fetches march
//! through code while data references jump between heap, stack, and
//! globals — per-kind bases keep both delta streams small), the deltas
//! are zigzag + LEB128 varint coded with the 2-bit access kind packed
//! into the low bits, and the per-kind bases reset at every block start.
//! Blocks close at [`DEFAULT_BLOCK_BYTES`] (~64 KiB) of payload, so a
//! reader can decode any block knowing nothing but its bytes — which is
//! what makes the end-of-file index useful: [`CorpusReader`] frames every
//! block from it (so a corrupt block cannot derail the next one), and
//! the verifier checks shards in parallel.
//!
//! A block whose checksum or encoding fails to verify is **quarantined
//! and skipped**: the reader records a [`CorpusWarning`] and resumes at
//! the next block's index offset instead of aborting the replay (the
//! same recover-don't-abort policy the sweep journal uses).
//!
//! # Reading, writing, verifying
//!
//! * [`CorpusWriter`] streams any [`TraceSource`](crate::TraceSource)
//!   into a shard; [`record_profiles`] captures a whole Table 2 suite
//!   and writes the manifest.
//! * [`CorpusReader`] replays a shard as a `TraceSource`, decoding
//!   blocks on a background prefetch thread with double buffering.
//! * [`verify_dir`] re-reads every shard (in parallel), re-checksums
//!   every block, recomputes the stats, and reports drift against the
//!   generating Table 2 profile parameters.

mod block;
mod manifest;
mod reader;
mod verify;
mod writer;

pub use block::fnv1a;
pub use manifest::{Manifest, ProfileExpect, ShardMeta, ShardStats};
pub use reader::{CorpusReader, CorpusWarning};
pub use verify::{verify_dir, ShardReport, VerifyReport};
pub use writer::{record_profiles, record_source, CorpusWriter, ShardSummary};

use std::io;
use std::path::PathBuf;

/// Magic header opening every shard file (format version 1).
pub const CORPUS_MAGIC: [u8; 8] = *b"RAMPCOR1";

/// Magic closing every shard file (the last 8 bytes).
pub const CORPUS_FOOTER_MAGIC: [u8; 8] = *b"RAMPCIX1";

/// Version stamp carried by `manifest.json`; bump when the shard or
/// manifest format changes shape.
pub const CORPUS_FORMAT_VERSION: u64 = 1;

/// The manifest's file name inside a corpus directory.
pub const MANIFEST_NAME: &str = "manifest.json";

/// Default block payload target: blocks close once their encoded payload
/// reaches this many bytes.
pub const DEFAULT_BLOCK_BYTES: usize = 64 * 1024;

/// How far a recorded shard's reference mix may drift from its
/// generating Table 2 profile before [`verify_dir`] fails the shard
/// (absolute difference on the instruction-fetch and write fractions),
/// before the small-sample allowance of [`fidelity_tolerance`].
pub const FIDELITY_TOLERANCE: f64 = 0.03;

/// The drift tolerance [`verify_dir`] applies to a shard of `records`
/// references: [`FIDELITY_TOLERANCE`] plus three standard deviations
/// of a worst-case (p = 0.5) binomial fraction estimate at that sample
/// size. A heavily scaled-down shard of a few hundred references can
/// legitimately sit a few points off its generating mix; at the
/// paper's volumes the allowance vanishes and the flat tolerance
/// governs.
pub fn fidelity_tolerance(records: u64) -> f64 {
    FIDELITY_TOLERANCE + 3.0 * (0.25 / records.max(1) as f64).sqrt()
}

/// Errors from corpus readers, writers, and the verifier.
#[derive(Debug)]
pub enum CorpusError {
    /// Underlying file I/O failure.
    Io(io::Error),
    /// A shard file does not start with [`CORPUS_MAGIC`].
    BadMagic(PathBuf),
    /// A shard's footer or block index is missing or inconsistent.
    BadIndex {
        /// The shard file.
        path: PathBuf,
        /// What was wrong with it.
        reason: String,
    },
    /// `manifest.json` is missing, unparsable, or the wrong version, or
    /// a shard file name would leave the corpus directory.
    Manifest(String),
}

impl std::fmt::Display for CorpusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CorpusError::Io(e) => write!(f, "corpus i/o error: {e}"),
            CorpusError::BadMagic(p) => {
                write!(
                    f,
                    "{} is not a rampage corpus shard (bad magic)",
                    p.display()
                )
            }
            CorpusError::BadIndex { path, reason } => {
                write!(f, "{}: unusable block index: {reason}", path.display())
            }
            CorpusError::Manifest(why) => write!(f, "corpus manifest: {why}"),
        }
    }
}

impl std::error::Error for CorpusError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CorpusError::Io(e) => Some(e),
            CorpusError::BadMagic(_) | CorpusError::BadIndex { .. } | CorpusError::Manifest(_) => {
                None
            }
        }
    }
}

impl From<io::Error> for CorpusError {
    fn from(e: io::Error) -> Self {
        CorpusError::Io(e)
    }
}

/// Check that `file`, a shard's file name, names a file directly inside
/// the corpus directory: non-empty, no `/` or `\`, and not `.` or `..`.
/// Anything else could read or write outside it (`Path::join` with an
/// absolute name replaces the directory). `what` names the offending
/// entry in the error.
fn check_shard_file(what: &str, file: &str) -> Result<(), CorpusError> {
    if file.is_empty() || file == "." || file == ".." || file.contains(['/', '\\']) {
        return Err(CorpusError::Manifest(format!(
            "{what}: shard file {file:?} is not a plain file name in the corpus directory"
        )));
    }
    Ok(())
}
