//! Typed errors for input from outside the program.
//!
//! One rule decides between a typed error and a panic. Input from
//! outside the program — a configuration, a CLI flag, a trace or corpus
//! file, the journal, a `cells.json` snapshot — returns a typed error
//! that names what was wrong. A broken internal invariant (a page mapped
//! into two frames, a clock sweep with nothing to replace, a cache
//! geometry that bypassed validation) panics where it is detected, under
//! a `# Panics` doc; the [`SweepRunner`](crate::experiments::SweepRunner)
//! catches the panic at its one per-cell boundary and records its message
//! as a [`FailedCell`](crate::experiments::FailedCell).
//!
//! * [`ConfigError`] — a [`SystemConfig`](crate::SystemConfig) that could
//!   never simulate correctly (zero cache sizes, non-power-of-two blocks,
//!   an empty TLB), caught by [`SystemConfig::validate`](crate::SystemConfig::validate)
//!   before any simulation runs.
//! * [`CacheIoError`] — the journal could not be opened, or a
//!   `cells.json` snapshot could not be written or, when a caller reads
//!   one, was unreadable, corrupt, or version-mismatched. Reading is
//!   never fatal: runs resume from the journal, not the snapshot.
//!
//! Trace files and corpora carry their own: `TraceIoError` and
//! `CorpusError` in `rampage-trace`.

use std::fmt;
use std::io;

/// A [`SystemConfig`](crate::SystemConfig) that cannot be simulated.
///
/// Every variant's `Display` names the offending parameter, its value,
/// and what a valid value looks like, so a sweep author can fix the
/// config from the failure report alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A size parameter is zero.
    ZeroSize {
        /// Which parameter (e.g. "L1 cache size").
        what: &'static str,
    },
    /// A size parameter must be a power of two and is not.
    NotPowerOfTwo {
        /// Which parameter.
        what: &'static str,
        /// The offending value.
        value: u64,
    },
    /// A block size exceeds its cache's capacity.
    BlockExceedsCache {
        /// Which cache.
        what: &'static str,
        /// The block size.
        block: u64,
        /// The cache capacity.
        size: u64,
    },
    /// Associativity is zero or not a power of two.
    BadWays {
        /// Which cache.
        what: &'static str,
        /// The offending way count.
        ways: u32,
    },
    /// The TLB has zero entries (sets × ways == 0).
    EmptyTlb,
    /// The TLB set count is not a power of two (set indexing is a mask).
    TlbSetsNotPowerOfTwo {
        /// The offending set count.
        sets: usize,
    },
    /// RAMpage's pinned OS region (handler code, PCBs and the inverted
    /// page table) takes every SRAM frame at this page size.
    NoUserFrames {
        /// The region's size in bytes.
        os_bytes: u64,
        /// The page size in bytes.
        page: u64,
    },
    /// A RAMpage page size outside the valid range (power of two ≥ 8).
    BadPageSize {
        /// The offending value.
        value: u64,
    },
    /// An issue rate that is zero or does not divide 1 000 000 MHz.
    BadIssueRate {
        /// The offending rate in MHz.
        mhz: u32,
    },
    /// The scheduling quantum is zero references.
    ZeroQuantum,
    /// A time-based quantum of zero picoseconds.
    ZeroTimeQuantum,
    /// No DRAM channels configured.
    ZeroDramChannels,
    /// A zero-capacity victim cache or write buffer.
    ZeroCapacity {
        /// Which optional structure.
        what: &'static str,
    },
    /// The banked DRAM backend's geometry or timing is unusable.
    Dram(rampage_dram::DramConfigError),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroSize { what } => {
                write!(f, "{what} is zero; use a power of two (e.g. 16384)")
            }
            ConfigError::NotPowerOfTwo { what, value } => write!(
                f,
                "{what} is {value}, which is not a power of two; \
                 the paper sweeps 128/256/512/1024/2048/4096"
            ),
            ConfigError::BlockExceedsCache { what, block, size } => write!(
                f,
                "{what} block size {block} exceeds its capacity {size}; \
                 shrink the block or grow the cache"
            ),
            ConfigError::BadWays { what, ways } => write!(
                f,
                "{what} associativity {ways} is invalid; \
                 use a non-zero power of two (1 = direct-mapped)"
            ),
            ConfigError::EmptyTlb => write!(
                f,
                "TLB has 0 entries; the paper's default is 64 \
                 (sets=1, ways=64 — fully associative)"
            ),
            ConfigError::TlbSetsNotPowerOfTwo { sets } => write!(
                f,
                "TLB set count {sets} is not a power of two; \
                 set indexing requires one (use 1 for fully associative)"
            ),
            ConfigError::NoUserFrames { os_bytes, page } => write!(
                f,
                "RAMpage OS region ({os_bytes} bytes) leaves no user frames at \
                 page size {page}; use a smaller page (paper: 128–4096)"
            ),
            ConfigError::BadPageSize { value } => write!(
                f,
                "RAMpage page size {value} is invalid; \
                 use a power of two of at least 8 bytes (paper: 128–4096)"
            ),
            ConfigError::BadIssueRate { mhz } => write!(
                f,
                "issue rate {mhz} MHz has an undefined or non-integral cycle time \
                 in picoseconds; use a non-zero divisor of 1000000 (paper: 200–4000)"
            ),
            ConfigError::ZeroQuantum => write!(
                f,
                "scheduling quantum is 0 references; the paper uses 500000"
            ),
            ConfigError::ZeroTimeQuantum => {
                write!(f, "time-based quantum is 0 ps; leave it None or set > 0")
            }
            ConfigError::ZeroDramChannels => {
                write!(f, "0 DRAM channels; the paper's configuration uses 1")
            }
            ConfigError::ZeroCapacity { what } => {
                write!(
                    f,
                    "{what} has 0 entries; omit it (None) or give it capacity"
                )
            }
            ConfigError::Dram(e) => write!(f, "banked DRAM backend: {e}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// A failure loading or saving the persisted cell cache.
#[derive(Debug)]
pub enum CacheIoError {
    /// Underlying file I/O failed.
    Io(io::Error),
    /// The file is not valid JSON.
    Parse(String),
    /// The header is missing or the wrong shape.
    BadHeader(&'static str),
    /// The format version does not match this binary's.
    VersionMismatch {
        /// Version found in the file.
        found: u64,
        /// Version this binary writes.
        expected: u64,
    },
    /// A cell's stored checksum does not match its content.
    BadChecksum {
        /// Fingerprint of the offending cell.
        fp: u64,
    },
}

impl fmt::Display for CacheIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheIoError::Io(e) => write!(f, "i/o failure: {e}"),
            CacheIoError::Parse(e) => write!(f, "not valid JSON: {e}"),
            CacheIoError::BadHeader(what) => write!(f, "bad cache header: {what}"),
            CacheIoError::VersionMismatch { found, expected } => write!(
                f,
                "cache format version {found} (this binary writes {expected})"
            ),
            CacheIoError::BadChecksum { fp } => {
                write!(
                    f,
                    "checksum mismatch for cell {fp:#018x} (bit rot or torn write)"
                )
            }
        }
    }
}

impl std::error::Error for CacheIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CacheIoError::Io(e) => Some(e),
            CacheIoError::Parse(_)
            | CacheIoError::BadHeader(_)
            | CacheIoError::VersionMismatch { .. }
            | CacheIoError::BadChecksum { .. } => None,
        }
    }
}

impl From<io::Error> for CacheIoError {
    fn from(e: io::Error) -> Self {
        CacheIoError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_errors_are_actionable() {
        let e = ConfigError::NotPowerOfTwo {
            what: "L2 block size",
            value: 3000,
        };
        let s = e.to_string();
        assert!(s.contains("3000"), "{s}");
        assert!(s.contains("power of two"), "{s}");
        assert!(s.contains("128"), "suggests valid values: {s}");

        let s = ConfigError::EmptyTlb.to_string();
        assert!(s.contains("64"), "names the paper default: {s}");

        let s = ConfigError::BlockExceedsCache {
            what: "L2",
            block: 8192,
            size: 4096,
        }
        .to_string();
        assert!(s.contains("8192") && s.contains("4096"), "{s}");
    }

    #[test]
    fn cache_io_checksum_names_the_cell() {
        let s = CacheIoError::BadChecksum { fp: 0xdead }.to_string();
        assert!(s.contains("0x000000000000dead"), "{s}");
    }
}
