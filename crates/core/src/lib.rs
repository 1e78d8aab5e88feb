//! The RAMpage memory-hierarchy simulator.
//!
//! This crate assembles the substrates (`rampage-trace`, `rampage-cache`,
//! `rampage-dram`, `rampage-vm`) into the two systems the paper compares,
//! one [`system::MemorySystem`] front end (16 KB L1 I/D caches, a TLB,
//! write buffer, OS handlers and Direct Rambus DRAM) over one of two
//! levels below L1:
//!
//! * conventional — a 4 MB L2 cache (direct-mapped baseline or 2-way
//!   "more realistic"), a TLB translating to DRAM-physical addresses,
//!   inclusion between L1 and L2;
//! * RAMpage — an SRAM *main memory* managed as a paged store (no tags,
//!   full associativity by paging): pinned inverted page table, TLB
//!   translating to SRAM-physical addresses, clock replacement, DRAM as a
//!   paging device, optional context switch on miss.
//!
//! The [`Engine`] drives interleaved multiprogrammed traces through a
//! system with the paper's 500 000-reference quantum, accounting simulated
//! time per hierarchy level into [`Metrics`]. [`experiments`] packages
//! every table and figure of the paper as a parameter sweep over these
//! pieces.
//!
//! # Example
//!
//! ```
//! use rampage_core::prelude::*;
//!
//! let baseline = SystemConfig::baseline(IssueRate::GHZ1, 512);
//! let rampage = SystemConfig::rampage(IssueRate::GHZ1, 512);
//! let run = |cfg: &SystemConfig| Engine::for_suite(cfg, 3, 150_000, 7).run();
//! let (b, r) = (run(&baseline), run(&rampage));
//! assert!(b.metrics.total_cycles() > 0 && r.metrics.total_cycles() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod channel;
mod config;
mod engine;
mod metrics;
mod report;
mod time;

pub mod error;
pub mod experiments;
pub mod obs;
pub mod system;

pub use channel::{ChannelSet, DramChannel};
pub use config::{
    DramKind, HierarchyKind, L1Config, L2Config, RampageConfig, SystemConfig, TlbConfig,
    DRAM_PAGE_SIZE, L1_MISS_PENALTY, QUANTUM_REFS, RAMPAGE_WRITEBACK_PENALTY, SRAM_BASE_SIZE,
};
pub use engine::{Engine, ProcessSummary, RunOutcome};
pub use error::{CacheIoError, ConfigError};
pub use metrics::{Counters, LevelFractions, Metrics, TimeBreakdown};
pub use obs::{Event, EventKind, EventRing, Hist, LatencyHistograms, TraceSink};
pub use report::{fmt_pct, fmt_secs, TableBuilder};
pub use time::IssueRate;

/// Glob import for examples and experiments.
pub mod prelude {
    pub use crate::config::{
        HierarchyKind, L1Config, L2Config, RampageConfig, SystemConfig, TlbConfig,
    };
    pub use crate::engine::{Engine, RunOutcome};
    pub use crate::metrics::{Metrics, TimeBreakdown};
    pub use crate::system::MemorySystem;
    pub use crate::time::IssueRate;
}
