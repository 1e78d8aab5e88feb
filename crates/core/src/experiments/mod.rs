//! Every table and figure of the paper as a parameter sweep.
//!
//! Each submodule regenerates one artifact of the evaluation section:
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`table1`] | Table 1 — bandwidth efficiency of Direct Rambus vs disk |
//! | [`table2`] | Table 2 — the benchmark suite |
//! | [`table3`] | Table 3 — baseline DM L2 vs RAMpage run times |
//! | [`figures`] | Figures 2–4 — time-per-level fractions and software overhead |
//! | [`table4`] | Table 4 — RAMpage with context switches on misses |
//! | [`table5`] | Table 5 — 2-way associative L2 with context switches |
//! | [`fig5`] | Figure 5 — RAMpage-with-switches vs 2-way L2, relative |
//! | [`ablations`] | §6.3 future work — big TLB, aggressive L1, pipelined Rambus, standby list, SDRAM |
//! | [`dram_backend`] | Flat-vs-banked DRAM error quantification (ROADMAP item 1) |
//! | [`per_benchmark`] | §6.3's per-application page-size study (the variable-page-size case) |
//! | [`anatomy`] | 3C classification of L2 misses — the conflicts full associativity removes |
//! | [`timeslice`] | §5.5's time-slice conjecture: reference-based vs real-time quanta |
//!
//! All sweeps share [`Workload`] (the interleaved Table 2 suite at a
//! chosen scale) and produce serializable result structs with `render()`
//! methods that print tables shaped like the paper's. Every module that
//! simulates declares its sweep once, as a `grid` function whose
//! labelled configs its `run` submits in order (see [`anatomy::grid`]
//! for the one variation); [`grids`] lists them for the config lint.

mod common;
#[cfg(feature = "fault")]
pub mod fault;
mod runner;

pub mod ablations;
pub mod anatomy;
pub mod dram_backend;
pub mod fig5;
pub mod figures;
pub mod grids;
pub mod per_benchmark;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod timeslice;

pub use common::{
    corpus_source_stats, run_config, run_config_traced, run_grid, set_trace_dir, trace_dir, Cell,
    CorpusSourceStats, Workload, PAPER_SIZES,
};
pub use runner::{
    scan_journal, CacheLoad, CellCache, FailedCell, Job, Journal, JournalOp, JournalOpenReport,
    JournalRecord, LeaseConfig, ProgressUpdate, SweepRunner, CACHE_FORMAT_VERSION,
};
