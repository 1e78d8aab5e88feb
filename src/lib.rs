//! # rampage — the RAMpage memory hierarchy, reproduced in Rust
//!
//! This is the umbrella crate of a full reproduction of
//! *"Hardware-Software Trade-Offs in a Direct Rambus Implementation of the
//! RAMpage Memory Hierarchy"* (Machanick, Salverda, Pompe — ASPLOS VIII,
//! 1998). It re-exports the workspace crates:
//!
//! * [`trace`] — address traces and synthetic workloads ([`rampage_trace`])
//! * [`cache`] — cache structures ([`rampage_cache`])
//! * [`dram`] — DRAM/disk timing models ([`rampage_dram`])
//! * [`vm`] — virtual-memory substrate ([`rampage_vm`])
//! * [`core`] — the simulator and experiments ([`rampage_core`])
//!
//! See `README.md` for a tour, `DESIGN.md` for the system inventory, and
//! `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! ```
//! use rampage::prelude::*;
//!
//! // Simulate a small workload on both hierarchies at a 1 GHz issue rate.
//! let cfg = SystemConfig::baseline(IssueRate::GHZ1, 512);
//! let mut engine = Engine::for_suite(&cfg, 4, 20_000, 99);
//! let outcome = engine.run();
//! assert!(outcome.metrics.total_cycles() > 0);
//! ```

#![forbid(unsafe_code)]

pub use rampage_cache as cache;
pub use rampage_core as core;
pub use rampage_dram as dram;
pub use rampage_trace as trace;
pub use rampage_vm as vm;

/// Convenient glob import for examples and quick experiments.
pub mod prelude {
    pub use rampage_core::prelude::*;
    pub use rampage_trace::{profiles, AccessKind, TraceRecord, TraceSource};
}
