//! The RAMpage performance ledger: how fast the simulator works, end to
//! end and layer by layer, on four fixed workloads.
//!
//! * [`workload`] — the workloads, their set-up, and one repetition
//!   through the sweep runner;
//! * [`measure`] — the untraced end-to-end run and the traced per-layer
//!   run;
//! * [`spans`] — span recording and the traced `Engine::new` + `run` path;
//! * [`layers`] — standalone per-call costs of the cache, VM and DRAM
//!   layers;
//! * [`check`] — pinned cell digests and the correctness tally;
//! * [`report`] — metric names, the printed result, and `ledger compare`.
//!
//! The ledger uses only the public APIs of the simulator's crates and
//! changes no simulator code. See `README.md` for the metric glossary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod layers;
pub mod measure;
pub mod report;
pub mod spans;
pub mod workload;
