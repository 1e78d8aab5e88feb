//! Address traces and synthetic workloads for the RAMpage simulator.
//!
//! The ASPLOS 1998 RAMpage study was driven by 18 address traces from the
//! New Mexico State University *Tracebase* archive (SPEC92 programs plus
//! Unix utilities, 1.1 billion references total, listed in Table 2 of the
//! paper). Those traces are no longer practically obtainable, so this crate
//! provides the closest synthetic equivalent: deterministic, seeded
//! generators that reproduce the *locality structure* the paper's
//! experiments stress — instruction working sets, spatial runs over arrays,
//! pointer chases, hot/cold data mixes — parameterized per benchmark from
//! the paper's Table 2 (instruction-fetch fraction and reference volume).
//!
//! Each source is one program's trace. The multiprogrammed workload of
//! §4.2 — traces switched round-robin every 500 000 references — is
//! built by `rampage-core`'s `Engine`, which schedules one process per
//! source.
//!
//! # Quick example
//!
//! ```
//! use rampage_trace::{profiles, TraceSource};
//!
//! // gcc from Table 2 at 1/1000 of the paper's volume.
//! let gcc = &profiles::TABLE2[5];
//! let mut source = gcc.source(1000, 42);
//! let mut n = 0u64;
//! while let Some(record) = source.next_record() {
//!     let _ = record.addr;
//!     n += 1;
//! }
//! assert_eq!(n, gcc.scaled_refs(1000));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod io;
mod record;
mod stats;
mod stream;

pub mod profiles;
pub mod synth;

pub use record::{AccessKind, Asid, TraceRecord, VirtAddr};
pub use stats::{MixFractions, TraceStats};
pub use stream::{BoundedSource, TraceSource, VecSource};
