//! Cache structures for the RAMpage simulator.
//!
//! This crate provides the hardware-cache substrate of the paper's two
//! hierarchies:
//!
//! * [`Cache`] — a set-associative write-back cache with pluggable
//!   [`ReplacementPolicy`] (direct-mapped is 1-way, the paper's baseline L2;
//!   2-way with random replacement is the paper's "more realistic" L2;
//!   the 16 KB L1 I/D caches are direct-mapped with 32-byte blocks);
//! * [`Geometry`] — validated size/block/way arithmetic (index and tag
//!   extraction, tag storage overhead — used to size the RAMpage SRAM
//!   main memory 128 KB larger than the 4 MB L2 it replaces);
//! * [`VictimCache`] — the small fully-associative victim buffer of
//!   Jouppi (1990), discussed in §3.2 of the paper and used here for
//!   ablation studies;
//! * [`WriteBuffer`] — the paper's "perfect write buffering" model
//!   (zero effective write-hit time) with depth accounting for ablations.
//!
//! Caches here are *behavioural* models: they track tags, validity and
//! dirtiness and report hits, misses and evictions. Timing is applied by
//! the simulator in `rampage-core`, which charges the paper's penalties
//! around these outcomes.
//!
//! ```
//! use rampage_cache::{Cache, Geometry, PhysAddr, ReplacementPolicy};
//!
//! // The paper's baseline L2: 4 MB direct-mapped, 128-byte blocks.
//! let geo = Geometry::new(4 << 20, 128, 1);
//! let mut l2 = Cache::new(geo, ReplacementPolicy::Lru);
//! let r = l2.access(PhysAddr(0x1000), false);
//! assert!(!r.hit);
//! assert!(l2.access(PhysAddr(0x1000), false).hit);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod cache;
mod classify;
mod geometry;
mod policy;
mod stats;
mod victim;
mod writebuf;

pub use addr::PhysAddr;
pub use cache::{AccessResult, Cache, Eviction};
pub use classify::{MissClass, MissClassifier, MissProfile, ShadowTracker};
pub use geometry::Geometry;
pub use policy::ReplacementPolicy;
pub use stats::CacheStats;
pub use victim::VictimCache;
pub use writebuf::WriteBuffer;
