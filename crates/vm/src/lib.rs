//! Virtual-memory substrate for the RAMpage simulator.
//!
//! RAMpage's core idea (paper §2) is that the lowest SRAM level is not a
//! cache but a *paged main memory*, managed entirely in software:
//!
//! * an **inverted page table** pinned in SRAM maps `(ASID, virtual page)`
//!   to SRAM frames — [`InvertedPageTable`], complete with the hash-anchor
//!   and chain structure whose probe addresses the TLB-miss handler
//!   actually touches;
//! * a **TLB** (64-entry fully-associative, random replacement in the
//!   paper's configuration) caches those translations — [`Tlb`];
//! * a **clock** (second-chance) algorithm chooses victims on page faults
//!   from SRAM — [`ClockReplacer`];
//! * an optional **standby page list** gives the software hierarchy the
//!   effect of a victim cache (§3.2) — [`StandbyList`];
//! * the **OS cost model** — [`os`] — turns each software event (TLB
//!   refill, page fault, context switch) into the reference sequence the
//!   handler would execute, so software overhead is *simulated through
//!   the memory hierarchy* rather than charged as a constant.
//!
//! The same structures serve the conventional hierarchy's DRAM-level
//! paging (the paper uses "the same inverted page table strategy ... for
//! simplicity", §2.4).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod ipt;
pub mod os;
mod page;
mod standby;
mod tlb;

pub use clock::ClockReplacer;
pub use ipt::{InvertedPageTable, IptLookup, Mapping};
pub use page::{FrameId, PageSize, Vpn};
pub use standby::{StandbyEntry, StandbyList};
pub use tlb::{Tlb, TlbStats};
