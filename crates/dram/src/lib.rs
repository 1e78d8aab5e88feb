//! Memory-device timing models for the RAMpage simulator.
//!
//! The paper models DRAM as a simplified Direct Rambus (§3.3, §4.3): 50 ns
//! before the first datum, then 2 bytes every 1.25 ns, giving the same
//! 1.6 GB/s peak as a 128-bit SDRAM bus at 10 ns. Table 1 of the paper
//! compares the *efficiency* (fraction of peak bandwidth actually used) of
//! Direct Rambus against a disk (10 ms latency, 40 MB/s) to argue that
//! DRAM shares the disk's preference for large transfer units — the
//! premise of treating DRAM as a paging device.
//!
//! Every device the paper compares follows one rule, a fixed latency and
//! then bytes at the device's bandwidth, so one type carries them all:
//!
//! * [`DramModel`] — the flat model, with one constructor per device:
//!   the paper's Direct Rambus, its pipelined (95 %-of-peak, §3.3)
//!   variant, the §3.3 SDRAM comparator and the Table 1 disk;
//! * [`efficiency`] / [`efficiency_table`] — Table 1 itself.
//!
//! Beyond the paper's flat arithmetic, the crate also carries an
//! event-driven, bank-aware Direct Rambus backend ([`BankedChannel`],
//! configured by [`BankedConfig`]): per-bank row-buffer state
//! ([`Bank`], hit/miss/conflict timing via [`BankTiming`]), a
//! configurable row/bank/column address mapping ([`AddressMapping`]),
//! and structural channel pipelining that replaces the flat model's
//! 95 %-of-peak approximation. Configured degenerately
//! ([`BankedConfig::flat_equivalent`]) it reproduces the flat model
//! bit-for-bit — the conformance contract `tests/dram_backend.rs`
//! enforces. Both fidelities report a [`Transfer`].
//!
//! All times are integer picoseconds ([`Picos`]) to keep the simulator
//! exact and reproducible.
//!
//! ```
//! use rampage_dram::DramModel;
//!
//! let rambus = DramModel::rambus();
//! // A 4 KB page transfer: 50 ns + 4096/2 x 1.25 ns = 2610 ns — the
//! // "about 2,600 instructions at a 1 GHz issue rate" of §3.5.
//! assert_eq!(rambus.transfer_time(4096).as_nanos_f64(), 2610.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bank;
mod channel;
mod efficiency;
mod error;
mod mapping;
mod model;
mod time;

pub use bank::{Bank, BankTiming, BankedConfig, RowOutcome};
pub use channel::{BankedChannel, RowStats, Transfer};
pub use efficiency::{efficiency, efficiency_table, EfficiencyRow, TABLE1_SIZES};
pub use error::DramConfigError;
pub use mapping::{AddressMapping, BankPlacement, DramCoord};
pub use model::DramModel;
pub use time::Picos;
