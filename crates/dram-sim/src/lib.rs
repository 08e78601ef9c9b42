//! # dram-sim — a banked DRAM timing model
//!
//! The DRAM substrate for the XMem reproduction, modeled after DRAMSim2 as
//! used in the paper's evaluation (Table 3): DDR3-1066 timing, 2 channels ×
//! 1 rank × 8 banks, open-row policy, and a family of physical address
//! mappings (the seven DRAMSim2 orderings plus permutation-based bank
//! interleaving).
//!
//! * [`DramConfig`] — geometry + timing (defaults per Table 3).
//! * [`AddressMapping`] — PA → (channel, rank, bank, row, column).
//! * [`Dram`] — the per-access timing model every experiment runs: requests
//!   in arrival order (row hits/misses/conflicts, bank queueing, channel
//!   bus bandwidth). Arrival order with an open row captures the
//!   first-order effect of the paper's FR-FCFS controller (row hits are
//!   cheap and banks pipeline), not its reordering.
//!
//! ```
//! use cpu_sim::batch::OpAttrs;
//! use dram_sim::{AddressMapping, Dram, DramConfig};
//!
//! let mut dram = Dram::new(DramConfig::ddr3_1066(3.6), AddressMapping::scheme5());
//! let mut t = 0;
//! for line in 0..256u64 {
//!     t += dram.serve(line * 64, OpAttrs::read(), t);
//! }
//! assert!(dram.stats().row_hit_rate() > 0.9); // sequential = row friendly
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod dram;
pub mod mapping;

pub use crate::config::DramConfig;
pub use crate::dram::{Dram, DramStats, RowOutcome};
pub use crate::mapping::{AddressMapping, Decoder, DramLocation, Field};
