//! # cache-sim — caches, replacement policies, prefetchers, and the XMem
//! cache-management mechanism
//!
//! The cache substrate for the XMem reproduction (use case 1, §5 of the
//! paper):
//!
//! * [`cache::Cache`] — set-associative, write-back, with LRU / SRRIP /
//!   BRRIP / DRRIP replacement and pin-aware insertion (75% cap, aging).
//! * [`prefetch::MultiStridePrefetcher`] — the Table 3 baseline prefetcher.
//! * [`pin`] — the greedy atom-pinning algorithm of §5.2(2).
//! * [`hierarchy::Hierarchy`] — L1→L2→L3→DRAM with three operating modes
//!   (Baseline / XMem-Pref / XMem) matching the paper's evaluated systems;
//!   one private L1/L2 domain per core over a shared L3, single-core runs
//!   and co-runs alike.
//! * [`coherence`] — the MESI protocol, snooping bus, and the engine that
//!   keeps a hierarchy's private domains coherent.
//!
//! ```
//! use cache_sim::hierarchy::{Hierarchy, HierarchyConfig};
//! use dram_sim::{AddressMapping, Dram, DramConfig};
//!
//! let mut h = Hierarchy::new(
//!     HierarchyConfig::westmere_like(),
//!     Dram::new(DramConfig::ddr3_1066(3.6), AddressMapping::scheme1()),
//! );
//! let miss = h.serve(0x1000, false, 0, None);
//! let hit = h.serve(0x1000, false, miss, None);
//! assert!(hit < miss);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod coherence;
pub mod config;
pub mod dram_cache;
pub mod hierarchy;
pub mod pin;
pub mod prefetch;
mod tracker;

pub use crate::cache::{Cache, CacheStats, Eviction, FillOutcome, InsertPriority, Slot};
pub use crate::coherence::{
    local_next, mesi_access, snoop_transition, BusOp, BusStats, CoherentAccess, MesiDomains,
    MesiState, SnoopAction, SnoopBus,
};
pub use crate::config::{CacheConfig, ReplacementPolicy};
pub use crate::dram_cache::{DramCache, DramCacheConfig, DramCacheStats};
pub use crate::hierarchy::{Hierarchy, HierarchyConfig, XmemContext, XmemMode};
pub use crate::pin::{select_pinned, PinCandidate, PIN_FRACTION};
pub use crate::prefetch::{MultiStridePrefetcher, PrefetchRequest, PrefetchRun, PrefetchStats};
