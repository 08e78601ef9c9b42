//! # os-sim — virtual memory, frame placement, and program loading
//!
//! The OS substrate for the XMem reproduction:
//!
//! * [`vm::PageTable`] — VA→PA translation (implements
//!   [`xmem_core::amu::Mmu`] so the AMU can resolve `ATOM_MAP` ranges).
//! * [`placement::FrameAllocator`] — physical frame policies: sequential,
//!   randomized (the strengthened baseline of §6.3), and the XMem
//!   bank-aware placement algorithm of §6.2.
//! * [`loader`] — atom segment → GAT → per-component PATs, as the OS does
//!   at program load time (§3.5.2).
//! * [`os::Os`] — an address space with the augmented `malloc(size, atom)`
//!   of §4.1.2.
//!
//! ```
//! use os_sim::os::Os;
//! use os_sim::placement::FramePolicy;
//!
//! let mut os = Os::new(16 << 20, 4096, FramePolicy::Randomized { seed: 42 });
//! let va = os.malloc(1 << 16, None).unwrap();
//! assert_eq!(va.raw() % 4096, 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod hybrid;
pub mod loader;
pub mod numa;
pub mod os;
pub mod placement;
pub mod tlb;
pub mod vm;

pub use crate::hybrid::{HybridConfig, HybridMemory, HybridPolicy, HybridStats, Tier};
pub use crate::loader::{load_process, load_segment, LoadedProcess};
pub use crate::numa::{NumaConfig, NumaPlacement, NumaSystem};
pub use crate::os::{Os, OsError};
pub use crate::placement::{FrameAllocator, FramePolicy};
pub use crate::tlb::{Tlb, TlbConfig, TlbStats};
pub use crate::vm::PageTable;
