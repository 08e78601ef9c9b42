//! # xmem — Expressive Memory, end to end
//!
//! The facade crate of the XMem reproduction (ISCA 2018, Vijaykumar et al.):
//! it re-exports every layer of the system so applications can depend on a
//! single crate.
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`core`] | `xmem-core` | the Atom abstraction, XMemLib, AAM/AST/GAT/PAT/AMU/ALB |
//! | [`cpu`] | `cpu-sim` | trace-driven OOO core timing model |
//! | [`cache`] | `cache-sim` | caches, DRRIP, prefetchers, pinning hierarchy |
//! | [`dram`] | `dram-sim` | DDR3 banks (arrival order, open row), address mappings |
//! | [`os`] | `os-sim` | page tables, frame placement, program loading |
//! | [`workloads`] | `workloads` | Polybench-style kernels + placement mixes |
//! | [`sim`] | `xmem-sim` | the composed full-system machine + experiment runners |
//!
//! ## Quick start
//!
//! Express a high-reuse tile, let the system see it:
//!
//! ```
//! use xmem::core::prelude::*;
//!
//! # fn main() -> Result<(), XMemError> {
//! let mut lib = XMemLib::new();
//! let tile = lib.create_atom(
//!     xmem::core::call_site!(),
//!     "tile",
//!     AtomAttributes::builder()
//!         .access_pattern(AccessPattern::sequential(8))
//!         .reuse(Reuse(200))
//!         .build(),
//! )?;
//!
//! let mut amu = AtomManagementUnit::new(AmuConfig {
//!     aam: AamConfig { phys_bytes: 1 << 20, ..Default::default() },
//!     ..Default::default()
//! });
//! let mmu = IdentityMmu::new();
//! lib.atom_map(&mut amu, &mmu, tile, VirtAddr::new(0x4000), 64 << 10)?;
//! lib.atom_activate(&mut amu, &mmu, tile)?;
//! assert_eq!(amu.active_atom_at(PhysAddr::new(0x5000)), Some(tile));
//! # Ok(())
//! # }
//! ```
//!
//! Or run a whole experiment (see `examples/` for more):
//!
//! ```
//! use xmem::sim::{KernelRun, SystemKind};
//! use xmem::workloads::polybench::{KernelParams, PolybenchKernel};
//!
//! let p = KernelParams { n: 24, tile_bytes: 2048, steps: 2, reuse: 200 };
//! let report = KernelRun::new(PolybenchKernel::Gemm, p)
//!     .l3_bytes(16 << 10)
//!     .system(SystemKind::Xmem)
//!     .run();
//! assert!(report.core.ipc() > 0.0);
//! ```
//!
//! Batches of runs go through the parallel sweep engine
//! ([`sim::harness`], also re-exported as [`harness`]): enumerate
//! [`RunSpec`](sim::harness::RunSpec)s, run them on a worker pool, and
//! get order-stable [`RunRecord`](sim::harness::RunRecord)s back:
//!
//! ```
//! use xmem::harness::Sweep;
//! use xmem::sim::{KernelRun, SystemKind};
//! use xmem::workloads::polybench::{KernelParams, PolybenchKernel};
//!
//! let p = KernelParams { n: 24, tile_bytes: 2048, steps: 2, reuse: 200 };
//! let specs = [SystemKind::Baseline, SystemKind::Xmem]
//!     .into_iter()
//!     .map(|kind| KernelRun::new(PolybenchKernel::Gemm, p).system(kind).spec())
//!     .collect();
//! let records = Sweep::new(specs).run();
//! assert_eq!(records[0].label, "gemm/Baseline");
//! ```

#![warn(missing_docs)]

pub use cache_sim as cache;
pub use compress_sim as compress;
pub use cpu_sim as cpu;
pub use dram_sim as dram;
pub use os_sim as os;
pub use workloads;
pub use xmem_core as core;
pub use xmem_sim as sim;
pub use xmem_sim::harness;
pub use xmem_sim::report_sink;
