//! # workloads — trace generators for the XMem evaluation
//!
//! Two workload families reproduce the paper's evaluation inputs:
//!
//! * [`polybench`] — the 12 tiled linear-algebra/stencil kernels of use
//!   case 1 (§5.3), parameterized by tile size with total work held
//!   constant, annotated with XMem atoms exactly as §5.2(1) prescribes.
//! * [`placement`] — the 27 memory-intensive multi-structure mixes of use
//!   case 2 (§6.3), each structure expressed as an atom carrying its access
//!   pattern and intensity.
//!
//! Workloads emit their events into a [`sink::TraceSink`]; the system
//! driver decides whether the XMem calls reach real hardware tables (XMem
//! runs) or fall on deaf ears (baseline runs).
//!
//! ```
//! use workloads::polybench::{KernelParams, PolybenchKernel};
//! use workloads::sink::LogSink;
//!
//! let mut sink = LogSink::new();
//! PolybenchKernel::Gemm.generate(
//!     &KernelParams { n: 16, tile_bytes: 1024, steps: 1, reuse: 200 },
//!     &mut sink,
//! );
//! assert!(sink.ops().any(|op| op.is_memory()));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod hog;
pub mod placement;
pub mod polybench;
pub mod shared;
pub mod sink;
pub mod trace_file;

pub use crate::hog::{random_hog, stream_hog};
pub use crate::placement::{AccessKind, PlacementWorkload, StructSpec};
pub use crate::polybench::{KernelParams, PolybenchKernel};
pub use crate::shared::{lock_counter, producer_consumer, read_mostly_reader, PcRole};
pub use crate::sink::{LogSink, TraceEvent, TraceSink};
pub use crate::trace_file::{read_trace, write_trace, VaRanges};
