//! # xmem-sim — the full-system driver
//!
//! Composes every substrate into the simulated machine of Table 3 and runs
//! workload generators on it:
//!
//! ```text
//! workload generator ──TraceSink──▶ Machine
//! one log per core ──run_corun────▶   ├─ Cores 0..N (cpu-sim)
//!                                     ├─ Hierarchy (cache-sim): a private
//!                                     │    L1/L2 per core, shared L3
//!                                     │    └─ Dram (dram-sim)
//!                                     ├─ AMU + PATs (xmem-core)
//!                                     └─ Os: page table + frames (os-sim)
//! ```
//!
//! [`run`] executes the two-pass compile/load/run flow on a one-core
//! machine — optionally with epoch telemetry and interval sampling — and
//! is the one way into it; [`experiments`] wraps it in the exact system
//! configurations the paper's figures compare, and [`harness`] runs grids
//! of it on a worker pool. [`run_corun`] replays one recorded log per core
//! into the same machine built with N cores, scheduling the cores in
//! simulated-time order.
//!
//! ```
//! use xmem_sim::{run, SystemConfig, SystemKind, WorkloadSpec};
//! use workloads::polybench::{KernelParams, PolybenchKernel};
//!
//! let cfg = SystemConfig::scaled_use_case1(32 << 10, SystemKind::Baseline);
//! let p = KernelParams { n: 16, tile_bytes: 1024, steps: 1, reuse: 200 };
//! let mvt = WorkloadSpec::kernel(PolybenchKernel::Mvt, p);
//! let r = run(&cfg, &mvt, None, None).report;
//! assert!(r.core.ipc() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod coherence;
pub mod config;
pub mod experiments;
pub mod harness;
pub mod machine;
pub mod multicore;
pub mod report;
pub mod report_sink;
pub mod sampling;
pub mod telemetry;

pub use crate::coherence::CoherentCluster;
pub use crate::config::{
    CoherenceMode, FramePolicyKind, MultiCoreConfig, SystemConfig, SystemKind,
};
pub use crate::experiments::{placement_specs, run_placement, KernelRun, Uc2System};
pub use crate::harness::{
    default_workers, run_jobs, Progress, RunFailure, RunMeta, RunOutcome, RunRecord, RunSpec,
    Sweep, WorkloadSpec,
};
#[doc(hidden)]
pub use crate::machine::run_scalar;
pub use crate::machine::{run, run_group, Generator, GroupKey, Machine, RunOutput, ScanSink};
pub use crate::multicore::{run_corun, CorunReport};
pub use crate::report::RunReport;
pub use crate::report_sink::{
    point_file_name, scan_point_records, write_point_record, write_report, CsvSink, JsonError,
    JsonSink, JsonValue, ReportSink, JSON_SCHEMA,
};
pub use crate::sampling::{
    SampleCluster, SamplePhase, SampledMetric, SamplingSpec, SamplingSummary,
};
pub use crate::telemetry::{
    ChromeTrace, Counters, TelemetrySample, TelemetrySeries, DEFAULT_EPOCH_INSTRUCTIONS,
};
