//! # cpu-sim — trace-driven core timing model
//!
//! The CPU substrate for the XMem reproduction: a limited-window
//! out-of-order core model ([`core::Core`]) driven by op traces
//! ([`trace::Op`]) against any [`batch::MemoryPath`] — either per op or in
//! fixed-size [`batch::OpBatch`] buffers. Simple models implement only
//! [`batch::MemoryPath::serve`].
//!
//! One core can step several *lanes* at once: the members of a lockstep
//! sweep group, which run one program and differ only in time. The core
//! keeps what the op stream decides once and each member's timing in its
//! lane ([`core::Core::with_lanes`]); [`core::Core::step_group`] decodes
//! each op once and serves it through a [`batch::LanePath`], which answers
//! with one latency for every lane when it can and per lane otherwise. A
//! one-lane core is the same model: a [`batch::MemoryPath`] serves its
//! one lane.
//!
//! The model captures what memory-system studies need — issue bandwidth,
//! ROB-bounded miss overlap, load-queue-bounded MLP, and dependent-load
//! serialization — at a fraction of the cost of a full pipeline simulator.
//!
//! ```
//! use cpu_sim::core::{Core, CoreConfig};
//! use cpu_sim::trace::{FixedLatency, Op};
//!
//! let mut core = Core::new(CoreConfig::westmere_like());
//! let trace = (0..64).map(|i| Op::load(i * 64));
//! let stats = core.run(trace, &mut FixedLatency { latency: 30 });
//! assert_eq!(stats.loads, 64);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod batch;
pub mod core;
pub mod kv;
pub mod stats;
pub mod trace;

pub use crate::batch::{LanePath, MemoryPath, OpAttrs, OpBatch, OpKind, BATCH_CAPACITY};
pub use crate::core::{Core, CoreConfig, CoreStats};
pub use crate::kv::{KvPairs, KvValue};
pub use crate::stats::LatencyHistogram;
pub use crate::trace::{FixedLatency, Op};
