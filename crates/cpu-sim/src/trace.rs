//! Operation traces: the instruction stream the core model executes.
//!
//! Workloads are *trace generators*: lazy iterators of [`Op`] values. Only
//! the events that matter for memory-system studies are modeled — bulk
//! compute (which occupies issue slots), loads (which may miss and stall),
//! and stores (which drain through the write buffer). This is the standard
//! abstraction level for memory-hierarchy simulation (the paper's zsim
//! substrate drives its cache models the same way).

use crate::batch::{LanePath, MemoryPath, OpAttrs};

/// One event in an instruction trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `n` back-to-back non-memory instructions.
    Compute(u32),
    /// A load from a virtual address.
    Load {
        /// Virtual address of the load.
        addr: u64,
        /// If `true`, this load consumes the value of the previous load and
        /// cannot issue until it completes (pointer chasing). Independent
        /// loads (`dep == false`) overlap, which is what creates
        /// memory-level parallelism.
        dep: bool,
    },
    /// A store to a virtual address.
    Store {
        /// Virtual address of the store.
        addr: u64,
    },
}

impl Op {
    /// Convenience constructor for an independent load.
    #[inline]
    pub const fn load(addr: u64) -> Op {
        Op::Load { addr, dep: false }
    }

    /// Convenience constructor for a dependent (serialized) load.
    #[inline]
    pub const fn load_dep(addr: u64) -> Op {
        Op::Load { addr, dep: true }
    }

    /// Convenience constructor for a store.
    #[inline]
    pub const fn store(addr: u64) -> Op {
        Op::Store { addr }
    }

    /// Number of instructions this event represents.
    #[inline]
    pub const fn instructions(&self) -> u64 {
        match self {
            Op::Compute(n) => *n as u64,
            Op::Load { .. } | Op::Store { .. } => 1,
        }
    }

    /// Whether the event touches memory.
    #[inline]
    pub const fn is_memory(&self) -> bool {
        matches!(self, Op::Load { .. } | Op::Store { .. })
    }
}

/// A fixed-latency memory, useful for tests and core-model studies.
#[derive(Debug, Clone, Copy)]
pub struct FixedLatency {
    /// Latency of every access in cycles.
    pub latency: u64,
}

impl MemoryPath for FixedLatency {
    #[inline]
    fn serve(&mut self, _addr: u64, _attrs: OpAttrs, _now: u64) -> u64 {
        self.latency
    }
}

/// Every lane sees the fixed latency, so no access is served per lane.
impl LanePath for FixedLatency {
    #[inline]
    fn begin(&mut self, _addr: u64, _attrs: OpAttrs) -> Option<u64> {
        Some(self.latency)
    }

    #[inline]
    fn serve_lane(&mut self, _lane: usize, _now: u64) -> u64 {
        self.latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_instruction_counts() {
        assert_eq!(Op::Compute(17).instructions(), 17);
        assert_eq!(Op::load(0).instructions(), 1);
        assert_eq!(Op::store(0).instructions(), 1);
    }

    #[test]
    fn op_memory_classification() {
        assert!(!Op::Compute(1).is_memory());
        assert!(Op::load(8).is_memory());
        assert!(Op::store(8).is_memory());
        assert!(Op::load_dep(8).is_memory());
        assert!(matches!(Op::load_dep(8), Op::Load { dep: true, .. }));
    }

    #[test]
    fn fixed_latency_model() {
        let mut m = FixedLatency { latency: 7 };
        assert_eq!(m.serve(0x100, OpAttrs::read(), 0), 7);
        assert_eq!(m.serve(0x200, OpAttrs::write().with_dep(true), 50), 7);
    }
}
