//! The batched memory-path API: op buffers and the [`MemoryPath`] trait.
//!
//! This module is the one contract between the core model and the memory
//! side of the machine:
//!
//! * [`OpBatch`] — a fixed-capacity, `#[repr(C)]` struct-of-arrays buffer
//!   of trace operations: one lane per field (addresses, packed attribute
//!   flags, auxiliary words, cycle timestamps), so the hot loop runs
//!   branch-predictably over contiguous memory;
//! * [`OpAttrs`] — the typed attribute set carried per op (write/dep bits,
//!   NUMA socket, interleave salt), replacing the divergent positional
//!   `access` signatures;
//! * [`MemoryPath`] — the memory side of the machine: serve one op
//!   ([`MemoryPath::serve`]);
//! * [`LanePath`] — the memory side of a core with several timing lanes
//!   (the members of a lockstep group): an access is decoded once and,
//!   unless its latency is the same in every lane, served per lane.
//!
//! Batched execution is *semantically identical* to per-op execution: the
//! core serves a batch's ops in buffer order against the same mutable
//! state, so reports are byte-identical either way (the identity suite in
//! `crates/sim/tests` asserts this).

use crate::trace::Op;

/// Fixed capacity of an [`OpBatch`] (ops per flush).
///
/// 256 ops keeps the whole buffer (~6.5 KB) L1-resident while amortizing
/// the per-batch virtual dispatch to a fraction of a cycle per op.
pub const BATCH_CAPACITY: usize = 256;

/// Operation kind, stored in the low bits of the flags lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum OpKind {
    /// Bulk non-memory instructions (the address lane holds the count).
    Compute = 0,
    /// A load (the address lane holds the virtual address).
    Load = 1,
    /// A store (the address lane holds the virtual address).
    Store = 2,
}

/// Typed per-op attributes carried through the memory path.
///
/// This is the single replacement for the positional arguments that had
/// diverged across the sim crates: `is_write` (cache/DRAM/hybrid), `dep`
/// (core), `socket`/`salt` (NUMA). Attributes pack into one `u16` flags
/// word plus one `u64` auxiliary word per op — see [`OpAttrs::pack`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpAttrs {
    /// The op writes (store / dirty fill) rather than reads.
    pub write: bool,
    /// The op consumes the previous load's value (serializing load).
    pub dep: bool,
    /// Originating NUMA socket (0 on single-socket systems).
    pub socket: u8,
    /// Deterministic interleave salt (e.g. element index) for
    /// `Interleaved` NUMA placements.
    pub salt: u64,
}

const FLAG_WRITE: u16 = 1 << 2;
const FLAG_DEP: u16 = 1 << 3;
const KIND_MASK: u16 = 0b11;
const SOCKET_SHIFT: u16 = 8;

impl OpAttrs {
    /// Attributes for a read access.
    pub const fn read() -> Self {
        OpAttrs {
            write: false,
            dep: false,
            socket: 0,
            salt: 0,
        }
    }

    /// Attributes for a write access.
    pub const fn write() -> Self {
        OpAttrs {
            write: true,
            dep: false,
            socket: 0,
            salt: 0,
        }
    }

    /// Sets the dependent-load bit.
    pub const fn with_dep(mut self, dep: bool) -> Self {
        self.dep = dep;
        self
    }

    /// Sets the originating socket.
    pub const fn on_socket(mut self, socket: u8) -> Self {
        self.socket = socket;
        self
    }

    /// Sets the interleave salt.
    pub const fn with_salt(mut self, salt: u64) -> Self {
        self.salt = salt;
        self
    }

    /// Packs the attributes (with the op kind) into the flags lane word
    /// plus the auxiliary lane word.
    pub const fn pack(self, kind: OpKind) -> (u16, u64) {
        let mut flags = kind as u16;
        if self.write {
            flags |= FLAG_WRITE;
        }
        if self.dep {
            flags |= FLAG_DEP;
        }
        flags |= (self.socket as u16) << SOCKET_SHIFT;
        (flags, self.salt)
    }

    /// Inverse of [`OpAttrs::pack`] (ignoring the kind bits).
    pub const fn unpack(flags: u16, aux: u64) -> Self {
        OpAttrs {
            write: flags & FLAG_WRITE != 0,
            dep: flags & FLAG_DEP != 0,
            socket: (flags >> SOCKET_SHIFT) as u8,
            salt: aux,
        }
    }
}

/// The kind bits of a packed flags word.
const fn kind_of(flags: u16) -> OpKind {
    match flags & KIND_MASK {
        0 => OpKind::Compute,
        1 => OpKind::Load,
        _ => OpKind::Store,
    }
}

/// A fixed-capacity struct-of-arrays buffer of trace operations.
///
/// Layout is `#[repr(C)]`: four parallel lanes, one entry per op, hot
/// lanes first. The `cycles` lane holds the start cycle the producer gave
/// each op.
///
/// # Examples
///
/// ```
/// use cpu_sim::batch::{OpBatch, OpKind};
/// use cpu_sim::trace::Op;
///
/// let mut batch = OpBatch::new();
/// batch.push_op(Op::load(0x40), 100);
/// batch.push_op(Op::Compute(8), 100);
/// batch.push_op(Op::store(0x80), 101);
/// assert_eq!(batch.kind(2), OpKind::Store);
/// assert_eq!(batch.start(2), 101);
/// assert_eq!(batch.op(1), Op::Compute(8));
/// ```
#[derive(Clone)]
#[repr(C)]
pub struct OpBatch {
    /// Virtual address per op (instruction count for `Compute`).
    addrs: [u64; BATCH_CAPACITY],
    /// Start cycle per op.
    cycles: [u64; BATCH_CAPACITY],
    /// Auxiliary attribute word (interleave salt).
    aux: [u64; BATCH_CAPACITY],
    /// Packed kind + attribute flags.
    flags: [u16; BATCH_CAPACITY],
    len: u32,
}

impl std::fmt::Debug for OpBatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OpBatch").field("len", &self.len).finish()
    }
}

impl Default for OpBatch {
    fn default() -> Self {
        Self::new()
    }
}

impl OpBatch {
    /// An empty batch.
    pub const fn new() -> Self {
        OpBatch {
            addrs: [0; BATCH_CAPACITY],
            cycles: [0; BATCH_CAPACITY],
            aux: [0; BATCH_CAPACITY],
            flags: [0; BATCH_CAPACITY],
            len: 0,
        }
    }

    /// Ops currently buffered.
    #[inline]
    pub const fn len(&self) -> usize {
        self.len as usize
    }

    /// `true` when no ops are buffered.
    #[inline]
    pub const fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `true` when the batch must be flushed before the next push.
    #[inline]
    pub const fn is_full(&self) -> bool {
        self.len as usize == BATCH_CAPACITY
    }

    /// Empties the batch (lanes are overwritten by subsequent pushes).
    #[inline]
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Appends one op with explicit attributes and start cycle.
    ///
    /// # Panics
    ///
    /// Panics when the batch is full; producers check [`OpBatch::is_full`]
    /// and flush first.
    #[inline]
    pub fn push(&mut self, kind: OpKind, addr: u64, attrs: OpAttrs, start: u64) {
        let i = self.len as usize;
        assert!(i < BATCH_CAPACITY, "OpBatch overflow: flush before push");
        let (flags, aux) = attrs.pack(kind);
        self.addrs[i] = addr;
        self.cycles[i] = start;
        self.aux[i] = aux;
        self.flags[i] = flags;
        self.len += 1;
    }

    /// Appends a trace [`Op`] with default attributes.
    #[inline]
    pub fn push_op(&mut self, op: Op, start: u64) {
        match op {
            Op::Compute(n) => self.push(OpKind::Compute, n as u64, OpAttrs::default(), start),
            Op::Load { addr, dep } => {
                self.push(OpKind::Load, addr, OpAttrs::read().with_dep(dep), start)
            }
            Op::Store { addr } => self.push(OpKind::Store, addr, OpAttrs::write(), start),
        }
    }

    /// The kind of op `i`.
    #[inline]
    pub fn kind(&self, i: usize) -> OpKind {
        kind_of(self.flags[i])
    }

    /// The address lane of op `i` (instruction count for `Compute`).
    #[inline]
    pub fn addr(&self, i: usize) -> u64 {
        self.addrs[i]
    }

    /// The unpacked attributes of op `i`.
    #[inline]
    pub fn attrs(&self, i: usize) -> OpAttrs {
        OpAttrs::unpack(self.flags[i], self.aux[i])
    }

    /// The start cycle of op `i`.
    #[inline]
    pub fn start(&self, i: usize) -> u64 {
        self.cycles[i]
    }

    /// Reconstructs op `i` as a trace [`Op`].
    ///
    /// # Panics
    ///
    /// Panics if a `Compute` count exceeds `u32::MAX` (pushes from
    /// [`OpBatch::push_op`] cannot, since `Op::Compute` holds a `u32`).
    #[inline]
    pub fn op(&self, i: usize) -> Op {
        match self.kind(i) {
            OpKind::Compute => Op::Compute(
                // simlint: allow(unwrap, reason = "documented `# Panics` contract; push_op can only store u32 counts")
                u32::try_from(self.addrs[i]).expect("compute count exceeds u32 in batch"),
            ),
            OpKind::Load => Op::Load {
                addr: self.addrs[i],
                dep: self.attrs(i).dep,
            },
            OpKind::Store => Op::Store {
                addr: self.addrs[i],
            },
        }
    }

    /// Iterates the buffered ops as trace [`Op`] values.
    pub fn ops(&self) -> impl Iterator<Item = Op> + '_ {
        (0..self.len()).map(|i| self.op(i))
    }
}

/// The interface between the core model and the memory hierarchy.
///
/// This is the memory-path contract: [`MemoryPath::serve`] performs one
/// access with typed [`OpAttrs`]. The core calls it once per memory op of
/// an [`OpBatch`], *in buffer order*, which is what keeps batched and
/// scalar execution byte-identical.
pub trait MemoryPath {
    /// Serves one access at cycle `now`, returning its latency in cycles.
    fn serve(&mut self, addr: u64, attrs: OpAttrs, now: u64) -> u64;
}

/// The memory side of a core with several *lanes*: members of a lockstep
/// group that run one program and differ only in time
/// ([`crate::core::Core::with_lanes`]).
///
/// The core calls [`LanePath::begin`] once per memory op, in buffer order.
/// When it returns a latency, every lane sees that latency and no lane's
/// own memory takes part, so the core settles all lanes from it alone;
/// otherwise the core calls [`LanePath::serve_lane`] once per lane, in lane
/// order, each at that lane's issue time. A plain [`MemoryPath`] is the
/// one-lane case that always answers per lane.
pub trait LanePath {
    /// Begins the next access, to `addr` with `attrs`. Returns its latency
    /// when it is the same in every lane and needs nothing of any lane's
    /// own memory; `None` asks for [`LanePath::serve_lane`] per lane.
    fn begin(&mut self, addr: u64, attrs: OpAttrs) -> Option<u64>;

    /// Serves the access begun last in `lane`, issued at cycle `now`,
    /// returning its latency in cycles.
    fn serve_lane(&mut self, lane: usize, now: u64) -> u64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attrs_pack_round_trip() {
        let cases = [
            OpAttrs::read(),
            OpAttrs::write(),
            OpAttrs::read().with_dep(true),
            OpAttrs::write().on_socket(3).with_salt(0xDEAD_BEEF),
            OpAttrs::read().on_socket(255).with_salt(u64::MAX),
        ];
        for attrs in cases {
            for kind in [OpKind::Compute, OpKind::Load, OpKind::Store] {
                let (flags, aux) = attrs.pack(kind);
                assert_eq!(kind_of(flags), kind);
                assert_eq!(OpAttrs::unpack(flags, aux), attrs);
            }
        }
    }

    #[test]
    fn ops_round_trip_through_lanes() {
        let ops = [
            Op::Compute(400),
            Op::load(0x1000),
            Op::load_dep(0x2000),
            Op::store(0x3000),
            Op::Compute(1),
        ];
        let mut batch = OpBatch::new();
        for (i, &op) in ops.iter().enumerate() {
            batch.push_op(op, i as u64 * 10);
        }
        assert_eq!(batch.len(), ops.len());
        let back: Vec<Op> = batch.ops().collect();
        assert_eq!(back, ops);
        assert_eq!(batch.start(3), 30);
    }

    #[test]
    fn capacity_and_clear() {
        let mut batch = OpBatch::new();
        assert!(batch.is_empty());
        for i in 0..BATCH_CAPACITY {
            assert!(!batch.is_full());
            batch.push_op(Op::load(i as u64 * 64), 0);
        }
        assert!(batch.is_full());
        batch.clear();
        assert!(batch.is_empty() && !batch.is_full());
    }

    #[test]
    #[should_panic(expected = "OpBatch overflow")]
    fn overflow_panics() {
        let mut batch = OpBatch::new();
        for i in 0..=BATCH_CAPACITY {
            batch.push_op(Op::load(i as u64), 0);
        }
    }
}
