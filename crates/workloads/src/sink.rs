//! The trace sink: how workloads talk to the simulated machine.
//!
//! A workload is a *generator*: it replays its algorithm's memory behaviour
//! by calling [`TraceSink`] methods — ordinary ops ([`TraceSink::op`]),
//! memory allocation ([`TraceSink::alloc`], the augmented `malloc` of
//! §4.1.2), and the XMem operators of Table 2. The simulated machine
//! (`xmem_sim::Machine`) is the one executing sink: with XMem enabled its
//! hints reach the XMem machinery, and with XMem disabled it executes the
//! ops but skips every hint — which is exactly the paper's baseline (same
//! binary minus the XMem calls). [`LogSink`] records the ordered event log
//! instead, for replay, trace files and tests.

use cpu_sim::batch::{OpAttrs, OpBatch, OpKind};
use cpu_sim::trace::Op;
use xmem_core::atom::AtomId;
use xmem_core::attrs::AtomAttributes;

/// Receives the event stream of a running workload.
///
/// All addresses are virtual. Hint methods must be safe to ignore — a sink
/// that only implements `op` and `alloc` (plus no-op hints) runs every
/// workload correctly, just without XMem benefits.
pub trait TraceSink {
    /// Executes one CPU op.
    fn op(&mut self, op: Op);

    /// Executes a buffer of ops in order.
    ///
    /// The default forwards each op to [`TraceSink::op`], so every sink is
    /// batch-correct by construction; sinks with a genuinely batched fast
    /// path (the executing machine) override it. Overrides must observe
    /// the ops in exactly buffer order — the byte-identity invariant of
    /// the batched memory path rests on it.
    fn op_batch(&mut self, batch: &OpBatch) {
        for i in 0..batch.len() {
            self.op(batch.op(i));
        }
    }

    /// Allocates `bytes` of virtual memory on behalf of `atom` (if the data
    /// belongs to one), returning the base address. This is the augmented
    /// `malloc(size, atomID)` interface of §4.1.2.
    fn alloc(&mut self, bytes: u64, atom: Option<AtomId>) -> u64;

    /// `CreateAtom`: creates (or returns the existing) atom for `label`.
    fn create_atom(&mut self, label: &str, attrs: AtomAttributes) -> AtomId;

    /// `CreateAtom` for data *shared between co-running workloads*: logs
    /// recorded from different generators that use the same `key` refer to
    /// one atom when co-run (see `xmem_sim::multicore`). The default
    /// delegates to [`TraceSink::create_atom`], so on a single-core sink a
    /// shared atom degenerates to an ordinary private one.
    fn create_atom_shared(&mut self, key: u64, label: &str, attrs: AtomAttributes) -> AtomId {
        let _ = key;
        self.create_atom(label, attrs)
    }

    /// Allocation of a *shared segment*: co-run logs using the same `key`
    /// map to one physical allocation (first replayer allocates, the rest
    /// alias it). The default delegates to [`TraceSink::alloc`] — private
    /// memory on a single-core sink.
    fn alloc_shared(&mut self, key: u64, bytes: u64, atom: Option<AtomId>) -> u64 {
        let _ = key;
        self.alloc(bytes, atom)
    }

    /// `AtomMap` over a linear range.
    fn map(&mut self, atom: AtomId, start: u64, len: u64);

    /// `AtomUnmap` over a linear range.
    fn unmap(&mut self, start: u64, len: u64);

    /// `AtomMap2D`: a `size_x`×`size_y`-byte block in rows of `len_x` bytes.
    fn map_2d(&mut self, atom: AtomId, base: u64, size_x: u64, size_y: u64, len_x: u64);

    /// `AtomUnmap2D` (same geometry as [`TraceSink::map_2d`]).
    fn unmap_2d(&mut self, base: u64, size_x: u64, size_y: u64, len_x: u64);

    /// `AtomActivate`.
    fn activate(&mut self, atom: AtomId);

    /// `AtomDeactivate`.
    fn deactivate(&mut self, atom: AtomId);

    /// Convenience: an independent load.
    fn load(&mut self, addr: u64) {
        self.op(Op::load(addr));
    }

    /// Convenience: a dependent (pointer-chase) load.
    fn load_dep(&mut self, addr: u64) {
        self.op(Op::load_dep(addr));
    }

    /// Convenience: a store.
    fn store(&mut self, addr: u64) {
        self.op(Op::store(addr));
    }

    /// Convenience: `n` compute instructions.
    fn compute(&mut self, n: u32) {
        self.op(Op::Compute(n));
    }
}

/// Buffers ops into an [`OpBatch`] and hands full buffers downstream via
/// [`TraceSink::op_batch`], flushing before any hint so program order is
/// preserved exactly.
///
/// Wrap the executing sink in this to turn a per-op generator into a
/// batched one without touching the generator: ops amortize the dynamic
/// dispatch into one call per [`cpu_sim::batch::BATCH_CAPACITY`] ops,
/// while allocation and XMem hints still land between the right ops.
///
/// Call [`BatchEmitter::flush`] after the generator finishes. Dropping
/// the emitter with buffered ops is a *debug assertion* — a silently
/// deferred tail means ops land after whatever the caller did next — but
/// release builds still flush as a safety net, so no op is ever lost.
///
/// # Examples
///
/// ```
/// use workloads::sink::{BatchEmitter, LogSink, TraceSink};
///
/// let mut inner = LogSink::new();
/// {
///     let mut em = BatchEmitter::new(&mut inner);
///     for i in 0..1000u64 {
///         em.load(i * 64);
///     }
///     em.flush(); // explicit tail flush at generator end
/// }
/// assert_eq!(inner.ops().count(), 1000);
/// ```
#[derive(Debug)]
pub struct BatchEmitter<'a, S: TraceSink + ?Sized> {
    sink: &'a mut S,
    batch: OpBatch,
}

impl<'a, S: TraceSink + ?Sized> BatchEmitter<'a, S> {
    /// Wraps `sink` with an empty buffer.
    pub fn new(sink: &'a mut S) -> Self {
        BatchEmitter {
            sink,
            batch: OpBatch::new(),
        }
    }

    /// Sends any buffered ops downstream.
    pub fn flush(&mut self) {
        if !self.batch.is_empty() {
            self.sink.op_batch(&self.batch);
            self.batch.clear();
        }
    }
}

impl<S: TraceSink + ?Sized> Drop for BatchEmitter<'_, S> {
    fn drop(&mut self) {
        // Skip during unwind (the sink may be poisoned).
        if std::thread::panicking() {
            return;
        }
        // Dropping with buffered ops is a caller bug: the tail would land
        // *after* whatever the caller interleaved next. Assert in debug
        // builds; flush as a release-mode safety net so no op is lost.
        debug_assert!(
            self.batch.is_empty(),
            "BatchEmitter dropped with {} unflushed ops; call flush() at generator end",
            self.batch.len()
        );
        self.flush();
    }
}

impl<S: TraceSink + ?Sized> TraceSink for BatchEmitter<'_, S> {
    #[inline]
    fn op(&mut self, op: Op) {
        self.batch.push_op(op, 0);
        if self.batch.is_full() {
            self.flush();
        }
    }

    // The convenience emitters push lanes directly instead of routing
    // through an [`Op`] value; each is exactly its trait-default expansion
    // (`OpAttrs::read()` carries `dep: false`, and a `Compute` push stores
    // the count in the address lane with default attributes).
    #[inline]
    fn load(&mut self, addr: u64) {
        self.batch.push(OpKind::Load, addr, OpAttrs::read(), 0);
        if self.batch.is_full() {
            self.flush();
        }
    }

    #[inline]
    fn load_dep(&mut self, addr: u64) {
        self.batch
            .push(OpKind::Load, addr, OpAttrs::read().with_dep(true), 0);
        if self.batch.is_full() {
            self.flush();
        }
    }

    #[inline]
    fn store(&mut self, addr: u64) {
        self.batch.push(OpKind::Store, addr, OpAttrs::write(), 0);
        if self.batch.is_full() {
            self.flush();
        }
    }

    #[inline]
    fn compute(&mut self, n: u32) {
        self.batch
            .push(OpKind::Compute, n as u64, OpAttrs::default(), 0);
        if self.batch.is_full() {
            self.flush();
        }
    }

    fn op_batch(&mut self, batch: &OpBatch) {
        self.flush();
        self.sink.op_batch(batch);
    }

    fn alloc(&mut self, bytes: u64, atom: Option<AtomId>) -> u64 {
        self.flush();
        self.sink.alloc(bytes, atom)
    }

    fn create_atom(&mut self, label: &str, attrs: AtomAttributes) -> AtomId {
        self.flush();
        self.sink.create_atom(label, attrs)
    }

    fn create_atom_shared(&mut self, key: u64, label: &str, attrs: AtomAttributes) -> AtomId {
        self.flush();
        self.sink.create_atom_shared(key, label, attrs)
    }

    fn alloc_shared(&mut self, key: u64, bytes: u64, atom: Option<AtomId>) -> u64 {
        self.flush();
        self.sink.alloc_shared(key, bytes, atom)
    }

    fn map(&mut self, atom: AtomId, start: u64, len: u64) {
        self.flush();
        self.sink.map(atom, start, len);
    }

    fn unmap(&mut self, start: u64, len: u64) {
        self.flush();
        self.sink.unmap(start, len);
    }

    fn map_2d(&mut self, atom: AtomId, base: u64, size_x: u64, size_y: u64, len_x: u64) {
        self.flush();
        self.sink.map_2d(atom, base, size_x, size_y, len_x);
    }

    fn unmap_2d(&mut self, base: u64, size_x: u64, size_y: u64, len_x: u64) {
        self.flush();
        self.sink.unmap_2d(base, size_x, size_y, len_x);
    }

    fn activate(&mut self, atom: AtomId) {
        self.flush();
        self.sink.activate(atom);
    }

    fn deactivate(&mut self, atom: AtomId) {
        self.flush();
        self.sink.deactivate(atom);
    }
}

/// One fully-ordered trace event (op or hint), as recorded by [`LogSink`].
///
/// The log keeps program order across ops and hints — required to
/// *replay* a workload, e.g. when interleaving several cores' traces in a
/// multi-core simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A CPU op.
    Op(Op),
    /// `CreateAtom` (atom identified by its creation index).
    Create {
        /// Label of the atom.
        label: String,
        /// Its attributes.
        attrs: AtomAttributes,
    },
    /// `CreateAtom` for cross-workload shared data: co-run logs using the
    /// same `key` resolve to one atom (the first replayed creation wins;
    /// later ones alias it).
    CreateShared {
        /// Cross-log sharing key.
        key: u64,
        /// Label of the atom.
        label: String,
        /// Its attributes.
        attrs: AtomAttributes,
    },
    /// An allocation; `base` is the VA the generator observed.
    Alloc {
        /// Requested size.
        bytes: u64,
        /// Owning atom.
        atom: Option<AtomId>,
        /// VA handed out during recording.
        base: u64,
    },
    /// A shared-segment allocation: co-run logs using the same `key` alias
    /// one physical allocation.
    AllocShared {
        /// Cross-log sharing key.
        key: u64,
        /// Requested size.
        bytes: u64,
        /// Owning atom.
        atom: Option<AtomId>,
        /// VA handed out during recording (still per-log private VA space;
        /// the replayer maps all of them onto the one shared segment).
        base: u64,
    },
    /// `AtomMap`.
    Map {
        /// Target atom.
        atom: AtomId,
        /// Range start.
        start: u64,
        /// Range length.
        len: u64,
    },
    /// `AtomUnmap`.
    Unmap {
        /// Range start.
        start: u64,
        /// Range length.
        len: u64,
    },
    /// `AtomMap2D`.
    Map2d {
        /// Target atom.
        atom: AtomId,
        /// Block base.
        base: u64,
        /// Block width in bytes.
        size_x: u64,
        /// Block height in rows.
        size_y: u64,
        /// Row pitch in bytes.
        len_x: u64,
    },
    /// `AtomUnmap2D`.
    Unmap2d {
        /// Block base.
        base: u64,
        /// Block width in bytes.
        size_x: u64,
        /// Block height in rows.
        size_y: u64,
        /// Row pitch in bytes.
        len_x: u64,
    },
    /// `AtomActivate`.
    Activate(AtomId),
    /// `AtomDeactivate`.
    Deactivate(AtomId),
}

/// A sink that records the *ordered* event log of a workload so it can be
/// replayed later (see [`TraceEvent`]).
///
/// # Examples
///
/// ```
/// use workloads::sink::{LogSink, TraceSink, TraceEvent};
///
/// let mut log = LogSink::new();
/// log.compute(3);
/// log.load(0x40);
/// assert_eq!(log.events().len(), 2);
/// assert!(matches!(log.events()[1], TraceEvent::Op(_)));
/// ```
#[derive(Debug, Default)]
pub struct LogSink {
    events: Vec<TraceEvent>,
    atoms: Vec<String>,
    next_va: u64,
}

impl LogSink {
    /// Creates an empty log.
    pub fn new() -> Self {
        LogSink {
            next_va: 1 << 20,
            ..Default::default()
        }
    }

    /// The recorded events in program order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// The recorded CPU ops in program order (hints skipped).
    pub fn ops(&self) -> impl Iterator<Item = Op> + '_ {
        self.events.iter().filter_map(|e| match e {
            TraceEvent::Op(op) => Some(*op),
            _ => None,
        })
    }

    /// Consumes the sink, returning the event log.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }
}

impl TraceSink for LogSink {
    fn op(&mut self, op: Op) {
        self.events.push(TraceEvent::Op(op));
    }

    fn alloc(&mut self, bytes: u64, atom: Option<AtomId>) -> u64 {
        let base = self.next_va;
        self.next_va += bytes.next_multiple_of(4096).max(4096);
        self.events.push(TraceEvent::Alloc { bytes, atom, base });
        base
    }

    fn create_atom(&mut self, label: &str, attrs: AtomAttributes) -> AtomId {
        if let Some(i) = self.atoms.iter().position(|l| l == label) {
            return AtomId::new(i as u8);
        }
        let id = AtomId::new(self.atoms.len() as u8);
        self.atoms.push(label.to_owned());
        self.events.push(TraceEvent::Create {
            label: label.to_owned(),
            attrs,
        });
        id
    }

    fn create_atom_shared(&mut self, key: u64, label: &str, attrs: AtomAttributes) -> AtomId {
        if let Some(i) = self.atoms.iter().position(|l| l == label) {
            return AtomId::new(i as u8);
        }
        let id = AtomId::new(self.atoms.len() as u8);
        self.atoms.push(label.to_owned());
        self.events.push(TraceEvent::CreateShared {
            key,
            label: label.to_owned(),
            attrs,
        });
        id
    }

    fn alloc_shared(&mut self, key: u64, bytes: u64, atom: Option<AtomId>) -> u64 {
        let base = self.next_va;
        self.next_va += bytes.next_multiple_of(4096).max(4096);
        self.events.push(TraceEvent::AllocShared {
            key,
            bytes,
            atom,
            base,
        });
        base
    }

    fn map(&mut self, atom: AtomId, start: u64, len: u64) {
        self.events.push(TraceEvent::Map { atom, start, len });
    }

    fn unmap(&mut self, start: u64, len: u64) {
        self.events.push(TraceEvent::Unmap { start, len });
    }

    fn map_2d(&mut self, atom: AtomId, base: u64, size_x: u64, size_y: u64, len_x: u64) {
        self.events.push(TraceEvent::Map2d {
            atom,
            base,
            size_x,
            size_y,
            len_x,
        });
    }

    fn unmap_2d(&mut self, base: u64, size_x: u64, size_y: u64, len_x: u64) {
        self.events.push(TraceEvent::Unmap2d {
            base,
            size_x,
            size_y,
            len_x,
        });
    }

    fn activate(&mut self, atom: AtomId) {
        self.events.push(TraceEvent::Activate(atom));
    }

    fn deactivate(&mut self, atom: AtomId) {
        self.events.push(TraceEvent::Deactivate(atom));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_sink_records_ops_and_hints_in_order() {
        let mut s = LogSink::new();
        let a = s.create_atom("x", AtomAttributes::default());
        let base = s.alloc(100, Some(a));
        s.map(a, base, 100);
        s.activate(a);
        s.load(base);
        s.store(base + 8);
        s.compute(3);
        s.deactivate(a);
        let ops: Vec<Op> = s.ops().collect();
        assert_eq!(ops, [Op::load(base), Op::store(base + 8), Op::Compute(3)]);
        assert_eq!(ops.iter().map(Op::instructions).sum::<u64>(), 5);
        assert_eq!(s.events().len(), 8);
        assert!(matches!(s.events()[0], TraceEvent::Create { .. }));
        assert!(matches!(s.events()[7], TraceEvent::Deactivate(x) if x == a));
    }

    #[test]
    fn create_atom_dedups_by_label() {
        let mut s = LogSink::new();
        let a = s.create_atom("same", AtomAttributes::default());
        let b = s.create_atom("same", AtomAttributes::default());
        let c = s.create_atom("other", AtomAttributes::default());
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(s.events().len(), 2);
    }

    #[test]
    fn batch_emitter_preserves_program_order_across_hints() {
        // Record the same program directly and through a BatchEmitter; the
        // fully-ordered logs must be identical (hints land between the
        // right ops even when the buffer is mid-fill).
        let program = |s: &mut dyn TraceSink| {
            let a = s.create_atom("t", AtomAttributes::default());
            let base = s.alloc(4096, Some(a));
            for i in 0..300u64 {
                s.load(base + i * 64);
            }
            s.map(a, base, 4096);
            s.activate(a);
            for i in 0..300u64 {
                s.store(base + i * 64);
                s.compute(1);
            }
            s.deactivate(a);
        };
        let mut direct = LogSink::new();
        program(&mut direct);
        let mut batched = LogSink::new();
        {
            let mut em = BatchEmitter::new(&mut batched);
            program(&mut em);
        }
        assert_eq!(direct.events(), batched.events());
    }

    #[test]
    fn batch_emitter_flushes_at_capacity() {
        let mut inner = LogSink::new();
        let mut em = BatchEmitter::new(&mut inner);
        for i in 0..cpu_sim::batch::BATCH_CAPACITY as u64 {
            em.load(i * 64);
        }
        // A full buffer flushed itself without waiting for drop.
        assert!(em.batch.is_empty());
        assert_eq!(em.sink.ops().count(), cpu_sim::batch::BATCH_CAPACITY);
    }

    #[test]
    fn non_multiple_of_capacity_emits_every_op() {
        // 700 is not a multiple of BATCH_CAPACITY (= 256): the trailing
        // partial batch of 188 ops must reach the sink via the explicit
        // flush, in order and with the right kinds.
        assert_ne!(700 % cpu_sim::batch::BATCH_CAPACITY, 0);
        let mut inner = LogSink::new();
        {
            let mut em = BatchEmitter::new(&mut inner);
            for i in 0..700u64 {
                if i % 2 == 0 {
                    em.load(i * 64);
                } else {
                    em.store(i * 64);
                }
            }
            em.flush();
        }
        assert_eq!(inner.ops().count(), 700);
        for (i, op) in inner.ops().enumerate() {
            match op {
                Op::Load { addr, .. } => assert_eq!(addr, i as u64 * 64),
                Op::Store { addr, .. } => assert_eq!(addr, i as u64 * 64),
                other => panic!("unexpected op {other:?}"),
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "unflushed ops")]
    fn dropping_with_buffered_ops_asserts_in_debug() {
        let mut inner = LogSink::new();
        let mut em = BatchEmitter::new(&mut inner);
        em.load(0x40); // one buffered op, never flushed
        drop(em);
    }

    #[test]
    fn allocs_are_page_aligned_and_disjoint() {
        let mut s = LogSink::new();
        let a = s.alloc(1, None);
        let b = s.alloc(10000, None);
        let c = s.alloc(1, None);
        assert_eq!(a % 4096, 0);
        assert!(b >= a + 4096);
        assert!(c >= b + 12288);
    }
}
