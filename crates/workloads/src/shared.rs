//! Shared-data co-run workloads for the coherent multicore experiments.
//!
//! Unlike [`crate::hog`] interference (disjoint address spaces), these
//! generators place selected atoms in a **shared segment**: every core that
//! calls [`crate::sink::TraceSink::create_atom_shared`] with the same key
//! sees the same atom and (under `run_corun`) the same physical frames, so
//! their accesses exercise the MESI bus rather than just shared-L3
//! capacity.
//!
//! Three communication patterns, each one core's half of a co-run:
//!
//! | generator              | sharing pattern | coherence behaviour          |
//! |------------------------|-----------------|------------------------------|
//! | [`producer_consumer`]  | migratory       | M lines ping-pong core→core  |
//! | [`read_mostly_reader`] | read-mostly     | lines settle in S everywhere |
//! | [`lock_counter`]       | contended       | BusUpgr/BusRdX storms        |
//!
//! Every shared atom honestly declares [`DataProps::SHARED`] plus its
//! read/write characteristic, which is exactly the information the
//! coherence-aware placement policy consumes: a read-*write* shared atom is
//! migratory (pinning it in L3 wastes budget on lines that live in private
//! caches), while a read-*only* shared table pins profitably.

use crate::sink::TraceSink;
use xmem_core::attrs::{AccessPattern, AtomAttributes, DataProps, DataType, Reuse, RwChar};

/// Shared-segment key of the producer/consumer buffer.
pub const KEY_PC_BUFFER: u64 = 0x5C_0001;
/// Shared-segment key of the read-mostly table.
pub const KEY_TABLE: u64 = 0x5C_0002;
/// Shared-segment key of the contended counter line.
pub const KEY_LOCK: u64 = 0x5C_0003;

/// Which half of the [`producer_consumer`] pair a core plays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PcRole {
    /// Writes every line of the buffer, pass after pass.
    Producer,
    /// Reads every line of the buffer, pass after pass.
    Consumer,
}

/// One core's half of a producer/consumer pair over a shared `bytes`-sized
/// buffer: `passes` full sweeps, `compute` ALU ops between line touches.
///
/// The buffer atom is migratory — `SHARED` + `READ_WRITE` with declared
/// reuse `reuse` — so under MESI its lines bounce M→S→I between the two
/// private domains, and coherence-aware placement exempts it from L3
/// pinning.
pub fn producer_consumer<S: TraceSink + ?Sized>(
    sink: &mut S,
    role: PcRole,
    bytes: u64,
    passes: u32,
    compute: u32,
    reuse: Reuse,
) {
    let atom = sink.create_atom_shared(
        KEY_PC_BUFFER,
        "pc_buffer",
        AtomAttributes::builder()
            .data_type(DataType::Float64)
            .props(DataProps::SHARED)
            .rw(RwChar::ReadWrite)
            .access_pattern(AccessPattern::sequential(64))
            .reuse(reuse)
            .build(),
    );
    let base = sink.alloc_shared(KEY_PC_BUFFER, bytes, Some(atom));
    sink.map(atom, base, bytes);
    sink.activate(atom);
    let lines = (bytes / 64).max(1);
    for _ in 0..passes {
        for i in 0..lines {
            match role {
                PcRole::Producer => sink.store(base + i * 64),
                // Consumption is dependent: each read feeds the next.
                PcRole::Consumer => sink.load_dep(base + i * 64),
            }
            sink.compute(compute);
        }
    }
    sink.deactivate(atom);
    sink.unmap(base, bytes);
}

/// One reader over a shared read-only table of `table_bytes`, doing
/// `accesses` dependent lookups (LCG-scattered, seeded by `core` so
/// different cores walk different index streams) with a private scratch
/// write every 16th access.
///
/// The table is `SHARED` + `READ_ONLY` with high declared reuse: under
/// MESI its lines settle in S in every domain (no invalidation traffic),
/// and it remains a profitable L3 pin even under coherence-aware placement.
pub fn read_mostly_reader<S: TraceSink + ?Sized>(
    sink: &mut S,
    core: u64,
    table_bytes: u64,
    accesses: u64,
    compute: u32,
    reuse: Reuse,
) {
    let table = sink.create_atom_shared(
        KEY_TABLE,
        "shared_table",
        AtomAttributes::builder()
            .data_type(DataType::Float64)
            .props(DataProps::SHARED)
            .rw(RwChar::ReadOnly)
            .access_pattern(AccessPattern::NonDet)
            .reuse(reuse)
            .build(),
    );
    let table_base = sink.alloc_shared(KEY_TABLE, table_bytes, Some(table));
    sink.map(table, table_base, table_bytes);
    sink.activate(table);

    let scratch_bytes = 4096u64;
    let scratch = sink.create_atom(
        "reader_scratch",
        AtomAttributes::builder()
            .rw(RwChar::ReadWrite)
            .reuse(Reuse(64))
            .build(),
    );
    let scratch_base = sink.alloc(scratch_bytes, Some(scratch));
    sink.map(scratch, scratch_base, scratch_bytes);
    sink.activate(scratch);

    let lines = (table_bytes / 64).max(1);
    let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ (core.wrapping_mul(0xA076_1D64_78BD_642F));
    for i in 0..accesses {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        sink.load_dep(table_base + ((state >> 24) % lines) * 64);
        if i % 16 == 15 {
            sink.store(scratch_base + ((state >> 40) % (scratch_bytes / 64)) * 64);
        }
        sink.compute(compute);
    }

    sink.deactivate(scratch);
    sink.unmap(scratch_base, scratch_bytes);
    sink.deactivate(table);
    sink.unmap(table_base, table_bytes);
}

/// One core's share of a lock-style contended counter: `rounds` iterations
/// of read-modify-write on a single shared line, with `work` ALU ops of
/// private work (over a small private buffer) between acquisitions.
///
/// The counter atom is `SHARED` + `READ_WRITE` over a single line, the
/// worst case for a snooping bus: every write by one core invalidates the
/// other's copy (BusRdX/BusUpgr), so bus transactions scale with `rounds`.
pub fn lock_counter<S: TraceSink + ?Sized>(sink: &mut S, rounds: u64, work: u32) {
    let counter_bytes = 64u64;
    let counter = sink.create_atom_shared(
        KEY_LOCK,
        "lock_counter",
        AtomAttributes::builder()
            .props(DataProps::SHARED)
            .rw(RwChar::ReadWrite)
            .reuse(Reuse(255))
            .build(),
    );
    let counter_base = sink.alloc_shared(KEY_LOCK, counter_bytes, Some(counter));
    sink.map(counter, counter_base, counter_bytes);
    sink.activate(counter);

    let priv_bytes = 2048u64;
    let private = sink.create_atom(
        "lock_private",
        AtomAttributes::builder()
            .access_pattern(AccessPattern::sequential(64))
            .reuse(Reuse(32))
            .build(),
    );
    let priv_base = sink.alloc(priv_bytes, Some(private));
    sink.map(private, priv_base, priv_bytes);
    sink.activate(private);

    let priv_lines = priv_bytes / 64;
    for r in 0..rounds {
        sink.load_dep(counter_base); // acquire: read the counter line
        sink.store(counter_base); // update: forces M locally, I remotely
        sink.load(priv_base + (r % priv_lines) * 64);
        sink.compute(work);
    }

    sink.deactivate(private);
    sink.unmap(priv_base, priv_bytes);
    sink.deactivate(counter);
    sink.unmap(counter_base, counter_bytes);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{LogSink, TraceEvent};

    #[test]
    fn producer_and_consumer_emit_mirrored_traffic() {
        let memory_ops = |role| {
            let mut log = LogSink::new();
            producer_consumer(&mut log, role, 4096, 2, 1, Reuse(200));
            log.ops().filter(|o| o.is_memory()).count()
        };
        assert_eq!(memory_ops(PcRole::Producer), memory_ops(PcRole::Consumer));
        assert_eq!(memory_ops(PcRole::Producer), 2 * (4096 / 64));
    }

    #[test]
    fn shared_atoms_carry_shared_prop_and_rw_char() {
        let mut log = LogSink::new();
        producer_consumer(&mut log, PcRole::Producer, 4096, 1, 1, Reuse(200));
        read_mostly_reader(&mut log, 0, 4096, 32, 1, Reuse(200));
        let events = log.into_events();
        let shared: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::CreateShared { label, attrs, .. } => Some((label.clone(), attrs)),
                _ => None,
            })
            .collect();
        assert_eq!(shared.len(), 2);
        for (_, attrs) in &shared {
            assert!(attrs.props().contains(DataProps::SHARED));
        }
        assert_eq!(shared[0].1.rw(), RwChar::ReadWrite, "buffer is migratory");
        assert_eq!(shared[1].1.rw(), RwChar::ReadOnly, "table is read-mostly");
    }

    #[test]
    fn readers_on_different_cores_walk_different_streams() {
        let run = |core| {
            let mut s = LogSink::new();
            read_mostly_reader(&mut s, core, 8192, 100, 1, Reuse(200));
            s.ops().collect::<Vec<_>>()
        };
        assert_eq!(run(0), run(0), "same core is deterministic");
        assert_ne!(run(0), run(1), "different cores diverge");
    }

    #[test]
    fn lock_counter_hammers_one_line() {
        let mut s = LogSink::new();
        lock_counter(&mut s, 50, 2);
        let events = s.into_events();
        let base = events
            .iter()
            .find_map(|e| match e {
                TraceEvent::AllocShared { base, .. } => Some(*base),
                _ => None,
            })
            .expect("counter allocation");
        let on_counter = events
            .iter()
            .filter(|e| {
                matches!(e, TraceEvent::Op(cpu_sim::trace::Op::Store { addr }) if *addr == base)
            })
            .count();
        assert_eq!(on_counter, 50, "one store per round on the shared line");
    }
}
