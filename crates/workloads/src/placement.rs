//! The 27 memory-intensive workloads of use case 2 (§6.3 of the paper).
//!
//! The paper evaluates OS-based DRAM placement on 27 workloads from SPEC
//! CPU2006, Rodinia, and Parboil (L3 MPKI > 1). Those suites are external
//! and proprietary; per the substitution rule we model each workload as a
//! *mix of data structures with the access semantics that characterize the
//! original* — streaming arrays (high row-buffer locality), strided walks,
//! random access, and pointer chasing — with relative sizes, access shares,
//! and intensities chosen to match the published memory behaviour of each
//! benchmark (e.g. `libquantum` ≈ one huge sequential stream; `mcf` ≈
//! pointer-chasing dominated). Fig 7/8's *shape* — who gains from
//! structure-aware placement and who cannot — depends exactly on these
//! semantics.
//!
//! Each data structure is expressed as one atom carrying its access pattern
//! and intensity; the OS placement algorithm (§6.2) consumes those
//! attributes.

use crate::sink::TraceSink;
use xmem_core::attrs::{AccessIntensity, AccessPattern, AtomAttributes, DataType, RwChar};

/// How a data structure is accessed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Sequential line-granular streaming (high RBL when isolated).
    Stream,
    /// Strided walk with the given byte stride (> one line).
    Strided(i64),
    /// Uniformly random line accesses (no RBL, wants bank parallelism).
    Random,
    /// Serially dependent random accesses (pointer chasing; latency-bound).
    PointerChase,
}

impl AccessKind {
    fn pattern(self) -> AccessPattern {
        match self {
            AccessKind::Stream => AccessPattern::sequential(64),
            AccessKind::Strided(s) => AccessPattern::Regular { stride: s },
            AccessKind::Random => AccessPattern::NonDet,
            AccessKind::PointerChase => AccessPattern::NonDet,
        }
    }
}

/// One data structure in a workload mix.
#[derive(Debug, Clone, Copy)]
pub struct StructSpec {
    /// Name (for the atom label).
    pub name: &'static str,
    /// Footprint in KiB.
    pub kib: u64,
    /// Access behaviour.
    pub kind: AccessKind,
    /// Relative share of accesses (weights across the mix).
    pub weight: u32,
    /// Fraction of accesses that are writes, in percent.
    pub write_pct: u32,
}

/// A complete placement workload.
#[derive(Debug, Clone)]
pub struct PlacementWorkload {
    /// The benchmark this mix models.
    pub name: &'static str,
    /// The data structures.
    pub structs: Vec<StructSpec>,
    /// Compute instructions between consecutive memory accesses (sets the
    /// memory intensity — all 27 mixes are memory bound, MPKI > 1).
    pub compute_per_access: u32,
    /// Total memory accesses to generate.
    pub accesses: u64,
}

const S: fn(&'static str, u64, AccessKind, u32, u32) -> StructSpec =
    |name, kib, kind, weight, write_pct| StructSpec {
        name,
        kib,
        kind,
        weight,
        write_pct,
    };

impl PlacementWorkload {
    /// The 27 workload mixes, modeled on the paper's SPEC/Rodinia/Parboil
    /// selection. Sizes are scaled to the simulated machine (footprints of
    /// a few MB against a 1 MB L3) preserving each benchmark's character.
    pub fn all() -> Vec<PlacementWorkload> {
        use AccessKind::*;
        let w = |name, structs: Vec<StructSpec>, compute, accesses| PlacementWorkload {
            name,
            structs,
            compute_per_access: compute,
            accesses,
        };
        vec![
            // ---- SPEC CPU2006-like ----
            // libquantum: one dominant sequential sweep over a huge vector.
            w(
                "libquantum",
                vec![
                    S("reg", 8192, Stream, 15, 25),
                    S("work", 512, Stream, 1, 10),
                ],
                105,
                400_000,
            ),
            // lbm: two large grids streamed with writes.
            w(
                "lbm",
                vec![
                    S("src", 6144, Stream, 8, 0),
                    S("dst", 6144, Stream, 8, 100),
                    S("obst", 2048, Strided(4096), 3, 0),
                ],
                87,
                400_000,
            ),
            // milc: large strided lattice + streaming.
            w(
                "milc",
                vec![
                    S("lattice", 8192, Strided(4096), 8, 30),
                    S("gauge", 4096, Stream, 6, 0),
                ],
                122,
                350_000,
            ),
            // mcf: pointer chasing over arcs/nodes.
            w(
                "mcf",
                vec![
                    S("arcs", 6144, PointerChase, 10, 10),
                    S("nodes", 2048, Random, 5, 20),
                ],
                70,
                250_000,
            ),
            // soplex: sparse matrix (random) + dense vectors (stream).
            w(
                "soplex",
                vec![
                    S("cols", 4096, Random, 6, 10),
                    S("vec", 2048, Stream, 7, 30),
                    S("rows", 3072, Strided(2048), 4, 10),
                ],
                105,
                350_000,
            ),
            // gcc: mixed pools, moderately random.
            w(
                "gcc",
                vec![
                    S("ir", 3072, Random, 6, 30),
                    S("strings", 1024, Stream, 3, 10),
                    S("tables", 2048, Strided(2048), 3, 10),
                ],
                140,
                300_000,
            ),
            // bwaves: big stencil-ish streams.
            w(
                "bwaves",
                vec![
                    S("q", 6144, Stream, 8, 40),
                    S("rhs", 6144, Stream, 8, 40),
                    S("blk", 3072, Strided(8192), 4, 10),
                ],
                105,
                400_000,
            ),
            // GemsFDTD: multiple field arrays streamed together.
            w(
                "gems",
                vec![
                    S("ex", 4096, Stream, 5, 30),
                    S("ey", 4096, Stream, 5, 30),
                    S("ez", 4096, Stream, 5, 30),
                    S("bc", 2048, Strided(4096), 4, 20),
                ],
                105,
                380_000,
            ),
            // omnetpp: event heap + message pools, random.
            w(
                "omnetpp",
                vec![
                    S("heap", 3072, Random, 8, 30),
                    S("msgs", 3072, PointerChase, 5, 20),
                    S("fes", 2048, Stream, 4, 10),
                ],
                105,
                280_000,
            ),
            // leslie3d: many medium streams.
            w(
                "leslie3d",
                vec![
                    S("u", 3072, Stream, 5, 30),
                    S("v", 3072, Stream, 5, 30),
                    S("w", 3072, Stream, 5, 30),
                    S("p", 3072, Strided(8192), 3, 10),
                ],
                105,
                380_000,
            ),
            // sphinx3: acoustic model scans (stream) + hash lookups.
            w(
                "sphinx3",
                vec![
                    S("gauden", 6144, Stream, 9, 0),
                    S("dict", 1536, Random, 4, 5),
                ],
                122,
                340_000,
            ),
            // xalancbmk: DOM pointer chasing.
            w(
                "xalancbmk",
                vec![
                    S("dom", 5120, PointerChase, 10, 15),
                    S("text", 2048, Random, 4, 10),
                ],
                87,
                250_000,
            ),
            // cactusADM: 3D grid sweeps, large strides at plane boundaries.
            w(
                "cactus",
                vec![
                    S("grid", 8192, Strided(2048), 10, 40),
                    S("coeff", 1024, Stream, 3, 0),
                ],
                122,
                360_000,
            ),
            // zeusmp: multiple grid streams.
            w(
                "zeusmp",
                vec![
                    S("d", 4096, Stream, 6, 35),
                    S("e", 4096, Stream, 6, 35),
                    S("v3", 4096, Strided(4096), 4, 20),
                ],
                105,
                380_000,
            ),
            // astar: graph random walks + open list.
            w(
                "astar",
                vec![
                    S("grid", 4096, Random, 8, 15),
                    S("open", 1024, Random, 4, 40),
                    S("cost", 3072, Stream, 5, 30),
                ],
                105,
                280_000,
            ),
            // gobmk: board evaluations, small working random pools.
            w(
                "gobmk",
                vec![
                    S("board", 2048, Random, 6, 25),
                    S("cache", 2048, Random, 4, 25),
                    S("patterns", 3072, Stream, 5, 0),
                ],
                140,
                300_000,
            ),
            // ---- Rodinia-like ----
            // kmeans: features streamed repeatedly + centroids (hot, small).
            w(
                "kmeans",
                vec![
                    S("features", 8192, Stream, 12, 0),
                    S("member", 2048, Strided(2048), 4, 60),
                    S("centroids", 256, Random, 2, 50),
                ],
                105,
                400_000,
            ),
            // bfs (Rodinia): frontier random + edge lists.
            w(
                "bfsRod",
                vec![
                    S("edges", 6144, PointerChase, 9, 0),
                    S("visited", 2048, Random, 5, 50),
                ],
                70,
                250_000,
            ),
            // hotspot: two grids streamed (power, temp).
            w(
                "hotspot",
                vec![
                    S("temp", 4096, Stream, 7, 50),
                    S("power", 4096, Stream, 7, 0),
                    S("border", 2048, Strided(8192), 3, 10),
                ],
                105,
                380_000,
            ),
            // srad: image streamed with neighbor strides.
            w(
                "srad",
                vec![
                    S("image", 6144, Stream, 9, 40),
                    S("coeff", 3072, Strided(4096), 5, 30),
                ],
                105,
                360_000,
            ),
            // streamcluster (sc): distance computations, random points.
            w(
                "sc",
                vec![
                    S("points", 6144, Random, 10, 5),
                    S("centers", 512, Random, 5, 30),
                ],
                87,
                280_000,
            ),
            // pathfinder: row-by-row dynamic programming streams.
            w(
                "pathfinder",
                vec![
                    S("wall", 6144, Stream, 10, 0),
                    S("result", 1024, Stream, 4, 60),
                    S("prev", 2048, Strided(4096), 4, 20),
                ],
                105,
                380_000,
            ),
            // lavaMD: neighbor-box particle access, blocked random.
            w(
                "lavaMD",
                vec![
                    S("particles", 4096, Random, 8, 30),
                    S("boxes", 2048, Strided(8192), 4, 10),
                ],
                122,
                320_000,
            ),
            // ---- Parboil-like ----
            // histo: streamed input + random histogram updates.
            w(
                "histo",
                vec![
                    S("input", 6144, Stream, 9, 0),
                    S("bins", 2048, Random, 6, 80),
                ],
                87,
                330_000,
            ),
            // spmv: row pointers stream, column-index gathers random.
            w(
                "spmv",
                vec![
                    S("vals", 5120, Stream, 7, 0),
                    S("x", 2048, Random, 7, 0),
                    S("rowptr", 2048, Strided(2048), 3, 0),
                    S("y", 1024, Stream, 2, 70),
                ],
                87,
                340_000,
            ),
            // stencil (Parboil): 3D 7-point, two grids.
            w(
                "stencil",
                vec![
                    S("a", 5120, Stream, 8, 0),
                    S("b", 5120, Stream, 8, 70),
                    S("halo", 2048, Strided(8192), 3, 10),
                ],
                105,
                380_000,
            ),
            // cutcp: lattice random scatter + atom list stream.
            w(
                "cutcp",
                vec![
                    S("lattice", 5120, Random, 8, 60),
                    S("atoms", 2048, Stream, 5, 0),
                    S("bins", 2048, Strided(4096), 4, 10),
                ],
                105,
                320_000,
            ),
        ]
    }

    /// Finds a workload by name.
    pub fn by_name(name: &str) -> Option<PlacementWorkload> {
        Self::all().into_iter().find(|w| w.name == name)
    }

    /// Generates the workload trace: allocate + express every structure,
    /// then issue the interleaved access stream.
    pub fn generate<S: TraceSink + ?Sized>(&self, sink: &mut S) {
        // Intensity ranking: proportional to access weight (the paper's
        // AccessIntensity is a relative ranking between atoms, §3.3).
        let max_weight = self.structs.iter().map(|s| s.weight).max().unwrap_or(1);
        let mut bases = Vec::with_capacity(self.structs.len());
        for spec in &self.structs {
            let attrs = AtomAttributes::builder()
                .data_type(DataType::Float64)
                .access_pattern(spec.kind.pattern())
                .rw(if spec.write_pct == 0 {
                    RwChar::ReadOnly
                } else {
                    RwChar::ReadWrite
                })
                .intensity(AccessIntensity(
                    (spec.weight * 255 / max_weight).min(255) as u8
                ))
                .build();
            let atom = sink.create_atom(spec.name, attrs);
            let bytes = spec.kib << 10;
            let base = sink.alloc(bytes, Some(atom));
            sink.map(atom, base, bytes);
            sink.activate(atom);
            bases.push(base);
        }

        // Deterministic weighted interleave: turn `pick` of every
        // `total_weight` goes to `owner[pick]`, the structure whose
        // cumulative weight first exceeds `pick`, which spreads each
        // structure's turns evenly.
        let owner: Vec<usize> = self
            .structs
            .iter()
            .enumerate()
            .flat_map(|(i, s)| std::iter::repeat_n(i, s.weight as usize))
            .collect();
        // Stream and strided structures walk a byte offset that advances
        // by `step` (the stride modulo the size) and wraps at the size:
        // `(cursor * stride) % bytes` for the cursor-th access, without
        // the division.
        let step: Vec<u64> = self
            .structs
            .iter()
            .map(|s| match s.kind {
                AccessKind::Stream => 64 % (s.kib << 10),
                AccessKind::Strided(stride) => stride.unsigned_abs().max(64) % (s.kib << 10),
                AccessKind::Random | AccessKind::PointerChase => 0,
            })
            .collect();
        let mut offsets = vec![0u64; self.structs.len()];
        let mut rngs: Vec<u64> = (0..self.structs.len())
            .map(|i| 0x9E3779B97F4A7C15u64 ^ (i as u64) << 32 ^ self.accesses)
            .collect();
        let mut acc = 0u64;
        let mut pick = 0usize;
        while acc < self.accesses {
            pick += 1;
            if pick == owner.len() {
                pick = 0;
            }
            let idx = owner[pick];
            let spec = &self.structs[idx];
            let bytes = spec.kib << 10;
            let base = bases[idx];
            let addr = match spec.kind {
                AccessKind::Stream | AccessKind::Strided(_) => {
                    let offset = &mut offsets[idx];
                    let a = base + *offset;
                    *offset += step[idx];
                    if *offset >= bytes {
                        *offset -= bytes;
                    }
                    a
                }
                AccessKind::Random | AccessKind::PointerChase => {
                    let r = splitmix64(&mut rngs[idx]);
                    base + (r % (bytes / 64)) * 64
                }
            };
            let is_write = (splitmix64(&mut rngs[idx]) % 100) < spec.write_pct as u64;
            if is_write {
                sink.store(addr);
            } else if spec.kind == AccessKind::PointerChase {
                sink.load_dep(addr);
            } else {
                sink.load(addr);
            }
            sink.compute(self.compute_per_access);
            acc += 1;
        }

        for (spec, base) in self.structs.iter().zip(&bases) {
            let atom = sink.create_atom(spec.name, AtomAttributes::default());
            sink.deactivate(atom);
            sink.unmap(*base, spec.kib << 10);
        }
    }

    /// Total footprint of the mix in bytes.
    pub fn footprint_bytes(&self) -> u64 {
        self.structs.iter().map(|s| s.kib << 10).sum()
    }
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{LogSink, TraceEvent};
    use cpu_sim::trace::Op;

    fn memory_ops(log: &LogSink) -> usize {
        log.ops().filter(Op::is_memory).count()
    }

    /// The access loop as it was written with a division per access (a
    /// modulo for the turn, a cumulative-weight walk for the structure and
    /// `(cursor * stride) % bytes` for the address): the reference the
    /// table-driven loop must reproduce event for event.
    fn generate_reference(w: &PlacementWorkload, sink: &mut LogSink) {
        let max_weight = w.structs.iter().map(|s| s.weight).max().unwrap_or(1);
        let mut bases = Vec::with_capacity(w.structs.len());
        for spec in &w.structs {
            let attrs = AtomAttributes::builder()
                .data_type(DataType::Float64)
                .access_pattern(spec.kind.pattern())
                .rw(if spec.write_pct == 0 {
                    RwChar::ReadOnly
                } else {
                    RwChar::ReadWrite
                })
                .intensity(AccessIntensity(
                    (spec.weight * 255 / max_weight).min(255) as u8
                ))
                .build();
            let atom = sink.create_atom(spec.name, attrs);
            let bytes = spec.kib << 10;
            let base = sink.alloc(bytes, Some(atom));
            sink.map(atom, base, bytes);
            sink.activate(atom);
            bases.push(base);
        }
        let total_weight: u32 = w.structs.iter().map(|s| s.weight).sum();
        let mut cursors = vec![0u64; w.structs.len()];
        let mut rngs: Vec<u64> = (0..w.structs.len())
            .map(|i| 0x9E3779B97F4A7C15u64 ^ (i as u64) << 32 ^ w.accesses)
            .collect();
        let mut acc = 0u64;
        let mut pick = 0u64;
        while acc < w.accesses {
            pick = (pick + 1) % total_weight as u64;
            let mut cum = 0u32;
            let mut idx = 0usize;
            for (i, s) in w.structs.iter().enumerate() {
                cum += s.weight;
                if (pick as u32) < cum {
                    idx = i;
                    break;
                }
            }
            let spec = &w.structs[idx];
            let bytes = spec.kib << 10;
            let base = bases[idx];
            let cursor = &mut cursors[idx];
            let addr = match spec.kind {
                AccessKind::Stream => {
                    let a = base + (*cursor * 64) % bytes;
                    *cursor += 1;
                    a
                }
                AccessKind::Strided(stride) => {
                    let s = stride.unsigned_abs().max(64);
                    let a = base + (*cursor * s) % bytes;
                    *cursor += 1;
                    a
                }
                AccessKind::Random | AccessKind::PointerChase => {
                    let r = splitmix64(&mut rngs[idx]);
                    base + (r % (bytes / 64)) * 64
                }
            };
            let is_write = (splitmix64(&mut rngs[idx]) % 100) < spec.write_pct as u64;
            if is_write {
                sink.store(addr);
            } else if spec.kind == AccessKind::PointerChase {
                sink.load_dep(addr);
            } else {
                sink.load(addr);
            }
            sink.compute(w.compute_per_access);
            acc += 1;
        }
        for (spec, base) in w.structs.iter().zip(&bases) {
            let atom = sink.create_atom(spec.name, AtomAttributes::default());
            sink.deactivate(atom);
            sink.unmap(*base, spec.kib << 10);
        }
    }

    fn assert_matches_reference(w: &PlacementWorkload) {
        let mut got = LogSink::new();
        w.generate(&mut got);
        let mut want = LogSink::new();
        generate_reference(w, &mut want);
        assert!(got.events() == want.events(), "{}: trace differs", w.name);
    }

    #[test]
    fn generator_matches_the_reference_loop_on_every_mix() {
        for mut w in PlacementWorkload::all() {
            w.accesses = 20_011;
            assert_matches_reference(&w);
        }
    }

    #[test]
    fn generator_matches_the_reference_loop_at_full_size() {
        // One stream-dominated mix and one with strided structures, at
        // their full access counts: every wrap of every offset is covered.
        for name in ["libquantum", "milc"] {
            let w = PlacementWorkload::by_name(name).expect("a known mix");
            assert_matches_reference(&w);
        }
    }

    #[test]
    fn twenty_seven_workloads() {
        assert_eq!(PlacementWorkload::all().len(), 27);
        let names: std::collections::HashSet<_> =
            PlacementWorkload::all().iter().map(|w| w.name).collect();
        assert_eq!(names.len(), 27, "names must be unique");
    }

    #[test]
    fn by_name_finds_mcf() {
        let w = PlacementWorkload::by_name("mcf").unwrap();
        assert!(w.structs.iter().any(|s| s.kind == AccessKind::PointerChase));
        assert!(PlacementWorkload::by_name("nonexistent").is_none());
    }

    #[test]
    fn generate_produces_requested_accesses() {
        let mut w = PlacementWorkload::by_name("libquantum").unwrap();
        w.accesses = 5000;
        let mut sink = LogSink::new();
        w.generate(&mut sink);
        assert_eq!(memory_ops(&sink), 5000);
    }

    #[test]
    fn every_structure_expressed_as_atom() {
        for mut w in PlacementWorkload::all() {
            w.accesses = 100;
            let mut sink = LogSink::new();
            w.generate(&mut sink);
            let count = |f: fn(&TraceEvent) -> bool| sink.events().iter().filter(|e| f(e)).count();
            let atoms = count(|e| matches!(e, TraceEvent::Create { .. }));
            assert_eq!(atoms, w.structs.len(), "{}", w.name);
            let maps = count(|e| matches!(e, TraceEvent::Map { .. }));
            assert_eq!(maps, w.structs.len(), "{}", w.name);
        }
    }

    #[test]
    fn pointer_chase_emits_dependent_loads() {
        let mut w = PlacementWorkload::by_name("mcf").unwrap();
        w.accesses = 2000;
        let mut sink = LogSink::new();
        w.generate(&mut sink);
        let dep_loads = sink
            .ops()
            .filter(|o| matches!(o, Op::Load { dep: true, .. }))
            .count();
        assert!(dep_loads > 200, "only {dep_loads} dependent loads");
    }

    #[test]
    fn stream_structures_access_sequentially() {
        let mut w = PlacementWorkload::by_name("libquantum").unwrap();
        w.accesses = 1000;
        let mut sink = LogSink::new();
        w.generate(&mut sink);
        // The dominant structure's accesses are line-sequential: collect
        // loads into its range and check deltas.
        let base = sink
            .events()
            .iter()
            .find_map(|e| match e {
                TraceEvent::Alloc { base, .. } => Some(*base),
                _ => None,
            })
            .expect("expected alloc event");
        let addrs: Vec<u64> = sink
            .ops()
            .filter_map(|o| match o {
                Op::Load { addr, .. } | Op::Store { addr }
                    if addr >= base && addr < base + (8192 << 10) =>
                {
                    Some(addr)
                }
                _ => None,
            })
            .collect();
        assert!(addrs.len() > 500);
        let sequential = addrs.windows(2).filter(|w| w[1] == w[0] + 64).count();
        assert!(
            sequential as f64 > addrs.len() as f64 * 0.9,
            "{} of {} sequential",
            sequential,
            addrs.len()
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let mut w = PlacementWorkload::by_name("soplex").unwrap();
        w.accesses = 3000;
        let run = || {
            let mut sink = LogSink::new();
            w.generate(&mut sink);
            sink.into_events()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn write_fractions_roughly_respected() {
        let mut w = PlacementWorkload::by_name("histo").unwrap();
        w.accesses = 20_000;
        let mut sink = LogSink::new();
        w.generate(&mut sink);
        let stores = sink.ops().filter(|o| matches!(o, Op::Store { .. })).count() as f64;
        let total = memory_ops(&sink) as f64;
        // histo: bins (weight 6 of 15) at 80% writes → ~32% overall.
        let frac = stores / total;
        assert!((0.15..0.5).contains(&frac), "store fraction {frac}");
    }

    #[test]
    fn footprints_exceed_l3() {
        // All mixes must be memory-intensive against a 1 MB L3.
        for w in PlacementWorkload::all() {
            assert!(
                w.footprint_bytes() > 2 << 20,
                "{} footprint too small",
                w.name
            );
        }
    }
}
