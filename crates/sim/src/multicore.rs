//! Multi-core co-runs: private L1/L2 per core, shared L3 and DRAM — the
//! Table 3 machine shape, and the setting both use cases presume (§5.1:
//! cache space changes "as a result of co-running applications"; §5.2(2):
//! the pinning algorithm "takes the active atoms in *all the cores*"; §6.2:
//! placement considers "the program semantics of *all co-running
//! applications*").
//!
//! A co-run is the one [`Machine`] built with one core per workload log:
//! each core gets a private L1/L2 domain of the machine's
//! [`Hierarchy`](cache_sim::hierarchy::Hierarchy) over the shared L3 and
//! DRAM, and one AMU, one set of PATs and one OS serve all cores. Each core
//! replays a pre-recorded log ([`workloads::sink::LogSink`]). This module
//! owns only what a co-run adds to a run: merging every log's atoms into
//! one space, renaming each core's atoms and addresses into it, the
//! reference counts of shared hints, and the scheduler that steps the
//! machine's cores in simulated-time order, so accesses from different
//! cores interleave at the shared L3 and memory controller in timestamp
//! order.
//!
//! # Scheduling
//!
//! The earliest live core by `(now, core index)` runs — ties go to the
//! lower index — and keeps running, through its free hint events and its
//! ops, until another live core's key is strictly smaller. While one core
//! runs no other core's key can change, so the driver scans the cores once
//! per switch rather than once per op, and the interleaving is exactly the
//! one that re-picking the earliest core after every op would produce.
//!
//! # Address translation
//!
//! Each core's recorded VAs map to the machine's through that core's
//! [`VaRanges`] (recorded base → actual base, one range per replayed
//! `Alloc`), and then through the machine's translate cache and page table
//! into the core's domain. A recorded VA outside every range panics with
//! the core and VA: a malformed log must not alias another core's frames.
//!
//! # Renaming and shared segments
//!
//! Atom IDs and virtual addresses from different workloads are renamed
//! into one shared space (one AMU serves the machine, as in the paper).
//! By default the renaming is *disjoint*: every `Create`/`Alloc` in every
//! log gets its own global atom and physical allocation, so co-runners
//! never touch each other's data. Workloads opt into sharing explicitly
//! through [`workloads::sink::TraceSink::create_atom_shared`] and
//! [`workloads::sink::TraceSink::alloc_shared`]: events carrying the same
//! `key` resolve to *one* global atom / one physical segment across all
//! cores (the first replayed event creates it, later ones alias it, and
//! their XMem map/activate hints are reference-counted so the shared atom
//! is mapped once and stays active while any core uses it). Shared atoms
//! must use linear (1-D) maps.
//!
//! # Coherence
//!
//! Under [`CoherenceMode::None`] (the default) the hierarchy has no bus
//! and the private domains never observe each other's writes — only
//! correct for disjoint data. Shared-data scenarios require
//! [`CoherenceMode::Mesi`], which gives the hierarchy a snooping bus: every
//! access runs the MESI engine ([`cache_sim::coherence::mesi_access`])
//! before falling through to the shared L3/DRAM; coherence writebacks and
//! invalidations surface in [`CorunReport::bus`] and the per-cache snoop
//! counters.

use crate::config::{CoherenceMode, MultiCoreConfig};
use crate::machine::Machine;
use cache_sim::cache::CacheStats;
use cache_sim::coherence::BusStats;
use cache_sim::prefetch::PrefetchStats;
use cpu_sim::core::{Core, CoreStats};
use cpu_sim::trace::Op;
use dram_sim::DramStats;
use std::collections::{BTreeMap, BTreeSet};
use workloads::sink::{TraceEvent, TraceSink};
use workloads::trace_file::VaRanges;
use xmem_core::alb::AlbStats;
use xmem_core::atom::AtomId;
use xmem_core::attrs::{DataProps, RwChar};
use xmem_core::xmemlib::{CallSite, XMemLib};

/// Result of a co-run: per-core core statistics plus the shared components.
#[derive(Debug, Clone)]
pub struct CorunReport {
    /// Per-core execution statistics, in core order.
    pub cores: Vec<CoreStats>,
    /// Per-core L1 statistics (private caches; includes snoop counters
    /// under MESI).
    pub l1s: Vec<CacheStats>,
    /// Per-core L2 statistics (private caches).
    pub l2s: Vec<CacheStats>,
    /// The shared L3.
    pub l3: CacheStats,
    /// The shared memory controller/DRAM.
    pub dram: DramStats,
    /// The shared AMU's lookaside buffer.
    pub alb: AlbStats,
    /// Snooping-bus traffic (all zero under [`CoherenceMode::None`]).
    pub bus: BusStats,
    /// Per-core stride-prefetcher statistics (`None` when disabled).
    pub stride_prefetch: Vec<Option<PrefetchStats>>,
    /// XMem-guided prefetch statistics (one engine at the shared L3).
    pub xmem_prefetch: PrefetchStats,
}

impl CorunReport {
    /// Cycles of core `i` (its private finish time).
    pub fn cycles(&self, core: usize) -> u64 {
        self.cores[core].cycles
    }
}

#[cold]
fn unallocated(core: usize, va: u64) -> ! {
    panic!("core {core}: unallocated VA {va:#x}")
}

/// Translates a recorded VA through `core`'s ranges. Panics, naming the
/// core, when no range holds `va`.
#[inline]
fn translate_va(ranges: &VaRanges, core: usize, va: u64) -> u64 {
    ranges.lookup(va).unwrap_or_else(|| unallocated(core, va))
}

/// Counts one more user of `key`; `true` for the first.
fn acquire<K: Ord>(rc: &mut BTreeMap<K, u32>, key: K) -> bool {
    let n = rc.entry(key).or_insert(0);
    *n += 1;
    *n == 1
}

/// Drops one user of `key` if it is counted; `true` unless users remain.
fn release<K: Ord>(rc: &mut BTreeMap<K, u32>, key: &K) -> bool {
    match rc.get_mut(key) {
        Some(n) => {
            *n -= 1;
            *n == 0
        }
        None => true,
    }
}

/// Runs one pre-recorded workload log per core on the shared machine.
///
/// Cores advance in simulated-time order (the earliest core runs until
/// another is strictly earlier; see the module docs), so shared-resource
/// contention emerges naturally. Returns per-core and shared statistics.
///
/// # Panics
///
/// Panics if `logs.len() != config.cores`, if the combined workloads create
/// more than 255 atoms, if physical memory is exhausted, or if a log
/// touches a VA outside every range it allocated.
pub fn run_corun(config: &MultiCoreConfig, logs: &[Vec<TraceEvent>]) -> CorunReport {
    assert_eq!(logs.len(), config.cores, "one workload log per core");

    // ── pass 1: merge every core's atoms into one shared ID space ───────
    // Private `Create`s get a fresh global atom each; `CreateShared`s with
    // the same key resolve to one global atom for all cores. `atom_maps`
    // records each core's (local creation index → global id) renaming.
    let mut lib = XMemLib::new();
    let mut atom_maps: Vec<BTreeMap<u8, AtomId>> = vec![BTreeMap::new(); config.cores];
    let mut shared_atoms: BTreeMap<u64, AtomId> = BTreeMap::new();
    let mut shared_ids: BTreeSet<AtomId> = BTreeSet::new();
    let coherence_aware = config.coherence == CoherenceMode::Mesi && config.coherence_aware_pinning;
    let mut pin_exempt: BTreeSet<AtomId> = BTreeSet::new();
    for (core, log) in logs.iter().enumerate() {
        let mut count = 0u8;
        for ev in log {
            // A new shared atom also carries its key and attributes.
            let (id, new_shared) = match ev {
                TraceEvent::Create { label, attrs } => (
                    lib.create_atom(
                        CallSite {
                            file: "<corun>",
                            line: (core as u32) << 16 | count as u32,
                        },
                        format!("c{core}:{label}"),
                        attrs.clone(),
                    ),
                    None,
                ),
                TraceEvent::CreateShared { key, label, attrs } => match shared_atoms.get(key) {
                    Some(&id) => (Ok(id), None),
                    None => (
                        lib.create_atom(
                            CallSite {
                                file: "<corun-shared>",
                                line: *key as u32,
                            },
                            format!("shared:{label}"),
                            attrs.clone(),
                        ),
                        Some((*key, attrs)),
                    ),
                },
                _ => continue,
            };
            // simlint: allow(unwrap, reason = "workload-invariant violation; the sweep's catch_unwind surfaces it as RunOutcome::Failed")
            let id = id.expect("combined atom space exhausted");
            if let Some((key, attrs)) = new_shared {
                shared_atoms.insert(key, id);
                shared_ids.insert(id);
                // Coherence-aware placement: a read-write shared atom is
                // migratory — its lines ping-pong between private caches,
                // so L3 pin budget spent on it is wasted. Read-only shared
                // tables stay pinnable.
                if coherence_aware
                    && attrs.props().contains(DataProps::SHARED)
                    && attrs.rw() != RwChar::ReadOnly
                {
                    pin_exempt.insert(id);
                }
            }
            atom_maps[core].insert(count, id);
            count += 1;
        }
    }

    // ── load time: the one machine, with a core per log ─────────────────
    let mut machine = Machine::new(
        &[config.system()],
        &lib.segment(),
        lib,
        config.cores,
        config.coherence == CoherenceMode::Mesi,
        pin_exempt,
    );

    // ── replay ───────────────────────────────────────────────────────────
    let mut pos = vec![0usize; config.cores];
    let mut ranges = vec![VaRanges::new(); config.cores];
    // Shared-segment replay state: one physical allocation per key, and
    // reference counts so only the first mapper/activator (and last
    // unmapper/deactivator) reaches the AMU for a shared atom.
    let mut shared_bases: BTreeMap<u64, u64> = BTreeMap::new();
    let mut shared_map_rc: BTreeMap<(u64, u64), u32> = BTreeMap::new();
    let mut act_rc: BTreeMap<AtomId, u32> = BTreeMap::new();

    loop {
        // Pick the live core earliest in simulated time, `(now, index)`,
        // and the smallest key among the other live cores: the one that
        // overtakes it.
        let mut first: Option<(u64, usize)> = None;
        let mut second: Option<(u64, usize)> = None;
        for j in (0..config.cores).filter(|&j| pos[j] < logs[j].len()) {
            let key = (machine.cores()[j].now(), j);
            if first.is_none_or(|f| key < f) {
                second = first;
                first = Some(key);
            } else if second.is_none_or(|s| key < s) {
                second = Some(key);
            }
        }
        let Some((_, i)) = first else { break };

        // Run core `i` — hint events are free in time — until its log ends
        // or, after an op, another live core's key is strictly smaller.
        // The other keys cannot change meanwhile.
        while pos[i] < logs[i].len() {
            let rename = |id: AtomId| {
                *atom_maps[i]
                    .get(&id.raw())
                    // simlint: allow(unwrap, reason = "workload-invariant violation; the sweep's catch_unwind surfaces it as RunOutcome::Failed")
                    .expect("atom referenced before creation")
            };
            let ev = &logs[i][pos[i]];
            pos[i] += 1;
            match *ev {
                TraceEvent::Op(op) => {
                    let op = match op {
                        Op::Compute(n) => Op::Compute(n),
                        Op::Load { addr, dep } => Op::Load {
                            addr: translate_va(&ranges[i], i, addr),
                            dep,
                        },
                        Op::Store { addr } => Op::Store {
                            addr: translate_va(&ranges[i], i, addr),
                        },
                    };
                    machine.step_core(i, op);
                    if second.is_some_and(|s| s < (machine.cores()[i].now(), i)) {
                        break;
                    }
                }
                TraceEvent::Create { .. } | TraceEvent::CreateShared { .. } => {}
                TraceEvent::Alloc { bytes, atom, base } => {
                    let actual = machine.alloc(bytes, atom.map(rename));
                    ranges[i].insert(base, bytes, actual);
                }
                TraceEvent::AllocShared {
                    key,
                    bytes,
                    atom,
                    base,
                } => {
                    // One physical allocation per key; every core's local VA
                    // range for it translates to the same frames.
                    let actual = *shared_bases
                        .entry(key)
                        .or_insert_with(|| machine.alloc(bytes, atom.map(rename)));
                    ranges[i].insert(base, bytes, actual);
                }
                TraceEvent::Map { atom, start, len } => {
                    let global = rename(atom);
                    let actual = translate_va(&ranges[i], i, start);
                    if !shared_ids.contains(&global) || acquire(&mut shared_map_rc, (actual, len)) {
                        machine.map(global, actual, len);
                    }
                }
                TraceEvent::Unmap { start, len } => {
                    let actual = translate_va(&ranges[i], i, start);
                    if release(&mut shared_map_rc, &(actual, len)) {
                        machine.unmap(actual, len);
                    }
                }
                TraceEvent::Map2d {
                    atom,
                    base,
                    size_x,
                    size_y,
                    len_x,
                } => {
                    let actual = translate_va(&ranges[i], i, base);
                    machine.map_2d(rename(atom), actual, size_x, size_y, len_x);
                }
                TraceEvent::Unmap2d {
                    base,
                    size_x,
                    size_y,
                    len_x,
                } => {
                    let actual = translate_va(&ranges[i], i, base);
                    machine.unmap_2d(actual, size_x, size_y, len_x);
                }
                TraceEvent::Activate(atom) => {
                    let global = rename(atom);
                    if !shared_ids.contains(&global) || acquire(&mut act_rc, global) {
                        machine.activate(global);
                    }
                }
                TraceEvent::Deactivate(atom) => {
                    let global = rename(atom);
                    if release(&mut act_rc, &global) {
                        machine.deactivate(global);
                    }
                }
            }
        }
    }

    let h = machine.hierarchy();
    let per_core = 0..config.cores;
    CorunReport {
        cores: machine.cores().iter().map(Core::stats).collect(),
        l1s: per_core.clone().map(|c| h.core_l1_stats(c)).collect(),
        l2s: per_core.clone().map(|c| h.core_l2_stats(c)).collect(),
        l3: h.l3_stats(),
        dram: h.dram_stats(),
        alb: machine.alb_stats(),
        bus: h.bus_stats(),
        stride_prefetch: per_core.map(|c| h.core_stride_prefetch_stats(c)).collect(),
        xmem_prefetch: h.xmem_prefetch_stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::polybench::{KernelParams, PolybenchKernel};
    use workloads::sink::{LogSink, TraceSink};

    fn record(f: impl Fn(&mut dyn TraceSink)) -> Vec<TraceEvent> {
        let mut log = LogSink::new();
        f(&mut log);
        log.into_events()
    }

    fn kernel_log(n: usize, tile: u64) -> Vec<TraceEvent> {
        record(|s| {
            PolybenchKernel::Gemm.generate(
                &KernelParams {
                    n,
                    tile_bytes: tile,
                    steps: 1,
                    reuse: 200,
                },
                s,
            )
        })
    }

    fn hog_log(lines: u64) -> Vec<TraceEvent> {
        record(|s| {
            let base = s.alloc(lines * 64, None);
            for i in 0..lines * 4 {
                s.load(base + (i % lines) * 64);
                s.compute(2);
            }
        })
    }

    #[test]
    fn single_core_corun_matches_shape() {
        let cfg = MultiCoreConfig::scaled_corun(1, 32 << 10, crate::SystemKind::Baseline);
        let report = run_corun(&cfg, &[kernel_log(32, 4 << 10)]);
        assert_eq!(report.cores.len(), 1);
        assert!(report.cores[0].cycles > 0);
        assert!(report.dram.accesses() > 0);
    }

    #[test]
    fn corun_is_deterministic() {
        let cfg = MultiCoreConfig::scaled_corun(2, 32 << 10, crate::SystemKind::Xmem);
        let logs = vec![kernel_log(24, 2 << 10), hog_log(512)];
        let a = run_corun(&cfg, &logs);
        let b = run_corun(&cfg, &logs);
        assert_eq!(a.cores, b.cores);
        assert_eq!(a.dram, b.dram);
    }

    #[test]
    fn interference_slows_the_victim() {
        let solo_cfg = MultiCoreConfig::scaled_corun(1, 32 << 10, crate::SystemKind::Baseline);
        let solo = run_corun(&solo_cfg, &[kernel_log(32, 8 << 10)]);
        let corun_cfg = MultiCoreConfig::scaled_corun(3, 32 << 10, crate::SystemKind::Baseline);
        let corun = run_corun(
            &corun_cfg,
            &[kernel_log(32, 8 << 10), hog_log(2048), hog_log(2048)],
        );
        assert!(
            corun.cycles(0) > solo.cycles(0),
            "co-runners must interfere: solo {} vs corun {}",
            solo.cycles(0),
            corun.cycles(0)
        );
    }

    #[test]
    fn xmem_protects_victim_under_corun() {
        // The §5 premise: the kernel tuned for the whole L3 loses cache to
        // streaming co-runners; XMem pins its tile and suffers less.
        let logs = vec![kernel_log(48, 16 << 10), hog_log(4096), hog_log(4096)];
        let base_cfg = MultiCoreConfig::scaled_corun(3, 32 << 10, crate::SystemKind::Baseline);
        let xmem_cfg = MultiCoreConfig::scaled_corun(3, 32 << 10, crate::SystemKind::Xmem);
        let base = run_corun(&base_cfg, &logs);
        let xmem = run_corun(&xmem_cfg, &logs);
        assert!(
            xmem.cycles(0) < base.cycles(0),
            "xmem {} vs baseline {}",
            xmem.cycles(0),
            base.cycles(0)
        );
    }

    #[test]
    fn equal_times_run_the_lower_core_first() {
        // Identical logs: both cores tie at cycle 0 and again after the
        // compute burst, then store to one shared line. The lower index
        // must store first and be invalidated by the other's BusRdX; with
        // the order flipped, the snoop counters would swap.
        let log = record(|s| {
            let line = s.alloc_shared(7, 64, None);
            s.compute(8);
            s.store(line);
        });
        let cfg = MultiCoreConfig::scaled_corun(2, 32 << 10, crate::SystemKind::Baseline)
            .with_coherence(CoherenceMode::Mesi);
        let r = run_corun(&cfg, &[log.clone(), log]);
        assert_eq!((r.bus.bus_rdx, r.bus.c2c_transfers), (2, 1));
        assert_eq!(
            (r.l1s[0].snoop_invalidations, r.l1s[0].snoop_writebacks),
            (1, 1),
            "core 0 stored first, then lost the line to core 1"
        );
        assert_eq!(r.l1s[1].snoop_invalidations, 0, "core 1 stored last");
    }

    /// One page allocated at LogSink's first base (1 MiB), then a load
    /// of `va`.
    fn stray_log(va: u64) -> Vec<TraceEvent> {
        record(|s| {
            let base = s.alloc(4096, None);
            s.load(base);
            s.load(va);
        })
    }

    #[test]
    #[should_panic(expected = "core 0: unallocated VA 0x40")]
    fn load_below_every_range_panics() {
        let cfg = MultiCoreConfig::scaled_corun(1, 32 << 10, crate::SystemKind::Baseline);
        run_corun(&cfg, &[stray_log(0x40)]);
    }

    #[test]
    #[should_panic(expected = "core 1: unallocated VA 0x101000")]
    fn load_past_a_range_panics() {
        // Before the panic, this VA passed through untranslated and could
        // land on core 0's frames.
        let cfg = MultiCoreConfig::scaled_corun(2, 32 << 10, crate::SystemKind::Baseline);
        run_corun(&cfg, &[hog_log(64), stray_log(0x10_1000)]);
    }

    #[test]
    fn atom_ids_disjoint_across_cores() {
        // Two copies of the same workload: their atoms must not collide.
        let cfg = MultiCoreConfig::scaled_corun(2, 32 << 10, crate::SystemKind::Xmem);
        let logs = vec![kernel_log(24, 2 << 10), kernel_log(24, 2 << 10)];
        let report = run_corun(&cfg, &logs);
        // Both kernels complete the same work.
        assert_eq!(report.cores[0].instructions, report.cores[1].instructions);
    }
}
