//! Attribution by substitution: the traced run's per-layer numbers.
//!
//! Each point runs through a stack built up from public layer APIs, one
//! layer per stage, and then through the real end-to-end entry point.
//! Stages are cumulative, so successive differences are host time per
//! layer on the workload's own op mix:
//!
//! | stage       | single-core points (`Machine`)                          | co-run points (`run_corun`)                        |
//! |-------------|---------------------------------------------------------|----------------------------------------------------|
//! | `load`      | generator → `ScanSink`, then `load_segment`             | merge every core's atoms, then `load_segment`      |
//! | `gen`       | + generator → `BatchEmitter` → counting null sink       | + read (clone) every recorded event                |
//! | `core`      | + `Core::step_batch` over a fixed L1-latency path       | + one `Core` per log, stepped in time order        |
//! | `translate` | + TLB and page table behind a mirror of the translate cache | + per-core VA ranges and the page table       |
//! | `memory`    | + `Hierarchy::serve` over real DRAM, AMU, `XMemLib`, `Os::malloc` | `run_corun` without coherence          |
//! | `e2e`       | `Sweep` over the point                                  | `run_corun` with MESI                              |
//!
//! The `memory` stage of a single-core point reproduces `Machine` exactly,
//! so its counters must equal the end-to-end report; [`attribute`] checks
//! that for every point rather than assuming it. `Dram` cannot be swapped
//! out from outside `Hierarchy`, so caches, XMem lookups and DRAM share
//! the `memory` stage.

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::Instant;

use cache_sim::hierarchy::{Hierarchy, XmemContext};
use cache_sim::XmemMode;
use cpu_sim::batch::{MemoryPath, OpAttrs, OpBatch, OpKind};
use cpu_sim::core::{Core, CoreStats};
use cpu_sim::trace::Op;
use dram_sim::Dram;
use os_sim::loader::{load_segment, LoadedProcess};
use os_sim::os::Os;
use os_sim::placement::FramePolicy;
use os_sim::tlb::Tlb;
use workloads::sink::{BatchEmitter, TraceEvent, TraceSink};
use xmem_core::aam::AamConfig;
use xmem_core::addr::VirtAddr;
use xmem_core::amu::{AmuConfig, AtomManagementUnit, Mmu};
use xmem_core::atom::{AtomId, StaticAtom};
use xmem_core::attrs::AtomAttributes;
use xmem_core::pat::Pat;
use xmem_core::process::ProcessId;
use xmem_core::segment::AtomSegment;
use xmem_core::translate::{AttributeTranslator, CachePrimitive, PrefetcherPrimitive};
use xmem_core::xmemlib::{CallSite, XMemLib};
use xmem_sim::{
    run_corun, FramePolicyKind, RunReport, RunSpec, SamplePhase, SamplingSpec, ScanSink, Sweep,
    SystemConfig,
};

use crate::suite::{self, Inputs, Kind, PointReport, PointRun, Prepared, Scenario};

/// Stage names, in ladder order; the last is the end-to-end entry point.
pub const STAGES: [&str; 6] = ["load", "gen", "core", "translate", "memory", "e2e"];

/// Telemetry epoch of the armed end-to-end stage (uc1-tuned only).
const TELEMETRY_EPOCH: u64 = 10_000;

/// The load step of a run's prologue: the scanned segment into the GAT
/// and the attribute translator's PATs, as `run_generator_sampled` does.
pub fn load(config: &SystemConfig, scan: &ScanSink) -> LoadedProcess {
    let translator = AttributeTranslator::with_row_bytes(config.dram.row_bytes);
    load_segment(ProcessId(0), &scan.segment(), &translator).expect("program load failed")
}

// ───────────────────────── single-core stacks ─────────────────────────

/// `ScanSink`'s allocator: page-aligned bumps from 4 KiB.
#[derive(Debug)]
struct BumpVa(u64);

impl BumpVa {
    fn new() -> Self {
        BumpVa(4096)
    }

    fn alloc(&mut self, bytes: u64) -> u64 {
        let base = self.0;
        self.0 += bytes.next_multiple_of(4096).max(4096);
        base
    }
}

/// `ScanSink`'s atom numbering: creation order, deduplicated by label.
#[derive(Debug, Default)]
struct Labels(Vec<String>);

impl Labels {
    fn id(&mut self, label: &str) -> AtomId {
        let i = match self.0.iter().position(|l| l == label) {
            Some(i) => i,
            None => {
                self.0.push(label.to_owned());
                self.0.len() - 1
            }
        };
        AtomId::new(i as u8)
    }
}

/// `gen`: a null sink that counts what the emitter hands it.
#[derive(Debug)]
struct Gen {
    ops: u64,
    va: BumpVa,
    atoms: Labels,
}

impl TraceSink for Gen {
    fn op(&mut self, _op: Op) {
        self.ops += 1;
    }
    fn op_batch(&mut self, batch: &OpBatch) {
        self.ops += black_box(batch).len() as u64;
    }
    fn alloc(&mut self, bytes: u64, _atom: Option<AtomId>) -> u64 {
        self.va.alloc(bytes)
    }
    fn create_atom(&mut self, label: &str, _attrs: AtomAttributes) -> AtomId {
        self.atoms.id(label)
    }
    fn map(&mut self, _: AtomId, _: u64, _: u64) {}
    fn unmap(&mut self, _: u64, _: u64) {}
    fn map_2d(&mut self, _: AtomId, _: u64, _: u64, _: u64, _: u64) {}
    fn unmap_2d(&mut self, _: u64, _: u64, _: u64, _: u64) {}
    fn activate(&mut self, _: AtomId) {}
    fn deactivate(&mut self, _: AtomId) {}
}

/// An XMem operator from the trace.
#[derive(Debug, Clone, Copy)]
enum Hint {
    Map(AtomId, u64, u64),
    Unmap(u64, u64),
    Map2d(AtomId, u64, u64, u64, u64),
    Unmap2d(u64, u64, u64, u64),
    Activate(AtomId),
    Deactivate(AtomId),
}

/// What a core-driven stage puts under the core.
trait Layer: MemoryPath {
    fn alloc(&mut self, bytes: u64, atom: Option<AtomId>) -> u64;
    fn create_atom(&mut self, label: &str, attrs: AtomAttributes) -> AtomId;
    fn hint(&mut self, _hint: Hint) {}
    /// A functional-warming access (sampled runs).
    fn warm(&mut self, _va: u64, _is_write: bool) {}
}

/// `core`: every access retires at the L1 latency.
#[derive(Debug)]
struct CoreOnly {
    latency: u64,
    va: BumpVa,
    atoms: Labels,
}

impl MemoryPath for CoreOnly {
    fn serve(&mut self, _va: u64, _attrs: OpAttrs, _now: u64) -> u64 {
        self.latency
    }
}

impl Layer for CoreOnly {
    fn alloc(&mut self, bytes: u64, _atom: Option<AtomId>) -> u64 {
        self.va.alloc(bytes)
    }
    fn create_atom(&mut self, label: &str, _attrs: AtomAttributes) -> AtomId {
        self.atoms.id(label)
    }
}

/// Translate-cache slots; mirrors the private `TC_ENTRIES` of `sim`'s
/// memory system so this stage does exactly the translation work
/// `Machine` does.
const TC_ENTRIES: usize = 16;
/// Warm-filter slots; mirrors `sim`'s `WARM_FILTER_ENTRIES`.
const WARM_FILTER_ENTRIES: usize = 256;

/// `translate`: the TLB walk cost plus the page table behind the
/// translate cache, with frames placed by the configured policy.
#[derive(Debug)]
struct Translating {
    latency: u64,
    os: Os,
    tlb: Option<Tlb>,
    tc_vpn: [u64; TC_ENTRIES],
    tc_pfn: [u64; TC_ENTRIES],
    page_shift: u32,
    warm_lines: [u64; WARM_FILTER_ENTRIES],
    warm_dirty: [bool; WARM_FILTER_ENTRIES],
    atoms: Labels,
}

impl Translating {
    fn new(config: &SystemConfig, loaded: &LoadedProcess) -> Self {
        let policy = match config.frame_policy {
            FramePolicyKind::Sequential => FramePolicy::Sequential,
            FramePolicyKind::Randomized { seed } => FramePolicy::Randomized { seed },
            FramePolicyKind::XmemPlacement => FramePolicy::Xmem {
                atoms: loaded.placement.clone(),
                mapping: config.mapping,
                dram: config.dram,
            },
        };
        let os = Os::new(config.phys_bytes, 4096, policy);
        Translating {
            latency: config.hierarchy.l1.latency,
            tlb: config.tlb.map(Tlb::new),
            tc_vpn: [u64::MAX; TC_ENTRIES],
            tc_pfn: [0; TC_ENTRIES],
            page_shift: os.page_table().page_size().trailing_zeros(),
            warm_lines: [u64::MAX; WARM_FILTER_ENTRIES],
            warm_dirty: [false; WARM_FILTER_ENTRIES],
            os,
            atoms: Labels::default(),
        }
    }

    /// Walk cost and physical address of `va`.
    #[inline]
    fn translate(&mut self, va: u64) -> (u64, u64) {
        let walk = self
            .tlb
            .as_mut()
            .map(|t| t.translate_cost(VirtAddr::new(va)))
            .unwrap_or(0);
        let vpn = va >> self.page_shift;
        let slot = (vpn & (TC_ENTRIES as u64 - 1)) as usize;
        if vpn == self.tc_vpn[slot] {
            let offset = va & ((1 << self.page_shift) - 1);
            return (walk, (self.tc_pfn[slot] << self.page_shift) | offset);
        }
        let pa = self
            .os
            .page_table()
            .translate(VirtAddr::new(va))
            .unwrap_or_else(|| panic!("access to unallocated VA {va:#x}"))
            .raw();
        self.tc_vpn[slot] = vpn;
        self.tc_pfn[slot] = pa >> self.page_shift;
        (walk, pa)
    }

    /// The warm path's recently-warmed-line filter, then translation:
    /// `None` when the filter skips the access.
    fn warm_translate(&mut self, va: u64, is_write: bool) -> Option<u64> {
        let line = va >> 6;
        let slot = (line & (WARM_FILTER_ENTRIES as u64 - 1)) as usize;
        if self.warm_lines[slot] == line && (!is_write || self.warm_dirty[slot]) {
            return None;
        }
        self.warm_lines[slot] = line;
        self.warm_dirty[slot] = is_write;
        Some(self.translate(va).1)
    }
}

impl MemoryPath for Translating {
    fn serve(&mut self, va: u64, _attrs: OpAttrs, _now: u64) -> u64 {
        let (walk, pa) = self.translate(va);
        black_box(pa);
        walk + self.latency
    }
}

impl Layer for Translating {
    fn alloc(&mut self, bytes: u64, atom: Option<AtomId>) -> u64 {
        // The page table grows: drop the translate cache, as `Machine` does.
        self.tc_vpn = [u64::MAX; TC_ENTRIES];
        self.os
            .malloc(bytes, atom)
            .expect("simulated physical memory exhausted")
            .raw()
    }
    fn create_atom(&mut self, label: &str, _attrs: AtomAttributes) -> AtomId {
        self.atoms.id(label)
    }
    fn warm(&mut self, va: u64, is_write: bool) {
        black_box(self.warm_translate(va, is_write));
    }
}

/// `memory`: the whole memory side of `Machine`, rebuilt from layer APIs.
#[derive(Debug)]
struct Full {
    x: Translating,
    hierarchy: Hierarchy,
    amu: AtomManagementUnit,
    cache_pat: Pat<CachePrimitive>,
    pf_pat: Pat<PrefetcherPrimitive>,
    xmem_enabled: bool,
    lib: XMemLib,
    labels: BTreeMap<String, AtomId>,
    next_site: u32,
}

impl Full {
    fn new(config: &SystemConfig, loaded: &LoadedProcess) -> Self {
        let dram = if config.ideal_rbl {
            Dram::new_ideal_rbl(config.dram, config.mapping)
        } else {
            Dram::new(config.dram, config.mapping)
        };
        let amu = AtomManagementUnit::new(AmuConfig {
            aam: AamConfig {
                phys_bytes: config.phys_bytes,
                ..AamConfig::default()
            },
            alb_entries: 256,
            page_size: 4096,
        });
        let xmem_enabled = config.hierarchy.xmem != XmemMode::Off;
        let mut cache_pat = Pat::new();
        let mut pf_pat = Pat::new();
        if xmem_enabled {
            let translator = AttributeTranslator::with_row_bytes(config.dram.row_bytes);
            cache_pat.fill_from_gat(&loaded.process.gat, |a| translator.for_cache(a));
            pf_pat.fill_from_gat(&loaded.process.gat, |a| translator.for_prefetcher(a));
        }
        Full {
            x: Translating::new(config, loaded),
            hierarchy: Hierarchy::new(config.hierarchy, dram),
            amu,
            cache_pat,
            pf_pat,
            xmem_enabled,
            lib: XMemLib::new(),
            labels: BTreeMap::new(),
            next_site: 0,
        }
    }

    fn report(mut self, core: CoreStats) -> RunReport {
        self.lib.counter_mut().count_program(core.instructions);
        let h = &self.hierarchy;
        RunReport {
            core,
            l1: h.l1_stats(),
            l2: h.l2_stats(),
            l3: h.l3_stats(),
            dram: h.dram_stats(),
            alb: self.amu.alb_stats(),
            xmem_instructions: self.lib.counter().xmem_instructions(),
            instruction_overhead: self.lib.counter().overhead_fraction(),
            xmem_prefetch: h.xmem_prefetch_stats(),
            stride_prefetch: h.stride_prefetch_stats(),
        }
    }
}

impl MemoryPath for Full {
    #[inline]
    fn serve(&mut self, va: u64, attrs: OpAttrs, now: u64) -> u64 {
        let (walk, pa) = self.x.translate(va);
        let ctx = self.xmem_enabled.then_some(XmemContext {
            amu: &mut self.amu,
            cache_pat: &self.cache_pat,
            pf_pat: &self.pf_pat,
        });
        walk + self.hierarchy.serve(pa, attrs.write, now + walk, ctx)
    }
}

impl Layer for Full {
    fn alloc(&mut self, bytes: u64, atom: Option<AtomId>) -> u64 {
        self.x.alloc(bytes, atom)
    }

    fn create_atom(&mut self, label: &str, attrs: AtomAttributes) -> AtomId {
        if let Some(&id) = self.labels.get(label) {
            return id;
        }
        let site = CallSite {
            file: "<workload>",
            line: self.next_site,
        };
        self.next_site += 1;
        let id = self
            .lib
            .create_atom(site, label, attrs)
            .expect("atom limit exceeded");
        self.labels.insert(label.to_owned(), id);
        id
    }

    fn hint(&mut self, hint: Hint) {
        if !self.xmem_enabled {
            return;
        }
        let (amu, pt) = (&mut self.amu, self.x.os.page_table());
        let done = match hint {
            Hint::Map(atom, start, len) => {
                self.lib.atom_map(amu, pt, atom, VirtAddr::new(start), len)
            }
            Hint::Unmap(start, len) => self.lib.atom_unmap(amu, pt, VirtAddr::new(start), len),
            Hint::Map2d(atom, base, sx, sy, lx) => {
                self.lib
                    .atom_map_2d(amu, pt, atom, VirtAddr::new(base), sx, sy, lx)
            }
            Hint::Unmap2d(base, sx, sy, lx) => {
                self.lib
                    .atom_unmap_2d(amu, pt, VirtAddr::new(base), sx, sy, lx)
            }
            Hint::Activate(atom) => self.lib.atom_activate(amu, pt, atom),
            Hint::Deactivate(atom) => self.lib.atom_deactivate(amu, pt, atom),
        };
        done.expect("XMem operator failed");
    }

    fn warm(&mut self, va: u64, is_write: bool) {
        if let Some(pa) = self.x.warm_translate(va, is_write) {
            let ctx = self.xmem_enabled.then_some(XmemContext {
                amu: &mut self.amu,
                cache_pat: &self.cache_pat,
                pf_pat: &self.pf_pat,
            });
            self.hierarchy.warm_access(pa, is_write, ctx);
        }
    }
}

/// A core over a [`Layer`], optionally under a sampling schedule.
#[derive(Debug)]
struct Stack<L> {
    core: Core,
    layer: L,
    /// The schedule and how many ops it has classified so far.
    sampling: Option<(SamplingSpec, u64)>,
    warm_latency: u64,
}

impl<L: Layer> Stack<L> {
    fn new(config: &SystemConfig, layer: L, sampling: Option<SamplingSpec>) -> Self {
        Stack {
            core: Core::new(config.core),
            layer,
            sampling: sampling.map(|s| (s, 0)),
            warm_latency: config.hierarchy.l1.latency,
        }
    }

    /// The state changes of `Machine`'s sampled dispatch: detailed runs
    /// step the core over the layer, warm runs warm the layer and retire
    /// at the L1 latency, fast-forward runs warm the layer and skip.
    fn sampled_batch(&mut self, spec: SamplingSpec, batch: &OpBatch) {
        let len = batch.len();
        let mut i = 0;
        while i < len {
            let pos = self.sampling.map_or(0, |(_, p)| p);
            let run = spec.phase_run(pos).min((len - i) as u64) as usize;
            match spec.phase_of(pos) {
                SamplePhase::Detailed => {
                    self.core
                        .step_batch_range(batch, i, i + run, &mut self.layer)
                }
                SamplePhase::Warm => {
                    for j in i..i + run {
                        match batch.kind(j) {
                            OpKind::Load => self.layer.warm(batch.addr(j), false),
                            OpKind::Store => self.layer.warm(batch.addr(j), true),
                            OpKind::Compute => {}
                        }
                        self.core.step_fixed(batch.op(j), self.warm_latency);
                    }
                }
                SamplePhase::FastForward => {
                    let (mut loads, mut stores) = (0, 0);
                    for j in i..i + run {
                        match batch.kind(j) {
                            OpKind::Load => {
                                self.layer.warm(batch.addr(j), false);
                                loads += 1;
                            }
                            OpKind::Store => {
                                self.layer.warm(batch.addr(j), true);
                                stores += 1;
                            }
                            OpKind::Compute => self.core.skip(batch.op(j)),
                        }
                    }
                    self.core.skip_bulk(loads, stores);
                }
            }
            if let Some((_, p)) = self.sampling.as_mut() {
                *p += run as u64;
            }
            i += run;
        }
    }
}

impl<L: Layer> TraceSink for Stack<L> {
    fn op(&mut self, op: Op) {
        let mut batch = OpBatch::new();
        batch.push_op(op, 0);
        self.op_batch(&batch);
    }
    fn op_batch(&mut self, batch: &OpBatch) {
        match self.sampling {
            None => self.core.step_batch(batch, &mut self.layer),
            Some((spec, _)) => self.sampled_batch(spec, batch),
        }
    }
    fn alloc(&mut self, bytes: u64, atom: Option<AtomId>) -> u64 {
        self.layer.alloc(bytes, atom)
    }
    fn create_atom(&mut self, label: &str, attrs: AtomAttributes) -> AtomId {
        self.layer.create_atom(label, attrs)
    }
    fn map(&mut self, atom: AtomId, start: u64, len: u64) {
        self.layer.hint(Hint::Map(atom, start, len));
    }
    fn unmap(&mut self, start: u64, len: u64) {
        self.layer.hint(Hint::Unmap(start, len));
    }
    fn map_2d(&mut self, atom: AtomId, base: u64, sx: u64, sy: u64, lx: u64) {
        self.layer.hint(Hint::Map2d(atom, base, sx, sy, lx));
    }
    fn unmap_2d(&mut self, base: u64, sx: u64, sy: u64, lx: u64) {
        self.layer.hint(Hint::Unmap2d(base, sx, sy, lx));
    }
    fn activate(&mut self, atom: AtomId) {
        self.layer.hint(Hint::Activate(atom));
    }
    fn deactivate(&mut self, atom: AtomId) {
        self.layer.hint(Hint::Deactivate(atom));
    }
}

fn emit<S: TraceSink>(spec: &RunSpec, sink: &mut S) {
    let mut emitter = BatchEmitter::new(sink);
    spec.workload.generate(&mut emitter);
    emitter.flush();
}

/// Runs substitution stage `stage` (`0..=4`) of a single-core point. The
/// `memory` stage returns its report, which must equal the end-to-end one.
fn machine_stage(
    stage: usize,
    spec: &RunSpec,
    sampling: Option<SamplingSpec>,
) -> Option<RunReport> {
    let config = &spec.config;
    let mut scan = ScanSink::new();
    spec.workload.generate(&mut scan);
    let loaded = load(config, &scan);
    match stage {
        0 => {
            black_box(&loaded);
            None
        }
        1 => {
            let mut sink = Gen {
                ops: 0,
                va: BumpVa::new(),
                atoms: Labels::default(),
            };
            emit(spec, &mut sink);
            black_box(sink.ops);
            None
        }
        2 => {
            let layer = CoreOnly {
                latency: config.hierarchy.l1.latency,
                va: BumpVa::new(),
                atoms: Labels::default(),
            };
            let mut stack = Stack::new(config, layer, sampling);
            emit(spec, &mut stack);
            black_box(stack.core.stats());
            None
        }
        3 => {
            let mut stack = Stack::new(config, Translating::new(config, &loaded), sampling);
            emit(spec, &mut stack);
            black_box(stack.core.stats());
            None
        }
        _ => {
            let mut stack = Stack::new(config, Full::new(config, &loaded), sampling);
            emit(spec, &mut stack);
            let core = stack.core.stats();
            Some(stack.layer.report(core))
        }
    }
}

// ──────────────────────────── co-run stacks ────────────────────────────

/// `run_corun`'s first pass: every core's atoms merged into one space
/// (shared keys resolve to one atom), then loaded.
fn corun_load(sc: &Scenario) -> LoadedProcess {
    let mut lib = XMemLib::new();
    let mut segment = AtomSegment::new();
    let mut shared = BTreeSet::new();
    for (core, log) in sc.logs.iter().enumerate() {
        let mut count = 0u32;
        for ev in log {
            let (site, label, attrs) = match ev {
                TraceEvent::Create { label, attrs } => (
                    CallSite {
                        file: "<corun>",
                        line: (core as u32) << 16 | count,
                    },
                    format!("c{core}:{label}"),
                    attrs,
                ),
                TraceEvent::CreateShared { key, label, attrs } if shared.insert(*key) => (
                    CallSite {
                        file: "<corun-shared>",
                        line: *key as u32,
                    },
                    format!("shared:{label}"),
                    attrs,
                ),
                TraceEvent::CreateShared { .. } => {
                    count += 1;
                    continue;
                }
                _ => continue,
            };
            count += 1;
            let id = lib
                .create_atom(site, label.clone(), attrs.clone())
                .expect("combined atom space exhausted");
            segment.push(StaticAtom::new(id, label, attrs.clone()));
        }
    }
    let translator = AttributeTranslator::with_row_bytes(sc.none.dram.row_bytes);
    load_segment(ProcessId(0), &segment, &translator).expect("co-run load failed")
}

/// `run_corun`'s replay loop without its memory system: the live core
/// earliest in simulated time takes its next event. With `translate`,
/// allocations get frames and every access is translated through the
/// core's (recorded → actual) ranges and the page table.
fn corun_replay(sc: &Scenario, translate: bool) -> Vec<CoreStats> {
    struct Path<'a> {
        os: Option<&'a Os>,
        ranges: &'a [(u64, u64, u64)],
        latency: u64,
    }
    impl MemoryPath for Path<'_> {
        fn serve(&mut self, va: u64, _attrs: OpAttrs, _now: u64) -> u64 {
            if let Some(os) = self.os {
                let actual = match self.ranges.binary_search_by(|&(b, _, _)| b.cmp(&va)) {
                    Ok(i) => self.ranges[i].2,
                    Err(0) => va,
                    Err(i) => {
                        let (base, len, actual) = self.ranges[i - 1];
                        if va < base + len {
                            actual + (va - base)
                        } else {
                            va
                        }
                    }
                };
                let pa = os.page_table().translate(VirtAddr::new(actual));
                black_box(pa.expect("co-run access to unallocated VA"));
            }
            self.latency
        }
    }

    let cfg = &sc.none;
    assert!(
        cfg.frame_policy == FramePolicyKind::Sequential,
        "the co-run machine places frames sequentially"
    );
    let n = sc.logs.len();
    let mut cores: Vec<Core> = (0..n).map(|_| Core::new(cfg.core)).collect();
    let mut pos = vec![0usize; n];
    let mut os = Os::new(cfg.phys_bytes, 4096, FramePolicy::Sequential);
    let mut ranges: Vec<Vec<(u64, u64, u64)>> = vec![Vec::new(); n];
    let mut shared: BTreeMap<u64, u64> = BTreeMap::new();
    while let Some(i) = (0..n)
        .filter(|&i| pos[i] < sc.logs[i].len())
        .min_by_key(|&i| (cores[i].now(), i))
    {
        while pos[i] < sc.logs[i].len() {
            let ev = sc.logs[i][pos[i]].clone();
            pos[i] += 1;
            let (key, bytes, base) = match ev {
                TraceEvent::Op(op) => {
                    let mut path = Path {
                        os: translate.then_some(&os),
                        ranges: &ranges[i],
                        latency: cfg.l1.latency,
                    };
                    cores[i].step(op, &mut path);
                    break;
                }
                TraceEvent::Alloc { bytes, base, .. } if translate => (None, bytes, base),
                TraceEvent::AllocShared {
                    key, bytes, base, ..
                } if translate => (Some(key), bytes, base),
                _ => continue,
            };
            let fresh = |os: &mut Os| os.malloc(bytes, None).expect("co-run memory exhausted");
            let actual = match key {
                Some(k) => *shared.entry(k).or_insert_with(|| fresh(&mut os).raw()),
                None => fresh(&mut os).raw(),
            };
            ranges[i].push((base, bytes.next_multiple_of(4096).max(4096), actual));
            ranges[i].sort_unstable();
        }
    }
    cores.iter().map(Core::stats).collect()
}

/// Runs substitution stage `stage` (`0..=4`) of a co-run point.
fn corun_stage(stage: usize, sc: &Scenario) {
    if stage == 4 {
        black_box(run_corun(&sc.none, &sc.logs));
        return;
    }
    black_box(corun_load(sc));
    match stage {
        0 => {}
        1 => {
            let ops = sc
                .logs
                .iter()
                .flatten()
                .filter(|e| matches!(black_box((*e).clone()), TraceEvent::Op(_)))
                .count();
            black_box(ops);
        }
        _ => {
            black_box(corun_replay(sc, stage == 3));
        }
    }
}

// ───────────────────────────── attribution ─────────────────────────────

/// One recorded span: a workload, a stage, or a point within a stage.
#[derive(Debug, Clone)]
struct Span {
    /// Span id (1-based; 0 means "no parent").
    id: u64,
    /// The enclosing span's id.
    parent: u64,
    /// What ran.
    name: String,
    /// Start, in host nanoseconds since the traced run began.
    start_ns: u64,
    /// Duration in host nanoseconds.
    dur_ns: u64,
}

/// Spans kept in memory while the traced run executes.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    /// Every span, in the order they were opened.
    spans: Vec<Span>,
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent` (0 for none); returns its id.
    pub fn open(&mut self, name: impl Into<String>, parent: u64) -> u64 {
        let id = self.spans.len() as u64 + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name: name.into(),
            start_ns,
            dur_ns: 0,
        });
        id
    }

    /// Closes span `id`.
    pub fn close(&mut self, id: u64) {
        let now = self.now_ns();
        let span = &mut self.spans[id as usize - 1];
        span.dur_ns = now - span.start_ns;
    }

    /// The spans as a Chrome trace-format document (`chrome://tracing`,
    /// Perfetto), parents recorded in each event's `args`.
    pub fn to_chrome_trace(&self) -> xmem_sim::JsonValue {
        use xmem_sim::JsonValue;
        let events = self.spans.iter().map(|s| {
            JsonValue::object([
                ("name", JsonValue::Str(s.name.clone())),
                ("cat", JsonValue::Str("xmembench".into())),
                ("ph", JsonValue::Str("X".into())),
                ("ts", JsonValue::F64(s.start_ns as f64 / 1e3)),
                ("dur", JsonValue::F64(s.dur_ns as f64 / 1e3)),
                ("pid", JsonValue::U64(1)),
                ("tid", JsonValue::U64(1)),
                (
                    "args",
                    JsonValue::object([
                        ("id", JsonValue::U64(s.id)),
                        ("parent", JsonValue::U64(s.parent)),
                    ]),
                ),
            ])
        });
        JsonValue::object([("traceEvents", JsonValue::Array(events.collect()))])
    }
}

/// What the traced run measured.
#[derive(Debug)]
pub struct Attribution {
    /// Host nanoseconds per stage summed over every point, the median over
    /// ladders, in [`STAGES`] order.
    pub stage_ns: [f64; 6],
    /// Host nanoseconds of the telemetry-armed end-to-end stage (uc1-tuned
    /// only), the median over ladders.
    pub telemetry_ns: Option<f64>,
    /// How many complete ladders ran.
    pub ladders: usize,
    /// The end-to-end results of every ladder, for the golden check.
    pub e2e: Vec<Vec<PointRun>>,
    /// Points whose `memory` stage disagreed with the end-to-end report.
    pub mismatches: Vec<String>,
}

/// Runs ladders until `seconds` would be exceeded (at least one). Each
/// stage is a pass over every point, so the `e2e` stage is one serial
/// `Sweep` exactly like a timed end-to-end pass. Spans nest workload →
/// stage → point; the `e2e` stages run inside the program, so their
/// points get no spans of their own.
pub fn attribute(p: &Prepared, seconds: f64, spans: &mut Spans, parent: u64) -> Attribution {
    let began = Instant::now();
    let labels = p.labels();
    let telemetry = p.workload.kind == Kind::Tuned;
    let mut totals: Vec<[u64; 7]> = Vec::new();
    let mut e2e = Vec::new();
    let mut mismatches = Vec::new();
    loop {
        let ladder_start = Instant::now();
        let mut sums = [0u64; 7];
        let mut memory_reports = Vec::new();
        for (stage, name) in STAGES.iter().enumerate() {
            let stage_span = spans.open(*name, parent);
            let t = Instant::now();
            match &p.inputs {
                Inputs::Machine { specs, sampling } if stage < 5 => {
                    // One fresh worker thread per pass, as `Sweep` runs the
                    // e2e stage, so every stage pays the same thread set-up.
                    std::thread::scope(|scope| {
                        scope.spawn(|| {
                            for (spec, label) in specs.iter().zip(&labels) {
                                let span = spans.open(label.clone(), stage_span);
                                let report = machine_stage(stage, spec, *sampling);
                                spans.close(span);
                                memory_reports.extend(report);
                            }
                        });
                    });
                }
                Inputs::Machine { specs, sampling } => {
                    e2e.push(suite::machine_pass(specs.clone(), *sampling).points);
                }
                Inputs::Corun(scenarios) => {
                    let mut points = Vec::new();
                    for (sc, label) in scenarios.iter().zip(&labels) {
                        let span = spans.open(label.clone(), stage_span);
                        if stage < 5 {
                            corun_stage(stage, sc);
                        } else {
                            points.push(suite::corun_point(sc));
                        }
                        spans.close(span);
                    }
                    if stage == 5 {
                        e2e.push(points);
                    }
                }
            }
            sums[stage] = t.elapsed().as_nanos() as u64;
            spans.close(stage_span);
        }
        if let (Inputs::Machine { specs, .. }, true) = (&p.inputs, telemetry) {
            let span = spans.open("e2e+telemetry", parent);
            let sweep = Sweep::new(specs.clone())
                .workers(1)
                .epoch(Some(TELEMETRY_EPOCH));
            let t = Instant::now();
            black_box(sweep.run_outcomes());
            sums[6] = t.elapsed().as_nanos() as u64;
            spans.close(span);
        }
        let last = e2e.last().map(Vec::as_slice).unwrap_or_default();
        for ((s, point), label) in memory_reports.iter().zip(last).zip(&labels) {
            if let Some(PointReport::Machine(r, _)) = &point.report {
                if s != r {
                    mismatches.push(format!(
                        "{label}: the substituted memory stage's counters differ from the end-to-end report"
                    ));
                }
            }
        }
        totals.push(sums);
        let ladder_s = ladder_start.elapsed().as_secs_f64();
        if began.elapsed().as_secs_f64() + ladder_s > seconds {
            break;
        }
    }
    let median_of =
        |k: usize| crate::quartiles(&totals.iter().map(|t| t[k] as f64).collect::<Vec<_>>())[1];
    Attribution {
        stage_ns: std::array::from_fn(median_of),
        telemetry_ns: telemetry.then(|| median_of(6)),
        ladders: totals.len(),
        e2e,
        mismatches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::placement::PlacementWorkload;
    use workloads::polybench::{KernelParams, PolybenchKernel};
    use xmem_sim::{placement_specs, SystemKind, Uc2System, WorkloadSpec};

    fn gemm(config: SystemConfig) -> RunSpec {
        let p = KernelParams {
            n: 24,
            tile_bytes: 2048,
            steps: 2,
            reuse: 200,
        };
        RunSpec::new(
            "gemm",
            config,
            WorkloadSpec::kernel(PolybenchKernel::Gemm, p),
        )
    }

    fn assert_memory_stage_matches(spec: RunSpec, sampling: Option<SamplingSpec>) {
        let substituted = machine_stage(4, &spec, sampling).expect("memory stage reports");
        let label = spec.label.clone();
        let record = Sweep::new(vec![spec])
            .workers(1)
            .sampling(sampling)
            .run()
            .remove(0);
        assert_eq!(substituted, record.report, "{label}");
    }

    #[test]
    fn substituted_stack_equals_the_sweep_report() {
        let uc1 = |kind| SystemConfig::scaled_use_case1(16 << 10, kind);
        assert_memory_stage_matches(gemm(uc1(SystemKind::Baseline)), None);
        assert_memory_stage_matches(gemm(uc1(SystemKind::Xmem)), None);
        assert_memory_stage_matches(gemm(uc1(SystemKind::Xmem).with_tlb()), None);
        let mut mix = PlacementWorkload::by_name("milc").expect("milc exists");
        mix.accesses = 20_000;
        for sys in [Uc2System::Baseline, Uc2System::Xmem, Uc2System::IdealRbl] {
            let spec = placement_specs(&mix, sys).remove(0);
            assert_memory_stage_matches(spec, None);
        }
    }

    #[test]
    fn substituted_sampled_stack_equals_the_sweep_report() {
        let spec = SamplingSpec {
            warmup_ops: 500,
            window_ops: 2_000,
            interval: 6_000,
        };
        let config = SystemConfig::scaled_use_case1(16 << 10, SystemKind::Xmem).with_tlb();
        assert_memory_stage_matches(gemm(config), Some(spec));
    }

    #[test]
    fn every_stage_runs_on_both_point_kinds() {
        let spec = gemm(SystemConfig::scaled_use_case1(16 << 10, SystemKind::Xmem));
        for stage in 0..4 {
            assert!(machine_stage(stage, &spec, None).is_none());
        }
        let sc = suite::corun_scenarios_sized(1, 1).remove(3);
        for stage in 0..5 {
            corun_stage(stage, &sc);
        }
        let replayed = corun_replay(&sc, true);
        let real = run_corun(&sc.none, &sc.logs);
        for (r, c) in replayed.iter().zip(&real.cores) {
            assert_eq!(
                (r.instructions, r.loads, r.stores),
                (c.instructions, c.loads, c.stores),
                "the replay retires the same work"
            );
        }
    }
}
