//! The full-system machine: cores + hierarchy + DRAM + OS + XMem, driven
//! by a workload generator through the [`TraceSink`] interface.
//!
//! A run has two passes, mirroring the paper's compile/load/execute flow:
//!
//! 1. **Scan** ([`ScanSink`]): the workload's `CreateAtom` calls are
//!    collected — this is the *compiler summarization* that produces the
//!    binary's atom segment (§3.5.2).
//! 2. **Load + execute** ([`Machine`]): the OS loads the segment into the
//!    GAT, the attribute translator fills each component's PAT, the frame
//!    policy is constructed (for XMem placement, from the atoms' placement
//!    primitives), and then the trace runs for real — ops through the core
//!    model, XMem calls through `XMemLib` into the AMU.
//!
//! The machine is the only place a run builds its memory system. A
//! [`run`] has one core; [`run_group`] builds one machine for several
//! single-core runs that differ only below the private caches (DESIGN.md
//! "Lockstep sweep groups"); a co-run ([`crate::multicore::run_corun`])
//! builds the same machine with one core per log — each with a private
//! L1/L2 domain of the one [`Hierarchy`] — and steps its cores itself,
//! while the OS, the AMU and the PATs serve them all. Telemetry, sampling
//! and the TLB belong to the single-core runs.

use crate::config::{FramePolicyKind, SystemConfig};
use crate::report::RunReport;
use crate::sampling::{SamplePhase, SamplingSpec, SamplingSummary};
use crate::telemetry::{ratio, Counters, TelemetrySample, TelemetrySeries};
use cache_sim::hierarchy::{Hierarchy, XmemContext};
use cache_sim::CacheConfig;
use cpu_sim::batch::{MemoryPath, OpAttrs, OpBatch, OpKind};
use cpu_sim::core::Core;
use cpu_sim::trace::{FixedLatency, Op};
use dram_sim::{AddressMapping, Dram, DramConfig};
use os_sim::loader::load_segment;
use os_sim::os::Os;
use os_sim::placement::FramePolicy;
use os_sim::tlb::{Tlb, TlbConfig};
use std::collections::{BTreeMap, BTreeSet};
use workloads::sink::{BatchEmitter, TraceSink};
use xmem_core::aam::AamConfig;
use xmem_core::addr::{addr_to_index, VirtAddr};
use xmem_core::alb::AlbStats;
use xmem_core::amu::{AmuConfig, AtomManagementUnit, Mmu};
use xmem_core::atom::{AtomId, StaticAtom};
use xmem_core::attrs::AtomAttributes;
use xmem_core::pat::Pat;
use xmem_core::process::ProcessId;
use xmem_core::segment::AtomSegment;
use xmem_core::translate::{AttributeTranslator, CachePrimitive, PrefetcherPrimitive};
use xmem_core::xmemlib::{CallSite, XMemLib};

/// Pass-1 sink: records atom creation only (everything else is dropped).
#[derive(Debug, Default)]
pub struct ScanSink {
    atoms: Vec<(String, AtomAttributes)>,
    next_va: u64,
}

impl ScanSink {
    /// Creates an empty scan sink.
    pub fn new() -> Self {
        ScanSink {
            atoms: Vec::new(),
            next_va: 4096,
        }
    }

    /// The atom segment summarizing the scanned program.
    pub fn segment(&self) -> AtomSegment {
        let mut seg = AtomSegment::new();
        for (i, (label, attrs)) in self.atoms.iter().enumerate() {
            seg.push(StaticAtom::new(
                AtomId::new(i as u8),
                label.clone(),
                attrs.clone(),
            ));
        }
        seg
    }
}

impl TraceSink for ScanSink {
    fn op(&mut self, _op: Op) {}

    fn alloc(&mut self, bytes: u64, _atom: Option<AtomId>) -> u64 {
        let base = self.next_va;
        self.next_va += bytes.next_multiple_of(4096).max(4096);
        base
    }

    fn create_atom(&mut self, label: &str, attrs: AtomAttributes) -> AtomId {
        if let Some(i) = self.atoms.iter().position(|(l, _)| l == label) {
            return AtomId::new(i as u8);
        }
        let id = AtomId::new(self.atoms.len() as u8);
        self.atoms.push((label.to_owned(), attrs));
        id
    }

    fn map(&mut self, _atom: AtomId, _start: u64, _len: u64) {}
    fn unmap(&mut self, _start: u64, _len: u64) {}
    fn map_2d(&mut self, _atom: AtomId, _base: u64, _sx: u64, _sy: u64, _lx: u64) {}
    fn unmap_2d(&mut self, _base: u64, _sx: u64, _sy: u64, _lx: u64) {}
    fn activate(&mut self, _atom: AtomId) {}
    fn deactivate(&mut self, _atom: AtomId) {}
}

/// The memory side of the machine (everything the core's loads/stores see).
#[derive(Debug)]
struct MemSystem {
    hierarchy: Hierarchy,
    amu: AtomManagementUnit,
    cache_pat: Pat<CachePrimitive>,
    pf_pat: Pat<PrefetcherPrimitive>,
    os: Os,
    tlb: Option<Tlb>,
    xmem_enabled: bool,
    /// The core whose op is being served: accesses go to its private
    /// domain of the hierarchy.
    core: usize,
    /// Small direct-mapped VPN→PFN translate cache over the OS page table
    /// (indexed by the VPN's low bits). Workloads alternate between a few
    /// data structures on different pages — gemm touches three arrays per
    /// inner iteration — so a single entry thrashes; [`TC_ENTRIES`] slots
    /// remove the page-table binary search from the hot path entirely. It
    /// is *exact* (never changes a translation): [`Machine::alloc`] — the
    /// only path that mutates the page table — invalidates it.
    tc_vpn: [u64; TC_ENTRIES],
    tc_pfn: [u64; TC_ENTRIES],
    /// `log2(page_size)`; translation caching assumes power-of-two pages.
    page_shift: u32,
    /// Recently-warmed lines, direct-mapped by line index (the warm-path
    /// filter); `u64::MAX` means "slot empty".
    warm_lines: [u64; WARM_FILTER_ENTRIES],
    /// Whether the matching `warm_lines` entry has been warmed by a store
    /// (so the line's dirty bit is already set).
    warm_dirty: [bool; WARM_FILTER_ENTRIES],
}

/// `log2` of the warm-filter line granularity. Matches the hierarchy's
/// 64 B lines; a coarser value would skip real state changes.
const WARM_LINE_SHIFT: u32 = 6;

/// Warm-filter slots (power of two; covers the handful of interleaved
/// streams a kernel's inner loop cycles through).
const WARM_FILTER_ENTRIES: usize = 256;

/// Translate-cache slots (power of two; covers the handful of distinct
/// pages a kernel's inner loop cycles through).
const TC_ENTRIES: usize = 16;

/// `tc_vpn` value meaning "translate cache entry empty".
const TC_EMPTY: u64 = u64::MAX;

impl MemSystem {
    /// Translates `va`, consulting the direct-mapped cache first.
    #[inline]
    fn translate(&mut self, va: u64) -> u64 {
        let vpn = va >> self.page_shift;
        let slot = addr_to_index(vpn & (TC_ENTRIES as u64 - 1));
        if vpn == self.tc_vpn[slot] {
            return (self.tc_pfn[slot] << self.page_shift) | (va & ((1 << self.page_shift) - 1));
        }
        let pa = self
            .os
            .page_table()
            .translate(VirtAddr::new(va))
            .unwrap_or_else(|| panic!("access to unallocated VA {va:#x}"))
            .raw();
        self.tc_vpn[slot] = vpn;
        self.tc_pfn[slot] = pa >> self.page_shift;
        pa
    }

    /// Functional warmup access: touches the TLB (LRU/residency), the
    /// translate cache, cache tags/LRU/pinning, ALB/AMU state, and DRAM
    /// open rows — but produces no latency and no core-visible timing.
    /// Used by the sampled machine's warm phase so detailed windows do not
    /// open on cold state.
    fn warm_access(&mut self, va: u64, is_write: bool) {
        if self.warm_filtered(va, is_write) {
            return;
        }
        if let Some(tlb) = self.tlb.as_mut() {
            let _ = tlb.translate_cost(VirtAddr::new(va));
        }
        let pa = self.translate(va);
        let ctx = self.xmem_enabled.then_some(XmemContext {
            amu: &mut self.amu,
            cache_pat: &self.cache_pat,
            pf_pat: &self.pf_pat,
        });
        self.hierarchy.warm_access(pa, is_write, ctx);
    }

    /// The recently-warmed-line filter: whether a warming access to `va`
    /// can be skipped, noting it otherwise. Kernels touch each 64 B line
    /// several times in short order (8 doubles per line, interleaved
    /// across a few arrays), and a repeat access can only refresh LRU
    /// stamps that are already near-freshest. A small direct-mapped filter
    /// over the last lines warmed skips the full hierarchy walk for those
    /// repeats, which is most of the functional-warming cost on sequential
    /// streams. The approximation is bounded: only the lines warmed most
    /// recently are skipped, and a store after a clean access still
    /// walks, to set the dirty bit the first access did not.
    #[inline]
    fn warm_filtered(&mut self, va: u64, is_write: bool) -> bool {
        let line = va >> WARM_LINE_SHIFT;
        let slot = addr_to_index(line & (WARM_FILTER_ENTRIES as u64 - 1));
        if self.warm_lines[slot] == line && (!is_write || self.warm_dirty[slot]) {
            return true;
        }
        self.warm_lines[slot] = line;
        self.warm_dirty[slot] = is_write;
        false
    }
}

impl MemoryPath for MemSystem {
    #[inline]
    fn serve(&mut self, va: u64, attrs: OpAttrs, now: u64) -> u64 {
        let walk = self
            .tlb
            .as_mut()
            .map(|t| t.translate_cost(VirtAddr::new(va)))
            .unwrap_or(0);
        let pa = self.translate(va);
        let ctx = self.xmem_enabled.then_some(XmemContext {
            amu: &mut self.amu,
            cache_pat: &self.cache_pat,
            pf_pat: &self.pf_pat,
        });
        walk + self
            .hierarchy
            .serve_core(self.core, pa, attrs.write, now + walk, ctx)
    }
}

/// Live telemetry state: the series under construction plus the counters
/// read at the previous epoch boundary. Each sample reports the delta
/// since then, so its rates describe *that epoch*, not the run so far.
#[derive(Debug)]
struct TelemetryState {
    series: TelemetrySeries,
    prev: Counters,
}

/// Live sampling state: the schedule, the op/phase accounting, and the
/// per-window feature measurements.
///
/// Window metrics are deltas between the snapshot taken once the window's
/// detailed *ramp* has run (see below) and the snapshot at the window's
/// *close* (on the first non-detailed op), so warm-phase counter pollution
/// never enters a window's features. The run's raw cumulative counters, by
/// contrast, are a documented warm+detailed mixture under partial coverage
/// — the [`SamplingSummary`] metrics are the sampled estimates to read.
///
/// The ramp exists because the core's clock (`Core::now`) includes the
/// completion time of the latest outstanding miss: a window measured from
/// its very first detailed op opens with a drained pipeline (functional
/// warmup retires everything at the L1 latency) but closes mid-flight,
/// so the close-side overhang — up to a full DRAM latency — would bias
/// every window's cycle delta upward (the classic SMARTS end-of-window
/// drain bias). Running the first `window_ops / 2` detailed ops unmeasured
/// puts the clock's standing overhang in steady state before the open
/// snapshot — the ramp must span several DRAM latencies' worth of cycles,
/// which is why it scales with the window rather than the ROB — so the
/// in-flight overhang at open and close cancel to first order.
#[derive(Debug)]
struct SamplingState {
    spec: SamplingSpec,
    /// Global op index: how many sink ops the schedule has classified.
    ops_seen: u64,
    /// Ops executed through the detailed path.
    detailed_ops: u64,
    /// Ops executed through the functional-warmup path.
    warm_ops: u64,
    /// Detailed ops each window runs before the open snapshot is taken.
    ramp: u64,
    /// A detailed window is in progress (some detailed op has run since
    /// the last close).
    window_active: bool,
    /// Detailed ops executed in the current window so far.
    window_detailed: u64,
    /// Counters at the end of the current window's ramp, once read.
    window_start: Option<Counters>,
    /// The counters of each closed detailed window, in time order.
    windows: Vec<Counters>,
}

/// One member of the machine: the timing tier. It reads the member's lane
/// of core 0 and the hierarchy's DRAM of the same index, owns its
/// telemetry and sampling counters, and assembles the member's report.
///
/// Everything a leaf reads outside itself is either time-free state of the
/// front or of its L3 node, or XMem state that only an XMem member reads:
/// a Baseline leaf reports the front's ALB and XMem-instruction counters
/// as absent, exactly as a Baseline machine of its own would count them.
#[derive(Debug)]
struct Leaf {
    /// This member's index in the group: its lane of each core and its
    /// DRAM's index in the hierarchy.
    member: usize,
    /// Whether this member runs XMem.
    xmem: bool,
    /// Instruction count at which the next telemetry sample fires.
    /// `u64::MAX` when telemetry is disabled, so no op ever reaches it.
    next_sample_at: u64,
    telemetry: Option<TelemetryState>,
    /// Interval-sampling state; `None` (full detail everywhere) unless
    /// [`Leaf::enable_sampling`] armed a schedule.
    sampling: Option<SamplingState>,
}

impl Leaf {
    /// Turns on epoch sampling: one [`TelemetrySample`] per
    /// `epoch_instructions` retired (clamped to at least 1).
    fn enable_telemetry(&mut self, epoch_instructions: u64) {
        let series = TelemetrySeries::new(epoch_instructions);
        self.next_sample_at = series.epoch_instructions;
        self.telemetry = Some(TelemetryState {
            series,
            prev: Counters::default(),
        });
    }

    /// Arms interval sampling: ops execute per `spec`'s fast-forward /
    /// warmup / detailed schedule and every detailed window is measured.
    fn enable_sampling(&mut self, spec: SamplingSpec) {
        // Ramp < window_ops always (the /2 guarantees it), so every window
        // longer than 1 op measures something.
        let ramp = spec.window_ops / 2;
        self.sampling = Some(SamplingState {
            spec,
            ops_seen: 0,
            detailed_ops: 0,
            warm_ops: 0,
            ramp,
            window_active: false,
            window_detailed: 0,
            window_start: None,
            windows: Vec::new(),
        });
    }

    /// Marks a detailed window in progress and, once its ramp has run,
    /// snapshots the cumulative counters so the window's features are pure
    /// steady-state deltas. Idempotent within a window.
    fn open_window(&mut self, core: &Core, mem: &MemSystem) {
        let need_snap = match self.sampling.as_mut() {
            Some(st) => {
                st.window_active = true;
                st.window_start.is_none() && st.window_detailed >= st.ramp
            }
            None => false,
        };
        if need_snap {
            let snap = self.snapshot(core, mem);
            if let Some(st) = self.sampling.as_mut() {
                st.window_start = Some(snap);
            }
        }
    }

    /// Closes the in-progress detailed window (no-op when none is),
    /// recording its feature vector if the ramp completed and a measured
    /// segment exists.
    fn close_window(&mut self, core: &Core, mem: &MemSystem) {
        let start = match self.sampling.as_mut() {
            Some(st) if st.window_active => {
                st.window_active = false;
                st.window_detailed = 0;
                st.window_start.take()
            }
            _ => return,
        };
        let Some(start) = start else {
            // The window ended inside its ramp: nothing measured.
            return;
        };
        let window = self.snapshot(core, mem).since(&start);
        // simlint: allow(unwrap, reason = "guarded by the window_active match above: sampling state is present")
        let st = self.sampling.as_mut().expect("sampling state present");
        st.windows.push(window);
    }

    /// Fires the sampling boundary that falls at the current op, if any
    /// (a window's close, or its ramp snapshot), and returns the phase the
    /// next ops execute in plus how many of the next `remaining` ops run
    /// before the following phase edge or ramp snapshot. Unsampled, every
    /// op is detailed and nothing here splits the run. The answer depends
    /// on op counts only, so every leaf of a group gives the same one.
    fn enter_phase(
        &mut self,
        core: &Core,
        mem: &MemSystem,
        remaining: usize,
    ) -> (SamplePhase, usize) {
        let Some(st) = self.sampling.as_ref() else {
            return (SamplePhase::Detailed, remaining);
        };
        let phase = st.spec.phase_of(st.ops_seen);
        let mut run = st.spec.phase_run(st.ops_seen);
        if phase == SamplePhase::Detailed {
            self.open_window(core, mem);
            // simlint: allow(unwrap, reason = "checked at entry; open_window does not clear the sampling state")
            let st = self.sampling.as_ref().expect("sampling state present");
            if st.window_start.is_none() {
                // open_window declined to snapshot, so the ramp still has
                // `ramp - window_detailed` ops to run before it does.
                run = run.min(st.ramp - st.window_detailed);
            }
        } else {
            self.close_window(core, mem);
        }
        (phase, run.min(remaining as u64) as usize)
    }

    /// Accounts `n` ops run in `phase` to the sampling schedule.
    fn account(&mut self, phase: SamplePhase, n: usize) {
        if let Some(st) = self.sampling.as_mut() {
            let n = n as u64;
            st.ops_seen += n;
            match phase {
                SamplePhase::Detailed => {
                    st.detailed_ops += n;
                    st.window_detailed += n;
                }
                SamplePhase::Warm => st.warm_ops += n,
                SamplePhase::FastForward => {}
            }
        }
    }

    /// Splits ops `start..end` of `batch` at the op whose retirement brings
    /// [`Core::instructions`] up to the next telemetry boundary. Returns the
    /// end of the ops to run now and whether a sample is due after them. A
    /// load or store retires one instruction and a `Compute` op the count
    /// in its address lane, so the split lands on exactly the op after
    /// which the per-op path's boundary check fires.
    fn sample_split(
        &self,
        core: &Core,
        batch: &OpBatch,
        start: usize,
        end: usize,
    ) -> (usize, bool) {
        // Positive: every sample re-arms the boundary above the count.
        let mut room = self.next_sample_at - core.instructions();
        // An op retires at most `u32::MAX` instructions (an `Op::Compute`
        // count), so a boundary this far out cannot fall in the range.
        if room > (end - start) as u64 * u64::from(u32::MAX) {
            return (end, false);
        }
        for i in start..end {
            let retired = match batch.kind(i) {
                OpKind::Compute => batch.addr(i),
                OpKind::Load | OpKind::Store => 1,
            };
            if retired >= room {
                return (i + 1, true);
            }
            room -= retired;
        }
        (end, false)
    }

    /// Captures the current cumulative counters across all layers.
    fn snapshot(&self, core: &Core, mem: &MemSystem) -> Counters {
        let core = core.lane_stats(self.member);
        let h = &mem.hierarchy;
        let dram = h.member_dram(self.member);
        let dram_stats = dram.stats();
        let (alb, amu_invalidations) = if self.xmem {
            (mem.amu.alb_stats(), mem.amu.alb_invalidations())
        } else {
            (AlbStats::default(), 0)
        };
        let stride = h
            .member_stride_prefetch_stats(self.member)
            .unwrap_or_default();
        let xmem_pf = h.member_xmem_prefetch_stats(self.member);
        Counters {
            instructions: core.instructions,
            cycles: core.cycles,
            l1_misses: h.l1_stats().misses(),
            l2_misses: h.l2_stats().misses(),
            l3_misses: h.member_l3_stats(self.member).misses(),
            prefetch_issued: stride.issued + xmem_pf.issued,
            prefetch_useful: stride.useful + xmem_pf.useful,
            row_hits: dram_stats.row_hits,
            dram_accesses: dram_stats.accesses(),
            busy_bank_cycles: dram.busy_bank_cycles(),
            alb_hits: alb.hits,
            alb_lookups: alb.lookups(),
            amu_invalidations,
        }
    }

    /// Closes the current epoch: records per-epoch deltas plus
    /// instantaneous gauges, then arms the next boundary.
    fn take_sample(&mut self, core: &Core, mem: &MemSystem) {
        let Some(prev) = self.telemetry.as_ref().map(|t| t.prev) else {
            // Not enabled — only reachable if `next_sample_at` was armed
            // without state; disarm so the per-op check stays cold.
            self.next_sample_at = u64::MAX;
            return;
        };
        let cur = self.snapshot(core, mem);
        let delta = cur.since(&prev);
        let h = &mem.hierarchy;
        let dram = h.member_dram(self.member);
        let total_banks = dram.config().total_banks() as u64;
        let sample = TelemetrySample {
            instructions: cur.instructions,
            cycles: cur.cycles,
            rob_load_occupancy: core.rob_load_occupancy() as u64,
            outstanding_loads: core.lane_outstanding_loads(self.member) as u64,
            l2_psel: h.l2_psel() as f64,
            l3_psel: h.member_l3_psel(self.member) as f64,
            prefetch_issued: delta.prefetch_issued,
            prefetch_useful: delta.prefetch_useful,
            bank_busy_fraction: ratio(delta.busy_bank_cycles, delta.cycles * total_banks),
            queue_depth: dram.queued_requests(core.lane_now(self.member)) as f64,
            amu_invalidations: delta.amu_invalidations,
            ..TelemetrySample::default()
        }
        .with_metrics(&delta);
        // simlint: allow(unwrap, reason = "sample() is only called when next_sample_at is armed, which implies telemetry state")
        let state = self.telemetry.as_mut().expect("telemetry state present");
        let epoch = state.series.epoch_instructions;
        state.series.samples.push(sample);
        state.prev = cur;
        self.next_sample_at = (cur.instructions / epoch + 1) * epoch;
    }

    /// Everything the member's run produced: report, telemetry series, and
    /// (for sampled runs) the sampling summary. Closes any detailed window
    /// still open at generator end (a run ending mid-window is measured,
    /// not dropped) and flushes the trailing partial telemetry epoch, so
    /// the series always covers the whole run. `lib` has counted the
    /// program's instructions.
    fn finish(mut self, core: &Core, mem: &MemSystem, lib: &XMemLib) -> RunOutput {
        self.close_window(core, mem);
        let sampling = self.sampling.take().map(|st| {
            SamplingSummary::from_windows(
                st.spec,
                st.ops_seen,
                st.detailed_ops,
                st.warm_ops,
                &st.windows,
            )
        });
        if let Some(state) = &self.telemetry {
            if core.instructions() > state.prev.instructions {
                self.take_sample(core, mem);
            }
        }
        let telemetry = self.telemetry.take().map(|t| t.series);
        let h = &mem.hierarchy;
        let m = self.member;
        let (alb, xmem_instructions, instruction_overhead) = if self.xmem {
            (
                mem.amu.alb_stats(),
                lib.counter().xmem_instructions(),
                lib.counter().overhead_fraction(),
            )
        } else {
            (AlbStats::default(), 0, 0.0)
        };
        let report = RunReport {
            core: core.lane_stats(m),
            l1: h.l1_stats(),
            l2: h.l2_stats(),
            l3: h.member_l3_stats(m),
            dram: h.member_dram(m).stats(),
            alb,
            xmem_instructions,
            instruction_overhead,
            xmem_prefetch: h.member_xmem_prefetch_stats(m),
            stride_prefetch: h.member_stride_prefetch_stats(m),
        };
        RunOutput {
            report,
            telemetry,
            sampling,
        }
    }
}

/// The executing machine (pass 2). Implements [`TraceSink`] so the workload
/// generator drives it directly.
///
/// A machine simulates one *group*: members that differ only below the
/// private caches ([`GroupKey`]) share one front — the OS, translate
/// cache, TLB, warm-line filter, AMU/ALB/PATs, `XMemLib` and the private
/// L1/L2 — and one core model with a timing lane per member, while each
/// member has its own leaf (telemetry, sampling, report) and, through the
/// hierarchy, its own L3 node and DRAM. A one-member machine serves each
/// access through all tiers at once; a larger group runs each stretch of a
/// batch through the front once and fans it out (see `op_batch`).
#[derive(Debug)]
pub struct Machine {
    mem: MemSystem,
    lib: XMemLib,
    labels: BTreeMap<String, AtomId>,
    next_site: u32,
    /// The cores, each with one lane per member.
    cores: Vec<Core>,
    /// Fixed latency warm-phase loads retire with (the L1 hit latency):
    /// cheap, deterministic, and close enough for functional warmup.
    warm_load_latency: u64,
    leaves: Vec<Leaf>,
}

/// Synthetic call-site file for atoms created through the sink interface.
const SINK_SITE_FILE: &str = "<workload>";

/// Everything above the L3 that a run's configuration sets: runs whose
/// keys are equal (on the same workload) produce identical front state —
/// the same OS page table, translations, TLB, AMU contents, PATs and
/// private-cache contents — so one machine can simulate them all as a
/// group. The L3, stride prefetching, the XMem mode, DRAM timing and the
/// Ideal-RBL DRAM sit below the key, per member. The core's shape is in
/// the key: the members step one core model, each in a lane of its own.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupKey {
    frame_policy: FramePolicyKind,
    /// The address mapping and DRAM geometry XMem placement reads; `None`
    /// under the other frame policies, which read neither.
    placement: Option<(AddressMapping, DramConfig)>,
    phys_bytes: u64,
    tlb: Option<TlbConfig>,
    l1: CacheConfig,
    l2: CacheConfig,
    /// The attribute translator's row size.
    row_bytes: u64,
    /// The core's issue width, ROB entries and load-queue entries.
    core: (u32, usize, usize),
}

impl GroupKey {
    /// The key of `config`.
    pub fn of(config: &SystemConfig) -> Self {
        GroupKey {
            frame_policy: config.frame_policy,
            placement: (config.frame_policy == FramePolicyKind::XmemPlacement)
                .then_some((config.mapping, config.dram)),
            phys_bytes: config.phys_bytes,
            tlb: config.tlb,
            l1: config.hierarchy.l1,
            l2: config.hierarchy.l2,
            row_bytes: config.dram.row_bytes,
            core: (
                config.core.issue_width,
                config.core.rob_entries,
                config.core.lq_entries,
            ),
        }
    }
}

impl Machine {
    /// Builds the machine for the group `configs` with `cores` cores per
    /// member, loading `segment` (the scanned program) into the OS/XMem
    /// tables. `lib` holds the atoms already created (a co-run creates all
    /// of them before it runs); `bus` makes the private domains
    /// MESI-coherent, and `pin_exempt` atoms are never pinned in the L3.
    /// The front is built from the first config; it runs XMem when any
    /// member does.
    ///
    /// # Panics
    ///
    /// Panics if the segment does not load, or if the configs do not share
    /// one [`GroupKey`] — or, with more than one, if a bus or more than one
    /// core is asked for: only single-core runs group
    /// ([`Hierarchy::with_members`]).
    pub(crate) fn new(
        configs: &[SystemConfig],
        segment: &AtomSegment,
        lib: XMemLib,
        cores: usize,
        coherent: bool,
        pin_exempt: BTreeSet<AtomId>,
    ) -> Self {
        let config = &configs[0];
        assert!(
            configs
                .iter()
                .all(|c| GroupKey::of(c) == GroupKey::of(config)),
            "a machine's members share one group key"
        );
        let translator = AttributeTranslator::with_row_bytes(config.dram.row_bytes);
        // simlint: allow(unwrap, reason = "workload-invariant violation; the sweep's catch_unwind surfaces it as RunOutcome::Failed")
        let loaded = load_segment(ProcessId(0), segment, &translator).expect("program load failed");
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
        let amu = AtomManagementUnit::new(AmuConfig {
            aam: AamConfig {
                phys_bytes: config.phys_bytes,
                ..AamConfig::default()
            },
            alb_entries: 256,
            page_size: 4096,
        });
        let member_xmem = |c: &SystemConfig| c.hierarchy.xmem != cache_sim::XmemMode::Off;
        let xmem_enabled = configs.iter().any(member_xmem);
        let mut cache_pat = Pat::new();
        let mut pf_pat = Pat::new();
        if xmem_enabled {
            cache_pat.fill_from_gat(&loaded.process.gat, |a| translator.for_cache(a));
            pf_pat.fill_from_gat(&loaded.process.gat, |a| translator.for_prefetcher(a));
        }
        let members = configs
            .iter()
            .map(|c| {
                let dram = if c.ideal_rbl {
                    Dram::new_ideal_rbl(c.dram, c.mapping)
                } else {
                    Dram::new(c.dram, c.mapping)
                };
                (c.hierarchy, dram)
            })
            .collect::<Vec<_>>();
        let mut hierarchy = Hierarchy::with_members(members, cores, coherent);
        hierarchy.set_pin_exempt(pin_exempt);
        let leaves = configs
            .iter()
            .enumerate()
            .map(|(member, c)| Leaf {
                member,
                xmem: member_xmem(c),
                next_sample_at: u64::MAX,
                telemetry: None,
                sampling: None,
            })
            .collect();
        Machine {
            mem: MemSystem {
                hierarchy,
                amu,
                cache_pat,
                pf_pat,
                tlb: config.tlb.map(Tlb::new),
                xmem_enabled,
                core: 0,
                tc_vpn: [TC_EMPTY; TC_ENTRIES],
                tc_pfn: [0; TC_ENTRIES],
                page_shift: os.page_table().page_size().trailing_zeros(),
                warm_lines: [u64::MAX; WARM_FILTER_ENTRIES],
                warm_dirty: [false; WARM_FILTER_ENTRIES],
                os,
            },
            lib,
            labels: BTreeMap::new(),
            next_site: 0,
            cores: (0..cores)
                .map(|_| Core::with_lanes(config.core, configs.len()))
                .collect(),
            warm_load_latency: config.hierarchy.l1.latency,
            leaves,
        }
    }

    /// Runs `op` on core `core` of a one-member machine, its accesses
    /// served by that core's domain.
    #[inline]
    pub(crate) fn step_core(&mut self, core: usize, op: Op) {
        self.mem.core = core;
        self.cores[core].step(op, &mut self.mem);
    }

    /// The cores, in index order.
    pub(crate) fn cores(&self) -> &[Core] {
        &self.cores
    }

    /// The cache hierarchy and DRAM shared by the cores.
    pub(crate) fn hierarchy(&self) -> &Hierarchy {
        &self.mem.hierarchy
    }

    /// The AMU's lookaside-buffer statistics.
    pub(crate) fn alb_stats(&self) -> AlbStats {
        self.mem.amu.alb_stats()
    }

    /// Executes one op of a one-member machine under the sampling
    /// schedule.
    fn sampled_op(&mut self, op: Op) {
        let leaf = &mut self.leaves[0];
        let core = &mut self.cores[0];
        // simlint: allow(unwrap, reason = "only called from the sampled dispatch, which checked sampling.is_some()")
        let st = leaf.sampling.as_ref().expect("sampling state present");
        let spec = st.spec;
        let phase = spec.phase_of(st.ops_seen);
        let window_active = st.window_active;
        match phase {
            SamplePhase::Detailed => {
                leaf.open_window(core, &self.mem);
                core.step(op, &mut self.mem);
                if let Some(st) = leaf.sampling.as_mut() {
                    st.detailed_ops += 1;
                    st.window_detailed += 1;
                }
            }
            SamplePhase::Warm => {
                if window_active {
                    leaf.close_window(core, &self.mem);
                }
                match op {
                    Op::Load { addr, .. } => self.mem.warm_access(addr, false),
                    Op::Store { addr } => self.mem.warm_access(addr, true),
                    Op::Compute(_) => {}
                }
                core.step_fixed(op, self.warm_load_latency);
                if let Some(st) = leaf.sampling.as_mut() {
                    st.warm_ops += 1;
                }
            }
            SamplePhase::FastForward => {
                if window_active {
                    leaf.close_window(core, &self.mem);
                }
                // Functional warming: caches, TLB, DRAM rows and AMU stats
                // stay live through the fast-forward, or every window would
                // open on partially-cold state and over-count misses
                // (cold-state bias dwarfs every other sampling error).
                // Only the core's timing is skipped.
                match op {
                    Op::Load { addr, .. } => self.mem.warm_access(addr, false),
                    Op::Store { addr } => self.mem.warm_access(addr, true),
                    Op::Compute(_) => {}
                }
                core.skip(op);
            }
        }
        if let Some(st) = leaf.sampling.as_mut() {
            st.ops_seen += 1;
        }
        if core.instructions() >= leaf.next_sample_at {
            leaf.take_sample(core, &self.mem);
        }
    }

    /// Runs ops `start..end` of `batch` in `phase`. The memory side goes
    /// first where it is time-free: a warming stretch warms every member's
    /// memory state, and a group's detailed stretch runs through the front
    /// and the L3 nodes. Then core 0 steps the stretch once for all its
    /// lanes: a detailed stretch against the memory system (a one-member
    /// machine serves each access through all tiers at once; a group
    /// replays the nodes' DRAM requests into each member's DRAM at its own
    /// times), a warm stretch at the fixed L1 latency, and a fast-forward
    /// stretch as one tally.
    fn run_stretch(&mut self, phase: SamplePhase, batch: &OpBatch, start: usize, end: usize) {
        let group = self.leaves.len() > 1;
        if group {
            self.mem.hierarchy.begin_stretch();
        }
        let detailed = phase == SamplePhase::Detailed;
        if group || !detailed {
            for j in start..end {
                let is_write = match batch.kind(j) {
                    OpKind::Load => false,
                    OpKind::Store => true,
                    OpKind::Compute => continue,
                };
                match (group, detailed) {
                    (true, true) => self.mem.record(batch.addr(j), is_write),
                    (true, false) => self.mem.record_warm(batch.addr(j), is_write),
                    // Functional warming, as in `sampled_op`: memory state
                    // stays live through warm and fast-forward stretches.
                    (false, _) => self.mem.warm_access(batch.addr(j), is_write),
                }
            }
        }
        if group {
            self.mem.fan_out();
            if !detailed {
                self.mem.hierarchy.warm_members();
            }
        }
        let core = &mut self.cores[0];
        match phase {
            SamplePhase::Detailed if group => {
                let mut replay = self.mem.hierarchy.group_replay();
                core.step_group(batch, start, end, &mut replay);
                debug_assert!(replay.is_done(), "the lanes served every access");
            }
            SamplePhase::Detailed => core.step_batch_range(batch, start, end, &mut self.mem),
            SamplePhase::Warm => core.step_group(
                batch,
                start,
                end,
                &mut FixedLatency {
                    latency: self.warm_load_latency,
                },
            ),
            SamplePhase::FastForward => core.skip_batch_range(batch, start, end),
        }
    }

    /// Everything the run produced, one output per member in member order.
    fn finish(mut self) -> Vec<RunOutput> {
        let instructions = self.cores[0].instructions();
        self.lib.counter_mut().count_program(instructions);
        let (core, mem, lib) = (&self.cores[0], &self.mem, &self.lib);
        self.leaves
            .into_iter()
            .map(|leaf| leaf.finish(core, mem, lib))
            .collect()
    }
}

impl MemSystem {
    /// A group's detailed access to `va`: the TLB, translation, and the
    /// hierarchy's front, noted for the L3 nodes and the leaves.
    #[inline]
    fn record(&mut self, va: u64, is_write: bool) {
        let walk = self
            .tlb
            .as_mut()
            .map(|t| t.translate_cost(VirtAddr::new(va)))
            .unwrap_or(0);
        let pa = self.translate(va);
        let ctx = self.xmem_enabled.then_some(XmemContext {
            amu: &mut self.amu,
            cache_pat: &self.cache_pat,
            pf_pat: &self.pf_pat,
        });
        self.hierarchy.record(pa, is_write, walk, ctx);
    }

    /// A group's functional-warming access to `va`: the front part of
    /// [`MemSystem::warm_access`].
    fn record_warm(&mut self, va: u64, is_write: bool) {
        if self.warm_filtered(va, is_write) {
            return;
        }
        if let Some(tlb) = self.tlb.as_mut() {
            let _ = tlb.translate_cost(VirtAddr::new(va));
        }
        let pa = self.translate(va);
        let ctx = self.xmem_enabled.then_some(XmemContext {
            amu: &mut self.amu,
            cache_pat: &self.cache_pat,
            pf_pat: &self.pf_pat,
        });
        self.hierarchy.record_warm(pa, is_write, ctx);
    }

    /// Runs the hierarchy's L3 nodes over the recorded stretch.
    fn fan_out(&mut self) {
        let ctx = self.xmem_enabled.then_some(XmemContext {
            amu: &mut self.amu,
            cache_pat: &self.cache_pat,
            pf_pat: &self.pf_pat,
        });
        self.hierarchy.fan_out(ctx);
    }
}

impl TraceSink for Machine {
    fn op(&mut self, op: Op) {
        if self.leaves.len() > 1 {
            let mut batch = OpBatch::new();
            batch.push_op(op, 0);
            self.op_batch(&batch);
            return;
        }
        if self.leaves[0].sampling.is_some() {
            self.sampled_op(op);
            return;
        }
        let (leaf, core) = (&mut self.leaves[0], &mut self.cores[0]);
        core.step(op, &mut self.mem);
        if core.instructions() >= leaf.next_sample_at {
            leaf.take_sample(core, &self.mem);
        }
    }

    /// Runs the batch one boundary at a time: each stretch of ops up to the
    /// next sampling phase edge, ramp snapshot or telemetry sample goes
    /// through its phase's tight loop, then that boundary fires. The
    /// boundaries are exactly where the per-op path ([`TraceSink::op`])
    /// fires them, so the two paths are observably identical. With nothing
    /// armed the batch is one stretch. Boundaries depend on op and
    /// instruction counts only, so every member of a group splits the
    /// batch at the same ops, and a boundary fires for each member after
    /// the whole group has run the stretch.
    fn op_batch(&mut self, batch: &OpBatch) {
        let len = batch.len();
        let mut i = 0;
        while i < len {
            let mut stretch = None;
            for leaf in &mut self.leaves {
                let s = leaf.enter_phase(&self.cores[0], &self.mem, len - i);
                debug_assert!(stretch.is_none_or(|t| t == s), "members split alike");
                stretch = Some(s);
            }
            // simlint: allow(unwrap, reason = "a machine has at least one member")
            let (phase, run) = stretch.expect("a machine has a member");
            let (end, sample_due) = self.leaves[0].sample_split(&self.cores[0], batch, i, i + run);
            self.run_stretch(phase, batch, i, end);
            for leaf in &mut self.leaves {
                leaf.account(phase, end - i);
                if sample_due {
                    leaf.take_sample(&self.cores[0], &self.mem);
                }
            }
            i = end;
        }
    }

    fn alloc(&mut self, bytes: u64, atom: Option<AtomId>) -> u64 {
        // The page table is about to change: drop the translate cache.
        // `Os::malloc` maps only fresh pages today, but `map_page` can
        // replace a mapping, and this wipe is what keeps the cache exact
        // whatever the OS does. It costs one 128-byte store per allocation.
        self.mem.tc_vpn = [TC_EMPTY; TC_ENTRIES];
        self.mem
            .os
            .malloc(bytes, atom)
            // simlint: allow(unwrap, reason = "workload-invariant violation; the sweep's catch_unwind surfaces it as RunOutcome::Failed")
            .expect("simulated physical memory exhausted")
            .raw()
    }

    fn create_atom(&mut self, label: &str, attrs: AtomAttributes) -> AtomId {
        if let Some(&id) = self.labels.get(label) {
            return id;
        }
        let site = CallSite {
            file: SINK_SITE_FILE,
            line: self.next_site,
        };
        self.next_site += 1;
        let id = self
            .lib
            .create_atom(site, label, attrs)
            // simlint: allow(unwrap, reason = "workload-invariant violation; the sweep's catch_unwind surfaces it as RunOutcome::Failed")
            .expect("atom limit exceeded");
        self.labels.insert(label.to_owned(), id);
        id
    }

    fn map(&mut self, atom: AtomId, start: u64, len: u64) {
        if !self.mem.xmem_enabled {
            return;
        }
        self.lib
            .atom_map(
                &mut self.mem.amu,
                self.mem.os.page_table(),
                atom,
                VirtAddr::new(start),
                len,
            )
            // simlint: allow(unwrap, reason = "workload-invariant violation; the sweep's catch_unwind surfaces it as RunOutcome::Failed")
            .expect("ATOM_MAP failed");
    }

    fn unmap(&mut self, start: u64, len: u64) {
        if !self.mem.xmem_enabled {
            return;
        }
        self.lib
            .atom_unmap(
                &mut self.mem.amu,
                self.mem.os.page_table(),
                VirtAddr::new(start),
                len,
            )
            // simlint: allow(unwrap, reason = "workload-invariant violation; the sweep's catch_unwind surfaces it as RunOutcome::Failed")
            .expect("ATOM_UNMAP failed");
    }

    fn map_2d(&mut self, atom: AtomId, base: u64, size_x: u64, size_y: u64, len_x: u64) {
        if !self.mem.xmem_enabled {
            return;
        }
        self.lib
            .atom_map_2d(
                &mut self.mem.amu,
                self.mem.os.page_table(),
                atom,
                VirtAddr::new(base),
                size_x,
                size_y,
                len_x,
            )
            // simlint: allow(unwrap, reason = "workload-invariant violation; the sweep's catch_unwind surfaces it as RunOutcome::Failed")
            .expect("ATOM_MAP2D failed");
    }

    fn unmap_2d(&mut self, base: u64, size_x: u64, size_y: u64, len_x: u64) {
        if !self.mem.xmem_enabled {
            return;
        }
        self.lib
            .atom_unmap_2d(
                &mut self.mem.amu,
                self.mem.os.page_table(),
                VirtAddr::new(base),
                size_x,
                size_y,
                len_x,
            )
            // simlint: allow(unwrap, reason = "workload-invariant violation; the sweep's catch_unwind surfaces it as RunOutcome::Failed")
            .expect("ATOM_UNMAP2D failed");
    }

    fn activate(&mut self, atom: AtomId) {
        if !self.mem.xmem_enabled {
            return;
        }
        self.lib
            .atom_activate(&mut self.mem.amu, self.mem.os.page_table(), atom)
            // simlint: allow(unwrap, reason = "workload-invariant violation; the sweep's catch_unwind surfaces it as RunOutcome::Failed")
            .expect("ATOM_ACTIVATE failed");
    }

    fn deactivate(&mut self, atom: AtomId) {
        if !self.mem.xmem_enabled {
            return;
        }
        self.lib
            .atom_deactivate(&mut self.mem.amu, self.mem.os.page_table(), atom)
            // simlint: allow(unwrap, reason = "workload-invariant violation; the sweep's catch_unwind surfaces it as RunOutcome::Failed")
            .expect("ATOM_DEACTIVATE failed");
    }
}

/// A workload generator the two-pass runner can replay into any sink type.
///
/// The generic method is the point: implementors written against a concrete
/// `S` monomorphize, so the executing pass inlines generator → batch
/// emitter → machine with no per-op virtual dispatch. A closure over
/// `&mut dyn TraceSink` is a generator too (every sink the runner passes
/// is sized, so it coerces to the trait object), at one virtual call per
/// sink call.
pub trait Generator {
    /// Replays the workload into `sink`. Must be deterministic: the runner
    /// calls this twice (scan pass, then execute pass) and the two replays
    /// must emit the same trace.
    fn emit<S: TraceSink>(&self, sink: &mut S);
}

impl<F: Fn(&mut dyn TraceSink)> Generator for F {
    fn emit<S: TraceSink>(&self, sink: &mut S) {
        self(sink);
    }
}

/// Everything one simulated run produced.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// Final cumulative statistics. Under partial-coverage sampling these
    /// are a warm+detailed mixture — read the sampled estimates from
    /// [`RunOutput::sampling`] instead.
    pub report: RunReport,
    /// Epoch-sampled telemetry series, when enabled.
    pub telemetry: Option<TelemetrySeries>,
    /// Interval-sampling summary, when a [`SamplingSpec`] was set.
    pub sampling: Option<SamplingSummary>,
}

/// Runs `generator` on a machine configured by `config`: the two-pass
/// compile/load/execute flow, with the executing pass buffered into
/// [`OpBatch`]es. Deterministic: identical inputs give identical outputs.
/// A one-member [`run_group`].
///
/// `epoch` additionally samples a [`TelemetrySeries`] every that many
/// retired instructions; `sampling` executes under an interval
/// [`SamplingSpec`] (`None` runs fully detailed). Telemetry is
/// observational only — the report is identical with or without it — and
/// a 100%-coverage spec ([`SamplingSpec::full_coverage`]) leaves the report
/// byte-identical to `None` (the byte-identity suite pins both).
///
/// # Examples
///
/// ```
/// use workloads::polybench::{KernelParams, PolybenchKernel};
/// use workloads::sink::TraceSink;
/// use xmem_sim::{run, SystemConfig, SystemKind};
///
/// let cfg = SystemConfig::scaled_use_case1(64 << 10, SystemKind::Xmem);
/// let p = KernelParams { n: 24, tile_bytes: 2048, steps: 2, reuse: 200 };
/// let gemm = |s: &mut dyn TraceSink| PolybenchKernel::Gemm.generate(&p, s);
/// let out = run(&cfg, &gemm, Some(1_000), None);
/// assert!(out.report.core.cycles > 0);
/// let series = out.telemetry.expect("telemetry was enabled");
/// assert_eq!(
///     series.samples.last().map(|s| s.instructions),
///     Some(out.report.core.instructions)
/// );
/// ```
pub fn run<G: Generator>(
    config: &SystemConfig,
    generator: &G,
    epoch: Option<u64>,
    sampling: Option<SamplingSpec>,
) -> RunOutput {
    only(run_group(
        std::slice::from_ref(config),
        generator,
        epoch,
        sampling,
    ))
}

/// Runs `generator` once for every config of a group — configs that
/// share a [`GroupKey`] — and returns one output per config, in order,
/// each equal to what [`run`] returns for that config alone: one scan and
/// load, one generator pass and one front serve the whole group.
///
/// # Panics
///
/// Panics if `configs` is empty or its configs do not share a key.
pub fn run_group<G: Generator>(
    configs: &[SystemConfig],
    generator: &G,
    epoch: Option<u64>,
    sampling: Option<SamplingSpec>,
) -> Vec<RunOutput> {
    let mut machine = prologue(configs, generator, epoch, sampling);
    {
        let mut emitter = BatchEmitter::new(&mut machine);
        generator.emit(&mut emitter);
        // Explicit tail flush: drop-without-flush is a debug assertion on
        // the emitter, so the trailing partial batch is always accounted.
        emitter.flush();
    }
    machine.finish()
}

/// Scalar reference arm for the byte-identity suite: identical to [`run`]
/// except the generator drives the machine one op at a time — no
/// [`BatchEmitter`], so every op takes the per-op dispatch. Exists so tests
/// can prove the batched loop changes nothing; not part of the supported
/// API.
#[doc(hidden)]
pub fn run_scalar<G: Generator>(
    config: &SystemConfig,
    generator: &G,
    epoch: Option<u64>,
    sampling: Option<SamplingSpec>,
) -> RunOutput {
    let mut machine = prologue(std::slice::from_ref(config), generator, epoch, sampling);
    generator.emit(&mut machine);
    only(machine.finish())
}

/// The output of a one-member machine.
fn only(mut outputs: Vec<RunOutput>) -> RunOutput {
    debug_assert_eq!(outputs.len(), 1);
    // simlint: allow(unwrap, reason = "a one-member machine finishes with one output")
    outputs.pop().expect("one member, one output")
}

/// The prologue of every run: scans the program (compile-time atom
/// summarization), loads its segment (GAT, translator, PATs, placement
/// primitives), builds the machine and arms telemetry and sampling.
fn prologue<G: Generator>(
    configs: &[SystemConfig],
    generator: &G,
    epoch: Option<u64>,
    sampling: Option<SamplingSpec>,
) -> Machine {
    let mut scan = ScanSink::new();
    generator.emit(&mut scan);
    let mut machine = Machine::new(
        configs,
        &scan.segment(),
        XMemLib::new(),
        1,
        false,
        BTreeSet::new(),
    );
    for leaf in &mut machine.leaves {
        if let Some(epoch) = epoch {
            leaf.enable_telemetry(epoch);
        }
        if let Some(spec) = sampling {
            leaf.enable_sampling(spec);
        }
    }
    machine
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemKind;
    use crate::harness::WorkloadSpec;
    use workloads::polybench::{KernelParams, PolybenchKernel};

    fn params() -> KernelParams {
        KernelParams {
            n: 24,
            tile_bytes: 2048,
            steps: 2,
            reuse: 200,
        }
    }

    /// `kernel` at the test problem size.
    fn kernel(kernel: PolybenchKernel) -> WorkloadSpec {
        WorkloadSpec::kernel(kernel, params())
    }

    #[test]
    fn baseline_and_xmem_run_same_work() {
        let gemm = kernel(PolybenchKernel::Gemm);
        let cfg = |kind| SystemConfig::scaled_use_case1(64 << 10, kind);
        let base = run(&cfg(SystemKind::Baseline), &gemm, None, None).report;
        let xmem = run(&cfg(SystemKind::Xmem), &gemm, None, None).report;
        assert_eq!(base.core.instructions, xmem.core.instructions);
        assert_eq!(base.core.loads, xmem.core.loads);
        assert_eq!(base.xmem_instructions, 0);
        assert!(xmem.xmem_instructions > 0);
    }

    #[test]
    fn runs_are_deterministic() {
        let cfg = SystemConfig::scaled_use_case1(64 << 10, SystemKind::Xmem);
        let a = run(&cfg, &kernel(PolybenchKernel::Syrk), None, None).report;
        let b = run(&cfg, &kernel(PolybenchKernel::Syrk), None, None).report;
        assert_eq!(a.core, b.core);
        assert_eq!(a.dram, b.dram);
    }

    #[test]
    fn alb_sees_traffic_with_xmem() {
        let cfg = SystemConfig::scaled_use_case1(32 << 10, SystemKind::Xmem);
        let r = run(&cfg, &kernel(PolybenchKernel::Gemm), None, None).report;
        assert!(r.alb.lookups() > 0);
        assert!(r.alb.hit_rate() > 0.5, "ALB hit rate {}", r.alb.hit_rate());
    }

    #[test]
    fn tlb_adds_walk_cost_but_preserves_work() {
        let base_cfg = SystemConfig::scaled_use_case1(64 << 10, SystemKind::Baseline);
        let tlb_cfg = base_cfg.with_tlb();
        let without = run(&base_cfg, &kernel(PolybenchKernel::Gemm), None, None).report;
        let with = run(&tlb_cfg, &kernel(PolybenchKernel::Gemm), None, None).report;
        assert_eq!(without.core.instructions, with.core.instructions);
        assert!(
            with.core.cycles > without.core.cycles,
            "page walks must cost time: {} vs {}",
            with.core.cycles,
            without.core.cycles
        );
        // Small footprint → high TLB hit rate → bounded overhead.
        assert!((with.core.cycles as f64) < without.core.cycles as f64 * 1.5);
    }

    #[test]
    fn telemetry_does_not_perturb_the_run() {
        let cfg = SystemConfig::scaled_use_case1(64 << 10, SystemKind::Xmem);
        let plain = run(&cfg, &kernel(PolybenchKernel::Gemm), None, None);
        let sampled = run(&cfg, &kernel(PolybenchKernel::Gemm), Some(500), None);
        assert_eq!(
            plain.report, sampled.report,
            "sampling must be observational only"
        );
        assert!(sampled.telemetry.is_some());
        assert!(plain.telemetry.is_none());
    }

    #[test]
    fn telemetry_covers_the_whole_run_in_epoch_order() {
        let cfg = SystemConfig::scaled_use_case1(64 << 10, SystemKind::Xmem);
        let epoch = 1_000;
        let out = run(&cfg, &kernel(PolybenchKernel::Gemm), Some(epoch), None);
        let (report, series) = (out.report, out.telemetry.expect("telemetry enabled"));
        assert_eq!(series.epoch_instructions, epoch);
        assert!(
            series.samples.len() as u64 >= report.core.instructions / epoch,
            "one sample per epoch at minimum: {} samples for {} instructions",
            series.samples.len(),
            report.core.instructions
        );
        // The final (possibly partial) epoch is flushed at report time.
        assert_eq!(
            series.samples.last().map(|s| s.instructions),
            Some(report.core.instructions)
        );
        for pair in series.samples.windows(2) {
            assert!(pair[0].instructions < pair[1].instructions);
            assert!(pair[0].cycles <= pair[1].cycles);
        }
        // Epochs with work in them report sane rates.
        let first = &series.samples[0];
        assert!(first.ipc > 0.0 && first.ipc <= cfg.core.issue_width as f64);
        assert!(first.l1_mpki >= 0.0);
        // Each sample closes a distinct epoch. A multi-instruction op can
        // overshoot the boundary slightly, but never by a full epoch, and
        // two samples never land in the same epoch.
        for (i, s) in series.samples.iter().enumerate() {
            assert!(s.instructions > i as u64 * epoch, "sample {i}: {s:?}");
        }
        for pair in series.samples.windows(2) {
            assert!(
                pair[0].instructions / epoch < pair[1].instructions.div_ceil(epoch),
                "samples share an epoch: {pair:?}"
            );
        }
    }

    #[test]
    fn telemetry_sees_xmem_activity() {
        let cfg = SystemConfig::scaled_use_case1(32 << 10, SystemKind::Xmem);
        let out = run(&cfg, &kernel(PolybenchKernel::Gemm), Some(2_000), None);
        let (report, series) = (out.report, out.telemetry.expect("telemetry enabled"));
        let sampled_lookup_hits: f64 = series.samples.iter().map(|s| s.alb_hit_rate).sum();
        assert!(
            sampled_lookup_hits > 0.0,
            "ALB activity must appear in the series"
        );
        assert!(report.alb.lookups() > 0);
    }

    #[test]
    fn final_epoch_on_exact_boundary_emits_no_degenerate_sample() {
        // 1000 single-instruction compute ops with epoch 500: the run ends
        // exactly on an epoch boundary, so the second sample *is* the final
        // epoch — no empty trailing flush, no zero-delta division.
        let cfg = SystemConfig::scaled_use_case1(64 << 10, SystemKind::Baseline);
        let compute = |s: &mut dyn TraceSink| {
            for _ in 0..1000 {
                s.compute(1);
            }
        };
        let out = run(&cfg, &compute, Some(500), None);
        assert_eq!(out.report.core.instructions, 1000);
        let series = out.telemetry.expect("telemetry enabled");
        assert_eq!(
            series.samples.len(),
            2,
            "one sample per epoch, nothing extra"
        );
        let last = &series.samples[1];
        assert_eq!(last.instructions, 1000);
        assert!(last.ipc.is_finite() && last.ipc > 0.0);
        for s in &series.samples {
            for v in [
                s.ipc,
                s.l1_mpki,
                s.l2_mpki,
                s.l3_mpki,
                s.row_hit_rate,
                s.alb_hit_rate,
                s.bank_busy_fraction,
                s.queue_depth,
            ] {
                assert!(v.is_finite(), "rate field must stay finite: {s:?}");
            }
            // A compute-only run has zero activations/lookups: the rate
            // guards must pin these to exactly 0, never NaN.
            assert!(s.row_hit_rate.abs() < 1e-12, "{s:?}");
            assert!(s.alb_hit_rate.abs() < 1e-12, "{s:?}");
            assert!(s.l1_mpki.abs() < 1e-12, "{s:?}");
        }
    }

    #[test]
    fn zero_cycle_epoch_reports_zero_ipc_not_nan() {
        // Epoch of 1 instruction with a wide issue core: several epochs
        // close within the same cycle, so their cycle delta is zero and
        // the IPC guard must return 0.0 rather than dividing.
        let cfg = SystemConfig::scaled_use_case1(64 << 10, SystemKind::Baseline);
        let compute = |s: &mut dyn TraceSink| {
            for _ in 0..8 {
                s.compute(1);
            }
        };
        let series = run(&cfg, &compute, Some(1), None)
            .telemetry
            .expect("telemetry enabled");
        assert!(series.samples.len() >= 4);
        assert!(series.samples.iter().all(|s| s.ipc.is_finite()));
        assert!(
            series.samples.iter().any(|s| s.ipc.abs() < 1e-12),
            "a zero-cycle epoch must hit the guard: {:?}",
            series.samples
        );
    }

    #[test]
    fn full_coverage_sampling_is_byte_identical_to_full_execution() {
        let cfg = SystemConfig::scaled_use_case1(64 << 10, SystemKind::Xmem);
        let gemm = kernel(PolybenchKernel::Gemm);
        let plain = run(&cfg, &gemm, None, None).report;
        let sampled = run(&cfg, &gemm, None, Some(SamplingSpec::full_coverage()));
        assert_eq!(plain, sampled.report, "100% coverage must change nothing");
        let summary = sampled.sampling.expect("sampled run carries a summary");
        assert_eq!(summary.detailed_ops, summary.total_ops);
        assert_eq!(summary.warm_ops, 0);
        assert!(summary.total_ops > 0);
        assert!((summary.coverage - 1.0).abs() < 1e-12);
    }

    #[test]
    fn partial_sampling_is_deterministic_and_tracks_the_full_run() {
        let cfg = SystemConfig::scaled_use_case1(64 << 10, SystemKind::Xmem);
        let gemm = kernel(PolybenchKernel::Gemm);
        // The measured half of each window (window/2, after the ramp) must
        // span several DRAM latencies of cycles for the open/close overhang
        // to cancel, so the windows here are deliberately sizeable.
        let spec = SamplingSpec {
            warmup_ops: 1_000,
            window_ops: 4_000,
            interval: 20_000,
        };
        let out = run(&cfg, &gemm, None, Some(spec));
        let again = run(&cfg, &gemm, None, Some(spec));
        assert_eq!(out.report, again.report, "sampled runs are deterministic");
        assert_eq!(out.sampling, again.sampling);
        let summary = out.sampling.expect("summary present");
        assert!(
            summary.windows > 0,
            "the run is long enough to open windows"
        );
        assert!(summary.detailed_ops < summary.total_ops);
        assert!(summary.coverage < 0.5);
        assert_eq!(summary.spec, spec);
        assert!(!summary.clusters.is_empty());
        // The sampled IPC estimate lands near the full run's IPC.
        let full = run(&cfg, &gemm, None, None).report;
        let full_ipc = full.core.instructions as f64 / full.core.cycles as f64;
        let est = summary.metric("ipc").expect("ipc metric present");
        assert!(est.mean > 0.0 && est.min <= est.mean && est.mean <= est.max);
        let err = (est.mean - full_ipc).abs() / full_ipc;
        assert!(
            err < 0.25,
            "sampled IPC {} vs full {full_ipc} (err {err})",
            est.mean
        );
    }

    #[test]
    fn instruction_overhead_is_tiny() {
        let cfg = SystemConfig::scaled_use_case1(64 << 10, SystemKind::Xmem);
        let r = run(&cfg, &kernel(PolybenchKernel::Gemm), None, None).report;
        assert!(
            r.instruction_overhead < 0.005,
            "overhead {}",
            r.instruction_overhead
        );
    }
}
