//! The cache hierarchy with XMem-coordinated cache management and
//! prefetching (use case 1, §5 of the paper) — the one memory system that
//! single-core runs and co-runs share.
//!
//! The hierarchy models the Table 3 configuration: per core a private L1
//! (LRU), L2 (DRRIP) and multi-stride prefetcher, over one shared L3
//! (DRRIP) and DRAM. Three operating modes map to the paper's three
//! evaluated systems:
//!
//! * [`XmemMode::Off`] — the **Baseline**: DRRIP everywhere, multi-stride
//!   prefetcher at L3.
//! * [`XmemMode::PrefetchOnly`] — **XMem-Pref**: DRRIP for cache
//!   management, prefetching driven by the expressed access pattern.
//! * [`XmemMode::Full`] — **XMem**: the greedy pinning algorithm keeps the
//!   high-reuse working set resident (insertion-priority + eviction
//!   protection, aged when the active-atom list changes) *and* misses to
//!   pinned atoms trigger pattern-directed prefetch.
//!
//! # Domains
//!
//! [`Hierarchy::new`] builds one core; [`Hierarchy::with_domains`] builds
//! N private domains (L1, L2, stride prefetcher per core) over the shared
//! state: the L3, DRAM, the pinned-atom set with its AMU epoch (§5.2(2):
//! pinning "takes the active atoms in *all the cores*"), prefetch
//! tracking, and the guided-prefetch statistics. [`Hierarchy::serve_core`]
//! is the per-core access; [`Hierarchy::serve`] is core 0's.
//!
//! Without a bus the private domains never observe each other's writes —
//! only correct for disjoint data. With one (MESI), every access first runs
//! the coherence engine ([`crate::coherence::mesi_access`]) over the
//! private L1/L2s, and only accesses no peer could supply continue into
//! the shared levels, through the same L3/DRAM/pinning/prefetch code.

use crate::cache::{Cache, CacheStats, Eviction, FillOutcome, InsertPriority};
use crate::coherence::{mesi_access, BusConfig, BusStats, CoherentAccess, MesiDomains, SnoopBus};
use crate::config::CacheConfig;
use crate::pin::{select_pinned, PinCandidate};
use crate::prefetch::{MultiStridePrefetcher, PrefetchRun, PrefetchStats};
use crate::tracker::PrefetchTracker;
use cpu_sim::batch::OpAttrs;
use dram_sim::{Dram, DramStats};
use std::collections::BTreeSet;
use xmem_core::addr::PhysAddr;
use xmem_core::amu::AtomManagementUnit;
use xmem_core::atom::AtomId;
use xmem_core::pat::Pat;
use xmem_core::translate::{CachePrimitive, PrefetcherPrimitive};

/// Which XMem mechanisms the hierarchy applies (§5.4's three systems).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum XmemMode {
    /// Baseline: no XMem; DRRIP + multi-stride prefetching.
    #[default]
    Off,
    /// XMem-guided prefetching only; DRRIP for cache management.
    PrefetchOnly,
    /// Pinning + XMem-guided prefetching.
    Full,
}

/// Hierarchy configuration.
#[derive(Debug, Clone, Copy)]
pub struct HierarchyConfig {
    /// L1 data cache.
    pub l1: CacheConfig,
    /// Private L2.
    pub l2: CacheConfig,
    /// L3 slice.
    pub l3: CacheConfig,
    /// Enable the baseline multi-stride prefetcher at L3 (Table 3), one per
    /// core. It stays on in the XMem modes, where guided prefetch takes
    /// over only for misses to atoms that qualify (§5.2(4)).
    pub stride_prefetcher: bool,
    /// Concurrent streams in the stride prefetcher (16 in Table 3).
    pub stride_streams: usize,
    /// Prefetch degree (lines per trigger) for the stride prefetcher.
    pub prefetch_degree: usize,
    /// Prefetch degree for XMem-guided prefetch. Guided prefetch knows the
    /// atom's exact extents, so it can run further ahead without waste
    /// (§5.1: "prefetches the rest based on the expressed access pattern").
    pub xmem_prefetch_degree: usize,
    /// XMem operating mode.
    pub xmem: XmemMode,
}

impl HierarchyConfig {
    /// The Table 3 baseline configuration.
    pub fn westmere_like() -> Self {
        HierarchyConfig {
            l1: CacheConfig::l1_westmere(),
            l2: CacheConfig::l2_westmere(),
            l3: CacheConfig::l3_westmere(),
            stride_prefetcher: true,
            stride_streams: 16,
            prefetch_degree: 2,
            xmem_prefetch_degree: 4,
            xmem: XmemMode::Off,
        }
    }

    /// Same geometry with a different XMem mode.
    pub fn with_xmem(mut self, mode: XmemMode) -> Self {
        self.xmem = mode;
        self
    }

    /// Same configuration with a different L3 capacity (Fig 5 sweep).
    pub fn with_l3_size(mut self, bytes: u64) -> Self {
        self.l3 = self.l3.with_size(bytes);
        self
    }
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        Self::westmere_like()
    }
}

/// Borrowed XMem state the hierarchy consults during an access: the AMU (for
/// `ATOM_LOOKUP`) and the translated per-component primitives.
#[derive(Debug)]
pub struct XmemContext<'a> {
    /// The atom management unit (lookups go through its ALB).
    pub amu: &'a mut AtomManagementUnit,
    /// The cache's private attribute table.
    pub cache_pat: &'a Pat<CachePrimitive>,
    /// The prefetcher's private attribute table.
    pub pf_pat: &'a Pat<PrefetcherPrimitive>,
}

/// The cache hierarchy + DRAM backend: per-core private domains over one
/// shared L3 and DRAM (see the module docs).
#[derive(Debug)]
pub struct Hierarchy {
    config: HierarchyConfig,
    /// `!(l1.line_bytes - 1)`, precomputed for the per-access line align.
    line_mask: u64,
    /// Cumulative latencies to each level (L1; L1+L2; L1+L2+L3), hoisted
    /// out of the per-access path.
    l1_lat: u64,
    l2_lat: u64,
    l3_lat: u64,
    // ── per core ────────────────────────────────────────────────────────
    l1s: Vec<Cache>,
    l2s: Vec<Cache>,
    stride_pfs: Vec<Option<MultiStridePrefetcher>>,
    // ── shared ──────────────────────────────────────────────────────────
    l3: Cache,
    dram: Dram,
    /// Currently pinned atoms (output of the greedy algorithm).
    pinned: Vec<AtomId>,
    /// Atoms the greedy algorithm never pins (coherence-aware placement:
    /// migratory shared data whose lines bounce between private caches).
    pin_exempt: BTreeSet<AtomId>,
    /// AMU epoch at the last pinning evaluation.
    last_epoch: u64,
    /// Lines prefetched but not yet demanded (bounded; for accuracy stats).
    inflight_prefetches: PrefetchTracker,
    xmem_pf_stats: PrefetchStats,
    /// The MESI snooping bus; `None` means no coherence.
    bus: Option<SnoopBus>,
    /// Reused outcome buffer for [`mesi_access`].
    coh_acc: CoherentAccess,
}

impl Hierarchy {
    /// Creates an empty one-core hierarchy in front of `dram`.
    pub fn new(config: HierarchyConfig, dram: Dram) -> Self {
        Self::with_domains(config, dram, 1, None)
    }

    /// Creates `cores` private domains over one shared L3 in front of
    /// `dram`, kept coherent by a MESI snooping bus when `bus` is given.
    pub fn with_domains(
        config: HierarchyConfig,
        dram: Dram,
        cores: usize,
        bus: Option<BusConfig>,
    ) -> Self {
        // The hardware stride prefetcher stays present in XMem modes: XMem
        // *supplements* dynamic mechanisms (§2.1) — guided prefetch takes
        // over only for data whose atom expresses a pattern; everything
        // else (unmapped streams) still benefits from the stride engine.
        let stride_pf = || {
            config
                .stride_prefetcher
                .then(|| MultiStridePrefetcher::new(config.stride_streams, config.prefetch_degree))
        };
        Hierarchy {
            line_mask: !(config.l1.line_bytes - 1),
            l1_lat: config.l1.latency,
            l2_lat: config.l1.latency + config.l2.latency,
            l3_lat: config.l1.latency + config.l2.latency + config.l3.latency,
            l1s: (0..cores).map(|_| Cache::new(config.l1)).collect(),
            l2s: (0..cores).map(|_| Cache::new(config.l2)).collect(),
            stride_pfs: (0..cores).map(|_| stride_pf()).collect(),
            l3: Cache::new(config.l3),
            dram,
            pinned: Vec::new(),
            pin_exempt: BTreeSet::new(),
            last_epoch: u64::MAX,
            inflight_prefetches: PrefetchTracker::new(config.l3.line_bytes),
            xmem_pf_stats: PrefetchStats::default(),
            bus: bus.map(SnoopBus::new),
            coh_acc: CoherentAccess::default(),
            config,
        }
    }

    /// Excludes `atoms` from pinning from the next pinning evaluation on.
    pub fn set_pin_exempt(&mut self, atoms: BTreeSet<AtomId>) {
        self.pin_exempt = atoms;
    }

    /// The configuration in use.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// Core 0's L1 statistics.
    pub fn l1_stats(&self) -> CacheStats {
        self.core_l1_stats(0)
    }

    /// Core 0's L2 statistics.
    pub fn l2_stats(&self) -> CacheStats {
        self.core_l2_stats(0)
    }

    /// `core`'s L1 statistics (with snoop counters under MESI).
    pub fn core_l1_stats(&self, core: usize) -> CacheStats {
        self.l1s[core].stats()
    }

    /// `core`'s L2 statistics.
    pub fn core_l2_stats(&self, core: usize) -> CacheStats {
        self.l2s[core].stats()
    }

    /// L3 statistics.
    pub fn l3_stats(&self) -> CacheStats {
        self.l3.stats()
    }

    /// Core 0's L2 DRRIP policy-select counter (0 for non-DRRIP configs).
    pub fn l2_psel(&self) -> i32 {
        self.l2s[0].psel()
    }

    /// The L3's DRRIP policy-select counter (0 for non-DRRIP configs).
    pub fn l3_psel(&self) -> i32 {
        self.l3.psel()
    }

    /// DRAM statistics.
    pub fn dram_stats(&self) -> DramStats {
        self.dram.stats()
    }

    /// The DRAM model (e.g. to inspect its mapping).
    pub fn dram(&self) -> &Dram {
        &self.dram
    }

    /// Core 0's stride-prefetcher statistics (`None` when disabled).
    pub fn stride_prefetch_stats(&self) -> Option<PrefetchStats> {
        self.core_stride_prefetch_stats(0)
    }

    /// `core`'s stride-prefetcher statistics (`None` when disabled).
    pub fn core_stride_prefetch_stats(&self, core: usize) -> Option<PrefetchStats> {
        self.stride_pfs[core].as_ref().map(|p| p.stats())
    }

    /// XMem-guided prefetch statistics (shared by all cores).
    pub fn xmem_prefetch_stats(&self) -> PrefetchStats {
        self.xmem_pf_stats
    }

    /// Snooping-bus traffic (all zero without a bus).
    pub fn bus_stats(&self) -> BusStats {
        self.bus.as_ref().map(SnoopBus::stats).unwrap_or_default()
    }

    /// Atoms currently pinned by the greedy algorithm.
    pub fn pinned_atoms(&self) -> &[AtomId] {
        &self.pinned
    }

    /// Re-evaluates the pinned-atom set over the active atoms of all cores
    /// when the AMU epoch has changed (a MAP/UNMAP/ACTIVATE/DEACTIVATE
    /// occurred), aging previously pinned lines per §5.2(3).
    fn refresh_pinning(&mut self, ctx: &mut XmemContext<'_>) {
        let epoch = ctx.amu.epoch();
        if epoch == self.last_epoch {
            return;
        }
        self.last_epoch = epoch;
        if self.config.xmem != XmemMode::Full {
            return;
        }
        let candidates: Vec<PinCandidate> = ctx
            .amu
            .active_atoms()
            .into_iter()
            .filter(|atom| !self.pin_exempt.contains(atom))
            .filter_map(|atom| {
                let prim = ctx.cache_pat.get(atom)?;
                prim.pin_candidate.then_some(PinCandidate {
                    atom,
                    reuse: prim.reuse,
                    size_bytes: ctx.amu.mapped_bytes(atom),
                })
            })
            .collect();
        let new_pinned = select_pinned(&candidates, self.config.l3.size_bytes);
        // The mapping behind the atoms may have changed even if the pinned
        // ID set did not (a tile moved): age unconditionally on epoch change.
        self.l3.age_pinned();
        self.pinned = new_pinned;
    }

    /// Prefetches `target` into the L3 unless it is resident, tracking the
    /// fill; returns whether it was issued. With `t_mem` the DRAM read is
    /// timed and a dirty victim is written back; on the warm path (`None`)
    /// the DRAM row is only warmed and the victim dropped.
    fn prefetch_into_l3(
        &mut self,
        target: u64,
        priority: InsertPriority,
        t_mem: Option<u64>,
    ) -> bool {
        let FillOutcome::Filled(evicted) = self.l3.fill_if_absent(target, false, priority) else {
            return false;
        };
        match t_mem {
            // DRAM sees the prefetch read before the victim's writeback.
            Some(t) => {
                let _ = self.dram.serve_prefetch(target, t);
                if let Some(ev) = evicted {
                    self.writeback_to_dram(ev, t);
                }
            }
            None => self.dram.warm_access(target),
        }
        self.inflight_prefetches.insert(target);
        true
    }

    /// XMem-guided prefetch targets after a miss on `pa` belonging to
    /// `atom` (§5.2(4)): the next `xmem_prefetch_degree` lines of the
    /// atom's data in the direction of the expressed stride, *bounded to
    /// the atom's extents* (the AMU broadcasts extent information for
    /// exactly this purpose, §4.2(4)). When the walk reaches the end of the
    /// atom it wraps to the beginning — tiles are swept repeatedly, so the
    /// wrap is the right continuation.
    fn xmem_prefetch_targets(
        &self,
        pa: u64,
        atom: AtomId,
        ctx: &XmemContext<'_>,
    ) -> Option<(Vec<u64>, InsertPriority)> {
        let prim = ctx.pf_pat.get(atom)?;
        let stride = prim.stride?;
        let line = self.config.l3.line_bytes;
        let forward = stride >= 0;
        let exts = ctx.amu.extents(atom);
        if exts.is_empty() {
            return None;
        }
        let mut ei = exts
            .iter()
            .position(|e| pa >= e.start.raw() && pa < e.start.raw() + e.len)
            .unwrap_or(0);
        let mut pos = pa & !(line - 1);
        let mut targets = Vec::with_capacity(self.config.xmem_prefetch_degree);
        for _ in 0..self.config.xmem_prefetch_degree {
            if forward {
                pos += line;
                if pos >= exts[ei].start.raw() + exts[ei].len {
                    ei = (ei + 1) % exts.len();
                    pos = exts[ei].start.raw() & !(line - 1);
                }
            } else {
                let ext_start = exts[ei].start.raw() & !(line - 1);
                if pos <= ext_start {
                    ei = (ei + exts.len() - 1) % exts.len();
                    pos = (exts[ei].start.raw() + exts[ei].len - 1) & !(line - 1);
                } else {
                    pos -= line;
                }
            }
            targets.push(pos);
        }
        let priority = if self.pinned.contains(&atom) {
            InsertPriority::Pinned
        } else {
            InsertPriority::Normal
        };
        Some((targets, priority))
    }

    fn writeback_to_dram(&mut self, ev: Eviction, now: u64) {
        if ev.dirty {
            let _ = self.dram.serve(ev.addr, OpAttrs::write(), now);
        }
    }

    /// A dirty line evicted from `core`'s L1 (`level` 1) or L2 (`level` 2)
    /// lands in the next level if resident, else goes to DRAM.
    fn writeback_inner(&mut self, core: usize, ev: Eviction, level: u8, now: u64) {
        if ev.dirty && !(level == 1 && self.l2s[core].set_dirty(ev.addr)) {
            self.sink_dirty(ev.addr, now);
        }
    }

    /// Dirty data leaving the private levels lands in the L3 if the line
    /// is resident there, else goes to DRAM.
    fn sink_dirty(&mut self, line_addr: u64, now: u64) {
        if !self.l3.set_dirty(line_addr) {
            let _ = self.dram.serve(line_addr, OpAttrs::write(), now);
        }
    }

    /// Performs one demand access by core 0, returning its latency in
    /// cycles (see [`Hierarchy::serve_core`]).
    ///
    /// Named `serve` to match the batched memory-path vocabulary
    /// ([`cpu_sim::batch::MemoryPath`]).
    #[inline]
    pub fn serve(
        &mut self,
        pa: u64,
        is_write: bool,
        now: u64,
        xmem: Option<XmemContext<'_>>,
    ) -> u64 {
        self.serve_core(0, pa, is_write, now, xmem)
    }

    /// Performs one demand access by `core`, returning its latency in
    /// cycles.
    ///
    /// `xmem` supplies the AMU + PATs when the system runs with XMem
    /// enabled; `None` reproduces the baseline exactly (no lookups at all).
    #[inline]
    pub fn serve_core(
        &mut self,
        core: usize,
        pa: u64,
        is_write: bool,
        now: u64,
        xmem: Option<XmemContext<'_>>,
    ) -> u64 {
        if let Some(bus) = self.bus.as_mut() {
            let mut domains = MesiDomains {
                l1s: &mut self.l1s,
                l2s: &mut self.l2s,
                bus,
                l1_lat: self.config.l1.latency,
                l2_lat: self.config.l2.latency,
                line_bytes: self.config.l1.line_bytes,
            };
            mesi_access(&mut domains, core, pa, is_write, now, &mut self.coh_acc);
            return self.settle_coherent(core, pa, is_write, now, xmem);
        }
        // The dominant outcome by far — keep it inlinable at call sites and
        // push everything below L1 out of line.
        if self.l1s[core].probe(pa, is_write) {
            return self.l1_lat;
        }
        self.serve_l1_miss(core, pa, is_write, now, xmem)
    }

    /// The below-L1 continuation of [`Hierarchy::serve_core`] without a
    /// bus.
    fn serve_l1_miss(
        &mut self,
        core: usize,
        pa: u64,
        is_write: bool,
        now: u64,
        xmem: Option<XmemContext<'_>>,
    ) -> u64 {
        if self.l2s[core].probe(pa, false) {
            let line_addr = pa & self.line_mask;
            if let Some(ev) = self.l1s[core].fill(line_addr, is_write, InsertPriority::Normal) {
                self.writeback_inner(core, ev, 1, now);
            }
            return self.l2_lat;
        }
        self.serve_shared(core, pa, is_write, now, self.l3_lat, xmem)
    }

    /// The rest of a MESI access after the coherence engine has run over
    /// the private L1/L2 levels and the bus (its outcome is in `coh_acc`):
    /// coherence writebacks sink into the L3 (or DRAM), and only accesses
    /// no peer could supply continue into the shared levels. Cache-to-cache
    /// transfers bypass the L3 entirely, and the stride prefetchers train
    /// only on the memory path (bus-satisfied accesses carry no locality
    /// the L3 could exploit).
    fn settle_coherent(
        &mut self,
        core: usize,
        pa: u64,
        is_write: bool,
        now: u64,
        xmem: Option<XmemContext<'_>>,
    ) -> u64 {
        for i in 0..self.coh_acc.writebacks.len() {
            let (_, line_addr) = self.coh_acc.writebacks[i];
            self.sink_dirty(line_addr, now);
        }
        if !self.coh_acc.from_memory {
            return self.coh_acc.latency;
        }
        // The engine's latency already covers L1, L2 and the bus.
        let l3_total = self.coh_acc.latency + self.config.l3.latency;
        self.serve_shared(core, pa, is_write, now, l3_total, xmem)
    }

    /// The shared levels below `core`'s private miss: pinning refresh, the
    /// ALB lookup, the L3, DRAM, and prefetching. `l3_total` is the latency
    /// up to and including the L3 lookup. Without a bus the line is also
    /// filled into `core`'s L2 and L1; under MESI the engine already did
    /// (on an L3 hit as on a miss).
    fn serve_shared(
        &mut self,
        core: usize,
        pa: u64,
        is_write: bool,
        now: u64,
        l3_total: u64,
        mut xmem: Option<XmemContext<'_>>,
    ) -> u64 {
        let line_addr = pa & self.line_mask;
        let coherent = self.bus.is_some();
        // L3 territory: consult XMem state if present. One ATOM_LOOKUP per
        // L3 access — exactly the query rate the paper's ALB absorbs.
        if let Some(ctx) = xmem.as_mut() {
            if self.config.xmem != XmemMode::Off {
                self.refresh_pinning(ctx);
            }
        }
        let atom = match (&mut xmem, self.config.xmem) {
            (Some(ctx), XmemMode::Full | XmemMode::PrefetchOnly) => {
                ctx.amu.active_atom_at(PhysAddr::new(pa))
            }
            _ => None,
        };
        let l3_hit = self.l3.probe(pa, false);

        // The stride prefetcher trains on every L3 access.
        let stride_reqs = self.stride_pfs[core]
            .as_mut()
            .map(|pf| pf.train(pa))
            .unwrap_or_default();

        if l3_hit {
            self.note_demand_hit(core, line_addr);
            if !coherent {
                self.fill_private(core, line_addr, is_write, now);
            }
            self.issue_stride_prefetches(stride_reqs, Some(now + l3_total));
            return l3_total;
        }

        // L3 miss: demand fetch from DRAM.
        let t_mem = now + l3_total;
        let dram_lat = self.dram.serve(line_addr, OpAttrs::read(), t_mem);

        // Fill the hierarchy.
        if let Some(ev) = self.l3.fill(line_addr, false, self.l3_priority(atom)) {
            self.writeback_to_dram(ev, t_mem);
        }
        if !coherent {
            self.fill_private(core, line_addr, is_write, now);
        }

        // Prefetching: XMem-guided for data whose atom expresses a pattern
        // (§5.2(4)); the hardware stride engine covers everything else.
        if !self.guided_prefetch(pa, atom, &mut xmem, Some(t_mem)) {
            self.issue_stride_prefetches(stride_reqs, Some(t_mem));
        }

        l3_total + dram_lat
    }

    /// Fills `line_addr` into `core`'s L2, then its L1, sinking dirty
    /// victims.
    fn fill_private(&mut self, core: usize, line_addr: u64, is_write: bool, now: u64) {
        if let Some(ev) = self.l2s[core].fill(line_addr, false, InsertPriority::Normal) {
            self.writeback_inner(core, ev, 2, now);
        }
        if let Some(ev) = self.l1s[core].fill(line_addr, is_write, InsertPriority::Normal) {
            self.writeback_inner(core, ev, 1, now);
        }
    }

    /// The L3 insertion priority of a demand fill for `atom`'s data.
    fn l3_priority(&self, atom: Option<AtomId>) -> InsertPriority {
        match (self.config.xmem, atom) {
            (XmemMode::Full, Some(a)) if self.pinned.contains(&a) => InsertPriority::Pinned,
            _ => InsertPriority::Normal,
        }
    }

    /// Credits a demand L3 hit on a prefetched line: to `core`'s stride
    /// prefetcher if it has one, else to the guided-prefetch statistics.
    fn note_demand_hit(&mut self, core: usize, line_addr: u64) {
        if self.inflight_prefetches.remove(line_addr) {
            if let Some(pf) = self.stride_pfs[core].as_mut() {
                pf.record_useful();
            } else {
                self.xmem_pf_stats.useful += 1;
            }
        }
    }

    /// State-only warmup probe: walks the hierarchy with the same probes,
    /// fills, replacement updates, pinning refresh, ALB lookups, prefetcher
    /// training, and prefetch fills as [`Hierarchy::serve`], but skips
    /// everything timing-related — no latencies, no writeback traffic, and
    /// no DRAM bank/bus occupancy (only the row-buffer state is warmed).
    ///
    /// This is the functional fast-forward path of sampled execution: it
    /// keeps tags, LRU/DRRIP state, pinned-insertion decisions, the ALB,
    /// DRAM open rows, the stride prefetcher's streams, and the L3's
    /// prefetch-inserted lines (useful coverage *and* pollution) where a
    /// detailed run would have left them, so a detailed window opens
    /// against warm state. Dirty evictions are dropped rather than written
    /// back (writebacks only produce timing and traffic, neither of which
    /// exists here). Cache/ALB/prefetch counters do advance — sampled-mode
    /// raw counters are a warm+detailed mixture, and the per-window metrics
    /// are computed from deltas across detailed windows only.
    pub fn warm_access(&mut self, pa: u64, is_write: bool, mut xmem: Option<XmemContext<'_>>) {
        if self.l1s[0].probe(pa, is_write) {
            return;
        }
        let line_addr = pa & self.line_mask;
        if self.l2s[0].probe(pa, false) {
            let _ = self.l1s[0].fill(line_addr, is_write, InsertPriority::Normal);
            return;
        }
        if let Some(ctx) = xmem.as_mut() {
            if self.config.xmem != XmemMode::Off {
                self.refresh_pinning(ctx);
            }
        }
        let atom = match (&mut xmem, self.config.xmem) {
            (Some(ctx), XmemMode::Full | XmemMode::PrefetchOnly) => {
                ctx.amu.active_atom_at(PhysAddr::new(pa))
            }
            _ => None,
        };
        let stride_reqs = self.stride_pfs[0]
            .as_mut()
            .map(|pf| pf.train(pa))
            .unwrap_or_default();
        if self.l3.probe(pa, false) {
            self.note_demand_hit(0, line_addr);
            let _ = self.l2s[0].fill(line_addr, false, InsertPriority::Normal);
            let _ = self.l1s[0].fill(line_addr, is_write, InsertPriority::Normal);
            self.issue_stride_prefetches(stride_reqs, None);
            return;
        }
        self.dram.warm_access(line_addr);
        let _ = self.l3.fill(line_addr, false, self.l3_priority(atom));
        let _ = self.l2s[0].fill(line_addr, false, InsertPriority::Normal);
        let _ = self.l1s[0].fill(line_addr, is_write, InsertPriority::Normal);
        if !self.guided_prefetch(pa, atom, &mut xmem, None) {
            self.issue_stride_prefetches(stride_reqs, None);
        }
    }

    /// Issues XMem-guided prefetches for `pa` if its atom qualifies under
    /// the current mode; returns whether guided prefetch handled it. `t_mem`
    /// is as for [`Hierarchy::prefetch_into_l3`].
    fn guided_prefetch(
        &mut self,
        pa: u64,
        atom: Option<AtomId>,
        xmem: &mut Option<XmemContext<'_>>,
        t_mem: Option<u64>,
    ) -> bool {
        let (Some(ctx), Some(a)) = (xmem, atom) else {
            return false;
        };
        let qualifies = match self.config.xmem {
            // §5.2(4): accesses to *pinned* atoms drive guided prefetch.
            XmemMode::Full => self.pinned.contains(&a),
            // XMem-Pref: pattern-directed prefetch for any active atom with
            // expressed reuse (software-prefetch-like, §5.4).
            XmemMode::PrefetchOnly => ctx.cache_pat.get(a).map_or(0, |p| p.reuse) > 0,
            XmemMode::Off => false,
        };
        if qualifies {
            self.xmem_prefetch(pa, a, ctx, t_mem);
        }
        qualifies
    }

    /// Prefetches `atom`'s guided targets after a miss on `pa`, counting
    /// each one issued.
    fn xmem_prefetch(&mut self, pa: u64, atom: AtomId, ctx: &XmemContext<'_>, t_mem: Option<u64>) {
        if let Some((targets, priority)) = self.xmem_prefetch_targets(pa, atom, ctx) {
            for target in targets {
                if self.prefetch_into_l3(target, priority, t_mem) {
                    self.xmem_pf_stats.issued += 1;
                }
            }
        }
    }

    /// Issues the stride prefetcher's requests into the L3. Prefetches
    /// insert with the default policy priority: distant insertion would
    /// make far-ahead prefetches immediate victims.
    fn issue_stride_prefetches(&mut self, reqs: PrefetchRun, t_mem: Option<u64>) {
        for req in reqs {
            let target = req.addr & !(self.config.l3.line_bytes - 1);
            self.prefetch_into_l3(target, InsertPriority::Normal, t_mem);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_sim::{AddressMapping, DramConfig};

    fn small_config(mode: XmemMode) -> HierarchyConfig {
        HierarchyConfig {
            l1: CacheConfig {
                size_bytes: 4 << 10,
                ways: 4,
                line_bytes: 64,
                latency: 4,
                policy: crate::config::ReplacementPolicy::Lru,
            },
            l2: CacheConfig {
                size_bytes: 16 << 10,
                ways: 8,
                line_bytes: 64,
                latency: 8,
                policy: crate::config::ReplacementPolicy::Drrip,
            },
            l3: CacheConfig {
                size_bytes: 64 << 10,
                ways: 16,
                line_bytes: 64,
                latency: 27,
                policy: crate::config::ReplacementPolicy::Drrip,
            },
            stride_prefetcher: true,
            stride_streams: 16,
            prefetch_degree: 2,
            xmem_prefetch_degree: 4,
            xmem: mode,
        }
    }

    fn small_dram() -> Dram {
        Dram::new(DramConfig::ddr3_1066(3.6), AddressMapping::scheme1())
    }

    fn small_hierarchy(mode: XmemMode) -> Hierarchy {
        Hierarchy::new(small_config(mode), small_dram())
    }

    fn two_domains() -> Hierarchy {
        Hierarchy::with_domains(small_config(XmemMode::Off), small_dram(), 2, None)
    }

    #[test]
    fn peer_line_is_a_shared_l3_hit() {
        let mut h = two_domains();
        assert!(h.serve_core(0, 0x4000, false, 0, None) > 39, "cold miss");
        let dram = h.dram_stats();
        let (l1, l2) = (h.core_l1_stats(0), h.core_l2_stats(0));
        // Core 1 misses its own L1/L2 and hits the line core 0 brought
        // into the shared L3, at the cumulative L3 latency (4+8+27).
        assert_eq!(h.serve_core(1, 0x4000, false, 10_000, None), 39);
        assert_eq!(h.dram_stats(), dram, "no new DRAM traffic");
        assert_eq!(h.serve_core(1, 0x4000, false, 20_000, None), 4, "now in L1");
        assert_eq!(h.core_l1_stats(1).misses(), 1);
        assert_eq!(
            (h.core_l1_stats(0), h.core_l2_stats(0)),
            (l1, l2),
            "core 1's accesses leave core 0's private levels alone"
        );
    }

    /// DESIGN.md "Modeling decisions" 11: a tracked prefetch that is
    /// evicted unused stays tracked, so when demand refills the line and a
    /// later access hits it in the L3, the hit still counts as useful.
    #[test]
    fn stale_prefetch_entry_is_credited_after_demand_refill() {
        let mut h = two_domains();
        h.stride_pfs = vec![None, None];
        let line = 0x8000u64;
        assert!(h.prefetch_into_l3(line, InsertPriority::Normal, Some(0)));
        assert!(
            !h.prefetch_into_l3(line, InsertPriority::Normal, Some(0)),
            "resident"
        );
        let stride = h.config.l3.sets() as u64 * 64;
        let mut k = 1;
        while h.l3.contains(line) {
            let _ = h.l3.fill(line + k * stride, false, InsertPriority::Normal);
            k += 1;
        }
        // Core 0's demand miss refills the line from DRAM; misses do not
        // consult the tracker.
        assert!(h.serve_core(0, line, false, 10_000, None) > 39);
        assert_eq!(h.xmem_prefetch_stats().useful, 0);
        // Core 1's first access hits the shared L3 and takes the credit,
        // which consumes the entry.
        assert_eq!(h.serve_core(1, line, false, 20_000, None), 39);
        assert_eq!(h.xmem_prefetch_stats().useful, 1);
        assert!(!h.inflight_prefetches.contains(line));
    }

    #[test]
    fn stride_prefetchers_train_per_core() {
        // Two strided streams interleaved in one 4 KB region: a shared
        // trainer would see alternating deltas and never gain confidence.
        // Each private one sees a constant stride: 8 accesses give 6
        // confident triggers of degree 2.
        let mut h = two_domains();
        for i in 0..8u64 {
            h.serve_core(0, 0x10000 + i * 64, false, i * 1000, None);
            h.serve_core(1, 0x10800 + i * 128, false, i * 1000 + 500, None);
        }
        for core in 0..2 {
            let pf = h.core_stride_prefetch_stats(core).unwrap();
            assert_eq!(pf.issued, 12, "core {core}: {pf:?}");
        }
    }

    #[test]
    fn miss_then_hit_latencies() {
        let mut h = small_hierarchy(XmemMode::Off);
        let miss = h.serve(0x1000, false, 0, None);
        assert!(miss > 39, "first access must reach DRAM: {miss}");
        let hit = h.serve(0x1000, false, 100, None);
        assert_eq!(hit, 4, "L1 hit");
    }

    #[test]
    fn l2_and_l3_hit_latencies() {
        let mut h = small_hierarchy(XmemMode::Off);
        h.serve(0x2000, false, 0, None);
        // Evict from L1 by filling its set (L1 = 4 KB, 4 ways, 16 sets).
        for i in 1..=4u64 {
            h.serve(0x2000 + i * 4096, false, i * 1000, None);
        }
        let lat = h.serve(0x2000, false, 100_000, None);
        assert_eq!(lat, 12, "L2 hit latency (4+8)");
    }

    #[test]
    fn writeback_traffic_generated() {
        let mut h = small_hierarchy(XmemMode::Off);
        // Write many distinct lines so dirty evictions cascade to DRAM.
        for i in 0..4096u64 {
            h.serve(i * 64, true, i * 10, None);
        }
        assert!(h.dram_stats().writes > 0, "{:?}", h.dram_stats());
    }

    #[test]
    fn stride_prefetcher_reduces_miss_latency_for_streams() {
        let run = |stride_on: bool| {
            let mut h = small_hierarchy(XmemMode::Off);
            if !stride_on {
                h.stride_pfs[0] = None;
            }
            let mut total = 0u64;
            for i in 0..2048u64 {
                total += h.serve(i * 64, false, i * 50, None);
            }
            total
        };
        let with_pf = run(true);
        let without = run(false);
        assert!(with_pf < without, "with {with_pf} vs without {without}");
    }

    #[test]
    fn baseline_without_ctx_never_consults_amu() {
        // Smoke test: XmemMode::Off with no context behaves like a plain
        // hierarchy (no panics, no pinning).
        let mut h = small_hierarchy(XmemMode::Off);
        for i in 0..512u64 {
            h.serve(i * 64, false, i, None);
        }
        assert!(h.pinned_atoms().is_empty());
    }

    #[test]
    fn guided_prefetch_follows_negative_stride() {
        use xmem_core::aam::AamConfig;
        use xmem_core::addr::{VaRange, VirtAddr};
        use xmem_core::amu::{AmuConfig, AtomManagementUnit, IdentityMmu};
        use xmem_core::attrs::{AccessPattern, AtomAttributes, Reuse};
        use xmem_core::isa::XmemInst;
        use xmem_core::pat::Pat;
        use xmem_core::translate::AttributeTranslator;

        let mut h = small_hierarchy(XmemMode::PrefetchOnly);
        let mut amu = AtomManagementUnit::new(AmuConfig {
            aam: AamConfig {
                phys_bytes: 1 << 20,
                ..Default::default()
            },
            ..Default::default()
        });
        let mmu = IdentityMmu::new();
        let atom = xmem_core::atom::AtomId::new(0);
        amu.execute(
            &XmemInst::Map {
                atom,
                range: VaRange::new(VirtAddr::new(0x10000), 16 << 10),
            },
            &mmu,
        )
        .unwrap();
        amu.execute(&XmemInst::Activate(atom), &mmu).unwrap();

        let attrs = AtomAttributes::builder()
            .access_pattern(AccessPattern::Regular { stride: -8 })
            .reuse(Reuse(100))
            .build();
        let t = AttributeTranslator::new();
        let mut cache_pat = Pat::new();
        cache_pat.set(atom, t.for_cache(&attrs));
        let mut pf_pat = Pat::new();
        pf_pat.set(atom, t.for_prefetcher(&attrs));

        // Miss in the middle of the atom: the guided engine should fetch
        // the *preceding* lines.
        let miss_at = 0x12000u64;
        h.serve(
            miss_at,
            false,
            0,
            Some(XmemContext {
                amu: &mut amu,
                cache_pat: &cache_pat,
                pf_pat: &pf_pat,
            }),
        );
        assert!(h.xmem_prefetch_stats().issued > 0);
        // The line just *before* the miss is now resident.
        assert!(h.l3.contains(miss_at - 64));
        assert!(!h.l3.contains(miss_at + 4 * 64));
    }

    #[test]
    fn warm_access_fills_caches_without_timing_traffic() {
        let mut h = small_hierarchy(XmemMode::Off);
        h.warm_access(0x3000, false, None);
        // The line is resident all the way up: a detailed access is an L1
        // hit with no DRAM traffic.
        let lat = h.serve(0x3000, false, 0, None);
        assert_eq!(lat, 4, "L1 hit after warm fill");
        assert_eq!(h.dram_stats().accesses(), 0, "warm probes skip DRAM timing");
        // The DRAM row is warmed: the first detailed miss to a neighbouring
        // line in the same row is a row hit. Scheme1 interleaves channels
        // at line granularity (2 channels), so the same-channel, same-row
        // neighbour of 0x100_0000 is two lines over, not one.
        h.warm_access(0x100_0000, false, None);
        h.serve(0x100_0080, false, 0, None);
        assert_eq!(h.dram_stats().row_hits, 1, "{:?}", h.dram_stats());
        // No prefetches were issued by warm probes.
        assert_eq!(h.stride_prefetch_stats().unwrap().issued, 0);
    }

    #[test]
    fn set_dirty_only_when_resident() {
        let mut c = Cache::new(CacheConfig::l1_westmere());
        assert!(!c.set_dirty(0x40));
        c.fill(0x40, false, InsertPriority::Normal);
        assert!(c.set_dirty(0x40));
    }
}
