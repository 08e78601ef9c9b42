//! The three-level cache hierarchy with XMem-coordinated cache management
//! and prefetching (use case 1, §5 of the paper).
//!
//! The hierarchy models the Table 3 configuration: L1 (LRU) → L2 (DRRIP) →
//! L3 (DRRIP + multi-stride prefetcher) → DRAM. Three operating modes map
//! to the paper's three evaluated systems:
//!
//! * [`XmemMode::Off`] — the **Baseline**: DRRIP everywhere, multi-stride
//!   prefetcher at L3.
//! * [`XmemMode::PrefetchOnly`] — **XMem-Pref**: DRRIP for cache
//!   management, prefetching driven by the expressed access pattern.
//! * [`XmemMode::Full`] — **XMem**: the greedy pinning algorithm keeps the
//!   high-reuse working set resident (insertion-priority + eviction
//!   protection, aged when the active-atom list changes) *and* misses to
//!   pinned atoms trigger pattern-directed prefetch.

use crate::cache::{Cache, CacheStats, Eviction, InsertPriority};
use crate::config::CacheConfig;
use crate::pin::{select_pinned, PinCandidate};
use crate::prefetch::{MultiStridePrefetcher, PrefetchStats};
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
    /// Enable the baseline multi-stride prefetcher at L3 (Table 3). It is
    /// automatically disabled when `xmem` is not `Off` (XMem prefetching
    /// replaces its policy, §5.2(4)).
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

/// The cache hierarchy + DRAM backend.
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
    l1: Cache,
    l2: Cache,
    l3: Cache,
    dram: Dram,
    stride_pf: Option<MultiStridePrefetcher>,
    /// Currently pinned atoms (output of the greedy algorithm).
    pinned: Vec<AtomId>,
    /// AMU epoch at the last pinning evaluation.
    last_epoch: u64,
    /// Lines prefetched but not yet demanded (bounded; for accuracy stats).
    inflight_prefetches: BTreeSet<u64>,
    xmem_pf_stats: PrefetchStats,
}

/// Cap on the prefetch-tracking set (oldest entries are simply forgotten —
/// this only affects the accuracy statistic, not behaviour).
const PF_TRACK_CAP: usize = 1 << 16;

impl Hierarchy {
    /// Creates an empty hierarchy in front of `dram`.
    pub fn new(config: HierarchyConfig, dram: Dram) -> Self {
        // The hardware stride prefetcher stays present in XMem modes: XMem
        // *supplements* dynamic mechanisms (§2.1) — guided prefetch takes
        // over only for data whose atom expresses a pattern; everything
        // else (unmapped streams) still benefits from the stride engine.
        let stride_pf = if config.stride_prefetcher {
            Some(MultiStridePrefetcher::new(
                config.stride_streams,
                config.prefetch_degree,
            ))
        } else {
            None
        };
        Hierarchy {
            line_mask: !(config.l1.line_bytes - 1),
            l1_lat: config.l1.latency,
            l2_lat: config.l1.latency + config.l2.latency,
            l3_lat: config.l1.latency + config.l2.latency + config.l3.latency,
            l1: Cache::new(config.l1),
            l2: Cache::new(config.l2),
            l3: Cache::new(config.l3),
            dram,
            stride_pf,
            pinned: Vec::new(),
            last_epoch: u64::MAX,
            inflight_prefetches: BTreeSet::new(),
            xmem_pf_stats: PrefetchStats::default(),
            config,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// L1 statistics.
    pub fn l1_stats(&self) -> CacheStats {
        self.l1.stats()
    }

    /// L2 statistics.
    pub fn l2_stats(&self) -> CacheStats {
        self.l2.stats()
    }

    /// L3 statistics.
    pub fn l3_stats(&self) -> CacheStats {
        self.l3.stats()
    }

    /// The L2's DRRIP policy-select counter (0 for non-DRRIP configs).
    pub fn l2_psel(&self) -> i32 {
        self.l2.psel()
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

    /// Stride-prefetcher statistics (baseline mode only).
    pub fn stride_prefetch_stats(&self) -> Option<PrefetchStats> {
        self.stride_pf.as_ref().map(|p| p.stats())
    }

    /// XMem-guided prefetch statistics.
    pub fn xmem_prefetch_stats(&self) -> PrefetchStats {
        self.xmem_pf_stats
    }

    /// Atoms currently pinned by the greedy algorithm.
    pub fn pinned_atoms(&self) -> &[AtomId] {
        &self.pinned
    }

    /// Total latency from the core to the DRAM controller.
    fn lat_to_mem(&self) -> u64 {
        self.l3_lat
    }

    /// Re-evaluates the pinned-atom set when the AMU epoch has changed
    /// (a MAP/UNMAP/ACTIVATE/DEACTIVATE occurred), aging previously pinned
    /// lines per §5.2(3).
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

    /// Issues XMem-guided prefetches after a miss on `pa` belonging to
    /// `atom` (§5.2(4)): the next lines of the atom's data in the direction
    /// of the expressed stride, *bounded to the atom's extents* (the AMU
    /// broadcasts extent information for exactly this purpose, §4.2(4)).
    /// When the walk reaches the end of the atom it wraps to the beginning —
    /// tiles are swept repeatedly, so the wrap is the right continuation.
    fn xmem_prefetch(&mut self, pa: u64, atom: AtomId, ctx: &mut XmemContext<'_>, t_mem: u64) {
        let Some((targets, priority)) = self.xmem_prefetch_targets(pa, atom, ctx) else {
            return;
        };
        for target in targets {
            if self.l3.contains(target) {
                continue;
            }
            let _ = self.dram.serve_prefetch(target, t_mem);
            if let Some(ev) = self.l3.fill(target, false, priority) {
                self.writeback_to_dram(ev, t_mem);
            }
            self.track_prefetch(target);
            self.xmem_pf_stats.issued += 1;
        }
    }

    /// Warm-path twin of [`Hierarchy::xmem_prefetch`]: the same fills,
    /// tracking, and stats, but DRAM rows are warmed instead of timed and
    /// dirty evictions are dropped.
    fn warm_xmem_prefetch(&mut self, pa: u64, atom: AtomId, ctx: &mut XmemContext<'_>) {
        let Some((targets, priority)) = self.xmem_prefetch_targets(pa, atom, ctx) else {
            return;
        };
        for target in targets {
            if self.l3.contains(target) {
                continue;
            }
            self.dram.warm_access(target);
            let _ = self.l3.fill(target, false, priority);
            self.track_prefetch(target);
            self.xmem_pf_stats.issued += 1;
        }
    }

    /// The target walk shared by the timed and warm guided-prefetch paths:
    /// the next `xmem_prefetch_degree` lines of `atom`'s data in the
    /// direction of its expressed stride, bounded to (and wrapping around)
    /// the atom's extents.
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

    fn track_prefetch(&mut self, line_addr: u64) {
        if self.inflight_prefetches.len() >= PF_TRACK_CAP {
            self.inflight_prefetches.clear();
        }
        self.inflight_prefetches.insert(line_addr);
    }

    fn writeback_to_dram(&mut self, ev: Eviction, now: u64) {
        if ev.dirty {
            let _ = self.dram.serve(ev.addr, OpAttrs::write(), now);
        }
    }

    /// A dirty line evicted from an inner level lands in the next level if
    /// resident, else goes to DRAM.
    fn writeback_inner(&mut self, ev: Eviction, level: u8, now: u64) {
        if !ev.dirty {
            return;
        }
        match level {
            1 => {
                if !self.l2.set_dirty(ev.addr) && !self.l3.set_dirty(ev.addr) {
                    let _ = self.dram.serve(ev.addr, OpAttrs::write(), now);
                }
            }
            2 => {
                if !self.l3.set_dirty(ev.addr) {
                    let _ = self.dram.serve(ev.addr, OpAttrs::write(), now);
                }
            }
            _ => {
                let _ = self.dram.serve(ev.addr, OpAttrs::write(), now);
            }
        }
    }

    /// Performs one demand access, returning its latency in cycles.
    ///
    /// `xmem` supplies the AMU + PATs when the system runs with XMem
    /// enabled; `None` reproduces the baseline exactly (no lookups at all).
    ///
    /// Named `serve` to match the batched memory-path vocabulary
    /// ([`cpu_sim::batch::MemoryPath`]); the extra [`XmemContext`]
    /// parameter keeps this the one signature the whole hierarchy exposes.
    #[inline]
    pub fn serve(
        &mut self,
        pa: u64,
        is_write: bool,
        now: u64,
        xmem: Option<XmemContext<'_>>,
    ) -> u64 {
        // The dominant outcome by far — keep it inlinable at call sites and
        // push everything below L1 out of line.
        if self.l1.probe(pa, is_write) {
            return self.l1_lat;
        }
        self.serve_l1_miss(pa, is_write, now, xmem)
    }

    /// The below-L1 continuation of [`Hierarchy::serve`].
    fn serve_l1_miss(
        &mut self,
        pa: u64,
        is_write: bool,
        now: u64,
        mut xmem: Option<XmemContext<'_>>,
    ) -> u64 {
        let line_addr = pa & self.line_mask;
        let l2_lat = self.l2_lat;
        if self.l2.probe(pa, false) {
            if let Some(ev) = self.l1.fill(line_addr, is_write, InsertPriority::Normal) {
                self.writeback_inner(ev, 1, now);
            }
            return l2_lat;
        }

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
        let l3_lat = self.l3_lat;
        let l3_hit = self.l3.probe(pa, false);

        // Baseline stride prefetcher trains on every L3 access.
        let stride_reqs = self
            .stride_pf
            .as_mut()
            .map(|pf| pf.train(pa))
            .unwrap_or_default();

        if l3_hit {
            let was_prefetched = self.inflight_prefetches.remove(&line_addr);
            if was_prefetched {
                if let Some(pf) = self.stride_pf.as_mut() {
                    pf.record_useful();
                } else {
                    self.xmem_pf_stats.useful += 1;
                }
            }
            if let Some(ev) = self.l2.fill(line_addr, false, InsertPriority::Normal) {
                self.writeback_inner(ev, 2, now);
            }
            if let Some(ev) = self.l1.fill(line_addr, is_write, InsertPriority::Normal) {
                self.writeback_inner(ev, 1, now);
            }
            // Continuation: a hit on a line the guided engine prefetched
            // keeps the stream running ahead (like the software prefetching
            // §5.4 equates XMem-Pref with), without re-scanning on every
            // ordinary hit.
            self.issue_stride_prefetches(stride_reqs, now + l3_lat);
            return l3_lat;
        }

        // L3 miss: demand fetch from DRAM.
        let t_mem = now + self.lat_to_mem();
        let dram_lat = self.dram.serve(line_addr, OpAttrs::read(), t_mem);

        // Fill the hierarchy.
        let l3_priority = match (self.config.xmem, atom) {
            (XmemMode::Full, Some(a)) if self.pinned.contains(&a) => InsertPriority::Pinned,
            _ => InsertPriority::Normal,
        };
        if let Some(ev) = self.l3.fill(line_addr, false, l3_priority) {
            self.writeback_to_dram(ev, t_mem);
        }
        if let Some(ev) = self.l2.fill(line_addr, false, InsertPriority::Normal) {
            self.writeback_inner(ev, 2, now);
        }
        if let Some(ev) = self.l1.fill(line_addr, is_write, InsertPriority::Normal) {
            self.writeback_inner(ev, 1, now);
        }

        // Prefetching: XMem-guided for data whose atom expresses a pattern
        // (§5.2(4)); the hardware stride engine covers everything else.
        if !self.guided_prefetch(pa, atom, &mut xmem, t_mem) {
            self.issue_stride_prefetches(stride_reqs, t_mem);
        }

        l3_lat + dram_lat
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
        if self.l1.probe(pa, is_write) {
            return;
        }
        let line_addr = pa & self.line_mask;
        if self.l2.probe(pa, false) {
            let _ = self.l1.fill(line_addr, is_write, InsertPriority::Normal);
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
        let stride_reqs = self
            .stride_pf
            .as_mut()
            .map(|pf| pf.train(pa))
            .unwrap_or_default();
        if self.l3.probe(pa, false) {
            if self.inflight_prefetches.remove(&line_addr) {
                if let Some(pf) = self.stride_pf.as_mut() {
                    pf.record_useful();
                } else {
                    self.xmem_pf_stats.useful += 1;
                }
            }
            let _ = self.l2.fill(line_addr, false, InsertPriority::Normal);
            let _ = self.l1.fill(line_addr, is_write, InsertPriority::Normal);
            self.warm_stride_prefetches(stride_reqs);
            return;
        }
        self.dram.warm_access(line_addr);
        let l3_priority = match (self.config.xmem, atom) {
            (XmemMode::Full, Some(a)) if self.pinned.contains(&a) => InsertPriority::Pinned,
            _ => InsertPriority::Normal,
        };
        let _ = self.l3.fill(line_addr, false, l3_priority);
        let _ = self.l2.fill(line_addr, false, InsertPriority::Normal);
        let _ = self.l1.fill(line_addr, is_write, InsertPriority::Normal);
        if !self.warm_guided_prefetch(pa, atom, &mut xmem) {
            self.warm_stride_prefetches(stride_reqs);
        }
    }

    /// Warm-path twin of [`Hierarchy::guided_prefetch`]: same mode/atom
    /// dispatch, warm prefetch mechanics.
    fn warm_guided_prefetch(
        &mut self,
        pa: u64,
        atom: Option<AtomId>,
        xmem: &mut Option<XmemContext<'_>>,
    ) -> bool {
        match (xmem, self.config.xmem, atom) {
            (Some(ctx), XmemMode::Full, Some(a)) if self.pinned.contains(&a) => {
                self.warm_xmem_prefetch(pa, a, ctx);
                true
            }
            (Some(ctx), XmemMode::PrefetchOnly, Some(a)) => {
                let reuse = ctx.cache_pat.get(a).map(|p| p.reuse).unwrap_or(0);
                if reuse > 0 {
                    self.warm_xmem_prefetch(pa, a, ctx);
                    true
                } else {
                    false
                }
            }
            _ => false,
        }
    }

    /// Warm-path twin of [`Hierarchy::issue_stride_prefetches`]: fills and
    /// tracks the prefetched lines, warms their DRAM rows, drops evictions.
    fn warm_stride_prefetches(&mut self, reqs: crate::prefetch::PrefetchRun) {
        for req in reqs {
            let target = req.addr & !(self.config.l3.line_bytes - 1);
            if self.l3.contains(target) {
                continue;
            }
            self.dram.warm_access(target);
            let _ = self.l3.fill(target, false, InsertPriority::Normal);
            self.track_prefetch(target);
        }
    }

    /// Issues XMem-guided prefetches for `pa` if its atom qualifies under
    /// the current mode; returns whether guided prefetch handled it.
    fn guided_prefetch(
        &mut self,
        pa: u64,
        atom: Option<AtomId>,
        xmem: &mut Option<XmemContext<'_>>,
        t_mem: u64,
    ) -> bool {
        match (xmem, self.config.xmem, atom) {
            (Some(ctx), XmemMode::Full, Some(a))
                // §5.2(4): accesses to *pinned* atoms drive guided prefetch.
                if self.pinned.contains(&a) => {
                    self.xmem_prefetch(pa, a, ctx, t_mem);
                    true
                }
            (Some(ctx), XmemMode::PrefetchOnly, Some(a)) => {
                // XMem-Pref: pattern-directed prefetch for any active atom
                // with expressed reuse (software-prefetch-like, §5.4).
                let reuse = ctx.cache_pat.get(a).map(|p| p.reuse).unwrap_or(0);
                if reuse > 0 {
                    self.xmem_prefetch(pa, a, ctx, t_mem);
                    true
                } else {
                    false
                }
            }
            _ => false,
        }
    }

    fn issue_stride_prefetches(&mut self, reqs: crate::prefetch::PrefetchRun, t_mem: u64) {
        for req in reqs {
            let target = req.addr & !(self.config.l3.line_bytes - 1);
            if self.l3.contains(target) {
                continue;
            }
            let _ = self.dram.serve_prefetch(target, t_mem);
            // Prefetches insert with the default policy priority: distant
            // insertion would make far-ahead prefetches immediate victims.
            if let Some(ev) = self.l3.fill(target, false, InsertPriority::Normal) {
                self.writeback_to_dram(ev, t_mem);
            }
            self.track_prefetch(target);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_sim::{AddressMapping, DramConfig};

    fn small_hierarchy(mode: XmemMode) -> Hierarchy {
        let cfg = HierarchyConfig {
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
        };
        Hierarchy::new(
            cfg,
            Dram::new(DramConfig::ddr3_1066(3.6), AddressMapping::scheme1()),
        )
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
                h.stride_pf = None;
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
