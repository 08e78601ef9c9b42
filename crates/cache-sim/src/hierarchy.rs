//! The cache hierarchy with XMem-coordinated cache management and
//! prefetching (use case 1, §5 of the paper) — the one memory system that
//! single-core runs, co-runs and sweep groups share.
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
//! # Tiers
//!
//! The hierarchy is three tiers:
//!
//! * the **front**: the private L1/L2 of every core (and, under MESI, the
//!   bus between them);
//! * one **L3 node** per distinct L3-side setting: the L3, the per-core
//!   stride prefetchers, the pinned-atom set with its AMU epoch (§5.2(2):
//!   pinning "takes the active atoms in *all the cores*"), prefetch
//!   tracking and guided prefetch;
//! * one **DRAM** per member.
//!
//! [`Hierarchy::new`] builds one member: one node over one DRAM.
//! [`Hierarchy::serve_core`] is a core's access served through all three
//! tiers at once; [`Hierarchy::serve`] is core 0's.
//! [`Hierarchy::with_members`] builds a *group*: one single-core front
//! over several members that differ only below the private caches, where
//! members with the same L3-side setting share a node. A group runs a
//! stretch of accesses at a time: [`Hierarchy::record`] runs the front and
//! notes what reached below it, [`Hierarchy::fan_out`] runs every node
//! over those notes and logs each node's DRAM traffic, and
//! [`Hierarchy::replay`] plays a node's log into one member's DRAM at that
//! member's own times. This is exact because no cache, prefetcher or
//! pinning state of a single core ever reads time: only the core and the
//! DRAM do.
//!
//! A node reaches DRAM through one port interface. Serving at once, a
//! logged replay and functional warming all run the same node code; only
//! the port differs, and one port type maps each request kind to a DRAM
//! call and a time.
//!
//! Without a bus the private domains never observe each other's writes —
//! only correct for disjoint data. With one (MESI), every access first runs
//! the coherence engine ([`crate::coherence::mesi_access`]) over the
//! private L1/L2s, and only accesses no peer could supply continue into
//! the shared levels, through the same L3/DRAM/pinning/prefetch code.

use crate::cache::{Cache, CacheStats, Eviction, FillOutcome, InsertPriority};
use crate::coherence::{mesi_access, BusStats, CoherentAccess, MesiDomains, SnoopBus};
use crate::config::CacheConfig;
use crate::pin::{select_pinned, PinCandidate};
use crate::prefetch::{MultiStridePrefetcher, PrefetchRun, PrefetchStats};
use crate::tracker::PrefetchTracker;
use cpu_sim::batch::{MemoryPath, OpAttrs};
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

/// Concurrent streams in each stride prefetcher (Table 3).
const STRIDE_STREAMS: usize = 16;
/// Lines per stride-prefetcher trigger.
const STRIDE_DEGREE: usize = 2;
/// Lines per XMem-guided prefetch. Guided prefetch knows the atom's exact
/// extents, so it can run further ahead without waste (§5.1: "prefetches
/// the rest based on the expressed access pattern").
const XMEM_PREFETCH_DEGREE: usize = 4;

/// Hierarchy configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
            xmem: XmemMode::Off,
        }
    }

    /// Whether an L3 node built for `self` simulates `other` exactly:
    /// everything below the private levels is equal. The private levels
    /// themselves belong to the front.
    fn same_l3_side(&self, other: &HierarchyConfig) -> bool {
        self.l3 == other.l3
            && self.stride_prefetcher == other.stride_prefetcher
            && self.xmem == other.xmem
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

/// What an L3 node reads of the XMem state: the AMU's active atoms,
/// extents and epoch (never its ALB, which the front alone drives) and the
/// PATs.
#[derive(Debug, Clone, Copy)]
struct XmemView<'a> {
    amu: &'a AtomManagementUnit,
    cache_pat: &'a Pat<CachePrimitive>,
    pf_pat: &'a Pat<PrefetcherPrimitive>,
}

impl<'a> XmemView<'a> {
    fn of(ctx: &'a XmemContext<'_>) -> Self {
        XmemView {
            amu: ctx.amu,
            cache_pat: ctx.cache_pat,
            pf_pat: ctx.pf_pat,
        }
    }
}

/// Where the private levels left an access that missed the L1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reach {
    /// An L2 hit (the line filled into the L1).
    L2,
    /// A private miss (the line filled into the L2 and L1): the access
    /// continues into the L3.
    Shared,
}

/// Dirty lines leaving the private levels, in order: at most the L2's
/// victim and then the L1's.
#[derive(Debug, Clone, Copy, Default)]
struct Sinks {
    lines: [u64; 2],
    len: usize,
}

impl Sinks {
    fn push(&mut self, line: u64) {
        self.lines[self.len] = line;
        self.len += 1;
    }

    fn as_slice(&self) -> &[u64] {
        &self.lines[..self.len]
    }
}

/// Where an L3 node sends its DRAM traffic. Every request happens either
/// at the access's own time (`now`: private dirty lines sinking past the
/// L3) or at its memory time (`now` plus the latency down to the L3: the
/// demand read, prefetches and L3 victims). A timed access and a
/// functional-warming one run the same L3 code; they differ only in the
/// port ([`Warming`]).
trait DramPort {
    /// The demand read of an L3 miss, at the memory time.
    fn demand(&mut self, line: u64);
    /// A dirty private line the L3 does not hold, written back at `now`.
    fn sink(&mut self, line: u64);
    /// A dirty L3 victim, written back at the memory time.
    fn writeback(&mut self, line: u64);
    /// A prefetch read, at the memory time.
    fn prefetch(&mut self, line: u64);
    /// A functional-warming read: the row opens, nothing is timed.
    fn warm(&mut self, line: u64);
}

/// Functional warming over `P`: reads (demand and prefetch) only open
/// their rows, and writebacks are dropped — they produce timing and
/// traffic, neither of which exists while warming.
#[derive(Debug)]
struct Warming<'p, P>(&'p mut P);

impl<P: DramPort> DramPort for Warming<'_, P> {
    #[inline]
    fn demand(&mut self, line: u64) {
        self.0.warm(line);
    }
    #[inline]
    fn sink(&mut self, _line: u64) {}
    #[inline]
    fn writeback(&mut self, _line: u64) {}
    #[inline]
    fn prefetch(&mut self, line: u64) {
        self.0.warm(line);
    }
    #[inline]
    fn warm(&mut self, line: u64) {
        self.0.warm(line);
    }
}

/// A port that serves each request at once, and the one place a request
/// kind becomes a [`Dram`] call at a time: the one-member path, and a
/// group member's replay of its node's log ([`replay_cmd`]).
#[derive(Debug)]
struct Served<'a> {
    dram: &'a mut Dram,
    now: u64,
    t_mem: u64,
    /// The demand read's latency (0 until one is served).
    latency: u64,
}

impl<'a> Served<'a> {
    fn new(dram: &'a mut Dram, now: u64, t_mem: u64) -> Self {
        Served {
            dram,
            now,
            t_mem,
            latency: 0,
        }
    }
}

impl DramPort for Served<'_> {
    #[inline]
    fn demand(&mut self, line: u64) {
        self.latency = self.dram.serve(line, OpAttrs::read(), self.t_mem);
    }
    #[inline]
    fn sink(&mut self, line: u64) {
        let _ = self.dram.serve(line, OpAttrs::write(), self.now);
    }
    #[inline]
    fn writeback(&mut self, line: u64) {
        let _ = self.dram.serve(line, OpAttrs::write(), self.t_mem);
    }
    #[inline]
    fn prefetch(&mut self, line: u64) {
        let _ = self.dram.serve_prefetch(line, self.t_mem);
    }
    #[inline]
    fn warm(&mut self, line: u64) {
        self.dram.warm_access(line);
    }
}

// A node's log holds one word per DRAM request: the line address with the
// request kind in its low bits (lines are at least 8 bytes).
const CMD_DEMAND: u64 = 1;
const CMD_SINK: u64 = 2;
const CMD_WRITEBACK: u64 = 3;
const CMD_PREFETCH: u64 = 4;
const CMD_WARM: u64 = 5;
const CMD_MASK: u64 = 7;

/// A port that logs each request for the members to replay through
/// [`replay_cmd`].
impl DramPort for Vec<u64> {
    #[inline]
    fn demand(&mut self, line: u64) {
        self.push(line | CMD_DEMAND);
    }
    #[inline]
    fn sink(&mut self, line: u64) {
        self.push(line | CMD_SINK);
    }
    #[inline]
    fn writeback(&mut self, line: u64) {
        self.push(line | CMD_WRITEBACK);
    }
    #[inline]
    fn prefetch(&mut self, line: u64) {
        self.push(line | CMD_PREFETCH);
    }
    #[inline]
    fn warm(&mut self, line: u64) {
        self.push(line | CMD_WARM);
    }
}

/// Sends one logged word's request to `port`: the inverse of the
/// `Vec<u64>` port.
#[inline]
fn replay_cmd<P: DramPort>(cmd: u64, port: &mut P) {
    let line = cmd & !CMD_MASK;
    match cmd & CMD_MASK {
        CMD_DEMAND => port.demand(line),
        CMD_SINK => port.sink(line),
        CMD_WRITEBACK => port.writeback(line),
        CMD_PREFETCH => port.prefetch(line),
        _ => port.warm(line),
    }
}

/// The shared levels of one L3-side setting: the L3, the per-core stride
/// prefetchers, pinning, prefetch tracking and guided prefetch.
#[derive(Debug)]
struct L3Node {
    config: HierarchyConfig,
    /// `!(l1.line_bytes - 1)`: the line a demand access names.
    line_mask: u64,
    /// Cumulative latency down to and including the L3 (L1+L2+L3).
    l3_lat: u64,
    l3: Cache,
    stride_pfs: Vec<Option<MultiStridePrefetcher>>,
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
    /// A group's log of this node's DRAM requests over the current
    /// stretch, and where each fanned-out access's requests end in it.
    cmds: Vec<u64>,
    ends: Vec<usize>,
}

impl L3Node {
    fn new(config: HierarchyConfig, cores: usize) -> Self {
        // The hardware stride prefetcher stays present in XMem modes: XMem
        // *supplements* dynamic mechanisms (§2.1) — guided prefetch takes
        // over only for data whose atom expresses a pattern; everything
        // else (unmapped streams) still benefits from the stride engine.
        let stride_pf = || {
            config
                .stride_prefetcher
                .then(|| MultiStridePrefetcher::new(STRIDE_STREAMS, STRIDE_DEGREE))
        };
        assert!(
            config.l1.line_bytes > CMD_MASK && config.l3.line_bytes > CMD_MASK,
            "lines must be wider than the request-kind bits"
        );
        L3Node {
            line_mask: !(config.l1.line_bytes - 1),
            l3_lat: config.l1.latency + config.l2.latency + config.l3.latency,
            l3: Cache::new(config.l3),
            stride_pfs: (0..cores).map(|_| stride_pf()).collect(),
            pinned: Vec::new(),
            pin_exempt: BTreeSet::new(),
            last_epoch: u64::MAX,
            inflight_prefetches: PrefetchTracker::new(config.l3.line_bytes),
            xmem_pf_stats: PrefetchStats::default(),
            cmds: Vec::new(),
            ends: Vec::new(),
            config,
        }
    }

    /// Re-evaluates the pinned-atom set over the active atoms of all cores
    /// when the AMU epoch has changed (a MAP/UNMAP/ACTIVATE/DEACTIVATE
    /// occurred), aging previously pinned lines per §5.2(3).
    fn refresh_pinning(&mut self, x: XmemView<'_>) {
        let epoch = x.amu.epoch();
        if epoch == self.last_epoch {
            return;
        }
        self.last_epoch = epoch;
        if self.config.xmem != XmemMode::Full {
            return;
        }
        let candidates: Vec<PinCandidate> = x
            .amu
            .active_atoms()
            .into_iter()
            .filter(|atom| !self.pin_exempt.contains(atom))
            .filter_map(|atom| {
                let prim = x.cache_pat.get(atom)?;
                prim.pin_candidate.then_some(PinCandidate {
                    atom,
                    reuse: prim.reuse,
                    size_bytes: x.amu.mapped_bytes(atom),
                })
            })
            .collect();
        let new_pinned = select_pinned(&candidates, self.config.l3.size_bytes);
        // The mapping behind the atoms may have changed even if the pinned
        // ID set did not (a tile moved): age unconditionally on epoch change.
        self.l3.age_pinned();
        self.pinned = new_pinned;
    }

    /// Dirty data leaving the private levels lands in the L3 if the line
    /// is resident there, else goes to DRAM.
    #[inline]
    fn sink<P: DramPort>(&mut self, line_addr: u64, port: &mut P) {
        if !self.l3.set_dirty(line_addr) {
            port.sink(line_addr);
        }
    }

    /// The shared levels below `core`'s private miss on `pa`: pinning
    /// refresh, the L3, DRAM, and prefetching. `atom` is the ALB's answer
    /// for `pa` and `sinks` the private levels' dirty victims, which land
    /// after the L3 fill and before any prefetch. Over a [`Warming`] port
    /// this is the functional-warming access: the same probes, fills,
    /// replacement updates, pinning refresh, prefetcher training and
    /// prefetch fills, with no timing. Returns whether the L3 hit.
    fn access<P: DramPort>(
        &mut self,
        core: usize,
        pa: u64,
        atom: Option<AtomId>,
        sinks: &[u64],
        xmem: Option<XmemView<'_>>,
        port: &mut P,
    ) -> bool {
        let line_addr = pa & self.line_mask;
        if let Some(x) = xmem {
            if self.config.xmem != XmemMode::Off {
                self.refresh_pinning(x);
            }
        }
        let l3_hit = self.l3.probe(pa, false);

        // The stride prefetcher trains on every L3 access.
        let stride_reqs = self.stride_pfs[core]
            .as_mut()
            .map(|pf| pf.train(pa))
            .unwrap_or_default();

        if l3_hit {
            self.note_demand_hit(core, line_addr);
            for &line in sinks {
                self.sink(line, port);
            }
            self.issue_stride_prefetches(stride_reqs, port);
            return true;
        }

        // L3 miss: demand fetch from DRAM, then fill the L3.
        port.demand(line_addr);
        if let Some(ev) = self.l3.fill(line_addr, false, self.l3_priority(atom)) {
            Self::writeback_to_dram(ev, port);
        }
        for &line in sinks {
            self.sink(line, port);
        }

        // Prefetching: XMem-guided for data whose atom expresses a pattern
        // (§5.2(4)); the hardware stride engine covers everything else.
        if !self.guided_prefetch(pa, atom, xmem, port) {
            self.issue_stride_prefetches(stride_reqs, port);
        }
        false
    }

    fn writeback_to_dram<P: DramPort>(ev: Eviction, port: &mut P) {
        if ev.dirty {
            port.writeback(ev.addr);
        }
    }

    /// Prefetches `target` into the L3 unless it is resident, tracking the
    /// fill; returns whether it was issued. DRAM sees the read and then a
    /// dirty victim's writeback.
    fn prefetch_into_l3<P: DramPort>(
        &mut self,
        target: u64,
        priority: InsertPriority,
        port: &mut P,
    ) -> bool {
        let FillOutcome::Filled(evicted) = self.l3.fill_if_absent(target, false, priority) else {
            return false;
        };
        port.prefetch(target);
        if let Some(ev) = evicted {
            Self::writeback_to_dram(ev, port);
        }
        self.inflight_prefetches.insert(target);
        true
    }

    /// XMem-guided prefetch targets after a miss on `pa` belonging to
    /// `atom` (§5.2(4)): the next [`XMEM_PREFETCH_DEGREE`] lines of the
    /// atom's data in the direction of the expressed stride, *bounded to
    /// the atom's extents* (the AMU broadcasts extent information for
    /// exactly this purpose, §4.2(4)). When the walk reaches the end of the
    /// atom it wraps to the beginning — tiles are swept repeatedly, so the
    /// wrap is the right continuation.
    fn xmem_prefetch_targets(
        &self,
        pa: u64,
        atom: AtomId,
        x: XmemView<'_>,
    ) -> Option<(Vec<u64>, InsertPriority)> {
        let prim = x.pf_pat.get(atom)?;
        let stride = prim.stride?;
        let line = self.config.l3.line_bytes;
        let forward = stride >= 0;
        let exts = x.amu.extents(atom);
        if exts.is_empty() {
            return None;
        }
        let mut ei = exts
            .iter()
            .position(|e| pa >= e.start.raw() && pa < e.start.raw() + e.len)
            .unwrap_or(0);
        let mut pos = pa & !(line - 1);
        let mut targets = Vec::with_capacity(XMEM_PREFETCH_DEGREE);
        for _ in 0..XMEM_PREFETCH_DEGREE {
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

    /// Issues XMem-guided prefetches for `pa` if its atom qualifies under
    /// the current mode; returns whether guided prefetch handled it.
    fn guided_prefetch<P: DramPort>(
        &mut self,
        pa: u64,
        atom: Option<AtomId>,
        xmem: Option<XmemView<'_>>,
        port: &mut P,
    ) -> bool {
        let (Some(x), Some(a)) = (xmem, atom) else {
            return false;
        };
        let qualifies = match self.config.xmem {
            // §5.2(4): accesses to *pinned* atoms drive guided prefetch.
            XmemMode::Full => self.pinned.contains(&a),
            // XMem-Pref: pattern-directed prefetch for any active atom with
            // expressed reuse (software-prefetch-like, §5.4).
            XmemMode::PrefetchOnly => x.cache_pat.get(a).map_or(0, |p| p.reuse) > 0,
            XmemMode::Off => false,
        };
        if qualifies {
            if let Some((targets, priority)) = self.xmem_prefetch_targets(pa, a, x) {
                for target in targets {
                    if self.prefetch_into_l3(target, priority, port) {
                        self.xmem_pf_stats.issued += 1;
                    }
                }
            }
        }
        qualifies
    }

    /// Issues the stride prefetcher's requests into the L3. Prefetches
    /// insert with the default policy priority: distant insertion would
    /// make far-ahead prefetches immediate victims.
    fn issue_stride_prefetches<P: DramPort>(&mut self, reqs: PrefetchRun, port: &mut P) {
        for req in reqs {
            let target = req.addr & !(self.config.l3.line_bytes - 1);
            self.prefetch_into_l3(target, InsertPriority::Normal, port);
        }
    }
}

/// What the L3 nodes do with a noted access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BelowKind {
    /// An L2 hit: only its dirty L1 victim reaches them.
    Sinks,
    /// A private miss.
    Access,
    /// A functional-warming private miss.
    Warm,
}

/// What the front noted about one access of a group's stretch that reached
/// below the L1 with work for the L3 nodes.
#[derive(Debug, Clone, Copy)]
struct Below {
    kind: BelowKind,
    pa: u64,
    /// The ALB's answer for `pa` (`None` without an XMem member).
    atom: Option<AtomId>,
    sinks: Sinks,
}

// Per-access classes of a group's op lane (two low bits; the TLB walk
// cycles sit above them).
const OP_L1: u64 = 0;
const OP_L2: u64 = 1;
const OP_L2_SINKS: u64 = 2;
const OP_SHARED: u64 = 3;

/// The cache hierarchy + DRAM backend: a front of per-core private
/// domains over L3 nodes and DRAMs (see the module docs).
#[derive(Debug)]
pub struct Hierarchy {
    /// The first member's configuration (the front reads its L1/L2).
    config: HierarchyConfig,
    /// `!(l1.line_bytes - 1)`, precomputed for the per-access line align.
    line_mask: u64,
    /// Cumulative latencies to the private levels (L1; L1+L2).
    l1_lat: u64,
    l2_lat: u64,
    // ── front: per core ─────────────────────────────────────────────────
    l1s: Vec<Cache>,
    l2s: Vec<Cache>,
    /// The MESI snooping bus; `None` means no coherence.
    bus: Option<SnoopBus>,
    /// Reused outcome buffer for [`mesi_access`].
    coh_acc: CoherentAccess,
    // ── shared levels and memory ────────────────────────────────────────
    nodes: Vec<L3Node>,
    /// One DRAM per member.
    drams: Vec<Dram>,
    /// Each member's node.
    node_of: Vec<usize>,
    // ── a group's current stretch ───────────────────────────────────────
    /// One word per access: the class in the low two bits, the TLB walk
    /// cycles above.
    ops: Vec<u64>,
    /// The accesses that reached below the L1 with work for the nodes.
    below: Vec<Below>,
}

impl Hierarchy {
    /// Creates an empty one-core hierarchy in front of `dram`.
    pub fn new(config: HierarchyConfig, dram: Dram) -> Self {
        Self::with_members(vec![(config, dram)], 1, false)
    }

    /// Creates the memory system of `members`: `cores` private domains,
    /// built from the first member's configuration, over every member's L3
    /// side and DRAM, kept coherent by a MESI snooping bus when `coherent`
    /// is set. Members whose configurations agree below the private levels
    /// share one L3 node. More than one member makes a *group*, which has
    /// one core and no bus and runs by stretches (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty, if the members' L1/L2 differ, or if a
    /// group asks for more than one core or a bus.
    pub fn with_members(
        members: Vec<(HierarchyConfig, Dram)>,
        cores: usize,
        coherent: bool,
    ) -> Self {
        assert!(
            members.len() == 1 || (cores == 1 && !coherent),
            "a group is one core without a bus"
        );
        // simlint: allow(unwrap, reason = "documented panic: a hierarchy needs a member")
        let config = members.first().expect("a hierarchy has a member").0;
        let mut nodes: Vec<L3Node> = Vec::new();
        let mut node_of = Vec::with_capacity(members.len());
        let mut drams = Vec::with_capacity(members.len());
        for (c, dram) in members {
            assert!(
                c.l1 == config.l1 && c.l2 == config.l2,
                "a group's members share their private levels"
            );
            let node = match nodes.iter().position(|n| n.config.same_l3_side(&c)) {
                Some(n) => n,
                None => {
                    nodes.push(L3Node::new(c, cores));
                    nodes.len() - 1
                }
            };
            node_of.push(node);
            drams.push(dram);
        }
        Hierarchy {
            line_mask: !(config.l1.line_bytes - 1),
            l1_lat: config.l1.latency,
            l2_lat: config.l1.latency + config.l2.latency,
            l1s: (0..cores).map(|_| Cache::new(config.l1)).collect(),
            l2s: (0..cores).map(|_| Cache::new(config.l2)).collect(),
            bus: coherent.then(SnoopBus::default),
            coh_acc: CoherentAccess::default(),
            nodes,
            drams,
            node_of,
            ops: Vec::new(),
            below: Vec::new(),
            config,
        }
    }

    /// Excludes `atoms` from pinning from the next pinning evaluation on.
    pub fn set_pin_exempt(&mut self, atoms: BTreeSet<AtomId>) {
        for node in &mut self.nodes {
            node.pin_exempt = atoms.clone();
        }
    }

    /// The configuration in use (the first member's).
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    fn node(&self, member: usize) -> &L3Node {
        &self.nodes[self.node_of[member]]
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

    /// The first member's L3 statistics.
    pub fn l3_stats(&self) -> CacheStats {
        self.member_l3_stats(0)
    }

    /// `member`'s L3 statistics.
    pub fn member_l3_stats(&self, member: usize) -> CacheStats {
        self.node(member).l3.stats()
    }

    /// Core 0's L2 DRRIP policy-select counter (0 for non-DRRIP configs).
    pub fn l2_psel(&self) -> i32 {
        self.l2s[0].psel()
    }

    /// The first member's L3 DRRIP policy-select counter (0 for non-DRRIP
    /// configs).
    pub fn l3_psel(&self) -> i32 {
        self.member_l3_psel(0)
    }

    /// `member`'s L3 DRRIP policy-select counter.
    pub fn member_l3_psel(&self, member: usize) -> i32 {
        self.node(member).l3.psel()
    }

    /// The first member's DRAM statistics.
    pub fn dram_stats(&self) -> DramStats {
        self.drams[0].stats()
    }

    /// The first member's DRAM model (e.g. to inspect its mapping).
    pub fn dram(&self) -> &Dram {
        self.member_dram(0)
    }

    /// `member`'s DRAM model.
    pub fn member_dram(&self, member: usize) -> &Dram {
        &self.drams[member]
    }

    /// Core 0's stride-prefetcher statistics (`None` when disabled).
    pub fn stride_prefetch_stats(&self) -> Option<PrefetchStats> {
        self.core_stride_prefetch_stats(0)
    }

    /// `core`'s stride-prefetcher statistics (`None` when disabled).
    pub fn core_stride_prefetch_stats(&self, core: usize) -> Option<PrefetchStats> {
        self.nodes[0].stride_pfs[core].as_ref().map(|p| p.stats())
    }

    /// `member`'s core-0 stride-prefetcher statistics.
    pub fn member_stride_prefetch_stats(&self, member: usize) -> Option<PrefetchStats> {
        self.node(member).stride_pfs[0].as_ref().map(|p| p.stats())
    }

    /// XMem-guided prefetch statistics (shared by all cores).
    pub fn xmem_prefetch_stats(&self) -> PrefetchStats {
        self.member_xmem_prefetch_stats(0)
    }

    /// `member`'s XMem-guided prefetch statistics.
    pub fn member_xmem_prefetch_stats(&self, member: usize) -> PrefetchStats {
        self.node(member).xmem_pf_stats
    }

    /// Snooping-bus traffic (all zero without a bus).
    pub fn bus_stats(&self) -> BusStats {
        self.bus.as_ref().map(SnoopBus::stats).unwrap_or_default()
    }

    /// A dirty line evicted from `core`'s L1 (`level` 1) or L2 (`level` 2)
    /// lands in the next private level if resident, else leaves the
    /// private levels.
    fn writeback_inner(&mut self, core: usize, ev: Eviction, level: u8, sinks: &mut Sinks) {
        if ev.dirty && !(level == 1 && self.l2s[core].set_dirty(ev.addr)) {
            sinks.push(ev.addr);
        }
    }

    /// The private levels' part of an access by `core` that missed its L1
    /// (no bus): an L2 hit fills the L1; an L2 miss fills the L2, then the
    /// L1. Dirty victims leaving the private levels go to `sinks`.
    #[inline]
    fn private_below_l1(
        &mut self,
        core: usize,
        pa: u64,
        is_write: bool,
        sinks: &mut Sinks,
    ) -> Reach {
        let line_addr = pa & self.line_mask;
        if self.l2s[core].probe(pa, false) {
            if let Some(ev) = self.l1s[core].fill(line_addr, is_write, InsertPriority::Normal) {
                self.writeback_inner(core, ev, 1, sinks);
            }
            return Reach::L2;
        }
        if let Some(ev) = self.l2s[core].fill(line_addr, false, InsertPriority::Normal) {
            self.writeback_inner(core, ev, 2, sinks);
        }
        if let Some(ev) = self.l1s[core].fill(line_addr, is_write, InsertPriority::Normal) {
            self.writeback_inner(core, ev, 1, sinks);
        }
        Reach::Shared
    }

    /// The ALB's answer for `pa` when the access carries XMem state and
    /// the mode consults it: one ATOM_LOOKUP per L3 access — exactly the
    /// query rate the paper's ALB absorbs.
    fn lookup(mode: XmemMode, pa: u64, xmem: &mut Option<XmemContext<'_>>) -> Option<AtomId> {
        match (xmem, mode) {
            (Some(ctx), XmemMode::Full | XmemMode::PrefetchOnly) => {
                ctx.amu.active_atom_at(PhysAddr::new(pa))
            }
            _ => None,
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

    /// Performs one demand access by `core` of a one-member hierarchy
    /// through all three tiers, returning its latency in cycles.
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
        debug_assert_eq!(self.drams.len(), 1, "a group serves by stretches");
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
            return self.settle_coherent(core, pa, now, xmem);
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
        let mut sinks = Sinks::default();
        if self.private_below_l1(core, pa, is_write, &mut sinks) == Reach::L2 {
            let mut port = Served::new(&mut self.drams[0], now, now);
            for &line in sinks.as_slice() {
                self.nodes[0].sink(line, &mut port);
            }
            return self.l2_lat;
        }
        let l3_total = self.nodes[0].l3_lat;
        self.serve_shared(core, pa, now, l3_total, sinks.as_slice(), xmem)
    }

    /// The rest of a MESI access after the coherence engine has run over
    /// the private L1/L2 levels and the bus (its outcome is in `coh_acc`):
    /// coherence writebacks sink into the L3 (or DRAM), and only accesses
    /// no peer could supply continue into the shared levels. Cache-to-cache
    /// transfers bypass the L3 entirely, and the stride prefetchers train
    /// only on the memory path (bus-satisfied accesses carry no locality
    /// the L3 could exploit). The engine already filled the private
    /// levels, on an L3 hit as on a miss.
    fn settle_coherent(
        &mut self,
        core: usize,
        pa: u64,
        now: u64,
        xmem: Option<XmemContext<'_>>,
    ) -> u64 {
        let mut port = Served::new(&mut self.drams[0], now, now);
        for &(_, line_addr) in &self.coh_acc.writebacks {
            self.nodes[0].sink(line_addr, &mut port);
        }
        if !self.coh_acc.from_memory {
            return self.coh_acc.latency;
        }
        // The engine's latency already covers L1, L2 and the bus.
        let l3_total = self.coh_acc.latency + self.config.l3.latency;
        self.serve_shared(core, pa, now, l3_total, &[], xmem)
    }

    /// The shared levels below `core`'s private miss, served at once: the
    /// ALB lookup, then node 0 over DRAM 0. `l3_total` is the latency up
    /// to and including the L3 lookup.
    fn serve_shared(
        &mut self,
        core: usize,
        pa: u64,
        now: u64,
        l3_total: u64,
        sinks: &[u64],
        mut xmem: Option<XmemContext<'_>>,
    ) -> u64 {
        let node = &mut self.nodes[0];
        let atom = Self::lookup(node.config.xmem, pa, &mut xmem);
        let mut port = Served::new(&mut self.drams[0], now, now + l3_total);
        node.access(
            core,
            pa,
            atom,
            sinks,
            xmem.as_ref().map(XmemView::of),
            &mut port,
        );
        l3_total + port.latency
    }

    /// State-only warmup probe by core 0: walks the hierarchy with the
    /// same probes, fills, replacement updates, pinning refresh, ALB
    /// lookups, prefetcher training, and prefetch fills as
    /// [`Hierarchy::serve`], but skips everything timing-related — no
    /// latencies, no writeback traffic, and no DRAM bank/bus occupancy
    /// (only the row-buffer state is warmed).
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
        if !self.warm_private(pa, is_write) {
            return;
        }
        let node = &mut self.nodes[0];
        let atom = Self::lookup(node.config.xmem, pa, &mut xmem);
        let mut port = Served::new(&mut self.drams[0], 0, 0);
        node.access(
            0,
            pa,
            atom,
            &[],
            xmem.as_ref().map(XmemView::of),
            &mut Warming(&mut port),
        );
    }

    /// The private levels' part of a warming access by core 0; returns
    /// whether it continues into the L3. Victims are dropped.
    fn warm_private(&mut self, pa: u64, is_write: bool) -> bool {
        if self.l1s[0].probe(pa, is_write) {
            return false;
        }
        let line_addr = pa & self.line_mask;
        if self.l2s[0].probe(pa, false) {
            let _ = self.l1s[0].fill(line_addr, is_write, InsertPriority::Normal);
            return false;
        }
        let _ = self.l2s[0].fill(line_addr, false, InsertPriority::Normal);
        let _ = self.l1s[0].fill(line_addr, is_write, InsertPriority::Normal);
        true
    }

    // ── groups ──────────────────────────────────────────────────────────

    /// Starts a group's next stretch: forgets the last one's notes and
    /// logs.
    pub fn begin_stretch(&mut self) {
        self.ops.clear();
        self.below.clear();
    }

    /// Runs one demand access of a group's stretch through the front —
    /// core 0's private levels and, when `xmem` is given, the ALB — and
    /// notes what the L3 nodes and the members need of it. `walk` is the
    /// TLB walk the access paid before reaching the L1; `pa` is the address
    /// after it.
    #[inline]
    pub fn record(&mut self, pa: u64, is_write: bool, walk: u64, xmem: Option<XmemContext<'_>>) {
        debug_assert!(self.bus.is_none(), "groups are single-core");
        let class = if self.l1s[0].probe(pa, is_write) {
            OP_L1
        } else {
            self.record_below_l1(pa, is_write, xmem)
        };
        self.ops.push(walk << 2 | class);
    }

    fn record_below_l1(&mut self, pa: u64, is_write: bool, xmem: Option<XmemContext<'_>>) -> u64 {
        let mut sinks = Sinks::default();
        let (kind, class) = match self.private_below_l1(0, pa, is_write, &mut sinks) {
            Reach::L2 if sinks.len == 0 => return OP_L2,
            Reach::L2 => (BelowKind::Sinks, OP_L2_SINKS),
            Reach::Shared => (BelowKind::Access, OP_SHARED),
        };
        let atom = match (kind, xmem) {
            (BelowKind::Access, Some(ctx)) => ctx.amu.active_atom_at(PhysAddr::new(pa)),
            _ => None,
        };
        self.below.push(Below {
            kind,
            pa,
            atom,
            sinks,
        });
        class
    }

    /// The functional-warming counterpart of [`Hierarchy::record`].
    pub fn record_warm(&mut self, pa: u64, is_write: bool, xmem: Option<XmemContext<'_>>) {
        if !self.warm_private(pa, is_write) {
            return;
        }
        let atom = xmem.and_then(|ctx| ctx.amu.active_atom_at(PhysAddr::new(pa)));
        self.below.push(Below {
            kind: BelowKind::Warm,
            pa,
            atom,
            sinks: Sinks::default(),
        });
    }

    /// Runs every L3 node over the stretch the front recorded, logging
    /// each node's DRAM requests for the members to replay. `xmem` is the
    /// XMem state the front ran with; only XMem-mode nodes see it or the
    /// atoms it answered.
    pub fn fan_out(&mut self, xmem: Option<XmemContext<'_>>) {
        let view = xmem.as_ref().map(XmemView::of);
        for node in &mut self.nodes {
            let xmem_node = node.config.xmem != XmemMode::Off;
            let view = view.filter(|_| xmem_node);
            let mut cmds = std::mem::take(&mut node.cmds);
            let mut ends = std::mem::take(&mut node.ends);
            cmds.clear();
            ends.clear();
            for b in &self.below {
                let atom = b.atom.filter(|_| xmem_node);
                match b.kind {
                    BelowKind::Sinks => {
                        for &line in b.sinks.as_slice() {
                            node.sink(line, &mut cmds);
                        }
                    }
                    BelowKind::Access => {
                        node.access(0, b.pa, atom, b.sinks.as_slice(), view, &mut cmds);
                    }
                    BelowKind::Warm => {
                        node.access(0, b.pa, atom, &[], view, &mut Warming(&mut cmds));
                    }
                }
                ends.push(cmds.len());
            }
            node.cmds = cmds;
            node.ends = ends;
        }
    }

    /// `member`'s replay of the fanned-out stretch: a memory path that
    /// serves the stretch's accesses, in order, at the member's own times.
    pub fn replay(&mut self, member: usize) -> Replay<'_> {
        let node = &self.nodes[self.node_of[member]];
        Replay {
            ops: &self.ops,
            cmds: &node.cmds,
            ends: &node.ends,
            dram: &mut self.drams[member],
            op: 0,
            rec: 0,
            l1_lat: self.l1_lat,
            l2_lat: self.l2_lat,
            l3_lat: node.l3_lat,
        }
    }
}

/// One member's replay of a group's stretch (see [`Hierarchy::replay`]).
#[derive(Debug)]
pub struct Replay<'a> {
    ops: &'a [u64],
    cmds: &'a [u64],
    ends: &'a [usize],
    dram: &'a mut Dram,
    /// The next access in `ops`.
    op: usize,
    /// The next noted access in `ends`.
    rec: usize,
    l1_lat: u64,
    l2_lat: u64,
    l3_lat: u64,
}

impl Replay<'_> {
    /// Plays the next noted access's DRAM requests at `now` (its own time)
    /// and `t_mem` (its memory time); returns the demand read's latency, 0
    /// when there was none.
    #[inline]
    fn play(&mut self, now: u64, t_mem: u64) -> u64 {
        let start = if self.rec == 0 {
            0
        } else {
            self.ends[self.rec - 1]
        };
        let end = self.ends[self.rec];
        self.rec += 1;
        let mut port = Served::new(self.dram, now, t_mem);
        for &cmd in &self.cmds[start..end] {
            replay_cmd(cmd, &mut port);
        }
        port.latency
    }

    /// Plays a warming stretch: every row the nodes warmed, in order.
    pub fn warm(mut self) {
        while self.rec < self.ends.len() {
            let _ = self.play(0, 0);
        }
    }

    /// Whether every access of the stretch has been served.
    pub fn is_done(&self) -> bool {
        self.op == self.ops.len() && self.rec == self.ends.len()
    }
}

impl MemoryPath for Replay<'_> {
    #[inline]
    fn serve(&mut self, _va: u64, _attrs: OpAttrs, now: u64) -> u64 {
        let op = self.ops[self.op];
        self.op += 1;
        let walk = op >> 2;
        let now = now + walk;
        walk + match op & 3 {
            OP_L1 => self.l1_lat,
            OP_L2 => self.l2_lat,
            OP_L2_SINKS => {
                let _ = self.play(now, now);
                self.l2_lat
            }
            _ => self.l3_lat + self.play(now, now + self.l3_lat),
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
        Hierarchy::with_members(vec![(small_config(XmemMode::Off), small_dram())], 2, false)
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
        h.nodes[0].stride_pfs = vec![None, None];
        let line = 0x8000u64;
        assert!(h.nodes[0].prefetch_into_l3(
            line,
            InsertPriority::Normal,
            &mut Served::new(&mut h.drams[0], 0, 0),
        ));
        assert!(
            !h.nodes[0].prefetch_into_l3(
                line,
                InsertPriority::Normal,
                &mut Served::new(&mut h.drams[0], 0, 0),
            ),
            "resident"
        );
        let stride = h.config.l3.sets() as u64 * 64;
        let mut k = 1;
        while h.nodes[0].l3.contains(line) {
            let _ = h.nodes[0]
                .l3
                .fill(line + k * stride, false, InsertPriority::Normal);
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
        assert!(!h.nodes[0].inflight_prefetches.contains(line));
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
                h.nodes[0].stride_pfs[0] = None;
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
        assert!(h.nodes[0].pinned.is_empty());
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
        assert!(h.nodes[0].l3.contains(miss_at - 64));
        assert!(!h.nodes[0].l3.contains(miss_at + 4 * 64));
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
