//! Atom Management Unit (AMU) — §4.2(4) of the paper.
//!
//! The AMU is the hardware unit that (i) manages the
//! [AAM](crate::aam::AtomAddressMap) and [AST](crate::ast::AtomStatusTable)
//! in response to XMem ISA instructions and (ii) serves `ATOM_LOOKUP`
//! requests from other hardware components, caching results in an
//! [ALB](crate::alb::AtomLookasideBuffer).
//!
//! For `ATOM_MAP`, the AMU asks the MMU (the [`Mmu`] trait here) to translate
//! the virtual ranges to physical ranges page by page, then updates the AAM.
//! Higher-dimensional (2D/3D) mappings are linearized by the AMU at AAM
//! granularity and the resulting physical extents are recorded so that
//! components needing accurate extent information (the XMem prefetcher and
//! the cache pinning logic of §5) can retrieve them.

use crate::aam::{AamConfig, AtomAddressMap};
use crate::addr::{PhysAddr, VaRange, VirtAddr};
use crate::alb::{AlbStats, AtomLookasideBuffer};
use crate::ast::AtomStatusTable;
use crate::atom::AtomId;
use crate::error::{Result, XMemError};
use crate::isa::XmemInst;

/// Virtual→physical translation service (implemented by the OS page table in
/// `os-sim`, or [`IdentityMmu`] for flat-memory tests).
pub trait Mmu {
    /// Translates a virtual address, or `None` if unmapped.
    fn translate(&self, va: VirtAddr) -> Option<PhysAddr>;

    /// The page size translations are valid within.
    fn page_size(&self) -> u64;
}

/// An MMU where physical = virtual (for unit tests and single-address-space
/// experiments).
#[derive(Debug, Clone, Copy, Default)]
pub struct IdentityMmu {
    page_size: u64,
}

impl IdentityMmu {
    /// Creates an identity MMU with 4 KB pages.
    pub fn new() -> Self {
        IdentityMmu { page_size: 4096 }
    }
}

impl Mmu for IdentityMmu {
    fn translate(&self, va: VirtAddr) -> Option<PhysAddr> {
        Some(PhysAddr::new(va.raw()))
    }

    fn page_size(&self) -> u64 {
        if self.page_size == 0 {
            4096
        } else {
            self.page_size
        }
    }
}

/// A contiguous physical extent an atom is mapped to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PaExtent {
    /// Start physical address (aligned down to AAM granularity).
    pub start: PhysAddr,
    /// Length in bytes (multiple of AAM granularity).
    pub len: u64,
}

/// Configuration of the AMU (geometry of the tables it manages).
#[derive(Debug, Clone, Copy)]
pub struct AmuConfig {
    /// AAM geometry.
    pub aam: AamConfig,
    /// ALB entries (256 in the paper).
    pub alb_entries: usize,
    /// Page size (4 KB).
    pub page_size: u64,
}

impl Default for AmuConfig {
    fn default() -> Self {
        AmuConfig {
            aam: AamConfig::default(),
            alb_entries: 256,
            page_size: 4096,
        }
    }
}

/// The Atom Management Unit.
///
/// # Examples
///
/// ```
/// use xmem_core::amu::{AmuConfig, AtomManagementUnit, IdentityMmu};
/// use xmem_core::aam::AamConfig;
/// use xmem_core::addr::{PhysAddr, VaRange, VirtAddr};
/// use xmem_core::atom::AtomId;
/// use xmem_core::isa::XmemInst;
///
/// let mut amu = AtomManagementUnit::new(AmuConfig {
///     aam: AamConfig { phys_bytes: 1 << 20, ..Default::default() },
///     ..Default::default()
/// });
/// let mmu = IdentityMmu::new();
/// let a = AtomId::new(0);
/// amu.execute(
///     &XmemInst::Map { atom: a, range: VaRange::new(VirtAddr::new(0x1000), 0x1000) },
///     &mmu,
/// )?;
/// amu.execute(&XmemInst::Activate(a), &mmu)?;
/// assert_eq!(amu.active_atom_at(PhysAddr::new(0x1800)), Some(a));
/// # Ok::<(), xmem_core::error::XMemError>(())
/// ```
#[derive(Debug)]
pub struct AtomManagementUnit {
    aam: AtomAddressMap,
    ast: AtomStatusTable,
    alb: AtomLookasideBuffer,
    page_size: u64,
    /// Recorded physical extents per atom (the "broadcast" of §4.2(4)).
    extents: Vec<Vec<PaExtent>>,
    /// Bumped whenever the active-atom set or a mapping changes; consumers
    /// (e.g. the cache pinning logic) re-evaluate when they observe a new
    /// epoch.
    epoch: u64,
    /// ALB entries invalidated by mapping changes (one per page touched);
    /// a telemetry counter for remap churn.
    alb_invalidations: u64,
}

impl AtomManagementUnit {
    /// Creates an AMU with empty tables.
    pub fn new(config: AmuConfig) -> Self {
        AtomManagementUnit {
            aam: AtomAddressMap::new(config.aam),
            ast: AtomStatusTable::new(),
            alb: AtomLookasideBuffer::new(config.alb_entries, config.page_size),
            page_size: config.page_size,
            extents: vec![Vec::new(); AtomId::MAX_ATOMS],
            epoch: 0,
            alb_invalidations: 0,
        }
    }

    /// The current change epoch (see struct docs).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Executes one XMem ISA instruction.
    ///
    /// # Errors
    ///
    /// Propagates translation failures ([`XMemError::UnmappedVirtualAddress`])
    /// and AAM range errors.
    pub fn execute(&mut self, inst: &XmemInst, mmu: &dyn Mmu) -> Result<()> {
        match *inst {
            XmemInst::Map { atom, range } => self.map_linear(atom, range, mmu),
            XmemInst::Unmap { range } => self.unmap_linear(range, mmu),
            XmemInst::Map2d {
                atom,
                base,
                size_x,
                size_y,
                len_x,
            } => {
                for row in Self::rows_2d(base, size_x, size_y, len_x) {
                    self.map_linear(atom, row, mmu)?;
                }
                Ok(())
            }
            XmemInst::Unmap2d {
                base,
                size_x,
                size_y,
                len_x,
            } => {
                for row in Self::rows_2d(base, size_x, size_y, len_x) {
                    self.unmap_linear(row, mmu)?;
                }
                Ok(())
            }
            XmemInst::Map3d {
                atom,
                base,
                size_x,
                size_y,
                size_z,
                len_x,
                len_y,
            } => {
                for z in 0..size_z {
                    let plane = base + z * len_x * len_y;
                    for row in Self::rows_2d(plane, size_x, size_y, len_x) {
                        self.map_linear(atom, row, mmu)?;
                    }
                }
                Ok(())
            }
            XmemInst::Activate(atom) => {
                self.ast.activate(atom);
                self.epoch += 1;
                Ok(())
            }
            XmemInst::Deactivate(atom) => {
                self.ast.deactivate(atom);
                self.epoch += 1;
                Ok(())
            }
        }
    }

    /// The rows of a 2D block as linear VA ranges.
    fn rows_2d(
        base: VirtAddr,
        size_x: u64,
        size_y: u64,
        len_x: u64,
    ) -> impl Iterator<Item = VaRange> {
        (0..size_y).map(move |y| VaRange::new(base + y * len_x, size_x))
    }

    /// Maps a linear VA range, translating page by page.
    fn map_linear(&mut self, atom: AtomId, range: VaRange, mmu: &dyn Mmu) -> Result<()> {
        self.for_each_pa_run(range, mmu, |this, pa, len| {
            this.aam.map_range(pa, len, atom)?;
            this.invalidate_alb_range(pa, len);
            // Mapping replaces any previous owner (many-to-one invariant):
            // trim every atom's recorded extents over this range first.
            this.remove_extent_all(pa, len);
            this.record_extent(atom, pa, len);
            Ok(())
        })?;
        self.epoch += 1;
        Ok(())
    }

    /// Invalidates every ALB entry whose page overlaps `[pa, pa+len)`.
    fn invalidate_alb_range(&mut self, pa: PhysAddr, len: u64) {
        let first = pa.align_down(self.page_size);
        let mut page = first;
        let end = pa.raw() + len;
        while page.raw() < end {
            self.alb.invalidate_page(page);
            self.alb_invalidations += 1;
            page += self.page_size;
        }
    }

    /// Trims `[pa, pa+len)` from every atom's extent record.
    fn remove_extent_all(&mut self, pa: PhysAddr, len: u64) {
        for idx in 0..self.extents.len() {
            if !self.extents[idx].is_empty() {
                self.remove_extent(AtomId::new(idx as u8), pa, len);
            }
        }
    }

    /// Unmaps a linear VA range.
    fn unmap_linear(&mut self, range: VaRange, mmu: &dyn Mmu) -> Result<()> {
        self.for_each_pa_run(range, mmu, |this, pa, len| {
            // Multiple atoms may own pieces of the run: trim them all.
            this.remove_extent_all(pa, len);
            this.aam.unmap_range(pa, len)?;
            this.invalidate_alb_range(pa, len);
            Ok(())
        })?;
        self.epoch += 1;
        Ok(())
    }

    /// Invokes `f(pa, len)` for each physically contiguous run of the VA
    /// range (split at page boundaries, merged when frames are contiguous).
    fn for_each_pa_run(
        &mut self,
        range: VaRange,
        mmu: &dyn Mmu,
        mut f: impl FnMut(&mut Self, PhysAddr, u64) -> Result<()>,
    ) -> Result<()> {
        if range.is_empty() {
            return Ok(());
        }
        let page = self.page_size;
        let mut va = range.start();
        let end = range.end();
        let mut run_start: Option<PhysAddr> = None;
        let mut run_len = 0u64;
        while va < end {
            let pa = mmu
                .translate(va)
                .ok_or(XMemError::UnmappedVirtualAddress(va.raw()))?;
            let in_page = page - va.page_offset(page);
            let chunk = in_page.min(end - va);
            match run_start {
                Some(start) if start.raw() + run_len == pa.raw() => {
                    run_len += chunk;
                }
                Some(start) => {
                    f(self, start, run_len)?;
                    run_start = Some(pa);
                    run_len = chunk;
                    let _ = start;
                }
                None => {
                    run_start = Some(pa);
                    run_len = chunk;
                }
            }
            va += chunk;
        }
        if let Some(start) = run_start {
            f(self, start, run_len)?;
        }
        Ok(())
    }

    fn record_extent(&mut self, atom: AtomId, pa: PhysAddr, len: u64) {
        let gran = self.aam.config().granularity;
        let start = pa.align_down(gran);
        let len = (pa.raw() + len).next_multiple_of(gran) - start.raw();
        let list = &mut self.extents[atom.index()];
        // Merge with the previous extent when contiguous (common case:
        // sequential rows of a tile land in contiguous frames).
        if let Some(last) = list.last_mut() {
            if last.start.raw() + last.len == start.raw() {
                last.len += len;
                return;
            }
        }
        list.push(PaExtent { start, len });
    }

    fn remove_extent(&mut self, atom: AtomId, pa: PhysAddr, len: u64) {
        let gran = self.aam.config().granularity;
        let start = pa.align_down(gran).raw();
        let end = (pa.raw() + len).next_multiple_of(gran);
        let list = &mut self.extents[atom.index()];
        let mut result = Vec::with_capacity(list.len());
        for e in list.drain(..) {
            let e_start = e.start.raw();
            let e_end = e_start + e.len;
            if e_end <= start || e_start >= end {
                result.push(e);
                continue;
            }
            if e_start < start {
                result.push(PaExtent {
                    start: PhysAddr::new(e_start),
                    len: start - e_start,
                });
            }
            if e_end > end {
                result.push(PaExtent {
                    start: PhysAddr::new(end),
                    len: e_end - end,
                });
            }
        }
        *list = result;
    }

    /// Serves an `ATOM_LOOKUP`: the atom mapped at `pa` *if it is active*.
    ///
    /// This is the query interface used by caches, prefetchers, and memory
    /// controllers (step ④ in Figure 1 of the paper). Inactive atoms are
    /// invisible, per the activation invariant of §3.2.
    #[inline]
    pub fn active_atom_at(&mut self, pa: PhysAddr) -> Option<AtomId> {
        let atom = self.alb.lookup(pa, &self.aam)?;
        self.ast.is_active(atom).then_some(atom)
    }

    /// Like [`Self::active_atom_at`] but walking the AAM directly (no ALB,
    /// no stats impact): the reference the ALB must agree with.
    pub fn active_atom_at_uncached(&self, pa: PhysAddr) -> Option<AtomId> {
        let atom = self.aam.lookup(pa)?;
        self.ast.is_active(atom).then_some(atom)
    }

    /// Whether `atom` is currently active.
    pub fn is_active(&self, atom: AtomId) -> bool {
        self.ast.is_active(atom)
    }

    /// IDs of all currently active atoms.
    pub fn active_atoms(&self) -> Vec<AtomId> {
        self.ast.active_atoms().collect()
    }

    /// Total bytes of physical memory currently mapped to `atom` — the
    /// system's view of the atom's working-set size (§3.3(3)).
    pub fn mapped_bytes(&self, atom: AtomId) -> u64 {
        self.extents[atom.index()].iter().map(|e| e.len).sum()
    }

    /// The recorded physical extents of `atom` (used by the XMem prefetcher
    /// and pinning logic, which need accurate extent information).
    pub fn extents(&self, atom: AtomId) -> &[PaExtent] {
        &self.extents[atom.index()]
    }

    /// ALB statistics (for the §4.2 coverage measurement).
    pub fn alb_stats(&self) -> AlbStats {
        self.alb.stats()
    }

    /// ALB entries invalidated by mapping changes so far (one count per
    /// page invalidated; context-switch flushes are not included).
    pub fn alb_invalidations(&self) -> u64 {
        self.alb_invalidations
    }

    /// Flushes the ALB, as required on a context switch (§4.4(4)).
    pub fn flush_alb(&mut self) {
        self.alb.flush();
    }

    /// Read access to the AAM (e.g. for storage accounting).
    pub fn aam(&self) -> &AtomAddressMap {
        &self.aam
    }

    /// Read access to the AST.
    pub fn ast(&self) -> &AtomStatusTable {
        &self.ast
    }

    /// Clears all mappings and statuses (process teardown).
    pub fn clear(&mut self) {
        let cfg = *self.aam.config();
        self.aam = AtomAddressMap::new(cfg);
        self.ast.clear();
        self.alb.flush();
        for list in &mut self.extents {
            list.clear();
        }
        self.epoch += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_amu() -> AtomManagementUnit {
        AtomManagementUnit::new(AmuConfig {
            aam: AamConfig {
                phys_bytes: 1 << 20,
                granularity: 512,
                id_bits: 8,
            },
            alb_entries: 8,
            page_size: 4096,
        })
    }

    #[test]
    fn map_activate_lookup() {
        let mut amu = small_amu();
        let mmu = IdentityMmu::new();
        let a = AtomId::new(1);
        amu.execute(
            &XmemInst::Map {
                atom: a,
                range: VaRange::new(VirtAddr::new(0x2000), 0x1000),
            },
            &mmu,
        )
        .unwrap();
        // Inactive atoms are invisible.
        assert_eq!(amu.active_atom_at(PhysAddr::new(0x2800)), None);
        amu.execute(&XmemInst::Activate(a), &mmu).unwrap();
        assert_eq!(amu.active_atom_at(PhysAddr::new(0x2800)), Some(a));
        amu.execute(&XmemInst::Deactivate(a), &mmu).unwrap();
        assert_eq!(amu.active_atom_at(PhysAddr::new(0x2800)), None);
    }

    #[test]
    fn unmap_clears() {
        let mut amu = small_amu();
        let mmu = IdentityMmu::new();
        let a = AtomId::new(2);
        amu.execute(
            &XmemInst::Map {
                atom: a,
                range: VaRange::new(VirtAddr::new(0), 0x2000),
            },
            &mmu,
        )
        .unwrap();
        amu.execute(&XmemInst::Activate(a), &mmu).unwrap();
        amu.execute(
            &XmemInst::Unmap {
                range: VaRange::new(VirtAddr::new(0), 0x1000),
            },
            &mmu,
        )
        .unwrap();
        assert_eq!(amu.active_atom_at(PhysAddr::new(0x800)), None);
        assert_eq!(amu.active_atom_at(PhysAddr::new(0x1800)), Some(a));
        assert_eq!(amu.mapped_bytes(a), 0x1000);
    }

    #[test]
    fn map_2d_covers_rows_only() {
        let mut amu = small_amu();
        let mmu = IdentityMmu::new();
        let a = AtomId::new(3);
        // A 512-byte-wide, 2-row tile in a structure with 8 KB rows.
        amu.execute(
            &XmemInst::Map2d {
                atom: a,
                base: VirtAddr::new(0x10000),
                size_x: 512,
                size_y: 2,
                len_x: 8192,
            },
            &mmu,
        )
        .unwrap();
        amu.execute(&XmemInst::Activate(a), &mmu).unwrap();
        assert_eq!(amu.active_atom_at(PhysAddr::new(0x10000)), Some(a));
        assert_eq!(amu.active_atom_at(PhysAddr::new(0x10000 + 8192)), Some(a));
        // Middle of the row, outside the tile width: unmapped.
        assert_eq!(amu.active_atom_at(PhysAddr::new(0x10000 + 4096)), None);
        assert_eq!(amu.mapped_bytes(a), 1024);
    }

    #[test]
    fn map_3d_covers_planes() {
        let mut amu = small_amu();
        let mmu = IdentityMmu::new();
        let a = AtomId::new(4);
        amu.execute(
            &XmemInst::Map3d {
                atom: a,
                base: VirtAddr::new(0x40000),
                size_x: 512,
                size_y: 2,
                size_z: 2,
                len_x: 4096,
                len_y: 4,
            },
            &mmu,
        )
        .unwrap();
        amu.execute(&XmemInst::Activate(a), &mmu).unwrap();
        // Plane 1 starts at base + len_x * len_y = 0x40000 + 16384.
        assert_eq!(amu.active_atom_at(PhysAddr::new(0x40000 + 16384)), Some(a));
        assert_eq!(amu.mapped_bytes(a), 4 * 512);
    }

    #[test]
    fn epoch_bumps_on_changes() {
        let mut amu = small_amu();
        let mmu = IdentityMmu::new();
        let e0 = amu.epoch();
        amu.execute(&XmemInst::Activate(AtomId::new(0)), &mmu)
            .unwrap();
        assert!(amu.epoch() > e0);
        let e1 = amu.epoch();
        amu.execute(
            &XmemInst::Map {
                atom: AtomId::new(0),
                range: VaRange::new(VirtAddr::new(0), 512),
            },
            &mmu,
        )
        .unwrap();
        assert!(amu.epoch() > e1);
    }

    #[test]
    fn extents_merge_contiguous() {
        let mut amu = small_amu();
        let mmu = IdentityMmu::new();
        let a = AtomId::new(5);
        for i in 0..4u64 {
            amu.execute(
                &XmemInst::Map {
                    atom: a,
                    range: VaRange::new(VirtAddr::new(i * 512), 512),
                },
                &mmu,
            )
            .unwrap();
        }
        assert_eq!(amu.extents(a).len(), 1);
        assert_eq!(amu.extents(a)[0].len, 2048);
    }

    #[test]
    fn remap_moves_atom() {
        // Remapping data to a new atom (phase change, §3.2) replaces the old.
        let mut amu = small_amu();
        let mmu = IdentityMmu::new();
        let (a, b) = (AtomId::new(1), AtomId::new(2));
        let r = VaRange::new(VirtAddr::new(0x3000), 0x1000);
        amu.execute(&XmemInst::Map { atom: a, range: r }, &mmu)
            .unwrap();
        amu.execute(&XmemInst::Activate(a), &mmu).unwrap();
        amu.execute(&XmemInst::Activate(b), &mmu).unwrap();
        amu.execute(&XmemInst::Map { atom: b, range: r }, &mmu)
            .unwrap();
        assert_eq!(amu.active_atom_at(PhysAddr::new(0x3000)), Some(b));
    }

    #[test]
    fn unmapped_va_is_error() {
        struct NoMmu;
        impl Mmu for NoMmu {
            fn translate(&self, _va: VirtAddr) -> Option<PhysAddr> {
                None
            }
            fn page_size(&self) -> u64 {
                4096
            }
        }
        let mut amu = small_amu();
        let err = amu
            .execute(
                &XmemInst::Map {
                    atom: AtomId::new(0),
                    range: VaRange::new(VirtAddr::new(0x1000), 8),
                },
                &NoMmu,
            )
            .unwrap_err();
        assert!(matches!(err, XMemError::UnmappedVirtualAddress(0x1000)));
    }

    #[test]
    fn alb_invalidated_across_whole_unmapped_run() {
        // Regression: a multi-page unmap must invalidate the ALB entry of
        // *every* covered page, not just the first one of the merged run.
        let mut amu = small_amu();
        let mmu = IdentityMmu::new();
        let a = AtomId::new(1);
        let range = VaRange::new(VirtAddr::new(0x10_000), 64 << 10);
        amu.execute(&XmemInst::Map { atom: a, range }, &mmu)
            .unwrap();
        amu.execute(&XmemInst::Activate(a), &mmu).unwrap();
        // Warm the ALB with a page in the *middle* of the range.
        assert_eq!(amu.active_atom_at(PhysAddr::new(0x18_000)), Some(a));
        amu.execute(&XmemInst::Unmap { range }, &mmu).unwrap();
        assert_eq!(amu.active_atom_at(PhysAddr::new(0x18_000)), None);
        assert_eq!(amu.mapped_bytes(a), 0);
    }

    /// Oracle for the ALB: on random streams of map, unmap, 2D-map,
    /// activate and deactivate instructions, every ALB-served lookup equals
    /// a direct AAM walk. A fixed probe set keeps ALB entries resident
    /// across instructions, so a missed invalidation shows up as a stale hit.
    #[test]
    fn alb_lookups_match_aam_walk_on_random_streams() {
        use crate::rng::SplitMix64;
        // Instructions start inside SPAN; probes also reach past it, where
        // only long ranges and 2D blocks land.
        const SPAN: u64 = 64 << 10;
        let mmu = IdentityMmu::new();
        let mut hits = 0;
        for case in 0..32u64 {
            let mut rng = SplitMix64::new(0xA1B0 + case);
            let mut amu = small_amu();
            let probes: Vec<u64> = (0..24).map(|_| rng.below(2 * SPAN)).collect();
            for step in 0..200 {
                let atom = AtomId::new(rng.below(4) as u8);
                let base = rng.below(SPAN);
                let (inst, footprint) = match rng.below(5) {
                    0 | 1 => {
                        let range = VaRange::new(VirtAddr::new(base), rng.range(1, 8 << 10));
                        let inst = if rng.below(2) == 0 {
                            XmemInst::Map { atom, range }
                        } else {
                            XmemInst::Unmap { range }
                        };
                        (inst, range.len())
                    }
                    2 => {
                        let len_x = rng.range(1, 4) * 4096;
                        let (size_x, size_y) = (rng.range(1, len_x), rng.range(1, 6));
                        let inst = XmemInst::Map2d {
                            atom,
                            base: VirtAddr::new(base),
                            size_x,
                            size_y,
                            len_x,
                        };
                        (inst, (size_y - 1) * len_x + size_x)
                    }
                    3 => (XmemInst::Activate(atom), 1),
                    _ => (XmemInst::Deactivate(atom), 1),
                };
                amu.execute(&inst, &mmu).unwrap();
                let sampled: Vec<u64> = (0..8)
                    .map(|i| match i % 2 {
                        0 => base + rng.below(footprint),
                        _ => rng.below(2 * SPAN),
                    })
                    .collect();
                for pa in probes.iter().chain(&sampled).copied() {
                    let pa = PhysAddr::new(pa);
                    assert_eq!(
                        amu.active_atom_at(pa),
                        amu.active_atom_at_uncached(pa),
                        "case {case}, step {step}, after {inst:?}, at {pa:?}"
                    );
                }
            }
            hits += amu.alb_stats().hits;
        }
        assert!(hits > 0, "the probes never hit the ALB");
    }

    #[test]
    fn clear_resets_everything() {
        let mut amu = small_amu();
        let mmu = IdentityMmu::new();
        let a = AtomId::new(1);
        amu.execute(
            &XmemInst::Map {
                atom: a,
                range: VaRange::new(VirtAddr::new(0), 4096),
            },
            &mmu,
        )
        .unwrap();
        amu.execute(&XmemInst::Activate(a), &mmu).unwrap();
        amu.clear();
        assert_eq!(amu.active_atom_at(PhysAddr::new(0)), None);
        assert_eq!(amu.mapped_bytes(a), 0);
        assert!(!amu.is_active(a));
    }
}
