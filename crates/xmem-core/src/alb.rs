//! Atom Lookaside Buffer (ALB) — §4.2(4) of the paper.
//!
//! The ALB caches recent `ATOM_LOOKUP` results so the AMU does not touch the
//! in-memory AAM on every query — exactly like a TLB caches page-table walks.
//! Tags are physical page indices; the data is the vector of atom IDs for all
//! address-range units in that page. The paper reports that a 256-entry ALB
//! covers 98.9% of lookups; [`AlbStats`] lets the benchmark harness reproduce
//! that measurement.

use crate::aam::AtomAddressMap;
use crate::addr::{addr_to_index, PhysAddr};
use crate::atom::AtomId;

/// Hit/miss statistics for the ALB.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AlbStats {
    /// Lookups served from the buffer.
    pub hits: u64,
    /// Lookups that had to walk the AAM.
    pub misses: u64,
}

impl AlbStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in `[0, 1]`; 0 when no lookups occurred.
    pub fn hit_rate(&self) -> f64 {
        let total = self.lookups();
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One ALB entry: a page's worth of unit→atom mappings.
#[derive(Debug, Clone)]
struct AlbEntry {
    page_index: u64,
    /// Atom ID per address-range unit in the page.
    units: Vec<Option<AtomId>>,
    /// Monotonic timestamp for LRU replacement.
    last_used: u64,
}

/// A fully-associative, LRU atom lookaside buffer.
///
/// # Examples
///
/// ```
/// use xmem_core::aam::{AamConfig, AtomAddressMap};
/// use xmem_core::alb::AtomLookasideBuffer;
/// use xmem_core::addr::PhysAddr;
/// use xmem_core::atom::AtomId;
///
/// let mut aam = AtomAddressMap::new(AamConfig { phys_bytes: 1 << 20, ..Default::default() });
/// aam.map_range(PhysAddr::new(0), 4096, AtomId::new(1))?;
///
/// let mut alb = AtomLookasideBuffer::new(256, 4096);
/// assert_eq!(alb.lookup(PhysAddr::new(64), &aam), Some(AtomId::new(1)));
/// assert_eq!(alb.stats().misses, 1);
/// assert_eq!(alb.lookup(PhysAddr::new(128), &aam), Some(AtomId::new(1)));
/// assert_eq!(alb.stats().hits, 1);
/// # Ok::<(), xmem_core::error::XMemError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AtomLookasideBuffer {
    entries: Vec<AlbEntry>,
    capacity: usize,
    page_size: u64,
    clock: u64,
    stats: AlbStats,
}

impl AtomLookasideBuffer {
    /// Creates an ALB with `capacity` entries covering pages of `page_size`
    /// bytes. The paper's configuration is 256 entries over 4 KB pages.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or `page_size` is not a power of two.
    pub fn new(capacity: usize, page_size: u64) -> Self {
        assert!(capacity > 0, "ALB capacity must be non-zero");
        assert!(
            page_size.is_power_of_two(),
            "page size must be a power of two"
        );
        AtomLookasideBuffer {
            entries: Vec::with_capacity(capacity),
            capacity,
            page_size,
            clock: 0,
            stats: AlbStats::default(),
        }
    }

    /// Number of entries the buffer can hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Looks up the atom for `pa`, filling from `aam` on a miss.
    pub fn lookup(&mut self, pa: PhysAddr, aam: &AtomAddressMap) -> Option<AtomId> {
        self.clock += 1;
        let page_index = pa.page_index(self.page_size);
        let unit_in_page = addr_to_index(pa.page_offset(self.page_size) / aam.config().granularity);

        if let Some(entry) = self.entries.iter_mut().find(|e| e.page_index == page_index) {
            entry.last_used = self.clock;
            self.stats.hits += 1;
            return entry.units.get(unit_in_page).copied().flatten();
        }

        // Miss: walk the AAM for the whole page and install the entry.
        self.stats.misses += 1;
        let units = aam.page_entry(pa, self.page_size);
        let result = units.get(unit_in_page).copied().flatten();
        if self.entries.len() == self.capacity {
            let victim = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
                // simlint: allow(unwrap, reason = "constructor asserts capacity > 0 and entries is full here")
                .expect("capacity > 0");
            self.entries.swap_remove(victim);
        }
        self.entries.push(AlbEntry {
            page_index,
            units,
            last_used: self.clock,
        });
        result
    }

    /// Invalidates any cached entry covering `pa` (called by the AMU when an
    /// `ATOM_MAP`/`ATOM_UNMAP` touches the page, keeping the ALB coherent).
    pub fn invalidate_page(&mut self, pa: PhysAddr) {
        let page_index = pa.page_index(self.page_size);
        self.entries.retain(|e| e.page_index != page_index);
    }

    /// Flushes all entries (on context switch, §4.4(4)).
    pub fn flush(&mut self) {
        self.entries.clear();
    }

    /// Number of currently resident entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the buffer holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Accumulated hit/miss statistics.
    pub fn stats(&self) -> AlbStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aam::AamConfig;

    fn aam_with_atom() -> AtomAddressMap {
        let mut aam = AtomAddressMap::new(AamConfig {
            phys_bytes: 1 << 20,
            granularity: 512,
            id_bits: 8,
        });
        aam.map_range(PhysAddr::new(0), 8192, AtomId::new(4))
            .unwrap();
        aam
    }

    #[test]
    fn hit_after_miss() {
        let aam = aam_with_atom();
        let mut alb = AtomLookasideBuffer::new(4, 4096);
        assert_eq!(alb.lookup(PhysAddr::new(100), &aam), Some(AtomId::new(4)));
        assert_eq!(alb.lookup(PhysAddr::new(4000), &aam), Some(AtomId::new(4)));
        assert_eq!(alb.stats().hits, 1);
        assert_eq!(alb.stats().misses, 1);
        assert!((alb.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_oldest() {
        let aam = aam_with_atom();
        let mut alb = AtomLookasideBuffer::new(2, 4096);
        alb.lookup(PhysAddr::new(0), &aam); // page 0
        alb.lookup(PhysAddr::new(4096), &aam); // page 1
        alb.lookup(PhysAddr::new(0), &aam); // touch page 0
        alb.lookup(PhysAddr::new(8192), &aam); // page 2 evicts page 1
        assert_eq!(alb.len(), 2);
        let misses_before = alb.stats().misses;
        alb.lookup(PhysAddr::new(0), &aam); // page 0 still resident
        assert_eq!(alb.stats().misses, misses_before);
        alb.lookup(PhysAddr::new(4096), &aam); // page 1 was evicted
        assert_eq!(alb.stats().misses, misses_before + 1);
    }

    #[test]
    fn invalidate_and_flush() {
        let aam = aam_with_atom();
        let mut alb = AtomLookasideBuffer::new(4, 4096);
        alb.lookup(PhysAddr::new(0), &aam);
        alb.lookup(PhysAddr::new(4096), &aam);
        alb.invalidate_page(PhysAddr::new(64));
        assert_eq!(alb.len(), 1);
        alb.flush();
        assert!(alb.is_empty());
    }

    #[test]
    fn stale_entry_avoided_via_invalidate() {
        let mut aam = aam_with_atom();
        let mut alb = AtomLookasideBuffer::new(4, 4096);
        assert_eq!(alb.lookup(PhysAddr::new(0), &aam), Some(AtomId::new(4)));
        aam.unmap_range(PhysAddr::new(0), 4096).unwrap();
        alb.invalidate_page(PhysAddr::new(0));
        assert_eq!(alb.lookup(PhysAddr::new(0), &aam), None);
    }

    #[test]
    fn zero_lookups_hit_rate() {
        let alb = AtomLookasideBuffer::new(4, 4096);
        assert_eq!(alb.stats().hit_rate(), 0.0);
    }
}
