//! Virtual memory: a single-level page table.
//!
//! The OS substrate controls the virtual→physical mapping — the lever the
//! XMem placement use case (§6) pulls to steer data structures to specific
//! DRAM banks and channels. The table implements
//! [`xmem_core::amu::Mmu`] so the AMU can translate `ATOM_MAP` ranges.

use xmem_core::addr::{addr_to_index, PhysAddr, VirtAddr};
use xmem_core::amu::Mmu;
use xmem_core::flatmap::FlatMap;

/// VPNs below this are held in the dense frame vector; mappings at or
/// above it go to the sparse map. With 4 KiB pages the dense range covers
/// the first 4 GiB of virtual address space and costs at most 8 MiB.
const DENSE_VPNS: u64 = 1 << 20;

/// Dense-vector value of an unmapped VPN.
const NO_FRAME: u64 = u64::MAX;

/// A VPN→PFN page table for one address space.
///
/// Translation sits on the per-access hot path (every load/store
/// translates). [`Os::malloc`](crate::os::Os::malloc) bump-allocates
/// virtual pages upward from page 1, so the live range is dense and low:
/// those mappings live in a VPN-indexed frame vector, grown on demand up
/// to the highest mapped VPN below 2^20 (the first 4 GiB with 4 KiB
/// pages), and a translation there is one bounds check and one load.
/// Mappings at higher VPNs (sparse addresses such as tests place near
/// 2^32 pages) go to a [`FlatMap`], so any VPN works without a large
/// allocation. The table is never iterated.
///
/// # Examples
///
/// ```
/// use os_sim::vm::PageTable;
/// use xmem_core::addr::VirtAddr;
/// use xmem_core::amu::Mmu;
///
/// let mut pt = PageTable::new(4096);
/// pt.map_page(1, 42);
/// let pa = pt.translate(VirtAddr::new(4096 + 123)).unwrap();
/// assert_eq!(pa.raw(), 42 * 4096 + 123);
/// ```
#[derive(Debug, Clone)]
pub struct PageTable {
    page_size: u64,
    /// `log2(page_size)`.
    page_shift: u32,
    /// Frame of every VPN below `dense.len()`, or [`NO_FRAME`].
    dense: Vec<u64>,
    /// Mappings at VPNs of [`DENSE_VPNS`] and above.
    sparse: FlatMap<u64, u64>,
}

impl PageTable {
    /// Creates an empty table with the given page size.
    ///
    /// # Panics
    ///
    /// Panics if `page_size` is not a power of two.
    pub fn new(page_size: u64) -> Self {
        assert!(
            page_size.is_power_of_two(),
            "page size must be a power of two"
        );
        PageTable {
            page_size,
            page_shift: page_size.trailing_zeros(),
            dense: Vec::new(),
            sparse: FlatMap::new(),
        }
    }

    /// Maps virtual page `vpn` to physical frame `pfn` (replacing any
    /// previous mapping).
    pub fn map_page(&mut self, vpn: u64, pfn: u64) {
        assert_ne!(pfn, NO_FRAME, "frame number out of range");
        if vpn >= DENSE_VPNS {
            self.sparse.insert(vpn, pfn);
            return;
        }
        let i = addr_to_index(vpn);
        if i >= self.dense.len() {
            self.dense.resize(i + 1, NO_FRAME);
        }
        self.dense[i] = pfn;
    }

    /// Removes the mapping for `vpn`, returning the frame it held.
    pub fn unmap_page(&mut self, vpn: u64) -> Option<u64> {
        if vpn >= DENSE_VPNS {
            return self.sparse.remove(&vpn);
        }
        self.dense
            .get_mut(addr_to_index(vpn))
            .map(|slot| std::mem::replace(slot, NO_FRAME))
            .filter(|&pfn| pfn != NO_FRAME)
    }

    /// The frame backing `vpn`, if mapped.
    #[inline]
    pub fn frame_of(&self, vpn: u64) -> Option<u64> {
        if vpn < DENSE_VPNS {
            self.dense
                .get(addr_to_index(vpn))
                .copied()
                .filter(|&pfn| pfn != NO_FRAME)
        } else {
            self.sparse.get(&vpn).copied()
        }
    }

    /// Number of mapped pages.
    pub fn mapped_pages(&self) -> usize {
        self.dense.iter().filter(|&&pfn| pfn != NO_FRAME).count() + self.sparse.len()
    }
}

impl Mmu for PageTable {
    #[inline]
    fn translate(&self, va: VirtAddr) -> Option<PhysAddr> {
        let va = va.raw();
        self.frame_of(va >> self.page_shift)
            .map(|pfn| PhysAddr::new(pfn * self.page_size + (va & (self.page_size - 1))))
    }

    fn page_size(&self) -> u64 {
        self.page_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn translate_roundtrip() {
        let mut pt = PageTable::new(4096);
        pt.map_page(0, 7);
        pt.map_page(5, 0);
        assert_eq!(
            pt.translate(VirtAddr::new(10)).unwrap().raw(),
            7 * 4096 + 10
        );
        assert_eq!(
            pt.translate(VirtAddr::new(5 * 4096 + 4095)).unwrap().raw(),
            4095
        );
        assert_eq!(pt.translate(VirtAddr::new(4096)), None);
    }

    #[test]
    fn remap_replaces() {
        let mut pt = PageTable::new(4096);
        pt.map_page(1, 10);
        pt.map_page(1, 20);
        assert_eq!(pt.frame_of(1), Some(20));
        assert_eq!(pt.mapped_pages(), 1);
    }

    #[test]
    fn unmap() {
        let mut pt = PageTable::new(4096);
        pt.map_page(2, 3);
        assert_eq!(pt.unmap_page(2), Some(3));
        assert_eq!(pt.unmap_page(2), None);
        assert_eq!(pt.translate(VirtAddr::new(2 * 4096)), None);
    }

    /// A VPN far above the dense range maps, translates and unmaps through
    /// the sparse map, without growing the dense vector.
    #[test]
    fn sparse_vpn_needs_no_large_allocation() {
        let mut pt = PageTable::new(4096);
        let vpn = 1u64 << 32;
        pt.map_page(vpn, 9);
        assert_eq!(pt.dense.capacity(), 0, "no dense allocation");
        let va = VirtAddr::new((vpn << 12) + 77);
        assert_eq!(pt.translate(va).unwrap().raw(), 9 * 4096 + 77);
        assert_eq!(pt.mapped_pages(), 1);
        assert_eq!(pt.unmap_page(vpn), Some(9));
        assert_eq!(pt.translate(va), None);
        assert_eq!(pt.mapped_pages(), 0);
    }

    /// Unmapped VPNs translate to `None` below the highest dense mapping,
    /// above it, on both sides of the dense limit and in the sparse range.
    #[test]
    fn unmapped_vpns_are_none_everywhere() {
        let mut pt = PageTable::new(4096);
        pt.map_page(1, 10);
        pt.map_page(8, 80);
        pt.map_page(DENSE_VPNS - 1, 5);
        pt.map_page(DENSE_VPNS, 6);
        for vpn in [0, 2, 7, 9, 1000, DENSE_VPNS - 2, DENSE_VPNS + 1, 1 << 40] {
            assert_eq!(pt.frame_of(vpn), None, "vpn {vpn}");
            assert_eq!(pt.translate(VirtAddr::new(vpn * 4096)), None, "vpn {vpn}");
        }
        assert_eq!(pt.frame_of(DENSE_VPNS - 1), Some(5));
        assert_eq!(pt.frame_of(DENSE_VPNS), Some(6));
        assert_eq!(pt.mapped_pages(), 4);
        // Unmapping a dense VPN never mapped, or twice, changes nothing.
        assert_eq!(pt.unmap_page(3), None);
        assert_eq!(pt.unmap_page(1), Some(10));
        assert_eq!(pt.unmap_page(1), None);
        assert_eq!(pt.unmap_page(1 << 40), None);
        assert_eq!(pt.mapped_pages(), 3);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn odd_page_size_rejected() {
        let _ = PageTable::new(3000);
    }
}
