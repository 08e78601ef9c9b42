//! The OS façade: an address space plus the atom-aware memory allocator.
//!
//! §4.1.2: "we augment the memory allocation APIs (e.g., malloc) to take
//! Atom ID as a parameter. The memory allocator, in turn, passes the Atom ID
//! to the OS via augmented system calls that request virtual pages [...]
//! This interface enables the OS to manipulate the virtual-to-physical
//! address mapping without extra system call overheads."
//!
//! [`Os::malloc`] is that augmented allocator: it reserves a virtual range
//! and eagerly backs it with physical frames chosen by the configured
//! [`FramePolicy`] — which, under [`FramePolicy::Xmem`], implements the §6.2
//! placement algorithm.

use crate::placement::{FrameAllocator, FramePolicy};
use crate::vm::PageTable;
use xmem_core::addr::VirtAddr;
use xmem_core::atom::AtomId;

/// Errors from the OS allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OsError {
    /// Physical memory is exhausted.
    OutOfMemory,
}

impl std::fmt::Display for OsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OsError::OutOfMemory => f.write_str("out of physical memory"),
        }
    }
}

impl std::error::Error for OsError {}

/// One simulated address space with an atom-aware allocator.
///
/// # Examples
///
/// ```
/// use os_sim::os::Os;
/// use os_sim::placement::FramePolicy;
/// use xmem_core::amu::Mmu;
///
/// let mut os = Os::new(16 << 20, 4096, FramePolicy::Sequential);
/// let va = os.malloc(10_000, None)?;
/// assert!(os.page_table().translate(va).is_some());
/// # Ok::<(), os_sim::os::OsError>(())
/// ```
#[derive(Debug)]
pub struct Os {
    page_table: PageTable,
    frames: FrameAllocator,
    /// Next unassigned virtual address (simple bump allocation, page
    /// aligned, starting above the null guard page).
    next_va: u64,
}

impl Os {
    /// Creates an address space over `phys_bytes` of physical memory.
    pub fn new(phys_bytes: u64, page_size: u64, policy: FramePolicy) -> Self {
        Os {
            page_table: PageTable::new(page_size),
            frames: FrameAllocator::new(phys_bytes, page_size, policy),
            next_va: page_size,
        }
    }

    /// The address space's page table (implements
    /// [`Mmu`](xmem_core::amu::Mmu) for the AMU).
    pub fn page_table(&self) -> &PageTable {
        &self.page_table
    }

    /// The frame allocator (e.g. to inspect bank reservations).
    pub fn frames(&self) -> &FrameAllocator {
        &self.frames
    }

    /// The augmented `malloc(size, atomID)` of §4.1.2: returns a fresh
    /// page-aligned virtual range of at least `size` bytes, eagerly backed
    /// by frames placed according to `atom`'s semantics.
    ///
    /// # Errors
    ///
    /// Returns [`OsError::OutOfMemory`] when physical frames run out.
    pub fn malloc(&mut self, size: u64, atom: Option<AtomId>) -> Result<VirtAddr, OsError> {
        let page = self.frames.page_size();
        let pages = size.div_ceil(page).max(1);
        let base = self.next_va;
        for i in 0..pages {
            let vpn = (base / page) + i;
            let pfn = self.frames.alloc(atom).ok_or(OsError::OutOfMemory)?;
            self.page_table.map_page(vpn, pfn);
        }
        self.next_va = base + pages * page;
        Ok(VirtAddr::new(base))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmem_core::amu::Mmu;

    #[test]
    fn malloc_maps_all_pages() {
        let mut os = Os::new(1 << 20, 4096, FramePolicy::Sequential);
        let va = os.malloc(3 * 4096 + 1, None).unwrap();
        // 4 pages mapped, all translatable.
        for i in 0..4u64 {
            assert!(os.page_table().translate(va + i * 4096).is_some());
        }
        assert_eq!(os.page_table().mapped_pages(), 4);
    }

    #[test]
    fn allocations_do_not_overlap() {
        let mut os = Os::new(1 << 20, 4096, FramePolicy::Sequential);
        let a = os.malloc(8192, None).unwrap();
        let b = os.malloc(4096, None).unwrap();
        assert!(b.raw() >= a.raw() + 8192);
    }

    #[test]
    fn zero_size_gets_one_page() {
        let mut os = Os::new(1 << 20, 4096, FramePolicy::Sequential);
        let va = os.malloc(0, None).unwrap();
        assert!(os.page_table().translate(va).is_some());
    }

    #[test]
    fn out_of_memory_reported() {
        let mut os = Os::new(4 * 4096, 4096, FramePolicy::Sequential);
        assert!(os.malloc(4 * 4096, None).is_ok());
        assert_eq!(os.malloc(4096, None).unwrap_err(), OsError::OutOfMemory);
    }

    #[test]
    fn randomized_backing_differs_from_sequential() {
        let mut seq = Os::new(1 << 20, 4096, FramePolicy::Sequential);
        let mut rnd = Os::new(1 << 20, 4096, FramePolicy::Randomized { seed: 3 });
        let va_s = seq.malloc(64 * 4096, None).unwrap();
        let va_r = rnd.malloc(64 * 4096, None).unwrap();
        let frames_s: Vec<u64> = (0..64)
            .map(|i| seq.page_table().translate(va_s + i * 4096).unwrap().raw() / 4096)
            .collect();
        let frames_r: Vec<u64> = (0..64)
            .map(|i| rnd.page_table().translate(va_r + i * 4096).unwrap().raw() / 4096)
            .collect();
        assert_ne!(frames_s, frames_r);
    }
}
