//! Address newtypes shared across the XMem system.
//!
//! The paper distinguishes virtual addresses (what the application and
//! `XMemLib` speak) from physical addresses (what the [`crate::aam::AtomAddressMap`]
//! and the hardware components are indexed by). Keeping them as distinct
//! newtypes prevents an entire class of unit-confusion bugs in the simulator.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A virtual address in a process address space.
///
/// # Examples
///
/// ```
/// use xmem_core::addr::VirtAddr;
///
/// let va = VirtAddr::new(0x1000);
/// assert_eq!(va.page_index(4096), 1);
/// assert_eq!((va + 0x234).page_offset(4096), 0x234);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtAddr(u64);

/// A physical address in the machine address space.
///
/// # Examples
///
/// ```
/// use xmem_core::addr::PhysAddr;
///
/// let pa = PhysAddr::new(0x8000);
/// assert_eq!(pa.frame_index(4096), 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysAddr(u64);

macro_rules! addr_impl {
    ($ty:ident) => {
        impl $ty {
            /// Creates an address from a raw integer value.
            #[inline]
            pub const fn new(raw: u64) -> Self {
                Self(raw)
            }

            /// Returns the raw integer value of the address.
            #[inline]
            pub const fn raw(self) -> u64 {
                self.0
            }

            /// Returns the index of the page/frame containing this address.
            ///
            /// # Panics
            ///
            /// Panics if `page_size` is zero.
            #[inline]
            pub fn page_index(self, page_size: u64) -> u64 {
                assert!(page_size > 0, "page size must be non-zero");
                self.0 / page_size
            }

            /// Returns the offset of this address within its page/frame.
            ///
            /// # Panics
            ///
            /// Panics if `page_size` is zero.
            #[inline]
            pub fn page_offset(self, page_size: u64) -> u64 {
                assert!(page_size > 0, "page size must be non-zero");
                self.0 % page_size
            }

            /// Rounds the address down to a multiple of `align`.
            ///
            /// # Panics
            ///
            /// Panics if `align` is not a power of two.
            #[inline]
            pub fn align_down(self, align: u64) -> Self {
                assert!(align.is_power_of_two(), "alignment must be a power of two");
                Self(self.0 & !(align - 1))
            }

            /// Rounds the address up to a multiple of `align`.
            ///
            /// # Panics
            ///
            /// Panics if `align` is not a power of two.
            #[inline]
            pub fn align_up(self, align: u64) -> Self {
                assert!(align.is_power_of_two(), "alignment must be a power of two");
                // simlint: allow(unwrap, reason = "documented `# Panics` contract: overflowing the 64-bit address space is a caller bug")
                Self(self.0.checked_add(align - 1).expect("address overflow") & !(align - 1))
            }

            /// Returns the address `bytes` bytes past this one, or `None` on overflow.
            #[inline]
            pub fn checked_add(self, bytes: u64) -> Option<Self> {
                self.0.checked_add(bytes).map(Self)
            }
        }

        impl Add<u64> for $ty {
            type Output = Self;
            #[inline]
            fn add(self, rhs: u64) -> Self {
                Self(self.0 + rhs)
            }
        }

        impl AddAssign<u64> for $ty {
            #[inline]
            fn add_assign(&mut self, rhs: u64) {
                self.0 += rhs;
            }
        }

        impl Sub<$ty> for $ty {
            type Output = u64;
            #[inline]
            fn sub(self, rhs: $ty) -> u64 {
                self.0 - rhs.0
            }
        }

        impl fmt::Display for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:#x}", self.0)
            }
        }

        impl fmt::LowerHex for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::LowerHex::fmt(&self.0, f)
            }
        }

        impl From<u64> for $ty {
            #[inline]
            fn from(raw: u64) -> Self {
                Self(raw)
            }
        }

        impl From<$ty> for u64 {
            #[inline]
            fn from(addr: $ty) -> u64 {
                addr.0
            }
        }
    };
}

addr_impl!(VirtAddr);
addr_impl!(PhysAddr);

impl PhysAddr {
    /// Returns the index of the physical frame containing this address
    /// (identical to [`Self::page_index`], named for the physical side).
    ///
    /// # Panics
    ///
    /// Panics if `frame_size` is zero.
    #[inline]
    pub fn frame_index(self, frame_size: u64) -> u64 {
        self.page_index(frame_size)
    }
}

/// A half-open range `[start, start + len)` of virtual addresses.
///
/// This is the unit of the `MAP`/`UNMAP` operators: an atom is mapped to one
/// or more virtual address ranges (possibly non-contiguous, per the "flexible
/// mapping" invariant of §3.2 of the paper).
///
/// # Examples
///
/// ```
/// use xmem_core::addr::{VaRange, VirtAddr};
///
/// let r = VaRange::new(VirtAddr::new(0x1000), 64);
/// assert!(r.contains(VirtAddr::new(0x103f)));
/// assert!(!r.contains(VirtAddr::new(0x1040)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VaRange {
    start: VirtAddr,
    len: u64,
}

impl VaRange {
    /// Creates a range starting at `start` spanning `len` bytes.
    #[inline]
    pub const fn new(start: VirtAddr, len: u64) -> Self {
        Self { start, len }
    }

    /// Start of the range (inclusive).
    #[inline]
    pub const fn start(&self) -> VirtAddr {
        self.start
    }

    /// End of the range (exclusive).
    #[inline]
    pub fn end(&self) -> VirtAddr {
        VirtAddr::new(self.start.raw() + self.len)
    }

    /// Length of the range in bytes.
    #[inline]
    pub const fn len(&self) -> u64 {
        self.len
    }

    /// Returns `true` if the range spans zero bytes.
    #[inline]
    pub const fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns `true` if `va` falls within the range.
    #[inline]
    pub fn contains(&self, va: VirtAddr) -> bool {
        va >= self.start && va.raw() < self.start.raw() + self.len
    }

    /// Returns `true` if the two ranges share any byte.
    #[inline]
    pub fn overlaps(&self, other: &VaRange) -> bool {
        !self.is_empty()
            && !other.is_empty()
            && self.start.raw() < other.end().raw()
            && other.start.raw() < self.end().raw()
    }

    /// Iterates over the page indices covered by this range.
    pub fn page_indices(&self, page_size: u64) -> impl Iterator<Item = u64> {
        let first = self.start.page_index(page_size);
        let last = if self.len == 0 {
            first
        } else {
            (self.start.raw() + self.len - 1) / page_size + 1
        };
        first..last
    }
}

// ---------------------------------------------------------------------------
// Checked narrowing
// ---------------------------------------------------------------------------

/// Narrows an address-derived value (set/bank/row index, page count, ...)
/// to `usize`, asserting in debug builds that nothing is truncated.
///
/// Plain `as` casts silently wrap; simlint's `narrowing-cast` rule bans
/// them on address/cycle expressions and points here. The callers all
/// mask or divide first, so the bound holds by construction — the
/// `debug_assert` documents and checks that reasoning instead of
/// trusting it.
#[inline]
#[track_caller]
pub fn addr_to_index(value: u64) -> usize {
    debug_assert!(
        usize::try_from(value).is_ok(),
        "address-derived value {value:#x} does not fit in usize"
    );
    value as usize
}

/// Narrows an address-derived value to `u32` (e.g. a packed row number).
#[inline]
#[track_caller]
pub fn addr_to_u32(value: u64) -> u32 {
    debug_assert!(
        u32::try_from(value).is_ok(),
        "address-derived value {value:#x} does not fit in u32"
    );
    value as u32
}

/// Narrows a cycle count to `u32` (e.g. a latency bucket boundary).
#[inline]
#[track_caller]
pub fn cycles_to_u32(cycles: u64) -> u32 {
    debug_assert!(
        u32::try_from(cycles).is_ok(),
        "cycle count {cycles} does not fit in u32"
    );
    // simlint: allow(narrowing-cast, reason = "this helper is the sanctioned endpoint for the cast; bound asserted above")
    cycles as u32
}

/// Narrows a `u128` cycle/nanosecond total to `u64`. Saturates rather
/// than wrapping: a saturated duration is visibly wrong, a wrapped one
/// is silently plausible.
#[inline]
pub fn cycles_to_u64(cycles: u128) -> u64 {
    debug_assert!(
        u64::try_from(cycles).is_ok(),
        "cycle count {cycles} does not fit in u64"
    );
    u64::try_from(cycles).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virt_addr_arithmetic() {
        let a = VirtAddr::new(0x1000);
        assert_eq!((a + 0x10).raw(), 0x1010);
        assert_eq!((a + 0x10) - a, 0x10);
        assert_eq!(a.align_down(0x1000), a);
        assert_eq!((a + 1).align_down(0x1000), a);
        assert_eq!((a + 1).align_up(0x1000).raw(), 0x2000);
    }

    #[test]
    fn phys_addr_frame_index() {
        assert_eq!(PhysAddr::new(0).frame_index(4096), 0);
        assert_eq!(PhysAddr::new(4095).frame_index(4096), 0);
        assert_eq!(PhysAddr::new(4096).frame_index(4096), 1);
    }

    #[test]
    fn range_contains_and_overlap() {
        let r = VaRange::new(VirtAddr::new(100), 50);
        assert!(r.contains(VirtAddr::new(100)));
        assert!(r.contains(VirtAddr::new(149)));
        assert!(!r.contains(VirtAddr::new(150)));
        assert!(!r.contains(VirtAddr::new(99)));

        let s = VaRange::new(VirtAddr::new(149), 1);
        assert!(r.overlaps(&s));
        let t = VaRange::new(VirtAddr::new(150), 10);
        assert!(!r.overlaps(&t));
        let empty = VaRange::new(VirtAddr::new(120), 0);
        assert!(!r.overlaps(&empty));
    }

    #[test]
    fn range_page_indices() {
        let r = VaRange::new(VirtAddr::new(4000), 200);
        // Spans the boundary between pages 0 and 1.
        let pages: Vec<u64> = r.page_indices(4096).collect();
        assert_eq!(pages, vec![0, 1]);

        let r2 = VaRange::new(VirtAddr::new(0), 4096);
        assert_eq!(r2.page_indices(4096).collect::<Vec<_>>(), vec![0]);

        let empty = VaRange::new(VirtAddr::new(123), 0);
        assert_eq!(empty.page_indices(4096).count(), 0);
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(VirtAddr::new(0xdead).to_string(), "0xdead");
        assert_eq!(format!("{:x}", PhysAddr::new(0xbeef)), "beef");
    }

    #[test]
    fn narrowing_helpers_preserve_in_range_values() {
        assert_eq!(addr_to_index(0), 0);
        assert_eq!(addr_to_index(0xffff), 0xffff);
        assert_eq!(addr_to_u32(u64::from(u32::MAX)), u32::MAX);
        assert_eq!(cycles_to_u32(123_456), 123_456);
        assert_eq!(cycles_to_u64(987_654_321), 987_654_321);
        assert_eq!(cycles_to_u64(u128::from(u64::MAX)), u64::MAX);
    }

    #[test]
    fn cycles_to_u64_saturates() {
        if cfg!(not(debug_assertions)) {
            assert_eq!(cycles_to_u64(u128::from(u64::MAX) + 1), u64::MAX);
        }
    }

    #[cfg(debug_assertions)]
    mod narrowing_bounds {
        use super::super::*;

        #[test]
        #[should_panic(expected = "does not fit in u32")]
        fn cycles_to_u32_overflow_asserts() {
            let _ = cycles_to_u32(1 << 40);
        }

        #[test]
        #[should_panic(expected = "does not fit in u64")]
        fn cycles_to_u64_overflow_asserts() {
            let _ = cycles_to_u64(u128::from(u64::MAX) + 1);
        }
    }
}
