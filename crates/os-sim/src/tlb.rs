//! A translation lookaside buffer with page-walk cost accounting.
//!
//! The AMU's ALB is explicitly modeled on the TLB ("the functionality of an
//! ALB is similar to a TLB in an MMU", §4.2(4)); this is the TLB itself,
//! available to the full-system machine so translation costs appear in the
//! timing model. Fully associative, LRU, per-process flush on context
//! switch.

use xmem_core::addr::VirtAddr;
use xmem_core::flatmap::FlatMap;

/// TLB geometry and timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Number of entries (fully associative).
    pub entries: usize,
    /// Page size translated.
    pub page_size: u64,
    /// Cycles added by a miss (the page-table walk).
    pub walk_latency: u64,
}

impl Default for TlbConfig {
    fn default() -> Self {
        TlbConfig {
            entries: 64,
            page_size: 4096,
            walk_latency: 30,
        }
    }
}

/// Hit/miss statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Translations served from the TLB.
    pub hits: u64,
    /// Translations requiring a walk.
    pub misses: u64,
}

impl TlbStats {
    /// Hit rate in `[0, 1]`; 0 with no lookups.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The TLB.
///
/// # Examples
///
/// ```
/// use os_sim::tlb::{Tlb, TlbConfig};
/// use xmem_core::addr::VirtAddr;
///
/// let mut tlb = Tlb::new(TlbConfig::default());
/// assert_eq!(tlb.translate_cost(VirtAddr::new(0x1234)), 30); // cold miss
/// assert_eq!(tlb.translate_cost(VirtAddr::new(0x1FFF)), 0);  // same page
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    config: TlbConfig,
    /// vpn → last-used stamp, in a key-sorted [`FlatMap`]: the probe is a
    /// binary search over 64 contiguous entries instead of a tree walk,
    /// and iteration stays in ascending-vpn order, so the LRU victim scan
    /// below is deterministic even if two entries ever carried the same
    /// stamp (identical tie-break to the BTreeMap it replaced).
    entries: FlatMap<u64, u64>,
    clock: u64,
    stats: TlbStats,
}

impl Tlb {
    /// Creates an empty TLB.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate.
    pub fn new(config: TlbConfig) -> Self {
        assert!(config.entries > 0, "TLB needs at least one entry");
        assert!(
            config.page_size.is_power_of_two(),
            "page size must be a power of two"
        );
        Tlb {
            entries: FlatMap::with_capacity(config.entries),
            clock: 0,
            stats: TlbStats::default(),
            config,
        }
    }

    /// Returns the translation cost in cycles for an access to `va`
    /// (0 on a hit, the walk latency on a miss), updating LRU state.
    pub fn translate_cost(&mut self, va: VirtAddr) -> u64 {
        self.clock += 1;
        let vpn = va.page_index(self.config.page_size);
        if let Some(stamp) = self.entries.get_mut(&vpn) {
            *stamp = self.clock;
            self.stats.hits += 1;
            return 0;
        }
        self.stats.misses += 1;
        if self.entries.len() >= self.config.entries {
            let victim = *self
                .entries
                .iter()
                .min_by_key(|(_, &stamp)| stamp)
                .map(|(vpn, _)| vpn)
                // simlint: allow(unwrap, reason = "guarded by the len() check above; entries is non-empty here")
                .expect("non-empty TLB");
            self.entries.remove(&victim);
        }
        self.entries.insert(vpn, self.clock);
        self.config.walk_latency
    }

    /// Flushes all entries (context switch).
    pub fn flush(&mut self) {
        self.entries.clear();
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_within_page() {
        let mut tlb = Tlb::new(TlbConfig::default());
        assert_eq!(tlb.translate_cost(VirtAddr::new(0)), 30);
        assert_eq!(tlb.translate_cost(VirtAddr::new(4095)), 0);
        assert_eq!(tlb.translate_cost(VirtAddr::new(4096)), 30);
        assert_eq!(tlb.stats().hits, 1);
        assert_eq!(tlb.stats().misses, 2);
    }

    #[test]
    fn lru_eviction() {
        let mut tlb = Tlb::new(TlbConfig {
            entries: 2,
            ..Default::default()
        });
        tlb.translate_cost(VirtAddr::new(0)); // page 0
        tlb.translate_cost(VirtAddr::new(4096)); // page 1
        tlb.translate_cost(VirtAddr::new(0)); // touch page 0
        tlb.translate_cost(VirtAddr::new(8192)); // page 2 evicts page 1
        assert_eq!(tlb.translate_cost(VirtAddr::new(0)), 0, "page 0 resident");
        assert_eq!(
            tlb.translate_cost(VirtAddr::new(4096)),
            30,
            "page 1 evicted"
        );
    }

    #[test]
    fn flush_forgets() {
        let mut tlb = Tlb::new(TlbConfig::default());
        tlb.translate_cost(VirtAddr::new(0));
        tlb.flush();
        assert_eq!(tlb.translate_cost(VirtAddr::new(0)), 30);
    }

    #[test]
    fn sequential_walk_hit_rate() {
        // A 64-entry TLB walking 64 pages repeatedly: near-perfect hits
        // after the first lap.
        let mut tlb = Tlb::new(TlbConfig::default());
        for lap in 0..4 {
            for p in 0..64u64 {
                let cost = tlb.translate_cost(VirtAddr::new(p * 4096 + 8));
                if lap > 0 {
                    assert_eq!(cost, 0, "lap {lap} page {p}");
                }
            }
        }
        assert!(tlb.stats().hit_rate() > 0.74);
    }
}
