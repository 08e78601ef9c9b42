//! Cache geometry and policy configuration.

/// Replacement policy selection.
///
/// DRRIP (Dynamic Re-Reference Interval Prediction, Jaleel et al. \[83\]) is
/// the paper's baseline policy for L2/L3 (Table 3); LRU is used at L1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplacementPolicy {
    /// Least-recently-used.
    Lru,
    /// Static RRIP: insert at "long re-reference" (RRPV = 2).
    Srrip,
    /// Bimodal RRIP: insert at "distant" (RRPV = 3) except 1/32 of fills.
    Brrip,
    /// Dynamic RRIP: set dueling chooses between SRRIP and BRRIP.
    #[default]
    Drrip,
}

/// Geometry and timing of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// Access latency in core cycles.
    pub latency: u64,
    /// Replacement policy.
    pub policy: ReplacementPolicy,
}

impl CacheConfig {
    /// The paper's L1D: 32 KB, 8-way, 4 cycles, LRU (Table 3).
    pub fn l1_westmere() -> Self {
        CacheConfig {
            size_bytes: 32 << 10,
            ways: 8,
            line_bytes: 64,
            latency: 4,
            policy: ReplacementPolicy::Lru,
        }
    }

    /// The paper's private L2: 128 KB, 8-way, 8 cycles, DRRIP (Table 3).
    pub fn l2_westmere() -> Self {
        CacheConfig {
            size_bytes: 128 << 10,
            ways: 8,
            line_bytes: 64,
            latency: 8,
            policy: ReplacementPolicy::Drrip,
        }
    }

    /// The paper's per-core L3 slice: 1 MB, 16-way, 27 cycles, DRRIP
    /// (Table 3: 8 MB partitioned across 8 cores).
    pub fn l3_westmere() -> Self {
        CacheConfig {
            size_bytes: 1 << 20,
            ways: 16,
            line_bytes: 64,
            latency: 27,
            policy: ReplacementPolicy::Drrip,
        }
    }

    /// A copy with a different capacity (the Fig 5 cache-size sweep).
    pub fn with_size(mut self, size_bytes: u64) -> Self {
        self.size_bytes = size_bytes;
        self
    }

    /// Number of sets.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (size not divisible into a
    /// power-of-two number of sets).
    pub fn sets(&self) -> usize {
        let lines = self.size_bytes / self.line_bytes;
        let sets = lines as usize / self.ways;
        assert!(
            sets > 0 && sets.is_power_of_two(),
            "cache must have a power-of-two number of sets (got {sets})"
        );
        sets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn westmere_geometry() {
        assert_eq!(CacheConfig::l1_westmere().sets(), 64);
        assert_eq!(CacheConfig::l2_westmere().sets(), 256);
        assert_eq!(CacheConfig::l3_westmere().sets(), 1024);
    }

    #[test]
    fn with_size_scales_sets() {
        let half = CacheConfig::l3_westmere().with_size(512 << 10);
        assert_eq!(half.sets(), 512);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn bad_geometry_panics() {
        let c = CacheConfig {
            size_bytes: 48 << 10,
            ways: 8,
            line_bytes: 64,
            latency: 1,
            policy: ReplacementPolicy::Lru,
        };
        let _ = c.sets();
    }
}
