//! DRAM cache management — Table 1's "DRAM cache management" use case.
//!
//! "(i) Helps avoid cache thrashing by knowing working set size \[44\];
//! (ii) Better DRAM cache management via reuse behavior and access
//! intensity information."
//!
//! The model: a large in-package DRAM cache (L4) in front of slow far
//! memory. Without semantics, the cache inserts everything and a working
//! set larger than its capacity thrashes it for everyone. With XMem, the
//! cache *bypasses* atoms whose working-set size (known from the AMU
//! mapping) exceeds what it could ever retain, preserving hits for data
//! that does fit.

use crate::cache::{Cache, InsertPriority};
use crate::config::{CacheConfig, ReplacementPolicy};

/// Configuration of the DRAM cache stage.
#[derive(Debug, Clone, Copy)]
pub struct DramCacheConfig {
    /// Cache geometry (capacity is the knob that matters).
    pub cache: CacheConfig,
    /// Hit latency (in-package DRAM).
    pub hit_latency: u64,
    /// Far-memory latency (off-package DRAM/NVM).
    pub miss_latency: u64,
    /// Bypass atoms whose working set exceeds this fraction of capacity
    /// (XMem mode only).
    pub bypass_ws_fraction: f64,
}

impl Default for DramCacheConfig {
    fn default() -> Self {
        DramCacheConfig {
            cache: CacheConfig {
                size_bytes: 1 << 20,
                ways: 16,
                line_bytes: 64,
                latency: 0,
                policy: ReplacementPolicy::Lru,
            },
            hit_latency: 90,
            miss_latency: 400,
            bypass_ws_fraction: 1.0,
        }
    }
}

/// Statistics including bypass decisions.
#[derive(Debug, Clone, Copy, Default)]
pub struct DramCacheStats {
    /// Accesses that bypassed the cache (served directly by far memory).
    pub bypassed: u64,
    /// Total latency accumulated.
    pub total_latency: u64,
    /// Total accesses.
    pub accesses: u64,
}

impl DramCacheStats {
    /// Mean access latency.
    pub fn avg_latency(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.accesses as f64
        }
    }
}

/// The DRAM cache stage.
#[derive(Debug)]
pub struct DramCache {
    config: DramCacheConfig,
    cache: Cache,
    stats: DramCacheStats,
}

impl DramCache {
    /// Creates an empty DRAM cache.
    pub fn new(config: DramCacheConfig) -> Self {
        DramCache {
            cache: Cache::new(config.cache),
            stats: DramCacheStats::default(),
            config,
        }
    }

    /// Serves one access. `working_set` is the accessing atom's mapped
    /// size when known (the XMem hint, from
    /// [`AtomManagementUnit::mapped_bytes`]); `None` reproduces the
    /// semantics-blind baseline.
    ///
    /// [`AtomManagementUnit::mapped_bytes`]: xmem_core::amu::AtomManagementUnit::mapped_bytes
    pub fn serve(&mut self, addr: u64, working_set: Option<u64>) -> u64 {
        self.stats.accesses += 1;
        let bypass = match working_set {
            Some(ws) => {
                ws as f64 > self.config.cache.size_bytes as f64 * self.config.bypass_ws_fraction
            }
            None => false,
        };
        if bypass {
            self.stats.bypassed += 1;
            self.stats.total_latency += self.config.miss_latency;
            return self.config.miss_latency;
        }
        let lat = if self.cache.probe(addr, false) {
            self.config.hit_latency
        } else {
            self.cache.fill(
                addr & !(self.config.cache.line_bytes - 1),
                false,
                InsertPriority::Normal,
            );
            self.config.miss_latency
        };
        self.stats.total_latency += lat;
        lat
    }

    /// Stage statistics.
    pub fn stats(&self) -> DramCacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Interleave a giant streaming working set with a small hot one;
    /// measure the hot structure's latency with and without the XMem
    /// working-set hint.
    fn run(with_hint: bool) -> (f64, DramCacheStats) {
        let mut dc = DramCache::new(DramCacheConfig::default());
        let cap = 1u64 << 20;
        let huge_ws = 16 * cap; // streams through, 16x capacity
        let hot_ws = cap / 4; // genuinely cacheable
        let mut hot_latency = 0u64;
        let mut hot_accesses = 0u64;
        for i in 0..400_000u64 {
            if i % 8 != 7 {
                // the stream walks its huge buffer (7 of 8 accesses)
                let addr = (i * 64) % huge_ws;
                let hint = with_hint.then_some(huge_ws);
                dc.serve(0x1000_0000 + addr, hint);
            } else {
                let addr = ((i * 2654435761) % hot_ws) & !63;
                let hint = with_hint.then_some(hot_ws);
                hot_latency += dc.serve(addr, hint);
                hot_accesses += 1;
            }
        }
        (hot_latency as f64 / hot_accesses as f64, dc.stats())
    }

    #[test]
    fn working_set_hint_prevents_thrashing() {
        let (baseline_hot, base_stats) = run(false);
        let (xmem_hot, xmem_stats) = run(true);
        assert_eq!(base_stats.bypassed, 0);
        assert!(
            xmem_stats.bypassed > 300_000,
            "stream bypasses: {}",
            xmem_stats.bypassed
        );
        assert!(
            xmem_hot < baseline_hot * 0.75,
            "hot latency {xmem_hot:.0} vs baseline {baseline_hot:.0}"
        );
    }

    #[test]
    fn small_working_sets_never_bypass() {
        let mut dc = DramCache::new(DramCacheConfig::default());
        let first = dc.serve(0, Some(64 << 10));
        let second = dc.serve(0, Some(64 << 10));
        assert_eq!(first, dc.config.miss_latency);
        assert_eq!(second, dc.config.hit_latency);
        assert_eq!(dc.stats().bypassed, 0);
    }

    #[test]
    fn baseline_ignores_hints_entirely() {
        let mut dc = DramCache::new(DramCacheConfig::default());
        for i in 0..1000u64 {
            dc.serve(i * 64, None);
        }
        assert_eq!(dc.stats().bypassed, 0);
        assert_eq!(dc.stats().accesses, 1000);
    }
}
