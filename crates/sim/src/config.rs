//! Full-system configuration (Table 3 of the paper, plus the scaled
//! variants the harness uses — see DESIGN.md's scaling note).

use cache_sim::{CacheConfig, HierarchyConfig, ReplacementPolicy, XmemMode};
use cpu_sim::CoreConfig;
use dram_sim::{AddressMapping, DramConfig};
use std::fmt;

/// Which of the paper's evaluated systems to model (use case 1, §5.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// DRRIP + multi-stride prefetching, no XMem.
    Baseline,
    /// XMem-guided prefetching only (DRRIP cache management).
    XmemPref,
    /// Full XMem: pinning + guided prefetching.
    Xmem,
}

impl SystemKind {
    /// The corresponding hierarchy mode.
    pub fn xmem_mode(self) -> XmemMode {
        match self {
            SystemKind::Baseline => XmemMode::Off,
            SystemKind::XmemPref => XmemMode::PrefetchOnly,
            SystemKind::Xmem => XmemMode::Full,
        }
    }

    /// Whether the XMem machinery (AMU, PATs) is active at all.
    pub fn xmem_enabled(self) -> bool {
        !matches!(self, SystemKind::Baseline)
    }
}

impl fmt::Display for SystemKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SystemKind::Baseline => "Baseline",
            SystemKind::XmemPref => "XMem-Pref",
            SystemKind::Xmem => "XMem",
        })
    }
}

/// Frame-allocation policy selection (use case 2 systems, §6.3–6.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FramePolicyKind {
    /// First-free frames (identity-like; used for use case 1 where
    /// placement is not under study).
    Sequential,
    /// Randomized VA→PA (the strengthened baseline of §6.3).
    Randomized {
        /// RNG seed.
        seed: u64,
    },
    /// The §6.2 XMem placement algorithm.
    XmemPlacement,
}

/// A complete system configuration.
#[derive(Debug, Clone, Copy)]
pub struct SystemConfig {
    /// Core model parameters.
    pub core: CoreConfig,
    /// Cache hierarchy parameters.
    pub hierarchy: HierarchyConfig,
    /// DRAM timing/geometry.
    pub dram: DramConfig,
    /// Physical address mapping.
    pub mapping: AddressMapping,
    /// Simulated physical memory size.
    pub phys_bytes: u64,
    /// OS frame policy.
    pub frame_policy: FramePolicyKind,
    /// Model the Fig 7 "Ideal" DRAM (every access a row hit).
    pub ideal_rbl: bool,
    /// Optional TLB in front of translation (None = free translation, the
    /// default so the figure experiments isolate memory-system effects; a
    /// TLB affects Baseline and XMem identically).
    pub tlb: Option<os_sim::tlb::TlbConfig>,
}

impl SystemConfig {
    /// The Table 3 configuration, full size: 3.6 GHz 4-wide OOO core,
    /// 32 KB L1 / 128 KB L2 / 1 MB L3 slice, DDR3-1066 with 2 channels.
    pub fn westmere_like() -> Self {
        let phys_bytes = 256 << 20;
        SystemConfig {
            core: CoreConfig::westmere_like(),
            hierarchy: HierarchyConfig::westmere_like(),
            dram: DramConfig::ddr3_1066(3.6).with_capacity(phys_bytes),
            mapping: AddressMapping::scheme1(),
            phys_bytes,
            frame_policy: FramePolicyKind::Sequential,
            ideal_rbl: false,
            tlb: None,
        }
    }

    /// The scaled use-case-1 configuration: same latencies and policies as
    /// Table 3 with capacities shrunk ~8× (8 KB L1, 16 KB L2, `l3_bytes`
    /// L3) so that the tile-size sweep brackets the L3 within millisecond
    /// simulations. Ratios (tile vs. cache) are what Fig 4–6 depend on.
    pub fn scaled_use_case1(l3_bytes: u64, kind: SystemKind) -> Self {
        let phys_bytes = 64 << 20;
        let hierarchy = HierarchyConfig {
            l1: CacheConfig {
                size_bytes: 8 << 10,
                ways: 4,
                line_bytes: 64,
                latency: 4,
                policy: ReplacementPolicy::Lru,
            },
            l2: CacheConfig {
                size_bytes: 16 << 10,
                ways: 8,
                line_bytes: 64,
                latency: 8,
                policy: ReplacementPolicy::Drrip,
            },
            l3: CacheConfig {
                size_bytes: l3_bytes,
                ways: 16,
                line_bytes: 64,
                latency: 27,
                policy: ReplacementPolicy::Drrip,
            },
            stride_prefetcher: true,
            xmem: kind.xmem_mode(),
        };
        SystemConfig {
            core: CoreConfig::westmere_like(),
            hierarchy,
            // Table 3's 2.1 GB/s/core is the 8-core share of 17 GB/s; a
            // single simulated core can burst to about twice its share.
            dram: DramConfig::ddr3_1066(3.6)
                .with_capacity(phys_bytes)
                .with_channel_bandwidth(4.2 / 2.0, 3.6),
            mapping: AddressMapping::scheme1(),
            phys_bytes,
            frame_policy: FramePolicyKind::Sequential,
            ideal_rbl: false,
            tlb: None,
        }
    }

    /// Enables a TLB with the default geometry (64 entries, 30-cycle walk).
    pub fn with_tlb(mut self) -> Self {
        self.tlb = Some(os_sim::tlb::TlbConfig::default());
        self
    }

    /// Adjusts per-core memory bandwidth (Fig 6: 2 / 1 / 0.5 GB/s).
    pub fn with_per_core_bandwidth(mut self, gbps: f64) -> Self {
        self.dram = self
            .dram
            .with_channel_bandwidth(gbps / self.dram.channels as f64, 3.6);
        self
    }
}

/// Coherence protocol selection for a multi-core machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CoherenceMode {
    /// No coherence: private hierarchies never observe each other's
    /// writes. Correct only for disjoint working sets (the original
    /// co-run model); kept as the default so existing scenarios stay
    /// byte-identical.
    #[default]
    None,
    /// MESI snooping over a shared bus (see `cache_sim::coherence` and
    /// DESIGN.md "Coherence").
    Mesi,
}

impl fmt::Display for CoherenceMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CoherenceMode::None => "none",
            CoherenceMode::Mesi => "mesi",
        })
    }
}

/// Configuration of a multi-core machine: private L1/L2 per core, shared
/// L3 and DRAM (the Table 3 shape; see [`crate::multicore`]).
#[derive(Debug, Clone, Copy)]
pub struct MultiCoreConfig {
    /// Number of cores (each replays one workload log).
    pub cores: usize,
    /// Core model parameters (identical cores).
    pub core: CoreConfig,
    /// Private L1 per core.
    pub l1: CacheConfig,
    /// Private L2 per core.
    pub l2: CacheConfig,
    /// Shared L3.
    pub l3: CacheConfig,
    /// Enable the per-core stride prefetchers.
    pub stride_prefetcher: bool,
    /// XMem operating mode.
    pub xmem: XmemMode,
    /// Shared DRAM timing/geometry.
    pub dram: DramConfig,
    /// Physical address mapping.
    pub mapping: AddressMapping,
    /// Simulated physical memory.
    pub phys_bytes: u64,
    /// OS frame policy (shared allocator; the XMem policy sees the merged
    /// atom set of all co-running workloads, per §6.2).
    pub frame_policy: FramePolicyKind,
    /// Coherence protocol over the private hierarchies.
    pub coherence: CoherenceMode,
    /// Under MESI, exempt read-write shared (migratory) atoms from L3
    /// pinning so the pin budget goes to read-mostly/private data whose
    /// lines actually stay put (see DESIGN.md "Coherence").
    pub coherence_aware_pinning: bool,
}

impl MultiCoreConfig {
    /// `cores` copies of `system`'s core and private caches over its L3,
    /// DRAM and OS, without coherence. `system`'s `ideal_rbl` and `tlb`
    /// have no co-run equivalent and are dropped.
    pub fn from_system(system: &SystemConfig, cores: usize) -> Self {
        let h = &system.hierarchy;
        MultiCoreConfig {
            cores,
            core: system.core,
            l1: h.l1,
            l2: h.l2,
            l3: h.l3,
            stride_prefetcher: h.stride_prefetcher,
            xmem: h.xmem,
            dram: system.dram,
            mapping: system.mapping,
            phys_bytes: system.phys_bytes,
            frame_policy: system.frame_policy,
            coherence: CoherenceMode::None,
            coherence_aware_pinning: true,
        }
    }

    /// The full-size Table 3 machine with `cores` cores: 32 KB L1 +
    /// 128 KB L2 private, a shared L3 of 1 MB per core, DDR3-1066.
    pub fn westmere_like(cores: usize) -> Self {
        let mut cfg = Self::from_system(&SystemConfig::westmere_like(), cores);
        cfg.l3 = cfg.l3.with_size(cores as u64 * (1 << 20));
        cfg
    }

    /// The scaled co-run machine matching
    /// [`SystemConfig::scaled_use_case1`]: the shared L3 is `l3_bytes`
    /// *total* (co-runners genuinely compete for it).
    pub fn scaled_corun(cores: usize, l3_bytes: u64, kind: SystemKind) -> Self {
        Self::from_system(&SystemConfig::scaled_use_case1(l3_bytes, kind), cores)
    }

    /// The machine each core of the co-run sees: its core and private
    /// caches over the shared L3, DRAM and OS, with no TLB and a real DRAM
    /// (the inverse of [`MultiCoreConfig::from_system`]).
    pub(crate) fn system(&self) -> SystemConfig {
        SystemConfig {
            core: self.core,
            hierarchy: HierarchyConfig {
                l1: self.l1,
                l2: self.l2,
                l3: self.l3,
                stride_prefetcher: self.stride_prefetcher,
                xmem: self.xmem,
            },
            dram: self.dram,
            mapping: self.mapping,
            phys_bytes: self.phys_bytes,
            frame_policy: self.frame_policy,
            ideal_rbl: false,
            tlb: None,
        }
    }

    /// Derives a MESI-coherent variant of this machine (default bus
    /// timing; see [`CoherenceMode`]).
    pub fn with_coherence(mut self, mode: CoherenceMode) -> Self {
        self.coherence = mode;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_map_to_modes() {
        assert_eq!(SystemKind::Baseline.xmem_mode(), XmemMode::Off);
        assert_eq!(SystemKind::XmemPref.xmem_mode(), XmemMode::PrefetchOnly);
        assert_eq!(SystemKind::Xmem.xmem_mode(), XmemMode::Full);
        assert!(!SystemKind::Baseline.xmem_enabled());
        assert!(SystemKind::Xmem.xmem_enabled());
    }

    #[test]
    fn scaled_config_geometry_is_valid() {
        for l3 in [32 << 10, 64 << 10, 128 << 10, 256 << 10] {
            let cfg = SystemConfig::scaled_use_case1(l3, SystemKind::Xmem);
            assert!(cfg.hierarchy.l3.sets() >= 32);
            assert!(cfg.hierarchy.l1.sets() > 0);
        }
    }

    #[test]
    fn bandwidth_knob_slows_bus() {
        let fast = SystemConfig::scaled_use_case1(128 << 10, SystemKind::Baseline)
            .with_per_core_bandwidth(2.0);
        let slow = SystemConfig::scaled_use_case1(128 << 10, SystemKind::Baseline)
            .with_per_core_bandwidth(0.5);
        assert!(slow.dram.bus_cycles > fast.dram.bus_cycles);
    }
}
