//! Experiment runners for the paper's two use cases.
//!
//! [`KernelRun`] is the entry point for use-case-1 experiments (Figs 4–6):
//! a builder naming the kernel, its parameters, and the system to run it
//! on. [`run_placement`] / [`placement_specs`] cover use case 2 (Figs
//! 7–8); the spec form exposes each system's §6.3 configuration grid so
//! the bench binaries can flatten entire figures into one parallel
//! [`Sweep`].

use crate::config::{FramePolicyKind, SystemConfig, SystemKind};
use crate::harness::{RunSpec, Sweep, WorkloadSpec};
use crate::machine::run;
use crate::report::RunReport;
use dram_sim::AddressMapping;
use std::fmt;
use workloads::placement::PlacementWorkload;
use workloads::polybench::{KernelParams, PolybenchKernel};

/// One use-case-1 kernel experiment, built up fluently:
///
/// ```
/// use workloads::polybench::{KernelParams, PolybenchKernel};
/// use xmem_sim::{KernelRun, SystemKind};
///
/// let p = KernelParams { n: 16, tile_bytes: 1024, steps: 1, reuse: 200 };
/// let report = KernelRun::new(PolybenchKernel::Gemm, p)
///     .l3_bytes(32 << 10)
///     .system(SystemKind::Xmem)
///     .run();
/// assert!(report.cycles() > 0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct KernelRun {
    kernel: PolybenchKernel,
    params: KernelParams,
    l3_bytes: u64,
    system: SystemKind,
    per_core_gbps: Option<f64>,
}

impl KernelRun {
    /// A run of `kernel` with `params` on the scaled use-case-1 machine
    /// (32 KB L3, [`SystemKind::Baseline`] until overridden).
    pub fn new(kernel: PolybenchKernel, params: KernelParams) -> Self {
        KernelRun {
            kernel,
            params,
            l3_bytes: 32 << 10,
            system: SystemKind::Baseline,
            per_core_gbps: None,
        }
    }

    /// Sets the scaled L3 capacity (Fig 4/5 sweep axis).
    pub fn l3_bytes(mut self, bytes: u64) -> Self {
        self.l3_bytes = bytes;
        self
    }

    /// Sets which of the paper's systems to model.
    pub fn system(mut self, kind: SystemKind) -> Self {
        self.system = kind;
        self
    }

    /// Overrides per-core memory bandwidth (Fig 6: 2 / 1 / 0.5 GB/s).
    pub fn per_core_gbps(mut self, gbps: f64) -> Self {
        self.per_core_gbps = Some(gbps);
        self
    }

    /// The complete system configuration this run will simulate.
    pub fn config(&self) -> SystemConfig {
        let cfg = SystemConfig::scaled_use_case1(self.l3_bytes, self.system);
        match self.per_core_gbps {
            Some(gbps) => cfg.with_per_core_bandwidth(gbps),
            None => cfg,
        }
    }

    /// This run as an enumerable [`RunSpec`] (for batching many runs into
    /// one parallel sweep). The label is `<kernel>/<system>`.
    pub fn spec(&self) -> RunSpec {
        RunSpec::new(
            format!("{}/{}", self.kernel.name(), self.system),
            self.config(),
            WorkloadSpec::kernel(self.kernel, self.params),
        )
    }

    /// Executes the run.
    pub fn run(&self) -> RunReport {
        run(
            &self.config(),
            &WorkloadSpec::kernel(self.kernel, self.params),
            None,
            None,
        )
        .report
    }
}

/// The three systems compared in Figs 7 and 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Uc2System {
    /// Strengthened baseline (§6.3): best of the nine address mappings,
    /// randomized VA→PA, prefetcher enabled only if it helps.
    Baseline,
    /// XMem-guided OS placement (§6.2) — a software-only use of XMem: the
    /// cache hierarchy stays at baseline; only the frame policy changes.
    Xmem,
    /// Perfect row-buffer locality (the upper bound of Fig 7).
    IdealRbl,
}

impl fmt::Display for Uc2System {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Uc2System::Baseline => "Baseline",
            Uc2System::Xmem => "XMem",
            Uc2System::IdealRbl => "Ideal",
        })
    }
}

/// Physical memory for use-case-2 runs (footprints are ~10–20 MB).
const UC2_PHYS: u64 = 64 << 20;

fn uc2_config(
    mapping: AddressMapping,
    policy: FramePolicyKind,
    ideal: bool,
    prefetcher: bool,
) -> SystemConfig {
    SystemConfig::builder()
        .phys_bytes(UC2_PHYS)
        .mapping(mapping)
        .frame_policy(policy)
        .ideal_rbl(ideal)
        .stride_prefetcher(prefetcher)
        .build()
}

/// The §6.3 configuration grid for one placement workload under one
/// system, as enumerable specs (label `<workload>/<system>/<mapping>/pf±`).
///
/// Per §6.3, every system takes the best of prefetcher-on/off; the
/// baseline additionally takes the best of all nine address mappings, so
/// its grid has 18 points.
pub fn placement_specs(w: &PlacementWorkload, system: Uc2System) -> Vec<RunSpec> {
    let grid: Vec<(AddressMapping, FramePolicyKind, bool)> = match system {
        Uc2System::Baseline => AddressMapping::all_schemes()
            .into_iter()
            .map(|m| (m, FramePolicyKind::Randomized { seed: 0xA70 }, false))
            .collect(),
        // The OS places at data-structure granularity, which requires a
        // mapping whose bank bits sit above the page offset: the
        // bank-partitioned scheme5.
        Uc2System::Xmem => vec![(
            AddressMapping::scheme5(),
            FramePolicyKind::XmemPlacement,
            false,
        )],
        Uc2System::IdealRbl => vec![(
            AddressMapping::scheme1(),
            FramePolicyKind::Randomized { seed: 0xA70 },
            true,
        )],
    };
    grid.into_iter()
        .flat_map(|(mapping, policy, ideal)| {
            [true, false].map(|pf| {
                RunSpec::new(
                    format!(
                        "{}/{system}/{}/{}",
                        w.name,
                        mapping.name(),
                        if pf { "pf+" } else { "pf-" }
                    ),
                    uc2_config(mapping, policy, ideal, pf),
                    WorkloadSpec::placement(w.clone()),
                )
            })
        })
        .collect()
}

/// Runs one placement workload under the given system (Figs 7 and 8),
/// executing the system's §6.3 configuration grid on the parallel sweep
/// engine and keeping the fastest point.
///
/// Tie-breaking matches a serial `min_by_key` over the grid order, so the
/// result is deterministic and worker-count independent.
pub fn run_placement(w: &PlacementWorkload, system: Uc2System) -> RunReport {
    Sweep::new(placement_specs(w, system))
        .best()
        // simlint: allow(unwrap, reason = "placement_specs always yields a non-empty constant grid")
        .expect("placement grids are non-empty")
        .report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_kernel_params() -> KernelParams {
        KernelParams {
            n: 24,
            tile_bytes: 2048,
            steps: 2,
            reuse: 200,
        }
    }

    #[test]
    fn xmem_helps_oversized_tiles() {
        // The headline Fig 4 effect at one point: a tile ~2× the L3 thrashes
        // the baseline; XMem pins + prefetches and runs faster.
        let p = KernelParams {
            n: 96,
            tile_bytes: 64 << 10, // 64 KB tile vs 32 KB L3
            steps: 2,
            reuse: 200,
        };
        let base = KernelRun::new(PolybenchKernel::Gemm, p).run();
        let xmem = KernelRun::new(PolybenchKernel::Gemm, p)
            .system(SystemKind::Xmem)
            .run();
        assert!(
            xmem.cycles() < base.cycles(),
            "xmem {} vs baseline {}",
            xmem.cycles(),
            base.cycles()
        );
    }

    #[test]
    fn bandwidth_reduction_slows_everything() {
        let p = tiny_kernel_params();
        let fast = KernelRun::new(PolybenchKernel::Mvt, p)
            .per_core_gbps(2.0)
            .run();
        let slow = KernelRun::new(PolybenchKernel::Mvt, p)
            .per_core_gbps(0.5)
            .run();
        assert!(slow.cycles() >= fast.cycles());
    }

    #[test]
    fn ideal_rbl_not_slower_than_baseline() {
        let mut w = PlacementWorkload::by_name("lbm").unwrap();
        w.accesses = 20_000;
        let base = run_placement(&w, Uc2System::Baseline);
        let ideal = run_placement(&w, Uc2System::IdealRbl);
        // Ideal has perfect row locality: it must not lose.
        assert!(
            ideal.cycles() <= base.cycles() * 101 / 100,
            "ideal {} vs base {}",
            ideal.cycles(),
            base.cycles()
        );
        assert!(ideal.dram.row_hit_rate() > 0.99);
    }

    #[test]
    fn uc2_systems_run_all_three() {
        let mut w = PlacementWorkload::by_name("kmeans").unwrap();
        w.accesses = 10_000;
        for sys in [Uc2System::Baseline, Uc2System::Xmem, Uc2System::IdealRbl] {
            let r = run_placement(&w, sys);
            assert!(r.cycles() > 0, "{:?}", sys);
            assert!(r.dram.accesses() > 0, "{:?} never reached DRAM", sys);
        }
    }

    #[test]
    fn baseline_grid_has_eighteen_points() {
        let w = PlacementWorkload::by_name("milc").unwrap();
        assert_eq!(placement_specs(&w, Uc2System::Baseline).len(), 18);
        assert_eq!(placement_specs(&w, Uc2System::Xmem).len(), 2);
        assert_eq!(placement_specs(&w, Uc2System::IdealRbl).len(), 2);
    }
}
