//! The Figs 4–7 sweep grids, shared by the figure binaries and by the
//! tests that check how a sweep runs them.

use crate::{fig4_tiles, fmt_bytes, uc1_params, FIG5_L3, UC1_L3};
use workloads::placement::PlacementWorkload;
use workloads::polybench::PolybenchKernel;
use xmem_sim::{placement_specs, KernelRun, RunSpec, SystemKind, Uc2System};

/// The systems Figs 4 and 5 compare.
pub const UC1_SYSTEMS: [SystemKind; 2] = [SystemKind::Baseline, SystemKind::Xmem];

/// Fig 6's per-core bandwidths in GB/s (the paper reports 2 / 1 / 0.5).
pub const FIG6_BANDWIDTHS: [f64; 4] = [4.0, 2.0, 1.0, 0.5];

/// The systems Fig 6 compares.
pub const FIG6_SYSTEMS: [SystemKind; 3] =
    [SystemKind::Baseline, SystemKind::XmemPref, SystemKind::Xmem];

/// The systems Figs 7 and 8 compare.
pub const FIG7_SYSTEMS: [Uc2System; 3] =
    [Uc2System::Baseline, Uc2System::Xmem, Uc2System::IdealRbl];

/// Fig 4: one spec per (kernel, system, tile) at problem size `n` on the
/// [`UC1_L3`] L3, kernel-major so the records slice back into per-kernel
/// chunks.
pub fn fig4(n: usize) -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for kernel in PolybenchKernel::all() {
        for kind in UC1_SYSTEMS {
            for t in fig4_tiles() {
                let mut spec = KernelRun::new(kernel, uc1_params(n, t))
                    .l3_bytes(UC1_L3)
                    .system(kind)
                    .spec();
                spec.label = format!("{}/{kind}/tile={}", kernel.name(), fmt_bytes(t));
                specs.push(spec);
            }
        }
    }
    specs
}

/// Fig 5's L3 sizes: the tuned [`FIG5_L3`], half and a quarter of it.
pub fn fig5_cache_sizes() -> [u64; 3] {
    [FIG5_L3, FIG5_L3 / 2, FIG5_L3 / 4]
}

/// Fig 5's tile, tuned per the sizing heuristic the paper describes (§5.4:
/// "many optimizations typically size the tile to be as big as what can
/// fit in the available cache space" \[65, 78\]): the largest sweep tile
/// that fits the full cache.
pub fn fig5_tile() -> u64 {
    fig4_tiles()
        .into_iter()
        .filter(|&t| t <= FIG5_L3)
        .max()
        .expect("the tile sweep has a tile that fits the L3")
}

/// Fig 5: one spec per (kernel, system, cache size) at problem size `n`,
/// kernel-major; within a kernel the first record is the
/// Baseline-at-full-cache reference.
pub fn fig5(n: usize) -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for kernel in PolybenchKernel::all() {
        for kind in UC1_SYSTEMS {
            for l3 in fig5_cache_sizes() {
                let mut spec = KernelRun::new(kernel, uc1_params(n, fig5_tile()))
                    .l3_bytes(l3)
                    .system(kind)
                    .spec();
                spec.label = format!("{}/{kind}/L3={}", kernel.name(), fmt_bytes(l3));
                specs.push(spec);
            }
        }
    }
    specs
}

/// Fig 6: one spec per (kernel, bandwidth, system) at problem size `n` and
/// the largest tile, kernel-major, bandwidth next, so each (kernel,
/// bandwidth) group of three is contiguous.
pub fn fig6(n: usize) -> Vec<RunSpec> {
    let tile = *fig4_tiles().last().expect("non-empty sweep");
    let mut specs = Vec::new();
    for kernel in PolybenchKernel::all() {
        for bw in FIG6_BANDWIDTHS {
            for kind in FIG6_SYSTEMS {
                let mut spec = KernelRun::new(kernel, uc1_params(n, tile))
                    .l3_bytes(UC1_L3)
                    .system(kind)
                    .per_core_gbps(bw)
                    .spec();
                spec.label = format!("{}/{kind}/{bw}GBps", kernel.name());
                specs.push(spec);
            }
        }
    }
    specs
}

/// Fig 7's 27 workloads, shrunk to 40 000 accesses each when `quick`.
pub fn fig7_workloads(quick: bool) -> Vec<PlacementWorkload> {
    let mut workloads = PlacementWorkload::all();
    if quick {
        for w in &mut workloads {
            w.accesses = 40_000;
        }
    }
    workloads
}

/// One (workload, system) configuration grid inside [`fig7`]'s specs.
#[derive(Debug, Clone, Copy)]
pub struct Fig7Grid {
    /// Index into the workloads.
    pub workload: usize,
    /// The system.
    pub system: Uc2System,
    /// First spec of the grid.
    pub start: usize,
    /// Specs in the grid.
    pub len: usize,
}

/// Fig 7: every (workload, system) §6.3 configuration grid flattened into
/// one list of specs, with each grid's extent.
pub fn fig7(workloads: &[PlacementWorkload]) -> (Vec<RunSpec>, Vec<Fig7Grid>) {
    let mut specs = Vec::new();
    let mut grids = Vec::new();
    for (wi, w) in workloads.iter().enumerate() {
        for system in FIG7_SYSTEMS {
            let grid = placement_specs(w, system);
            grids.push(Fig7Grid {
                workload: wi,
                system,
                start: specs.len(),
                len: grid.len(),
            });
            specs.extend(grid);
        }
    }
    (specs, grids)
}
