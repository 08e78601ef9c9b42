//! Differential gate between the two ways into `Machine`: a 1-core
//! [`run_corun`] (a recorded log, replayed by the co-run scheduler) and
//! the single-core [`run`] (the generator itself) must agree on every
//! counter both report — core, L1, L2, L3, DRAM, ALB, and stride and
//! guided prefetch — on quick-sized fig4–fig7 grid points.
//!
//! Configurations a co-run cannot be given are skipped: an `ideal_rbl`
//! DRAM (Fig 7's "Ideal" system) and a TLB have no [`MultiCoreConfig`]
//! field (DESIGN.md "Modeling decisions" lists the gap).

use workloads::placement::PlacementWorkload;
use workloads::polybench::{KernelParams, PolybenchKernel};
use workloads::sink::LogSink;
use xmem_sim::{
    placement_specs, run, run_corun, KernelRun, MultiCoreConfig, RunSpec, SystemKind, Uc2System,
};

/// Runs `spec` through both and asserts every shared counter
/// matches. Returns `false` (without running) for configurations the
/// co-run machine cannot express.
fn assert_runs_agree(spec: &RunSpec) -> bool {
    if spec.config.ideal_rbl || spec.config.tlb.is_some() {
        return false;
    }
    let single = run(&spec.config, &spec.workload, None, None).report;
    let mut log = LogSink::new();
    spec.workload.generate(&mut log);
    let corun = run_corun(
        &MultiCoreConfig::from_system(&spec.config, 1),
        &[log.into_events()],
    );
    let label = &spec.label;
    assert_eq!(corun.cores[0], single.core, "{label}: core");
    assert_eq!(corun.l1s[0], single.l1, "{label}: L1");
    assert_eq!(corun.l2s[0], single.l2, "{label}: L2");
    assert_eq!(corun.l3, single.l3, "{label}: L3");
    assert_eq!(corun.dram, single.dram, "{label}: DRAM");
    assert_eq!(corun.alb, single.alb, "{label}: ALB");
    assert_eq!(
        corun.stride_prefetch[0], single.stride_prefetch,
        "{label}: stride prefetch"
    );
    assert_eq!(
        corun.xmem_prefetch, single.xmem_prefetch,
        "{label}: guided prefetch"
    );
    true
}

fn params(tile_bytes: u64) -> KernelParams {
    KernelParams {
        n: 32,
        tile_bytes,
        steps: 4,
        reuse: 200,
    }
}

/// Figs 4–6: kernels × all three systems × small/tuned/oversized tiles on
/// the 32 KB L3, the tuned tile on Fig 5's halved L3, and Fig 6's lowest
/// per-core bandwidth.
#[test]
fn fig4_to_fig6_quick_points_agree() {
    let l3 = 32 << 10;
    let kernels = [
        PolybenchKernel::Gemm,
        PolybenchKernel::Mvt,
        PolybenchKernel::Syrk,
        PolybenchKernel::Jacobi2d,
    ];
    let systems = [SystemKind::Baseline, SystemKind::XmemPref, SystemKind::Xmem];
    for kernel in kernels {
        for kind in systems {
            let at = |tile, l3| {
                KernelRun::new(kernel, params(tile))
                    .l3_bytes(l3)
                    .system(kind)
            };
            let runs = [
                ("tile=2K", at(2048, l3)),
                ("tile=16K", at(l3 / 2, l3)),
                ("tile=64K", at(2 * l3, l3)),
                ("L3=16K", at(l3 / 2, l3 / 2)),
                ("0.5GBps", at(l3 / 2, l3).per_core_gbps(0.5)),
            ];
            for (what, r) in runs {
                let mut spec = r.spec();
                spec.label = format!("{}/{kind}/{what}", kernel.name());
                assert!(assert_runs_agree(&spec), "{}", spec.label);
            }
        }
    }
}

/// Fig 7: every Baseline and XMem grid point of three placement mixes;
/// the Ideal-RBL grid is skipped (no co-run equivalent).
#[test]
fn fig7_quick_points_agree() {
    for name in ["lbm", "kmeans", "milc"] {
        let mut w = PlacementWorkload::by_name(name).expect("known workload");
        w.accesses = 20_000;
        for sys in [Uc2System::Baseline, Uc2System::Xmem, Uc2System::IdealRbl] {
            let compared = placement_specs(&w, sys)
                .iter()
                .filter(|spec| assert_runs_agree(spec))
                .count();
            let expected = match sys {
                Uc2System::IdealRbl => 0,
                _ => placement_specs(&w, sys).len(),
            };
            assert_eq!(compared, expected, "{name}/{sys}");
        }
    }
}
