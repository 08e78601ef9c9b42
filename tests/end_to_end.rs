//! End-to-end invariants of the full system: the properties §2.1 of the
//! paper promises must hold across every configuration.

use xmem::sim::{
    run, run_placement, KernelRun, RunReport, SystemConfig, SystemKind, Uc2System, WorkloadSpec,
};
use xmem::workloads::placement::PlacementWorkload;
use xmem::workloads::polybench::{KernelParams, PolybenchKernel};

fn run_on(kernel: PolybenchKernel, p: KernelParams, l3: u64, kind: SystemKind) -> RunReport {
    KernelRun::new(kernel, p).l3_bytes(l3).system(kind).run()
}

fn small_params(tile: u64) -> KernelParams {
    KernelParams {
        n: 32,
        tile_bytes: tile,
        steps: 3,
        reuse: 200,
    }
}

/// XMem is hint-based (§2.1(i)): it must never change *what* the program
/// executes — instruction and access counts are identical with and without
/// it, for every kernel.
#[test]
fn hints_do_not_change_program_work() {
    for kernel in PolybenchKernel::all() {
        let p = small_params(4 << 10);
        let base = run_on(kernel, p, 16 << 10, SystemKind::Baseline);
        let pref = run_on(kernel, p, 16 << 10, SystemKind::XmemPref);
        let xmem = run_on(kernel, p, 16 << 10, SystemKind::Xmem);
        assert_eq!(
            base.core.instructions,
            xmem.core.instructions,
            "{}: instruction count changed",
            kernel.name()
        );
        assert_eq!(base.core.loads, xmem.core.loads, "{}", kernel.name());
        assert_eq!(base.core.stores, pref.core.stores, "{}", kernel.name());
        // Only the XMem systems execute XMem instructions.
        assert_eq!(base.xmem_instructions, 0, "{}", kernel.name());
        assert!(xmem.xmem_instructions > 0, "{}", kernel.name());
    }
}

/// Every kernel, every system: deterministic repetition.
#[test]
fn full_system_determinism() {
    for kernel in [PolybenchKernel::Gemm, PolybenchKernel::Jacobi2d] {
        for kind in [SystemKind::Baseline, SystemKind::Xmem] {
            let p = small_params(8 << 10);
            let a = run_on(kernel, p, 8 << 10, kind);
            let b = run_on(kernel, p, 8 << 10, kind);
            assert_eq!(a.core, b.core, "{} {:?}", kernel.name(), kind);
            assert_eq!(a.dram, b.dram, "{} {:?}", kernel.name(), kind);
            assert_eq!(a.l3, b.l3, "{} {:?}", kernel.name(), kind);
        }
    }
}

/// The headline use-case-1 behaviour: when the tile exceeds the cache,
/// XMem outperforms the baseline (pinning + guided prefetch vs thrash).
#[test]
fn xmem_mitigates_thrashing() {
    let p = KernelParams {
        n: 64,
        tile_bytes: 32 << 10, // 32 KB tile...
        steps: 3,
        reuse: 200,
    };
    let l3 = 16 << 10; // ...on a 16 KB cache
    for kernel in [PolybenchKernel::Gemm, PolybenchKernel::Syrk] {
        let base = run_on(kernel, p, l3, SystemKind::Baseline);
        let xmem = run_on(kernel, p, l3, SystemKind::Xmem);
        assert!(
            xmem.cycles() < base.cycles(),
            "{}: xmem {} >= baseline {}",
            kernel.name(),
            xmem.cycles(),
            base.cycles()
        );
    }
}

/// When the tile fits comfortably, XMem must not hurt (the supplemental-
/// hints requirement): allow a small tolerance for policy noise.
#[test]
fn xmem_harmless_when_tile_fits() {
    let p = small_params(2 << 10);
    for kernel in PolybenchKernel::all() {
        let base = run_on(kernel, p, 32 << 10, SystemKind::Baseline);
        let xmem = run_on(kernel, p, 32 << 10, SystemKind::Xmem);
        assert!(
            (xmem.cycles() as f64) < base.cycles() as f64 * 1.15,
            "{}: xmem {} vs baseline {}",
            kernel.name(),
            xmem.cycles(),
            base.cycles()
        );
    }
}

/// Instruction overhead stays within the paper's bound (§4.4(2): ≤0.2%,
/// we allow 0.5% at our reduced problem sizes).
#[test]
fn instruction_overhead_bounded() {
    for kernel in PolybenchKernel::all() {
        let p = small_params(4 << 10);
        let r = run_on(kernel, p, 16 << 10, SystemKind::Xmem);
        assert!(
            r.instruction_overhead < 0.005,
            "{}: {:.4}%",
            kernel.name(),
            r.instruction_overhead * 100.0
        );
    }
}

/// Use case 2 invariants on a sample of workloads: the ideal-RBL system is
/// an upper bound, and XMem placement does not lose to the baseline.
#[test]
fn placement_ordering_holds() {
    for name in ["milc", "mcf", "srad"] {
        let mut w = PlacementWorkload::by_name(name).expect("workload exists");
        w.accesses = 25_000;
        let base = run_placement(&w, Uc2System::Baseline);
        let xmem = run_placement(&w, Uc2System::Xmem);
        let ideal = run_placement(&w, Uc2System::IdealRbl);
        assert!(
            ideal.cycles() <= base.cycles() * 101 / 100,
            "{name}: ideal {} vs base {}",
            ideal.cycles(),
            base.cycles()
        );
        assert!(
            xmem.cycles() <= base.cycles() * 104 / 100,
            "{name}: xmem {} vs base {}",
            xmem.cycles(),
            base.cycles()
        );
        assert!(ideal.dram.row_hit_rate() > 0.99, "{name}");
    }
}

/// The full-size Table 3 configuration runs (sanity for the unscaled path).
#[test]
fn full_size_westmere_config_runs() {
    let cfg = SystemConfig::westmere_like();
    let p = small_params(16 << 10);
    let r = run(
        &cfg,
        &WorkloadSpec::kernel(PolybenchKernel::Mvt, p),
        None,
        None,
    )
    .report;
    assert!(r.core.cycles > 0);
    assert!(r.core.ipc() > 0.1);
}
