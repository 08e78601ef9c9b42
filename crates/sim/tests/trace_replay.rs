//! The `xmemcli replay` path at machine level: a workload recorded with
//! [`LogSink`] and replayed through [`replay`] must run exactly as the
//! workload itself does — every field of the report equal — on one fig5
//! kernel point and one fig7 placement mix.

use workloads::placement::PlacementWorkload;
use workloads::polybench::{KernelParams, PolybenchKernel};
use workloads::sink::{LogSink, TraceSink};
use workloads::trace_file::replay;
use xmem_sim::{placement_specs, run, FramePolicyKind, KernelRun, RunSpec, SystemKind, Uc2System};

/// Records `spec`'s workload, then asserts that running the replayed log
/// and running the workload give the same report.
fn assert_replay_matches(spec: &RunSpec) {
    let mut log = LogSink::new();
    spec.workload.generate(&mut log);
    let events = log.into_events();
    let replayed = run(
        &spec.config,
        &|s: &mut dyn TraceSink| replay(&events, s),
        None,
        None,
    )
    .report;
    let direct = run(&spec.config, &spec.workload, None, None).report;
    assert_eq!(replayed, direct, "{}: replay != workload", spec.label);
    assert!(direct.core.instructions > 0, "{}: empty run", spec.label);
}

/// A fig5 `--quick` point: gemm with the tile tuned to the 64 KB L3, run
/// on XMem with the L3 halved.
#[test]
fn fig5_kernel_point_replays_exactly() {
    let params = KernelParams {
        n: 48,
        tile_bytes: 64 << 10,
        steps: 12,
        reuse: 200,
    };
    let spec = KernelRun::new(PolybenchKernel::Gemm, params)
        .l3_bytes(32 << 10)
        .system(SystemKind::Xmem)
        .spec();
    assert!(spec.config.hierarchy.xmem != cache_sim::XmemMode::Off);
    assert_replay_matches(&spec);
}

/// A fig7 `--quick` mix under XMem placement, where the frame policy reads
/// the atoms the replay re-creates.
#[test]
fn fig7_xmem_placement_mix_replays_exactly() {
    let mut w = PlacementWorkload::by_name("milc").expect("known workload");
    w.accesses = 40_000;
    let spec = placement_specs(&w, Uc2System::Xmem)
        .into_iter()
        .next()
        .expect("the XMem grid has points");
    assert_eq!(spec.config.frame_policy, FramePolicyKind::XmemPlacement);
    assert_replay_matches(&spec);
}
