//! The byte-identity suite for the batched memory path (PR 6).
//!
//! The batched API's contract is that buffering ops into [`OpBatch`]es and
//! serving them through `MemoryPath::serve_batch` is *observably identical*
//! to the scalar one-op-at-a-time execution it replaced. These tests pin
//! that contract at every level:
//!
//! * quick-sized fig4–fig7 grid points, batched vs. the scalar reference
//!   arm (`run_scalar`, which drives the machine without a
//!   `BatchEmitter`), with telemetry armed as well as unarmed;
//! * sweep records under 1 worker vs. 8 workers;
//! * SplitMix64-fuzzed `OpBatch` lane round trips and `serve_batch` vs.
//!   per-op `serve` through the DRAM layer and the scalar adapter.
//!
//! PR 8 extends the contract to the interval-sampling engine: a
//! 100%-coverage [`SamplingSpec`] (every op detailed, nothing fast-forwarded)
//! must leave the report byte-identical to plain full execution on the same
//! fig4–fig7 grid points — the sampling machinery may observe, never perturb.
//!
//! Armed runs split each batch at every sampling phase edge, window ramp
//! snapshot and telemetry sample, so the armed checks use an epoch and an
//! interval coprime to `BATCH_CAPACITY`: boundaries then land at every
//! offset within a batch, and multi-instruction `Compute` ops straddle
//! epoch edges.

use cpu_sim::batch::{MemoryPath, OpAttrs, OpBatch, OpKind, BATCH_CAPACITY};
use cpu_sim::trace::Op;
use dram_sim::{AddressMapping, Dram, DramConfig};
use workloads::placement::PlacementWorkload;
use workloads::polybench::{KernelParams, PolybenchKernel};
use workloads::sink::TraceSink;
use xmem_core::rng::SplitMix64;
use xmem_sim::{
    placement_specs, run, run_scalar, Generator, KernelRun, RunSpec, SamplingSpec, Sweep,
    SystemConfig, SystemKind, Uc2System,
};

/// Telemetry epoch of the armed checks (coprime to `BATCH_CAPACITY`).
const EPOCH: u64 = 997;

/// Runs `generator` batched and through the scalar reference arm and
/// asserts the two outputs are identical field for field and byte for
/// byte: the `Debug` rendering covers every counter of the report and the
/// exact bits of every telemetry sample and sampling estimate, so string
/// equality is a byte-level check.
fn assert_batched_equals_scalar<G: Generator>(
    label: &str,
    config: &SystemConfig,
    generator: &G,
    epoch: Option<u64>,
    sampling: Option<SamplingSpec>,
) {
    let batched = run(config, generator, epoch, sampling);
    let scalar = run_scalar(config, generator, epoch, sampling);
    assert_eq!(batched.report, scalar.report, "{label}: batched != scalar");
    assert_eq!(
        format!("{batched:?}"),
        format!("{scalar:?}"),
        "{label}: Debug renderings differ"
    );
}

/// Asserts one spec's batched run equals the scalar reference run.
fn assert_identical(spec: &RunSpec, epoch: Option<u64>) {
    assert_batched_equals_scalar(&spec.label, &spec.config, &spec.workload, epoch, None);
}

fn uc1_params(n: usize, tile_bytes: u64) -> KernelParams {
    KernelParams {
        n,
        tile_bytes,
        steps: 4,
        reuse: 200,
    }
}

/// Figures 4–6 are (kernel, system, tile-size) grids over the polybench
/// kernels. A quick-sized sample of that grid — small/tuned/oversized
/// tiles, a spread of kernels, both systems — must be byte-identical
/// batched vs. scalar, unarmed and with telemetry armed.
#[test]
fn fig4_to_fig6_quick_points_batched_equals_scalar() {
    let l3 = 32 << 10;
    let kernels = [
        PolybenchKernel::Gemm,
        PolybenchKernel::Syrk,
        PolybenchKernel::Trmm,
    ];
    for kernel in kernels {
        for kind in [SystemKind::Baseline, SystemKind::Xmem] {
            for tile in [2048, l3 / 2, 2 * l3] {
                let mut spec = KernelRun::new(kernel, uc1_params(32, tile))
                    .l3_bytes(l3)
                    .system(kind)
                    .spec();
                spec.label = format!("{}/{kind}/tile={tile}", kernel.name());
                assert_identical(&spec, None);
                assert_identical(&spec, Some(EPOCH));
            }
        }
    }
}

/// Figure 7 sweeps the placement workloads over Baseline / XMem /
/// Ideal-RBL systems; each grid point must be byte-identical batched vs.
/// scalar. Two representative mixes at quick size keep the runtime sane.
#[test]
fn fig7_quick_points_batched_equals_scalar() {
    let mut workloads: Vec<PlacementWorkload> =
        PlacementWorkload::all().into_iter().take(2).collect();
    for w in &mut workloads {
        w.accesses = 20_000;
    }
    for w in &workloads {
        for sys in [Uc2System::Baseline, Uc2System::Xmem, Uc2System::IdealRbl] {
            for spec in placement_specs(w, sys) {
                assert_identical(&spec, None);
            }
        }
    }
}

/// Worker-count invariance: the records of a sweep are identical whether
/// the pool has 1 worker (serial reference) or 8, including the sampled
/// telemetry series. This is the `XMEM_WORKERS=1` vs `=8` CI check,
/// exercised through `Sweep::workers` (the same value the env var feeds)
/// so the test never touches the process environment.
#[test]
fn sweep_records_identical_under_1_and_8_workers() {
    let specs = || -> Vec<RunSpec> {
        [
            PolybenchKernel::Gemm,
            PolybenchKernel::Mvt,
            PolybenchKernel::Syr2k,
        ]
        .into_iter()
        .flat_map(|kernel| {
            [SystemKind::Baseline, SystemKind::Xmem].map(|kind| {
                let mut spec = KernelRun::new(kernel, uc1_params(32, 4096))
                    .l3_bytes(32 << 10)
                    .system(kind)
                    .spec();
                spec.label = format!("{}/{kind}", kernel.name());
                spec
            })
        })
        .collect()
    };
    let serial = Sweep::new(specs()).workers(1).epoch(Some(2_000)).run();
    let parallel = Sweep::new(specs()).workers(8).epoch(Some(2_000)).run();
    assert_eq!(serial.len(), parallel.len());
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(a.label, b.label);
        assert_eq!(a.report, b.report, "{}", a.label);
        assert_eq!(
            format!("{:?}", a.report),
            format!("{:?}", b.report),
            "{}",
            a.label
        );
        // Telemetry samples carry f64 rates; the Debug rendering compares
        // their exact bit patterns without needing PartialEq on the series.
        assert_eq!(
            format!("{:?}", a.telemetry),
            format!("{:?}", b.telemetry),
            "{}",
            a.label
        );
    }
}

/// Asserts one spec's report under a 100%-coverage sampling schedule equals
/// its plain full execution, byte for byte, and that the run's sampling
/// summary confirms every op went through the detailed path.
fn assert_full_coverage_identical(spec: &RunSpec) {
    let plain = run(&spec.config, &spec.workload, None, None).report;
    let sampled = run(
        &spec.config,
        &spec.workload,
        None,
        Some(SamplingSpec::full_coverage()),
    );
    assert_eq!(
        plain, sampled.report,
        "{}: 100% coverage changed the report",
        spec.label
    );
    assert_eq!(
        format!("{plain:?}"),
        format!("{:?}", sampled.report),
        "{}: Debug renderings differ",
        spec.label
    );
    let summary = sampled.sampling.expect("sampled run carries a summary");
    assert_eq!(summary.detailed_ops, summary.total_ops, "{}", spec.label);
    assert_eq!(summary.warm_ops, 0, "{}", spec.label);
}

/// The sampling engine at 100% coverage is a no-op on the fig4–fig6 grid:
/// same kernels/systems/tiles as the batched-vs-scalar check above.
#[test]
fn fig4_to_fig6_quick_points_full_coverage_sampling_is_identity() {
    let l3 = 32 << 10;
    let kernels = [
        PolybenchKernel::Gemm,
        PolybenchKernel::Syrk,
        PolybenchKernel::Trmm,
    ];
    for kernel in kernels {
        for kind in [SystemKind::Baseline, SystemKind::Xmem] {
            for tile in [2048, l3 / 2, 2 * l3] {
                let mut spec = KernelRun::new(kernel, uc1_params(32, tile))
                    .l3_bytes(l3)
                    .system(kind)
                    .spec();
                spec.label = format!("{}/{kind}/tile={tile}", kernel.name());
                assert_full_coverage_identical(&spec);
            }
        }
    }
}

/// Partial-coverage sampled execution is identical through the batched
/// sampled dispatch (phase-run tight loops, bulk skip accounting,
/// ramp-split snapshots, telemetry splits) and the scalar per-op dispatch
/// — report, sampling summary and telemetry series — on a spread of
/// fig4–fig6 grid points, unarmed and with telemetry armed. The schedule
/// is sized so quick runs cross several intervals and every phase
/// boundary lands mid-batch somewhere (interval and batch capacity are
/// coprime).
#[test]
fn partial_coverage_sampling_batched_equals_scalar() {
    let sampling = SamplingSpec {
        warmup_ops: 500,
        window_ops: 1_500,
        interval: 6_007,
    };
    let l3 = 32 << 10;
    for kernel in [PolybenchKernel::Gemm, PolybenchKernel::Syrk] {
        for kind in [SystemKind::Baseline, SystemKind::Xmem] {
            let mut spec = KernelRun::new(kernel, uc1_params(32, l3 / 2))
                .l3_bytes(l3)
                .system(kind)
                .spec();
            spec.label = format!("{}/{kind}/sampled", kernel.name());
            for epoch in [None, Some(EPOCH)] {
                let label = format!("{}/epoch={epoch:?}", spec.label);
                assert_batched_equals_scalar(
                    &label,
                    &spec.config,
                    &spec.workload,
                    epoch,
                    Some(sampling),
                );
            }
        }
    }
}

/// The sampling engine at 100% coverage is a no-op on the fig7 placement
/// grid as well (all three memory systems).
#[test]
fn fig7_quick_points_full_coverage_sampling_is_identity() {
    let mut workloads: Vec<PlacementWorkload> =
        PlacementWorkload::all().into_iter().take(2).collect();
    for w in &mut workloads {
        w.accesses = 20_000;
    }
    for w in &workloads {
        for sys in [Uc2System::Baseline, Uc2System::Xmem, Uc2System::IdealRbl] {
            for spec in placement_specs(w, sys) {
                assert_full_coverage_identical(&spec);
            }
        }
    }
}

/// A deterministic random op with random attributes.
fn random_push(rng: &mut SplitMix64, batch: &mut OpBatch, now: u64) -> (OpKind, u64, OpAttrs) {
    let kind = match rng.below(4) {
        0 => OpKind::Compute,
        1 | 2 => OpKind::Load,
        _ => OpKind::Store,
    };
    let addr = match kind {
        OpKind::Compute => rng.range(1, 400),
        _ => rng.below(1 << 26),
    };
    let attrs = match kind {
        OpKind::Compute => OpAttrs::default(),
        OpKind::Load => OpAttrs::read()
            .with_dep(rng.percent(30))
            .on_socket(rng.below(4) as u8)
            .with_salt(rng.next_u64()),
        OpKind::Store => OpAttrs::write()
            .on_socket(rng.below(4) as u8)
            .with_salt(rng.next_u64()),
    };
    batch.push(kind, addr, attrs, now);
    (kind, addr, attrs)
}

/// Fuzz: everything pushed into an `OpBatch` reads back exactly — kind,
/// address, attributes, start cycle, and the reconstructed trace `Op`.
#[test]
fn opbatch_lanes_round_trip_fuzzed() {
    let mut rng = SplitMix64::new(0x1DE57);
    for _ in 0..64 {
        let mut batch = OpBatch::new();
        let n = rng.range(1, BATCH_CAPACITY as u64 + 1) as usize;
        let mut pushed = Vec::with_capacity(n);
        for i in 0..n {
            let now = i as u64 * 3;
            pushed.push((random_push(&mut rng, &mut batch, now), now));
        }
        assert_eq!(batch.len(), n);
        for (i, &((kind, addr, attrs), now)) in pushed.iter().enumerate() {
            assert_eq!(batch.kind(i), kind);
            assert_eq!(batch.addr(i), addr);
            assert_eq!(batch.start(i), now);
            if kind != OpKind::Compute {
                assert_eq!(batch.attrs(i), attrs);
            }
            let expect_op = match kind {
                OpKind::Compute => Op::Compute(addr as u32),
                OpKind::Load => Op::Load {
                    addr,
                    dep: attrs.dep,
                },
                OpKind::Store => Op::Store { addr },
            };
            assert_eq!(batch.op(i), expect_op);
        }
    }
}

/// Fuzz: `serve_batch` against the DRAM layer leaves the model in exactly
/// the state per-op `serve` calls produce, and returns the same latencies.
#[test]
fn dram_serve_batch_matches_per_op_serve_fuzzed() {
    let mut rng = SplitMix64::new(0xD1A);
    let fresh = || {
        Dram::new(
            DramConfig::ddr3_1066(3.6).with_capacity(64 << 20),
            AddressMapping::scheme1(),
        )
    };
    let mut batched = fresh();
    let mut scalar = fresh();
    let mut now = 0u64;
    for _ in 0..32 {
        let mut batch = OpBatch::new();
        let mut mirror = Vec::new();
        for _ in 0..rng.range(1, 257) {
            now += rng.range(1, 32);
            random_push(&mut rng, &mut batch, now);
            mirror.push(now);
        }
        let reference: Vec<Option<u64>> = (0..batch.len())
            .map(|i| match batch.kind(i) {
                OpKind::Compute => None,
                _ => Some(scalar.serve(batch.addr(i), batch.attrs(i), batch.start(i))),
            })
            .collect();
        batched.serve_batch(&mut batch);
        for (i, expect) in reference.iter().enumerate() {
            match expect {
                Some(lat) => assert_eq!(batch.latency(i), *lat, "op {i}"),
                // Compute lanes keep their start cycle untouched.
                None => assert_eq!(batch.latency(i), mirror[i], "compute op {i}"),
            }
        }
        assert_eq!(
            format!("{batched:?}"),
            format!("{scalar:?}"),
            "DRAM state diverged"
        );
    }
}

/// Fuzz the whole machine: a seeded synthetic workload (random allocs,
/// loads, stores, compute bursts, atom hints) runs byte-identical through
/// the batched and scalar paths, unarmed and with telemetry armed (the
/// compute bursts straddle epoch edges).
#[test]
fn random_workloads_batched_equals_scalar() {
    use xmem_core::attrs::{AccessPattern, AtomAttributes, Reuse};

    let generate = |seed: u64, sink: &mut dyn TraceSink| {
        let mut rng = SplitMix64::new(seed);
        let atom = sink.create_atom(
            "fuzz",
            AtomAttributes::builder()
                .access_pattern(AccessPattern::sequential(8))
                .reuse(Reuse(100))
                .build(),
        );
        let bytes = 1 << rng.range(14, 17);
        let base = sink.alloc(bytes, Some(atom));
        sink.map(atom, base, bytes);
        sink.activate(atom);
        for _ in 0..6_000 {
            let addr = base + rng.below(bytes / 8) * 8;
            match rng.below(10) {
                0..=5 => sink.op(Op::load(addr)),
                6 => sink.op(Op::load_dep(addr)),
                7 | 8 => sink.op(Op::store(addr)),
                _ => sink.op(Op::Compute(rng.range(1, 64) as u32)),
            }
        }
        sink.deactivate(atom);
    };
    for seed in [1u64, 7, 42] {
        let generator = |s: &mut dyn TraceSink| generate(seed, s);
        for kind in [SystemKind::Baseline, SystemKind::Xmem] {
            let cfg = SystemConfig::scaled_use_case1(32 << 10, kind);
            for epoch in [None, Some(EPOCH)] {
                let label = format!("seed {seed}, {kind}, epoch {epoch:?}");
                assert_batched_equals_scalar(&label, &cfg, &generator, epoch, None);
            }
        }
    }
}
