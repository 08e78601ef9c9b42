//! Integration tests for the experiment-sweep engine: the parallel pool
//! must be indistinguishable from a serial loop, and the structured
//! reports must survive a round trip through their serialized forms.

use workloads::placement::PlacementWorkload;
use workloads::polybench::{KernelParams, PolybenchKernel};
use xmem_sim::{
    placement_specs, point_file_name, CsvSink, JsonSink, JsonValue, KernelRun, ReportSink,
    RunOutcome, RunRecord, RunSpec, SamplingSpec, Sweep, SystemConfig, SystemKind, Uc2System,
    WorkloadSpec, JSON_SCHEMA,
};

fn kernel_grid() -> Vec<RunSpec> {
    let p = KernelParams {
        n: 32,
        tile_bytes: 8 << 10,
        steps: 3,
        reuse: 200,
    };
    let mut specs = Vec::new();
    for kernel in [
        PolybenchKernel::Gemm,
        PolybenchKernel::Syrk,
        PolybenchKernel::Jacobi2d,
        PolybenchKernel::Mvt,
    ] {
        for kind in [SystemKind::Baseline, SystemKind::XmemPref, SystemKind::Xmem] {
            specs.push(KernelRun::new(kernel, p).system(kind).spec());
        }
    }
    specs
}

/// The tentpole guarantee: running a sweep on the worker pool yields the
/// exact same `RunReport`s, in the exact same order, as running it one
/// spec at a time. Every stats struct is compared via `PartialEq`.
#[test]
fn parallel_sweep_equals_serial_sweep() {
    let serial = Sweep::new(kernel_grid()).workers(1).run();
    let parallel = Sweep::new(kernel_grid()).workers(8).run();
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.label, p.label);
        assert_eq!(s.workload, p.workload);
        assert_eq!(s.report, p.report, "{}: reports diverge", s.label);
    }
}

/// The parallel placement engine must pick the same §6.3 winner as the
/// old serial `best_of` loop: iterate the grid in order, keep the first
/// point with the minimum cycle count.
#[test]
fn placement_best_matches_serial_best_of() {
    let mut w = PlacementWorkload::by_name("milc").expect("milc exists");
    w.accesses = 25_000;
    for sys in [Uc2System::Baseline, Uc2System::Xmem, Uc2System::IdealRbl] {
        let grid = placement_specs(&w, sys);
        // The old bespoke loop: serial execution, first-minimum wins.
        let serial: Vec<RunRecord> = Sweep::new(placement_specs(&w, sys)).workers(1).run();
        let serial_best = serial
            .iter()
            .min_by_key(|r| r.report.cycles())
            .expect("non-empty grid");
        let parallel_best = Sweep::new(grid).best().expect("non-empty grid");
        assert_eq!(serial_best.label, parallel_best.label, "{sys}");
        assert_eq!(serial_best.report, parallel_best.report, "{sys}");
    }
}

/// The §6.3 Baseline grid is 9 mappings × {pf on, off}; XMem and Ideal
/// fix the mapping and only toggle the prefetcher.
#[test]
fn placement_grid_sizes() {
    let w = PlacementWorkload::by_name("mcf").expect("mcf exists");
    assert_eq!(placement_specs(&w, Uc2System::Baseline).len(), 18);
    assert_eq!(placement_specs(&w, Uc2System::Xmem).len(), 2);
    assert_eq!(placement_specs(&w, Uc2System::IdealRbl).len(), 2);
}

fn fault_spec(label: &str) -> RunSpec {
    RunSpec::new(
        label,
        SystemConfig::scaled_use_case1(8 << 10, SystemKind::Baseline),
        WorkloadSpec::fault("injected fault: simulated device error"),
    )
}

/// The tentpole guarantee of this engine's fault isolation: a sweep with
/// one panicking spec completes every other point and surfaces exactly
/// one failure outcome — identically for a serial and a parallel pool.
#[test]
fn panicking_spec_does_not_abort_the_sweep() {
    let mut surviving = Vec::new();
    for workers in [1usize, 8] {
        let mut specs = kernel_grid();
        specs.insert(5, fault_spec("boom"));
        let total = specs.len();
        let outcomes = Sweep::new(specs).workers(workers).run_outcomes();
        assert_eq!(outcomes.len(), total, "one outcome per spec");
        let failures: Vec<_> = outcomes.iter().filter_map(|o| o.failure()).collect();
        assert_eq!(failures.len(), 1, "exactly one failure");
        assert_eq!(failures[0].label, "boom");
        assert!(failures[0].message.contains("injected fault"));
        assert!(outcomes[5].record().is_none(), "failure holds no record");
        let records: Vec<RunRecord> = outcomes
            .into_iter()
            .filter_map(RunOutcome::into_record)
            .collect();
        assert_eq!(records.len(), total - 1, "every other point completed");
        surviving.push(records);
    }
    for (s, p) in surviving[0].iter().zip(&surviving[1]) {
        assert_eq!(s.label, p.label);
        assert_eq!(
            s.report, p.report,
            "{}: serial and parallel diverge",
            s.label
        );
    }
}

/// `Sweep::run` still unwinds on failure — but only after the whole grid
/// has executed, with every failure in the panic summary.
#[test]
fn sweep_run_reports_failures_after_completion() {
    let p = KernelParams {
        n: 16,
        tile_bytes: 1024,
        steps: 1,
        reuse: 200,
    };
    let specs = vec![
        KernelRun::new(PolybenchKernel::Mvt, p).spec(),
        fault_spec("bad-point"),
    ];
    let sweep = Sweep::new(specs).workers(2);
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sweep.run()))
        .expect_err("a failed point must fail run()");
    let msg = payload.downcast_ref::<String>().expect("string panic");
    assert!(msg.contains("1/2"), "{msg}");
    assert!(msg.contains("bad-point"), "{msg}");
    assert!(msg.contains("injected fault"), "{msg}");
}

/// The empty-sweep satellite: `best()` is `None` instead of a panic, both
/// for zero specs and for a grid whose only point failed.
#[test]
fn empty_sweep_best_is_none() {
    let empty = Sweep::new(Vec::new());
    assert!(empty.run().is_empty());
    assert!(empty.best().is_none());
    assert!(Sweep::new(vec![fault_spec("only")]).best().is_none());
}

/// Removes the nondeterministic `run` block (wall time, worker id) from a
/// serialized record tree, leaving only the simulation's pure output.
fn strip_run(doc: &JsonValue) -> JsonValue {
    match doc {
        JsonValue::Object(pairs) => JsonValue::Object(
            pairs
                .iter()
                .filter(|(k, _)| k != "run")
                .map(|(k, v)| (k.clone(), strip_run(v)))
                .collect(),
        ),
        JsonValue::Array(items) => JsonValue::Array(items.iter().map(strip_run).collect()),
        other => other.clone(),
    }
}

/// Streaming + resume: delete one point file from a streamed report
/// directory and re-run — only that label re-executes, everything else
/// resumes, and the records match a fresh serial run byte-for-byte
/// modulo the `run` block.
#[test]
fn resume_reruns_only_missing_points() {
    let dir = std::env::temp_dir().join(format!("xmem-resume-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut specs = kernel_grid();
    specs.truncate(4);

    // The fresh serial streamed run: the byte-identity reference.
    let fresh = Sweep::new(specs.clone()).workers(1).report_dir(&dir).run();
    assert_eq!(fresh.len(), 4);
    let victim_label = specs[2].label.clone();
    let victim_path = dir.join(point_file_name(&victim_label));
    let reference = std::fs::read_to_string(&victim_path).expect("victim was streamed");
    std::fs::remove_file(&victim_path).expect("delete victim point file");

    let outcomes = Sweep::new(specs.clone())
        .workers(4)
        .resume_from(&dir)
        .run_outcomes();
    for (i, outcome) in outcomes.iter().enumerate() {
        match outcome {
            RunOutcome::Completed(r) => {
                assert_eq!(i, 2, "only the deleted label re-executes");
                assert_eq!(r.label, victim_label);
            }
            RunOutcome::Resumed(r) => {
                assert_ne!(i, 2);
                assert_eq!(r.label, specs[i].label);
                assert!(r.run.expect("resumed records carry meta").resumed);
            }
            RunOutcome::Failed(f) => panic!("unexpected failure: {f:?}"),
        }
    }
    // All four records — three resumed, one re-run — equal the fresh
    // serial run's, modulo the run block.
    for (outcome, fresh_rec) in outcomes.iter().zip(&fresh) {
        let r = outcome.record().expect("no failures");
        assert_eq!(
            strip_run(&r.to_json()).render(),
            strip_run(&fresh_rec.to_json()).render(),
            "{}",
            fresh_rec.label
        );
    }
    // The victim's rewritten point file is byte-identical to the fresh
    // serial one, modulo the run block.
    let rerun = std::fs::read_to_string(&victim_path).expect("victim was re-streamed");
    assert_eq!(
        strip_run(&JsonValue::parse(&reference).unwrap()).render(),
        strip_run(&JsonValue::parse(&rerun).unwrap()).render()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A stored point from a differently-configured sweep must re-run, not
/// resume: resume matches on label + workload (name and parameters) +
/// config summary.
#[test]
fn resume_ignores_stale_configs() {
    let dir = std::env::temp_dir().join(format!("xmem-stale-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let p = KernelParams {
        n: 24,
        tile_bytes: 4 << 10,
        steps: 1,
        reuse: 200,
    };
    let spec = |l3: u64| {
        RunSpec::new(
            "pt",
            SystemConfig::scaled_use_case1(l3, SystemKind::Baseline),
            WorkloadSpec::kernel(PolybenchKernel::Mvt, p),
        )
    };
    Sweep::new(vec![spec(8 << 10)])
        .workers(1)
        .report_dir(&dir)
        .run();
    let outcomes = Sweep::new(vec![spec(16 << 10)])
        .resume_from(&dir)
        .run_outcomes();
    assert!(
        matches!(outcomes[0], RunOutcome::Completed(_)),
        "a stale point must re-execute, got {outcomes:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The quick-mode trap: labels and config summaries do not encode problem
/// sizes, so a point streamed by a `--quick`-sized run (smaller `n`) must
/// re-run — not silently resume — when the same label comes back at full
/// size. Identical parameters still resume.
#[test]
fn resume_ignores_stale_workload_params() {
    let dir = std::env::temp_dir().join(format!("xmem-stale-params-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = |n: usize| {
        RunSpec::new(
            "pt",
            SystemConfig::scaled_use_case1(8 << 10, SystemKind::Baseline),
            WorkloadSpec::kernel(
                PolybenchKernel::Mvt,
                KernelParams {
                    n,
                    tile_bytes: 4 << 10,
                    steps: 1,
                    reuse: 200,
                },
            ),
        )
    };
    Sweep::new(vec![spec(16)]).workers(1).report_dir(&dir).run();
    let outcomes = Sweep::new(vec![spec(24)]).resume_from(&dir).run_outcomes();
    assert!(
        matches!(outcomes[0], RunOutcome::Completed(_)),
        "a differently-parameterized point must re-execute, got {outcomes:?}"
    );
    // The re-run overwrote the point file; the same parameters now resume.
    let outcomes = Sweep::new(vec![spec(24)]).resume_from(&dir).run_outcomes();
    assert!(
        matches!(outcomes[0], RunOutcome::Resumed(_)),
        "an identically-parameterized point must resume, got {outcomes:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn sample_records() -> Vec<RunRecord> {
    let p = KernelParams {
        n: 24,
        tile_bytes: 4 << 10,
        steps: 2,
        reuse: 200,
    };
    Sweep::new(vec![
        KernelRun::new(PolybenchKernel::Gemm, p).spec(),
        KernelRun::new(PolybenchKernel::Gemm, p)
            .system(SystemKind::Xmem)
            .spec(),
    ])
    .run()
}

/// A rendered JSON report parses back to the identical value tree, and
/// the headline fields survive with full fidelity.
#[test]
fn json_report_round_trips() {
    let records = sample_records();
    let mut sink = JsonSink::new();
    for r in &records {
        sink.emit(r).unwrap();
    }
    let text = sink.render();
    let doc = xmem_sim::JsonValue::parse(&text).expect("sink output parses");
    // Round trip: render(parse(render(x))) == render(x).
    assert_eq!(doc.render(), text);

    assert_eq!(
        doc.get("schema").and_then(|v| v.as_str()),
        Some(JSON_SCHEMA)
    );
    let parsed = doc
        .get("records")
        .and_then(|v| v.as_array())
        .expect("records");
    assert_eq!(parsed.len(), records.len());
    for (json, rec) in parsed.iter().zip(&records) {
        assert_eq!(
            json.get("label").and_then(|v| v.as_str()),
            Some(rec.label.as_str())
        );
        assert_eq!(
            json.get("core")
                .and_then(|c| c.get("cycles"))
                .and_then(|v| v.as_u64()),
            Some(rec.report.cycles())
        );
        assert_eq!(
            json.get("derived")
                .and_then(|d| d.get("ipc"))
                .and_then(|v| v.as_f64()),
            Some(rec.report.core.ipc())
        );
        // The whole record tree is identical to a fresh serialization.
        assert_eq!(json, &rec.to_json());
    }
}

/// Telemetry determinism, half 1: a sampled parallel sweep serializes
/// byte-identically to a sampled serial sweep — the epoch series is part
/// of the record, so it inherits the pool's bit-reproducibility guarantee.
#[test]
fn sampled_parallel_sweep_is_byte_identical_to_serial() {
    let epoch = Some(2_000);
    let mut specs = kernel_grid();
    specs.truncate(6);
    let serial = Sweep::new(specs.clone()).workers(1).epoch(epoch).run();
    let parallel = Sweep::new(specs).workers(8).epoch(epoch).run();
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        let series = s.telemetry.as_ref().expect("sampling was enabled");
        assert!(!series.samples.is_empty(), "{}: empty series", s.label);
        assert_eq!(s.telemetry, p.telemetry, "{}: series diverge", s.label);
        assert_eq!(
            strip_run(&s.to_json()).render(),
            strip_run(&p.to_json()).render(),
            "{}: serialized records diverge",
            s.label
        );
    }
}

/// Telemetry determinism, half 2: a resumed sweep re-emits the exact
/// series its cached points stored, and a point whose stored sampling
/// epoch does not match the sweep's re-runs instead of resuming.
#[test]
fn resume_re_emits_identical_telemetry_series() {
    let dir = std::env::temp_dir().join(format!("xmem-telemetry-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut specs = kernel_grid();
    specs.truncate(3);
    let fresh = Sweep::new(specs.clone())
        .workers(1)
        .epoch(Some(2_000))
        .report_dir(&dir)
        .run();

    // Same epoch: every point resumes, with the stored series intact.
    let outcomes = Sweep::new(specs.clone())
        .epoch(Some(2_000))
        .resume_from(&dir)
        .run_outcomes();
    for (outcome, fresh_rec) in outcomes.iter().zip(&fresh) {
        let r = match outcome {
            RunOutcome::Resumed(r) => r,
            other => panic!("expected a resume, got {other:?}"),
        };
        assert_eq!(
            r.telemetry, fresh_rec.telemetry,
            "{}: resumed series differs from the one executed",
            r.label
        );
        assert_eq!(
            strip_run(&r.to_json()).render(),
            strip_run(&fresh_rec.to_json()).render(),
            "{}: resumed record serializes differently",
            r.label
        );
    }

    // A different epoch — or no sampling at all — must re-run, never adopt
    // a series with the wrong resolution.
    for mismatched in [Some(4_000), None] {
        let outcomes = Sweep::new(specs.clone())
            .epoch(mismatched)
            .resume_from(&dir)
            .run_outcomes();
        assert!(
            outcomes
                .iter()
                .all(|o| matches!(o, RunOutcome::Completed(_))),
            "epoch {mismatched:?} must not resume points sampled at 2000"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The CSV emitter's `parse` is an exact inverse of `render`: same rows,
/// same cells, including the header.
#[test]
fn csv_report_round_trips() {
    let records = sample_records();
    let mut sink = CsvSink::new();
    for r in &records {
        sink.emit(r).unwrap();
    }
    let text = sink.render();
    let rows = CsvSink::parse(&text);
    assert_eq!(rows.len(), 1 + records.len(), "header + one row per record");
    let header = &rows[0];
    assert!(header.iter().any(|c| c == "label"));
    assert!(header.iter().any(|c| c == "core.cycles"));
    assert!(header.iter().any(|c| c == "derived.ipc"));
    for (row, rec) in rows[1..].iter().zip(&records) {
        assert_eq!(row.len(), header.len());
        let col = |name: &str| {
            let i = header.iter().position(|c| c == name).expect("column");
            row[i].as_str()
        };
        assert_eq!(col("label"), rec.label);
        assert_eq!(col("core.cycles"), rec.report.cycles().to_string());
    }
}

/// Regression test for the R1 (`nondet-map`) migrations: the *rendered
/// report document* — not just the in-memory stats — must be
/// byte-identical between a serial run and an 8-worker run. This is the
/// property the BTreeMap/BTreeSet switches in `machine`, `multicore`,
/// `os-sim` and the harness protect; only the wall-clock `run` block may
/// differ between the two documents.
#[test]
fn rendered_reports_byte_identical_across_worker_counts() {
    let render = |workers: usize| {
        let mut sink = JsonSink::new();
        for r in Sweep::new(kernel_grid()).workers(workers).run() {
            sink.emit(&r).unwrap();
        }
        strip_run(&JsonValue::parse(&sink.render()).expect("valid JSON")).render()
    };
    let serial = render(1);
    let parallel = render(8);
    assert_eq!(
        serial.as_bytes(),
        parallel.as_bytes(),
        "XMEM_WORKERS=1 vs 8 reports diverge"
    );
}

/// Renders `record` without its `run` block: the simulation's output.
fn rendered(record: &RunRecord) -> String {
    strip_run(&record.to_json()).render()
}

/// `spec`'s record from its own [`run`](xmem_sim::run).
fn standalone(spec: &RunSpec) -> RunRecord {
    standalone_with(spec, None)
}

/// [`standalone`] under the sampling schedule `sampling`.
fn standalone_with(spec: &RunSpec, sampling: Option<SamplingSpec>) -> RunRecord {
    let out = xmem_sim::run(&spec.config, &spec.workload, None, sampling);
    RunRecord {
        label: spec.label.clone(),
        config: spec.config,
        workload: spec.workload.name(),
        workload_params: spec.workload.params_json(),
        report: out.report,
        telemetry: out.telemetry,
        sampling: out.sampling,
        run: None,
    }
}

/// The points of one group: a small gemm on every system and two L3s.
fn gemm_group() -> Vec<RunSpec> {
    let p = KernelParams {
        n: 24,
        tile_bytes: 4 << 10,
        steps: 2,
        reuse: 200,
    };
    let mut specs = Vec::new();
    for kind in [SystemKind::Baseline, SystemKind::XmemPref, SystemKind::Xmem] {
        for l3 in [16 << 10, 32 << 10] {
            let mut spec = KernelRun::new(PolybenchKernel::Gemm, p)
                .system(kind)
                .l3_bytes(l3)
                .spec();
            spec.label = format!("{}/{l3}", spec.label);
            specs.push(spec);
        }
    }
    specs
}

/// One member whose L3 geometry `Cache::new` rejects fails alone, with
/// the message its own run gives; the group's other members still match
/// their own runs.
#[test]
fn a_panicking_member_fails_alone() {
    let mut specs = gemm_group();
    // 48 KiB over 16 ways of 64 B lines is 48 sets: not a power of two.
    specs[3].config.hierarchy.l3.size_bytes = 48 << 10;
    let sweep = Sweep::new(specs.clone()).workers(1);
    assert_eq!(sweep.groups(), vec![(0..specs.len()).collect::<Vec<_>>()]);
    let alone = std::panic::catch_unwind(|| standalone(&specs[3]))
        .expect_err("the bad geometry panics on its own too");
    let alone = alone
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| alone.downcast_ref::<&str>().map(|s| s.to_string()))
        .expect("a string panic");
    for (i, (spec, outcome)) in specs.iter().zip(sweep.run_outcomes()).enumerate() {
        match outcome {
            RunOutcome::Failed(f) => {
                assert_eq!(i, 3, "only the bad member fails");
                assert_eq!(f.message, alone);
            }
            RunOutcome::Completed(r) => assert_eq!(rendered(&r), rendered(&standalone(spec))),
            RunOutcome::Resumed(_) => panic!("nothing was resumed"),
        }
    }
}

/// Resumed points leave their group: the sweep runs only the rest.
#[test]
fn resumed_points_leave_their_group() {
    let dir = std::env::temp_dir().join(format!("xmem-group-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let specs = gemm_group();
    let fresh = Sweep::new(specs.clone()).workers(1).report_dir(&dir).run();
    for victim in [1, 4] {
        std::fs::remove_file(dir.join(point_file_name(&specs[victim].label)))
            .expect("delete a point file");
    }
    let sweep = Sweep::new(specs.clone()).workers(1).resume_from(&dir);
    assert_eq!(sweep.groups(), vec![vec![1, 4]]);
    let outcomes = sweep.run_outcomes();
    for (i, (outcome, fresh)) in outcomes.iter().zip(&fresh).enumerate() {
        let resumed = matches!(outcome, RunOutcome::Resumed(_));
        assert_eq!(resumed, i != 1 && i != 4, "point {i}");
        let r = outcome.record().expect("no failures");
        assert_eq!(rendered(r), rendered(fresh));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A Baseline member of a group whose front runs XMem for its XMem
/// members reports no ALB lookups and no XMem instructions — exactly its
/// own run.
#[test]
fn a_baseline_member_reports_no_xmem_activity() {
    let specs = gemm_group();
    let records = Sweep::new(specs.clone()).workers(1).run();
    for (spec, r) in specs.iter().zip(&records) {
        assert_eq!(rendered(r), rendered(&standalone(spec)), "{}", spec.label);
        if spec.config.hierarchy.xmem == cache_sim::XmemMode::Off {
            assert_eq!(r.report.alb.lookups(), 0, "{}", spec.label);
            assert_eq!(r.report.xmem_instructions, 0, "{}", spec.label);
            assert_eq!(r.report.instruction_overhead, 0.0, "{}", spec.label);
        } else {
            assert!(r.report.alb.lookups() > 0, "{}", spec.label);
            assert!(r.report.xmem_instructions > 0, "{}", spec.label);
        }
    }
}

/// With a TLB the front pays page walks before the L1, and under a
/// sampling schedule it also warms through the TLB: a group's members
/// still match their own runs, detailed and warming stretches alike.
#[test]
fn groups_with_a_tlb_match_standalone_runs() {
    let specs: Vec<RunSpec> = gemm_group()
        .into_iter()
        .map(|mut spec| {
            spec.config = spec.config.with_tlb();
            spec
        })
        .collect();
    let sampling = Some(SamplingSpec {
        warmup_ops: 300,
        window_ops: 1_200,
        interval: 4_000,
    });
    for sampling in [None, sampling] {
        let sweep = Sweep::new(specs.clone()).workers(1).sampling(sampling);
        assert_eq!(sweep.groups().len(), 1);
        for (spec, r) in specs.iter().zip(sweep.run()) {
            assert_eq!(
                rendered(&r),
                rendered(&standalone_with(spec, sampling)),
                "{} sampled: {}",
                spec.label,
                sampling.is_some()
            );
        }
    }
}
