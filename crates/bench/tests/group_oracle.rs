//! The lockstep-group oracle: every record a grouped `Sweep` produces,
//! minus its `run` block, is byte-identical to the point's standalone
//! `run`, at 1 and 8 workers. Each standalone record is also digested and
//! checked against `golden/published.json` (see the `golden` module), so
//! the grids' published numbers are pinned, not only their grouping.
//!
//! Release builds check the full Figs 4–7 `--quick` grids, plus Fig 5's
//! grid with a telemetry epoch (`--epoch=997`) and under interval sampling
//! (`--sample`); CI runs them with
//! `cargo test --release -p xmem-bench --test group_oracle`. Debug builds
//! check a reduced grid: the first two kernels or workloads of each.

mod golden;

use xmem_bench::grids;
use xmem_sim::{run, JsonValue, RunRecord, RunSpec, SamplingSpec, Sweep};

/// The `--quick` problem size of the use-case-1 figures.
const QUICK_N: usize = 48;

/// `record` rendered without its `run` block.
fn rendered(record: &RunRecord) -> String {
    let JsonValue::Object(mut fields) = record.to_json() else {
        unreachable!("records render as objects")
    };
    fields.retain(|(k, _)| k != "run");
    JsonValue::Object(fields).render()
}

/// In debug builds, the first `keep` runs of `per` consecutive specs (a
/// kernel's points); in release builds, every spec.
fn reduce(specs: Vec<RunSpec>, per: usize, keep: usize) -> Vec<RunSpec> {
    if cfg!(debug_assertions) {
        specs.into_iter().take(per * keep).collect()
    } else {
        specs
    }
}

/// Checks every point of `specs`' standalone run against the golden file
/// under `name`, then each grouped record against the standalone one;
/// returns the sweep's group sizes.
fn check(
    name: &str,
    specs: &[RunSpec],
    epoch: Option<u64>,
    sampling: Option<SamplingSpec>,
) -> Vec<usize> {
    let alone: Vec<String> = specs
        .iter()
        .map(|spec| {
            let out = run(&spec.config, &spec.workload, epoch, sampling);
            rendered(&RunRecord {
                label: spec.label.clone(),
                config: spec.config,
                workload: spec.workload.name(),
                workload_params: spec.workload.params_json(),
                report: out.report,
                telemetry: out.telemetry,
                sampling: out.sampling,
                run: None,
            })
        })
        .collect();
    let digests = specs
        .iter()
        .zip(&alone)
        .map(|(spec, text)| (spec.label.clone(), golden::digest(text)))
        .collect();
    golden::verify(name, digests, !cfg!(debug_assertions));
    for workers in [1, 8] {
        let outcomes = Sweep::new(specs.to_vec())
            .workers(workers)
            .epoch(epoch)
            .sampling(sampling)
            .run_outcomes();
        for ((spec, outcome), want) in specs.iter().zip(outcomes).zip(&alone) {
            let record = outcome
                .record()
                .unwrap_or_else(|| panic!("{} failed", spec.label));
            assert_eq!(
                &rendered(record),
                want,
                "{} differs from its own run at {workers} workers",
                spec.label
            );
        }
    }
    let sweep = Sweep::new(specs.to_vec());
    sweep.groups().iter().map(Vec::len).collect()
}

#[test]
fn fig4_groups_match_standalone_runs() {
    // Per kernel: 2 systems x 9 tiles; each tile is its own workload.
    let specs = reduce(grids::fig4(QUICK_N), 18, 2);
    let sizes = check("fig4", &specs, None, None);
    assert!(sizes.iter().all(|&n| n == 2), "{sizes:?}");
}

#[test]
fn fig5_groups_match_standalone_runs() {
    let specs = reduce(grids::fig5(QUICK_N), 6, 2);
    let sizes = check("fig5", &specs, None, None);
    assert_eq!(sizes, vec![6; specs.len() / 6]);
}

#[test]
fn fig5_groups_match_standalone_runs_with_telemetry() {
    let specs = reduce(grids::fig5(QUICK_N), 6, 2);
    check("fig5 --epoch=997", &specs, Some(997), None);
}

#[test]
fn fig5_groups_match_standalone_runs_sampled() {
    let specs = reduce(grids::fig5(QUICK_N), 6, 2);
    check("fig5 --sample", &specs, None, Some(SamplingSpec::DEFAULT));
}

#[test]
fn fig6_groups_match_standalone_runs() {
    // Per kernel: 4 bandwidths x 3 systems share the private levels.
    let specs = reduce(grids::fig6(QUICK_N), 12, 2);
    let sizes = check("fig6", &specs, None, None);
    assert_eq!(sizes, vec![12; specs.len() / 12]);
}

#[test]
fn fig7_groups_match_standalone_runs() {
    // Per mix: the 18-point Baseline grid and the Ideal pair form one
    // group; the XMem pair, placed by the XMem policy, another.
    let mut workloads = grids::fig7_workloads(true);
    if cfg!(debug_assertions) {
        workloads.truncate(2);
    }
    let (specs, _) = grids::fig7(&workloads);
    let sizes = check("fig7", &specs, None, None);
    assert_eq!(sizes, [20, 2].repeat(workloads.len()));
}
