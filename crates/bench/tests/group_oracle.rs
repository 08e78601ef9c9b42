//! The lockstep-group oracle: every record a grouped `Sweep` produces,
//! minus its `run` block, is byte-identical to the point's standalone
//! `run`, at 1 and 8 workers. Each standalone record is also digested and
//! checked against `golden/published.json` (see the `golden` module), so
//! the grids' published numbers are pinned, not only their grouping.
//! Every unsampled standalone report must also balance the conservation
//! ledger (see [`ledger`]), every telemetry series must add up to its
//! report (see [`epoch_ledger`]), every sampled run's clusters must hold
//! all of its windows, and every report of one workload must retire the
//! same instructions, whatever the system under it.
//!
//! Release builds check the full Figs 4–7 `--quick` grids, plus Fig 5's
//! grid with a telemetry epoch (`--epoch=997`) and under interval sampling
//! (`--sample`); CI runs them with
//! `cargo test --release -p xmem-bench --test group_oracle`. Debug builds
//! check a reduced grid: the first two kernels or workloads of each.

mod golden;

use std::collections::BTreeMap;
use xmem_bench::grids;
use xmem_sim::{
    placement_specs, run, FramePolicyKind, JsonValue, RunRecord, RunReport, RunSpec, SamplingSpec,
    Sweep, TelemetrySample, TelemetrySeries, Uc2System,
};

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

/// The cross-layer conservation laws of one fully detailed report: each
/// level's demand misses are the next level's demand accesses, the L3's
/// demand misses are DRAM's demand reads, every L3 fill (demand or
/// prefetch) is one DRAM read, and every DRAM read is a row hit, miss or
/// conflict. The ideal-RBL device (`ideal_rbl`) sends writes down its read
/// path and counts each one as a row hit, so there the row outcomes sum to
/// reads plus writes (DESIGN.md "Modeling decisions").
fn ledger(label: &str, r: &RunReport, ideal_rbl: bool) {
    let d = &r.dram;
    let row_path = if ideal_rbl {
        d.reads + d.writes
    } else {
        d.reads
    };
    let laws = [
        ("l1 misses = l2 accesses", r.l1.misses(), r.l2.accesses),
        ("l2 misses = l3 accesses", r.l2.misses(), r.l3.accesses),
        ("l3 misses = demand reads", r.l3.misses(), d.demand_reads),
        ("l3 fills = dram reads", r.l3.fills, d.reads),
        (
            "row outcomes",
            d.row_hits + d.row_misses + d.row_conflicts,
            row_path,
        ),
    ];
    for (law, lhs, rhs) in laws {
        assert_eq!(lhs, rhs, "{label}: {law}");
    }
}

/// The telemetry series of one run against its report: the last sample
/// reads the report's cumulative instructions and cycles (so the final
/// partial epoch was flushed), and the per-epoch prefetch counts sum to
/// the report's stride plus XMem-guided totals.
fn epoch_ledger(label: &str, r: &RunReport, series: &TelemetrySeries) {
    let last = series
        .samples
        .last()
        .unwrap_or_else(|| panic!("{label}: no telemetry samples"));
    let stride = r.stride_prefetch.unwrap_or_default();
    let pf = &r.xmem_prefetch;
    let sum = |f: fn(&TelemetrySample) -> u64| series.samples.iter().map(f).sum();
    let laws = [
        (
            "last sample instructions",
            last.instructions,
            r.core.instructions,
        ),
        ("last sample cycles", last.cycles, r.core.cycles),
        (
            "epoch prefetches issued",
            sum(|s| s.prefetch_issued),
            stride.issued + pf.issued,
        ),
        (
            "epoch prefetches useful",
            sum(|s| s.prefetch_useful),
            stride.useful + pf.useful,
        ),
    ];
    for (law, lhs, rhs) in laws {
        assert_eq!(lhs, rhs, "{label}: {law}");
    }
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
/// under `name`, the [`ledger`] (unless sampled), the [`epoch_ledger`]
/// (with an epoch), the sampled windows' clustering (when sampled) and
/// the instruction count of the point's workload, then each grouped
/// record against the standalone one; returns the sweep's group sizes.
fn check(
    name: &str,
    specs: &[RunSpec],
    epoch: Option<u64>,
    sampling: Option<SamplingSpec>,
) -> Vec<usize> {
    // Workload (keyed by its `Debug` form, as `Sweep::groups` keys it) →
    // the first point's label and instruction count.
    let mut work: BTreeMap<String, (String, u64)> = BTreeMap::new();
    let alone: Vec<String> = specs
        .iter()
        .map(|spec| {
            let label = &spec.label;
            let out = run(&spec.config, &spec.workload, epoch, sampling);
            if sampling.is_none() {
                ledger(label, &out.report, spec.config.ideal_rbl);
            }
            if epoch.is_some() {
                let series = out.telemetry.as_ref();
                let series = series.unwrap_or_else(|| panic!("{label}: no telemetry"));
                epoch_ledger(label, &out.report, series);
            }
            if let Some(s) = &out.sampling {
                let clustered: u64 = s.clusters.iter().map(|c| c.windows).sum();
                assert_eq!(clustered, s.windows, "{label}: clustered windows");
            }
            let retired = out.report.core.instructions;
            let (first, want) = work
                .entry(format!("{:?}", spec.workload))
                .or_insert_with(|| (label.clone(), retired));
            assert_eq!(
                retired, *want,
                "{label}: retires other instructions than {first} of the same workload"
            );
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

/// How the full grids group, without running them: the group key decides
/// which points share one front and one core model, so it sets how much
/// of a sweep runs once. The uc2 grid is the benchmark's: each mix's first
/// point of every system's §6.3 grid, with the Baseline's frame seed at
/// `0xA70 + seed - 1`. At seed 1 the Baseline and Ideal-RBL points share
/// their frames and pair up; at seed 2 every point runs alone.
#[test]
fn full_grids_group_as_before() {
    let sizes = |specs: Vec<RunSpec>| -> Vec<usize> {
        Sweep::new(specs).groups().iter().map(Vec::len).collect()
    };
    assert_eq!(sizes(grids::fig4(QUICK_N)), vec![2; 108]);
    assert_eq!(sizes(grids::fig5(QUICK_N)), vec![6; 12]);
    assert_eq!(sizes(grids::fig6(QUICK_N)), vec![12; 12]);
    let (fig7, _) = grids::fig7(&grids::fig7_workloads(true));
    assert_eq!(sizes(fig7), [20, 2].repeat(27));
    let uc2 = |seed: u64| -> Vec<RunSpec> {
        let mut specs = Vec::new();
        for mut w in workloads::placement::PlacementWorkload::all() {
            w.accesses /= 2;
            for sys in [Uc2System::Baseline, Uc2System::Xmem, Uc2System::IdealRbl] {
                let mut spec = placement_specs(&w, sys)
                    .into_iter()
                    .next()
                    .expect("placement grids are non-empty");
                if sys == Uc2System::Baseline {
                    spec.config.frame_policy = FramePolicyKind::Randomized {
                        seed: 0xA70 + seed - 1,
                    };
                }
                specs.push(spec);
            }
        }
        specs
    };
    assert_eq!(sizes(uc2(1)), [2, 1].repeat(27));
    assert_eq!(sizes(uc2(2)), vec![1; 81]);
}
