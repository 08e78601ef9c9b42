//! The four workloads: how each one's inputs are built from the seed, and
//! one timed end-to-end pass through the entry points the figure binaries
//! use (`Sweep`/`RunSpec` and `run_corun`) — nothing else.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use workloads::hog::stream_hog;
use workloads::placement::PlacementWorkload;
use workloads::polybench::PolybenchKernel;
use workloads::shared::{lock_counter, producer_consumer, read_mostly_reader, PcRole};
use workloads::sink::{LogSink, TraceEvent, TraceSink};
use xmem_bench::{fig4_tiles, fmt_bytes, uc1_params, FIG5_L3, UC1_N};
use xmem_core::atom::AtomId;
use xmem_core::attrs::{AtomAttributes, Reuse};
use xmem_core::rng::SplitMix64;
use xmem_sim::{
    placement_specs, run_corun, CoherenceMode, CorunReport, FramePolicyKind, KernelRun,
    MultiCoreConfig, RunOutcome, RunSpec, SamplingSpec, ScanSink, Sweep, SystemKind, Uc2System,
};

use crate::check;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// The name `--workload` takes.
    pub name: &'static str,
    /// Why the workload is in the benchmark (mirrored in `BENCHMARK.json`).
    pub why: &'static str,
    /// Which input family it builds.
    pub kind: Kind,
}

/// The input families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Fig 5's grid, fully detailed.
    Tuned,
    /// Fig 7's placement mixes, one point per system.
    Placement,
    /// Fig 5's grid under `SamplingSpec::DEFAULT`.
    Sampled,
    /// `corun_shared`'s four scenarios on the MESI machine.
    Corun,
}

/// Every workload, in the order a full run executes them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "uc1-tuned",
        why: "Fig 5 grid: 12 kernels x {Baseline, XMem} x L3 {64,32,16} KB; generation, core and L1/L2 carry much of the work",
        kind: Kind::Tuned,
    },
    Workload {
        name: "uc2-placement",
        why: "Fig 7's 27 placement mixes x 3 systems over multi-MB footprints; DRAM, translation and OS placement carry the work",
        kind: Kind::Placement,
    },
    Workload {
        name: "uc1-sampled",
        why: "the uc1-tuned points under SamplingSpec::DEFAULT, so about 68% of ops take the functional-warming path instead",
        kind: Kind::Sampled,
    },
    Workload {
        name: "corun-mesi",
        why: "corun_shared's four scenarios at 4x size on the MESI bus; bypasses Machine and Hierarchy for the multicore SharedMem",
        kind: Kind::Corun,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }
}

/// One co-run scenario: per-core logs plus the machines that replay them.
#[derive(Debug)]
pub struct Scenario {
    /// Point label (`<scenario>/mesi`).
    pub label: String,
    /// The measured machine: MESI, coherence-aware pinning, XMem, 32 KB L3.
    pub mesi: MultiCoreConfig,
    /// The same machine without coherence (the traced run's last
    /// substituted stage).
    pub none: MultiCoreConfig,
    /// One recorded event log per core.
    pub logs: Vec<Vec<TraceEvent>>,
}

/// What the program receives: the generated inputs, in run order.
#[derive(Debug)]
pub enum Inputs {
    /// Points run through `Sweep` on the single-core `Machine`.
    Machine {
        /// One spec per point.
        specs: Vec<RunSpec>,
        /// The interval-sampling schedule (`None` = fully detailed).
        sampling: Option<SamplingSpec>,
    },
    /// Points run through `run_corun`.
    Corun(Vec<Scenario>),
}

/// A workload's inputs plus the per-point op counts set-up measured.
#[derive(Debug)]
pub struct Prepared {
    /// The workload.
    pub workload: Workload,
    /// The seed the inputs were built from.
    pub seed: u64,
    /// The inputs.
    pub inputs: Inputs,
    /// Generator ops per point, in run order (loads, stores, dependent
    /// loads and compute bursts each count one).
    pub ops: Vec<u64>,
}

impl Prepared {
    /// Point labels, in run order.
    pub fn labels(&self) -> Vec<String> {
        match &self.inputs {
            Inputs::Machine { specs, .. } => specs.iter().map(|s| s.label.clone()).collect(),
            Inputs::Corun(scenarios) => scenarios.iter().map(|s| s.label.clone()).collect(),
        }
    }

    /// Total generator ops over every point.
    pub fn total_ops(&self) -> u64 {
        self.ops.iter().sum()
    }
}

/// Builds the workload's inputs from `seed` and counts each point's ops.
/// This is the set-up the `setup_s` metric times: spec construction plus a
/// `ScanSink` pass and `load_segment` over every point, or, for the co-run,
/// recording every core's event log.
pub fn prepare(workload: Workload, seed: u64) -> Prepared {
    let (inputs, ops) = match workload.kind {
        Kind::Tuned | Kind::Sampled => {
            let specs = shuffled(uc1_specs(), seed);
            let ops = specs.iter().map(scan_and_load).collect();
            let sampling = (workload.kind == Kind::Sampled).then_some(SamplingSpec::DEFAULT);
            (Inputs::Machine { specs, sampling }, ops)
        }
        Kind::Placement => {
            let specs = shuffled(uc2_specs(seed), seed);
            let ops = specs.iter().map(scan_and_load).collect();
            (
                Inputs::Machine {
                    specs,
                    sampling: None,
                },
                ops,
            )
        }
        Kind::Corun => {
            let scenarios = shuffled(corun_scenarios(seed), seed);
            let ops = scenarios
                .iter()
                .map(|s| {
                    s.logs
                        .iter()
                        .flatten()
                        .filter(|e| matches!(e, TraceEvent::Op(_)))
                        .count() as u64
                })
                .collect();
            (Inputs::Corun(scenarios), ops)
        }
    };
    Prepared {
        workload,
        seed,
        inputs,
        ops,
    }
}

/// Fig 5's grid exactly as `fig5` builds it: tile tuned to the 64 KB L3,
/// run on that L3, half and a quarter of it.
pub fn uc1_specs() -> Vec<RunSpec> {
    let tile = fig4_tiles()
        .into_iter()
        .filter(|&t| t <= FIG5_L3)
        .max()
        .expect("the tile sweep has a tile that fits the L3");
    let mut specs = Vec::new();
    for kernel in PolybenchKernel::all() {
        for kind in [SystemKind::Baseline, SystemKind::Xmem] {
            for l3 in [FIG5_L3, FIG5_L3 / 2, FIG5_L3 / 4] {
                let mut spec = KernelRun::new(kernel, uc1_params(UC1_N, tile))
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

/// Fig 7's 27 mixes at half their access count, taking the first point of
/// each system's §6.3 grid. The seed sets the Baseline's frame
/// randomization; seed 1 is `fig7`'s 0xA70.
pub fn uc2_specs(seed: u64) -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for mut w in PlacementWorkload::all() {
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
}

/// `corun_shared`'s four scenarios at four times its full size. The seed
/// sets the table readers' stream seeds; seed 1 gives `corun_shared`'s.
pub fn corun_scenarios(seed: u64) -> Vec<Scenario> {
    corun_scenarios_sized(seed, 4)
}

/// The co-run scenarios at `scale` times `corun_shared`'s full size.
pub fn corun_scenarios_sized(seed: u64, scale: u64) -> Vec<Scenario> {
    let (passes, lookups, rounds, hog_accesses) = (
        600 * scale as u32,
        20_000 * scale,
        8_000 * scale,
        40_000 * scale,
    );
    let buffer = 16 << 10;
    let table = 24 << 10;
    let stream = |core: u64| core + ((seed - 1) << 8);
    let producer =
        record(|s| producer_consumer(s, PcRole::Producer, buffer, passes, 2, Reuse(230)));
    let consumer =
        record(|s| producer_consumer(s, PcRole::Consumer, buffer, passes, 2, Reuse(230)));
    let reader =
        |core| record(|s| read_mostly_reader(s, stream(core), table, lookups, 2, Reuse(200)));
    let lock = record(|s| lock_counter(s, rounds, 6));
    let hog = record(|s| stream_hog(s, 64 << 10, hog_accesses, 8));
    let scenario = |name: &str, logs: Vec<Vec<TraceEvent>>| {
        let none = MultiCoreConfig::scaled_corun(logs.len(), 32 << 10, SystemKind::Xmem);
        Scenario {
            label: format!("{name}/mesi"),
            mesi: none.with_coherence(CoherenceMode::Mesi),
            none,
            logs,
        }
    };
    vec![
        scenario("pc", vec![producer.clone(), consumer.clone()]),
        scenario("readers", vec![reader(0), reader(1), hog.clone()]),
        scenario("lock", vec![lock.clone(), lock]),
        scenario("mixed", vec![producer, consumer, reader(2), hog]),
    ]
}

fn record(f: impl FnOnce(&mut LogSink)) -> Vec<TraceEvent> {
    let mut log = LogSink::new();
    f(&mut log);
    log.into_events()
}

/// The seed's point order: a Fisher-Yates shuffle driven by SplitMix64.
fn shuffled<T>(mut items: Vec<T>, seed: u64) -> Vec<T> {
    let mut rng = SplitMix64::new(seed);
    for i in (1..items.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
    items
}

/// The run prologue's scan and load for one point, returning its op count.
fn scan_and_load(spec: &RunSpec) -> u64 {
    let mut scan = Counted {
        inner: ScanSink::new(),
        ops: 0,
    };
    spec.workload.generate(&mut scan);
    std::hint::black_box(crate::ladder::load(&spec.config, &scan.inner));
    scan.ops
}

/// Forwards to `inner`, counting ops.
struct Counted<S> {
    inner: S,
    ops: u64,
}

impl<S: TraceSink> TraceSink for Counted<S> {
    fn op(&mut self, op: cpu_sim::trace::Op) {
        self.ops += 1;
        self.inner.op(op);
    }
    fn alloc(&mut self, bytes: u64, atom: Option<AtomId>) -> u64 {
        self.inner.alloc(bytes, atom)
    }
    fn create_atom(&mut self, label: &str, attrs: AtomAttributes) -> AtomId {
        self.inner.create_atom(label, attrs)
    }
    fn map(&mut self, atom: AtomId, start: u64, len: u64) {
        self.inner.map(atom, start, len);
    }
    fn unmap(&mut self, start: u64, len: u64) {
        self.inner.unmap(start, len);
    }
    fn map_2d(&mut self, atom: AtomId, base: u64, sx: u64, sy: u64, lx: u64) {
        self.inner.map_2d(atom, base, sx, sy, lx);
    }
    fn unmap_2d(&mut self, base: u64, sx: u64, sy: u64, lx: u64) {
        self.inner.unmap_2d(base, sx, sy, lx);
    }
    fn activate(&mut self, atom: AtomId) {
        self.inner.activate(atom);
    }
    fn deactivate(&mut self, atom: AtomId) {
        self.inner.deactivate(atom);
    }
}

/// What one point of an end-to-end pass produced.
#[derive(Debug, Clone)]
pub struct PointRun {
    /// The point's label.
    pub label: String,
    /// The output digest, or the panic message when the point panicked.
    pub digest: Result<u64, String>,
    /// The sampled IPC estimate (sampled workloads only).
    pub ipc_est: Option<f64>,
    /// The full report, for the traced run's counters.
    pub report: Option<PointReport>,
}

/// A point's full report.
#[derive(Debug, Clone)]
pub enum PointReport {
    /// A single-core run, with its sampling summary when sampled.
    Machine(xmem_sim::RunReport, Option<xmem_sim::SamplingSummary>),
    /// A co-run.
    Corun(CorunReport),
}

/// One timed end-to-end pass: every point, in run order, one worker.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Host nanoseconds the whole pass took.
    pub wall_ns: u64,
    /// One result per point, in run order.
    pub points: Vec<PointRun>,
}

/// Runs every point once, timing the pass.
pub fn pass(p: &Prepared) -> Pass {
    match &p.inputs {
        Inputs::Machine { specs, sampling } => machine_pass(specs.clone(), *sampling),
        Inputs::Corun(scenarios) => {
            let start = Instant::now();
            let points = scenarios.iter().map(corun_point).collect();
            Pass {
                wall_ns: start.elapsed().as_nanos() as u64,
                points,
            }
        }
    }
}

/// Runs `specs` as one serial sweep, timing it.
pub fn machine_pass(specs: Vec<RunSpec>, sampling: Option<SamplingSpec>) -> Pass {
    let sweep = Sweep::new(specs).workers(1).sampling(sampling);
    let start = Instant::now();
    let outcomes = sweep.run_outcomes();
    let wall_ns = start.elapsed().as_nanos() as u64;
    let points = outcomes
        .into_iter()
        .map(|outcome| match outcome {
            RunOutcome::Completed(r) | RunOutcome::Resumed(r) => PointRun {
                label: r.label.clone(),
                digest: Ok(check::record_digest(&r)),
                ipc_est: r
                    .sampling
                    .as_ref()
                    .and_then(|s| s.metric("ipc"))
                    .map(|m| m.mean),
                report: Some(PointReport::Machine(r.report, r.sampling.clone())),
            },
            RunOutcome::Failed(f) => PointRun {
                label: f.label,
                digest: Err(f.message),
                ipc_est: None,
                report: None,
            },
        })
        .collect();
    Pass { wall_ns, points }
}

/// Runs one co-run scenario, catching a panic as the sweep does.
pub fn corun_point(sc: &Scenario) -> PointRun {
    match catch_unwind(AssertUnwindSafe(|| run_corun(&sc.mesi, &sc.logs))) {
        Ok(r) => PointRun {
            label: sc.label.clone(),
            digest: Ok(check::corun_digest(&sc.label, &r)),
            ipc_est: None,
            report: Some(PointReport::Corun(r)),
        },
        Err(payload) => PointRun {
            label: sc.label.clone(),
            digest: Err(payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string())),
            ipc_est: None,
            report: None,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_have_the_documented_sizes() {
        assert_eq!(uc1_specs().len(), 72);
        assert_eq!(uc2_specs(1).len(), 81);
        let labels: std::collections::BTreeSet<_> =
            uc1_specs().into_iter().map(|s| s.label).collect();
        assert_eq!(labels.len(), 72, "labels are unique");
    }

    #[test]
    fn seed_one_keeps_the_figure_settings() {
        let base = &uc2_specs(1)[0];
        assert_eq!(
            base.config.frame_policy,
            FramePolicyKind::Randomized { seed: 0xA70 }
        );
        assert_ne!(
            uc2_specs(2)[0].config.frame_policy,
            base.config.frame_policy
        );
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let a = shuffled((0..50).collect::<Vec<_>>(), 3);
        assert_eq!(a, shuffled((0..50).collect::<Vec<_>>(), 3));
        assert_ne!(a, shuffled((0..50).collect::<Vec<_>>(), 4));
        let mut sorted = a.clone();
        sorted.sort();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
