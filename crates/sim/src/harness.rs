//! The experiment-sweep engine: enumerable run specifications executed on
//! a fixed-size worker pool with deterministic, order-stable results.
//!
//! Every figure in the paper is a *sweep*: the cross product of workloads,
//! system configurations, and parameter values, each point an independent
//! full-system simulation. This module gives that structure a first-class
//! API —
//!
//! * [`RunSpec`] names one point: a label, a [`SystemConfig`], and a
//!   [`WorkloadSpec`] saying what trace to run on it;
//! * [`Sweep`] executes a list of specs on `std::thread::scope` workers and
//!   returns one [`RunOutcome`] per spec, **in spec order** regardless of
//!   which worker finished first;
//! * [`run_jobs`] is the underlying generic pool for jobs that do not fit
//!   the `RunSpec` mold (e.g. multi-core co-runs).
//!
//! Simulations are pure functions of their config, so a parallel sweep is
//! bit-identical to a serial one — `tests/harness.rs` proves it.
//!
//! Sweeps degrade gracefully instead of aborting: every point runs inside
//! `catch_unwind`, so one panicking spec never discards the rest of the
//! grid ([`Sweep::run_outcomes`] surfaces it as a [`RunFailure`]). With
//! [`Sweep::report_dir`] each finished record is additionally streamed to
//! disk as it completes, and [`Sweep::resume_from`] reloads those finished
//! labels so a killed sweep re-runs only its missing points.
//!
//! ```
//! use workloads::polybench::{KernelParams, PolybenchKernel};
//! use xmem_sim::harness::{RunSpec, Sweep, WorkloadSpec};
//! use xmem_sim::{SystemConfig, SystemKind};
//!
//! let p = KernelParams { n: 16, tile_bytes: 1024, steps: 1, reuse: 200 };
//! let sweep = Sweep::new(
//!     [SystemKind::Baseline, SystemKind::Xmem]
//!         .map(|kind| RunSpec {
//!             label: format!("mvt/{kind}"),
//!             config: SystemConfig::scaled_use_case1(8 << 10, kind),
//!             workload: WorkloadSpec::kernel(PolybenchKernel::Mvt, p),
//!         })
//!         .to_vec(),
//! );
//! let records = sweep.run();
//! assert_eq!(records.len(), 2);
//! assert!(records[0].label.starts_with("mvt"));
//! ```

use std::any::Any;
use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::config::SystemConfig;
use crate::machine::{run, run_group, Generator, GroupKey, RunOutput};
use crate::report::RunReport;
use crate::report_sink::{config_kv, scan_point_records, write_point_record, JsonValue};
use crate::sampling::{SamplingSpec, SamplingSummary};
use crate::telemetry::TelemetrySeries;
use workloads::placement::PlacementWorkload;
use workloads::polybench::{KernelParams, PolybenchKernel};
use workloads::sink::TraceSink;
use xmem_core::addr::cycles_to_u64;

/// The shared-counter scoped-thread pool underneath [`run_jobs`] and
/// [`Sweep`]: `run` additionally receives the worker index that executed
/// the job (for the report's `run` block).
fn pool<T, F>(jobs: usize, workers: usize, run: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, usize) -> T + Sync,
{
    let workers = workers.max(1).min(jobs.max(1));
    // One slot per job: each is written exactly once, by whichever worker
    // drew that index.
    let slots: Vec<Mutex<Option<T>>> = (0..jobs).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let work = |worker: usize| loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= jobs {
            break;
        }
        let result = run(i, worker);
        // simlint: allow(unwrap, reason = "slot mutexes are never poisoned: worker panics are caught by catch_unwind inside run()")
        *slots[i].lock().expect("result slot") = Some(result);
    };
    // The calling thread is worker 0, so a one-worker pool spawns no
    // thread. A fresh thread per serial pool would race the previous one's
    // exit for its malloc arena and, when it lost, fill a new arena, so
    // the peak RSS of a run of serial sweeps would depend on scheduling.
    std::thread::scope(|scope| {
        let work = &work;
        for worker in 1..workers {
            scope.spawn(move || work(worker));
        }
        work(0);
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                // simlint: allow(unwrap, reason = "slot mutexes are never poisoned: worker panics are caught by catch_unwind inside run()")
                .expect("result slot")
                // simlint: allow(unwrap, reason = "the shared counter hands every index to exactly one worker before the scope joins")
                .expect("every job index was claimed and ran")
        })
        .collect()
}

/// Runs `jobs` independent jobs on at most `workers` scoped threads and
/// returns their results **indexed by job**, not by completion order.
///
/// Jobs are handed out from a shared atomic counter, so workers stay busy
/// even when job runtimes vary wildly (a placement sweep mixes millisecond
/// and second-long simulations). `run` must be a pure function of the job
/// index for the sweep to be deterministic; the pool itself never reorders
/// results.
///
/// # Panics
///
/// Propagates a panic from any job after the scope joins. For fault
/// isolation (one bad point must not discard a whole grid), use
/// [`Sweep::run_outcomes`] instead.
pub fn run_jobs<T, F>(jobs: usize, workers: usize, run: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    pool(jobs, workers, |i, _worker| run(i))
}

/// The default worker count: the `XMEM_WORKERS` environment variable when
/// it parses as an integer (clamped to ≥ 1, so CI and scripts can pin the
/// pool without per-binary flags), otherwise the machine's available
/// parallelism.
pub fn default_workers() -> usize {
    // simlint: allow(nondet-taint, reason = "worker count shapes scheduling only; per-point results are merged in spec order, so the report bytes do not depend on it")
    workers_override(std::env::var("XMEM_WORKERS").ok().as_deref()).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// The `XMEM_WORKERS` parse, separated from the process environment so
/// tests never need `set_var` (concurrent setenv/getenv is UB under the
/// threaded test harness).
fn workers_override(value: Option<&str>) -> Option<usize> {
    let n = value?.trim().parse::<usize>().ok()?;
    Some(n.max(1))
}

/// A thread-safe done/total meter that repaints one `\r` progress line on
/// stderr: `label: done/total, failures, ETA`. Sweeps drive it via
/// [`Sweep::progress`]; binaries with bespoke pools (co-runs) tick it by
/// hand around [`run_jobs`].
#[derive(Debug)]
pub struct Progress {
    label: String,
    total: usize,
    done: AtomicUsize,
    failed: AtomicUsize,
    resumed: AtomicUsize,
    start: Instant,
    enabled: bool,
}

impl Progress {
    /// A meter over `total` points, painting to stderr.
    pub fn new(label: impl Into<String>, total: usize) -> Self {
        Progress {
            label: label.into(),
            total,
            done: AtomicUsize::new(0),
            failed: AtomicUsize::new(0),
            resumed: AtomicUsize::new(0),
            // simlint: allow(nondet-taint, reason = "progress-meter start time feeds the stderr ETA line only, never the report")
            start: Instant::now(),
            enabled: true,
        }
    }

    /// A meter that counts but never paints (sweeps without a label).
    fn silent(total: usize) -> Self {
        Progress {
            enabled: false,
            ..Progress::new(String::new(), total)
        }
    }

    /// Records one executed point and repaints the line.
    pub fn tick(&self, failed: bool) {
        self.done.fetch_add(1, Ordering::Relaxed);
        if failed {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
        self.repaint();
    }

    /// Records one point adopted from a report directory without
    /// executing. Resumed points reload in microseconds, so they are
    /// kept out of the ETA's per-point rate — counting them would make
    /// the remaining real work look nearly free.
    pub fn tick_resumed(&self) {
        self.done.fetch_add(1, Ordering::Relaxed);
        self.resumed.fetch_add(1, Ordering::Relaxed);
        self.repaint();
    }

    fn repaint(&self) {
        if !self.enabled {
            return;
        }
        let done = self.done.load(Ordering::Relaxed);
        let failures = self.failed.load(Ordering::Relaxed);
        let resumed = self.resumed.load(Ordering::Relaxed);
        let executed = done.saturating_sub(resumed);
        // simlint: allow(nondet-taint, reason = "elapsed time feeds the stderr ETA line only, never the report")
        let elapsed = self.start.elapsed().as_secs_f64();
        let eta = match eta_secs(elapsed, executed, self.total.saturating_sub(done)) {
            Some(secs) => fmt_eta(secs),
            None => "--".to_string(),
        };
        let resumed_note = if resumed > 0 {
            format!(" ({resumed} resumed)")
        } else {
            String::new()
        };
        eprint!(
            "\r{}: {done}/{} done{resumed_note}, {failures} failed, ETA {eta}   ",
            self.label, self.total,
        );
    }

    /// Terminates the progress line (call once, after the pool joins).
    pub fn finish(&self) {
        if self.enabled && self.total > 0 {
            eprintln!();
        }
    }
}

/// ETA from executed points only: `None` ("--") until at least one point
/// has actually run for a measurable time — a sweep that has so far only
/// reloaded resumed points has no rate to extrapolate from.
fn eta_secs(elapsed: f64, executed: usize, remaining: usize) -> Option<f64> {
    if remaining == 0 {
        return Some(0.0);
    }
    // simlint: allow(float-cmp, reason = "guard against a zero/negative wall-clock interval; only gates the ETA display, never simulation state")
    if executed == 0 || elapsed <= 0.0 {
        return None;
    }
    Some(elapsed / executed as f64 * remaining as f64)
}

fn fmt_eta(secs: f64) -> String {
    let s = secs.ceil() as u64;
    if s >= 60 {
        format!("{}m{:02}s", s / 60, s % 60)
    } else {
        format!("{s}s")
    }
}

/// What one run simulates: a workload-generator closure in data form, so
/// specs can be stored, enumerated, and shipped across threads.
#[derive(Debug, Clone)]
pub enum WorkloadSpec {
    /// A use-case-1 polybench kernel (Figs 4–6).
    Kernel {
        /// Which kernel.
        kernel: PolybenchKernel,
        /// Problem-size / tile parameters.
        params: KernelParams,
    },
    /// A use-case-2 placement workload (Figs 7–8).
    Placement(PlacementWorkload),
    /// A workload that panics when generated — fault injection for testing
    /// the sweep engine's isolation guarantees end to end.
    Fault {
        /// The panic message.
        message: String,
    },
}

impl WorkloadSpec {
    /// A kernel workload.
    pub fn kernel(kernel: PolybenchKernel, params: KernelParams) -> Self {
        WorkloadSpec::Kernel { kernel, params }
    }

    /// A placement workload.
    pub fn placement(w: PlacementWorkload) -> Self {
        WorkloadSpec::Placement(w)
    }

    /// A fault-injection workload that panics with `message`.
    pub fn fault(message: impl Into<String>) -> Self {
        WorkloadSpec::Fault {
            message: message.into(),
        }
    }

    /// The workload's short name (kernel or workload name).
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadSpec::Kernel { kernel, .. } => kernel.name(),
            WorkloadSpec::Placement(w) => w.name,
            WorkloadSpec::Fault { .. } => "fault",
        }
    }

    /// The workload's parameterization as a JSON object — serialized into
    /// every record (the `workload_params` block) and required to match on
    /// resume, so a point from a differently-sized run (e.g. `--quick`)
    /// can never be silently adopted by a full-size sweep. `Null` for
    /// workloads without a stored parameterization.
    pub fn params_json(&self) -> JsonValue {
        match self {
            WorkloadSpec::Kernel { params, .. } => JsonValue::object([
                ("n", JsonValue::U64(params.n as u64)),
                ("tile_bytes", JsonValue::U64(params.tile_bytes)),
                ("steps", JsonValue::U64(params.steps as u64)),
                ("reuse", JsonValue::U64(params.reuse as u64)),
            ]),
            WorkloadSpec::Placement(w) => JsonValue::object([
                (
                    "compute_per_access",
                    JsonValue::U64(w.compute_per_access as u64),
                ),
                ("accesses", JsonValue::U64(w.accesses)),
                (
                    "structs",
                    JsonValue::Array(
                        w.structs
                            .iter()
                            .map(|s| {
                                JsonValue::object([
                                    ("name", JsonValue::Str(s.name.to_string())),
                                    ("kib", JsonValue::U64(s.kib)),
                                    ("kind", JsonValue::Str(format!("{:?}", s.kind))),
                                    ("weight", JsonValue::U64(s.weight as u64)),
                                    ("write_pct", JsonValue::U64(s.write_pct as u64)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
            WorkloadSpec::Fault { .. } => JsonValue::Null,
        }
    }

    /// Replays the workload into a trace sink (what [`run`] does twice:
    /// once to scan, once to execute).
    ///
    /// Generic over the sink so the executing path monomorphizes: driven
    /// through [`run`], the generator's per-op sink calls inline straight
    /// into the batch emitter instead of going through a `dyn TraceSink`
    /// vtable per op.
    pub fn generate<S: TraceSink + ?Sized>(&self, sink: &mut S) {
        match self {
            WorkloadSpec::Kernel { kernel, params } => kernel.generate(params, sink),
            WorkloadSpec::Placement(w) => w.generate(sink),
            WorkloadSpec::Fault { message } => panic!("{message}"),
        }
    }
}

impl Generator for WorkloadSpec {
    fn emit<S: TraceSink>(&self, sink: &mut S) {
        self.generate(sink);
    }
}

/// One enumerable experiment point.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Human-readable point label (becomes the report's `label` field).
    pub label: String,
    /// The complete system configuration to simulate.
    pub config: SystemConfig,
    /// What to run on it.
    pub workload: WorkloadSpec,
}

impl RunSpec {
    /// A spec with a label built from the workload name.
    pub fn new(label: impl Into<String>, config: SystemConfig, workload: WorkloadSpec) -> Self {
        RunSpec {
            label: label.into(),
            config,
            workload,
        }
    }
}

/// Execution metadata for one finished point — the report's optional
/// `run` block. Pure observability: it never feeds back into the
/// simulation, so two runs of the same spec differ only here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunMeta {
    /// Wall-clock execution time of the point, in nanoseconds.
    pub wall_nanos: u64,
    /// Index of the pool worker that executed the point.
    pub worker: u64,
    /// Whether the record was reloaded from a report directory by
    /// [`Sweep::resume_from`] rather than executed in this process.
    pub resumed: bool,
}

/// A run spec together with its measured report — the unit every
/// [`crate::report_sink::ReportSink`] serializes.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// The spec's label.
    pub label: String,
    /// The configuration that produced the report.
    pub config: SystemConfig,
    /// The workload's short name.
    pub workload: &'static str,
    /// The workload's parameterization ([`WorkloadSpec::params_json`]);
    /// `Null` when unknown (e.g. a replayed trace).
    pub workload_params: JsonValue,
    /// The measurements.
    pub report: RunReport,
    /// Epoch-sampled time series ([`crate::telemetry`]); `None` unless the
    /// sweep enabled sampling via [`Sweep::epoch`]. Serialized as the
    /// record's optional `telemetry` block.
    pub telemetry: Option<TelemetrySeries>,
    /// Interval-sampling summary ([`crate::sampling`]); `None` unless the
    /// sweep executed under a [`Sweep::sampling`] spec. Serialized as the
    /// record's optional `sampling` block.
    pub sampling: Option<SamplingSummary>,
    /// How the point was executed (`None` for records built outside a
    /// sweep, e.g. replayed from JSON).
    pub run: Option<RunMeta>,
}

/// One spec's panic, caught by the sweep so the rest of the grid survives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunFailure {
    /// The failing spec's label.
    pub label: String,
    /// The panic payload, rendered to a string.
    pub message: String,
}

/// What happened to one spec of a sweep.
#[derive(Debug, Clone)]
pub enum RunOutcome {
    /// The spec executed in this process.
    Completed(RunRecord),
    /// The record was reloaded from a report directory by
    /// [`Sweep::resume_from`] instead of re-executing.
    Resumed(RunRecord),
    /// The spec panicked. Every other point of the sweep still ran.
    Failed(RunFailure),
}

impl RunOutcome {
    /// The record, when the point completed or resumed.
    pub fn record(&self) -> Option<&RunRecord> {
        match self {
            RunOutcome::Completed(r) | RunOutcome::Resumed(r) => Some(r),
            RunOutcome::Failed(_) => None,
        }
    }

    /// The record by value, when the point completed or resumed.
    pub fn into_record(self) -> Option<RunRecord> {
        match self {
            RunOutcome::Completed(r) | RunOutcome::Resumed(r) => Some(r),
            RunOutcome::Failed(_) => None,
        }
    }

    /// The failure, when the point panicked.
    pub fn failure(&self) -> Option<&RunFailure> {
        match self {
            RunOutcome::Failed(f) => Some(f),
            _ => None,
        }
    }
}

fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A batch of [`RunSpec`]s executed on a worker pool.
///
/// Results come back in spec order; with pure specs the records are
/// byte-identical whether `workers` is 1 or 64. Each point runs inside
/// `catch_unwind`, so a panicking spec costs exactly one point — never the
/// grid.
#[derive(Debug, Clone)]
pub struct Sweep {
    specs: Vec<RunSpec>,
    workers: usize,
    stream_dir: Option<PathBuf>,
    resumed: BTreeMap<String, RunRecord>,
    progress: Option<String>,
    epoch: Option<u64>,
    sampling: Option<SamplingSpec>,
}

impl Sweep {
    /// A sweep over `specs` using [`default_workers`] threads.
    pub fn new(specs: Vec<RunSpec>) -> Self {
        Sweep {
            specs,
            workers: default_workers(),
            stream_dir: None,
            resumed: BTreeMap::new(),
            progress: None,
            epoch: None,
            sampling: None,
        }
    }

    /// Overrides the worker count (`1` = serial reference execution).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Samples a telemetry time series on every point, one sample per
    /// `epoch_instructions` retired (clamped to ≥ 1); the series lands in
    /// each record's `telemetry` block. Call *before*
    /// [`Sweep::resume_from`]: a stored point is adopted only when its
    /// sampling epoch matches this setting (no block ↔ `None`).
    pub fn epoch(mut self, epoch_instructions: Option<u64>) -> Self {
        self.epoch = epoch_instructions.map(|e| e.max(1));
        self
    }

    /// Executes every point under the interval-sampling schedule `spec`
    /// (fast-forward / functional warmup / detailed windows); each record
    /// gains a `sampling` block with the sampled estimates and their
    /// confidence intervals. Call *before* [`Sweep::resume_from`]: a
    /// stored point is adopted only when its sampling spec matches this
    /// setting (no block ↔ `None`).
    pub fn sampling(mut self, spec: Option<SamplingSpec>) -> Self {
        self.sampling = spec;
        self
    }

    /// Paints a `label: done/total, failures, ETA` progress line on stderr
    /// while the sweep runs.
    pub fn progress(mut self, label: impl Into<String>) -> Self {
        self.progress = Some(label.into());
        self
    }

    /// Streams each record into `dir` as it finishes (one single-record
    /// `xmem-report-v1` file per point, written atomically), so a killed
    /// sweep loses only its in-flight points.
    pub fn report_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.stream_dir = Some(dir.into());
        self
    }

    /// Like [`Sweep::report_dir`], additionally reloading every point
    /// already finished in `dir`: a resumed sweep re-executes only the
    /// missing labels and returns [`RunOutcome::Resumed`] for the rest.
    ///
    /// A stored point is adopted only when its label, workload name,
    /// workload parameters, and serialized config summary all match the
    /// spec — stale files from a different parameterization (including a
    /// `--quick`-sized run in the same directory) simply re-run. Call this
    /// after every
    /// spec has been pushed. Unreadable directories or files are skipped
    /// with a warning (a kill can truncate the in-flight file); those
    /// points re-run too.
    pub fn resume_from(mut self, dir: impl Into<PathBuf>) -> Self {
        let dir = dir.into();
        let records = match scan_point_records(&dir) {
            Ok(records) => records,
            Err(e) => {
                eprintln!(
                    "warning: cannot scan report dir {}: {e}; running the full sweep",
                    dir.display()
                );
                self.stream_dir = Some(dir);
                return self;
            }
        };
        let by_label: BTreeMap<&str, &RunSpec> =
            self.specs.iter().map(|s| (s.label.as_str(), s)).collect();
        let mut resumed = BTreeMap::new();
        for rec in &records {
            let Some(label) = rec.get("label").and_then(|l| l.as_str()) else {
                continue;
            };
            let Some(spec) = by_label.get(label) else {
                continue;
            };
            if rec.get("workload").and_then(|w| w.as_str()) != Some(spec.workload.name()) {
                continue;
            }
            // Workload parameters must match too: labels and config
            // summaries do not encode problem sizes, so without this a
            // `--quick` run's points would silently resume into a
            // full-size sweep. Old records without the block never match.
            if rec.get("workload_params").unwrap_or(&JsonValue::Null)
                != &spec.workload.params_json()
            {
                continue;
            }
            // The stored config summary must match the spec's exactly — a
            // point from a differently-parameterized sweep re-runs instead
            // of silently resuming.
            if rec.get("config") != Some(&JsonValue::object(config_kv(&spec.config))) {
                continue;
            }
            // The stored telemetry must match the sweep's sampling setup:
            // a record without the block cannot satisfy a sweep that wants
            // a series, and a series sampled on a different epoch re-runs
            // rather than silently resuming with the wrong resolution.
            let telemetry = TelemetrySeries::from_record_json(rec);
            if telemetry.as_ref().map(|t| t.epoch_instructions) != self.epoch {
                continue;
            }
            // Likewise the sampling schedule: a full-detail record cannot
            // satisfy a sampled sweep (or vice versa), and a record sampled
            // under a different spec re-runs instead of resuming with the
            // wrong coverage.
            let sampling = SamplingSummary::from_record_json(rec);
            if sampling.as_ref().map(|s| s.spec) != self.sampling {
                continue;
            }
            let Some(report) = RunRecord::report_from_json(rec) else {
                continue;
            };
            let run = RunMeta {
                resumed: true,
                ..RunMeta::from_record_json(rec).unwrap_or_default()
            };
            resumed.insert(
                label.to_string(),
                RunRecord {
                    label: label.to_string(),
                    config: spec.config,
                    workload: spec.workload.name(),
                    workload_params: spec.workload.params_json(),
                    report,
                    telemetry,
                    sampling,
                    run: Some(run),
                },
            );
        }
        self.resumed = resumed;
        self.stream_dir = Some(dir);
        self
    }

    /// Appends a spec.
    pub fn push(&mut self, spec: RunSpec) {
        self.specs.push(spec);
    }

    /// The specs, in execution/result order.
    pub fn specs(&self) -> &[RunSpec] {
        &self.specs
    }

    /// Executes every spec and returns one outcome per spec, in spec
    /// order. Each point runs inside `catch_unwind`: a panicking spec
    /// yields [`RunOutcome::Failed`] while every other point completes
    /// (and streams, when a report directory is set). Never unwinds.
    ///
    /// Points that run the same workload on configs with one
    /// [`GroupKey`] run as one group ([`run_group`]): one generator pass
    /// and one front for all of them, each record identical to the point's
    /// own [`run`]. A group is one job of the worker pool, so each of its
    /// records carries the group's worker and the group's wall time as
    /// `run.wall_nanos`. A group that panics reruns its points one at a
    /// time, so each fails or completes exactly as it would alone. Resumed
    /// points join no group.
    pub fn run_outcomes(&self) -> Vec<RunOutcome> {
        let total = self.specs.len();
        let progress = match &self.progress {
            Some(label) => Progress::new(label.clone(), total),
            None => Progress::silent(total),
        };
        let mut outcomes: Vec<Option<RunOutcome>> = self
            .specs
            .iter()
            .map(|spec| {
                let record = self.resumed.get(&spec.label)?;
                progress.tick_resumed();
                Some(RunOutcome::Resumed(record.clone()))
            })
            .collect();
        let groups = self.groups();
        let finished = pool(groups.len(), self.workers, |g, worker| {
            self.run_group_job(&groups[g], worker, &progress)
        });
        for (i, outcome) in finished.into_iter().flatten() {
            outcomes[i] = Some(outcome);
        }
        progress.finish();
        outcomes
            .into_iter()
            // simlint: allow(unwrap, reason = "every spec is either resumed or a member of exactly one group, and every group's job returns one outcome per member")
            .map(|o| o.expect("every point has an outcome"))
            .collect()
    }

    /// The points that run together, as spec indices in spec order: every
    /// point that is not resumed, partitioned by workload and
    /// [`GroupKey`]. Each group is one job of the worker pool, started in
    /// the order of its first point.
    pub fn groups(&self) -> Vec<Vec<usize>> {
        let mut keys: Vec<(String, GroupKey)> = Vec::new();
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for (i, spec) in self.specs.iter().enumerate() {
            if self.resumed.contains_key(&spec.label) {
                continue;
            }
            let key = (format!("{:?}", spec.workload), GroupKey::of(&spec.config));
            match keys.iter().position(|k| *k == key) {
                Some(g) => groups[g].push(i),
                None => {
                    keys.push(key);
                    groups.push(vec![i]);
                }
            }
        }
        groups
    }

    /// Runs one group on pool worker `worker`, returning each member's
    /// spec index and outcome.
    fn run_group_job(
        &self,
        members: &[usize],
        worker: usize,
        progress: &Progress,
    ) -> Vec<(usize, RunOutcome)> {
        if members.len() > 1 {
            let configs: Vec<SystemConfig> =
                members.iter().map(|&i| self.specs[i].config).collect();
            let workload = &self.specs[members[0]].workload;
            // simlint: allow(nondet-taint, reason = "wall_nanos lands only in the RunMeta `run` block, which is documented pure observability and excluded from determinism comparisons")
            let start = Instant::now();
            if let Ok(outputs) = catch_unwind(AssertUnwindSafe(|| {
                run_group(&configs, workload, self.epoch, self.sampling)
            })) {
                // simlint: allow(nondet-taint, reason = "wall_nanos lands only in the RunMeta `run` block, which is documented pure observability and excluded from determinism comparisons")
                let wall_nanos = cycles_to_u64(start.elapsed().as_nanos());
                return members
                    .iter()
                    .zip(outputs)
                    .map(|(&i, out)| (i, self.complete(i, out, wall_nanos, worker, progress)))
                    .collect();
            }
        }
        members
            .iter()
            .map(|&i| (i, self.run_point(i, worker, progress)))
            .collect()
    }

    /// Runs point `i` on its own.
    fn run_point(&self, i: usize, worker: usize, progress: &Progress) -> RunOutcome {
        let spec = &self.specs[i];
        // simlint: allow(nondet-taint, reason = "wall_nanos lands only in the RunMeta `run` block, which is documented pure observability and excluded from determinism comparisons")
        let start = Instant::now();
        match catch_unwind(AssertUnwindSafe(|| {
            run(&spec.config, &spec.workload, self.epoch, self.sampling)
        })) {
            Ok(out) => {
                // simlint: allow(nondet-taint, reason = "wall_nanos lands only in the RunMeta `run` block, which is documented pure observability and excluded from determinism comparisons")
                let wall_nanos = cycles_to_u64(start.elapsed().as_nanos());
                self.complete(i, out, wall_nanos, worker, progress)
            }
            Err(payload) => {
                progress.tick(true);
                RunOutcome::Failed(RunFailure {
                    label: spec.label.clone(),
                    message: panic_message(payload),
                })
            }
        }
    }

    /// Point `i`'s record from its run's output, streamed when a report
    /// directory is set.
    fn complete(
        &self,
        i: usize,
        out: RunOutput,
        wall_nanos: u64,
        worker: usize,
        progress: &Progress,
    ) -> RunOutcome {
        let spec = &self.specs[i];
        let record = RunRecord {
            label: spec.label.clone(),
            config: spec.config,
            workload: spec.workload.name(),
            workload_params: spec.workload.params_json(),
            report: out.report,
            telemetry: out.telemetry,
            sampling: out.sampling,
            run: Some(RunMeta {
                wall_nanos,
                worker: worker as u64,
                resumed: false,
            }),
        };
        if let Some(dir) = &self.stream_dir {
            if let Err(e) = write_point_record(dir, &record) {
                eprintln!(
                    "warning: cannot stream record '{}' to {}: {e}",
                    record.label,
                    dir.display()
                );
            }
        }
        progress.tick(false);
        RunOutcome::Completed(record)
    }

    /// Executes every spec and returns one record per spec, in spec order.
    ///
    /// # Panics
    ///
    /// Panics with a summary of every failure — but only *after* the whole
    /// grid has run (and streamed, when a report directory is set), so one
    /// bad point never discards the others' work. Use
    /// [`Sweep::run_outcomes`] to handle failures without unwinding.
    pub fn run(&self) -> Vec<RunRecord> {
        let outcomes = self.run_outcomes();
        let total = outcomes.len();
        let mut records = Vec::with_capacity(total);
        let mut failures = Vec::new();
        for outcome in outcomes {
            match outcome {
                RunOutcome::Completed(r) | RunOutcome::Resumed(r) => records.push(r),
                RunOutcome::Failed(f) => failures.push(f),
            }
        }
        assert!(
            failures.is_empty(),
            "sweep: {}/{total} points panicked (every other point completed): {}",
            failures.len(),
            failures
                .iter()
                .map(|f| format!("{}: {}", f.label, f.message))
                .collect::<Vec<_>>()
                .join("; ")
        );
        records
    }

    /// Executes every spec and returns the completed record with the
    /// fewest cycles (ties broken by spec order, exactly like a serial
    /// `min_by_key`). `None` when the sweep is empty or every point
    /// failed; failed points are otherwise skipped.
    pub fn best(&self) -> Option<RunRecord> {
        self.run_outcomes()
            .into_iter()
            .filter_map(RunOutcome::into_record)
            .min_by_key(|r| r.report.cycles())
    }
}

/// The per-point streaming location for a report directory scoped to one
/// figure: `<dir>/<name>.points`.
pub fn points_dir(dir: impl AsRef<Path>, name: &str) -> PathBuf {
    dir.as_ref().join(format!("{name}.points"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemKind;

    #[test]
    fn run_jobs_is_order_stable() {
        // Job i sleeps inversely to its index so completion order is the
        // reverse of submission order; results must still come back by index.
        let out = run_jobs(8, 4, |i| {
            std::thread::sleep(std::time::Duration::from_millis(8 - i as u64));
            i * 10
        });
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn run_jobs_handles_edge_counts() {
        assert_eq!(run_jobs(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(run_jobs(1, 64, |i| i + 1), vec![1]);
        assert_eq!(run_jobs(5, 1, |i| i), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn pool_reports_worker_indices_in_range() {
        let out = pool(16, 3, |i, worker| {
            assert!(worker < 3);
            (i, worker)
        });
        assert!(out.iter().enumerate().all(|(i, (j, _))| i == *j));
        // Serial pools attribute everything to worker 0.
        assert!(pool(4, 1, |_, worker| worker).iter().all(|w| *w == 0));
    }

    #[test]
    fn sweep_preserves_spec_order_and_labels() {
        let p = KernelParams {
            n: 12,
            tile_bytes: 512,
            steps: 1,
            reuse: 200,
        };
        let specs: Vec<RunSpec> = [SystemKind::Baseline, SystemKind::Xmem]
            .into_iter()
            .map(|kind| {
                RunSpec::new(
                    format!("{kind}"),
                    SystemConfig::scaled_use_case1(8 << 10, kind),
                    WorkloadSpec::kernel(PolybenchKernel::Mvt, p),
                )
            })
            .collect();
        let records = Sweep::new(specs).run();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].label, "Baseline");
        assert_eq!(records[1].label, "XMem");
        assert_eq!(records[0].workload, "mvt");
        assert!(records.iter().all(|r| r.report.cycles() > 0));
        // Every sweep-produced record carries execution metadata.
        assert!(records.iter().all(|r| {
            let run = r.run.expect("sweep records carry a run block");
            run.wall_nanos > 0 && !run.resumed
        }));
    }

    #[test]
    fn xmem_workers_env_overrides_default() {
        // Exercise the parse directly: mutating the real environment from
        // a test is UB under the threaded test harness (concurrent
        // setenv/getenv on glibc) and races other tests.
        assert_eq!(workers_override(Some("3")), Some(3));
        assert_eq!(workers_override(Some("0")), Some(1), "clamped to >= 1");
        assert_eq!(
            workers_override(Some(" 7 ")),
            Some(7),
            "whitespace tolerated"
        );
        assert_eq!(
            workers_override(Some("not-a-number")),
            None,
            "garbage falls back"
        );
        assert_eq!(workers_override(None), None, "unset falls back");
        assert!(default_workers() >= 1);
    }

    #[test]
    fn fmt_eta_renders_minutes() {
        assert_eq!(fmt_eta(0.0), "0s");
        assert_eq!(fmt_eta(58.2), "59s");
        assert_eq!(fmt_eta(61.0), "1m01s");
        assert_eq!(fmt_eta(3600.0), "60m00s");
    }

    #[test]
    fn eta_extrapolates_from_executed_points_only() {
        // 2 executed points in 10s, 3 remaining → 15s.
        assert_eq!(eta_secs(10.0, 2, 3), Some(15.0));
        // Everything done (or everything resumed): ETA 0, never NaN.
        assert_eq!(eta_secs(0.0, 0, 0), Some(0.0));
        assert_eq!(eta_secs(5.0, 0, 0), Some(0.0));
        // No executed points yet — a resumed-only prefix has no rate to
        // extrapolate from; must not divide by zero.
        assert_eq!(eta_secs(3.0, 0, 7), None);
        // Degenerate clock (first tick lands within timer resolution).
        assert_eq!(eta_secs(0.0, 1, 7), None);
    }

    #[test]
    fn progress_ticks_do_not_panic_with_resumed_points() {
        // Exercise the repaint paths directly: resumed-only (no rate),
        // then a mixed executed/failed tail.
        let p = Progress::new("unit", 4);
        p.tick_resumed();
        p.tick_resumed();
        p.tick(false);
        p.tick(true);
        assert_eq!(p.done.load(Ordering::Relaxed), 4);
        assert_eq!(p.resumed.load(Ordering::Relaxed), 2);
        assert_eq!(p.failed.load(Ordering::Relaxed), 1);
        p.finish();
    }
}
