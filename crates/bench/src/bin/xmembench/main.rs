//! # xmembench — the end-to-end benchmark of the simulator's own speed
//!
//! Four workloads taken from the experiments the repository actually runs
//! (see `README.md` beside this file for why each was chosen). Each runs
//! single-threaded (`Sweep::workers(1)`, one closed-loop client), builds
//! a fresh machine per point, and has every point's output digest checked
//! against `golden.json`.
//!
//! ```text
//! xmembench [--seed N] [--seconds S] [--trace [0|1]] [--out PATH] [--compare OLD.json]
//! xmembench --workload NAME [--seed N] [--seconds S] [--trace [0|1]]
//! xmembench --compare OLD.json --new NEW.json
//! xmembench --bless [--out PATH]
//! ```
//!
//! Without `--workload`, every workload runs in its own child process, one
//! after another, and `--out` collects their results. With `--trace`, the
//! per-layer numbers of attribution by substitution (`ladder.rs`) are
//! reported instead of the end-to-end metrics. Flags take `--flag value`
//! or `--flag=value`. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod check;
mod ladder;
mod suite;

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use xmem_bench::print_table;
use xmem_sim::JsonValue;

use check::Golden;
use suite::{Kind, PointReport, PointRun, Prepared, Workload, WORKLOADS};

/// The benchmark's contract: workloads, metrics and their bounds.
const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

/// Where `--bless` writes by default (relative to the repository root).
const GOLDEN_PATH: &str = "crates/bench/src/bin/xmembench/golden.json";

/// How many times set-up runs; `setup_s` is the median.
const SETUP_REPS: usize = 11;

const USAGE: &str = "usage:
  xmembench [--seed N] [--seconds S] [--trace [0|1]] [--out PATH] [--compare OLD.json]
  xmembench --workload NAME [--seed N] [--seconds S] [--trace [0|1]] [--out PATH]
  xmembench --compare OLD.json --new NEW.json
  xmembench --bless [--out PATH]";

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Better {
    Higher,
    Lower,
}

/// A metric the benchmark reports.
#[derive(Debug, Clone, Copy)]
struct MetricDef {
    name: &'static str,
    unit: &'static str,
    better: Better,
}

const fn metric(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

/// Reported with tracing off.
const END_TO_END: [MetricDef; 3] = [
    metric("sim_mops", "Mop/s", Better::Higher),
    metric("setup_s", "s", Better::Lower),
    metric("peak_rss_mib", "MiB", Better::Lower),
];

/// Reported by the traced run. The `_ns_per_op` rows are successive
/// stage differences of the substitution ladder and sum to
/// `sim.e2e_ns_per_op`; the rest are exact counts from the reports.
const PER_LAYER: [MetricDef; 19] = [
    metric("sim.load_ns_per_op", "ns/op", Better::Lower),
    metric("workloads.gen_ns_per_op", "ns/op", Better::Lower),
    metric("cpu-sim.core_ns_per_op", "ns/op", Better::Lower),
    metric("os-sim.translate_ns_per_op", "ns/op", Better::Lower),
    metric("cache-sim.memory_ns_per_op", "ns/op", Better::Lower),
    metric("sim.glue_ns_per_op", "ns/op", Better::Lower),
    metric("sim.e2e_ns_per_op", "ns/op", Better::Lower),
    metric("cache-sim.l1_miss_pki", "1/kop", Better::Lower),
    metric("cache-sim.l2_miss_pki", "1/kop", Better::Lower),
    metric("cache-sim.l3_miss_pki", "1/kop", Better::Lower),
    metric("dram-sim.access_pki", "1/kop", Better::Lower),
    metric("dram-sim.row_hit_ratio", "ratio", Better::Higher),
    metric("xmem-core.alb_lookup_pki", "1/kop", Better::Lower),
    metric("xmem-core.alb_hit_ratio", "ratio", Better::Higher),
    metric("cpu-sim.avg_load_latency_cyc", "cycles", Better::Lower),
    metric("sim.detailed_frac", "ratio", Better::Lower),
    metric("cache-sim.bus_tx_pki", "1/kop", Better::Lower),
    metric("cache-sim.c2c_ratio", "ratio", Better::Higher),
    metric("sim.ipc_err_median", "ratio", Better::Lower),
];

/// The command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    compare: Option<PathBuf>,
    new: Option<PathBuf>,
    bless: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        out: None,
        compare: None,
        new: None,
        bless: false,
    };
    let mut i = 0;
    while i < args.len() {
        let (flag, inline) = match args[i].split_once('=') {
            Some((f, v)) => (f, Some(v.to_string())),
            None => (args[i].as_str(), None),
        };
        i += 1;
        let mut value = |name: &str| -> Result<String, String> {
            if let Some(v) = &inline {
                return Ok(v.clone());
            }
            let v = args.get(i).ok_or(format!("{name} needs a value"))?;
            i += 1;
            Ok(v.clone())
        };
        match flag {
            "--workload" => {
                let w = value(flag)?;
                Workload::by_name(&w).ok_or(format!("unknown workload '{w}'"))?;
                a.workload = Some(w);
            }
            "--seed" => {
                a.seed = value(flag)?
                    .parse()
                    .ok()
                    .filter(|&s| s >= 1)
                    .ok_or("--seed wants an integer >= 1")?;
            }
            "--seconds" => {
                a.seconds = value(flag)?
                    .parse()
                    .ok()
                    .filter(|&s: &f64| s > 0.0)
                    .ok_or("--seconds wants a positive number")?;
            }
            "--trace" => {
                // A bare `--trace` means 1; a following 0 or 1 is its value.
                let v = match inline.clone() {
                    Some(v) => v,
                    None if matches!(args.get(i).map(String::as_str), Some("0" | "1")) => {
                        i += 1;
                        args[i - 1].clone()
                    }
                    None => "1".to_string(),
                };
                a.trace = match v.as_str() {
                    "1" => true,
                    "0" => false,
                    _ => return Err("--trace wants 0 or 1".into()),
                };
            }
            "--out" => a.out = Some(value(flag)?.into()),
            "--compare" => a.compare = Some(value(flag)?.into()),
            "--new" => a.new = Some(value(flag)?.into()),
            "--bless" => a.bless = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if a.new.is_some() && a.compare.is_none() {
        return Err("--new needs --compare".into());
    }
    if a.compare.is_some() && a.workload.is_some() {
        return Err("--compare works on whole-suite runs, not --workload".into());
    }
    Ok(a)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match parse_args(&args) {
        Ok(a) => run(&a),
        Err(e) => {
            eprintln!("xmembench: {e}\n{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

fn run(a: &Args) -> i32 {
    if a.bless {
        return bless(a.out.as_deref().unwrap_or(Path::new(GOLDEN_PATH)));
    }
    if let (Some(old), Some(new)) = (&a.compare, &a.new) {
        return match (read_doc(old), read_doc(new)) {
            (Ok(old), Ok(new)) => compare(&old, &new),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("xmembench: {e}");
                2
            }
        };
    }
    match &a.workload {
        Some(name) => {
            let w = Workload::by_name(name).expect("validated by parse_args");
            run_workload(w, a)
        }
        None => run_all(a),
    }
}

// ─────────────────────────────── statistics ───────────────────────────────

/// `[q1, median, q3]` by the "exclusive" method of Python's
/// `statistics.quantiles(xs, n=4)`; a single value is its own quartiles.
fn quartiles(xs: &[f64]) -> [f64; 3] {
    let mut d = xs.to_vec();
    d.sort_by(f64::total_cmp);
    let n = d.len();
    assert!(n > 0, "quartiles of nothing");
    if n == 1 {
        return [d[0]; 3];
    }
    std::array::from_fn(|k| {
        let i = k as i64 + 1;
        let m = n as i64 + 1;
        // Clamping can make `delta` negative or above 4: Python then
        // extrapolates from the two end points, and so does this.
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    })
}

/// `VmHWM` (peak resident set) of this process, in MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// A measured value with its quartiles and series, as the result files
/// store it.
fn summary(unit: &str, series: &[f64]) -> JsonValue {
    let [q1, med, q3] = quartiles(series);
    JsonValue::object([
        ("value", JsonValue::F64(med)),
        ("unit", JsonValue::Str(unit.into())),
        ("q1", JsonValue::F64(q1)),
        ("q3", JsonValue::F64(q3)),
        (
            "series",
            JsonValue::Array(series.iter().map(|&x| JsonValue::F64(x)).collect()),
        ),
    ])
}

fn value(unit: &str, v: f64) -> JsonValue {
    JsonValue::object([
        ("value", JsonValue::F64(v)),
        ("unit", JsonValue::Str(unit.into())),
    ])
}

// ─────────────────────────────── one workload ───────────────────────────────

/// Set-up `SETUP_REPS` times (each copy dropped before the next is built);
/// returns the last inputs and every set-up time in seconds.
fn setup(w: Workload, seed: u64) -> (Prepared, Vec<f64>) {
    let mut times = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        drop(prepared.take());
        let t = Instant::now();
        prepared = Some(suite::prepare(w, seed));
        times.push(t.elapsed().as_secs_f64());
    }
    (prepared.expect("at least one set-up"), times)
}

/// Median of |IPC_est − IPC_full| / IPC_full over the points that carry a
/// sampled estimate, IPC_full from the golden file.
fn ipc_err_median(golden: &Golden, points: &[PointRun]) -> Option<f64> {
    let errs: Vec<f64> = points
        .iter()
        .filter_map(|p| {
            let full = golden.full_ipc(&p.label)?;
            Some((p.ipc_est? - full).abs() / full)
        })
        .collect();
    (!errs.is_empty()).then(|| quartiles(&errs)[1])
}

/// Runs one workload in this process and prints its result; the exit
/// code is nonzero when any point failed its check.
fn run_workload(w: Workload, a: &Args) -> i32 {
    let golden = Golden::parse(check::GOLDEN).expect("the committed golden.json parses");
    let (p, setup_times) = setup(w, a.seed);
    let doc = if a.trace {
        traced(&p, a, &golden)
    } else {
        timed(&p, a, &golden, &setup_times)
    };
    for f in &doc.failures {
        eprintln!("xmembench: {}: FAILED {f}", w.name);
    }
    let detail = doc.to_json();
    if let Some(out) = &a.out {
        if let Err(e) = write_file(out, &check::pretty(&detail)) {
            eprintln!("xmembench: {e}");
            return 2;
        }
    }
    doc.print();
    println!("detail: {}", detail.render());
    let metrics = JsonValue::Object(
        doc.metrics
            .iter()
            .map(|(d, v)| (d.name.to_string(), value(d.unit, *v)))
            .collect(),
    );
    let last = JsonValue::object([
        ("correct", JsonValue::Bool(doc.failures.is_empty())),
        ("attempted", JsonValue::U64(doc.attempted)),
        ("failed", JsonValue::U64(doc.failures.len() as u64)),
        ("metrics", metrics),
    ]);
    println!("{}", last.render());
    i32::from(!doc.failures.is_empty())
}

/// One workload's result.
#[derive(Debug)]
struct WorkloadDoc {
    name: &'static str,
    seed: u64,
    trace: bool,
    points: usize,
    ops: u64,
    attempted: u64,
    /// The metrics the last line reports, in contract order.
    metrics: Vec<(MetricDef, f64)>,
    /// Quartiles and series behind some metrics, keyed by name.
    series: Vec<(&'static str, JsonValue)>,
    /// Reported beside the metrics (not part of the contract).
    extras: Vec<(&'static str, JsonValue)>,
    failures: Vec<String>,
}

impl WorkloadDoc {
    fn to_json(&self) -> JsonValue {
        let metrics = self.metrics.iter().map(|(d, v)| {
            let detailed = self.series.iter().find(|(n, _)| *n == d.name);
            let v = detailed.map_or_else(|| value(d.unit, *v), |(_, s)| s.clone());
            (d.name.to_string(), v)
        });
        JsonValue::object([
            ("name", JsonValue::Str(self.name.into())),
            ("seed", JsonValue::U64(self.seed)),
            ("trace", JsonValue::Bool(self.trace)),
            ("correct", JsonValue::Bool(self.failures.is_empty())),
            ("attempted", JsonValue::U64(self.attempted)),
            ("failed", JsonValue::U64(self.failures.len() as u64)),
            ("points", JsonValue::U64(self.points as u64)),
            ("ops", JsonValue::U64(self.ops)),
            ("metrics", JsonValue::Object(metrics.collect())),
            ("extras", JsonValue::object(self.extras.clone())),
            (
                "failures",
                JsonValue::Array(
                    self.failures
                        .iter()
                        .map(|f| JsonValue::Str(f.clone()))
                        .collect(),
                ),
            ),
        ])
    }

    fn print(&self) {
        println!(
            "xmembench {} seed={}: {} points, {:.1} M ops{}",
            self.name,
            self.seed,
            self.points,
            self.ops as f64 / 1e6,
            if self.trace { ", traced" } else { "" }
        );
        for (d, v) in &self.metrics {
            println!("  {:<30} {v:>12.4} {}", d.name, d.unit);
        }
        for (name, v) in &self.extras {
            println!("  {name:<30} {}", v.render());
        }
        println!(
            "  {:<30} {:>12} of {} point runs",
            "failed",
            self.failures.len(),
            self.attempted
        );
    }
}

/// The end-to-end measurement: whole passes until `--seconds` would be
/// exceeded (at least one).
fn timed(p: &Prepared, a: &Args, golden: &Golden, setup_times: &[f64]) -> WorkloadDoc {
    let start = Instant::now();
    let mut passes = Vec::new();
    loop {
        passes.push(suite::pass(p));
        let walls: Vec<f64> = passes.iter().map(|x| x.wall_ns as f64 / 1e9).collect();
        if start.elapsed().as_secs_f64() + quartiles(&walls)[1] > a.seconds {
            break;
        }
    }
    let ops = p.total_ops();
    let rates: Vec<f64> = passes
        .iter()
        .map(|x| ops as f64 / (x.wall_ns as f64 / 1e9) / 1e6)
        .collect();
    let runs: Vec<&[PointRun]> = passes.iter().map(|x| x.points.as_slice()).collect();
    let (attempted, failures) = check::check_passes(golden, p.seed, p.workload.name, &runs);
    let rss = peak_rss_mib().expect("VmHWM is readable from /proc/self/status");
    let mut extras = vec![(
        "failed_frac",
        value("ratio", failures.len() as f64 / attempted as f64),
    )];
    if let Some(err) = ipc_err_median(golden, &passes[0].points) {
        extras.push(("ipc_err_median", value("ratio", err)));
    }
    WorkloadDoc {
        name: p.workload.name,
        seed: p.seed,
        trace: false,
        points: p.ops.len(),
        ops,
        attempted,
        metrics: vec![
            (END_TO_END[0], quartiles(&rates)[1]),
            (END_TO_END[1], quartiles(setup_times)[1]),
            (END_TO_END[2], rss),
        ],
        series: vec![
            ("sim_mops", summary("Mop/s", &rates)),
            ("setup_s", summary("s", setup_times)),
        ],
        extras,
        failures,
    }
}

/// Sums of the counters the per-layer count metrics are made of.
#[derive(Debug, Default)]
struct Counts {
    l1_misses: u64,
    l2_misses: u64,
    l3_misses: u64,
    dram_accesses: u64,
    row_hits: u64,
    alb_lookups: u64,
    alb_hits: u64,
    loads: u64,
    load_latency: u64,
    detailed_ops: u64,
    sampled_ops: u64,
    bus_tx: u64,
    c2c: u64,
}

impl Counts {
    fn of(points: &[PointRun]) -> Counts {
        let mut c = Counts::default();
        for report in points.iter().filter_map(|p| p.report.as_ref()) {
            match report {
                PointReport::Machine(r, sampling) => {
                    c.l1_misses += r.l1.misses();
                    c.l2_misses += r.l2.misses();
                    c.l3_misses += r.l3.misses();
                    c.dram_accesses += r.dram.accesses();
                    c.row_hits += r.dram.row_hits;
                    c.alb_lookups += r.alb.lookups();
                    c.alb_hits += r.alb.hits;
                    c.loads += r.core.loads;
                    c.load_latency += r.core.total_load_latency;
                    if let Some(s) = sampling {
                        c.detailed_ops += s.detailed_ops;
                        c.sampled_ops += s.total_ops;
                    }
                }
                PointReport::Corun(r) => {
                    c.l1_misses += r.l1s.iter().map(|s| s.misses()).sum::<u64>();
                    c.l2_misses += r.l2s.iter().map(|s| s.misses()).sum::<u64>();
                    c.l3_misses += r.l3.misses();
                    c.dram_accesses += r.dram.accesses();
                    c.row_hits += r.dram.row_hits;
                    c.alb_lookups += r.alb.lookups();
                    c.alb_hits += r.alb.hits;
                    c.loads += r.cores.iter().map(|s| s.loads).sum::<u64>();
                    c.load_latency += r.cores.iter().map(|s| s.total_load_latency).sum::<u64>();
                    c.bus_tx += r.bus.transactions();
                    c.c2c += r.bus.c2c_transfers;
                }
            }
        }
        c
    }
}

/// A ratio that reads 0 when nothing was attempted.
fn ratio(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

/// The traced run: attribution by substitution, spans written as a
/// Chrome trace.
fn traced(p: &Prepared, a: &Args, golden: &Golden) -> WorkloadDoc {
    let mut spans = ladder::Spans::new();
    let root = spans.open(p.workload.name, 0);
    let att = ladder::attribute(p, a.seconds, &mut spans, root);
    spans.close(root);
    let trace_path = match &a.out {
        Some(out) => out.with_extension("trace.json"),
        None => PathBuf::from(format!(
            "target/xmembench/{}-seed{}.trace.json",
            p.workload.name, p.seed
        )),
    };
    if let Err(e) = write_file(&trace_path, &spans.to_chrome_trace().render()) {
        eprintln!("xmembench: {e}");
    }

    let runs: Vec<&[PointRun]> = att.e2e.iter().map(Vec::as_slice).collect();
    let (attempted, mut failures) = check::check_passes(golden, p.seed, p.workload.name, &runs);
    failures.extend(att.mismatches.iter().cloned());

    let ops = p.total_ops();
    let per_op = |ns: f64| ns / ops as f64;
    let s = att.stage_ns;
    let c = Counts::of(&att.e2e[0]);
    let pki = |n: u64| 1000.0 * n as f64 / ops as f64;
    let detailed_frac = if c.sampled_ops > 0 {
        ratio(c.detailed_ops, c.sampled_ops)
    } else {
        1.0
    };
    let values = [
        per_op(s[0]),
        per_op(s[1] - s[0]),
        per_op(s[2] - s[1]),
        per_op(s[3] - s[2]),
        per_op(s[4] - s[3]),
        per_op(s[5] - s[4]),
        per_op(s[5]),
        pki(c.l1_misses),
        pki(c.l2_misses),
        pki(c.l3_misses),
        pki(c.dram_accesses),
        ratio(c.row_hits, c.dram_accesses),
        pki(c.alb_lookups),
        ratio(c.alb_hits, c.alb_lookups),
        ratio(c.load_latency, c.loads),
        detailed_frac,
        pki(c.bus_tx),
        ratio(c.c2c, c.bus_tx),
        // A fully detailed run is its own reference.
        ipc_err_median(golden, &att.e2e[0]).unwrap_or(0.0),
    ];
    let mut extras = vec![
        ("ladders", JsonValue::U64(att.ladders as u64)),
        (
            "trace_file",
            JsonValue::Str(trace_path.display().to_string()),
        ),
        (
            "stage_ns",
            JsonValue::object(
                ladder::STAGES
                    .iter()
                    .zip(s)
                    .map(|(n, v)| (*n, JsonValue::F64(v))),
            ),
        ),
    ];
    if let Some(t) = att.telemetry_ns {
        extras.push(("telemetry_overhead", value("ratio", t / s[5] - 1.0)));
    }
    WorkloadDoc {
        name: p.workload.name,
        seed: p.seed,
        trace: true,
        points: p.ops.len(),
        ops,
        attempted,
        metrics: PER_LAYER.iter().copied().zip(values).collect(),
        series: Vec::new(),
        extras,
        failures,
    }
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn read_doc(path: &Path) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    JsonValue::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

// ─────────────────────────────── whole suite ───────────────────────────────

/// Runs every workload in its own child process, one after another.
fn run_all(a: &Args) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("xmembench: cannot find this executable: {e}");
            return 2;
        }
    };
    let mut docs = Vec::new();
    let mut ok = true;
    for w in WORKLOADS {
        let output = Command::new(&exe)
            .args(["--workload", w.name])
            .args(["--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string()])
            .args(["--trace", if a.trace { "1" } else { "0" }])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output();
        let output = match output {
            Ok(o) => o,
            Err(e) => {
                eprintln!("xmembench: cannot run {}: {e}", w.name);
                return 2;
            }
        };
        ok &= output.status.success();
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut detail = None;
        for line in stdout.lines() {
            if let Some(json) = line.strip_prefix("detail: ") {
                detail = JsonValue::parse(json).ok();
            } else if !line.starts_with('{') {
                println!("{line}");
            }
        }
        match detail {
            Some(d) => docs.push(d),
            None => {
                eprintln!("xmembench: {} printed no result", w.name);
                ok = false;
            }
        }
    }
    let doc = suite_doc(a, docs);
    if let Some(out) = &a.out {
        if let Err(e) = write_file(out, &check::pretty(&doc)) {
            eprintln!("xmembench: {e}");
            return 2;
        }
        println!("wrote {}", out.display());
    }
    if let Some(old) = &a.compare {
        match read_doc(old) {
            Ok(old) => ok &= compare(&old, &doc) == 0,
            Err(e) => {
                eprintln!("xmembench: {e}");
                return 2;
            }
        }
    }
    i32::from(!ok)
}

/// The result document of a whole-suite run.
fn suite_doc(a: &Args, workloads: Vec<JsonValue>) -> JsonValue {
    let metric_of = |name: &str, m: &str| {
        workloads
            .iter()
            .find(|w| w.get("name").and_then(JsonValue::as_str) == Some(name))
            .and_then(|w| w.get("metrics")?.get(m)?.get("value")?.as_f64())
    };
    let mut derived = Vec::new();
    // Same ops in both, so the rate ratio is the wall-time ratio.
    if let (Some(full), Some(sampled)) = (
        metric_of("uc1-tuned", "sim_mops"),
        metric_of("uc1-sampled", "sim_mops"),
    ) {
        derived.push(("sampled_speedup", value("x", sampled / full)));
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    JsonValue::object([
        ("schema", JsonValue::Str("xmembench-v1".into())),
        ("seed", JsonValue::U64(a.seed)),
        ("seconds", JsonValue::F64(a.seconds)),
        ("trace", JsonValue::Bool(a.trace)),
        ("nproc", JsonValue::U64(nproc as u64)),
        ("workloads", JsonValue::Array(workloads)),
        ("derived", JsonValue::object(derived)),
    ])
}

// ─────────────────────────────── comparison ───────────────────────────────

/// The end-to-end bounds `BENCHMARK.json` fixes, by metric name.
fn bounds() -> Vec<(String, f64)> {
    let doc = JsonValue::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    doc.get("end_to_end")
        .and_then(JsonValue::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            let name = m.get("name")?.as_str()?.to_string();
            Some((name, m.get("bound")?.as_f64()?))
        })
        .collect()
}

/// A metric as a result file stores it: value and, when measured over a
/// series, its quartiles.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Measured {
    value: f64,
    q1: f64,
    q3: f64,
}

impl Measured {
    fn from_json(v: &JsonValue) -> Option<Measured> {
        let value = v.get("value")?.as_f64()?;
        let q = |k| v.get(k).and_then(JsonValue::as_f64).unwrap_or(value);
        Some(Measured {
            value,
            q1: q("q1"),
            q3: q("q3"),
        })
    }

    /// Distance between the quartiles, as a share of the value.
    fn spread(&self) -> f64 {
        (self.q3 - self.q1).abs() / self.value.abs()
    }
}

/// The verdict on one metric: `unresolved` when either side's spread
/// exceeds the bound, otherwise `worse`/`better` when the change passes
/// the bound, else `within bound`.
fn verdict(better: Better, bound: f64, old: Measured, new: Measured) -> &'static str {
    let gain = match better {
        Better::Higher => (new.value - old.value) / old.value,
        Better::Lower => (old.value - new.value) / old.value,
    };
    if old.spread().max(new.spread()) > bound {
        "unresolved"
    } else if gain < -bound {
        "worse"
    } else if gain > bound {
        "better"
    } else {
        "within bound"
    }
}

/// Prints the per-workload comparison table; nonzero when any metric got
/// worse by more than its bound.
fn compare(old: &JsonValue, new: &JsonValue) -> i32 {
    let bounds = bounds();
    let workloads = |doc: &JsonValue| {
        doc.get("workloads")
            .and_then(JsonValue::as_array)
            .unwrap_or_default()
            .to_vec()
    };
    let old_ws = workloads(old);
    let headers: Vec<String> = [
        "workload", "metric", "old", "new", "new/old", "bound", "verdict",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut rows = Vec::new();
    let mut worse = false;
    for nw in workloads(new) {
        let Some(name) = nw.get("name").and_then(JsonValue::as_str) else {
            continue;
        };
        let Some(ow) = old_ws
            .iter()
            .find(|w| w.get("name").and_then(JsonValue::as_str) == Some(name))
        else {
            continue;
        };
        for d in END_TO_END {
            let get = |w: &JsonValue| Measured::from_json(w.get("metrics")?.get(d.name)?);
            let (Some(o), Some(n)) = (get(ow), get(&nw)) else {
                continue;
            };
            let bound = bounds
                .iter()
                .find(|(m, _)| m == d.name)
                .map_or(0.0, |&(_, b)| b);
            let v = verdict(d.better, bound, o, n);
            worse |= v == "worse";
            rows.push(vec![
                name.to_string(),
                format!("{} ({})", d.name, d.unit),
                format!("{:.4}", o.value),
                format!("{:.4}", n.value),
                format!("{:.4} (base {:.4})", n.value / o.value, o.value),
                format!("{:.0}%", bound * 100.0),
                v.to_string(),
            ]);
        }
    }
    print_table(&headers, &rows);
    i32::from(worse)
}

// ───────────────────────────────── bless ─────────────────────────────────

/// Regenerates the golden file: every point's digest for seeds 1 and 2,
/// plus the full-detail instructions and cycles of every uc1 point.
fn bless(path: &Path) -> i32 {
    let mut g = Golden::default();
    for seed in [1, 2] {
        for w in WORKLOADS {
            let p = suite::prepare(w, seed);
            let pass = suite::pass(&p);
            for pt in &pass.points {
                let d = match &pt.digest {
                    Ok(d) => *d,
                    Err(msg) => {
                        eprintln!("xmembench: {} {}: panicked: {msg}", w.name, pt.label);
                        return 1;
                    }
                };
                g.digests
                    .entry(seed)
                    .or_default()
                    .entry(w.name.to_string())
                    .or_default()
                    .insert(pt.label.clone(), d);
                if let (Kind::Tuned, Some(PointReport::Machine(r, _))) = (w.kind, &pt.report) {
                    g.uc1_full
                        .insert(pt.label.clone(), (r.core.instructions, r.core.cycles));
                }
            }
            eprintln!("xmembench: blessed {} seed {seed}", w.name);
        }
    }
    match write_file(path, &check::pretty(&g.to_json())) {
        Ok(()) => {
            println!("wrote {}", path.display());
            0
        }
        Err(e) => {
            eprintln!("xmembench: {e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn both_flag_forms_parse() {
        let a = args("--workload uc2-placement --seed 3 --seconds 10 --trace 0").unwrap();
        let b = args("--workload=uc2-placement --seed=3 --seconds=10 --trace=0").unwrap();
        assert_eq!(a, b);
        assert_eq!((a.seed, a.seconds, a.trace), (3, 10.0, false));
        assert!(args("--trace").unwrap().trace);
        assert!(args("--trace --seed 2").unwrap().trace);
        assert!(args("--workload nope").is_err());
        assert!(args("--seed 0").is_err());
        assert!(args("--new x.json").is_err());
        assert!(args("--workload uc1-tuned --compare x.json").is_err());
        assert!(args("--frobnicate").is_err());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), [1.25, 2.5, 3.75]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), [1.5, 3.0, 4.5]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), [0.5, 2.0, 3.5]);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), [1.0, 2.0, 4.0]);
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let m = |value: f64, spread: f64| Measured {
            value,
            q1: value * (1.0 - spread / 2.0),
            q3: value * (1.0 + spread / 2.0),
        };
        assert_eq!(
            verdict(Better::Higher, 0.05, m(100.0, 0.01), m(101.0, 0.01)),
            "within bound"
        );
        assert_eq!(
            verdict(Better::Higher, 0.05, m(100.0, 0.01), m(90.0, 0.01)),
            "worse"
        );
        assert_eq!(
            verdict(Better::Higher, 0.05, m(100.0, 0.01), m(110.0, 0.01)),
            "better"
        );
        assert_eq!(
            verdict(Better::Lower, 0.05, m(100.0, 0.01), m(110.0, 0.01)),
            "worse"
        );
        assert_eq!(
            verdict(Better::Lower, 0.05, m(100.0, 0.2), m(101.0, 0.01)),
            "unresolved"
        );
    }

    /// A document shaped like a traced or untraced run's output.
    fn sample_doc(trace: bool) -> (JsonValue, JsonValue) {
        let defs: &[MetricDef] = if trace { &PER_LAYER } else { &END_TO_END };
        let doc = WorkloadDoc {
            name: "uc1-tuned",
            seed: 1,
            trace,
            points: 2,
            ops: 1000,
            attempted: 4,
            metrics: defs.iter().map(|&d| (d, 1.5)).collect(),
            series: vec![("sim_mops", summary("Mop/s", &[1.0, 1.5, 2.0]))],
            extras: vec![("failed_frac", value("ratio", 0.0))],
            failures: Vec::new(),
        };
        let detail = doc.to_json();
        let a = args("").unwrap();
        (detail.clone(), suite_doc(&a, vec![detail]))
    }

    #[test]
    fn output_round_trips_through_the_parser() {
        for trace in [false, true] {
            let (detail, doc) = sample_doc(trace);
            for v in [&detail, &doc] {
                assert_eq!(JsonValue::parse(&v.render()).as_ref(), Ok(v));
                assert_eq!(JsonValue::parse(&check::pretty(v)).as_ref(), Ok(v));
            }
        }
        let (_, doc) = sample_doc(false);
        assert_eq!(compare(&doc, &doc), 0, "a run is within bound of itself");
    }

    #[test]
    fn output_names_exactly_what_benchmark_json_lists() {
        let spec = JsonValue::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let list = |key: &str| -> Vec<(String, String, String)> {
            spec.get(key)
                .and_then(JsonValue::as_array)
                .expect("a list")
                .iter()
                .map(|m| {
                    let f = |k| {
                        m.get(k)
                            .and_then(JsonValue::as_str)
                            .unwrap_or("")
                            .to_string()
                    };
                    (f("name"), f("unit"), f("better"))
                })
                .collect()
        };
        let ours = |defs: &[MetricDef]| -> Vec<(String, String, String)> {
            defs.iter()
                .map(|d| {
                    let better = if d.better == Better::Higher {
                        "higher"
                    } else {
                        "lower"
                    };
                    (d.name.into(), d.unit.into(), better.into())
                })
                .collect()
        };
        assert_eq!(list("end_to_end"), ours(&END_TO_END));
        assert_eq!(list("per_layer"), ours(&PER_LAYER));
        let workloads: Vec<(String, String)> = spec
            .get("workloads")
            .and_then(JsonValue::as_array)
            .expect("workloads")
            .iter()
            .map(|w| {
                let f = |k| {
                    w.get(k)
                        .and_then(JsonValue::as_str)
                        .unwrap_or("")
                        .to_string()
                };
                (f("name"), f("why"))
            })
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.into(), w.why.into()))
            .collect();
        assert_eq!(workloads, ours);
        for trace in [false, true] {
            let (detail, _) = sample_doc(trace);
            let names: Vec<&str> = match detail.get("metrics") {
                Some(JsonValue::Object(pairs)) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
                _ => panic!("metrics object"),
            };
            let key = if trace { "per_layer" } else { "end_to_end" };
            let listed: Vec<String> = list(key).into_iter().map(|(n, _, _)| n).collect();
            assert_eq!(names, listed);
        }
        assert_eq!(
            bounds().iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>(),
            END_TO_END.iter().map(|d| d.name).collect::<Vec<_>>()
        );
    }
}
