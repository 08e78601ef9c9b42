//! # xmem-bench — the harness that regenerates the paper's figures
//!
//! One binary per figure/table (run with `cargo run --release -p xmem-bench
//! --bin <name>`):
//!
//! | Binary | Reproduces | Paper reference |
//! |---|---|---|
//! | `fig4` | Execution time vs. tile size, Baseline vs. XMem, 12 kernels | Fig 4, §5.4 |
//! | `fig5` | Performance portability across cache sizes | Fig 5, §5.4 |
//! | `fig6` | XMem vs. XMem-Pref across memory bandwidths | Fig 6, §5.4 |
//! | `fig7` | DRAM placement speedup, 27 workloads (+ Fig 8 latencies) | Fig 7–8, §6.4 |
//! | `overheads` | Storage / instruction / ALB / context-switch overheads | §4.2, §4.4 |
//!
//! The simulator's own speed is measured by the `xmembench` suite, not
//! here. All parameters here are the *scaled* configuration described in
//! DESIGN.md; `--quick` shrinks problem sizes further for smoke runs.

#![warn(missing_docs)]

pub mod grids;

use workloads::polybench::KernelParams;

/// The scaled L3 capacity used for the Fig 4 / Fig 6 experiments (the
/// paper's 8 MB scaled alongside the rest of the hierarchy).
pub const UC1_L3: u64 = 32 << 10;

/// The L3 the Fig 5 binaries are "tuned" for (the paper's 2 MB analogue);
/// portability is tested on this, half, and a quarter of it.
pub const FIG5_L3: u64 = 64 << 10;

/// Problem size for use-case-1 kernels (matrices of `n²` doubles).
pub const UC1_N: usize = 96;

/// Stencil time steps for use-case-1 kernels.
pub const UC1_STEPS: usize = 12;

/// Default kernel parameters at a given tile size.
pub fn uc1_params(n: usize, tile_bytes: u64) -> KernelParams {
    KernelParams {
        n,
        tile_bytes,
        steps: UC1_STEPS,
        reuse: 200,
    }
}

/// The tile-size sweep of Fig 4 (64 B up to ~4× the scaled L3, the analogue
/// of the paper's 64 B – 8 MB range).
pub fn fig4_tiles() -> Vec<u64> {
    vec![
        64,
        256,
        1 << 10,
        4 << 10,
        8 << 10,
        16 << 10,
        32 << 10,
        64 << 10,
        128 << 10,
    ]
}

/// Geometric mean of a non-empty slice.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of empty slice");
    let log_sum: f64 = xs.iter().map(|x| x.max(1e-12).ln()).sum();
    (log_sum / xs.len() as f64).exp()
}

/// Arithmetic mean of a non-empty slice.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "mean of empty slice");
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Prints a Markdown-ish table: header row, separator, then data rows.
pub fn print_table(headers: &[String], rows: &[Vec<String>]) {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        let mut s = String::from("|");
        for (i, cell) in cells.iter().enumerate().take(cols) {
            s.push_str(&format!(" {:>w$} |", cell, w = widths[i]));
        }
        s
    };
    println!("{}", fmt_row(headers));
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    println!("{}", fmt_row(&sep));
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Formats a byte count compactly (64B, 4KB, 2MB).
pub fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 20 && b.is_multiple_of(1 << 20) {
        format!("{}MB", b >> 20)
    } else if b >= 1 << 10 && b.is_multiple_of(1 << 10) {
        format!("{}KB", b >> 10)
    } else {
        format!("{b}B")
    }
}

/// Returns `true` if `--quick` was passed (smaller problem sizes).
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

pub mod reports {
    //! Shared structured-report emission for the bench binaries.
    //!
    //! Every figure binary prints its human-readable table to stdout and,
    //! through a [`ReportWriter`], also serializes the underlying
    //! [`RunRecord`]s with the shared sinks:
    //!
    //! * JSON (`xmem-report-v1`) is always written, to
    //!   `target/xmem-reports/<bin>.json` by default;
    //! * `--csv` additionally writes the flat CSV table next to it;
    //! * `--report-dir=DIR` redirects both — and, being an explicit
    //!   durable location, turns on per-point streaming and resume: each
    //!   finished point lands in `DIR/<bin>.points/` as it completes, and
    //!   a re-run reloads finished labels instead of re-simulating them;
    //! * `--no-report` suppresses file output entirely;
    //! * `--epoch[=N]` samples a cross-layer telemetry series every `N`
    //!   retired instructions (default 100 000) into each record's
    //!   `telemetry` block;
    //! * `--sample[=W:D:I]` runs every point in statistical-sampling mode:
    //!   each interval of `I` ops fast-forwards, warms caches/TLB/DRAM for
    //!   `W` ops, then simulates a `D`-op detailed window; measured window
    //!   metrics land in each record's `sampling` block with 95% confidence
    //!   intervals. Bare `--sample` uses the tuned default spec;
    //! * `--trace-out[=PATH]` additionally writes the series as a Chrome
    //!   trace-format JSON (openable in `chrome://tracing` / Perfetto),
    //!   implying `--epoch` when it was not given. The default path is
    //!   `<report dir>/<bin>.trace.json`.

    use cpu_sim::kv::KvValue;
    use std::path::PathBuf;
    use xmem_sim::report_sink::write_report;
    use xmem_sim::{
        ChromeTrace, CsvSink, JsonSink, ReportSink, RunFailure, RunOutcome, RunRecord,
        SamplingSpec, Sweep, DEFAULT_EPOCH_INSTRUCTIONS,
    };

    /// Collects records during a run and writes the report files at the
    /// end.
    #[derive(Debug)]
    pub struct ReportWriter {
        name: String,
        dir: Option<PathBuf>,
        explicit_dir: bool,
        json: JsonSink,
        csv: Option<CsvSink>,
        epoch: Option<u64>,
        sampling: Option<SamplingSpec>,
        trace_out: Option<PathBuf>,
        trace: ChromeTrace,
    }

    impl ReportWriter {
        /// A writer for the binary `name`, configured from `std::env::args`
        /// (see the module docs for the flags).
        pub fn new(name: &str) -> Self {
            let mut dir = Some(PathBuf::from("target/xmem-reports"));
            let mut explicit_dir = false;
            let mut csv = None;
            let mut epoch = None;
            let mut sampling = None;
            let mut trace_requested = false;
            let mut trace_path = None;
            for arg in std::env::args() {
                if arg == "--no-report" {
                    dir = None;
                    explicit_dir = false;
                } else if let Some(d) = arg.strip_prefix("--report-dir=") {
                    dir = Some(PathBuf::from(d));
                    explicit_dir = true;
                } else if arg == "--csv" {
                    csv = Some(CsvSink::new());
                } else if arg == "--epoch" {
                    epoch = Some(DEFAULT_EPOCH_INSTRUCTIONS);
                } else if let Some(n) = arg.strip_prefix("--epoch=") {
                    match n.parse::<u64>() {
                        Ok(n) if n > 0 => epoch = Some(n),
                        _ => {
                            eprintln!("--epoch wants a positive instruction count, got '{n}'");
                            std::process::exit(2);
                        }
                    }
                } else if arg == "--sample" {
                    sampling = Some(SamplingSpec::DEFAULT);
                } else if let Some(spec) = arg.strip_prefix("--sample=") {
                    match SamplingSpec::parse(spec) {
                        Ok(s) => sampling = Some(s),
                        Err(e) => {
                            eprintln!("--sample wants WARMUP:WINDOW:INTERVAL: {e}");
                            std::process::exit(2);
                        }
                    }
                } else if arg == "--trace-out" {
                    trace_requested = true;
                } else if let Some(p) = arg.strip_prefix("--trace-out=") {
                    trace_requested = true;
                    trace_path = Some(PathBuf::from(p));
                }
            }
            // A trace without sampling would be empty; imply the default
            // epoch so `--trace-out` works on its own.
            if trace_requested && epoch.is_none() {
                epoch = Some(DEFAULT_EPOCH_INSTRUCTIONS);
            }
            let trace_out = trace_requested.then(|| {
                trace_path.unwrap_or_else(|| {
                    dir.clone()
                        .unwrap_or_else(|| PathBuf::from("target/xmem-reports"))
                        .join(format!("{name}.trace.json"))
                })
            });
            ReportWriter {
                name: name.to_string(),
                dir,
                explicit_dir,
                json: JsonSink::new(),
                csv,
                epoch,
                sampling,
                trace_out,
                trace: ChromeTrace::new(),
            }
        }

        /// The telemetry sampling epoch requested on the command line
        /// (`None` when sampling is off).
        pub fn epoch(&self) -> Option<u64> {
            self.epoch
        }

        /// The sampling spec requested on the command line (`None` when
        /// every point runs fully detailed).
        pub fn sampling(&self) -> Option<SamplingSpec> {
            self.sampling
        }

        /// The per-point streaming directory (`DIR/<bin>.points`), active
        /// only under an explicit `--report-dir`: an explicit directory is
        /// durable sweep state worth resuming from, the default
        /// `target/xmem-reports` is not (stale points from an earlier
        /// differently-sized run would linger there unnoticed).
        pub fn points_dir(&self) -> Option<PathBuf> {
            if !self.explicit_dir {
                return None;
            }
            self.dir
                .as_ref()
                .map(|d| d.join(format!("{}.points", self.name)))
        }

        /// Wires a sweep to this writer: a progress line on stderr and,
        /// under an explicit `--report-dir`, per-point streaming plus
        /// resume of already-finished labels.
        pub fn sweep(&self, sweep: Sweep) -> Sweep {
            // Epoch and sampling before resume: stored points are only
            // adopted when their telemetry epoch and sampling spec match
            // this run's setup.
            let sweep = sweep
                .progress(&self.name)
                .epoch(self.epoch)
                .sampling(self.sampling);
            match self.points_dir() {
                Some(dir) => sweep.resume_from(dir),
                None => sweep,
            }
        }

        /// Adds one record.
        pub fn emit(&mut self, record: &RunRecord) {
            self.emit_with(record, &[]);
        }

        /// Adds one record with derived extras (speedups etc.).
        ///
        /// A sink rejecting the record (e.g. ragged CSV columns) is a bug
        /// in the figure binary's emit sequence, not a run-time condition:
        /// the typed error is printed with the offending label and the
        /// process exits 2 instead of panicking mid-report.
        pub fn emit_with(&mut self, record: &RunRecord, extras: &[(&'static str, KvValue)]) {
            if let Err(e) = self.json.emit_with(record, extras) {
                eprintln!("{}: {e}", self.name);
                std::process::exit(2);
            }
            if let Some(csv) = &mut self.csv {
                if let Err(e) = csv.emit_with(record, extras) {
                    eprintln!("{}: {e}", self.name);
                    std::process::exit(2);
                }
            }
            if self.trace_out.is_some() {
                if let Some(series) = &record.telemetry {
                    self.trace
                        .add_series(&record.label, series, record.config.core.freq_ghz);
                }
            }
        }

        /// Writes the report files and prints their paths; `true` when at
        /// least one file was written (`false` under `--no-report`).
        fn write_files(&self) -> bool {
            let mut wrote = false;
            if let Some(dir) = &self.dir {
                let mut sinks: Vec<&dyn ReportSink> = vec![&self.json];
                if let Some(csv) = &self.csv {
                    sinks.push(csv);
                }
                for sink in sinks {
                    let path = dir.join(format!("{}.{}", self.name, sink.extension()));
                    match write_report(&path, sink) {
                        Ok(()) => {
                            println!("\nwrote {}", path.display());
                            wrote = true;
                        }
                        Err(e) => eprintln!("\nfailed to write {}: {e}", path.display()),
                    }
                }
            }
            // The Chrome trace is written even when empty (still a valid
            // document) and independently of `--no-report`: an explicit
            // `--trace-out=PATH` is its own request.
            if let Some(path) = &self.trace_out {
                let write = || -> std::io::Result<()> {
                    if let Some(parent) = path.parent() {
                        if !parent.as_os_str().is_empty() {
                            std::fs::create_dir_all(parent)?;
                        }
                    }
                    std::fs::write(path, self.trace.render())
                };
                match write() {
                    Ok(()) => {
                        println!("\nwrote {}", path.display());
                        wrote = true;
                    }
                    Err(e) => eprintln!("\nfailed to write {}: {e}", path.display()),
                }
            }
            wrote
        }

        /// Writes the report files and prints their paths.
        pub fn finish(self) {
            self.write_files();
        }
    }

    /// Unwraps sweep outcomes into the records a figure table needs.
    ///
    /// When every point completed, the records come back in spec order.
    /// Otherwise the failures are listed on stderr, the completed records
    /// are *salvaged* — emitted through `writer` (without the per-figure
    /// derived extras) and written out immediately — and the process exits
    /// nonzero. Under an explicit `--report-dir` the completed points have
    /// additionally been streamed as they finished, so a re-run with the
    /// same flags resumes them and repeats only the failed labels.
    pub fn require_complete(
        writer: &mut ReportWriter,
        outcomes: Vec<RunOutcome>,
    ) -> Vec<RunRecord> {
        let total = outcomes.len();
        let mut records = Vec::with_capacity(total);
        let mut failures: Vec<RunFailure> = Vec::new();
        for outcome in outcomes {
            match outcome {
                RunOutcome::Completed(r) | RunOutcome::Resumed(r) => records.push(r),
                RunOutcome::Failed(f) => failures.push(f),
            }
        }
        if !failures.is_empty() {
            eprintln!("{} of {total} points failed:", failures.len());
            for f in &failures {
                eprintln!("  {}: {}", f.label, f.message);
            }
            for r in &records {
                writer.emit(r);
            }
            let salvaged = writer.write_files();
            if let Some(dir) = writer.points_dir() {
                eprintln!(
                    "completed points are streamed in {}; re-running with the same \
                     flags resumes them and repeats only the failed labels",
                    dir.display()
                );
            } else if salvaged {
                eprintln!(
                    "completed records were salvaged to the report files above \
                     (pass --report-dir=DIR for per-point streaming and resume)"
                );
            } else {
                eprintln!(
                    "completed records were discarded (--no-report; pass \
                     --report-dir=DIR to keep and resume them)"
                );
            }
            std::process::exit(1);
        }
        records
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_identity() {
        assert!((geomean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn mean_basic() {
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn tiles_are_sorted_and_bracket_l3() {
        let tiles = fig4_tiles();
        assert!(tiles.windows(2).all(|w| w[0] < w[1]));
        assert!(*tiles.first().unwrap() < UC1_L3);
        assert!(*tiles.last().unwrap() > UC1_L3);
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(fmt_bytes(64), "64B");
        assert_eq!(fmt_bytes(4096), "4KB");
        assert_eq!(fmt_bytes(2 << 20), "2MB");
    }
}
