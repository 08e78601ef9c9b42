//! Pins the stdout of the result binaries: each runs as a user would
//! (`--quick` where it has it) and its stdout's digest is checked against
//! `golden/published.json` (see the `golden` module). The figure binaries
//! also write their reports, which must parse and hold one record per
//! point (their records' digests are pinned by `group_oracle`).
//!
//! `corun`, `fig4` and `fig7` take 7–12 s each in a debug build, so they
//! run only in release builds, which CI runs with
//! `cargo test --release -p xmem-bench --test published_outputs`.

mod golden;

use std::ffi::OsStr;
use std::path::PathBuf;
use std::process::Command;

use xmem_bench::grids;
use xmem_sim::{JsonValue, JSON_SCHEMA};

/// The `--quick` problem size of the use-case-1 figures.
const QUICK_N: usize = 48;

/// Runs `bin` with `args` and returns its stdout.
fn stdout_of(name: &str, bin: &str, args: &[impl AsRef<OsStr>]) -> String {
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("{name} does not start: {e}"));
    assert!(
        out.status.success(),
        "{name} exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

/// Runs `bin` with `args` and checks its stdout's digest under the check
/// named after the binary.
fn check(name: &str, bin: &str, args: &[&str]) {
    let stdout = stdout_of(name, bin, args);
    golden::verify(name, vec![("stdout".into(), golden::digest(&stdout))], true);
}

/// A fresh, empty directory for `name`'s reports.
fn report_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("published-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `stdout` without the lines starting with `prefix` (those that name the
/// report directory).
fn without_lines(stdout: &str, prefix: &str) -> String {
    stdout
        .lines()
        .filter(|line| !line.starts_with(prefix))
        .map(|line| format!("{line}\n"))
        .collect()
}

/// Runs figure `name` under `--quick` (plus `--csv` when `csv`) with its
/// reports in a fresh directory. Checks its stdout's digest, less the
/// `wrote …` lines that name that directory, under `<name> --quick`; that
/// the JSON report holds `points` `xmem-report-v1` records; and that the
/// CSV has a header plus one row per point.
fn check_figure(name: &str, bin: &str, points: usize, csv: bool) {
    let dir = report_dir(name);
    let mut args = vec![
        "--quick".to_string(),
        format!("--report-dir={}", dir.display()),
    ];
    if csv {
        args.push("--csv".to_string());
    }
    let stdout = without_lines(&stdout_of(name, bin, &args), "wrote ");
    let check = format!("{name} --quick");
    golden::verify(
        &check,
        vec![("stdout".into(), golden::digest(&stdout))],
        true,
    );

    let read = |ext: &str| {
        let path = dir.join(format!("{name}.{ext}"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    };
    let report = JsonValue::parse(&read("json")).expect("the report parses");
    assert_eq!(
        report.get("schema").and_then(JsonValue::as_str),
        Some(JSON_SCHEMA),
        "{name}: schema"
    );
    let records = report.get("records").and_then(JsonValue::as_array);
    assert_eq!(records.map(<[_]>::len), Some(points), "{name}: records");
    if csv {
        assert_eq!(read("csv").lines().count(), points + 1, "{name}: CSV rows");
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "about 9 s in a debug build; run with --release"
)]
fn fig4() {
    let points = grids::fig4(QUICK_N).len();
    check_figure("fig4", env!("CARGO_BIN_EXE_fig4"), points, true);
}

#[test]
fn fig5() {
    let points = grids::fig5(QUICK_N).len();
    check_figure("fig5", env!("CARGO_BIN_EXE_fig5"), points, false);
}

#[test]
fn fig6() {
    let points = grids::fig6(QUICK_N).len();
    check_figure("fig6", env!("CARGO_BIN_EXE_fig6"), points, false);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "about 12 s in a debug build; run with --release"
)]
fn fig7() {
    // One record per (mix, system): the best mapping of each grid.
    let (_, points) = grids::fig7(&grids::fig7_workloads(true));
    check_figure("fig7", env!("CARGO_BIN_EXE_fig7"), points.len(), false);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "about 7 s in a debug build; run with --release"
)]
fn corun() {
    check("corun", env!("CARGO_BIN_EXE_corun"), &["--quick"]);
}

#[test]
fn corun_placement() {
    let bin = env!("CARGO_BIN_EXE_corun_placement");
    check("corun_placement", bin, &["--quick"]);
}

/// The MESI co-run's stdout (less its `report: …` line) and its JSON
/// report are both pinned, so a run-to-run drift in either fails too.
#[test]
fn corun_shared() {
    let name = "corun_shared";
    let dir = report_dir(name);
    let args = [
        "--quick".to_string(),
        format!("--report-dir={}", dir.display()),
    ];
    let stdout = without_lines(
        &stdout_of(name, env!("CARGO_BIN_EXE_corun_shared"), &args),
        "report: ",
    );
    let path = dir.join("corun_shared.json");
    let report =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    golden::verify(
        name,
        vec![
            ("stdout".into(), golden::digest(&stdout)),
            ("corun_shared.json".into(), golden::digest(&report)),
        ],
        true,
    );
}

#[test]
fn table1() {
    check("table1", env!("CARGO_BIN_EXE_table1"), &[]);
}

#[test]
fn hybrid() {
    check("hybrid", env!("CARGO_BIN_EXE_hybrid"), &[]);
}

#[test]
fn compression() {
    check("compression", env!("CARGO_BIN_EXE_compression"), &[]);
}

#[test]
fn overheads() {
    let bin = env!("CARGO_BIN_EXE_overheads");
    check("overheads", bin, &["--quick", "--no-report"]);
}
