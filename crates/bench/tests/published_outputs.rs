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

/// Runs figure `name` under `--quick` (plus `--csv` when `csv`) with its
/// reports in a fresh directory. Checks its stdout's digest, less the
/// `wrote …` lines that name that directory, under `<name> --quick`; that
/// the JSON report holds `points` `xmem-report-v1` records; and that the
/// CSV has a header plus one row per point.
fn check_figure(name: &str, bin: &str, points: usize, csv: bool) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("published-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    let mut args = vec![
        "--quick".to_string(),
        format!("--report-dir={}", dir.display()),
    ];
    if csv {
        args.push("--csv".to_string());
    }
    let stdout: String = stdout_of(name, bin, &args)
        .lines()
        .filter(|line| !line.starts_with("wrote "))
        .map(|line| format!("{line}\n"))
        .collect();
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

#[test]
fn corun_shared() {
    let bin = env!("CARGO_BIN_EXE_corun_shared");
    check("corun_shared", bin, &["--quick", "--no-report"]);
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
