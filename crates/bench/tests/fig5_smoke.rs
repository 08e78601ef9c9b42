//! `fig5 --quick` smoke runs, each into a fresh report directory:
//!
//! * resume: a sweep killed with SIGKILL after streaming its first point
//!   finishes on a re-run, reusing the streamed points;
//! * telemetry: `--epoch` puts an equal-length series on every record, and
//!   `--trace-out` writes a Chrome trace with counter events;
//! * sampling: every `--sample` record carries a well-formed `sampling`
//!   block, and the median relative IPC error against the full run stays
//!   under 25%.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

use xmem_sim::JsonValue;

/// An empty report directory for one test.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `fig5 --quick ARGS --report-dir=DIR`.
fn fig5(dir: &Path, args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_fig5"));
    cmd.arg("--quick")
        .args(args)
        .arg(format!("--report-dir={}", dir.display()));
    cmd
}

/// Runs `cmd` to completion and returns the `fig5.json` it wrote to `dir`.
fn run_to_report(mut cmd: Command, dir: &Path) -> JsonValue {
    let out = cmd.output().expect("fig5 runs");
    assert!(
        out.status.success(),
        "fig5 exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    read_json(&dir.join("fig5.json"))
}

fn read_json(path: &Path) -> JsonValue {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    JsonValue::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The report's records, after checking its schema and that it has some.
fn records(doc: &JsonValue) -> &[JsonValue] {
    assert_eq!(
        doc.get("schema").and_then(JsonValue::as_str),
        Some("xmem-report-v1")
    );
    let records = doc
        .get("records")
        .and_then(JsonValue::as_array)
        .expect("records array");
    assert!(!records.is_empty(), "report has no records");
    records
}

fn at<'a>(v: &'a JsonValue, path: &[&str]) -> &'a JsonValue {
    path.iter().fold(v, |cur, key| {
        cur.get(key)
            .unwrap_or_else(|| panic!("missing field {path:?}"))
    })
}

fn u64_at(v: &JsonValue, path: &[&str]) -> u64 {
    at(v, path)
        .as_u64()
        .unwrap_or_else(|| panic!("{path:?} is not a u64"))
}

fn f64_at(v: &JsonValue, path: &[&str]) -> f64 {
    at(v, path)
        .as_f64()
        .unwrap_or_else(|| panic!("{path:?} is not a number"))
}

fn label(record: &JsonValue) -> &str {
    at(record, &["label"]).as_str().expect("label is a string")
}

#[test]
fn killed_sweep_resumes_from_streamed_points() {
    let dir = fresh_dir("fig5-resume-smoke");
    let points = dir.join("fig5.points");
    let sweep = || {
        let mut cmd = fig5(&dir, &[]);
        cmd.env("XMEM_WORKERS", "2");
        cmd
    };
    let mut child = sweep()
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("fig5 starts");
    // SIGKILL the sweep as soon as it has streamed one finished point.
    // Point files are renamed into place whole, so any `.json` is complete.
    loop {
        if let Some(status) = child.try_wait().expect("poll fig5") {
            panic!("fig5 exited ({status}) before it streamed a point");
        }
        let streamed = std::fs::read_dir(&points).is_ok_and(|entries| {
            entries
                .flatten()
                .any(|e| e.path().extension().is_some_and(|x| x == "json"))
        });
        if streamed {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    child.kill().expect("SIGKILL fig5");
    child.wait().expect("reap fig5");

    let doc = run_to_report(sweep(), &dir);
    let outcomes: Vec<&str> = records(&doc)
        .iter()
        .map(|r| at(r, &["run", "outcome"]).as_str().expect("outcome"))
        .collect();
    assert!(
        outcomes.iter().all(|o| matches!(*o, "ok" | "resumed")),
        "{outcomes:?}"
    );
    let resumed = outcomes.iter().filter(|&&o| o == "resumed").count();
    println!("{} records, {resumed} resumed", outcomes.len());
    assert!(resumed > 0, "no point was resumed: {outcomes:?}");
}

#[test]
fn epoch_telemetry_and_chrome_trace() {
    let dir = fresh_dir("fig5-telemetry-smoke");
    let trace_path = dir.join("fig5.trace.json");
    let trace_flag = format!("--trace-out={}", trace_path.display());
    let doc = run_to_report(fig5(&dir, &["--epoch=10000", &trace_flag]), &dir);
    for r in records(&doc) {
        let t = r
            .get("telemetry")
            .unwrap_or_else(|| panic!("{}: telemetry block missing", label(r)));
        assert_eq!(u64_at(t, &["epoch_instructions"]), 10_000, "{}", label(r));
        let JsonValue::Object(series) = at(t, &["series"]) else {
            panic!("{}: series is not an object", label(r));
        };
        let lens: Vec<usize> = series
            .iter()
            .map(|(_, v)| v.as_array().expect("series column").len())
            .collect();
        let n = at(t, &["series", "instructions"])
            .as_array()
            .expect("instructions column")
            .len();
        assert!(
            n > 0 && lens.iter().all(|&len| len == n),
            "{}: series lengths {lens:?}",
            label(r)
        );
    }
    let trace = read_json(&trace_path);
    let events = at(&trace, &["traceEvents"])
        .as_array()
        .expect("traceEvents array");
    assert!(
        events
            .iter()
            .any(|e| e.get("ph").and_then(JsonValue::as_str) == Some("C")),
        "no counter events"
    );
}

#[test]
fn sampled_ipc_tracks_the_full_run() {
    let full_dir = fresh_dir("fig5-sampled-smoke-full");
    let full_doc = run_to_report(fig5(&full_dir, &[]), &full_dir);
    let full_ipc: BTreeMap<&str, f64> = records(&full_doc)
        .iter()
        .map(|r| (label(r), f64_at(r, &["derived", "ipc"])))
        .collect();

    let dir = fresh_dir("fig5-sampled-smoke");
    let doc = run_to_report(fig5(&dir, &["--sample"]), &dir);
    let mut errs = Vec::new();
    for r in records(&doc) {
        let label = label(r);
        let s = at(r, &["sampling"]);
        let windows = u64_at(s, &["windows"]);
        assert!(
            u64_at(s, &["spec", "interval"]) > 0 && windows > 0,
            "{label}"
        );
        let coverage = f64_at(s, &["coverage"]);
        assert!(0.0 < coverage && coverage <= 1.0, "{label}: {coverage}");
        assert!(
            u64_at(s, &["detailed_ops"]) + u64_at(s, &["warm_ops"]) <= u64_at(s, &["total_ops"]),
            "{label}"
        );
        let clustered: u64 = at(s, &["clusters"])
            .as_array()
            .expect("clusters array")
            .iter()
            .map(|c| u64_at(c, &["windows"]))
            .sum();
        assert_eq!(clustered, windows, "{label}");
        for name in [
            "ipc",
            "l1_mpki",
            "l2_mpki",
            "l3_mpki",
            "row_hit_rate",
            "alb_hit_rate",
        ] {
            let stat = |field| f64_at(s, &["metrics", name, field]);
            assert!(
                stat("min") <= stat("mean") && stat("mean") <= stat("max"),
                "{label}: {name}"
            );
        }
        let full = *full_ipc
            .get(label)
            .unwrap_or_else(|| panic!("{label}: not in the full run"));
        assert!(full > 0.0, "{label}: full-run IPC {full}");
        let sampled = f64_at(s, &["metrics", "ipc", "mean"]);
        errs.push(((sampled - full).abs() / full, label));
    }
    errs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let n = errs.len();
    let median = if n % 2 == 1 {
        errs[n / 2].0
    } else {
        (errs[n / 2 - 1].0 + errs[n / 2].0) / 2.0
    };
    let (worst, worst_label) = errs[n - 1];
    println!(
        "{n} records: median IPC error {:.1}%, worst {:.1}% ({worst_label})",
        median * 100.0,
        worst * 100.0
    );
    assert!(
        median < 0.25,
        "median sampled IPC error {:.1}% out of bounds",
        median * 100.0
    );
}
