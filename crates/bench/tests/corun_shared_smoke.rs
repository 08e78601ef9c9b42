//! Shared-data co-run smoke: runs the `corun_shared --quick` binary into a
//! fresh report directory and checks the report's shape and the MESI bus
//! invariants (schema, record count, per-core array lengths, transaction
//! accounting, bus silence without coherence, and the coherence-aware
//! placement delta on the mixed scenario).

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

use xmem_sim::JsonValue;

fn u64_at(v: &JsonValue, path: &[&str]) -> u64 {
    let mut cur = v;
    for key in path {
        cur = cur
            .get(key)
            .unwrap_or_else(|| panic!("missing field {path:?}"));
    }
    cur.as_u64()
        .unwrap_or_else(|| panic!("{path:?} is not a u64"))
}

#[test]
fn corun_shared_quick_report_holds_its_invariants() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("corun-shared-smoke");
    let _ = std::fs::remove_dir_all(&dir);
    let out = Command::new(env!("CARGO_BIN_EXE_corun_shared"))
        .arg("--quick")
        .arg(format!("--report-dir={}", dir.display()))
        .output()
        .expect("corun_shared runs");
    assert!(
        out.status.success(),
        "corun_shared exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );

    let text = std::fs::read_to_string(dir.join("corun_shared.json")).expect("report written");
    let doc = JsonValue::parse(&text).expect("report is JSON");
    assert_eq!(
        doc.get("schema").and_then(JsonValue::as_str),
        Some("xmem-report-v1")
    );
    let records: BTreeMap<&str, &JsonValue> = doc
        .get("records")
        .and_then(JsonValue::as_array)
        .expect("records array")
        .iter()
        .map(|r| {
            (
                r.get("label").and_then(JsonValue::as_str).expect("label"),
                r,
            )
        })
        .collect();
    assert_eq!(records.len(), 12, "{:?}", records.keys());

    for (label, r) in &records {
        let n = u64_at(r, &["config", "cores"]) as usize;
        for per_core in ["cores", "l1s", "l2s"] {
            let len = r
                .get(per_core)
                .and_then(JsonValue::as_array)
                .map(<[_]>::len);
            assert_eq!(len, Some(n), "{label}: {per_core}");
        }
        let bus = |field| u64_at(r, &["bus", field]);
        let transactions = bus("transactions");
        assert_eq!(
            transactions,
            bus("bus_rd") + bus("bus_rdx") + bus("bus_upgr"),
            "{label}"
        );
        match r
            .get("config")
            .and_then(|c| c.get("coherence"))
            .and_then(JsonValue::as_str)
        {
            Some("none") => assert_eq!(transactions, 0, "{label}"),
            Some("mesi") => assert!(transactions > 0, "{label}"),
            other => panic!("{label}: coherence {other:?}"),
        }
    }

    let subject_cycles = |label: &str| u64_at(records[label], &["extras", "subject_cycles"]);
    let (aware, naive) = (
        subject_cycles("mixed/mesi"),
        subject_cycles("mixed/mesi-naive"),
    );
    assert!(
        naive > aware,
        "no placement delta: aware {aware}, naive {naive}"
    );
}
