//! The published outputs' digests, pinned in `golden/published.json`.
//!
//! The file maps each check (a figure grid, or a binary's stdout) to its
//! labels' FNV-1a-64 digests, in hex. `group_oracle` digests every record
//! of the Figs 4–7 `--quick` grids it renders; `published_outputs`
//! digests the stdout of the other result binaries.
//!
//! On a mismatch the test writes a fresh golden file,
//! `published-<test>.json` under `CARGO_TARGET_TMPDIR`: the committed file
//! with every failing check of that test binary replaced by its fresh
//! digests. If the change is meant to alter the outputs, copy it over
//! `published.json` (when both test binaries fail, take each one's checks
//! from its own file). Re-bless from a release run: debug builds check
//! only part of the figure grids.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Mutex;

use xmem_sim::JsonValue;

/// Check → label → digest.
type Digests = BTreeMap<String, BTreeMap<String, String>>;

/// The fresh golden file this test binary has written so far (`None`
/// until its first mismatch).
static FRESH: Mutex<Option<Digests>> = Mutex::new(None);

/// FNV-1a-64 of `text`, in hex (as xmembench digests its points).
pub fn digest(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in text.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

fn committed() -> Digests {
    let doc = JsonValue::parse(include_str!("published.json")).expect("published.json parses");
    let JsonValue::Object(checks) = doc else {
        panic!("published.json is an object of checks")
    };
    checks
        .into_iter()
        .map(|(check, labels)| {
            let JsonValue::Object(labels) = labels else {
                panic!("{check}: an object of labels")
            };
            let labels = labels
                .into_iter()
                .map(|(label, d)| {
                    let d = d
                        .as_str()
                        .unwrap_or_else(|| panic!("{check}/{label}: a string"));
                    (label, d.to_string())
                })
                .collect();
            (check, labels)
        })
        .collect()
}

/// `digests` as a golden file, one label per line.
fn render(digests: &Digests) -> String {
    let key = |k: &str| JsonValue::Str(k.to_string()).render();
    let checks: Vec<String> = digests
        .iter()
        .map(|(check, labels)| {
            let lines: Vec<String> = labels
                .iter()
                .map(|(label, d)| format!("    {}: \"{d}\"", key(label)))
                .collect();
            format!("  {}: {{\n{}\n  }}", key(check), lines.join(",\n"))
        })
        .collect();
    format!("{{\n{}\n}}\n", checks.join(",\n"))
}

/// Checks `fresh`, the (label, digest) pairs of `check`, against the
/// committed file. Every fresh label must be committed with the same
/// digest; when `complete`, `fresh` must also hold every committed label.
///
/// # Panics
///
/// Panics on a mismatch, naming the check, the first differing label and
/// the fresh golden file it wrote.
pub fn verify(check: &str, fresh: Vec<(String, String)>, complete: bool) {
    let mut ours = BTreeMap::new();
    for (label, d) in fresh {
        assert!(
            ours.insert(label.clone(), d).is_none(),
            "{check}: label {label} appears twice"
        );
    }
    let committed = committed();
    let empty = BTreeMap::new();
    let want = committed.get(check).unwrap_or(&empty);
    let changed = ours
        .iter()
        .find(|&(label, d)| want.get(label) != Some(d))
        .map(|(label, _)| label.clone());
    let gone = want
        .keys()
        .find(|label| complete && !ours.contains_key(*label))
        .cloned();
    let Some(label) = changed.or(gone) else {
        return;
    };

    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("published-{}.json", env!("CARGO_CRATE_NAME")));
    {
        let mut fresh = FRESH.lock().unwrap_or_else(|e| e.into_inner());
        let digests = fresh.get_or_insert_with(|| committed.clone());
        let section = digests.entry(check.to_string()).or_default();
        if complete {
            section.clear();
        }
        section.extend(ours);
        std::fs::write(&path, render(digests)).expect("fresh golden file written");
    }
    panic!(
        "{check}: {label} does not match golden/published.json; the fresh golden file is {}",
        path.display()
    );
}
