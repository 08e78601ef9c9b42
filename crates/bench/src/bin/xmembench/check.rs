//! Output checking: per-point digests and the committed golden file.
//!
//! A point's digest is FNV-1a-64 over its `xmem-report-v1` record with the
//! `run` block (wall time, worker) removed — the byte-identity standard the
//! determinism suite uses. `golden.json` holds the digests of every point
//! for seeds 1 and 2, plus each uc1 point's full-run instructions and
//! cycles (the reference the sampled IPC estimate is scored against).

use std::collections::BTreeMap;

use cpu_sim::kv::KvPairs;
use xmem_sim::{CorunReport, JsonValue, RunRecord};

use crate::suite::PointRun;

/// The committed golden file.
pub const GOLDEN: &str = include_str!("golden.json");

/// Schema tag of the golden file.
const GOLDEN_SCHEMA: &str = "xmembench-golden-v1";

/// FNV-1a, 64-bit.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The digest of a single-core point: its record without the `run` block.
pub fn record_digest(record: &RunRecord) -> u64 {
    let JsonValue::Object(mut fields) = record.to_json() else {
        unreachable!("records render as objects")
    };
    fields.retain(|(k, _)| k != "run");
    fnv1a64(JsonValue::Object(fields).render().as_bytes())
}

/// The digest of a co-run point: every counter `CorunReport` carries.
pub fn corun_digest(label: &str, r: &CorunReport) -> u64 {
    let each =
        |kvs: Vec<KvPairs>| JsonValue::Array(kvs.into_iter().map(JsonValue::from_kv).collect());
    let doc = JsonValue::object([
        ("label", JsonValue::Str(label.to_string())),
        ("cores", each(r.cores.iter().map(|c| c.kv()).collect())),
        ("l1s", each(r.l1s.iter().map(|c| c.kv()).collect())),
        ("l2s", each(r.l2s.iter().map(|c| c.kv()).collect())),
        ("l3", JsonValue::from_kv(r.l3.kv())),
        ("dram", JsonValue::from_kv(r.dram.kv())),
        (
            "alb",
            JsonValue::object([
                ("hits", JsonValue::U64(r.alb.hits)),
                ("misses", JsonValue::U64(r.alb.misses)),
            ]),
        ),
        ("bus", JsonValue::from_kv(r.bus.kv())),
    ]);
    fnv1a64(doc.render().as_bytes())
}

/// Digests as the golden file spells them.
pub fn hex(d: u64) -> String {
    format!("{d:016x}")
}

/// The golden file, parsed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Golden {
    /// seed → workload → label → digest.
    pub digests: BTreeMap<u64, BTreeMap<String, BTreeMap<String, u64>>>,
    /// uc1 label → (instructions, cycles) of the full-detail run.
    pub uc1_full: BTreeMap<String, (u64, u64)>,
}

impl Golden {
    /// Parses a golden document; `Err` names what is malformed.
    pub fn parse(text: &str) -> Result<Golden, String> {
        let doc = JsonValue::parse(text).map_err(|e| e.to_string())?;
        if doc.get("schema").and_then(JsonValue::as_str) != Some(GOLDEN_SCHEMA) {
            return Err(format!("golden: schema is not {GOLDEN_SCHEMA}"));
        }
        let object = |v: Option<&JsonValue>, what: &str| match v {
            Some(JsonValue::Object(pairs)) => Ok(pairs.clone()),
            _ => Err(format!("golden: {what} is not an object")),
        };
        let mut g = Golden::default();
        for (seed, workloads) in object(doc.get("seeds"), "seeds")? {
            let seed: u64 = seed
                .parse()
                .map_err(|_| format!("golden: seed '{seed}' is not a number"))?;
            let per_seed = g.digests.entry(seed).or_default();
            for (workload, points) in object(Some(&workloads), "a seed entry")? {
                let per_workload = per_seed.entry(workload).or_default();
                for (label, digest) in object(Some(&points), "a workload entry")? {
                    let d = digest
                        .as_str()
                        .and_then(|s| u64::from_str_radix(s, 16).ok())
                        .ok_or_else(|| format!("golden: bad digest for '{label}'"))?;
                    per_workload.insert(label, d);
                }
            }
        }
        for (label, v) in object(doc.get("uc1_full"), "uc1_full")? {
            let field = |k| v.get(k).and_then(JsonValue::as_u64);
            let (Some(i), Some(c)) = (field("instructions"), field("cycles")) else {
                return Err(format!("golden: bad uc1_full entry for '{label}'"));
            };
            g.uc1_full.insert(label, (i, c));
        }
        Ok(g)
    }

    /// The golden document.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("schema", JsonValue::Str(GOLDEN_SCHEMA.to_string())),
            (
                "digest",
                JsonValue::Str(
                    "FNV-1a-64 of the point's xmem-report-v1 record without its run block"
                        .to_string(),
                ),
            ),
            (
                "seeds",
                JsonValue::object(self.digests.iter().map(|(seed, workloads)| {
                    (
                        seed.to_string(),
                        JsonValue::object(workloads.iter().map(|(w, points)| {
                            (
                                w.clone(),
                                JsonValue::object(
                                    points
                                        .iter()
                                        .map(|(l, d)| (l.clone(), JsonValue::Str(hex(*d)))),
                                ),
                            )
                        })),
                    )
                })),
            ),
            (
                "uc1_full",
                JsonValue::object(self.uc1_full.iter().map(|(l, &(i, c))| {
                    (
                        l.clone(),
                        JsonValue::object([
                            ("instructions", JsonValue::U64(i)),
                            ("cycles", JsonValue::U64(c)),
                        ]),
                    )
                })),
            ),
        ])
    }

    /// The full-run IPC of a uc1 point, when the golden file has it.
    pub fn full_ipc(&self, label: &str) -> Option<f64> {
        let &(i, c) = self.uc1_full.get(label)?;
        (c > 0).then(|| i as f64 / c as f64)
    }
}

/// Checks passes of one workload: against the golden digests for `seed`
/// when the golden file has them, otherwise against the first pass.
/// Returns `(attempted, failures)`, each failure a `label: reason` line.
pub fn check_passes(
    golden: &Golden,
    seed: u64,
    workload: &str,
    passes: &[&[PointRun]],
) -> (u64, Vec<String>) {
    let expected: Option<&BTreeMap<String, u64>> =
        golden.digests.get(&seed).and_then(|w| w.get(workload));
    let mut first: BTreeMap<&str, u64> = BTreeMap::new();
    let mut attempted = 0;
    let mut failures = Vec::new();
    for (pi, points) in passes.iter().enumerate() {
        for p in points.iter() {
            attempted += 1;
            let d = match &p.digest {
                Ok(d) => *d,
                Err(msg) => {
                    failures.push(format!("{} (pass {pi}): panicked: {msg}", p.label));
                    continue;
                }
            };
            let want = match expected {
                Some(map) => map.get(&p.label).copied(),
                None => Some(*first.entry(&p.label).or_insert(d)),
            };
            match want {
                Some(w) if w == d => {}
                Some(w) => failures.push(format!(
                    "{} (pass {pi}): digest {} != expected {}",
                    p.label,
                    hex(d),
                    hex(w)
                )),
                None => failures.push(format!("{} (pass {pi}): not in golden.json", p.label)),
            }
        }
    }
    (attempted, failures)
}

/// Renders JSON with one member per line (for files people diff).
pub fn pretty(v: &JsonValue) -> String {
    fn go(v: &JsonValue, depth: usize, out: &mut String) {
        let pad = |d: usize| "  ".repeat(d);
        match v {
            JsonValue::Object(pairs) if !pairs.is_empty() => {
                out.push_str("{\n");
                for (i, (k, x)) in pairs.iter().enumerate() {
                    out.push_str(&pad(depth + 1));
                    out.push_str(&JsonValue::Str(k.clone()).render());
                    out.push_str(": ");
                    go(x, depth + 1, out);
                    out.push_str(if i + 1 < pairs.len() { ",\n" } else { "\n" });
                }
                out.push_str(&pad(depth));
                out.push('}');
            }
            other => out.push_str(&other.render()),
        }
    }
    let mut out = String::new();
    go(v, 0, &mut out);
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::polybench::{KernelParams, PolybenchKernel};
    use xmem_sim::{RunMeta, RunSpec, SystemConfig, SystemKind, WorkloadSpec};

    fn small_record() -> RunRecord {
        let p = KernelParams {
            n: 16,
            tile_bytes: 1024,
            steps: 1,
            reuse: 200,
        };
        let spec = RunSpec::new(
            "mvt/XMem",
            SystemConfig::scaled_use_case1(8 << 10, SystemKind::Xmem),
            WorkloadSpec::kernel(PolybenchKernel::Mvt, p),
        );
        xmem_sim::Sweep::new(vec![spec]).workers(1).run().remove(0)
    }

    #[test]
    fn digest_ignores_the_run_block_and_sees_every_counter() {
        let r = small_record();
        let d = record_digest(&r);
        let mut other_run = r.clone();
        other_run.run = Some(RunMeta {
            wall_nanos: 1,
            worker: 7,
            resumed: true,
        });
        assert_eq!(record_digest(&other_run), d, "the run block is ignored");
        let mut no_run = r.clone();
        no_run.run = None;
        assert_eq!(record_digest(&no_run), d);

        let bumps: [fn(&mut xmem_sim::RunReport); 6] = [
            |r| r.core.cycles += 1,
            |r| r.l1.hits += 1,
            |r| r.l3.writebacks += 1,
            |r| r.dram.row_hits += 1,
            |r| r.alb.misses += 1,
            |r| r.xmem_prefetch.useful += 1,
        ];
        for bump in bumps {
            let mut changed = r.clone();
            bump(&mut changed.report);
            assert_ne!(record_digest(&changed), d);
        }
    }

    #[test]
    fn golden_round_trips_and_rejects_garbage() {
        let mut g = Golden::default();
        g.digests
            .entry(1)
            .or_default()
            .entry("uc1-tuned".into())
            .or_default()
            .insert("gemm/XMem/L3=64KB".into(), u64::MAX - 5);
        g.uc1_full.insert("gemm/XMem/L3=64KB".into(), (300, 200));
        let text = pretty(&g.to_json());
        assert_eq!(Golden::parse(&text), Ok(g.clone()));
        assert_eq!(g.full_ipc("gemm/XMem/L3=64KB"), Some(1.5));
        assert!(Golden::parse("{}").is_err());
        assert!(Golden::parse(&text.replace("fffffffffffffffa", "zz")).is_err());
    }

    #[test]
    fn the_committed_golden_file_parses() {
        let g = Golden::parse(GOLDEN).expect("golden.json parses");
        for seed in [1, 2] {
            for w in crate::suite::WORKLOADS {
                assert!(
                    !g.digests[&seed][w.name].is_empty(),
                    "seed {seed} {} has digests",
                    w.name
                );
            }
        }
        assert_eq!(g.uc1_full.len(), 72);
    }

    fn point(label: &str, digest: u64) -> PointRun {
        PointRun {
            label: label.into(),
            digest: Ok(digest),
            ipc_est: None,
            report: None,
        }
    }

    #[test]
    fn corrupted_golden_digest_fails_the_point() {
        let mut g = Golden::default();
        let good = [point("a", 1), point("b", 2)];
        g.digests
            .entry(1)
            .or_default()
            .insert("w".into(), [("a".into(), 1), ("b".into(), 2)].into());
        assert_eq!(check_passes(&g, 1, "w", &[&good, &good]), (4, vec![]));
        // Corrupt one golden digest: both passes of that point fail.
        g.digests
            .get_mut(&1)
            .unwrap()
            .get_mut("w")
            .unwrap()
            .insert("b".into(), 3);
        let (attempted, failures) = check_passes(&g, 1, "w", &[&good, &good]);
        assert_eq!(attempted, 4);
        assert_eq!(failures.len(), 2);
        assert!(failures[0].starts_with("b (pass 0)"), "{failures:?}");
    }

    #[test]
    fn unknown_seed_falls_back_to_pass_to_pass_equality() {
        let g = Golden::default();
        let first = [point("a", 1)];
        let drift = [point("a", 9)];
        let mut panicked = point("a", 0);
        panicked.digest = Err("boom".into());
        let (attempted, failures) =
            check_passes(&g, 7, "w", &[&first, &first, &drift, &[panicked]]);
        assert_eq!(attempted, 4);
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures[1].contains("panicked: boom"));
    }
}
