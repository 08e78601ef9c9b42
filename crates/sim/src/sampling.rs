//! Statistical interval sampling: functional fast-forward interleaved with
//! detailed measurement windows.
//!
//! Full-length execution of every op is the cost that blocks the
//! 10⁴–10⁵-point grids the ROADMAP targets — with the batched hot path
//! landed, the simulator spends its time *being detailed everywhere*, not
//! in dispatch. Interval sampling (SMARTS-style, cf. "Memory Access
//! Vectors: Improving Sampling Fidelity for CPU Performance Simulations")
//! runs the trace in a repeating schedule of three per-op modes:
//!
//! * **fast-forward** — functional warming: caches/TLB/DRAM row state,
//!   prefetcher streams, and AMU stats stay live (tags, LRU, open rows),
//!   but the core model skips all timing. Warming is continuous because
//!   cold-state bias dwarfs every other sampling error: a window opening
//!   on stale cache content over-counts misses by integer factors;
//! * **pipeline warmup** — the same functional warming, with loads also
//!   retiring through the core at a fixed latency so the ROB/issue state
//!   the window opens on is in steady flight;
//! * **detailed window** — the ordinary cycle-accurate path, measured.
//!
//! The schedule is driven by a [`SamplingSpec`]: each `interval` ops start
//! with `warmup_ops` of pipeline warmup, then a `window_ops`-long detailed
//! window, then fast-forward to the end of the interval (leading with the
//! window means short runs still measure something).
//! Per-window feature vectors (IPC, MPKI, row-hit rate,
//! ALB hit rate — the exact telemetry signal of the epoch sampler) are
//! post-stratified with a deterministic k-means so the reported confidence
//! interval reflects between-phase variance instead of assuming the run is
//! homogeneous. The result is a [`SamplingSummary`] serialized as the
//! backwards-compatible `"sampling"` block of `xmem-report-v1`.
//!
//! A 100%-coverage spec ([`SamplingSpec::full_coverage`]) makes every op
//! detailed and reproduces the unsampled run byte-identically — the
//! byte-identity suite pins this.

use crate::report_sink::JsonValue;
use crate::telemetry::{Counters, Metric, METRICS};

/// The per-op execution mode the sampling schedule assigns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplePhase {
    /// Functional warming of the memory system; no core timing.
    FastForward,
    /// Functional warming plus fixed-latency retirement through the core.
    Warm,
    /// Full detailed execution, measured.
    Detailed,
}

/// The sampling schedule: every `interval` ops open with `warmup_ops` of
/// pipeline warmup and a detailed window of `window_ops`; everything after
/// that fast-forwards to the end of the interval.
///
/// `window_ops >= interval` degenerates to 100% detailed coverage (no
/// fast-forward, no warmup) — byte-identical to an unsampled run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplingSpec {
    /// Ops of pipeline warmup immediately before each detailed window.
    pub warmup_ops: u64,
    /// Ops of detailed execution at the start of each interval (after
    /// warmup).
    pub window_ops: u64,
    /// Schedule period in ops (≥ 1).
    pub interval: u64,
}

impl SamplingSpec {
    /// The default schedule for a bare `--sample`: 1k warmup + 8k detailed
    /// per 25k ops (32% detailed coverage). Tuned on the fig4–fig6
    /// standard grids: windows this long span enough DRAM accesses for
    /// the row-hit rate — the noisiest per-window feature — to converge,
    /// which matters more than coverage (see EXPERIMENTS.md). Long runs
    /// can afford sparser schedules (e.g. `2000:8000:100000`).
    pub const DEFAULT: SamplingSpec = SamplingSpec {
        warmup_ops: 1_000,
        window_ops: 8_000,
        interval: 25_000,
    };

    /// The spec under which every op is detailed: sampled execution is
    /// byte-identical to a full run.
    pub const fn full_coverage() -> SamplingSpec {
        SamplingSpec {
            warmup_ops: 0,
            window_ops: 1,
            interval: 1,
        }
    }

    /// Parses `"warmup:window:interval"` (e.g. `2000:2000:50000`).
    pub fn parse(s: &str) -> Result<SamplingSpec, String> {
        let parts: Vec<&str> = s.split(':').collect();
        let [w, d, i] = parts[..] else {
            return Err(format!(
                "sampling spec '{s}': expected warmup:window:interval"
            ));
        };
        let field = |name: &str, v: &str| {
            v.trim()
                .parse::<u64>()
                .map_err(|e| format!("sampling spec '{s}': bad {name} '{v}': {e}"))
        };
        let spec = SamplingSpec {
            warmup_ops: field("warmup_ops", w)?,
            window_ops: field("window_ops", d)?,
            interval: field("interval", i)?,
        };
        if spec.interval == 0 {
            return Err(format!("sampling spec '{s}': interval must be >= 1"));
        }
        if spec.window_ops == 0 {
            return Err(format!("sampling spec '{s}': window_ops must be >= 1"));
        }
        Ok(spec)
    }

    /// The first in-interval phase index that is detailed.
    #[inline]
    fn detail_start(&self) -> u64 {
        self.warmup_ops.min(self.interval)
    }

    /// The execution mode of op `i` (0-based global op index).
    ///
    /// Each interval runs warmup → detailed window → fast-forward, in that
    /// order. Leading with the warmup+window (rather than trailing the
    /// interval with it) means a run only `warmup_ops + window_ops` long
    /// still produces one measured window — short runs degrade to "mostly
    /// detailed" rather than "no estimate at all".
    #[inline]
    pub fn phase_of(&self, i: u64) -> SamplePhase {
        let p = i % self.interval;
        let detail = self.detail_start();
        if p < detail {
            SamplePhase::Warm
        } else if p < detail.saturating_add(self.window_ops) {
            SamplePhase::Detailed
        } else {
            SamplePhase::FastForward
        }
    }

    /// The number of consecutive ops starting at `i` (inclusive) that share
    /// `phase_of(i)` — the distance to the next phase boundary. Always at
    /// least 1. Lets the batched dispatch process a whole same-phase run in
    /// one tight loop instead of re-deriving the phase per op.
    #[inline]
    pub fn phase_run(&self, i: u64) -> u64 {
        // No warmup and a window covering the interval: every op is
        // detailed and the run never ends, so a whole batch is always one
        // run (the reason a 100%-coverage spec costs one dispatch per
        // batch, like unsampled execution).
        if self.warmup_ops == 0 && self.window_ops >= self.interval {
            return u64::MAX;
        }
        let p = i % self.interval;
        let detail = self.detail_start();
        let window_end = detail.saturating_add(self.window_ops).min(self.interval);
        let boundary = if p < detail {
            detail
        } else if p < window_end {
            window_end
        } else {
            self.interval
        };
        boundary - p
    }

    /// The fraction of ops executed in detail.
    pub fn coverage(&self) -> f64 {
        self.window_ops.min(self.interval) as f64 / self.interval as f64
    }

    /// This spec as a JSON object (the `"spec"` field of the block).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("warmup_ops", JsonValue::U64(self.warmup_ops)),
            ("window_ops", JsonValue::U64(self.window_ops)),
            ("interval", JsonValue::U64(self.interval)),
        ])
    }

    /// Parses the `"spec"` object back — the inverse of
    /// [`SamplingSpec::to_json`].
    pub fn from_json(v: &JsonValue) -> Option<SamplingSpec> {
        Some(SamplingSpec {
            warmup_ops: v.get("warmup_ops")?.as_u64()?,
            window_ops: v.get("window_ops")?.as_u64()?,
            interval: v.get("interval")?.as_u64()?,
        })
    }
}

/// The feature-space dimension: one per metric.
const DIMS: usize = METRICS.len();

/// The [`METRICS`] of one detailed window: the clustering feature vector
/// (the telemetry signal of the epoch sampler). Windows are kept as raw
/// counter deltas, not ratios: a short window's cycle delta is noisy (the
/// core's clock advances in miss-completion jumps), so the summary's
/// estimates are ratios of sums across windows, and the per-window ratios
/// feed only the clustering, the CI and the observed range.
fn features(window: &Counters) -> [f64; DIMS] {
    METRICS.map(|m| m.of(window))
}

/// One sampled metric: the ratio-of-sums estimate across all detailed
/// windows, with a 95% confidence interval from the post-stratified
/// per-window variance and the observed per-window range.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SampledMetric {
    /// Ratio-of-sums estimate over all detailed windows (e.g. total window
    /// instructions over total window cycles for IPC).
    pub mean: f64,
    /// 95% confidence half-width from the post-stratified variance
    /// (0 when every window landed in a singleton cluster).
    pub ci95: f64,
    /// Smallest window value.
    pub min: f64,
    /// Largest window value.
    pub max: f64,
}

impl SampledMetric {
    fn to_json(self) -> JsonValue {
        JsonValue::object([
            ("mean", JsonValue::F64(self.mean)),
            ("ci95", JsonValue::F64(self.ci95)),
            ("min", JsonValue::F64(self.min)),
            ("max", JsonValue::F64(self.max)),
        ])
    }

    fn from_json(v: &JsonValue) -> Option<SampledMetric> {
        Some(SampledMetric {
            mean: v.get("mean")?.as_f64()?,
            ci95: v.get("ci95")?.as_f64()?,
            min: v.get("min")?.as_f64()?,
            max: v.get("max")?.as_f64()?,
        })
    }
}

/// One stratum of the post-stratification: how many windows it holds and
/// which window is closest to its centroid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleCluster {
    /// Number of detailed windows assigned to this cluster.
    pub windows: u64,
    /// Index (into the run's window sequence) of the representative
    /// window — the member closest to the cluster centroid.
    pub representative: u64,
}

/// The full sampled-run summary: schedule, coverage accounting, the
/// telemetry-feature clustering, and every sampled metric with its
/// confidence interval. Serialized as the optional `"sampling"` block.
#[derive(Debug, Clone, PartialEq)]
pub struct SamplingSummary {
    /// The schedule that produced this run.
    pub spec: SamplingSpec,
    /// Total ops the generator emitted.
    pub total_ops: u64,
    /// Ops executed in detail.
    pub detailed_ops: u64,
    /// Ops executed as functional warmup.
    pub warm_ops: u64,
    /// Number of detailed windows measured.
    pub windows: u64,
    /// Achieved detailed coverage, `detailed_ops / total_ops`.
    pub coverage: f64,
    /// The post-stratification clusters, in cluster-index order.
    pub clusters: Vec<SampleCluster>,
    /// Per-metric stratified estimates, in [`METRICS`] order.
    pub metrics: Vec<(String, SampledMetric)>,
}

impl SamplingSummary {
    /// Builds the summary from the measured windows: clusters the feature
    /// vectors (deterministic k-means, k = min(3, windows)) and computes
    /// each metric's post-stratified mean and 95% CI.
    pub fn from_windows(
        spec: SamplingSpec,
        total_ops: u64,
        detailed_ops: u64,
        warm_ops: u64,
        windows: &[Counters],
    ) -> SamplingSummary {
        let assignment = cluster_windows(windows);
        let k = assignment.iter().copied().max().map_or(0, |m| m + 1);
        let clusters = (0..k)
            .map(|c| {
                let members: Vec<usize> =
                    (0..windows.len()).filter(|&i| assignment[i] == c).collect();
                SampleCluster {
                    windows: members.len() as u64,
                    representative: representative_of(windows, &members) as u64,
                }
            })
            .collect();
        let metrics = METRICS
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    stratified_metric(windows, m, &assignment, k),
                )
            })
            .collect();
        SamplingSummary {
            spec,
            total_ops,
            detailed_ops,
            warm_ops,
            windows: windows.len() as u64,
            coverage: if total_ops == 0 {
                0.0
            } else {
                detailed_ops as f64 / total_ops as f64
            },
            clusters,
            metrics,
        }
    }

    /// Looks up one sampled metric by name.
    pub fn metric(&self, name: &str) -> Option<SampledMetric> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, m)| *m)
    }

    /// This summary as the record's optional `"sampling"` JSON block.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("spec", self.spec.to_json()),
            ("total_ops", JsonValue::U64(self.total_ops)),
            ("detailed_ops", JsonValue::U64(self.detailed_ops)),
            ("warm_ops", JsonValue::U64(self.warm_ops)),
            ("windows", JsonValue::U64(self.windows)),
            ("coverage", JsonValue::F64(self.coverage)),
            (
                "clusters",
                JsonValue::Array(
                    self.clusters
                        .iter()
                        .map(|c| {
                            JsonValue::object([
                                ("windows", JsonValue::U64(c.windows)),
                                ("representative", JsonValue::U64(c.representative)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "metrics",
                JsonValue::Object(
                    self.metrics
                        .iter()
                        .map(|(name, m)| (name.clone(), m.to_json()))
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses a `"sampling"` block back — the inverse of
    /// [`SamplingSummary::to_json`].
    pub fn from_json(block: &JsonValue) -> Option<SamplingSummary> {
        let spec = SamplingSpec::from_json(block.get("spec")?)?;
        let clusters = block
            .get("clusters")?
            .as_array()?
            .iter()
            .map(|c| {
                Some(SampleCluster {
                    windows: c.get("windows")?.as_u64()?,
                    representative: c.get("representative")?.as_u64()?,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        let metrics_obj = block.get("metrics")?;
        let metrics = METRICS
            .iter()
            .map(|m| {
                Some((
                    m.name.to_string(),
                    SampledMetric::from_json(metrics_obj.get(m.name)?)?,
                ))
            })
            .collect::<Option<Vec<_>>>()?;
        Some(SamplingSummary {
            spec,
            total_ops: block.get("total_ops")?.as_u64()?,
            detailed_ops: block.get("detailed_ops")?.as_u64()?,
            warm_ops: block.get("warm_ops")?.as_u64()?,
            windows: block.get("windows")?.as_u64()?,
            coverage: block.get("coverage")?.as_f64()?,
            clusters,
            metrics,
        })
    }

    /// Reads the optional `"sampling"` block out of an `xmem-report-v1`
    /// record object. `None` for unsampled (or pre-sampling) records.
    pub fn from_record_json(record: &JsonValue) -> Option<SamplingSummary> {
        Self::from_json(record.get("sampling")?)
    }
}

/// Deterministic k-means over the window feature vectors: min-max
/// normalized features, k = min(3, windows), centroids seeded at evenly
/// spaced window indices, a fixed 16 assignment/update rounds, ties to the
/// lowest cluster index. No RNG, no wall clock — the same windows always
/// cluster the same way (simlint forbids nondeterminism in the sim crates).
fn cluster_windows(windows: &[Counters]) -> Vec<usize> {
    let n = windows.len();
    if n == 0 {
        return Vec::new();
    }
    let k = n.min(3);
    // Min-max normalize each feature dimension so MPKI (tens) does not
    // drown IPC (ones) in the distance metric.
    let raw: Vec<[f64; DIMS]> = windows.iter().map(features).collect();
    let mut lo = [f64::INFINITY; DIMS];
    let mut hi = [f64::NEG_INFINITY; DIMS];
    for f in &raw {
        for d in 0..DIMS {
            lo[d] = lo[d].min(f[d]);
            hi[d] = hi[d].max(f[d]);
        }
    }
    let norm: Vec<[f64; DIMS]> = raw
        .iter()
        .map(|f| {
            let mut out = [0.0; DIMS];
            for d in 0..DIMS {
                let span = hi[d] - lo[d];
                // Degenerate dimension (all windows equal): contribute 0
                // rather than dividing by the zero span.
                out[d] = if hi[d] > lo[d] {
                    (f[d] - lo[d]) / span
                } else {
                    0.0
                };
            }
            out
        })
        .collect();
    let dist2 = |a: &[f64; DIMS], b: &[f64; DIMS]| -> f64 {
        (0..DIMS).map(|d| (a[d] - b[d]) * (a[d] - b[d])).sum()
    };
    // Seed centroids at evenly spaced window indices (sorted by time, so
    // program phases seed distinct clusters).
    let mut centroids: Vec<[f64; DIMS]> = (0..k)
        .map(|c| norm[if k == 1 { 0 } else { c * (n - 1) / (k - 1) }])
        .collect();
    let mut assignment = vec![0usize; n];
    for _round in 0..16 {
        for (i, f) in norm.iter().enumerate() {
            let mut best = 0usize;
            let mut best_d = f64::INFINITY;
            for (c, centroid) in centroids.iter().enumerate() {
                let d = dist2(f, centroid);
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
            assignment[i] = best;
        }
        for (c, centroid) in centroids.iter_mut().enumerate() {
            let members: Vec<usize> = (0..n).filter(|&i| assignment[i] == c).collect();
            if members.is_empty() {
                continue;
            }
            let mut mean = [0.0; DIMS];
            for &i in &members {
                for d in 0..DIMS {
                    mean[d] += norm[i][d];
                }
            }
            for v in &mut mean {
                *v /= members.len() as f64;
            }
            *centroid = mean;
        }
    }
    // Compact cluster indices so empty clusters leave no gaps (stable:
    // first-seen order is ascending because seeds are time-ordered).
    let mut remap: Vec<Option<usize>> = vec![None; k];
    let mut next = 0usize;
    for a in &assignment {
        if remap[*a].is_none() {
            remap[*a] = Some(next);
            next += 1;
        }
    }
    assignment
        .iter()
        // simlint: allow(unwrap, reason = "every assigned cluster index was entered into the remap above")
        .map(|a| remap[*a].expect("assigned clusters are remapped"))
        .collect()
}

/// The member window closest (in raw feature space) to the cluster's mean;
/// ties break to the lowest window index.
fn representative_of(windows: &[Counters], members: &[usize]) -> usize {
    let mut mean = [0.0; DIMS];
    for &i in members {
        let f = features(&windows[i]);
        for d in 0..DIMS {
            mean[d] += f[d];
        }
    }
    for v in &mut mean {
        *v /= members.len().max(1) as f64;
    }
    let mut best = members.first().copied().unwrap_or(0);
    let mut best_d = f64::INFINITY;
    for &i in members {
        let f = features(&windows[i]);
        let d: f64 = (0..DIMS).map(|x| (f[x] - mean[x]) * (f[x] - mean[x])).sum();
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    best
}

/// Post-stratified estimate of one metric: the ratio-of-sums mean across
/// all windows (robust to the per-window cycle-delta jumpiness a plain
/// mean of per-window ratios is not), with a 95% CI from the stratified
/// per-window variance `Σ (n_c/N)² · s_c²/n_c` (singleton strata
/// contribute zero — they have no within-cluster variance to estimate).
fn stratified_metric(
    windows: &[Counters],
    metric: &Metric,
    assignment: &[usize],
    k: usize,
) -> SampledMetric {
    let n = windows.len();
    if n == 0 {
        return SampledMetric::default();
    }
    let values: Vec<f64> = windows.iter().map(|w| metric.of(w)).collect();
    let mean = metric.of_sum(windows);
    let mut var = 0.0;
    for c in 0..k {
        let members: Vec<f64> = (0..n)
            .filter(|&i| assignment[i] == c)
            .map(|i| values[i])
            .collect();
        let nc = members.len();
        if nc < 2 {
            continue;
        }
        let mc = members.iter().sum::<f64>() / nc as f64;
        let s2 = members.iter().map(|v| (v - mc) * (v - mc)).sum::<f64>() / (nc - 1) as f64;
        let w = nc as f64 / n as f64;
        var += w * w * s2 / nc as f64;
    }
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for &v in &values {
        min = min.min(v);
        max = max.max(v);
    }
    SampledMetric {
        mean,
        ci95: 1.96 * var.sqrt(),
        min,
        max,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_schedule_places_window_at_interval_start() {
        let spec = SamplingSpec {
            warmup_ops: 2,
            window_ops: 3,
            interval: 10,
        };
        let phases: Vec<SamplePhase> = (0..20).map(|i| spec.phase_of(i)).collect();
        use SamplePhase::*;
        assert_eq!(
            phases,
            vec![
                Warm,
                Warm,
                Detailed,
                Detailed,
                Detailed,
                FastForward,
                FastForward,
                FastForward,
                FastForward,
                FastForward,
                Warm,
                Warm,
                Detailed,
                Detailed,
                Detailed,
                FastForward,
                FastForward,
                FastForward,
                FastForward,
                FastForward,
            ]
        );
    }

    #[test]
    fn phase_run_reaches_exactly_the_next_boundary() {
        let spec = SamplingSpec {
            warmup_ops: 2,
            window_ops: 3,
            interval: 10,
        };
        // Every index: the run is positive, the whole run shares the
        // phase, and the op just past the run is a different phase (or a
        // new interval's Warm).
        for i in 0..40 {
            let run = spec.phase_run(i);
            assert!(run >= 1, "empty run at {i}");
            let phase = spec.phase_of(i);
            assert!(
                (i..i + run).all(|j| spec.phase_of(j) == phase),
                "run at {i}"
            );
            let next = i + run;
            assert!(
                spec.phase_of(next) != phase || next.is_multiple_of(spec.interval),
                "run at {i} stops short of the boundary"
            );
        }
        assert_eq!(spec.phase_run(0), 2);
        assert_eq!(spec.phase_run(2), 3);
        assert_eq!(spec.phase_run(5), 5);
        assert_eq!(spec.phase_run(9), 1);
        // Oversized window: detailed to the end of the interval.
        let wide = SamplingSpec {
            warmup_ops: 2,
            window_ops: 100,
            interval: 10,
        };
        assert_eq!(wide.phase_run(2), 8);
        assert_eq!(wide.phase_run(9), 1);
    }

    #[test]
    fn full_coverage_makes_every_op_detailed() {
        let spec = SamplingSpec::full_coverage();
        assert!((0..1000).all(|i| spec.phase_of(i) == SamplePhase::Detailed));
        assert_eq!(spec.phase_run(0), u64::MAX, "all-detailed run never ends");
        assert_eq!(spec.coverage(), 1.0);
    }

    #[test]
    fn oversized_warmup_saturates_instead_of_wrapping() {
        let spec = SamplingSpec {
            warmup_ops: 1_000,
            window_ops: 3,
            interval: 10,
        };
        // Warmup longer than the interval: every op warms (the window
        // never opens), nothing wraps, nothing panics.
        assert!((0..30).all(|i| spec.phase_of(i) == SamplePhase::Warm));
    }

    #[test]
    fn parse_round_trips_and_rejects_garbage() {
        let spec = SamplingSpec::parse("2000:2000:50000").expect("parses");
        assert_eq!(
            spec,
            SamplingSpec {
                warmup_ops: 2000,
                window_ops: 2000,
                interval: 50000
            }
        );
        assert!(SamplingSpec::parse("1:2").is_err(), "too few fields");
        assert!(SamplingSpec::parse("1:2:3:4").is_err(), "too many fields");
        assert!(SamplingSpec::parse("a:2:3").is_err(), "non-numeric");
        assert!(SamplingSpec::parse("0:1:0").is_err(), "zero interval");
        assert!(SamplingSpec::parse("0:0:10").is_err(), "zero window");
        let json = spec.to_json();
        assert_eq!(SamplingSpec::from_json(&json), Some(spec));
    }

    /// A 1000-instruction window: `cycles` sets its IPC, `l1_misses` its
    /// MPKI (misses == MPKI at 1000 instructions).
    fn window(cycles: u64, l1_misses: u64) -> Counters {
        Counters {
            instructions: 1000,
            cycles,
            l1_misses,
            l2_misses: l1_misses / 2,
            l3_misses: l1_misses / 4,
            dram_accesses: 10,
            row_hits: 8,
            alb_lookups: 10,
            alb_hits: 5,
            ..Counters::default()
        }
    }

    #[test]
    fn clustering_is_deterministic_and_separates_phases() {
        // Two clearly distinct phases: high-IPC/low-MPKI (4.0 IPC, 1 MPKI)
        // and the reverse (0.5 IPC, 40 MPKI).
        let windows: Vec<Counters> = (0..8)
            .map(|i| {
                if i < 4 {
                    window(250, 1)
                } else {
                    window(2000, 40)
                }
            })
            .collect();
        let a = cluster_windows(&windows);
        let b = cluster_windows(&windows);
        assert_eq!(a, b, "no RNG, no wall clock: always the same clusters");
        assert_eq!(a.len(), 8);
        // The two phases never share a cluster.
        assert!(a[..4].iter().all(|&c| c == a[0]));
        assert!(a[4..].iter().all(|&c| c == a[4]));
        assert_ne!(a[0], a[4]);
    }

    #[test]
    fn identical_windows_have_zero_ci() {
        // 500 cycles per 1000 instructions: exactly 2.0 IPC.
        let windows = vec![window(500, 5); 6];
        let summary =
            SamplingSummary::from_windows(SamplingSpec::DEFAULT, 300_000, 12_000, 12_000, &windows);
        for (name, m) in &summary.metrics {
            assert!(
                m.ci95.abs() < 1e-12,
                "{name}: identical windows must have ~zero CI, got {}",
                m.ci95
            );
            assert_eq!(m.min, m.max);
        }
        let ipc = summary.metric("ipc").expect("ipc metric present");
        assert!((ipc.mean - 2.0).abs() < 1e-12);
    }

    #[test]
    fn summary_json_round_trips_byte_identically() {
        let windows = vec![
            window(333, 2),
            window(400, 3),
            window(2000, 30),
            window(1666, 28),
        ];
        let summary = SamplingSummary::from_windows(
            SamplingSpec {
                warmup_ops: 100,
                window_ops: 50,
                interval: 1000,
            },
            4_000,
            200,
            400,
            &windows,
        );
        let json = summary.to_json();
        let parsed = SamplingSummary::from_json(&json).expect("parses");
        assert_eq!(parsed, summary);
        assert_eq!(parsed.to_json().render(), json.render());
        // Text round-trip through the JSON parser too.
        let reparsed = JsonValue::parse(&json.render()).expect("valid JSON");
        assert_eq!(SamplingSummary::from_json(&reparsed), Some(summary));
        // Not a sampling block at all.
        assert!(SamplingSummary::from_record_json(&JsonValue::object([(
            "label",
            JsonValue::Str("x".into())
        )]))
        .is_none());
    }

    #[test]
    fn empty_run_summarizes_without_panicking() {
        let summary = SamplingSummary::from_windows(SamplingSpec::DEFAULT, 0, 0, 0, &[]);
        assert_eq!(summary.windows, 0);
        assert!(summary.clusters.is_empty());
        assert_eq!(summary.coverage, 0.0);
        for (_, m) in &summary.metrics {
            assert!(m.mean.abs() < 1e-12 && m.ci95.abs() < 1e-12);
        }
        let json = summary.to_json();
        assert_eq!(SamplingSummary::from_json(&json), Some(summary));
    }
}
