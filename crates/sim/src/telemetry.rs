//! Epoch-sampled cross-layer telemetry: time-series statistics for every
//! simulated component, plus Chrome-trace export.
//!
//! End-of-run aggregate counters say *what* a run cost; they cannot say
//! *when* — which loop nest thrashed the L3, where the row-hit rate fell
//! off, when DRRIP's duel flipped. The telemetry layer samples the whole
//! machine every `epoch_instructions` retired instructions (default
//! [`DEFAULT_EPOCH_INSTRUCTIONS`]) into a [`TelemetrySeries`]:
//!
//! * **core** — IPC over the epoch, ROB load occupancy, outstanding misses;
//! * **caches** — per-level MPKI over the epoch, the L2/L3 DRRIP PSEL
//!   trajectory, prefetches issued/useful;
//! * **DRAM** — row-hit rate over the epoch, mean bank-busy fraction,
//!   queue-depth proxy;
//! * **XMem** — ALB hit rate over the epoch, AMU invalidations.
//!
//! An epoch is a delta of one member's cumulative [`Counters`], as is an
//! interval-sampling window (`crate::sampling`), and both read their ratio
//! metrics from the one [`METRICS`] table.
//!
//! A series serializes as an optional, backwards-compatible `"telemetry"`
//! block of `xmem-report-v1` records (columnar arrays, byte-identical
//! round-trip), and [`ChromeTrace`] renders any number of series as a
//! Chrome-trace-format JSON document openable in `chrome://tracing` or
//! [Perfetto](https://ui.perfetto.dev).
//!
//! Sampling is off by default and costs one bound check per op batch when
//! disabled (xmembench's traced runs report the armed path's cost as
//! `telemetry_overhead`).

use crate::report_sink::JsonValue;

/// Default sampling epoch: one sample per 100k retired instructions.
pub const DEFAULT_EPOCH_INSTRUCTIONS: u64 = 100_000;

/// One member's cumulative counters across every layer, as read at one
/// instant. The counters of an interval — a telemetry epoch or a sampling
/// window — are `end.since(&start)`, and every ratio metric of
/// [`METRICS`] is read off such a delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counters {
    /// Instructions retired.
    pub instructions: u64,
    /// Core cycles.
    pub cycles: u64,
    /// L1 misses.
    pub l1_misses: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// L3 misses.
    pub l3_misses: u64,
    /// DRAM accesses (reads + writes).
    pub dram_accesses: u64,
    /// DRAM row-buffer hits.
    pub row_hits: u64,
    /// Bank-cycles spent serving DRAM reads.
    pub busy_bank_cycles: u64,
    /// Prefetches issued (stride + XMem-guided).
    pub prefetch_issued: u64,
    /// Prefetched lines proven useful.
    pub prefetch_useful: u64,
    /// ALB lookups.
    pub alb_lookups: u64,
    /// ALB hits.
    pub alb_hits: u64,
    /// ALB entries invalidated by remaps.
    pub amu_invalidations: u64,
}

impl Counters {
    /// The counters of the interval from `earlier` to `self`. Cycles
    /// saturate: the core's clock includes the completion time of its
    /// latest outstanding miss, so it can stand past a later reading.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            instructions: self.instructions - earlier.instructions,
            cycles: self.cycles.saturating_sub(earlier.cycles),
            l1_misses: self.l1_misses - earlier.l1_misses,
            l2_misses: self.l2_misses - earlier.l2_misses,
            l3_misses: self.l3_misses - earlier.l3_misses,
            dram_accesses: self.dram_accesses - earlier.dram_accesses,
            row_hits: self.row_hits - earlier.row_hits,
            busy_bank_cycles: self.busy_bank_cycles - earlier.busy_bank_cycles,
            prefetch_issued: self.prefetch_issued - earlier.prefetch_issued,
            prefetch_useful: self.prefetch_useful - earlier.prefetch_useful,
            alb_lookups: self.alb_lookups - earlier.alb_lookups,
            alb_hits: self.alb_hits - earlier.alb_hits,
            amu_invalidations: self.amu_invalidations - earlier.amu_invalidations,
        }
    }
}

/// `n / d`, or 0 for an empty denominator.
pub(crate) fn ratio(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

/// A ratio metric of an interval's [`Counters`]: `scale · num / den`.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// The metric's column name in the `"telemetry"` and `"sampling"`
    /// blocks.
    pub name: &'static str,
    num: fn(&Counters) -> u64,
    den: fn(&Counters) -> u64,
    scale: f64,
}

impl Metric {
    /// This metric over the interval `c`.
    pub fn of(&self, c: &Counters) -> f64 {
        self.value((self.num)(c), (self.den)(c))
    }

    /// This metric over all of `intervals` at once: the ratio of their
    /// summed numerators and denominators.
    pub fn of_sum(&self, intervals: &[Counters]) -> f64 {
        let num = intervals.iter().map(self.num).sum();
        let den = intervals.iter().map(self.den).sum();
        self.value(num, den)
    }

    fn value(&self, num: u64, den: u64) -> f64 {
        ratio(num, den) * self.scale
    }
}

/// The ratio metrics that telemetry samples per epoch and interval
/// sampling estimates per window, in the order both serialize them.
pub const METRICS: [Metric; 6] = [
    Metric {
        name: "ipc",
        num: |c| c.instructions,
        den: |c| c.cycles,
        scale: 1.0,
    },
    Metric {
        name: "l1_mpki",
        num: |c| c.l1_misses,
        den: |c| c.instructions,
        scale: 1000.0,
    },
    Metric {
        name: "l2_mpki",
        num: |c| c.l2_misses,
        den: |c| c.instructions,
        scale: 1000.0,
    },
    Metric {
        name: "l3_mpki",
        num: |c| c.l3_misses,
        den: |c| c.instructions,
        scale: 1000.0,
    },
    Metric {
        name: "row_hit_rate",
        num: |c| c.row_hits,
        den: |c| c.dram_accesses,
        scale: 1.0,
    },
    Metric {
        name: "alb_hit_rate",
        num: |c| c.alb_hits,
        den: |c| c.alb_lookups,
        scale: 1.0,
    },
];

/// One telemetry sample, taken at an epoch boundary (or at end of run for
/// the final partial epoch). Rate-style fields (the [`METRICS`],
/// `bank_busy_fraction`, prefetch counts, `amu_invalidations`) cover
/// *this epoch only*; `instructions` / `cycles` are cumulative, and the
/// remaining fields are instantaneous gauges.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TelemetrySample {
    /// Cumulative instructions retired at the sample point.
    pub instructions: u64,
    /// Cumulative cycles at the sample point.
    pub cycles: u64,
    /// Instructions per cycle over the epoch.
    pub ipc: f64,
    /// Loads tracked in the ROB window at the sample point (gauge).
    pub rob_load_occupancy: u64,
    /// Loads still outstanding at the sample point (gauge).
    pub outstanding_loads: u64,
    /// L1 misses per kilo-instruction over the epoch.
    pub l1_mpki: f64,
    /// L2 misses per kilo-instruction over the epoch.
    pub l2_mpki: f64,
    /// L3 misses per kilo-instruction over the epoch.
    pub l3_mpki: f64,
    /// L2 DRRIP policy-select counter (gauge; 0 unless DRRIP).
    pub l2_psel: f64,
    /// L3 DRRIP policy-select counter (gauge; 0 unless DRRIP).
    pub l3_psel: f64,
    /// Prefetches issued over the epoch (stride + XMem-guided).
    pub prefetch_issued: u64,
    /// Prefetched lines proven useful over the epoch.
    pub prefetch_useful: u64,
    /// DRAM row-hit rate over the epoch's row activations.
    pub row_hit_rate: f64,
    /// Mean fraction of banks busy serving reads over the epoch.
    pub bank_busy_fraction: f64,
    /// DRAM queue-depth proxy at the sample point (gauge): busy banks
    /// plus queued burst slots.
    pub queue_depth: f64,
    /// ALB hit rate over the epoch's lookups.
    pub alb_hit_rate: f64,
    /// ALB entries invalidated by remaps over the epoch.
    pub amu_invalidations: u64,
}

/// One serialized column of a [`TelemetrySample`]: its name and the field
/// it reads and writes.
#[derive(Clone, Copy)]
enum Column {
    U64(&'static str, fn(&mut TelemetrySample) -> &mut u64),
    F64(&'static str, fn(&mut TelemetrySample) -> &mut f64),
    /// The epoch's value of `METRICS[i]`, which names the column.
    Metric(usize, fn(&mut TelemetrySample) -> &mut f64),
}

/// The `"telemetry"` block's columns, one array each, in their fixed JSON
/// order (so rendering, and the determinism tests built on byte
/// comparison, never reorder): `instructions`/`cycles` lead, then the
/// per-component columns in machine order (core, caches, prefetch, DRAM,
/// XMem).
const COLUMNS: [Column; 17] = [
    Column::U64("instructions", |s| &mut s.instructions),
    Column::U64("cycles", |s| &mut s.cycles),
    Column::Metric(0, |s| &mut s.ipc),
    Column::U64("rob_load_occupancy", |s| &mut s.rob_load_occupancy),
    Column::U64("outstanding_loads", |s| &mut s.outstanding_loads),
    Column::Metric(1, |s| &mut s.l1_mpki),
    Column::Metric(2, |s| &mut s.l2_mpki),
    Column::Metric(3, |s| &mut s.l3_mpki),
    Column::F64("l2_psel", |s| &mut s.l2_psel),
    Column::F64("l3_psel", |s| &mut s.l3_psel),
    Column::U64("prefetch_issued", |s| &mut s.prefetch_issued),
    Column::U64("prefetch_useful", |s| &mut s.prefetch_useful),
    Column::Metric(4, |s| &mut s.row_hit_rate),
    Column::F64("bank_busy_fraction", |s| &mut s.bank_busy_fraction),
    Column::F64("queue_depth", |s| &mut s.queue_depth),
    Column::Metric(5, |s| &mut s.alb_hit_rate),
    Column::U64("amu_invalidations", |s| &mut s.amu_invalidations),
];

impl Column {
    fn name(self) -> &'static str {
        match self {
            Column::U64(name, _) | Column::F64(name, _) => name,
            Column::Metric(i, _) => METRICS[i].name,
        }
    }

    fn get(self, mut sample: TelemetrySample) -> JsonValue {
        match self {
            Column::U64(_, field) => JsonValue::U64(*field(&mut sample)),
            Column::F64(_, field) | Column::Metric(_, field) => JsonValue::F64(*field(&mut sample)),
        }
    }

    fn set(self, sample: &mut TelemetrySample, v: &JsonValue) -> Option<()> {
        match self {
            Column::U64(_, field) => *field(sample) = v.as_u64()?,
            Column::F64(_, field) | Column::Metric(_, field) => *field(sample) = v.as_f64()?,
        }
        Some(())
    }
}

impl TelemetrySample {
    /// This sample with its [`METRICS`] columns set to their values over
    /// the interval `epoch`.
    pub fn with_metrics(mut self, epoch: &Counters) -> TelemetrySample {
        for column in COLUMNS {
            if let Column::Metric(i, field) = column {
                *field(&mut self) = METRICS[i].of(epoch);
            }
        }
        self
    }
}

/// An epoch-sampled run's full time series.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySeries {
    /// The sampling epoch in instructions.
    pub epoch_instructions: u64,
    /// One sample per completed epoch, plus one for a final partial epoch.
    pub samples: Vec<TelemetrySample>,
}

impl TelemetrySeries {
    /// An empty series sampling every `epoch_instructions` instructions.
    pub fn new(epoch_instructions: u64) -> Self {
        TelemetrySeries {
            epoch_instructions: epoch_instructions.max(1),
            samples: Vec::new(),
        }
    }

    /// This series as the record's optional `"telemetry"` JSON block:
    /// `{"epoch_instructions": N, "series": {"<column>": [...], ...}}`,
    /// columnar with a fixed column order so rendering is deterministic.
    pub fn to_json(&self) -> JsonValue {
        let columns = COLUMNS
            .iter()
            .map(|column| {
                let items = self.samples.iter().map(|s| column.get(*s)).collect();
                (column.name().to_string(), JsonValue::Array(items))
            })
            .collect();
        JsonValue::object([
            (
                "epoch_instructions",
                JsonValue::U64(self.epoch_instructions),
            ),
            ("series", JsonValue::Object(columns)),
        ])
    }

    /// Parses a `"telemetry"` block back into a series — the inverse of
    /// [`TelemetrySeries::to_json`]. `None` if any column is missing,
    /// mistyped, or of mismatched length.
    pub fn from_json(block: &JsonValue) -> Option<TelemetrySeries> {
        let epoch_instructions = block.get("epoch_instructions")?.as_u64()?;
        let series = block.get("series")?;
        let len = series.get(COLUMNS[0].name())?.as_array()?.len();
        let mut samples = vec![TelemetrySample::default(); len];
        for column in COLUMNS {
            let col = series.get(column.name())?.as_array()?;
            if col.len() != len {
                return None;
            }
            for (sample, v) in samples.iter_mut().zip(col) {
                column.set(sample, v)?;
            }
        }
        Some(TelemetrySeries {
            epoch_instructions,
            samples,
        })
    }

    /// Reads the optional `"telemetry"` block out of an `xmem-report-v1`
    /// record object. `None` when the record predates telemetry (or was
    /// run without `--epoch`) — old records stay fully readable.
    pub fn from_record_json(record: &JsonValue) -> Option<TelemetrySeries> {
        Self::from_json(record.get("telemetry")?)
    }
}

// ─────────────────────────── Chrome tracing ──────────────────────────

/// Accumulates telemetry series as Chrome-trace-format counter tracks —
/// one process per series (named after the run's label), one counter
/// track per metric group — renderable with [`ChromeTrace::render`] into
/// a JSON document that `chrome://tracing` and Perfetto open directly.
#[derive(Debug, Default)]
pub struct ChromeTrace {
    events: Vec<JsonValue>,
    next_pid: u64,
}

impl ChromeTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether any series have been added.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Adds one run's series as a new trace process named `label`.
    /// `freq_ghz` converts simulated cycles to trace microseconds.
    pub fn add_series(&mut self, label: &str, series: &TelemetrySeries, freq_ghz: f64) {
        let pid = self.next_pid;
        self.next_pid += 1;
        self.events.push(JsonValue::object([
            ("name", JsonValue::Str("process_name".into())),
            ("ph", JsonValue::Str("M".into())),
            ("pid", JsonValue::U64(pid)),
            ("tid", JsonValue::U64(0)),
            (
                "args",
                JsonValue::object([("name", JsonValue::Str(label.to_string()))]),
            ),
        ]));
        for s in &series.samples {
            let ts = s.cycles as f64 / (freq_ghz * 1000.0);
            let mut counter = |name: &str, args: Vec<(&str, JsonValue)>| {
                self.events.push(JsonValue::object([
                    ("name", JsonValue::Str(name.to_string())),
                    ("ph", JsonValue::Str("C".into())),
                    ("ts", JsonValue::F64(ts)),
                    ("pid", JsonValue::U64(pid)),
                    ("tid", JsonValue::U64(0)),
                    ("args", JsonValue::object(args)),
                ]));
            };
            counter("ipc", vec![("ipc", JsonValue::F64(s.ipc))]);
            counter(
                "mpki",
                vec![
                    ("l1", JsonValue::F64(s.l1_mpki)),
                    ("l2", JsonValue::F64(s.l2_mpki)),
                    ("l3", JsonValue::F64(s.l3_mpki)),
                ],
            );
            counter(
                "drrip_psel",
                vec![
                    ("l2", JsonValue::F64(s.l2_psel)),
                    ("l3", JsonValue::F64(s.l3_psel)),
                ],
            );
            counter(
                "loads_in_flight",
                vec![
                    ("rob", JsonValue::U64(s.rob_load_occupancy)),
                    ("outstanding", JsonValue::U64(s.outstanding_loads)),
                ],
            );
            counter(
                "prefetch",
                vec![
                    ("issued", JsonValue::U64(s.prefetch_issued)),
                    ("useful", JsonValue::U64(s.prefetch_useful)),
                ],
            );
            counter(
                "row_hit_rate",
                vec![("rate", JsonValue::F64(s.row_hit_rate))],
            );
            counter(
                "bank_busy_fraction",
                vec![("fraction", JsonValue::F64(s.bank_busy_fraction))],
            );
            counter(
                "queue_depth",
                vec![("depth", JsonValue::F64(s.queue_depth))],
            );
            counter(
                "alb_hit_rate",
                vec![("rate", JsonValue::F64(s.alb_hit_rate))],
            );
            counter(
                "amu_invalidations",
                vec![("count", JsonValue::U64(s.amu_invalidations))],
            );
        }
    }

    /// Renders the Chrome-trace JSON document.
    pub fn render(&self) -> String {
        JsonValue::object([("traceEvents", JsonValue::Array(self.events.clone()))]).render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(i: u64) -> TelemetrySample {
        TelemetrySample {
            instructions: (i + 1) * 1000,
            cycles: (i + 1) * 1700,
            ipc: 0.57 + i as f64 * 0.01,
            rob_load_occupancy: 3 + i,
            outstanding_loads: i,
            l1_mpki: 12.25,
            l2_mpki: 6.5,
            l3_mpki: 1.125,
            l2_psel: -17.0 - i as f64,
            l3_psel: 1023.0,
            prefetch_issued: 40 + i,
            prefetch_useful: 22,
            row_hit_rate: 0.75,
            bank_busy_fraction: 0.33,
            queue_depth: 2.0,
            alb_hit_rate: 0.99,
            amu_invalidations: i,
        }
    }

    fn series() -> TelemetrySeries {
        TelemetrySeries {
            epoch_instructions: 1000,
            samples: (0..3).map(sample).collect(),
        }
    }

    /// An interval's counters are the field-wise delta (cycles saturate),
    /// and a sample's metric columns read the delta through `METRICS`.
    #[test]
    fn metrics_read_interval_deltas() {
        let start = Counters {
            instructions: 1000,
            cycles: 5000,
            l1_misses: 5,
            dram_accesses: 2,
            row_hits: 1,
            ..Counters::default()
        };
        let end = Counters {
            instructions: 3000,
            cycles: 6000,
            l1_misses: 25,
            dram_accesses: 6,
            row_hits: 4,
            ..Counters::default()
        };
        let delta = end.since(&start);
        assert_eq!((delta.instructions, delta.cycles), (2000, 1000));
        let s = TelemetrySample::default().with_metrics(&delta);
        assert_eq!((s.ipc, s.l1_mpki, s.l2_mpki), (2.0, 10.0, 0.0));
        assert_eq!((s.row_hit_rate, s.alb_hit_rate), (0.75, 0.0));
        // The core's clock can stand past a later reading.
        let stalled = Counters {
            cycles: 4000,
            ..end
        }
        .since(&start);
        assert_eq!(stalled.cycles, 0);
        assert_eq!(METRICS[0].of(&stalled), 0.0);
    }

    /// The block round-trips exactly — values, column order, and bytes.
    #[test]
    fn telemetry_block_round_trips_byte_identically() {
        let s = series();
        let json = s.to_json();
        let parsed = TelemetrySeries::from_json(&json).expect("parses");
        assert_eq!(parsed, s);
        assert_eq!(parsed.to_json().render(), json.render());
        // Text round-trip too (through the JSON parser).
        let reparsed = JsonValue::parse(&json.render()).unwrap();
        assert_eq!(
            TelemetrySeries::from_json(&reparsed).expect("parses"),
            s,
            "negative PSEL and fractional gauges must survive text"
        );
    }

    #[test]
    fn from_json_rejects_malformed_blocks() {
        let good = series().to_json();
        assert!(TelemetrySeries::from_json(&good).is_some());
        // Missing column.
        let JsonValue::Object(mut pairs) = good.clone() else {
            unreachable!()
        };
        let JsonValue::Object(cols) = &mut pairs[1].1 else {
            unreachable!()
        };
        cols.retain(|(k, _)| k != "row_hit_rate");
        assert!(TelemetrySeries::from_json(&JsonValue::Object(pairs)).is_none());
        // Ragged column.
        let JsonValue::Object(mut pairs) = good else {
            unreachable!()
        };
        let JsonValue::Object(cols) = &mut pairs[1].1 else {
            unreachable!()
        };
        let ipc = cols.iter_mut().find(|(k, _)| k == "ipc").unwrap();
        let JsonValue::Array(items) = &mut ipc.1 else {
            unreachable!()
        };
        items.pop();
        assert!(TelemetrySeries::from_json(&JsonValue::Object(pairs)).is_none());
        // Not a telemetry block at all.
        assert!(TelemetrySeries::from_json(&JsonValue::Null).is_none());
        assert!(TelemetrySeries::from_record_json(&JsonValue::object([(
            "label",
            JsonValue::Str("x".into())
        )]))
        .is_none());
    }

    #[test]
    fn chrome_trace_is_valid_counter_json() {
        let mut trace = ChromeTrace::new();
        assert!(trace.is_empty());
        trace.add_series("gemm/Xmem", &series(), 3.6);
        trace.add_series("gemm/Baseline", &series(), 3.6);
        let doc = JsonValue::parse(&trace.render()).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        // 2 process_name metadata + 2 × 3 samples × 10 counter tracks.
        assert_eq!(events.len(), 2 + 2 * 3 * 10);
        let meta = &events[0];
        assert_eq!(meta.get("ph").and_then(|p| p.as_str()), Some("M"));
        assert_eq!(
            meta.get("args")
                .and_then(|a| a.get("name"))
                .and_then(|n| n.as_str()),
            Some("gemm/Xmem")
        );
        for ev in &events[1..] {
            let ph = ev.get("ph").and_then(|p| p.as_str()).unwrap();
            assert!(ph == "C" || ph == "M", "unexpected phase {ph}");
            if ph == "C" {
                assert!(ev.get("ts").and_then(|t| t.as_f64()).is_some());
                assert!(ev.get("pid").and_then(|p| p.as_u64()).is_some());
                assert!(matches!(ev.get("args"), Some(JsonValue::Object(_))));
            }
        }
        // The two series land in distinct processes.
        let pids: std::collections::HashSet<u64> = events
            .iter()
            .filter_map(|e| e.get("pid").and_then(|p| p.as_u64()))
            .collect();
        assert_eq!(pids.len(), 2);
    }
}
