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
//!   FR-FCFS queue-depth proxy;
//! * **XMem** — ALB hit rate over the epoch, AMU invalidations.
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

/// One telemetry sample, taken at an epoch boundary (or at end of run for
/// the final partial epoch). Rate-style fields (`ipc`, `*_mpki`,
/// `row_hit_rate`, `alb_hit_rate`, `bank_busy_fraction`, prefetch counts,
/// `amu_invalidations`) cover *this epoch only*; `instructions` / `cycles`
/// are cumulative, and the remaining fields are instantaneous gauges.
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
    /// FR-FCFS queue-depth proxy at the sample point (gauge).
    pub queue_depth: f64,
    /// ALB hit rate over the epoch's lookups.
    pub alb_hit_rate: f64,
    /// ALB entries invalidated by remaps over the epoch.
    pub amu_invalidations: u64,
}

/// The columnar field order of the serialized `"telemetry"` block — one
/// array per field, all of equal length. Fixed so rendering (and the
/// determinism tests built on byte comparison) never reorders.
const U64_COLUMNS: [&str; 7] = [
    "instructions",
    "cycles",
    "rob_load_occupancy",
    "outstanding_loads",
    "prefetch_issued",
    "prefetch_useful",
    "amu_invalidations",
];
const F64_COLUMNS: [&str; 10] = [
    "ipc",
    "l1_mpki",
    "l2_mpki",
    "l3_mpki",
    "l2_psel",
    "l3_psel",
    "row_hit_rate",
    "bank_busy_fraction",
    "queue_depth",
    "alb_hit_rate",
];

impl TelemetrySample {
    fn u64_column(&self, name: &str) -> u64 {
        match name {
            "instructions" => self.instructions,
            "cycles" => self.cycles,
            "rob_load_occupancy" => self.rob_load_occupancy,
            "outstanding_loads" => self.outstanding_loads,
            "prefetch_issued" => self.prefetch_issued,
            "prefetch_useful" => self.prefetch_useful,
            "amu_invalidations" => self.amu_invalidations,
            _ => unreachable!("unknown u64 column {name}"),
        }
    }

    fn u64_column_mut(&mut self, name: &str) -> &mut u64 {
        match name {
            "instructions" => &mut self.instructions,
            "cycles" => &mut self.cycles,
            "rob_load_occupancy" => &mut self.rob_load_occupancy,
            "outstanding_loads" => &mut self.outstanding_loads,
            "prefetch_issued" => &mut self.prefetch_issued,
            "prefetch_useful" => &mut self.prefetch_useful,
            "amu_invalidations" => &mut self.amu_invalidations,
            _ => unreachable!("unknown u64 column {name}"),
        }
    }

    fn f64_column(&self, name: &str) -> f64 {
        match name {
            "ipc" => self.ipc,
            "l1_mpki" => self.l1_mpki,
            "l2_mpki" => self.l2_mpki,
            "l3_mpki" => self.l3_mpki,
            "l2_psel" => self.l2_psel,
            "l3_psel" => self.l3_psel,
            "row_hit_rate" => self.row_hit_rate,
            "bank_busy_fraction" => self.bank_busy_fraction,
            "queue_depth" => self.queue_depth,
            "alb_hit_rate" => self.alb_hit_rate,
            _ => unreachable!("unknown f64 column {name}"),
        }
    }

    fn f64_column_mut(&mut self, name: &str) -> &mut f64 {
        match name {
            "ipc" => &mut self.ipc,
            "l1_mpki" => &mut self.l1_mpki,
            "l2_mpki" => &mut self.l2_mpki,
            "l3_mpki" => &mut self.l3_mpki,
            "l2_psel" => &mut self.l2_psel,
            "l3_psel" => &mut self.l3_psel,
            "row_hit_rate" => &mut self.row_hit_rate,
            "bank_busy_fraction" => &mut self.bank_busy_fraction,
            "queue_depth" => &mut self.queue_depth,
            "alb_hit_rate" => &mut self.alb_hit_rate,
            _ => unreachable!("unknown f64 column {name}"),
        }
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
        let mut columns: Vec<(String, JsonValue)> = Vec::new();
        // `instructions`/`cycles` lead, then the per-component columns in
        // machine order (core, caches, prefetch, DRAM, XMem).
        let order: [(&str, bool); 17] = [
            ("instructions", true),
            ("cycles", true),
            ("ipc", false),
            ("rob_load_occupancy", true),
            ("outstanding_loads", true),
            ("l1_mpki", false),
            ("l2_mpki", false),
            ("l3_mpki", false),
            ("l2_psel", false),
            ("l3_psel", false),
            ("prefetch_issued", true),
            ("prefetch_useful", true),
            ("row_hit_rate", false),
            ("bank_busy_fraction", false),
            ("queue_depth", false),
            ("alb_hit_rate", false),
            ("amu_invalidations", true),
        ];
        for (name, is_u64) in order {
            let items = self
                .samples
                .iter()
                .map(|s| {
                    if is_u64 {
                        JsonValue::U64(s.u64_column(name))
                    } else {
                        JsonValue::F64(s.f64_column(name))
                    }
                })
                .collect();
            columns.push((name.to_string(), JsonValue::Array(items)));
        }
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
        let len = series.get("instructions")?.as_array()?.len();
        let mut samples = vec![TelemetrySample::default(); len];
        for name in U64_COLUMNS {
            let col = series.get(name)?.as_array()?;
            if col.len() != len {
                return None;
            }
            for (sample, v) in samples.iter_mut().zip(col) {
                *sample.u64_column_mut(name) = v.as_u64()?;
            }
        }
        for name in F64_COLUMNS {
            let col = series.get(name)?.as_array()?;
            if col.len() != len {
                return None;
            }
            for (sample, v) in samples.iter_mut().zip(col) {
                *sample.f64_column_mut(name) = v.as_f64()?;
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
