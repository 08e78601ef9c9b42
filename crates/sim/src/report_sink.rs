//! Structured observability for sweep results: JSON and CSV emission.
//!
//! A [`ReportSink`] consumes [`RunRecord`]s and renders them as a machine-
//! readable document — [`JsonSink`] produces the `xmem-report-v1` schema
//! (one object per record, nested by component), [`CsvSink`] a flat table
//! with dotted column names (`core.cycles`, `dram.row_hit_rate`, …). Both
//! are hand-rolled on `std` only; [`JsonValue`] includes a parser so tests
//! (and downstream tooling) can round-trip reports.
//!
//! ```
//! use workloads::polybench::{KernelParams, PolybenchKernel};
//! use xmem_sim::{JsonSink, KernelRun, ReportSink, Sweep};
//!
//! let p = KernelParams { n: 12, tile_bytes: 512, steps: 1, reuse: 200 };
//! let records = Sweep::new(vec![KernelRun::new(PolybenchKernel::Mvt, p).spec()]).run();
//! let mut sink = JsonSink::new();
//! for r in &records {
//!     sink.emit(r).unwrap();
//! }
//! let doc = xmem_sim::report_sink::JsonValue::parse(&sink.render()).unwrap();
//! assert_eq!(doc.get("schema").and_then(|s| s.as_str()), Some("xmem-report-v1"));
//! ```

use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

use crate::config::{FramePolicyKind, SystemConfig};
use crate::harness::{RunMeta, RunRecord};
use crate::report::RunReport;
use cache_sim::{CacheStats, PrefetchStats};
use cpu_sim::kv::{KvPairs, KvValue};
use cpu_sim::CoreStats;
use dram_sim::DramStats;
use xmem_core::alb::AlbStats;

/// The schema identifier stamped into every JSON report document.
pub const JSON_SCHEMA: &str = "xmem-report-v1";

// ──────────────────────────── JSON values ────────────────────────────

/// A JSON document tree. Objects preserve insertion order, so rendering is
/// deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (counters).
    U64(u64),
    /// A float (ratios, averages). Always rendered with a decimal point or
    /// exponent so the type survives a round-trip.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object (ordered key → value pairs).
    Object(Vec<(String, JsonValue)>),
}

impl From<KvValue> for JsonValue {
    fn from(v: KvValue) -> Self {
        match v {
            KvValue::U64(v) => JsonValue::U64(v),
            KvValue::F64(v) => JsonValue::F64(v),
            KvValue::Bool(v) => JsonValue::Bool(v),
        }
    }
}

impl JsonValue {
    /// An object from named pairs.
    pub fn object<K: Into<String>>(pairs: impl IntoIterator<Item = (K, JsonValue)>) -> Self {
        JsonValue::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An object from a stats `kv()` list.
    pub fn from_kv(pairs: KvPairs) -> Self {
        JsonValue::Object(
            pairs
                .into_iter()
                .map(|(k, v)| (k.to_string(), v.into()))
                .collect(),
        )
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload widened to `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::U64(v) => Some(*v as f64),
            JsonValue::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// The integer payload, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Renders compact JSON (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::U64(v) => {
                let _ = write!(out, "{v}");
            }
            JsonValue::F64(v) => render_f64(*v, out),
            JsonValue::Str(s) => render_string(s, out),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            JsonValue::Object(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document (strict enough for everything this module
    /// renders; accepts arbitrary whitespace). Arrays and objects nested
    /// deeper than [`MAX_JSON_DEPTH`] are an error, so a corrupt file
    /// cannot exhaust the stack.
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(value)
    }
}

fn render_f64(v: f64, out: &mut String) {
    if !v.is_finite() {
        out.push_str("null");
        return;
    }
    let s = format!("{v}");
    out.push_str(&s);
    // Keep the float/integer distinction through a round-trip.
    if !s.contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A JSON parse failure: byte offset and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// A record rejected by a [`ReportSink`] — e.g. a CSV record whose
/// flattened columns do not match the table's header. Carried as a typed
/// error (rather than a panic) so binaries can diagnose the offending
/// record and exit cleanly, and so a sink failure inside a sweep worker
/// surfaces as [`crate::harness::RunOutcome::Failed`] rather than
/// tearing the process down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SinkError {
    /// Label of the rejected record.
    pub label: String,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for SinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "record `{}` rejected: {}", self.label, self.message)
    }
}

impl std::error::Error for SinkError {}

/// The deepest array/object nesting [`JsonValue::parse`] accepts. Report
/// and point files nest at most 6 levels, telemetry and sampling blocks
/// included.
pub const MAX_JSON_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b'[' | b'{') => {
                if self.depth == MAX_JSON_DEPTH {
                    return Err(self.err("nesting too deep"));
                }
                self.depth += 1;
                let value = if self.peek() == Some(b'[') {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                value
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Advance over a run of plain bytes, then re-decode as UTF-8.
            while self
                .peek()
                .is_some_and(|b| b != b'"' && b != b'\\' && b >= 0x20)
            {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("bad \\u code point"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if text.contains(['.', 'e', 'E']) || text.starts_with('-') {
            text.parse::<f64>()
                .map(JsonValue::F64)
                .map_err(|_| self.err("bad number"))
        } else {
            text.parse::<u64>()
                .map(JsonValue::U64)
                .map_err(|_| self.err("bad number"))
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

// ─────────────────────── record serialization ────────────────────────

fn frame_policy_str(policy: FramePolicyKind) -> String {
    match policy {
        FramePolicyKind::Sequential => "sequential".to_string(),
        FramePolicyKind::Randomized { seed } => format!("randomized({seed:#x})"),
        FramePolicyKind::XmemPlacement => "xmem-placement".to_string(),
    }
}

/// The configuration summary serialized with every record.
pub fn config_kv(cfg: &SystemConfig) -> Vec<(&'static str, JsonValue)> {
    vec![
        (
            "xmem_mode",
            JsonValue::Str(format!("{:?}", cfg.hierarchy.xmem)),
        ),
        ("mapping", JsonValue::Str(cfg.mapping.name().to_string())),
        (
            "frame_policy",
            JsonValue::Str(frame_policy_str(cfg.frame_policy)),
        ),
        ("ideal_rbl", JsonValue::Bool(cfg.ideal_rbl)),
        (
            "stride_prefetcher",
            JsonValue::Bool(cfg.hierarchy.stride_prefetcher),
        ),
        ("l1_bytes", JsonValue::U64(cfg.hierarchy.l1.size_bytes)),
        ("l2_bytes", JsonValue::U64(cfg.hierarchy.l2.size_bytes)),
        ("l3_bytes", JsonValue::U64(cfg.hierarchy.l3.size_bytes)),
        ("phys_bytes", JsonValue::U64(cfg.phys_bytes)),
        ("dram_channels", JsonValue::U64(cfg.dram.channels as u64)),
        ("tlb", JsonValue::Bool(cfg.tlb.is_some())),
    ]
}

/// The derived headline metrics serialized with every record (Figs 4–8
/// plotting axes: IPC, MPKI, row locality, ALB coverage, overheads).
pub fn derived_kv(report: &RunReport) -> KvPairs {
    vec![
        ("ipc", report.core.ipc().into()),
        ("l3_mpki", report.l3_mpki().into()),
        ("row_hit_rate", report.dram.row_hit_rate().into()),
        ("alb_coverage", report.alb.hit_rate().into()),
        (
            "avg_demand_read_latency",
            report.dram.avg_demand_read_latency().into(),
        ),
        ("instruction_overhead", report.instruction_overhead.into()),
    ]
}

impl RunRecord {
    /// This record as one `xmem-report-v1` JSON object, nested by
    /// component.
    pub fn to_json(&self) -> JsonValue {
        self.to_json_with(&[])
    }

    /// Like [`RunRecord::to_json`], with caller-computed extras (e.g.
    /// speedups over a baseline record) merged into the `derived` object.
    pub fn to_json_with(&self, extras: &[(&'static str, KvValue)]) -> JsonValue {
        let r = &self.report;
        let mut derived = derived_kv(r);
        derived.extend(extras.iter().copied());
        let mut fields: Vec<(String, JsonValue)> = vec![
            ("label".into(), JsonValue::Str(self.label.clone())),
            ("workload".into(), JsonValue::Str(self.workload.to_string())),
            ("config".into(), JsonValue::object(config_kv(&self.config))),
            ("core".into(), JsonValue::from_kv(r.core.kv())),
            ("l1".into(), JsonValue::from_kv(r.l1.kv())),
            ("l2".into(), JsonValue::from_kv(r.l2.kv())),
            ("l3".into(), JsonValue::from_kv(r.l3.kv())),
            ("dram".into(), JsonValue::from_kv(r.dram.kv())),
            (
                // xmem-core sits outside the cpu-sim stats chain, so the
                // ALB is spelled out rather than via kv().
                "alb".into(),
                JsonValue::object([
                    ("hits", JsonValue::U64(r.alb.hits)),
                    ("misses", JsonValue::U64(r.alb.misses)),
                    ("hit_rate", JsonValue::F64(r.alb.hit_rate())),
                ]),
            ),
            (
                "xmem".into(),
                JsonValue::object([
                    ("instructions", JsonValue::U64(r.xmem_instructions)),
                    (
                        "instruction_overhead",
                        JsonValue::F64(r.instruction_overhead),
                    ),
                ]),
            ),
            (
                "xmem_prefetch".into(),
                JsonValue::from_kv(r.xmem_prefetch.kv()),
            ),
            (
                "stride_prefetch".into(),
                match &r.stride_prefetch {
                    Some(p) => JsonValue::from_kv(p.kv()),
                    None => JsonValue::Null,
                },
            ),
        ];
        // Optional, backwards-compatible workload parameterization: resume
        // refuses to adopt a point whose parameters (problem size, tile,
        // placement mix) differ from the spec's. Absent when unknown.
        if self.workload_params != JsonValue::Null {
            fields.insert(2, ("workload_params".into(), self.workload_params.clone()));
        }
        // Optional, backwards-compatible epoch-sampled time series: absent
        // unless the sweep enabled telemetry, so v1 consumers keep parsing.
        if let Some(telemetry) = &self.telemetry {
            fields.push(("telemetry".into(), telemetry.to_json()));
        }
        // Optional, backwards-compatible sampling summary: absent unless the
        // sweep ran in sampled mode, so v1 consumers keep parsing.
        if let Some(sampling) = &self.sampling {
            fields.push(("sampling".into(), sampling.to_json()));
        }
        fields.push(("derived".into(), JsonValue::from_kv(derived)));
        // Optional, backwards-compatible execution metadata: absent for
        // records built outside a sweep, so v1 consumers keep parsing.
        if let Some(run) = &self.run {
            fields.push(("run".into(), run.to_json()));
        }
        JsonValue::Object(fields)
    }

    /// Rebuilds the measured report from one `xmem-report-v1` record
    /// object — the inverse of [`RunRecord::to_json`] for every *stored*
    /// counter, used by [`crate::harness::Sweep::resume_from`]. Derived
    /// metrics are recomputed on demand; the demand-read latency
    /// histogram is not serialized and comes back empty. `None` when a
    /// required field is missing or mistyped.
    pub fn report_from_json(record: &JsonValue) -> Option<RunReport> {
        let core = record.get("core")?;
        let dram = record.get("dram")?;
        let alb = record.get("alb")?;
        let xmem = record.get("xmem")?;
        Some(RunReport {
            core: CoreStats {
                cycles: u64_field(core, "cycles")?,
                instructions: u64_field(core, "instructions")?,
                loads: u64_field(core, "loads")?,
                stores: u64_field(core, "stores")?,
                total_load_latency: u64_field(core, "total_load_latency")?,
            },
            l1: cache_stats_from_json(record.get("l1")?)?,
            l2: cache_stats_from_json(record.get("l2")?)?,
            l3: cache_stats_from_json(record.get("l3")?)?,
            dram: DramStats {
                demand_read_hist: Default::default(),
                reads: u64_field(dram, "reads")?,
                demand_reads: u64_field(dram, "demand_reads")?,
                total_demand_read_latency: u64_field(dram, "total_demand_read_latency")?,
                writes: u64_field(dram, "writes")?,
                row_hits: u64_field(dram, "row_hits")?,
                row_misses: u64_field(dram, "row_misses")?,
                row_conflicts: u64_field(dram, "row_conflicts")?,
                total_read_latency: u64_field(dram, "total_read_latency")?,
                total_write_latency: u64_field(dram, "total_write_latency")?,
            },
            alb: AlbStats {
                hits: u64_field(alb, "hits")?,
                misses: u64_field(alb, "misses")?,
            },
            xmem_instructions: u64_field(xmem, "instructions")?,
            instruction_overhead: f64_field(xmem, "instruction_overhead")?,
            xmem_prefetch: prefetch_stats_from_json(record.get("xmem_prefetch")?)?,
            stride_prefetch: match record.get("stride_prefetch")? {
                JsonValue::Null => None,
                v => Some(prefetch_stats_from_json(v)?),
            },
        })
    }

    /// This record as flat `(column, value)` cells with dotted names — the
    /// CSV row form.
    pub fn flat_cells(&self, extras: &[(&'static str, KvValue)]) -> Vec<(String, JsonValue)> {
        fn flatten(prefix: &str, value: &JsonValue, out: &mut Vec<(String, JsonValue)>) {
            match value {
                JsonValue::Object(pairs) => {
                    for (k, v) in pairs {
                        let name = if prefix.is_empty() {
                            k.clone()
                        } else {
                            format!("{prefix}.{k}")
                        };
                        flatten(&name, v, out);
                    }
                }
                other => out.push((prefix.to_string(), other.clone())),
            }
        }
        let mut out = Vec::new();
        // The telemetry and sampling blocks are per-record variable-length
        // structures (a time series; a window/cluster summary), so they
        // cannot flatten into the fixed column set a CSV table requires —
        // rows omit them (the JSON form keeps them).
        if let JsonValue::Object(pairs) = self.to_json_with(extras) {
            for (k, v) in &pairs {
                if k == "telemetry" || k == "sampling" {
                    continue;
                }
                flatten(k, v, &mut out);
            }
        }
        out
    }
}

impl RunMeta {
    /// This metadata as the record's optional `run` JSON object.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("wall_nanos", JsonValue::U64(self.wall_nanos)),
            ("worker", JsonValue::U64(self.worker)),
            (
                "outcome",
                JsonValue::Str(if self.resumed { "resumed" } else { "ok" }.to_string()),
            ),
        ])
    }

    /// Reads the optional `run` block back out of a record object.
    pub fn from_record_json(record: &JsonValue) -> Option<RunMeta> {
        let run = record.get("run")?;
        Some(RunMeta {
            wall_nanos: run.get("wall_nanos")?.as_u64()?,
            worker: run.get("worker")?.as_u64()?,
            resumed: run.get("outcome")?.as_str()? == "resumed",
        })
    }
}

fn u64_field(v: &JsonValue, key: &str) -> Option<u64> {
    v.get(key)?.as_u64()
}

fn f64_field(v: &JsonValue, key: &str) -> Option<f64> {
    v.get(key)?.as_f64()
}

fn cache_stats_from_json(v: &JsonValue) -> Option<CacheStats> {
    Some(CacheStats {
        accesses: u64_field(v, "accesses")?,
        hits: u64_field(v, "hits")?,
        fills: u64_field(v, "fills")?,
        evictions: u64_field(v, "evictions")?,
        writebacks: u64_field(v, "writebacks")?,
        // Emitted only when nonzero (coherent runs), so absence means 0.
        snoop_invalidations: u64_field(v, "snoop_invalidations").unwrap_or(0),
        snoop_writebacks: u64_field(v, "snoop_writebacks").unwrap_or(0),
    })
}

fn prefetch_stats_from_json(v: &JsonValue) -> Option<PrefetchStats> {
    Some(PrefetchStats {
        issued: u64_field(v, "issued")?,
        useful: u64_field(v, "useful")?,
    })
}

// ─────────────────────── per-point streaming ─────────────────────────

/// FNV-1a, for a stable label → file-name mapping.
fn label_hash(label: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in label.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The file name a point record streams to inside a report directory:
/// the sanitized label plus a stable hash of the full label, so every
/// label (however odd its characters) maps to its own path.
pub fn point_file_name(label: &str) -> String {
    let mut sanitized: String = label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                c
            } else {
                '-'
            }
        })
        .collect();
    sanitized.truncate(80);
    format!("{sanitized}-{:016x}.json", label_hash(label))
}

/// Writes one record into `dir` as a single-record `xmem-report-v1`
/// document, atomically (temp file + rename), creating `dir` as needed.
/// This is the sweep's streaming path: a run killed mid-sweep leaves
/// every finished point durable and at worst one truncated temp file.
pub fn write_point_record(dir: &Path, record: &RunRecord) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(point_file_name(&record.label));
    let doc = JsonValue::object([
        ("schema", JsonValue::Str(JSON_SCHEMA.to_string())),
        ("records", JsonValue::Array(vec![record.to_json()])),
    ])
    .render();
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, doc)?;
    std::fs::rename(&tmp, &path)?;
    Ok(path)
}

/// Reads every `*.json` point file in `dir` and returns the record
/// objects found, in file-name order. A missing directory is an empty
/// scan; files that fail to read, parse, or carry the wrong schema are
/// skipped (a killed run may leave a truncated file — that point simply
/// re-runs).
pub fn scan_point_records(dir: &Path) -> io::Result<Vec<JsonValue>> {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    let mut records = Vec::new();
    for path in paths {
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        let Ok(doc) = JsonValue::parse(&text) else {
            eprintln!(
                "warning: skipping unparseable point file {}",
                path.display()
            );
            continue;
        };
        if doc.get("schema").and_then(|s| s.as_str()) != Some(JSON_SCHEMA) {
            continue;
        }
        if let Some(recs) = doc.get("records").and_then(|r| r.as_array()) {
            records.extend(recs.iter().cloned());
        }
    }
    Ok(records)
}

// ──────────────────────────── report sinks ───────────────────────────

/// A consumer of run records that renders a machine-readable document.
pub trait ReportSink {
    /// Adds one record.
    ///
    /// # Errors
    ///
    /// [`SinkError`] if the sink rejects the record (see [`Self::emit_with`]).
    fn emit(&mut self, record: &RunRecord) -> Result<(), SinkError> {
        self.emit_with(record, &[])
    }

    /// Adds one record with caller-computed derived extras (e.g. a
    /// `speedup` over some baseline the sink cannot know about).
    ///
    /// # Errors
    ///
    /// [`SinkError`] if the record does not fit the document built so far
    /// (e.g. ragged CSV columns). The sink is unchanged on error.
    fn emit_with(
        &mut self,
        record: &RunRecord,
        extras: &[(&'static str, KvValue)],
    ) -> Result<(), SinkError>;

    /// Renders everything emitted so far.
    fn render(&self) -> String;

    /// The conventional file extension for this sink's format.
    fn extension(&self) -> &'static str;
}

/// Renders records as one `xmem-report-v1` JSON document.
#[derive(Debug, Default)]
pub struct JsonSink {
    records: Vec<JsonValue>,
}

impl JsonSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ReportSink for JsonSink {
    fn emit_with(
        &mut self,
        record: &RunRecord,
        extras: &[(&'static str, KvValue)],
    ) -> Result<(), SinkError> {
        self.records.push(record.to_json_with(extras));
        Ok(())
    }

    fn render(&self) -> String {
        JsonValue::object([
            ("schema", JsonValue::Str(JSON_SCHEMA.to_string())),
            ("records", JsonValue::Array(self.records.clone())),
        ])
        .render()
    }

    fn extension(&self) -> &'static str {
        "json"
    }
}

/// Renders records as a flat CSV table. Columns come from the first
/// emitted record; later records must flatten to the same columns.
#[derive(Debug, Default)]
pub struct CsvSink {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl CsvSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Parses CSV text produced by this sink back into cells (quoted
    /// fields included) — the inverse used by the round-trip tests.
    pub fn parse(text: &str) -> Vec<Vec<String>> {
        let mut rows = Vec::new();
        let mut row = Vec::new();
        let mut cell = String::new();
        let mut quoted = false;
        let mut chars = text.chars().peekable();
        while let Some(c) = chars.next() {
            match c {
                '"' if quoted => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        cell.push('"');
                    } else {
                        quoted = false;
                    }
                }
                '"' if cell.is_empty() => quoted = true,
                ',' if !quoted => {
                    row.push(std::mem::take(&mut cell));
                }
                '\n' if !quoted => {
                    row.push(std::mem::take(&mut cell));
                    rows.push(std::mem::take(&mut row));
                }
                '\r' if !quoted => {}
                c => cell.push(c),
            }
        }
        if !cell.is_empty() || !row.is_empty() {
            row.push(cell);
            rows.push(row);
        }
        rows
    }
}

fn csv_escape(cell: &str) -> String {
    if cell.contains(['"', ',', '\n', '\r']) {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_string()
    }
}

fn csv_cell(value: &JsonValue) -> String {
    match value {
        JsonValue::Str(s) => csv_escape(s),
        JsonValue::Null => String::new(),
        // Numbers/bools render clean; arrays (e.g. a placement workload's
        // `workload_params.structs`) render as JSON containing commas and
        // quotes, so the rendered text goes through CSV escaping too.
        other => csv_escape(&other.render()),
    }
}

impl ReportSink for CsvSink {
    fn emit_with(
        &mut self,
        record: &RunRecord,
        extras: &[(&'static str, KvValue)],
    ) -> Result<(), SinkError> {
        let cells = record.flat_cells(extras);
        if self.header.is_empty() {
            self.header = cells.iter().map(|(name, _)| name.clone()).collect();
        } else {
            let names: Vec<&String> = cells.iter().map(|(name, _)| name).collect();
            if self.header.iter().collect::<Vec<_>>() != names {
                return Err(SinkError {
                    label: record.label.clone(),
                    message: format!(
                        "CSV records must share a column set (got {names:?}, header {:?})",
                        self.header
                    ),
                });
            }
        }
        self.rows
            .push(cells.iter().map(|(_, v)| csv_cell(v)).collect());
        Ok(())
    }

    fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(
            &self
                .header
                .iter()
                .map(|h| csv_escape(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    fn extension(&self) -> &'static str {
        "csv"
    }
}

/// Writes a sink's rendered document to `path`, creating parent
/// directories as needed.
pub fn write_report(path: impl AsRef<Path>, sink: &dyn ReportSink) -> io::Result<()> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, sink.render())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::{SamplingSpec, SamplingSummary};
    use crate::telemetry::{Counters, TelemetrySample, TelemetrySeries};
    use xmem_core::rng::SplitMix64;

    #[test]
    fn json_renders_and_parses_scalars() {
        let v = JsonValue::object([
            ("u", JsonValue::U64(42)),
            ("f", JsonValue::F64(0.5)),
            ("whole_f", JsonValue::F64(2.0)),
            ("b", JsonValue::Bool(true)),
            ("n", JsonValue::Null),
            ("s", JsonValue::Str("a \"quote\"\nline".to_string())),
            (
                "arr",
                JsonValue::Array(vec![JsonValue::U64(1), JsonValue::Null]),
            ),
        ]);
        let text = v.render();
        assert_eq!(JsonValue::parse(&text).unwrap(), v);
        // Whole floats keep their type.
        assert!(text.contains("\"whole_f\":2.0"));
    }

    #[test]
    fn json_rejects_garbage() {
        assert!(JsonValue::parse("{\"a\":}").is_err());
        assert!(JsonValue::parse("[1,2").is_err());
        assert!(JsonValue::parse("12 34").is_err());
        assert!(JsonValue::parse("").is_err());
    }

    /// Nesting past [`MAX_JSON_DEPTH`] is an error, not a stack overflow,
    /// so one corrupt point file cannot abort a resume.
    #[test]
    fn json_nesting_is_bounded() {
        for open in ["[", "{\"k\":"] {
            assert!(JsonValue::parse(&open.repeat(10_000)).is_err(), "{open}");
        }
        let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(JsonValue::parse(&nest(MAX_JSON_DEPTH)).is_ok());
        let err = JsonValue::parse(&nest(MAX_JSON_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_JSON_DEPTH);
    }

    /// Replaces, drops or truncates random nodes of `v`, keeping it JSON.
    fn mutate_tree(v: &mut JsonValue, rng: &mut SplitMix64) {
        if rng.percent(8) {
            *v = match rng.below(6) {
                0 => JsonValue::Null,
                1 => JsonValue::U64(rng.next_u64()),
                2 => JsonValue::F64(-1.5),
                3 => JsonValue::Str("x".into()),
                4 => JsonValue::Array(Vec::new()),
                _ => JsonValue::Object(Vec::new()),
            };
            return;
        }
        match v {
            JsonValue::Array(items) => {
                if rng.percent(10) {
                    items.truncate(rng.below(items.len() as u64 + 1) as usize);
                }
                items.iter_mut().for_each(|item| mutate_tree(item, rng));
            }
            JsonValue::Object(pairs) => {
                if !pairs.is_empty() && rng.percent(10) {
                    pairs.remove(rng.below(pairs.len() as u64) as usize);
                }
                pairs.iter_mut().for_each(|(_, v)| mutate_tree(v, rng));
            }
            _ => {}
        }
    }

    /// SplitMix64 mutation fuzz over a rendered point record with
    /// telemetry and sampling blocks: byte edits (flips, structural-byte
    /// insertions, deletions, truncation) of its text, and node edits of
    /// its tree. The parser and every decoder a resume runs return a value
    /// or `Err`/`None`, never a panic.
    #[test]
    fn mutated_point_records_never_panic() {
        let decode = |json: &JsonValue| {
            let _ = RunRecord::report_from_json(json);
            let _ = TelemetrySeries::from_record_json(json);
            let _ = SamplingSummary::from_record_json(json);
            let _ = RunMeta::from_record_json(json);
        };
        let mut record = synthetic_record();
        record.telemetry = Some(synthetic_series());
        record.sampling = Some(synthetic_summary());
        let valid = record.to_json();
        let text = valid.render().into_bytes();
        const STRUCTURAL: &[u8; 11] = b"[]{}\":,-.e9";
        let mut rng = SplitMix64::new(0xF022);
        for _ in 0..1000 {
            let mut buf = text.clone();
            for _ in 0..rng.range(1, 5) {
                let at = rng.below(buf.len() as u64) as usize;
                match rng.below(3) {
                    0 => buf[at] ^= rng.range(1, 256) as u8,
                    1 => buf.insert(at, STRUCTURAL[rng.below(11) as usize]),
                    _ => {
                        buf.remove(at);
                    }
                }
            }
            if rng.percent(20) {
                buf.truncate(rng.below(buf.len() as u64 + 1) as usize);
            }
            if let Ok(json) = JsonValue::parse(&String::from_utf8_lossy(&buf)) {
                decode(&json);
            }
            let mut tree = valid.clone();
            mutate_tree(&mut tree, &mut rng);
            decode(&tree);
        }
    }

    fn synthetic_record() -> RunRecord {
        let mk_cache = |accesses: u64| CacheStats {
            accesses,
            hits: accesses / 2,
            fills: accesses / 3,
            evictions: accesses / 4,
            writebacks: accesses / 5,
            snoop_invalidations: 0,
            snoop_writebacks: 0,
        };
        RunRecord {
            label: "unit/synthetic point".to_string(),
            config: SystemConfig::scaled_use_case1(8 << 10, crate::config::SystemKind::Xmem),
            workload: "gemm",
            workload_params: JsonValue::object([
                ("n", JsonValue::U64(24)),
                ("tile_bytes", JsonValue::U64(4 << 10)),
                ("steps", JsonValue::U64(2)),
                ("reuse", JsonValue::U64(200)),
            ]),
            report: RunReport {
                core: CoreStats {
                    cycles: 1000,
                    instructions: 900,
                    loads: 400,
                    stores: 100,
                    total_load_latency: 4800,
                },
                l1: mk_cache(500),
                l2: mk_cache(200),
                l3: mk_cache(90),
                dram: DramStats {
                    demand_read_hist: Default::default(),
                    reads: 80,
                    demand_reads: 60,
                    total_demand_read_latency: 9000,
                    writes: 20,
                    row_hits: 50,
                    row_misses: 20,
                    row_conflicts: 10,
                    total_read_latency: 11_000,
                    total_write_latency: 3000,
                },
                alb: AlbStats {
                    hits: 70,
                    misses: 2,
                },
                xmem_instructions: 12,
                instruction_overhead: 0.013,
                xmem_prefetch: PrefetchStats {
                    issued: 30,
                    useful: 25,
                },
                stride_prefetch: Some(PrefetchStats {
                    issued: 10,
                    useful: 4,
                }),
            },
            telemetry: None,
            sampling: None,
            run: Some(RunMeta {
                wall_nanos: 123_456,
                worker: 3,
                resumed: false,
            }),
        }
    }

    /// `report_from_json` + `RunMeta::from_record_json` invert `to_json`:
    /// a record rebuilt from its own JSON renders byte-identically.
    #[test]
    fn record_json_reconstruction_round_trips() {
        let record = synthetic_record();
        let json = record.to_json();
        let report = RunRecord::report_from_json(&json).expect("reconstructs");
        let rebuilt = RunRecord {
            report,
            run: RunMeta::from_record_json(&json),
            ..record.clone()
        };
        assert_eq!(rebuilt.to_json().render(), json.render());
        assert_eq!(report.cycles(), 1000);

        // stride_prefetch = None survives too.
        let mut no_stride = record;
        no_stride.report.stride_prefetch = None;
        let json = no_stride.to_json();
        let report = RunRecord::report_from_json(&json).expect("reconstructs");
        assert_eq!(report.stride_prefetch, None);
        assert_eq!(
            RunRecord {
                report,
                ..no_stride.clone()
            }
            .to_json()
            .render(),
            json.render()
        );
    }

    #[test]
    fn run_block_is_optional_and_tagged() {
        let mut record = synthetic_record();
        let json = record.to_json();
        assert_eq!(
            json.get("run")
                .and_then(|r| r.get("outcome"))
                .and_then(|o| o.as_str()),
            Some("ok")
        );
        record.run = None;
        assert!(record.to_json().get("run").is_none(), "block is optional");
        assert!(RunMeta::from_record_json(&record.to_json()).is_none());
        record.run = Some(RunMeta {
            resumed: true,
            ..RunMeta::default()
        });
        assert!(RunMeta::from_record_json(&record.to_json()).is_some_and(|m| m.resumed));
    }

    #[test]
    fn workload_params_block_is_optional() {
        let mut record = synthetic_record();
        assert_eq!(
            record
                .to_json()
                .get("workload_params")
                .and_then(|p| p.get("n"))
                .and_then(|n| n.as_u64()),
            Some(24)
        );
        // Records with an unknown parameterization (replayed traces,
        // pre-upgrade files) render without the block at all.
        record.workload_params = JsonValue::Null;
        assert!(record.to_json().get("workload_params").is_none());
    }

    /// A two-sample telemetry series, with negative psel floats.
    fn synthetic_series() -> TelemetrySeries {
        let mut series = TelemetrySeries::new(100);
        series.samples.push(TelemetrySample {
            instructions: 100,
            cycles: 140,
            ipc: 100.0 / 140.0,
            l2_psel: -3.0,
            ..Default::default()
        });
        series.samples.push(TelemetrySample {
            instructions: 180,
            cycles: 260,
            ipc: 80.0 / 120.0,
            l2_psel: 2.0,
            ..Default::default()
        });
        series
    }

    /// A sampling summary over two detailed windows.
    fn synthetic_summary() -> SamplingSummary {
        let spec = SamplingSpec {
            warmup_ops: 100,
            window_ops: 200,
            interval: 1000,
        };
        let windows = vec![
            Counters {
                instructions: 200,
                cycles: 250,
                l1_misses: 3,
                l2_misses: 1,
                l3_misses: 0,
                dram_accesses: 10,
                row_hits: 7,
                alb_lookups: 10,
                alb_hits: 9,
                ..Counters::default()
            },
            Counters {
                instructions: 200,
                cycles: 330,
                l1_misses: 6,
                l2_misses: 2,
                l3_misses: 1,
                dram_accesses: 10,
                row_hits: 4,
                alb_lookups: 10,
                alb_hits: 5,
                ..Counters::default()
            },
        ];
        SamplingSummary::from_windows(spec, 10_000, 2000, 1000, &windows)
    }

    #[test]
    fn telemetry_block_is_optional_and_backwards_compatible() {
        let mut record = synthetic_record();
        // Without sampling there is no block at all — pre-telemetry
        // readers of xmem-report-v1 see an unchanged record.
        let bare = record.to_json();
        assert!(bare.get("telemetry").is_none());
        let series = synthetic_series();
        record.telemetry = Some(series.clone());
        let json = record.to_json();
        // The block sits between the component stats and `derived`, and a
        // reader that ignores unknown keys reconstructs the same report.
        assert_eq!(
            TelemetrySeries::from_record_json(&json),
            Some(series),
            "series round-trips through the record"
        );
        assert_eq!(
            RunRecord::report_from_json(&json),
            RunRecord::report_from_json(&bare),
            "old readers parse records with the block"
        );
        // And through rendered text, including the negative psel floats.
        let reparsed = JsonValue::parse(&json.render()).expect("valid JSON");
        assert_eq!(reparsed.render(), json.render());
        assert_eq!(
            TelemetrySeries::from_record_json(&reparsed),
            record.telemetry
        );
        // CSV rows omit the variable-length block: column sets stay fixed
        // whether or not a record carries telemetry.
        let with = record.flat_cells(&[]);
        record.telemetry = None;
        assert_eq!(with, record.flat_cells(&[]));
        assert!(with.iter().all(|(name, _)| !name.starts_with("telemetry")));
    }

    #[test]
    fn sampling_block_is_optional_and_backwards_compatible() {
        let mut record = synthetic_record();
        // Without sampled execution there is no block at all — pre-sampling
        // readers of xmem-report-v1 see an unchanged record.
        let bare = record.to_json();
        assert!(bare.get("sampling").is_none());
        let summary = synthetic_summary();
        record.sampling = Some(summary.clone());
        let json = record.to_json();
        // The block sits after the component stats (and telemetry, when
        // present), before `derived`; a reader that ignores unknown keys
        // reconstructs the same report.
        assert_eq!(
            SamplingSummary::from_record_json(&json),
            Some(summary),
            "summary round-trips through the record"
        );
        assert_eq!(
            RunRecord::report_from_json(&json),
            RunRecord::report_from_json(&bare),
            "old readers parse records with the block"
        );
        // And through rendered text.
        let reparsed = JsonValue::parse(&json.render()).expect("valid JSON");
        assert_eq!(reparsed.render(), json.render());
        assert_eq!(
            SamplingSummary::from_record_json(&reparsed),
            record.sampling
        );
        // CSV rows omit the variable-length block: column sets stay fixed
        // whether or not a record carries a sampling summary.
        let with = record.flat_cells(&[]);
        record.sampling = None;
        assert_eq!(with, record.flat_cells(&[]));
        assert!(with.iter().all(|(name, _)| !name.starts_with("sampling")));
    }

    #[test]
    fn point_files_round_trip_via_scan() {
        let dir = std::env::temp_dir().join(format!("xmem-points-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let record = synthetic_record();
        let path = write_point_record(&dir, &record).expect("write");
        assert_eq!(
            path.file_name().and_then(|n| n.to_str()),
            Some(point_file_name(&record.label).as_str())
        );
        // A truncated half-written file is skipped, not fatal.
        std::fs::write(dir.join("truncated.json"), "{\"schema\":\"xmem-rep").unwrap();
        let records = scan_point_records(&dir).expect("scan");
        assert_eq!(records.len(), 1);
        assert_eq!(records[0], record.to_json());
        std::fs::remove_dir_all(&dir).unwrap();
        // A missing directory is an empty scan, not an error.
        assert_eq!(scan_point_records(&dir).expect("missing dir"), Vec::new());
    }

    #[test]
    fn point_file_names_are_sanitized_and_distinct() {
        let a = point_file_name("gemm/XMem 32KB");
        assert!(a.starts_with("gemm-XMem-32KB-"));
        assert!(a.ends_with(".json"));
        assert_ne!(a, point_file_name("gemm/XMem_32KB"));
    }

    #[test]
    fn csv_sink_rejects_ragged_columns_with_typed_error() {
        let record = synthetic_record();
        let mut sink = CsvSink::new();
        sink.emit_with(&record, &[("speedup", 1.5.into())])
            .expect("first record defines the header");
        let err = sink
            .emit(&record)
            .expect_err("a record missing the extra column must be rejected");
        assert_eq!(err.label, record.label);
        assert!(err.message.contains("column set"), "{err}");
        // The sink is unchanged on error: header plus the one accepted row.
        assert_eq!(CsvSink::parse(&sink.render()).len(), 2);
    }

    #[test]
    fn csv_escaping_round_trips() {
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
        // Non-string leaves are escaped after rendering: a JSON array cell
        // (placement `workload_params.structs`) contains commas and quotes.
        assert_eq!(csv_cell(&JsonValue::U64(7)), "7");
        let arr = JsonValue::Array(vec![
            JsonValue::object([("k", JsonValue::Str("v".into()))]),
            JsonValue::U64(1),
        ]);
        assert_eq!(csv_cell(&arr), "\"[{\"\"k\"\":\"\"v\"\"},1]\"");
        assert_eq!(
            CsvSink::parse(&format!("{}\n", csv_cell(&arr)))[0][0],
            arr.render()
        );
        let parsed = CsvSink::parse("a,\"b,c\",\"say \"\"hi\"\"\"\n1,2,3\n");
        assert_eq!(
            parsed,
            vec![
                vec!["a".to_string(), "b,c".to_string(), "say \"hi\"".to_string()],
                vec!["1".to_string(), "2".to_string(), "3".to_string()],
            ]
        );
    }
}
