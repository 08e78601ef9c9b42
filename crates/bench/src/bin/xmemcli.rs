//! `xmemcli` — run any experiment from the command line.
//!
//! ```text
//! xmemcli kernel gemm --n 96 --tile 64K --l3 32K --system xmem [--tlb] [--json]
//! xmemcli placement milc --system xmem [--accesses 150000] [--json]
//! xmemcli trace gemm --epoch 10000 --out /tmp/gemm-trace.json --system xmem
//! xmemcli record gemm --out /tmp/gemm.trace --n 48 --tile 8K
//! xmemcli replay /tmp/gemm.trace --l3 32K --system baseline [--json]
//! xmemcli list
//! ```
//!
//! `--json` replaces the human-readable report with one structured
//! `xmem-report-v1` document on stdout (same schema as the fig* reports).
//! `trace` runs a kernel with epoch-sampled cross-layer telemetry, prints
//! the per-epoch table, and with `--out` writes a Chrome trace-format JSON
//! openable in `chrome://tracing` or Perfetto.

use std::fs::File;
use std::process::exit;
use workloads::placement::PlacementWorkload;
use workloads::polybench::{KernelParams, PolybenchKernel};
use workloads::sink::{LogSink, TraceSink};
use workloads::trace_file::{read_trace, replay, write_trace};
use xmem_bench::print_table;
use xmem_sim::{
    placement_specs, run, ChromeTrace, JsonSink, JsonValue, ReportSink, RunRecord, RunReport,
    RunSpec, Sweep, SystemConfig, SystemKind, TelemetrySeries, Uc2System, WorkloadSpec,
    DEFAULT_EPOCH_INSTRUCTIONS,
};

fn usage() -> ! {
    eprintln!(
        "usage:\n  \
         xmemcli kernel <name> [--n N] [--tile BYTES] [--l3 BYTES] [--steps K]\n          \
         [--system baseline|pref|xmem] [--bw GBPS] [--tlb] [--json]\n  \
         xmemcli placement <name> [--system baseline|xmem|ideal] [--accesses N] [--json]\n  \
         xmemcli trace <kernel> [--epoch N] [--out TRACE.json] [kernel flags] [--json]\n  \
         xmemcli record <kernel> --out FILE [--n N] [--tile BYTES] [--steps K]\n  \
         xmemcli replay <FILE> [--l3 BYTES] [--system ...] [--tlb] [--json]\n  \
         xmemcli list"
    );
    exit(2)
}

/// Parses "64K", "2M", or plain bytes.
fn parse_bytes(s: &str) -> Option<u64> {
    let s = s.trim();
    let (num, mult) = match s.chars().last()? {
        'k' | 'K' => (&s[..s.len() - 1], 1u64 << 10),
        'm' | 'M' => (&s[..s.len() - 1], 1u64 << 20),
        _ => (s, 1),
    };
    num.parse::<u64>().ok().map(|v| v * mult)
}

#[derive(Debug)]
struct Flags {
    n: usize,
    tile: u64,
    l3: u64,
    steps: usize,
    system: SystemKind,
    uc2: Uc2System,
    bw: Option<f64>,
    tlb: bool,
    accesses: Option<u64>,
    out: Option<String>,
    json: bool,
    epoch: Option<u64>,
}

impl Default for Flags {
    fn default() -> Self {
        Flags {
            n: 96,
            tile: 16 << 10,
            l3: 32 << 10,
            steps: 12,
            system: SystemKind::Baseline,
            uc2: Uc2System::Baseline,
            bw: None,
            tlb: false,
            accesses: None,
            out: None,
            json: false,
            epoch: None,
        }
    }
}

fn parse_flags(args: &[String]) -> Flags {
    let mut f = Flags::default();
    let mut i = 0;
    let value = |args: &[String], i: &mut usize| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < args.len() {
        match args[i].as_str() {
            "--n" => f.n = value(args, &mut i).parse().unwrap_or_else(|_| usage()),
            "--tile" => f.tile = parse_bytes(&value(args, &mut i)).unwrap_or_else(|| usage()),
            "--l3" => f.l3 = parse_bytes(&value(args, &mut i)).unwrap_or_else(|| usage()),
            "--steps" => f.steps = value(args, &mut i).parse().unwrap_or_else(|_| usage()),
            "--bw" => f.bw = Some(value(args, &mut i).parse().unwrap_or_else(|_| usage())),
            "--accesses" => {
                f.accesses = Some(value(args, &mut i).parse().unwrap_or_else(|_| usage()))
            }
            "--out" => f.out = Some(value(args, &mut i)),
            "--epoch" => {
                let n: u64 = value(args, &mut i).parse().unwrap_or_else(|_| usage());
                if n == 0 {
                    usage();
                }
                f.epoch = Some(n);
            }
            "--tlb" => f.tlb = true,
            "--json" => f.json = true,
            "--system" => match value(args, &mut i).as_str() {
                "baseline" => {
                    f.system = SystemKind::Baseline;
                    f.uc2 = Uc2System::Baseline;
                }
                "pref" => f.system = SystemKind::XmemPref,
                "xmem" => {
                    f.system = SystemKind::Xmem;
                    f.uc2 = Uc2System::Xmem;
                }
                "ideal" => f.uc2 = Uc2System::IdealRbl,
                _ => usage(),
            },
            _ => usage(),
        }
        i += 1;
    }
    f
}

fn kernel_by_name(name: &str) -> PolybenchKernel {
    PolybenchKernel::extended()
        .into_iter()
        .find(|k| k.name() == name)
        .unwrap_or_else(|| {
            eprintln!("unknown kernel '{name}'; see `xmemcli list`");
            exit(2)
        })
}

fn print_report(r: &RunReport) {
    println!("cycles:           {}", r.cycles());
    println!("instructions:     {}", r.core.instructions);
    println!("ipc:              {:.3}", r.core.ipc());
    println!("avg load latency: {:.1} cyc", r.core.avg_load_latency());
    println!(
        "L1/L2/L3 hit:     {:.1}% / {:.1}% / {:.1}%",
        r.l1.hit_rate() * 100.0,
        r.l2.hit_rate() * 100.0,
        r.l3.hit_rate() * 100.0
    );
    println!(
        "DRAM:             {} reads ({} demand), {} writes, row-hit {:.1}%",
        r.dram.reads,
        r.dram.demand_reads,
        r.dram.writes,
        r.dram.row_hit_rate() * 100.0
    );
    println!(
        "demand read lat:  avg {:.0}, p50 {}, p99 {} cyc",
        r.dram.avg_demand_read_latency(),
        r.dram.demand_read_hist.percentile(0.5),
        r.dram.demand_read_hist.percentile(0.99)
    );
    println!(
        "XMem:             {} instructions ({:.4}% overhead), ALB {:.1}% of {} lookups",
        r.xmem_instructions,
        r.instruction_overhead * 100.0,
        r.alb.hit_rate() * 100.0,
        r.alb.lookups()
    );
}

/// Prints either the human-readable report or, with `--json`, the full
/// structured record (config + stats + derived metrics).
fn emit(f: &Flags, record: &RunRecord) {
    if f.json {
        let mut sink = JsonSink::new();
        sink.emit(record).expect("JSON sink accepts any record");
        println!("{}", sink.render());
    } else {
        print_report(&record.report);
    }
}

fn sys_config(f: &Flags) -> SystemConfig {
    let mut cfg = SystemConfig::scaled_use_case1(f.l3, f.system);
    if let Some(bw) = f.bw {
        cfg = cfg.with_per_core_bandwidth(bw);
    }
    if f.tlb {
        cfg = cfg.with_tlb();
    }
    cfg
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    match cmd.as_str() {
        "list" => {
            println!("kernels:");
            for k in PolybenchKernel::extended() {
                println!("  {}", k.name());
            }
            println!("placement workloads:");
            for w in PlacementWorkload::all() {
                println!("  {}", w.name);
            }
        }
        "kernel" => {
            let name = args.get(1).unwrap_or_else(|| usage());
            let f = parse_flags(&args[2..]);
            let kernel = kernel_by_name(name);
            let p = KernelParams {
                n: f.n,
                tile_bytes: f.tile,
                steps: f.steps,
                reuse: 200,
            };
            let cfg = sys_config(&f);
            if !f.json {
                println!(
                    "# {} n={} tile={} l3={} system={}\n",
                    name, f.n, f.tile, f.l3, f.system
                );
            }
            let spec = RunSpec::new(
                format!("{name}/{}", f.system),
                cfg,
                WorkloadSpec::kernel(kernel, p),
            );
            let records = Sweep::new(vec![spec]).run();
            emit(&f, &records[0]);
        }
        "placement" => {
            let name = args.get(1).unwrap_or_else(|| usage());
            let f = parse_flags(&args[2..]);
            let mut w = PlacementWorkload::by_name(name).unwrap_or_else(|| {
                eprintln!("unknown workload '{name}'; see `xmemcli list`");
                exit(2)
            });
            if let Some(a) = f.accesses {
                w.accesses = a;
            }
            if !f.json {
                println!("# {} system={}\n", name, f.uc2);
            }
            let Some(best) = Sweep::new(placement_specs(&w, f.uc2)).best() else {
                eprintln!("placement sweep produced no completed records");
                exit(1)
            };
            emit(&f, &best);
        }
        "record" => {
            let name = args.get(1).unwrap_or_else(|| usage());
            let f = parse_flags(&args[2..]);
            let Some(out) = f.out.clone() else { usage() };
            let kernel = kernel_by_name(name);
            let p = KernelParams {
                n: f.n,
                tile_bytes: f.tile,
                steps: f.steps,
                reuse: 200,
            };
            let mut log = LogSink::new();
            kernel.generate(&p, &mut log);
            let events = log.into_events();
            let file = File::create(&out).unwrap_or_else(|e| {
                eprintln!("cannot create {out}: {e}");
                exit(1)
            });
            write_trace(&events, file).unwrap_or_else(|e| {
                eprintln!("write failed: {e}");
                exit(1)
            });
            println!("recorded {} events to {out}", events.len());
        }
        "replay" => {
            let path = args.get(1).unwrap_or_else(|| usage());
            let f = parse_flags(&args[2..]);
            let file = File::open(path).unwrap_or_else(|e| {
                eprintln!("cannot open {path}: {e}");
                exit(1)
            });
            let events = read_trace(file).unwrap_or_else(|e| {
                eprintln!("bad trace: {e}");
                exit(1)
            });
            let cfg = sys_config(&f);
            if !f.json {
                println!(
                    "# replay {path} ({} events) l3={} system={}\n",
                    events.len(),
                    f.l3,
                    f.system
                );
            }
            let trace = |s: &mut dyn TraceSink| replay(&events, s);
            let report = run(&cfg, &trace, None, None).report;
            let record = RunRecord {
                label: format!("replay/{}", f.system),
                config: cfg,
                workload: "replay",
                // A raw trace has no stored parameterization.
                workload_params: JsonValue::Null,
                report,
                telemetry: None,
                sampling: None,
                run: None,
            };
            emit(&f, &record);
        }
        "trace" => {
            let name = args.get(1).unwrap_or_else(|| usage());
            let f = parse_flags(&args[2..]);
            let kernel = kernel_by_name(name);
            let p = KernelParams {
                n: f.n,
                tile_bytes: f.tile,
                steps: f.steps,
                reuse: 200,
            };
            let cfg = sys_config(&f);
            let epoch = f.epoch.unwrap_or(DEFAULT_EPOCH_INSTRUCTIONS);
            let label = format!("{name}/{}", f.system);
            let workload = WorkloadSpec::kernel(kernel, p);
            let out = run(&cfg, &workload, Some(epoch), None);
            let series = out.telemetry.expect("telemetry was enabled");
            let record = RunRecord {
                label: label.clone(),
                config: cfg,
                workload: kernel.name(),
                workload_params: workload.params_json(),
                report: out.report,
                telemetry: Some(series.clone()),
                sampling: None,
                run: None,
            };
            if f.json {
                emit(&f, &record);
            } else {
                println!(
                    "# trace {label} epoch={epoch} ({} samples over {} instructions)\n",
                    series.samples.len(),
                    record.report.core.instructions
                );
                print_series(&series);
            }
            if let Some(out) = &f.out {
                let mut trace = ChromeTrace::new();
                trace.add_series(&label, &series, cfg.core.freq_ghz);
                std::fs::write(out, trace.render()).unwrap_or_else(|e| {
                    eprintln!("cannot write {out}: {e}");
                    exit(1)
                });
                eprintln!("wrote Chrome trace to {out} (open in chrome://tracing or Perfetto)");
            }
        }
        _ => usage(),
    }
}

/// The per-epoch telemetry table `xmemcli trace` prints: one row per
/// sampled epoch, cross-layer columns left to right (core → caches →
/// DRAM → XMem).
fn print_series(series: &TelemetrySeries) {
    let headers: Vec<String> = [
        "instr",
        "ipc",
        "l1 mpki",
        "l2 mpki",
        "l3 mpki",
        "row-hit",
        "bank-busy",
        "queue",
        "alb-hit",
        "pf use/iss",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let rows: Vec<Vec<String>> = series
        .samples
        .iter()
        .map(|s| {
            vec![
                s.instructions.to_string(),
                format!("{:.3}", s.ipc),
                format!("{:.2}", s.l1_mpki),
                format!("{:.2}", s.l2_mpki),
                format!("{:.2}", s.l3_mpki),
                format!("{:.1}%", s.row_hit_rate * 100.0),
                format!("{:.1}%", s.bank_busy_fraction * 100.0),
                format!("{:.1}", s.queue_depth),
                format!("{:.1}%", s.alb_hit_rate * 100.0),
                format!("{}/{}", s.prefetch_useful, s.prefetch_issued),
            ]
        })
        .collect();
    print_table(&headers, &rows);
}
