//! The overhead analysis of §4.2 and §4.4: storage, instructions, ALB
//! coverage, and context switches.
//!
//! ```text
//! cargo run --release -p xmem-bench --bin overheads [--quick]
//! ```

use workloads::polybench::PolybenchKernel;
use xmem_bench::reports::{require_complete, ReportWriter};
use xmem_bench::{mean, print_table, quick_mode, uc1_params, UC1_L3, UC1_N};
use xmem_core::aam::AamConfig;
use xmem_core::overhead::storage_overhead;
use xmem_core::process::ContextSwitchCost;
use xmem_sim::{KernelRun, Sweep, SystemKind};

fn main() {
    let n = if quick_mode() { 48 } else { UC1_N };

    // ---- §4.4(1): storage overheads (analytic, full-size 8 GB system) ----
    println!("# Storage overhead (S4.4(1)), 8 GB system, 256 atoms/app\n");
    let default_cfg = AamConfig {
        phys_bytes: 8 << 30,
        granularity: 512,
        id_bits: 8,
    };
    let small_cfg = AamConfig {
        phys_bytes: 8 << 30,
        granularity: 1024,
        id_bits: 6,
    };
    let d = storage_overhead(256, &default_cfg);
    let s = storage_overhead(256, &small_cfg);
    print_table(
        &["table".into(), "measured".into(), "paper".into()],
        &[
            vec![
                "AST (per app)".into(),
                format!("{} B", d.ast_bytes),
                "32 B".into(),
            ],
            vec![
                "GAT (per app, 19 B/atom)".into(),
                format!("{:.1} KB", d.gat_bytes as f64 / 1024.0),
                "2.8 KB".into(),
            ],
            vec![
                "AAM (512B units, 8-bit IDs)".into(),
                format!("{} MB = {:.2}%", d.aam_bytes >> 20, d.aam_fraction * 100.0),
                "16 MB = 0.2%".into(),
            ],
            vec![
                "AAM (1KB units, 6-bit IDs)".into(),
                format!("{:.2}%", s.aam_fraction * 100.0),
                "0.07%".into(),
            ],
        ],
    );

    // ---- §4.4(2) + §4.2: measured instruction overhead and ALB hit rate ----
    println!("\n# Instruction overhead (S4.4(2)) and ALB coverage (S4.2), measured\n");
    let mut overheads = Vec::new();
    let mut alb_rates = Vec::new();
    let mut rows = Vec::new();
    let mut writer = ReportWriter::new("overheads");
    let outcomes = writer
        .sweep(Sweep::new(
            PolybenchKernel::all()
                .into_iter()
                .map(|kernel| {
                    KernelRun::new(kernel, uc1_params(n, 8 << 10))
                        .l3_bytes(UC1_L3)
                        .system(SystemKind::Xmem)
                        .spec()
                })
                .collect(),
        ))
        .run_outcomes();
    let records = require_complete(&mut writer, outcomes);
    for (kernel, rec) in PolybenchKernel::all().into_iter().zip(&records) {
        let r = &rec.report;
        writer.emit(rec);
        overheads.push(r.instruction_overhead);
        if r.alb.lookups() > 0 {
            alb_rates.push(r.alb.hit_rate());
        }
        rows.push(vec![
            kernel.name().to_string(),
            format!("{}", r.xmem_instructions),
            format!("{:.4}%", r.instruction_overhead * 100.0),
            format!("{:.1}%", r.alb.hit_rate() * 100.0),
        ]);
    }
    print_table(
        &[
            "kernel".into(),
            "XMem insts".into(),
            "inst overhead".into(),
            "ALB hit rate".into(),
        ],
        &rows,
    );
    println!();
    println!(
        "instruction overhead: avg {:.4}%, max {:.4}%   [paper: 0.014% avg, 0.2% max]",
        mean(&overheads) * 100.0,
        overheads.iter().cloned().fold(0.0f64, f64::max) * 100.0
    );
    println!(
        "ALB hit rate (256 entries): avg {:.1}%   [paper: 98.9%]",
        mean(&alb_rates) * 100.0
    );

    // ---- §4.4(4): context switch ----
    println!("\n# Context switch overhead (S4.4(4))\n");
    let cost = ContextSwitchCost::default();
    println!(
        "extra instructions: {} ({} ns), flush: {} ns, total {} ns against a 3-5 us switch ({:.1}%-{:.1}%)",
        cost.extra_instructions,
        cost.register_ns,
        cost.flush_ns,
        cost.total_ns(),
        cost.overhead_fraction(5000.0) * 100.0,
        cost.overhead_fraction(3000.0) * 100.0,
    );

    writer.finish();
}
