//! Figures 7 and 8: XMem-guided DRAM placement on 27 memory-intensive
//! workloads (§6.4).
//!
//! Three systems per workload:
//! * **Baseline** — strengthened per §6.3: best of nine address mappings,
//!   randomized VA→PA, prefetcher only if it helps;
//! * **XMem** — the §6.2 placement algorithm (isolate high-RBL structures,
//!   spread the rest);
//! * **Ideal** — perfect row-buffer locality (upper bound).
//!
//! Every system's §6.3 configuration grid (18 points for the Baseline, 2
//! each for XMem/Ideal) for every workload is flattened into **one**
//! parallel sweep — 27 × 22 = 594 simulations — and the per-system best is
//! selected from the order-stable records, reproducing the old serial
//! `best_of` exactly.
//!
//! Paper results reproduced here: XMem +8.5% avg (up to +31.9%) with a
//! 24.4% Ideal headroom; 5 workloads flat (little headroom or random-
//! dominated); read latency −12.6% avg (Fig 8), writes −6.2%.
//!
//! ```text
//! cargo run --release -p xmem-bench --bin fig7 [--quick] [--csv]
//! ```

use xmem_bench::grids;
use xmem_bench::reports::{require_complete, ReportWriter};
use xmem_bench::{geomean, print_table, quick_mode};
use xmem_sim::{RunRecord, Sweep, Uc2System};

fn main() {
    println!("# Figure 7: speedup over strengthened Baseline (27 workloads)");
    println!("# Figure 8: memory read latency normalized to Baseline\n");

    // Flatten every (workload, system) grid into one sweep, remembering
    // each grid's extent so the best point can be picked per grid.
    let workloads = grids::fig7_workloads(quick_mode());
    let (specs, grids) = grids::fig7(&workloads);
    let mut writer = ReportWriter::new("fig7");
    let outcomes = writer.sweep(Sweep::new(specs)).run_outcomes();
    let records = require_complete(&mut writer, outcomes);

    // Ties break by grid order, matching a serial min_by_key.
    let best = |wi: usize, sys: Uc2System| -> &RunRecord {
        let g = grids
            .iter()
            .find(|g| g.workload == wi && g.system == sys)
            .expect("grid exists");
        records[g.start..g.start + g.len]
            .iter()
            .min_by_key(|r| r.report.cycles())
            .expect("non-empty grid")
    };

    let headers: Vec<String> = [
        "workload",
        "XMem speedup",
        "Ideal speedup",
        "XMem read lat",
        "XMem write lat",
        "base row-hit",
        "xmem row-hit",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut rows = Vec::new();
    let mut xmem_speedups = Vec::new();
    let mut ideal_speedups = Vec::new();
    let mut read_lats = Vec::new();
    let mut write_lats = Vec::new();
    let mut best_xmem: (f64, &'static str) = (0.0, "");
    let mut flat = 0u32;

    for (wi, w) in workloads.iter().enumerate() {
        let base = best(wi, Uc2System::Baseline);
        let xmem = best(wi, Uc2System::Xmem);
        let ideal = best(wi, Uc2System::IdealRbl);

        let s_xmem = xmem.report.speedup_over(&base.report);
        let s_ideal = ideal.report.speedup_over(&base.report);
        let r_lat = xmem.report.normalized_read_latency(&base.report);
        let r_lat_ideal = ideal.report.normalized_read_latency(&base.report);
        let w_lat = {
            let b = base.report.dram.avg_write_latency();
            if b == 0.0 {
                1.0
            } else {
                xmem.report.dram.avg_write_latency() / b
            }
        };
        // Every record must carry the same extras or CSV emission would
        // see ragged column sets; baseline normalizes to itself (1.0).
        writer.emit_with(
            base,
            &[
                ("speedup", 1.0.into()),
                ("normalized_read_latency", 1.0.into()),
            ],
        );
        writer.emit_with(
            xmem,
            &[
                ("speedup", s_xmem.into()),
                ("normalized_read_latency", r_lat.into()),
            ],
        );
        writer.emit_with(
            ideal,
            &[
                ("speedup", s_ideal.into()),
                ("normalized_read_latency", r_lat_ideal.into()),
            ],
        );

        xmem_speedups.push(s_xmem);
        ideal_speedups.push(s_ideal);
        read_lats.push(r_lat);
        write_lats.push(w_lat);
        if s_xmem > best_xmem.0 {
            best_xmem = (s_xmem, w.name);
        }
        if s_xmem < 1.03 {
            flat += 1;
        }

        rows.push(vec![
            w.name.to_string(),
            format!("{s_xmem:.3}"),
            format!("{s_ideal:.3}"),
            format!("{r_lat:.3}"),
            format!("{w_lat:.3}"),
            format!("{:.3}", base.report.dram.row_hit_rate()),
            format!("{:.3}", xmem.report.dram.row_hit_rate()),
        ]);
    }
    print_table(&headers, &rows);

    println!();
    println!(
        "XMem speedup:  avg {:+.1}%, max {:+.1}% ({})   [paper: +8.5% avg, up to +31.9%]",
        (geomean(&xmem_speedups) - 1.0) * 100.0,
        (best_xmem.0 - 1.0) * 100.0,
        best_xmem.1
    );
    println!(
        "Ideal speedup: avg {:+.1}%   [paper: +24.4%]",
        (geomean(&ideal_speedups) - 1.0) * 100.0
    );
    println!("workloads with <3% gain: {flat}   [paper: 5]");
    println!(
        "read latency:  avg {:+.1}%, best {:+.1}%   [paper: -12.6% avg, up to -31.4%]",
        (geomean(&read_lats) - 1.0) * 100.0,
        (read_lats.iter().cloned().fold(f64::MAX, f64::min) - 1.0) * 100.0
    );
    println!(
        "write latency: avg {:+.1}%   [paper: -6.2%]",
        (geomean(&write_lats) - 1.0) * 100.0
    );
    writer.finish();
}
