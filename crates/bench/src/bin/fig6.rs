//! Figure 6: effect of prefetching vs. full coordination across memory
//! bandwidths (§5.4).
//!
//! At the largest tile size, two XMem design points run against the
//! Baseline under 2 / 1 / 0.5 GB/s of per-core memory bandwidth:
//! *XMem-Pref* (guided prefetching only, DRRIP cache management) and *XMem*
//! (pinning + prefetching). The paper finds both help, with XMem ahead of
//! XMem-Pref by 13% / 19.5% / 31% as bandwidth shrinks — pinning saves
//! memory traffic, which matters more when bandwidth is scarce.
//!
//! ```text
//! cargo run --release -p xmem-bench --bin fig6 [--quick] [--csv]
//! ```

use workloads::polybench::PolybenchKernel;
use xmem_bench::reports::{require_complete, ReportWriter};
use xmem_bench::{geomean, grids, print_table, quick_mode, UC1_N};
use xmem_sim::Sweep;

fn main() {
    let n = if quick_mode() { 48 } else { UC1_N };
    let bandwidths = grids::FIG6_BANDWIDTHS;
    let systems = grids::FIG6_SYSTEMS;
    println!("# Figure 6: speedup over Baseline at the largest tile size");
    println!("# (per-core bandwidth sweep: 4 / 2 / 1 / 0.5 GB/s; the paper reports 2/1/0.5)\n");

    let kernels = PolybenchKernel::all();
    let specs = grids::fig6(n);
    let mut writer = ReportWriter::new("fig6");
    let outcomes = writer.sweep(Sweep::new(specs)).run_outcomes();
    let records = require_complete(&mut writer, outcomes);

    let headers: Vec<String> = [
        "kernel", "Pref@4", "XMem@4", "Pref@2", "XMem@2", "Pref@1", "XMem@1", "Pref@0.5",
        "XMem@0.5",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut rows = Vec::new();
    let mut gaps: Vec<Vec<f64>> = vec![Vec::new(); bandwidths.len()];
    let mut pref_speedups: Vec<Vec<f64>> = vec![Vec::new(); bandwidths.len()];
    let mut xmem_speedups: Vec<Vec<f64>> = vec![Vec::new(); bandwidths.len()];

    let per_kernel = bandwidths.len() * systems.len();
    for (ki, kernel) in kernels.iter().enumerate() {
        let chunk = &records[ki * per_kernel..(ki + 1) * per_kernel];
        let mut row = vec![kernel.name().to_string()];
        for (bi, group) in chunk.chunks(systems.len()).enumerate() {
            let (base, pref, xmem) = (&group[0], &group[1], &group[2]);
            let s_pref = pref.report.speedup_over(&base.report);
            let s_xmem = xmem.report.speedup_over(&base.report);
            writer.emit_with(base, &[("speedup", 1.0.into())]);
            writer.emit_with(pref, &[("speedup", s_pref.into())]);
            writer.emit_with(xmem, &[("speedup", s_xmem.into())]);
            pref_speedups[bi].push(s_pref);
            xmem_speedups[bi].push(s_xmem);
            gaps[bi].push(s_xmem / s_pref);
            row.push(format!("{s_pref:.2}"));
            row.push(format!("{s_xmem:.2}"));
        }
        rows.push(row);
    }
    print_table(&headers, &rows);

    println!();
    for (bi, &bw) in bandwidths.iter().enumerate() {
        println!(
            "{bw} GB/s: XMem-Pref x{:.2}, XMem x{:.2}, XMem over XMem-Pref {:+.1}%   [paper gap: +13% / +19.5% / +31%]",
            geomean(&pref_speedups[bi]),
            geomean(&xmem_speedups[bi]),
            (geomean(&gaps[bi]) - 1.0) * 100.0
        );
    }
    writer.finish();
}
