//! Figure 4: execution time vs. tile size for 12 tiled kernels, Baseline
//! vs. XMem (§5.4 of the paper).
//!
//! The paper's observations this run reproduces:
//! * small tiles lose reuse (avg 28.7% slower than the best tile, up to 2×);
//! * tiles larger than the cache thrash the baseline (avg 64.8% slower, up
//!   to 7.6×);
//! * XMem cuts the oversized-tile loss to ~26.9% avg (up to 4.6×) through
//!   pinning + guided prefetch.
//!
//! The whole figure — 12 kernels × 9 tiles × 2 systems — is one parallel
//! [`Sweep`]; records land in spec order, so the table below is identical
//! to the old serial loops.
//!
//! ```text
//! cargo run --release -p xmem-bench --bin fig4 [--quick] [--csv]
//! ```

use workloads::polybench::PolybenchKernel;
use xmem_bench::reports::{require_complete, ReportWriter};
use xmem_bench::{fig4_tiles, fmt_bytes, geomean, grids, print_table, quick_mode, UC1_L3, UC1_N};
use xmem_sim::{RunRecord, Sweep};

fn main() {
    let n = if quick_mode() { 48 } else { UC1_N };
    let tiles = fig4_tiles();
    let l3 = UC1_L3;
    println!(
        "# Figure 4: execution time vs. tile size (L3 = {}, n = {n})",
        fmt_bytes(l3)
    );
    println!("# Values are execution time normalized to each kernel's best Baseline tile.\n");

    let kernels = PolybenchKernel::all();
    let specs = grids::fig4(n);
    let mut writer = ReportWriter::new("fig4");
    let outcomes = writer.sweep(Sweep::new(specs)).run_outcomes();
    let records = require_complete(&mut writer, outcomes);

    let mut small_tile_slowdowns = Vec::new();
    let mut large_base_slowdowns = Vec::new();
    let mut large_xmem_slowdowns = Vec::new();
    let mut max_base: f64 = 0.0;
    let mut max_xmem: f64 = 0.0;

    let mut headers = vec!["kernel".to_string(), "system".to_string()];
    headers.extend(tiles.iter().map(|t| fmt_bytes(*t)));
    let mut rows = Vec::new();

    for (ki, kernel) in kernels.iter().enumerate() {
        let chunk = &records[ki * 2 * tiles.len()..(ki + 1) * 2 * tiles.len()];
        let (base_recs, xmem_recs) = chunk.split_at(tiles.len());
        let best = base_recs
            .iter()
            .map(|r| r.report.cycles())
            .min()
            .expect("non-empty sweep") as f64;

        let norm = |recs: &[RunRecord]| -> Vec<f64> {
            recs.iter()
                .map(|r| r.report.cycles() as f64 / best)
                .collect()
        };
        let base_n = norm(base_recs);
        let xmem_n = norm(xmem_recs);
        for (r, &slowdown) in chunk.iter().zip(base_n.iter().chain(&xmem_n)) {
            writer.emit_with(r, &[("normalized_time", slowdown.into())]);
        }

        small_tile_slowdowns.push(base_n[0]);
        // "Largest tiles": every tile at or beyond the cache size (the
        // paper's largest tile equals its L3; our sweep extends past it).
        for (i, &t) in tiles.iter().enumerate() {
            if t >= l3 {
                large_base_slowdowns.push(base_n[i]);
                large_xmem_slowdowns.push(xmem_n[i]);
                max_base = max_base.max(base_n[i]);
                max_xmem = max_xmem.max(xmem_n[i]);
            }
        }

        let fmt = |v: &[f64]| v.iter().map(|x| format!("{x:.2}")).collect::<Vec<_>>();
        let mut row = vec![kernel.name().to_string(), "Baseline".to_string()];
        row.extend(fmt(&base_n));
        rows.push(row);
        let mut row = vec![String::new(), "XMem".to_string()];
        row.extend(fmt(&xmem_n));
        rows.push(row);
    }
    print_table(&headers, &rows);

    println!();
    println!(
        "smallest tile vs best (Baseline): avg {:+.1}%   [paper: +28.7% avg, up to 2x]",
        (geomean(&small_tile_slowdowns) - 1.0) * 100.0
    );
    println!(
        "largest tile vs best  (Baseline): avg {:+.1}%, max {:.1}x   [paper: +64.8% avg, up to 7.6x]",
        (geomean(&large_base_slowdowns) - 1.0) * 100.0,
        max_base
    );
    println!(
        "largest tile vs best  (XMem):     avg {:+.1}%, max {:.1}x   [paper: +26.9% avg, up to 4.6x]",
        (geomean(&large_xmem_slowdowns) - 1.0) * 100.0,
        max_xmem
    );
    writer.finish();
}
