//! Figure 5: performance portability under shrinking cache space (§5.4).
//!
//! For each kernel, the tile size is tuned for the large L3 (the paper's
//! 2 MB analogue), then the *same binary* runs with that L3, half of it, and
//! a quarter of it. The figure reports the worst execution time across the
//! three cache sizes, normalized to the Baseline on the large cache.
//!
//! Paper result: worst-case slowdown 55% for the Baseline vs. 6% for XMem.
//!
//! ```text
//! cargo run --release -p xmem-bench --bin fig5 [--quick] [--csv]
//! ```

use workloads::polybench::PolybenchKernel;
use xmem_bench::reports::{require_complete, ReportWriter};
use xmem_bench::{fmt_bytes, geomean, grids, print_table, quick_mode, UC1_N};
use xmem_sim::Sweep;

fn main() {
    let n = if quick_mode() { 48 } else { UC1_N };
    let cache_sizes = grids::fig5_cache_sizes();
    let l3_full = cache_sizes[0];
    println!(
        "# Figure 5: max execution time across L3 = {{{}, {}, {}}}, tile tuned for {}",
        fmt_bytes(cache_sizes[0]),
        fmt_bytes(cache_sizes[1]),
        fmt_bytes(cache_sizes[2]),
        fmt_bytes(l3_full),
    );
    println!("# Normalized to Baseline at the tuned cache size.\n");

    let tuned_tile = grids::fig5_tile();
    let systems = grids::UC1_SYSTEMS;
    let kernels = PolybenchKernel::all();
    let specs = grids::fig5(n);
    let mut writer = ReportWriter::new("fig5");
    let outcomes = writer.sweep(Sweep::new(specs)).run_outcomes();
    let records = require_complete(&mut writer, outcomes);

    let headers: Vec<String> = ["kernel", "tuned tile", "Baseline max", "XMem max"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut rows = Vec::new();
    let mut base_max = Vec::new();
    let mut xmem_max = Vec::new();

    let per_kernel = systems.len() * cache_sizes.len();
    for (ki, kernel) in kernels.iter().enumerate() {
        let chunk = &records[ki * per_kernel..(ki + 1) * per_kernel];
        let reference = chunk[0].report.cycles() as f64;
        for r in chunk {
            writer.emit_with(
                r,
                &[(
                    "normalized_time",
                    (r.report.cycles() as f64 / reference).into(),
                )],
            );
        }
        let worst = |recs: &[xmem_sim::RunRecord]| -> f64 {
            recs.iter()
                .map(|r| r.report.cycles() as f64 / reference)
                .fold(0.0f64, f64::max)
        };
        let b = worst(&chunk[..cache_sizes.len()]);
        let x = worst(&chunk[cache_sizes.len()..]);
        base_max.push(b);
        xmem_max.push(x);
        rows.push(vec![
            kernel.name().to_string(),
            fmt_bytes(tuned_tile),
            format!("{b:.2}"),
            format!("{x:.2}"),
        ]);
    }
    print_table(&headers, &rows);

    println!();
    println!(
        "worst-case slowdown with less cache: Baseline {:+.0}%  [paper: +55%]",
        (geomean(&base_max) - 1.0) * 100.0
    );
    println!(
        "worst-case slowdown with less cache: XMem     {:+.0}%  [paper: +6%]",
        (geomean(&xmem_max) - 1.0) * 100.0
    );
    writer.finish();
}
