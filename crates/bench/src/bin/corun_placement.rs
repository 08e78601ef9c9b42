//! Multi-programmed DRAM placement: §6.2's "based on the program semantics
//! of *all co-running applications*, the OS decides how to map atoms to
//! DRAM channels and banks".
//!
//! Pairs of placement workloads run on two cores sharing the memory
//! system. The XMem OS sees the merged atom set of both programs and
//! partitions banks accordingly; the baseline uses randomized allocation
//! on the best static mapping. All pair × system simulations run
//! concurrently on the harness worker pool.
//!
//! ```text
//! cargo run --release -p xmem-bench --bin corun_placement [--quick]
//! ```

use dram_sim::AddressMapping;
use workloads::placement::PlacementWorkload;
use workloads::sink::{LogSink, TraceEvent};
use xmem_bench::{geomean, print_table, quick_mode};
use xmem_sim::harness::{default_workers, run_jobs, Progress};
use xmem_sim::{run_corun, FramePolicyKind, MultiCoreConfig, SystemKind};

fn log_of(name: &str, accesses: u64) -> Vec<TraceEvent> {
    let mut w = PlacementWorkload::by_name(name).unwrap_or_else(|| {
        eprintln!("corun_placement: unknown workload `{name}`");
        std::process::exit(2);
    });
    w.accesses = accesses;
    let mut log = LogSink::new();
    w.generate(&mut log);
    log.into_events()
}

fn config(xmem: bool) -> MultiCoreConfig {
    // Full-size hierarchy (uc2 uses Table 3 caches), two cores.
    let mut cfg = MultiCoreConfig::westmere_like(2);
    cfg.phys_bytes = 64 << 20;
    cfg.dram = dram_sim::DramConfig::ddr3_1066(3.6).with_capacity(64 << 20);
    if xmem {
        cfg.mapping = AddressMapping::scheme5();
        cfg.frame_policy = FramePolicyKind::XmemPlacement;
        // Placement is software-only (§6): the caches stay at baseline
        // (mode Off). The XMem frame policy reads the atoms' placement
        // hints from the loaded segment (`load_segment`'s placement list),
        // not from the AMU, so no XMem hardware needs to be live.
        cfg.xmem = SystemKind::Baseline.xmem_mode();
    } else {
        cfg.mapping = AddressMapping::scheme1();
        cfg.frame_policy = FramePolicyKind::Randomized { seed: 0xA70 };
    }
    cfg
}

fn main() {
    let accesses = if quick_mode() { 30_000 } else { 150_000 };
    let pairs = [
        ("milc", "kmeans"),
        ("srad", "sphinx3"),
        ("cactus", "soplex"),
        ("zeusmp", "leslie3d"),
        ("mcf", "milc"),
    ];
    println!("# Multi-programmed DRAM placement (2 cores, shared memory)\n");

    // Pair-major jobs: (baseline, xmem) per pair.
    let jobs: Vec<(MultiCoreConfig, Vec<Vec<TraceEvent>>)> = pairs
        .iter()
        .flat_map(|&(a, b)| {
            let logs = vec![log_of(a, accesses), log_of(b, accesses)];
            [(config(false), logs.clone()), (config(true), logs)]
        })
        .collect();
    let progress = Progress::new("corun_placement", jobs.len());
    let reports = run_jobs(jobs.len(), default_workers(), |i| {
        let r = run_corun(&jobs[i].0, &jobs[i].1);
        progress.tick(false);
        r
    });
    progress.finish();

    let headers: Vec<String> = [
        "pair",
        "A speedup",
        "B speedup",
        "row-hit base",
        "row-hit xmem",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut rows = Vec::new();
    let mut speedups = Vec::new();

    for (pi, (a, b)) in pairs.iter().enumerate() {
        let (base, xmem) = (&reports[pi * 2], &reports[pi * 2 + 1]);
        let sa = base.cycles(0) as f64 / xmem.cycles(0) as f64;
        let sb = base.cycles(1) as f64 / xmem.cycles(1) as f64;
        speedups.push(sa);
        speedups.push(sb);
        rows.push(vec![
            format!("{a}+{b}"),
            format!("{sa:.3}"),
            format!("{sb:.3}"),
            format!("{:.3}", base.dram.row_hit_rate()),
            format!("{:.3}", xmem.dram.row_hit_rate()),
        ]);
    }
    print_table(&headers, &rows);
    println!(
        "\navg per-program speedup from co-run-aware placement: {:+.1}%",
        (geomean(&speedups) - 1.0) * 100.0
    );
}
