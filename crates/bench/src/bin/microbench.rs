//! The pinned perf trajectory: per-layer simulator throughput (ops/sec).
//!
//! Measures each memory-path layer in isolation (cache probe/fill, DRAM
//! bank timing, page-table translate, TLB lookup, full hierarchy) plus the
//! end-to-end fig5 inner loop (`run` on one fig5 grid point), and
//! writes the numbers as JSON so successive commits can be compared.
//!
//! ```text
//! cargo run --release -p xmem-bench --bin microbench [-- --out=PATH]
//! ```
//!
//! `BENCH_baseline.json` at the repo root is the committed baseline
//! (measured on the scalar per-op path before the batched `MemoryPath`
//! API); CI uploads a fresh `BENCH_<sha>.json` artifact on every run. See
//! EXPERIMENTS.md ("Reading the perf trajectory") for the walkthrough.

use cache_sim::{Cache, CacheConfig, Hierarchy, HierarchyConfig, InsertPriority};
use cpu_sim::batch::OpAttrs;
use dram_sim::{AddressMapping, Dram, DramConfig};
use os_sim::{PageTable, Tlb, TlbConfig};
use workloads::polybench::PolybenchKernel;
use xmem_bench::microbench::{BenchRow, Timer};
use xmem_bench::{uc1_params, FIG5_L3};
use xmem_core::addr::VirtAddr;
use xmem_core::rng::SplitMix64;
use xmem_sim::{run, SystemConfig, SystemKind, WorkloadSpec};

/// Simulated operations per timed iteration for the layer microbenches.
const OPS: usize = 4096;

/// A deterministic stream of line-aligned addresses over `span` bytes.
fn addr_stream(seed: u64, span: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    (0..OPS).map(|_| rng.below(span / 64) * 64).collect()
}

fn bench_layers(t: &mut Timer) {
    // L3-like cache: probe, fill on miss. Working set 4x the cache so the
    // loop exercises both hits and the replacement path.
    let addrs = addr_stream(1, 256 << 10);
    let mut cache = Cache::new(CacheConfig::l3_westmere().with_size(64 << 10));
    t.case_ops("cache.l3", OPS as u64, || {
        let mut sum = 0u64;
        for &a in &addrs {
            if !cache.probe(a, false) {
                cache.fill(a, false, InsertPriority::Normal);
                sum += 1;
            }
        }
        sum
    });

    // DRAM bank timing over a hot working set (row hits and conflicts).
    let addrs = addr_stream(2, 16 << 20);
    let mut dram = Dram::new(
        DramConfig::ddr3_1066(3.6).with_capacity(64 << 20),
        AddressMapping::scheme1(),
    );
    let mut now = 0u64;
    t.case_ops("dram", OPS as u64, || {
        let mut sum = 0u64;
        for &a in &addrs {
            now += 4;
            sum += dram.serve(a, OpAttrs::read(), now);
        }
        sum
    });

    // Page-table translate: 1024 mapped pages, random lookups.
    let mut pt = PageTable::new(4096);
    for vpn in 0..1024 {
        pt.map_page(vpn, 2048 - vpn);
    }
    let vas = addr_stream(3, 1024 * 4096);
    t.case_ops("pagetable", OPS as u64, || {
        let mut sum = 0u64;
        for &va in &vas {
            use xmem_core::amu::Mmu;
            sum += pt
                .translate(VirtAddr::new(va))
                .map(|p| p.raw())
                .unwrap_or(0);
        }
        sum
    });

    // TLB: footprint 4x the 64-entry reach, so hits and walk-miss evictions
    // both show up.
    let mut tlb = Tlb::new(TlbConfig::default());
    let vas = addr_stream(4, 256 * 4096);
    t.case_ops("tlb", OPS as u64, || {
        let mut sum = 0u64;
        for &va in &vas {
            sum += tlb.translate_cost(VirtAddr::new(va));
        }
        sum
    });

    // Full cache hierarchy + DRAM behind it (no XMem context).
    let addrs = addr_stream(5, 1 << 20);
    let mut hier = Hierarchy::new(
        HierarchyConfig::westmere_like().with_l3_size(64 << 10),
        Dram::new(
            DramConfig::ddr3_1066(3.6).with_capacity(64 << 20),
            AddressMapping::scheme1(),
        ),
    );
    let mut now = 0u64;
    t.case_ops("hierarchy", OPS as u64, || {
        let mut sum = 0u64;
        for &a in &addrs {
            now += 4;
            sum += hier.serve(a, false, now, None);
        }
        sum
    });
}

fn bench_fig5_inner(t: &mut Timer) {
    // One fig5 grid point at --quick size: gemm, tile tuned for the full
    // L3. The instruction count is fixed by the workload, so ops/sec here
    // is simulated instructions per wall-clock second. Runs through `run`
    // on a `WorkloadSpec` — the monomorphized path the sweep engine uses.
    let gemm = WorkloadSpec::kernel(PolybenchKernel::Gemm, uc1_params(48, 64 << 10));
    for kind in [SystemKind::Baseline, SystemKind::Xmem] {
        let cfg = SystemConfig::scaled_use_case1(FIG5_L3, kind);
        let instructions = run(&cfg, &gemm, None, None).report.core.instructions;
        let name = match kind {
            SystemKind::Baseline => "fig5.inner.baseline",
            _ => "fig5.inner.xmem",
        };
        t.case_ops(name, instructions, || {
            run(&cfg, &gemm, None, None).report.core.cycles
        });
    }
}

/// Renders the rows as the `xmem-microbench-v1` JSON document.
fn render_json(rows: &[BenchRow]) -> String {
    let mut s = String::from("{\n  \"schema\": \"xmem-microbench-v1\",\n  \"cases\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"ns_per_iter\": {:.1}, \"ops_per_iter\": {}, \
             \"ops_per_sec\": {:.1}}}{}\n",
            r.name,
            r.median_ns,
            r.ops_per_iter,
            r.ops_per_sec(),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

fn main() {
    let out = std::env::args().find_map(|a| a.strip_prefix("--out=").map(std::path::PathBuf::from));
    println!("# Memory-path microbenchmarks (ops/sec per layer)");
    let mut t = Timer::new("microbench");
    bench_layers(&mut t);
    bench_fig5_inner(&mut t);
    let rows = t.finish();
    if let Some(path) = out {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).expect("create output directory");
            }
        }
        std::fs::write(&path, render_json(&rows)).expect("write bench JSON");
        println!("\nwrote {}", path.display());
    }
}
