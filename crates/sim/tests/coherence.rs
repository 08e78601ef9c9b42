//! Protocol gate for the MESI snooping bus: litmus scenarios with exact
//! final states and bus-transaction counts, exhaustive enumeration of both
//! transition tables, invariant-checked randomized fuzzing against a
//! golden-memory oracle, determinism across worker counts, and golden
//! regressions pinning `CoherenceMode::None` to the pre-MESI numbers and
//! the MESI co-runs of `corun_shared --quick` to their counters.

use cache_sim::{local_next, snoop_transition, BusOp, MesiState, SnoopAction};
use std::collections::BTreeMap;
use workloads::hog::stream_hog;
use workloads::polybench::{KernelParams, PolybenchKernel};
use workloads::shared::{lock_counter, producer_consumer, read_mostly_reader, PcRole};
use workloads::sink::{LogSink, TraceEvent, TraceSink};
use xmem_core::attrs::Reuse;
use xmem_core::rng::SplitMix64;
use xmem_sim::harness::run_jobs;
use xmem_sim::{
    run_corun, CoherenceMode, CoherentCluster, CorunReport, MultiCoreConfig, SystemKind,
};

// ───────────────────────────── litmus ─────────────────────────────

#[test]
fn store_then_load_is_visible_across_cores() {
    let mut c = CoherentCluster::small(2);
    c.write(0, 0x1000, 7, 0);
    let (v, _) = c.read(1, 0x1000, 100);
    assert_eq!(v, 7, "core 1 must observe core 0's store");
    // Exactly one BusRdX (the store's I→M) and one BusRd (the load),
    // served cache-to-cache with the M line flushed to memory.
    let b = c.bus_stats();
    assert_eq!(b.bus_rdx, 1);
    assert_eq!(b.bus_rd, 1);
    assert_eq!(b.bus_upgr, 0);
    assert_eq!(b.c2c_transfers, 1);
    assert_eq!(b.writebacks, 1);
    assert_eq!(c.state(0, 0x1000), MesiState::Shared);
    assert_eq!(c.state(1, 0x1000), MesiState::Shared);
    c.check().expect("invariants hold");
}

#[test]
fn exclusive_line_upgrades_silently() {
    let mut c = CoherentCluster::small(2);
    let (_, _) = c.read(0, 0x2000, 0);
    assert_eq!(c.state(0, 0x2000), MesiState::Exclusive, "sole reader is E");
    let before = c.bus_stats().transactions();
    assert_eq!(before, 1, "the fill was the only transaction");
    c.write(0, 0x2000, 5, 50);
    assert_eq!(c.state(0, 0x2000), MesiState::Modified);
    assert_eq!(
        c.bus_stats().transactions(),
        before,
        "E→M must not touch the bus"
    );
    c.check().expect("invariants hold");
}

#[test]
fn modified_line_downgrades_to_shared_and_updates_memory() {
    let mut c = CoherentCluster::small(2);
    c.write(0, 0x3000, 9, 0);
    assert_eq!(c.memory_value(0x3000), 0, "store not yet written back");
    let (v, _) = c.read(1, 0x3000, 80);
    assert_eq!(v, 9);
    assert_eq!(c.state(0, 0x3000), MesiState::Shared, "M→S on snooped read");
    assert_eq!(c.state(1, 0x3000), MesiState::Shared);
    assert_eq!(
        c.memory_value(0x3000),
        9,
        "the snoop flush must reach memory"
    );
    c.check().expect("invariants hold");
}

#[test]
fn evicting_a_modified_line_writes_it_back() {
    // small() geometry: L1 1KB/2-way and L2 2KB/4-way, both 8 sets of
    // 64-byte lines, so stride 512 keeps hitting one set. Five writes
    // overflow the set in both levels: the LRU line leaves the whole
    // private domain while still Modified.
    let mut c = CoherentCluster::small(2);
    for k in 0..5u64 {
        c.write(0, k * 512, 100 + k, k * 10);
    }
    assert_eq!(
        c.state(0, 0),
        MesiState::Invalid,
        "line 0 must have left the domain"
    );
    assert_eq!(c.memory_value(0), 100, "eviction of M must write back");
    assert_eq!(c.state(0, 4 * 512), MesiState::Modified, "newest line is M");
    c.check().expect("invariants hold");
}

#[test]
fn write_race_to_one_line_leaves_last_writer_modified() {
    let mut c = CoherentCluster::small(2);
    c.write(0, 0x4000, 1, 0);
    c.write(1, 0x4000, 2, 60);
    assert_eq!(c.state(1, 0x4000), MesiState::Modified, "last writer owns");
    assert_eq!(c.state(0, 0x4000), MesiState::Invalid, "loser invalidated");
    let b = c.bus_stats();
    assert_eq!(b.bus_rdx, 2);
    assert_eq!(b.invalidations, 1);
    assert_eq!(b.writebacks, 1, "core 0's M copy flushed on the snoop");
    assert_eq!(c.l1_snoop_invalidations(0), 1);
    let (v, _) = c.read(0, 0x4000, 200);
    assert_eq!(v, 2, "the race winner's value is the one that sticks");
    c.check().expect("invariants hold");
}

#[test]
fn shared_write_goes_over_the_bus_as_upgrade() {
    let mut c = CoherentCluster::small(3);
    c.write(0, 0x5000, 3, 0);
    let _ = c.read(1, 0x5000, 50);
    let _ = c.read(2, 0x5000, 100);
    assert_eq!(c.state(2, 0x5000), MesiState::Shared);
    let before = c.bus_stats().bus_upgr;
    c.write(1, 0x5000, 4, 150);
    let b = c.bus_stats();
    assert_eq!(b.bus_upgr, before + 1, "S→M is a BusUpgr");
    assert_eq!(c.state(1, 0x5000), MesiState::Modified);
    assert_eq!(c.state(0, 0x5000), MesiState::Invalid);
    assert_eq!(c.state(2, 0x5000), MesiState::Invalid);
    let (v, _) = c.read(2, 0x5000, 220);
    assert_eq!(v, 4);
    c.check().expect("invariants hold");
}

// ──────────────────── exhaustive enumeration ─────────────────────

#[test]
fn local_transitions_match_the_documented_state_machine() {
    use BusOp::*;
    use MesiState::*;
    // Every (state, is_write, other_sharers) triple — 16 cases, no gaps.
    let table = [
        ((Invalid, false, false), (Exclusive, Some(Rd))),
        ((Invalid, false, true), (Shared, Some(Rd))),
        ((Invalid, true, false), (Modified, Some(RdX))),
        ((Invalid, true, true), (Modified, Some(RdX))),
        ((Shared, false, false), (Shared, None)),
        ((Shared, false, true), (Shared, None)),
        ((Shared, true, false), (Modified, Some(Upgr))),
        ((Shared, true, true), (Modified, Some(Upgr))),
        ((Exclusive, false, false), (Exclusive, None)),
        ((Exclusive, false, true), (Exclusive, None)),
        ((Exclusive, true, false), (Modified, None)),
        ((Exclusive, true, true), (Modified, None)),
        ((Modified, false, false), (Modified, None)),
        ((Modified, false, true), (Modified, None)),
        ((Modified, true, false), (Modified, None)),
        ((Modified, true, true), (Modified, None)),
    ];
    assert_eq!(table.len(), 4 * 2 * 2, "every pair enumerated");
    for ((state, w, others), expected) in table {
        assert_eq!(
            local_next(state, w, others),
            expected,
            "local_next({state}, write={w}, others={others})"
        );
    }
}

#[test]
fn snoop_transitions_match_the_documented_state_machine() {
    use BusOp::*;
    use MesiState::*;
    use SnoopAction::{FlushSupply, Supply};
    // Every (state, observed op) pair — 12 cases. The two `None`s are the
    // protocol's unreachable pairs: an Upgr is only issued for a line in
    // S, which SWMR forbids coexisting with a remote M or E copy.
    let table = [
        ((Modified, Rd), Some((Shared, FlushSupply))),
        ((Modified, RdX), Some((Invalid, FlushSupply))),
        ((Modified, Upgr), None),
        ((Exclusive, Rd), Some((Shared, Supply))),
        ((Exclusive, RdX), Some((Invalid, Supply))),
        ((Exclusive, Upgr), None),
        ((Shared, Rd), Some((Shared, SnoopAction::None))),
        ((Shared, RdX), Some((Invalid, SnoopAction::None))),
        ((Shared, Upgr), Some((Invalid, SnoopAction::None))),
        ((Invalid, Rd), Some((Invalid, SnoopAction::None))),
        ((Invalid, RdX), Some((Invalid, SnoopAction::None))),
        ((Invalid, Upgr), Some((Invalid, SnoopAction::None))),
    ];
    assert_eq!(table.len(), 4 * 3, "every pair enumerated");
    for ((state, op), expected) in table {
        assert_eq!(
            snoop_transition(state, op),
            expected,
            "snoop_transition({state}, {op:?})"
        );
    }
}

// ───────────────── invariant-checked randomized fuzz ─────────────────

/// SplitMix64-driven multi-core address streams against a shadow "golden
/// memory": after every access the cluster must agree with the oracle on
/// data values, and `check()` re-verifies SWMR plus the data-value
/// invariant over every cached copy.
#[test]
fn randomized_streams_preserve_swmr_and_data_value_invariants() {
    const SEEDS: u64 = 6; // fixed seed count, run in CI
    const STEPS: u64 = 1_500;
    for seed in 0..SEEDS {
        let mut rng = SplitMix64::new(0xC0DE_C0DE ^ seed);
        let mut cluster = CoherentCluster::small(4);
        let mut golden: BTreeMap<u64, u64> = BTreeMap::new();
        for step in 0..STEPS {
            let core = (rng.next_u64() % 4) as usize;
            let addr = (rng.next_u64() % 48) * 64;
            let now = step * 7;
            if rng.next_u64() % 3 == 0 {
                let value = rng.next_u64();
                cluster.write(core, addr, value, now);
                golden.insert(addr, value);
            } else {
                let (v, _) = cluster.read(core, addr, now);
                let want = golden.get(&addr).copied().unwrap_or(0);
                assert_eq!(
                    v, want,
                    "seed {seed} step {step}: core {core} read stale data at {addr:#x}"
                );
            }
            if let Err(e) = cluster.check() {
                panic!("seed {seed} step {step}: invariant violated: {e}");
            }
        }
        assert!(
            cluster.bus_stats().transactions() > 0,
            "fuzz must exercise the bus"
        );
    }
}

// ───────────────────── determinism / byte-identity ─────────────────────

fn record(f: impl FnOnce(&mut dyn TraceSink)) -> Vec<TraceEvent> {
    let mut log = LogSink::new();
    f(&mut log);
    log.into_events()
}

fn shared_logs() -> Vec<Vec<TraceEvent>> {
    vec![
        record(|s| producer_consumer(s, PcRole::Producer, 8 << 10, 6, 2, Reuse(230))),
        record(|s| producer_consumer(s, PcRole::Consumer, 8 << 10, 6, 2, Reuse(230))),
        record(|s| read_mostly_reader(s, 2, 8 << 10, 1_200, 2, Reuse(200))),
        record(|s| lock_counter(s, 400, 4)),
    ]
}

fn mesi_config(aware: bool) -> MultiCoreConfig {
    let mut cfg = MultiCoreConfig::scaled_corun(4, 32 << 10, SystemKind::Xmem)
        .with_coherence(CoherenceMode::Mesi);
    cfg.coherence_aware_pinning = aware;
    cfg
}

#[test]
fn mesi_coruns_are_identical_across_worker_counts() {
    // The `XMEM_WORKERS=1` vs `=8` property for the coherent path: the
    // pool only distributes independent jobs, so worker count must never
    // leak into any report field.
    let logs = shared_logs();
    let jobs: Vec<MultiCoreConfig> = vec![mesi_config(true), mesi_config(false)];
    let render = |workers: usize| -> Vec<String> {
        run_jobs(jobs.len(), workers, |i| {
            format!("{:?}", run_corun(&jobs[i], &logs))
        })
    };
    assert_eq!(
        render(1),
        render(8),
        "worker count leaked into a MESI co-run report"
    );
}

#[test]
fn mesi_corun_is_reproducible_run_to_run() {
    let logs = shared_logs();
    let cfg = mesi_config(true);
    let a = format!("{:?}", run_corun(&cfg, &logs));
    let b = format!("{:?}", run_corun(&cfg, &logs));
    assert_eq!(a, b, "same config + logs must replay byte-identically");
}

#[test]
fn mesi_corun_exercises_the_bus_and_counts_traffic() {
    let logs = shared_logs();
    let r = run_corun(&mesi_config(true), &logs);
    assert!(r.bus.transactions() > 0, "shared logs must use the bus");
    assert!(r.bus.c2c_transfers > 0, "producer/consumer must c2c");
    assert!(r.bus.invalidations > 0, "lock contention must invalidate");
    let snoop_inval: u64 = r.l1s.iter().map(|c| c.snoop_invalidations).sum();
    assert!(snoop_inval > 0, "L1 snoop counters must see the traffic");
}

// ───────────────── golden regression: CoherenceMode::None ─────────────────

fn kernel_log(n: usize, tile: u64) -> Vec<TraceEvent> {
    record(|s| {
        PolybenchKernel::Gemm.generate(
            &KernelParams {
                n,
                tile_bytes: tile,
                steps: 1,
                reuse: 200,
            },
            s,
        )
    })
}

fn hog_log(lines: u64) -> Vec<TraceEvent> {
    record(|s| {
        let base = s.alloc(lines * 64, None);
        for i in 0..lines * 4 {
            s.load(base + (i % lines) * 64);
            s.compute(2);
        }
    })
}

struct CacheGold {
    acc: u64,
    hits: u64,
    fills: u64,
    ev: u64,
    wb: u64,
}

fn assert_cache(stats: &cache_sim::CacheStats, g: &CacheGold, what: &str) {
    assert_eq!(stats.accesses, g.acc, "{what} accesses");
    assert_eq!(stats.hits, g.hits, "{what} hits");
    assert_eq!(stats.fills, g.fills, "{what} fills");
    assert_eq!(stats.evictions, g.ev, "{what} evictions");
    assert_eq!(stats.writebacks, g.wb, "{what} writebacks");
    assert_eq!(stats.snoop_invalidations, 0, "{what} snooped without MESI");
    assert_eq!(
        stats.snoop_writebacks, 0,
        "{what} snoop-flushed without MESI"
    );
}

/// `CoherenceMode::None` (the default) must reproduce the pre-MESI
/// simulator exactly — these numbers were captured from the seed revision
/// before the coherence layer existed. Any drift here means the refactor
/// changed the incoherent memory path.
#[test]
fn coherence_none_matches_pre_mesi_golden_numbers() {
    // solo-baseline
    let r = run_corun(
        &MultiCoreConfig::scaled_corun(1, 32 << 10, SystemKind::Baseline),
        &[kernel_log(24, 2 << 10)],
    );
    assert_eq!(r.cores[0].cycles, 24165);
    assert_eq!(r.cores[0].instructions, 70272);
    assert_cache(
        &r.l2s[0],
        &CacheGold {
            acc: 304,
            hits: 87,
            fills: 217,
            ev: 9,
            wb: 1,
        },
        "solo l2[0]",
    );
    assert_cache(
        &r.l3,
        &CacheGold {
            acc: 217,
            hits: 61,
            fills: 222,
            ev: 0,
            wb: 0,
        },
        "solo l3",
    );
    assert_eq!(r.dram.accesses(), 222);
    assert_eq!((r.alb.hits, r.alb.misses), (0, 0));
    assert_eq!(r.bus.transactions(), 0, "no bus without MESI");

    // pair-xmem
    let r = run_corun(
        &MultiCoreConfig::scaled_corun(2, 32 << 10, SystemKind::Xmem),
        &[kernel_log(24, 2 << 10), hog_log(512)],
    );
    assert_eq!((r.cores[0].cycles, r.cores[0].instructions), (55707, 70272));
    assert_eq!((r.cores[1].cycles, r.cores[1].instructions), (42105, 6144));
    assert_cache(
        &r.l2s[0],
        &CacheGold {
            acc: 304,
            hits: 87,
            fills: 217,
            ev: 9,
            wb: 1,
        },
        "pair l2[0]",
    );
    assert_cache(
        &r.l2s[1],
        &CacheGold {
            acc: 2048,
            hits: 650,
            fills: 1398,
            ev: 1142,
            wb: 0,
        },
        "pair l2[1]",
    );
    assert_cache(
        &r.l3,
        &CacheGold {
            acc: 1615,
            hits: 1440,
            fills: 821,
            ev: 309,
            wb: 0,
        },
        "pair l3",
    );
    assert_eq!(r.dram.accesses(), 822);
    assert_eq!((r.alb.hits, r.alb.misses), (1597, 18));
    assert_eq!(r.bus.transactions(), 0);

    // trio-baseline
    let r = run_corun(
        &MultiCoreConfig::scaled_corun(3, 32 << 10, SystemKind::Baseline),
        &[kernel_log(32, 8 << 10), hog_log(2048), hog_log(2048)],
    );
    assert_eq!(
        (r.cores[0].cycles, r.cores[0].instructions),
        (177806, 164864)
    );
    assert_eq!(
        (r.cores[1].cycles, r.cores[1].instructions),
        (885735, 24576)
    );
    assert_eq!(
        (r.cores[2].cycles, r.cores[2].instructions),
        (887495, 24576)
    );
    assert_cache(
        &r.l2s[0],
        &CacheGold {
            acc: 1367,
            hits: 983,
            fills: 384,
            ev: 128,
            wb: 35,
        },
        "trio l2[0]",
    );
    for core in [1, 2] {
        assert_cache(
            &r.l2s[core],
            &CacheGold {
                acc: 8192,
                hits: 649,
                fills: 7543,
                ev: 7287,
                wb: 0,
            },
            "trio hog l2",
        );
    }
    assert_cache(
        &r.l3,
        &CacheGold {
            acc: 15470,
            hits: 14742,
            fills: 16006,
            ev: 15494,
            wb: 50,
        },
        "trio l3",
    );
    assert_eq!(r.dram.accesses(), 16086);
    assert_eq!((r.alb.hits, r.alb.misses), (0, 0));
    assert_eq!(r.bus.transactions(), 0);
}

// ───────────────── golden regression: CoherenceMode::Mesi ─────────────────

/// Every simulated counter of a co-run, one line per component, in the
/// order of the golden table below: `core<i> cycles instructions loads
/// stores total_load_latency`; `l1[i]`/`l2[i]`/`l3` accesses hits fills
/// evictions writebacks snoop_invalidations snoop_writebacks; `dram` reads
/// demand_reads writes row_hits row_misses row_conflicts
/// total_read_latency total_write_latency; `alb` hits misses; `bus` rd rdx
/// upgr c2c writebacks invalidations stall_cycles.
fn counters(r: &CorunReport) -> Vec<String> {
    let cache = |name: String, c: &cache_sim::CacheStats| {
        format!(
            "{name} {} {} {} {} {} {} {}",
            c.accesses,
            c.hits,
            c.fills,
            c.evictions,
            c.writebacks,
            c.snoop_invalidations,
            c.snoop_writebacks
        )
    };
    let mut out: Vec<String> = r
        .cores
        .iter()
        .enumerate()
        .map(|(i, c)| {
            format!(
                "core{i} {} {} {} {} {}",
                c.cycles, c.instructions, c.loads, c.stores, c.total_load_latency
            )
        })
        .collect();
    out.extend(
        r.l1s
            .iter()
            .enumerate()
            .map(|(i, c)| cache(format!("l1[{i}]"), c)),
    );
    out.extend(
        r.l2s
            .iter()
            .enumerate()
            .map(|(i, c)| cache(format!("l2[{i}]"), c)),
    );
    out.push(cache("l3".to_string(), &r.l3));
    let d = &r.dram;
    out.push(format!(
        "dram {} {} {} {} {} {} {} {}",
        d.reads,
        d.demand_reads,
        d.writes,
        d.row_hits,
        d.row_misses,
        d.row_conflicts,
        d.total_read_latency,
        d.total_write_latency
    ));
    out.push(format!("alb {} {}", r.alb.hits, r.alb.misses));
    let b = &r.bus;
    out.push(format!(
        "bus {} {} {} {} {} {} {}",
        b.bus_rd,
        b.bus_rdx,
        b.bus_upgr,
        b.c2c_transfers,
        b.writebacks,
        b.invalidations,
        b.stall_cycles
    ));
    out
}

/// `corun_shared`'s four scenarios at `--quick` size, as that binary
/// builds them.
fn corun_shared_quick_scenarios() -> Vec<(&'static str, Vec<Vec<TraceEvent>>)> {
    let (passes, lookups, rounds, hog_accesses) = (120, 4_000, 1_500, 6_000);
    let (buffer, table) = (16 << 10, 24 << 10);
    let producer =
        record(|s| producer_consumer(s, PcRole::Producer, buffer, passes, 2, Reuse(230)));
    let consumer =
        record(|s| producer_consumer(s, PcRole::Consumer, buffer, passes, 2, Reuse(230)));
    let reader = |core: u64| record(|s| read_mostly_reader(s, core, table, lookups, 2, Reuse(200)));
    let lock = record(|s| lock_counter(s, rounds, 6));
    let hog = record(|s| stream_hog(s, 64 << 10, hog_accesses, 8));
    vec![
        ("pc", vec![producer.clone(), consumer.clone()]),
        ("readers", vec![reader(0), reader(1), hog.clone()]),
        ("lock", vec![lock.clone(), lock]),
        ("mixed", vec![producer, consumer, reader(2), hog]),
    ]
}

/// The `mesi` machine of `corun_shared --quick` (XMem, 32KB L3, MESI,
/// coherence-aware pinning), captured before the co-run scheduler, the
/// per-core translate cache and the slot-based MESI engine replaced the
/// per-op loop. Scheduling order, translation and every protocol step
/// feed these counters, so any drift means the co-run simulates something
/// else.
const MESI_GOLDEN: [(&str, &[&str]); 4] = [
    (
        "pc",
        &[
            "core0 23040 92160 0 30720 0",
            "core1 398616 92160 30720 0 398616",
            "l1[0] 30720 0 30720 30592 30390 0 0",
            "l1[1] 30720 0 30720 30284 0 308 0",
            "l2[0] 30720 30464 256 0 0 0 0",
            "l2[1] 30720 30156 564 0 0 308 0",
            "l3 256 250 258 0 0 0 0",
            "dram 258 6 0 254 4 0 1466274 0",
            "alb 252 4",
            "bus 564 256 308 564 564 308 403008",
        ],
    ),
    (
        "readers",
        &[
            "core0 264256 12250 4000 250 264256",
            "core1 270900 12250 4000 250 270900",
            "core2 353443 54000 6000 0 3617092",
            "l1[0] 4250 1261 2989 2861 209 0 0",
            "l1[1] 4250 1252 2998 2870 212 0 0",
            "l1[2] 6000 0 6000 5872 0 0 0",
            "l2[0] 2989 1434 1555 1299 166 0 0",
            "l2[1] 2998 1428 1570 1314 171 0 0",
            "l2[2] 6000 1077 4923 4667 0 0 0",
            "l3 7495 6361 5783 5271 74 0 0",
            "dram 5783 1134 324 5769 14 0 7578585 317007",
            "alb 7471 24",
            "bus 7683 365 0 553 326 0 3894391",
        ],
    ),
    (
        "lock",
        &[
            "core0 4418 13500 3000 1500 61492",
            "core1 3469 13500 3000 1500 30998",
            "l1[0] 4500 4440 60 0 0 27 12",
            "l1[1] 4500 4442 58 0 0 26 14",
            "l2[0] 60 0 60 0 0 27 12",
            "l2[1] 58 0 58 0 0 26 14",
            "l3 65 62 69 0 0 0 0",
            "dram 69 3 0 67 2 0 44118 0",
            "alb 62 3",
            "bus 92 26 27 53 52 53 113444",
        ],
    ),
    (
        "mixed",
        &[
            "core0 23040 92160 0 30720 0",
            "core1 398893 92160 30720 0 398893",
            "core2 388838 12250 4000 250 388838",
            "core3 358888 54000 6000 0 3925577",
            "l1[0] 30720 0 30720 30592 30422 0 0",
            "l1[1] 30720 0 30720 30291 0 301 0",
            "l1[2] 4250 1247 3003 2875 214 0 0",
            "l1[3] 6000 0 6000 5872 0 0 0",
            "l2[0] 30720 30464 256 0 0 0 0",
            "l2[1] 30720 30163 557 0 0 301 0",
            "l2[2] 3003 1388 1615 1359 159 0 0",
            "l2[3] 6000 1077 4923 4667 0 0 0",
            "l3 6794 5867 5842 5330 276 0 0",
            "dram 5842 927 423 5828 14 0 8965646 1268351",
            "alb 6767 27",
            "bus 6921 430 301 557 712 301 4374711",
        ],
    ),
];

#[test]
fn mesi_coruns_match_golden_counters() {
    for ((name, logs), (gold_name, gold)) in corun_shared_quick_scenarios().iter().zip(MESI_GOLDEN)
    {
        assert_eq!(*name, gold_name);
        let cfg = MultiCoreConfig::scaled_corun(logs.len(), 32 << 10, SystemKind::Xmem)
            .with_coherence(CoherenceMode::Mesi);
        let got = counters(&run_corun(&cfg, logs));
        assert_eq!(got.len(), gold.len(), "{name}: component count");
        for (g, want) in got.iter().zip(gold) {
            assert_eq!(g, want, "{name}");
        }
    }
}
