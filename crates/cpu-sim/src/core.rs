//! A trace-driven, limited-window out-of-order core timing model.
//!
//! The model reproduces the first-order timing behaviour of the paper's
//! Westmere-like configuration (Table 3: 3.6 GHz, 4-wide issue, 128-entry
//! ROB, 32-entry load queue):
//!
//! * the **front end** retires up to `issue_width` instructions per cycle;
//! * an op cannot issue until the op `rob_entries` before it has completed
//!   (in-order retirement from a finite reorder buffer);
//! * at most `lq_entries` loads are in flight (load-queue limit) — this is
//!   what bounds memory-level parallelism;
//! * a *dependent* load additionally waits for the previous load's value
//!   (pointer chasing serializes).
//!
//! This class of "interval" model is standard for memory-system studies: the
//! quantities the XMem results depend on (miss overlap, effective MLP,
//! exposed memory latency) are captured, while pipeline details that don't
//! affect them are abstracted away (see DESIGN.md for the substitution
//! argument).

use crate::batch::{MemoryPath, OpAttrs, OpBatch, OpKind};
use crate::trace::{FixedLatency, Op};

/// Fixed-capacity FIFO of in-flight loads as `(seq, completion)` pairs.
///
/// The core pushes and pops one entry per load in the hot step loop, and
/// its occupancy is bounded by the load-queue size, so a power-of-two ring
/// with masked indices replaces `VecDeque`'s growth and wrap checks.
#[derive(Debug)]
struct LoadRing {
    buf: Vec<(u64, u64)>,
    mask: usize,
    head: usize,
    len: usize,
}

impl LoadRing {
    /// A ring holding at least `cap` entries.
    fn with_capacity(cap: usize) -> Self {
        let n = cap.next_power_of_two();
        LoadRing {
            buf: vec![(0, 0); n],
            mask: n - 1,
            head: 0,
            len: 0,
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn front(&self) -> Option<&(u64, u64)> {
        (self.len > 0).then(|| &self.buf[self.head])
    }

    #[inline]
    fn pop_front(&mut self) {
        debug_assert!(self.len > 0);
        self.head = (self.head + 1) & self.mask;
        self.len -= 1;
    }

    #[inline]
    fn push_back(&mut self, v: (u64, u64)) {
        debug_assert!(self.len <= self.mask, "LoadRing overflow");
        self.buf[(self.head + self.len) & self.mask] = v;
        self.len += 1;
    }

    fn iter(&self) -> impl Iterator<Item = &(u64, u64)> + '_ {
        (0..self.len).map(move |i| &self.buf[(self.head + i) & self.mask])
    }
}

/// Core configuration (Table 3 defaults via [`CoreConfig::westmere_like`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreConfig {
    /// Instructions issued per cycle.
    pub issue_width: u32,
    /// Reorder-buffer entries.
    pub rob_entries: usize,
    /// Load-queue entries (maximum loads in flight).
    pub lq_entries: usize,
    /// Core frequency in GHz (used to convert cycles to wall time).
    pub freq_ghz: f64,
}

impl CoreConfig {
    /// The paper's Westmere-like configuration (Table 3).
    pub fn westmere_like() -> Self {
        CoreConfig {
            issue_width: 4,
            rob_entries: 128,
            lq_entries: 32,
            freq_ghz: 3.6,
        }
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self::westmere_like()
    }
}

/// Statistics from one simulated run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CoreStats {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Instructions executed (compute + loads + stores).
    pub instructions: u64,
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
    /// Sum of load latencies in cycles (for average-latency reporting).
    pub total_load_latency: u64,
}

impl CoreStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Average load latency in cycles.
    pub fn avg_load_latency(&self) -> f64 {
        if self.loads == 0 {
            0.0
        } else {
            self.total_load_latency as f64 / self.loads as f64
        }
    }

    /// Wall-clock seconds at `freq_ghz`.
    pub fn seconds(&self, freq_ghz: f64) -> f64 {
        self.cycles as f64 / (freq_ghz * 1e9)
    }

    /// Exports counters and derived metrics for the report sinks.
    pub fn kv(&self) -> crate::kv::KvPairs {
        vec![
            ("cycles", self.cycles.into()),
            ("instructions", self.instructions.into()),
            ("loads", self.loads.into()),
            ("stores", self.stores.into()),
            // Raw total alongside the derived average, so a serialized
            // report reconstructs to the exact counter values.
            ("total_load_latency", self.total_load_latency.into()),
            ("ipc", self.ipc().into()),
            ("avg_load_latency", self.avg_load_latency().into()),
        ]
    }
}

/// The core timing model.
///
/// Two driving styles are supported:
///
/// * **pull**: [`Core::run`] consumes an op iterator;
/// * **push**: [`Core::step`] feeds one op at a time (used when the trace
///   generator performs side effects — e.g. XMem calls — between ops), with
///   [`Core::stats`] available at any point.
///
/// # Examples
///
/// ```
/// use cpu_sim::core::{Core, CoreConfig};
/// use cpu_sim::trace::{FixedLatency, Op};
///
/// let mut core = Core::new(CoreConfig::westmere_like());
/// let ops = vec![Op::Compute(400), Op::load(0x1000), Op::Compute(400)];
/// let stats = core.run(ops, &mut FixedLatency { latency: 4 });
/// assert_eq!(stats.instructions, 801);
/// // 801 instructions at 4-wide ≈ 200 cycles; the L1-hit load hides.
/// assert!(stats.cycles >= 200 && stats.cycles < 220);
/// ```
#[derive(Debug)]
pub struct Core {
    config: CoreConfig,
    stats: CoreStats,
    /// `log2(issue_width)` when the width is a power of two (every real
    /// configuration): lets the per-op front-end time be a shift instead of
    /// a 64-bit division.
    width_shift: Option<u32>,
    /// Issue slots consumed so far; front-end time = issued / width.
    issued: u64,
    /// Sequence number of the next op (computes advance it by n).
    seq: u64,
    /// In-flight or completed loads as (seq, completion), ordered by seq.
    loads: LoadRing,
    /// Max completion among ops already forced out of the ROB window.
    retire_frontier: u64,
    /// Completion time of the most recent load (for dependent loads).
    last_load_completion: u64,
    /// Latest completion seen (defines final cycle count).
    max_completion: u64,
}

impl Core {
    /// Creates a core with the given configuration.
    pub fn new(config: CoreConfig) -> Self {
        assert!(config.issue_width > 0, "issue width must be non-zero");
        assert!(config.rob_entries > 0, "ROB must be non-empty");
        assert!(config.lq_entries > 0, "load queue must be non-empty");
        Core {
            stats: CoreStats::default(),
            width_shift: config
                .issue_width
                .is_power_of_two()
                .then(|| config.issue_width.trailing_zeros()),
            issued: 0,
            seq: 0,
            loads: LoadRing::with_capacity(config.lq_entries + 1),
            retire_frontier: 0,
            last_load_completion: 0,
            max_completion: 0,
            config,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CoreConfig {
        &self.config
    }

    /// Resets all execution state and statistics.
    pub fn reset(&mut self) {
        *self = Core::new(self.config);
    }

    /// Front-end time: the cycle the next op issues in.
    #[inline]
    fn front_time(&self) -> u64 {
        match self.width_shift {
            Some(s) => self.issued >> s,
            None => self.issued / self.config.issue_width as u64,
        }
    }

    /// The core's current notion of time (cycle at which everything issued
    /// so far will have completed).
    #[inline]
    pub fn now(&self) -> u64 {
        // `issued.div_ceil(width)`; the co-run scheduler polls this per op,
        // so power-of-two widths round up with a shift and a mask test.
        let frontend = match self.width_shift {
            Some(s) => (self.issued >> s) + u64::from(self.issued & ((1 << s) - 1) != 0),
            None => self.issued.div_ceil(self.config.issue_width as u64),
        };
        frontend.max(self.max_completion).max(self.retire_frontier)
    }

    /// Statistics as of the ops stepped so far.
    pub fn stats(&self) -> CoreStats {
        let mut s = self.stats;
        s.cycles = self.now();
        s
    }

    /// Instructions executed so far. Cheap enough to poll per op — this is
    /// the counter epoch-sampled telemetry keys its sampling decision on.
    #[inline]
    pub fn instructions(&self) -> u64 {
        self.stats.instructions
    }

    /// Loads currently tracked in the ROB window (in flight or completed
    /// but not yet retired): a proxy for ROB occupancy by memory ops.
    pub fn rob_load_occupancy(&self) -> usize {
        self.loads.len()
    }

    /// Loads whose completion time lies beyond the front end's current
    /// cycle — i.e. misses still outstanding at this instant.
    pub fn outstanding_loads(&self) -> usize {
        let ft = self.front_time();
        self.loads.iter().filter(|&&(_, c)| c > ft).count()
    }

    /// Bulk compute: advances the front end only. Compute completes at the
    /// front end; it never extends the critical path beyond issue
    /// bandwidth.
    #[inline]
    fn step_compute(&mut self, n: u64) {
        self.issued += n;
        self.seq += n;
        self.stats.instructions += n;
    }

    #[inline]
    fn step_load<M>(&mut self, addr: u64, dep: bool, mem: &mut M)
    where
        M: MemoryPath + ?Sized,
    {
        let rob = self.config.rob_entries as u64;
        let lq = self.config.lq_entries;
        // Drop loads that have left the ROB window, feeding the retire
        // frontier.
        while let Some(&(s, c)) = self.loads.front() {
            if s + rob <= self.seq || self.loads.len() >= lq {
                self.retire_frontier = self.retire_frontier.max(c);
                self.loads.pop_front();
            } else {
                break;
            }
        }
        let ft = self.front_time();
        let mut start = ft.max(self.retire_frontier);
        if dep {
            start = start.max(self.last_load_completion);
        }
        let latency = mem.serve(addr, OpAttrs::read().with_dep(dep), start);
        let completion = start + latency;
        self.loads.push_back((self.seq, completion));
        self.last_load_completion = completion;
        self.max_completion = self.max_completion.max(completion);
        self.stats.total_load_latency += latency;
        self.stats.loads += 1;
        self.stats.instructions += 1;
        self.issued += 1;
        self.seq += 1;
    }

    #[inline]
    fn step_store<M>(&mut self, addr: u64, mem: &mut M)
    where
        M: MemoryPath + ?Sized,
    {
        let ft = self.front_time();
        let start = ft.max(self.retire_frontier);
        // Stores retire through the write buffer: their latency is off the
        // critical path, but the access still updates the memory model's
        // state (fills, bank timings, traffic).
        let _ = mem.serve(addr, OpAttrs::write(), start);
        self.stats.stores += 1;
        self.stats.instructions += 1;
        self.issued += 1;
        self.seq += 1;
    }

    /// Feeds one op through the model.
    #[inline]
    pub fn step<M>(&mut self, op: Op, mem: &mut M)
    where
        M: MemoryPath + ?Sized,
    {
        match op {
            Op::Compute(n) => self.step_compute(n as u64),
            Op::Load { addr, dep } => self.step_load(addr, dep, mem),
            Op::Store { addr } => self.step_store(addr, mem),
        }
    }

    /// Feeds one op through the model, retiring loads with a caller-fixed
    /// latency instead of consulting a memory model.
    ///
    /// This is the *functional-warmup* step of sampled execution: between
    /// detailed windows, memory state (tags, LRU, row buffers) is warmed
    /// separately while the core keeps its issue/ROB/load-queue machinery
    /// advancing at a nominal cost, so a detailed window opens with a
    /// plausibly occupied pipeline rather than an idle one.
    #[inline]
    pub fn step_fixed(&mut self, op: Op, latency: u64) {
        self.step(op, &mut FixedLatency { latency });
    }

    /// Fast-forward accounting: counts the op (instructions, loads, stores,
    /// issue slots) without entering the load queue or touching any memory
    /// model. Loads and stores complete instantly at the front end.
    ///
    /// Used by the fast-forward phase of sampled execution, where neither
    /// core timing nor memory state is simulated.
    #[inline]
    pub fn skip(&mut self, op: Op) {
        match op {
            Op::Compute(n) => self.step_compute(n as u64),
            Op::Load { .. } => {
                self.stats.loads += 1;
                self.stats.instructions += 1;
                self.issued += 1;
                self.seq += 1;
            }
            Op::Store { .. } => {
                self.stats.stores += 1;
                self.stats.instructions += 1;
                self.issued += 1;
                self.seq += 1;
            }
        }
    }

    /// Bulk [`Core::skip`] accounting for `loads` load ops plus `stores`
    /// store ops, in one update. Exactly equivalent to that many scalar
    /// `skip` calls (each op counts one instruction and one issue slot, and
    /// the relative order of instant-retiring skips is unobservable), so
    /// the fast-forward loop can tally a whole run and settle once.
    pub fn skip_bulk(&mut self, loads: u64, stores: u64) {
        self.stats.loads += loads;
        self.stats.stores += stores;
        self.stats.instructions += loads + stores;
        self.issued += loads + stores;
        self.seq += loads + stores;
    }

    /// Feeds every op in `batch` through the model, in buffer order.
    ///
    /// Exactly equivalent to calling [`Core::step`] per op — the batch only
    /// amortizes dispatch, it never reorders, so batched and scalar runs
    /// produce identical statistics — but dispatches straight off the SoA
    /// lanes instead of reconstructing an [`Op`] enum per entry.
    pub fn step_batch<M>(&mut self, batch: &OpBatch, mem: &mut M)
    where
        M: MemoryPath + ?Sized,
    {
        self.step_batch_range(batch, 0, batch.len(), mem);
    }

    /// Feeds ops `start..end` of `batch` through the model, in buffer
    /// order. Same contract as [`Core::step_batch`], restricted to a
    /// sub-range — sampled execution uses this to run each same-phase run
    /// of a batch in one tight loop.
    pub fn step_batch_range<M>(&mut self, batch: &OpBatch, start: usize, end: usize, mem: &mut M)
    where
        M: MemoryPath + ?Sized,
    {
        for i in start..end {
            match batch.kind(i) {
                OpKind::Compute => self.step_compute(batch.addr(i)),
                OpKind::Load => self.step_load(batch.addr(i), batch.attrs(i).dep, mem),
                OpKind::Store => self.step_store(batch.addr(i), mem),
            }
        }
    }

    /// Runs an op stream to completion against `mem`, returning statistics.
    ///
    /// Resets the core first: each `run` is an independent program. The
    /// model is deterministic: the same trace and memory model produce the
    /// same statistics.
    pub fn run<I, M>(&mut self, ops: I, mem: &mut M) -> CoreStats
    where
        I: IntoIterator<Item = Op>,
        M: MemoryPath + ?Sized,
    {
        self.reset();
        for op in ops {
            self.step(op, mem);
        }
        self.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::FixedLatency;

    fn core() -> Core {
        Core::new(CoreConfig::westmere_like())
    }

    #[test]
    fn compute_only_bound_by_issue_width() {
        let stats = core().run(vec![Op::Compute(4000)], &mut FixedLatency { latency: 1 });
        assert_eq!(stats.cycles, 1000);
        assert_eq!(stats.instructions, 4000);
        assert!((stats.ipc() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn single_long_load_exposed() {
        let stats = core().run(vec![Op::load(0)], &mut FixedLatency { latency: 200 });
        assert_eq!(stats.cycles, 200);
        assert_eq!(stats.loads, 1);
        assert_eq!(stats.avg_load_latency(), 200.0);
    }

    #[test]
    fn independent_loads_overlap() {
        // 8 independent misses of 100 cycles: with MLP they overlap almost
        // fully (issue 2 per cycle is not the limit; LQ is 32).
        let ops: Vec<Op> = (0..8).map(|i| Op::load(i * 64)).collect();
        let stats = core().run(ops, &mut FixedLatency { latency: 100 });
        assert!(stats.cycles < 8 * 100 / 2, "cycles = {}", stats.cycles);
        assert!(stats.cycles >= 100);
    }

    #[test]
    fn dependent_loads_serialize() {
        let ops: Vec<Op> = (0..8).map(|i| Op::load_dep(i * 64)).collect();
        let stats = core().run(ops, &mut FixedLatency { latency: 100 });
        assert_eq!(stats.cycles, 800);
    }

    #[test]
    fn lq_limits_mlp() {
        // 64 independent misses, LQ = 32: second half waits for first half.
        let cfg = CoreConfig {
            lq_entries: 32,
            rob_entries: 1024,
            ..CoreConfig::westmere_like()
        };
        let ops: Vec<Op> = (0..64).map(|i| Op::load(i * 64)).collect();
        let stats = Core::new(cfg).run(ops, &mut FixedLatency { latency: 100 });
        // Two waves of ~100 cycles each.
        assert!(stats.cycles >= 200, "cycles = {}", stats.cycles);
        assert!(stats.cycles < 320, "cycles = {}", stats.cycles);
    }

    #[test]
    fn rob_limits_overlap_across_compute() {
        // A miss followed by > ROB worth of compute, then another miss: the
        // second miss cannot start until the first retires.
        let cfg = CoreConfig {
            rob_entries: 128,
            ..CoreConfig::westmere_like()
        };
        let ops = vec![Op::load(0), Op::Compute(256), Op::load(64)];
        let stats = Core::new(cfg).run(ops, &mut FixedLatency { latency: 300 });
        // First load completes at 300; second starts no earlier than 300.
        assert!(stats.cycles >= 600, "cycles = {}", stats.cycles);
    }

    #[test]
    fn stores_do_not_stall() {
        let ops: Vec<Op> = (0..16).map(|i| Op::store(i * 64)).collect();
        let stats = core().run(ops, &mut FixedLatency { latency: 500 });
        assert_eq!(stats.stores, 16);
        assert!(stats.cycles <= 8, "cycles = {}", stats.cycles);
    }

    #[test]
    fn deterministic() {
        let ops: Vec<Op> = (0..100)
            .map(|i| {
                if i % 3 == 0 {
                    Op::load(i * 64)
                } else {
                    Op::Compute(5)
                }
            })
            .collect();
        let a = core().run(ops.clone(), &mut FixedLatency { latency: 30 });
        let b = core().run(ops, &mut FixedLatency { latency: 30 });
        assert_eq!(a, b);
    }

    #[test]
    fn step_fixed_matches_fixed_latency_memory() {
        let ops: Vec<Op> = (0..50)
            .map(|i| match i % 3 {
                0 => Op::load(i * 64),
                1 => Op::Compute(7),
                _ => Op::store(i * 64),
            })
            .collect();
        let via_mem = core().run(ops.clone(), &mut FixedLatency { latency: 12 });
        let mut c = core();
        for op in ops {
            c.step_fixed(op, 12);
        }
        assert_eq!(c.stats(), via_mem);
    }

    #[test]
    fn skip_counts_ops_without_memory_time() {
        let mut c = core();
        c.skip(Op::Compute(40));
        for i in 0..8 {
            c.skip(Op::load(i * 64));
        }
        c.skip(Op::store(0));
        let stats = c.stats();
        assert_eq!(stats.instructions, 49);
        assert_eq!(stats.loads, 8);
        assert_eq!(stats.stores, 1);
        assert_eq!(stats.total_load_latency, 0);
        // Front-end bound only: 49 instructions at 4-wide.
        assert_eq!(stats.cycles, 49u64.div_ceil(4));
    }

    #[test]
    fn now_front_end_matches_div_ceil_for_every_width() {
        // SplitMix64 (this crate has no RNG dependency): values of every
        // magnitude and residue, plus the edges a round-up can get wrong.
        let mut state = 0x5EED_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for width in 1..=8u32 {
            let mut c = Core::new(CoreConfig {
                issue_width: width,
                ..CoreConfig::westmere_like()
            });
            let w = u64::from(width);
            let edges = [0, 1, w - 1, w, w + 1, u64::MAX - 1, u64::MAX];
            let random = (0..2_000).map(|i| next() >> (i % 64));
            for issued in edges.into_iter().chain(random) {
                c.issued = issued;
                assert_eq!(
                    c.now(),
                    issued.div_ceil(w),
                    "width {width}, issued {issued}"
                );
            }
        }
    }

    #[test]
    fn seconds_conversion() {
        let stats = CoreStats {
            cycles: 3_600_000_000,
            ..Default::default()
        };
        assert!((stats.seconds(3.6) - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "issue width")]
    fn zero_width_rejected() {
        let _ = Core::new(CoreConfig {
            issue_width: 0,
            ..CoreConfig::westmere_like()
        });
    }
}
