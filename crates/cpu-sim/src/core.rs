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

use crate::batch::{LanePath, MemoryPath, OpAttrs, OpBatch, OpKind};
use crate::trace::{FixedLatency, Op};

/// Fixed-capacity FIFO of in-flight loads: each entry's sequence number,
/// kept once, followed by its completion time in every lane.
///
/// The core pushes and pops one entry per load in the hot step loop, and
/// its occupancy is bounded by the load-queue size, so a power-of-two ring
/// with masked indices replaces `VecDeque`'s growth and wrap checks. The
/// callers pass the lane count, so a one-lane core's entry is a fixed
/// pair of words.
#[derive(Debug)]
struct LoadRing {
    /// `1 + lanes` words per entry: the sequence number, then the lanes'
    /// completion times.
    buf: Vec<u64>,
    mask: usize,
    head: usize,
    len: usize,
}

impl LoadRing {
    /// A ring holding at least `cap` entries of `lanes` lanes.
    fn new(cap: usize, lanes: usize) -> Self {
        let n = cap.next_power_of_two();
        LoadRing {
            buf: vec![0; n * (1 + lanes)],
            mask: n - 1,
            head: 0,
            len: 0,
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.len
    }

    /// The words of entry `slot` of a ring of `lanes` lanes.
    #[inline]
    fn entry(&self, slot: usize, lanes: usize) -> &[u64] {
        // `slot` is masked below the capacity, so the offsets cannot
        // overflow: wrapping arithmetic drops the checks from the hot loop.
        let at = slot.wrapping_mul(1 + lanes);
        &self.buf[at..at.wrapping_add(1 + lanes)]
    }

    /// The oldest entry of a ring of `lanes` lanes: its sequence number,
    /// then every lane's completion time.
    #[inline]
    fn front(&self, lanes: usize) -> Option<&[u64]> {
        (self.len > 0).then(|| self.entry(self.head, lanes))
    }

    #[inline]
    fn pop_front(&mut self) {
        debug_assert!(self.len > 0);
        self.head = (self.head + 1) & self.mask;
        self.len -= 1;
    }

    /// Appends an entry for `seq` to a ring of `lanes` lanes, returning
    /// its completion slots, one per lane.
    #[inline]
    fn push_back(&mut self, seq: u64, lanes: usize) -> &mut [u64] {
        debug_assert!(self.len <= self.mask, "LoadRing overflow");
        let at = ((self.head + self.len) & self.mask).wrapping_mul(1 + lanes);
        self.len += 1;
        let entry = &mut self.buf[at..at.wrapping_add(1 + lanes)];
        entry[0] = seq;
        &mut entry[1..]
    }

    /// The completion times of `lane` of `lanes`, oldest first.
    fn lane_done(&self, lane: usize, lanes: usize) -> impl Iterator<Item = u64> + '_ {
        (0..self.len).map(move |i| self.entry((self.head + i) & self.mask, lanes)[1 + lane])
    }
}

/// One lane's timing: the part of the core's state that differs between
/// the members of a group.
#[derive(Debug, Clone, Copy, Default)]
struct Lane {
    /// Max completion among ops already forced out of the ROB window.
    retire_frontier: u64,
    /// Completion time of the most recent load (for dependent loads).
    last_load_completion: u64,
    /// Latest completion seen (defines final cycle count).
    max_completion: u64,
    /// Sum of load latencies.
    total_load_latency: u64,
}

impl Lane {
    /// The cycle a load reaching the front end at `ft` issues in.
    #[inline]
    fn load_start(&self, ft: u64, dep: bool) -> u64 {
        let start = ft.max(self.retire_frontier);
        if dep {
            start.max(self.last_load_completion)
        } else {
            start
        }
    }

    /// Settles a load issued at `start` that takes `latency` cycles,
    /// returning its completion time.
    #[inline]
    fn complete_load(&mut self, start: u64, latency: u64) -> u64 {
        let completion = start + latency;
        self.last_load_completion = completion;
        self.max_completion = self.max_completion.max(completion);
        self.total_load_latency += latency;
        completion
    }
}

/// A [`MemoryPath`] as a [`LanePath`]: it serves every lane's access, in
/// lane order.
struct EachLane<'m, M: ?Sized> {
    mem: &'m mut M,
    addr: u64,
    attrs: OpAttrs,
}

impl<'m, M: MemoryPath + ?Sized> EachLane<'m, M> {
    #[inline]
    fn new(mem: &'m mut M) -> Self {
        EachLane {
            mem,
            addr: 0,
            attrs: OpAttrs::read(),
        }
    }
}

impl<M: MemoryPath + ?Sized> LanePath for EachLane<'_, M> {
    #[inline]
    fn begin(&mut self, addr: u64, attrs: OpAttrs) -> Option<u64> {
        self.addr = addr;
        self.attrs = attrs;
        None
    }

    #[inline]
    fn serve_lane(&mut self, _lane: usize, now: u64) -> u64 {
        self.mem.serve(self.addr, self.attrs, now)
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
/// A core has one or more *lanes* ([`Core::with_lanes`]): the members of a
/// lockstep group, which run one program and differ only in time. What the
/// op stream alone decides — issue slots, sequence numbers, which loads
/// occupy the load queue and ROB window, and the instruction, load and
/// store counts — is kept once; each lane keeps its own load completion
/// times, retire frontier, last-load and latest completion, and load
/// latency sum. [`Core::step_group`] decodes each op once for all lanes.
/// [`Core::new`] is the one-lane core, whose accessors without a lane
/// argument read lane 0.
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
    /// Instruction, load and store counts, shared by every lane (the
    /// timing fields stay zero: they belong to the lanes).
    counts: CoreStats,
    /// `log2(issue_width)` when the width is a power of two (every real
    /// configuration): lets the per-op front-end time be a shift instead of
    /// a 64-bit division.
    width_shift: Option<u32>,
    /// Issue slots consumed so far; front-end time = issued / width.
    issued: u64,
    /// Sequence number of the next op (computes advance it by n).
    seq: u64,
    /// In-flight or completed loads, ordered by seq.
    loads: LoadRing,
    /// Each lane's timing.
    lanes: Vec<Lane>,
}

impl Core {
    /// Creates a one-lane core with the given configuration.
    pub fn new(config: CoreConfig) -> Self {
        Self::with_lanes(config, 1)
    }

    /// Creates a core with `lanes` timing lanes, one per member of a
    /// lockstep group.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has a zero width, ROB or load queue, or
    /// if `lanes` is zero.
    pub fn with_lanes(config: CoreConfig, lanes: usize) -> Self {
        assert!(config.issue_width > 0, "issue width must be non-zero");
        assert!(config.rob_entries > 0, "ROB must be non-empty");
        assert!(config.lq_entries > 0, "load queue must be non-empty");
        assert!(lanes > 0, "a core has a lane");
        Core {
            counts: CoreStats::default(),
            width_shift: config
                .issue_width
                .is_power_of_two()
                .then(|| config.issue_width.trailing_zeros()),
            issued: 0,
            seq: 0,
            loads: LoadRing::new(config.lq_entries + 1, lanes),
            lanes: vec![Lane::default(); lanes],
            config,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CoreConfig {
        &self.config
    }

    /// Resets all execution state and statistics.
    pub fn reset(&mut self) {
        *self = Core::with_lanes(self.config, self.lanes.len());
    }

    /// Front-end time: the cycle the next op issues in.
    #[inline]
    fn front_time(&self) -> u64 {
        match self.width_shift {
            Some(s) => self.issued >> s,
            None => self.issued / self.config.issue_width as u64,
        }
    }

    /// Lane 0's [`Core::lane_now`].
    #[inline]
    pub fn now(&self) -> u64 {
        self.lane_now(0)
    }

    /// `lane`'s current notion of time (the cycle at which everything
    /// issued so far will have completed).
    #[inline]
    pub fn lane_now(&self, lane: usize) -> u64 {
        // `issued.div_ceil(width)`; the co-run scheduler polls this per op,
        // so power-of-two widths round up with a shift and a mask test.
        let frontend = match self.width_shift {
            Some(s) => (self.issued >> s) + u64::from(self.issued & ((1 << s) - 1) != 0),
            None => self.issued.div_ceil(self.config.issue_width as u64),
        };
        let t = &self.lanes[lane];
        frontend.max(t.max_completion).max(t.retire_frontier)
    }

    /// Lane 0's statistics as of the ops stepped so far.
    pub fn stats(&self) -> CoreStats {
        self.lane_stats(0)
    }

    /// `lane`'s statistics as of the ops stepped so far.
    pub fn lane_stats(&self, lane: usize) -> CoreStats {
        CoreStats {
            cycles: self.lane_now(lane),
            total_load_latency: self.lanes[lane].total_load_latency,
            ..self.counts
        }
    }

    /// Instructions executed so far. Cheap enough to poll per op — this is
    /// the counter epoch-sampled telemetry keys its sampling decision on.
    #[inline]
    pub fn instructions(&self) -> u64 {
        self.counts.instructions
    }

    /// Loads currently tracked in the ROB window (in flight or completed
    /// but not yet retired): a proxy for ROB occupancy by memory ops. The
    /// same in every lane.
    pub fn rob_load_occupancy(&self) -> usize {
        self.loads.len()
    }

    /// Lane 0's [`Core::lane_outstanding_loads`].
    pub fn outstanding_loads(&self) -> usize {
        self.lane_outstanding_loads(0)
    }

    /// Loads whose completion time in `lane` lies beyond the front end's
    /// current cycle — i.e. misses still outstanding at this instant.
    pub fn lane_outstanding_loads(&self, lane: usize) -> usize {
        let ft = self.front_time();
        self.loads
            .lane_done(lane, self.lanes.len())
            .filter(|&c| c > ft)
            .count()
    }

    /// Bulk compute: advances the front end only. Compute completes at the
    /// front end; it never extends the critical path beyond issue
    /// bandwidth.
    #[inline]
    fn step_compute(&mut self, n: u64) {
        self.issued += n;
        self.seq += n;
        self.counts.instructions += n;
    }

    /// The lanes `LANES` names: all of them when it is 0, else its first
    /// `LANES` — a compile-time count, so the one-lane loops below compile
    /// to straight-line code.
    #[inline(always)]
    fn lane_count<const LANES: usize>(&self) -> usize {
        if LANES == 0 {
            self.lanes.len()
        } else {
            LANES
        }
    }

    /// Drops loads that have left the ROB window (or overflow the load
    /// queue), feeding each lane's retire frontier. Runs before every load,
    /// so it is forced inline: as a call it costs a one-lane core a fifth
    /// of its step time.
    #[inline(always)]
    fn retire_window<const LANES: usize>(&mut self) {
        let n = self.lane_count::<LANES>();
        let rob = self.config.rob_entries as u64;
        let lq = self.config.lq_entries;
        while let Some(front) = self.loads.front(n) {
            if front[0] + rob > self.seq && self.loads.len() < lq {
                break;
            }
            for (lane, &c) in self.lanes[..n].iter_mut().zip(&front[1..]) {
                lane.retire_frontier = lane.retire_frontier.max(c);
            }
            self.loads.pop_front();
        }
    }

    #[inline]
    fn step_load<const LANES: usize, P>(&mut self, addr: u64, dep: bool, path: &mut P)
    where
        P: LanePath + ?Sized,
    {
        self.retire_window::<LANES>();
        let n = self.lane_count::<LANES>();
        let ft = self.front_time();
        let done = self.loads.push_back(self.seq, n);
        let lanes = &mut self.lanes[..n];
        match path.begin(addr, OpAttrs::read().with_dep(dep)) {
            Some(latency) => {
                for (lane, done) in lanes.iter_mut().zip(done) {
                    *done = lane.complete_load(lane.load_start(ft, dep), latency);
                }
            }
            None => {
                for (i, (lane, done)) in lanes.iter_mut().zip(done).enumerate() {
                    let start = lane.load_start(ft, dep);
                    *done = lane.complete_load(start, path.serve_lane(i, start));
                }
            }
        }
        self.counts.loads += 1;
        self.counts.instructions += 1;
        self.issued += 1;
        self.seq += 1;
    }

    #[inline]
    fn step_store<const LANES: usize, P>(&mut self, addr: u64, path: &mut P)
    where
        P: LanePath + ?Sized,
    {
        // Stores retire through the write buffer: their latency is off the
        // critical path, but the access still updates the memory model's
        // state (fills, bank timings, traffic).
        if path.begin(addr, OpAttrs::write()).is_none() {
            let ft = self.front_time();
            let n = self.lane_count::<LANES>();
            for (i, lane) in self.lanes[..n].iter().enumerate() {
                let _ = path.serve_lane(i, ft.max(lane.retire_frontier));
            }
        }
        self.counts.stores += 1;
        self.counts.instructions += 1;
        self.issued += 1;
        self.seq += 1;
    }

    /// Feeds ops `start..end` of `batch` through the first `LANES` lanes
    /// (all of them when it is 0).
    #[inline]
    fn step_ops<const LANES: usize, P>(
        &mut self,
        batch: &OpBatch,
        start: usize,
        end: usize,
        path: &mut P,
    ) where
        P: LanePath + ?Sized,
    {
        for i in start..end {
            match batch.kind(i) {
                OpKind::Compute => self.step_compute(batch.addr(i)),
                OpKind::Load => self.step_load::<LANES, P>(batch.addr(i), batch.attrs(i).dep, path),
                OpKind::Store => self.step_store::<LANES, P>(batch.addr(i), path),
            }
        }
    }

    #[inline]
    fn step_op<P>(&mut self, op: Op, path: &mut P)
    where
        P: LanePath + ?Sized,
    {
        let one = self.lanes.len() == 1;
        match op {
            Op::Compute(n) => self.step_compute(n as u64),
            Op::Load { addr, dep } if one => self.step_load::<1, P>(addr, dep, path),
            Op::Load { addr, dep } => self.step_load::<0, P>(addr, dep, path),
            Op::Store { addr } if one => self.step_store::<1, P>(addr, path),
            Op::Store { addr } => self.step_store::<0, P>(addr, path),
        }
    }

    /// Feeds one op through the model, every lane's access served by
    /// `mem`.
    #[inline]
    pub fn step<M>(&mut self, op: Op, mem: &mut M)
    where
        M: MemoryPath + ?Sized,
    {
        self.step_op(op, &mut EachLane::new(mem));
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
        self.step_op(op, &mut FixedLatency { latency });
    }

    /// Fast-forward accounting: counts the op (instructions, loads, stores,
    /// issue slots) without entering the load queue or touching any memory
    /// model. Loads and stores complete instantly at the front end, so no
    /// lane's timing changes.
    ///
    /// Used by the fast-forward phase of sampled execution, where neither
    /// core timing nor memory state is simulated.
    #[inline]
    pub fn skip(&mut self, op: Op) {
        match op {
            Op::Compute(n) => self.step_compute(n as u64),
            Op::Load { .. } => self.skip_bulk(1, 0),
            Op::Store { .. } => self.skip_bulk(0, 1),
        }
    }

    /// Bulk [`Core::skip`] accounting for `loads` load ops plus `stores`
    /// store ops, in one update. Exactly equivalent to that many scalar
    /// `skip` calls (each op counts one instruction and one issue slot, and
    /// the relative order of instant-retiring skips is unobservable), so
    /// the fast-forward loop can tally a whole run and settle once.
    pub fn skip_bulk(&mut self, loads: u64, stores: u64) {
        self.counts.loads += loads;
        self.counts.stores += stores;
        self.counts.instructions += loads + stores;
        self.issued += loads + stores;
        self.seq += loads + stores;
    }

    /// [`Core::skip`] over ops `start..end` of `batch`, tallied into one
    /// [`Core::skip_bulk`].
    pub fn skip_batch_range(&mut self, batch: &OpBatch, start: usize, end: usize) {
        let (mut loads, mut stores) = (0, 0);
        for i in start..end {
            match batch.kind(i) {
                OpKind::Compute => self.step_compute(batch.addr(i)),
                OpKind::Load => loads += 1,
                OpKind::Store => stores += 1,
            }
        }
        self.skip_bulk(loads, stores);
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
        self.step_group(batch, start, end, &mut EachLane::new(mem));
    }

    /// Feeds ops `start..end` of `batch` through every lane, in buffer
    /// order: each op is decoded once, each access begun once on `path`
    /// ([`LanePath`]), and the lanes settle from its one latency or from
    /// their own. Each lane ends exactly where a one-lane core stepped
    /// alone over the same ops with that lane's latencies would.
    pub fn step_group<P>(&mut self, batch: &OpBatch, start: usize, end: usize, path: &mut P)
    where
        P: LanePath + ?Sized,
    {
        if self.lanes.len() == 1 {
            self.step_ops::<1, P>(batch, start, end, path);
        } else {
            self.step_ops::<0, P>(batch, start, end, path);
        }
    }

    /// Runs an op stream to completion against `mem`, returning lane 0's
    /// statistics.
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

    /// One access of the lane oracle's script: one latency for every
    /// lane, or one per lane.
    #[derive(Debug, Clone)]
    enum Access {
        Uniform(u64),
        PerLane(Vec<u64>),
    }

    impl Access {
        fn latency(&self, lane: usize) -> u64 {
            match self {
                Access::Uniform(l) => *l,
                Access::PerLane(ls) => ls[lane],
            }
        }
    }

    /// The group's memory side: serves the script's accesses in order and
    /// logs `(access, lane, issue time)` for every per-lane one.
    struct Script<'a> {
        accesses: &'a [Access],
        next: usize,
        log: Vec<(usize, usize, u64)>,
    }

    impl LanePath for Script<'_> {
        fn begin(&mut self, _addr: u64, _attrs: OpAttrs) -> Option<u64> {
            self.next += 1;
            match &self.accesses[self.next - 1] {
                Access::Uniform(l) => Some(*l),
                Access::PerLane(_) => None,
            }
        }

        fn serve_lane(&mut self, lane: usize, now: u64) -> u64 {
            let k = self.next - 1;
            self.log.push((k, lane, now));
            self.accesses[k].latency(lane)
        }
    }

    /// One member's memory side: the same script at that member's
    /// latencies, logged like [`Script`].
    struct Member<'a> {
        accesses: &'a [Access],
        lane: usize,
        next: usize,
        log: Vec<(usize, usize, u64)>,
    }

    impl MemoryPath for Member<'_> {
        fn serve(&mut self, _addr: u64, _attrs: OpAttrs, now: u64) -> u64 {
            let k = self.next;
            self.next += 1;
            if let Access::PerLane(_) = self.accesses[k] {
                self.log.push((k, self.lane, now));
            }
            self.accesses[k].latency(self.lane)
        }
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// An op stream of dependent and independent loads, stores and compute
    /// bursts (some longer than the ROB), with long runs of misses that
    /// fill the load queue and the ROB window, plus one script access per
    /// memory op: an L1-like latency shared by every lane, or a latency of
    /// each lane's own.
    fn oracle_stream(seed: u64, lanes: usize, len: usize) -> (Vec<Op>, Vec<Access>) {
        let mut rng = seed;
        let mut ops = Vec::with_capacity(len);
        let mut accesses = Vec::new();
        let mut miss_run = 0u64;
        while ops.len() < len {
            let r = splitmix(&mut rng);
            if miss_run == 0 && r.is_multiple_of(50) {
                miss_run = 40 + r % 80;
            }
            let per_lane = |rng: &mut u64, lo: u64, hi: u64| {
                Access::PerLane((0..lanes).map(|_| lo + splitmix(rng) % (hi - lo)).collect())
            };
            let addr = (r >> 16) & !63;
            if miss_run > 0 {
                miss_run -= 1;
                ops.push(if r.is_multiple_of(7) {
                    Op::load_dep(addr)
                } else {
                    Op::load(addr)
                });
                accesses.push(per_lane(&mut rng, 150, 600));
                continue;
            }
            let op = match (r >> 8) % 10 {
                0..=3 => Op::load(addr),
                4 => Op::load_dep(addr),
                5 | 6 => Op::store(addr),
                7 | 8 => Op::Compute(1 + (r >> 32) as u32 % 8),
                _ => Op::Compute(100 + (r >> 32) as u32 % 300),
            };
            if op.is_memory() {
                accesses.push(match (r >> 40) % 3 {
                    0 => Access::Uniform([4, 12][(r >> 50) as usize % 2]),
                    1 => per_lane(&mut rng, 4, 40),
                    _ => per_lane(&mut rng, 4, 400),
                });
            }
            ops.push(op);
        }
        (ops, accesses)
    }

    /// The lane oracle: stepping a group's lanes together equals stepping
    /// one one-lane core per member with that member's latencies, after
    /// every stretch of every kind (detailed, warm at a fixed latency,
    /// fast-forward).
    #[test]
    fn lanes_match_independent_one_lane_cores() {
        let config = CoreConfig::westmere_like();
        for lanes in [1, 2, 6, 20] {
            for seed in 0..3u64 {
                let (ops, accesses) = oracle_stream(seed * 31 + lanes as u64, lanes, 6_000);
                let mut group = Core::with_lanes(config, lanes);
                let mut members: Vec<Core> = (0..lanes).map(|_| Core::new(config)).collect();
                let mut script = Script {
                    accesses: &accesses,
                    next: 0,
                    log: Vec::new(),
                };
                let mut paths: Vec<Member> = (0..lanes)
                    .map(|lane| Member {
                        accesses: &accesses,
                        lane,
                        next: 0,
                        log: Vec::new(),
                    })
                    .collect();
                let mut rng = seed;
                for chunk in ops.chunks(crate::batch::BATCH_CAPACITY) {
                    let mut batch = OpBatch::new();
                    for &op in chunk {
                        batch.push_op(op, 0);
                    }
                    let mut i = 0;
                    while i < batch.len() {
                        let r = splitmix(&mut rng);
                        let end = (i + 1 + (r % 90) as usize).min(batch.len());
                        let memory_ops = (i..end).filter(|&j| batch.op(j).is_memory()).count();
                        match (r >> 32) % 4 {
                            0 => {
                                group.step_group(&batch, i, end, &mut FixedLatency { latency: 4 });
                                for m in &mut members {
                                    m.step_batch_range(
                                        &batch,
                                        i,
                                        end,
                                        &mut FixedLatency { latency: 4 },
                                    );
                                }
                            }
                            1 => {
                                group.skip_batch_range(&batch, i, end);
                                for m in &mut members {
                                    for j in i..end {
                                        m.skip(batch.op(j));
                                    }
                                }
                            }
                            _ => {
                                group.step_group(&batch, i, end, &mut script);
                                for (m, path) in members.iter_mut().zip(&mut paths) {
                                    m.step_batch_range(&batch, i, end, path);
                                }
                            }
                        }
                        if (r >> 32) % 4 < 2 {
                            // The script's accesses stay aligned to the ops.
                            script.next += memory_ops;
                            for path in &mut paths {
                                path.next += memory_ops;
                            }
                        }
                        assert_eq!(group.rob_load_occupancy(), members[0].rob_load_occupancy());
                        for (lane, m) in members.iter().enumerate() {
                            let at = format!("{lanes} lanes, seed {seed}, lane {lane}, op {end}");
                            assert_eq!(group.lane_stats(lane), m.stats(), "{at}");
                            assert_eq!(group.lane_now(lane), m.now(), "{at}");
                            assert_eq!(
                                group.lane_outstanding_loads(lane),
                                m.outstanding_loads(),
                                "{at}"
                            );
                        }
                        i = end;
                    }
                }
                for (lane, path) in paths.iter().enumerate() {
                    let mine: Vec<_> = script.log.iter().filter(|e| e.1 == lane).copied().collect();
                    assert_eq!(mine, path.log, "{lanes} lanes, seed {seed}, lane {lane}");
                }
                assert!(
                    group.stats().cycles > group.stats().instructions / 4,
                    "misses cost time"
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
