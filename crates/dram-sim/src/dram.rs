//! The banked DRAM timing model.
//!
//! Each bank tracks its open row and the time it becomes ready; each channel
//! tracks when its data bus frees up. An access arriving at time `t` pays:
//!
//! * **row hit** (`tCL` + burst) if the bank's open row matches,
//! * **row miss** (`tRCD + tCL` + burst) if the bank is precharged,
//! * **row conflict** (`tRP + tRCD + tCL` + burst) if another row is open,
//!
//! plus any queueing behind the bank's previous access and the channel bus.
//! Requests that arrive while a bank or bus is busy naturally queue — this
//! is how bank conflicts and limited bandwidth appear in end-to-end latency.
//!
//! Scheduling note: requests are processed in arrival order with an open-row
//! policy, which captures the first-order effect of FR-FCFS (row hits are
//! cheap and banks pipeline) but not its reordering. The cache hierarchy
//! reaches this model from one place, its `Served` port, which picks the
//! call ([`Dram::serve`], [`Dram::serve_prefetch`] or
//! [`Dram::warm_access`]) and the time for each request kind.

use crate::config::DramConfig;
use crate::mapping::{AddressMapping, Decoder};
use cpu_sim::batch::{MemoryPath, OpAttrs};
use cpu_sim::stats::LatencyHistogram;

/// Sentinel for "no row open" in the open-row lane. Row numbers are small
/// (row index within a bank), so the all-ones pattern can never collide
/// with a real row.
const NO_ROW: u64 = u64::MAX;

/// Classification of one access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowOutcome {
    /// Same row already open.
    Hit,
    /// Bank precharged, row had to be activated.
    Miss,
    /// Different row open, precharge + activate.
    Conflict,
}

/// Aggregate DRAM statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Log2 histogram of demand-read latencies (p50/p99 for Fig 8-style
    /// reporting).
    pub demand_read_hist: LatencyHistogram,
    /// Read accesses served (demand + prefetch).
    pub reads: u64,
    /// Of which: demand reads (on the core's critical path).
    pub demand_reads: u64,
    /// Sum of demand-read latencies in cycles.
    pub total_demand_read_latency: u64,
    /// Write accesses served.
    pub writes: u64,
    /// Row-buffer hits.
    pub row_hits: u64,
    /// Row misses (bank was precharged).
    pub row_misses: u64,
    /// Row conflicts (wrong row open).
    pub row_conflicts: u64,
    /// Sum of read latencies in cycles (arrival → data returned).
    pub total_read_latency: u64,
    /// Sum of write latencies in cycles.
    pub total_write_latency: u64,
}

impl DramStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Fraction of accesses that hit in a row buffer.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }

    /// Mean read latency in cycles, over all reads.
    pub fn avg_read_latency(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            self.total_read_latency as f64 / self.reads as f64
        }
    }

    /// Mean latency of demand reads only (what the core waits on; prefetch
    /// reads are off the critical path and issued in bursts).
    pub fn avg_demand_read_latency(&self) -> f64 {
        if self.demand_reads == 0 {
            0.0
        } else {
            self.total_demand_read_latency as f64 / self.demand_reads as f64
        }
    }

    /// Mean write latency in cycles.
    pub fn avg_write_latency(&self) -> f64 {
        if self.writes == 0 {
            0.0
        } else {
            self.total_write_latency as f64 / self.writes as f64
        }
    }

    /// Exports counters and derived metrics for the report sinks.
    pub fn kv(&self) -> cpu_sim::kv::KvPairs {
        vec![
            ("reads", self.reads.into()),
            ("demand_reads", self.demand_reads.into()),
            ("writes", self.writes.into()),
            ("row_hits", self.row_hits.into()),
            ("row_misses", self.row_misses.into()),
            ("row_conflicts", self.row_conflicts.into()),
            // Raw latency totals alongside the derived averages, so a
            // serialized report reconstructs to the exact counter values.
            ("total_read_latency", self.total_read_latency.into()),
            (
                "total_demand_read_latency",
                self.total_demand_read_latency.into(),
            ),
            ("total_write_latency", self.total_write_latency.into()),
            ("row_hit_rate", self.row_hit_rate().into()),
            ("avg_read_latency", self.avg_read_latency().into()),
            (
                "avg_demand_read_latency",
                self.avg_demand_read_latency().into(),
            ),
            ("avg_write_latency", self.avg_write_latency().into()),
        ]
    }
}

/// The DRAM device model.
///
/// # Examples
///
/// ```
/// use dram_sim::{AddressMapping, Dram, DramConfig};
///
/// use cpu_sim::batch::OpAttrs;
///
/// let cfg = DramConfig::ddr3_1066(3.6);
/// let mut dram = Dram::new(cfg, AddressMapping::scheme5());
/// // Two lines in the same row: the second is a row hit.
/// let first = dram.serve(0, OpAttrs::read(), 0);
/// let second = dram.serve(64, OpAttrs::read(), first);
/// assert!(second < first);
/// assert_eq!(dram.stats().row_hits, 1);
/// ```
///
/// Bank state is stored struct-of-arrays (one lane per field, indexed by
/// global bank): the hot loop touches only the lanes it needs, and the
/// telemetry scans (`busy_banks`) stream one contiguous lane.
#[derive(Debug, Clone)]
pub struct Dram {
    config: DramConfig,
    mapping: AddressMapping,
    /// `mapping` resolved against `config` once.
    decoder: Decoder,
    /// Open row per global bank ([`NO_ROW`] when precharged).
    open_rows: Vec<u64>,
    /// Cycle at which each bank can next start a command.
    ready_at: Vec<u64>,
    /// Earliest time each bank's open row may be precharged (tRAS).
    ras_until: Vec<u64>,
    bus_free: Vec<u64>,
    stats: DramStats,
    /// Total cycles banks have been held busy by reads (activation,
    /// precharge, burst slots). Kept outside [`DramStats`] so the report
    /// schema and its exact-reconstruction contract are untouched; exposed
    /// for telemetry via [`Dram::busy_bank_cycles`].
    busy_bank_cycles: u64,
    /// When `true`, every access is treated as a row hit with no queueing —
    /// the "Ideal" upper bound of Fig 7 (perfect row-buffer locality).
    ideal_rbl: bool,
}

impl Dram {
    /// Creates a DRAM with all banks precharged.
    pub fn new(config: DramConfig, mapping: AddressMapping) -> Self {
        Dram {
            open_rows: vec![NO_ROW; config.total_banks()],
            ready_at: vec![0; config.total_banks()],
            ras_until: vec![0; config.total_banks()],
            bus_free: vec![0; config.channels],
            stats: DramStats::default(),
            busy_bank_cycles: 0,
            ideal_rbl: false,
            decoder: mapping.decoder(&config),
            config,
            mapping,
        }
    }

    /// Creates the Fig 7 "Ideal" device: perfect row-buffer locality (every
    /// access costs a row hit; the channel bus still serializes transfers).
    pub fn new_ideal_rbl(config: DramConfig, mapping: AddressMapping) -> Self {
        let mut d = Self::new(config, mapping);
        d.ideal_rbl = true;
        d
    }

    /// The configuration in use.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// The address mapping in use.
    pub fn mapping(&self) -> &AddressMapping {
        &self.mapping
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    /// Total cycles banks have been occupied serving reads, summed over
    /// all banks. Divide a delta of this by `elapsed_cycles *
    /// config().total_banks()` for an average busy fraction.
    pub fn busy_bank_cycles(&self) -> u64 {
        self.busy_bank_cycles
    }

    /// Number of banks still busy (`ready_at` in the future) at `now`.
    pub fn busy_banks(&self, now: u64) -> usize {
        self.ready_at.iter().filter(|&&r| r > now).count()
    }

    /// An instantaneous proxy for FR-FCFS queue depth at `now`: busy banks
    /// plus the whole burst slots still queued on each channel bus.
    pub fn queued_requests(&self, now: u64) -> u64 {
        let bus_cycles = self.config.bus_cycles.max(1);
        let bus_backlog: u64 = self
            .bus_free
            .iter()
            .map(|&free| free.saturating_sub(now) / bus_cycles)
            .sum();
        self.busy_banks(now) as u64 + bus_backlog
    }

    /// Serves one access arriving at cycle `now`; returns its latency.
    /// (The inherent mirror of [`MemoryPath::serve`], so callers holding a
    /// concrete `Dram` need no trait import.)
    ///
    /// Reads walk the full bank state machine. Writes model a controller
    /// with write buffering and opportunistic drain (as FR-FCFS controllers
    /// do): they occupy the channel bus and pay nominal write latency, but
    /// do not perturb the banks' open rows — row-buffer statistics are
    /// therefore read-only statistics.
    pub fn serve(&mut self, addr: u64, attrs: OpAttrs, now: u64) -> u64 {
        self.serve_inner(addr, attrs.write, false, now)
    }

    /// Serves a prefetch read: identical timing to a demand read, but
    /// accounted separately (it occupies banks and bus without being on the
    /// core's critical path).
    pub fn serve_prefetch(&mut self, addr: u64, now: u64) -> u64 {
        self.serve_inner(addr, false, true, now)
    }

    /// State-only warmup probe for a read of `addr`: updates the bank's
    /// open-row state exactly as a detailed read would, but records no
    /// statistics and advances no timing lanes (bank readiness, tRAS, bus).
    ///
    /// Used by the functional fast-forward phase of sampled execution so a
    /// detailed window opens against warm row buffers. Writes need no warm
    /// counterpart (they are buffered and never open rows), and ideal-RBL
    /// devices carry no row state to warm.
    pub fn warm_access(&mut self, addr: u64) {
        if self.ideal_rbl {
            return;
        }
        let loc = self.decoder.decode(addr);
        let bank_idx = loc.global_bank(&self.config);
        self.open_rows[bank_idx] = loc.row;
    }

    fn serve_inner(&mut self, addr: u64, is_write: bool, is_prefetch: bool, now: u64) -> u64 {
        let loc = self.decoder.decode(addr);
        if is_write && !self.ideal_rbl {
            let bus = &mut self.bus_free[loc.channel];
            let data_start = (now + self.config.t_cl).max(*bus);
            *bus = data_start + self.config.bus_cycles;
            let latency = data_start + self.config.bus_cycles - now;
            self.stats.writes += 1;
            self.stats.total_write_latency += latency;
            return latency;
        }
        let latency = if self.ideal_rbl {
            // CAS overlaps with earlier transfers; only the data burst
            // occupies the bus.
            let bus = &mut self.bus_free[loc.channel];
            let data_start = (now + self.config.t_cl).max(*bus);
            *bus = data_start + self.config.bus_cycles;
            self.stats.row_hits += 1;
            data_start + self.config.bus_cycles - now
        } else {
            let bank_idx = loc.global_bank(&self.config);
            let start = now.max(self.ready_at[bank_idx]);
            let open_row = self.open_rows[bank_idx];
            let (outcome, cmd_cycles, ras_wait) = if open_row == loc.row {
                (RowOutcome::Hit, self.config.t_cl, 0)
            } else if open_row == NO_ROW {
                (RowOutcome::Miss, self.config.t_rcd + self.config.t_cl, 0)
            } else {
                // Must respect tRAS of the currently open row before
                // precharging it.
                let wait = self.ras_until[bank_idx].saturating_sub(start);
                (
                    RowOutcome::Conflict,
                    self.config.t_rp + self.config.t_rcd + self.config.t_cl,
                    wait,
                )
            };
            match outcome {
                RowOutcome::Hit => self.stats.row_hits += 1,
                RowOutcome::Miss => self.stats.row_misses += 1,
                RowOutcome::Conflict => self.stats.row_conflicts += 1,
            }
            let cas_done = start + ras_wait + cmd_cycles;
            let bus = &mut self.bus_free[loc.channel];
            let data_start = cas_done.max(*bus);
            let done = data_start + self.config.bus_cycles;
            *bus = done;
            // Bank occupancy: CAS commands pipeline, so consecutive row hits
            // stream at burst rate (the bank is ready again after one burst
            // slot); a precharge/activate occupies the bank until the row is
            // open. The *latency* of this access still includes the full
            // command chain above.
            let ready = start
                + ras_wait
                + match outcome {
                    RowOutcome::Hit => self.config.bus_cycles,
                    RowOutcome::Miss => self.config.t_rcd,
                    RowOutcome::Conflict => self.config.t_rp + self.config.t_rcd,
                };
            if outcome != RowOutcome::Hit {
                // Row was (re)activated: tRAS runs from activation.
                self.ras_until[bank_idx] = start + ras_wait + self.config.t_ras;
            }
            self.open_rows[bank_idx] = loc.row;
            self.ready_at[bank_idx] = ready;
            self.busy_bank_cycles += ready - start;
            done - now
        };

        if is_write {
            self.stats.writes += 1;
            self.stats.total_write_latency += latency;
        } else {
            self.stats.reads += 1;
            self.stats.total_read_latency += latency;
            if !is_prefetch {
                self.stats.demand_reads += 1;
                self.stats.total_demand_read_latency += latency;
                self.stats.demand_read_hist.record(latency);
            }
        }
        latency
    }
}

/// The batched memory-path contract: per-op timing identical to the
/// inherent [`Dram::serve`].
impl MemoryPath for Dram {
    #[inline]
    fn serve(&mut self, addr: u64, attrs: OpAttrs, now: u64) -> u64 {
        Dram::serve(self, addr, attrs, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram(mapping: AddressMapping) -> Dram {
        Dram::new(DramConfig::ddr3_1066(3.6), mapping)
    }

    #[test]
    fn first_access_is_row_miss() {
        let mut d = dram(AddressMapping::scheme5());
        let lat = d.serve(0, OpAttrs::read(), 0);
        assert_eq!(d.stats().row_misses, 1);
        assert_eq!(lat, d.config().miss_latency());
    }

    #[test]
    fn sequential_stream_hits_rows_under_scheme5() {
        let mut d = dram(AddressMapping::scheme5());
        let mut t = 0;
        for line in 0..128u64 {
            t += d.serve(line * 64, OpAttrs::read(), t);
        }
        // One miss per 8 KB row (128 lines per row → 1 miss in 128 lines).
        assert!(d.stats().row_hit_rate() > 0.95, "{:?}", d.stats());
    }

    /// Writes are buffered and never open rows: a read after a write to
    /// the same row is a row miss, after a read a row hit.
    #[test]
    fn writes_never_open_rows() {
        let mut d = dram(AddressMapping::scheme5());
        d.serve(0, OpAttrs::write(), 0);
        d.serve(64, OpAttrs::read(), 1000);
        assert_eq!((d.stats().row_hits, d.stats().row_misses), (0, 1));
        d.serve(128, OpAttrs::read(), 2000);
        assert_eq!(d.stats().row_hits, 1);
    }

    #[test]
    fn alternating_rows_conflict() {
        let mut d = dram(AddressMapping::scheme5());
        let row_bytes = d.config().row_bytes;
        let mut t = 0;
        for i in 0..32u64 {
            // Ping-pong between row 0 and row 1 of the same bank.
            let addr = (i % 2) * row_bytes;
            t += d.serve(addr, OpAttrs::read(), t);
        }
        assert!(d.stats().row_conflicts >= 30, "{:?}", d.stats());
    }

    #[test]
    fn conflicts_cost_more_than_hits() {
        let cfg = DramConfig::ddr3_1066(3.6);
        let mut hitter = Dram::new(cfg, AddressMapping::scheme5());
        let mut t = 0;
        for line in 0..64u64 {
            t += hitter.serve(line * 64, OpAttrs::read(), t);
        }
        let mut conflicter = Dram::new(cfg, AddressMapping::scheme5());
        let mut t2 = 0;
        for i in 0..64u64 {
            t2 += conflicter.serve((i % 2) * cfg.row_bytes, OpAttrs::read(), t2);
        }
        assert!(conflicter.stats().avg_read_latency() > 1.5 * hitter.stats().avg_read_latency());
    }

    #[test]
    fn banks_overlap_under_parallel_arrivals() {
        // 8 requests to 8 different banks all arriving at t=0 finish far
        // sooner than 8 requests to one bank.
        let cfg = DramConfig::ddr3_1066(3.6);
        let m = AddressMapping::scheme7(); // line-interleaved banks
        let mut spread = Dram::new(cfg, m);
        let spread_latency: u64 = (0..8u64)
            .map(|i| spread.serve(i * 64, OpAttrs::read(), 0))
            .sum();

        let mut serial = Dram::new(cfg, AddressMapping::scheme5());
        let serial_latency: u64 = (0..8u64)
            .map(|i| serial.serve(i * cfg.row_bytes, OpAttrs::read(), 0))
            .sum();
        assert!(spread_latency < serial_latency);
    }

    #[test]
    fn bus_serializes_transfers() {
        // Many simultaneous row hits on one channel still queue on the bus.
        let cfg = DramConfig::ddr3_1066(3.6);
        let mut d = Dram::new(cfg, AddressMapping::scheme5());
        // Warm the row.
        let mut t = d.serve(0, OpAttrs::read(), 0);
        let base = d.serve(64, OpAttrs::read(), t);
        t += base;
        // Two hits issued at the same instant: the second waits for the bus.
        let a = d.serve(128, OpAttrs::read(), t);
        let b = d.serve(192, OpAttrs::read(), t);
        assert!(b >= a + cfg.bus_cycles - 1);
    }

    #[test]
    fn ideal_rbl_always_hits() {
        let cfg = DramConfig::ddr3_1066(3.6);
        let mut d = Dram::new_ideal_rbl(cfg, AddressMapping::scheme1());
        let mut t = 0;
        for i in 0..64u64 {
            t += d.serve(i * 1_000_003, OpAttrs::read(), t); // scattered addresses
        }
        assert_eq!(d.stats().row_hits, 64);
        assert_eq!(d.stats().row_conflicts, 0);
    }

    #[test]
    fn warm_access_opens_rows_without_stats_or_timing() {
        let mut d = dram(AddressMapping::scheme5());
        d.warm_access(0);
        assert_eq!(d.stats(), DramStats::default(), "no statistics recorded");
        assert_eq!(d.busy_banks(0), 0, "no bank timing consumed");
        // The warm probe opened the row: a detailed read is a row hit.
        d.serve(64, OpAttrs::read(), 0);
        assert_eq!(d.stats().row_hits, 1);
    }

    #[test]
    fn write_stats_tracked() {
        let mut d = dram(AddressMapping::scheme1());
        d.serve(0, OpAttrs::write(), 0);
        d.serve(64, OpAttrs::read(), 0);
        assert_eq!(d.stats().writes, 1);
        assert_eq!(d.stats().reads, 1);
        assert!(d.stats().avg_read_latency() > 0.0);
        assert!(d.stats().avg_write_latency() > 0.0);
    }

    #[test]
    fn empty_stats_are_zero() {
        let d = dram(AddressMapping::scheme1());
        assert_eq!(d.stats().row_hit_rate(), 0.0);
        assert_eq!(d.stats().avg_read_latency(), 0.0);
        assert_eq!(d.stats().avg_write_latency(), 0.0);
    }
}
