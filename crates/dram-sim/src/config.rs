//! DRAM timing and geometry configuration.
//!
//! Defaults reproduce Table 3 of the paper: DDR3-1066, 2 channels, 1 rank
//! per channel, 8 banks per rank, and an open-row policy: every read
//! leaves its row open. All latencies are expressed in *core cycles* so
//! the DRAM model plugs directly into the core timing model; the
//! constructor converts the DDR3 nanosecond parameters at the configured
//! core frequency.

/// DRAM geometry + timing, in core cycles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramConfig {
    /// Number of channels.
    pub channels: usize,
    /// Ranks per channel.
    pub ranks: usize,
    /// Banks per rank.
    pub banks: usize,
    /// Bytes per DRAM row (row-buffer size).
    pub row_bytes: u64,
    /// Column (burst) granularity in bytes — one cache line.
    pub col_bytes: u64,
    /// CAS latency in core cycles (`tCL`).
    pub t_cl: u64,
    /// Row-to-column delay in core cycles (`tRCD`).
    pub t_rcd: u64,
    /// Row precharge in core cycles (`tRP`).
    pub t_rp: u64,
    /// Minimum row-open time in core cycles (`tRAS`).
    pub t_ras: u64,
    /// Data-burst occupancy of the channel bus per access, in core cycles.
    ///
    /// This is the bandwidth knob: `64 B / bus_cycles` at the core frequency
    /// is the per-channel peak bandwidth. Fig 6's 2/1/0.5 GB/s-per-core
    /// configurations are produced by scaling this value.
    pub bus_cycles: u64,
    /// Row-address width used by mappings where the row field is not the
    /// most significant (it then cannot simply absorb the remaining bits).
    /// Set with [`DramConfig::with_capacity`] so the full geometry tiles the
    /// simulated physical memory.
    pub row_bits: u32,
}

impl DramConfig {
    /// DDR3-1066 timings (tCK = 1.875 ns, CL-RCD-RP = 7-7-7, tRAS = 35 ns)
    /// converted to core cycles at `core_ghz`, with the paper's 2-channel,
    /// 1-rank, 8-bank geometry.
    ///
    /// # Examples
    ///
    /// ```
    /// let cfg = dram_sim::DramConfig::ddr3_1066(3.6);
    /// assert_eq!(cfg.channels, 2);
    /// assert_eq!(cfg.banks, 8);
    /// // 13.125 ns CAS at 3.6 GHz ≈ 47 core cycles.
    /// assert!((cfg.t_cl as i64 - 47).abs() <= 1);
    /// ```
    pub fn ddr3_1066(core_ghz: f64) -> Self {
        let ns = |t: f64| (t * core_ghz).round().max(1.0) as u64;
        DramConfig {
            channels: 2,
            ranks: 1,
            banks: 8,
            row_bytes: 8192,
            col_bytes: 64,
            t_cl: ns(13.125),
            t_rcd: ns(13.125),
            t_rp: ns(13.125),
            t_ras: ns(35.0),
            // DDR3-1066 peak ≈ 8.53 GB/s per channel: 64 B in ~7.5 ns.
            bus_cycles: ns(7.5),
            row_bits: 16,
        }
    }

    /// Sizes `row_bits` so that channels × ranks × banks × rows × row_bytes
    /// equals (at least) `phys_bytes` — required for mappings whose row
    /// field sits below the top of the address (e.g. [`scheme5`]) to spread
    /// small simulated memories over all banks.
    ///
    /// [`scheme5`]: crate::mapping::AddressMapping::scheme5
    pub fn with_capacity(mut self, phys_bytes: u64) -> Self {
        let per_row_total =
            self.channels as u64 * self.ranks as u64 * self.banks as u64 * self.row_bytes;
        let rows = (phys_bytes / per_row_total).max(2).next_power_of_two();
        self.row_bits = rows.trailing_zeros();
        self
    }

    /// Scales the channel bus occupancy so peak per-channel bandwidth is
    /// `gbps` GB/s at `core_ghz` (Fig 6's bandwidth sweep).
    pub fn with_channel_bandwidth(mut self, gbps: f64, core_ghz: f64) -> Self {
        let ns_per_line = self.col_bytes as f64 / gbps; // GB/s == B/ns
        self.bus_cycles = (ns_per_line * core_ghz).round().max(1.0) as u64;
        self
    }

    /// Total number of banks across all channels and ranks.
    pub fn total_banks(&self) -> usize {
        self.channels * self.ranks * self.banks
    }

    /// Latency of a row-buffer hit (CAS + burst).
    pub fn hit_latency(&self) -> u64 {
        self.t_cl + self.bus_cycles
    }

    /// Latency of an access to a closed bank (activate + CAS + burst).
    pub fn miss_latency(&self) -> u64 {
        self.t_rcd + self.t_cl + self.bus_cycles
    }

    /// Latency of a row-buffer conflict (precharge + activate + CAS + burst).
    pub fn conflict_latency(&self) -> u64 {
        self.t_rp + self.t_rcd + self.t_cl + self.bus_cycles
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        Self::ddr3_1066(3.6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_ordering() {
        let c = DramConfig::default();
        assert!(c.hit_latency() < c.miss_latency());
        assert!(c.miss_latency() < c.conflict_latency());
    }

    #[test]
    fn bandwidth_scaling() {
        let base = DramConfig::ddr3_1066(3.6);
        let slow = base.with_channel_bandwidth(1.0, 3.6);
        let fast = base.with_channel_bandwidth(4.0, 3.6);
        // 64 B at 1 GB/s = 64 ns = 230 cycles at 3.6 GHz.
        assert_eq!(slow.bus_cycles, 230);
        assert!(fast.bus_cycles < slow.bus_cycles);
    }

    #[test]
    fn geometry() {
        let c = DramConfig::default();
        assert_eq!(c.total_banks(), 16);
    }
}
