//! The coherence oracle: [`CoherentCluster`] runs the MESI engine of
//! [`cache_sim::coherence`] ([`mesi_access`] over per-core L1/L2 domains
//! and a timed snooping bus) against a flat, value-tracked memory instead
//! of an L3 and DRAM.
//!
//! The engine reports the writebacks and invalidations its caller must
//! settle; the cluster settles them into `memory` and per-core `copies`,
//! so litmus and fuzz tests can assert the SWMR and data-value invariants
//! after every single transaction. It shares the engine and the caches
//! with the timed memory system ([`cache_sim::hierarchy::Hierarchy`]) but
//! none of its L3/DRAM settlement, so its value-tracked memory is an
//! independent golden-memory check of the protocol.

use cache_sim::cache::Cache;
use cache_sim::coherence::{mesi_access, CoherentAccess, MesiDomains, MesiState, SnoopBus};
use cache_sim::config::CacheConfig;
use cache_sim::{BusStats, ReplacementPolicy};
use std::collections::{BTreeMap, BTreeSet};

/// A self-contained coherent multicore cluster over a flat value-tracked
/// memory — the protocol-verification harness behind the litmus, fuzz, and
/// enumeration suites in `crates/sim/tests/coherence.rs`.
///
/// Values are tracked at line granularity (one `u64` per line): `memory`
/// models DRAM, `copies` every cached line's current value per core. After
/// any operation [`CoherentCluster::check`] can audit the two protocol
/// invariants:
///
/// * **SWMR** — at most one domain holds a line in M/E, and then no other
///   domain holds it at all;
/// * **data-value** — every clean (E/S) copy equals memory, and reads
///   always return the most recently written value (the shadow-oracle fuzz
///   test closes the loop end-to-end).
#[derive(Debug)]
pub struct CoherentCluster {
    l1s: Vec<Cache>,
    l2s: Vec<Cache>,
    bus: SnoopBus,
    l1_lat: u64,
    l2_lat: u64,
    mem_lat: u64,
    line_bytes: u64,
    memory: BTreeMap<u64, u64>,
    copies: BTreeMap<(usize, u64), u64>,
    /// Reused outcome buffer for [`mesi_access`].
    acc: CoherentAccess,
}

impl CoherentCluster {
    /// A cluster of `cores` domains with the given cache geometries.
    pub fn new(cores: usize, l1: CacheConfig, l2: CacheConfig, mem_lat: u64) -> Self {
        CoherentCluster {
            l1s: (0..cores).map(|_| Cache::new(l1)).collect(),
            l2s: (0..cores).map(|_| Cache::new(l2)).collect(),
            bus: SnoopBus::default(),
            l1_lat: l1.latency,
            l2_lat: l2.latency,
            mem_lat,
            line_bytes: l1.line_bytes,
            memory: BTreeMap::new(),
            copies: BTreeMap::new(),
            acc: CoherentAccess::default(),
        }
    }

    /// A small cluster (1 KB 2-way L1, 2 KB 4-way L2, LRU) whose conflict
    /// evictions are easy to provoke — the litmus/fuzz default.
    pub fn small(cores: usize) -> Self {
        let l1 = CacheConfig {
            size_bytes: 1 << 10,
            ways: 2,
            line_bytes: 64,
            latency: 2,
            policy: ReplacementPolicy::Lru,
        };
        let l2 = CacheConfig {
            size_bytes: 2 << 10,
            ways: 4,
            line_bytes: 64,
            latency: 6,
            policy: ReplacementPolicy::Lru,
        };
        CoherentCluster::new(cores, l1, l2, 100)
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.l1s.len()
    }

    fn line_of(&self, addr: u64) -> u64 {
        addr & !(self.line_bytes - 1)
    }

    /// One access, with the writeback/invalidation settlement the caller
    /// of [`mesi_access`] owes: flushed M lines update `memory` *before*
    /// dropped copies leave `copies`. The outcome is left in `self.acc`.
    fn settle_access(&mut self, core: usize, addr: u64, is_write: bool, now: u64) {
        let mut d = MesiDomains {
            l1s: &mut self.l1s,
            l2s: &mut self.l2s,
            bus: &mut self.bus,
            l1_lat: self.l1_lat,
            l2_lat: self.l2_lat,
            line_bytes: self.line_bytes,
        };
        mesi_access(&mut d, core, addr, is_write, now, &mut self.acc);
        for &(j, line) in &self.acc.writebacks {
            if let Some(&v) = self.copies.get(&(j, line)) {
                self.memory.insert(line, v);
            }
        }
        for &(j, line) in &self.acc.invalidated {
            self.copies.remove(&(j, line));
        }
    }

    /// A load by `core`: returns `(value, latency)`.
    pub fn read(&mut self, core: usize, addr: u64, now: u64) -> (u64, u64) {
        let line = self.line_of(addr);
        let had = self.copies.contains_key(&(core, line));
        self.settle_access(core, addr, false, now);
        let value = if had {
            self.copies[&(core, line)]
        } else {
            // Misses read memory *after* settlement: a snooped M supplier
            // has just flushed, so memory holds the up-to-date value for
            // both the cache-to-cache and the from-memory path.
            let v = self.memory.get(&line).copied().unwrap_or(0);
            self.copies.insert((core, line), v);
            v
        };
        let mem = if self.acc.from_memory {
            self.mem_lat
        } else {
            0
        };
        (value, self.acc.latency + mem)
    }

    /// A store of `value` by `core`: returns the latency.
    pub fn write(&mut self, core: usize, addr: u64, value: u64, now: u64) -> u64 {
        let line = self.line_of(addr);
        self.settle_access(core, addr, true, now);
        debug_assert_eq!(self.acc.state, MesiState::Modified, "a store must end in M");
        self.copies.insert((core, line), value);
        let mem = if self.acc.from_memory {
            self.mem_lat
        } else {
            0
        };
        self.acc.latency + mem
    }

    /// The domain state of `core` for the line holding `addr`.
    pub fn state(&self, core: usize, addr: u64) -> MesiState {
        let s = self.l1s[core].coh_state(addr);
        if s != MesiState::Invalid {
            s
        } else {
            self.l2s[core].coh_state(addr)
        }
    }

    /// The memory image of the line holding `addr` (0 if never written
    /// back).
    pub fn memory_value(&self, addr: u64) -> u64 {
        self.memory.get(&self.line_of(addr)).copied().unwrap_or(0)
    }

    /// Accumulated bus traffic.
    pub fn bus_stats(&self) -> BusStats {
        self.bus.stats()
    }

    /// Per-core L1 snoop-invalidation count (for litmus assertions).
    pub fn l1_snoop_invalidations(&self, core: usize) -> u64 {
        self.l1s[core].stats().snoop_invalidations
    }

    /// Audits the protocol invariants over every tracked line; returns the
    /// first violation as an error string.
    pub fn check(&self) -> Result<(), String> {
        let lines: BTreeSet<u64> = self.copies.keys().map(|&(_, l)| l).collect();
        for &line in &lines {
            let mut holders = 0usize;
            let mut exclusive = 0usize;
            for j in 0..self.cores() {
                let s1 = self.l1s[j].coh_state(line);
                let s2 = self.l2s[j].coh_state(line);
                if self.l1s[j].contains(line) && s1 == MesiState::Invalid {
                    return Err(format!(
                        "core {j} line {line:#x}: resident in L1 without state"
                    ));
                }
                if s1 != MesiState::Invalid && s2 != MesiState::Invalid && s1 != s2 {
                    return Err(format!(
                        "core {j} line {line:#x}: L1 state {s1} != L2 state {s2}"
                    ));
                }
                let state = self.state(j, line);
                let copy = self.copies.get(&(j, line));
                if copy.is_some() && state == MesiState::Invalid {
                    return Err(format!("core {j} line {line:#x}: copy tracked but Invalid"));
                }
                if copy.is_none() && state != MesiState::Invalid {
                    return Err(format!(
                        "core {j} line {line:#x}: state {state} but no copy"
                    ));
                }
                if state != MesiState::Invalid {
                    holders += 1;
                }
                if state.exclusive() {
                    exclusive += 1;
                }
                if matches!(state, MesiState::Shared | MesiState::Exclusive) {
                    let mem = self.memory.get(&line).copied().unwrap_or(0);
                    // simlint: allow(unwrap, reason = "copy presence just verified against the state")
                    let v = *copy.expect("clean holder has a copy");
                    if v != mem {
                        return Err(format!(
                            "core {j} line {line:#x}: clean copy {v} != memory {mem}"
                        ));
                    }
                }
            }
            if exclusive > 1 {
                return Err(format!("line {line:#x}: {exclusive} M/E holders (SWMR)"));
            }
            if exclusive == 1 && holders > 1 {
                return Err(format!(
                    "line {line:#x}: M/E holder coexists with {} other copies (SWMR)",
                    holders - 1
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_then_write_single_core() {
        let mut c = CoherentCluster::small(2);
        let (v, _) = c.read(0, 0x1000, 0);
        assert_eq!(v, 0);
        assert_eq!(c.state(0, 0x1000), MesiState::Exclusive);
        c.write(0, 0x1000, 7, 10);
        // Silent E→M upgrade: still exactly one bus transaction (the Rd).
        assert_eq!(c.bus_stats().transactions(), 1);
        assert_eq!(c.state(0, 0x1000), MesiState::Modified);
        assert_eq!(c.read(0, 0x1000, 20).0, 7);
        c.check().unwrap();
    }

    #[test]
    fn two_readers_share() {
        let mut c = CoherentCluster::small(2);
        c.read(0, 0x40, 0);
        c.read(1, 0x40, 10);
        assert_eq!(c.state(0, 0x40), MesiState::Shared);
        assert_eq!(c.state(1, 0x40), MesiState::Shared);
        assert_eq!(c.bus_stats().c2c_transfers, 1);
        c.check().unwrap();
    }
}
