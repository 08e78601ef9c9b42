//! The MESI coherence engine: drives the pure protocol of
//! [`cache_sim::coherence`] over real per-core L1/L2 caches and a timed
//! snooping bus.
//!
//! Each core's *private domain* is its L1+L2 pair; a line's domain state is
//! its L1 MESI state when L1 holds it, else its L2 state (the two lanes are
//! kept in lockstep whenever both levels hold the line). The hierarchy is
//! non-inclusive: an L2 eviction leaves any L1 copy (and its state) in
//! place, and a line only leaves the domain — writing back if Modified —
//! when neither level holds it anymore.
//!
//! [`mesi_access`] performs one timed access: probe L1, then L2, then
//! broadcast on the bus and snoop every peer domain. It reports what the
//! *caller* must settle — coherence writebacks to sink toward memory, and
//! whether the line must come from memory at all (peers with an M/E copy
//! supply it cache-to-cache instead) — in a [`CoherentAccess`] the caller
//! owns and reuses, so an access allocates nothing. A line's MESI state is
//! read and written through the [`Slot`] its probe or fill resolved, so
//! each level's set is scanned once per line, not once per state access. `sim::multicore` sinks writebacks
//! into the shared L3/DRAM; [`CoherentCluster`] — the protocol-test
//! harness — sinks them into a flat value-tracked memory so litmus and
//! fuzz tests can assert the SWMR and data-value invariants after every
//! single transaction.

use cache_sim::cache::{Cache, Eviction, InsertPriority, Slot};
use cache_sim::coherence::{local_next, snoop_transition, BusOp, MesiState, SnoopAction, SnoopBus};
use cache_sim::config::CacheConfig;
use cache_sim::{BusConfig, BusStats, ReplacementPolicy};
use std::collections::{BTreeMap, BTreeSet};

/// The per-core private domains and the bus, bundled for [`mesi_access`].
#[derive(Debug)]
pub struct MesiDomains<'a> {
    /// Per-core private L1s.
    pub l1s: &'a mut [Cache],
    /// Per-core private L2s.
    pub l2s: &'a mut [Cache],
    /// The shared snooping bus.
    pub bus: &'a mut SnoopBus,
    /// L1 hit latency.
    pub l1_lat: u64,
    /// L2 hit latency.
    pub l2_lat: u64,
    /// Cache line size (power of two).
    pub line_bytes: u64,
}

/// The outcome of one coherent access, including everything the caller
/// must settle against its memory model. [`mesi_access`] overwrites every
/// field, keeping the lists' capacity, so one value serves every access.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoherentAccess {
    /// Cycles spent in the private levels and on the bus. When
    /// [`from_memory`](Self::from_memory) is set the caller adds its
    /// L3/DRAM (or flat-memory) latency on top.
    pub latency: u64,
    /// The line was supplied by memory: no peer held it in M/E. When
    /// false, a cache-to-cache transfer supplied it (latency included).
    pub from_memory: bool,
    /// `(core, line)` pairs whose dirty data must reach memory: M lines
    /// flushed by a snoop, and M lines evicted out of a private domain.
    pub writebacks: Vec<(usize, u64)>,
    /// `(core, line)` pairs that left their domain entirely (snoop
    /// invalidations and clean/dirty eviction drops).
    pub invalidated: Vec<(usize, u64)>,
    /// The peer that supplied the line cache-to-cache, if any.
    pub supplier: Option<usize>,
    /// The requester's final state for the line.
    pub state: MesiState,
}

/// Snoops every peer domain for `line` on observing `op`, applying the
/// protocol transitions. Returns whether any peer (still) holds the line.
fn snoop_peers(
    d: &mut MesiDomains<'_>,
    requester: usize,
    line: u64,
    op: BusOp,
    acc: &mut CoherentAccess,
) -> bool {
    let mut sharers = false;
    for j in 0..d.l1s.len() {
        if j == requester {
            continue;
        }
        let l1 = d.l1s[j].lookup(line);
        let s1 = l1.map_or(MesiState::Invalid, |s| d.l1s[j].slot_coh_state(s));
        // L2 is resolved only when L1 cannot answer, or below when the
        // transition must update it.
        let mut l2: Option<Slot> = None;
        let state = if s1 != MesiState::Invalid {
            s1
        } else {
            l2 = d.l2s[j].lookup(line);
            l2.map_or(MesiState::Invalid, |s| d.l2s[j].slot_coh_state(s))
        };
        if state == MesiState::Invalid {
            continue;
        }
        let Some((next, action)) = snoop_transition(state, op) else {
            debug_assert!(false, "SWMR violation: core {j} holds {state} on {op:?}");
            continue;
        };
        match action {
            SnoopAction::None => {}
            SnoopAction::Supply => acc.supplier = Some(j),
            SnoopAction::FlushSupply => {
                acc.supplier = Some(j);
                acc.writebacks.push((j, line));
                d.bus.note_writeback();
            }
        }
        if next != state && s1 != MesiState::Invalid {
            l2 = d.l2s[j].lookup(line);
        }
        if next == MesiState::Invalid {
            if let Some(s) = l1 {
                d.l1s[j].snoop_invalidate_slot(s);
            }
            if let Some(s) = l2 {
                d.l2s[j].snoop_invalidate_slot(s);
            }
            d.bus.note_invalidation();
            acc.invalidated.push((j, line));
        } else if next != state {
            if let Some(s) = l1 {
                d.l1s[j].set_slot_coh_state(s, next);
            }
            if let Some(s) = l2 {
                d.l2s[j].set_slot_coh_state(s, next);
            }
        }
        sharers = true;
    }
    sharers
}

/// Settles a private-level eviction: if the victim still lives in the
/// domain's other level nothing happens (its state rides along there);
/// otherwise the line leaves the domain, writing back if it was Modified.
fn settle_eviction(
    core: usize,
    ev: Eviction,
    still_held: bool,
    bus: &mut SnoopBus,
    acc: &mut CoherentAccess,
) {
    if still_held {
        return;
    }
    if ev.dirty {
        acc.writebacks.push((core, ev.addr));
        bus.note_writeback();
    }
    acc.invalidated.push((core, ev.addr));
}

/// One coherent access by `core` to `pa` at time `now`: the requester-side
/// and snooper-side MESI transitions of `cache_sim::coherence`, played out
/// over the real caches with bus timing. The outcome overwrites `acc`.
pub fn mesi_access(
    d: &mut MesiDomains<'_>,
    core: usize,
    pa: u64,
    is_write: bool,
    now: u64,
    acc: &mut CoherentAccess,
) {
    let line = pa & !(d.line_bytes - 1);
    acc.latency = 0;
    acc.from_memory = false;
    acc.writebacks.clear();
    acc.invalidated.clear();
    acc.supplier = None;
    acc.state = MesiState::Invalid;

    // ── L1 hit ──────────────────────────────────────────────────────────
    if let Some(s1) = d.l1s[core].probe_slot(pa, is_write) {
        let state = d.l1s[core].slot_coh_state(s1);
        debug_assert_ne!(state, MesiState::Invalid, "resident line without state");
        // `others` only matters from I, which a hit excludes.
        let (next, bus_op) = local_next(state, is_write, false);
        let mut lat = d.l1_lat;
        if let Some(op) = bus_op {
            debug_assert_eq!(op, BusOp::Upgr, "only S→M upgrades broadcast on a hit");
            lat += d.bus.transact(op, now);
            snoop_peers(d, core, line, op, acc);
        }
        if next != state {
            d.l1s[core].set_slot_coh_state(s1, next);
            d.l2s[core].set_coh_state(line, next);
        }
        acc.latency = lat;
        acc.state = next;
        return;
    }

    // ── L2 hit: state lives in L2; refill L1 alongside ──────────────────
    if let Some(s2) = d.l2s[core].probe_slot(pa, false) {
        let state = d.l2s[core].slot_coh_state(s2);
        debug_assert_ne!(state, MesiState::Invalid, "resident line without state");
        let (next, bus_op) = local_next(state, is_write, false);
        let mut lat = d.l1_lat + d.l2_lat;
        if let Some(op) = bus_op {
            debug_assert_eq!(op, BusOp::Upgr, "only S→M upgrades broadcast on a hit");
            lat += d.bus.transact(op, now);
            snoop_peers(d, core, line, op, acc);
        }
        d.l2s[core].set_slot_coh_state(s2, next);
        let (s1, ev) = d.l1s[core].fill_slot(line, false, InsertPriority::Normal);
        if let Some(ev) = ev {
            let still = d.l2s[core].contains(ev.addr);
            settle_eviction(core, ev, still, d.bus, acc);
        }
        d.l1s[core].set_slot_coh_state(s1, next);
        acc.latency = lat;
        acc.state = next;
        return;
    }

    // ── private miss: broadcast, snoop, fill both levels ────────────────
    let op = if is_write { BusOp::RdX } else { BusOp::Rd };
    let mut lat = d.l1_lat + d.l2_lat + d.bus.transact(op, now);
    let sharers = snoop_peers(d, core, line, op, acc);
    let (next, _) = local_next(MesiState::Invalid, is_write, sharers);
    if acc.supplier.is_some() {
        lat += d.bus.cache_to_cache();
    } else {
        acc.from_memory = true;
    }
    let (s2, ev) = d.l2s[core].fill_slot(line, false, InsertPriority::Normal);
    if let Some(ev) = ev {
        let still = d.l1s[core].contains(ev.addr);
        settle_eviction(core, ev, still, d.bus, acc);
    }
    d.l2s[core].set_slot_coh_state(s2, next);
    let (s1, ev) = d.l1s[core].fill_slot(line, false, InsertPriority::Normal);
    if let Some(ev) = ev {
        let still = d.l2s[core].contains(ev.addr);
        settle_eviction(core, ev, still, d.bus, acc);
    }
    d.l1s[core].set_slot_coh_state(s1, next);
    acc.latency = lat;
    acc.state = next;
}

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
    pub fn new(
        cores: usize,
        l1: CacheConfig,
        l2: CacheConfig,
        bus: BusConfig,
        mem_lat: u64,
    ) -> Self {
        CoherentCluster {
            l1s: (0..cores).map(|_| Cache::new(l1)).collect(),
            l2s: (0..cores).map(|_| Cache::new(l2)).collect(),
            bus: SnoopBus::new(bus),
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
        CoherentCluster::new(cores, l1, l2, BusConfig::default(), 100)
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

    /// `core`'s cached value for the line holding `addr`, if resident.
    pub fn cached_value(&self, core: usize, addr: u64) -> Option<u64> {
        self.copies.get(&(core, self.line_of(addr))).copied()
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
