//! The MESI snooping protocol: state machine, shared-bus model, and the
//! engine that runs it over real caches.
//!
//! Private caches on a snooping bus keep each line in one of four states —
//! **M**odified (sole dirty copy), **E**xclusive (sole clean copy),
//! **S**hared (one of possibly many clean copies), **I**nvalid — and
//! broadcast their misses so every peer can react. This module holds the
//! *pure* protocol (the transition tables below, which the exhaustive
//! enumeration test in `crates/sim/tests/coherence.rs` pins case by case);
//! the timed bus ([`SnoopBus`]: arbitration latency, cache-to-cache
//! transfer timing, and traffic counters); and the engine that plays the
//! protocol out over per-core L1/L2 caches ([`mesi_access`]).
//!
//! # The transition tables
//!
//! Requester side ([`local_next`]) — what a core's own access does to its
//! line, and which bus transaction it must broadcast first:
//!
//! | state | read            | write            |
//! |-------|-----------------|------------------|
//! | I     | BusRd → E or S¹ | BusRdX → M       |
//! | S     | hit (S)         | BusUpgr → M      |
//! | E     | hit (E)         | silent upgrade → M |
//! | M     | hit (M)         | hit (M)          |
//!
//! ¹ E when no other cache holds the line, S otherwise.
//!
//! Snooper side ([`snoop_transition`]) — how a cache holding the line
//! reacts to a peer's broadcast:
//!
//! | state | BusRd                  | BusRdX                  | BusUpgr      |
//! |-------|------------------------|-------------------------|--------------|
//! | M     | → S, flush + supply    | → I, flush + supply     | *unreachable*² |
//! | E     | → S, supply (clean)    | → I, supply (clean)     | *unreachable*² |
//! | S     | → S                    | → I                     | → I          |
//! | I     | → I                    | → I                     | → I          |
//!
//! ² A `BusUpgr` is only broadcast by a core holding the line in S; under
//! the SWMR invariant no peer can then hold it in M or E, so these pairs
//! are dead states. [`snoop_transition`] returns `None` for them and the
//! enumeration test asserts exactly these two pairs are unreachable.
//!
//! # The engine
//!
//! Each core's *private domain* is its L1+L2 pair; a line's domain state is
//! its L1 MESI state when L1 holds it, else its L2 state (the two lanes are
//! kept in lockstep whenever both levels hold the line). The domain is
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
//! each level's set is scanned once per line, not once per state access.
//! [`crate::hierarchy::Hierarchy`] owns the domains and the bus and sinks
//! the writebacks into its shared L3/DRAM; the `CoherentCluster` oracle in
//! `xmem_sim::coherence` sinks them into a flat value-tracked memory.

use crate::cache::{Cache, Eviction, InsertPriority, Slot};
use std::fmt;

/// The MESI state of one cache line (also used as the lane encoding in
/// [`crate::cache::Cache`]; `Invalid` is 0 so a zeroed lane is all-invalid).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
#[repr(u8)]
pub enum MesiState {
    /// No valid copy.
    #[default]
    Invalid = 0,
    /// One of possibly many clean copies; memory is up to date.
    Shared = 1,
    /// The only cached copy, clean; memory is up to date.
    Exclusive = 2,
    /// The only cached copy, dirty; memory is stale.
    Modified = 3,
}

impl MesiState {
    /// Decodes a lane byte (inverse of `self as u8`).
    pub const fn from_lane(v: u8) -> MesiState {
        match v {
            1 => MesiState::Shared,
            2 => MesiState::Exclusive,
            3 => MesiState::Modified,
            _ => MesiState::Invalid,
        }
    }

    /// Whether this state permits a local write without a bus transaction.
    pub const fn writable(self) -> bool {
        matches!(self, MesiState::Modified | MesiState::Exclusive)
    }

    /// Whether this is the sole-copy half of the SWMR invariant (M or E).
    pub const fn exclusive(self) -> bool {
        matches!(self, MesiState::Modified | MesiState::Exclusive)
    }
}

impl fmt::Display for MesiState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MesiState::Invalid => "I",
            MesiState::Shared => "S",
            MesiState::Exclusive => "E",
            MesiState::Modified => "M",
        })
    }
}

/// A broadcast bus transaction (the events a snooper can observe).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusOp {
    /// Read miss: the requester wants a readable copy.
    Rd,
    /// Write miss: the requester wants the sole writable copy.
    RdX,
    /// Write hit on a Shared line: invalidate peers, no data needed.
    Upgr,
}

/// What a snooping cache must do alongside its state change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnoopAction {
    /// Nothing beyond the state change.
    None,
    /// Supply the (clean) line cache-to-cache; memory already has it.
    Supply,
    /// Write the dirty line back to memory *and* supply it cache-to-cache.
    FlushSupply,
}

/// Requester-side transition: `(next state, bus transaction to broadcast)`
/// for an access in `state`. `others` reports whether any peer holds the
/// line (it only matters for the I-read → E/S split).
///
/// Total over all `(state, is_write, others)` triples; the enumeration
/// test asserts every cell of the table in the module docs.
pub const fn local_next(
    state: MesiState,
    is_write: bool,
    others: bool,
) -> (MesiState, Option<BusOp>) {
    match (state, is_write) {
        (MesiState::Invalid, false) => {
            if others {
                (MesiState::Shared, Some(BusOp::Rd))
            } else {
                (MesiState::Exclusive, Some(BusOp::Rd))
            }
        }
        (MesiState::Invalid, true) => (MesiState::Modified, Some(BusOp::RdX)),
        (MesiState::Shared, false) => (MesiState::Shared, None),
        (MesiState::Shared, true) => (MesiState::Modified, Some(BusOp::Upgr)),
        (MesiState::Exclusive, false) => (MesiState::Exclusive, None),
        // The silent E→M upgrade: sole clean copy becomes sole dirty copy
        // with no bus traffic at all.
        (MesiState::Exclusive, true) => (MesiState::Modified, None),
        (MesiState::Modified, _) => (MesiState::Modified, None),
    }
}

/// Snooper-side transition: the `(next state, action)` a cache holding the
/// line in `state` performs on observing `op` from a peer, or `None` for
/// the two pairs unreachable under SWMR (M/E observing a `BusUpgr` — an
/// upgrade is only sent by an S holder, which excludes any M/E peer).
pub const fn snoop_transition(state: MesiState, op: BusOp) -> Option<(MesiState, SnoopAction)> {
    match (state, op) {
        (MesiState::Modified, BusOp::Rd) => Some((MesiState::Shared, SnoopAction::FlushSupply)),
        (MesiState::Modified, BusOp::RdX) => Some((MesiState::Invalid, SnoopAction::FlushSupply)),
        (MesiState::Modified, BusOp::Upgr) => None,
        (MesiState::Exclusive, BusOp::Rd) => Some((MesiState::Shared, SnoopAction::Supply)),
        (MesiState::Exclusive, BusOp::RdX) => Some((MesiState::Invalid, SnoopAction::Supply)),
        (MesiState::Exclusive, BusOp::Upgr) => None,
        (MesiState::Shared, BusOp::Rd) => Some((MesiState::Shared, SnoopAction::None)),
        (MesiState::Shared, BusOp::RdX) => Some((MesiState::Invalid, SnoopAction::None)),
        (MesiState::Shared, BusOp::Upgr) => Some((MesiState::Invalid, SnoopAction::None)),
        (MesiState::Invalid, _) => Some((MesiState::Invalid, SnoopAction::None)),
    }
}

// The bus sits between the scaled L3 (27 cycles) and DRAM (~100+):
// arbitration alone costs half an L3 hit; a full cache-to-cache transfer
// lands at L3-hit-plus-bus territory.

/// Cycles to win arbitration and broadcast one transaction.
pub const ARB_LATENCY: u64 = 12;
/// Extra cycles for a cache-to-cache (M/E → requester) data transfer.
/// Cheaper than DRAM, dearer than an L3 hit.
pub const C2C_LATENCY: u64 = 30;

/// Traffic and timing counters of the snooping bus.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BusStats {
    /// `BusRd` transactions (read misses broadcast).
    pub bus_rd: u64,
    /// `BusRdX` transactions (write misses broadcast).
    pub bus_rdx: u64,
    /// `BusUpgr` transactions (S→M upgrades broadcast).
    pub bus_upgr: u64,
    /// Cache-to-cache data transfers (an M/E peer supplied the line).
    pub c2c_transfers: u64,
    /// Writebacks caused by coherence (M flushed on a snoop, or an M line
    /// evicted from a private hierarchy).
    pub writebacks: u64,
    /// Peer lines invalidated by `BusRdX`/`BusUpgr` broadcasts.
    pub invalidations: u64,
    /// Cycles requesters spent waiting for bus arbitration.
    pub stall_cycles: u64,
}

impl BusStats {
    /// Total transactions broadcast.
    pub fn transactions(&self) -> u64 {
        self.bus_rd + self.bus_rdx + self.bus_upgr
    }

    /// Exports counters for the report sinks.
    pub fn kv(&self) -> cpu_sim::kv::KvPairs {
        vec![
            ("bus_rd", self.bus_rd.into()),
            ("bus_rdx", self.bus_rdx.into()),
            ("bus_upgr", self.bus_upgr.into()),
            ("transactions", self.transactions().into()),
            ("c2c_transfers", self.c2c_transfers.into()),
            ("writebacks", self.writebacks.into()),
            ("invalidations", self.invalidations.into()),
            ("stall_cycles", self.stall_cycles.into()),
        ]
    }
}

/// The timed snooping bus: one transaction at a time, FCFS in simulated
/// time, at the fixed [`ARB_LATENCY`] and [`C2C_LATENCY`]. A requester
/// arriving while the bus is busy waits for the previous transaction to
/// drain (counted in [`BusStats::stall_cycles`]). The default bus is idle.
#[derive(Debug, Clone, Default)]
pub struct SnoopBus {
    busy_until: u64,
    stats: BusStats,
}

impl SnoopBus {
    /// Accumulated traffic counters.
    pub fn stats(&self) -> BusStats {
        self.stats
    }

    /// Broadcasts `op` at time `now`: waits for the bus, occupies it for
    /// the arbitration slot, and returns the cycles from `now` until the
    /// broadcast is complete (wait + arbitration).
    pub fn transact(&mut self, op: BusOp, now: u64) -> u64 {
        let start = self.busy_until.max(now);
        let wait = start - now;
        self.stats.stall_cycles += wait;
        self.busy_until = start + ARB_LATENCY;
        match op {
            BusOp::Rd => self.stats.bus_rd += 1,
            BusOp::RdX => self.stats.bus_rdx += 1,
            BusOp::Upgr => self.stats.bus_upgr += 1,
        }
        wait + ARB_LATENCY
    }

    /// Extends the current transaction with a cache-to-cache data transfer
    /// and returns its latency. Call after [`SnoopBus::transact`] when an
    /// M/E peer supplies the line.
    pub fn cache_to_cache(&mut self) -> u64 {
        self.stats.c2c_transfers += 1;
        self.busy_until += C2C_LATENCY;
        C2C_LATENCY
    }

    /// Records a coherence writeback (snoop flush or M-line eviction).
    pub fn note_writeback(&mut self) {
        self.stats.writebacks += 1;
    }

    /// Records a peer-line invalidation.
    pub fn note_invalidation(&mut self) {
        self.stats.invalidations += 1;
    }
}

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_round_trip() {
        for st in [
            MesiState::Invalid,
            MesiState::Shared,
            MesiState::Exclusive,
            MesiState::Modified,
        ] {
            assert_eq!(MesiState::from_lane(st as u8), st);
        }
        assert_eq!(MesiState::from_lane(0xFF), MesiState::Invalid);
    }

    #[test]
    fn silent_upgrade_needs_no_bus() {
        let (next, bus) = local_next(MesiState::Exclusive, true, false);
        assert_eq!(next, MesiState::Modified);
        assert_eq!(bus, None);
    }

    #[test]
    fn bus_serializes_back_to_back_transactions() {
        let mut bus = SnoopBus::default();
        // First transaction at t=0 occupies [0, 12).
        assert_eq!(bus.transact(BusOp::Rd, 0), ARB_LATENCY);
        // Second at t=4 waits 8, then arbitrates: 20 cycles total.
        assert_eq!(bus.transact(BusOp::RdX, 4), 8 + ARB_LATENCY);
        assert_eq!(bus.stats().stall_cycles, 8);
        // A c2c transfer extends the occupancy to 24 + 30 = 54.
        assert_eq!(bus.cache_to_cache(), C2C_LATENCY);
        assert_eq!(bus.transact(BusOp::Upgr, 0), 54 + ARB_LATENCY);
        let s = bus.stats();
        assert_eq!((s.bus_rd, s.bus_rdx, s.bus_upgr), (1, 1, 1));
        assert_eq!(s.transactions(), 3);
        assert_eq!(s.c2c_transfers, 1);
    }

    #[test]
    fn idle_bus_costs_only_arbitration() {
        let mut bus = SnoopBus::default();
        let lat = bus.transact(BusOp::Rd, 1_000_000);
        assert_eq!(lat, ARB_LATENCY);
        assert_eq!(bus.stats().stall_cycles, 0);
    }
}
