//! A set-associative, write-back cache with LRU/SRRIP/BRRIP/DRRIP
//! replacement and XMem pin-aware insertion (§5.2(3) of the paper).
//!
//! Pinning semantics follow the paper exactly:
//!
//! * lines belonging to pinned atoms are inserted with the *highest*
//!   priority and are skipped during victim selection;
//! * once pinned lines fill 75% of the ways of a set, further fills use the
//!   default insertion policy (so the cache always retains room for other
//!   data);
//! * when the active-atom list changes, [`Cache::age_pinned`] demotes all
//!   pinned lines so the default policy can evict them.

use crate::coherence::MesiState;
use crate::config::{CacheConfig, ReplacementPolicy};
use xmem_core::addr::addr_to_index;

/// Insertion priority for a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertPriority {
    /// Highest priority + protected from eviction (XMem pinned working set).
    Pinned,
    /// The policy's default insertion.
    Normal,
    /// Distant insertion (hardware prefetches), evicted first.
    Low,
}

/// An evicted line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Line address (byte address of the line base).
    pub addr: u64,
    /// Whether the line was dirty (requires a writeback).
    pub dirty: bool,
}

/// A resolved way: where one resident line's state lives in the cache's
/// lanes. [`Cache::probe_slot`], [`Cache::lookup`] and [`Cache::fill_slot`]
/// return it, so a caller that must read or update the line's MESI state
/// right after finding it does so without scanning the set again.
///
/// A slot names a way, not a line: it is valid only until the next
/// [`Cache::fill`]/[`Cache::fill_slot`]/[`Cache::fill_if_absent`], snoop
/// invalidation or [`Cache::flush`] on the same cache. Debug builds check
/// every use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    index: usize,
    tag: u64,
}

/// What [`Cache::fill_if_absent`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillOutcome {
    /// The line was resident; the cache is unchanged.
    Resident,
    /// The line was installed, displacing the eviction (if any).
    Filled(Option<Eviction>),
}

/// What one pass over a set finds for a fill. Indices are lane indices
/// (`set * ways + way`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct SetScan {
    /// The way already holding the line; the other fields are then unset.
    resident: Option<usize>,
    /// The first invalid way.
    invalid: Option<usize>,
    /// Valid pinned lines in the set.
    pinned: usize,
    /// The replacement candidate among unpinned valid ways.
    candidate: Option<usize>,
    /// RRIP family: the largest RRPV over unpinned valid ways.
    max_rrpv: u8,
}

/// Hit/miss statistics for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand accesses (probe calls).
    pub accesses: u64,
    /// Demand hits.
    pub hits: u64,
    /// Lines filled.
    pub fills: u64,
    /// Valid lines evicted.
    pub evictions: u64,
    /// Dirty lines evicted (writebacks generated).
    pub writebacks: u64,
    /// Lines invalidated by coherence snoops (always 0 outside MESI mode).
    pub snoop_invalidations: u64,
    /// Dirty lines flushed by coherence snoops (always 0 outside MESI mode).
    pub snoop_writebacks: u64,
}

impl CacheStats {
    /// Demand misses.
    pub fn misses(&self) -> u64 {
        self.accesses - self.hits
    }

    /// Demand hit rate in `[0, 1]`; 0 with no accesses.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }

    /// Misses per kilo-unit (whatever the caller counts); used with instruction
    /// counts to compute MPKI.
    pub fn mpk(&self, per_thousand_of: u64) -> f64 {
        if per_thousand_of == 0 {
            0.0
        } else {
            self.misses() as f64 * 1000.0 / per_thousand_of as f64
        }
    }

    /// Exports counters and derived metrics for the report sinks. The
    /// snoop counters are emitted only when nonzero so reports from
    /// coherence-free runs stay byte-identical to pre-MESI output.
    pub fn kv(&self) -> cpu_sim::kv::KvPairs {
        let mut kv: cpu_sim::kv::KvPairs = vec![
            ("accesses", self.accesses.into()),
            ("hits", self.hits.into()),
            ("misses", self.misses().into()),
            ("fills", self.fills.into()),
            ("evictions", self.evictions.into()),
            ("writebacks", self.writebacks.into()),
            ("hit_rate", self.hit_rate().into()),
        ];
        if self.snoop_invalidations != 0 {
            kv.push(("snoop_invalidations", self.snoop_invalidations.into()));
        }
        if self.snoop_writebacks != 0 {
            kv.push(("snoop_writebacks", self.snoop_writebacks.into()));
        }
        kv
    }
}

const RRPV_MAX: u8 = 3;
/// Fraction of BRRIP fills that use the long (rather than distant) interval.
const BRRIP_LONG_EVERY: u32 = 32;
/// PSEL counter width for DRRIP set dueling.
const PSEL_MAX: i32 = 1023;
/// Leader-set spacing for set dueling (1 SRRIP + 1 BRRIP leader per 64 sets).
const DUEL_PERIOD: usize = 64;

/// Tag value stored for invalid lines. Real tags are line addresses shifted
/// right by the set bits, so they cannot reach this value for any physical
/// address a simulated machine produces; storing a sentinel keeps the hot
/// `find_way` scan on the tag lane alone (no metadata load per way).
const TAG_INVALID: u64 = u64::MAX;

/// Per-line state, packed into one byte so a set's victim scan and a
/// fill's state write touch a single contiguous lane: three flag bits, the
/// RRIP re-reference prediction value, and the MESI state.
const META_VALID: u8 = 1 << 0;
const META_DIRTY: u8 = 1 << 1;
const META_PINNED: u8 = 1 << 2;
/// The RRPV field (`0..=RRPV_MAX`).
const RRPV_SHIFT: u32 = 4;
const META_RRPV: u8 = RRPV_MAX << RRPV_SHIFT;
/// The MESI field ([`MesiState`] as u8). Written only through
/// [`Cache::set_coh_state`], so in coherence-free runs it stays zero.
const COH_SHIFT: u32 = 6;
const META_COH: u8 = 3 << COH_SHIFT;

/// The RRPV field of a meta byte.
#[inline]
fn rrpv_of(meta: u8) -> u8 {
    (meta & META_RRPV) >> RRPV_SHIFT
}

/// The cache model.
///
/// Addresses passed in are byte addresses; the cache internally works on
/// line addresses. `probe` looks up (and updates replacement state on hit);
/// `fill` installs a line after a miss and reports any eviction.
///
/// Line state is stored struct-of-arrays: one lane per field (`tags`,
/// `lru`, and the packed `meta` byte holding the flags, RRPV and
/// MESI state), all indexed by `set * ways + way`. The hot probe loop
/// scans the tag lane and a fill's victim search one metadata byte per
/// way — a handful of contiguous cache lines per set — instead of
/// striding over a wide per-line struct.
///
/// # Examples
///
/// ```
/// use cache_sim::cache::{Cache, InsertPriority};
/// use cache_sim::config::CacheConfig;
///
/// let mut c = Cache::new(CacheConfig::l1_westmere());
/// assert!(!c.probe(0x1000, false));
/// c.fill(0x1000, false, InsertPriority::Normal);
/// assert!(c.probe(0x1000, false));
/// assert_eq!(c.stats().hits, 1);
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// `log2(line_bytes)`: the probe path indexes with shifts, not division.
    line_shift: u32,
    /// `log2(sets)`, the tag shift.
    set_shift: u32,
    /// `sets - 1`, the set-index mask.
    set_mask: u64,
    /// Line tags, indexed by `set * ways + way`.
    tags: Vec<u64>,
    /// LRU stamps (same indexing).
    lru: Vec<u64>,
    /// Packed flag bits ([`META_VALID`] etc.), RRPV and MESI state.
    meta: Vec<u8>,
    clock: u64,
    /// DRRIP policy-select counter (positive favors BRRIP).
    psel: i32,
    /// BRRIP fill counter (1 in 32 fills gets the long interval).
    brrip_ctr: u32,
    stats: CacheStats,
    /// Maximum pinned ways per set (75% of associativity, §5.2(3)).
    pin_cap_ways: usize,
}

impl Cache {
    /// Creates an empty cache.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        let lines = sets * config.ways;
        // The set-index mask below already requires a power-of-two set
        // count; requiring the same of the line size lets the hot probe
        // path use shifts instead of 64-bit division.
        assert!(
            config.line_bytes.is_power_of_two() && sets.is_power_of_two(),
            "cache geometry must be a power of two (line_bytes={}, sets={sets})",
            config.line_bytes
        );
        Cache {
            line_shift: config.line_bytes.trailing_zeros(),
            set_shift: sets.trailing_zeros(),
            set_mask: sets as u64 - 1,
            tags: vec![TAG_INVALID; lines],
            lru: vec![0; lines],
            meta: vec![0; lines],
            clock: 0,
            psel: 0,
            brrip_ctr: 0,
            stats: CacheStats::default(),
            pin_cap_ways: ((config.ways as f64) * 0.75).floor().max(1.0) as usize,
            config,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The DRRIP set-dueling policy-select counter. Positive favors BRRIP
    /// for follower sets, negative favors SRRIP: a miss in the SRRIP
    /// leader set (`set % 64 == 0`) increments it, a miss in the BRRIP
    /// leader set (`set % 64 == 1`) decrements it, saturating at
    /// ±`PSEL_MAX`. Always 0 for non-DRRIP caches.
    pub fn psel(&self) -> i32 {
        self.psel
    }

    #[inline]
    fn line_index(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        let set = addr_to_index(line & self.set_mask);
        let tag = line >> self.set_shift;
        debug_assert_ne!(tag, TAG_INVALID, "address overflows the tag space");
        (set, tag)
    }

    /// Index of the way holding `tag` in `set`. Invalid ways hold
    /// [`TAG_INVALID`] (which no real address produces), so the scan
    /// touches only the tag lane; it visits every way without an early
    /// exit — a tag is resident in at most one way, and the branch-free
    /// full scan vectorizes where an early-out compare chain mispredicts
    /// on the (data-dependent) hit position.
    #[inline]
    fn find_way(&self, base: usize, ways: usize, tag: u64) -> Option<usize> {
        let tags = &self.tags[base..base + ways];
        let mut found = usize::MAX;
        for (w, &t) in tags.iter().enumerate() {
            if t == tag {
                found = w;
            }
        }
        (found != usize::MAX).then(|| base + found)
    }

    /// First (lowest-way) index minimizing the LRU stamp over
    /// `base..base+ways`: strict `<`, so ties keep the earliest way.
    fn first_min_lru(&self, base: usize, ways: usize) -> usize {
        let lrus = &self.lru[base..base + ways];
        let mut best = 0;
        for w in 1..ways {
            if lrus[w] < lrus[best] {
                best = w;
            }
        }
        base + best
    }

    /// Looks up `addr`; on a hit, promotes the line and (for writes) marks
    /// it dirty. Returns whether it hit.
    ///
    /// The lookup itself stays small enough to inline into the hierarchy's
    /// demand path; hit bookkeeping and the miss-side DRRIP vote live in
    /// their own helpers.
    #[inline]
    pub fn probe(&mut self, addr: u64, is_write: bool) -> bool {
        self.probe_slot(addr, is_write).is_some()
    }

    /// [`Cache::probe`], returning the hit line's [`Slot`].
    #[inline]
    pub fn probe_slot(&mut self, addr: u64, is_write: bool) -> Option<Slot> {
        self.clock += 1;
        let (set, tag) = self.line_index(addr);
        let ways = self.config.ways;
        self.stats.accesses += 1;
        match self.find_way(set * ways, ways, tag) {
            Some(index) => {
                self.probe_hit(index, is_write);
                Some(Slot { index, tag })
            }
            None => {
                self.probe_miss(set);
                None
            }
        }
    }

    /// Hit-side bookkeeping: promote and mark dirty.
    #[inline]
    fn probe_hit(&mut self, i: usize, is_write: bool) {
        self.lru[i] = self.clock;
        // The RRPV field is only consulted by RRIP-family victim
        // searches; under plain LRU nothing reads it.
        if self.config.policy != ReplacementPolicy::Lru {
            self.meta[i] &= !META_RRPV;
        }
        if is_write {
            self.meta[i] |= META_DIRTY;
        }
        self.stats.hits += 1;
    }

    /// Miss-side bookkeeping: misses in DRRIP leader sets steer PSEL
    /// (SRRIP leader miss → favor BRRIP and vice versa).
    fn probe_miss(&mut self, set: usize) {
        if self.config.policy == ReplacementPolicy::Drrip {
            match set % DUEL_PERIOD {
                0 => self.psel = (self.psel + 1).min(PSEL_MAX),
                1 => self.psel = (self.psel - 1).max(-PSEL_MAX),
                _ => {}
            }
        }
    }

    /// Returns whether `addr` is resident, without updating any state.
    pub fn contains(&self, addr: u64) -> bool {
        self.lookup(addr).is_some()
    }

    /// The [`Slot`] holding `addr`, if resident, without updating any
    /// state.
    #[inline]
    pub fn lookup(&self, addr: u64) -> Option<Slot> {
        let (set, tag) = self.line_index(addr);
        let ways = self.config.ways;
        self.find_way(set * ways, ways, tag)
            .map(|index| Slot { index, tag })
    }

    /// Debug-checks that `slot` still names the line it was resolved for.
    #[inline]
    fn slot_index(&self, slot: Slot) -> usize {
        debug_assert_eq!(self.tags[slot.index], slot.tag, "stale cache slot");
        slot.index
    }

    /// Installs `addr` after a miss, returning the eviction (if a valid
    /// line was displaced).
    ///
    /// `Pinned` fills are demoted to `Normal` when the set already holds
    /// the per-set pin cap of pinned lines (the 75% rule).
    #[inline]
    pub fn fill(&mut self, addr: u64, dirty: bool, priority: InsertPriority) -> Option<Eviction> {
        self.fill_slot(addr, dirty, priority).1
    }

    /// [`Cache::fill`], also returning the [`Slot`] the line now occupies
    /// (the refreshed way when it was already resident).
    pub fn fill_slot(
        &mut self,
        addr: u64,
        dirty: bool,
        priority: InsertPriority,
    ) -> (Slot, Option<Eviction>) {
        self.clock += 1;
        let clock = self.clock;
        let brrip_long = self.next_brrip_long();
        let (set, tag) = self.line_index(addr);
        let scan = self.scan_for_fill(set, tag);
        // If the line is somehow already present (e.g. racing prefetch),
        // just refresh it.
        if let Some(i) = scan.resident {
            self.lru[i] = clock;
            if dirty {
                self.meta[i] |= META_DIRTY;
            }
            return (Slot { index: i, tag }, None);
        }
        self.install((set, tag), &scan, dirty, priority, brrip_long)
    }

    /// Installs `addr` unless it is resident, with one scan of its set. A
    /// resident line is left exactly as it was: no replacement update, no
    /// dirty bit, and not even the fill clock or the BRRIP throttle
    /// advances, so the call is then indistinguishable from
    /// [`Cache::contains`]. Otherwise it is [`Cache::fill`].
    #[inline]
    pub fn fill_if_absent(
        &mut self,
        addr: u64,
        dirty: bool,
        priority: InsertPriority,
    ) -> FillOutcome {
        let (set, tag) = self.line_index(addr);
        let scan = self.scan_for_fill(set, tag);
        if scan.resident.is_some() {
            return FillOutcome::Resident;
        }
        self.clock += 1;
        let brrip_long = self.next_brrip_long();
        FillOutcome::Filled(
            self.install((set, tag), &scan, dirty, priority, brrip_long)
                .1,
        )
    }

    /// Advances the BRRIP throttle counter and returns whether this fill
    /// gets the long interval. The counter advances once per fill whenever
    /// BRRIP can be in play (directly or as a DRRIP arm); under other
    /// policies it is never read, so skipping the update is unobservable.
    #[inline]
    fn next_brrip_long(&mut self) -> bool {
        if matches!(
            self.config.policy,
            ReplacementPolicy::Brrip | ReplacementPolicy::Drrip
        ) {
            self.brrip_ctr = self.brrip_ctr.wrapping_add(1);
            self.brrip_ctr.is_multiple_of(BRRIP_LONG_EVERY)
        } else {
            false
        }
    }

    /// The one pass a fill makes over `set`: the way already holding
    /// `tag`, the first invalid way, the pinned-line census, and the
    /// replacement candidate among the unpinned valid ways.
    #[inline]
    fn scan_for_fill(&self, set: usize, tag: u64) -> SetScan {
        let ways = self.config.ways;
        let base = set * ways;
        if self.config.policy == ReplacementPolicy::Lru {
            let scan = self.scan_set::<true>(base, ways, tag);
            debug_assert!(
                scan.resident.is_none() || self.find_way(base, ways, tag) == scan.resident,
                "a tag is resident in at most one way of its set"
            );
            return scan;
        }
        if let Some(i) = self.find_way(base, ways, tag) {
            return SetScan {
                resident: Some(i),
                ..SetScan::default()
            };
        }
        let scan = self.scan_rrip(base, ways);
        debug_assert_eq!(scan, self.scan_set::<false>(base, ways, tag));
        scan
    }

    /// The RRIP family's victim search over a set known not to hold the
    /// line, eight ways to a word of the `meta` lane: the first invalid
    /// way (its valid bit clear), the valid pinned lines, and the first
    /// unpinned valid way with the largest RRPV — what
    /// [`Cache::scan_set`] finds, without a branch per way.
    #[inline]
    fn scan_rrip(&self, base: usize, ways: usize) -> SetScan {
        // The low bit of every byte lane; RRPV_MAX is 3, two bits a lane.
        const LANES: u64 = 0x0101_0101_0101_0101;
        let mut scan = SetScan::default();
        let mut best: Option<(u8, usize)> = None;
        for (c, chunk) in self.meta[base..base + ways].chunks(8).enumerate() {
            let mut bytes = [0u8; 8];
            bytes[..chunk.len()].copy_from_slice(chunk);
            let word = u64::from_le_bytes(bytes);
            let live = LANES >> (8 * (8 - chunk.len()));
            let valid = word & live;
            let pinned = (word >> META_PINNED.trailing_zeros()) & valid;
            let unpinned = valid & !pinned;
            let lane = |mask: u64| base + c * 8 + (mask.trailing_zeros() / 8) as usize;
            let invalid = live & !valid;
            if scan.invalid.is_none() && invalid != 0 {
                scan.invalid = Some(lane(invalid));
            }
            scan.pinned += pinned.count_ones() as usize;
            let rrpv = word >> RRPV_SHIFT;
            // Lanes at the chunk's largest RRPV, and that RRPV: test the
            // high bit, then the low bit among the lanes that survive.
            let high = unpinned & (rrpv >> 1);
            let (top, hi_bit) = if high != 0 {
                (high, 2u8)
            } else {
                (unpinned, 0)
            };
            let low = top & rrpv;
            let (top, max) = if low != 0 {
                (low, hi_bit + 1)
            } else {
                (top, hi_bit)
            };
            if top != 0 && best.is_none_or(|(m, _)| max > m) {
                best = Some((max, lane(top)));
            }
        }
        if let Some((max, i)) = best {
            scan.candidate = Some(i);
            scan.max_rrpv = max;
        }
        scan
    }

    /// The per-way scan: [`Cache::scan_for_fill`]'s loop under LRU, and
    /// the reference [`Cache::scan_rrip`] is debug-checked against. Tags
    /// are unique within a set, so the first match is the only one and
    /// ends the scan. The candidate is
    /// the first way with the smallest LRU stamp (`LRU`) or the first way
    /// with the largest RRPV (RRIP family); strict comparisons keep the
    /// earliest way on ties, as [`Cache::first_min_lru`] does.
    #[inline]
    fn scan_set<const LRU: bool>(&self, base: usize, ways: usize, tag: u64) -> SetScan {
        let tags = &self.tags[base..base + ways];
        let metas = &self.meta[base..base + ways];
        let lrus = &self.lru[base..base + ways];
        let mut invalid = usize::MAX;
        let mut pinned = 0;
        let mut candidate = usize::MAX;
        // LRU stamps stay below `u64::MAX` (the clock never gets there),
        // and an RRIP key is the RRPV field with the low bit set, so it is
        // never 0: the first unpinned way always beats the start value.
        let mut best_lru = u64::MAX;
        let mut best_key = 0u8;
        for w in 0..ways {
            let t = tags[w];
            if t == tag {
                return SetScan {
                    resident: Some(base + w),
                    ..SetScan::default()
                };
            }
            if t == TAG_INVALID {
                if invalid == usize::MAX {
                    invalid = w;
                }
                continue;
            }
            let m = metas[w];
            if m & META_PINNED != 0 {
                pinned += 1;
            } else if LRU {
                if lrus[w] < best_lru {
                    best_lru = lrus[w];
                    candidate = w;
                }
            } else {
                let key = (m & META_RRPV) | 1;
                if key > best_key {
                    best_key = key;
                    candidate = w;
                }
            }
        }
        SetScan {
            resident: None,
            invalid: (invalid != usize::MAX).then(|| base + invalid),
            pinned,
            candidate: (candidate != usize::MAX).then(|| base + candidate),
            max_rrpv: rrpv_of(best_key),
        }
    }

    /// Installs `tag` in `set` (absent, per `scan` of it): picks the victim,
    /// writes the new line's lanes and reports the eviction.
    fn install(
        &mut self,
        (set, tag): (usize, u64),
        scan: &SetScan,
        dirty: bool,
        priority: InsertPriority,
        brrip_long: bool,
    ) -> (Slot, Option<Eviction>) {
        let clock = self.clock;
        // Resolve the effective policy for this set (DRRIP dueling).
        let policy = match self.config.policy {
            ReplacementPolicy::Drrip => match set % DUEL_PERIOD {
                0 => ReplacementPolicy::Srrip,
                1 => ReplacementPolicy::Brrip,
                _ => {
                    if self.psel >= 0 {
                        ReplacementPolicy::Brrip
                    } else {
                        ReplacementPolicy::Srrip
                    }
                }
            },
            p => p,
        };
        let ways = self.config.ways;
        let base = set * ways;

        // The pin cap applies to an incoming pinned fill.
        let effective_priority = match priority {
            InsertPriority::Pinned if scan.pinned >= self.pin_cap_ways => InsertPriority::Normal,
            p => p,
        };

        // Victim selection: an invalid way wins outright (invalid ways hold
        // [`TAG_INVALID`] exactly when their `META_VALID` bit is clear),
        // then the scan's unpinned candidate.
        let victim = if let Some(i) = scan.invalid {
            i
        } else if let Some(i) = scan.candidate {
            if policy != ReplacementPolicy::Lru {
                // RRIP aging in closed form: repeatedly aging every
                // unpinned way until one reaches RRPV_MAX adds
                // `RRPV_MAX - max` to each of them, and the first way that
                // reaches RRPV_MAX is the first that held the maximum.
                let age = (RRPV_MAX - scan.max_rrpv) << RRPV_SHIFT;
                if age != 0 {
                    for m in &mut self.meta[base..base + ways] {
                        if *m & META_PINNED == 0 {
                            *m += age;
                        }
                    }
                }
            }
            i
        } else {
            // Every way pinned (pin cap == ways): evict the least-recent
            // line, and no RRPV changes.
            self.first_min_lru(base, ways)
        };

        let ev_meta = self.meta[victim];
        let ev_tag = self.tags[victim];

        let rrpv = match effective_priority {
            InsertPriority::Pinned => 0,
            InsertPriority::Low => RRPV_MAX,
            InsertPriority::Normal => match policy {
                ReplacementPolicy::Lru => 0,
                ReplacementPolicy::Srrip => RRPV_MAX - 1,
                ReplacementPolicy::Brrip => {
                    if brrip_long {
                        RRPV_MAX - 1
                    } else {
                        RRPV_MAX
                    }
                }
                ReplacementPolicy::Drrip => unreachable!("resolved above"),
            },
        };
        let lru = match effective_priority {
            // Low-priority fills look old to LRU as well.
            InsertPriority::Low => clock.saturating_sub(1 << 20),
            _ => clock,
        };
        self.tags[victim] = tag;
        self.lru[victim] = lru;
        // A fresh line never inherits the victim's MESI state (the field
        // is left 0); the coherence engine assigns the real state right
        // after the fill.
        self.meta[victim] = META_VALID
            | if dirty { META_DIRTY } else { 0 }
            | if effective_priority == InsertPriority::Pinned {
                META_PINNED
            } else {
                0
            }
            | rrpv << RRPV_SHIFT;
        self.stats.fills += 1;
        let slot = Slot { index: victim, tag };
        let eviction = if ev_meta & META_VALID != 0 {
            self.stats.evictions += 1;
            if ev_meta & META_DIRTY != 0 {
                self.stats.writebacks += 1;
            }
            let line_no = (ev_tag << self.set_shift) | set as u64;
            Some(Eviction {
                addr: line_no << self.line_shift,
                dirty: ev_meta & META_DIRTY != 0,
            })
        } else {
            None
        };
        (slot, eviction)
    }

    /// Demotes every pinned line to distant priority (called when the
    /// active-atom list changes, §5.2(3): "only then does the cache age the
    /// high-priority lines so they can be evicted by the default policy").
    pub fn age_pinned(&mut self) {
        for i in 0..self.meta.len() {
            if self.meta[i] & META_PINNED != 0 {
                self.meta[i] = (self.meta[i] & !META_PINNED) | META_RRPV;
                self.lru[i] = self.lru[i].saturating_sub(1 << 20);
            }
        }
    }

    /// Number of currently pinned, valid lines.
    pub fn pinned_lines(&self) -> usize {
        self.meta
            .iter()
            .filter(|&&m| m & (META_VALID | META_PINNED) == META_VALID | META_PINNED)
            .count()
    }

    /// Marks `addr` dirty if resident (no stats impact); returns whether the
    /// line was found. Used to sink writebacks arriving from inner levels.
    pub fn set_dirty(&mut self, addr: u64) -> bool {
        let (set, tag) = self.line_index(addr);
        let ways = self.config.ways;
        if let Some(i) = self.find_way(set * ways, ways, tag) {
            self.meta[i] |= META_DIRTY;
            return true;
        }
        false
    }

    /// The MESI state of the line holding `addr`; `Invalid` when the line
    /// is not resident. No stats or replacement-state impact.
    pub fn coh_state(&self, addr: u64) -> MesiState {
        self.lookup(addr)
            .map_or(MesiState::Invalid, |slot| self.slot_coh_state(slot))
    }

    /// The MESI state of the line in `slot`.
    #[inline]
    pub fn slot_coh_state(&self, slot: Slot) -> MesiState {
        MesiState::from_lane(self.meta[self.slot_index(slot)] >> COH_SHIFT)
    }

    /// Sets the MESI state of the resident line holding `addr`, keeping the
    /// dirty bit in lockstep (Modified ⇔ dirty: an M line must write back
    /// on eviction, a downgraded line must not — the snoop flush already
    /// updated memory). Returns whether the line was found.
    pub fn set_coh_state(&mut self, addr: u64, state: MesiState) -> bool {
        match self.lookup(addr) {
            Some(slot) => {
                self.set_slot_coh_state(slot, state);
                true
            }
            None => false,
        }
    }

    /// [`Cache::set_coh_state`] for the line in `slot`.
    #[inline]
    pub fn set_slot_coh_state(&mut self, slot: Slot, state: MesiState) {
        let i = self.slot_index(slot);
        let m = self.meta[i] & !(META_COH | META_DIRTY);
        let dirty = if state == MesiState::Modified {
            META_DIRTY
        } else {
            0
        };
        self.meta[i] = m | (state as u8) << COH_SHIFT | dirty;
    }

    /// Removes the line holding `addr` in response to a coherence snoop.
    /// Returns whether the removed line was dirty (the caller counts the
    /// flush; memory is updated by the coherence engine, not here). No
    /// demand-stats impact beyond the snoop counters.
    pub fn snoop_invalidate(&mut self, addr: u64) -> bool {
        self.lookup(addr)
            .is_some_and(|slot| self.snoop_invalidate_slot(slot))
    }

    /// [`Cache::snoop_invalidate`] for the line in `slot`, which the call
    /// consumes (the way is empty afterwards).
    pub fn snoop_invalidate_slot(&mut self, slot: Slot) -> bool {
        let i = self.slot_index(slot);
        let dirty = self.meta[i] & META_DIRTY != 0;
        self.tags[i] = TAG_INVALID;
        self.lru[i] = 0;
        self.meta[i] = 0;
        self.stats.snoop_invalidations += 1;
        if dirty {
            self.stats.snoop_writebacks += 1;
        }
        dirty
    }

    /// Invalidates the whole cache (contents only; stats are kept).
    pub fn flush(&mut self) {
        self.tags.fill(TAG_INVALID);
        self.lru.fill(0);
        self.meta.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(policy: ReplacementPolicy) -> Cache {
        Cache::new(CacheConfig {
            size_bytes: 4096, // 64 lines
            ways: 4,
            line_bytes: 64,
            latency: 1,
            policy,
        })
    }

    #[test]
    fn hit_after_fill() {
        let mut c = tiny(ReplacementPolicy::Lru);
        assert!(!c.probe(0, false));
        c.fill(0, false, InsertPriority::Normal);
        assert!(c.probe(0, false));
        assert!(c.contains(0));
        assert!(!c.contains(64));
    }

    #[test]
    fn same_line_offsets_hit() {
        let mut c = tiny(ReplacementPolicy::Lru);
        c.fill(128, false, InsertPriority::Normal);
        assert!(c.probe(128 + 63, false));
        assert!(!c.probe(128 + 64, false));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny(ReplacementPolicy::Lru);
        let sets = c.config().sets() as u64; // 16 sets
                                             // Fill all 4 ways of set 0.
        for i in 0..4u64 {
            c.fill(i * 64 * sets, false, InsertPriority::Normal);
        }
        // Touch line 0 so line 1 is LRU.
        assert!(c.probe(0, false));
        let ev = c
            .fill(4 * 64 * sets, false, InsertPriority::Normal)
            .unwrap();
        assert_eq!(ev.addr, 64 * sets);
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny(ReplacementPolicy::Lru);
        let sets = c.config().sets() as u64;
        c.fill(0, true, InsertPriority::Normal);
        for i in 1..4u64 {
            c.fill(i * 64 * sets, false, InsertPriority::Normal);
        }
        let ev = c
            .fill(4 * 64 * sets, false, InsertPriority::Normal)
            .unwrap();
        assert!(ev.dirty);
        assert_eq!(ev.addr, 0);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn write_probe_marks_dirty() {
        let mut c = tiny(ReplacementPolicy::Lru);
        let sets = c.config().sets() as u64;
        c.fill(0, false, InsertPriority::Normal);
        assert!(c.probe(0, true));
        for i in 1..=4u64 {
            c.fill(i * 64 * sets, false, InsertPriority::Normal);
        }
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn pinned_lines_survive_thrashing() {
        let mut c = tiny(ReplacementPolicy::Srrip);
        let sets = c.config().sets() as u64;
        // Pin two lines in set 0 (cap = 3 of 4 ways).
        c.fill(0, false, InsertPriority::Pinned);
        c.fill(64 * sets, false, InsertPriority::Pinned);
        // Thrash with 100 distinct lines mapping to set 0.
        for i in 2..102u64 {
            let addr = i * 64 * sets;
            if !c.probe(addr, false) {
                c.fill(addr, false, InsertPriority::Normal);
            }
        }
        assert!(c.contains(0), "pinned line 0 evicted");
        assert!(c.contains(64 * sets), "pinned line 1 evicted");
    }

    #[test]
    fn pin_cap_limits_pinned_ways() {
        let mut c = tiny(ReplacementPolicy::Srrip); // 4 ways, cap = 3
        let sets = c.config().sets() as u64;
        for i in 0..4u64 {
            c.fill(i * 64 * sets, false, InsertPriority::Pinned);
        }
        // Only 3 can be pinned; the 4th fill demoted to Normal.
        let pinned_in_set = c.pinned_lines();
        assert_eq!(pinned_in_set, 3);
    }

    #[test]
    fn age_pinned_releases_protection() {
        let mut c = tiny(ReplacementPolicy::Srrip);
        let sets = c.config().sets() as u64;
        c.fill(0, false, InsertPriority::Pinned);
        c.age_pinned();
        assert_eq!(c.pinned_lines(), 0);
        // Now thrashing can evict it.
        for i in 1..40u64 {
            let addr = i * 64 * sets;
            if !c.probe(addr, false) {
                c.fill(addr, false, InsertPriority::Normal);
            }
        }
        assert!(!c.contains(0));
    }

    #[test]
    fn low_priority_evicted_first() {
        let mut c = tiny(ReplacementPolicy::Srrip);
        let sets = c.config().sets() as u64;
        for i in 0..3u64 {
            c.fill(i * 64 * sets, false, InsertPriority::Normal);
        }
        c.fill(3 * 64 * sets, false, InsertPriority::Low);
        let ev = c
            .fill(4 * 64 * sets, false, InsertPriority::Normal)
            .unwrap();
        assert_eq!(ev.addr, 3 * 64 * sets);
    }

    #[test]
    fn brrip_resists_thrashing_better_than_srrip_scan() {
        // Classic RRIP result: under a cyclic working set slightly larger
        // than the cache, BRRIP keeps part of it resident while LRU/SRRIP
        // get ~0 hits.
        let run = |policy| {
            let mut c = tiny(policy);
            let mut hits = 0u64;
            let lines = 96u64; // 1.5x the 64-line capacity
            for _round in 0..50 {
                for i in 0..lines {
                    if c.probe(i * 64, false) {
                        hits += 1;
                    } else {
                        c.fill(i * 64, false, InsertPriority::Normal);
                    }
                }
            }
            hits
        };
        let lru_hits = run(ReplacementPolicy::Lru);
        let brrip_hits = run(ReplacementPolicy::Brrip);
        assert!(
            brrip_hits > lru_hits + 100,
            "brrip {brrip_hits} vs lru {lru_hits}"
        );
    }

    /// A cache big enough to contain one full duel period: 64 sets, so
    /// set 0 is the SRRIP leader and set 1 the BRRIP leader.
    fn duel_cache(policy: ReplacementPolicy) -> Cache {
        Cache::new(CacheConfig {
            size_bytes: 64 << 10, // 1024 lines
            ways: 16,
            line_bytes: 64,
            latency: 1,
            policy,
        })
    }

    /// The documented PSEL polarity, pinned down miss by miss: an SRRIP
    /// leader miss is a vote *for BRRIP* (psel up), a BRRIP leader miss a
    /// vote for SRRIP (psel down); followers and hits don't vote; the
    /// counter saturates at ±PSEL_MAX instead of wrapping.
    #[test]
    fn leader_set_misses_move_psel_in_documented_direction() {
        let mut c = duel_cache(ReplacementPolicy::Drrip);
        assert_eq!(c.psel(), 0);
        // Line k*64 + s maps to set s; distinct k keep every probe a miss.
        let addr = |set: u64, k: u64| (k * 64 + set) * 64;
        assert!(!c.probe(addr(0, 0), false), "SRRIP leader miss");
        assert_eq!(c.psel(), 1);
        assert!(!c.probe(addr(1, 0), false), "BRRIP leader miss");
        assert!(!c.probe(addr(1, 1), false));
        assert_eq!(c.psel(), -1);
        // Follower-set misses don't vote.
        assert!(!c.probe(addr(2, 0), false));
        assert_eq!(c.psel(), -1);
        // Leader-set hits don't vote.
        c.fill(addr(0, 1), false, InsertPriority::Normal);
        assert!(c.probe(addr(0, 1), false));
        assert_eq!(c.psel(), -1);
        // Saturation at both rails.
        for k in 0..3000 {
            c.probe(addr(1, k + 10), false);
        }
        assert_eq!(c.psel(), -PSEL_MAX);
        for k in 0..5000 {
            c.probe(addr(0, k + 10), false);
        }
        assert_eq!(c.psel(), PSEL_MAX);
    }

    /// A cyclic scan at 2x capacity: BRRIP clearly beats SRRIP, so DRRIP's
    /// leaders must drive PSEL positive and the followers must read the
    /// sign as "use BRRIP", landing DRRIP above SRRIP.
    #[test]
    fn drrip_follows_brrip_when_scanning() {
        let run = |policy| {
            let mut c = duel_cache(policy);
            let mut hits = 0u64;
            for _ in 0..20 {
                for i in 0..2048u64 {
                    if c.probe(i * 64, false) {
                        hits += 1;
                    } else {
                        c.fill(i * 64, false, InsertPriority::Normal);
                    }
                }
            }
            (hits, c.psel())
        };
        let (srrip_hits, _) = run(ReplacementPolicy::Srrip);
        let (brrip_hits, _) = run(ReplacementPolicy::Brrip);
        let (drrip_hits, psel) = run(ReplacementPolicy::Drrip);
        assert!(
            brrip_hits > srrip_hits + 1000,
            "scan must favor BRRIP: brrip {brrip_hits} vs srrip {srrip_hits}"
        );
        assert!(psel > 0, "SRRIP leader misses must dominate: psel {psel}");
        assert!(
            drrip_hits > srrip_hits,
            "followers must have adopted BRRIP: drrip {drrip_hits} vs srrip {srrip_hits}"
        );
    }

    /// The mirror pattern: per set, three single-use scan lines and one
    /// line re-referenced after those fills. SRRIP's long insertion keeps
    /// the reused line until its second touch; BRRIP's distant insertion
    /// makes it a victim candidate immediately. SRRIP clearly wins, PSEL
    /// must go negative, and DRRIP's followers must switch to SRRIP.
    #[test]
    fn drrip_follows_srrip_on_short_reuse() {
        let run = |policy| {
            let mut c = duel_cache(policy);
            let mut hits = 0u64;
            for round in 0..400u64 {
                let base = round * 256; // 4 fresh lines per set per round
                for line in base..base + 256 {
                    if c.probe(line * 64, false) {
                        hits += 1;
                    } else {
                        c.fill(line * 64, false, InsertPriority::Normal);
                    }
                }
                // Re-touch the first line of each set: 3 fills intervened.
                for line in base..base + 64 {
                    if c.probe(line * 64, false) {
                        hits += 1;
                    } else {
                        c.fill(line * 64, false, InsertPriority::Normal);
                    }
                }
            }
            (hits, c.psel())
        };
        let (srrip_hits, _) = run(ReplacementPolicy::Srrip);
        let (brrip_hits, _) = run(ReplacementPolicy::Brrip);
        let (drrip_hits, psel) = run(ReplacementPolicy::Drrip);
        assert!(
            srrip_hits > brrip_hits + 1000,
            "short reuse must favor SRRIP: srrip {srrip_hits} vs brrip {brrip_hits}"
        );
        assert!(psel < 0, "BRRIP leader misses must dominate: psel {psel}");
        assert!(
            drrip_hits > brrip_hits,
            "followers must have adopted SRRIP: drrip {drrip_hits} vs brrip {brrip_hits}"
        );
    }

    #[test]
    fn drrip_tracks_better_leader() {
        // On a thrashing pattern DRRIP should end up near BRRIP performance.
        let thrash_hits = |policy| {
            let mut c = Cache::new(CacheConfig {
                size_bytes: 64 << 10,
                ways: 16,
                line_bytes: 64,
                latency: 1,
                policy,
            });
            let mut hits = 0u64;
            let lines = 2048u64; // 2x capacity (1024 lines)
            for _ in 0..20 {
                for i in 0..lines {
                    if c.probe(i * 64, false) {
                        hits += 1;
                    } else {
                        c.fill(i * 64, false, InsertPriority::Normal);
                    }
                }
            }
            hits
        };
        let drrip = thrash_hits(ReplacementPolicy::Drrip);
        let lru = thrash_hits(ReplacementPolicy::Lru);
        assert!(drrip > lru, "drrip {drrip} vs lru {lru}");
    }

    #[test]
    fn stats_consistency() {
        let mut c = tiny(ReplacementPolicy::Lru);
        for i in 0..100u64 {
            let addr = (i % 10) * 64;
            if !c.probe(addr, false) {
                c.fill(addr, false, InsertPriority::Normal);
            }
        }
        let s = c.stats();
        assert_eq!(s.accesses, 100);
        assert_eq!(s.hits + s.misses(), 100);
        assert!(s.hit_rate() > 0.8);
    }

    #[test]
    fn flush_clears_contents_not_stats() {
        let mut c = tiny(ReplacementPolicy::Lru);
        c.fill(0, false, InsertPriority::Normal);
        c.probe(0, false);
        c.flush();
        assert!(!c.contains(0));
        assert_eq!(c.stats().hits, 1);
    }
}
