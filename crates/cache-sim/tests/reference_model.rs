//! Oracle for [`Cache`]: a deliberately naive set-associative model, one
//! `Vec` of line structs per set, driven in lockstep with the SoA cache on
//! SplitMix64 operation streams. Every return value (hits, evictions,
//! dirty flags, MESI states) and the final statistics must agree exactly.
//!
//! The model is written from the replacement rules, not from the SoA
//! kernels: victim search scans line structs, and RRIP aging is the
//! textbook loop (age every unpinned line by one until some unpinned line
//! reaches the maximum RRPV), where [`Cache`] uses one pass and a closed
//! form.

use cache_sim::cache::{Cache, CacheStats, Eviction, FillOutcome, InsertPriority};
use cache_sim::coherence::MesiState;
use cache_sim::config::{CacheConfig, ReplacementPolicy};
use xmem_core::rng::SplitMix64;

const RRPV_MAX: u8 = 3;
const SHCT_ENTRIES: usize = 1024;
const SHCT_MAX: u8 = 3;
const PSEL_MAX: i32 = 1023;

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    valid: bool,
    tag: u64,
    dirty: bool,
    pinned: bool,
    /// SHiP: re-referenced since insertion.
    reused: bool,
    lru: u64,
    rrpv: u8,
    sig: usize,
    /// MESI state; `None` reads as `Invalid`.
    coh: Option<MesiState>,
}

/// The naive cache.
struct Model {
    policy: ReplacementPolicy,
    line_bytes: u64,
    sets: Vec<Vec<Line>>,
    pin_cap: usize,
    clock: u64,
    psel: i32,
    brrip_ctr: u32,
    shct: Vec<u8>,
    stats: CacheStats,
}

impl Model {
    fn new(c: CacheConfig) -> Self {
        Model {
            policy: c.policy,
            line_bytes: c.line_bytes,
            sets: vec![vec![Line::default(); c.ways]; c.sets()],
            pin_cap: ((c.ways * 3) / 4).max(1),
            clock: 0,
            psel: 0,
            brrip_ctr: 0,
            shct: vec![1; SHCT_ENTRIES],
            stats: CacheStats::default(),
        }
    }

    /// (set, tag) of a byte address.
    fn locate(&self, addr: u64) -> (usize, u64) {
        let line = addr / self.line_bytes;
        let sets = self.sets.len() as u64;
        ((line % sets) as usize, line / sets)
    }

    fn way_of(&self, set: usize, tag: u64) -> Option<usize> {
        self.sets[set].iter().position(|l| l.valid && l.tag == tag)
    }

    fn probe(&mut self, addr: u64, write: bool) -> bool {
        self.clock += 1;
        self.stats.accesses += 1;
        let (set, tag) = self.locate(addr);
        let Some(w) = self.way_of(set, tag) else {
            if self.policy == ReplacementPolicy::Drrip {
                match set % 64 {
                    0 => self.psel = (self.psel + 1).min(PSEL_MAX),
                    1 => self.psel = (self.psel - 1).max(-PSEL_MAX),
                    _ => {}
                }
            }
            return false;
        };
        let (clock, policy) = (self.clock, self.policy);
        let l = &mut self.sets[set][w];
        l.lru = clock;
        if policy != ReplacementPolicy::Lru {
            l.rrpv = 0;
        }
        l.dirty |= write;
        if policy == ReplacementPolicy::Ship && !l.reused {
            l.reused = true;
            self.shct[l.sig] = (self.shct[l.sig] + 1).min(SHCT_MAX);
        }
        self.stats.hits += 1;
        true
    }

    /// First least-recently-used way among lines passing `keep`.
    fn lru_way(&self, set: usize, keep: impl Fn(&Line) -> bool) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (w, l) in self.sets[set].iter().enumerate() {
            if keep(l) && best.is_none_or(|b| l.lru < self.sets[set][b].lru) {
                best = Some(w);
            }
        }
        best
    }

    fn fill(&mut self, addr: u64, dirty: bool, priority: InsertPriority) -> Option<Eviction> {
        self.clock += 1;
        let brrip_long = if matches!(
            self.policy,
            ReplacementPolicy::Brrip | ReplacementPolicy::Drrip
        ) {
            self.brrip_ctr = self.brrip_ctr.wrapping_add(1);
            self.brrip_ctr.is_multiple_of(32)
        } else {
            false
        };
        let (set, tag) = self.locate(addr);
        if let Some(w) = self.way_of(set, tag) {
            let l = &mut self.sets[set][w];
            l.lru = self.clock;
            l.dirty |= dirty;
            return None;
        }
        self.install(addr, set, tag, dirty, priority, brrip_long)
    }

    fn fill_if_absent(&mut self, addr: u64, dirty: bool, priority: InsertPriority) -> FillOutcome {
        let (set, tag) = self.locate(addr);
        if self.way_of(set, tag).is_some() {
            FillOutcome::Resident
        } else {
            FillOutcome::Filled(self.fill(addr, dirty, priority))
        }
    }

    fn install(
        &mut self,
        addr: u64,
        set: usize,
        tag: u64,
        dirty: bool,
        priority: InsertPriority,
        brrip_long: bool,
    ) -> Option<Eviction> {
        let policy = match self.policy {
            ReplacementPolicy::Drrip => match set % 64 {
                0 => ReplacementPolicy::Srrip,
                1 => ReplacementPolicy::Brrip,
                _ if self.psel >= 0 => ReplacementPolicy::Brrip,
                _ => ReplacementPolicy::Srrip,
            },
            p => p,
        };
        let pinned_now = self.sets[set]
            .iter()
            .filter(|l| l.valid && l.pinned)
            .count();
        let priority = match priority {
            InsertPriority::Pinned if pinned_now >= self.pin_cap => InsertPriority::Normal,
            p => p,
        };
        let victim = if let Some(w) = self.sets[set].iter().position(|l| !l.valid) {
            w
        } else if policy == ReplacementPolicy::Lru {
            self.lru_way(set, |l| !l.pinned)
                .or_else(|| self.lru_way(set, |_| true))
                .unwrap()
        } else {
            // RRIP victim search: the textbook aging loop.
            loop {
                let lines = &mut self.sets[set];
                if let Some(w) = lines.iter().position(|l| !l.pinned && l.rrpv >= RRPV_MAX) {
                    break w;
                }
                if lines.iter().all(|l| l.pinned) {
                    break self.lru_way(set, |_| true).unwrap();
                }
                for l in lines.iter_mut().filter(|l| !l.pinned) {
                    l.rrpv = (l.rrpv + 1).min(RRPV_MAX);
                }
            }
        };
        let sig = ((addr >> 14) as usize) & (SHCT_ENTRIES - 1);
        let rrpv = match (priority, policy) {
            (InsertPriority::Pinned, _) => 0,
            (InsertPriority::Low, _) => RRPV_MAX,
            (_, ReplacementPolicy::Lru) => 0,
            (_, ReplacementPolicy::Brrip) if !brrip_long => RRPV_MAX,
            (_, ReplacementPolicy::Ship) if self.shct[sig] == 0 => RRPV_MAX,
            _ => RRPV_MAX - 1,
        };
        let old = self.sets[set][victim];
        self.sets[set][victim] = Line {
            valid: true,
            tag,
            dirty,
            pinned: priority == InsertPriority::Pinned,
            reused: false,
            lru: if priority == InsertPriority::Low {
                self.clock.saturating_sub(1 << 20)
            } else {
                self.clock
            },
            rrpv,
            sig: if self.policy == ReplacementPolicy::Ship {
                sig
            } else {
                0
            },
            coh: None,
        };
        self.stats.fills += 1;
        if !old.valid {
            return None;
        }
        if self.policy == ReplacementPolicy::Ship && !old.reused {
            self.shct[old.sig] = self.shct[old.sig].saturating_sub(1);
        }
        self.stats.evictions += 1;
        self.stats.writebacks += u64::from(old.dirty);
        let line = old.tag * self.sets.len() as u64 + set as u64;
        Some(Eviction {
            addr: line * self.line_bytes,
            dirty: old.dirty,
        })
    }

    fn set_dirty(&mut self, addr: u64) -> bool {
        let (set, tag) = self.locate(addr);
        let w = self.way_of(set, tag);
        if let Some(w) = w {
            self.sets[set][w].dirty = true;
        }
        w.is_some()
    }

    fn set_coh_state(&mut self, addr: u64, state: MesiState) -> bool {
        let (set, tag) = self.locate(addr);
        let w = self.way_of(set, tag);
        if let Some(w) = w {
            let l = &mut self.sets[set][w];
            l.coh = Some(state);
            l.dirty = state == MesiState::Modified;
        }
        w.is_some()
    }

    fn coh_state(&self, addr: u64) -> MesiState {
        let (set, tag) = self.locate(addr);
        self.way_of(set, tag)
            .and_then(|w| self.sets[set][w].coh)
            .unwrap_or(MesiState::Invalid)
    }

    fn age_pinned(&mut self) {
        for l in self.sets.iter_mut().flatten().filter(|l| l.pinned) {
            l.pinned = false;
            l.rrpv = RRPV_MAX;
            l.lru = l.lru.saturating_sub(1 << 20);
        }
    }

    fn snoop_invalidate(&mut self, addr: u64) -> bool {
        let (set, tag) = self.locate(addr);
        let Some(w) = self.way_of(set, tag) else {
            return false;
        };
        let dirty = self.sets[set][w].dirty;
        self.sets[set][w] = Line::default();
        self.stats.snoop_invalidations += 1;
        self.stats.snoop_writebacks += u64::from(dirty);
        dirty
    }
}

fn priority(rng: &mut SplitMix64) -> InsertPriority {
    match rng.below(8) {
        0..=1 => InsertPriority::Pinned,
        2 => InsertPriority::Low,
        _ => InsertPriority::Normal,
    }
}

/// Drives `Cache` and the model with one stream; panics on the first
/// disagreement.
fn check(policy: ReplacementPolicy, ways: usize, seed: u64, ops: u32) {
    // 128 sets: the DRRIP leader sets (0 and 1 of every 64) and followers.
    let config = CacheConfig {
        size_bytes: (128 * ways * 64) as u64,
        ways,
        line_bytes: 64,
        latency: 1,
        policy,
    };
    let mut cache = Cache::new(config);
    let mut model = Model::new(config);
    let mut rng = SplitMix64::new(seed);
    // A few hot sets and about twice as many tags as ways, so fills evict.
    let hot_sets = [0u64, 1, 2, 64, 65, 127];
    let tags = 2 * ways as u64 + 3;
    for step in 0..ops {
        let set = hot_sets[rng.below(hot_sets.len() as u64) as usize];
        let addr = (rng.below(tags) * 128 + set) * 64 + rng.below(64);
        let at = format!("{policy:?} ways={ways} seed={seed} step={step} addr={addr:#x}");
        match rng.below(100) {
            0..=39 => {
                let write = rng.percent(30);
                assert_eq!(
                    cache.probe(addr, write),
                    model.probe(addr, write),
                    "probe {at}"
                );
            }
            40..=69 => {
                let (dirty, p) = (rng.percent(25), priority(&mut rng));
                assert_eq!(
                    cache.fill(addr, dirty, p),
                    model.fill(addr, dirty, p),
                    "fill {at}"
                );
            }
            70..=84 => {
                let (dirty, p) = (rng.percent(25), priority(&mut rng));
                assert_eq!(
                    cache.fill_if_absent(addr, dirty, p),
                    model.fill_if_absent(addr, dirty, p),
                    "fill_if_absent {at}"
                );
            }
            85..=88 => assert_eq!(
                cache.set_dirty(addr),
                model.set_dirty(addr),
                "set_dirty {at}"
            ),
            89..=91 => {
                let state = [
                    MesiState::Invalid,
                    MesiState::Shared,
                    MesiState::Exclusive,
                    MesiState::Modified,
                ][rng.below(4) as usize];
                assert_eq!(
                    cache.set_coh_state(addr, state),
                    model.set_coh_state(addr, state),
                    "set_coh_state {at}"
                );
            }
            92..=97 => assert_eq!(
                cache.snoop_invalidate(addr),
                model.snoop_invalidate(addr),
                "snoop_invalidate {at}"
            ),
            _ => {
                cache.age_pinned();
                model.age_pinned();
            }
        }
        assert_eq!(
            cache.coh_state(addr),
            model.coh_state(addr),
            "coh_state {at}"
        );
    }
    let at = format!("{policy:?} ways={ways} seed={seed}");
    assert_eq!(cache.stats(), model.stats, "final stats {at}");
    assert_eq!(cache.psel(), model.psel, "final psel {at}");
}

#[test]
fn soa_cache_matches_naive_model() {
    for policy in [
        ReplacementPolicy::Lru,
        ReplacementPolicy::Srrip,
        ReplacementPolicy::Brrip,
        ReplacementPolicy::Drrip,
        ReplacementPolicy::Ship,
    ] {
        for ways in [1, 8, 16] {
            for seed in 1..=4 {
                check(policy, ways, seed * 0x5EED + ways as u64, 20_000);
            }
        }
    }
}
