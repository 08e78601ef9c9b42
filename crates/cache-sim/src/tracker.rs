//! The prefetch tracker: lines prefetched into the L3 and not yet
//! demanded, kept only for the prefetch-usefulness statistics.
//!
//! Every L3 access that issues a prefetch inserts into it and every demand
//! L3 hit removes from it, so it sits on the DRAM-heavy hot path. It is a
//! hashed set of lines with O(1) insert and remove. The determinism rules
//! ban `HashSet` from simulator state because its iteration order varies
//! run to run; this set has no iteration at all, and its hash is a fixed
//! multiplicative one, so nothing about it depends on the host.

use std::collections::BTreeSet;

/// Cap on tracked lines. An insert that finds the tracker full first
/// forgets every entry; this affects only the usefulness statistic, never
/// behaviour.
const PF_TRACK_CAP: usize = 1 << 16;

/// Slot value of an empty slot.
const EMPTY: u32 = u32::MAX;

/// Slots of a fresh tracker (a power of two).
const MIN_SLOTS: usize = 64;

/// The set of prefetched-but-undemanded L3 lines.
///
/// Semantics match the `BTreeSet<u64>` of line addresses it replaced
/// exactly: `insert` clears the set when it already holds [`PF_TRACK_CAP`]
/// lines, then adds the line; `remove` reports whether the line was
/// present. A tracked line that is evicted from the L3 unused stays tracked
/// (DESIGN.md "Modeling decisions" 11), so a later demand refill and hit
/// still counts it.
///
/// Lines are keyed by line number (address over line size), so a slot
/// holds 32 bits: at the cap the table is 512 KiB. Open addressing with
/// linear probing over the key lane, kept at most half full, with
/// backward-shift deletion (no tombstones). A value lane (the issuing
/// engine, say) can sit beside the keys. The rare address that has no
/// 32-bit line number (not line aligned, or beyond 2^32 lines, as a stride
/// walk near the top of the address space can produce) goes to a small
/// ordered set instead, so every `u64` key keeps exact set semantics.
#[derive(Debug, Clone)]
pub(crate) struct PrefetchTracker {
    /// `log2` of the line size.
    line_shift: u32,
    /// Tracked line numbers, or [`EMPTY`]; the length is a power of two.
    slots: Vec<u32>,
    /// Tracked line addresses without a slot key.
    others: BTreeSet<u64>,
    /// Tracked lines, in both parts.
    len: usize,
}

impl PrefetchTracker {
    /// An empty tracker for lines of `line_bytes` (a power of two).
    pub(crate) fn new(line_bytes: u64) -> Self {
        debug_assert!(line_bytes.is_power_of_two());
        PrefetchTracker {
            line_shift: line_bytes.trailing_zeros(),
            slots: vec![EMPTY; MIN_SLOTS],
            others: BTreeSet::new(),
            len: 0,
        }
    }

    /// The slot key of `line`: its line number, when that is exact and
    /// fits below [`EMPTY`].
    #[inline]
    fn key(&self, line: u64) -> Option<u32> {
        let number = line >> self.line_shift;
        if number << self.line_shift != line {
            return None;
        }
        u32::try_from(number).ok().filter(|&k| k != EMPTY)
    }

    /// Whether `line` is tracked.
    #[cfg(test)]
    pub(crate) fn contains(&self, line: u64) -> bool {
        match self.key(line) {
            Some(k) => self.find(k).is_ok(),
            None => self.others.contains(&line),
        }
    }

    /// Tracks `line`, first forgetting every entry when the tracker
    /// already holds [`PF_TRACK_CAP`] lines.
    #[inline]
    pub(crate) fn insert(&mut self, line: u64) {
        if self.len >= PF_TRACK_CAP {
            self.slots.fill(EMPTY);
            self.others.clear();
            self.len = 0;
        }
        let Some(k) = self.key(line) else {
            self.len += usize::from(self.others.insert(line));
            return;
        };
        if let Err(slot) = self.find(k) {
            if (self.len + 1) * 2 > self.slots.len() {
                self.grow();
                self.place(k);
            } else {
                self.slots[slot] = k;
            }
            self.len += 1;
        }
    }

    /// Stops tracking `line`; returns whether it was tracked.
    #[inline]
    pub(crate) fn remove(&mut self, line: u64) -> bool {
        let Some(k) = self.key(line) else {
            let removed = self.others.remove(&line);
            self.len -= usize::from(removed);
            return removed;
        };
        let Ok(mut hole) = self.find(k) else {
            return false;
        };
        // Backward-shift deletion: pull later entries of the probe run
        // into the hole when their home slot does not lie between the hole
        // and their current slot, so every entry stays reachable from its
        // home without tombstones.
        let mask = self.mask();
        let mut j = (hole + 1) & mask;
        loop {
            let key = self.slots[j];
            if key == EMPTY {
                break;
            }
            let home = self.home(key);
            if j.wrapping_sub(home) & mask >= j.wrapping_sub(hole) & mask {
                self.slots[hole] = key;
                hole = j;
            }
            j = (j + 1) & mask;
        }
        self.slots[hole] = EMPTY;
        self.len -= 1;
        true
    }

    #[inline]
    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    /// The slot `key`'s probe run starts at: Fibonacci hashing, whose top
    /// bits depend on every key bit.
    #[inline]
    fn home(&self, key: u32) -> usize {
        let bits = self.slots.len().trailing_zeros();
        let hash = u64::from(key).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        xmem_core::addr::addr_to_index(hash >> (64 - bits))
    }

    /// `Ok(slot)` holding `key`, or `Err(slot)`: the empty slot that ends
    /// its probe run.
    #[inline]
    fn find(&self, key: u32) -> Result<usize, usize> {
        let mask = self.mask();
        let mut i = self.home(key);
        loop {
            let k = self.slots[i];
            if k == key {
                return Ok(i);
            }
            if k == EMPTY {
                return Err(i);
            }
            i = (i + 1) & mask;
        }
    }

    /// Puts `key` (absent) into the first empty slot of its probe run.
    fn place(&mut self, key: u32) {
        if let Err(slot) = self.find(key) {
            self.slots[slot] = key;
        }
    }

    /// Doubles the slot count and rehashes every entry.
    fn grow(&mut self) {
        let doubled = vec![EMPTY; self.slots.len() * 2];
        let old = std::mem::replace(&mut self.slots, doubled);
        for key in old {
            if key != EMPTY {
                self.place(key);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmem_core::rng::SplitMix64;

    /// The reference: the `BTreeSet` the tracker replaced, with the same
    /// clear-at-cap rule.
    #[derive(Default)]
    struct Model(BTreeSet<u64>, u32);

    impl Model {
        fn insert(&mut self, line: u64) {
            if self.0.len() >= PF_TRACK_CAP {
                self.0.clear();
                self.1 += 1;
            }
            self.0.insert(line);
        }
    }

    /// Random insert/remove streams past the cap, over a line pool small
    /// enough for frequent hits and large enough to reach the cap: every
    /// `remove` answer and every length agree with the model.
    #[test]
    fn matches_btreeset_past_the_cap() {
        for seed in 1..=3u64 {
            let mut rng = SplitMix64::new(seed);
            let mut t = PrefetchTracker::new(64);
            let mut m = Model::default();
            let pool = (PF_TRACK_CAP as u64) * 3;
            // Mostly line addresses with 32-bit line numbers; one key in 64
            // takes the ordered fallback (unaligned, or a far line).
            let key = |l: u64| match l % 64 {
                0 => l * 64 + 8,
                1 => (l << 40) | 0x40,
                _ => l * 64,
            };
            for step in 0..600_000u32 {
                let r = rng.next_u64();
                let line = key((r >> 8) % pool);
                if r & 0xff < 150 {
                    t.insert(line);
                    m.insert(line);
                } else {
                    assert_eq!(t.remove(line), m.0.remove(&line), "seed {seed} step {step}");
                }
                assert_eq!(t.len, m.0.len(), "seed {seed} step {step}");
            }
            for line in (0..pool).map(key) {
                assert_eq!(t.contains(line), m.0.contains(&line), "seed {seed}");
            }
            assert!(m.1 >= 2, "seed {seed}: the stream must cross the cap");
        }
    }

    /// Reaching the cap forgets everything tracked before, as the
    /// `BTreeSet` did.
    #[test]
    fn insert_at_cap_clears_first() {
        let mut t = PrefetchTracker::new(64);
        let far = 1u64 << 50;
        t.insert(far);
        for l in 1..PF_TRACK_CAP as u64 {
            t.insert(l * 64);
        }
        assert_eq!(t.len, PF_TRACK_CAP);
        t.insert(64); // already present, but the tracker is full
        assert_eq!(t.len, 1);
        assert!(t.contains(64));
        assert!(!t.contains(128));
        assert!(!t.contains(far));
    }
}
