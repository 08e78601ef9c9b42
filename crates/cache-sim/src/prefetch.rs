//! Hardware prefetchers.
//!
//! The baseline system of Table 3 uses a multi-stride prefetcher at L3
//! (16 concurrent strides, after \[33\]); XMem replaces its *policy* with the
//! expressed access pattern of pinned atoms (§5.2(4)) — that logic lives in
//! [`crate::hierarchy`], driven by the per-atom
//! [`PrefetcherPrimitive`](xmem_core::translate::PrefetcherPrimitive) PAT.

/// A detected prefetch candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchRequest {
    /// Address to prefetch (line-aligned by the consumer).
    pub addr: u64,
}

/// The prefetches one training step issues: `left` targets `stride` bytes
/// apart, starting at `next`. Returned by value, so training on the
/// demand path allocates nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetchRun {
    next: u64,
    stride: i64,
    left: usize,
}

impl Iterator for PrefetchRun {
    type Item = PrefetchRequest;

    #[inline]
    fn next(&mut self) -> Option<PrefetchRequest> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let addr = self.next;
        // Wrapping: the step past the last (counted) target may leave the
        // address space; it is never yielded.
        self.next = self.next.wrapping_add_signed(self.stride);
        Some(PrefetchRequest { addr })
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for PrefetchRun {}

/// Statistics for a prefetcher.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetchStats {
    /// Prefetches issued to memory.
    pub issued: u64,
    /// Prefetched lines that were later demanded (usefulness).
    pub useful: u64,
}

impl PrefetchStats {
    /// Fraction of issued prefetches that were useful.
    pub fn accuracy(&self) -> f64 {
        if self.issued == 0 {
            0.0
        } else {
            self.useful as f64 / self.issued as f64
        }
    }

    /// Exports counters and derived metrics for the report sinks.
    pub fn kv(&self) -> cpu_sim::kv::KvPairs {
        vec![
            ("issued", self.issued.into()),
            ("useful", self.useful.into()),
            ("accuracy", self.accuracy().into()),
        ]
    }
}

/// One stream's training state. Its region tag and LRU stamp live in the
/// table's lanes, which the per-access search scans.
#[derive(Debug, Clone, Copy, Default)]
struct StreamEntry {
    /// Last accessed line-granular address in the region.
    last_addr: u64,
    /// Detected stride in bytes (line granular).
    stride: i64,
    /// Confidence in the stride (saturating).
    confidence: u8,
}

/// A multi-stride prefetcher tracking up to `streams` concurrent strided
/// streams, each identified by its 4 KB region.
///
/// Training: on each access, compute the delta from the previous access in
/// the same region. Two consecutive equal deltas make the stream confident;
/// confident streams prefetch `degree` strides ahead on every access.
///
/// # Examples
///
/// ```
/// use cache_sim::prefetch::MultiStridePrefetcher;
///
/// let mut pf = MultiStridePrefetcher::new(16, 2);
/// assert_eq!(pf.train(0x1000).len(), 0);  // first touch
/// assert_eq!(pf.train(0x1040).len(), 0);  // stride candidate
/// let mut reqs = pf.train(0x1080);        // stride confirmed
/// assert_eq!(reqs.next().unwrap().addr, 0x10c0);
/// ```
#[derive(Debug, Clone)]
pub struct MultiStridePrefetcher {
    /// Each slot's region tag; [`NO_REGION`] for a free slot.
    tags: Vec<u64>,
    /// Each slot's LRU stamp; 0 for a free slot (stamps start at 1), so a
    /// free slot is always the least recently used.
    lrus: Vec<u64>,
    entries: Vec<StreamEntry>,
    degree: usize,
    clock: u64,
    stats: PrefetchStats,
}

/// Region size used to identify streams.
const REGION_BYTES: u64 = 4096;
/// The tag of a free slot: no address's region (`addr / 4096`) reaches it.
const NO_REGION: u64 = u64::MAX;
/// Confidence needed before prefetching (a delta that repeats once —
/// i.e. two consecutive equal deltas — makes the stream confident).
const CONF_THRESHOLD: u8 = 1;
const CONF_MAX: u8 = 7;

impl MultiStridePrefetcher {
    /// Creates a prefetcher with `streams` stream slots issuing `degree`
    /// prefetches per trigger. Table 3 uses 16 streams.
    ///
    /// # Panics
    ///
    /// Panics if `streams` or `degree` is zero.
    pub fn new(streams: usize, degree: usize) -> Self {
        assert!(streams > 0, "need at least one stream");
        assert!(degree > 0, "degree must be non-zero");
        MultiStridePrefetcher {
            tags: vec![NO_REGION; streams],
            lrus: vec![0; streams],
            entries: vec![StreamEntry::default(); streams],
            degree,
            clock: 0,
            stats: PrefetchStats::default(),
        }
    }

    /// Observes a demand access and returns the prefetches to issue.
    pub fn train(&mut self, addr: u64) -> PrefetchRun {
        self.clock += 1;
        let clock = self.clock;
        let region = addr / REGION_BYTES;
        let degree = self.degree;

        // The tag lane holds every slot's region (a free slot's never
        // matches), so finding the stream is one scan of it; a miss then
        // takes the first least recently used slot.
        let Some(slot) = self.tags.iter().position(|&tag| tag == region) else {
            let mut victim = 0;
            let mut oldest = u64::MAX;
            for (i, &lru) in self.lrus.iter().enumerate() {
                if lru < oldest {
                    oldest = lru;
                    victim = i;
                }
            }
            self.tags[victim] = region;
            self.lrus[victim] = clock;
            self.entries[victim] = StreamEntry {
                last_addr: addr,
                stride: 0,
                confidence: 0,
            };
            return PrefetchRun::default();
        };

        self.lrus[slot] = clock;
        let entry = &mut self.entries[slot];
        let delta = addr as i64 - entry.last_addr as i64;
        entry.last_addr = addr;
        if delta == 0 {
            return PrefetchRun::default();
        }
        if delta == entry.stride {
            entry.confidence = (entry.confidence + 1).min(CONF_MAX);
        } else {
            entry.stride = delta;
            entry.confidence = 0;
            return PrefetchRun::default();
        }
        if entry.confidence < CONF_THRESHOLD {
            return PrefetchRun::default();
        }
        let stride = entry.stride;
        // Targets below address 0 are dropped; they are monotone in `k`,
        // so the kept ones are a prefix of the run.
        let left = (1..=degree as i64)
            .take_while(|&k| addr as i64 + stride * k >= 0)
            .count();
        self.stats.issued += left as u64;
        PrefetchRun {
            next: addr.wrapping_add_signed(stride),
            stride,
            left,
        }
    }

    /// Records that a previously prefetched line was demanded.
    pub fn record_useful(&mut self) {
        self.stats.useful += 1;
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> PrefetchStats {
        self.stats
    }

    /// Clears all streams (context switch).
    pub fn flush(&mut self) {
        self.tags.fill(NO_REGION);
        self.lrus.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The stream table as it was written with a two-pass search (a
    /// `position` for the region, then a `min_by_key` for the victim) over
    /// array-of-structs entries: the reference for the one-pass search.
    mod reference {
        use super::super::{PrefetchRun, PrefetchStats, CONF_MAX, CONF_THRESHOLD, REGION_BYTES};

        #[derive(Debug, Clone, Copy, Default)]
        struct StreamEntry {
            tag: u64,
            last_addr: u64,
            stride: i64,
            confidence: u8,
            lru: u64,
            valid: bool,
        }

        pub struct Naive {
            entries: Vec<StreamEntry>,
            degree: usize,
            clock: u64,
            pub stats: PrefetchStats,
        }

        impl Naive {
            pub fn new(streams: usize, degree: usize) -> Self {
                Naive {
                    entries: vec![StreamEntry::default(); streams],
                    degree,
                    clock: 0,
                    stats: PrefetchStats::default(),
                }
            }

            pub fn train(&mut self, addr: u64) -> PrefetchRun {
                self.clock += 1;
                let clock = self.clock;
                let region = addr / REGION_BYTES;
                let degree = self.degree;
                let slot = match self.entries.iter().position(|e| e.valid && e.tag == region) {
                    Some(i) => i,
                    None => {
                        let i = self
                            .entries
                            .iter()
                            .enumerate()
                            .min_by_key(|(_, e)| if e.valid { e.lru } else { 0 })
                            .map(|(i, _)| i)
                            .unwrap();
                        self.entries[i] = StreamEntry {
                            tag: region,
                            last_addr: addr,
                            stride: 0,
                            confidence: 0,
                            lru: clock,
                            valid: true,
                        };
                        return PrefetchRun::default();
                    }
                };
                let entry = &mut self.entries[slot];
                entry.lru = clock;
                let delta = addr as i64 - entry.last_addr as i64;
                entry.last_addr = addr;
                if delta == 0 {
                    return PrefetchRun::default();
                }
                if delta == entry.stride {
                    entry.confidence = (entry.confidence + 1).min(CONF_MAX);
                } else {
                    entry.stride = delta;
                    entry.confidence = 0;
                    return PrefetchRun::default();
                }
                if entry.confidence < CONF_THRESHOLD {
                    return PrefetchRun::default();
                }
                let stride = entry.stride;
                let left = (1..=degree as i64)
                    .take_while(|&k| addr as i64 + stride * k >= 0)
                    .count();
                self.stats.issued += left as u64;
                PrefetchRun {
                    next: addr.wrapping_add_signed(stride),
                    stride,
                    left,
                }
            }

            pub fn flush(&mut self) {
                for e in &mut self.entries {
                    e.valid = false;
                }
            }
        }
    }

    /// SplitMix64 (this crate has no RNG dependency).
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn one_pass_search_matches_the_two_pass_reference() {
        for streams in [1, 4, 16] {
            for seed in 0..4u64 {
                let mut rng = seed * 0x1000 + streams as u64;
                let mut pf = MultiStridePrefetcher::new(streams, 2);
                let mut naive = reference::Naive::new(streams, 2);
                // Up to twice as many live streams as slots, each walking
                // its own region with its own stride (some negative, some
                // crossing into the next region), among random accesses
                // near address 0 and across the space.
                let live = 1 + (splitmix(&mut rng) % (2 * streams as u64 + 1)) as usize;
                let mut cursors: Vec<(u64, i64)> = (0..live)
                    .map(|_| {
                        let base = (splitmix(&mut rng) % (1 << 30)) & !63;
                        let stride = [64, 128, -64, 192, 512, 0][(splitmix(&mut rng) % 6) as usize];
                        (base, stride)
                    })
                    .collect();
                for step in 0..20_000u64 {
                    let r = splitmix(&mut rng);
                    let addr = match r % 10 {
                        0 => (r >> 8) & !63,
                        1 => (r >> 40) & 0x3FC0,
                        _ => {
                            let (cur, stride) = &mut cursors[(r >> 8) as usize % live];
                            *cur = cur.wrapping_add_signed(*stride);
                            *cur
                        }
                    };
                    assert_eq!(
                        pf.train(addr),
                        naive.train(addr),
                        "{streams} streams, seed {seed}, access {step}"
                    );
                    if step % 5_000 == 4_999 {
                        pf.flush();
                        naive.flush();
                    }
                }
                assert_eq!(pf.stats(), naive.stats, "{streams} streams, seed {seed}");
            }
        }
    }

    #[test]
    fn detects_unit_stride() {
        let mut pf = MultiStridePrefetcher::new(4, 2);
        pf.train(0);
        pf.train(64);
        let reqs: Vec<_> = pf.train(128).collect();
        assert_eq!(reqs.len(), 2);
        assert_eq!(reqs[0].addr, 192);
        assert_eq!(reqs[1].addr, 256);
    }

    #[test]
    fn detects_negative_stride() {
        let mut pf = MultiStridePrefetcher::new(4, 1);
        pf.train(1024);
        pf.train(960);
        let reqs: Vec<_> = pf.train(896).collect();
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].addr, 832);
    }

    #[test]
    fn negative_run_stops_at_address_zero() {
        let mut pf = MultiStridePrefetcher::new(4, 4);
        pf.train(256);
        pf.train(192);
        let reqs: Vec<u64> = pf.train(128).map(|r| r.addr).collect();
        assert_eq!(reqs, [64, 0]);
        assert_eq!(pf.stats().issued, 2);
    }

    #[test]
    fn tracks_concurrent_streams() {
        let mut pf = MultiStridePrefetcher::new(4, 1);
        // Two interleaved streams in different regions.
        let base_a = 0u64;
        let base_b = 1 << 20;
        for i in 0..4u64 {
            pf.train(base_a + i * 64);
            pf.train(base_b + i * 128);
        }
        let ra = pf.train(base_a + 4 * 64).next().unwrap();
        let rb = pf.train(base_b + 4 * 128).next().unwrap();
        assert_eq!(ra.addr, base_a + 5 * 64);
        assert_eq!(rb.addr, base_b + 5 * 128);
    }

    #[test]
    fn random_pattern_prefetches_nothing() {
        let mut pf = MultiStridePrefetcher::new(16, 2);
        let mut issued = 0;
        let mut x = 12345u64;
        for _ in 0..200 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            issued += pf.train((x >> 20) & 0xFFFF_FFC0).len();
        }
        // A tiny number of accidental matches is tolerable.
        assert!(issued < 10, "issued {issued}");
    }

    #[test]
    fn stride_change_resets_confidence() {
        let mut pf = MultiStridePrefetcher::new(4, 1);
        pf.train(0);
        pf.train(64);
        assert_ne!(pf.train(128).len(), 0);
        // Change the stride: the new delta must repeat once before
        // prefetching resumes.
        assert_eq!(pf.train(128 + 256).len(), 0);
        assert_ne!(pf.train(128 + 512).len(), 0);
    }

    #[test]
    fn stream_eviction_lru() {
        let mut pf = MultiStridePrefetcher::new(2, 1);
        pf.train(0); // region 0
        pf.train(1 << 13); // region 2
        pf.train(64); // touch region 0
        pf.train(1 << 20); // region X evicts region 2
                           // Region 0 still trained.
        pf.train(128);
        assert_ne!(pf.train(192).len(), 0);
    }

    #[test]
    fn accuracy_accounting() {
        let mut pf = MultiStridePrefetcher::new(4, 1);
        pf.train(0);
        pf.train(64);
        pf.train(128);
        pf.record_useful();
        assert!(pf.stats().accuracy() > 0.99);
    }

    #[test]
    fn flush_forgets_streams() {
        let mut pf = MultiStridePrefetcher::new(4, 1);
        pf.train(0);
        pf.train(64);
        pf.flush();
        assert_eq!(pf.train(128).len(), 0);
        assert_eq!(pf.train(192).len(), 0);
    }
}
