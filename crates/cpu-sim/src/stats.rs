//! Small statistics utilities shared by the simulators: a log₂-bucketed
//! latency histogram with percentile queries.

/// Number of log₂ buckets: covers latencies up to 2³¹ cycles.
const BUCKETS: usize = 32;

/// A log₂-bucketed histogram of latencies (or any positive counts).
///
/// `Copy`-friendly fixed storage so it can live inside stats structs.
/// Bucket `i` holds samples with `floor(log2(v)) == i` (bucket 0 holds 0
/// and 1).
///
/// # Examples
///
/// ```
/// use cpu_sim::stats::LatencyHistogram;
///
/// let mut h = LatencyHistogram::new();
/// for v in [10, 20, 40, 800] {
///     h.record(v);
/// }
/// assert_eq!(h.samples(), 4);
/// // p50 falls in the bucket containing 20.
/// assert!(h.percentile(0.5) >= 16 && h.percentile(0.5) <= 63);
/// assert!(h.percentile(1.0) >= 512);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: [u64; BUCKETS],
    total: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub const fn new() -> Self {
        LatencyHistogram {
            counts: [0; BUCKETS],
            total: 0,
        }
    }

    #[inline]
    fn bucket_of(value: u64) -> usize {
        (64 - value.max(1).leading_zeros() as usize - 1).min(BUCKETS - 1)
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket_of(value)] += 1;
        self.total += 1;
    }

    /// Number of samples recorded.
    pub fn samples(&self) -> u64 {
        self.total
    }

    /// An upper bound of the bucket containing the `q`-quantile
    /// (`q` in `[0, 1]`). Returns 0 for an empty histogram.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let target = ((self.total as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return (1u64 << (i + 1)).saturating_sub(1);
            }
        }
        u64::MAX
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(LatencyHistogram::bucket_of(0), 0);
        assert_eq!(LatencyHistogram::bucket_of(1), 0);
        assert_eq!(LatencyHistogram::bucket_of(2), 1);
        assert_eq!(LatencyHistogram::bucket_of(3), 1);
        assert_eq!(LatencyHistogram::bucket_of(4), 2);
        assert_eq!(LatencyHistogram::bucket_of(1023), 9);
        assert_eq!(LatencyHistogram::bucket_of(1024), 10);
        assert_eq!(LatencyHistogram::bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn percentiles_track_distribution() {
        let mut h = LatencyHistogram::new();
        for _ in 0..90 {
            h.record(50); // bucket 5 (32..63)
        }
        for _ in 0..10 {
            h.record(5000); // bucket 12
        }
        assert!(h.percentile(0.5) <= 63);
        assert!(h.percentile(0.89) <= 63);
        assert!(h.percentile(0.95) >= 4096);
        assert_eq!(h.samples(), 100);
    }

    /// The empty-histogram contract: every quantile of zero samples is 0,
    /// never a bucket bound. Locked across the full `q` range, including
    /// the out-of-range values `percentile` clamps.
    #[test]
    fn empty_histogram() {
        let h = LatencyHistogram::new();
        assert_eq!(h.samples(), 0);
        for q in [-1.0, 0.0, 0.25, 0.5, 0.99, 1.0, 2.0] {
            assert_eq!(h.percentile(q), 0, "q = {q}");
        }
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = LatencyHistogram::new();
        a.record(10);
        let mut b = LatencyHistogram::new();
        b.record(1000);
        b.record(1000);
        a.merge(&b);
        assert_eq!(a.samples(), 3);
        assert!(a.percentile(1.0) >= 512);
    }

    /// Merge-then-percentile round trip: merging shards must answer every
    /// percentile exactly as one histogram that recorded all the samples
    /// directly — including the degenerate empty-shard cases.
    #[test]
    fn merge_then_percentile_round_trips() {
        let samples = [1u64, 3, 7, 50, 50, 900, 5000, 5000, 70_000, 1 << 30];
        let mut whole = LatencyHistogram::new();
        for &v in &samples {
            whole.record(v);
        }
        // Shard the samples unevenly, then merge the shards back together.
        let mut merged = LatencyHistogram::new();
        for chunk in samples.chunks(3) {
            let mut shard = LatencyHistogram::new();
            for &v in chunk {
                shard.record(v);
            }
            merged.merge(&shard);
        }
        assert_eq!(merged, whole);
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(merged.percentile(q), whole.percentile(q), "q = {q}");
        }
        // Empty shards are identity elements on both sides of a merge.
        let mut empty = LatencyHistogram::new();
        merged.merge(&LatencyHistogram::new());
        assert_eq!(merged, whole);
        empty.merge(&whole);
        assert_eq!(empty, whole);
        // Merging two empties stays empty, and still answers 0.
        let mut e2 = LatencyHistogram::new();
        e2.merge(&LatencyHistogram::new());
        assert_eq!(e2.samples(), 0);
        assert_eq!(e2.percentile(0.5), 0);
    }
}
