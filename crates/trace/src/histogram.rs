//! Fixed-bucket histograms of `u64` values (latencies in nanoseconds,
//! batch sizes, queue depths).
//!
//! Bucket boundaries are a pure function of the value — never of the
//! data seen so far — so two histograms fed the same multiset of values
//! hold identical bucket counts regardless of insertion order or thread
//! interleaving, and merging is element-wise `u64` addition. That is the
//! property the workspace's determinism contract needs; it is what makes
//! the serving runtime's percentiles bit-identical at any `ENW_THREADS`.
//!
//! Layout: values below [`LINEAR_MAX`] get one exact bucket each; larger
//! values land in log₂ octaves split into [`SUB_BUCKETS`] linear
//! sub-buckets, bounding the relative quantization error by
//! `1/SUB_BUCKETS` (≈3%). Exact `min`/`max`/`sum` are tracked alongside,
//! so extreme quantiles report the true extremes.

/// Values below this get an exact, width-1 bucket.
pub const LINEAR_MAX: u64 = 64;

/// Linear sub-buckets per octave above the exact range.
pub const SUB_BUCKETS: usize = 32;

/// First octave index handled by the log region (`2^6 == LINEAR_MAX`).
const FIRST_OCTAVE: u32 = 6;

/// Total bucket count: 64 exact + 58 octaves × 32 sub-buckets.
pub const BUCKETS: usize = LINEAR_MAX as usize + (64 - FIRST_OCTAVE as usize) * SUB_BUCKETS;

/// A fixed-bucket histogram over `u64` values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram { counts: vec![0; BUCKETS], total: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    /// Bucket index for a value (total order preserving).
    fn index(v: u64) -> usize {
        if v < LINEAR_MAX {
            return v as usize;
        }
        let octave = 63 - v.leading_zeros(); // >= FIRST_OCTAVE
        let shift = octave - 5; // keep the top 5 bits after the leading 1
        let sub = ((v >> shift) as usize) & (SUB_BUCKETS - 1);
        LINEAR_MAX as usize + (octave - FIRST_OCTAVE) as usize * SUB_BUCKETS + sub
    }

    /// Largest value mapping to bucket `idx` (inclusive).
    fn upper_bound(idx: usize) -> u64 {
        if idx < LINEAR_MAX as usize {
            return idx as u64;
        }
        let rel = idx - LINEAR_MAX as usize;
        let octave = FIRST_OCTAVE + (rel / SUB_BUCKETS) as u32;
        let sub = (rel % SUB_BUCKETS) as u64;
        let shift = octave - 5;
        let lower = (1u64 << octave) | (sub << shift);
        lower + ((1u64 << shift) - 1)
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` occurrences of `v`.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[Self::index(v)] += n;
        self.total += n;
        self.sum += v as u128 * n as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Exact smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact sum of recorded values.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Mean of recorded values, rounded down (0 when empty).
    pub fn mean(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            (self.sum / self.total as u128) as u64
        }
    }

    /// Nearest-rank percentile: the upper bound of the bucket holding the
    /// `ceil(pct/100 · count)`-th smallest value, clamped to the exact
    /// observed extremes. 0 for an empty histogram.
    ///
    /// # Panics
    ///
    /// Panics if `pct` is outside `(0, 100]`.
    pub fn percentile(&self, pct: f64) -> u64 {
        assert!(pct > 0.0 && pct <= 100.0, "percentile must be in (0, 100]");
        if self.total == 0 {
            return 0;
        }
        let rank = ((pct / 100.0) * self.total as f64).ceil() as u64;
        let rank = rank.clamp(1, self.total);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::upper_bound(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Empties the histogram in place: afterwards it equals
    /// [`Histogram::new`] and keeps its bucket storage.
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }

    /// Element-wise merge (the commutative reduction used on join).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Non-empty buckets as `(upper_bound_inclusive, count)`, in value
    /// order ([`crate::HistEntry::buckets`]).
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::upper_bound(i), c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in [10u64, 20, 30, 40, 50, 60, 63] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.percentile(50.0), 40);
        assert_eq!(h.percentile(100.0), 63);
        assert_eq!(h.min(), 10);
        assert_eq!(h.max(), 63);
        assert_eq!(h.mean(), (10 + 20 + 30 + 40 + 50 + 60 + 63) / 7);
    }

    #[test]
    fn index_is_monotone_and_in_range() {
        let mut prev = 0usize;
        let mut v = 0u64;
        while v < 1 << 40 {
            let idx = Histogram::index(v);
            assert!(idx >= prev, "index not monotone at {v}");
            assert!(idx < BUCKETS);
            assert!(Histogram::upper_bound(idx) >= v, "upper bound below value at {v}");
            prev = idx;
            v = v * 2 + 1;
        }
        assert!(Histogram::index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn quantization_error_is_bounded() {
        for &v in &[100u64, 999, 12_345, 1_000_000, 123_456_789, 9_876_543_210] {
            let ub = Histogram::upper_bound(Histogram::index(v));
            assert!(ub >= v);
            let err = (ub - v) as f64 / v as f64;
            assert!(err <= 1.0 / SUB_BUCKETS as f64 + 1e-12, "error {err} at {v}");
        }
    }

    #[test]
    fn percentiles_clamp_to_observed_extremes() {
        let mut h = Histogram::new();
        h.record(1_000_000);
        assert_eq!(h.percentile(1.0), 1_000_000);
        assert_eq!(h.percentile(100.0), 1_000_000);
    }

    #[test]
    fn merge_equals_sequential_recording() {
        let values: Vec<u64> = (0..500).map(|i| (i * i * 37) % 100_000).collect();
        let mut whole = Histogram::new();
        for &v in &values {
            whole.record(v);
        }
        let mut left = Histogram::new();
        let mut right = Histogram::new();
        for (i, &v) in values.iter().enumerate() {
            if i % 2 == 0 {
                left.record(v)
            } else {
                right.record(v)
            }
        }
        let mut merged = right.clone();
        merged.merge(&left);
        assert_eq!(merged, whole, "merge must be order-independent and lossless");
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert!(h.is_empty());
        assert!(h.nonzero_buckets().is_empty());
        let mut cleared = Histogram::new();
        for v in [3u64, 7_000, 1 << 50] {
            cleared.record(v);
        }
        cleared.clear();
        assert_eq!(cleared, h, "clear must leave exactly a new histogram");
    }

    #[test]
    #[should_panic(expected = "percentile")]
    fn percentile_domain_is_checked() {
        Histogram::new().percentile(0.0);
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let mut a = Histogram::new();
        a.record_n(777, 5);
        let mut b = Histogram::new();
        for _ in 0..5 {
            b.record(777);
        }
        assert_eq!(a, b);
        a.record_n(1, 0);
        assert_eq!(a.count(), 5, "zero-count record is a no-op");
    }
}
