//! Streaming statistics and summary helpers used by the characterization
//! harnesses (accuracy curves, energy/latency distributions, hit rates).

/// Streaming mean/variance accumulator (Welford's algorithm).
///
/// Numerically stable for long streams, `O(1)` memory.
///
/// # Example
///
/// ```
/// use enw_numerics::stats::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for x in [1.0, 2.0, 3.0] {
///     s.push(x);
/// }
/// assert_eq!(s.mean(), 2.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats { n: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 if fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Minimum observation (`+∞` if empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observation (`−∞` if empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

impl Extend<f64> for OnlineStats {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for OnlineStats {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = OnlineStats::new();
        s.extend(iter);
        s
    }
}

/// Returns the `q`-quantile (0 ≤ q ≤ 1) of a data set by linear
/// interpolation between order statistics. NaN values sort after every
/// finite value (IEEE total order), so clean data behaves classically.
///
/// # Panics
///
/// Panics if `data` is empty or `q` is outside `[0, 1]`.
pub fn quantile(data: &[f64], q: f64) -> f64 {
    quantile_in_place(&mut data.to_vec(), q)
}

/// [`quantile`] without the copy: selects the two order statistics in
/// `data` itself, in `O(n)`, leaving it reordered.
///
/// # Panics
///
/// Panics if `data` is empty or `q` is outside `[0, 1]`.
pub fn quantile_in_place(data: &mut [f64], q: f64) -> f64 {
    assert!(!data.is_empty(), "quantile of empty data");
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
    let pos = q * (data.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    let (_, &mut low, above) = data.select_nth_unstable_by(lo, f64::total_cmp);
    // Order statistic `lo + 1` is the least value above `lo`.
    let high =
        if hi > lo { above.iter().copied().min_by(f64::total_cmp).unwrap_or(low) } else { low };
    low * (1.0 - frac) + high * frac
}

/// Geometric mean of strictly positive values.
///
/// Speedup/energy-ratio tables traditionally report geometric means across
/// benchmarks.
///
/// # Panics
///
/// Panics if `data` is empty or any value is not strictly positive.
pub fn geometric_mean(data: &[f64]) -> f64 {
    assert!(!data.is_empty(), "geometric mean of empty data");
    let log_sum: f64 = data
        .iter()
        .map(|&x| {
            assert!(x > 0.0, "geometric mean requires positive values");
            x.ln()
        })
        .sum();
    (log_sum / data.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_direct_computation() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let s: OnlineStats = data.iter().copied().collect();
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn single_observation() {
        let mut s = OnlineStats::new();
        s.push(3.5);
        assert_eq!(s.mean(), 3.5);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn quantile_median_of_odd() {
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
    }

    #[test]
    fn quantile_interpolates() {
        assert_eq!(quantile(&[0.0, 10.0], 0.25), 2.5);
    }

    #[test]
    fn quantile_extremes() {
        let d = [5.0, 1.0, 9.0];
        assert_eq!(quantile(&d, 0.0), 1.0);
        assert_eq!(quantile(&d, 1.0), 9.0);
    }

    #[test]
    fn geometric_mean_known() {
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geometric_mean_rejects_nonpositive() {
        geometric_mean(&[1.0, 0.0]);
    }
}
