//! Order statistics and the FNV-1a digest the benchmark pins.

/// The `q`-quantile of `sorted` by the "exclusive" method of Python's
/// `statistics.quantiles` (position `q·(n+1)`, linear interpolation,
/// clamped to the sample range), so the quartiles printed here are the
/// ones the A/B recipe in README.md computes.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q * (sorted.len() + 1) as f64 - 1.0;
    let lo = pos.floor().clamp(0.0, (sorted.len() - 1) as f64);
    let hi = pos.ceil().clamp(0.0, (sorted.len() - 1) as f64);
    let frac = (pos - lo).clamp(0.0, 1.0);
    sorted[lo as usize] + frac * (sorted[hi as usize] - sorted[lo as usize])
}

/// `(p25, median, p75)` of an unsorted sample.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let s = sorted(values);
    (quantile(&s, 0.25), quantile(&s, 0.5), quantile(&s, 0.75))
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// Ascending copy; the benchmark never produces NaN timings.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The tail percentile a timing with `n` samples may report: p99 needs
/// 1,000 samples, p90 needs 100, fewer samples carry no tail.
pub fn tail_quantile(n: usize) -> Option<f64> {
    match n {
        1000.. => Some(0.99),
        100.. => Some(0.90),
        _ => None,
    }
}

/// 64-bit FNV-1a over the canonical bytes of a rep's model outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    pub fn new() -> Self {
        Fnv(Self::OFFSET)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(Self::PRIME);
        }
        self.0 = h;
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Bit pattern, so `-0.0` and `0.0` (and every NaN payload) differ.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn f32s(&mut self, vs: &[f32]) {
        for v in vs {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7], n=4) == [2.0, 4.0, 6.0]
        assert_eq!(quartiles(&[7.0, 1.0, 4.0, 2.0, 6.0, 3.0, 5.0]), (2.0, 4.0, 6.0));
        // statistics.quantiles([10, 20, 30, 40], n=4) == [12.5, 25.0, 37.5]
        assert_eq!(quartiles(&[40.0, 10.0, 30.0, 20.0]), (12.5, 25.0, 37.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25], clamped to the range here.
        assert_eq!(quartiles(&[1.0, 2.0]), (1.0, 1.5, 2.0));
        assert_eq!(quartiles(&[3.0]), (3.0, 3.0, 3.0));
    }

    #[test]
    fn quantile_interpolates_and_clamps() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((quantile(&s, 0.99) - 99.99).abs() < 1e-9);
        assert!((quantile(&s, 0.90) - 90.9).abs() < 1e-9);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 100.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn tail_needs_enough_samples() {
        assert_eq!(tail_quantile(99), None);
        assert_eq!(tail_quantile(100), Some(0.90));
        assert_eq!(tail_quantile(999), Some(0.90));
        assert_eq!(tail_quantile(1000), Some(0.99));
    }

    #[test]
    fn fnv1a_known_vectors() {
        let h = |s: &str| {
            let mut f = Fnv::new();
            f.bytes(s.as_bytes());
            f.0
        };
        assert_eq!(h(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(h("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(h("foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn digest_sees_the_sign_of_zero() {
        let (mut a, mut b) = (Fnv::new(), Fnv::new());
        a.f32s(&[0.0]);
        b.f32s(&[-0.0]);
        assert_ne!(a, b);
    }
}
