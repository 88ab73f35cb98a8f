//! Symmetric fixed-point quantization.
//!
//! Reduced precision appears throughout the paper: 2-bit inference weights
//! (Sec. II), the 4-bit fixed-point feature vectors fed to TCAM range
//! encodings (Sec. IV-B1), and embedding-table compression of up to 16×
//! (Sec. V-B). [`Quantizer`] implements the shared primitive: a symmetric
//! uniform quantizer with a per-tensor scale.

/// A symmetric uniform quantizer with `bits` of precision.
///
/// Real values in `[-max_abs, +max_abs]` map to integer codes in
/// `[-(2^(bits-1) - 1), +(2^(bits-1) - 1)]`; values outside the range clip.
///
/// # Example
///
/// ```
/// use enw_numerics::quant::Quantizer;
///
/// let q = Quantizer::new(4, 1.0);
/// let code = q.quantize(0.5);
/// let back = q.dequantize(code);
/// assert!((back - 0.5).abs() <= q.step());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantizer {
    bits: u32,
    max_abs: f32,
    qmax: i32,
}

impl Quantizer {
    /// Creates a quantizer with the given bit width and clipping range.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is not in `2..=16` or `max_abs` is not positive and
    /// finite.
    pub fn new(bits: u32, max_abs: f32) -> Self {
        assert!((2..=16).contains(&bits), "bits must be in 2..=16");
        assert!(max_abs > 0.0 && max_abs.is_finite(), "max_abs must be positive and finite");
        Quantizer { bits, max_abs, qmax: (1i32 << (bits - 1)) - 1 }
    }

    /// Creates a quantizer whose range covers the max-abs of `values`
    /// (falling back to 1.0 for an all-zero tensor).
    ///
    /// This is the "statistical scaling factor" calibration the paper cites
    /// for weight quantization.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is out of range (see [`Quantizer::new`]).
    pub fn fit(bits: u32, values: &[f32]) -> Self {
        let max_abs = values.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        Quantizer::new(bits, if max_abs > 0.0 { max_abs } else { 1.0 })
    }

    /// Bit width.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Largest representable code magnitude.
    pub fn qmax(&self) -> i32 {
        self.qmax
    }

    /// Quantization step size in real units.
    pub fn step(&self) -> f32 {
        self.max_abs / self.qmax as f32
    }

    /// Quantizes one value (round-to-nearest, clipped to range).
    pub fn quantize(&self, v: f32) -> i32 {
        let code = (v / self.step()).round() as i64;
        code.clamp(-(self.qmax as i64), self.qmax as i64) as i32
    }

    /// Maps a code back to a real value.
    pub fn dequantize(&self, code: i32) -> f32 {
        code as f32 * self.step()
    }

    /// Round-trips one value through the quantizer.
    pub fn round_trip(&self, v: f32) -> f32 {
        self.dequantize(self.quantize(v))
    }

    /// Quantizes a slice into unsigned fixed-point *levels* `0..2^bits - 1`
    /// (offset binary), the representation TCAM range encodings consume.
    pub fn to_levels(&self, values: &[f32]) -> Vec<u32> {
        values.iter().map(|&v| (self.quantize(v) + self.qmax) as u32).collect()
    }

    /// Number of distinct levels produced by [`Quantizer::to_levels`].
    pub fn level_count(&self) -> u32 {
        (2 * self.qmax + 1) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_error_bounded_by_half_step() {
        let q = Quantizer::new(8, 2.0);
        for i in -100..=100 {
            let v = i as f32 / 50.0; // within range
            assert!((v - q.round_trip(v)).abs() <= q.step() / 2.0 + 1e-6);
        }
    }

    #[test]
    fn clipping_out_of_range() {
        let q = Quantizer::new(4, 1.0);
        assert_eq!(q.quantize(10.0), q.qmax());
        assert_eq!(q.quantize(-10.0), -q.qmax());
    }

    #[test]
    fn fit_covers_data() {
        let data = [0.1, -3.5, 2.0];
        let q = Quantizer::fit(8, &data);
        assert_eq!(q.quantize(-3.5), -q.qmax());
    }

    #[test]
    fn fit_all_zero_does_not_panic() {
        let q = Quantizer::fit(8, &[0.0, 0.0]);
        assert_eq!(q.quantize(0.0), 0);
    }

    #[test]
    fn more_bits_less_mse() {
        let data: Vec<f32> = (0..1000).map(|i| (i as f32 / 500.0) - 1.0).collect();
        let mse = |q: Quantizer| -> f64 {
            data.iter().map(|&v| ((v - q.round_trip(v)) as f64).powi(2)).sum::<f64>()
                / data.len() as f64
        };
        assert!(mse(Quantizer::new(8, 1.0)) < mse(Quantizer::new(4, 1.0)));
    }

    #[test]
    fn levels_are_offset_binary() {
        let q = Quantizer::new(4, 1.0);
        let levels = q.to_levels(&[-1.0, 0.0, 1.0]);
        assert_eq!(levels[0], 0);
        assert_eq!(levels[1], q.qmax() as u32);
        assert_eq!(levels[2], 2 * q.qmax() as u32);
        assert!(levels.iter().all(|&l| l < q.level_count()));
    }

    #[test]
    #[should_panic(expected = "bits must be")]
    fn one_bit_rejected() {
        Quantizer::new(1, 1.0);
    }

    #[test]
    #[should_panic(expected = "max_abs")]
    fn bad_range_rejected() {
        Quantizer::new(8, 0.0);
    }
}
