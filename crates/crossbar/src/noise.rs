//! Peripheral-circuit nonidealities: DAC/ADC quantization, read noise and
//! output clipping.
//!
//! An analog tile is only as good as its converters. The original RPU
//! analysis \[14\] bounds the periphery at roughly 7-bit input DACs, 9-bit
//! output ADCs with a bounded range, and additive cycle-to-cycle read
//! noise; [`AnalogNoise::standard`] reproduces that operating point.

use enw_numerics::rng::Rng64;

/// `f32::round` (nearest integer, ties away from zero) for the
/// converter codes, which are never negative. On the baseline x86-64
/// target `f32::round` is a `roundf` libm call per element; this stays
/// in line. Below 2²³, `(x + 2²³) − 2²³` is the nearest integer with
/// ties to *even*, so a tie that went down is stepped back up — the
/// fix-up is not optional: a DAC input of exactly 0.0 is code 63.5 at
/// 7 bits, so every zero pixel and every ReLU-dead activation sits on
/// a tie. From 2²³ up every `f32` is an integer already, and NaN fails
/// the `<` and is returned as it came.
#[inline]
fn round_half_away(x: f32) -> f32 {
    const TWO_POW_23: f32 = 8_388_608.0;
    if x < TWO_POW_23 {
        let m = (x + TWO_POW_23) - TWO_POW_23;
        if x - m == 0.5 {
            m + 1.0
        } else {
            m
        }
    } else {
        x
    }
}

/// Peripheral noise/quantization configuration of an analog tile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalogNoise {
    /// Input DAC resolution; `None` disables input quantization.
    /// Inputs are clipped to `[-1, 1]` (the DAC full scale).
    pub dac_bits: Option<u32>,
    /// Output ADC resolution over `[-output_bound, output_bound]`;
    /// `None` disables output quantization.
    pub adc_bits: Option<u32>,
    /// Additive Gaussian read-noise σ per output line (absolute units).
    pub read_noise: f32,
    /// Output clipping bound (the ADC full scale).
    pub output_bound: f32,
    /// IR-drop coefficient: fractional signal attenuation accumulated
    /// across the array (0 disables; see `AnalogArray` for the model).
    pub ir_drop: f32,
}

impl AnalogNoise {
    /// A noiseless, quantization-free tile (floating-point equivalent).
    pub fn ideal() -> Self {
        AnalogNoise {
            dac_bits: None,
            adc_bits: None,
            read_noise: 0.0,
            output_bound: f32::INFINITY,
            ir_drop: 0.0,
        }
    }

    /// The RPU baseline periphery: 7-bit DAC, 9-bit ADC bounded at ±12,
    /// σ = 0.06 read noise.
    pub fn standard() -> Self {
        AnalogNoise {
            dac_bits: Some(7),
            adc_bits: Some(9),
            read_noise: 0.06,
            output_bound: 12.0,
            ir_drop: 0.0,
        }
    }

    /// Quantizes the input vector through the DAC model (in place).
    pub fn apply_input(&self, x: &mut [f32]) {
        if let Some(bits) = self.dac_bits {
            let levels = (1u32 << bits) - 1;
            for v in x.iter_mut() {
                let clipped = v.clamp(-1.0, 1.0);
                // Map [-1,1] onto `levels` uniform codes and back.
                let code = round_half_away((clipped + 1.0) / 2.0 * levels as f32);
                *v = code / levels as f32 * 2.0 - 1.0;
            }
        } else {
            for v in x.iter_mut() {
                *v = v.clamp(-1.0, 1.0);
            }
        }
    }

    /// Adds read noise, clips to the ADC range and quantizes the output
    /// vector (in place).
    pub fn apply_output(&self, y: &mut [f32], rng: &mut Rng64) {
        for v in y.iter_mut() {
            if self.read_noise > 0.0 {
                *v += (self.read_noise as f64 * rng.normal()) as f32;
            }
            if self.output_bound.is_finite() {
                *v = v.clamp(-self.output_bound, self.output_bound);
            }
            if let Some(bits) = self.adc_bits {
                let levels = (1u32 << bits) - 1;
                let b = self.output_bound;
                let code = round_half_away((*v + b) / (2.0 * b) * levels as f32);
                *v = code / levels as f32 * 2.0 * b - b;
            }
        }
    }
}

impl Default for AnalogNoise {
    fn default() -> Self {
        AnalogNoise::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_is_identity() {
        let n = AnalogNoise::ideal();
        let mut x = vec![0.123, -0.77, 0.5];
        let orig = x.clone();
        n.apply_input(&mut x);
        assert_eq!(x, orig);
        let mut rng = Rng64::new(0);
        let mut y = vec![100.0, -3.0];
        n.apply_output(&mut y, &mut rng);
        assert_eq!(y, vec![100.0, -3.0]);
    }

    #[test]
    fn dac_clips_and_quantizes() {
        let n = AnalogNoise { dac_bits: Some(2), ..AnalogNoise::ideal() };
        let mut x = vec![2.0, -2.0, 0.1];
        n.apply_input(&mut x);
        assert_eq!(x[0], 1.0);
        assert_eq!(x[1], -1.0);
        // 2 bits → 3 levels {-1, -1/3... } codes {0..3}: values -1, -1/3, 1/3, 1.
        assert!((x[2] - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn dac_error_bounded_by_half_lsb() {
        let n = AnalogNoise { dac_bits: Some(7), ..AnalogNoise::ideal() };
        let lsb = 2.0 / ((1 << 7) - 1) as f32;
        for i in -50..=50 {
            let v = i as f32 / 50.0;
            let mut x = vec![v];
            n.apply_input(&mut x);
            assert!((x[0] - v).abs() <= lsb / 2.0 + 1e-6);
        }
    }

    #[test]
    fn adc_clips_to_bound() {
        let n = AnalogNoise { adc_bits: Some(9), output_bound: 12.0, ..AnalogNoise::ideal() };
        let mut rng = Rng64::new(1);
        let mut y = vec![50.0, -50.0];
        n.apply_output(&mut y, &mut rng);
        assert_eq!(y, vec![12.0, -12.0]);
    }

    #[test]
    fn read_noise_perturbs() {
        let n = AnalogNoise { read_noise: 0.1, ..AnalogNoise::ideal() };
        let mut rng = Rng64::new(2);
        let mut y = vec![1.0; 100];
        n.apply_output(&mut y, &mut rng);
        let spread = y.iter().fold((f32::MAX, f32::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        assert!(spread.1 - spread.0 > 0.1);
    }

    /// Bit-for-bit agreement with libm's round on one value.
    fn assert_rounds_like_libm(x: f32) {
        assert_eq!(round_half_away(x).to_bits(), x.round().to_bits(), "x = {x:e}");
    }

    #[test]
    fn round_half_away_is_f32_round() {
        // Every tie in a 12-bit converter's code range and its
        // neighbours one ulp either side.
        for k in 0..4096 {
            let tie = k as f32 + 0.5;
            for x in [tie, f32::from_bits(tie.to_bits() - 1), f32::from_bits(tie.to_bits() + 1)] {
                assert_rounds_like_libm(x);
            }
        }
        // The largest value below 0.5, the last tie below 2²³, where the
        // spacing reaches 1 and then 2, and the values `<` sends through.
        let edges = [0.0, 0.499_999_97, 8_388_607.5, 8_388_608.0, 8_388_609.0, 16_777_218.0];
        for x in edges.into_iter().chain([f32::MAX, f32::INFINITY, f32::NAN]) {
            assert_rounds_like_libm(x);
        }
    }

    #[cfg(feature = "proptest")]
    proptest::proptest! {
        #[test]
        fn round_half_away_is_f32_round_on_any_non_negative_pattern(bits in 0u32..0x8000_0000) {
            assert_rounds_like_libm(f32::from_bits(bits));
        }
    }

    #[test]
    fn dac_and_adc_match_the_libm_round_definition() {
        // The converter expressions as they were written over
        // `f32::round`. A DAC input of exactly 0.0 is code
        // `levels / 2`, a tie at every resolution: a half-even round
        // fails here.
        let dac = |v: f32, levels: f32| {
            let code = ((v.clamp(-1.0, 1.0) + 1.0) / 2.0 * levels).round();
            code / levels * 2.0 - 1.0
        };
        let adc = |v: f32, b: f32, levels: f32| {
            let code = ((v.clamp(-b, b) + b) / (2.0 * b) * levels).round();
            code / levels * 2.0 * b - b
        };
        let sweep: Vec<f32> =
            (-1500..=1500).map(|i| i as f32 * 1e-3).chain([0.0, -0.0, 1.0, -1.0]).collect();
        let mut rng = Rng64::new(3);
        for bits in 1..=12 {
            let levels = ((1u32 << bits) - 1) as f32;
            let n = AnalogNoise { dac_bits: Some(bits), ..AnalogNoise::ideal() };
            let mut x = sweep.clone();
            n.apply_input(&mut x);
            for (got, &v) in x.iter().zip(&sweep) {
                assert_eq!(got.to_bits(), dac(v, levels).to_bits(), "dac {bits} bits, input {v}");
            }
            for bound in [1.0f32, 12.0] {
                let n = AnalogNoise {
                    adc_bits: Some(bits),
                    output_bound: bound,
                    ..AnalogNoise::ideal()
                };
                let mut y: Vec<f32> = sweep.iter().map(|v| v * bound).collect();
                n.apply_output(&mut y, &mut rng);
                for (got, &v) in y.iter().zip(&sweep) {
                    let want = adc(v * bound, bound, levels);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "adc {bits} bits ±{bound}, input {v}"
                    );
                }
            }
        }
    }

    #[test]
    fn standard_matches_rpu_operating_point() {
        let n = AnalogNoise::standard();
        assert_eq!(n.dac_bits, Some(7));
        assert_eq!(n.adc_bits, Some(9));
        assert_eq!(n.output_bound, 12.0);
    }
}
