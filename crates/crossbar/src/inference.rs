//! Analog *inference* deployment: program trained weights once, then
//! watch them age (paper Sec. II: "inference applications only rely on
//! the forward pass and require excellent long-term weight retention").
//!
//! A network trained in software is write-verify programmed onto PCM
//! differential pairs. Conductances then drift as `(t/t₀)^{-ν}`, so the
//! effective weights — and accuracy — decay over deployment time. Two
//! mitigations from the paper are modeled:
//!
//! * the **projection liner** \[26\]\[27\], which suppresses ν by ~10×;
//! * **algorithmic drift compensation** \[28\]: because drift multiplies
//!   every conductance by (approximately) the same factor, a single
//!   scalar correction per layer — calibrated from a known input's output
//!   magnitude — restores the pre-drift scale.

use crate::devices::pcm::{PcmConfig, PcmPair};
use enw_numerics::matrix::Matrix;
use enw_numerics::rng::Rng64;

/// One layer's weights stored on PCM differential pairs.
///
/// # Example
///
/// ```
/// use enw_crossbar::devices::pcm::PcmConfig;
/// use enw_crossbar::inference::PcmLayer;
/// use enw_numerics::matrix::Matrix;
/// use enw_numerics::rng::Rng64;
///
/// let mut rng = Rng64::new(0);
/// let weights = Matrix::from_rows(&[&[0.5, -0.25], &[0.0, 0.75]]);
/// let layer = PcmLayer::program(&weights, PcmConfig::projected(), &mut rng);
/// let y = layer.matvec(&[1.0, 1.0], 0.0);
/// assert!((y[0] - 0.25).abs() < 0.1);
/// ```
#[derive(Debug, Clone)]
pub struct PcmLayer {
    rows: usize,
    cols: usize,
    pairs: Vec<PcmPair>,
    /// Per-layer drift-compensation factor (1.0 = uncompensated).
    correction: f32,
}

impl PcmLayer {
    /// Write-verify programs `weights` (values expected in `[-1, 1]`)
    /// onto fresh pairs at `t = 0`.
    pub fn program(weights: &Matrix, cfg: PcmConfig, rng: &mut Rng64) -> Self {
        let mut pairs = Vec::with_capacity(weights.rows() * weights.cols());
        for r in 0..weights.rows() {
            for c in 0..weights.cols() {
                let mut pair = PcmPair::new_with(cfg, rng);
                // Iterative program-and-verify toward the target.
                let target = weights.at(r, c).clamp(-1.0, 1.0);
                for _ in 0..8 {
                    let err = target - pair.weight(0.0);
                    if err.abs() < cfg.dg {
                        break;
                    }
                    pair.update_at(err, 0.0, rng);
                }
                pairs.push(pair);
            }
        }
        PcmLayer { rows: weights.rows(), cols: weights.cols(), pairs, correction: 1.0 }
    }

    /// Rows (outputs).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns (inputs).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The effective weight matrix read at time `now` (with the current
    /// correction applied).
    pub fn weights_at(&self, now: f64) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                m.set(r, c, self.pairs[r * self.cols + c].weight(now) * self.correction);
            }
        }
        m
    }

    /// Forward product using the drifted conductances at time `now`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn matvec(&self, x: &[f32], now: f64) -> Vec<f32> {
        assert_eq!(x.len(), self.cols, "input dimension mismatch");
        let mut y = vec![0.0f32; self.rows];
        for (r, out) in y.iter_mut().enumerate() {
            let mut acc = 0.0f32;
            for (c, xi) in x.iter().enumerate() {
                acc += self.pairs[r * self.cols + c].weight(now) * xi;
            }
            *out = acc * self.correction;
        }
        y
    }

    /// Mean multiplicative weight decay at `now` relative to `t = 0`
    /// (1.0 = no decay), measured over pairs with non-negligible weight.
    pub fn mean_decay(&self, now: f64) -> f64 {
        let mut sum = 0.0f64;
        let mut n = 0usize;
        for p in &self.pairs {
            let w0 = p.weight(0.0);
            if w0.abs() > 0.01 {
                sum += (p.weight(now) / w0) as f64;
                n += 1;
            }
        }
        if n == 0 {
            1.0
        } else {
            sum / n as f64
        }
    }

    /// Drift compensation \[28\]: sets the scalar correction to undo the
    /// mean multiplicative decay observed at `now` (in hardware this is
    /// calibrated by reading a reference column; here we use the exact
    /// mean, which the reference column estimates).
    pub fn compensate_drift(&mut self, now: f64) {
        let decay = self.mean_decay(now);
        self.correction = if decay > 1e-6 { (1.0 / decay) as f32 } else { 1.0 };
    }

    /// Removes any compensation.
    pub fn reset_compensation(&mut self) {
        self.correction = 1.0;
    }

    /// The active correction factor.
    pub fn correction(&self) -> f32 {
        self.correction
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_weights() -> Matrix {
        Matrix::from_rows(&[&[0.6, -0.4, 0.1], &[-0.8, 0.3, 0.5]])
    }

    fn quiet(cfg: PcmConfig) -> PcmConfig {
        PcmConfig { write_noise: 0.0, ..cfg }
    }

    #[test]
    fn programming_reaches_targets() {
        let mut rng = Rng64::new(1);
        let w = sample_weights();
        let layer = PcmLayer::program(&w, quiet(PcmConfig::bare()), &mut rng);
        let read = layer.weights_at(0.0);
        for r in 0..2 {
            for c in 0..3 {
                assert!(
                    (read.at(r, c) - w.at(r, c)).abs() < 0.03,
                    "({r},{c}): {} vs {}",
                    read.at(r, c),
                    w.at(r, c)
                );
            }
        }
    }

    #[test]
    fn matvec_matches_weight_matrix() {
        let mut rng = Rng64::new(2);
        let w = sample_weights();
        let layer = PcmLayer::program(&w, quiet(PcmConfig::bare()), &mut rng);
        let x = [1.0f32, -0.5, 0.25];
        let y = layer.matvec(&x, 0.0);
        let mut y_ref = [0.0f32; 2];
        layer.weights_at(0.0).matvec_into(&x, &mut y_ref);
        for (a, b) in y.iter().zip(&y_ref) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn drift_decays_outputs_over_time() {
        let mut rng = Rng64::new(3);
        let layer = PcmLayer::program(&sample_weights(), quiet(PcmConfig::bare()), &mut rng);
        let x = [1.0f32, 1.0, 1.0];
        let y0 = layer.matvec(&x, 0.0);
        let y_late = layer.matvec(&x, 1e8);
        // Magnitudes shrink uniformly.
        let n0: f32 = y0.iter().map(|v| v.abs()).sum();
        let nl: f32 = y_late.iter().map(|v| v.abs()).sum();
        assert!(nl < 0.85 * n0, "no visible drift: {nl} vs {n0}");
    }

    #[test]
    fn compensation_recovers_most_of_the_drift_error() {
        // With per-device ν dispersion the scalar correction cannot be
        // exact, but it must recover the bulk of the mean decay.
        let mut rng = Rng64::new(4);
        let mut layer = PcmLayer::program(&sample_weights(), quiet(PcmConfig::bare()), &mut rng);
        let x = [0.5f32, -1.0, 0.75];
        let y0 = layer.matvec(&x, 0.0);
        let y_drifted = layer.matvec(&x, 1e8);
        layer.compensate_drift(1e8);
        let y_fixed = layer.matvec(&x, 1e8);
        let err = |y: &[f32]| -> f32 { y.iter().zip(&y0).map(|(a, b)| (a - b).abs()).sum() };
        assert!(
            err(&y_fixed) < 0.5 * err(&y_drifted),
            "compensation did not help: {} vs {}",
            err(&y_fixed),
            err(&y_drifted)
        );
        assert!(layer.correction() > 1.0);
    }

    #[test]
    fn compensation_is_exact_without_nu_dispersion() {
        let mut rng = Rng64::new(7);
        let cfg = PcmConfig { drift_nu_sigma: 0.0, ..quiet(PcmConfig::bare()) };
        let mut layer = PcmLayer::program(&sample_weights(), cfg, &mut rng);
        let x = [0.5f32, -1.0, 0.75];
        let y0 = layer.matvec(&x, 0.0);
        layer.compensate_drift(1e8);
        let y_fixed = layer.matvec(&x, 1e8);
        for (a, b) in y0.iter().zip(&y_fixed) {
            assert!((a - b).abs() < 0.05, "{a} vs {b}");
        }
    }

    #[test]
    fn projected_cells_decay_less() {
        let mut rng = Rng64::new(5);
        let bare = PcmLayer::program(&sample_weights(), quiet(PcmConfig::bare()), &mut rng);
        let lined = PcmLayer::program(&sample_weights(), quiet(PcmConfig::projected()), &mut rng);
        assert!(lined.mean_decay(1e8) > bare.mean_decay(1e8) + 0.05);
    }

    #[test]
    fn reset_compensation_returns_to_raw() {
        let mut rng = Rng64::new(6);
        let mut layer = PcmLayer::program(&sample_weights(), quiet(PcmConfig::bare()), &mut rng);
        layer.compensate_drift(1e6);
        layer.reset_compensation();
        assert_eq!(layer.correction(), 1.0);
    }
}
