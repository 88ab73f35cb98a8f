//! The weight-storage abstraction separating model code from hardware.
//!
//! An analog resistive crossbar performs exactly three matrix cycles (paper
//! Sec. II-A): a forward vector–matrix product, a backward (transposed)
//! product, and a parallel rank-1 weight update. [`LinearBackend`] captures
//! that contract. `enw-nn` supplies the exact floating-point implementation
//! ([`DigitalLinear`]); `enw-crossbar` supplies device-accurate analog
//! tiles. Models written against the trait run unchanged on either.

use enw_numerics::matrix::Matrix;
use enw_numerics::rng::Rng64;

/// The three matrix cycles of a trainable linear operator.
///
/// Implementations store an `out_dim × (in_dim + 1)` weight matrix: the
/// extra column is the bias, driven by a constant 1 appended to the input
/// (the standard crossbar bias row). All three methods take `&mut self`
/// because analog implementations consume entropy for noise and pulse
/// stochasticity even on reads.
pub trait LinearBackend {
    /// Logical input dimension (excluding the bias input).
    fn in_dim(&self) -> usize;

    /// Output dimension.
    fn out_dim(&self) -> usize;

    /// Forward cycle: `z = W · [x; 1]`, allocating the result. The
    /// default allocates once and delegates to the required
    /// [`forward_into`](LinearBackend::forward_into) — the `_into` form
    /// is the primitive so hot inference paths are allocation-free by
    /// construction (`alloc_discipline.rs` counts them).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != in_dim()`.
    fn forward(&mut self, x: &[f32]) -> Vec<f32> {
        let mut y = vec![0.0f32; self.out_dim()];
        self.forward_into(x, &mut y);
        y
    }

    /// Forward cycle into a caller-owned buffer (`out` is fully
    /// overwritten). Required: every backend must provide a form that
    /// writes directly into `out` without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != in_dim()` or `out.len() != out_dim()`.
    fn forward_into(&mut self, x: &[f32], out: &mut [f32]);

    /// Backward cycle: returns `Wᵀ · delta` truncated to the logical input
    /// dimension (the bias column's gradient is internal to the layer).
    /// The default allocates once and delegates to the required
    /// [`backward_into`](LinearBackend::backward_into).
    ///
    /// # Panics
    ///
    /// Panics if `delta.len() != out_dim()`.
    fn backward(&mut self, delta: &[f32]) -> Vec<f32> {
        let mut dx = vec![0.0f32; self.in_dim()];
        self.backward_into(delta, &mut dx);
        dx
    }

    /// Backward cycle into a caller-owned buffer of `in_dim()` elements
    /// (`out` is fully overwritten). Required: every backend must provide
    /// a form that writes directly into `out` without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `delta.len() != out_dim()` or `out.len() != in_dim()`.
    fn backward_into(&mut self, delta: &[f32], out: &mut [f32]);

    /// Update cycle: `W += lr · delta · [x; 1]ᵀ` (or the hardware
    /// approximation of it).
    ///
    /// # Panics
    ///
    /// Implementations panic on dimension mismatch.
    fn update(&mut self, delta: &[f32], x: &[f32], lr: f32);

    /// A snapshot of the currently stored weights (including the bias
    /// column), read out exactly. Used for inspection and tests; hardware
    /// backends may model this as a slow, precise read.
    fn weights(&self) -> Matrix;
}

/// Exact floating-point weights — the software baseline every analog result
/// in the paper is compared against.
///
/// # Example
///
/// ```
/// use enw_nn::backend::{DigitalLinear, LinearBackend};
/// use enw_numerics::rng::Rng64;
///
/// let mut rng = Rng64::new(0);
/// let mut lin = DigitalLinear::new(3, 2, &mut rng);
/// let z = lin.forward(&[0.1, -0.2, 0.3]);
/// assert_eq!(z.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DigitalLinear {
    weights: Matrix, // out_dim x (in_dim + 1)
    in_dim: usize,
}

impl DigitalLinear {
    /// Creates a layer with Xavier-uniform initial weights and zero bias.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut Rng64) -> Self {
        let limit = (6.0 / (in_dim + out_dim) as f64).sqrt();
        let mut weights = Matrix::random_uniform(out_dim, in_dim + 1, -limit, limit, rng);
        for r in 0..out_dim {
            weights.set(r, in_dim, 0.0); // zero bias column
        }
        DigitalLinear { weights, in_dim }
    }

    /// Creates a layer from an explicit weight matrix
    /// (`out_dim × (in_dim + 1)`).
    ///
    /// # Panics
    ///
    /// Panics if the matrix has fewer than two columns.
    pub fn from_weights(weights: Matrix) -> Self {
        assert!(weights.cols() >= 2, "weight matrix needs at least one input and a bias column");
        let in_dim = weights.cols() - 1;
        DigitalLinear { weights, in_dim }
    }

    /// Replaces the stored weights (shape-checked). Used by
    /// quantization-aware training, which alternates between a
    /// full-precision master copy and its quantized image.
    ///
    /// # Panics
    ///
    /// Panics if the shape differs from the current weights.
    pub fn set_weights(&mut self, weights: Matrix) {
        assert_eq!(
            (weights.rows(), weights.cols()),
            (self.weights.rows(), self.weights.cols()),
            "weight shape mismatch"
        );
        self.weights = weights;
    }
}

/// Checks out a scratch buffer holding `[x; 1]` — the bias-augmented
/// input every backend drives its weight matrix with.
///
/// # Panics
///
/// Panics if `x.len() != in_dim`.
pub(crate) fn augmented_scratch(x: &[f32], in_dim: usize) -> enw_parallel::scratch::ScratchF32 {
    assert_eq!(x.len(), in_dim, "input dimension mismatch");
    let mut xa = enw_parallel::scratch::take_f32(in_dim + 1);
    xa[..in_dim].copy_from_slice(x);
    xa[in_dim] = 1.0;
    xa
}

impl LinearBackend for DigitalLinear {
    fn in_dim(&self) -> usize {
        self.in_dim
    }

    fn out_dim(&self) -> usize {
        self.weights.rows()
    }

    fn forward_into(&mut self, x: &[f32], out: &mut [f32]) {
        let xa = augmented_scratch(x, self.in_dim);
        self.weights.matvec_into(&xa, out);
    }

    fn backward_into(&mut self, delta: &[f32], out: &mut [f32]) {
        assert_eq!(out.len(), self.in_dim, "gradient output dimension mismatch");
        let mut full = enw_parallel::scratch::take_f32(self.weights.cols());
        self.weights.matvec_t_into(delta, &mut full);
        out.copy_from_slice(&full[..self.in_dim]);
    }

    fn update(&mut self, delta: &[f32], x: &[f32], lr: f32) {
        let xa = augmented_scratch(x, self.in_dim);
        // Gradient descent: W -= lr * dL/dz * x^T, so scale is -lr.
        self.weights.rank1_update(delta, &xa, -lr);
    }

    fn weights(&self) -> Matrix {
        self.weights.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enw_numerics::packed::PackedMatvec;

    #[test]
    fn forward_includes_bias() {
        let w = Matrix::from_rows(&[&[1.0, 2.0, 0.5]]); // 1 output, 2 inputs + bias
        let mut lin = DigitalLinear::from_weights(w);
        assert_eq!(lin.forward(&[1.0, 1.0]), vec![3.5]);
    }

    #[test]
    fn backward_drops_bias_gradient() {
        let w = Matrix::from_rows(&[&[1.0, 2.0, 0.5]]);
        let mut lin = DigitalLinear::from_weights(w);
        let dx = lin.backward(&[2.0]);
        assert_eq!(dx, vec![2.0, 4.0]); // bias component 1.0 dropped
    }

    #[test]
    fn update_moves_against_gradient() {
        let w = Matrix::from_rows(&[&[0.0, 0.0, 0.0]]);
        let mut lin = DigitalLinear::from_weights(w);
        lin.update(&[1.0], &[1.0, 2.0], 0.1);
        let snap = lin.weights();
        assert!((snap.at(0, 0) + 0.1).abs() < 1e-6);
        assert!((snap.at(0, 1) + 0.2).abs() < 1e-6);
        assert!((snap.at(0, 2) + 0.1).abs() < 1e-6); // bias sees x=1
    }

    #[test]
    fn xavier_init_bounded_and_bias_zero() {
        let mut rng = Rng64::new(3);
        let lin = DigitalLinear::new(10, 5, &mut rng);
        let w = lin.weights();
        let limit = (6.0f64 / 15.0).sqrt() as f32;
        for r in 0..5 {
            for c in 0..10 {
                assert!(w.at(r, c).abs() <= limit);
            }
            assert_eq!(w.at(r, 10), 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "input dimension mismatch")]
    fn wrong_input_len_panics() {
        let mut rng = Rng64::new(0);
        DigitalLinear::new(3, 2, &mut rng).forward(&[1.0]);
    }

    #[test]
    fn forward_batch_matches_forward_into_bitwise() {
        // The packed bias read over a batch against the layer's own
        // forward cycle, which defines `W · [x; 1]`. Widths with and without a strip remainder, a one-input layer,
        // every batch size around the row tile; the inputs carry signed
        // zeros, a subnormal, NaN and both infinities, and one weight
        // row is zero against them (0 x inf must stay NaN).
        let awkward = [0.0, -0.0, 1.0e-40, f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        let mut rng = Rng64::new(9);
        for (in_dim, out_dim) in [(5, 1), (5, 7), (32, 8), (1, 10), (33, 64)] {
            let mut lin = DigitalLinear::new(in_dim, out_dim, &mut rng);
            let mut w = lin.weights();
            w.row_mut(0).fill(0.0);
            lin.set_weights(w);
            for b in (0..=9).chain([33]) {
                let xs: Vec<f32> = (0..b * in_dim)
                    .map(|i| match i % 11 {
                        3 => awkward[i / 11 % awkward.len()],
                        _ => rng.uniform_f32() - 0.5,
                    })
                    .collect();
                let mut want = vec![f32::NAN; b * out_dim];
                for (x, y) in xs.chunks_exact(in_dim).zip(want.chunks_exact_mut(out_dim)) {
                    lin.forward_into(x, y);
                }
                let mut got = vec![f32::NAN; b * out_dim];
                PackedMatvec::pack(&lin.weights()).matvec_bias_batch_into(&xs, &mut got);
                // NaN payloads are the instruction selector's choice.
                let bits = |v: &[f32]| -> Vec<u32> {
                    v.iter().map(|f| if f.is_nan() { 0 } else { f.to_bits() }).collect()
                };
                assert_eq!(bits(&got), bits(&want), "{in_dim} -> {out_dim}, b = {b}");
            }
        }
    }

    /// Gradient check: the backend's update must reduce squared error on a
    /// linear regression task.
    #[test]
    fn sgd_on_linear_regression_converges() {
        let mut rng = Rng64::new(7);
        let mut lin = DigitalLinear::new(2, 1, &mut rng);
        // Target function y = 3x0 - 2x1 + 0.5
        let target = |x: &[f32]| 3.0 * x[0] - 2.0 * x[1] + 0.5;
        for _ in 0..2000 {
            let x = [rng.range(-1.0, 1.0) as f32, rng.range(-1.0, 1.0) as f32];
            let y = lin.forward(&x)[0];
            let err = y - target(&x);
            lin.update(&[err], &x, 0.05);
        }
        let w = lin.weights();
        assert!((w.at(0, 0) - 3.0).abs() < 0.05, "w0 {}", w.at(0, 0));
        assert!((w.at(0, 1) + 2.0).abs() < 0.05, "w1 {}", w.at(0, 1));
        assert!((w.at(0, 2) - 0.5).abs() < 0.05, "bias {}", w.at(0, 2));
    }
}
