//! A dense layer: a [`LinearBackend`] followed by an element-wise
//! activation, with the caching backpropagation needs.

use crate::activation::Activation;
use crate::backend::LinearBackend;

/// A fully connected layer `a = f(W · [x; 1])` over any weight backend.
///
/// The layer caches the last input and pre-activation so that
/// [`backward_into`](DenseLayer::backward_into) and
/// [`apply_update`](DenseLayer::apply_update) can run without the caller
/// re-supplying them — mirroring how a crossbar tile holds its operands
/// in local registers between cycles. Every pass writes a caller-owned
/// slice, and the caches keep their capacity, so a warm layer trains
/// without allocating.
#[derive(Debug, Clone)]
pub struct DenseLayer<B> {
    backend: B,
    activation: Activation,
    cached_input: Vec<f32>,
    cached_pre: Vec<f32>,
    cached_delta: Vec<f32>,
}

impl<B: LinearBackend> DenseLayer<B> {
    /// Wraps a backend with an activation.
    pub fn new(backend: B, activation: Activation) -> Self {
        DenseLayer {
            backend,
            activation,
            cached_input: Vec::new(),
            cached_pre: Vec::new(),
            cached_delta: Vec::new(),
        }
    }

    /// Logical input dimension.
    pub fn in_dim(&self) -> usize {
        self.backend.in_dim()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.backend.out_dim()
    }

    /// The layer's activation function.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Shared access to the underlying backend.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Mutable access to the underlying backend (e.g. to recalibrate an
    /// analog tile mid-training).
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }

    /// Forward pass into a caller-owned buffer (`out` is fully
    /// overwritten); caches input and pre-activation for a later backward
    /// pass. A warm layer allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != in_dim()` or `out.len() != out_dim()`.
    pub fn forward_into(&mut self, x: &[f32], out: &mut [f32]) {
        self.cached_input.clear();
        self.cached_input.extend_from_slice(x);
        self.cached_pre.resize(self.backend.out_dim(), 0.0);
        self.backend.forward_into(x, &mut self.cached_pre);
        out.copy_from_slice(&self.cached_pre);
        self.activation.apply_slice(out);
    }

    /// Inference-only forward pass into a caller-owned buffer (`out` is
    /// fully overwritten; no caching and, on a warm backend, no
    /// allocation).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != in_dim()` or `out.len() != out_dim()`.
    pub fn infer_into(&mut self, x: &[f32], out: &mut [f32]) {
        self.backend.forward_into(x, out);
        self.activation.apply_slice(out);
    }

    /// Backward pass: converts the upstream gradient `dL/da` into `dL/dx`
    /// (`dx` is fully overwritten), caching the local delta `dL/dz` for
    /// the update cycle.
    ///
    /// # Panics
    ///
    /// Panics if called before [`forward_into`](DenseLayer::forward_into),
    /// with a gradient of the wrong length or if `dx.len() != in_dim()`.
    pub fn backward_into(&mut self, upstream: &[f32], dx: &mut [f32]) {
        assert_eq!(
            upstream.len(),
            self.cached_pre.len(),
            "backward called with mismatched gradient (did forward run?)"
        );
        self.cached_delta.clear();
        self.cached_delta.extend(
            upstream.iter().zip(&self.cached_pre).map(|(g, &z)| g * self.activation.derivative(z)),
        );
        self.backend.backward_into(&self.cached_delta, dx);
    }

    /// Update cycle: applies the cached rank-1 gradient with learning rate
    /// `lr`.
    ///
    /// # Panics
    ///
    /// Panics if called before [`backward_into`](DenseLayer::backward_into).
    pub fn apply_update(&mut self, lr: f32) {
        assert!(!self.cached_delta.is_empty(), "apply_update called before backward");
        self.backend.update(&self.cached_delta, &self.cached_input, lr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::DigitalLinear;
    use enw_numerics::matrix::Matrix;

    fn layer(act: Activation) -> DenseLayer<DigitalLinear> {
        let w = Matrix::from_rows(&[&[1.0, -1.0, 0.0], &[0.5, 0.5, 1.0]]);
        DenseLayer::new(DigitalLinear::from_weights(w), act)
    }

    #[test]
    fn forward_applies_activation() {
        let mut l = layer(Activation::Relu);
        let mut a = [f32::NAN; 2];
        l.forward_into(&[1.0, 2.0], &mut a);
        assert_eq!(a, [0.0, 2.5]); // pre = [-1.0, 2.5]
    }

    #[test]
    fn backward_masks_through_relu() {
        let mut l = layer(Activation::Relu);
        l.forward_into(&[1.0, 2.0], &mut [0.0; 2]); // pre = [-1.0, 2.5]
        let mut dx = [f32::NAN; 2];
        l.backward_into(&[1.0, 1.0], &mut dx);
        // Unit 0 is dead (pre < 0), so only row 1 contributes.
        assert_eq!(dx, [0.5, 0.5]);
    }

    #[test]
    fn update_uses_cached_operands() {
        let mut l = layer(Activation::Identity);
        l.forward_into(&[1.0, 0.0], &mut [0.0; 2]);
        l.backward_into(&[1.0, 0.0], &mut [0.0; 2]);
        l.apply_update(0.1);
        let w = l.backend().weights();
        assert!((w.at(0, 0) - 0.9).abs() < 1e-6); // moved against gradient
        assert_eq!(w.at(1, 0), 0.5); // zero delta row untouched
    }

    #[test]
    #[should_panic(expected = "before backward")]
    fn update_without_backward_panics() {
        layer(Activation::Identity).apply_update(0.1);
    }

    #[test]
    #[should_panic(expected = "did forward run")]
    fn backward_without_forward_panics() {
        layer(Activation::Identity).backward_into(&[1.0, 1.0], &mut [0.0; 2]);
    }

    /// Full finite-difference gradient check through activation + backend.
    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut l = layer(Activation::Tanh);
        let x = [0.3f32, -0.7];
        // Loss L = sum(a); dL/da = 1.
        l.forward_into(&x, &mut [0.0; 2]);
        let mut dx = [0.0f32; 2];
        l.backward_into(&[1.0, 1.0], &mut dx);
        let eps = 1e-3f32;
        for i in 0..2 {
            let mut xp = x;
            xp[i] += eps;
            let mut xm = x;
            xm[i] -= eps;
            let (mut ap, mut am) = ([0.0f32; 2], [0.0f32; 2]);
            l.infer_into(&xp, &mut ap);
            l.infer_into(&xm, &mut am);
            let (lp, lm): (f32, f32) = (ap.iter().sum(), am.iter().sum());
            let num = (lp - lm) / (2.0 * eps);
            assert!((num - dx[i]).abs() < 1e-2, "dim {i}: {num} vs {}", dx[i]);
        }
    }
}
