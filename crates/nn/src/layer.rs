//! A dense layer: a [`LinearBackend`] followed by an element-wise
//! activation, with the caching backpropagation needs.

use crate::activation::Activation;
use crate::backend::LinearBackend;

/// A fully connected layer `a = f(W · [x; 1])` over any weight backend.
///
/// The layer caches the last input and pre-activation so that
/// [`backward`](DenseLayer::backward) and [`apply_update`](DenseLayer::apply_update)
/// can run without the caller re-supplying them — mirroring how a crossbar
/// tile holds its operands in local registers between cycles.
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

    /// Forward pass; caches input and pre-activation for a later backward
    /// pass.
    pub fn forward(&mut self, x: &[f32]) -> Vec<f32> {
        self.cached_input = x.to_vec();
        self.cached_pre = self.backend.forward(x);
        let mut a = self.cached_pre.clone();
        self.activation.apply_slice(&mut a);
        a
    }

    /// Inference-only forward pass (no caching).
    pub fn infer(&mut self, x: &[f32]) -> Vec<f32> {
        let mut a = self.backend.forward(x);
        self.activation.apply_slice(&mut a);
        a
    }

    /// Inference-only forward pass into a caller-owned buffer (`out` is
    /// fully overwritten; no caching, no allocation beyond what the
    /// backend borrows from scratch pools).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != in_dim()` or `out.len() != out_dim()`.
    pub fn infer_into(&mut self, x: &[f32], out: &mut [f32]) {
        self.backend.forward_into(x, out);
        self.activation.apply_slice(out);
    }

    /// Backward pass: converts the upstream gradient `dL/da` into `dL/dx`,
    /// caching the local delta `dL/dz` for the update cycle.
    ///
    /// # Panics
    ///
    /// Panics if called before [`forward`](DenseLayer::forward) or with a
    /// gradient of the wrong length.
    pub fn backward(&mut self, upstream: &[f32]) -> Vec<f32> {
        assert_eq!(
            upstream.len(),
            self.cached_pre.len(),
            "backward called with mismatched gradient (did forward run?)"
        );
        self.cached_delta = upstream
            .iter()
            .zip(&self.cached_pre)
            .map(|(g, &z)| g * self.activation.derivative(z))
            .collect();
        self.backend.backward(&self.cached_delta)
    }

    /// Update cycle: applies the cached rank-1 gradient with learning rate
    /// `lr`.
    ///
    /// # Panics
    ///
    /// Panics if called before [`backward`](DenseLayer::backward).
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
        let a = l.forward(&[1.0, 2.0]);
        assert_eq!(a, vec![0.0, 2.5]); // pre = [-1.0, 2.5]
    }

    #[test]
    fn backward_masks_through_relu() {
        let mut l = layer(Activation::Relu);
        l.forward(&[1.0, 2.0]); // pre = [-1.0, 2.5]
        let dx = l.backward(&[1.0, 1.0]);
        // Unit 0 is dead (pre < 0), so only row 1 contributes.
        assert_eq!(dx, vec![0.5, 0.5]);
    }

    #[test]
    fn update_uses_cached_operands() {
        let mut l = layer(Activation::Identity);
        l.forward(&[1.0, 0.0]);
        l.backward(&[1.0, 0.0]);
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
        layer(Activation::Identity).backward(&[1.0, 1.0]);
    }

    /// Full finite-difference gradient check through activation + backend.
    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut l = layer(Activation::Tanh);
        let x = [0.3f32, -0.7];
        // Loss L = sum(a); dL/da = 1.
        let dx = {
            l.forward(&x);
            l.backward(&[1.0, 1.0])
        };
        let eps = 1e-3f32;
        for i in 0..2 {
            let mut xp = x;
            xp[i] += eps;
            let mut xm = x;
            xm[i] -= eps;
            let lp: f32 = l.infer(&xp).iter().sum();
            let lm: f32 = l.infer(&xm).iter().sum();
            let num = (lp - lm) / (2.0 * eps);
            assert!((num - dx[i]).abs() < 1e-2, "dim {i}: {num} vs {}", dx[i]);
        }
    }
}
