//! Minimal 2-D convolutional networks, generic over the weight backend.
//!
//! The paper's MANN studies build their feature embeddings with small
//! CNNs (ref. \[48\] uses "a 4-layer convolutional NN and 2-layer fully
//! connected network"), and CNNs are the canonical dense workload of
//! Sec. II. This module provides a compact, dependency-free CNN: `valid`
//! 2-D convolutions lowered to im2col patch extraction and max pooling,
//! followed by a dense tail that is an [`Mlp`] (embedding layer, head),
//! trained with the same per-sample SGD.
//!
//! Two properties matter for the analog-training experiments:
//!
//! * **Backend-generic.** Every weight array — each conv kernel bank,
//!   the embedding layer, the head — is a [`LinearBackend`]. A conv
//!   layer's forward pass is one backend matrix–vector cycle per output
//!   position over its im2col patch, its backward pass one transposed
//!   cycle per active position, and its weight update a stream of
//!   rank-1 cycles — exactly the three crossbar cycles of paper
//!   Sec. II-A. [`ConvNet::new`] builds the floating-point reference;
//!   [`ConvNet::try_with_backends`] drops in analog (tiled) crossbars
//!   without touching the model code.
//! * **Zero-alloc steady state.** All im2col patches, activations, and
//!   gradient staging live in buffers owned by the network (the conv
//!   stages' and the tail's), and the `_into` entry points
//!   ([`ConvNet::embed_into`], [`ConvNet::predict_into`],
//!   [`ConvNet::train_step`]) reuse them, so a warm training or
//!   inference loop performs no heap allocation (the property E21's
//!   counting-allocator gate enforces).

use crate::activation::Activation;
use crate::backend::{DigitalLinear, LinearBackend};
use crate::data::Dataset;
use crate::layer::DenseLayer;
use crate::mlp::Mlp;
use enw_numerics::matrix::Matrix;
use enw_numerics::rng::Rng64;
use std::convert::Infallible;

/// Shape of a feature map: channels × height × width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapShape {
    /// Channel count.
    pub channels: usize,
    /// Height in pixels.
    pub height: usize,
    /// Width in pixels.
    pub width: usize,
}

impl MapShape {
    /// Total element count.
    pub fn len(&self) -> usize {
        self.channels * self.height * self.width
    }

    /// Returns `true` for a degenerate (empty) shape.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A `valid`-padding, stride-1 convolution layer with ReLU.
///
/// Implemented as im2col followed by per-position backend cycles, so a
/// crossbar accelerating dense products accelerates this layer too —
/// the paper's point that "matrix multiplication ... is the main
/// building block of generalized matrix multiplication and convolution
/// computations". The backend stores `out_channels × (in_channels·k² + 1)`
/// weights (its own bias column); patches carry no bias element.
#[derive(Debug, Clone)]
struct ConvLayer<B> {
    in_shape: MapShape,
    out_shape: MapShape,
    kernel: usize,
    backend: B,
    /// im2col staging: `n_positions × in_channels·k²`, refilled each
    /// forward pass and re-read by the update stream.
    patches: Matrix,
    /// Pre-ReLU activations, `out_channels × positions`.
    pre: Vec<f32>,
    /// ReLU-masked upstream gradient, `out_channels × positions`.
    delta: Vec<f32>,
    /// Per-position gradient gather, `out_channels`.
    dpos: Vec<f32>,
    /// Per-position forward scatter, `out_channels`.
    pos_out: Vec<f32>,
    /// Per-position input-gradient staging, `in_channels·k²`.
    dpatch: Vec<f32>,
}

impl<B: LinearBackend> ConvLayer<B> {
    fn new(in_shape: MapShape, out_channels: usize, kernel: usize, backend: B) -> Self {
        assert!(kernel <= in_shape.height && kernel <= in_shape.width, "kernel exceeds input");
        let out_shape = MapShape {
            channels: out_channels,
            height: in_shape.height - kernel + 1,
            width: in_shape.width - kernel + 1,
        };
        let fan_in = in_shape.channels * kernel * kernel;
        assert_eq!(backend.in_dim(), fan_in, "backend input dim mismatch");
        assert_eq!(backend.out_dim(), out_channels, "backend output dim mismatch");
        let positions = out_shape.height * out_shape.width;
        ConvLayer {
            in_shape,
            out_shape,
            kernel,
            backend,
            patches: Matrix::zeros(positions, fan_in),
            pre: vec![0.0; out_channels * positions],
            delta: vec![0.0; out_channels * positions],
            dpos: vec![0.0; out_channels],
            pos_out: vec![0.0; out_channels],
            dpatch: vec![0.0; fan_in],
        }
    }

    fn positions(&self) -> usize {
        self.out_shape.height * self.out_shape.width
    }

    /// im2col into the persistent patch buffer: one row per output
    /// position, columns are the receptive field (no bias element — the
    /// backend drives its own bias line).
    fn fill_patches(&mut self, input: &[f32]) {
        let s = self.in_shape;
        assert_eq!(input.len(), s.len(), "input shape mismatch");
        let k = self.kernel;
        let mut row = 0;
        for oy in 0..self.out_shape.height {
            for ox in 0..self.out_shape.width {
                let dst = self.patches.row_mut(row);
                let mut c = 0;
                for ch in 0..s.channels {
                    for ky in 0..k {
                        for kx in 0..k {
                            dst[c] =
                                input[ch * s.height * s.width + (oy + ky) * s.width + (ox + kx)];
                            c += 1;
                        }
                    }
                }
                row += 1;
            }
        }
    }

    /// Forward with caching; output layout `channel-major` like the
    /// input (`out` is fully overwritten with post-ReLU activations).
    fn forward_into(&mut self, input: &[f32], out: &mut [f32]) {
        self.fill_patches(input);
        let positions = self.positions();
        let ocn = self.out_shape.channels;
        assert_eq!(out.len(), ocn * positions, "output shape mismatch");
        let ConvLayer { backend, patches, pre, pos_out, .. } = self;
        for p in 0..positions {
            backend.forward_into(patches.row(p), pos_out);
            for (oc, v) in pos_out.iter().enumerate() {
                pre[oc * positions + p] = *v;
            }
        }
        for (o, z) in out.iter_mut().zip(pre.iter()) {
            *o = z.max(0.0); // ReLU
        }
    }

    /// Backward + SGD update; `upstream` is `dL/d(post-ReLU output)` and
    /// `dinput` is fully overwritten with `dL/d(input)`.
    ///
    /// Two streaming passes over the cached patches: first every active
    /// position's transposed read is scattered back to its receptive
    /// field (using pre-update weights, like the monolithic form), then
    /// every active position applies its rank-1 update. Positions whose
    /// masked gradient is entirely zero are skipped in both passes —
    /// no crossbar cycle, no entropy drawn.
    fn backward_update_into(&mut self, upstream: &[f32], lr: f32, dinput: &mut [f32]) {
        let positions = self.positions();
        let ocn = self.out_shape.channels;
        assert_eq!(upstream.len(), ocn * positions, "gradient shape mismatch");
        let s = self.in_shape;
        assert_eq!(dinput.len(), s.len(), "input gradient shape mismatch");
        let k = self.kernel;
        let (oh, ow) = (self.out_shape.height, self.out_shape.width);
        let ConvLayer { backend, patches, pre, delta, dpos, dpatch, .. } = self;
        // ReLU mask.
        for ((d, g), z) in delta.iter_mut().zip(upstream).zip(pre.iter()) {
            *d = if *z > 0.0 { *g } else { 0.0 };
        }
        // Pass 1 — dL/dinput: scatter each position's transposed read
        // back to its receptive field.
        dinput.fill(0.0);
        let mut row = 0;
        for oy in 0..oh {
            for ox in 0..ow {
                let mut active = false;
                for (oc, d) in dpos.iter_mut().enumerate() {
                    *d = delta[oc * positions + row];
                    active |= *d != 0.0;
                }
                if active {
                    backend.backward_into(dpos, dpatch);
                    let mut c = 0;
                    for ch in 0..s.channels {
                        for ky in 0..k {
                            for kx in 0..k {
                                dinput
                                    [ch * s.height * s.width + (oy + ky) * s.width + (ox + kx)] +=
                                    dpatch[c];
                                c += 1;
                            }
                        }
                    }
                }
                row += 1;
            }
        }
        // Pass 2 — dL/dW as a stream of per-position rank-1 cycles (for
        // a digital backend this sums to exactly the batched gradient;
        // an analog backend realizes each as a stochastic pulse update).
        for p in 0..positions {
            let mut active = false;
            for (oc, d) in dpos.iter_mut().enumerate() {
                *d = delta[oc * positions + p];
                active |= *d != 0.0;
            }
            if active {
                backend.update(dpos, patches.row(p), lr);
            }
        }
    }
}

/// 2×2 max pooling (stride 2, truncating odd edges) with index caching
/// for backprop.
#[derive(Debug, Clone)]
struct MaxPool {
    in_shape: MapShape,
    out_shape: MapShape,
    cached_argmax: Vec<usize>,
}

impl MaxPool {
    fn new(in_shape: MapShape) -> Self {
        let out_shape = MapShape {
            channels: in_shape.channels,
            height: in_shape.height / 2,
            width: in_shape.width / 2,
        };
        assert!(!out_shape.is_empty(), "input too small to pool");
        MaxPool { in_shape, out_shape, cached_argmax: vec![0; out_shape.len()] }
    }

    fn forward_into(&mut self, input: &[f32], out: &mut [f32]) {
        let s = self.in_shape;
        let o = self.out_shape;
        assert_eq!(out.len(), o.len(), "pool output shape mismatch");
        for ch in 0..o.channels {
            for oy in 0..o.height {
                for ox in 0..o.width {
                    let mut best_val = f32::NEG_INFINITY;
                    let mut best_idx = 0;
                    for dy in 0..2 {
                        for dx in 0..2 {
                            let idx =
                                ch * s.height * s.width + (2 * oy + dy) * s.width + (2 * ox + dx);
                            if input[idx] > best_val {
                                best_val = input[idx];
                                best_idx = idx;
                            }
                        }
                    }
                    let oidx = ch * o.height * o.width + oy * o.width + ox;
                    out[oidx] = best_val;
                    self.cached_argmax[oidx] = best_idx;
                }
            }
        }
    }

    fn backward_into(&self, upstream: &[f32], dinput: &mut [f32]) {
        assert_eq!(dinput.len(), self.in_shape.len(), "pool gradient shape mismatch");
        dinput.fill(0.0);
        for (o, &g) in upstream.iter().enumerate() {
            dinput[self.cached_argmax[o]] += g;
        }
    }
}

/// One conv stage (conv + ReLU, optional 2×2 pool) with its persistent
/// activation and gradient buffers.
#[derive(Debug, Clone)]
struct ConvStage<B> {
    conv: ConvLayer<B>,
    pool: Option<MaxPool>,
    /// Post-ReLU conv output.
    conv_out: Vec<f32>,
    /// Post-pool output (empty when the stage has no pool).
    pool_out: Vec<f32>,
    /// Gradient wrt `conv_out` (empty when the stage has no pool).
    d_conv: Vec<f32>,
}

impl<B: LinearBackend> ConvStage<B> {
    /// The stage's output activations (post-pool when pooled).
    fn output(&self) -> &[f32] {
        if self.pool.is_some() {
            &self.pool_out
        } else {
            &self.conv_out
        }
    }

    fn run_forward(&mut self, input: &[f32]) {
        self.conv.forward_into(input, &mut self.conv_out);
        if let Some(p) = &mut self.pool {
            p.forward_into(&self.conv_out, &mut self.pool_out);
        }
    }

    /// `upstream` is the gradient wrt this stage's output; `dinput` is
    /// fully overwritten with the gradient wrt its input.
    fn backward_update(&mut self, upstream: &[f32], lr: f32, dinput: &mut [f32]) {
        if let Some(p) = &self.pool {
            p.backward_into(upstream, &mut self.d_conv);
            self.conv.backward_update_into(&self.d_conv, lr, dinput);
        } else {
            self.conv.backward_update_into(upstream, lr, dinput);
        }
    }
}

/// Architecture of a [`ConvNet`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConvNetConfig {
    /// Input feature-map shape.
    pub input: MapShape,
    /// Output channels of each conv stage (each stage = conv3×3 + ReLU,
    /// followed by 2×2 max-pool when the map is still large enough).
    pub conv_channels: Vec<usize>,
    /// Width of the dense embedding layer after flattening.
    pub embed_dim: usize,
    /// Class count of the softmax head.
    pub classes: usize,
}

/// A small CNN classifier: conv stages → dense embedding (tanh) → logits,
/// with every weight array behind a [`LinearBackend`] `B`. The embedding
/// layer and the head are an [`Mlp`], trained as any other.
///
/// # Example
///
/// ```
/// use enw_nn::conv::{ConvNet, ConvNetConfig, MapShape};
/// use enw_numerics::rng::Rng64;
///
/// let mut rng = Rng64::new(0);
/// let cfg = ConvNetConfig {
///     input: MapShape { channels: 1, height: 8, width: 8 },
///     conv_channels: vec![4],
///     embed_dim: 16,
///     classes: 3,
/// };
/// let mut net = ConvNet::new(&cfg, &mut rng);
/// let mut logits = [0.0; 3];
/// net.predict_into(&[0.0; 64], &mut logits);
/// assert!(logits.iter().all(|v| v.is_finite()));
/// ```
#[derive(Debug, Clone)]
pub struct ConvNet<B: LinearBackend = DigitalLinear> {
    stages: Vec<ConvStage<B>>,
    /// `[Tanh embedding, Identity head]` over the flattened features.
    tail: Mlp<B>,
    /// `dstage[i]` holds the gradient wrt stage `i`'s *input*.
    dstage: Vec<Vec<f32>>,
}

impl ConvNet<DigitalLinear> {
    /// Builds the floating-point reference network (Xavier-uniform
    /// weights, zero biases).
    ///
    /// # Panics
    ///
    /// Panics if the conv stack shrinks the map to nothing or any
    /// dimension is zero.
    pub fn new(cfg: &ConvNetConfig, rng: &mut Rng64) -> Self {
        let Ok(net) = ConvNet::try_with_backends(cfg, rng, |i, o, rng| {
            Ok::<_, Infallible>(DigitalLinear::new(i, o, rng))
        });
        net
    }
}

impl<B: LinearBackend> ConvNet<B> {
    /// Builds the network with `make(in_dim, out_dim, rng)` supplying
    /// every weight backend, in a fixed order: one per conv stage
    /// (input dim `in_channels·9`), then the embedding layer, then the
    /// head. Analog experiments pass a closure constructing crossbar
    /// tiles, which may refuse a layer shape (e.g. a tiling that does
    /// not fit); the deterministic call order makes the whole network a
    /// pure function of its configuration and seed.
    ///
    /// # Errors
    ///
    /// Propagates the first error `make` returns.
    ///
    /// # Panics
    ///
    /// Panics if the conv stack shrinks the map to nothing, any
    /// dimension is zero, or a supplied backend has the wrong shape.
    pub fn try_with_backends<E>(
        cfg: &ConvNetConfig,
        rng: &mut Rng64,
        mut make: impl FnMut(usize, usize, &mut Rng64) -> Result<B, E>,
    ) -> Result<Self, E> {
        assert!(cfg.classes > 0 && cfg.embed_dim > 0, "degenerate head");
        let mut shape = cfg.input;
        let mut stages = Vec::new();
        let mut dstage = Vec::new();
        for &oc in &cfg.conv_channels {
            let kernel = 3;
            assert!(kernel <= shape.height && kernel <= shape.width, "kernel exceeds input");
            dstage.push(vec![0.0; shape.len()]);
            let backend = make(shape.channels * kernel * kernel, oc, rng)?;
            let conv = ConvLayer::new(shape, oc, kernel, backend);
            shape = conv.out_shape;
            let conv_out_len = shape.len();
            let pool = if shape.height >= 4 && shape.width >= 4 {
                let pool = MaxPool::new(shape);
                shape = pool.out_shape;
                Some(pool)
            } else {
                None
            };
            stages.push(ConvStage {
                conv,
                conv_out: vec![0.0; conv_out_len],
                pool_out: if pool.is_some() { vec![0.0; shape.len()] } else { Vec::new() },
                d_conv: if pool.is_some() { vec![0.0; conv_out_len] } else { Vec::new() },
                pool,
            });
        }
        assert!(!shape.is_empty(), "conv stack consumed the whole input");
        let dims = [shape.len(), cfg.embed_dim, cfg.classes];
        let tail = Mlp::try_with_backends(&dims, Activation::Tanh, rng, make)?;
        Ok(ConvNet { stages, tail, dstage })
    }

    /// Embedding dimensionality.
    pub fn embed_dim(&self) -> usize {
        self.tail.layers()[0].out_dim()
    }

    /// Class count of the softmax head.
    pub fn classes(&self) -> usize {
        self.tail.out_dim()
    }

    /// Trainable layer count: conv stages + embedding + head.
    pub fn layer_count(&self) -> usize {
        self.stages.len() + self.tail.layers().len()
    }

    /// Every weight backend in construction order (conv stages, then
    /// embedding, then head) — the hook checkpointing uses to serialize
    /// analog tile state.
    pub fn backends(&self) -> impl Iterator<Item = &B> {
        let tail = self.tail.layers().iter().map(DenseLayer::backend);
        self.stages.iter().map(|s| &s.conv.backend).chain(tail)
    }

    /// Mutable access to every weight backend, in the same order as
    /// [`backends`](ConvNet::backends) — the restore-side hook.
    pub fn backends_mut(&mut self) -> impl Iterator<Item = &mut B> {
        let tail = self.tail.layers_mut().iter_mut().map(DenseLayer::backend_mut);
        self.stages.iter_mut().map(|s| &mut s.conv.backend).chain(tail)
    }

    /// Penultimate (embedding) activations into a caller-owned buffer —
    /// the feature vector the MANN memory stores. `out` is fully
    /// overwritten.
    pub fn embed_into(&mut self, input: &[f32], out: &mut [f32]) {
        self.tail.embed_into(forward_features(&mut self.stages, input), out);
    }

    /// Raw logits for one input into a caller-owned buffer (`out` is
    /// fully overwritten).
    pub fn predict_into(&mut self, input: &[f32], out: &mut [f32]) {
        self.tail.predict_into(forward_features(&mut self.stages, input), out);
    }

    /// Predicted class (allocation-free: the tail keeps its logits).
    pub fn classify(&mut self, input: &[f32]) -> usize {
        self.tail.classify(forward_features(&mut self.stages, input))
    }

    /// One SGD step; returns the sample loss. The tail takes its step
    /// (forward, backward, update), then the conv stages run backward and
    /// update in reverse. Allocation-free once warm.
    pub fn train_step(&mut self, input: &[f32], label: usize, lr: f32) -> f32 {
        let ConvNet { stages, tail, dstage } = self;
        let loss = tail.train_step(forward_features(stages, input), label, lr);
        // Conv stack in reverse; dstage[i] receives the gradient wrt
        // stage i's input, which is stage i-1's upstream.
        let mut upstream = tail.input_grad();
        for (stage, dst) in stages.iter_mut().rev().zip(dstage.iter_mut().rev()) {
            stage.backward_update(upstream, lr, dst);
            upstream = dst;
        }
        loss
    }

    /// Trains on a dataset with per-sample SGD; returns per-epoch mean
    /// loss.
    pub fn train(&mut self, data: &Dataset, epochs: usize, lr: f32, rng: &mut Rng64) -> Vec<f64> {
        data.sgd_epochs(epochs, rng, |x, label| self.train_step(x, label, lr))
    }

    /// Classification accuracy over a dataset.
    pub fn evaluate(&mut self, data: &Dataset) -> f64 {
        data.accuracy(|x| self.classify(x))
    }
}

/// Runs the conv stages on `input`; returns the flattened features the
/// tail reads (`input` itself when there are no stages).
fn forward_features<'a, B: LinearBackend>(
    stages: &'a mut [ConvStage<B>],
    input: &'a [f32],
) -> &'a [f32] {
    for i in 0..stages.len() {
        let (done, rest) = stages.split_at_mut(i);
        let Some(stage) = rest.first_mut() else { break };
        stage.run_forward(done.last().map_or(input, |s| s.output()));
    }
    stages.last().map_or(input, |s| s.output())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::SyntheticImages;
    use enw_numerics::vector::argmax;

    fn cfg(classes: usize) -> ConvNetConfig {
        ConvNetConfig {
            input: MapShape { channels: 1, height: 8, width: 8 },
            conv_channels: vec![6],
            embed_dim: 24,
            classes,
        }
    }

    fn digital_conv(
        in_shape: MapShape,
        oc: usize,
        k: usize,
        seed: u64,
    ) -> ConvLayer<DigitalLinear> {
        let mut rng = Rng64::new(seed);
        let backend = DigitalLinear::new(in_shape.channels * k * k, oc, &mut rng);
        ConvLayer::new(in_shape, oc, k, backend)
    }

    #[test]
    fn shapes_flow_through() {
        let mut rng = Rng64::new(1);
        let mut net = ConvNet::new(&cfg(4), &mut rng);
        let (mut logits, mut e) = (vec![f32::NAN; 4], vec![f32::NAN; 24]);
        net.predict_into(&[0.1; 64], &mut logits);
        net.embed_into(&[0.1; 64], &mut e);
        assert!(logits.iter().chain(&e).all(|v| v.is_finite()));
        assert_eq!(net.classify(&[0.1; 64]), argmax(&logits));
        assert_eq!(net.layer_count(), 3);
        assert_eq!(net.backends_mut().count(), 3);
    }

    #[test]
    fn im2col_extracts_receptive_fields() {
        let shape = MapShape { channels: 1, height: 3, width: 3 };
        let mut conv = digital_conv(shape, 1, 3, 2);
        let input: Vec<f32> = (0..9).map(|i| i as f32).collect();
        conv.fill_patches(&input);
        assert_eq!(conv.patches.rows(), 1); // single 3x3 position
        assert_eq!(conv.patches.row(0), &input[..]); // no bias element
    }

    #[test]
    fn pooling_keeps_maxima() {
        let shape = MapShape { channels: 1, height: 4, width: 4 };
        let mut pool = MaxPool::new(shape);
        let mut input = vec![0.0f32; 16];
        input[5] = 3.0; // window (1,1) of the top-left 2x2 block? position (1,1)
        input[10] = 7.0;
        let mut out = vec![0.0f32; pool.out_shape.len()];
        pool.forward_into(&input, &mut out);
        assert_eq!(out.len(), 4);
        assert_eq!(out[0], 3.0);
        assert_eq!(out[3], 7.0);
    }

    #[test]
    fn pool_backward_routes_to_argmax() {
        let shape = MapShape { channels: 1, height: 2, width: 2 };
        let mut pool = MaxPool::new(shape);
        let input = [1.0f32, 5.0, 2.0, 3.0];
        let mut out = vec![0.0f32; 1];
        pool.forward_into(&input, &mut out);
        let mut d = vec![0.0f32; 4];
        pool.backward_into(&[1.0], &mut d);
        assert_eq!(d, vec![0.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn conv_gradient_matches_finite_difference() {
        // Check dL/dinput of a conv layer against finite differences of
        // L = sum(relu(conv(x))).
        let shape = MapShape { channels: 1, height: 4, width: 4 };
        let mut conv = digital_conv(shape, 2, 3, 3);
        let input: Vec<f32> = (0..16).map(|i| (i as f32 / 8.0) - 1.0).collect();
        let mut out = vec![0.0f32; conv.out_shape.len()];
        conv.forward_into(&input, &mut out);
        let upstream = vec![1.0f32; out.len()];
        // lr = 0 isolates the input gradient from the weight update.
        let mut dinput = vec![0.0f32; 16];
        conv.backward_update_into(&upstream, 0.0, &mut dinput);
        let eps = 1e-3f32;
        for i in [0usize, 5, 10, 15] {
            let mut xp = input.clone();
            xp[i] += eps;
            let mut xm = input.clone();
            xm[i] -= eps;
            conv.forward_into(&xp, &mut out);
            let lp: f32 = out.iter().sum();
            conv.forward_into(&xm, &mut out);
            let lm: f32 = out.iter().sum();
            let num = (lp - lm) / (2.0 * eps);
            assert!((num - dinput[i]).abs() < 0.05, "pixel {i}: {num} vs {}", dinput[i]);
        }
    }

    #[test]
    fn learns_a_small_image_task() {
        let mut rng = Rng64::new(4);
        let split = SyntheticImages::builder()
            .classes(3)
            .dim(64)
            .train_per_class(40)
            .test_per_class(15)
            .noise(0.4)
            .build(&mut rng);
        let mut net = ConvNet::new(&cfg(3), &mut rng);
        let hist = net.train(&split.train, 6, 0.03, &mut rng);
        assert!(hist.last().expect("epochs") < &hist[0], "loss did not fall: {hist:?}");
        let acc = net.evaluate(&split.test);
        assert!(acc > 0.7, "conv accuracy {acc}");
    }

    #[test]
    fn deeper_stack_constructs() {
        let mut rng = Rng64::new(5);
        let cfg = ConvNetConfig {
            input: MapShape { channels: 1, height: 12, width: 12 },
            conv_channels: vec![4, 8],
            embed_dim: 16,
            classes: 2,
        };
        let mut net = ConvNet::new(&cfg, &mut rng);
        net.predict_into(&[0.0; 144], &mut [0.0; 2]);
        assert_eq!(net.layer_count(), 4);
    }

    #[test]
    #[should_panic(expected = "kernel exceeds input")]
    fn oversized_kernel_panics() {
        let mut rng = Rng64::new(6);
        let cfg = ConvNetConfig {
            input: MapShape { channels: 1, height: 2, width: 2 },
            conv_channels: vec![4],
            embed_dim: 8,
            classes: 2,
        };
        ConvNet::new(&cfg, &mut rng);
    }
}
