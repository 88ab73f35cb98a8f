//! Multi-layer perceptrons over any [`LinearBackend`], trained with
//! per-sample SGD.
//!
//! Per-sample (batch-size-1) SGD is deliberate: it is exactly the regime a
//! resistive-crossbar accelerator runs in, where each example triggers one
//! forward, one backward and one parallel rank-1 update cycle per layer
//! (paper Sec. II-A).

use crate::activation::Activation;
use crate::backend::{DigitalLinear, LinearBackend};
use crate::data::Dataset;
use crate::layer::DenseLayer;
use crate::loss::softmax_cross_entropy_into;
use enw_numerics::error::{check, ConfigError};
use enw_numerics::packed::PackedMatvec;
use enw_numerics::rng::Rng64;
use enw_numerics::vector::argmax;
use std::convert::Infallible;

/// Hyper-parameters for SGD training. Write it as a struct literal and
/// check it with [`validate`](SgdConfig::validate).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SgdConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Step size for every rank-1 update.
    pub learning_rate: f32,
}

impl Default for SgdConfig {
    fn default() -> Self {
        SgdConfig { epochs: 10, learning_rate: 0.05 }
    }
}

impl SgdConfig {
    /// Checks the schedule: at least one epoch and a finite, positive
    /// step size.
    pub fn validate(&self) -> Result<(), ConfigError> {
        check(self.epochs > 0, "epochs must be at least 1")?;
        let lr = self.learning_rate;
        check(lr.is_finite() && lr > 0.0, "learning_rate must be finite and positive")
    }
}

/// A feed-forward classifier built from [`DenseLayer`]s: the one
/// trainable dense stack, whatever its backend (digital weights, the
/// analog tiles of `enw-crossbar`, a [`ConvNet`](crate::conv::ConvNet)'s
/// tail).
///
/// # Example
///
/// ```
/// use enw_nn::mlp::Mlp;
/// use enw_nn::activation::Activation;
/// use enw_numerics::rng::Rng64;
///
/// let mut rng = Rng64::new(0);
/// let mut mlp = Mlp::digital(&[8, 16, 3], Activation::Tanh, &mut rng);
/// let mut logits = [0.0; 3];
/// mlp.predict_into(&[0.0; 8], &mut logits);
/// assert!(logits.iter().all(|v| v.is_finite()));
/// ```
#[derive(Debug, Clone)]
pub struct Mlp<B> {
    layers: Vec<DenseLayer<B>>,
    /// Two ping-pong halves, each as wide as the widest hidden layer:
    /// the hidden activations of every forward pass, then the hidden
    /// gradients of [`train_step`](Mlp::train_step)'s backward pass.
    workspace: Vec<f32>,
    /// The logits of [`classify`](Mlp::classify) and
    /// [`train_step`](Mlp::train_step).
    logits: Vec<f32>,
    /// The loss gradient of the last step's logits.
    dlogits: Vec<f32>,
    /// The loss gradient of the last step's input.
    input_grad: Vec<f32>,
}

impl Mlp<DigitalLinear> {
    /// Builds a digital (floating-point) MLP with the given layer sizes.
    ///
    /// `dims = [in, h1, …, out]`; hidden layers use `hidden_activation`,
    /// the output layer is identity (raw logits).
    ///
    /// # Panics
    ///
    /// Panics if fewer than two dimensions are given.
    pub fn digital(dims: &[usize], hidden_activation: Activation, rng: &mut Rng64) -> Self {
        let Ok(mlp) = Mlp::try_with_backends(dims, hidden_activation, rng, |i, o, rng| {
            Ok::<_, Infallible>(DigitalLinear::new(i, o, rng))
        });
        mlp
    }

    /// The read-only image of this stack as it stands: every layer's
    /// weights packed, its activation kept. Later training of `self`
    /// does not reach the image.
    pub fn freeze(&self) -> FrozenMlp {
        let layers: Vec<_> = self
            .layers
            .iter()
            .map(|l| (PackedMatvec::pack(&l.backend().weights()), l.activation()))
            .collect();
        let hidden = &layers[..layers.len() - 1];
        let widest = hidden.iter().map(|(w, _)| w.rows()).max().unwrap_or(0);
        FrozenMlp { layers, widest }
    }
}

/// A trained `Mlp<DigitalLinear>` frozen for inference
/// ([`Mlp::freeze`]): each layer's `out × (in + 1)` weights as a
/// [`PackedMatvec`], read through its bias form, plus the layer's
/// activation. Nothing can write it, so the pack is never stale, reads
/// take `&self` (threads may share one stack), and every logit is bit
/// for bit what [`Mlp::predict_into`] writes.
///
/// The caller lends the activation workspace —
/// [`workspace_len`](FrozenMlp::workspace_len) elements, contents
/// ignored and overwritten — so one buffer serves a whole batch of calls.
#[derive(Debug, Clone)]
pub struct FrozenMlp {
    layers: Vec<(PackedMatvec, Activation)>,
    /// Widest hidden activation: half the workspace of one input.
    widest: usize,
}

impl FrozenMlp {
    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.layers.last().map_or(0, |(w, _)| w.rows())
    }

    /// Workspace elements a pass over `b` inputs needs (two ping-pong
    /// halves of the widest hidden activation; 0 for a one-layer stack).
    pub fn workspace_len(&self, b: usize) -> usize {
        2 * b * self.widest
    }

    /// Logits of one input into `out` (fully overwritten), each layer run
    /// outputs abreast.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not the stack's input width, `out.len() != out_dim()` or
    /// `workspace` is shorter than `workspace_len(1)`.
    pub fn predict_into(&self, x: &[f32], out: &mut [f32], workspace: &mut [f32]) {
        self.run(1, x, out, workspace, PackedMatvec::matvec_bias_into);
    }

    /// [`predict_into`](FrozenMlp::predict_into) for a whole batch: `xs`
    /// is `b × in_dim` row-major, `out` is `b × out_dim` and fully
    /// overwritten with the logits of every row — bit for bit what `b`
    /// `predict_into` calls write, each layer run once over the batch
    /// with the inputs abreast.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` is not `b × out_dim()`, `xs` is not `b`
    /// inputs wide or `workspace` is shorter than `workspace_len(b)`.
    pub fn predict_batch_into(&self, xs: &[f32], out: &mut [f32], workspace: &mut [f32]) {
        let b = out.len() / self.out_dim();
        self.run(b, xs, out, workspace, PackedMatvec::matvec_bias_batch_into);
    }

    /// The layer walk both passes share: activations ping-pong between
    /// the two halves of `workspace`, `read` is the packed kernel.
    #[inline(always)]
    fn run(
        &self,
        b: usize,
        xs: &[f32],
        out: &mut [f32],
        workspace: &mut [f32],
        read: impl Fn(&PackedMatvec, &[f32], &mut [f32]),
    ) {
        let Some(((last, last_act), hidden)) = self.layers.split_last() else { return };
        let (mut cur, mut nxt) = workspace[..self.workspace_len(b)].split_at_mut(b * self.widest);
        // `None` while the input is still the caller's.
        let mut cur_len = None;
        for (w, act) in hidden {
            let y = &mut nxt[..b * w.rows()];
            read(w, cur_len.map_or(xs, |n| &cur[..n]), y);
            act.apply_slice(y);
            cur_len = Some(y.len());
            std::mem::swap(&mut cur, &mut nxt);
        }
        read(last, cur_len.map_or(xs, |n| &cur[..n]), out);
        last_act.apply_slice(out);
    }
}

impl<B: LinearBackend> Mlp<B> {
    /// Builds the stack `dims = [in, h1, …, out]` with
    /// `make(in_dim, out_dim, rng)` supplying each layer's backend, input
    /// side first; hidden layers use `hidden_activation`, the output
    /// layer is identity (raw logits). The call order makes the stack a
    /// pure function of `dims` and the seed.
    ///
    /// # Errors
    ///
    /// Propagates the first error `make` returns (e.g. an analog tiling
    /// that does not fit).
    ///
    /// # Panics
    ///
    /// Panics if fewer than two dimensions are given or a supplied
    /// backend has the wrong shape.
    pub fn try_with_backends<E>(
        dims: &[usize],
        hidden_activation: Activation,
        rng: &mut Rng64,
        mut make: impl FnMut(usize, usize, &mut Rng64) -> Result<B, E>,
    ) -> Result<Self, E> {
        assert!(dims.len() >= 2, "need at least input and output dims");
        let mut layers = Vec::with_capacity(dims.len() - 1);
        for (i, w) in dims.windows(2).enumerate() {
            let backend = make(w[0], w[1], rng)?;
            assert_eq!((backend.in_dim(), backend.out_dim()), (w[0], w[1]), "backend shape");
            let act = if i + 2 == dims.len() { Activation::Identity } else { hidden_activation };
            layers.push(DenseLayer::new(backend, act));
        }
        Ok(Mlp::from_layers(layers))
    }

    /// Chains `layers` and sizes every buffer the stack owns.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty or consecutive dimensions do not chain.
    fn from_layers(layers: Vec<DenseLayer<B>>) -> Self {
        assert!(!layers.is_empty(), "need at least one layer");
        for pair in layers.windows(2) {
            assert_eq!(pair[0].out_dim(), pair[1].in_dim(), "layer dimensions do not chain");
        }
        let hidden = &layers[..layers.len() - 1];
        let widest = hidden.iter().map(|l| l.out_dim()).max().unwrap_or(0);
        let (in_dim, out_dim) = (layers[0].in_dim(), layers[layers.len() - 1].out_dim());
        Mlp {
            layers,
            workspace: vec![0.0; 2 * widest],
            logits: vec![0.0; out_dim],
            dlogits: vec![0.0; out_dim],
            input_grad: vec![0.0; in_dim],
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Output (class-count) dimension (0 for an empty stack, which the
    /// constructors reject).
    pub fn out_dim(&self) -> usize {
        self.layers.last().map_or(0, |l| l.out_dim())
    }

    /// The layer stack.
    pub fn layers(&self) -> &[DenseLayer<B>] {
        &self.layers
    }

    /// Mutable access to the layer stack.
    pub fn layers_mut(&mut self) -> &mut [DenseLayer<B>] {
        &mut self.layers
    }

    /// Inference forward pass into a caller-owned buffer of raw logits
    /// (`out` is fully overwritten). Per-layer activations ping-pong through
    /// the two halves of a workspace the stack owns, so a warm call
    /// performs no heap allocation.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != in_dim()` or `out.len() != out_dim()`.
    pub fn predict_into(&mut self, x: &[f32], out: &mut [f32]) {
        let Mlp { layers, workspace, .. } = self;
        walk(layers, workspace, x, out, DenseLayer::infer_into);
    }

    /// Every layer but the head, run on `x` into `out` (fully
    /// overwritten): the penultimate activations, the feature vector a
    /// few-shot memory stores. Allocation-free like
    /// [`predict_into`](Mlp::predict_into).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != in_dim()` or `out` is not the penultimate
    /// width (`in_dim()` for a one-layer stack).
    pub fn embed_into(&mut self, x: &[f32], out: &mut [f32]) {
        let Mlp { layers, workspace, .. } = self;
        let head = layers.len() - 1;
        walk(&mut layers[..head], workspace, x, out, DenseLayer::infer_into);
    }

    /// Predicted class label.
    pub fn classify(&mut self, x: &[f32]) -> usize {
        let Mlp { layers, workspace, logits, .. } = self;
        walk(layers, workspace, x, logits, DenseLayer::infer_into);
        argmax(logits)
    }

    /// One SGD step on a single `(x, label)` pair; returns the sample
    /// loss. Every layer runs forward, then backward in reverse, then
    /// every layer applies its update in forward order. Activations and
    /// gradients live in buffers the stack owns, so a warm step performs
    /// no heap allocation. The gradient of `x` stays in the stack, where a
    /// [`ConvNet`](crate::conv::ConvNet) reads it for its conv stages.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != in_dim()` or `label >= out_dim()`.
    pub fn train_step(&mut self, x: &[f32], label: usize, lr: f32) -> f32 {
        let Mlp { layers, workspace, logits, dlogits, input_grad } = self;
        walk(layers, workspace, x, logits, DenseLayer::forward_into);
        let loss = softmax_cross_entropy_into(logits, label, dlogits);
        let half = workspace.len() / 2;
        let (mut cur, mut nxt) = workspace.split_at_mut(half);
        // `None` while the upstream gradient is still `dlogits`.
        let mut cur_len = None;
        for (i, layer) in layers.iter_mut().enumerate().rev() {
            let dx = if i == 0 { &mut input_grad[..] } else { &mut nxt[..layer.in_dim()] };
            layer.backward_into(cur_len.map_or(&dlogits[..], |n| &cur[..n]), dx);
            cur_len = Some(dx.len());
            std::mem::swap(&mut cur, &mut nxt);
        }
        for layer in layers.iter_mut() {
            layer.apply_update(lr);
        }
        loss
    }

    /// The loss gradient of the last [`train_step`](Mlp::train_step)'s
    /// input (zeros before the first step): the upstream gradient of the
    /// conv stages that feed a [`ConvNet`](crate::conv::ConvNet)'s tail.
    pub(crate) fn input_grad(&self) -> &[f32] {
        &self.input_grad
    }

    /// Trains with per-sample SGD; returns the mean loss of each epoch.
    pub fn train_sgd(&mut self, data: &Dataset, cfg: &SgdConfig, rng: &mut Rng64) -> Vec<f64> {
        data.sgd_epochs(cfg.epochs, rng, |x, label| self.train_step(x, label, cfg.learning_rate))
    }

    /// Classification accuracy over a dataset.
    pub fn evaluate(&mut self, data: &Dataset) -> f64 {
        data.accuracy(|x| self.classify(x))
    }
}

/// Runs `layers` on `x` through `pass`, the last writing `out`; the
/// hidden activations ping-pong between the two halves of `workspace`.
/// No layers copy `x` to `out`.
fn walk<B: LinearBackend>(
    layers: &mut [DenseLayer<B>],
    workspace: &mut [f32],
    x: &[f32],
    out: &mut [f32],
    mut pass: impl FnMut(&mut DenseLayer<B>, &[f32], &mut [f32]),
) {
    let Some((last, hidden)) = layers.split_last_mut() else { return out.copy_from_slice(x) };
    let half = workspace.len() / 2;
    let (mut cur, mut nxt) = workspace.split_at_mut(half);
    // `None` while the input is still the caller's.
    let mut cur_len = None;
    for layer in hidden {
        let y = &mut nxt[..layer.out_dim()];
        pass(layer, cur_len.map_or(x, |n| &cur[..n]), y);
        cur_len = Some(y.len());
        std::mem::swap(&mut cur, &mut nxt);
    }
    pass(last, cur_len.map_or(x, |n| &cur[..n]), out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::SyntheticImages;

    #[test]
    fn dimensions_propagate() {
        let mut rng = Rng64::new(1);
        let mlp = Mlp::digital(&[4, 8, 3], Activation::Relu, &mut rng);
        assert_eq!(mlp.in_dim(), 4);
        assert_eq!(mlp.out_dim(), 3);
        assert_eq!(mlp.layers().len(), 2);
    }

    #[test]
    fn output_layer_is_identity() {
        let mut rng = Rng64::new(1);
        let mlp = Mlp::digital(&[4, 8, 3], Activation::Relu, &mut rng);
        assert_eq!(mlp.layers()[1].activation(), Activation::Identity);
        assert_eq!(mlp.layers()[0].activation(), Activation::Relu);
    }

    #[test]
    #[should_panic(expected = "do not chain")]
    fn mismatched_layers_panic() {
        let mut rng = Rng64::new(1);
        let l1 = DenseLayer::new(DigitalLinear::new(4, 8, &mut rng), Activation::Tanh);
        let l2 = DenseLayer::new(DigitalLinear::new(9, 3, &mut rng), Activation::Identity);
        Mlp::from_layers(vec![l1, l2]);
    }

    #[test]
    fn training_reduces_loss() {
        let mut rng = Rng64::new(2);
        let data = SyntheticImages::builder()
            .classes(3)
            .dim(12)
            .train_per_class(40)
            .test_per_class(10)
            .build(&mut rng);
        let mut mlp = Mlp::digital(&[12, 16, 3], Activation::Tanh, &mut rng);
        let hist =
            mlp.train_sgd(&data.train, &SgdConfig { epochs: 8, learning_rate: 0.05 }, &mut rng);
        assert!(hist.last().expect("epochs > 0") < &hist[0], "loss did not fall: {hist:?}");
    }

    #[test]
    fn learns_linearly_separable_task_to_high_accuracy() {
        let mut rng = Rng64::new(3);
        let data = SyntheticImages::builder()
            .classes(2)
            .dim(10)
            .train_per_class(80)
            .test_per_class(40)
            .noise(0.3)
            .build(&mut rng);
        let mut mlp = Mlp::digital(&[10, 16, 2], Activation::Tanh, &mut rng);
        mlp.train_sgd(&data.train, &SgdConfig { epochs: 15, learning_rate: 0.05 }, &mut rng);
        let acc = mlp.evaluate(&data.test);
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn owned_workspaces_hold_no_stale_state() {
        // A warm stack and a clone whose workspaces arrive full of NaN
        // agree bit for bit.
        let mut rng = Rng64::new(5);
        let mut mlp = Mlp::digital(&[6, 9, 12, 4], Activation::Relu, &mut rng);
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        let (x, y) = ([0.3, -0.2, 0.1, 0.9, -0.7, 0.0], [-0.4, 0.5, 0.2, -0.1, 0.6, 0.8]);
        mlp.classify(&x);
        let mut dirty = mlp.clone();
        dirty.workspace.fill(f32::NAN);
        let (mut got, mut want) = ([0.0f32; 4], [0.0f32; 4]);
        dirty.predict_into(&y, &mut got);
        mlp.predict_into(&y, &mut want);
        assert_eq!(bits(&got), bits(&want));
        dirty.workspace.fill(f32::NAN);
        dirty.logits.fill(f32::NAN);
        assert_eq!(dirty.classify(&x), mlp.classify(&x));
        // A training step, every owned buffer arriving dirty, moves the
        // weights and the input gradient bit for bit alike.
        let Mlp { workspace, logits, dlogits, input_grad, .. } = &mut dirty;
        for buf in [workspace, logits, dlogits, input_grad] {
            buf.fill(f32::NAN);
        }
        let loss = mlp.train_step(&y, 2, 0.1).to_bits();
        assert_eq!(dirty.train_step(&y, 2, 0.1).to_bits(), loss);
        assert_eq!(bits(dirty.input_grad()), bits(mlp.input_grad()));
        for (d, m) in dirty.layers().iter().zip(mlp.layers()) {
            assert_eq!(
                bits(d.backend().weights().as_slice()),
                bits(m.backend().weights().as_slice())
            );
        }
    }

    #[test]
    fn input_gradient_matches_finite_difference_of_the_loss() {
        let mut rng = Rng64::new(6);
        let mut mlp = Mlp::digital(&[5, 7, 6, 3], Activation::Tanh, &mut rng);
        let x = [0.4f32, -0.3, 0.8, -0.1, 0.2];
        // lr = 0 leaves the weights where the gradient was taken.
        mlp.train_step(&x, 1, 0.0);
        let dx = mlp.input_grad().to_vec();
        let mut loss_at = |x: &[f32]| {
            let (mut logits, mut grad) = ([0.0f32; 3], [0.0f32; 3]);
            mlp.predict_into(x, &mut logits);
            softmax_cross_entropy_into(&logits, 1, &mut grad)
        };
        let eps = 1e-3f32;
        for i in 0..x.len() {
            let (mut xp, mut xm) = (x, x);
            xp[i] += eps;
            xm[i] -= eps;
            let num = (loss_at(&xp) - loss_at(&xm)) / (2.0 * eps);
            assert!((num - dx[i]).abs() < 1e-2, "dim {i}: {num} vs {}", dx[i]);
        }
    }

    #[test]
    fn embed_into_stops_before_the_head() {
        let mut rng = Rng64::new(7);
        let mut mlp = Mlp::digital(&[4, 6, 5, 3], Activation::Relu, &mut rng);
        let x = [0.5f32, -0.25, 0.75, 0.1];
        let mut want = x.to_vec();
        for layer in &mut mlp.layers_mut()[..2] {
            let mut a = vec![0.0f32; layer.out_dim()];
            layer.infer_into(&want, &mut a);
            want = a;
        }
        let mut got = [f32::NAN; 5];
        mlp.embed_into(&x, &mut got);
        assert_eq!(got.to_vec(), want);
    }

    #[test]
    fn predict_batch_matches_predict_into_bitwise() {
        // The frozen image, one input at a time and a batch at a time,
        // against the stack it was frozen from: 1-, 2-, 3- and 4-layer
        // stacks, identity and ReLU outputs, a workspace that arrives dirty.
        let mut rng = Rng64::new(4);
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        for dims in [&[6, 3][..], &[6, 16, 1], &[5, 9, 12, 4], &[7, 33, 8, 17, 10]] {
            for output in [Activation::Identity, Activation::Relu] {
                let layers = dims.windows(2).enumerate().map(|(i, w)| {
                    let act = if i + 2 == dims.len() { output } else { Activation::Relu };
                    DenseLayer::new(DigitalLinear::new(w[0], w[1], &mut rng), act)
                });
                let mut mlp = Mlp::from_layers(layers.collect());
                let frozen = mlp.freeze();
                let (in_dim, out_dim) = (mlp.in_dim(), mlp.out_dim());
                assert_eq!(frozen.out_dim(), out_dim);
                for b in [0usize, 1, 3, 4, 5, 33] {
                    let xs: Vec<f32> = (0..b * in_dim).map(|_| rng.uniform_f32() - 0.5).collect();
                    let mut want = vec![f32::NAN; b * out_dim];
                    let mut one_by_one = want.clone();
                    let mut ws = vec![f32::NAN; frozen.workspace_len(b.max(1))];
                    let rows =
                        want.chunks_exact_mut(out_dim).zip(one_by_one.chunks_exact_mut(out_dim));
                    for (x, (y, y_frozen)) in xs.chunks_exact(in_dim).zip(rows) {
                        mlp.predict_into(x, y);
                        frozen.predict_into(x, y_frozen, &mut ws);
                    }
                    assert_eq!(bits(&one_by_one), bits(&want), "{dims:?} {output:?}, b = {b}");
                    let mut got = vec![f32::NAN; b * out_dim];
                    frozen.predict_batch_into(&xs, &mut got, &mut ws);
                    assert_eq!(bits(&got), bits(&want), "{dims:?} {output:?}, b = {b}, batched");
                }
            }
        }
    }

    #[test]
    fn builder_defaults_match_default() {
        assert_eq!(SgdConfig::default().validate(), Ok(()));
    }

    #[test]
    fn builder_rejects_zero_epochs() {
        let err = SgdConfig { epochs: 0, ..SgdConfig::default() }.validate().unwrap_err();
        assert!(err.to_string().contains("epochs"), "{err}");
    }

    #[test]
    fn builder_rejects_bad_learning_rate() {
        for learning_rate in [0.0, f32::NAN, -0.1] {
            assert!(SgdConfig { learning_rate, ..SgdConfig::default() }.validate().is_err());
        }
    }
}
