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
use crate::loss::softmax_cross_entropy;
use enw_numerics::packed::PackedMatvec;
use enw_numerics::rng::Rng64;
use enw_numerics::vector::argmax;

/// Hyper-parameters for SGD training.
///
/// Construct via [`SgdConfig::builder`]; direct struct-literal
/// construction in downstream code is deprecated (it bypasses
/// validation and will stop compiling as fields are added).
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
    /// Starts a validating builder seeded with the default schedule.
    pub fn builder() -> SgdConfigBuilder {
        SgdConfigBuilder { cfg: SgdConfig::default() }
    }
}

/// Validating builder for [`SgdConfig`].
///
/// `build()` rejects schedules that cannot train (zero epochs,
/// non-positive or non-finite step sizes) with a typed
/// [`NnError`](crate::error::NnError).
#[derive(Debug, Clone)]
pub struct SgdConfigBuilder {
    cfg: SgdConfig,
}

impl SgdConfigBuilder {
    /// Sets the number of passes over the training set.
    pub fn epochs(mut self, epochs: usize) -> Self {
        self.cfg.epochs = epochs;
        self
    }

    /// Sets the step size for every rank-1 update.
    pub fn learning_rate(mut self, learning_rate: f32) -> Self {
        self.cfg.learning_rate = learning_rate;
        self
    }

    /// Validates and produces the configuration.
    pub fn build(self) -> Result<SgdConfig, crate::error::NnError> {
        use crate::error::NnError;
        if self.cfg.epochs == 0 {
            return Err(NnError::InvalidConfig { reason: "epochs must be at least 1" });
        }
        if !self.cfg.learning_rate.is_finite() || self.cfg.learning_rate <= 0.0 {
            return Err(NnError::InvalidConfig {
                reason: "learning_rate must be finite and positive",
            });
        }
        Ok(self.cfg)
    }
}

/// A feed-forward classifier built from [`DenseLayer`]s.
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
/// let logits = mlp.predict(&[0.0; 8]);
/// assert_eq!(logits.len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct Mlp<B> {
    layers: Vec<DenseLayer<B>>,
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
        assert!(dims.len() >= 2, "need at least input and output dims");
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| {
                let act =
                    if i + 2 == dims.len() { Activation::Identity } else { hidden_activation };
                DenseLayer::new(DigitalLinear::new(w[0], w[1], rng), act)
            })
            .collect();
        Mlp { layers }
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
    /// Builds an MLP from pre-constructed layers (used by the analog
    /// substrate, which needs device-specific tile construction).
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty or consecutive dimensions do not chain.
    pub fn from_layers(layers: Vec<DenseLayer<B>>) -> Self {
        assert!(!layers.is_empty(), "need at least one layer");
        for pair in layers.windows(2) {
            assert_eq!(pair[0].out_dim(), pair[1].in_dim(), "layer dimensions do not chain");
        }
        Mlp { layers }
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

    /// Inference forward pass returning raw logits.
    pub fn predict(&mut self, x: &[f32]) -> Vec<f32> {
        let mut logits = vec![0.0f32; self.out_dim()];
        self.predict_into(x, &mut logits);
        logits
    }

    /// Inference forward pass into a caller-owned logits buffer (`out`
    /// is fully overwritten). Per-layer activations ping-pong through
    /// two persistent workspaces borrowed from the thread-local scratch
    /// pool, so a warm steady-state call performs no heap allocation.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != in_dim()` or `out.len() != out_dim()`.
    pub fn predict_into(&mut self, x: &[f32], out: &mut [f32]) {
        let last = self.layers.len() - 1;
        if last == 0 {
            return self.layers[0].infer_into(x, out);
        }
        let widest = self.layers[..last].iter().map(|l| l.out_dim()).max().unwrap_or(1);
        let mut cur = enw_parallel::scratch::take_f32(widest);
        let mut nxt = enw_parallel::scratch::take_f32(widest);
        let mut cur_len = self.layers[0].out_dim();
        self.layers[0].infer_into(x, &mut cur[..cur_len]);
        for i in 1..last {
            let w = self.layers[i].out_dim();
            self.layers[i].infer_into(&cur[..cur_len], &mut nxt[..w]);
            std::mem::swap(&mut cur, &mut nxt);
            cur_len = w;
        }
        self.layers[last].infer_into(&cur[..cur_len], out);
    }

    /// Predicted class label.
    pub fn classify(&mut self, x: &[f32]) -> usize {
        let mut logits = enw_parallel::scratch::take_f32(self.out_dim());
        self.predict_into(x, &mut logits);
        argmax(&logits)
    }

    /// One SGD step on a single `(x, label)` pair; returns the sample loss.
    pub fn train_step(&mut self, x: &[f32], label: usize, lr: f32) -> f32 {
        let mut a = x.to_vec();
        for layer in &mut self.layers {
            a = layer.forward(&a);
        }
        let (loss, mut grad) = softmax_cross_entropy(&a, label);
        for layer in self.layers.iter_mut().rev() {
            grad = layer.backward(&grad);
        }
        for layer in &mut self.layers {
            layer.apply_update(lr);
        }
        loss
    }

    /// Trains with per-sample SGD; returns the mean loss of each epoch.
    pub fn train_sgd(&mut self, data: &Dataset, cfg: &SgdConfig, rng: &mut Rng64) -> Vec<f64> {
        let mut order: Vec<usize> = (0..data.len()).collect();
        let mut history = Vec::with_capacity(cfg.epochs);
        for _ in 0..cfg.epochs {
            rng.shuffle(&mut order);
            let mut total = 0.0f64;
            for &i in &order {
                total += self.train_step(data.input(i), data.label(i), cfg.learning_rate) as f64;
            }
            history.push(total / data.len() as f64);
        }
        history
    }

    /// Classification accuracy over a dataset.
    pub fn evaluate(&mut self, data: &Dataset) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let correct =
            (0..data.len()).filter(|&i| self.classify(data.input(i)) == data.label(i)).count();
        correct as f64 / data.len() as f64
    }
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
        assert_eq!(SgdConfig::builder().build().unwrap(), SgdConfig::default());
    }

    #[test]
    fn builder_rejects_zero_epochs() {
        let err = SgdConfig::builder().epochs(0).build().unwrap_err();
        assert!(err.to_string().contains("epochs"), "{err}");
    }

    #[test]
    fn builder_rejects_bad_learning_rate() {
        assert!(SgdConfig::builder().learning_rate(0.0).build().is_err());
        assert!(SgdConfig::builder().learning_rate(f32::NAN).build().is_err());
        assert!(SgdConfig::builder().learning_rate(-0.1).build().is_err());
    }
}
